//! The `!stream` wire mode: the serve protocol's streaming sessions.
//!
//! A client sends one `!stream Function[...]` frame; the server compiles
//! the function **once** and replies `ok stream`. Every following frame
//! is a record line (see [`crate::record`]) answered by one in-order
//! reply frame, executed by the same per-worker executor the batch
//! executor uses, instantiated once for the session. The `!end` sentinel closes the session and returns the
//! stream metrics table. Backpressure is the connection's existing
//! pipelining cap: un-drained replies stop the server reading the
//! socket, which pushes back through TCP flow control.

use crate::exec::{StreamFunction, WorkerExec};
use crate::metrics::StreamMetrics;
use crate::record::{parse_record, render_result};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use wolfram_bytecode::{ArgSpec, BytecodeCompiler};
use wolfram_compiler_core::{Compiler, CompilerOptions};
use wolfram_serve::{StreamHandler, StreamSession, TierPolicy};

/// The server-side `!stream` entry point: compiles each streamed
/// function once (per session) at the configured tier.
pub struct ServeStreamHandler {
    options: CompilerOptions,
    tier: TierPolicy,
}

impl ServeStreamHandler {
    /// A handler compiling with `options` at `tier` (`Adaptive` streams
    /// start native — a stream is by definition a hot function).
    pub fn new(options: CompilerOptions, tier: TierPolicy) -> Self {
        ServeStreamHandler { options, tier }
    }

    fn compile(&self, spec: &str) -> Result<StreamFunction, String> {
        let func = wolfram_expr::parse(spec).map_err(|e| e.to_string())?;
        if !func.has_head("Function") {
            return Err("!stream expects a Function[...]".into());
        }
        match self.tier {
            TierPolicy::BytecodeOnly => {
                let specs = ArgSpec::from_function(&func)?;
                let body = func
                    .args()
                    .get(1)
                    .cloned()
                    .ok_or_else(|| "function has no body".to_owned())?;
                let cf = BytecodeCompiler::new()
                    .compile(&specs, &body)
                    .map_err(|e| e.to_string())?;
                Ok(StreamFunction::Bytecode(Arc::new(cf)))
            }
            _ => {
                let artifact = Compiler::new(self.options.clone())
                    .function_compile(&func)
                    .map_err(|e| e.to_string())?
                    .artifact();
                Ok(StreamFunction::Native(artifact))
            }
        }
    }
}

impl StreamHandler for ServeStreamHandler {
    fn begin(&self, spec: &str) -> Result<Box<dyn StreamSession>, String> {
        Ok(Box::new(ServeStreamSession::new(self.compile(spec)?)))
    }
}

/// One connection's live stream: a thread-confined executor plus its
/// session metrics. Records execute synchronously on the connection's
/// reader thread (the wire already serializes them).
struct ServeStreamSession {
    exec: WorkerExec,
    /// What `exec` is rebuilt from after a record panics.
    func: StreamFunction,
    metrics: StreamMetrics,
    started: Instant,
}

impl ServeStreamSession {
    fn new(func: StreamFunction) -> Self {
        ServeStreamSession {
            exec: func.instantiate(),
            func,
            metrics: StreamMetrics::new(),
            started: Instant::now(),
        }
    }
}

impl StreamSession for ServeStreamSession {
    fn record(&mut self, line: &str) -> String {
        self.metrics.records_in.fetch_add(1, Ordering::Relaxed);
        let result = match parse_record(line, self.func.arity()) {
            Ok(args) => {
                let t0 = Instant::now();
                let out = self.exec.call_isolated(&self.func, &args);
                self.metrics
                    .record_latency
                    .record(t0.elapsed().as_nanos() as u64);
                out
            }
            Err(msg) => Err(wolfram_runtime::RuntimeError::Type(msg)),
        };
        let counter = if result.is_ok() {
            &self.metrics.records_ok
        } else {
            &self.metrics.records_err
        };
        counter.fetch_add(1, Ordering::Relaxed);
        render_result(&result)
    }

    fn finish(&mut self) -> String {
        // This connection thread executed compiled code; fold its memory
        // and frame counters into the process totals like pool workers do.
        wolfram_runtime::memory::flush_thread_stats();
        self.metrics.render(self.started.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use wolfram_serve::{NetClient, NetConfig, ServeConfig, ServePool};

    fn start_stream_server(tier: TierPolicy) -> (String, Arc<AtomicBool>) {
        let pool = Arc::new(ServePool::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let config = NetConfig {
            stream: Some(Arc::new(ServeStreamHandler::new(
                CompilerOptions::default(),
                tier,
            ))),
            ..NetConfig::default()
        };
        std::thread::spawn(move || {
            wolfram_serve::serve_listener(listener, &pool, &flag, &config).unwrap();
        });
        (addr, shutdown)
    }

    #[test]
    fn stream_session_over_the_wire() {
        let (addr, shutdown) = start_stream_server(TierPolicy::NativeOnly);
        let mut client = NetClient::connect(&addr).unwrap();
        let hello = client
            .call_raw("!stream Function[{Typed[n, \"MachineInteger\"]}, 3*n + 7]")
            .unwrap();
        assert_eq!(hello, "ok stream");
        for n in [0i64, 5, -2] {
            let reply = client.call_raw(&n.to_string()).unwrap();
            assert_eq!(reply, format!("ok {}", 3 * n + 7));
        }
        // A bad record errs but keeps the session alive.
        let bad = client.call_raw("not a number").unwrap();
        assert!(bad.starts_with("err "), "{bad}");
        let reply = client.call_raw("10").unwrap();
        assert_eq!(reply, "ok 37");
        let summary = client.call_raw("!end").unwrap();
        assert!(summary.contains("stream stats"), "{summary}");
        assert!(summary.contains("throughput"), "{summary}");
        // Back in request mode: an ordinary pooled request works.
        let normal = client
            .call("{Function[{Typed[n, \"MachineInteger\"]}, n - 1], {10}}")
            .unwrap();
        assert_eq!(normal.result.as_deref(), Ok("9"));
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    #[test]
    fn a_panicking_record_keeps_the_session() {
        let mut session = ServeStreamSession::new(StreamFunction::PanicOn(2));
        let replies: Vec<String> = ["1", "2", "3"]
            .into_iter()
            .map(|line| session.record(line))
            .collect();
        assert_eq!(
            replies,
            ["ok 1", "err internal: injected panic on 2", "ok 3"]
        );
        let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        let m = &session.metrics;
        assert_eq!(count(&m.records_in), 3);
        assert_eq!((count(&m.records_ok), count(&m.records_err)), (2, 1));
    }

    #[test]
    fn bytecode_tier_streams_too() {
        let (addr, shutdown) = start_stream_server(TierPolicy::BytecodeOnly);
        let mut client = NetClient::connect(&addr).unwrap();
        let hello = client
            .call_raw("!stream Function[{Typed[n, \"MachineInteger\"]}, n * n]")
            .unwrap();
        assert_eq!(hello, "ok stream");
        assert_eq!(client.call_raw("12").unwrap(), "ok 144");
        assert!(client.call_raw("!end").unwrap().contains("stream stats"));
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    #[test]
    fn stream_disabled_without_handler() {
        let pool = Arc::new(ServePool::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            wolfram_serve::serve_listener(listener, &pool, &flag, &NetConfig::default()).unwrap();
        });
        let mut client = NetClient::connect(&addr).unwrap();
        let reply = client
            .call_raw("!stream Function[{Typed[n, \"MachineInteger\"]}, n]")
            .unwrap();
        assert!(reply.starts_with("err "), "{reply}");
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    #[test]
    fn uncompilable_stream_spec_errs_and_stays_in_request_mode() {
        let (addr, shutdown) = start_stream_server(TierPolicy::NativeOnly);
        let mut client = NetClient::connect(&addr).unwrap();
        let reply = client.call_raw("!stream NotAFunction[1]").unwrap();
        assert!(reply.starts_with("err "), "{reply}");
        let normal = client
            .call("{Function[{Typed[n, \"MachineInteger\"]}, n + 1], {1}}")
            .unwrap();
        assert_eq!(normal.result.as_deref(), Ok("2"));
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}
