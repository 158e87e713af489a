//! The batching executor: one compiled artifact, N worker machines,
//! bounded queues, in-order results.
//!
//! # Shape
//!
//! ```text
//! source ──batch──▶ [in queue] ──▶ worker × N ──▶ [out queue] ──reorder──▶ sink
//! ```
//!
//! The producer groups records into sequence-numbered batches and blocks
//! when the input queue is full (backpressure; see [`crate::queue`]).
//! Each worker instantiates the stream function **once** — a native
//! function whose pooled frame and argument buffer are reused across
//! calls, or a bytecode `StreamRunner` with its reusable register file —
//! and applies it record by record. The caller thread drains the output
//! queue and re-establishes input order with a sequence-number reorder
//! buffer before invoking the sink, so results are emitted exactly as a
//! sequential one-shot loop would emit them.
//!
//! # Panics
//!
//! A panic inside one record's call is caught in the worker: the record
//! yields an in-order `err internal: …` result and the worker rebuilds
//! its executor before the next record (see `WorkerExec::call_isolated`).
//!
//! # Shutdown
//!
//! Setting the `stop` flag makes the producer stop admitting records and
//! close the input queue; in-flight batches finish, flow through the
//! reorder buffer, and reach the sink — a drain, not an abandonment. The
//! caller prints the metrics table afterwards (the SIGTERM path in
//! `reproduce stream`).

use crate::metrics::StreamMetrics;
use crate::queue::BoundedQueue;
use crate::record::Record;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wolfram_bytecode::{CompiledFunction, StreamRunner};
use wolfram_compiler_core::{CompiledArtifact, CompiledCodeFunction};
use wolfram_expr::Expr;
use wolfram_interp::Interpreter;
use wolfram_runtime::{RuntimeError, Value};

/// The function a stream applies, in one of the engine's tiers. All
/// variants are `Send + Sync` — per-thread execution state is created
/// inside each worker by [`StreamFunction::instantiate`].
#[derive(Clone)]
pub enum StreamFunction {
    /// Native register machine through `CompiledCodeFunction::call`.
    Native(CompiledArtifact),
    /// Bytecode VM through `StreamRunner` (register-file reuse,
    /// per-stream spec validation).
    Bytecode(Arc<CompiledFunction>),
    /// Bytecode VM through the ordinary per-call entry.
    BytecodeNaive(Arc<CompiledFunction>),
    /// The interpreter applying the original `Function[...]` per record
    /// (one engine per worker).
    Interpreter(Expr),
    /// Test-only: echoes its first argument and panics on this one.
    #[cfg(test)]
    PanicOn(i64),
}

impl StreamFunction {
    /// Number of arguments each record must carry.
    pub fn arity(&self) -> usize {
        match self {
            StreamFunction::Native(a) => a.param_types.len(),
            StreamFunction::Bytecode(cf) | StreamFunction::BytecodeNaive(cf) => cf.arg_specs.len(),
            StreamFunction::Interpreter(f) => {
                f.args().first().map_or(0, |params| params.args().len())
            }
            #[cfg(test)]
            StreamFunction::PanicOn(_) => 1,
        }
    }

    /// Builds this worker's thread-confined executor.
    pub(crate) fn instantiate(&self) -> WorkerExec {
        match self {
            StreamFunction::Native(a) => WorkerExec::Native(Box::new(a.instantiate())),
            StreamFunction::Bytecode(cf) => WorkerExec::Bytecode(StreamRunner::new(Arc::clone(cf))),
            StreamFunction::BytecodeNaive(cf) => WorkerExec::BytecodeNaive(Arc::clone(cf)),
            StreamFunction::Interpreter(f) => {
                WorkerExec::Interp(Box::new(Interpreter::new()), f.clone())
            }
            #[cfg(test)]
            StreamFunction::PanicOn(bad) => WorkerExec::PanicOn(*bad),
        }
    }
}

/// One worker's executor: the per-thread half of a [`StreamFunction`].
/// One long-lived value per worker thread, so the variants are boxed
/// for size parity rather than speed.
pub(crate) enum WorkerExec {
    Native(Box<CompiledCodeFunction>),
    Bytecode(StreamRunner),
    BytecodeNaive(Arc<CompiledFunction>),
    Interp(Box<Interpreter>, Expr),
    #[cfg(test)]
    PanicOn(i64),
}

impl WorkerExec {
    /// Applies the function to one record. A panic is caught and becomes
    /// this record's `internal` error; the executor is then rebuilt from
    /// `func`, so the worker or session carries on with the next record.
    pub(crate) fn call_isolated(
        &mut self,
        func: &StreamFunction,
        args: &[Value],
    ) -> Result<Value, RuntimeError> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.call(args))) {
            Ok(out) => out,
            Err(payload) => {
                *self = func.instantiate();
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("panic");
                Err(RuntimeError::Other(format!("internal: {msg}")))
            }
        }
    }

    fn call(&mut self, args: &[Value]) -> Result<Value, RuntimeError> {
        match self {
            WorkerExec::Native(cf) => cf.call(args),
            WorkerExec::Bytecode(runner) => runner.call(args),
            WorkerExec::BytecodeNaive(cf) => cf.run(args),
            WorkerExec::Interp(engine, f) => {
                let call = Expr::normal(
                    f.clone(),
                    args.iter().map(Value::to_expr).collect::<Vec<_>>(),
                );
                engine.eval(&call).map(|e| Value::from_expr(&e))
            }
            #[cfg(test)]
            WorkerExec::PanicOn(bad) => match args.first() {
                Some(Value::I64(n)) if *n == *bad => panic!("injected panic on {n}"),
                first => Ok(first.cloned().unwrap_or(Value::Null)),
            },
        }
    }
}

/// Executor knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Records per batch; 1 means per-record dispatch.
    pub batch_size: usize,
    /// Executor worker threads.
    pub workers: usize,
    /// Input/output queue capacity, in batches.
    pub queue_batches: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            batch_size: 256,
            workers: 1,
            queue_batches: 8,
        }
    }
}

/// What a finished (or drained) stream run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Records that reached the sink.
    pub records: u64,
    /// Records that produced a value.
    pub ok: u64,
    /// Records that produced an error (parse, type, or runtime).
    pub errors: u64,
    /// Whether the run ended early because `stop` was set (every admitted
    /// record still reached the sink — a drain, not a loss).
    pub stopped: bool,
}

struct Batch {
    seq: u64,
    recs: Vec<Result<Record, String>>,
}

struct BatchOut {
    seq: u64,
    results: Vec<Result<Value, RuntimeError>>,
}

/// Runs `records` through `func`, delivering every result to `sink` in
/// input order. Parse-stage failures (`Err` items) flow through the same
/// pipeline and surface as per-record type errors, preserving ordering.
///
/// The sink runs on the calling thread; worker memory counters are
/// flushed to the process-wide totals before return, so
/// `wolfram_runtime::memory::global_stats()` accounts for the whole run.
pub fn run_stream<I>(
    func: &StreamFunction,
    cfg: &StreamConfig,
    records: I,
    metrics: &StreamMetrics,
    stop: &AtomicBool,
    mut sink: impl FnMut(Result<Value, RuntimeError>),
) -> StreamSummary
where
    I: IntoIterator<Item = Result<Record, String>>,
    I::IntoIter: Send,
{
    let batch_size = cfg.batch_size.max(1);
    let workers = cfg.workers.max(1);
    let in_q: BoundedQueue<Batch> = BoundedQueue::new(cfg.queue_batches);
    let out_q: BoundedQueue<BatchOut> = BoundedQueue::new(cfg.queue_batches + workers);
    let live_workers = AtomicUsize::new(workers);
    let records = records.into_iter();
    let mut summary = StreamSummary {
        records: 0,
        ok: 0,
        errors: 0,
        stopped: false,
    };

    std::thread::scope(|s| {
        // Producer: batch and admit until exhaustion or stop.
        let producer = s.spawn(|| {
            let mut seq = 0u64;
            let mut batch = Vec::with_capacity(batch_size);
            let dispatch = |batch: Vec<Result<Record, String>>, seq: &mut u64| {
                metrics.batches.fetch_add(1, Ordering::Relaxed);
                metrics
                    .batch_slots
                    .fetch_add(batch_size as u64, Ordering::Relaxed);
                let full = in_q
                    .push(Batch {
                        seq: *seq,
                        recs: batch,
                    })
                    .is_err();
                metrics.observe_queue_depth(in_q.len());
                *seq += 1;
                full
            };
            let mut stopped = false;
            for rec in records {
                if stop.load(Ordering::SeqCst) {
                    stopped = true;
                    break;
                }
                metrics.records_in.fetch_add(1, Ordering::Relaxed);
                batch.push(rec);
                if batch.len() == batch_size {
                    let full = std::mem::replace(&mut batch, Vec::with_capacity(batch_size));
                    if dispatch(full, &mut seq) {
                        break;
                    }
                }
            }
            if !batch.is_empty() {
                dispatch(batch, &mut seq);
            }
            in_q.close();
            stopped
        });

        // Workers: one executor each, instantiated inside the thread.
        for _ in 0..workers {
            s.spawn(|| {
                let mut exec = func.instantiate();
                while let Some(batch) = in_q.pop() {
                    metrics.observe_queue_depth(in_q.len());
                    let mut results = Vec::with_capacity(batch.recs.len());
                    for rec in &batch.recs {
                        let r = match rec {
                            Ok(args) => {
                                let t0 = Instant::now();
                                let out = exec.call_isolated(func, args);
                                metrics
                                    .record_latency
                                    .record(t0.elapsed().as_nanos() as u64);
                                out
                            }
                            Err(msg) => Err(RuntimeError::Type(msg.clone())),
                        };
                        results.push(r);
                    }
                    if out_q
                        .push(BatchOut {
                            seq: batch.seq,
                            results,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                // This worker's acquire/release and frame counters join
                // the process-wide totals the balance gate checks.
                wolfram_runtime::memory::flush_thread_stats();
                if live_workers.fetch_sub(1, Ordering::SeqCst) == 1 {
                    out_q.close();
                }
            });
        }

        // In-order drain on the calling thread.
        let mut next = 0u64;
        let mut hold: BTreeMap<u64, Vec<Result<Value, RuntimeError>>> = BTreeMap::new();
        let mut emit = |results: Vec<Result<Value, RuntimeError>>, summary: &mut StreamSummary| {
            for r in results {
                summary.records += 1;
                match &r {
                    Ok(_) => {
                        summary.ok += 1;
                        metrics.records_ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        summary.errors += 1;
                        metrics.records_err.fetch_add(1, Ordering::Relaxed);
                    }
                }
                sink(r);
            }
        };
        while let Some(bo) = out_q.pop() {
            hold.insert(bo.seq, bo.results);
            while let Some(results) = hold.remove(&next) {
                emit(results, &mut summary);
                next += 1;
            }
        }
        // Workers are done; anything still held is contiguous from `next`.
        for (_, results) in std::mem::take(&mut hold) {
            emit(results, &mut summary);
        }
        summary.stopped = producer.join().expect("stream producer panicked");
    });
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_compiler_core::Compiler;

    fn native(src: &str) -> CompiledArtifact {
        Compiler::default()
            .function_compile_src(src)
            .unwrap()
            .artifact()
    }

    #[test]
    fn results_arrive_in_input_order_across_workers() {
        let art = native("Function[{Typed[n, \"MachineInteger\"]}, 3*n + 7]");
        let func = StreamFunction::Native(art);
        let cfg = StreamConfig {
            batch_size: 4,
            workers: 4,
            queue_batches: 2,
        };
        let metrics = StreamMetrics::new();
        let stop = AtomicBool::new(false);
        let n = 1000i64;
        let mut got = Vec::new();
        let summary = run_stream(
            &func,
            &cfg,
            (0..n).map(|i| Ok(vec![Value::I64(i)])),
            &metrics,
            &stop,
            |r| got.push(r.unwrap()),
        );
        assert_eq!(summary.records, n as u64);
        assert_eq!(summary.errors, 0);
        assert!(!summary.stopped);
        let want: Vec<Value> = (0..n).map(|i| Value::I64(3 * i + 7)).collect();
        assert_eq!(got, want);
        assert_eq!(
            metrics.batches.load(Ordering::Relaxed),
            n as u64 / 4,
            "full batches of 4"
        );
    }

    #[test]
    fn parse_errors_keep_their_place_in_the_order() {
        let art = native("Function[{Typed[n, \"MachineInteger\"]}, n + 1]");
        let func = StreamFunction::Native(art);
        let metrics = StreamMetrics::new();
        let stop = AtomicBool::new(false);
        let items = vec![
            Ok(vec![Value::I64(1)]),
            Err("bad line".to_owned()),
            Ok(vec![Value::I64(3)]),
        ];
        let mut got = Vec::new();
        let summary = run_stream(
            &func,
            &StreamConfig::default(),
            items,
            &metrics,
            &stop,
            |r| got.push(r),
        );
        assert_eq!(summary.ok, 2);
        assert_eq!(summary.errors, 1);
        assert_eq!(got[0], Ok(Value::I64(2)));
        assert!(got[1].is_err());
        assert_eq!(got[2], Ok(Value::I64(4)));
    }

    #[test]
    fn runtime_errors_mid_stream_do_not_poison_workers() {
        let art = native("Function[{Typed[n, \"MachineInteger\"]}, n*n]");
        let func = StreamFunction::Native(art);
        let cfg = StreamConfig {
            batch_size: 8,
            workers: 2,
            queue_batches: 2,
        };
        let metrics = StreamMetrics::new();
        let stop = AtomicBool::new(false);
        // Record 50 overflows (an aborted frame mid-batch); everything
        // after it must still compute on the same reused frames.
        let inputs: Vec<i64> = (0..100)
            .map(|i| if i == 50 { i64::MAX } else { i })
            .collect();
        let mut got = Vec::new();
        let summary = run_stream(
            &func,
            &cfg,
            inputs.iter().map(|&n| Ok(vec![Value::I64(n)])),
            &metrics,
            &stop,
            |r| got.push(r),
        );
        assert_eq!(summary.ok, 99);
        assert_eq!(summary.errors, 1);
        for (i, r) in got.iter().enumerate() {
            if i == 50 {
                assert!(r.is_err(), "record 50 overflows");
            } else {
                assert_eq!(r, &Ok(Value::I64((i * i) as i64)), "record {i}");
            }
        }
    }

    #[test]
    fn a_panicking_record_is_an_in_order_internal_error() {
        let func = StreamFunction::PanicOn(5);
        let cfg = StreamConfig {
            batch_size: 4,
            workers: 2,
            queue_batches: 2,
        };
        let metrics = StreamMetrics::new();
        let mut got = Vec::new();
        let summary = run_stream(
            &func,
            &cfg,
            (0..20i64).map(|i| Ok(vec![Value::I64(i)])),
            &metrics,
            &AtomicBool::new(false),
            |r| got.push(r),
        );
        assert_eq!((summary.records, summary.ok, summary.errors), (20, 19, 1));
        assert_eq!(
            got[5],
            Err(RuntimeError::Other("internal: injected panic on 5".into()))
        );
        // The rebuilt executor takes the rest of the batch and the stream.
        for (i, r) in got.iter().enumerate().filter(|&(i, _)| i != 5) {
            assert_eq!(r, &Ok(Value::I64(i as i64)), "record {i}");
        }
        let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(count(&metrics.records_in), 20);
        assert_eq!(count(&metrics.records_ok), 19);
        assert_eq!(count(&metrics.records_err), 1);
    }

    #[test]
    fn all_tiers_match_one_shot_across_batch_sizes() {
        use wolfram_bytecode::{ArgSpec, BytecodeCompiler};

        let src = "Function[{Typed[x, \"Real64\"]}, x*(x - 0.5) + 1.25]";
        let art = native(src);
        let one_shot = art.instantiate();
        let records: Vec<Record> = (0..200)
            .map(|i| vec![Value::F64(i as f64 * 0.01)])
            .collect();
        let expected: Vec<Value> = records.iter().map(|r| one_shot.call(r).unwrap()).collect();
        drop(one_shot);

        let f = wolfram_expr::parse(src).unwrap();
        let specs = ArgSpec::from_function(&f).unwrap();
        let bc = Arc::new(
            BytecodeCompiler::new()
                .compile(&specs, &f.args()[1])
                .unwrap(),
        );
        let tiers = [
            StreamFunction::Native(art),
            StreamFunction::Bytecode(Arc::clone(&bc)),
            StreamFunction::BytecodeNaive(bc),
            StreamFunction::Interpreter(f),
        ];
        for (t, func) in tiers.iter().enumerate() {
            for (batch, workers) in [(1, 1), (7, 1), (64, 3)] {
                let metrics = StreamMetrics::new();
                let stop = AtomicBool::new(false);
                let cfg = StreamConfig {
                    batch_size: batch,
                    workers,
                    queue_batches: 2,
                };
                let mut got = Vec::new();
                run_stream(
                    func,
                    &cfg,
                    records.iter().map(|r| Ok(r.clone())),
                    &metrics,
                    &stop,
                    |r| got.push(r.unwrap()),
                );
                // Bit-identical, not approximately equal: streaming is an
                // optimization, never a semantic.
                assert_eq!(got, expected, "tier {t} b={batch} w={workers}");
            }
        }
    }

    #[test]
    fn stop_flag_drains_in_flight_records() {
        let art = native("Function[{Typed[n, \"MachineInteger\"]}, n]");
        let func = StreamFunction::Native(art);
        let cfg = StreamConfig {
            batch_size: 8,
            workers: 2,
            queue_batches: 2,
        };
        let metrics = StreamMetrics::new();
        let stop = AtomicBool::new(false);
        let mut got = 0u64;
        // The source trips the stop flag partway through: the run must end
        // early, and everything admitted must still reach the sink.
        let summary = run_stream(
            &func,
            &cfg,
            (0..100_000i64).map(|i| {
                if i == 500 {
                    stop.store(true, Ordering::SeqCst);
                }
                Ok(vec![Value::I64(i)])
            }),
            &metrics,
            &stop,
            |_| got += 1,
        );
        assert!(summary.stopped);
        assert!(summary.records < 100_000, "stopped early: {summary:?}");
        assert_eq!(summary.records, got);
        assert_eq!(
            summary.records,
            metrics.records_in.load(Ordering::Relaxed),
            "every admitted record reached the sink"
        );
    }
}
