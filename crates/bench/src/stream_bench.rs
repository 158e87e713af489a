//! Streaming-engine benchmark: compile once, evaluate millions.
//!
//! Three per-event workloads — the regime where call overhead, not the
//! body, dominates — are streamed through `wolfram_stream::run_stream`
//! at every tier:
//!
//! - **AddMul** — `3 n + 7` over machine integers: the smallest possible
//!   body, pure entry/exit overhead.
//! - **Poly** — a real cubic in Horner form: scalar float traffic.
//! - **Norm8** — squared norm of a length-8 real vector: a tensor
//!   argument per record, exercising the per-stream element checks.
//!
//! Every native configuration calls `CompiledCodeFunction::call`, the one
//! native entry, on one instantiation per worker. The baseline
//! (`native call/rec`) dispatches records one at a time (batch 1, one
//! worker); the streamed configurations batch them, and the headline
//! number is their events/sec multiple over that baseline. A tight
//! one-shot loop (no pipeline at all) is printed as a reference row so
//! queue overhead in the baseline is visible rather than hidden.
//!
//! Correctness is gated, not assumed: every configuration's output
//! sequence must be bit-identical to a one-shot loop of the same tier
//! over the same records, the process-wide memory counters must balance,
//! and the frame-pool counters must show each native machine allocating
//! at most one frame and serving every other call from its pool
//! ([`StreamReport::frames_reused`]). `reproduce bench-stream` renders the
//! table, writes `BENCH_stream.json`, and exits nonzero if any gate
//! fails.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;
use wolfram_bytecode::{ArgSpec, BytecodeCompiler, CompiledFunction};
use wolfram_compiler_core::{CompiledArtifact, Compiler, CompilerOptions};
use wolfram_expr::{parse, Expr};
use wolfram_interp::Interpreter;
use wolfram_runtime::{memory, Tensor, Value};
use wolfram_stream::{run_stream, Record, StreamConfig, StreamFunction};

/// Record counts per workload class (streams are timed in one pass, so
/// the count is the scale knob).
#[derive(Debug, Clone, Copy)]
pub struct StreamScale {
    /// Records for the scalar workloads (AddMul, Poly).
    pub scalar_records: usize,
    /// Records for the tensor workload (Norm8).
    pub tensor_records: usize,
    /// Records for the interpreter rows (the interpreter is orders of
    /// magnitude slower per event; a subset keeps the run bounded).
    pub interp_records: usize,
}

impl StreamScale {
    /// CI smoke scale.
    pub fn quick() -> Self {
        StreamScale {
            scalar_records: 20_000,
            tensor_records: 4_000,
            interp_records: 1_500,
        }
    }

    /// Full evaluation scale.
    pub fn paper() -> Self {
        StreamScale {
            scalar_records: 400_000,
            tensor_records: 80_000,
            interp_records: 20_000,
        }
    }
}

/// One measured (benchmark, configuration) cell.
#[derive(Debug, Clone)]
pub struct StreamRow {
    /// Benchmark name (`AddMul`, `Poly`, `Norm8`).
    pub bench: &'static str,
    /// Configuration label (`native call/rec`, `native stream b=256`, ...).
    pub config: String,
    /// Tier (`native`, `bytecode`, `interp`).
    pub tier: &'static str,
    /// Batch size (0 for the tight-loop reference row).
    pub batch: usize,
    /// Executor worker threads (0 for the tight-loop reference row).
    pub workers: usize,
    /// Records evaluated.
    pub events: u64,
    /// Nanoseconds per event over the whole pass.
    pub ns_per_event: f64,
    /// Events per second over the whole pass.
    pub events_per_sec: f64,
    /// Events/sec multiple over this benchmark's `native call/rec` row.
    pub speedup: f64,
    /// Whether the output sequence was bit-identical to a one-shot loop
    /// of the same tier.
    pub equivalent: bool,
}

/// The full sweep plus the gates CI asserts on.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// All rows, grouped by benchmark in configuration order.
    pub rows: Vec<StreamRow>,
    /// Configurations whose output differed from their tier's one-shot
    /// loop (any difference, including errors, counts).
    pub equivalence_failures: u32,
    /// Whether `global_stats()` balanced after flushing every thread.
    pub memory_balanced: bool,
    /// Process-wide frame pool hits recorded during the sweep.
    pub frame_hits: u64,
    /// Process-wide frame allocations recorded during the sweep.
    pub frame_misses: u64,
    /// Native calls the sweep made (one-shot loops and streamed records).
    pub native_calls: u64,
    /// Native machines the sweep instantiated (one per one-shot loop and
    /// per stream worker); each allocates at most one entry frame.
    pub native_machines: u64,
    /// Best speedup among native streamed configurations — the headline
    /// the `bench-stream` gate checks against its floor.
    pub best_stream_speedup: f64,
}

impl StreamReport {
    /// Whether native calls reused their machine's pooled frame: no more
    /// frame allocations than machines, and every other call a pool hit.
    /// A path that allocated per record would fail both bounds.
    pub fn frames_reused(&self) -> bool {
        self.frame_misses <= self.native_machines
            && self.frame_hits + self.native_machines >= self.native_calls
    }
}

struct Workload {
    name: &'static str,
    src: &'static str,
    records: Vec<Record>,
}

const ADDMUL_SRC: &str = r#"Function[{Typed[n, "MachineInteger"]}, 3*n + 7]"#;
const POLY_SRC: &str = r#"Function[{Typed[x, "Real64"]}, x*(x*(x - 2.5) + 1.25) + 0.5]"#;
const NORM8_SRC: &str = r#"
Function[{Typed[v, "Tensor"["Real64", 1]]},
 Module[{s, i, n},
  s = 0.0;
  n = Length[v];
  i = 1;
  While[i <= n, s = s + v[[i]]*v[[i]]; i = i + 1];
  s]]
"#;

fn workloads(scale: &StreamScale) -> Vec<Workload> {
    let ints = (0..scale.scalar_records)
        .map(|i| vec![Value::I64((i % 100_000) as i64 - 50_000)])
        .collect();
    let reals = (0..scale.scalar_records)
        .map(|i| vec![Value::F64((i % 2_000) as f64 * 0.003 - 3.0)])
        .collect();
    let vecs = (0..scale.tensor_records)
        .map(|i| {
            let xs: Vec<f64> = (0..8).map(|k| ((i * 8 + k) % 97) as f64 * 0.125).collect();
            vec![Value::Tensor(Tensor::from_f64(xs))]
        })
        .collect();
    vec![
        Workload {
            name: "AddMul",
            src: ADDMUL_SRC,
            records: ints,
        },
        Workload {
            name: "Poly",
            src: POLY_SRC,
            records: reals,
        },
        Workload {
            name: "Norm8",
            src: NORM8_SRC,
            records: vecs,
        },
    ]
}

/// Exact structural equality — streaming is an optimization, never a
/// semantic, so a single flipped float bit is a bug worth failing on.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Tensor(x), Value::Tensor(y)) => {
            x.shape() == y.shape()
                && match (x.as_f64(), y.as_f64()) {
                    (Some(xs), Some(ys)) => {
                        xs.iter().zip(ys).all(|(p, q)| p.to_bits() == q.to_bits())
                    }
                    _ => x.as_i64() == y.as_i64() && x.as_i64().is_some(),
                }
        }
        _ => a == b,
    }
}

fn compile_native(src: &str) -> CompiledArtifact {
    let compiler = Compiler::new(CompilerOptions {
        // Steady-state execution is what's measured; keep the per-pass
        // analyzer out of compile time like the other harnesses do.
        verify: wolfram_ir::VerifyLevel::Off,
        ..CompilerOptions::default()
    });
    compiler
        .function_compile_src(src)
        .expect("stream workload compiles")
        .artifact()
}

fn compile_bytecode(src: &str) -> Arc<CompiledFunction> {
    let func = parse(src).expect("stream workload parses");
    let specs = ArgSpec::from_function(&func).expect("bytecode arg specs");
    let body = func.args().get(1).cloned().expect("function body");
    Arc::new(
        BytecodeCompiler::new()
            .compile(&specs, &body)
            .expect("bytecode compiles stream workload"),
    )
}

/// Streams `records` through one configuration, returning elapsed
/// seconds and whether the output matched `expected` bit-for-bit.
fn run_config(
    func: &StreamFunction,
    batch: usize,
    workers: usize,
    records: &[Record],
    expected: &[Value],
) -> (f64, bool) {
    let cfg = StreamConfig {
        batch_size: batch,
        workers,
        queue_batches: 8,
    };
    let metrics = wolfram_stream::StreamMetrics::new();
    let stop = AtomicBool::new(false);
    let mut got: Vec<Option<Value>> = Vec::with_capacity(records.len());
    let t0 = Instant::now();
    let summary = run_stream(
        func,
        &cfg,
        records.iter().map(|r| Ok(r.clone())),
        &metrics,
        &stop,
        |r| got.push(r.ok()),
    );
    let secs = t0.elapsed().as_secs_f64();
    let equivalent = summary.records == expected.len() as u64
        && summary.errors == 0
        && got
            .iter()
            .zip(expected)
            .all(|(g, e)| g.as_ref().is_some_and(|v| same_value(v, e)));
    (secs, equivalent)
}

/// Runs the sweep. Single pass per configuration: streaming benchmarks
/// time a whole run over N records rather than repeating a fixed op.
///
/// # Panics
///
/// Panics if a workload fails to compile at any tier or a one-shot
/// evaluation errors — the workloads are total over their records.
pub fn run(scale: &StreamScale) -> StreamReport {
    let mut rows: Vec<StreamRow> = Vec::new();
    let mut equivalence_failures = 0u32;
    let (mut native_calls, mut native_machines) = (0u64, 0u64);

    // Balance is judged over the whole sweep: reset both views, flush at
    // the end, and require acquires == releases across every thread.
    memory::reset_stats();
    memory::reset_global_stats();

    for w in workloads(scale) {
        let artifact = compile_native(w.src);
        let bytecode = compile_bytecode(w.src);
        let func_expr = parse(w.src).expect("stream workload parses");
        let interp_n = scale.interp_records.min(w.records.len());

        // Per-tier one-shot oracles (and the tight-loop reference time).
        let one_shot = artifact.instantiate();
        let t0 = Instant::now();
        let expected: Vec<Value> = w
            .records
            .iter()
            .map(|r| one_shot.call(r).expect("one-shot native runs"))
            .collect();
        let tight_secs = t0.elapsed().as_secs_f64();
        drop(one_shot);
        let expected_bc: Vec<Value> = w
            .records
            .iter()
            .map(|r| bytecode.run(r).expect("one-shot bytecode runs"))
            .collect();
        let mut engine = Interpreter::new();
        let expected_interp: Vec<Value> = w.records[..interp_n]
            .iter()
            .map(|r| {
                let call = Expr::normal(
                    func_expr.clone(),
                    r.iter().map(Value::to_expr).collect::<Vec<_>>(),
                );
                Value::from_expr(&engine.eval(&call).expect("interpreter runs"))
            })
            .collect();

        let push = |config: &str,
                    tier: &'static str,
                    batch: usize,
                    workers: usize,
                    events: usize,
                    secs: f64,
                    equivalent: bool,
                    rows: &mut Vec<StreamRow>| {
            let ns = secs * 1e9 / events.max(1) as f64;
            rows.push(StreamRow {
                bench: w.name,
                config: config.into(),
                tier,
                batch,
                workers,
                events: events as u64,
                ns_per_event: ns,
                events_per_sec: events as f64 / secs.max(1e-12),
                speedup: 0.0, // filled once the baseline row exists
                equivalent,
            });
        };

        // Native configurations: the baseline dispatches per record (b=1),
        // then batched streams.
        let native = StreamFunction::Native(artifact.clone());
        let configs = [(1, 1), (16, 1), (256, 1), (256, 4)];
        native_calls += (1 + configs.len() as u64) * w.records.len() as u64;
        native_machines += 1 + configs.iter().map(|&(_, wk)| wk as u64).sum::<u64>();
        let base_idx = rows.len();
        for (batch, workers) in configs {
            let (secs, eq) = run_config(&native, batch, workers, &w.records, &expected);
            let label = match (batch, workers) {
                (1, _) => "native call/rec".to_owned(),
                (_, 1) => format!("native stream b={batch}"),
                _ => format!("native stream b={batch} w={workers}"),
            };
            push(
                &label,
                "native",
                batch,
                workers,
                w.records.len(),
                secs,
                eq,
                &mut rows,
            );
        }
        // Reference: the one-shot loop above, the same calls with no
        // pipeline.
        push(
            "one-shot loop (ref)",
            "native",
            0,
            0,
            w.records.len(),
            tight_secs,
            true,
            &mut rows,
        );

        // Bytecode tier: per-call entry vs register-file reuse.
        let bc_naive = StreamFunction::BytecodeNaive(Arc::clone(&bytecode));
        let (secs, eq) = run_config(&bc_naive, 1, 1, &w.records, &expected_bc);
        push(
            "bytecode call/rec",
            "bytecode",
            1,
            1,
            w.records.len(),
            secs,
            eq,
            &mut rows,
        );
        let bc_stream = StreamFunction::Bytecode(bytecode);
        let (secs, eq) = run_config(&bc_stream, 256, 1, &w.records, &expected_bc);
        push(
            "bytecode stream b=256",
            "bytecode",
            256,
            1,
            w.records.len(),
            secs,
            eq,
            &mut rows,
        );

        // Interpreter tier, on the reduced record set.
        let interp = StreamFunction::Interpreter(func_expr);
        let (secs, eq) = run_config(&interp, 256, 1, &w.records[..interp_n], &expected_interp);
        push(
            "interp stream b=256",
            "interp",
            256,
            1,
            interp_n,
            secs,
            eq,
            &mut rows,
        );

        // Fill speedups against this benchmark's baseline row.
        let base_ns = rows[base_idx].ns_per_event;
        for r in &mut rows[base_idx..] {
            r.speedup = base_ns / r.ns_per_event.max(1e-9);
        }
        equivalence_failures += rows[base_idx..].iter().filter(|r| !r.equivalent).count() as u32;
    }

    // Workers flushed on exit inside run_stream; fold this thread's
    // one-shot loops in too, then judge the process-wide totals.
    memory::flush_thread_stats();
    let stats = memory::global_stats();
    let best_stream_speedup = rows
        .iter()
        .filter(|r| r.tier == "native" && r.batch > 1)
        .map(|r| r.speedup)
        .fold(0.0, f64::max);
    StreamReport {
        rows,
        equivalence_failures,
        memory_balanced: stats.balanced(),
        frame_hits: stats.frame_hits,
        frame_misses: stats.frame_misses,
        native_calls,
        native_machines,
        best_stream_speedup,
    }
}

/// Renders the sweep as an aligned text table.
pub fn render(report: &StreamReport) -> String {
    let mut out = String::from(
        "benchmark | config                  | events  | ns/event | events/sec  | speedup  | ok\n\
         ----------+-------------------------+---------+----------+-------------+----------+---\n",
    );
    for r in &report.rows {
        out.push_str(&format!(
            "{:<9} | {:<23} | {:>7} | {:>8.0} | {:>11.0} | {:>7.2}x | {}\n",
            r.bench,
            r.config,
            r.events,
            r.ns_per_event,
            r.events_per_sec,
            r.speedup,
            if r.equivalent { "ok" } else { "NO" },
        ));
    }
    out.push_str(&format!(
        "equivalence failures: {}, memory balanced: {}\n\
         frame hits: {}, frame misses: {} ({} native calls on {} machines)\n\
         best streamed speedup vs native call/rec: {:.2}x\n",
        report.equivalence_failures,
        report.memory_balanced,
        report.frame_hits,
        report.frame_misses,
        report.native_calls,
        report.native_machines,
        report.best_stream_speedup,
    ));
    out
}

/// Serializes the report as the `BENCH_stream.json` document.
/// Hand-rolled — the numbers are finite floats and the labels ASCII.
pub fn to_json(report: &StreamReport, scale_label: &str) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": \"{scale_label}\",\n"));
    out.push_str(&format!(
        "  \"equivalence_failures\": {},\n  \"memory_balanced\": {},\n  \
         \"frame_hits\": {},\n  \"frame_misses\": {},\n  \
         \"native_calls\": {},\n  \"native_machines\": {},\n  \
         \"best_stream_speedup\": {:.3},\n  \"rows\": [\n",
        report.equivalence_failures,
        report.memory_balanced,
        report.frame_hits,
        report.frame_misses,
        report.native_calls,
        report.native_machines,
        report.best_stream_speedup,
    ));
    for (i, r) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bench\": \"{}\", \"config\": \"{}\", \"tier\": \"{}\", \
             \"batch\": {}, \"workers\": {}, \"events\": {}, \"ns_per_event\": {:.1}, \
             \"events_per_sec\": {:.1}, \"speedup\": {:.3}, \"equivalent\": {}}}{}\n",
            r.bench,
            r.config,
            r.tier,
            r.batch,
            r.workers,
            r.events,
            r.ns_per_event,
            r.events_per_sec,
            r.speedup,
            r.equivalent,
            if i + 1 == report.rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_matches_at_tiny_scale() {
        let _globals = crate::global_stats_lock();
        let scale = StreamScale {
            scalar_records: 600,
            tensor_records: 200,
            interp_records: 60,
        };
        let report = run(&scale);
        // 3 benchmarks x (baseline + reference + 3 native streamed +
        // 2 bytecode + 1 interp).
        assert_eq!(report.rows.len(), 24);
        assert_eq!(report.equivalence_failures, 0);
        for r in &report.rows {
            assert!(r.ns_per_event > 0.0, "{} {}", r.bench, r.config);
            assert!(r.speedup > 0.0, "{} {}", r.bench, r.config);
            assert!(r.equivalent, "{} {}", r.bench, r.config);
        }
        // Every native machine allocated at most one frame and served
        // the rest of its records from the pool. The lock keeps the other
        // tests that touch the process-wide counters out of the sweep.
        assert!(report.frames_reused(), "{report:?}");
        assert!(report.memory_balanced, "{report:?}");
        let json = to_json(&report, "tiny");
        assert!(json.contains("\"bench\": \"AddMul\""), "{json}");
        assert!(json.contains("\"best_stream_speedup\""), "{json}");
        let rendered = render(&report);
        assert!(rendered.contains("native stream b=256"), "{rendered}");
        assert!(rendered.contains("interp stream b=256"), "{rendered}");
    }
}
