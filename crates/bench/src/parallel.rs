//! Data-parallel tier ablation: the PR-1 fused scalar baseline against
//! `data_parallel` with SIMD batching at 1/2/4/8 worker threads.
//!
//! Three workloads exercise the two halves of the tier:
//!
//! - **Blur** — the fused stencil loop, batched at compile time into a
//!   `vec.loop` plan (`wolfram_codegen::vectorize`); the main SIMD win.
//! - **Dot** — the chunked dgemm row-block path through the worker pool.
//! - **Listable** — whole-tensor elementwise arithmetic `(a + b) * a`
//!   over rank-1 tensors, the chunked zip/map builtin path.
//!
//! Every configuration is correctness-checked against the scalar
//! baseline before timing (the tier is bit-identical for all three
//! workloads: elementwise chunking and the vectorized loops preserve
//! evaluation order, and the per-row dot folds are not reassociated),
//! and the memory counters are balanced through
//! [`wolfram_runtime::memory::global_stats`] so worker threads cannot
//! leak acquires. `reproduce -- bench-parallel` renders the table and
//! optionally writes `BENCH_parallel.json`.

use crate::{harness, programs, workloads};
use wolfram_compiler_core::{Compiler, CompilerOptions};
use wolfram_runtime::{memory, ParallelConfig, Value};

/// One measured (benchmark, configuration) cell.
#[derive(Debug, Clone)]
pub struct ParRow {
    /// Benchmark name (`Blur`, `Dot`, `Listable`).
    pub bench: &'static str,
    /// Configuration label (`fused-scalar`, `simd t=1`, ...).
    pub config: String,
    /// Worker threads (0 for the scalar baseline).
    pub threads: usize,
    /// Whether the SIMD kernels were enabled.
    pub simd: bool,
    /// Nanoseconds per benchmark invocation (minimum over repetitions).
    pub ns_per_op: f64,
    /// Speedup vs the fused-scalar baseline of the same benchmark.
    pub speedup: f64,
}

/// The full ablation result plus the correctness gates CI asserts on.
#[derive(Debug, Clone)]
pub struct ParReport {
    /// All rows, grouped by benchmark in configuration order.
    pub rows: Vec<ParRow>,
    /// Configurations whose result differed from the scalar baseline.
    pub equivalence_failures: u32,
    /// Whether `global_stats()` balanced after flushing every thread.
    pub memory_balanced: bool,
}

/// Thread counts measured for the parallel configurations.
pub const THREAD_STEPS: [usize; 4] = [1, 2, 4, 8];

fn compiler_for(parallel: Option<ParallelConfig>) -> Compiler {
    let mut options = CompilerOptions {
        // Steady-state execution is what's measured; keep the per-pass
        // analyzer out of compile time like the Figure 2 harness does.
        verify: wolfram_ir::VerifyLevel::Off,
        ..CompilerOptions::default()
    };
    if let Some(cfg) = parallel {
        options.data_parallel = true;
        options.parallel = cfg;
    }
    Compiler::new(options)
}

/// A benchmark: source, arguments, and element count for context.
struct Workload {
    name: &'static str,
    src: String,
    args: Vec<Value>,
}

fn workloads_for(scale: &harness::Scale) -> Vec<Workload> {
    let blur_n = scale.blur_n;
    let dot_n = scale.dot_n;
    let list_n = scale.histogram_n;
    let img = workloads::random_matrix_hw(blur_n, blur_n, 3);
    let a = workloads::random_matrix(dot_n, 1);
    let b = workloads::random_matrix(dot_n, 2);
    let xs = workloads::random_matrix_hw(1, list_n, 5)
        .as_f64()
        .expect("real matrix")
        .to_vec();
    let ys = workloads::random_matrix_hw(1, list_n, 6)
        .as_f64()
        .expect("real matrix")
        .to_vec();
    vec![
        Workload {
            name: "Blur",
            src: programs::BLUR_SRC.into(),
            args: vec![
                Value::Tensor(img),
                Value::I64(blur_n as i64),
                Value::I64(blur_n as i64),
            ],
        },
        Workload {
            name: "Dot",
            src: programs::DOT_SRC.into(),
            args: vec![Value::Tensor(a), Value::Tensor(b)],
        },
        Workload {
            name: "Listable",
            src: r#"
Function[{Typed[a, "Tensor"["Real64", 1]], Typed[b, "Tensor"["Real64", 1]]},
    (a + b) * a]
"#
            .into(),
            args: vec![
                Value::Tensor(wolfram_runtime::Tensor::from_f64(xs)),
                Value::Tensor(wolfram_runtime::Tensor::from_f64(ys)),
            ],
        },
    ]
}

/// Exact structural equality: the tier is bit-identical to the scalar
/// path on these workloads, so no tolerance is needed (or wanted — a
/// single flipped bit is a routing bug worth failing on).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
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

/// Runs the ablation at the given scale and thread steps.
///
/// `min_elems_per_chunk` is lowered with `--quick` scales by the caller
/// via `min_chunk`; the paper scale uses a cache-friendly 4096.
///
/// # Panics
///
/// Panics if any configuration fails to compile or errors at runtime —
/// the workloads are total over their generated inputs.
pub fn run(scale: &harness::Scale, threads: &[usize], min_chunk: usize) -> ParReport {
    let reps = scale.repetitions;
    let mut rows = Vec::new();
    let mut equivalence_failures = 0u32;

    // Balance is judged over the whole run: reset both views, flush at
    // the end, and require acquires == releases across every thread.
    memory::reset_stats();
    memory::reset_global_stats();

    for w in workloads_for(scale) {
        let baseline = programs::compile_new(&compiler_for(None), &w.src);
        let expected = baseline.call(&w.args).expect("baseline runs");

        let base_secs = harness::bench_seconds(reps, || {
            baseline.call(std::hint::black_box(&w.args)).unwrap();
        });
        let base_ns = base_secs * 1e9;
        rows.push(ParRow {
            bench: w.name,
            config: "fused-scalar".into(),
            threads: 0,
            simd: false,
            ns_per_op: base_ns,
            speedup: 1.0,
        });

        for &t in threads {
            let cfg = ParallelConfig {
                num_threads: t,
                min_elems_per_chunk: min_chunk,
                simd: true,
            };
            let cf = programs::compile_new(&compiler_for(Some(cfg)), &w.src);
            let got = cf.call(&w.args).expect("parallel config runs");
            if !same_value(&got, &expected) {
                equivalence_failures += 1;
            }
            let secs = harness::bench_seconds(reps, || {
                cf.call(std::hint::black_box(&w.args)).unwrap();
            });
            rows.push(ParRow {
                bench: w.name,
                config: format!("simd t={t}"),
                threads: t,
                simd: true,
                ns_per_op: secs * 1e9,
                speedup: base_ns / (secs * 1e9).max(1e-9),
            });
        }
    }

    memory::flush_thread_stats();
    ParReport {
        rows,
        equivalence_failures,
        memory_balanced: memory::global_stats().balanced(),
    }
}

/// Renders the ablation as an aligned text table.
pub fn render(report: &ParReport) -> String {
    let mut out = String::from(
        "benchmark   | config        | ns/op          | speedup\n\
         ------------+---------------+----------------+--------\n",
    );
    for r in &report.rows {
        out.push_str(&format!(
            "{:<11} | {:<13} | {:>14.0} | {:>6.2}x\n",
            r.bench, r.config, r.ns_per_op, r.speedup
        ));
    }
    out.push_str(&format!(
        "equivalence failures: {}, memory balanced: {}\n",
        report.equivalence_failures, report.memory_balanced
    ));
    out
}

/// Serializes the report as the `BENCH_parallel.json` document: one row
/// object per (benchmark, configuration) cell. Hand-rolled — the numbers
/// are all finite floats and the labels are ASCII, so no escaping is
/// needed.
pub fn to_json(report: &ParReport, scale_label: &str) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": \"{scale_label}\",\n"));
    out.push_str(&format!(
        "  \"equivalence_failures\": {},\n  \"memory_balanced\": {},\n  \"rows\": [\n",
        report.equivalence_failures, report.memory_balanced
    ));
    for (i, r) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bench\": \"{}\", \"config\": \"{}\", \"threads\": {}, \
             \"simd\": {}, \"ns_per_op\": {:.1}, \"speedup\": {:.3}}}{}\n",
            r.bench,
            r.config,
            r.threads,
            r.simd,
            r.ns_per_op,
            r.speedup,
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
    fn ablation_runs_and_matches_at_tiny_scale() {
        let _globals = crate::global_stats_lock();
        let scale = harness::Scale {
            string_len: 2000,
            mandelbrot_resolution: 0.5,
            dot_n: 24,
            blur_n: 24,
            histogram_n: 4000,
            prime_limit: 2000,
            qsort_n: 256,
            repetitions: 1,
        };
        let report = run(&scale, &[1, 2], 8);
        // 3 benchmarks x (baseline + 2 thread steps).
        assert_eq!(report.rows.len(), 9);
        assert_eq!(report.equivalence_failures, 0);
        for r in &report.rows {
            assert!(r.ns_per_op > 0.0, "{} {}", r.bench, r.config);
            assert!(r.speedup > 0.0, "{} {}", r.bench, r.config);
        }
        // Note: `memory_balanced` is asserted by the `bench-parallel`
        // binary, not here — the lib test binary runs tests concurrently
        // and other tests' pool workers flush into the same globals.
        let json = to_json(&report, "tiny");
        assert!(json.contains("\"bench\": \"Blur\""), "{json}");
        assert!(json.contains("\"speedup\""), "{json}");
        let rendered = render(&report);
        assert!(rendered.contains("fused-scalar"), "{rendered}");
    }
}
