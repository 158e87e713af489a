//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper-exec|compile-corpus|serve-zipf|stream-records> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload makes its inputs from `--seed`, measures for
//! `--seconds`, checks every output against a reference computed outside
//! the code under test, and prints a human-readable table followed by one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set; with `--trace 1` they
//! are the per-layer set, measured with spans around each public call
//! (see `trace.rs`). The exit code is nonzero when any correctness,
//! balance or determinism gate fails. See `README.md` for the rationale.

mod calib;
mod common;
mod compile_corpus;
mod paper_exec;
mod serve_zipf;
mod stats;
mod stream_records;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("compile_p50_ms", "ms"),
    ("code_ops_total", "count"),
];

/// The seven Figure-2 programs, in the paper's order.
pub const PROGRAMS: [&str; 7] = [
    "FNV1a",
    "Mandelbrot",
    "Dot",
    "Blur",
    "Histogram",
    "PrimeQ",
    "QSort",
];

/// Compiler pass groups from `Compiler::timings()`, as per-layer metric
/// names (mean microseconds per compiled program).
pub const PASS_METRICS: [&str; 10] = [
    "core.macro_us",
    "core.binding_us",
    "core.lowering_us",
    "types.inference_us",
    "core.resolution_us",
    "ir.optimize_us",
    "analyze.verify_us",
    "analyze.ranges_us",
    "codegen.lower_us",
    "codegen.fuse_us",
];

const LAYER_SCALARS: &[(&str, &str)] = &[
    ("runtime.dgemm_ms", "ms"),
    ("runtime.kernel_share.Dot", "ratio"),
    ("runtime.acquires", "count"),
    ("runtime.tensor_copies", "count"),
    ("expr.parse_us", "us"),
    ("ir.twir_instrs", "count"),
    ("analyze.bounds_proved_ratio", "ratio"),
    ("analyze.bounds_total", "count"),
    ("analyze.ovf_proved_ratio", "ratio"),
    ("analyze.ovf_total", "count"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.requests", "count"),
    ("serve.compiles", "count"),
    ("serve.rejected", "count"),
    ("serve.aborted", "count"),
    ("serve.wire_us", "us"),
    ("serve.pool_call_us", "us"),
    ("serve.parse_request_us", "us"),
    ("serve.key_us", "us"),
    ("serve.render_reply_us", "us"),
    ("core.compile_ms", "ms"),
    ("core.instantiate_us", "us"),
    ("core.oneshot_call_ns", "ns"),
    ("core.stream_call_ns", "ns"),
    ("stream.parse_ns", "ns"),
    ("stream.render_ns", "ns"),
    ("stream.pipeline_ns", "ns"),
    ("stream.batch_fill", "ratio"),
    ("stream.batch_slots", "count"),
    ("stream.max_queue_depth", "count"),
    ("runtime.frame_reuse_ratio", "ratio"),
    ("runtime.frame_calls", "count"),
    ("runtime.frame_resets", "count"),
    ("tail.latency_p99_ms", "ms"),
    ("stream.record_p50_us", "us"),
    ("stream.record_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Every per-layer metric, in report order, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (prefix, unit) in [
        ("exec_ms", "ms"),
        ("codegen.ops", "count"),
        ("codegen.ns_per_op", "ns"),
        ("native_ms", "ms"),
    ] {
        out.extend(PROGRAMS.iter().map(|p| (format!("{prefix}.{p}"), unit)));
    }
    out.extend(PASS_METRICS.iter().map(|m| ((*m).to_owned(), "us")));
    out.extend(LAYER_SCALARS.iter().map(|(m, u)| ((*m).to_owned(), *u)));
    out
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `(gate, passed, detail)`.
    pub gates: Vec<(String, bool, String)>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
    /// The run's host-speed factor (see `calib.rs`); end-to-end times
    /// are divided by it and rates multiplied by it.
    pub host_factor: Option<f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.values.insert(name.into(), v);
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.gates.push((name.to_owned(), ok, detail.into()));
    }

    /// Records `n` checked operations of which `bad` failed.
    pub fn checked(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Gate: two measurements of a count that must repeat exactly.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, a: T, b: T) {
        let ok = a == b;
        self.gate(
            &format!("determinism:{name}"),
            ok,
            if ok {
                format!("{a:?}")
            } else {
                format!("{a:?} != {b:?}")
            },
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The default seed. Seed 7 is held out: a gain claimed on the default
/// seed is re-checked on it (see README.md).
const DEFAULT_SEED: u64 = 1;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "paper-exec" => paper_exec::run,
        "compile-corpus" => compile_corpus::run,
        "serve-zipf" => serve_zipf::run,
        "stream-records" => stream_records::run,
        other => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    trace::set_enabled(false);
    let mut report = run(args.seed, args.seconds, args.trace);
    report.set("peak_rss_mb", stats::peak_rss_mb());
    if args.trace {
        report.set("trace.spans", trace::recorded() as f64);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.tsv", args.workload));
        if let Err(e) = trace::write(&path) {
            report.gate("trace:write", false, e.to_string());
        }
    }
    print_result(&args, &report)
}

fn print_result(args: &Args, report: &Report) -> ExitCode {
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for l in &report.lines {
        println!("{l}");
    }
    let mut ok = report.failed == 0;
    for (name, passed, detail) in &report.gates {
        ok &= *passed;
        println!(
            "gate {:<4} {name}: {detail}",
            if *passed { "ok" } else { "FAIL" }
        );
    }
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "failed_ratio {failed_ratio} ({} of {} operations)",
        report.failed, report.attempted
    );
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect()
    };
    let factor = report.host_factor.unwrap_or(1.0);
    if !args.trace {
        println!(
            "host factor {factor:.4} (median calibration probe / {} ns)",
            calib::NOMINAL_NS
        );
    }
    let mut metrics = Vec::new();
    for (name, unit) in &wanted {
        let v = match report.values.get(name) {
            Some(v) if v.is_finite() && !args.trace => {
                let scaled = match *unit {
                    "s" | "ms" => v / factor,
                    "1/s" => v * factor,
                    _ => *v,
                };
                println!("raw    {name:<32} {v:>16.6} {unit}");
                scaled
            }
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                ok = false;
                println!("gate FAIL metric:{name}: not finite ({v})");
                0.0
            }
            // A layer the workload does not exercise reports 0.
            None if args.trace => 0.0,
            None => {
                ok = false;
                println!("gate FAIL metric:{name}: not measured");
                0.0
            }
        };
        println!("metric {name:<32} {v:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Shortest round-trip rendering of a finite value (`3.0`, `1.25e-7`):
/// always a valid JSON number with all its digits.
fn json_number(v: f64) -> String {
    format!("{v:?}")
}
