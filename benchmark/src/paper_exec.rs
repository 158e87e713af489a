//! `paper-exec`: the seven Figure-2 programs at the §6 sizes, compiled
//! once with default options and then called round-robin on one thread.
//!
//! Reference: the hand-written native Rust of `wolfram_bench::native`,
//! compared under difftest's `values_equivalent` relation.

use crate::calib::Calibrator;
use crate::common::{self, CodeStats, CompileSampler, PassTotals};
use crate::stats::{self, Dist, SplitMix};
use crate::{trace, Report, PROGRAMS};
use std::sync::Arc;
use std::time::Instant;
use wolfram_bench::{native, programs, workloads};
use wolfram_compiler_core::{CompiledCodeFunction, Compiler, CompilerOptions};
use wolfram_difftest::oracle::values_equivalent;
use wolfram_runtime::{memory, RuntimeError, Tensor, Value};

const SETUPS: usize = 5;
const STRING_LEN: usize = 100_000;
const MANDELBROT_RESOLUTION: f64 = 0.1;
const DOT_N: usize = 464;
const BLUR_N: usize = 316;
const HISTOGRAM_N: usize = 100_000;
const PRIME_LIMIT: i64 = 100_000;
const QSORT_N: usize = 1 << 12;

/// The seeded inputs, kept in native form for the reference.
struct Inputs {
    text: String,
    a: Tensor,
    b: Tensor,
    img: Tensor,
    bytes: Tensor,
    list: Tensor,
    grid: Vec<Value>,
    prime_table: Vec<i64>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed ^ 0x7061_7065_722d_6578);
        let mut sub = || rng.next_u64();
        let (s1, s2, s3, s4, s5, s6) = (sub(), sub(), sub(), sub(), sub(), sub());
        let mut qs = SplitMix::new(s6);
        let list = Tensor::from_i64((0..QSORT_N).map(|_| qs.below(1_000_000) as i64).collect());
        let mut grid = Vec::new();
        let mut re = -1.0;
        while re <= 1.0 + 1e-12 {
            let mut im = -1.0;
            while im <= 0.5 + 1e-12 {
                grid.push(Value::Complex(re, im));
                im += MANDELBROT_RESOLUTION;
            }
            re += MANDELBROT_RESOLUTION;
        }
        Inputs {
            text: workloads::random_string(STRING_LEN, s1),
            a: workloads::random_matrix(DOT_N, s2),
            b: workloads::random_matrix(DOT_N, s3),
            img: workloads::random_matrix_hw(BLUR_N, BLUR_N, s4),
            bytes: workloads::random_bytes_tensor(HISTOGRAM_N, s5),
            list,
            grid,
            prime_table: workloads::prime_seed_table(),
        }
    }

    fn sources(&self) -> [String; 7] {
        [
            programs::FNV1A_SRC.to_owned(),
            programs::MANDELBROT_SRC.to_owned(),
            programs::DOT_SRC.to_owned(),
            programs::BLUR_SRC.to_owned(),
            programs::HISTOGRAM_SRC.to_owned(),
            programs::primeq_src(&self.prime_table),
            programs::QSORT_SRC.to_owned(),
        ]
    }

    fn args(&self) -> [Vec<Value>; 7] {
        let n = BLUR_N as i64;
        [
            vec![Value::Str(Arc::new(self.text.clone()))],
            self.grid.clone(),
            vec![Value::Tensor(self.a.clone()), Value::Tensor(self.b.clone())],
            vec![
                Value::Tensor(self.img.clone()),
                Value::I64(n),
                Value::I64(n),
            ],
            vec![Value::Tensor(self.bytes.clone())],
            vec![Value::I64(PRIME_LIMIT)],
            vec![Value::Tensor(self.list.clone()), Value::Bool(true)],
        ]
    }

    /// The hand-written native result of program `ix`.
    fn native(&self, ix: usize) -> Value {
        match ix {
            0 => Value::I64(i64::from(native::fnv1a32(self.text.as_bytes()))),
            1 => Value::I64(native::mandelbrot_region(MANDELBROT_RESOLUTION, 1000)),
            2 => Value::Tensor(native::dot(&self.a, &self.b)),
            3 => Value::Tensor(native::blur(&self.img, BLUR_N, BLUR_N)),
            4 => Value::Tensor(Tensor::from_i64(native::histogram(
                self.bytes.as_i64().expect("integer data"),
            ))),
            5 => Value::I64(native::prime_count(PRIME_LIMIT as u64) as i64),
            _ => Value::Tensor(Tensor::from_i64(native::qsort(
                self.list.as_i64().expect("integer list"),
                native::less,
            ))),
        }
    }
}

/// One Figure-2 call: Mandelbrot sweeps its grid one pixel per call and
/// sums the iteration counts, as the paper's harness does.
fn call(cf: &CompiledCodeFunction, ix: usize, args: &[Value]) -> Result<Value, RuntimeError> {
    if PROGRAMS[ix] == "Mandelbrot" {
        let mut total = 0i64;
        for p in args {
            total += cf.call(std::slice::from_ref(p))?.expect_i64()?;
        }
        Ok(Value::I64(total))
    } else {
        cf.call(std::hint::black_box(args))
    }
}

const SPAN_NAMES: [&str; 7] = [
    "exec.FNV1a",
    "exec.Mandelbrot",
    "exec.Dot",
    "exec.Blur",
    "exec.Histogram",
    "exec.PrimeQ",
    "exec.QSort",
];

/// Per-program call times (ns) of one timed phase, plus the first result
/// of each program and the count of calls whose result changed.
struct Phase {
    times: [Vec<f64>; 7],
    first: Vec<Option<Value>>,
    unstable: u64,
    calls: u64,
}

fn timed_phase(
    fns: &[CompiledCodeFunction],
    args: &[Vec<Value>; 7],
    seconds: f64,
    cal: &mut Calibrator,
    compiles: &mut CompileSampler,
) -> Phase {
    let mut p = Phase {
        times: Default::default(),
        first: vec![None; 7],
        unstable: 0,
        calls: 0,
    };
    let start = Instant::now();
    let mut round = 0u64;
    while round < 3 || start.elapsed().as_secs_f64() < seconds {
        trace::span("paper.round", round, || {
            for ix in 0..7 {
                let t = Instant::now();
                let out = trace::span(SPAN_NAMES[ix], round, || call(&fns[ix], ix, &args[ix]));
                p.times[ix].push(stats::ns_since(t));
                p.calls += 1;
                cal.tick(1);
                compiles.sample(ix);
                let out = out.unwrap_or_else(|e| Value::Str(Arc::new(format!("error: {e}"))));
                match &p.first[ix] {
                    None => p.first[ix] = Some(out),
                    Some(v) if *v != out => p.unstable += 1,
                    Some(_) => {}
                }
            }
        });
        round += 1;
    }
    p
}

fn geomean_ms(times: &[Vec<f64>; 7], q: f64) -> f64 {
    let per: Vec<f64> = times
        .iter()
        .map(|t| stats::quantile(&stats::sorted(t), q) / 1e6)
        .collect();
    stats::geomean(&per)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut compile_ns = Vec::new();
    let mut passes = PassTotals::default();
    let mut code: Vec<CodeStats> = Vec::new();
    let mut built = None;
    for s in 0..SETUPS {
        let t = Instant::now();
        let inputs = Inputs::generate(seed);
        let compiler = Compiler::new(CompilerOptions::default());
        let mut fns = Vec::new();
        for (ix, src) in inputs.sources().iter().enumerate() {
            match common::parse_and_compile(&compiler, src, (s * 7 + ix) as u64, &mut passes) {
                Ok(c) => {
                    compile_ns.push(c.compile_ns);
                    fns.push(c.cf);
                }
                Err(e) => {
                    r.gate(&format!("compile:{}", PROGRAMS[ix]), false, e);
                    return r;
                }
            }
        }
        setups.push(t.elapsed().as_secs_f64());
        let mut total = CodeStats::default();
        for f in &fns {
            total.add(CodeStats::of(&f.artifact()));
        }
        code.push(total);
        built = Some((inputs, fns));
    }
    let (inputs, fns) = built.expect("at least one set-up");
    common::report_setup(&mut r, &setups);
    r.same("code_stats", code[0], code[SETUPS - 1]);
    r.set("code_ops_total", code[0].reg_ops as f64);
    let mut cal = Calibrator::new();
    let mut compiles = CompileSampler::new(inputs.sources().to_vec());
    let args = inputs.args();

    // Untraced phase: the end-to-end numbers. In the traced run it gets
    // half the time and the traced phase the other half.
    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let phase = timed_phase(&fns, &args, untraced_s, &mut cal, &mut compiles);
    r.host_factor = Some(cal.factor());
    compiles.report(&mut r);
    let exec_geomean = geomean_ms(&phase.times, 0.5);
    // Calls per second at each program's median call time.
    let round_s: f64 = phase.times.iter().map(|t| stats::median(t) / 1e9).sum();
    r.set("ops_per_s", 7.0 / round_s);
    r.set("latency_p50_ms", exec_geomean);
    r.set("tail.latency_p99_ms", geomean_ms(&phase.times, 0.99));
    r.line(format!(
        "  exec_geomean_ms {exec_geomean:.4} ms over 7 programs"
    ));
    for (ix, t) in phase.times.iter().enumerate() {
        let d = Dist::of(&t.iter().map(|n| n / 1e6).collect::<Vec<_>>());
        r.line(d.line(&format!("exec {}", PROGRAMS[ix]), "ms"));
    }

    // Correctness against the native reference, then counter balance.
    let mut bad = phase.unstable;
    for (ix, name) in PROGRAMS.iter().enumerate() {
        let want = inputs.native(ix);
        let got = phase.first[ix].as_ref().expect("every program ran");
        if !values_equivalent(got, &want) {
            bad += 1;
            r.gate(
                &format!("correct:{name}"),
                false,
                "differs from the native reference",
            );
        }
    }
    r.checked(phase.calls, bad);
    r.gate(
        "correct:native-reference",
        bad == 0,
        format!("{} calls, {bad} wrong", phase.calls),
    );
    common::balance_gate(&mut r);

    if traced {
        layers(&mut r, &inputs, &fns, &args, seconds / 2.0, exec_geomean);
        passes.report(&mut r);
        code[0].report(&mut r);
        r.set("core.compile_ms", stats::mean(&compile_ns) / 1e6);
        r.set(
            "core.instantiate_us",
            common::instantiate_us(&fns[0].artifact(), 1000),
        );
    }
    r
}

/// The traced half: per-program exec spans, op profiles, native and
/// `dgemm` references, and runtime counters of one round.
fn layers(
    r: &mut Report,
    inputs: &Inputs,
    fns: &[CompiledCodeFunction],
    args: &[Vec<Value>; 7],
    seconds: f64,
    untraced_geomean: f64,
) {
    trace::set_enabled(true);
    let mut compiles = CompileSampler::new(inputs.sources().to_vec());
    let phase = timed_phase(fns, args, seconds, &mut Calibrator::new(), &mut compiles);
    trace::set_enabled(false);
    let traced_geomean = geomean_ms(&phase.times, 0.5);
    r.set(
        "trace.overhead_pct",
        (traced_geomean - untraced_geomean) / untraced_geomean * 100.0,
    );
    let totals = trace::totals();
    for (ix, name) in PROGRAMS.iter().enumerate() {
        let exec_ms = stats::median(&phase.times[ix]) / 1e6;
        r.set(format!("exec_ms.{name}"), exec_ms);
        let span = totals.get(SPAN_NAMES[ix]).copied().unwrap_or_default();
        r.line(format!(
            "  span {:<20} n={} mean self {:.4} ms",
            SPAN_NAMES[ix],
            span.count,
            span.mean_self_ns() / 1e6
        ));

        // Dispatched ops of one call, twice: the count must repeat.
        let mut ops = [0u64; 2];
        for o in &mut ops {
            fns[ix].profile_ops(true);
            let _ = call(&fns[ix], ix, &args[ix]);
            *o = fns[ix].take_op_stats().ops.values().sum();
            fns[ix].profile_ops(false);
        }
        r.same(&format!("codegen.ops.{name}"), ops[0], ops[1]);
        r.set(format!("codegen.ops.{name}"), ops[0] as f64);
        r.set(
            format!("codegen.ns_per_op.{name}"),
            exec_ms * 1e6 / ops[0].max(1) as f64,
        );

        let native: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(inputs.native(ix));
                stats::ns_since(t) / 1e6
            })
            .collect();
        r.set(format!("native_ms.{name}"), stats::median(&native));
    }

    // The shared dgemm kernel on Dot's inputs, called directly.
    let (a, b) = (
        inputs.a.as_f64().expect("real matrix"),
        inputs.b.as_f64().expect("real matrix"),
    );
    let mut c = vec![0.0; DOT_N * DOT_N];
    let dgemm: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            wolfram_runtime::linalg::dgemm(a, b, &mut c, DOT_N, DOT_N, DOT_N);
            std::hint::black_box(&c);
            stats::ns_since(t) / 1e6
        })
        .collect();
    let dgemm_ms = stats::median(&dgemm);
    r.set("runtime.dgemm_ms", dgemm_ms);
    r.set(
        "runtime.kernel_share.Dot",
        dgemm_ms / stats::median(&phase.times[2]) * 1e6,
    );

    // Runtime memory counters of exactly one round.
    memory::flush_thread_stats();
    for ix in 0..7 {
        let _ = call(&fns[ix], ix, &args[ix]);
    }
    let m = memory::stats();
    memory::flush_thread_stats();
    r.set("runtime.acquires", m.acquires as f64);
    r.set("runtime.tensor_copies", m.tensor_copies as f64);
    let frames = m.frames_reused() + m.frame_misses;
    r.set("runtime.frame_calls", frames as f64);
    r.set(
        "runtime.frame_reuse_ratio",
        m.frames_reused() as f64 / frames.max(1) as f64,
    );
}
