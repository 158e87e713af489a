//! `compile-corpus`: the FunctionCompile-then-call-once user. A seeded
//! draw of difftest-generated programs plus the seven paper sources is
//! parsed, compiled with `CompilerOptions::default()` (verify `Full`)
//! and run once on each argument set, over and over until time is up.
//!
//! References: the interpreter for generated programs (difftest's
//! equivalence relation with its cancellation allowance), the native
//! Rust of `wolfram_bench::native` for the paper programs.

use crate::calib::Calibrator;
use crate::common::{self, CodeStats, PassTotals};
use crate::stats::{self, Dist, SplitMix};
use crate::{trace, Report};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use wolfram_bench::{native, programs, workloads};
use wolfram_compiler_core::{Compiler, CompilerOptions};
use wolfram_difftest::oracle::{
    outcomes_equivalent, outcomes_equivalent_within, values_equivalent, Outcome, CANCELLATION_EPS,
    RUN_TIMEOUT,
};
use wolfram_difftest::{derive_seed, Program};
use wolfram_expr::{Expr, ExprKind};
use wolfram_interp::Interpreter;
use wolfram_runtime::{RuntimeError, Tensor, Value};

const SETUPS: usize = 5;
/// Generated programs per draw; with the paper sources this is the
/// corpus one pass compiles.
const GENERATED: u64 = 3000;

/// How a program's outputs are checked.
enum Reference {
    /// Evaluate the source under the interpreter.
    Interpreter,
    /// Known native results, one per argument set.
    Native(Vec<Value>),
}

struct Entry {
    source: String,
    func: Expr,
    arg_sets: Vec<Vec<Value>>,
    reference: Reference,
}

/// The seven paper programs on small seeded inputs: here they are
/// compiled far more often than run.
fn paper_entries(seed: u64, prime_table: &[i64]) -> Vec<Entry> {
    let mut rng = SplitMix::new(seed ^ 0x0063_6f6d_7069_6c65);
    let text = workloads::random_string(64, rng.next_u64());
    let a = workloads::random_matrix(8, rng.next_u64());
    let b = workloads::random_matrix(8, rng.next_u64());
    let img = workloads::random_matrix_hw(16, 16, rng.next_u64());
    let bytes = workloads::random_bytes_tensor(1000, rng.next_u64());
    let list: Vec<i64> = (0..256).map(|_| rng.below(10_000) as i64).collect();
    let (re, im) = (rng.unit() * 2.0 - 1.0, rng.unit() * 1.5 - 1.0);
    let limit = 2000i64;
    let t = |x: &Tensor| Value::Tensor(x.clone());
    let cases = vec![
        (
            programs::FNV1A_SRC.to_owned(),
            vec![Value::Str(Arc::new(text.clone()))],
            Value::I64(i64::from(native::fnv1a32(text.as_bytes()))),
        ),
        (
            programs::MANDELBROT_SRC.to_owned(),
            vec![Value::Complex(re, im)],
            Value::I64(native::mandelbrot_iters(re, im, 1000)),
        ),
        (
            programs::DOT_SRC.to_owned(),
            vec![t(&a), t(&b)],
            Value::Tensor(native::dot(&a, &b)),
        ),
        (
            programs::BLUR_SRC.to_owned(),
            vec![t(&img), Value::I64(16), Value::I64(16)],
            Value::Tensor(native::blur(&img, 16, 16)),
        ),
        (
            programs::HISTOGRAM_SRC.to_owned(),
            vec![t(&bytes)],
            Value::Tensor(Tensor::from_i64(native::histogram(
                bytes.as_i64().expect("integer data"),
            ))),
        ),
        (
            programs::primeq_src(prime_table),
            vec![Value::I64(limit)],
            Value::I64(native::prime_count(limit as u64) as i64),
        ),
        (
            programs::QSORT_SRC.to_owned(),
            vec![
                Value::Tensor(Tensor::from_i64(list.clone())),
                Value::Bool(true),
            ],
            Value::Tensor(Tensor::from_i64(native::qsort(&list, native::less))),
        ),
    ];
    cases
        .into_iter()
        .map(|(source, args, want)| Entry {
            func: wolfram_expr::parse(&source).expect("paper source parses"),
            source,
            arg_sets: vec![args],
            reference: Reference::Native(vec![want]),
        })
        .collect()
}

fn corpus(seed: u64, prime_table: &[i64]) -> Vec<Entry> {
    let mut out: Vec<Entry> = (0..GENERATED)
        .map(|i| {
            let p = Program::generate(derive_seed(seed, i));
            Entry {
                source: p.source(),
                func: p.func,
                arg_sets: p.arg_sets,
                reference: Reference::Interpreter,
            }
        })
        .collect();
    out.extend(paper_entries(seed, prime_table));
    out
}

fn outcome(r: Result<Value, RuntimeError>) -> Outcome {
    match r {
        Ok(v) => Outcome::Ok(v),
        Err(e) => Outcome::Err(e.tag().to_owned()),
    }
}

/// Largest numeric magnitude in an expression or value: the scale of
/// difftest's absolute cancellation allowance.
fn expr_scale(e: &Expr) -> f64 {
    match e.kind() {
        ExprKind::Integer(i) => i.unsigned_abs() as f64,
        ExprKind::BigInteger(b) => b.to_f64().abs(),
        ExprKind::Real(r) => r.abs(),
        ExprKind::Complex(re, im) => re.abs().max(im.abs()),
        ExprKind::Normal(_) => e
            .args()
            .iter()
            .map(expr_scale)
            .fold(expr_scale(&e.head()), f64::max),
        _ => 0.0,
    }
}

fn value_scale(v: &Value) -> f64 {
    match v {
        Value::Tensor(t) => {
            let ints = t
                .as_i64()
                .into_iter()
                .flatten()
                .map(|i| i.unsigned_abs() as f64);
            let reals = t.as_f64().into_iter().flatten().map(|x| x.abs());
            ints.chain(reals).fold(0.0, f64::max)
        }
        other => expr_scale(&other.to_expr()),
    }
}

/// The interpreter's outcome for one argument set, or `None` when it is
/// inconclusive (watchdog timeout, or a symbolic result outside the
/// compiled subset).
fn interpret(func: &Expr, args: &[Value]) -> Option<Outcome> {
    let mut engine = Interpreter::new();
    let call = Expr::normal(
        func.clone(),
        args.iter().map(Value::to_expr).collect::<Vec<_>>(),
    );
    let signal = engine.abort_signal().clone();
    let guard = signal.deadline(RUN_TIMEOUT);
    let out = outcome(engine.eval(&call).map(|e| Value::from_expr(&e)));
    drop(guard);
    match &out {
        Outcome::Err(tag) if tag == "Aborted" => None,
        Outcome::Ok(Value::Expr(_)) => None,
        _ => Some(out),
    }
}

/// Per-program timings of one pass set.
struct Phase {
    compile_ns: Vec<f64>,
    user_ns: Vec<f64>,
    calls: u64,
    compile_errors: Vec<String>,
    /// Outcomes of the first pass, per entry and argument set.
    first: Vec<Vec<Outcome>>,
    unstable: u64,
    unstable_example: String,
    /// Parse + compile + run time of each whole pass over the corpus.
    pass_s: Vec<f64>,
    code: CodeStats,
    passes: PassTotals,
}

fn timed_phase(entries: &[Entry], seconds: f64, cal: &mut Calibrator) -> Phase {
    let compiler = Compiler::new(CompilerOptions::default());
    let mut p = Phase {
        compile_ns: Vec::new(),
        user_ns: Vec::new(),
        calls: 0,
        compile_errors: Vec::new(),
        first: Vec::new(),
        unstable: 0,
        unstable_example: String::new(),
        pass_s: Vec::new(),
        code: CodeStats::default(),
        passes: PassTotals::default(),
    };
    let start = Instant::now();
    let mut pass = 0u64;
    while pass < 1 || start.elapsed().as_secs_f64() < seconds {
        let done = p.user_ns.len();
        for (i, e) in entries.iter().enumerate() {
            if i % 16 == 0 {
                cal.tick(1);
            }
            let req = pass * entries.len() as u64 + i as u64;
            trace::span("corpus.program", req, || {
                let compiled =
                    match common::parse_and_compile(&compiler, &e.source, req, &mut p.passes) {
                        Ok(c) => c,
                        Err(err) => {
                            if pass == 0 {
                                p.compile_errors.push(err);
                                p.first.push(Vec::new());
                            }
                            return;
                        }
                    };
                if pass == 0 {
                    p.code.add(CodeStats::of(&compiled.cf.artifact()));
                }
                // Hosting attaches the soft-failure engine (paper §3 F2);
                // it is built outside the timed calls.
                let cf = compiled
                    .cf
                    .hosted(Rc::new(RefCell::new(Interpreter::new())));
                let t = Instant::now();
                let outs: Vec<Outcome> = e
                    .arg_sets
                    .iter()
                    .map(|args| outcome(trace::span("core.call", req, || cf.call(args))))
                    .collect();
                let call_ns = stats::ns_since(t);
                p.calls += outs.len() as u64;
                p.compile_ns.push(compiled.compile_ns);
                p.user_ns.push(compiled.compile_ns + call_ns);
                // Under difftest's relation, or as printed: a NaN, also
                // inside a symbolic fallback result, still repeats.
                let repeats = |first: &[Outcome]| {
                    first.len() == outs.len()
                        && first
                            .iter()
                            .zip(&outs)
                            .all(|(a, b)| outcomes_equivalent(a, b) || a.describe() == b.describe())
                };
                if pass == 0 {
                    p.first.push(outs);
                } else if !repeats(&p.first[i]) {
                    if p.unstable == 0 {
                        p.unstable_example =
                            format!("{} gave {:?} then {:?}", e.source, p.first[i], outs);
                    }
                    p.unstable += 1;
                }
            });
        }
        p.pass_s.push(p.user_ns[done..].iter().sum::<f64>() / 1e9);
        pass += 1;
    }
    p
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut entries = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let table = workloads::prime_seed_table();
        entries = corpus(seed, &table);
        setups.push(t.elapsed().as_secs_f64());
    }
    common::report_setup(&mut r, &setups);

    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let mut cal = Calibrator::new();
    let p = timed_phase(&entries, untraced_s, &mut cal);
    r.host_factor = Some(cal.factor());
    let ms = |xs: &[f64]| xs.iter().map(|x| x / 1e6).collect::<Vec<_>>();
    let compile = Dist::of(&ms(&p.compile_ns));
    let user = Dist::of(&ms(&p.user_ns));
    r.set("ops_per_s", entries.len() as f64 / stats::median(&p.pass_s));
    r.set("latency_p50_ms", user.median);
    r.set("tail.latency_p99_ms", user.p99);
    r.set("compile_p50_ms", compile.median);
    r.set("code_ops_total", p.code.reg_ops as f64);
    r.line(compile.line("compile_ms (parse+compile)", "ms"));
    r.line(format!("  compile_ms_p99 {:.4} ms", compile.p99));
    r.line(user.line("compile + run once", "ms"));
    r.line(format!(
        "  corpus {} programs ({} generated + 7 paper), {} passes",
        entries.len(),
        GENERATED,
        p.compile_ns.len() / entries.len().max(1)
    ));

    // Correctness: every compile succeeds, outcomes repeat across passes,
    // and the first pass agrees with the independent reference.
    r.gate(
        "compile:corpus",
        p.compile_errors.is_empty(),
        format!(
            "{} compile errors {:?}",
            p.compile_errors.len(),
            p.compile_errors.first()
        ),
    );
    if p.unstable > 0 {
        r.line(format!("  CHANGED between passes: {}", p.unstable_example));
    }
    let mut bad = p.unstable + p.compile_errors.len() as u64;
    let mut inconclusive = 0u64;
    for (e, outs) in entries.iter().zip(&p.first) {
        for (k, (args, got)) in e.arg_sets.iter().zip(outs).enumerate() {
            let ok = match &e.reference {
                Reference::Native(want) => {
                    matches!(got, Outcome::Ok(v) if values_equivalent(v, &want[k]))
                }
                Reference::Interpreter => match interpret(&e.func, args) {
                    None => {
                        inconclusive += 1;
                        true
                    }
                    Some(want) => {
                        let scale = args
                            .iter()
                            .map(value_scale)
                            .fold(expr_scale(&e.func), f64::max);
                        outcomes_equivalent_within(&want, got, CANCELLATION_EPS * scale)
                    }
                },
            };
            if !ok {
                bad += 1;
                if bad <= 3 {
                    r.line(format!(
                        "  MISMATCH {} on {:?}: got {}",
                        e.source,
                        args,
                        got.describe()
                    ));
                }
            }
        }
    }
    r.checked(p.calls + p.compile_errors.len() as u64, bad);
    r.gate(
        "correct:reference",
        bad == 0,
        format!(
            "{} calls, {bad} wrong, {inconclusive} inconclusive",
            p.calls
        ),
    );

    if traced {
        trace::set_enabled(true);
        let t = timed_phase(&entries, seconds / 2.0, &mut Calibrator::new());
        trace::set_enabled(false);
        let traced_p50 = stats::median(&t.compile_ns) / 1e6;
        r.set(
            "trace.overhead_pct",
            (traced_p50 - compile.median) / compile.median * 100.0,
        );
        r.same("code_stats", p.code, t.code);
        t.passes.report(&mut r);
        t.code.report(&mut r);
        let totals = trace::totals();
        let mean_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_ns());
        r.set("core.compile_ms", mean_ns("core.function_compile") / 1e6);
        r.set("core.oneshot_call_ns", mean_ns("core.call"));
        r.line(format!(
            "  span self: parse {:.1} us, function_compile {:.1} us, call {:.1} us, harness {:.1} us",
            mean_ns("expr.parse") / 1e3,
            mean_ns("core.function_compile") / 1e3,
            mean_ns("core.call") / 1e3,
            mean_ns("corpus.program") / 1e3
        ));
        if let Ok(c) = common::parse_and_compile(
            &Compiler::new(CompilerOptions::default()),
            &entries[0].source,
            0,
            &mut PassTotals::default(),
        ) {
            r.set(
                "core.instantiate_us",
                common::instantiate_us(&c.cf.artifact(), 1000),
            );
        }
    }
    r
}
