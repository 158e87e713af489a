//! Calls into the compiler shared by every workload: parse + compile
//! with spans, per-pass totals from `Compiler::timings()`, and the code
//! statistics of a compiled artifact.

use crate::{trace, Report, PASS_METRICS};
use std::time::{Duration, Instant};
use wolfram_compiler_core::{CompiledArtifact, CompiledCodeFunction, Compiler};

/// One parsed-and-compiled program with its latencies.
pub struct Compiled {
    pub cf: CompiledCodeFunction,
    /// Parse + `function_compile`, as a user of `FunctionCompile` waits.
    pub compile_ns: f64,
}

/// Parses `src` and compiles it with `compiler`, adding the per-pass
/// timings to `passes`.
pub fn parse_and_compile(
    compiler: &Compiler,
    src: &str,
    req: u64,
    passes: &mut PassTotals,
) -> Result<Compiled, String> {
    let t0 = Instant::now();
    let expr = trace::span("expr.parse", req, || wolfram_expr::parse(src))
        .map_err(|e| format!("parse: {e}"))?;
    let parse_ns = t0.elapsed().as_nanos() as f64;
    let cf = trace::span("core.function_compile", req, || {
        compiler.function_compile(&expr)
    })
    .map_err(|e| format!("compile: {e}"))?;
    let compile_ns = t0.elapsed().as_nanos() as f64;
    passes.add(&compiler.timings(), parse_ns);
    Ok(Compiled { cf, compile_ns })
}

/// Sums of pass times over many compilations, grouped as
/// [`PASS_METRICS`].
#[derive(Debug, Default, Clone)]
pub struct PassTotals {
    sums_ns: [f64; PASS_METRICS.len()],
    parse_ns: f64,
    programs: u64,
}

impl PassTotals {
    fn group(pass: &str) -> Option<usize> {
        let ix = match pass {
            "macro-expansion" => 0,
            "binding-analysis" => 1,
            "lowering" => 2,
            "type-inference" => 3,
            "function-resolution" => 4,
            p if p.starts_with("optimize[") => 5,
            "analyze" => 6,
            "range-analysis" => 7,
            "code-generation" => 8,
            "superinstruction-fusion" => 9,
            _ => return None,
        };
        Some(ix)
    }

    pub fn add(&mut self, timings: &[(String, Duration)], parse_ns: f64) {
        for (pass, d) in timings {
            if let Some(ix) = Self::group(pass) {
                self.sums_ns[ix] += d.as_nanos() as f64;
            }
        }
        self.parse_ns += parse_ns;
        self.programs += 1;
    }

    /// Writes the mean per-program pass times (µs) and `expr.parse_us`.
    pub fn report(&self, r: &mut Report) {
        let n = self.programs.max(1) as f64;
        for (name, sum) in PASS_METRICS.iter().zip(self.sums_ns) {
            r.set(*name, sum / n / 1e3);
        }
        r.set("expr.parse_us", self.parse_ns / n / 1e3);
    }
}

/// Static statistics of compiled code; every field is an exact count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CodeStats {
    pub reg_ops: u64,
    pub twir_instrs: u64,
    pub bounds_elided: u64,
    pub bounds_total: u64,
    pub ovf_elided: u64,
    pub ovf_total: u64,
}

impl CodeStats {
    pub fn of(artifact: &CompiledArtifact) -> CodeStats {
        let mut s = CodeStats::default();
        for f in &artifact.program.funcs {
            s.reg_ops += f.code.len() as u64;
            s.bounds_elided += u64::from(f.elision.bounds_elided);
            s.bounds_total += u64::from(f.elision.bounds_total);
            s.ovf_elided += u64::from(f.elision.ovf_elided);
            s.ovf_total += u64::from(f.elision.ovf_total);
        }
        s.twir_instrs = artifact
            .module
            .functions
            .iter()
            .flat_map(|f| &f.blocks)
            .map(|b| b.instrs.len() as u64)
            .sum();
        s
    }

    pub fn add(&mut self, o: CodeStats) {
        self.reg_ops += o.reg_ops;
        self.twir_instrs += o.twir_instrs;
        self.bounds_elided += o.bounds_elided;
        self.bounds_total += o.bounds_total;
        self.ovf_elided += o.ovf_elided;
        self.ovf_total += o.ovf_total;
    }

    /// Writes the IR and check-elision metrics; each ratio with its base.
    pub fn report(&self, r: &mut Report) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        r.set("ir.twir_instrs", self.twir_instrs as f64);
        r.set(
            "analyze.bounds_proved_ratio",
            ratio(self.bounds_elided, self.bounds_total),
        );
        r.set("analyze.bounds_total", self.bounds_total as f64);
        r.set(
            "analyze.ovf_proved_ratio",
            ratio(self.ovf_elided, self.ovf_total),
        );
        r.set("analyze.ovf_total", self.ovf_total as f64);
    }
}

/// Mean time of `CompiledArtifact::instantiate`, in microseconds.
pub fn instantiate_us(artifact: &CompiledArtifact, reps: u32) -> f64 {
    let t = Instant::now();
    for i in 0..reps {
        std::hint::black_box(trace::span("core.instantiate", u64::from(i), || {
            artifact.instantiate()
        }));
    }
    t.elapsed().as_nanos() as f64 / f64::from(reps) / 1e3
}

/// Compile latency sampled between units of the measured work, so its
/// median spans the whole run instead of one burst at set-up.
pub struct CompileSampler {
    compiler: Compiler,
    sources: Vec<String>,
    ms: Vec<Vec<f64>>,
    errors: Vec<String>,
}

impl CompileSampler {
    pub fn new(sources: Vec<String>) -> CompileSampler {
        CompileSampler {
            compiler: Compiler::new(wolfram_compiler_core::CompilerOptions::default()),
            ms: vec![Vec::new(); sources.len()],
            sources,
            errors: Vec::new(),
        }
    }

    /// Parses and compiles source `ix` once, with default options.
    pub fn sample(&mut self, ix: usize) {
        let req = self.ms[ix].len() as u64;
        match parse_and_compile(
            &self.compiler,
            &self.sources[ix],
            req,
            &mut PassTotals::default(),
        ) {
            Ok(c) => self.ms[ix].push(c.compile_ns / 1e6),
            Err(e) => self.errors.push(e),
        }
    }

    /// Sets `compile_p50_ms`: the geometric mean over sources of the
    /// median parse + compile time.
    pub fn report(&self, r: &mut Report) {
        let medians: Vec<f64> = self.ms.iter().map(|m| crate::stats::median(m)).collect();
        let g = crate::stats::geomean(&medians);
        r.set("compile_p50_ms", g);
        r.line(format!(
            "  compile geomean {g:.4} ms over {} programs, {} samples each",
            self.sources.len(),
            self.ms.iter().map(Vec::len).min().unwrap_or(0)
        ));
        r.gate(
            "compile:repeat",
            self.errors.is_empty(),
            format!("{} errors {:?}", self.errors.len(), self.errors.first()),
        );
    }
}

/// Sets `setup_s` to the median of the set-up times and reports them.
pub fn report_setup(r: &mut Report, setups: &[f64]) {
    let d = crate::stats::Dist::of(setups);
    r.set("setup_s", d.median);
    r.line(d.line("setup", "s"));
}

/// Moves this thread's memory counters to the process totals and gates on
/// every acquire having its release.
pub fn balance_gate(r: &mut Report) {
    wolfram_runtime::memory::flush_thread_stats();
    let g = wolfram_runtime::memory::global_stats();
    r.gate(
        "balance:acquire-release",
        g.balanced(),
        format!("acquires {} releases {}", g.acquires, g.releases),
    );
}
