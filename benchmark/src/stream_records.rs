//! `stream-records`: line-delimited records through
//! `wolfram_stream::run_lines` on the native tier with the default batch
//! and one worker. Three streams run in turn: AddMul (scalar integer),
//! Poly (scalar real) and Norm8 (a length-8 real tensor).
//!
//! Per-record latency is timed from outside the stream path: the source
//! stamps every 64th record when it is handed to the reader, the sink
//! stamps the same record when its result line is written. Reference:
//! the same arithmetic in Rust, compared under difftest's relation.

use crate::calib::Calibrator;
use crate::common::{self, CodeStats, CompileSampler, PassTotals};
use crate::stats::{self, Dist, SplitMix};
use crate::{trace, Report};
use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use wolfram_compiler_core::{CompiledArtifact, Compiler, CompilerOptions, StreamCaller};
use wolfram_difftest::oracle::values_equivalent;
use wolfram_runtime::{memory, Value};
use wolfram_stream::{
    parse_record, render_result, run_lines, StreamConfig, StreamFunction, StreamMetrics,
};

const SETUPS: usize = 5;
/// Records per stream per round: AddMul, Poly, Norm8.
const RECORDS: [usize; 3] = [200_000, 200_000, 100_000];
/// One record in this many is stamped at source and sink.
const SAMPLE: usize = 64;
const NAMES: [&str; 3] = ["AddMul", "Poly", "Norm8"];
const SOURCES: [&str; 3] = [
    r#"Function[{Typed[n, "MachineInteger"]}, 3*n + 7]"#,
    r#"Function[{Typed[x, "Real64"]}, x*(x*(x - 2.5) + 1.25) + 0.5]"#,
    r#"Function[{Typed[v, "Tensor"["Real64", 1]]},
 Module[{s, i, n},
  s = 0.0;
  n = Length[v];
  i = 1;
  While[i <= n, s = s + v[[i]]*v[[i]]; i = i + 1];
  s]]"#,
];

/// One stream's input text and the Rust reference of every record.
struct StreamData {
    text: Vec<u8>,
    expected: Vec<Value>,
}

fn generate(seed: u64) -> Vec<StreamData> {
    let mut rng = SplitMix::new(seed ^ 0x7374_7265_616d);
    let mut out = Vec::new();
    for (s, &n) in RECORDS.iter().enumerate() {
        let mut text = Vec::with_capacity(n * 16);
        let mut expected = Vec::with_capacity(n);
        for _ in 0..n {
            match s {
                0 => {
                    let v = rng.below(100_000) as i64 - 50_000;
                    writeln!(text, "{v}").expect("in-memory write");
                    expected.push(Value::I64(3 * v + 7));
                }
                1 => {
                    // Thousandths print and parse exactly as decimals.
                    let x = (rng.below(6_000) as f64 - 3_000.0) / 1_000.0;
                    writeln!(text, "{x:?}").expect("in-memory write");
                    expected.push(Value::F64(x * (x * (x - 2.5) + 1.25) + 0.5));
                }
                _ => {
                    let xs: Vec<f64> = (0..8).map(|_| rng.below(97) as f64 * 0.125).collect();
                    let body: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
                    writeln!(text, "{{{}}}", body.join(", ")).expect("in-memory write");
                    expected.push(Value::F64(xs.iter().fold(0.0, |s, x| s + x * x)));
                }
            }
        }
        out.push(StreamData { text, expected });
    }
    out
}

/// A record source that hands the reader one line per `fill_buf` and
/// stamps every [`SAMPLE`]th line as it is yielded.
struct TimedSource<'a> {
    data: &'a [u8],
    pos: usize,
    line: usize,
    stamped: usize,
    stamps: &'a mut Vec<Instant>,
}

impl Read for TimedSource<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for TimedSource<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let rest = &self.data[self.pos..];
        let end = rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
        if end > 0 && self.stamped == self.line {
            if self.line.is_multiple_of(SAMPLE) {
                self.stamps.push(Instant::now());
            }
            self.stamped += 1;
        }
        Ok(&rest[..end])
    }

    fn consume(&mut self, amt: usize) {
        if self.data[self.pos..self.pos + amt].contains(&b'\n') {
            self.line += 1;
        }
        self.pos += amt;
    }
}

/// The sink: keeps every output byte and stamps every [`SAMPLE`]th
/// completed line.
struct TimedSink<'a> {
    out: &'a mut Vec<u8>,
    line: usize,
    stamps: &'a mut Vec<Instant>,
}

impl Write for TimedSink<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.out.extend_from_slice(buf);
        for _ in buf.iter().filter(|&&b| b == b'\n') {
            if self.line.is_multiple_of(SAMPLE) {
                self.stamps.push(Instant::now());
            }
            self.line += 1;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    records: u64,
    /// Wall time of each `run_lines` call, per stream (ms).
    run_ms: [Vec<f64>; 3],
    latency_ns: Vec<f64>,
    /// Output of the first round, per stream.
    first: Vec<Vec<u8>>,
    unstable: u64,
    fill: f64,
    slots: u64,
    max_depth: u64,
    io_errors: u64,
}

impl Phase {
    /// Records per second at each stream's median `run_lines` time.
    fn rate(&self) -> f64 {
        let round_s: f64 = self.run_ms.iter().map(|t| stats::median(t) / 1e3).sum();
        RECORDS.iter().sum::<usize>() as f64 / round_s
    }
}

fn run_round(
    funcs: &[StreamFunction],
    data: &[StreamData],
    p: &mut Phase,
    round: u64,
    cal: &mut Calibrator,
    compiles: &mut CompileSampler,
) {
    for (s, d) in data.iter().enumerate() {
        cal.tick_pair(4);
        compiles.sample(s);
        let metrics = StreamMetrics::new();
        let stop = AtomicBool::new(false);
        let (mut src_stamps, mut sink_stamps) = (Vec::new(), Vec::new());
        let mut out = Vec::with_capacity(d.text.len() + RECORDS[s] * 8);
        let t = Instant::now();
        let result = trace::span("stream.run_lines", round, || {
            let source = TimedSource {
                data: &d.text,
                pos: 0,
                line: 0,
                stamped: 0,
                stamps: &mut src_stamps,
            };
            let mut sink = TimedSink {
                out: &mut out,
                line: 0,
                stamps: &mut sink_stamps,
            };
            run_lines(
                &funcs[s],
                &StreamConfig::default(),
                source,
                &mut sink,
                &metrics,
                &stop,
            )
        });
        p.run_ms[s].push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(summary) => p.records += summary.records,
            Err(_) => p.io_errors += 1,
        }
        p.latency_ns.extend(
            src_stamps
                .iter()
                .zip(&sink_stamps)
                .map(|(a, b)| b.duration_since(*a).as_nanos() as f64),
        );
        p.fill = metrics.fill_ratio();
        p.slots += metrics.batch_slots.load(Ordering::Relaxed);
        p.max_depth = p
            .max_depth
            .max(metrics.queue_depth_max.load(Ordering::Relaxed));
        if p.first.len() <= s {
            p.first.push(out);
        } else if p.first[s] != out {
            p.unstable += 1;
        }
    }
}

fn timed_phase(
    funcs: &[StreamFunction],
    data: &[StreamData],
    seconds: f64,
    cal: &mut Calibrator,
    compiles: &mut CompileSampler,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    let mut round = 0;
    while round < 2 || start.elapsed().as_secs_f64() < seconds {
        run_round(funcs, data, &mut p, round, cal, compiles);
        round += 1;
    }
    p
}

/// Checks every output line of one round against the Rust reference.
fn check_outputs(out: &[u8], want: &[Value]) -> u64 {
    let text = String::from_utf8_lossy(out);
    let mut bad = (text.lines().count() != want.len()) as u64;
    for (line, want) in text.lines().zip(want) {
        let got = line.strip_prefix("ok ").and_then(|v| match want {
            Value::I64(_) => v.parse::<i64>().ok().map(Value::I64),
            _ => v.parse::<f64>().ok().map(Value::F64),
        });
        if !got.is_some_and(|g| values_equivalent(&g, want)) {
            bad += 1;
        }
    }
    bad
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut compile_ns = Vec::new();
    let mut passes = PassTotals::default();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let data = generate(seed);
        let compiler = Compiler::new(CompilerOptions::default());
        let mut artifacts: Vec<CompiledArtifact> = Vec::new();
        for (i, src) in SOURCES.iter().enumerate() {
            match common::parse_and_compile(&compiler, src, i as u64, &mut passes) {
                Ok(c) => {
                    compile_ns.push(c.compile_ns);
                    artifacts.push(c.cf.artifact());
                }
                Err(e) => {
                    r.gate(&format!("compile:{}", NAMES[i]), false, e);
                    return r;
                }
            }
        }
        setups.push(t.elapsed().as_secs_f64());
        built = Some((data, artifacts));
    }
    let (data, artifacts) = built.expect("at least one set-up");
    common::report_setup(&mut r, &setups);
    let funcs: Vec<StreamFunction> = artifacts
        .iter()
        .map(|a| StreamFunction::Native(a.clone()))
        .collect();
    let mut code = CodeStats::default();
    for a in &artifacts {
        code.add(CodeStats::of(a));
    }
    r.set("code_ops_total", code.reg_ops as f64);
    let mut cal = Calibrator::new();
    let sources = || SOURCES.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    let mut compiles = CompileSampler::new(sources());

    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let p = timed_phase(&funcs, &data, untraced_s, &mut cal, &mut compiles);
    r.host_factor = Some(cal.factor());
    compiles.report(&mut r);
    let rate = p.rate();
    r.set("ops_per_s", rate);
    r.line(format!(
        "  stream_events_per_s {rate:.0} over {} records",
        p.records
    ));
    // The user's latency here is the time to stream one input file; the
    // per-record latency is set by queue occupancy, which flips between
    // empty and full with how the pipeline's three threads share the
    // host's cores, so it is reported as a layer figure.
    let per_stream = |q: f64| {
        stats::geomean(
            &p.run_ms
                .iter()
                .map(|t| stats::quantile(&stats::sorted(t), q))
                .collect::<Vec<_>>(),
        )
    };
    r.set("latency_p50_ms", per_stream(0.5));
    r.set("tail.latency_p99_ms", per_stream(0.99));
    for (s, t) in p.run_ms.iter().enumerate() {
        r.line(Dist::of(t).line(&format!("run_lines {}", NAMES[s]), "ms"));
    }
    let lat = Dist::of(&p.latency_ns.iter().map(|n| n / 1e3).collect::<Vec<_>>());
    r.line(lat.line("record latency", "us"));
    r.set("stream.record_p50_us", lat.median);
    r.set("stream.record_p99_us", lat.p99);

    let mut bad = p.unstable + p.io_errors;
    for (s, d) in data.iter().enumerate() {
        let wrong = check_outputs(&p.first[s], &d.expected);
        bad += wrong;
        if wrong > 0 {
            r.gate(
                &format!("correct:{}", NAMES[s]),
                false,
                format!("{wrong} wrong records"),
            );
        }
    }
    r.checked(p.records, bad);
    r.gate(
        "correct:rust-reference",
        bad == 0,
        format!(
            "{} records, {bad} wrong or changed between rounds",
            p.records
        ),
    );
    common::balance_gate(&mut r);

    if traced {
        trace::set_enabled(true);
        let tp = timed_phase(
            &funcs,
            &data,
            seconds / 2.0,
            &mut Calibrator::new(),
            &mut CompileSampler::new(sources()),
        );
        trace::set_enabled(false);
        let traced_rate = tp.rate();
        r.set("trace.overhead_pct", (rate - traced_rate) / rate * 100.0);
        r.set("stream.batch_fill", p.fill);
        r.set("stream.batch_slots", p.slots as f64);
        r.set("stream.max_queue_depth", p.max_depth as f64);
        layers(&mut r, &funcs, &artifacts, &data, rate);
        passes.report(&mut r);
        code.report(&mut r);
        r.set("core.compile_ms", stats::mean(&compile_ns) / 1e6);
        r.set(
            "core.instantiate_us",
            common::instantiate_us(&artifacts[0], 1000),
        );
        common::balance_gate(&mut r);
    }
    r
}

/// Splits the per-event time into record parse, the `StreamCaller` fast
/// path, result rendering and the rest (queues, batching, reorder).
fn layers(
    r: &mut Report,
    funcs: &[StreamFunction],
    artifacts: &[CompiledArtifact],
    data: &[StreamData],
    rate: f64,
) {
    let total: usize = RECORDS.iter().sum();
    let (mut parse_ns, mut call_ns, mut oneshot_ns, mut render_ns) = (0.0, 0.0, 0.0, 0.0);
    for (s, d) in data.iter().enumerate() {
        let text = std::str::from_utf8(&d.text).expect("generated text is UTF-8");
        let t = Instant::now();
        let records: Vec<Vec<Value>> = text
            .lines()
            .map(|l| parse_record(l, 1).expect("generated records parse"))
            .collect();
        parse_ns += stats::ns_since(t);

        let mut caller = StreamCaller::new(&artifacts[s]);
        let t = Instant::now();
        let results: Vec<_> = records.iter().map(|rec| caller.call(rec)).collect();
        call_ns += stats::ns_since(t);

        let cf = artifacts[s].instantiate();
        let t = Instant::now();
        for rec in &records {
            let _ = std::hint::black_box(cf.call(rec));
        }
        oneshot_ns += stats::ns_since(t);

        let t = Instant::now();
        for res in &results {
            std::hint::black_box(render_result(res));
        }
        render_ns += stats::ns_since(t);
    }
    let per = |ns: f64| ns / total as f64;
    r.set("stream.parse_ns", per(parse_ns));
    r.set("core.stream_call_ns", per(call_ns));
    r.set("core.oneshot_call_ns", per(oneshot_ns));
    r.set("stream.render_ns", per(render_ns));
    r.set(
        "stream.pipeline_ns",
        1e9 / rate - per(parse_ns) - per(call_ns) - per(render_ns),
    );

    // Frame and refcount counters of exactly one round, twice: the
    // counts must repeat.
    let mut rounds = [memory::MemoryStats::default(); 2];
    for m in &mut rounds {
        memory::flush_thread_stats();
        let before = memory::global_stats();
        let mut scratch = Phase::default();
        run_round(
            funcs,
            data,
            &mut scratch,
            0,
            &mut Calibrator::new(),
            &mut CompileSampler::new(SOURCES.iter().map(|s| (*s).to_owned()).collect()),
        );
        memory::flush_thread_stats();
        let after = memory::global_stats();
        *m = memory::MemoryStats {
            acquires: after.acquires - before.acquires,
            releases: after.releases - before.releases,
            tensor_copies: after.tensor_copies - before.tensor_copies,
            frame_hits: after.frame_hits - before.frame_hits,
            frame_misses: after.frame_misses - before.frame_misses,
            frame_resets: after.frame_resets - before.frame_resets,
        };
    }
    r.same("runtime.round_counters", rounds[0], rounds[1]);
    let m = rounds[0];
    let frames = m.frames_reused() + m.frame_misses;
    r.set("runtime.frame_calls", frames as f64);
    r.set(
        "runtime.frame_reuse_ratio",
        m.frames_reused() as f64 / frames.max(1) as f64,
    );
    r.set("runtime.frame_resets", m.frame_resets as f64);
    r.set("runtime.acquires", m.acquires as f64);
    r.set("runtime.tensor_copies", m.tensor_copies as f64);
}
