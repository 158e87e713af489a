//! Closed-loop load generator for `wolfram-serve` (the `bench-serve`
//! subcommand).
//!
//! The workload models an evaluation service: a catalog of distinct
//! programs whose *execution* is cheap (microseconds) but whose
//! *compilation* is not (milliseconds), requested with a Zipf-skewed
//! popularity mix — a few hot programs dominate, a long tail recurs
//! rarely. That shape is exactly what a content-addressed compile cache
//! exploits, so the cache-on/cache-off throughput ratio is the headline
//! number.
//!
//! Every reply is checked against the ground-truth value computed in
//! Rust, which doubles as the cached-vs-uncached divergence check the CI
//! smoke step asserts on: a stale or mis-keyed cache entry would return
//! the *wrong program's* answer and show up as a divergence, not just a
//! slowdown.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use wolfram_serve::{fmt_ns, ServeConfig, ServeError, ServePool, ServeRequest};

/// Zipf(s) sampler over ranks `0..n` by inverse CDF on precomputed
/// cumulative weights `1/(r+1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s` (s ≈ 1 is the classic
    /// heavy skew; larger `s` concentrates more mass on rank 0).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty catalog");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cumulative
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// The program catalog: `n` distinct functions, each a small accumulation
/// loop parameterized by a constant so every rank compiles to a distinct
/// artifact (distinct cache key) but executes in microseconds.
pub struct Catalog {
    sources: Vec<String>,
    /// Ground-truth result per rank for the fixed argument.
    expected: Vec<String>,
    arg: i64,
}

impl Catalog {
    /// Builds `n` programs evaluated at the fixed argument `arg`.
    pub fn new(n: usize, arg: i64) -> Catalog {
        let mut sources = Vec::with_capacity(n);
        let mut expected = Vec::with_capacity(n);
        for k in 0..n as i64 {
            sources.push(format!(
                "Function[{{Typed[n, \"MachineInteger\"]}}, \
                 Module[{{acc = 0, i = 0}}, \
                 While[i < n, acc = acc + i*i + {k}; i = i + 1]; acc]]"
            ));
            // sum_{i<arg} (i^2 + k)
            let truth: i64 = (0..arg).map(|i| i * i + k).sum();
            expected.push(truth.to_string());
        }
        Catalog {
            sources,
            expected,
            arg,
        }
    }

    /// Number of distinct programs.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The source text for a rank.
    pub fn source(&self, rank: usize) -> &str {
        &self.sources[rank]
    }

    /// The ground-truth result for a rank at the fixed argument.
    pub fn expected(&self, rank: usize) -> &str {
        &self.expected[rank]
    }

    /// The fixed argument every program is evaluated at.
    pub fn arg(&self) -> i64 {
        self.arg
    }
}

/// One load-generation run's results.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Worker threads the pool ran.
    pub workers: usize,
    /// Whether the artifact cache was enabled.
    pub cache_on: bool,
    /// Requests that completed with a value.
    pub ok: u64,
    /// Requests rejected at admission (closed-loop clients retry, so this
    /// stays 0 unless the queue bound is hit).
    pub rejected: u64,
    /// Replies whose value differed from ground truth.
    pub divergences: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Completed requests per second.
    pub throughput: f64,
    /// Median end-to-end latency (ns).
    pub p50_ns: u64,
    /// Tail end-to-end latency (ns).
    pub p99_ns: u64,
    /// Cache hit rate in [0, 1].
    pub hit_rate: f64,
    /// Compiles the pool performed.
    pub compiles: u64,
}

/// Drives `requests` Zipf-sampled calls through a fresh pool with
/// `clients` closed-loop client threads, checking every reply against
/// ground truth.
pub fn run_load(
    catalog: &Catalog,
    zipf: &Zipf,
    workers: usize,
    cache_on: bool,
    clients: usize,
    requests: u64,
    seed: u64,
) -> LoadReport {
    let pool = ServePool::start(ServeConfig {
        workers,
        cache_cap: if cache_on { 512 } else { 0 },
        ..ServeConfig::default()
    });
    let arg = catalog.arg.to_string();
    let issued = AtomicU64::new(0);
    let divergences = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..clients {
            let pool = &pool;
            let arg = &arg;
            let issued = &issued;
            let divergences = &divergences;
            let rejected = &rejected;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (client as u64).wrapping_mul(0x9E37));
                while issued.fetch_add(1, Ordering::Relaxed) < requests {
                    let rank = zipf.sample(&mut rng);
                    let req = ServeRequest::new(&catalog.sources[rank], [arg.as_str()]);
                    let reply = pool.call(req);
                    match &reply.result {
                        Ok(v) if *v == catalog.expected[rank] => {}
                        Ok(_) => {
                            divergences.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Overloaded) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            divergences.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let wall_secs = start.elapsed().as_secs_f64();
    let m = pool.metrics();
    let report = LoadReport {
        workers,
        cache_on,
        ok: m.ok.load(Ordering::Relaxed),
        rejected: rejected.load(Ordering::Relaxed),
        divergences: divergences.load(Ordering::Relaxed),
        wall_secs,
        throughput: m.ok.load(Ordering::Relaxed) as f64 / wall_secs.max(1e-9),
        p50_ns: m.request_latency.quantile_ns(0.50),
        p99_ns: m.request_latency.quantile_ns(0.99),
        hit_rate: m.hit_rate(),
        compiles: m.compiles.load(Ordering::Relaxed),
    };
    pool.shutdown();
    report
}

/// The deadline sub-experiment: spin requests with short budgets must all
/// come back `Aborted`, the pool must keep serving, and the process-wide
/// memory counters must balance (no leaks on the abort unwind).
#[derive(Debug, Clone)]
pub struct DeadlineReport {
    /// Deadline-bounded spin requests issued.
    pub issued: u64,
    /// How many were answered `Aborted`.
    pub aborted: u64,
    /// Whether a normal request succeeded afterwards.
    pub pool_alive: bool,
    /// Whether acquires == releases after shutdown.
    pub memory_balanced: bool,
}

/// Runs the deadline sub-experiment on a fresh 2-worker pool.
pub fn run_deadline_experiment(rounds: u64) -> DeadlineReport {
    wolfram_runtime::memory::reset_global_stats();
    let pool = ServePool::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let spin = "Function[{Typed[v, \"Tensor\"[\"Integer64\", 1]]}, \
                Module[{i = 0}, While[True, If[i > 3, i = i - 1, i = i + 1]]; v[[1]]]]";
    let mut aborted = 0;
    for _ in 0..rounds {
        let reply = pool
            .call(ServeRequest::new(spin, ["{1, 2, 3}"]).with_deadline(Duration::from_millis(40)));
        if reply.result == Err(ServeError::DeadlineExceeded) {
            aborted += 1;
        }
    }
    let alive = pool
        .call(ServeRequest::new(
            "Function[{Typed[n, \"MachineInteger\"]}, n + 1]",
            ["1"],
        ))
        .result
        .as_deref()
        == Ok("2");
    pool.shutdown();
    DeadlineReport {
        issued: rounds,
        aborted,
        pool_alive: alive,
        memory_balanced: wolfram_runtime::memory::global_stats().balanced(),
    }
}

/// One socket-load run's results: client-observed latencies (queue +
/// compile + execute + wire) plus the server's own `!stats` snapshot.
#[derive(Debug, Clone)]
pub struct NetLoadReport {
    /// Closed-loop client connections driven.
    pub clients: usize,
    /// Requests that completed with a value.
    pub ok: u64,
    /// Replies whose value differed from ground truth.
    pub divergences: u64,
    /// `err` replies (admission rejections and failures).
    pub errors: u64,
    /// Replies served from the in-memory artifact cache.
    pub mem_hits: u64,
    /// Replies served from the disk cache (warm-restart path).
    pub disk_hits: u64,
    /// Replies that compiled on demand.
    pub misses: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Completed requests per second.
    pub throughput: f64,
    /// Client-side p50 latency (ns).
    pub p50_ns: u64,
    /// Client-side p95 latency (ns).
    pub p95_ns: u64,
    /// Client-side p99 latency (ns).
    pub p99_ns: u64,
    /// The server's `!stats` counters after the run.
    pub server_stats: Vec<(String, u64)>,
}

impl NetLoadReport {
    /// Looks up one server counter by name (0 when absent).
    pub fn server_stat(&self, name: &str) -> u64 {
        self.server_stats
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Drives `requests` Zipf-sampled calls against a *remote* serve process
/// at `addr` with `clients` closed-loop socket connections, checking
/// every reply against ground truth and measuring latency client-side.
///
/// # Errors
///
/// Connection or protocol failures (a dead or misbehaving server).
pub fn run_net_load(
    addr: &str,
    catalog: &Catalog,
    zipf: &Zipf,
    clients: usize,
    requests: u64,
    seed: u64,
) -> std::io::Result<NetLoadReport> {
    let arg = catalog.arg().to_string();
    let issued = AtomicU64::new(0);
    let divergences = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    let mem_hits = AtomicU64::new(0);
    let disk_hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let start = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let arg = &arg;
                let issued = &issued;
                let divergences = &divergences;
                let errors = &errors;
                let ok = &ok;
                let mem_hits = &mem_hits;
                let disk_hits = &disk_hits;
                let misses = &misses;
                s.spawn(move || -> std::io::Result<Vec<u64>> {
                    let mut conn = wolfram_serve::NetClient::connect(addr)?;
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ (client as u64).wrapping_mul(0x9E37));
                    let mut lats = Vec::new();
                    while issued.fetch_add(1, Ordering::Relaxed) < requests {
                        let rank = zipf.sample(&mut rng);
                        let line = format!("{{{}, {{{arg}}}}}", catalog.source(rank));
                        let sent = Instant::now();
                        let reply = conn.call(&line)?;
                        lats.push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                        match &reply.result {
                            Ok(v) if v == catalog.expected(rank) => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                match reply.cache.as_str() {
                                    "hit" => mem_hits.fetch_add(1, Ordering::Relaxed),
                                    "disk" => disk_hits.fetch_add(1, Ordering::Relaxed),
                                    _ => misses.fetch_add(1, Ordering::Relaxed),
                                };
                            }
                            Ok(_) => {
                                divergences.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    Ok(lats)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut failure = None;
        for h in handles {
            match h.join().expect("net load client panicked") {
                Ok(lats) => all.extend(lats),
                Err(e) => failure = Some(e),
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(all),
        }
    })?;
    let wall_secs = start.elapsed().as_secs_f64();
    let mut sorted = latencies;
    sorted.sort_unstable();
    let server_stats = wolfram_serve::NetClient::connect(addr)?.stats()?;
    let completed = ok.load(Ordering::Relaxed);
    Ok(NetLoadReport {
        clients,
        ok: completed,
        divergences: divergences.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        mem_hits: mem_hits.load(Ordering::Relaxed),
        disk_hits: disk_hits.load(Ordering::Relaxed),
        misses: misses.load(Ordering::Relaxed),
        wall_secs,
        throughput: completed as f64 / wall_secs.max(1e-9),
        p50_ns: percentile(&sorted, 0.50),
        p95_ns: percentile(&sorted, 0.95),
        p99_ns: percentile(&sorted, 0.99),
        server_stats,
    })
}

/// Renders the socket-load SLO summary.
pub fn render_net_report(r: &NetLoadReport) -> String {
    format!(
        "clients {:>2}  {:>7.1} req/s  p50 {:>9}  p95 {:>9}  p99 {:>9}  \
         mem-hits {:>5}  disk-hits {:>5}  misses {:>5}  divergences {}  errors {}",
        r.clients,
        r.throughput,
        fmt_ns(r.p50_ns),
        fmt_ns(r.p95_ns),
        fmt_ns(r.p99_ns),
        r.mem_hits,
        r.disk_hits,
        r.misses,
        r.divergences,
        r.errors,
    )
}

/// Serializes the socket-load report as the SLO JSON document CI uploads
/// as a workflow artifact.
pub fn net_report_to_json(r: &NetLoadReport, scale: &str) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str(&format!("  \"clients\": {},\n", r.clients));
    out.push_str(&format!("  \"ok\": {},\n", r.ok));
    out.push_str(&format!("  \"divergences\": {},\n", r.divergences));
    out.push_str(&format!("  \"errors\": {},\n", r.errors));
    out.push_str(&format!("  \"mem_hits\": {},\n", r.mem_hits));
    out.push_str(&format!("  \"disk_hits\": {},\n", r.disk_hits));
    out.push_str(&format!("  \"misses\": {},\n", r.misses));
    out.push_str(&format!("  \"wall_secs\": {:.6},\n", r.wall_secs));
    out.push_str(&format!("  \"throughput_rps\": {:.3},\n", r.throughput));
    out.push_str(&format!("  \"latency_p50_ns\": {},\n", r.p50_ns));
    out.push_str(&format!("  \"latency_p95_ns\": {},\n", r.p95_ns));
    out.push_str(&format!("  \"latency_p99_ns\": {},\n", r.p99_ns));
    out.push_str("  \"server_stats\": {\n");
    for (i, (name, value)) in r.server_stats.iter().enumerate() {
        let comma = if i + 1 == r.server_stats.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!("    \"{name}\": {value}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

/// Renders one row of the bench-serve table.
pub fn render_row(r: &LoadReport) -> String {
    format!(
        "workers {:>2}  cache {:<3}  {:>7.1} req/s  p50 {:>9}  p99 {:>9}  hit-rate {:>5.1}%  \
         compiles {:>5}  divergences {}",
        r.workers,
        if r.cache_on { "on" } else { "off" },
        r.throughput,
        fmt_ns(r.p50_ns),
        fmt_ns(r.p99_ns),
        r.hit_rate * 100.0,
        r.compiles,
        r.divergences,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_exhaustive() {
        let z = Zipf::new(8, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 8];
        for _ in 0..4_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[7], "{counts:?}");
        assert!(
            counts[0] as f64 >= 0.25 * 4_000.0,
            "rank 0 should dominate: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "tail must occur: {counts:?}");
    }

    #[test]
    fn catalog_ground_truth_matches_served_results() {
        let _globals = crate::global_stats_lock();
        let catalog = Catalog::new(3, 16);
        let zipf = Zipf::new(catalog.len(), 1.1);
        let report = run_load(&catalog, &zipf, 2, true, 2, 30, 0xBEEF);
        assert_eq!(report.divergences, 0, "{report:?}");
        assert_eq!(report.ok, 30);
        assert!(report.hit_rate > 0.0);
        assert!(report.compiles >= catalog.len() as u64 / 2);
    }

    #[test]
    fn deadline_experiment_reports_clean() {
        let _globals = crate::global_stats_lock();
        let report = run_deadline_experiment(2);
        assert_eq!(report.aborted, report.issued, "{report:?}");
        assert!(report.pool_alive);
        assert!(report.memory_balanced);
    }
}
