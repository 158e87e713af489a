//! Order statistics and process probes shared by every workload.

/// 1-based nearest rank of quantile `q` among `n` samples; the epsilon
/// keeps `0.9 * 100` at rank 90 despite rounding.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(q, sorted.len()) - 1]
}

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// Arithmetic mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: f64 = xs.iter().map(|x| x.ln()).sum();
    (logs / xs.len() as f64).exp()
}

/// The highest of p99.9 / p99 / p90 / p50 that leaves at least ten
/// samples beyond it, so a reported tail is never one stray sample.
pub fn tail_quantile(n: usize) -> f64 {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| n >= 10 && n - rank(q, n) >= 10)
        .unwrap_or(0.5)
}

/// A timing distribution as the report prints it: median, the tail
/// chosen by [`tail_quantile`], and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    pub median: f64,
    pub tail_q: f64,
    pub tail: f64,
    pub p99: f64,
    pub n: usize,
}

impl Dist {
    pub fn of(xs: &[f64]) -> Dist {
        let s = sorted(xs);
        let tail_q = tail_quantile(s.len());
        Dist {
            median: quantile(&s, 0.5),
            tail_q,
            tail: quantile(&s, tail_q),
            p99: quantile(&s, 0.99),
            n: s.len(),
        }
    }

    /// One report line: `name  median  p<tail>  n`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        format!(
            "  {name:<28} median {:>12.4} {unit:<3}  p{:<5} {:>12.4} {unit:<3}  n={}",
            self.median,
            self.tail_q * 100.0,
            self.tail,
            self.n
        )
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Nanoseconds since `t`, as f64.
pub fn ns_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// seeded choices, independent of any crate under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(5), 0.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
