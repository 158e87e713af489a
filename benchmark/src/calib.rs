//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by 10-25% from
//! one run to the next (measured on a 2-vCPU container: the same seed
//! and code gave a 0.33-0.47 ms compile median in consecutive runs). To
//! keep end-to-end figures comparable between runs, every workload
//! interleaves a fixed probe — the kernel below, which is the
//! benchmark's own code and calls nothing under test — with its measured
//! work, at points where the workload's own threads are idle. The run's
//! speed factor is the median probe time over [`NOMINAL_NS`]; end-to-end
//! times are divided by it and rates multiplied by it, so they read as
//! "at nominal host speed". The raw figures are printed beside them.

use std::time::Instant;

/// Median probe time on the host the benchmark was defined on
/// (Intel Xeon, 2 vCPUs).
pub const NOMINAL_NS: f64 = 350_000.0;

/// One probe: byte hashing, a sort, a floating-point recurrence and a
/// small B-tree build and search — a mix of the register machine's
/// dispatch, the runtime's kernels and the compiler's allocation-heavy
/// passes.
fn probe(buf: &mut [u64]) -> u64 {
    // FNV-1a over the buffer's bytes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in buf.iter() {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // Sort a scrambled copy of a slice (branchy compares and swaps).
    let mut xs: Vec<u64> = buf[..512]
        .iter()
        .map(|v| v.wrapping_mul(h | 1) >> 40)
        .collect();
    xs.sort_unstable();
    // Mandelbrot escape counts over a few pixels (float recurrence).
    let mut iters = 0u64;
    for k in 0..8 {
        let (cr, ci) = (-0.75 + 0.01 * f64::from(k), 0.1);
        let (mut zr, mut zi) = (0.0f64, 0.0f64);
        while iters % 4096 < 4000 && zr * zr + zi * zi < 4.0 {
            let t = zr * zr - zi * zi + cr;
            zi = 2.0 * zr * zi + ci;
            zr = t;
            iters += 1;
        }
        iters += 96;
    }
    // Allocation and pointer chasing, as in the compiler's passes.
    let mut map = std::collections::BTreeMap::new();
    for (i, v) in buf[..1024].iter().enumerate() {
        map.insert(v.wrapping_mul(h | 1) >> 48, i);
    }
    let found = buf[..1024]
        .iter()
        .filter(|v| map.contains_key(&(v.wrapping_mul(0x9E37) >> 48)))
        .count() as u64;
    h ^ xs[256] ^ iters ^ found ^ map.len() as u64
}

fn time_probes(buf: &mut [u64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(probe(std::hint::black_box(&mut *buf)));
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Collects probe times over a run.
pub struct Calibrator {
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            buf: (0..2_048u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
            samples: Vec::new(),
        }
    }

    /// Times `n` probes.
    pub fn tick(&mut self, n: usize) {
        let times = time_probes(&mut self.buf, n);
        self.samples.extend(times);
    }

    /// Times `n` probes on each of two threads at once and keeps the
    /// slower of each pair: a workload whose threads fill both vCPUs runs
    /// at the pace of the slower one, and one vCPU can be slowed alone.
    pub fn tick_pair(&mut self, n: usize) {
        let mut other = self.buf.clone();
        let (a, b) = std::thread::scope(|s| {
            let helper = s.spawn(|| time_probes(&mut other, n));
            let a = time_probes(&mut self.buf, n);
            (a, helper.join().expect("probe thread panicked"))
        });
        self.samples
            .extend(a.iter().zip(&b).map(|(x, y)| x.max(*y)));
    }

    /// Median probe time over [`NOMINAL_NS`]: above 1 the host ran slow.
    pub fn factor(&self) -> f64 {
        crate::stats::median(&self.samples) / NOMINAL_NS
    }
}
