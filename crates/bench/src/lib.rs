//! The evaluation harness (§6): regenerates every table and figure of the
//! paper.
//!
//! - [`programs`] — the seven benchmark programs as Wolfram source for the
//!   new compiler, their bytecode-compiler variants (with the paper's
//!   documented workarounds/limitations), and the hand-written native
//!   baselines standing in for the C implementations.
//! - [`workloads`] — seeded input generators for the paper's parameters.
//! - [`harness`] — timing utilities and the Figure 2 runner (normalized to
//!   the native baseline, bytecode slowdown capped at 2.5 for display with
//!   the true value annotated, QSort not representable in bytecode).
//! - [`table1`] — programmatic probes of the feature/objective matrix
//!   F1–F10.
//! - [`intro`] — the §1 in-text numbers: random-walk interpreter vs
//!   bytecode vs FunctionCompile, and `FindRoot` auto-compilation.
//! - [`ablations`] — §6 in-text ablations: abort checking, inlining,
//!   constant-array handling, mutability copies, superinstruction fusion.
//! - [`opstats`] — dynamic op/dyad frequency profiles of the seven
//!   benchmarks (the data superinstruction selection is driven by).
//! - [`serve_load`] — the closed-loop Zipf load generator for the
//!   `wolfram-serve` pool (`reproduce bench-serve`): throughput and tail
//!   latency at 1/4/8 workers with the artifact cache on vs off, plus the
//!   deadline/leak sub-experiment.

pub mod ablations;
pub mod harness;
pub mod intro;
pub mod native;
pub mod opstats;
pub mod parallel;
pub mod programs;
pub mod serve_load;
pub mod stream_bench;
pub mod table1;
pub mod workloads;

pub use harness::{bench_seconds, Figure2Row, Scale};

/// Serializes the tests that reset or judge the process-wide memory
/// counters, which every test in this binary shares.
#[cfg(test)]
pub(crate) fn global_stats_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
