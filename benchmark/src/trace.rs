//! The span recorder of the traced run.
//!
//! A span wraps one call into a public function of a crate under test:
//! name, start, end, the span that caused it (the innermost open span on
//! the same thread) and a request id shared by the spans of one request.
//! Spans are kept in memory and written out once, when the benchmark
//! ends. With tracing off a span is one relaxed atomic load around the
//! call, and nothing is recorded.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Turns recording on or off (the traced run flips it per phase).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name` for request `req`.
pub fn span<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = now_ns();
    let out = f();
    let end = now_ns();
    OPEN.with(|s| s.borrow_mut().pop());
    SPANS.lock().expect("span store poisoned").push(Span {
        id,
        parent,
        req,
        name,
        start,
        end,
    });
    out
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean self time per span, in nanoseconds.
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

/// Totals per span name over everything recorded so far.
pub fn totals() -> BTreeMap<&'static str, LayerTotals> {
    let spans = SPANS.lock().expect("span store poisoned");
    let selfs = self_times(&spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans.iter() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += selfs[&s.id];
    }
    out
}

/// Number of spans recorded so far.
pub fn recorded() -> usize {
    SPANS.lock().expect("span store poisoned").len()
}

/// Writes every span as one tab-separated line
/// (`id parent req name start_ns end_ns self_ns`).
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    let spans = SPANS.lock().expect("span store poisoned");
    let selfs = self_times(&spans);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
    for s in spans.iter() {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start, s.end, selfs[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 30),
            sp(3, 1, 20, 50),  // overlaps span 2: union is [10, 50)
            sp(4, 1, 90, 120), // clipped to the parent's end
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&4], 30);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        set_enabled(true);
        span("outer", 7, || span("inner", 7, || ()));
        set_enabled(false);
        let spans = SPANS.lock().unwrap().clone();
        let inner = spans.iter().rev().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().rev().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.req, 7);
    }
}
