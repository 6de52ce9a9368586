//! Spans recorded from outside the program: around each call the
//! benchmark makes into a layer's public API. Kept in memory and written
//! out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The workload iteration (or replay pass) the span belongs to.
    pub run: u32,
    /// The crate whose code the span times.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; when disabled every call is a pass-through
/// that takes no clock reading.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: AtomicU64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans recorded from now on with workload-run id `run`.
    pub fn set_run(&self, run: u32) {
        self.run.store(u64::from(run), Ordering::Relaxed);
    }

    /// Run `f` inside a span; `f` receives the span's id (`None` when
    /// tracing is off) to parent nested spans on.
    pub fn span<R>(
        &self,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(id, parent, layer, name, start, Instant::now());
        out
    }

    /// Record an interval measured by the caller; returns its id.
    pub fn record(
        &self,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, layer, name, start, end);
        Some(id)
    }

    fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            run: self.run.load(Ordering::Relaxed) as u32,
            layer,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span log lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }
}

/// Write every span as one tab-separated line.
pub fn write_tsv(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trun\tlayer\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.run, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Nanoseconds of `[start, end)` covered by the union of `children`'s
/// intervals (clipped to the parent's).
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time per span: its duration minus the part of it that its
/// children cover. Overlapping children (concurrent workers) count once.
pub fn self_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let kids = children.get_mut(&s.id).map(|c| c.as_mut_slice());
            let covered = kids.map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, dur.saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_ns(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_default() += own[&s.id] as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            layer,
            name: "t",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) ⊃ a [10,60) ⊃ b [20,30); a's self time excludes b,
        // root's excludes all of a (b is a grandchild, not a child).
        let spans = [
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 60),
            span(3, Some(2), "b", 20, 30),
        ];
        let own = self_ns(&spans);
        assert_eq!((own[&1], own[&2], own[&3]), (50, 40, 10));
        let by_layer = self_seconds_by_layer(&spans);
        assert!((by_layer["root"] * 1e9 - 50.0).abs() < 1e-6);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent children [10,50) and [30,70), plus one that
        // spills past the parent's end [90,130): covered = 60 + 10.
        let spans = [
            span(1, None, "fabric", 0, 100),
            span(2, Some(1), "w", 10, 50),
            span(3, Some(1), "w", 30, 70),
            span(4, Some(1), "w", 90, 130),
        ];
        let own = self_ns(&spans);
        assert_eq!(own[&1], 30);
        // A child identical to its parent leaves no self time.
        let same = [span(1, None, "p", 5, 9), span(2, Some(1), "c", 5, 9)];
        assert_eq!(self_ns(&same)[&1], 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span(None, "x", "y", |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.set_run(3);
        t.span(None, "x", "outer", |id| t.span(id, "y", "inner", |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].parent,
            spans.iter().find(|s| s.name == "outer").map(|s| s.id)
        );
        assert!(spans.iter().all(|s| s.run == 3));
    }
}
