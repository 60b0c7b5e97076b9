//! In-memory span recorder for the traced run.
//!
//! Every span has a name, a start, an end and a parent. The benchmark opens
//! spans only around its own calls into a layer's public functions; the span
//! name's prefix up to the first `.` names the layer (`graph`, `partition`,
//! `cluster`, `core`, `delta`) or `bench` for the harness itself. Spans are
//! kept in memory and written out once, when the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval that
//! its children cover. Spans opened on the main thread nest properly, so
//! their self times sum exactly to the root's duration; spans opened on the
//! load-generator threads are marked `side` and reported on their own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of the implicit root every top-level span hangs from.
pub const ROOT: u64 = 0;

/// One finished span, times in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Opened on a load-generator thread, concurrently with the main thread.
    pub side: bool,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    start: Instant,
    side: bool,
}

impl Open {
    /// Id to pass as the parent of nested spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Records spans when enabled; when disabled `begin`/`end` only read the
/// clock, so the untraced run pays nothing beyond the timing it needs anyway.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span on the main thread under `parent`.
    pub fn begin(&self, parent: u64) -> Open {
        self.open(parent, false)
    }

    /// Open a span on a load-generator thread under `parent`.
    pub fn begin_side(&self, parent: u64) -> Open {
        self.open(parent, true)
    }

    fn open(&self, parent: u64, side: bool) -> Open {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        };
        Open {
            id,
            parent,
            start: Instant::now(),
            side,
        }
    }

    /// Close `open` as `name`; returns its duration in seconds.
    pub fn end(&self, open: Open, name: &'static str) -> f64 {
        let end = Instant::now();
        if self.enabled {
            let span = Span {
                id: open.id,
                parent: open.parent,
                name,
                start_ns: self.offset(open.start),
                end_ns: self.offset(end),
                side: open.side,
            };
            self.spans.lock().expect("span list poisoned").push(span);
        }
        (end - open.start).as_secs_f64()
    }

    /// Run `f` inside a main-thread span named `name`; `f` receives the span
    /// id for nesting. Returns `f`'s result and the span's seconds.
    pub fn time<T>(&self, parent: u64, name: &'static str, f: impl FnOnce(u64) -> T) -> (T, f64) {
        let open = self.begin(parent);
        let out = f(open.id());
        (out, self.end(open, name))
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Every span recorded so far, in end order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time of every span in `spans`, indexed like `spans`. Only children
/// opened on the same side (main thread or load generator) count, so main
/// spans keep summing to the root however busy the load generator was.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<(u64, bool), Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        children
            .entry((s.parent, s.side))
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&(s.id, s.side))
                .map_or(0, |kids| covered_nanos(s.start_ns, s.end_ns, kids));
            s.nanos() - covered
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_nanos(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Main-thread self seconds summed per layer, in first-seen order.
pub fn layer_self_seconds(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let selfs = self_nanos(spans);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (span, nanos) in spans.iter().zip(selfs) {
        if span.side {
            continue;
        }
        let secs = nanos as f64 * 1e-9;
        match out.iter_mut().find(|(layer, _)| *layer == span.layer()) {
            Some((_, total)) => *total += secs,
            None => out.push((span.layer(), secs)),
        }
    }
    out
}

/// Spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"side\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.side
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            side: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, ROOT, "bench.run", 0, 100),
            span(2, 1, "core.run", 10, 40),
            span(3, 1, "graph.build", 50, 70),
            span(4, 2, "cluster.layout", 15, 25),
        ];
        assert_eq!(self_nanos(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span(1, ROOT, "bench.run", 0, 100),
            span(2, 1, "core.a", 10, 40),
            span(3, 1, "core.b", 30, 60),
            span(4, 1, "core.c", 90, 130),
        ];
        // Union inside [0, 100): [10, 60) + [90, 100) = 60.
        assert_eq!(self_nanos(&spans)[0], 40);
    }

    #[test]
    fn side_children_do_not_reduce_main_self_time() {
        let mut submit = span(2, 1, "delta.submit", 10, 40);
        submit.side = true;
        let spans = vec![span(1, ROOT, "bench.window", 0, 100), submit];
        assert_eq!(self_nanos(&spans), vec![100, 30]);
    }

    #[test]
    fn main_thread_layers_sum_to_the_root() {
        let mut spans = vec![
            span(1, ROOT, "bench.run", 0, 1000),
            span(2, 1, "partition.build", 0, 100),
            span(3, 1, "core.sssp", 100, 700),
            span(4, 3, "graph.storage", 200, 300),
        ];
        let mut side = span(5, 1, "delta.submit", 0, 900);
        side.side = true;
        spans.push(side);
        let layers = layer_self_seconds(&spans);
        let total: f64 = layers.iter().map(|(_, s)| s).sum();
        assert!((total - 1e-6).abs() < 1e-15, "{layers:?}");
        assert!(layers.iter().all(|(layer, _)| *layer != "delta"));
    }

    #[test]
    fn tracer_records_nesting_and_disabled_records_nothing() {
        let tracer = Tracer::new(true);
        let ((), _) = tracer.time(ROOT, "bench.outer", |outer| {
            let ((), _) = tracer.time(outer, "core.inner", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "core.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "bench.outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let off = Tracer::new(false);
        let (_, secs) = off.time(ROOT, "bench.outer", |_| ());
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
