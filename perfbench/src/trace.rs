//! In-memory span recorder and the self-time arithmetic over its spans.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! are kept in memory while the workload runs and written out once at the
//! end. A span's name is `<layer>.<what>`; root spans of one unit of work
//! are named `e2e.<unit>`, and the part of a root not covered by any child
//! is the share the trace leaves unattributed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    pub parent: Option<u64>,
    pub req: Option<u64>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub struct Recorder {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span whose parent is the innermost open span of
    /// this thread.
    pub fn span<R>(&self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> R) -> R {
        let parent = current();
        self.span_under(name, parent, req, f)
    }

    /// Runs `f` inside a span with an explicit parent — for work handed to
    /// another thread (a rank, a queue worker) on behalf of a span there.
    pub fn span_under<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        let start = self.now();
        let out = f();
        let end = self.now();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans.lock().expect("recorder poisoned").push(Span {
            id,
            name,
            start,
            end,
            parent,
            req,
        });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("recorder poisoned").clone()
    }
}

/// The innermost open span of the calling thread.
pub fn current() -> Option<u64> {
    OPEN.with(|o| o.borrow().last().copied())
}

/// Total length of the union of intervals.
fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children that overlap each other, such as
/// parallel ranks, are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            let clipped = (s.start.max(p.start), s.end.min(p.end));
            if clipped.1 > clipped.0 {
                children.entry(p.id).or_default().push(clipped);
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.remove(&s.id).map_or(0.0, union_len);
            (s.id, (s.duration() - covered).max(0.0))
        })
        .collect()
}

/// Where the traced time went.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Self seconds per layer (every non-root span's layer).
    pub layer_self_s: BTreeMap<String, f64>,
    /// Self seconds of the `e2e.*` roots: time inside a unit of work that
    /// no layer span covers.
    pub unattributed_s: f64,
    /// Sum of every span's self time. Equals the summed root durations
    /// when no spans run concurrently; parallel children add their overlap.
    pub span_s: f64,
    /// Summed durations of the `e2e.*` roots (traced wall time).
    pub wall_s: f64,
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Breakdown {
        let selfs = self_times(spans);
        let mut b = Breakdown::default();
        for s in spans {
            let t = selfs[&s.id];
            b.span_s += t;
            if s.layer() == "e2e" {
                b.unattributed_s += t;
                b.wall_s += s.duration();
            } else {
                *b.layer_self_s.entry(s.layer().to_string()).or_default() += t;
            }
        }
        b
    }

    /// Share of the span time no layer accounts for.
    pub fn unattributed_share(&self) -> f64 {
        if self.span_s > 0.0 {
            self.unattributed_s / self.span_s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: f64, end: f64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start,
            end,
            parent,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,10) > a [1,4) > a1 [2,3); root > b [5,9)
        let spans = vec![
            span(1, "e2e.solve", 0.0, 10.0, None),
            span(2, "hybrid.solve", 1.0, 4.0, Some(1)),
            span(3, "nn.infer", 2.0, 3.0, Some(2)),
            span(4, "fem.apply", 5.0, 9.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 3.0);
        assert_eq!(st[&2], 2.0);
        assert_eq!(st[&3], 1.0);
        assert_eq!(st[&4], 4.0);
        let b = Breakdown::of(&spans);
        assert_eq!(b.unattributed_s, 3.0);
        assert_eq!(b.wall_s, 10.0);
        assert_eq!(b.span_s, 10.0);
        assert_eq!(b.layer_self_s["hybrid"], 2.0);
        let layers: f64 = b.layer_self_s.values().sum();
        assert_eq!(layers + b.unattributed_s, b.wall_s);
        assert!((b.unattributed_share() - 0.3).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Two parallel ranks [1,6) and [2,8) under a root [0,10).
        let spans = vec![
            span(1, "e2e.request", 0.0, 10.0, None),
            span(2, "nn.slab", 1.0, 6.0, Some(1)),
            span(3, "nn.slab", 2.0, 8.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 3.0);
        let b = Breakdown::of(&spans);
        // 11 s of rank work inside 7 s of covered wall: the overlap shows
        // as span time beyond the wall.
        assert_eq!(b.layer_self_s["nn"], 11.0);
        assert_eq!(b.span_s - b.wall_s, 4.0);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![
            span(1, "e2e.phase", 0.0, 5.0, None),
            span(2, "nn.infer", 4.0, 7.0, Some(1)),
        ];
        assert_eq!(self_times(&spans)[&1], 4.0);
    }

    #[test]
    fn recorder_links_parents_within_and_across_threads() {
        let rec = Recorder::default();
        let root = rec.span("e2e.unit", Some(9), || {
            let root = current();
            rec.span("nn.forward", Some(9), || {});
            std::thread::scope(|s| {
                s.spawn(|| rec.span_under("dist.rank", root, Some(9), || {}));
            });
            root
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.req == Some(9)));
        let unit = spans.iter().find(|s| s.name == "e2e.unit").unwrap();
        assert_eq!(Some(unit.id), root);
        assert_eq!(unit.parent, None);
        for s in spans.iter().filter(|s| s.name != "e2e.unit") {
            assert_eq!(s.parent, root);
        }
        assert_eq!(current(), None);
    }
}
