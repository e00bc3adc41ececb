//! The benchmark's own spans: recorded in memory around each call the
//! benchmark makes into a layer's public API, written out at exit. The
//! library is not instrumented; a disabled tracer records nothing.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One timed call: `parent` indexes the enclosing span of the same
/// process, `op` names the benchmark op (root span) it belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Layer call, e.g. `profiler.rank`; root spans are ops.
    pub name: String,
    /// Op id shared by every span of one op.
    pub op: u32,
    /// Index of the enclosing span, `None` for an op's root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to
/// [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder for one thread of calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u32,
}

impl Tracer {
    /// A recorder; with `enabled == false` every call is a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    /// Opens a span nested in the innermost open one; with none open it
    /// is the root of a new op.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op - 1
            }
        };
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: Open) {
        if let Some(ix) = span.0 {
            assert_eq!(self.stack.pop(), Some(ix), "spans close innermost first");
            self.spans[ix].end_ns = self.now_ns();
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Closes every open span now — after a panic unwound through them.
    pub fn close_all(&mut self) {
        let now = self.now_ns();
        for ix in self.stack.drain(..) {
            self.spans[ix].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Every closed span, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one thread never overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration_ns());
        }
    }
    out
}

/// Index of each span's root (an op or the set-up).
pub fn roots(spans: &[Span]) -> Vec<usize> {
    let mut out = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        out.push(s.parent.map_or(i, |p| out[p]));
    }
    out
}

/// The smallest share of an op's wall time that its child spans cover,
/// over every op root named `root` (1.0 when there is none).
pub fn min_coverage(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times_ns(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.parent.is_none() && s.name == root && s.duration_ns() > 0)
        .map(|(s, self_ns)| 1.0 - self_ns as f64 / s.duration_ns() as f64)
        .fold(1.0, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, op: u32, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            op,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] > a [10,60] > b [20,30]; op > c [70,90]
        let spans = vec![
            span("op", 0, None, 0, 100),
            span("a", 0, Some(0), 10, 60),
            span("b", 0, Some(1), 20, 30),
            span("c", 0, Some(0), 70, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        assert_eq!(roots(&spans), vec![0, 0, 0, 0]);
        assert!((min_coverage(&spans, "op") - 0.7).abs() < 1e-12);
        // A second op whose one child covers all of it.
        let mut two = spans.clone();
        two.push(span("op", 1, None, 100, 200));
        two.push(span("a", 1, Some(4), 100, 200));
        assert_eq!(roots(&two)[5], 4);
        assert!((min_coverage(&two, "op") - 0.7).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_numbers_ops() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            let op = t.begin("op");
            let x = t.timed("layer", || 41 + 1);
            assert_eq!(x, 42);
            t.end(op);
        }
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[1].op, spans[3].op), (0, 1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin("op");
        t.timed("layer", || ());
        t.end(op);
        assert!(t.into_spans().is_empty());
    }
}
