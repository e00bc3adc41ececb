//! Hierarchical RAII spans with monotonic wall-clock timing.

use crate::sink;
use crate::{enabled, global, level, ObsLevel};
use serde_json::Value;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Drops any stale thread-local span state (used by [`crate::reset`]).
pub(crate) fn clear_thread_stack() {
    STACK.with(|s| s.borrow_mut().clear());
}

/// Opens a span. The guard records on drop (or explicitly via
/// [`SpanGuard::finish`], which also returns the elapsed seconds so
/// callers can keep feeding legacy report structs from the same
/// measurement). Span names are dotted (`"fuzz.generate"`); nesting
/// *within a thread* is captured as a slash-joined path
/// (`"pipeline.offline/fuzz.run/fuzz.generate"`).
///
/// At [`ObsLevel::Off`] the guard is inert: it still measures (so
/// `finish()` stays meaningful to callers) but records nothing.
pub fn span(name: &'static str) -> SpanGuard {
    let active = enabled();
    let path = if active {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let mut path = String::new();
            for parent in stack.iter() {
                path.push_str(parent);
                path.push('/');
            }
            path.push_str(name);
            stack.push(name);
            path
        })
    } else {
        String::new()
    };
    SpanGuard {
        name,
        path,
        start: Instant::now(),
        sim_ns: None,
        state: if active {
            GuardState::Active
        } else {
            GuardState::Inert
        },
    }
}

#[derive(PartialEq)]
enum GuardState {
    Active,
    Inert,
    Closed,
}

/// An open span; closes on drop.
pub struct SpanGuard {
    name: &'static str,
    path: String,
    start: Instant,
    sim_ns: Option<u64>,
    state: GuardState,
}

impl SpanGuard {
    /// The span's nesting path on its opening thread.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Attributes an amount of *simulated* time to this span (e.g. the
    /// total simulated nanoseconds replayed while collecting a dataset),
    /// reported alongside the wall time.
    pub fn set_sim_ns(&mut self, sim_ns: u64) {
        self.sim_ns = Some(sim_ns);
    }

    /// Closes the span now and returns its wall-clock duration in
    /// seconds (also returned by inert guards, so callers can use one
    /// code path regardless of the observability level).
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let wall = self.start.elapsed();
        let seconds = wall.as_secs_f64();
        if self.state != GuardState::Active {
            self.state = GuardState::Closed;
            return seconds;
        }
        self.state = GuardState::Closed;
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop this span; tolerate out-of-order drops of sibling
            // guards by searching from the top.
            if let Some(pos) = stack.iter().rposition(|n| *n == self.name) {
                stack.remove(pos);
            }
        });
        let registry = global();
        registry.counter_add(&format!("span.{}.calls", self.name), 1.0);
        registry.counter_add(&format!("span.{}.seconds", self.name), seconds);
        registry.histogram_record(&format!("span.{}", self.name), wall.as_nanos() as f64);
        if level() == ObsLevel::Full {
            let mut fields: Vec<(&str, Value)> = vec![
                ("path", Value::from(self.path.as_str())),
                ("wall_ns", Value::from(wall.as_nanos() as u64)),
            ];
            if let Some(sim) = self.sim_ns {
                fields.push(("sim_ns", Value::from(sim)));
            }
            sink::event_with("span", self.name, &fields);
        }
        seconds
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.state != GuardState::Closed {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_level;

    #[test]
    fn nesting_builds_slash_paths_and_records_metrics() {
        let _guard = crate::tests::test_guard();
        set_level(Some(ObsLevel::Summary));
        global().clear();
        let before = global().snapshot();
        {
            let outer = span("test.outer");
            assert_eq!(outer.path(), "test.outer");
            {
                let inner = span("test.inner");
                assert_eq!(inner.path(), "test.outer/test.inner");
                let secs = inner.finish();
                assert!(secs >= 0.0);
            }
            // After the inner span closes, a sibling nests under the
            // outer span only.
            let sibling = span("test.sibling");
            assert_eq!(sibling.path(), "test.outer/test.sibling");
        }
        let delta = global().snapshot().since(&before);
        assert_eq!(delta.span_calls("test.outer"), 1);
        assert_eq!(delta.span_calls("test.inner"), 1);
        assert_eq!(delta.span_calls("test.sibling"), 1);
        assert!(delta.span_seconds("test.inner").unwrap() >= 0.0);
        assert!(delta.histogram("span.test.outer").is_some());
        set_level(None);
    }

    #[test]
    fn off_level_records_nothing_but_still_times() {
        let _guard = crate::tests::test_guard();
        set_level(Some(ObsLevel::Off));
        global().clear();
        let g = span("test.off");
        assert_eq!(g.path(), "");
        let secs = g.finish();
        assert!(secs >= 0.0);
        let snap = global().snapshot();
        assert_eq!(snap.span_calls("test.off"), 0);
        assert!(snap.span_seconds("test.off").is_none());
        set_level(None);
    }

    #[test]
    fn spans_on_different_threads_do_not_nest_into_each_other() {
        let _guard = crate::tests::test_guard();
        set_level(Some(ObsLevel::Summary));
        let _outer = span("test.main_thread");
        let path = std::thread::spawn(|| span("test.worker").path().to_string())
            .join()
            .unwrap();
        assert_eq!(path, "test.worker");
        set_level(None);
    }
}
