//! Structured spans: nested enter/exit timing for the control loop.
//!
//! A span is one timed region of the runtime — `warmup`, `sampling`,
//! `fit`, a single `health_check` — emitted as a pair of typed
//! [`Event::SpanOpen`](crate::event::Event) / `SpanClose` records
//! through the ordinary [`Recorder`](crate::recorder::Recorder) path,
//! so every sink (JSONL, vec) carries spans for free.
//! Nesting is tracked by the emitting session: each open span records
//! its parent's id, and `mct profile` reassembles the tree post-hoc.
//!
//! The contract is the same zero-cost-when-disabled one the rest of the
//! telemetry layer obeys: with no recorder attached (the default),
//! entering a span is a single branch returning [`SpanId::NONE`] — no
//! allocation, no clock read, no lock.

use serde::{Deserialize, Serialize};

/// Identifier of one span within a recorder session. Ids are assigned
/// sequentially from 1; [`SpanId::NONE`] (0) is the disabled sentinel
/// and also stands for "no parent" on root spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: returned when telemetry is disabled, and the
    /// parent id of root spans.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is a real span (telemetry was enabled at entry).
    #[must_use]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Guard for one entered span, returned by
/// [`Telemetry::span`](crate::Telemetry::span). Close it with
/// [`Telemetry::close_span`](crate::Telemetry::close_span); the
/// `#[must_use]` keeps an entered span from being silently forgotten.
/// (Sessions also self-heal: any span left open when its parent closes
/// is closed implicitly, so a missed close skews one timing instead of
/// corrupting the tree.)
#[derive(Debug)]
#[must_use = "close the span with Telemetry::close_span"]
pub struct SpanGuard {
    pub(crate) id: SpanId,
    pub(crate) name: &'static str,
}

impl SpanGuard {
    /// A guard that does nothing on close (disabled telemetry).
    pub(crate) fn disabled(name: &'static str) -> SpanGuard {
        SpanGuard {
            id: SpanId::NONE,
            name,
        }
    }

    /// The span's id ([`SpanId::NONE`] when telemetry is disabled).
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// The span's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// One open span on the session's stack.
#[derive(Debug, Clone)]
pub(crate) struct OpenSpan {
    pub(crate) id: SpanId,
    pub(crate) name: &'static str,
    /// Wall-clock microseconds (session origin) at entry.
    pub(crate) opened_wall_us: u64,
}

/// The per-session span state: id allocator plus the open-span stack.
#[derive(Debug, Default)]
pub(crate) struct SpanStack {
    next_id: u64,
    stack: Vec<OpenSpan>,
}

impl SpanStack {
    /// Allocate an id and push an open span; returns (id, parent id).
    pub(crate) fn open(&mut self, name: &'static str, wall_us: u64) -> (SpanId, SpanId) {
        self.next_id += 1;
        let id = SpanId(self.next_id);
        let parent = self.stack.last().map_or(SpanId::NONE, |s| s.id);
        self.stack.push(OpenSpan {
            id,
            name,
            opened_wall_us: wall_us,
        });
        (id, parent)
    }

    /// Pop spans up to and including `id`. Returns the closed spans in
    /// close order (innermost first) — more than one when children were
    /// left open, empty when `id` is not on the stack (double close).
    pub(crate) fn close(&mut self, id: SpanId) -> Vec<OpenSpan> {
        let Some(pos) = self.stack.iter().rposition(|s| s.id == id) else {
            return Vec::new();
        };
        let mut closed: Vec<OpenSpan> = self.stack.drain(pos..).collect();
        closed.reverse();
        closed
    }

    /// Open spans remaining (tests and end-of-run diagnostics).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Id of the outermost open span, if any — closing it drains the
    /// whole stack (used to make end-of-run traces well-formed).
    pub(crate) fn root_id(&self) -> Option<SpanId> {
        self.stack.first().map(|s| s.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_and_parented() {
        let mut s = SpanStack::default();
        let (a, pa) = s.open("run", 0);
        let (b, pb) = s.open("warmup", 5);
        assert_eq!(a, SpanId(1));
        assert_eq!(pa, SpanId::NONE);
        assert_eq!(b, SpanId(2));
        assert_eq!(pb, a);
        assert_eq!(s.depth(), 2);
        let closed = s.close(b);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].name, "warmup");
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn closing_a_parent_closes_forgotten_children() {
        let mut s = SpanStack::default();
        let (run, _) = s.open("run", 0);
        let (_seg, _) = s.open("segment", 1);
        let (_fit, _) = s.open("fit", 2);
        let closed = s.close(run);
        let names: Vec<&str> = closed.iter().map(|c| c.name).collect();
        assert_eq!(names, ["fit", "segment", "run"], "innermost first");
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn double_close_is_a_noop() {
        let mut s = SpanStack::default();
        let (a, _) = s.open("x", 0);
        assert_eq!(s.close(a).len(), 1);
        assert!(s.close(a).is_empty());
        assert!(s.close(SpanId(99)).is_empty());
    }
}
