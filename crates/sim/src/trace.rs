//! Access traces: the interface between workload generators and the
//! simulated system.
//!
//! A trace is a stream of [`TraceEvent`]s at the *post-L2* (LLC-input)
//! level: each event carries the number of instructions executed since the
//! previous event and a cache-line address. Workload generators in
//! `mct-workloads` implement [`AccessSource`]; the simulator consumes it.
//!
//! Operating at the LLC-input level keeps per-configuration replay cheap
//! (the L1/L2 behaviour of a fixed instruction stream does not depend on
//! the NVM configuration), which is what makes the paper's brute-force
//! "ideal policy" sweeps tractable in this reproduction.

use serde::{Deserialize, Serialize};

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A demand load (LLC lookup; miss becomes a memory read).
    Read,
    /// A store (LLC write-allocate; dirty eviction becomes a memory write).
    Write,
}

impl AccessKind {
    /// True if this is a [`AccessKind::Write`].
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// One access in an LLC-input trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Instructions executed since the previous event (the previous event's
    /// own instruction is included in the previous gap).
    pub gap_insts: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Cache-line address (line index, i.e. byte address / line size).
    pub line: u64,
}

/// A source of LLC-input accesses.
///
/// Implementations must be deterministic for a given construction (seeded),
/// and are expected to be effectively infinite: the simulator pulls as many
/// events as the instruction budget requires.
pub trait AccessSource {
    /// Produce the next access.
    fn next_access(&mut self) -> TraceEvent;

    /// A hint of the average number of instructions per access, used only
    /// for progress heuristics. Defaults to `None` (unknown).
    fn mean_gap_hint(&self) -> Option<f64> {
        None
    }
}

impl<S: AccessSource + ?Sized> AccessSource for &mut S {
    fn next_access(&mut self) -> TraceEvent {
        (**self).next_access()
    }
    fn mean_gap_hint(&self) -> Option<f64> {
        (**self).mean_gap_hint()
    }
}

impl<S: AccessSource + ?Sized> AccessSource for Box<S> {
    fn next_access(&mut self) -> TraceEvent {
        (**self).next_access()
    }
    fn mean_gap_hint(&self) -> Option<f64> {
        (**self).mean_gap_hint()
    }
}

/// A replayable, recorded trace.
///
/// Wraps a vector of events and loops over it forever, which matches the
/// paper's lifetime methodology ("the system will cyclically execute the
/// current workload until the main memory wears out").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordedTrace {
    events: Vec<TraceEvent>,
    cursor: usize,
}

impl RecordedTrace {
    /// Wrap a recorded event list.
    ///
    /// # Panics
    /// Panics if `events` is empty: an empty trace cannot be replayed.
    #[must_use]
    pub fn new(events: Vec<TraceEvent>) -> RecordedTrace {
        assert!(!events.is_empty(), "recorded trace must be non-empty");
        RecordedTrace { events, cursor: 0 }
    }

    /// Record `n` events from another source.
    pub fn record<S: AccessSource>(source: &mut S, n: usize) -> RecordedTrace {
        assert!(n > 0, "must record at least one event");
        RecordedTrace::new((0..n).map(|_| source.next_access()).collect())
    }

    /// The recorded events.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Always false; construction rejects empty traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl AccessSource for RecordedTrace {
    fn next_access(&mut self) -> TraceEvent {
        let ev = self.events[self.cursor];
        self.cursor = (self.cursor + 1) % self.events.len();
        ev
    }

    fn mean_gap_hint(&self) -> Option<f64> {
        let total: u64 = self.events.iter().map(|e| e.gap_insts).sum();
        Some(total as f64 / self.events.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(gap: u64, kind: AccessKind, line: u64) -> TraceEvent {
        TraceEvent {
            gap_insts: gap,
            kind,
            line,
        }
    }

    #[test]
    fn recorded_trace_loops() {
        let mut t = RecordedTrace::new(vec![
            ev(10, AccessKind::Read, 1),
            ev(20, AccessKind::Write, 2),
        ]);
        assert_eq!(t.next_access().line, 1);
        assert_eq!(t.next_access().line, 2);
        assert_eq!(t.next_access().line, 1, "trace should wrap around");
    }

    #[test]
    fn record_from_source() {
        struct Counter(u64);
        impl AccessSource for Counter {
            fn next_access(&mut self) -> TraceEvent {
                self.0 += 1;
                ev(5, AccessKind::Read, self.0)
            }
        }
        let t = RecordedTrace::record(&mut Counter(0), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[2].line, 3);
        assert_eq!(t.mean_gap_hint(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_trace_rejected() {
        let _ = RecordedTrace::new(vec![]);
    }

    #[test]
    fn access_kind_is_write() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }

    #[test]
    fn source_through_reference_and_box() {
        let mut t = RecordedTrace::new(vec![ev(1, AccessKind::Read, 3)]);
        let r: &mut RecordedTrace = &mut t;
        fn pull<S: AccessSource>(mut s: S) -> u64 {
            s.next_access().line
        }
        assert_eq!(pull(r), 3);
        let b: Box<RecordedTrace> = Box::new(t);
        assert_eq!(pull(b), 3);
    }
}
