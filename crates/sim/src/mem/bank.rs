//! Bank state machines.

use crate::mem::controller::ReqId;
use crate::mem::queues::QueueKind;
use crate::policy::WriteSpeed;
use crate::time::Time;

/// What kind of operation a bank is performing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An array read.
    Read,
    /// An array write at some speed class.
    Write(WriteSpeed),
}

/// An operation occupying a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlightOp {
    /// Request identity.
    pub id: ReqId,
    /// Line being accessed.
    pub line: u64,
    /// Read or write (+ speed class).
    pub kind: OpKind,
    /// When the bank started this op.
    pub start: Time,
    /// When the bank will finish this op.
    pub end: Time,
    /// Whether an incoming read may cancel this op (writes only).
    pub cancellable: bool,
    /// The queue the request came from (writes return there on cancel).
    pub origin: QueueKind,
    /// Maintenance (scrub/refresh) write — excluded from retention re-arm
    /// and from retention write speedup.
    pub maintenance: bool,
}

impl InFlightOp {
    /// Fraction of the operation completed at `now`, clamped to `[0, 1]`.
    #[must_use]
    pub fn completed_fraction(&self, now: Time) -> f64 {
        if now <= self.start {
            return 0.0;
        }
        if now >= self.end {
            return 1.0;
        }
        let done = (now - self.start).0 as f64;
        let span = (self.end - self.start).0 as f64;
        done / span
    }

    /// Fraction of the operation remaining at `now`.
    #[must_use]
    pub fn remaining_fraction(&self, now: Time) -> f64 {
        1.0 - self.completed_fraction(now)
    }

    /// True if this op is a write.
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(self.kind, OpKind::Write(_))
    }
}

/// One NVM bank: either idle or occupied by a single operation.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    current: Option<InFlightOp>,
    /// The currently open row (open-page policy); writes bypass it.
    open_row: Option<u64>,
}

impl Bank {
    /// A fresh idle bank.
    #[must_use]
    pub fn new() -> Bank {
        Bank::default()
    }

    /// Whether the bank is idle at `now` (ops finishing exactly at `now`
    /// count as finished; callers must harvest them first).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// The in-flight op, if any.
    #[must_use]
    pub fn current(&self) -> Option<&InFlightOp> {
        self.current.as_ref()
    }

    /// When the bank next becomes free ([`Time::NEVER`] if idle — idle
    /// banks wake up on arrivals, not timeouts).
    #[must_use]
    pub fn busy_until(&self) -> Time {
        self.current.map_or(Time::NEVER, |op| op.end)
    }

    /// Begin an operation.
    ///
    /// # Panics
    /// Panics if the bank is already occupied (scheduler bug).
    pub fn start(&mut self, op: InFlightOp) {
        assert!(self.current.is_none(), "bank already busy");
        debug_assert!(op.end > op.start);
        self.current = Some(op);
    }

    /// Complete the in-flight op if it finishes at or before `now`.
    pub fn try_complete(&mut self, now: Time) -> Option<InFlightOp> {
        match self.current {
            Some(op) if op.end <= now => {
                self.current = None;
                Some(op)
            }
            _ => None,
        }
    }

    /// Forcibly cancel the in-flight write, freeing the bank.
    ///
    /// Returns the canceled op.
    ///
    /// # Panics
    /// Panics if idle or if the op is not a cancellable write.
    pub fn cancel(&mut self) -> InFlightOp {
        let op = self.current.take().expect("cancel on idle bank"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        assert!(
            op.is_write() && op.cancellable,
            "cancel on non-cancellable op"
        );
        op
    }

    /// The open row, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Record a row activation (reads open rows; writes bypass).
    pub fn open(&mut self, row: u64) {
        self.open_row = Some(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_op(start: u64, end: u64, cancellable: bool) -> InFlightOp {
        InFlightOp {
            id: ReqId(1),
            line: 0,
            kind: OpKind::Write(WriteSpeed::Fast),
            start: Time(start),
            end: Time(end),
            cancellable,
            origin: QueueKind::Write,
            maintenance: false,
        }
    }

    #[test]
    fn lifecycle_start_complete() {
        let mut b = Bank::new();
        assert!(b.is_idle());
        b.start(write_op(100, 200, false));
        assert!(!b.is_idle());
        assert_eq!(b.busy_until(), Time(200));
        assert!(b.try_complete(Time(150)).is_none());
        let done = b.try_complete(Time(200)).unwrap();
        assert_eq!(done.id, ReqId(1));
        assert!(b.is_idle());
    }

    #[test]
    fn completed_fraction_interpolates() {
        let op = write_op(100, 200, true);
        assert_eq!(op.completed_fraction(Time(100)), 0.0);
        assert_eq!(op.completed_fraction(Time(150)), 0.5);
        assert_eq!(op.completed_fraction(Time(250)), 1.0);
        assert_eq!(op.remaining_fraction(Time(150)), 0.5);
    }

    #[test]
    fn cancel_refunds_busy_time() {
        let mut b = Bank::new();
        b.start(write_op(100, 200, true));
        let op = b.cancel();
        assert_eq!(op.id, ReqId(1));
        assert!(b.is_idle());
        assert_eq!(
            b.busy_until(),
            Time::NEVER,
            "the unexecuted tail is given back: the bank is free before 200ps"
        );
    }

    #[test]
    #[should_panic(expected = "bank already busy")]
    fn double_start_panics() {
        let mut b = Bank::new();
        b.start(write_op(0, 10, false));
        b.start(write_op(10, 20, false));
    }

    #[test]
    #[should_panic(expected = "non-cancellable")]
    fn cancel_non_cancellable_panics() {
        let mut b = Bank::new();
        b.start(write_op(0, 10, false));
        let _ = b.cancel();
    }

    #[test]
    fn idle_bank_busy_until_is_never() {
        assert_eq!(Bank::new().busy_until(), Time::NEVER);
    }
}
