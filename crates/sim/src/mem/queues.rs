//! Request queues with per-bank occupancy tracking.

use std::collections::VecDeque;

use crate::mem::controller::ReqId;

/// Which controller queue a request lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// Demand read queue (highest priority).
    Read,
    /// Write queue (middle-high priority, drain thresholds).
    Write,
    /// Eager mellow-write queue (lowest priority, slow writes, no drain).
    Eager,
}

/// A pending request in a controller queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pending {
    pub id: ReqId,
    pub line: u64,
    pub bank: usize,
    /// Maintenance (scrub/refresh) write: issued at the slow class, never
    /// re-armed for retention scrubbing. Carried here (and on the in-flight
    /// op) so the hot path needs no id-set lookups.
    pub maintenance: bool,
}

/// A bounded FIFO with O(1) per-bank occupancy counts.
///
/// The scheduler needs "how many queued requests target bank b" both for
/// bank-aware mellow writes (Section 3.1) and for eager-issue idle checks;
/// this structure keeps those counts incrementally.
#[derive(Debug, Clone)]
pub struct BankQueue {
    items: VecDeque<Pending>,
    per_bank: Vec<u32>,
    /// Bit b set = at least one queued request targets bank b. Lets the
    /// scheduler rule out a whole queue with one AND instead of scanning.
    bank_mask: u64,
    cap: usize,
}

impl BankQueue {
    /// Approximate heap footprint, in bytes (snapshot-cost accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<Pending>()
            + self.per_bank.capacity() * std::mem::size_of::<u32>()
    }

    /// An empty queue with capacity `cap` over `banks` banks.
    ///
    /// # Panics
    /// Panics if `cap` or `banks` is zero.
    #[must_use]
    pub fn new(cap: usize, banks: usize) -> BankQueue {
        assert!(cap > 0 && banks > 0);
        BankQueue {
            items: VecDeque::with_capacity(cap),
            per_bank: vec![0; banks],
            bank_mask: 0,
            cap,
        }
    }

    /// Mask of banks with at least one queued request.
    #[must_use]
    pub fn bank_mask(&self) -> u64 {
        self.bank_mask
    }

    fn incr_bank(&mut self, bank: usize) {
        self.per_bank[bank] += 1;
        self.bank_mask |= 1u64 << bank;
    }

    fn decr_bank(&mut self, bank: usize) {
        self.per_bank[bank] -= 1;
        if self.per_bank[bank] == 0 {
            self.bank_mask &= !(1u64 << bank);
        }
    }

    /// Number of queued requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.cap
    }

    /// Capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Requests queued for `bank`.
    #[must_use]
    pub fn count_for_bank(&self, bank: usize) -> u32 {
        self.per_bank[bank]
    }

    /// Append at the back.
    ///
    /// Returns `false` (and does not enqueue) when full.
    pub(crate) fn push_back(&mut self, p: Pending) -> bool {
        if self.is_full() {
            return false;
        }
        self.incr_bank(p.bank);
        self.items.push_back(p);
        true
    }

    /// Re-insert at the front (canceled writes return to the head so they
    /// are retried first).
    ///
    /// Bypasses the capacity check: a canceled write's slot was freed when
    /// it was popped, and re-admission must not fail.
    pub(crate) fn push_front(&mut self, p: Pending) {
        self.incr_bank(p.bank);
        self.items.push_front(p);
    }

    /// Pop the oldest request in the queue (FCFS across banks) whose bank
    /// bit is set in the `free` mask.
    pub(crate) fn pop_oldest_for_free_bank(&mut self, free: u64) -> Option<Pending> {
        self.pop_first_matching(|p| free & (1u64 << p.bank) != 0)
    }

    /// Pop the oldest request satisfying `pred` (FCFS order).
    pub(crate) fn pop_first_matching<F: Fn(&Pending) -> bool>(
        &mut self,
        pred: F,
    ) -> Option<Pending> {
        let idx = self.items.iter().position(pred)?;
        let p = self
            .items
            .remove(idx)
            // mct-tidy: allow(P003) -- idx comes from position() on the same deque
            .expect("index from position is valid");
        self.decr_bank(p.bank);
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(id: u64, bank: usize) -> Pending {
        Pending {
            id: ReqId(id),
            line: bank as u64,
            bank,
            maintenance: false,
        }
    }

    #[test]
    fn fifo_order_per_bank() {
        let mut q = BankQueue::new(8, 4);
        assert!(q.push_back(p(1, 0)));
        assert!(q.push_back(p(2, 1)));
        assert!(q.push_back(p(3, 0)));
        assert_eq!(q.count_for_bank(0), 2);
        let bank0 = 0b01;
        assert_eq!(q.pop_oldest_for_free_bank(bank0).unwrap().id, ReqId(1));
        assert_eq!(q.pop_oldest_for_free_bank(bank0).unwrap().id, ReqId(3));
        assert_eq!(q.count_for_bank(0), 0);
        assert!(q.pop_oldest_for_free_bank(bank0).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut q = BankQueue::new(2, 2);
        assert!(q.push_back(p(1, 0)));
        assert!(q.push_back(p(2, 1)));
        assert!(q.is_full());
        assert!(!q.push_back(p(3, 0)), "push beyond capacity must fail");
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.count_for_bank(0),
            1,
            "rejected push must not corrupt counts"
        );
    }

    #[test]
    fn push_front_reinserts_at_head() {
        let mut q = BankQueue::new(4, 2);
        q.push_back(p(1, 0));
        let popped = q.pop_oldest_for_free_bank(0b01).unwrap();
        q.push_back(p(2, 0));
        q.push_front(popped);
        assert_eq!(q.pop_oldest_for_free_bank(0b01).unwrap().id, ReqId(1));
    }

    #[test]
    fn pop_oldest_for_free_bank_respects_freedom() {
        let mut q = BankQueue::new(4, 2);
        q.push_back(p(1, 0));
        q.push_back(p(2, 1));
        // Bank 0 busy: oldest eligible is id 2 on bank 1.
        let got = q.pop_oldest_for_free_bank(0b10).unwrap();
        assert_eq!(got.id, ReqId(2));
        assert!(q.pop_oldest_for_free_bank(0b00).is_none());
    }

    #[test]
    fn counts_track_across_mixed_ops() {
        let mut q = BankQueue::new(16, 4);
        for i in 0..12 {
            q.push_back(p(i, (i % 4) as usize));
        }
        for bank in 0..4 {
            assert_eq!(q.count_for_bank(bank), 3);
        }
        let _ = q.pop_oldest_for_free_bank(0b1111);
        assert_eq!(q.count_for_bank(0), 2);
        assert_eq!(q.len(), 11);
    }
}
