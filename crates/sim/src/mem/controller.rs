//! The NVM memory controller: prioritized scheduling, write drain, write
//! cancellation, bank-aware mellow writes, eager mellow writes and wear
//! quota — the machinery of the paper's Section 3.1 techniques.
//!
//! # Hot-path design
//!
//! The controller sits on the per-access critical path of every sweep, so
//! its steady state is allocation-free and hash-free:
//!
//! - Outstanding reads live in a dense open-addressed [`ReadTable`]
//!   indexed by `id & mask` (read ids are dense and monotonic), replacing
//!   two SipHash maps consulted several times per access.
//! - Bank idleness is a `u64` bitmask; the earliest in-flight completion
//!   is cached so [`Self::next_event`] and the completion harvest are O(1)
//!   when nothing is due, instead of rescanning every bank.
//! - A `settled` flag records that harvest + schedule have reached a
//!   fixpoint at the current instant, so same-time re-entry (the CPU model
//!   polls completions once per outstanding read per event) returns
//!   immediately.
//! - Maintenance status rides on the request itself ([`Pending`] /
//!   [`InFlightOp`]) instead of an id set, and scheduling eligibility is
//!   tested with bitmask closures instead of per-call `Vec<bool>` maps.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::energy::{EnergyMeter, EnergyModel};
use crate::fault::{FaultPlan, FaultRuntime};
use crate::mem::bank::{Bank, InFlightOp, OpKind};
use crate::mem::config::MemConfig;
use crate::mem::fasthash::FxHashMap;
use crate::mem::queues::{BankQueue, Pending, QueueKind};
use crate::mem::read_table::ReadTable;
use crate::policy::{MellowPolicy, WriteSpeed};
use crate::time::Time;
use crate::wear::{WearMeter, WearModel, WearQuota};

/// Identity of an outstanding memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// Write/maintenance ids live in a disjoint range from read ids so the
/// read table can stay dense (read ids are 1, 2, 3, ...).
const WRITE_ID_BASE: u64 = 1 << 63;

/// Initial read-table capacity (grows if a caller never reaps).
const READ_TABLE_CAP: usize = 512;

/// Raw event counters maintained by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemCounters {
    /// Demand reads accepted.
    pub reads_issued: u64,
    /// Demand reads completed.
    pub reads_completed: u64,
    /// Completed fast writes (demand path).
    pub writes_fast: u64,
    /// Completed slow (mellow) writes, demand + eager.
    pub writes_slow: u64,
    /// Completed quota-enforced (4.0x) writes.
    pub writes_quota: u64,
    /// Completed writes that came from the eager queue.
    pub eager_writes: u64,
    /// Write cancellations performed.
    pub cancellations: u64,
    /// Times drain mode was entered.
    pub drain_entries: u64,
    /// Sum of read queuing+service latency in picoseconds.
    pub read_latency_ps: u64,
    /// Eager offers rejected (queue full or bank busy).
    pub eager_rejected: u64,
    /// Eager offers accepted.
    pub eager_accepted: u64,
    /// Retention scrub writes enqueued (write-latency-vs-retention).
    pub scrub_writes: u64,
    /// Disturb-refresh writes enqueued (read-latency-vs-disturbance).
    pub disturb_refreshes: u64,
    /// Reads served from an open row (tCAS-only, open-page policy).
    pub row_hits: u64,
    /// Row activations performed (tFAW-limited).
    pub activations: u64,
    /// Writes that completed their pulse but failed verification under an
    /// armed fault plan (stuck-at line) and were retried in place.
    #[serde(default)]
    pub fault_retries: u64,
}

impl MemCounters {
    /// Total completed writes of any speed.
    #[must_use]
    pub fn writes_completed(&self) -> u64 {
        self.writes_fast + self.writes_slow + self.writes_quota
    }

    /// Named counter values, in declaration order (telemetry snapshots).
    #[must_use]
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("reads_issued", self.reads_issued),
            ("reads_completed", self.reads_completed),
            ("writes_fast", self.writes_fast),
            ("writes_slow", self.writes_slow),
            ("writes_quota", self.writes_quota),
            ("eager_writes", self.eager_writes),
            ("cancellations", self.cancellations),
            ("drain_entries", self.drain_entries),
            ("eager_rejected", self.eager_rejected),
            ("eager_accepted", self.eager_accepted),
            ("scrub_writes", self.scrub_writes),
            ("disturb_refreshes", self.disturb_refreshes),
            ("row_hits", self.row_hits),
            ("activations", self.activations),
            ("fault_retries", self.fault_retries),
        ]
    }
}

/// The event-driven NVM memory controller.
///
/// See the [module docs](crate::mem) for the lazy-advance contract:
/// requests must arrive in non-decreasing time order.
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: MemConfig,
    policy: MellowPolicy,
    now: Time,
    banks: Vec<Bank>,
    /// Earliest instant each bank may start a new op (cancellation
    /// recovery overhead).
    bank_ready: Vec<Time>,
    read_q: BankQueue,
    write_q: BankQueue,
    eager_q: BankQueue,
    drain: bool,
    /// Read ids are dense (1, 2, 3, ...) so the read table slots them
    /// without hashing.
    next_read_id: u64,
    /// Write/maintenance ids count separately, offset by [`WRITE_ID_BASE`]
    /// (they are never looked up, only carried).
    next_write_id: u64,
    /// In-flight and completed-but-unreaped reads (arrival + done times).
    reads: ReadTable,
    wear: WearMeter,
    quota: Option<WearQuota>,
    energy: EnergyMeter,
    counters: MemCounters,
    /// Pending retention scrubs: min-heap of (due instant, line). Entries
    /// are lazily invalidated through `scrub_due` when a line is
    /// rewritten before its deadline (the new write re-arms retention).
    scrubs: BinaryHeap<Reverse<(Time, u64)>>,
    /// Authoritative scrub deadline per line (heap entries not matching
    /// this map are stale). Line keys are sparse, so this stays a hash
    /// map — but with a non-keyed multiply-rotate hash.
    scrub_due: FxHashMap<u64, Time>,
    /// Scrub/refresh lines awaiting write-queue space.
    deferred_maintenance: VecDeque<u64>,
    /// Per-bank turbo-read counters toward the disturb threshold.
    turbo_counts: Vec<u32>,
    /// Start times of the most recent row activations (tFAW tracking).
    activations: VecDeque<Time>,
    /// Harvest + schedule have reached a fixpoint at `now`: re-entry at
    /// the same instant is a no-op.
    settled: bool,
    /// Bit i set = bank i idle.
    idle_mask: u64,
    /// Mask with one bit per configured bank.
    full_mask: u64,
    /// Minimum `busy_until` over busy banks ([`Time::NEVER`] if all idle).
    earliest_end: Time,
    /// Banks whose `bank_ready` may still be in the future (set on
    /// cancellation, cleared lazily once the recovery window passes).
    ready_waiters: u64,
    /// Reusable buffer for flushing the scrub heap in [`Self::drain_all`].
    scrub_scratch: Vec<(Time, u64)>,
    /// Armed fault-injection runtime, `None` in the common case. Boxed so
    /// the unfaulted controller pays one cold pointer, and every fault
    /// hook is a single branch on the `Option`.
    faults: Option<Box<FaultRuntime>>,
}

impl MemoryController {
    /// Approximate heap footprint of the controller state, in bytes —
    /// what a warm-snapshot clone must copy (sweep-rig cost accounting).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.banks.capacity() * std::mem::size_of::<Bank>()
            + self.bank_ready.capacity() * std::mem::size_of::<Time>()
            + self.read_q.heap_bytes()
            + self.write_q.heap_bytes()
            + self.eager_q.heap_bytes()
            + self.reads.heap_bytes()
            + self.scrubs.capacity() * std::mem::size_of::<Reverse<(Time, u64)>>()
            + self.scrub_due.capacity() * (std::mem::size_of::<u64>() + std::mem::size_of::<Time>())
    }

    /// Build a controller.
    ///
    /// # Panics
    /// Panics if `cfg` or `policy` fail validation; construct-time
    /// validation keeps the hot path assertion-free.
    #[must_use]
    pub fn new(
        cfg: MemConfig,
        policy: MellowPolicy,
        wear_model: WearModel,
        energy_model: EnergyModel,
    ) -> MemoryController {
        cfg.validate().expect("invalid memory config"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        policy.validate().expect("invalid mellow policy"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        let quota = policy
            .wear_quota_target_years
            .map(|yrs| WearQuota::new(&wear_model, yrs, WearQuota::DEFAULT_SLICE));
        let full_mask = u64::MAX >> (64 - cfg.banks);
        MemoryController {
            banks: (0..cfg.banks).map(|_| Bank::new()).collect(),
            bank_ready: vec![Time::ZERO; cfg.banks],
            read_q: BankQueue::new(cfg.read_queue_cap, cfg.banks),
            write_q: BankQueue::new(cfg.write_queue_cap, cfg.banks),
            eager_q: BankQueue::new(cfg.eager_queue_cap, cfg.banks),
            drain: false,
            next_read_id: 0,
            next_write_id: 0,
            reads: ReadTable::new(READ_TABLE_CAP),
            wear: WearMeter::new(wear_model),
            quota,
            energy: EnergyMeter::new(energy_model),
            counters: MemCounters::default(),
            scrubs: BinaryHeap::new(),
            scrub_due: FxHashMap::default(),
            deferred_maintenance: VecDeque::new(),
            turbo_counts: vec![0; cfg.banks],
            activations: VecDeque::new(),
            now: Time::ZERO,
            settled: false,
            idle_mask: full_mask,
            full_mask,
            earliest_end: Time::NEVER,
            ready_waiters: 0,
            scrub_scratch: Vec::new(),
            faults: None,
            cfg,
            policy,
        }
    }

    /// Arm a deterministic fault plan: event times are interpreted
    /// relative to the current instant. Re-arming replaces any active
    /// plan; an empty plan arms to a strict no-op runtime.
    ///
    /// # Panics
    /// Panics if `plan` fails validation; arm-time validation keeps the
    /// fault hooks assertion-free.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        plan.validate().expect("invalid fault plan"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        self.faults = Some(Box::new(FaultRuntime::new(plan, self.now)));
        self.settled = false;
    }

    /// Disarm any active fault plan.
    pub fn disarm_faults(&mut self) {
        self.faults = None;
    }

    /// Whether a fault plan is currently armed.
    #[must_use]
    pub fn faults_armed(&self) -> bool {
        self.faults.is_some()
    }

    /// Draw the measurement-noise factors `(cycles, wear)` for one
    /// finalized reading, if an armed plan carries measurement noise.
    /// Consumes two deterministic draws per `Some`; `None` otherwise.
    pub fn draw_noise_factors(&mut self) -> Option<(f64, f64)> {
        self.faults
            .as_deref_mut()
            .and_then(FaultRuntime::draw_noise_factors)
    }

    // ------------------------------------------------------------------
    // Public request interface (CPU-facing)
    // ------------------------------------------------------------------

    /// Enqueue a demand read for `line` at `now`.
    ///
    /// Triggers write cancellation on the target bank when the policy
    /// allows it. Returns `None` when the read queue is full; the caller
    /// should [`Self::wait_read_space`] and retry.
    pub fn issue_read(&mut self, line: u64, now: Time) -> Option<ReqId> {
        self.advance_to(now);
        if self.read_q.is_full() {
            return None;
        }
        let bank = self.cfg.bank_of(line);
        self.maybe_cancel_write(bank);
        let id = self.fresh_read_id();
        let ok = self.read_q.push_back(Pending {
            id,
            line,
            bank,
            maintenance: false,
        });
        debug_assert!(ok);
        self.counters.reads_issued += 1;
        self.reads.insert(id, now);
        self.schedule();
        Some(id)
    }

    /// Enqueue a demand write (LLC dirty eviction) for `line` at `now`.
    ///
    /// Returns `false` when the write queue is full; the caller should
    /// [`Self::wait_write_space`] and retry (this is the write-queue
    /// backpressure that makes slow writes cost performance).
    pub fn issue_write(&mut self, line: u64, now: Time) -> bool {
        self.advance_to(now);
        if self.write_q.is_full() {
            return false;
        }
        let bank = self.cfg.bank_of(line);
        let id = self.fresh_write_id();
        let ok = self.write_q.push_back(Pending {
            id,
            line,
            bank,
            maintenance: false,
        });
        debug_assert!(ok);
        self.update_drain();
        self.schedule();
        true
    }

    /// Offer an eager mellow writeback for `line` at `now`.
    ///
    /// Accepted only when the eager queue has space and the target bank is
    /// quiescent (idle with no queued demand work) — eager writes must use
    /// only idle memory intervals (Section 3.1). Returns acceptance.
    pub fn offer_eager(&mut self, line: u64, now: Time) -> bool {
        self.advance_to(now);
        let bank = self.cfg.bank_of(line);
        let quiescent = self.banks[bank].is_idle()
            && !self.drain
            && self.read_q.count_for_bank(bank) == 0
            && self.write_q.count_for_bank(bank) == 0;
        if self.eager_q.is_full() || !quiescent {
            self.counters.eager_rejected += 1;
            return false;
        }
        let id = self.fresh_write_id();
        let ok = self.eager_q.push_back(Pending {
            id,
            line,
            bank,
            maintenance: false,
        });
        debug_assert!(ok);
        self.counters.eager_accepted += 1;
        self.schedule();
        true
    }

    /// Take the completion time of read `id` if it has completed by `now`.
    pub fn take_completed_read(&mut self, id: ReqId, now: Time) -> Option<Time> {
        self.advance_to(now);
        self.reads.take_done(id)
    }

    /// Whether any read has completed but not yet been taken, as of the
    /// last [`Self::advance_to`]. Lets callers tracking many outstanding
    /// reads skip their reap scan when nothing can have finished.
    #[must_use]
    pub fn has_completed_reads(&self) -> bool {
        self.reads.done_count() > 0
    }

    /// Block (advance simulated time with no new arrivals) until read `id`
    /// completes; returns its completion time.
    ///
    /// # Panics
    /// Panics if `id` is not an outstanding read (controller deadlock —
    /// a scheduler bug).
    pub fn wait_read(&mut self, id: ReqId) -> Time {
        loop {
            if let Some(t) = self.reads.take_done(id) {
                return t;
            }
            self.step_or_panic("waiting for read completion");
        }
    }

    /// Advance until the read queue has space; returns the new `now`.
    pub fn wait_read_space(&mut self) -> Time {
        while self.read_q.is_full() {
            self.step_or_panic("waiting for read queue space");
        }
        self.now
    }

    /// Advance until the write queue has space; returns the new `now`.
    pub fn wait_write_space(&mut self) -> Time {
        while self.write_q.is_full() {
            self.step_or_panic("waiting for write queue space");
        }
        self.now
    }

    /// Finish all outstanding work; returns the instant the memory went
    /// fully idle.
    ///
    /// Pending retention scrubs are flushed immediately (charged as
    /// maintenance writes now) rather than simulated out to their natural
    /// deadlines, so end-of-run accounting stays bounded.
    pub fn drain_all(&mut self) -> Time {
        loop {
            // Completing writes can arm new scrubs; flush each round. The
            // scratch buffer is controller-owned so repeated drains do not
            // allocate.
            let mut pending = std::mem::take(&mut self.scrub_scratch);
            pending.clear();
            pending.extend(self.scrubs.drain().map(|Reverse(e)| e));
            for &(due, line) in &pending {
                if self.scrub_due.get(&line) != Some(&due) {
                    continue; // stale (superseded) entry
                }
                self.scrub_due.remove(&line);
                self.counters.scrub_writes += 1;
                self.enqueue_maintenance(line);
            }
            pending.clear();
            self.scrub_scratch = pending;
            let idle = self.idle_mask == self.full_mask
                && self.read_q.is_empty()
                && self.write_q.is_empty()
                && self.eager_q.is_empty()
                && self.deferred_maintenance.is_empty()
                && self.scrubs.is_empty();
            if idle {
                return self.now;
            }
            self.step_or_panic("draining at end of run");
        }
    }

    /// Reset all statistics meters (counters, wear, energy, quota
    /// accounting) at a quiescent point — the end-of-warmup boundary.
    ///
    /// Outstanding work is drained first so no in-flight op straddles the
    /// measurement epoch.
    pub fn reset_meters(&mut self) {
        self.drain_all();
        self.counters = MemCounters::default();
        self.wear.reset();
        self.energy.reset();
        let now = self.now;
        if let Some(q) = self.quota.as_mut() {
            q.rebase(now);
        }
    }

    /// Swap the active mellow-writes policy at a quiescent point.
    ///
    /// Drains all outstanding work, then replaces the policy. Accumulated
    /// wear, energy and counters are preserved; wear-quota enforcement is
    /// rebuilt against the new target (its budget accounting remains
    /// global — wear accrued before the switch still counts, since
    /// lifetime is a whole-run property).
    ///
    /// # Panics
    /// Panics if `policy` fails validation.
    pub fn set_policy_quiesced(&mut self, policy: MellowPolicy) {
        policy.validate().expect("invalid mellow policy"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        self.drain_all();
        self.quota = policy
            .wear_quota_target_years
            .map(|yrs| WearQuota::new(self.wear.model(), yrs, WearQuota::DEFAULT_SLICE));
        if let Some(q) = self.quota.as_mut() {
            q.advance(self.now, self.wear.wear_units());
        }
        self.policy = policy;
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The controller's internal clock.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Wear accounting.
    #[must_use]
    pub fn wear(&self) -> &WearMeter {
        &self.wear
    }

    /// Per-event memory energy accounting (static terms are added by the
    /// system at end of run).
    #[must_use]
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// Raw event counters.
    #[must_use]
    pub fn counters(&self) -> &MemCounters {
        &self.counters
    }

    /// The active mellow-writes policy.
    #[must_use]
    pub fn policy(&self) -> &MellowPolicy {
        &self.policy
    }

    /// The memory configuration.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Fraction of quota slices that were restricted (0 when quota off).
    #[must_use]
    pub fn quota_restricted_fraction(&self) -> f64 {
        self.quota
            .as_ref()
            .map_or(0.0, WearQuota::restricted_fraction)
    }

    // ------------------------------------------------------------------
    // Internal machinery
    // ------------------------------------------------------------------

    fn fresh_read_id(&mut self) -> ReqId {
        self.next_read_id += 1;
        ReqId(self.next_read_id)
    }

    fn fresh_write_id(&mut self) -> ReqId {
        self.next_write_id += 1;
        ReqId(WRITE_ID_BASE + self.next_write_id)
    }

    /// Catch the internal clock up to `t`, processing completions and
    /// issuing queued work along the way.
    ///
    /// Arrivals with `t` earlier than the internal clock (possible when
    /// several cores interleave and one was stalled past another's issue
    /// time) are treated as arriving "now". Once the controller is settled
    /// at an instant, same-time re-entry returns immediately: every public
    /// mutator restores the fixpoint itself, and new ops always complete
    /// strictly in the future.
    pub fn advance_to(&mut self, t: Time) {
        if t <= self.now && self.settled {
            return;
        }
        // At a settled instant harvest + schedule are no-ops, so the loop
        // can start straight at the next-event computation.
        if !self.settled {
            self.harvest();
            self.schedule();
        }
        loop {
            let next = self.next_event();
            if next > t {
                break;
            }
            self.now = next;
            self.harvest();
            self.schedule();
        }
        // The loop broke with next_event() > t, and next_event covers every
        // wake source (completions, recovery waiters, scrubs, tFAW release,
        // outage ends) — so nothing matures in (now, t] and a trailing
        // harvest + schedule at t would be a no-op. Just move the clock.
        self.now = self.now.max(t);
        self.settled = true;
    }

    /// One internal event step with no new arrivals.
    ///
    /// # Panics
    /// Panics when no event can ever fire (deadlock), reporting `ctx`.
    fn step_or_panic(&mut self, ctx: &str) {
        // The leading harvest + schedule only matter when some mutation
        // broke the fixpoint since the last settle (see `advance_to`).
        if !self.settled {
            self.harvest();
            self.schedule();
        }
        let next = self.next_event();
        assert!(
            next != Time::NEVER,
            "memory controller deadlock while {ctx}"
        );
        self.now = next;
        self.harvest();
        self.schedule();
        self.settled = true;
    }

    /// Earliest future instant at which controller state can change.
    ///
    /// O(1) except for post-cancellation recovery windows: the earliest
    /// bank completion is cached, and only banks flagged in
    /// `ready_waiters` are checked for wake-ups.
    fn next_event(&self) -> Time {
        let mut next = self.earliest_end;
        // An idle bank under cancellation-recovery with pending work wakes
        // up at bank_ready.
        let mut waiters = self.ready_waiters & self.idle_mask;
        while waiters != 0 {
            let i = waiters.trailing_zeros() as usize;
            waiters &= waiters - 1;
            if self.bank_ready[i] > self.now && self.has_work_for(i) {
                next = next.min(self.bank_ready[i]);
            }
        }
        // Retention scrubs wake the controller even when banks are idle.
        if let Some(&Reverse((due, _))) = self.scrubs.peek() {
            next = next.min(due.max(self.now));
        }
        // tFAW-gated reads wake up when the activation window frees.
        if !self.read_q.is_empty() {
            if let Some(release) = self.faw_gate() {
                next = next.min(release);
            }
        }
        // A bank under fault outage with queued work wakes up when the
        // outage window closes (otherwise blocked work would deadlock).
        if let Some(f) = self.faults.as_deref() {
            for w in f.outages() {
                if w.start <= self.now && self.now < w.end && self.has_work_for(w.bank) {
                    next = next.min(w.end);
                }
            }
        }
        next
    }

    fn has_work_for(&self, bank: usize) -> bool {
        self.read_q.count_for_bank(bank) > 0
            || self.write_q.count_for_bank(bank) > 0
            || self.eager_q.count_for_bank(bank) > 0
    }

    /// Mark bank `bank` busy with `op`, maintaining the idle mask and the
    /// cached earliest completion.
    fn start_op(&mut self, bank: usize, op: InFlightOp) {
        self.earliest_end = self.earliest_end.min(op.end);
        self.idle_mask &= !(1u64 << bank);
        self.banks[bank].start(op);
    }

    /// Recompute the cached earliest completion from the busy set.
    fn recompute_earliest_end(&mut self) {
        let mut earliest = Time::NEVER;
        let mut busy = !self.idle_mask & self.full_mask;
        while busy != 0 {
            let i = busy.trailing_zeros() as usize;
            busy &= busy - 1;
            earliest = earliest.min(self.banks[i].busy_until());
        }
        self.earliest_end = earliest;
    }

    /// Banks currently blocked by cancellation recovery, pruning waiters
    /// whose window has passed.
    fn blocked_ready_mask(&mut self) -> u64 {
        let now = self.now;
        let mut blocked = 0u64;
        let mut waiters = self.ready_waiters;
        while waiters != 0 {
            let i = waiters.trailing_zeros() as usize;
            waiters &= waiters - 1;
            if self.bank_ready[i] > now {
                blocked |= 1u64 << i;
            } else {
                self.ready_waiters &= !(1u64 << i);
            }
        }
        blocked
    }

    /// Complete every in-flight op that finishes at or before `now`, then
    /// release due retention scrubs and retry deferred maintenance.
    fn harvest(&mut self) {
        let now = self.now;
        // The bank scan only runs when the cached earliest completion is
        // actually due; otherwise no op can complete yet.
        if now >= self.earliest_end {
            let mut busy = !self.idle_mask & self.full_mask;
            while busy != 0 {
                let i = busy.trailing_zeros() as usize;
                busy &= busy - 1;
                if let Some(op) = self.banks[i].try_complete(now) {
                    if let OpKind::Write(speed) = op.kind {
                        let retry = self
                            .faults
                            .as_deref_mut()
                            .is_some_and(|f| f.take_retry(op.line, now));
                        if retry {
                            // Stuck-at line: the pulse completed but failed
                            // verification. Charge the wasted pulse as a
                            // full-fraction cancellation and rerun the op in
                            // place; the bank stays busy.
                            let ratio = self.effective_write_ratio(speed, op.maintenance);
                            self.wear.record_cancellation(ratio, 1.0);
                            self.energy.record_cancellation(ratio, 1.0);
                            self.counters.fault_retries += 1;
                            let dur = op.end - op.start;
                            self.banks[i].start(InFlightOp {
                                start: now,
                                end: now + dur,
                                ..op
                            });
                            continue;
                        }
                    }
                    self.idle_mask |= 1u64 << i;
                    self.finish_op(op);
                }
            }
            self.recompute_earliest_end();
        }
        while let Some(&Reverse((due, line))) = self.scrubs.peek() {
            if due > now {
                break;
            }
            self.scrubs.pop();
            // Stale entry: the line was rewritten and re-armed since.
            if self.scrub_due.get(&line) != Some(&due) {
                continue;
            }
            self.scrub_due.remove(&line);
            self.counters.scrub_writes += 1;
            self.enqueue_maintenance(line);
        }
        while let Some(&line) = self.deferred_maintenance.front() {
            if !self.try_enqueue_maintenance_write(line) {
                break;
            }
            self.deferred_maintenance.pop_front();
        }
        if let Some(q) = self.quota.as_mut() {
            q.advance(now, self.wear.wear_units());
        }
    }

    /// Queue a maintenance (scrub/refresh) write, deferring when the
    /// write queue is full.
    ///
    /// Breaks the settled fixpoint: the new queue entry needs a schedule
    /// pass that some callers (e.g. [`Self::drain_all`]'s scrub flush)
    /// don't run themselves.
    fn enqueue_maintenance(&mut self, line: u64) {
        self.settled = false;
        if !self.try_enqueue_maintenance_write(line) {
            self.deferred_maintenance.push_back(line);
        }
    }

    /// Maintenance (scrub/refresh) writes are background work: they go to
    /// the lowest-priority eager queue so they use idle memory intervals
    /// instead of contending with demand traffic. A deep backlog spills
    /// into the demand write queue (a deadline must eventually be met).
    fn try_enqueue_maintenance_write(&mut self, line: u64) -> bool {
        let bank = self.cfg.bank_of(line);
        if !self.eager_q.is_full() {
            let id = self.fresh_write_id();
            let ok = self.eager_q.push_back(Pending {
                id,
                line,
                bank,
                maintenance: true,
            });
            debug_assert!(ok);
            return true;
        }
        if self.deferred_maintenance.len() >= 1024 && !self.write_q.is_full() {
            let id = self.fresh_write_id();
            let ok = self.write_q.push_back(Pending {
                id,
                line,
                bank,
                maintenance: true,
            });
            debug_assert!(ok);
            self.update_drain();
            return true;
        }
        false
    }

    fn finish_op(&mut self, op: InFlightOp) {
        match op.kind {
            OpKind::Read => {
                self.counters.reads_completed += 1;
                self.energy.record_read();
                if let Some(arrived) = self.reads.mark_done(op.id, op.end) {
                    self.counters.read_latency_ps += (op.end - arrived).0;
                }
            }
            OpKind::Write(speed) => {
                let ratio = self.effective_write_ratio(speed, op.maintenance);
                self.wear.record_write(ratio);
                self.energy.record_write(ratio);
                match speed {
                    WriteSpeed::Fast => self.counters.writes_fast += 1,
                    WriteSpeed::Slow => self.counters.writes_slow += 1,
                    WriteSpeed::Quota => self.counters.writes_quota += 1,
                }
                if op.origin == QueueKind::Eager {
                    self.counters.eager_writes += 1;
                }
                // Retention-relaxed fast writes must be scrubbed later; a
                // rewrite before the deadline re-arms (supersedes) it.
                if !op.maintenance && speed == WriteSpeed::Fast {
                    if let Some(r) = self.policy.retention {
                        let due = op.end + crate::time::Duration::from_ns(r.retention_ns);
                        self.scrub_due.insert(op.line, due);
                        self.scrubs.push(Reverse((due, op.line)));
                    }
                }
            }
        }
    }

    /// Re-evaluate write-drain hysteresis.
    fn update_drain(&mut self) {
        if !self.drain && self.write_q.len() >= self.cfg.write_drain_high {
            self.drain = true;
            self.counters.drain_entries += 1;
        } else if self.drain && self.write_q.len() <= self.cfg.write_drain_low {
            self.drain = false;
        }
    }

    /// Fill every free bank with the highest-priority eligible request.
    fn schedule(&mut self) {
        self.update_drain();
        if self.read_q.is_empty() && self.write_q.is_empty() && self.eager_q.is_empty() {
            return;
        }
        loop {
            let mut free = self.idle_mask & !self.blocked_ready_mask();
            if let Some(f) = self.faults.as_deref() {
                free &= !f.outage_mask(self.now);
            }
            if free == 0 {
                return;
            }
            // Priority: during drain, writes lead; otherwise reads lead.
            // Writes also issue opportunistically to banks with no queued
            // reads. Eager writes issue only to fully quiescent banks.
            let issued = if self.drain {
                self.try_issue_write(free) || self.try_issue_read(free)
            } else {
                self.try_issue_read(free)
                    || self.try_issue_opportunistic_write(free)
                    || self.try_issue_eager(free)
            };
            if !issued {
                return;
            }
            self.update_drain();
        }
    }

    /// The instant the next row activation may start, or `None` when the
    /// tFAW window has capacity right now.
    fn faw_gate(&self) -> Option<Time> {
        if self.activations.len() < self.cfg.faw_activations {
            return None;
        }
        // mct-tidy: allow(P003) -- the len() >= faw_activations guard proves nonempty
        let oldest = *self.activations.front().expect("nonempty window");
        let release = oldest + crate::time::Duration::from_ns(self.cfg.t_faw_ns);
        (release > self.now).then_some(release)
    }

    fn try_issue_read(&mut self, free: u64) -> bool {
        if free & self.read_q.bank_mask() == 0 {
            return false;
        }
        // tFAW: while the activation window is saturated, only row-buffer
        // hits (no activation) may issue.
        let faw_blocked = self.faw_gate().is_some();
        let p = {
            let banks = &self.banks;
            let cfg = &self.cfg;
            self.read_q.pop_first_matching(|p| {
                free & (1u64 << p.bank) != 0
                    && (!faw_blocked || banks[p.bank].open_row() == Some(cfg.row_of(p.line)))
            })
        };
        let Some(p) = p else {
            return false;
        };
        // Open-page policy (Table 9): a read hitting the bank's open row
        // skips row activation and costs only tCAS.
        let row = self.cfg.row_of(p.line);
        let base_latency = if self.banks[p.bank].open_row() == Some(row) {
            self.counters.row_hits += 1;
            self.cfg.read_hit_latency()
        } else {
            // Row activation: record it against the tFAW window.
            self.activations.push_back(self.now);
            while self.activations.len() > self.cfg.faw_activations {
                self.activations.pop_front();
            }
            self.counters.activations += 1;
            self.cfg.read_latency()
        };
        self.banks[p.bank].open(row);
        // Turbo reads (read-latency-vs-disturbance extension): shorter
        // latency, but every `disturb_threshold` turbo reads on a bank
        // force a refresh write of the disturbed line.
        let latency = match self.policy.turbo_read {
            Some(t) => {
                self.turbo_counts[p.bank] += 1;
                if self.turbo_counts[p.bank] >= t.disturb_threshold {
                    self.turbo_counts[p.bank] = 0;
                    self.counters.disturb_refreshes += 1;
                    self.enqueue_maintenance(p.line);
                }
                base_latency.scale(t.read_speedup)
            }
            None => base_latency,
        };
        let end = self.now + latency;
        self.start_op(
            p.bank,
            InFlightOp {
                id: p.id,
                line: p.line,
                kind: OpKind::Read,
                start: self.now,
                end,
                cancellable: false,
                origin: QueueKind::Read,
                maintenance: false,
            },
        );
        true
    }

    /// Drain-mode write issue: any free bank.
    fn try_issue_write(&mut self, free: u64) -> bool {
        if free & self.write_q.bank_mask() == 0 {
            return false;
        }
        let Some(p) = self.write_q.pop_oldest_for_free_bank(free) else {
            return false;
        };
        self.start_write(p, QueueKind::Write);
        true
    }

    /// Outside drain, a write may use a bank only if no read wants it.
    fn try_issue_opportunistic_write(&mut self, free: u64) -> bool {
        let eligible = free & self.write_q.bank_mask() & !self.read_q.bank_mask();
        if eligible == 0 {
            return false;
        }
        let p = self
            .write_q
            .pop_first_matching(|p| eligible & (1u64 << p.bank) != 0);
        let Some(p) = p else {
            return false;
        };
        self.start_write(p, QueueKind::Write);
        true
    }

    /// Eager writes use only fully quiescent banks.
    fn try_issue_eager(&mut self, free: u64) -> bool {
        let eligible =
            free & self.eager_q.bank_mask() & !self.read_q.bank_mask() & !self.write_q.bank_mask();
        if eligible == 0 {
            return false;
        }
        let p = self
            .eager_q
            .pop_first_matching(|p| eligible & (1u64 << p.bank) != 0);
        let Some(p) = p else {
            return false;
        };
        self.start_write(p, QueueKind::Eager);
        true
    }

    fn start_write(&mut self, p: Pending, origin: QueueKind) {
        // Maintenance writes (retention scrubs / disturb refreshes) always
        // use the slow class at full retention, so they never re-arm.
        let speed = if p.maintenance {
            WriteSpeed::Slow
        } else {
            self.write_speed_for(p.bank, origin)
        };
        let ratio = self.effective_write_ratio(speed, p.maintenance);
        let cancellable = self.policy.cancellation.allows(speed);
        let mut latency = self.cfg.write_latency(ratio);
        if let Some(f) = self.faults.as_deref() {
            // Latency drift slows the pulse without changing the wear
            // charged: the cell is slower, not tougher. The `!= 1.0`
            // guard keeps the no-active-window path bit-exact.
            let mult = f.write_latency_multiplier(p.bank, self.now);
            if mult != 1.0 {
                latency = latency.scale(mult);
            }
        }
        let end = self.now + latency;
        self.start_op(
            p.bank,
            InFlightOp {
                id: p.id,
                line: p.line,
                kind: OpKind::Write(speed),
                start: self.now,
                end,
                cancellable,
                origin,
                maintenance: p.maintenance,
            },
        );
    }

    /// The pulse ratio a write actually uses: fast demand writes under the
    /// retention extension are relaxed (shorter pulse, scrub later);
    /// maintenance writes never are.
    fn effective_write_ratio(&self, speed: WriteSpeed, maintenance: bool) -> f64 {
        let base = self.policy.ratio(speed);
        match self.policy.retention {
            Some(r) if speed == WriteSpeed::Fast && !maintenance => base * r.write_speedup,
            _ => base,
        }
    }

    /// Choose the speed class for a write being issued to `bank`.
    fn write_speed_for(&self, bank: usize, origin: QueueKind) -> WriteSpeed {
        if self.quota.as_ref().is_some_and(WearQuota::is_restricted) {
            return WriteSpeed::Quota;
        }
        match origin {
            // Eager mellow writes are always slow (Table 9).
            QueueKind::Eager => WriteSpeed::Slow,
            QueueKind::Write => match self.policy.bank_aware_threshold {
                // Bank-aware: slow when few other writes target this bank.
                Some(th) if self.write_q.count_for_bank(bank) < th => WriteSpeed::Slow,
                Some(_) => WriteSpeed::Fast,
                None => WriteSpeed::Fast,
            },
            // mct-tidy: allow(P002) -- write_speed is only queried for write-side queues
            QueueKind::Read => unreachable!("reads have no write speed"),
        }
    }

    /// Cancel the write occupying `bank`, if policy and progress allow.
    fn maybe_cancel_write(&mut self, bank: usize) {
        let Some(op) = self.banks[bank].current().copied() else {
            return;
        };
        if !op.is_write() || !op.cancellable {
            return;
        }
        if op.remaining_fraction(self.now) <= self.cfg.cancel_min_remaining {
            return;
        }
        let op = self.banks[bank].cancel();
        self.idle_mask |= 1u64 << bank;
        self.recompute_earliest_end();
        let OpKind::Write(speed) = op.kind else {
            unreachable!() // mct-tidy: allow(P002) -- op.is_write() was checked above
        };
        let ratio = self.policy.ratio(speed);
        let frac = op.completed_fraction(self.now);
        self.wear.record_cancellation(ratio, frac);
        self.energy.record_cancellation(ratio, frac);
        self.counters.cancellations += 1;
        self.bank_ready[bank] =
            self.now + crate::time::Duration::from_ns(self.cfg.cancel_overhead_ns);
        self.ready_waiters |= 1u64 << bank;
        // The canceled write returns to the head of its origin queue.
        let pending = Pending {
            id: op.id,
            line: op.line,
            bank,
            maintenance: op.maintenance,
        };
        match op.origin {
            QueueKind::Write => self.write_q.push_front(pending),
            QueueKind::Eager => self.eager_q.push_front(pending),
            // mct-tidy: allow(P002) -- cancelled writes originate from write/eager queues only
            QueueKind::Read => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CancellationMode;

    fn controller(policy: MellowPolicy) -> MemoryController {
        MemoryController::new(
            MemConfig::default(),
            policy,
            WearModel::default(),
            EnergyModel::default(),
        )
    }

    #[test]
    fn single_read_completes_after_read_latency() {
        let mut m = controller(MellowPolicy::default_fast());
        let id = m.issue_read(0, Time::ZERO).unwrap();
        let done = m.wait_read(id);
        assert_eq!(done, Time::ZERO + MemConfig::default().read_latency());
        assert_eq!(m.counters().reads_completed, 1);
        assert_eq!(
            m.counters().read_latency_ps,
            MemConfig::default().read_latency().0
        );
    }

    #[test]
    fn reads_to_different_banks_overlap() {
        let mut m = controller(MellowPolicy::default_fast());
        let a = m.issue_read(0, Time::ZERO).unwrap();
        let b = m.issue_read(1, Time::ZERO).unwrap();
        let ta = m.wait_read(a);
        let tb = m.wait_read(b);
        assert_eq!(ta, tb, "independent banks serve in parallel");
    }

    #[test]
    fn reads_to_same_bank_serialize() {
        let mut m = controller(MellowPolicy::default_fast());
        // Same bank (line % 16 == 0), different rows (line / 256 differs):
        // the second read serializes at full (row-miss) latency.
        let a = m.issue_read(0, Time::ZERO).unwrap();
        let b = m.issue_read(256, Time::ZERO).unwrap();
        let ta = m.wait_read(a);
        let tb = m.wait_read(b);
        assert!(tb > ta);
        assert_eq!(tb - ta, MemConfig::default().read_latency());
    }

    #[test]
    fn open_row_hit_is_tcas_only() {
        let mut m = controller(MellowPolicy::default_fast());
        // Lines 0 and 16: same bank, same 16-line row.
        let a = m.issue_read(0, Time::ZERO).unwrap();
        let b = m.issue_read(16, Time::ZERO).unwrap();
        let ta = m.wait_read(a);
        let tb = m.wait_read(b);
        assert_eq!(tb - ta, MemConfig::default().read_hit_latency());
        assert_eq!(m.counters().row_hits, 1);
    }

    #[test]
    fn writes_bypass_row_buffer() {
        let mut m = controller(MellowPolicy::default_fast());
        // Open row 0 via a read, write to another row in the bank, then a
        // read back to row 0 must still hit (write-through bypass).
        let a = m.issue_read(0, Time::ZERO).unwrap();
        let _ = m.wait_read(a);
        assert!(m.issue_write(256, m.now()));
        m.drain_all();
        let b = m.issue_read(16, m.now()).unwrap();
        let _ = m.wait_read(b);
        assert_eq!(
            m.counters().row_hits,
            1,
            "row 0 stayed open across the write"
        );
    }

    #[test]
    fn write_completes_and_wears() {
        let mut m = controller(MellowPolicy::default_fast());
        assert!(m.issue_write(3, Time::ZERO));
        m.drain_all();
        assert_eq!(m.counters().writes_fast, 1);
        assert!((m.wear().wear_units() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn read_priority_over_write_on_same_bank() {
        // Queue both a write and a read for bank 0 before anything issues;
        // the read must be served first.
        let mut m = controller(MellowPolicy::default_fast());
        // Occupy bank 0 with a read so the subsequent write+read both queue.
        // Line 512 is bank 0 but a different row, so no row-hit shortcut.
        let warm = m.issue_read(0, Time::ZERO).unwrap();
        assert!(m.issue_write(256, Time::from_ns(1.0)));
        let r = m.issue_read(512, Time::from_ns(2.0)).unwrap();
        let t_warm = m.wait_read(warm);
        let t_r = m.wait_read(r);
        // The demand read goes right after the warm read, before the write.
        assert_eq!(t_r - t_warm, MemConfig::default().read_latency());
    }

    #[test]
    fn bank_aware_issues_slow_writes_when_queue_shallow() {
        let policy = MellowPolicy {
            fast_latency: 1.0,
            slow_latency: 3.0,
            bank_aware_threshold: Some(4),
            ..MellowPolicy::default_fast()
        };
        let mut m = controller(policy);
        assert!(m.issue_write(0, Time::ZERO));
        m.drain_all();
        assert_eq!(m.counters().writes_slow, 1, "shallow queue => slow write");
        assert_eq!(m.counters().writes_fast, 0);
    }

    #[test]
    fn bank_aware_issues_fast_writes_when_queue_deep() {
        let policy = MellowPolicy {
            fast_latency: 1.0,
            slow_latency: 3.0,
            bank_aware_threshold: Some(1),
            ..MellowPolicy::default_fast()
        };
        let mut m = controller(policy);
        // Six writes to the same bank. The first and last issue when the
        // queue behind them is empty (slow); the middle four see a deep
        // queue and issue fast.
        for i in 0..6 {
            assert!(m.issue_write(i * 16, Time::ZERO));
        }
        m.drain_all();
        assert!(
            m.counters().writes_fast >= 4,
            "deep queue => fast writes: {:?}",
            m.counters()
        );
        assert!(m.counters().writes_slow <= 2);
    }

    #[test]
    fn slow_writes_wear_less() {
        let fast_policy = MellowPolicy::default_fast();
        let slow_policy = MellowPolicy {
            slow_latency: 2.0,
            bank_aware_threshold: Some(64),
            ..MellowPolicy::default_fast()
        };
        let mut fast = controller(fast_policy);
        let mut slow = controller(slow_policy);
        for i in 0..10 {
            assert!(fast.issue_write(i, Time::ZERO));
            assert!(slow.issue_write(i, Time::ZERO));
        }
        fast.drain_all();
        slow.drain_all();
        assert!((fast.wear().wear_units() / slow.wear().wear_units() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cancellation_frees_bank_for_read() {
        let policy = MellowPolicy {
            fast_latency: 1.0,
            slow_latency: 4.0,
            cancellation: CancellationMode::SlowOnly,
            bank_aware_threshold: Some(8),
            ..MellowPolicy::default_fast()
        };
        let mut m = controller(policy);
        assert!(m.issue_write(0, Time::ZERO)); // slow write, 602.5ns
                                               // Let it start, then read the same bank at 100ns.
        let id = m.issue_read(0, Time::from_ns(100.0)).unwrap();
        let done = m.wait_read(id);
        let expected = Time::from_ns(100.0 + 2.5 + 122.5); // cancel overhead + read
        assert_eq!(done, expected);
        assert_eq!(m.counters().cancellations, 1);
        // The canceled write is eventually reissued and completes.
        m.drain_all();
        assert_eq!(m.counters().writes_completed(), 1);
        // Wear: partial (canceled fraction) + full reissue > 1 write's worth.
        let full = 1.0 / (4.0f64 * 4.0);
        assert!(m.wear().wear_units() > full);
    }

    #[test]
    fn no_cancellation_when_mode_none() {
        let policy = MellowPolicy {
            fast_latency: 1.0,
            slow_latency: 4.0,
            cancellation: CancellationMode::None,
            bank_aware_threshold: Some(8),
            ..MellowPolicy::default_fast()
        };
        let mut m = controller(policy);
        assert!(m.issue_write(0, Time::ZERO));
        let id = m.issue_read(0, Time::from_ns(100.0)).unwrap();
        let done = m.wait_read(id);
        // Read waits out the whole 602.5ns write.
        assert_eq!(done, Time::from_ns(602.5 + 122.5));
        assert_eq!(m.counters().cancellations, 0);
    }

    #[test]
    fn nearly_finished_write_not_canceled() {
        let policy = MellowPolicy {
            cancellation: CancellationMode::Both,
            ..MellowPolicy::default_fast()
        };
        let mut m = controller(policy);
        assert!(m.issue_write(0, Time::ZERO)); // fast write: 152.5ns
                                               // At 140ns, <25% remains: no cancellation.
        let id = m.issue_read(0, Time::from_ns(140.0)).unwrap();
        let done = m.wait_read(id);
        assert_eq!(done, Time::from_ns(152.5 + 122.5));
        assert_eq!(m.counters().cancellations, 0);
    }

    #[test]
    fn write_queue_backpressure() {
        let mut m = controller(MellowPolicy::default_fast());
        // Flood one bank.
        let mut accepted = 0;
        while m.issue_write(0, Time::ZERO) {
            accepted += 1;
            assert!(accepted <= 100, "queue should fill");
        }
        // One write is in flight; capacity-worth are queued.
        assert!(accepted >= MemConfig::default().write_queue_cap);
        let t = m.wait_write_space();
        assert!(t > Time::ZERO);
        assert!(m.issue_write(0, t));
    }

    #[test]
    fn eager_offer_rejected_when_bank_busy() {
        let mut m = controller(MellowPolicy {
            eager_threshold: Some(4),
            ..MellowPolicy::default_fast()
        });
        assert!(m.issue_write(0, Time::ZERO));
        assert!(!m.offer_eager(0, Time::from_ns(1.0)), "bank busy: reject");
        assert!(
            m.offer_eager(1, Time::from_ns(1.0)),
            "other bank idle: accept"
        );
        m.drain_all();
        assert_eq!(m.counters().eager_writes, 1);
        assert_eq!(m.counters().writes_slow, 1, "eager writes are slow");
    }

    #[test]
    fn quota_forces_slowest_writes_when_exhausted() {
        // A tiny quota target over an artificially tiny memory makes the
        // quota trip almost immediately.
        let wear_model = WearModel {
            base_endurance: 10.0,
            lines: 16,
            leveling_efficiency: 1.0,
        };
        let policy = MellowPolicy::default_fast().with_wear_quota(10.0);
        let mut m = MemoryController::new(
            MemConfig::default(),
            policy,
            wear_model,
            EnergyModel::default(),
        );
        // Write a lot; after the first quota slice boundary all writes must
        // be quota-speed.
        for i in 0..2000u64 {
            let t = Time::from_ns(i as f64 * 200.0);
            if !m.issue_write(i, t) {
                let now = m.wait_write_space();
                assert!(m.issue_write(i, now));
            }
        }
        m.drain_all();
        assert!(
            m.counters().writes_quota > 0,
            "quota writes expected: {:?}",
            m.counters()
        );
        assert!(m.quota_restricted_fraction() > 0.0);
    }

    #[test]
    fn drain_mode_entered_under_write_flood() {
        let mut m = controller(MellowPolicy::default_fast());
        for i in 0..200u64 {
            if !m.issue_write(i, Time::ZERO) {
                let now = m.wait_write_space();
                assert!(m.issue_write(i, now));
            }
        }
        m.drain_all();
        assert!(m.counters().drain_entries > 0);
        assert_eq!(m.counters().writes_completed(), 200);
    }

    #[test]
    fn tfaw_limits_activation_burst() {
        let mut m = controller(MellowPolicy::default_fast());
        // Five row-miss reads to five different banks at t=0: only four
        // activations fit in the 50ns window; the fifth waits.
        let ids: Vec<_> = (0..5)
            .map(|b| m.issue_read(b, Time::ZERO).unwrap())
            .collect();
        let times: Vec<Time> = ids.into_iter().map(|id| m.wait_read(id)).collect();
        for t in &times[..4] {
            assert_eq!(*t, Time::from_ns(122.5));
        }
        assert_eq!(
            times[4],
            Time::from_ns(50.0 + 122.5),
            "fifth activation gated by tFAW"
        );
        assert_eq!(m.counters().activations, 5);
    }

    #[test]
    fn row_hits_bypass_tfaw() {
        let mut m = controller(MellowPolicy::default_fast());
        // Saturate the window with four activations on banks 0..4.
        for b in 0..4u64 {
            let id = m.issue_read(b, Time::ZERO).unwrap();
            let _ = m.wait_read(id);
        }
        // A row hit on bank 0 right away: issue a second read to the same
        // row; it needs no activation so tFAW cannot block it.
        let hit = m.issue_read(16, m.now()).unwrap(); // bank 0, row 0
        let start = m.now();
        let done = m.wait_read(hit);
        assert_eq!(done - start, MemConfig::default().read_hit_latency());
    }

    #[test]
    fn retention_relax_speeds_writes_but_scrubs_later() {
        use crate::policy::RetentionRelax;
        let policy = MellowPolicy {
            retention: Some(RetentionRelax {
                write_speedup: 0.5,
                retention_ns: 5_000.0,
            }),
            ..MellowPolicy::default_fast()
        };
        let mut m = controller(policy);
        assert!(m.issue_write(0, Time::ZERO));
        // The relaxed write occupies the bank for 150*0.5 + 2.5 = 77.5ns.
        m.advance_to(Time::from_ns(80.0));
        assert_eq!(m.counters().writes_fast, 1);
        assert_eq!(m.counters().scrub_writes, 0, "scrub not due yet");
        // After the retention window the scrub fires as a slow write.
        m.advance_to(Time::from_ns(6_000.0));
        assert_eq!(m.counters().scrub_writes, 1);
        m.drain_all();
        assert_eq!(m.counters().writes_completed(), 2, "original + scrub");
        assert_eq!(m.counters().writes_slow, 1, "scrub runs at the slow class");
        // Total wear exceeds a single full-retention write: the relaxed
        // pulse wears more (1/0.5^2) and the scrub adds a full write.
        assert!(m.wear().wear_units() > 1.0);
    }

    #[test]
    fn drain_flushes_pending_scrubs() {
        use crate::policy::RetentionRelax;
        let policy = MellowPolicy {
            retention: Some(RetentionRelax {
                write_speedup: 0.5,
                retention_ns: 1e9,
            }),
            ..MellowPolicy::default_fast()
        };
        let mut m = controller(policy);
        assert!(m.issue_write(0, Time::ZERO));
        let end = m.drain_all();
        assert_eq!(
            m.counters().scrub_writes,
            1,
            "drain converts pending scrubs"
        );
        assert_eq!(m.counters().writes_completed(), 2);
        // End time stays bounded (scrub flushed, not simulated to +1s).
        assert!(end < Time::from_ns(1e6));
    }

    #[test]
    fn turbo_reads_are_faster_but_refresh() {
        use crate::policy::TurboRead;
        let policy = MellowPolicy {
            turbo_read: Some(TurboRead {
                read_speedup: 0.5,
                disturb_threshold: 4,
            }),
            ..MellowPolicy::default_fast()
        };
        let mut m = controller(policy);
        let id = m.issue_read(0, Time::ZERO).unwrap();
        let done = m.wait_read(id);
        assert_eq!(
            done,
            Time::from_ns(122.5 / 2.0),
            "turbo read at half latency"
        );
        // Three more reads on the same bank trip the disturb threshold.
        for i in 1..4 {
            let id = m
                .issue_read(i * 16, Time::from_ns(i as f64 * 200.0))
                .unwrap();
            let _ = m.wait_read(id);
        }
        m.drain_all();
        assert_eq!(m.counters().disturb_refreshes, 1);
        assert_eq!(m.counters().writes_completed(), 1, "one refresh write");
    }

    #[test]
    fn extensions_off_change_nothing() {
        let mut plain = controller(MellowPolicy::default_fast());
        let id = plain.issue_read(0, Time::ZERO).unwrap();
        assert_eq!(plain.wait_read(id), Time::from_ns(122.5));
        plain.drain_all();
        assert_eq!(plain.counters().scrub_writes, 0);
        assert_eq!(plain.counters().disturb_refreshes, 0);
    }

    #[test]
    fn time_monotonicity_and_conservation() {
        // Every issued request completes exactly once.
        let mut m = controller(MellowPolicy::static_baseline().without_wear_quota());
        let mut reads = Vec::new();
        for i in 0..50u64 {
            let t = Time::from_ns(i as f64 * 10.0);
            if i % 3 == 0 {
                if !m.issue_write(i * 7, t) {
                    let now = m.wait_write_space();
                    m.issue_write(i * 7, now);
                }
            } else if let Some(id) = m.issue_read(i * 13, t) {
                reads.push(id);
            }
        }
        for id in reads {
            let _ = m.wait_read(id);
        }
        m.drain_all();
        assert_eq!(m.counters().reads_completed, m.counters().reads_issued);
    }

    #[test]
    fn read_and_write_ids_never_collide() {
        let mut m = controller(MellowPolicy::default_fast());
        let r = m.issue_read(0, Time::ZERO).unwrap();
        assert!(m.issue_write(1, Time::ZERO));
        assert!(r.0 < WRITE_ID_BASE, "read ids stay in the dense range");
        let _ = m.wait_read(r);
        m.drain_all();
    }

    #[test]
    fn settled_same_instant_reentry_is_stable() {
        // Repeated polling at one instant (the CPU model's reap pattern)
        // must neither change state nor lose completions.
        let mut m = controller(MellowPolicy::default_fast());
        let id = m.issue_read(0, Time::ZERO).unwrap();
        for _ in 0..10 {
            assert!(m.take_completed_read(id, Time::from_ns(1.0)).is_none());
        }
        let done = m
            .take_completed_read(id, Time::from_ns(122.5))
            .expect("read due exactly now");
        assert_eq!(done, Time::from_ns(122.5));
        assert!(m.take_completed_read(id, Time::from_ns(122.5)).is_none());
    }
}
