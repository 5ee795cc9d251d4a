//! Bounded schedule exploration for the work-stealing protocol.
//!
//! The differential tests prove `run_grains` is bit-identical to serial
//! for the schedules the OS happened to produce; this harness proves it
//! for *every* schedule at a bounded size. The steal protocol of the
//! engine behind `mct_experiments::sched::run_grains` is modeled as a state machine whose atomic
//! steps are exactly its lock-hold regions:
//!
//! - **pop-own** — lock own deque, `pop_front` (execution of the popped
//!   grain is thread-local and folds into the same step);
//! - **probe-victim** — lock one victim deque; if non-empty, keep
//!   `len/2` with the victim and take the back half, popping the first
//!   stolen grain (the guard drops before anything else is touched);
//! - **append-rest** — lock own deque, append the remaining batch.
//!
//! Everything between lock regions is thread-local, so interleaving
//! whole regions explores every observable schedule. A depth-first walk
//! with state memoization enumerates all interleavings at 2 workers ×
//! 0..=6 grains and asserts, at every terminal state: no grain is lost,
//! none runs twice, and the slot-reassembled output is `to_bits()`
//! identical to the serial reference — the rows-not-reductions contract
//! holds under *all* schedules, not just observed ones.

use std::collections::{HashSet, VecDeque};

use mct_experiments::run_grains;

/// Deterministic, bit-patterned grain work: distinct mantissa bits per
/// index so any reordering or loss shows up in `to_bits`.
fn grain_value(i: usize) -> f64 {
    let x = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    f64::from_bits(0x3FF0_0000_0000_0000 | (x >> 12)) * 1.5 - 1.0
}

/// One worker's position in the protocol.
#[derive(Clone, PartialEq, Eq)]
enum WorkerState {
    /// Next step: pop the own queue.
    Running,
    /// Next step: probe victim at this offset.
    Stealing(usize),
    /// Next step: append the stolen remainder to the own queue.
    AppendRest(VecDeque<usize>),
    /// Exited the loop.
    Done,
}

/// The whole scheduler state between atomic steps.
#[derive(Clone, PartialEq, Eq)]
struct Machine {
    queues: Vec<VecDeque<usize>>,
    states: Vec<WorkerState>,
    /// Per-worker execution log, in execution order.
    executed: Vec<Vec<usize>>,
}

impl Machine {
    fn new(n: usize, workers: usize) -> Machine {
        // The round-robin deal from run_grains: worker w owns
        // [w, w+k, w+2k, ...].
        Machine {
            queues: (0..workers)
                .map(|w| (w..n).step_by(workers).collect())
                .collect(),
            states: vec![WorkerState::Running; workers],
            executed: vec![Vec::new(); workers],
        }
    }

    fn terminal(&self) -> bool {
        self.states.iter().all(|s| *s == WorkerState::Done)
    }

    /// Apply worker `me`'s next atomic step. Returns `None` when the
    /// worker is already done (no step to take).
    fn step(&self, me: usize) -> Option<Machine> {
        let workers = self.queues.len();
        let mut next = self.clone();
        match &self.states[me] {
            WorkerState::Done => return None,
            WorkerState::Running => {
                // pop-own (+ thread-local execution of the grain).
                if let Some(idx) = next.queues[me].pop_front() {
                    next.executed[me].push(idx);
                } else {
                    next.states[me] = WorkerState::Stealing(1);
                }
            }
            WorkerState::Stealing(offset) => {
                let victim = (me + offset) % workers;
                let len = next.queues[victim].len();
                if len == 0 {
                    next.states[me] = if offset + 1 < workers {
                        WorkerState::Stealing(offset + 1)
                    } else {
                        WorkerState::Done
                    };
                } else {
                    // probe-victim: keep len/2 with the owner, take the
                    // back half, run the first stolen grain.
                    let keep = len / 2;
                    let mut batch = next.queues[victim].split_off(keep);
                    let first = batch.pop_front().expect("split_off(keep<len) is non-empty");
                    next.executed[me].push(first);
                    next.states[me] = if batch.is_empty() {
                        WorkerState::Running
                    } else {
                        WorkerState::AppendRest(batch)
                    };
                }
            }
            WorkerState::AppendRest(batch) => {
                let mut batch = batch.clone();
                next.queues[me].append(&mut batch);
                next.states[me] = WorkerState::Running;
            }
        }
        Some(next)
    }

    /// Stable byte encoding for the memo set.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let push_list = |out: &mut Vec<u8>, items: &mut dyn Iterator<Item = usize>| {
            for i in items {
                out.push(u8::try_from(i).expect("bounded harness indices fit a byte"));
            }
            out.push(0xff);
        };
        for q in &self.queues {
            push_list(&mut out, &mut q.iter().copied());
        }
        for (s, e) in self.states.iter().zip(&self.executed) {
            match s {
                WorkerState::Running => out.push(0),
                WorkerState::Stealing(o) => {
                    out.push(1);
                    out.push(*o as u8);
                }
                WorkerState::AppendRest(b) => {
                    out.push(2);
                    push_list(&mut out, &mut b.iter().copied());
                }
                WorkerState::Done => out.push(3),
            }
            push_list(&mut out, &mut e.iter().copied());
        }
        out
    }
}

/// Check one fully-drained schedule against the protocol's promises.
fn assert_terminal(m: &Machine, n: usize, workers: usize) {
    // No grain lost, none executed twice.
    let mut seen = vec![0usize; n];
    for log in &m.executed {
        for &idx in log {
            seen[idx] += 1;
        }
    }
    assert!(
        seen.iter().all(|&c| c == 1),
        "every grain must run exactly once, counts {seen:?}"
    );
    assert!(m.queues.iter().all(VecDeque::is_empty), "queues must drain");

    // Slot reassembly by input index, exactly as run_grains does it,
    // must be bit-identical to the serial reference regardless of which
    // worker ran what in which order.
    let mut slots: Vec<Option<f64>> = vec![None; n];
    for log in &m.executed {
        for &idx in log {
            slots[idx] = Some(grain_value(idx));
        }
    }
    for (idx, slot) in slots.iter().enumerate() {
        let got = slot.expect("scheduler executed every grain");
        assert_eq!(
            got.to_bits(),
            grain_value(idx).to_bits(),
            "bit drift at grain {idx}"
        );
    }

    // Tally bookkeeping: stolen = executed off the round-robin deal.
    let stolen: usize = m
        .executed
        .iter()
        .enumerate()
        .map(|(w, log)| log.iter().filter(|&&idx| idx % workers != w).count())
        .sum();
    let executed: usize = m.executed.iter().map(Vec::len).sum();
    assert_eq!(executed, n);
    assert!(stolen <= n, "stolen grains are a subset of all grains");
}

/// Depth-first exploration of every interleaving; returns the number of
/// distinct terminal states checked.
fn explore_all(n: usize, workers: usize) -> usize {
    let mut visited: HashSet<Vec<u8>> = HashSet::new();
    let mut terminals = 0usize;
    let mut stack = vec![Machine::new(n, workers)];
    while let Some(m) = stack.pop() {
        if !visited.insert(m.encode()) {
            continue;
        }
        if m.terminal() {
            assert_terminal(&m, n, workers);
            terminals += 1;
            continue;
        }
        for me in 0..workers {
            if let Some(next) = m.step(me) {
                stack.push(next);
            }
        }
    }
    terminals
}

#[test]
fn every_two_worker_schedule_is_lossless_and_bit_identical() {
    for n in 0..=6usize {
        let terminals = explore_all(n, 2);
        assert!(terminals >= 1, "n={n}: exploration must reach completion");
        if n >= 3 {
            // With at least two grains per deal the race between
            // draining and stealing is real; a single terminal state
            // would mean the harness stopped exploring.
            assert!(
                terminals >= 2,
                "n={n}: expected schedule diversity, got {terminals} terminal state(s)"
            );
        }
    }
}

#[test]
fn three_worker_schedules_hold_at_small_sizes() {
    // A smaller sweep at 3 workers exercises multi-victim probing
    // (Stealing(1) -> Stealing(2)) without blowing up the state space.
    for n in 0..=5usize {
        let terminals = explore_all(n, 3);
        assert!(terminals >= 1, "n={n}: exploration must reach completion");
    }
}

#[test]
fn real_engine_matches_serial_bits_at_two_workers() {
    // The model above proves the protocol; this ties the knot with the
    // actual implementation on the same grain function.
    for n in [0usize, 1, 2, 3, 5, 7, 13, 32, 67] {
        let items: Vec<usize> = (0..n).collect();
        let serial: Vec<f64> = items.iter().map(|&i| grain_value(i)).collect();
        for workers in [2usize, 3, 4] {
            let got = run_grains(&items, workers, |&i| grain_value(i));
            let same = got
                .iter()
                .zip(&serial)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same && got.len() == serial.len(), "n={n} workers={workers}");
        }
    }
}
