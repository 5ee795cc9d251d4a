//! Work-stealing fork/join engine.
//!
//! The generic, dependency-free core of the experiment pipeline's grain
//! scheduler. The experiments crate re-wraps [`run_grains_tallied`] and
//! layers its pipeline-stats recording on top; `tests/steal_schedule.rs`
//! model-checks the deal/steal protocol here.
//!
//! Item index `i` is dealt round-robin to worker `i % workers`, a
//! drained worker steals the back half of the fullest victim's deque,
//! and results are reassembled by input index after the join. Output
//! order — and therefore every downstream reduction — is independent of
//! how the work was scheduled or stolen.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Per-worker execution accounting for one scheduler round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerTally {
    /// Items this worker executed.
    pub executed: u64,
    /// Executed items originally dealt to a different worker.
    pub stolen: u64,
    /// Microseconds spent inside the work closure.
    pub busy_us: u64,
    /// Microseconds from worker start to worker exit.
    pub wall_us: u64,
}

/// Run `f` over every item on `workers` work-stealing threads and return
/// the results in input order (no accounting).
///
/// # Panics
/// Propagates any panic raised by `f`.
pub fn run_grains<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_grains_tallied(items, workers, f).0
}

/// [`run_grains`] plus per-worker tallies for the round. With
/// `workers == 1` (or a single item) the batch runs inline with no
/// thread spawns and reports a single-worker tally.
///
/// # Panics
/// Propagates any panic raised by `f`.
pub fn run_grains_tallied<T, R, F>(items: &[T], workers: usize, f: F) -> (Vec<R>, Vec<WorkerTally>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        let wall = Instant::now();
        let mut busy_us = 0u64;
        let out = items
            .iter()
            .map(|item| {
                let t0 = Instant::now();
                let r = f(item);
                busy_us += t0.elapsed().as_micros() as u64;
                r
            })
            .collect();
        let tally = WorkerTally {
            executed: n as u64,
            stolen: 0,
            busy_us,
            wall_us: wall.elapsed().as_micros() as u64,
        };
        return (out, vec![tally]);
    }

    // Deal grain indices round-robin: worker w owns [w, w+k, w+2k, ...].
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers).collect()))
        .collect();

    let mut tallies = vec![WorkerTally::default(); workers];
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    let per_worker: Vec<(WorkerTally, Vec<(usize, R)>)> = std::thread::scope(|scope| {
        let queues = &queues;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                scope.spawn(move || {
                    let wall = Instant::now();
                    let mut tally = WorkerTally::default();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Queue mutexes cannot be poisoned: a panicking
                        // closure unwinds the whole scope, never a lock holder.
                        // mct-tidy: allow(P003) -- unpoisonable queue mutex (see above)
                        let job = queues[me].lock().expect("grain queue").pop_front();
                        let idx = match job {
                            Some(idx) => idx,
                            None => match steal(queues, me) {
                                Some(idx) => idx,
                                None => break,
                            },
                        };
                        let t0 = Instant::now();
                        let r = f(&items[idx]);
                        tally.busy_us += t0.elapsed().as_micros() as u64;
                        tally.executed += 1;
                        if idx % workers != me {
                            tally.stolen += 1;
                        }
                        out.push((idx, r));
                    }
                    tally.wall_us = wall.elapsed().as_micros() as u64;
                    (tally, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    for (w, (tally, results)) in per_worker.into_iter().enumerate() {
        tallies[w] = tally;
        for (idx, r) in results {
            slots[idx] = Some(r);
        }
    }
    // Every dealt index is either executed by its owner or stolen; a
    // missing slot is a scheduler bug, not a data error.
    let out = slots
        .into_iter()
        // mct-tidy: allow(P003) -- scheduler invariant: every slot filled (see above)
        .map(|r| r.expect("scheduler executed every grain"))
        .collect();
    (out, tallies)
}

/// Steal the back half of the fullest-looking victim's queue: the
/// oldest-dealt grains stay with their owner (they are next in its
/// cache-warm path), the thief takes the tail. Returns one grain to run
/// now; the rest of the batch goes into the thief's own queue.
fn steal(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    let workers = queues.len();
    for offset in 1..workers {
        let victim = (me + offset) % workers;
        let mut batch = {
            // mct-tidy: allow(P003) -- see lock rationale in the worker loop
            let mut q = queues[victim].lock().expect("grain queue");
            let len = q.len();
            if len == 0 {
                continue;
            }
            let keep = len / 2;
            q.split_off(keep)
            // Victim guard drops here, before the thief touches its own
            // queue: the steal protocol never holds two locks at once.
        };
        // mct-tidy: allow(P003) -- split_off(keep) with keep < len is non-empty
        let first = batch.pop_front().expect("stolen batch is non-empty");
        if !batch.is_empty() {
            // mct-tidy: allow(P003) -- see lock rationale in the worker loop
            queues[me].lock().expect("grain queue").append(&mut batch);
        }
        return Some(first);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_all_shapes() {
        for n in [1usize, 2, 3, 7, 13, 64, 100] {
            for workers in [1usize, 2, 3, 8, 200] {
                let items: Vec<usize> = (0..n).collect();
                let got = run_grains(&items, workers, |&x| x * 3 + 1);
                let want: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
                assert_eq!(got, want, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty: [u32; 0] = [];
        let (out, tallies) = run_grains_tallied(&empty, 4, |&x| x);
        assert!(out.is_empty());
        assert!(tallies.is_empty());
    }

    #[test]
    fn tallies_account_for_every_item() {
        for workers in [1usize, 3, 8] {
            let items: Vec<u32> = (0..40).collect();
            let (out, tallies) = run_grains_tallied(&items, workers, |&x| x + 1);
            assert_eq!(out.len(), 40);
            let executed: u64 = tallies.iter().map(|t| t.executed).sum();
            assert_eq!(executed, 40, "workers={workers}");
            assert_eq!(tallies.len(), workers.min(items.len()));
        }
    }

    #[test]
    fn propagates_worker_panics() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            run_grains(&items, 4, |&x| {
                assert!(x != 17, "injected failure");
                x
            })
        });
        assert!(result.is_err(), "panic must propagate to the caller");
    }
}
