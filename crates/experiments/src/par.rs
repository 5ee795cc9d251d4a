//! The deal/steal/reassemble engine behind [`crate::sched::run_grains`].
//!
//! Grain indices are dealt round-robin into one deque per worker; a
//! worker that drains its own deque steals the back half of a victim's.
//! Results are keyed by input index and reassembled after the join, so
//! output order never depends on the schedule. `sched` wraps this engine
//! with `MCT_WORKERS` resolution and the per-worker telemetry;
//! `tests/steal_schedule.rs` model-checks the steal protocol.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Per-worker execution accounting for one scheduler round.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WorkerTally {
    /// Items this worker executed.
    pub(crate) executed: u64,
    /// Executed items originally dealt to a different worker.
    pub(crate) stolen: u64,
    /// Microseconds spent inside the work closure.
    pub(crate) busy_us: u64,
    /// Microseconds from worker start to worker exit.
    pub(crate) wall_us: u64,
}

/// The engine behind [`crate::sched::run_grains`]: results in input order plus one
/// tally per worker. With `workers == 1` (or a single item) the batch
/// runs inline with no thread spawns and reports a single-worker tally.
pub(crate) fn run_grains_tallied<T, R, F>(
    items: &[T],
    workers: usize,
    f: F,
) -> (Vec<R>, Vec<WorkerTally>)
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

    let tallies = per_worker
        .into_iter()
        .map(|(tally, results)| {
            for (idx, r) in results {
                slots[idx] = Some(r);
            }
            tally
        })
        .collect();
    // Every dealt index is either executed by its owner or stolen; a
    // missing slot is a scheduler bug, not a data error.
    let out = slots
        .into_iter()
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
        // split_off(keep) with keep < len is non-empty.
        let first = batch.pop_front().expect("stolen batch is non-empty");
        if !batch.is_empty() {
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
                let (got, _) = run_grains_tallied(&items, workers, |&x| x * 3 + 1);
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
            run_grains_tallied(&items, 4, |&x| {
                assert!(x != 17, "injected failure");
                x
            })
        });
        assert!(result.is_err(), "panic must propagate to the caller");
    }
}
