//! Grain scheduler.
//!
//! The pipeline flattens every sweep into independent *measurement
//! grains* (workload × config × budget); this module spreads a batch of
//! grains across OS threads. The batch is fixed before any thread
//! starts, so workers need no queues: each claims the next grain index
//! from one shared atomic cursor until the cursor passes the end, and a
//! run of slow grains (one workload's configs are not uniformly priced)
//! only means that worker claims fewer of them.
//!
//! Around that engine sit `MCT_WORKERS` resolution and the per-worker
//! executed/busy/wall accounting, written as
//! `pipeline.worker.*{worker="<i>"}` series into the process-wide
//! [`mct_telemetry::pipeline_stats`] registry, which `mct report` and
//! `mct metrics` render from the pipeline trace.
//!
//! Results are keyed by input index and reassembled after the join, so
//! output order — and therefore every downstream figure — is identical
//! no matter which worker claimed which grain.
//!
//! Rounds do not nest: a grain runs serially on the worker that claimed
//! it, so a unit with inner work (a Figure 10 mix unit and its 32 MCT
//! samples) is one grain, and each worker's busy and wall time is
//! counted once. Debug builds assert this.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mct_telemetry::pipeline_stats;
use mct_telemetry::registry::Registry;

/// How the worker count was decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkersPlan {
    /// Worker threads to use.
    pub workers: usize,
    /// Why a set-but-unusable `MCT_WORKERS` value was ignored, if it was.
    /// `None` when the variable was unset or parsed cleanly.
    pub fallback_reason: Option<String>,
}

/// Worker count: `MCT_WORKERS` (if set to a positive integer) else the
/// machine's available parallelism.
///
/// A set-but-garbage `MCT_WORKERS` (`0`, `-3`, `lots`, empty) must not
/// be silently swallowed — the user asked for a specific parallelism and
/// is getting something else. The first rejection is reported on stderr
/// and recorded as `pipeline.workers_fallback{reason="..."}` so it
/// surfaces in `mct report`.
#[must_use]
pub fn default_workers() -> usize {
    let plan = workers_plan(std::env::var("MCT_WORKERS").ok().as_deref());
    if let Some(reason) = &plan.fallback_reason {
        note_fallback(reason);
    }
    plan.workers
}

/// Warn about a rejected `MCT_WORKERS` and record why, once per process:
/// the first reason wins.
fn note_fallback(reason: &str) {
    static NOTED: std::sync::Once = std::sync::Once::new();
    NOTED.call_once(|| {
        eprintln!("warning: {reason}");
        pipeline_stats().registry().incr_with(
            "pipeline.workers_fallback",
            &[("reason", reason)],
            1,
        );
    });
}

/// [`default_workers`] with the env value injected and the fallback
/// decision made visible (testable).
#[must_use]
pub fn workers_plan(env: Option<&str>) -> WorkersPlan {
    let machine = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    match env {
        None => WorkersPlan {
            workers: machine(),
            fallback_reason: None,
        },
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(w) if w >= 1 => WorkersPlan {
                workers: w,
                fallback_reason: None,
            },
            _ => {
                let workers = machine();
                WorkersPlan {
                    workers,
                    fallback_reason: Some(format!(
                        "MCT_WORKERS={raw:?} rejected (must be a positive integer); \
                         using {workers} machine thread(s)"
                    )),
                }
            }
        },
    }
}

thread_local! {
    /// Whether this thread is a worker inside a round: a grain that
    /// started a round of its own would count its worker's time twice.
    static IN_GRAIN: Cell<bool> = const { Cell::new(false) };
}

/// Clears [`IN_GRAIN`] when a worker's loop ends, a panic included, so
/// the caller's thread can start rounds again afterwards.
struct LeaveGrain;

impl Drop for LeaveGrain {
    fn drop(&mut self) {
        IN_GRAIN.set(false);
    }
}

/// Run `f` over every item on `workers` threads and return the results
/// in input order.
///
/// The caller's thread is worker 0, so `workers == 1` (or one item)
/// spawns nothing. Either way one scheduler round is recorded into the
/// process pipeline registry.
///
/// # Panics
/// Propagates any panic raised by `f`.
pub fn run_grains<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (out, tallies) = run_grains_tallied(items, workers, f);
    if !tallies.is_empty() {
        record_round(&mut pipeline_stats().registry(), &tallies);
    }
    out
}

/// Write one round's counts into `registry`.
fn record_round(registry: &mut Registry, tallies: &[WorkerTally]) {
    registry.incr("pipeline.sched_rounds", 1);
    let executed = tallies.iter().map(|t| t.executed).sum();
    registry.incr("pipeline.grains_executed", executed);
    for (i, t) in tallies.iter().enumerate() {
        let index = i.to_string();
        let worker = [("worker", index.as_str())];
        registry.incr_with("pipeline.worker.executed", &worker, t.executed);
        registry.incr_with("pipeline.worker.busy_us", &worker, t.busy_us);
        registry.incr_with("pipeline.worker.wall_us", &worker, t.wall_us);
    }
}

/// Per-worker execution accounting for one batch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WorkerTally {
    /// Items this worker executed.
    pub(crate) executed: u64,
    /// Microseconds spent inside the work closure.
    pub(crate) busy_us: u64,
    /// Microseconds from worker start to worker exit.
    pub(crate) wall_us: u64,
}

/// The crate's one thread pool: results in input order plus one tally
/// per worker (index 0 is the caller), with no registry writes.
///
/// Workers claim item indices from a shared cursor until it passes the
/// end. The caller runs worker 0's loop itself beside `workers − 1`
/// scoped threads; a panic in any of them reaches the caller once the
/// rest have drained the cursor.
///
/// # Panics
/// In debug builds, if called from inside a grain: rounds do not nest.
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
    debug_assert!(!IN_GRAIN.get(), "a grain started a scheduler round");
    let cursor = AtomicUsize::new(0);
    let work = || {
        IN_GRAIN.set(true);
        let _leave = LeaveGrain;
        let wall = Instant::now();
        let mut tally = WorkerTally::default();
        let mut done: Vec<(usize, R)> = Vec::new();
        loop {
            // Relaxed suffices: the cursor publishes no data. The RMW alone
            // hands each index out once; results travel back through join.
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= n {
                break;
            }
            let t0 = Instant::now();
            done.push((idx, f(&items[idx])));
            tally.busy_us += t0.elapsed().as_micros() as u64;
            tally.executed += 1;
        }
        tally.wall_us = wall.elapsed().as_micros() as u64;
        (tally, done)
    };
    let per_worker: Vec<(WorkerTally, Vec<(usize, R)>)> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers.clamp(1, n))
            .map(|_| scope.spawn(work))
            .collect();
        let mine = work();
        std::iter::once(mine)
            .chain(spawned.into_iter().map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            }))
            .collect()
    });

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let tallies = per_worker
        .into_iter()
        .map(|(tally, done)| {
            for (idx, r) in done {
                slots[idx] = Some(r);
            }
            tally
        })
        .collect();
    // The cursor hands out every index exactly once; a missing slot is a
    // scheduler bug, not a data error.
    let out = slots
        .into_iter()
        .map(|r| r.expect("scheduler executed every grain"))
        .collect();
    (out, tallies)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_all_shapes() {
        let caller = std::thread::current().id();
        for n in [1usize, 2, 3, 7, 13, 64, 100] {
            for workers in [1usize, 2, 3, 8, 200] {
                let items: Vec<usize> = (0..n).collect();
                let got = run_grains(&items, workers, |&x| {
                    (x * 3 + 1, std::thread::current().id())
                });
                let values: Vec<usize> = got.iter().map(|(v, _)| *v).collect();
                let want: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
                assert_eq!(values, want, "n={n} workers={workers}");
                // One worker (or one item) spawns nothing: every grain
                // runs on the caller's thread.
                if workers.min(n) == 1 {
                    assert!(
                        got.iter().all(|(_, tid)| *tid == caller),
                        "n={n} workers={workers}: a grain left the caller's thread"
                    );
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a grain started a scheduler round")]
    fn a_grain_that_starts_a_round_panics() {
        let _ = run_grains_tallied(&[()], 1, |()| run_grains_tallied(&[1u32], 1, |&x| x));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty: [u32; 0] = [];
        assert!(run_grains(&empty, 4, |&x| x).is_empty());
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

    #[test]
    fn blocked_grain_never_stalls_the_rest_of_the_batch() {
        // Grain 0 is the first index claimed, and it blocks until every
        // other grain has finished — so the other 63 can only complete
        // on the other workers. Thread identity proves it: the thread
        // that ran grain 0 spun the whole batch, so no other grain can
        // carry its id. The global counters only get lower bounds
        // because concurrently running tests share them.
        let n = 64usize;
        let workers = 4;
        let done = AtomicUsize::new(0);
        let items: Vec<usize> = (0..n).collect();
        let before = pipeline_stats().snapshot();
        let got = run_grains(&items, workers, |&x| {
            if x == 0 {
                while done.load(Ordering::SeqCst) < n - 1 {
                    std::thread::yield_now();
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
            (x, std::thread::current().id())
        });
        let values: Vec<usize> = got.iter().map(|(x, _)| *x).collect();
        assert_eq!(values, items);
        let blocker = got[0].1;
        for (idx, tid) in &got[1..] {
            assert_ne!(
                *tid, blocker,
                "grain {idx} ran on the thread blocked in grain 0"
            );
        }
        let after = pipeline_stats().snapshot();
        assert!(after.grains_executed - before.grains_executed >= n as u64);
    }

    #[test]
    fn records_round_and_executed_counts() {
        // Lower bounds only: the pipeline counters are process-global
        // and other tests run scheduler rounds concurrently.
        let rounds_before = counter("pipeline.sched_rounds", &[]);
        let before = pipeline_stats().snapshot();
        let items: Vec<u32> = (0..10).collect();
        let _ = run_grains(&items, 3, |&x| x);
        let _ = run_grains(&items[..1], 1, |&x| x);
        let after = pipeline_stats().snapshot();
        assert!(counter("pipeline.sched_rounds", &[]) - rounds_before >= 2);
        assert!(after.grains_executed - before.grains_executed >= 11);
        let executed: u64 = after.workers.iter().map(|w| w.executed).sum();
        let executed_before: u64 = before.workers.iter().map(|w| w.executed).sum();
        assert!(executed - executed_before >= 11);
    }

    #[test]
    fn workers_from_env_parsing() {
        let workers = |env| workers_plan(env).workers;
        assert_eq!(workers(Some("3")), 3);
        assert_eq!(workers(Some("1")), 1);
        let fallback = workers(None);
        assert!(fallback >= 1);
        assert_eq!(workers(Some("0")), fallback, "zero is rejected");
        assert_eq!(workers(Some("lots")), fallback, "junk is rejected");
    }

    #[test]
    fn workers_plan_reports_why_garbage_was_rejected() {
        // Clean values carry no reason.
        assert_eq!(workers_plan(Some("4")).fallback_reason, None);
        assert_eq!(
            workers_plan(Some(" 2 ")).workers,
            2,
            "whitespace is tolerated"
        );
        assert_eq!(workers_plan(None).fallback_reason, None);
        // Garbage falls back loudly, naming the offending value.
        for bad in ["0", "-3", "lots", "", "1.5"] {
            let plan = workers_plan(Some(bad));
            assert!(plan.workers >= 1);
            let reason = plan
                .fallback_reason
                .unwrap_or_else(|| panic!("MCT_WORKERS={bad:?} must produce a fallback reason"));
            assert!(reason.contains(&format!("{bad:?}")), "{reason}");
            assert!(reason.contains("positive integer"), "{reason}");
        }
    }

    #[test]
    fn rejected_workers_env_lands_in_pipeline_stats() {
        // default_workers() reads the real env, so drive the recording
        // path directly with a plan the parser rejected.
        let plan = workers_plan(Some("banana"));
        let reason = plan.fallback_reason.expect("rejected");
        note_fallback(&reason);
        // First reason wins: another test may have recorded first; either
        // way the registry carries one rejection reason for the report.
        let reasons = fallback_reasons();
        assert_eq!(reasons.len(), 1, "{reasons:?}");
        assert!(reasons[0].contains("rejected"), "{reasons:?}");
    }

    #[test]
    fn workers_fallback_first_reason_wins() {
        note_fallback("MCT_WORKERS=\"0\" rejected");
        note_fallback("a later reason");
        let reasons = fallback_reasons();
        assert!(
            !reasons.iter().any(|r| r == "a later reason"),
            "{reasons:?}"
        );
    }

    #[test]
    fn run_grains_round_lands_in_labeled_worker_series() {
        // Lower bounds only: the pipeline registry is process-global.
        let worker0 = [("worker", "0")];
        let executed = counter("pipeline.worker.executed", &worker0);
        let wall = counter("pipeline.worker.wall_us", &worker0);
        let items: Vec<u32> = (0..5).collect();
        let _ = run_grains(&items, 1, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        });
        assert!(counter("pipeline.worker.executed", &worker0) - executed >= 5);
        assert!(counter("pipeline.worker.wall_us", &worker0) > wall);
        // The typed snapshot reads the same series back into worker rows.
        let workers = pipeline_stats().snapshot().workers;
        assert!(
            workers.first().is_some_and(|w| w.executed >= executed + 5),
            "{workers:?}"
        );
    }

    fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
        pipeline_stats().registry().counter_with(name, labels)
    }

    /// Every reason recorded under `pipeline.workers_fallback`.
    fn fallback_reasons() -> Vec<String> {
        pipeline_stats()
            .registry()
            .counters()
            .filter(|(key, _)| key.name == "pipeline.workers_fallback")
            .filter_map(|(key, _)| key.label("reason").map(str::to_string))
            .collect()
    }
}
