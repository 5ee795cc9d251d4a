//! Work-stealing grain scheduler.
//!
//! The pipeline flattens every sweep into independent *measurement
//! grains* (workload × config × budget); this module spreads a batch of
//! grains across OS threads. Each worker owns a deque of grain indices
//! dealt round-robin; a worker that drains its own deque steals the
//! back half of a victim's, so a run of slow grains (one workload's
//! configs are not uniformly priced) cannot strand work on one core.
//!
//! Around the deal/steal/reassemble engine (the private `par` module) sit `MCT_WORKERS`
//! resolution and the per-worker executed/stolen/busy accounting,
//! written as `pipeline.worker.*{worker="<i>"}` series into the
//! process-wide [`mct_telemetry::pipeline_stats`] registry, which
//! `mct report` and `mct metrics` render from the pipeline trace.
//! `tests/steal_schedule.rs` model-checks the steal protocol.
//!
//! Results are keyed by input index and reassembled after the join, so
//! output order — and therefore every downstream figure — is identical
//! no matter how the grains were scheduled or stolen.

use std::num::NonZeroUsize;

use mct_telemetry::pipeline_stats;

use crate::par::run_grains_tallied;

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

/// Run `f` over every item on `workers` work-stealing threads and
/// return the results in input order.
///
/// Grain index `i` is initially dealt to worker `i % workers`; a grain
/// counts as *stolen* when a different worker ends up executing it.
/// With `workers == 1` (or one item) the batch runs inline with no
/// thread spawns. Either way one scheduler round is recorded into the
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
    if tallies.is_empty() {
        return out;
    }
    let stolen: u64 = tallies.iter().map(|t| t.stolen).sum();
    let mut registry = pipeline_stats().registry();
    registry.incr("pipeline.sched_rounds", 1);
    registry.incr("pipeline.grains_executed", items.len() as u64);
    if stolen > 0 {
        registry.incr("pipeline.grains_stolen", stolen);
    }
    for (i, t) in tallies.iter().enumerate() {
        let index = i.to_string();
        let worker = [("worker", index.as_str())];
        registry.incr_with("pipeline.worker.executed", &worker, t.executed);
        registry.incr_with("pipeline.worker.stolen", &worker, t.stolen);
        registry.incr_with("pipeline.worker.busy_us", &worker, t.busy_us);
        registry.incr_with("pipeline.worker.wall_us", &worker, t.wall_us);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
        assert!(run_grains(&empty, 4, |&x| x).is_empty());
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
    fn blocked_owner_has_its_queue_stolen() {
        // Worker 0 owns indices {0, 4, ..., 60} and blocks on grain 0
        // until every other grain has finished — so its remaining 15
        // grains can only complete by being stolen. Stealing is proved
        // by thread identity (the thread that ran grain 0 spun the whole
        // round, so no other worker-0 grain can carry its id); the
        // global counters only get lower bounds because concurrently
        // running tests share them. Every other grain waits for grain 0
        // to start: otherwise, if worker 0's thread started late, the
        // others could drain their queues and steal grain 0 itself.
        let n = 64usize;
        let workers = 4;
        let done = AtomicUsize::new(0);
        let started = AtomicBool::new(false);
        let items: Vec<usize> = (0..n).collect();
        let before = pipeline_stats().snapshot();
        let got = run_grains(&items, workers, |&x| {
            if x == 0 {
                started.store(true, Ordering::SeqCst);
                while done.load(Ordering::SeqCst) < n - 1 {
                    std::thread::yield_now();
                }
            } else {
                while !started.load(Ordering::SeqCst) {
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
            if idx % workers == 0 {
                assert_ne!(
                    *tid, blocker,
                    "grain {idx} must be stolen off the blocked worker"
                );
            }
        }
        let after = pipeline_stats().snapshot();
        assert!(after.grains_executed - before.grains_executed >= n as u64);
        assert!(
            after.grains_stolen - before.grains_stolen >= 15,
            "worker 0's 15 queued grains must all be stolen"
        );
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
        let exposition = mct_telemetry::render_prometheus(&pipeline_stats().registry().snapshot());
        assert!(
            exposition.contains("mct_pipeline_worker_executed_total{worker=\"0\"}"),
            "{exposition}"
        );
    }

    fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
        pipeline_stats().registry().counter_with(name, labels)
    }

    /// Every reason recorded under `pipeline.workers_fallback`.
    fn fallback_reasons() -> Vec<String> {
        let counters = pipeline_stats().registry().snapshot().counters;
        counters
            .iter()
            .filter_map(|(series, _)| mct_telemetry::expose::parse_series(series))
            .filter(|key| key.name == "pipeline.workers_fallback")
            .flat_map(|key| key.labels.into_iter().map(|(_, reason)| reason))
            .collect()
    }
}
