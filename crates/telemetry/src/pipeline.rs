//! Process-wide pipeline counters: scheduler, measurement cache, and
//! warm-rig accounting.
//!
//! The experiment pipeline (sweep scheduler, grain cache, rig pool) is
//! called from many threads and many call sites that share no telemetry
//! session, so its counters live in one process-wide [`Registry`] behind
//! [`pipeline_stats`]. Series are unlabeled `pipeline.*` totals
//! (`pipeline.grains_executed`, `pipeline.cache_hits`, ...,
//! `pipeline.sched_rounds`), per-worker scheduler series
//! `pipeline.worker.{executed,busy_us,wall_us}{worker="<i>"}`, and
//! `pipeline.workers_fallback{reason="..."}` when `MCT_WORKERS` was
//! rejected. The experiment binaries append the registry's snapshot to
//! their trace as an [`Event::MetricsRegistry`](crate::Event) record,
//! which `mct report` and `mct metrics` render like any other registry
//! (through [`render_registry`](crate::render_registry)).
//! [`PipelineStats::snapshot`] is a typed read view of the same series.

use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::registry::Registry;

/// One scheduler worker's series, summed over every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStat {
    /// Grains this worker executed.
    pub executed: u64,
    /// Wall-clock microseconds the worker spent executing grains.
    pub busy_us: u64,
    /// Wall-clock microseconds from worker start to worker exit.
    pub wall_us: u64,
}

/// Typed read view of the pipeline series at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PipelineSnapshot {
    /// Measurement grains executed (cache misses that ran simulation).
    pub grains_executed: u64,
    /// Reads 0: the grain scheduler claims grains from one shared cursor
    /// and steals none, so nothing writes `pipeline.grains_stolen` any
    /// more. Kept for readers of the field that predate that scheduler.
    pub grains_stolen: u64,
    /// Grains served from the on-disk cache.
    pub cache_hits: u64,
    /// Cache entries discarded because their `CACHE_VERSION` was stale.
    pub stale_discarded: u64,
    /// Cache lines discarded because they were corrupt or truncated.
    pub corrupt_discarded: u64,
    /// Warm-rig snapshots built (full warmup runs).
    pub rig_warmups: u64,
    /// Warm-rig snapshots served from the shared pool without re-warming.
    pub rig_reuses: u64,
    /// System clones taken off warm snapshots (one per measurement).
    pub rig_clones: u64,
    /// Total microseconds spent warming rigs.
    pub warmup_us: u64,
    /// Total microseconds spent cloning warm snapshots.
    pub clone_us: u64,
    /// Total heap footprint of all warm snapshots built, bytes.
    pub snapshot_bytes: u64,
    /// Per-worker stats, indexed by the `worker` label.
    pub workers: Vec<WorkerStat>,
}

impl PipelineSnapshot {
    /// Total grains requested (hits + executed).
    #[must_use]
    pub fn grains_total(&self) -> u64 {
        self.cache_hits + self.grains_executed
    }

    /// Fraction of requested grains served from cache.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.grains_total();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// One-line human summary (`pipeline: grains=...`): stable field
    /// order, no wall-clock terms, suitable for log grepping.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "grains={} executed={} cached={} hit_rate={:.1}% stale={} corrupt={} warmups={} rig_reuses={}",
            self.grains_total(),
            self.grains_executed,
            self.cache_hits,
            self.cache_hit_rate() * 100.0,
            self.stale_discarded,
            self.corrupt_discarded,
            self.rig_warmups,
            self.rig_reuses,
        )
    }
}

/// The process-wide pipeline registry. All methods are thread-safe.
#[derive(Debug, Default)]
pub struct PipelineStats {
    registry: Mutex<Registry>,
}

impl PipelineStats {
    /// Add `n` to the unlabeled counter `name`. A zero `n` is dropped, so
    /// a counter that never moved has no series.
    pub fn add(&self, name: &str, n: u64) {
        if n > 0 {
            self.registry().incr(name, n);
        }
    }

    /// Lock the registry, for labeled or batched writes and for reads.
    pub fn registry(&self) -> MutexGuard<'_, Registry> {
        lock_recovering(&self.registry)
    }

    /// Read the pipeline series into a typed snapshot; the per-worker
    /// rows are read from the labeled `pipeline.worker.*` series' keys.
    #[must_use]
    pub fn snapshot(&self) -> PipelineSnapshot {
        let registry = self.registry();
        let counter = |name| registry.counter(name);
        let mut snap = PipelineSnapshot {
            grains_executed: counter("pipeline.grains_executed"),
            grains_stolen: counter("pipeline.grains_stolen"),
            cache_hits: counter("pipeline.cache_hits"),
            stale_discarded: counter("pipeline.stale_discarded"),
            corrupt_discarded: counter("pipeline.corrupt_discarded"),
            rig_warmups: counter("pipeline.rig_warmups"),
            rig_reuses: counter("pipeline.rig_reuses"),
            rig_clones: counter("pipeline.rig_clones"),
            warmup_us: counter("pipeline.warmup_us"),
            clone_us: counter("pipeline.clone_us"),
            snapshot_bytes: counter("pipeline.snapshot_bytes"),
            workers: Vec::new(),
        };
        for (key, value) in registry.counters() {
            let Some(field) = key.name.strip_prefix("pipeline.worker.") else {
                continue;
            };
            let Some(i) = key.label("worker").and_then(|v| v.parse::<usize>().ok()) else {
                continue;
            };
            if snap.workers.len() <= i {
                snap.workers.resize(i + 1, WorkerStat::default());
            }
            let w = &mut snap.workers[i];
            match field {
                "executed" => w.executed = value,
                "busy_us" => w.busy_us = value,
                "wall_us" => w.wall_us = value,
                _ => {}
            }
        }
        snap
    }
}

/// Lock a stats mutex, recovering from poisoning: a panic in one
/// scheduler worker must not take the whole process's accounting (or
/// any later snapshot) down with it.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The process-wide [`PipelineStats`] instance.
pub fn pipeline_stats() -> &'static PipelineStats {
    static STATS: OnceLock<PipelineStats> = OnceLock::new();
    STATS.get_or_init(PipelineStats::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = PipelineStats::default();
        stats.add("pipeline.cache_hits", 3);
        stats.add("pipeline.grains_executed", 2);
        stats.add("pipeline.stale_discarded", 0);
        {
            let mut r = stats.registry();
            r.incr_with("pipeline.worker.wall_us", &[("worker", "0")], 100);
            r.incr_with("pipeline.worker.executed", &[("worker", "1")], 2);
            r.incr_with("pipeline.worker.busy_us", &[("worker", "1")], 50);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.grains_total(), 5);
        assert!((snap.cache_hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(
            snap.workers,
            [
                WorkerStat {
                    wall_us: 100,
                    ..WorkerStat::default()
                },
                WorkerStat {
                    executed: 2,
                    busy_us: 50,
                    wall_us: 0,
                },
            ]
        );
        // A zero delta materializes no series.
        assert!(!stats
            .registry()
            .snapshot()
            .counters
            .iter()
            .any(|(name, _)| name == "pipeline.stale_discarded"));
    }

    #[test]
    fn summary_line_is_wall_clock_free() {
        let snap = PipelineSnapshot {
            grains_executed: 0,
            cache_hits: 10,
            ..PipelineSnapshot::default()
        };
        let line = snap.summary_line();
        // The CI cache smoke greps these three fragments.
        assert!(line.contains(" executed=0 "), "{line}");
        assert!(line.contains("hit_rate=100.0%"), "{line}");
        assert!(line.contains(" stale=0 corrupt=0 "), "{line}");
        assert!(!line.contains("us="), "no timing terms: {line}");
    }
}
