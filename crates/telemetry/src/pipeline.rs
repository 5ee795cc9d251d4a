//! Process-wide pipeline counters: scheduler, measurement cache, and
//! warm-rig accounting.
//!
//! The experiment pipeline (sweep scheduler, grain cache, rig pool) is
//! called from many threads and many call sites, so these counters are
//! a single lock-free global rather than a threaded-through `Registry`.
//! [`PipelineStats::snapshot`] freezes them into a serializable
//! [`PipelineSnapshot`] that rides in
//! [`Event::PipelineCompleted`](crate::event::Event) records and renders
//! via `mct report`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// Per-worker scheduler accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorkerStat {
    /// Grains this worker executed.
    pub executed: u64,
    /// Of those, grains stolen from another worker's queue.
    pub stolen: u64,
    /// Wall-clock microseconds the worker spent executing grains.
    pub busy_us: u64,
    /// Wall-clock microseconds from worker start to worker exit.
    pub wall_us: u64,
}

impl WorkerStat {
    /// Fraction of the worker's lifetime spent executing grains.
    #[must_use]
    pub fn busy_fraction(&self) -> f64 {
        if self.wall_us == 0 {
            0.0
        } else {
            self.busy_us as f64 / self.wall_us as f64
        }
    }
}

/// Serializable freeze of the pipeline counters.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PipelineSnapshot {
    /// Measurement grains executed (cache misses that ran simulation).
    pub grains_executed: u64,
    /// Of those, grains executed by a worker that stole them.
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
    /// Scheduler rounds (one per `run_grains` invocation with work).
    pub sched_rounds: u64,
    /// Per-worker stats, summed over every scheduler round.
    pub workers: Vec<WorkerStat>,
    /// Why the worker count fell back to machine parallelism (empty when
    /// `MCT_WORKERS` was unset or valid). Defaulted so traces written
    /// before this field existed still parse.
    #[serde(default)]
    pub workers_fallback: String,
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

    /// Pour this snapshot into a metrics [`Registry`](crate::Registry)
    /// as `pipeline.*` counters, with per-worker scheduler series
    /// labeled `{worker="<index>"}` — the bridge that makes pipeline
    /// accounting scrapeable through `--metrics-out` / `mct metrics`
    /// alongside the controller's own series.
    pub fn to_registry(&self, registry: &mut crate::Registry) {
        for (name, value) in [
            ("pipeline.grains_executed", self.grains_executed),
            ("pipeline.grains_stolen", self.grains_stolen),
            ("pipeline.cache_hits", self.cache_hits),
            ("pipeline.stale_discarded", self.stale_discarded),
            ("pipeline.corrupt_discarded", self.corrupt_discarded),
            ("pipeline.rig_warmups", self.rig_warmups),
            ("pipeline.rig_reuses", self.rig_reuses),
            ("pipeline.rig_clones", self.rig_clones),
            ("pipeline.warmup_us", self.warmup_us),
            ("pipeline.clone_us", self.clone_us),
            ("pipeline.snapshot_bytes", self.snapshot_bytes),
            ("pipeline.sched_rounds", self.sched_rounds),
        ] {
            if value > 0 {
                registry.incr(name, value);
            }
        }
        for (i, w) in self.workers.iter().enumerate() {
            let index = i.to_string();
            let labels: [(&str, &str); 1] = [("worker", &index)];
            registry.incr_with("pipeline.worker.executed", &labels, w.executed);
            registry.incr_with("pipeline.worker.stolen", &labels, w.stolen);
            registry.incr_with("pipeline.worker.busy_us", &labels, w.busy_us);
            registry.incr_with("pipeline.worker.wall_us", &labels, w.wall_us);
        }
        if !self.workers_fallback.is_empty() {
            registry.incr("pipeline.workers_fallback", 1);
        }
    }

    /// One-line human summary (`pipeline: grains=...`): stable field
    /// order, no wall-clock terms, suitable for log grepping.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "grains={} executed={} stolen={} cached={} hit_rate={:.1}% stale={} corrupt={} warmups={} rig_reuses={}",
            self.grains_total(),
            self.grains_executed,
            self.grains_stolen,
            self.cache_hits,
            self.cache_hit_rate() * 100.0,
            self.stale_discarded,
            self.corrupt_discarded,
            self.rig_warmups,
            self.rig_reuses,
        )
    }
}

/// The process-wide pipeline counters. All methods are thread-safe.
#[derive(Debug, Default)]
pub struct PipelineStats {
    grains_executed: AtomicU64,
    grains_stolen: AtomicU64,
    cache_hits: AtomicU64,
    stale_discarded: AtomicU64,
    corrupt_discarded: AtomicU64,
    rig_warmups: AtomicU64,
    rig_reuses: AtomicU64,
    rig_clones: AtomicU64,
    warmup_us: AtomicU64,
    clone_us: AtomicU64,
    snapshot_bytes: AtomicU64,
    sched_rounds: AtomicU64,
    workers: Mutex<Vec<WorkerStat>>,
    workers_fallback: Mutex<String>,
}

macro_rules! adders {
    ($($method:ident => $field:ident),* $(,)?) => {
        $(
            #[doc = concat!("Add `n` to `", stringify!($field), "`.")]
            pub fn $method(&self, n: u64) {
                self.$field.fetch_add(n, Ordering::Relaxed);
            }
        )*
    };
}

impl PipelineStats {
    adders! {
        add_grains_executed => grains_executed,
        add_grains_stolen => grains_stolen,
        add_cache_hits => cache_hits,
        add_stale_discarded => stale_discarded,
        add_corrupt_discarded => corrupt_discarded,
        add_rig_warmups => rig_warmups,
        add_rig_reuses => rig_reuses,
        add_rig_clones => rig_clones,
        add_warmup_us => warmup_us,
        add_clone_us => clone_us,
        add_snapshot_bytes => snapshot_bytes,
    }

    /// Record why the worker count fell back to machine parallelism
    /// (e.g. a garbage `MCT_WORKERS` value). First reason wins; later
    /// calls are ignored so repeated scheduler entry does not churn it.
    /// Poisoned locks are recovered — stats are advisory and must never
    /// crash the pipeline they observe.
    pub fn set_workers_fallback(&self, reason: &str) {
        let mut slot = lock_recovering(&self.workers_fallback);
        if slot.is_empty() {
            reason.clone_into(&mut slot);
        }
    }

    /// Record one scheduler round's per-worker stats (summed into the
    /// worker slots by index).
    pub fn record_round(&self, workers: &[WorkerStat]) {
        self.sched_rounds.fetch_add(1, Ordering::Relaxed);
        let mut slots = lock_recovering(&self.workers);
        if slots.len() < workers.len() {
            slots.resize(workers.len(), WorkerStat::default());
        }
        for (slot, w) in slots.iter_mut().zip(workers) {
            slot.executed += w.executed;
            slot.stolen += w.stolen;
            slot.busy_us += w.busy_us;
            slot.wall_us += w.wall_us;
        }
    }

    /// Freeze current values into a serializable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot {
            grains_executed: self.grains_executed.load(Ordering::Relaxed),
            grains_stolen: self.grains_stolen.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            stale_discarded: self.stale_discarded.load(Ordering::Relaxed),
            corrupt_discarded: self.corrupt_discarded.load(Ordering::Relaxed),
            rig_warmups: self.rig_warmups.load(Ordering::Relaxed),
            rig_reuses: self.rig_reuses.load(Ordering::Relaxed),
            rig_clones: self.rig_clones.load(Ordering::Relaxed),
            warmup_us: self.warmup_us.load(Ordering::Relaxed),
            clone_us: self.clone_us.load(Ordering::Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            sched_rounds: self.sched_rounds.load(Ordering::Relaxed),
            workers: lock_recovering(&self.workers).clone(),
            workers_fallback: lock_recovering(&self.workers_fallback).clone(),
        }
    }
}

/// Lock a stats mutex, recovering from poisoning: a panic in one
/// scheduler worker must not take the whole process's accounting (or
/// any later snapshot) down with it.
fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
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
        stats.add_cache_hits(3);
        stats.add_grains_executed(2);
        stats.add_grains_stolen(1);
        stats.record_round(&[
            WorkerStat {
                executed: 2,
                stolen: 1,
                busy_us: 50,
                wall_us: 100,
            },
            WorkerStat {
                executed: 0,
                stolen: 0,
                busy_us: 0,
                wall_us: 100,
            },
        ]);
        let snap = stats.snapshot();
        assert_eq!(snap.grains_total(), 5);
        assert!((snap.cache_hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(snap.workers.len(), 2);
        assert!((snap.workers[0].busy_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(snap.sched_rounds, 1);
    }

    #[test]
    fn summary_line_is_wall_clock_free() {
        let snap = PipelineSnapshot {
            grains_executed: 0,
            cache_hits: 10,
            ..PipelineSnapshot::default()
        };
        let line = snap.summary_line();
        assert!(line.contains("executed=0"));
        assert!(line.contains("hit_rate=100.0%"));
        assert!(!line.contains("us="), "no timing terms: {line}");
    }

    #[test]
    fn workers_fallback_first_reason_wins() {
        let stats = PipelineStats::default();
        assert_eq!(stats.snapshot().workers_fallback, "");
        stats.set_workers_fallback("MCT_WORKERS=0 rejected");
        stats.set_workers_fallback("a later reason");
        assert_eq!(stats.snapshot().workers_fallback, "MCT_WORKERS=0 rejected");
    }

    #[test]
    fn old_snapshots_without_fallback_field_still_parse() {
        let json = serde_json::to_string(&PipelineSnapshot::default()).expect("serialize");
        let stripped = json.replace(",\"workers_fallback\":\"\"", "");
        assert_ne!(json, stripped, "field must have been present");
        let back: PipelineSnapshot = serde_json::from_str(&stripped).expect("parse old trace");
        assert_eq!(back, PipelineSnapshot::default());
    }

    #[test]
    fn to_registry_bridges_labeled_worker_series() {
        let snap = PipelineSnapshot {
            grains_executed: 5,
            cache_hits: 3,
            workers: vec![
                WorkerStat {
                    executed: 3,
                    stolen: 1,
                    busy_us: 80,
                    wall_us: 100,
                },
                WorkerStat {
                    executed: 2,
                    stolen: 0,
                    busy_us: 40,
                    wall_us: 100,
                },
            ],
            ..PipelineSnapshot::default()
        };
        let mut registry = crate::Registry::new();
        snap.to_registry(&mut registry);
        assert_eq!(registry.counter("pipeline.grains_executed"), 5);
        assert_eq!(
            registry.counter_with("pipeline.worker.executed", &[("worker", "0")]),
            3
        );
        assert_eq!(
            registry.counter_with("pipeline.worker.busy_us", &[("worker", "1")]),
            40
        );
        // Zero-valued totals are not materialized as series.
        assert!(!registry
            .snapshot()
            .counters
            .iter()
            .any(|(name, _)| name == "pipeline.stale_discarded"));
    }

    #[test]
    fn round_trips_through_json() {
        let snap = PipelineSnapshot {
            grains_executed: 7,
            workers: vec![WorkerStat {
                executed: 7,
                stolen: 2,
                busy_us: 1,
                wall_us: 2,
            }],
            ..PipelineSnapshot::default()
        };
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: PipelineSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }
}
