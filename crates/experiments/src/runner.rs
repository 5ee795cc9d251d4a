//! Warmed measurement rigs: the unit every sweep grain measures on.
//!
//! Warm-state cloning makes the "ideal policy" search tractable: each
//! workload is warmed once under the default policy, then the warmed
//! system (and the workload source position) is cloned per candidate
//! configuration, so the per-configuration cost is just the detailed
//! window. All candidates therefore measure over exactly the same access
//! stream — the paper's per-benchmark methodology.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mct_core::NvmConfig;
use mct_sim::stats::Metrics;
use mct_sim::system::{System, SystemConfig};
use mct_telemetry::pipeline_stats;
use mct_workloads::{Workload, WorkloadSource};

use crate::scale::Scale;

/// Deterministic seed shared by all experiments (the paper's venue year).
pub const EXPERIMENT_SEED: u64 = 2017;

/// A warmed system + source snapshot, cloneable per candidate config.
#[derive(Debug, Clone)]
pub struct WarmedRig {
    sys: System,
    src: WorkloadSource,
    detailed_insts: u64,
}

impl WarmedRig {
    /// Warm up `workload` under the default policy.
    #[must_use]
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> WarmedRig {
        WarmedRig::with_budget(
            workload,
            seed,
            workload.detailed_insts(scale.detailed_factor()),
        )
    }

    /// Warm up `workload` with an explicit detailed-window budget (the
    /// extension studies run off-scale budgets).
    #[must_use]
    pub fn with_budget(workload: Workload, seed: u64, detailed_insts: u64) -> WarmedRig {
        // mct-tidy: allow(D002) -- pipeline-stats accounting only; never feeds results
        let t0 = Instant::now();
        let mut sys = System::new(
            SystemConfig::default(),
            NvmConfig::default_config().to_policy(),
        );
        let mut src = workload.source(seed);
        sys.warmup(&mut src, workload.warmup_insts());
        let stats = pipeline_stats();
        stats.add("pipeline.rig_warmups", 1);
        stats.add("pipeline.warmup_us", t0.elapsed().as_micros() as u64);
        stats.add("pipeline.snapshot_bytes", sys.snapshot_bytes() as u64);
        WarmedRig {
            sys,
            src,
            detailed_insts,
        }
    }

    /// Measure one configuration over the shared detailed window.
    #[must_use]
    pub fn measure(&self, cfg: &NvmConfig) -> Metrics {
        self.measure_policy(cfg.to_policy())
    }

    /// Measure an arbitrary memory policy over the shared detailed
    /// window (the extension studies build policies outside the paper's
    /// configuration space).
    #[must_use]
    pub fn measure_policy(&self, policy: mct_sim::policy::MellowPolicy) -> Metrics {
        // mct-tidy: allow(D002) -- pipeline-stats accounting only; never feeds results
        let t0 = Instant::now();
        let mut sys = self.sys.clone();
        let mut src = self.src.clone();
        let stats = pipeline_stats();
        stats.add("pipeline.rig_clones", 1);
        stats.add("pipeline.clone_us", t0.elapsed().as_micros() as u64);
        sys.set_policy(policy);
        sys.reset_stats();
        sys.run_window(&mut src, self.detailed_insts);
        sys.finalize().metrics()
    }

    /// Arm a deterministic fault plan on the warmed system. Every
    /// per-candidate clone inherits the armed runtime, so all candidates
    /// measure under exactly the same fault schedule (and the same access
    /// stream). Arming an *empty* plan keeps measurements bit-identical
    /// to an unarmed rig — the differential no-op guarantee.
    ///
    /// # Panics
    /// Panics if the plan fails validation.
    pub fn arm_faults(&mut self, plan: &mct_sim::FaultPlan) {
        self.sys.arm_faults(plan);
    }

    /// The detailed window length in instructions.
    #[must_use]
    pub fn detailed_insts(&self) -> u64 {
        self.detailed_insts
    }
}

/// Identity of a shared warm snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RigKey {
    workload: Workload,
    seed: u64,
    detailed_insts: u64,
}

/// A lazily-warmed slot in the shared rig pool.
///
/// The pool hands out the *cell* immediately; the actual warmup runs on
/// first [`RigCell::rig`] call. Concurrent first callers block on the
/// same `OnceLock`, so each (workload, seed, budget) is warmed exactly
/// once per process no matter how many figures or workers ask for it.
#[derive(Debug)]
pub struct RigCell {
    key: RigKey,
    cell: OnceLock<WarmedRig>,
}

impl RigCell {
    /// The warmed rig, warming it on first use.
    pub fn rig(&self) -> &WarmedRig {
        self.cell.get_or_init(|| {
            WarmedRig::with_budget(self.key.workload, self.key.seed, self.key.detailed_insts)
        })
    }
}

/// The process-wide warm snapshot pool: one [`WarmedRig`] per
/// (workload, seed, detailed budget), shared by every figure.
fn rig_pool() -> &'static Mutex<HashMap<RigKey, Arc<RigCell>>> {
    static POOL: OnceLock<Mutex<HashMap<RigKey, Arc<RigCell>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Fetch (or create) the shared warm-rig cell for a workload at an
/// explicit detailed budget. The warmup itself is deferred to the first
/// [`RigCell::rig`] call, so grabbing cells is cheap. Asking for a cell
/// that is already warmed counts as a `rig_reuses` — one figure riding
/// on another's warmup.
///
/// # Panics
/// Panics if the pool mutex is poisoned.
#[must_use]
pub fn shared_rig(workload: Workload, seed: u64, detailed_insts: u64) -> Arc<RigCell> {
    let key = RigKey {
        workload,
        seed,
        detailed_insts,
    };
    let cell = Arc::clone(
        rig_pool()
            .lock()
            .expect("rig pool lock")
            .entry(key)
            .or_insert_with(|| {
                Arc::new(RigCell {
                    key,
                    cell: OnceLock::new(),
                })
            }),
    );
    if cell.cell.get().is_some() {
        pipeline_stats().add("pipeline.rig_reuses", 1);
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_constant_is_fixed() {
        // Guard against accidental edits: the seed participates in every
        // cached dataset's identity.
        assert_eq!(EXPERIMENT_SEED, 2017);
    }

    #[test]
    fn warmed_rig_measures_deterministically() {
        let rig = WarmedRig::new(Workload::Stream, Scale::Quick, 1);
        let a = rig.measure(&NvmConfig::default_config());
        let b = rig.measure(&NvmConfig::default_config());
        assert_eq!(a, b, "cloned measurements must be identical");
    }

    #[test]
    fn different_configs_differ() {
        let rig = WarmedRig::new(Workload::Stream, Scale::Quick, 1);
        let fast = rig.measure(&NvmConfig::default_config());
        let slow = rig.measure(&NvmConfig {
            fast_latency: 4.0,
            slow_latency: 4.0,
            ..NvmConfig::default_config()
        });
        assert!(slow.lifetime_years > fast.lifetime_years * 4.0);
        assert!(slow.ipc <= fast.ipc);
    }

    #[test]
    fn sweep_matches_individual_measurements() {
        // The pipeline's grain path — the shared pool rig measured on
        // two workers — must reproduce a fresh rig's serial loop.
        let configs = vec![
            NvmConfig::default_config(),
            NvmConfig::static_baseline(),
            NvmConfig::static_baseline().without_wear_quota(),
        ];
        let budget = Workload::Gups.detailed_insts(Scale::Quick.detailed_factor());
        let cell = shared_rig(Workload::Gups, 2, budget);
        let swept = crate::sched::run_grains(&configs, 2, |c| cell.rig().measure(c));
        let rig = WarmedRig::new(Workload::Gups, Scale::Quick, 2);
        for (cfg, m) in configs.iter().zip(&swept) {
            assert_eq!(*m, rig.measure(cfg));
        }
    }
}
