//! The sweep engine: measure one configuration, or brute-force many.
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
use mct_sim::rigset::{RigSet, DEFAULT_SLICE_INSTS};
use mct_sim::stats::Metrics;
use mct_sim::system::{System, SystemConfig};
use mct_sim::trace::AccessSource;
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

    /// Measure several configurations in one interleaved pass over the
    /// shared detailed window ([`mct_sim::RigSet`]): the trace events
    /// are generated once and replayed through every candidate's clone,
    /// instead of once per candidate. Results are bit-identical to
    /// calling [`WarmedRig::measure`] per config — same clone, same
    /// policy swap, same reset, and (by the rig-set slice argument) the
    /// same event sequence in the same order.
    #[must_use]
    pub fn measure_batch(&self, cfgs: &[NvmConfig]) -> Vec<Metrics> {
        self.measure_batch_with_slice(cfgs, DEFAULT_SLICE_INSTS)
    }

    /// [`WarmedRig::measure_batch`] with an explicit interleave slice
    /// (benchmarks tune it; results are slice-independent by the rig-set
    /// bit-identity argument).
    #[must_use]
    pub fn measure_batch_with_slice(&self, cfgs: &[NvmConfig], slice_insts: u64) -> Vec<Metrics> {
        if cfgs.is_empty() {
            return Vec::new();
        }
        // mct-tidy: allow(D002) -- pipeline-stats accounting only; never feeds results
        let t0 = Instant::now();
        let systems: Vec<System> = cfgs
            .iter()
            .map(|cfg| {
                let mut sys = self.sys.clone();
                sys.set_policy(cfg.to_policy());
                sys.reset_stats();
                sys
            })
            .collect();
        let stats = pipeline_stats();
        stats.add("pipeline.rig_clones", cfgs.len() as u64);
        stats.add("pipeline.clone_us", t0.elapsed().as_micros() as u64);
        let mut src = self.src.clone();
        let mut set = RigSet::new(systems);
        set.run_window_shared(&mut src, self.detailed_insts, slice_insts);
        set.into_systems()
            .into_iter()
            .map(|mut sys| sys.finalize().metrics())
            .collect()
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

/// Measure a single configuration on a workload (fresh warmup).
#[must_use]
pub fn measure_one(workload: Workload, cfg: &NvmConfig, scale: Scale, seed: u64) -> Metrics {
    WarmedRig::new(workload, scale, seed).measure(cfg)
}

/// Brute-force sweep: metrics for every configuration in `configs`,
/// spread over [`crate::sched::default_workers`] threads (`MCT_WORKERS`,
/// else the available cores).
#[must_use]
pub fn sweep(workload: Workload, configs: &[NvmConfig], scale: Scale, seed: u64) -> Vec<Metrics> {
    let threads = crate::sched::default_workers();
    sweep_with_threads(workload, configs, scale, seed, threads)
}

/// How many candidate configs one worker grain drives through a shared
/// [`RigSet`] event loop. Larger batches amortize event generation over
/// more candidates but coarsen the work-stealing grain.
const SWEEP_RIG_BATCH: usize = 8;

/// [`sweep`] with an explicit worker count (determinism tests compare
/// thread counts; production callers use [`sweep`]).
///
/// Workers are handed [`RigSet`] batches of [`SWEEP_RIG_BATCH`] configs
/// rather than single configs: each grain interleaves its candidates
/// through one event loop ([`WarmedRig::measure_batch`]), generating the
/// shared trace once per batch instead of once per candidate. Batches
/// partition `configs` in order and each batch's results come back in
/// order, so output order — and, since `measure_batch` is bit-identical
/// to `measure`, every metric bit — is unchanged from the per-config
/// sweep at any thread count.
#[must_use]
pub fn sweep_with_threads(
    workload: Workload,
    configs: &[NvmConfig],
    scale: Scale,
    seed: u64,
    threads: usize,
) -> Vec<Metrics> {
    let rig = WarmedRig::new(workload, scale, seed);
    let batches: Vec<&[NvmConfig]> = configs.chunks(SWEEP_RIG_BATCH).collect();
    crate::sched::run_grains(&batches, threads, |batch| rig.measure_batch(batch))
        .into_iter()
        .flatten()
        .collect()
}

/// A tiny helper for replaying the shared stream through an arbitrary
/// source type in tests.
pub fn run_detailed<S: AccessSource>(sys: &mut System, src: &mut S, insts: u64) -> Metrics {
    sys.reset_stats();
    sys.run_window(src, insts);
    sys.finalize().metrics()
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
    fn measure_batch_matches_measure_bit_for_bit() {
        // Ragged batch sizes included: the interleaved rig-set pass must
        // reproduce the sequential per-config measurement exactly.
        let rig = WarmedRig::new(Workload::Stream, Scale::Quick, 1);
        let configs: Vec<NvmConfig> = [1.0f64, 1.5, 2.0, 2.5, 3.0]
            .iter()
            .map(|&lat| NvmConfig {
                slow_latency: lat.max(1.0),
                ..NvmConfig::default_config()
            })
            .collect();
        for n in [1usize, 3, 5] {
            let batch = rig.measure_batch(&configs[..n]);
            for (cfg, got) in configs[..n].iter().zip(&batch) {
                assert_eq!(*got, rig.measure(cfg), "n={n}");
            }
        }
        assert!(rig.measure_batch(&[]).is_empty());
    }

    #[test]
    fn sweep_matches_individual_measurements() {
        let configs = vec![
            NvmConfig::default_config(),
            NvmConfig::static_baseline(),
            NvmConfig::static_baseline().without_wear_quota(),
        ];
        let rig = WarmedRig::new(Workload::Gups, Scale::Quick, 2);
        let swept = sweep(Workload::Gups, &configs, Scale::Quick, 2);
        for (cfg, m) in configs.iter().zip(&swept) {
            assert_eq!(*m, rig.measure(cfg));
        }
    }
}
