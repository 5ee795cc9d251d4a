//! MCT for multi-program mixes (paper Section 6.2.5 / Figure 10).
//!
//! The paper applies MCT to 4-program mixes on a 4-core system; exploring
//! the whole design space there is intractable (they compare only against
//! the static policy). This module mirrors that methodology: MCT samples
//! a small configuration set on the live mix, fits gradient boosting,
//! predicts the space, and selects under the 8-year objective — against
//! `default` and `static` references.

use mct_core::{
    optimize,
    sampling::{random_samples, with_anchors},
    ConfigSpace, MetricsPredictor, ModelKind, NvmConfig, Objective,
};
use mct_sim::stats::Metrics;
use mct_sim::system::{MultiSystem, SystemConfig};
use mct_workloads::{Mix, WorkloadSource};

use crate::scale::Scale;
use crate::sched::{default_workers, run_grains};

/// Which policy a mix run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixPolicy {
    /// The paper's `default` (fast writes only).
    Default,
    /// The best static policy.
    Static,
    /// MCT with gradient boosting.
    Mct,
}

/// Result of one mix run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MixOutcome {
    /// Geometric-mean per-core IPC (the paper's Figure 10 metric).
    pub geomean_ipc: f64,
    /// Memory lifetime, years.
    pub lifetime_years: f64,
    /// Total system energy, joules.
    pub energy_j: f64,
    /// Per-core IPC fairness (min/max; the paper's future-work metric).
    pub fairness: f64,
    /// The configuration that ran the measurement window.
    pub config: NvmConfig,
}

#[derive(Debug, Clone)]
struct WarmMix {
    sys: MultiSystem,
    sources: Vec<WorkloadSource>,
}

impl WarmMix {
    fn new(mix: Mix, seed: u64, warm_insts: u64) -> WarmMix {
        let mut sys = MultiSystem::new(
            SystemConfig::multicore_4(),
            NvmConfig::default_config().to_policy(),
            4,
        );
        let mut sources = mix.sources(seed);
        sys.warmup(&mut sources, warm_insts);
        WarmMix { sys, sources }
    }

    fn measure(&self, cfg: &NvmConfig, insts_per_core: u64) -> (Metrics, f64, f64) {
        let mut sys = self.sys.clone();
        let mut sources = self.sources.clone();
        sys.set_policy(cfg.to_policy());
        sys.reset_stats();
        let stats = sys.run(&mut sources, insts_per_core);
        (stats.metrics(), stats.geomean_ipc(), stats.fairness())
    }
}

/// Run all three policies on one mix, sharing a single warmed rig
/// (warming the 8 MB shared LLC dominates the cost).
#[must_use]
pub fn run_mix_all(mix: Mix, scale: Scale, seed: u64, target_years: f64) -> [MixOutcome; 3] {
    let rig = warm_rig(mix, seed);
    [
        run_on_rig(&rig, MixPolicy::Default, scale, seed, target_years),
        run_on_rig(&rig, MixPolicy::Static, scale, seed, target_years),
        run_on_rig(&rig, MixPolicy::Mct, scale, seed, target_years),
    ]
}

fn warm_rig(mix: Mix, seed: u64) -> WarmMix {
    // The 8 MB shared LLC (131 k lines) must reach steady state before
    // dirty evictions flow: ~2 M instructions per core regardless of
    // scale (this is a correctness floor, not a fidelity knob).
    WarmMix::new(mix, seed, 2_000_000)
}

/// Run one mix under the given policy; `target_years` parameterizes the
/// objective (and the static/fixup quota).
#[must_use]
pub fn run_mix_mct(
    mix: Mix,
    policy: MixPolicy,
    scale: Scale,
    seed: u64,
    target_years: f64,
) -> MixOutcome {
    let rig = warm_rig(mix, seed);
    run_on_rig(&rig, policy, scale, seed, target_years)
}

fn run_on_rig(
    rig: &WarmMix,
    policy: MixPolicy,
    scale: Scale,
    seed: u64,
    target_years: f64,
) -> MixOutcome {
    let detailed = (800_000.0 * scale.detailed_factor()) as u64;
    let chosen = match policy {
        MixPolicy::Default => NvmConfig::default_config(),
        MixPolicy::Static => NvmConfig::static_baseline(),
        MixPolicy::Mct => {
            // Sampling on the live mix (small windows, small sample set).
            let space = ConfigSpace::without_wear_quota();
            let samples = with_anchors(
                random_samples(&space, 32, seed),
                &[
                    NvmConfig::default_config(),
                    NvmConfig::static_baseline().without_wear_quota(),
                ],
            );
            let unit = (detailed / 16).max(10_000);
            let (baseline, _, _) =
                rig.measure(&NvmConfig::static_baseline().without_wear_quota(), unit);
            let measured: Vec<(NvmConfig, Metrics)> = samples
                .iter()
                .copied()
                .zip(run_grains(&samples, default_workers(), |c| {
                    rig.measure(c, unit).0
                }))
                .collect();
            let mut predictor = MetricsPredictor::new(ModelKind::GradientBoosting);
            predictor.fit(&measured, Some(baseline));
            let predictions = predictor.predict_all(&space);
            let objective = Objective::paper_default(target_years);
            optimize(
                &space,
                &predictions,
                &objective,
                NvmConfig::static_baseline(),
                true,
            )
            .config
        }
    };
    let (metrics, geomean, fairness) = rig.measure(&chosen, detailed);
    MixOutcome {
        geomean_ipc: geomean,
        lifetime_years: metrics.lifetime_years,
        energy_j: metrics.energy_j,
        fairness,
        config: chosen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_meets_target_where_default_does_not() {
        let default = run_mix_mct(Mix::Mix1, MixPolicy::Default, Scale::Quick, 9, 8.0);
        let staticp = run_mix_mct(Mix::Mix1, MixPolicy::Static, Scale::Quick, 9, 8.0);
        assert!(default.geomean_ipc > 0.0 && staticp.geomean_ipc > 0.0);
        assert!(
            staticp.lifetime_years > default.lifetime_years,
            "static {} vs default {}",
            staticp.lifetime_years,
            default.lifetime_years
        );
    }

    #[test]
    fn mct_selects_and_measures() {
        let mct = run_mix_mct(Mix::Mix3, MixPolicy::Mct, Scale::Quick, 9, 8.0);
        assert!(mct.geomean_ipc > 0.0);
        mct.config.validate().unwrap();
        assert!(mct.config.wear_quota, "fixup expected");
    }
}
