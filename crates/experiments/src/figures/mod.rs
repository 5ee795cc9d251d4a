//! Library implementations of every experiment stage.
//!
//! Each stage renders its report into a caller-provided writer: the
//! per-figure binaries pass a locked stdout, while `run_all` captures
//! each stage into a buffer (mirrored to `data/out/<stage>.txt`).
//! Running the stages in one process is what makes the pipeline-scale
//! machinery pay off — every stage shares the same warm-rig pool
//! ([`crate::runner::shared_rig`]), the same grain/derived caches
//! ([`crate::cache`]), and the same grain scheduler
//! ([`crate::sched`]), none of which survive a process boundary.

use std::io::{self, Write};

use mct_core::predictor::LIFETIME_CLAMP_YEARS;
use mct_core::{
    Controller, ControllerConfig, MetricsPredictor, ModelKind, NvmConfig, Objective, Outcome,
};
use mct_ml::coefficient_of_determination;
use mct_sim::stats::Metrics;
use mct_workloads::Workload;

use crate::cache::{derived_key, derived_store};
use crate::scale::Scale;

pub mod calibrate;
pub mod config_space;
pub mod extensions;
pub mod figure1;
pub mod figure10;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod figure9;
pub mod table4;
pub mod table6;

/// A runnable experiment stage.
pub type StageFn = fn(Scale, &mut dyn Write) -> io::Result<()>;

/// Every stage in `run_all` order: (name, entry point).
pub const STAGES: &[(&str, StageFn)] = &[
    ("config_space", config_space::run),
    ("calibrate", calibrate::run),
    ("table4", table4::run),
    ("figure1", figure1::run),
    ("table6", table6::run),
    ("figure2", figure2::run),
    ("figure3", figure3::run),
    ("figure4", figure4::run),
    ("figure6", figure6::run),
    ("figure7", figure7::run),
    ("figure8", figure8::run),
    ("figure9", figure9::run),
    ("figure10", figure10::run),
    ("extensions", extensions::run),
];

/// Run the MCT controller for one (workload, model, budget, target)
/// through the derived-result cache: figure7 and figure9 request the
/// identical gradient-boosting run and share one execution, and a warm
/// rerun serves every controller outcome from disk.
pub(crate) fn cached_mct_outcome(
    w: Workload,
    kind: ModelKind,
    total_insts: u64,
    target_years: f64,
    scale: Scale,
    seed: u64,
) -> Outcome {
    let store = derived_store(scale, seed);
    let key = derived_key(
        &format!("mct_run/{}/{}", w.name(), kind.label()),
        seed,
        &[total_insts as f64, w.warmup_insts() as f64, target_years],
    );
    store.get_or_compute(key, || {
        let mut cfg = ControllerConfig::paper_scaled();
        cfg.model = kind;
        cfg.total_insts = total_insts;
        cfg.warmup_insts = w.warmup_insts();
        let mut controller = Controller::new(cfg, Objective::paper_default(target_years));
        controller.run(&mut w.source(seed))
    })
}

/// Score a fitted predictor against measured `(config, metrics)` rows on
/// every objective at once: each config is predicted once, true values are
/// clamped at [`LIFETIME_CLAMP_YEARS`] (the predictor's training clamp),
/// and the coefficient of determination (paper Eq. 3) comes back in
/// [`Metrics::to_array`] order — IPC, lifetime, energy.
pub(crate) fn r2_by_objective(p: &MetricsPredictor, eval: &[(NvmConfig, Metrics)]) -> [f64; 3] {
    let preds: Vec<[f64; 3]> = eval.iter().map(|(c, _)| p.predict(c).to_array()).collect();
    std::array::from_fn(|dim| {
        let pred: Vec<f64> = preds.iter().map(|a| a[dim]).collect();
        let truth: Vec<f64> = eval
            .iter()
            .map(|(_, m)| m.to_array()[dim].min(LIFETIME_CLAMP_YEARS))
            .collect();
        coefficient_of_determination(&pred, &truth)
    })
}

/// Geometric mean (shared by several figures' headline numbers).
pub(crate) fn geomean(vals: &[f64]) -> f64 {
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}
