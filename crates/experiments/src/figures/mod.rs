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
//!
//! A stage lists its units of work first and renders after: sweep
//! grains go through [`crate::cache::load_or_compute_sweeps`], and
//! everything else a figure computes — Figures 7–9's controller runs,
//! Figures 7–8's deployment re-measures, Figure 10's mix units and the
//! extension grains — through one batch lookup
//! ([`crate::cache::Store::get_or_compute_many`]) whose misses run on
//! the grain pool. Figure 10's mix units are batches of one: each
//! unit's 32-sample round takes the whole pool, and no two 8 MB mix
//! LLCs are live at once.

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

/// One MCT controller run a figure asks for: (workload, model, budget,
/// lifetime target).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MctRun {
    pub(crate) workload: Workload,
    pub(crate) kind: ModelKind,
    pub(crate) total_insts: u64,
    pub(crate) target_years: f64,
}

/// Run every requested controller through the derived-result cache as
/// one batch on the grain pool, outcomes in input order: figure7 and
/// figure9 request the identical gradient-boosting runs and share one
/// execution, and a warm rerun serves every outcome from disk.
pub(crate) fn cached_mct_outcomes(runs: &[MctRun], scale: Scale, seed: u64) -> Vec<Outcome> {
    let units: Vec<(u64, MctRun)> = runs
        .iter()
        .map(|run| {
            let w = run.workload;
            let key = derived_key(
                &format!("mct_run/{}/{}", w.name(), run.kind.label()),
                seed,
                &[
                    run.total_insts as f64,
                    w.warmup_insts() as f64,
                    run.target_years,
                ],
            );
            (key, *run)
        })
        .collect();
    derived_store(scale, seed).get_or_compute_many(&units, |run| {
        let mut cfg = ControllerConfig::paper_scaled();
        cfg.model = run.kind;
        cfg.total_insts = run.total_insts;
        cfg.warmup_insts = run.workload.warmup_insts();
        let mut controller = Controller::new(cfg, Objective::paper_default(run.target_years));
        controller.run(&mut run.workload.source(seed))
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
