//! Figure 8: sensitivity to lifetime targets (4–10 years).
//!
//! For four representative workloads, runs MCT (gradient boosting) and
//! the brute-force ideal under lifetime targets 4, 6, 8 and 10 years.
//! Ideal search uses the wear-quota-free sweep (as in Table 4): the
//! cached quota-on half enforces a fixed 8-year quota and would bias
//! other targets.

use std::io::{self, Write};

use mct_core::{ConfigSpace, ModelKind, Objective};
use mct_workloads::Workload;

use crate::cache::{load_or_compute_sweeps, strided_configs, SweepRequest};
use crate::figures::{cached_mct_outcomes, MctRun};
use crate::ideal::ideal_for;
use crate::report::Table;
use crate::runner::EXPERIMENT_SEED;
use crate::scale::Scale;

const TARGETS: [f64; 4] = [4.0, 6.0, 8.0, 10.0];

const WORKLOADS: [Workload; 4] = [
    Workload::Lbm,
    Workload::Leslie3d,
    Workload::GemsFdtd,
    Workload::Stream,
];

/// Render Figure 8.
pub fn run(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "== Figure 8: sensitivity to lifetime targets (scale: {scale}) ==\n"
    )?;
    let space = ConfigSpace::without_wear_quota();
    let configs = strided_configs(space.configs(), scale);

    let requests: Vec<SweepRequest> = WORKLOADS
        .into_iter()
        .map(|w| SweepRequest {
            workload: w,
            configs: configs.clone(),
        })
        .collect();
    let datasets = load_or_compute_sweeps(&requests, scale, EXPERIMENT_SEED);

    // Every (workload, target) controller run as one batch, then their
    // deployment re-measures on the shared rigs (see figure7) as another.
    let runs: Vec<MctRun> = WORKLOADS
        .into_iter()
        .flat_map(|workload| {
            TARGETS.map(|target_years| MctRun {
                workload,
                kind: ModelKind::GradientBoosting,
                total_insts: scale.controller_insts() / 2,
                target_years,
            })
        })
        .collect();
    let outcomes = cached_mct_outcomes(&runs, scale, EXPERIMENT_SEED);
    let deploy_requests: Vec<SweepRequest> = WORKLOADS
        .into_iter()
        .zip(outcomes.chunks(TARGETS.len()))
        .map(|(workload, per_target)| SweepRequest {
            workload,
            configs: per_target.iter().map(|o| o.chosen_config).collect(),
        })
        .collect();
    let deployed = load_or_compute_sweeps(&deploy_requests, scale, EXPERIMENT_SEED);

    for ((w, ds), deploy) in WORKLOADS.into_iter().zip(&datasets).zip(&deployed) {
        let mut table = Table::new([
            "target",
            "mct ipc",
            "mct life",
            "ideal ipc",
            "ideal life",
            "mct/ideal ipc",
        ]);
        for (target, m) in TARGETS.into_iter().zip(&deploy.metrics) {
            let ideal = ideal_for(ds, &Objective::paper_default(target));
            table.row([
                format!("{target:.0}y"),
                format!("{:.3}", m.ipc),
                format!("{:.1}", m.lifetime_years.min(99.0)),
                format!("{:.3}", ideal.metrics.ipc),
                format!("{:.1}", ideal.metrics.lifetime_years.min(99.0)),
                format!("{:.1}%", 100.0 * m.ipc / ideal.metrics.ipc),
            ]);
        }
        writeln!(out, "-- {} --", w.name())?;
        write!(out, "{}", table.render())?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "Expected shape (paper Fig. 8): higher lifetime targets reduce the\n\
         achievable IPC for both MCT and the ideal; MCT tracks the trend, and\n\
         the wear-quota fixup keeps lifetimes near the target even when the\n\
         prediction overestimated."
    )?;
    Ok(())
}
