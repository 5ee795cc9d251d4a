//! Figure 9: sampling overhead, and extrapolated gains as the testing
//! period grows relative to the sampling period (paper Eq. 4).

use std::io::{self, Write};

use mct_core::{ModelKind, NvmConfig};
use mct_workloads::Workload;

use crate::cache::{load_or_compute_sweeps, strided_configs, SweepRequest};
use crate::figures::{cached_mct_outcomes, geomean, MctRun};
use crate::report::Table;
use crate::runner::EXPERIMENT_SEED;
use crate::scale::Scale;

/// Render Figures 9a and 9b.
pub fn run(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "== Figure 9: sampling overhead & extrapolation (scale: {scale}) ==\n"
    )?;
    let full_configs = strided_configs(mct_core::ConfigSpace::full(8.0).configs(), scale);

    let requests: Vec<SweepRequest> = Workload::all()
        .into_iter()
        .map(|w| SweepRequest {
            workload: w,
            configs: full_configs.clone(),
        })
        .collect();
    let datasets = load_or_compute_sweeps(&requests, scale, EXPERIMENT_SEED);
    // The identical controller runs figure7 caches: same model, budget,
    // target, and seed — so one execution serves both.
    let runs: Vec<MctRun> = Workload::all()
        .into_iter()
        .map(|workload| MctRun {
            workload,
            kind: ModelKind::GradientBoosting,
            total_insts: scale.controller_insts(),
            target_years: 8.0,
        })
        .collect();
    let mct_outcomes = cached_mct_outcomes(&runs, scale, EXPERIMENT_SEED);

    let mut fig9a = Table::new([
        "workload",
        "sampling ipc / static",
        "testing ipc / static",
        "sampling nJ/i / static",
        "testing nJ/i / static",
    ]);
    let mut outcomes = Vec::new();
    let mut ipc_ratios_sampling = Vec::new();
    let mut ipc_ratios_testing = Vec::new();
    for ((w, ds), outcome) in Workload::all().into_iter().zip(&datasets).zip(mct_outcomes) {
        let sweep_insts = w.detailed_insts(scale.detailed_factor()) as f64;
        let stat = ds
            .metrics_of(&NvmConfig::static_baseline())
            .expect("static");
        let stat_epi = stat.energy_j / sweep_insts;

        let sampling_epi = outcome.sampling_metrics.energy_j / outcome.sampling_insts.max(1) as f64;
        let testing_epi = outcome.final_metrics.energy_j / outcome.testing_insts.max(1) as f64;
        fig9a.row([
            w.name().to_string(),
            format!("{:.3}", outcome.sampling_metrics.ipc / stat.ipc),
            format!("{:.3}", outcome.final_metrics.ipc / stat.ipc),
            format!("{:.3}", sampling_epi / stat_epi),
            format!("{:.3}", testing_epi / stat_epi),
        ]);
        ipc_ratios_sampling.push(outcome.sampling_metrics.ipc / stat.ipc);
        ipc_ratios_testing.push(outcome.final_metrics.ipc / stat.ipc);
        outcomes.push((w, outcome, stat, stat_epi));
    }
    writeln!(
        out,
        "-- Figure 9a: sampling vs testing period, normalized to static --\n"
    )?;
    write!(out, "{}", fig9a.render())?;
    writeln!(
        out,
        "\ngeomean: sampling {:.2}% of static IPC; testing {:.2}% of static IPC",
        geomean(&ipc_ratios_sampling) * 100.0,
        geomean(&ipc_ratios_testing) * 100.0
    )?;
    writeln!(
        out,
        "(paper: sampling 94.32% of baseline; testing 1.09x baseline)"
    )?;

    writeln!(
        out,
        "\n-- Figure 9b: extrapolated total IPC/energy vs alpha = testing/sampling --\n"
    )?;
    let alphas = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0];
    let mut fig9b = Table::new(
        std::iter::once("alpha".to_string())
            .chain(alphas.iter().map(|a| format!("{a:.0}")))
            .collect::<Vec<_>>(),
    );
    let mut ipc_row = vec!["total IPC / static (geomean)".to_string()];
    let mut en_row = vec!["total nJ/i / static (geomean)".to_string()];
    for &alpha in &alphas {
        let mut ipcs = Vec::new();
        let mut ens = Vec::new();
        for (_, outcome, stat, stat_epi) in &outcomes {
            ipcs.push(outcome.extrapolated_ipc(alpha) / stat.ipc);
            ens.push(outcome.extrapolated_energy_per_inst(alpha) / stat_epi);
        }
        ipc_row.push(format!("{:.3}", geomean(&ipcs)));
        en_row.push(format!("{:.3}", geomean(&ens)));
    }
    fig9b.row(ipc_row);
    fig9b.row(en_row);
    write!(out, "{}", fig9b.render())?;
    writeln!(
        out,
        "\nExpected shape (paper Fig. 9b): at alpha = 10, MCT retains most of its\n\
         gains (paper: +7.93% IPC, -6.7% energy vs static)."
    )?;
    Ok(())
}
