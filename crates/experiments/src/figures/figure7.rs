//! Figure 7 + Table 10: the headline result.
//!
//! Compares MCT (gradient boosting and quadratic-lasso) against the
//! default, the best static policy, and the brute-force ideal, under the
//! 8-year objective, for all ten workloads. The paper's headline: MCT-GB
//! gains ~9.2% IPC and saves ~8.0% energy vs the static policy, reaching
//! ~94.5% of ideal performance with ~5.3% extra energy.

use std::io::{self, Write};

use mct_core::{ModelKind, NvmConfig, Objective};
use mct_workloads::Workload;

use crate::cache::{load_or_compute_sweeps, strided_configs, SweepRequest};
use crate::figures::{cached_mct_outcomes, geomean, MctRun};
use crate::ideal::ideal_for;
use crate::report::{config_table_header, config_table_row, Table};
use crate::runner::EXPERIMENT_SEED;
use crate::scale::Scale;

/// Render Figure 7 and Table 10.
pub fn run(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "== Figure 7 / Table 10: MCT vs default/static/ideal, 8-year target (scale: {scale}) ==\n"
    )?;
    let full_configs = strided_configs(mct_core::ConfigSpace::full(8.0).configs(), scale);
    let objective = Objective::paper_default(8.0);

    let mut fig = Table::new([
        "workload",
        "ipc def",
        "ipc static",
        "ipc mct-gb",
        "ipc mct-ql",
        "ipc ideal",
        "life mct-gb",
        "nJ/inst static",
        "nJ/inst mct-gb",
        "nJ/inst ideal",
    ]);
    let mut table10 = Table::new(config_table_header());
    table10.row(config_table_row("static", &NvmConfig::static_baseline()));

    let requests: Vec<SweepRequest> = Workload::all()
        .into_iter()
        .map(|w| SweepRequest {
            workload: w,
            configs: full_configs.clone(),
        })
        .collect();
    let datasets = load_or_compute_sweeps(&requests, scale, EXPERIMENT_SEED);

    // Both learners' controller runs for every workload, as one batch.
    const KINDS: [ModelKind; 2] = [ModelKind::GradientBoosting, ModelKind::QuadraticLasso];
    let runs: Vec<MctRun> = Workload::all()
        .into_iter()
        .flat_map(|workload| {
            KINDS.map(|kind| MctRun {
                workload,
                kind,
                total_insts: scale.controller_insts(),
                target_years: 8.0,
            })
        })
        .collect();
    let outcomes = cached_mct_outcomes(&runs, scale, EXPERIMENT_SEED);
    // The *deployment* of each chosen configuration is measured with the
    // same long-window methodology as the default/static/ideal references
    // (the paper's testing period is 2B instructions — long enough that
    // short-window drain artifacts vanish; our scaled windows are not, so
    // the deployed choice is re-measured on the shared rig; the
    // runtime-overhead story lives in figure9).
    let deploy_requests: Vec<SweepRequest> = Workload::all()
        .into_iter()
        .zip(outcomes.chunks(KINDS.len()))
        .map(|(workload, pair)| SweepRequest {
            workload,
            configs: pair.iter().map(|o| o.chosen_config).collect(),
        })
        .collect();
    let deployed = load_or_compute_sweeps(&deploy_requests, scale, EXPERIMENT_SEED);

    let mut gb_vs_static_ipc = Vec::new();
    let mut gb_vs_static_energy = Vec::new();
    let mut gb_vs_ideal_ipc = Vec::new();
    let mut gb_vs_ideal_energy = Vec::new();
    let mut ql_vs_static_ipc = Vec::new();
    let mut ql_vs_static_energy = Vec::new();
    let mut gb_lifetimes_ok = 0;

    for ((w, ds), deploy) in Workload::all().into_iter().zip(&datasets).zip(&deployed) {
        let sweep_insts = w.detailed_insts(scale.detailed_factor()) as f64;
        let def = ds
            .metrics_of(&NvmConfig::default_config())
            .expect("default");
        let stat = ds
            .metrics_of(&NvmConfig::static_baseline())
            .expect("static");
        let ideal = ideal_for(ds, &objective);
        let (gb, ql) = (deploy.metrics[0], deploy.metrics[1]);
        let gb_epi = gb.energy_j / sweep_insts;
        let ql_epi = ql.energy_j / sweep_insts;
        let stat_epi = stat.energy_j / sweep_insts;
        let ideal_epi = ideal.metrics.energy_j / sweep_insts;

        fig.row([
            w.name().to_string(),
            format!("{:.3}", def.ipc),
            format!("{:.3}", stat.ipc),
            format!("{:.3}", gb.ipc),
            format!("{:.3}", ql.ipc),
            format!("{:.3}", ideal.metrics.ipc),
            format!("{:.1}", gb.lifetime_years.min(99.0)),
            format!("{:.3}", stat_epi * 1e9),
            format!("{:.3}", gb_epi * 1e9),
            format!("{:.3}", ideal_epi * 1e9),
        ]);
        table10.row(config_table_row(w.name(), &deploy.configs[0]));

        gb_vs_static_ipc.push(gb.ipc / stat.ipc);
        // Energy is compared per instruction: window lengths differ
        // between the sweep and controller measurements.
        gb_vs_static_energy.push(gb_epi / stat_epi);
        gb_vs_ideal_ipc.push(gb.ipc / ideal.metrics.ipc);
        gb_vs_ideal_energy.push(gb_epi / ideal_epi);
        ql_vs_static_ipc.push(ql.ipc / stat.ipc);
        ql_vs_static_energy.push(ql_epi / stat_epi);
        if gb.lifetime_years >= 8.0 * 0.9 {
            gb_lifetimes_ok += 1;
        }
    }
    write!(out, "{}", fig.render())?;

    writeln!(out, "\n-- headline numbers (geomean over 10 workloads) --")?;
    writeln!(
        out,
        "MCT-GB vs static:   IPC {:+.2}%   energy {:+.2}%   (paper: +9.24% / -7.95%)",
        (geomean(&gb_vs_static_ipc) - 1.0) * 100.0,
        (geomean(&gb_vs_static_energy) - 1.0) * 100.0
    )?;
    writeln!(
        out,
        "MCT-QL vs static:   IPC {:+.2}%   energy {:+.2}%   (paper: +6% / -5.3%)",
        (geomean(&ql_vs_static_ipc) - 1.0) * 100.0,
        (geomean(&ql_vs_static_energy) - 1.0) * 100.0
    )?;
    writeln!(
        out,
        "MCT-GB vs ideal:    IPC {:.2}% of ideal, energy {:+.2}% (paper: 94.49% / +5.3%)",
        geomean(&gb_vs_ideal_ipc) * 100.0,
        (geomean(&gb_vs_ideal_energy) - 1.0) * 100.0
    )?;
    writeln!(
        out,
        "MCT-GB lifetime >= ~8y on {gb_lifetimes_ok}/10 workloads"
    )?;

    writeln!(out, "\n== Table 10: MCT-GB selected configurations ==\n")?;
    write!(out, "{}", table10.render())?;
    writeln!(
        out,
        "\nEnergy columns are per-instruction (nJ/inst) so sweep and controller\nwindows of different lengths compare fairly."
    )?;
    Ok(())
}
