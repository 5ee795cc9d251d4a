//! Figure 10 + Table 11: multi-program workloads on the 4-core system.
//!
//! Compares default, the static policy, and MCT (gradient boosting) on
//! the six Table 11 mixes: normalized geomean IPC and memory lifetime
//! against the 8-year floor.

use std::io::{self, Write};

use mct_workloads::Mix;

use crate::cache::{derived_key, derived_store};
use crate::mix_mct::{run_mix_all, MixOutcome};
use crate::report::Table;
use crate::runner::EXPERIMENT_SEED;
use crate::scale::Scale;

/// Render Figure 10 and Table 11.
pub fn run(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "== Figure 10 / Table 11: multi-program mixes (scale: {scale}) ==\n"
    )?;

    let mut table11 = Table::new(["mix", "members"]);
    for m in Mix::all() {
        let names: Vec<&str> = m.members().iter().map(|w| w.name()).collect();
        table11.row([m.name().to_string(), names.join(", ")]);
    }
    write!(out, "{}", table11.render())?;
    writeln!(out)?;

    // Mix runs warm an 8 MB shared LLC each — by far the most expensive
    // derived results, so all three policy outcomes are cached as one
    // unit. The six units are one round: a worker runs a whole unit,
    // its warmup and its 32 MCT samples serially, so each worker holds
    // one mix rig and one measurement clone at a time.
    let units: Vec<(u64, Mix)> = Mix::all()
        .into_iter()
        .map(|m| {
            let key = derived_key(&format!("mix_all/{}", m.name()), EXPERIMENT_SEED, &[8.0]);
            (key, m)
        })
        .collect();
    let store = derived_store(scale, EXPERIMENT_SEED);
    let outcomes: Vec<[MixOutcome; 3]> =
        store.get_or_compute_many(&units, |&m| run_mix_all(m, scale, EXPERIMENT_SEED, 8.0));
    let mut fig = Table::new([
        "mix",
        "ipc(def)/static",
        "ipc(mct)/static",
        "life def",
        "life static",
        "life mct",
        "fairness mct",
        "mct config",
    ]);
    let mut mct_gain = Vec::new();
    let mut mct_meets = 0;
    for ((_, m), [def, stat, mct]) in units.iter().zip(&outcomes) {
        fig.row([
            m.name().to_string(),
            format!("{:.3}", def.geomean_ipc / stat.geomean_ipc),
            format!("{:.3}", mct.geomean_ipc / stat.geomean_ipc),
            format!("{:.1}", def.lifetime_years.min(99.0)),
            format!("{:.1}", stat.lifetime_years.min(99.0)),
            format!("{:.1}", mct.lifetime_years.min(99.0)),
            format!("{:.2}", mct.fairness),
            mct.config.to_string(),
        ]);
        mct_gain.push(mct.geomean_ipc / stat.geomean_ipc);
        if mct.lifetime_years >= 8.0 * 0.9 {
            mct_meets += 1;
        }
    }
    write!(out, "{}", fig.render())?;
    let gm = (mct_gain.iter().map(|x| x.ln()).sum::<f64>() / mct_gain.len() as f64).exp();
    writeln!(
        out,
        "\nMCT vs static (geomean IPC): {:+.1}%  (paper: ~+20%); lifetime >= ~8y on {}/6 mixes",
        (gm - 1.0) * 100.0,
        mct_meets
    )?;
    writeln!(
        out,
        "\nExpected shape (paper Fig. 10): MCT beats the static policy on geomean\n\
         IPC while satisfying the 8-year floor; default violates the floor."
    )?;
    Ok(())
}
