//! Figure 3: including wear quota in the learned space degrades
//! prediction accuracy.
//!
//! Trains gradient boosting on a feature-stratified sample (one
//! configuration per primary-feature class, the paper's 77-sample recipe)
//! of (a) the wear-quota-free sweep and (b) the full sweep including
//! quota configurations, then scores accuracy over the respective space.
//! The paper reports 2–6% degradation when quota is included.

use std::io::{self, Write};

use mct_core::{ConfigSpace, MetricsPredictor, ModelKind};
use mct_workloads::Workload;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::r2_by_objective;
use crate::cache::{load_or_compute_sweeps, strided_configs, SweepDataset, SweepRequest};
use crate::report::Table;
use crate::runner::EXPERIMENT_SEED;
use crate::scale::Scale;

const WORKLOADS: [Workload; 3] = [Workload::Lbm, Workload::Leslie3d, Workload::Stream];

/// Train on one member per primary-feature class; score R^2 over the
/// whole dataset on every objective from that one fit.
fn accuracy(ds: &SweepDataset, seed: u64) -> [f64; 3] {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut classes: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, c) in ds.configs.iter().enumerate() {
        let key = format!(
            "{:.1}/{:.1}/{}{}",
            c.fast_latency,
            c.slow_latency,
            u8::from(c.fast_cancellation),
            u8::from(c.slow_cancellation)
        );
        match classes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(i),
            None => classes.push((key, vec![i])),
        }
    }
    let pairs = ds.pairs();
    let train: Vec<_> = classes
        .iter()
        .map(|(_, members)| pairs[*members.choose(&mut rng).expect("nonempty")])
        .collect();
    let mut predictor = MetricsPredictor::new(ModelKind::GradientBoosting);
    predictor.fit(&train, None);
    r2_by_objective(&predictor, &pairs)
}

/// Render Figure 3.
pub fn run(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "== Figure 3: wear quota in vs out of the learned space (scale: {scale}) ==\n"
    )?;
    let full_space = ConfigSpace::full(8.0);
    let free_space = ConfigSpace::without_wear_quota();
    let full_configs = strided_configs(full_space.configs(), scale);
    let free_configs = strided_configs(free_space.configs(), scale);

    // Six sweeps (3 workloads x {free, full} space) in one batch:
    // requests alternate free/full per workload.
    let mut requests: Vec<SweepRequest> = Vec::new();
    for w in WORKLOADS {
        requests.push(SweepRequest {
            workload: w,
            configs: free_configs.clone(),
        });
        requests.push(SweepRequest {
            workload: w,
            configs: full_configs.clone(),
        });
    }
    let datasets = load_or_compute_sweeps(&requests, scale, EXPERIMENT_SEED);
    let r2: Vec<[f64; 3]> = datasets.iter().map(|ds| accuracy(ds, 11)).collect();

    for (dim, obj) in ["ipc", "energy"]
        .iter()
        .enumerate()
        .map(|(i, o)| (i * 2, o))
    {
        writeln!(out, "-- objective: {obj} --\n")?;
        let mut table = Table::new([
            "workload",
            "R2 excl. quota",
            "R2 incl. quota",
            "degradation",
        ]);
        for (wi, w) in WORKLOADS.into_iter().enumerate() {
            let free_r2 = r2[2 * wi][dim];
            let full_r2 = r2[2 * wi + 1][dim];
            table.row([
                w.name().to_string(),
                format!("{free_r2:.3}"),
                format!("{full_r2:.3}"),
                format!("{:+.1}%", (full_r2 - free_r2) * 100.0),
            ]);
        }
        write!(out, "{}", table.render())?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "Expected shape (paper Fig. 3): accuracy degrades by a few percent when\n\
         wear-quota configurations join the space — which is why MCT excludes\n\
         quota from learning and applies it as a post-hoc fixup (Section 4.4)."
    )?;
    Ok(())
}
