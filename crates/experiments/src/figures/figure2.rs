//! Figure 2 (+ Table 7's accuracy/requirements columns): predictor
//! comparison — convergence rate and prediction accuracy vs number of
//! training samples.
//!
//! For each application, models train on N random sample configurations
//! from the sweep dataset and are scored by coefficient of determination
//! (paper Eq. 3) over the full remaining space; results average over the
//! ten applications. Offline/hierarchical models receive the other nine
//! applications as their offline corpus (leave-one-out).
//!
//! As in the paper, one predictor models all three objectives: each
//! (model, n, application) cell is fit once and that fit is scored on
//! IPC, lifetime and energy, so the three objective tables come from one
//! `r2[model][n][app]` table (350 fits).
//!
//! A cell whose eval set would fall below [`MIN_EVAL_ROWS`] is not fit
//! and prints `n/a`: at smoke scale the strided sweep has ~64 rows, so the
//! n=80 and n=160 columns would score on one row.

use std::io::{self, Write};

use mct_core::predictor::AppCorpus;
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

const SAMPLE_SIZES: [usize; 5] = [10, 20, 40, 80, 160];
/// Fewest eval rows an R^2 is reported from.
const MIN_EVAL_ROWS: usize = 16;
const OBJECTIVES: [&str; 3] = ["IPC", "lifetime", "energy"];

/// Fit one `kind` predictor on `n_samples` random rows of application
/// `app` and score it on the remaining rows: one fit, every objective's
/// R^2. Offline/hierarchical kinds get the other applications as corpus.
fn r2_for(
    kind: ModelKind,
    apps: &[AppCorpus],
    app: usize,
    n_samples: usize,
    seed: u64,
) -> [f64; 3] {
    let pairs = &apps[app];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..pairs.len()).collect();
    idx.shuffle(&mut rng);
    let (train_idx, eval_idx) = idx.split_at(n_samples.min(idx.len() - 1));
    let rows = |ix: &[usize]| -> Vec<_> { ix.iter().map(|&i| pairs[i]).collect() };

    let mut predictor = MetricsPredictor::new(kind);
    if kind.needs_offline_data() {
        let others = apps.iter().enumerate().filter(|(j, _)| *j != app);
        predictor = predictor.with_corpus(others.map(|(_, p)| p.clone()).collect());
    }
    predictor.fit(&rows(train_idx), None);
    r2_by_objective(&predictor, &rows(eval_idx))
}

/// Render Figure 2 and Table 7.
pub fn run(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "== Figure 2: convergence & accuracy of the predictors (scale: {scale}) =="
    )?;
    let space = ConfigSpace::without_wear_quota();
    let configs = strided_configs(space.configs(), scale);
    let requests: Vec<SweepRequest> = Workload::all()
        .into_iter()
        .map(|w| SweepRequest {
            workload: w,
            configs: configs.clone(),
        })
        .collect();
    let apps: Vec<AppCorpus> = load_or_compute_sweeps(&requests, scale, EXPERIMENT_SEED)
        .iter()
        .map(SweepDataset::pairs)
        .collect();

    // r2[kind][n][app]: every objective's score from one fit per cell,
    // `None` (no fit) when fewer than MIN_EVAL_ROWS rows would be scored.
    let r2: Vec<Vec<Vec<Option<[f64; 3]>>>> = ModelKind::all()
        .into_iter()
        .map(|kind| {
            SAMPLE_SIZES
                .iter()
                .map(|&n| {
                    (0..apps.len())
                        .map(|ai| {
                            (apps[ai].len() >= n + MIN_EVAL_ROWS)
                                .then(|| r2_for(kind, &apps, ai, n, 7 + n as u64))
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    for (dim, obj) in OBJECTIVES.iter().enumerate() {
        writeln!(
            out,
            "\n-- objective: {obj} (mean R^2 over 10 applications) --\n"
        )?;
        let mut table = Table::new(
            std::iter::once("model".to_string())
                .chain(SAMPLE_SIZES.iter().map(|n| format!("n={n}")))
                .collect::<Vec<_>>(),
        );
        for (kind, by_n) in ModelKind::all().into_iter().zip(&r2) {
            let mut cells = vec![kind.label().to_string()];
            for by_app in by_n {
                // Summed in app order from 0.0: the printed bits depend on it.
                let sum = by_app
                    .iter()
                    .try_fold(0.0, |s, r| Some(s + r.as_ref()?[dim]));
                cells.push(sum.map_or_else(
                    || "n/a".to_string(),
                    |sum| format!("{:.3}", sum / by_app.len() as f64),
                ));
            }
            table.row(cells);
        }
        write!(out, "{}", table.render())?;
    }

    writeln!(
        out,
        "\n== Table 7: data requirements (overheads: `BENCH_fitpath.json`, written by `fitpath`) ==\n"
    )?;
    let mut t7 = Table::new(["predictor", "needs offline data?", "needs online data?"]);
    t7.row(["offline", "yes", "no"]);
    t7.row(["linear model, no regularization", "no", "yes"]);
    t7.row(["linear model, lasso regularization", "no", "yes"]);
    t7.row(["quadratic model, no regularization", "no", "yes"]);
    t7.row(["quadratic model, lasso regularization", "no", "yes"]);
    t7.row(["gradient boosting", "no", "yes"]);
    t7.row(["hierarchical Bayesian model", "yes", "yes"]);
    write!(out, "{}", t7.render())?;
    writeln!(
        out,
        "\nExpected shape (paper Fig. 2/Table 7): gradient boosting and quadratic-\n\
         lasso converge to high accuracy by ~80 samples; quadratic without\n\
         regularization converges slowly; offline is weakest on IPC/energy."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_core::predictor::LIFETIME_CLAMP_YEARS;
    use mct_ml::coefficient_of_determination;
    use mct_sim::stats::Metrics;

    /// Ten synthetic applications over the smoke-scale space, each a
    /// different deterministic function of the configuration vector.
    fn synthetic_datasets() -> Vec<SweepDataset> {
        let configs = strided_configs(ConfigSpace::without_wear_quota().configs(), Scale::Smoke);
        (0..10)
            .map(|app| {
                let a = f64::from(app);
                let metrics = configs
                    .iter()
                    .map(|c| {
                        let v = c.to_vector();
                        let s: f64 = v
                            .iter()
                            .enumerate()
                            .map(|(i, x)| x * ((i + app as usize) % 5 + 1) as f64 / 10.0)
                            .sum();
                        Metrics::from_array([
                            1.0 + 0.1 * a - 0.02 * s,
                            60.0 * (1.0 + a) + 5.0 * s * s,
                            0.5 + 0.01 * s + 0.001 * v[0] * v[1],
                        ])
                    })
                    .collect();
                SweepDataset {
                    version: 0,
                    workload: format!("synthetic{app}"),
                    scale: Scale::Smoke.tag().to_string(),
                    stride: Scale::Smoke.space_stride(),
                    configs: configs.clone(),
                    metrics,
                }
            })
            .collect()
    }

    /// One fit per objective, scoring only that objective.
    fn reference_r2(
        kind: ModelKind,
        ds: &SweepDataset,
        corpus: &[&SweepDataset],
        n_samples: usize,
        dim: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..ds.configs.len()).collect();
        idx.shuffle(&mut rng);
        let (train_idx, eval_idx) = idx.split_at(n_samples.min(idx.len() - 1));
        let pairs = ds.pairs();
        let train: Vec<_> = train_idx.iter().map(|&i| pairs[i]).collect();
        let mut predictor = MetricsPredictor::new(kind);
        if kind.needs_offline_data() {
            predictor = predictor.with_corpus(corpus.iter().map(|d| d.pairs()).collect());
        }
        predictor.fit(&train, None);
        let preds: Vec<f64> = eval_idx
            .iter()
            .map(|&i| predictor.predict(&ds.configs[i]).to_array()[dim])
            .collect();
        let truth: Vec<f64> = eval_idx
            .iter()
            .map(|&i| pairs[i].1.to_array()[dim].min(LIFETIME_CLAMP_YEARS))
            .collect();
        coefficient_of_determination(&preds, &truth)
    }

    #[test]
    fn quick_and_full_sweeps_score_every_sample_size() {
        let space = ConfigSpace::without_wear_quota();
        for scale in [Scale::Quick, Scale::Full] {
            let rows = strided_configs(space.configs(), scale).len();
            let largest = SAMPLE_SIZES[SAMPLE_SIZES.len() - 1];
            assert!(rows >= largest + MIN_EVAL_ROWS, "{scale}: {rows} rows");
        }
    }

    #[test]
    fn one_fit_per_cell_matches_one_fit_per_objective_bitwise() {
        let datasets = synthetic_datasets();
        let apps: Vec<AppCorpus> = datasets.iter().map(SweepDataset::pairs).collect();
        for kind in ModelKind::all() {
            for n in [10, 20] {
                for (ai, ds) in datasets.iter().enumerate() {
                    let corpus: Vec<&SweepDataset> = datasets
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != ai)
                        .map(|(_, d)| d)
                        .collect();
                    let seed = 7 + n as u64;
                    let hoisted = r2_for(kind, &apps, ai, n, seed);
                    for (dim, got) in hoisted.iter().enumerate() {
                        let want = reference_r2(kind, ds, &corpus, n, dim, seed);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{kind:?} n={n} app={ai} dim={dim}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }
}
