//! Emit `BENCH_fitpath.json`: wall-clock numbers for the training paths
//! (GBRT fit, controller predictor refit for both learners) and the
//! paper's Table 7 overhead column (fit plus `predict_all` per model).
//!
//! Run with `cargo run --release -p mct-bench --bin fitpath [-- [--json] [out.json]]`.
//! With `--json` the report goes to stdout only (progress lines stay on
//! stderr) and no file is written unless a path is also given — the mode
//! CI and scripts consume. Any other flag, or a second path, is a usage
//! error (exit 2) before anything is measured. The measurements use only
//! long-stable API (`GradientBoosting`, `MetricsPredictor`, `ConfigSpace`,
//! the `mct_bench` fixtures), so the same measuring code builds against
//! older trees and `BENCH_fitpath.json` records a like-for-like A/B.

use std::time::Instant;

use mct_core::{ConfigSpace, MetricsPredictor, ModelKind};
use mct_ml::{Dataset, GradientBoosting, GradientBoostingParams, Regressor, TreeParams};

/// GBRT-shaped training set: `n` rows, 8 features, rough interactions.
fn gbrt_data(n: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..8)
                .map(|j| ((i * (2 * j + 3)) % (17 + j)) as f64)
                .collect()
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| (r[0] * r[4]).sin() * 4.0 + r[1] * 0.3 - r[6] + (r[2] - r[7]).abs())
        .collect();
    Dataset::from_rows(rows, y)
}

/// Best-of-`iters` wall time (ms) for one full GBRT fit.
fn gbrt_fit_ms(data: &Dataset, stages: usize, iters: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let mut model = GradientBoosting::new(GradientBoostingParams {
            stages,
            learning_rate: 0.1,
            subsample: 0.8,
            tree: TreeParams {
                max_depth: 4,
                min_leaf: 2,
            },
            seed: 7,
        });
        let start = Instant::now();
        model.fit(data);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(model.predict(&data.rows()[0]).is_finite());
        best = best.min(ms);
    }
    best
}

/// Best-of-`iters` wall time (ms) for a controller predictor refit (the
/// three per-objective fits the segment loop pays on every retrain).
fn refit_ms(kind: ModelKind, iters: usize) -> f64 {
    let samples = mct_bench::synthetic_samples(84, 11);
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let mut p = MetricsPredictor::new(kind);
        let start = Instant::now();
        p.fit(&samples, None);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Best-of-`iters` wall time (ms) for one Table 7 overhead cell: a fresh
/// `kind` predictor fit on 80 synthetic samples, then `predict_all` over
/// the 2,030-config quota-free space. Offline and hierarchical get a
/// 4-application corpus, attached before the clock starts.
fn table7_ms(kind: ModelKind, iters: usize) -> f64 {
    let samples = mct_bench::synthetic_samples(80, 42);
    let space = ConfigSpace::without_wear_quota();
    let corpus = mct_bench::synthetic_corpus(4);
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let mut p = MetricsPredictor::new(kind);
        if kind.needs_offline_data() {
            p = p.with_corpus(corpus.clone());
        }
        let start = Instant::now();
        p.fit(&samples, None);
        let out = p.predict_all(&space);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(out.len(), space.len());
        best = best.min(ms);
    }
    best
}

fn main() {
    let args = mct_bench::snapshot_args_or_exit();
    eprintln!("measuring GBRT fit...");
    let tree_data = gbrt_data(1024);
    let gbrt_warm = gbrt_fit_ms(&tree_data, 80, 1);
    let gbrt_ms = gbrt_fit_ms(&tree_data, 80, 3).min(gbrt_warm);

    eprintln!("measuring controller refits...");
    let refit_gbrt_ms = refit_ms(ModelKind::GradientBoosting, 3);
    let refit_lasso_ms = refit_ms(ModelKind::QuadraticLasso, 3);

    eprintln!("measuring Table 7 fit + predict_all...");
    let table7: Vec<(String, String)> = ModelKind::all()
        .into_iter()
        .map(|kind| {
            (
                format!("table7_fit_predict_all_ms.{}", kind.short_label()),
                format!("{:.3}", table7_ms(kind, 10)),
            )
        })
        .collect();

    let mut fields = vec![
        ("gbrt_rows", tree_data.len().to_string()),
        ("gbrt_stages", "80".into()),
        ("gbrt_fit_ms", format!("{gbrt_ms:.3}")),
        ("refit_gbrt_ms", format!("{refit_gbrt_ms:.3}")),
        ("refit_quad_lasso_ms", format!("{refit_lasso_ms:.3}")),
    ];
    fields.extend(table7.iter().map(|(k, v)| (k.as_str(), v.clone())));
    mct_bench::emit_snapshot("BENCH_fitpath.json", &args, &fields);
}
