//! Emit `BENCH_fitpath.json`: wall-clock numbers for the three training
//! paths (quad-lasso CV path, GBRT fit, controller predictor refit).
//!
//! Run with `cargo run --release -p mct-bench --bin fitpath [-- [--json] [out.json]]`.
//! With `--json` the report goes to stdout only (progress lines stay on
//! stderr) and no file is written unless a path is also given — the mode
//! CI and scripts consume. The measurements use only long-stable API
//! (`lasso_path`, `GradientBoosting`, `MetricsPredictor`), so the same
//! measuring code builds against older trees and `BENCH_fitpath.json`
//! records a like-for-like A/B.

use std::time::Instant;

use mct_core::{MetricsPredictor, ModelKind};
use mct_ml::{
    lasso_path, quadratic_expand, Dataset, GradientBoosting, GradientBoostingParams, Regressor,
    TreeParams,
};

/// Controller-shaped quad-lasso training set: `n` sampled configs, four
/// base knobs, quadratic expansion (15 columns), nonlinear target.
fn quad_lasso_data(n: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let a = (i % 13) as f64;
            let b = ((i * 7) % 11) as f64;
            let c = ((i * 3) % 17) as f64 / 4.0;
            let d = ((i * 31) % 23) as f64 / 8.0;
            quadratic_expand(&[a, b, c, d])
        })
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let a = (i % 13) as f64;
            let c = ((i * 3) % 17) as f64 / 4.0;
            3.0 * a - 1.5 * a * c + 0.25 * c * c + ((i * 5) % 7) as f64 * 0.01
        })
        .collect();
    Dataset::from_rows(rows, y)
}

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

/// Best-of-`iters` wall time (ms) for a full k-fold lasso path over the
/// log-spaced lambda grid the controller sweeps.
fn quad_lasso_path_ms(data: &Dataset, iters: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        let path = lasso_path(data, 1e-3, 1e2, 30, 5);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(path.len(), 30);
        // Fold into a checksum so the fits cannot be elided.
        let checksum: f64 = path.iter().map(|p| p.cv_r2).sum();
        assert!(checksum.is_finite());
        best = best.min(ms);
    }
    best
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

fn main() {
    eprintln!("measuring quad-lasso CV path...");
    let lasso_data = quad_lasso_data(84);
    let lasso_warm = quad_lasso_path_ms(&lasso_data, 2);
    let lasso_ms = quad_lasso_path_ms(&lasso_data, 5).min(lasso_warm);

    eprintln!("measuring GBRT fit...");
    let tree_data = gbrt_data(1024);
    let gbrt_warm = gbrt_fit_ms(&tree_data, 80, 1);
    let gbrt_ms = gbrt_fit_ms(&tree_data, 80, 3).min(gbrt_warm);

    eprintln!("measuring controller refits...");
    let refit_gbrt_ms = refit_ms(ModelKind::GradientBoosting, 3);
    let refit_lasso_ms = refit_ms(ModelKind::QuadraticLasso, 3);

    mct_bench::emit_snapshot(
        "BENCH_fitpath.json",
        &[
            ("quad_lasso_rows", lasso_data.len().to_string()),
            ("quad_lasso_lambdas", "30".into()),
            ("quad_lasso_folds", "5".into()),
            ("quad_lasso_cv_path_ms", format!("{lasso_ms:.3}")),
            ("gbrt_rows", tree_data.len().to_string()),
            ("gbrt_stages", "80".into()),
            ("gbrt_fit_ms", format!("{gbrt_ms:.3}")),
            ("refit_gbrt_ms", format!("{refit_gbrt_ms:.3}")),
            ("refit_quad_lasso_ms", format!("{refit_lasso_ms:.3}")),
        ],
    );
}
