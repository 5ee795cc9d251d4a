//! Release-mode differential suite for the fast fit paths.
//!
//! The training overhaul (warm-started lasso paths, fold-cached CV)
//! promises *bit-identity*, not just closeness: warm-started coordinate
//! descent must land on the same `to_bits()` fixpoint as a cold start.
//! These tests pin that contract on realistic problem shapes
//! (quadratic-expanded feature spaces) plus the degenerate shapes the
//! controller can feed the learners (single row, constant target,
//! oversized k).
//!
//! Run in release (CI's determinism job does): optimization levels must
//! not change the bits either.

use mct_ml::{
    lasso_path_fits, quadratic_expand, Dataset, GradientBoosting, GradientBoostingParams,
    HierarchicalPredictor, LassoFoldCache, Regressor,
};

/// A deterministic, mildly noisy nonlinear dataset, quadratic-expanded
/// like the controller's quad-lasso feature space.
fn quad_data(n: usize) -> Dataset {
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

#[test]
fn warm_lasso_path_is_bitwise_equal_to_cold_start() {
    let data = quad_data(84); // the controller's sample-set size
    let cache = LassoFoldCache::new(&data, 4);
    let warm = lasso_path_fits(&cache, 1e-3, 1e2, 12, true);
    let cold = lasso_path_fits(&cache, 1e-3, 1e2, 12, false);
    assert_eq!(warm.len(), cold.len());
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(w.lambda.to_bits(), c.lambda.to_bits());
        assert_eq!(w.nonzero, c.nonzero, "lambda={}", w.lambda);
        for (a, b) in w.weights.iter().zip(&c.weights) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "full-fit weight diverged at lambda={}",
                w.lambda
            );
        }
        for (fa, fb) in w.fold_weights.iter().zip(&c.fold_weights) {
            for (a, b) in fa.iter().zip(fb) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "fold weight diverged at lambda={}",
                    w.lambda
                );
            }
        }
    }
}

#[test]
fn warm_lasso_path_cv_scores_match_cold_bitwise() {
    let data = quad_data(60);
    let cache = LassoFoldCache::new(&data, 5);
    let warm = lasso_path_fits(&cache, 1e-2, 10.0, 8, true);
    let cold = lasso_path_fits(&cache, 1e-2, 10.0, 8, false);
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(w.cv_r2.to_bits(), c.cv_r2.to_bits(), "lambda={}", w.lambda);
    }
}

/// Nine offline applications over a shared 48-config grid, each a
/// different smooth function of the knobs (the leave-one-out corpus
/// shape Figure 2 hands the hierarchical model).
fn hier_corpus() -> Vec<Dataset> {
    let rows: Vec<Vec<f64>> = (0..48)
        .map(|i| {
            vec![
                (i % 4) as f64,
                ((i / 4) % 3) as f64 * 1.5,
                ((i / 12) % 4) as f64 * 0.75,
            ]
        })
        .collect();
    (0..9)
        .map(|app| {
            let a = app as f64;
            let y = rows
                .iter()
                .map(|r| 1.0 + 0.3 * a + (0.5 + 0.1 * a) * r[0] - r[1] * r[2] / (1.0 + a))
                .collect();
            Dataset::from_rows(rows.clone(), y)
        })
        .collect()
}

#[test]
fn hierarchical_fit_matches_blessed_bits() {
    let corpus = hier_corpus();
    let mut model = HierarchicalPredictor::from_applications(&corpus);
    // Online samples of an unseen mixture of apps 2 and 6, plus one
    // config no offline app measured (it falls back to the global mean).
    let mut rows: Vec<Vec<f64>> = (0..16).map(|i| corpus[0].rows()[i * 3].clone()).collect();
    let mut y: Vec<f64> = (0..16)
        .map(|i| 0.4 * corpus[2].example(i * 3).1 + 0.6 * corpus[6].example(i * 3).1)
        .collect();
    rows.push(vec![9.0, 9.0, 9.0]);
    y.push(2.5);
    model.fit(&Dataset::from_rows(rows, y));

    let weights: Vec<u64> = model.weights().iter().map(|w| w.to_bits()).collect();
    let probes = [
        vec![0.0, 0.0, 0.0],
        vec![3.0, 3.0, 2.25],
        vec![1.0, 1.5, 0.75],
        vec![9.0, 9.0, 9.0],
    ];
    let preds: Vec<u64> = probes.iter().map(|r| model.predict(r).to_bits()).collect();
    assert_eq!(weights, HIER_WEIGHTS);
    assert_eq!(preds, HIER_PREDS);
}

/// Pinned fit bits: the design matrix's memory layout and the gradient
/// buffer's reuse must not change a single weight or prediction.
const HIER_WEIGHTS: [u64; 9] = [
    0x3fb4dde4160920f9,
    0x3f96a614b32d5b58,
    0x3f9c005e8bbd348a,
    0x3fa8f2cce1d76729,
    0x3fb39a33c871e064,
    0x3fbb8ec064bcf09f,
    0x3fc1fe264b0565ec,
    0x3fc65abc423d32e7,
    0x3fcad08778803f97,
];
const HIER_PREDS: [u64; 4] = [
    0x4002a6c18e9459b7,
    0x400d647b337823b8,
    0x4008247e8c32a251,
    0x4005774d45f477d3,
];

// --- Degenerate fits: the shapes a controller segment can hand us. ---

#[test]
#[should_panic(expected = "non-empty")]
fn zero_row_dataset_is_rejected_at_construction() {
    let _ = Dataset::from_rows(Vec::new(), Vec::new());
}

#[test]
fn single_row_gbrt_fits_a_constant() {
    let data = Dataset::from_rows(vec![vec![1.0, 2.0]], vec![5.0]);
    let mut model = GradientBoosting::new(GradientBoostingParams::default());
    model.fit(&data);
    assert!((model.predict(&[9.0, 9.0]) - 5.0).abs() < 1e-9);
}

#[test]
fn constant_target_lasso_path_selects_nothing() {
    let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i % 3) as f64]).collect();
    let data = Dataset::from_rows(rows, vec![4.25; 20]);
    let cache = LassoFoldCache::new(&data, 4);
    for fit in lasso_path_fits(&cache, 1e-3, 1.0, 5, true) {
        assert_eq!(fit.nonzero, 0);
        assert!(fit.weights.iter().all(|w| *w == 0.0));
    }
}

#[test]
fn constant_feature_column_never_enters_the_model() {
    // A zero-variance column has zero Gram diagonal after
    // standardization; the solver must skip it, warm or cold.
    let rows: Vec<Vec<f64>> = (0..30)
        .map(|i| vec![(i % 7) as f64, 3.5, ((i * 5) % 9) as f64])
        .collect();
    let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - r[2]).collect();
    let data = Dataset::from_rows(rows, y);
    let cache = LassoFoldCache::new(&data, 4);
    for warm in [true, false] {
        for fit in lasso_path_fits(&cache, 1e-3, 10.0, 6, warm) {
            assert_eq!(fit.weights[1], 0.0, "constant column got weight");
        }
    }
}
