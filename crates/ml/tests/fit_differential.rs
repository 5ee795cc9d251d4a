//! Release-mode suite for the fit paths' bit-level contracts.
//!
//! The hierarchical fit is pinned to blessed `to_bits()` weights and
//! predictions: the design matrix's layout and the gradient buffer's
//! reuse must not change a single bit. The rest pins the degenerate
//! shapes a controller segment can hand the learners (zero rows, a single
//! row, a constant target, a constant feature column) on the solvers the
//! controller, Table 6 and Figure 4 actually run: `GradientBoosting` and
//! `LassoRegression` at fixed penalties.
//!
//! Run in release (CI's determinism job does): optimization levels must
//! not change the bits either.

use mct_ml::{
    Dataset, GradientBoosting, GradientBoostingParams, HierarchicalPredictor, LassoRegression,
    Regressor,
};

/// Penalties around the controller's fixed lambdas (0.01 for the
/// quad-lasso predictor, 0.002 for feature selection), spanning weak to
/// overwhelming.
const LAMBDAS: [f64; 6] = [1e-3, 2e-3, 1e-2, 0.1, 1.0, 10.0];

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
fn constant_target_lasso_selects_nothing() {
    let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i % 3) as f64]).collect();
    let data = Dataset::from_rows(rows, vec![4.25; 20]);
    for lambda in LAMBDAS {
        let mut model = LassoRegression::new(lambda);
        model.fit(&data);
        assert!(
            model.weights().iter().all(|w| *w == 0.0),
            "lambda={lambda}: constant target has no signal"
        );
        assert!(model.selected_features(0.0).is_empty(), "lambda={lambda}");
        assert_eq!(model.predict(&[3.0, 1.0]), 4.25, "lambda={lambda}");
    }
}

#[test]
fn constant_feature_column_never_enters_the_model() {
    // A zero-variance column has zero column norm after
    // standardization; the solver must skip it at every penalty.
    let rows: Vec<Vec<f64>> = (0..30)
        .map(|i| vec![(i % 7) as f64, 3.5, ((i * 5) % 9) as f64])
        .collect();
    let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - r[2]).collect();
    let data = Dataset::from_rows(rows, y);
    for lambda in LAMBDAS {
        let mut model = LassoRegression::new(lambda);
        model.fit(&data);
        assert_eq!(
            model.weights()[1],
            0.0,
            "lambda={lambda}: constant column got weight"
        );
    }
}
