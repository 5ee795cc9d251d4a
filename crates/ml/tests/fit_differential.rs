//! Release-mode suite for the fit paths' bit-level contracts.
//!
//! The hierarchical fit and the quad-lasso fit are pinned to blessed
//! `to_bits()` weights and predictions: the design matrix's layout, the
//! gradient buffer's reuse and the lasso solver's column layout must not
//! change a single bit. The rest pins the degenerate
//! shapes a controller segment can hand the learners (zero rows, a single
//! row, a constant target, a constant feature column) on the solvers the
//! controller, Table 6 and Figure 4 actually run: `GradientBoosting` and
//! `LassoRegression` at fixed penalties.
//!
//! Run in release (CI's determinism job does): optimization levels must
//! not change the bits either.

use mct_ml::{
    quadratic_expand, Dataset, GradientBoosting, GradientBoostingParams, HierarchicalPredictor,
    LassoRegression, Regressor,
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

/// A quad-expanded dataset of `n` rows: ten smooth, correlated knobs
/// expanded to 65 features (the Figure 2 shape, p > n for every `n`
/// pinned here), with a target that depends on a handful of linear,
/// square and cross terms plus a deterministic ripple.
fn quad_dataset(n: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let t = i as f64;
            let base: Vec<f64> = (0..10)
                .map(|k| {
                    let k = k as f64;
                    ((t * (0.37 + 0.11 * k)).sin() + 0.25 * ((t + k) % 5.0)) * (1.0 + 0.2 * k)
                })
                .collect();
            quadratic_expand(&base)
        })
        .collect();
    let y = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            1.5 + 0.8 * r[0] - 0.6 * r[3] + 0.3 * r[12] - 0.4 * r[25]
                + 0.05 * (i as f64 * 1.7).cos()
        })
        .collect();
    Dataset::from_rows(rows, y)
}

/// FNV-1a over the little-endian bits of `vals`: one word pins a whole
/// weight vector.
fn bits_digest(vals: &[f64]) -> u64 {
    vals.iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn quad_lasso_fit_matches_blessed_bits() {
    let mut got = Vec::new();
    for (n, lambda) in LASSO_CASES {
        let data = quad_dataset(n);
        assert_eq!(data.rows()[0].len(), 65);
        let mut model = LassoRegression::new(lambda);
        model.fit(&data);
        let support = model.selected_features(0.0).len();
        assert!(
            (1..65).contains(&support),
            "n={n} lambda={lambda}: degenerate support {support}"
        );
        // Eight probes: four training rows and four rows past them.
        let probes = quad_dataset(n + 4);
        let preds: Vec<u64> = [0, n / 3, n / 2, n - 1, n, n + 1, n + 2, n + 3]
            .iter()
            .map(|&i| model.predict(&probes.rows()[i]).to_bits())
            .collect();
        got.push((
            bits_digest(model.weights()),
            model.intercept().to_bits(),
            preds,
        ));
    }
    let want: Vec<(u64, u64, Vec<u64>)> = LASSO_BITS
        .iter()
        .map(|(w, b, p)| (*w, *b, p.to_vec()))
        .collect();
    assert_eq!(got, want, "blessed quad-lasso bits moved");
}

/// (rows, lambda) of each pinned lasso fit: the controller's quad-lasso
/// penalty and the feature-selection penalty, from just above p/7 rows
/// to the 40-row sampling budget.
const LASSO_CASES: [(usize, f64); 6] = [
    (10, 0.01),
    (10, 0.002),
    (24, 0.01),
    (24, 0.002),
    (40, 0.01),
    (40, 0.002),
];

/// Pinned lasso bits per case: (weights digest, intercept, predictions).
const LASSO_BITS: [(u64, u64, [u64; 8]); 6] = [
    (
        0x8afdd45ce3323f6e,
        0x3ffdb6ff7dda5e20,
        [
            0x3ff014db71e9140e,
            0x3febe027704c032c,
            0x400575864b2fa3b4,
            0x3ffb1ae0424feffe,
            0x3fd73bccdfc6bc9c,
            0x3fe849248a1f9f88,
            0x3ffcc0a6b31ce92a,
            0x3fee34af37ea419e,
        ],
    ),
    (
        0x5ceaa149d09e2e7e,
        0x3ffdb6ff7dda5e20,
        [
            0x3fef7c64d0fcca9c,
            0x3fea48064456956a,
            0x40057cbe843735c6,
            0x3ffb1242e97723dc,
            0xbfd944d678bc98a8,
            0xbfe5a91590c0f8ac,
            0x3ff4f60bda636358,
            0x3ff005fd11fb4226,
        ],
    ),
    (
        0x2812f37a0096a4b3,
        0x3ffa3c1d64d165d8,
        [
            0x3fee3b648358050a,
            0x3ffa44834034acfc,
            0x4001fe200822923b,
            0x400a0d7ccb4a5f13,
            0x4011cc11341be7fd,
            0x40055f08c7265ca4,
            0x3ffce9e9adaf89cb,
            0x3ffd3f6b9a136510,
        ],
    ),
    (
        0x2cc0ca7677683664,
        0x3ffa3c1d64d165d8,
        [
            0x3fee8c553ed87273,
            0x3ffa4e2adb349c91,
            0x400217e6276a5494,
            0x400a401f3e554ef1,
            0x4011ba54e1ae09c0,
            0x40053b1d476bfc60,
            0x3ffca65a81674207,
            0x3ffd258fed803f06,
        ],
    ),
    (
        0xfca0283625bb97e2,
        0x3ffa8a315d1daa45,
        [
            0x3fee664b306e0476,
            0x3ffb2294ce0b5f58,
            0xbfd9eed773c6e8e4,
            0x3fed5d9660b75f27,
            0x3ff5e600acbee4b5,
            0x3ffdf7d5f1c45a33,
            0x400893cfc6cf02b8,
            0x40006d6bf59db752,
        ],
    ),
    (
        0xec3db9ec2e898a7c,
        0x3ffa8a315d1daa45,
        [
            0x3feea32cac154d8d,
            0x3ffa936dcb5dc038,
            0xbfdbc4608f8d96c4,
            0x3fed836a14075892,
            0x3ff62bc0a049cad2,
            0x3ffde9ed5b769e4c,
            0x4008a0a2b572feca,
            0x40001dc153e36755,
        ],
    ),
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
