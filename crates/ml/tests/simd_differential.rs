//! SIMD kernels must be bit-identical to the scalar reference.
//!
//! The lane-parallel batch paths (the lasso sparse dot, the GBRT
//! dense-forest walk) vectorize across rows, never across a reduction
//! dimension, so every batch prediction must equal the pointwise scalar
//! `predict` *to the bit* — for every model, for every `rows % 4` and
//! `rows % 8` tail shape, and for ensembles whose trees are too deep to
//! densify and so take the scalar fallback.
//! CI runs this suite in release mode, where autovectorization is
//! actually live.
//!
//! Under Miri the same suite doubles as the unsafe-contract audit for
//! the `get_unchecked` kernel paths; sizes shrink (`cfg(miri)`) so the
//! interpreter finishes in minutes while still covering every tail
//! shape and at least one multi-block batch.

use mct_ml::simd::DENSE_MAX_DEPTH;
use mct_ml::{
    Dataset, GradientBoosting, GradientBoostingParams, LassoRegression, Matrix, RegressionTree,
    Regressor, TreeParams,
};

/// Training-set size: full spread natively, a reduced (but still
/// tree-path-diverse) grid under the Miri interpreter.
#[cfg(not(miri))]
const TRAIN_ROWS: usize = 120;
#[cfg(miri)]
const TRAIN_ROWS: usize = 32;

/// A deterministic nonlinear dataset with enough spread to exercise
/// every tree path and leave lasso with a mixed support.
fn training_data() -> Dataset {
    let rows: Vec<Vec<f64>> = (0..TRAIN_ROWS)
        .map(|i| {
            let a = (i % 11) as f64;
            let b = ((i * 7) % 13) as f64;
            let c = ((i * 3) % 5) as f64;
            vec![a, b, c]
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| (r[0] * r[1] * 0.21).sin() * 4.0 + 2.0 * r[0] - 0.7 * r[2] + 0.5)
        .collect();
    Dataset::from_rows(rows, y)
}

/// Query rows off the training grid, `n` of them (tail shapes come from
/// varying `n`).
fn query_rows(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            vec![
                i as f64 * 0.73 - 2.0,
                (i as f64 * 1.31).rem_euclid(13.0),
                i as f64 * 0.17,
            ]
        })
        .collect()
}

fn assert_batch_bit_identical(model: &dyn Regressor, label: &str) {
    // 1..=9 covers tails of 1, 2, 3 and the exact-multiple case; 64 and
    // 67 exercise many blocks with and without a tail. Miri keeps the
    // tail coverage but drops the wide batches.
    #[cfg(not(miri))]
    let sizes: Vec<usize> = (1..=9).chain([64, 67]).collect();
    #[cfg(miri)]
    let sizes: Vec<usize> = (1..=5).chain([8, 9]).collect();
    for n in sizes {
        let rows = query_rows(n);
        let batch = model.predict_batch(&Matrix::from_rows(rows.clone()));
        assert_eq!(batch.len(), n, "{label} n={n}");
        for (i, (row, b)) in rows.iter().zip(&batch).enumerate() {
            assert_eq!(
                model.predict(row).to_bits(),
                b.to_bits(),
                "{label} n={n} row {i}"
            );
        }
    }
}

#[test]
fn lasso_simd_batch_is_bit_identical_to_scalar() {
    let mut m = LassoRegression::new(0.05);
    m.fit(&training_data());
    assert_batch_bit_identical(&m, "lasso");
}

#[test]
fn tree_simd_batch_is_bit_identical_to_scalar() {
    let mut m = RegressionTree::new(TreeParams::default());
    m.fit(&training_data());
    assert_batch_bit_identical(&m, "tree");
}

#[test]
fn deep_tree_simd_batch_is_bit_identical_to_scalar() {
    // Deeper trees diverge lanes harder (different walk lengths per lane).
    let mut m = RegressionTree::new(TreeParams {
        max_depth: 8,
        min_leaf: 1,
    });
    m.fit(&training_data());
    assert_batch_bit_identical(&m, "deep-tree");
}

#[test]
fn gbrt_simd_batch_is_bit_identical_to_scalar() {
    // 100 boosting stages natively; a short ensemble under Miri (the
    // tree-major accumulation kernel is identical at any stage count).
    #[cfg(not(miri))]
    let params = GradientBoostingParams::default();
    #[cfg(miri)]
    let params = GradientBoostingParams {
        stages: 8,
        ..GradientBoostingParams::default()
    };
    let mut m = GradientBoosting::new(params);
    m.fit(&training_data());
    assert_batch_bit_identical(&m, "gbrt");
}

/// Rows whose targets grow geometrically (`4^i`): the best split always
/// peels off the largest target, so with `min_leaf: 1` each tree grows a
/// chain as deep as [`CHAIN_TREE`] allows — deeper than the dense layout
/// takes. Query rows with a small first feature walk the whole chain.
fn chain_data() -> Dataset {
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|i| vec![i as f64, ((i * 7) % 13) as f64, ((i * 3) % 5) as f64])
        .collect();
    let y: Vec<f64> = (0..24).map(|i| 4f64.powi(i)).collect();
    Dataset::from_rows(rows, y)
}

/// Trees allowed four levels past [`DENSE_MAX_DEPTH`].
const CHAIN_TREE: TreeParams = TreeParams {
    max_depth: DENSE_MAX_DEPTH + 4,
    min_leaf: 1,
};

#[test]
fn too_deep_tree_batch_is_bit_identical_to_scalar() {
    let mut m = RegressionTree::new(CHAIN_TREE);
    m.fit(&chain_data());
    assert_batch_bit_identical(&m, "too-deep-tree");
}

#[test]
fn too_deep_gbrt_batch_is_bit_identical_to_scalar() {
    // Some stage fails to densify (pinned inside the crate by
    // `gbrt::tests::geometric_targets_grow_stages_too_deep_to_densify`),
    // so the batch takes the scalar fallback.
    #[cfg(not(miri))]
    let stages = 20;
    #[cfg(miri)]
    let stages = 4;
    let mut m = GradientBoosting::new(GradientBoostingParams {
        stages,
        tree: CHAIN_TREE,
        ..GradientBoostingParams::default()
    });
    m.fit(&chain_data());
    assert_batch_bit_identical(&m, "too-deep-gbrt");
}
