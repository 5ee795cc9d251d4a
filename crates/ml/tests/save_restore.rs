//! Bit-exactness of model save/restore through the persistence JSON path.
//!
//! The crash-recovery contract says a recovered controller makes
//! bit-identical decisions to an uninterrupted run; when the recovery
//! path restores a fitted model from the write-ahead log instead of
//! refitting, that contract reduces to this: `save()` → JSON → restore
//! must predict the same bits as the original on every row.

use mct_ml::{
    Dataset, GradientBoosting, GradientBoostingParams, LassoRegression, Matrix, Regressor,
    RidgeRegression, SavedRegressor,
};

/// A deterministic synthetic dataset with mixed scales and a nonlinear
/// term, so trees actually split and the lasso keeps a nontrivial
/// support.
fn dataset(n: usize) -> Dataset {
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..n {
        let a = next() * 4.0 - 2.0;
        let b = next() * 100.0;
        let c = next();
        rows.push(vec![a, b, c]);
        y.push(0.7 * a - 0.01 * b + a * a * c + if a > 0.5 { 1.5 } else { 0.0 });
    }
    Dataset::from_rows(rows, y)
}

fn probe_rows() -> Matrix {
    let d = dataset(64);
    Matrix::from_rows(d.rows().to_vec())
}

fn roundtrip(saved: &SavedRegressor) -> SavedRegressor {
    let json = serde_json::to_string(saved).expect("serialize model");
    serde_json::from_str(&json).expect("deserialize model")
}

fn assert_bit_identical(original: &dyn Regressor, saved: SavedRegressor) {
    let restored_saved = roundtrip(&saved);
    // The snapshot itself must survive the JSON roundtrip exactly.
    assert_eq!(saved, restored_saved);
    let restored = restored_saved.into_boxed();
    let rows = probe_rows();
    let a = original.predict_batch(&rows);
    let b = restored.predict_batch(&rows);
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "row {i}: original {x} vs restored {y} ({})",
            original.name()
        );
    }
    // Pointwise path too — batch and pointwise already agree by the
    // predict_batch contract, but the restored model must hold both.
    for r in 0..rows.rows() {
        assert_eq!(
            original.predict(rows.row(r)).to_bits(),
            restored.predict(rows.row(r)).to_bits()
        );
    }
}

#[test]
fn ridge_roundtrips_bit_identically() {
    for lambda in [0.0, 0.5] {
        let mut m = RidgeRegression::new(lambda);
        m.fit(&dataset(120));
        let saved = m.save().expect("ridge has a snapshot form");
        assert_bit_identical(&m, saved);
    }
}

#[test]
fn lasso_roundtrips_bit_identically() {
    let mut m = LassoRegression::new(0.01);
    m.fit(&dataset(120));
    let saved = m.save().expect("lasso has a snapshot form");
    assert_bit_identical(&m, saved);
}

#[test]
fn gbrt_roundtrips_bit_identically() {
    let mut m = GradientBoosting::new(GradientBoostingParams::default());
    m.fit(&dataset(160));
    assert!(
        !m.stage_trees().is_empty(),
        "fit must produce stages for the test to mean anything"
    );
    let saved = m.save().expect("gbrt has a snapshot form");
    // Snapshots written while the params still carried a split-scan
    // thread count (`"workers":1` after the seed) must keep loading:
    // the unknown key is ignored.
    let json = serde_json::to_string(&saved).expect("serialize model");
    let legacy_json = json.replacen("\"seed\":7}", "\"seed\":7,\"workers\":1}", 1);
    assert_ne!(legacy_json, json, "the params object must take the key");
    let legacy: SavedRegressor = serde_json::from_str(&legacy_json).expect("legacy snapshot loads");
    assert_bit_identical(&m, legacy);
    assert_bit_identical(&m, saved);
}

#[test]
fn boxed_save_forwards_to_the_concrete_model() {
    let mut m: Box<dyn Regressor + Send> = Box::new(LassoRegression::new(0.01));
    m.fit(&dataset(40));
    let saved = m.save().expect("boxed lasso still saves");
    assert!(matches!(saved, SavedRegressor::Lasso(_)));
    assert_eq!(saved.name(), "lasso");
}
