//! Deterministic k-fold cross-validation.
//!
//! The controller's traced `FitDiagnosed` record reports the IPC
//! predictor's out-of-fold R² through [`cross_val_r2`]. Nothing tunes a
//! penalty here: like the paper, every lasso fit uses one fixed lambda.

use crate::dataset::Dataset;
use crate::metrics::coefficient_of_determination;
use crate::model::Regressor;

/// Deterministic k-fold index split (round-robin assignment).
///
/// `k` is clamped to `n`: asking for more folds than rows used to
/// produce folds whose *training* side was empty (every row held out),
/// which downstream `fit` calls see as a zero-row dataset. Leave-one-out
/// is the most folds `n` rows can support, so `k > n` now means `k = n`.
///
/// # Panics
/// Panics unless `k >= 2` and `n >= 2`.
#[must_use]
pub fn kfold_indices(n: usize, k: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "need 2 <= k");
    assert!(n >= 2, "need at least 2 rows to cross-validate");
    let k = k.min(n);
    (0..k)
        .map(|fold| {
            let mut train = Vec::new();
            let mut test = Vec::new();
            for i in 0..n {
                if i % k == fold {
                    test.push(i);
                } else {
                    train.push(i);
                }
            }
            (train, test)
        })
        .collect()
}

/// Mean out-of-fold R² of `make_model()` under k-fold CV.
///
/// # Panics
/// Panics if the dataset has fewer than 2 rows or `k < 2`.
pub fn cross_val_r2<M: Regressor, F: Fn() -> M>(data: &Dataset, k: usize, make_model: F) -> f64 {
    let folds = kfold_indices(data.len(), k);
    let mut total = 0.0;
    for (train_idx, test_idx) in &folds {
        let mut model = make_model();
        model.fit(&data.subset(train_idx));
        let preds: Vec<f64> = test_idx
            .iter()
            .map(|&i| model.predict(&data.rows()[i]))
            .collect();
        let truth: Vec<f64> = test_idx.iter().map(|&i| data.targets()[i]).collect();
        total += coefficient_of_determination(&preds, &truth);
    }
    total / folds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::RidgeRegression;

    fn sparse_data() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 7) as f64, ((i * 13) % 11) as f64, ((i * 5) % 9) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 4.0 * r[0] - 2.0 * r[2] + 1.0).collect();
        Dataset::from_rows(rows, y)
    }

    #[test]
    fn kfold_partitions_everything_once() {
        let folds = kfold_indices(10, 3);
        assert_eq!(folds.len(), 3);
        let mut seen = [0u32; 10];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 10);
            for &i in test {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each index tested exactly once"
        );
    }

    #[test]
    fn cv_scores_good_model_highly() {
        let data = sparse_data();
        let r2 = cross_val_r2(&data, 5, || RidgeRegression::new(0.001));
        assert!(r2 > 0.95, "r2={r2}");
    }

    #[test]
    #[should_panic(expected = "need 2 <= k")]
    fn bad_k_panics() {
        let _ = kfold_indices(5, 1);
    }

    #[test]
    fn oversized_k_clamps_to_leave_one_out() {
        // k > n used to hand every row to the test side of some fold,
        // leaving fit() a zero-row training set. Clamped, it degrades to
        // leave-one-out: n folds, every training side non-empty.
        let folds = kfold_indices(3, 10);
        assert_eq!(folds.len(), 3);
        for (train, test) in &folds {
            assert!(!train.is_empty(), "no fold may have an empty train side");
            assert_eq!(test.len(), 1);
        }
    }

    #[test]
    fn oversized_k_cross_validates_without_empty_fits() {
        let rows: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let data = Dataset::from_rows(rows, vec![1.0, 3.0, 5.0, 7.0]);
        // Would previously panic inside Dataset::from_rows on the empty
        // training folds; now runs leave-one-out. (Single-point test
        // folds have zero target variance, so R² per fold is pinned at
        // its degenerate 0 — all that matters here is a finite score
        // from non-empty fits.)
        let r2 = cross_val_r2(&data, 100, || RidgeRegression::new(0.001));
        assert!(r2.is_finite(), "r2={r2}");
    }

    #[test]
    #[should_panic(expected = "at least 2 rows")]
    fn single_row_dataset_panics() {
        let _ = kfold_indices(1, 2);
    }
}
