//! Lasso (L1-regularized) linear regression via cyclic coordinate descent.
//!
//! Lasso is MCT's feature-selection workhorse (Section 4.4 / Figure 4a):
//! after fitting on standardized features, near-zero coefficients identify
//! unimportant configuration knobs, and the surviving features guide
//! runtime sampling.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::linalg::{dot, Matrix};
use crate::model::Regressor;
use crate::scale::StandardScaler;

/// Coordinate-descent lasso.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LassoRegression {
    lambda: f64,
    max_iters: usize,
    tol: f64,
    scaler: Option<StandardScaler>,
    weights: Vec<f64>,
    intercept: f64,
    /// Standard deviation of the training target: the model fits on the
    /// standardized target so that `lambda` is scale-invariant.
    target_scale: f64,
}

impl LassoRegression {
    /// Create an unfit lasso with penalty `lambda > 0`.
    ///
    /// # Panics
    /// Panics if `lambda` is not positive.
    #[must_use]
    pub fn new(lambda: f64) -> LassoRegression {
        assert!(lambda > 0.0, "lasso lambda must be positive");
        LassoRegression {
            lambda,
            max_iters: 1000,
            tol: 1e-7,
            scaler: None,
            weights: Vec::new(),
            intercept: 0.0,
            target_scale: 1.0,
        }
    }

    /// Fitted weights in standardized feature space (empty before fit).
    /// Zero entries mark features lasso deemed unimportant.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Indices of features with non-negligible coefficients.
    #[must_use]
    pub fn selected_features(&self, threshold: f64) -> Vec<usize> {
        self.weights
            .iter()
            .enumerate()
            .filter(|(_, w)| w.abs() > threshold)
            .map(|(i, _)| i)
            .collect()
    }

    pub(crate) fn soft_threshold(x: f64, t: f64) -> f64 {
        if x > t {
            x - t
        } else if x < -t {
            x + t
        } else {
            0.0
        }
    }
}

impl Regressor for LassoRegression {
    fn fit(&mut self, data: &Dataset) {
        let scaler = StandardScaler::fit(data.rows());
        let n = data.len();
        let d = scaler.means().len();
        let y_mean = data.target_mean();
        // Standardize the target so the penalty is scale-invariant
        // (energy in joules and IPC near 1.0 get the same treatment).
        let var: f64 = data
            .targets()
            .iter()
            .map(|t| (t - y_mean) * (t - y_mean))
            .sum::<f64>()
            / n as f64;
        let y_scale = var.sqrt().max(1e-12);
        let y: Vec<f64> = data
            .targets()
            .iter()
            .map(|t| (t - y_mean) / y_scale)
            .collect();

        // Standardized features, feature-major: column j is
        // `xc[j*n..(j+1)*n]`, so both inner loops below stream one
        // contiguous slice. Each value is `StandardScaler::transform`'s.
        let (means, stds) = (scaler.means(), scaler.stds());
        let mut xc = vec![0.0f64; d * n];
        for (i, row) in data.rows().iter().enumerate() {
            for (j, ((x, m), s)) in row.iter().zip(means).zip(stds).enumerate() {
                xc[j * n + i] = (x - m) / s;
            }
        }
        // Column norms (constant across iterations), summed in row order.
        let col_sq: Vec<f64> = xc
            .chunks_exact(n)
            .map(|col| col.iter().fold(0.0, |acc, v| acc + v * v))
            .collect();

        let mut w = vec![0.0f64; d];
        // Residual r = y - Xw, maintained incrementally.
        let mut r = y.clone();
        let penalty = self.lambda * n as f64;
        for _ in 0..self.max_iters {
            let mut max_delta = 0.0f64;
            for j in 0..d {
                if col_sq[j] < 1e-12 {
                    continue;
                }
                let col = &xc[j * n..(j + 1) * n];
                // rho = x_j . r + w_j * ||x_j||^2 (residual with j removed),
                // summed in row order.
                let mut rho = 0.0;
                for (xi, ri) in col.iter().zip(&r) {
                    rho += xi * ri;
                }
                rho += w[j] * col_sq[j];
                let new_w = Self::soft_threshold(rho, penalty) / col_sq[j];
                let delta = new_w - w[j];
                if delta != 0.0 {
                    for (ri, xi) in r.iter_mut().zip(col) {
                        *ri -= delta * xi;
                    }
                    w[j] = new_w;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < self.tol {
                break;
            }
        }
        self.weights = w;
        self.intercept = y_mean;
        self.target_scale = y_scale;
        self.scaler = Some(scaler);
    }

    fn predict(&self, row: &[f64]) -> f64 {
        // mct-tidy: allow(P003) -- Regressor contract: fit() before predict()
        let scaler = self.scaler.as_ref().expect("model not fitted");
        let z = scaler.transform(row);
        self.intercept + self.target_scale * dot(&self.weights, &z)
    }

    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        // mct-tidy: allow(P003) -- Regressor contract: fit() before predict()
        let scaler = self.scaler.as_ref().expect("model not fitted");
        assert_eq!(rows.cols(), scaler.means().len(), "dimension mismatch");
        // Lasso weights are sparse: skip exactly-zero coefficients. A
        // zero-weight term contributes `0.0 * z` = ±0.0, and adding ±0.0
        // to a non-negative-zero accumulator is a no-op (the running sum
        // starts at +0.0 and can never become -0.0), so the sparse sum is
        // bit-identical to the dense `transform` + `dot` in `predict`.
        let nz: Vec<(usize, f64)> = self
            .weights
            .iter()
            .enumerate()
            .filter(|(_, w)| **w != 0.0)
            .map(|(j, &w)| (j, w))
            .collect();
        // Lane-parallel main loop: four rows per block, each lane running
        // the identical term sequence (see `simd::lasso_fold4`), with the
        // `rows % 4` tail on the scalar path.
        let (means, stds) = (scaler.means(), scaler.stds());
        let mut out = Vec::with_capacity(rows.rows());
        for block in rows.lane_blocks() {
            let z = crate::simd::lasso_fold4(block.lanes(), &nz, means, stds);
            out.extend(z.iter().map(|&zk| self.intercept + self.target_scale * zk));
        }
        for r in rows.lane_tail()..rows.rows() {
            let row = rows.row(r);
            let z: f64 = nz
                .iter()
                .map(|&(j, w)| w * ((row[j] - means[j]) / stds[j]))
                .sum();
            out.push(self.intercept + self.target_scale * z);
        }
        out
    }

    fn name(&self) -> &'static str {
        "lasso"
    }

    fn save(&self) -> Option<crate::model::SavedRegressor> {
        Some(crate::model::SavedRegressor::Lasso(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y depends on features 0 and 2 only; feature 1 is pure noise.
    fn sparse_data() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let a = (i % 7) as f64;
                let b = ((i * 13) % 11) as f64; // decorrelated "noise"
                let c = ((i * 5) % 9) as f64;
                vec![a, b, c]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 4.0 * r[0] - 2.0 * r[2] + 1.0).collect();
        Dataset::from_rows(rows, y)
    }

    #[test]
    fn selects_true_support() {
        let mut m = LassoRegression::new(0.05);
        m.fit(&sparse_data());
        let sel = m.selected_features(0.1);
        assert!(
            sel.contains(&0) && sel.contains(&2),
            "weights: {:?}",
            m.weights()
        );
        assert!(
            !sel.contains(&1),
            "noise feature should be dropped: {:?}",
            m.weights()
        );
    }

    #[test]
    fn predictions_accurate_on_sparse_problem() {
        let d = sparse_data();
        let mut m = LassoRegression::new(0.01);
        m.fit(&d);
        for i in 0..d.len() {
            let (r, t) = d.example(i);
            assert!(
                (m.predict(r) - t).abs() < 0.5,
                "pred {} vs {}",
                m.predict(r),
                t
            );
        }
    }

    #[test]
    fn large_lambda_zeroes_everything() {
        let mut m = LassoRegression::new(1e6);
        m.fit(&sparse_data());
        assert!(m.weights().iter().all(|w| *w == 0.0));
        // Falls back to predicting the mean.
        let d = sparse_data();
        assert!((m.predict(d.rows()[0].as_slice()) - d.target_mean()).abs() < 1e-9);
    }

    #[test]
    fn soft_threshold_shape() {
        assert_eq!(LassoRegression::soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(LassoRegression::soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(LassoRegression::soft_threshold(0.5, 1.0), 0.0);
    }

    #[test]
    fn sparser_than_ols_on_noise() {
        use crate::linear::RidgeRegression;
        let d = sparse_data();
        let mut lasso = LassoRegression::new(0.05);
        let mut ols = RidgeRegression::new(0.0);
        lasso.fit(&d);
        ols.fit(&d);
        let lasso_zero = lasso.weights().iter().filter(|w| w.abs() < 1e-9).count();
        let ols_zero = ols.weights().iter().filter(|w| w.abs() < 1e-9).count();
        assert!(lasso_zero >= ols_zero);
    }

    #[test]
    fn penalty_is_scale_invariant() {
        // Shrinking the target by 1e-3 (joules vs millijoules) must not
        // change what lasso selects or its relative accuracy.
        let d = sparse_data();
        let tiny = d.with_targets(d.targets().iter().map(|t| t * 1e-3).collect());
        let mut big = LassoRegression::new(0.05);
        let mut small = LassoRegression::new(0.05);
        big.fit(&d);
        small.fit(&tiny);
        assert_eq!(big.selected_features(0.1), small.selected_features(0.1));
        // Predictions are exactly proportional: same model, scaled units.
        for i in 0..d.len() {
            let (r, _) = d.example(i);
            assert!(
                (small.predict(r) * 1e3 - big.predict(r)).abs() < 1e-6,
                "scale invariance broken at row {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lambda_panics() {
        let _ = LassoRegression::new(0.0);
    }

    #[test]
    fn batch_matches_pointwise_bit_for_bit() {
        let d = sparse_data();
        let mut m = LassoRegression::new(0.05);
        m.fit(&d);
        let batch = m.predict_batch(&Matrix::from_rows(d.rows().to_vec()));
        for (i, b) in batch.iter().enumerate() {
            assert_eq!(m.predict(&d.rows()[i]).to_bits(), b.to_bits(), "row {i}");
        }
    }
}
