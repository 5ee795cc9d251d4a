//! Hierarchical cross-application predictor.
//!
//! Stands in for the paper's hierarchical Bayesian model (LEO-style,
//! Section 4.3): rather than learning an input→output function, it
//! assumes the new application behaves like a mixture of previously
//! profiled applications. Given online samples of the new application, it
//! fits non-negative mixture weights over the offline per-application
//! tables (by projected least squares) and predicts unsampled
//! configurations through the same mixture.
//!
//! As in the paper, accuracy hinges on the training set containing
//! applications that correlate with the new one, and the fit cost grows
//! with the offline corpus — this is the "expensive but sample-efficient"
//! corner of Table 7.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::model::Regressor;

/// Mixture-of-applications predictor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalPredictor {
    /// Offline corpus: per application, configuration row → target.
    corpus: Vec<BTreeMap<Vec<u64>, f64>>,
    /// Fitted mixture weights (same length as `corpus`).
    weights: Vec<f64>,
    /// Global fallback for configurations unseen offline.
    global_mean: f64,
    iterations: usize,
    fitted: bool,
}

impl HierarchicalPredictor {
    /// Build from per-application offline datasets.
    ///
    /// # Panics
    /// Panics if `apps` is empty.
    #[must_use]
    pub fn from_applications(apps: &[Dataset]) -> HierarchicalPredictor {
        assert!(!apps.is_empty(), "need an offline corpus");
        let mut total = 0.0;
        let mut count = 0u64;
        let corpus = apps
            .iter()
            .map(|app| {
                let mut t = BTreeMap::new();
                for i in 0..app.len() {
                    let (row, y) = app.example(i);
                    t.insert(Self::key(row), y);
                    total += y;
                    count += 1;
                }
                t
            })
            .collect();
        HierarchicalPredictor {
            corpus,
            weights: Vec::new(),
            global_mean: total / count as f64,
            iterations: 2000,
            fitted: false,
        }
    }

    /// The fitted mixture weights (empty before fit).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn key(row: &[f64]) -> Vec<u64> {
        row.iter().map(|x| x.to_bits()).collect()
    }
}

impl Regressor for HierarchicalPredictor {
    /// Fit mixture weights from online samples of the new application.
    fn fit(&mut self, data: &Dataset) {
        let k = self.corpus.len();
        // Row-major design matrix: a[i * k + j] = app j's value at sample
        // i's config.
        let n = data.len();
        let mut a = vec![0.0f64; n * k];
        let mut y = vec![0.0f64; n];
        for (i, (a_row, y_i)) in a.chunks_exact_mut(k).zip(&mut y).enumerate() {
            let (row, t) = data.example(i);
            let key = Self::key(row);
            *y_i = t;
            for (a_ij, app) in a_row.iter_mut().zip(&self.corpus) {
                *a_ij = app.get(&key).copied().unwrap_or(self.global_mean);
            }
        }
        // Projected gradient descent on ||Aw - y||^2 with w >= 0.
        let mut w = vec![1.0 / k as f64; k];
        // Lipschitz-ish step from the column scale.
        let scale: f64 = a.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-9);
        let step = 1.0 / (scale * scale * k as f64 * n as f64);
        let mut grad = vec![0.0f64; k];
        for _ in 0..self.iterations {
            // grad = 2 Aᵀ (A w - y)
            grad.fill(0.0);
            for (a_row, y_i) in a.chunks_exact(k).zip(&y) {
                let mut r = -y_i;
                for (a_ij, w_j) in a_row.iter().zip(&w) {
                    r += a_ij * w_j;
                }
                for (g_j, a_ij) in grad.iter_mut().zip(a_row) {
                    *g_j += 2.0 * a_ij * r;
                }
            }
            for (w_j, g_j) in w.iter_mut().zip(&grad) {
                *w_j = (*w_j - step * g_j).max(0.0);
            }
        }
        self.weights = w;
        self.fitted = true;
    }

    fn predict(&self, row: &[f64]) -> f64 {
        assert!(self.fitted, "model not fitted");
        let key = Self::key(row);
        let mut num = 0.0;
        for (j, app) in self.corpus.iter().enumerate() {
            let v = app.get(&key).copied().unwrap_or(self.global_mean);
            num += self.weights[j] * v;
        }
        num
    }

    fn name(&self) -> &'static str {
        "hierarchical"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs() -> Vec<Vec<f64>> {
        (0..16).map(|i| vec![i as f64]).collect()
    }

    #[test]
    fn recovers_a_pure_member() {
        // App A: y = x; App B: y = 10 - x. The "new" app equals A.
        let rows = configs();
        let a = Dataset::from_rows(rows.clone(), rows.iter().map(|r| r[0]).collect());
        let b = Dataset::from_rows(rows.clone(), rows.iter().map(|r| 10.0 - r[0]).collect());
        let mut m = HierarchicalPredictor::from_applications(&[a, b]);
        // Online samples: 4 configs from the true function y = x.
        let samples = Dataset::from_rows(
            vec![vec![0.0], vec![5.0], vec![10.0], vec![15.0]],
            vec![0.0, 5.0, 10.0, 15.0],
        );
        m.fit(&samples);
        assert!(
            m.weights()[0] > 5.0 * m.weights()[1].max(1e-6),
            "{:?}",
            m.weights()
        );
        assert!((m.predict(&[7.0]) - 7.0).abs() < 1.0);
    }

    #[test]
    fn blends_between_members() {
        let rows = configs();
        let a = Dataset::from_rows(rows.clone(), rows.iter().map(|r| r[0]).collect());
        let b = Dataset::from_rows(rows.clone(), rows.iter().map(|_| 8.0).collect());
        let mut m = HierarchicalPredictor::from_applications(&[a, b]);
        // New app = 0.5*A + 0.5*B.
        let samples = Dataset::from_rows(
            vec![vec![0.0], vec![4.0], vec![8.0], vec![12.0]],
            vec![4.0, 6.0, 8.0, 10.0],
        );
        m.fit(&samples);
        assert!(
            (m.predict(&[6.0]) - 7.0).abs() < 0.8,
            "{}",
            m.predict(&[6.0])
        );
    }

    #[test]
    fn weights_stay_nonnegative() {
        let rows = configs();
        let a = Dataset::from_rows(rows.clone(), rows.iter().map(|r| r[0]).collect());
        let b = Dataset::from_rows(rows.clone(), rows.iter().map(|r| -r[0]).collect());
        let mut m = HierarchicalPredictor::from_applications(&[a, b]);
        let samples = Dataset::from_rows(vec![vec![1.0], vec![2.0]], vec![1.0, 2.0]);
        m.fit(&samples);
        assert!(m.weights().iter().all(|w| *w >= 0.0));
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        let rows = configs();
        let a = Dataset::from_rows(rows.clone(), rows.iter().map(|r| r[0]).collect());
        let m = HierarchicalPredictor::from_applications(&[a]);
        let _ = m.predict(&[1.0]);
    }
}
