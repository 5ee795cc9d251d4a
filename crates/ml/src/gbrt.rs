//! Stochastic gradient boosting over regression trees
//! (Friedman 2002, the paper's reference [10]).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::linalg::Matrix;
use crate::model::Regressor;
use crate::tree::{RegressionTree, SplitWorkspace, TreeParams};

/// Gradient-boosting hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GradientBoostingParams {
    /// Number of boosting stages.
    pub stages: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// Fraction of examples subsampled per stage (stochastic boosting).
    pub subsample: f64,
    /// Weak-learner tree shape.
    pub tree: TreeParams,
    /// RNG seed for subsampling.
    pub seed: u64,
}

impl Default for GradientBoostingParams {
    fn default() -> GradientBoostingParams {
        GradientBoostingParams {
            stages: 100,
            learning_rate: 0.1,
            subsample: 0.8,
            tree: TreeParams::default(),
            seed: 7,
        }
    }
}

/// A fitted gradient-boosting ensemble (least-squares loss).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientBoosting {
    params: GradientBoostingParams,
    base: f64,
    stages: Vec<RegressionTree>,
}

impl GradientBoosting {
    /// An unfit ensemble.
    ///
    /// # Panics
    /// Panics on nonsensical hyperparameters.
    #[must_use]
    pub fn new(params: GradientBoostingParams) -> GradientBoosting {
        assert!(params.stages > 0, "need at least one stage");
        assert!(params.learning_rate > 0.0, "learning rate must be positive");
        assert!(
            params.subsample > 0.0 && params.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );
        GradientBoosting {
            params,
            base: 0.0,
            stages: Vec::new(),
        }
    }

    /// Number of fitted stages.
    #[must_use]
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// The fitted stage trees (diagnostics and differential tests).
    #[must_use]
    pub fn stage_trees(&self) -> &[RegressionTree] {
        &self.stages
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, data: &Dataset) {
        let n = data.len();
        self.base = data.target_mean();
        self.stages.clear();
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed);
        // Current ensemble prediction per training example.
        let mut pred = vec![self.base; n];
        let mut residuals = vec![0.0f64; n];
        let all: Vec<usize> = (0..n).collect();
        let take = ((n as f64) * self.params.subsample).ceil().max(1.0) as usize;
        // One presorted workspace and one index buffer serve every stage:
        // the rows never change across stages, only targets (residuals)
        // and the subsample do, so nothing here reallocates or re-sorts
        // in steady state.
        let mut ws = SplitWorkspace::for_rows(data.rows());
        let mut idx = Vec::with_capacity(n);
        for _ in 0..self.params.stages {
            // Least-squares negative gradient = residual.
            for (r, (y, p)) in residuals.iter_mut().zip(data.targets().iter().zip(&pred)) {
                *r = y - p;
            }
            idx.clear();
            idx.extend_from_slice(&all);
            idx.shuffle(&mut rng);
            idx.truncate(take);
            let mut tree = RegressionTree::new(self.params.tree);
            tree.fit_in(&mut ws, data.rows(), &residuals, &idx);
            for (i, p) in pred.iter_mut().enumerate() {
                *p += self.params.learning_rate * tree.predict(&data.rows()[i]);
            }
            self.stages.push(tree);
        }
    }

    fn predict(&self, row: &[f64]) -> f64 {
        assert!(!self.stages.is_empty(), "model not fitted");
        self.base
            + self.params.learning_rate * self.stages.iter().map(|t| t.predict(row)).sum::<f64>()
    }

    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        assert!(!self.stages.is_empty(), "model not fitted");
        // Per row the stage additions happen in order starting from 0.0,
        // exactly like the iterator sum in `predict`, so batch results
        // are bit-identical to pointwise ones on either path below.
        let mut sums = vec![0.0f64; rows.rows()];
        let dense: Option<Vec<_>> = self.stages.iter().map(RegressionTree::densify).collect();
        if let Some(trees) = dense {
            // All stages densify (the common case for shallow boosting
            // learners): walk the whole forest per 8-row group so the
            // accumulators stay in registers across stages
            // (`DenseForest::accumulate8`).
            let forest = crate::simd::DenseForest::new(&trees);
            let split = rows.group_tail::<8>();
            let (head, tail) = sums.split_at_mut(split);
            for (block, s8) in rows.row_chunks::<8>().zip(head.chunks_exact_mut(8)) {
                // mct-tidy: allow(P003) -- chunks_exact_mut(8) yields exactly 8
                let s8: &mut [f64; 8] = s8.try_into().expect("lane-width chunk");
                forest.accumulate8(block, rows.cols(), s8);
            }
            for (r, s) in (split..rows.rows()).zip(tail.iter_mut()) {
                *s = forest.eval(rows.row(r));
            }
        } else {
            // Some stage is too deep for the dense layout: tree-major
            // accumulation, each stage walking 16 rows in lane parallel
            // (`RegressionTree::accumulate_batch`).
            for tree in &self.stages {
                tree.accumulate_batch(rows, &mut sums);
            }
        }
        sums.into_iter()
            .map(|s| self.base + self.params.learning_rate * s)
            .collect()
    }

    fn name(&self) -> &'static str {
        "gradient-boosting"
    }

    fn save(&self) -> Option<crate::model::SavedRegressor> {
        Some(crate::model::SavedRegressor::Gbrt(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A nonlinear function regression trees should approximate well.
    fn nonlinear_data() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (r[0] * r[1]).sin() * 3.0 + r[0] - 0.5 * r[1])
            .collect();
        Dataset::from_rows(rows, y)
    }

    #[test]
    fn fits_nonlinear_function_better_than_single_tree() {
        let d = nonlinear_data();
        let mut gb = GradientBoosting::new(GradientBoostingParams::default());
        gb.fit(&d);
        let mut tree = RegressionTree::new(TreeParams::default());
        tree.fit(&d);
        let sse = |m: &dyn Regressor| -> f64 {
            (0..d.len())
                .map(|i| {
                    let (r, t) = d.example(i);
                    let e = m.predict(r) - t;
                    e * e
                })
                .sum()
        };
        assert!(
            sse(&gb) < 0.5 * sse(&tree),
            "gb={} tree={}",
            sse(&gb),
            sse(&tree)
        );
    }

    #[test]
    fn deterministic_across_fits() {
        let d = nonlinear_data();
        let mut a = GradientBoosting::new(GradientBoostingParams::default());
        let mut b = GradientBoosting::new(GradientBoostingParams::default());
        a.fit(&d);
        b.fit(&d);
        for i in 0..d.len() {
            assert_eq!(
                a.predict(d.rows()[i].as_slice()),
                b.predict(d.rows()[i].as_slice())
            );
        }
    }

    #[test]
    fn different_seed_changes_model() {
        let d = nonlinear_data();
        let mut a = GradientBoosting::new(GradientBoostingParams::default());
        let mut b = GradientBoosting::new(GradientBoostingParams {
            seed: 99,
            ..GradientBoostingParams::default()
        });
        a.fit(&d);
        b.fit(&d);
        let differs = (0..d.len()).any(|i| {
            (a.predict(d.rows()[i].as_slice()) - b.predict(d.rows()[i].as_slice())).abs() > 1e-12
        });
        assert!(differs);
    }

    #[test]
    fn more_stages_reduce_training_error() {
        let d = nonlinear_data();
        let sse_for = |stages: usize| {
            let mut m = GradientBoosting::new(GradientBoostingParams {
                stages,
                ..GradientBoostingParams::default()
            });
            m.fit(&d);
            (0..d.len())
                .map(|i| {
                    let (r, t) = d.example(i);
                    let e = m.predict(r) - t;
                    e * e
                })
                .sum::<f64>()
        };
        assert!(sse_for(100) < sse_for(5));
    }

    #[test]
    fn constant_target_exact() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let d = Dataset::from_rows(rows, vec![2.5; 10]);
        let mut m = GradientBoosting::new(GradientBoostingParams::default());
        m.fit(&d);
        assert!((m.predict(&[3.0]) - 2.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        let _ = GradientBoosting::new(GradientBoostingParams::default()).predict(&[0.0]);
    }

    #[test]
    fn batch_matches_pointwise_bit_for_bit() {
        let d = nonlinear_data();
        let mut gb = GradientBoosting::new(GradientBoostingParams::default());
        gb.fit(&d);
        let rows = Matrix::from_rows(d.rows().to_vec());
        let batch = gb.predict_batch(&rows);
        for (i, b) in batch.iter().enumerate() {
            assert_eq!(gb.predict(&d.rows()[i]).to_bits(), b.to_bits(), "row {i}");
        }
    }
}
