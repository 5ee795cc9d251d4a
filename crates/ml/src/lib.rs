//! # mct-ml — from-scratch learning algorithms for MCT
//!
//! The paper compares seven predictors (Table 7 / Figure 2): an offline
//! mean predictor, linear and quadratic regression with and without lasso
//! regularization, gradient boosting, and a hierarchical Bayesian model.
//! This crate implements all of them natively (no external ML
//! dependencies), plus the shared machinery: dense linear algebra,
//! feature standardization, quadratic feature expansion (10 → 65 dims),
//! and the paper's coefficient-of-determination accuracy metric (Eq. 3).
//!
//! Every stochastic component (gradient-boosting subsampling) is seeded
//! and deterministic.
//!
//! ```
//! use mct_ml::{Dataset, Regressor, RidgeRegression};
//!
//! let data = Dataset::from_rows(
//!     vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
//!     vec![1.0, 3.0, 5.0, 7.0],
//! );
//! let mut model = RidgeRegression::new(0.0);
//! model.fit(&data);
//! let pred = model.predict(&[4.0]);
//! assert!((pred - 9.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cv;
mod dataset;
mod features;
mod gbrt;
mod hier;
mod lasso;
mod linalg;
mod linear;
mod metrics;
mod model;
mod offline;
mod scale;
pub mod simd;
mod tree;

pub use cv::{cross_val_r2, kfold_indices};
pub use dataset::Dataset;
pub use features::{quadratic_expand, quadratic_feature_names};
pub use gbrt::{GradientBoosting, GradientBoostingParams};
pub use hier::HierarchicalPredictor;
pub use lasso::LassoRegression;
pub use linalg::{solve_spd, Matrix, RowBlock4};
pub use linear::RidgeRegression;
pub use metrics::{coefficient_of_determination, mean_absolute_error, root_mean_squared_error};
pub use model::{Regressor, SavedRegressor};
pub use offline::OfflineMeanPredictor;
pub use scale::StandardScaler;
pub use tree::{RegressionTree, SplitWorkspace, TreeParams};
