//! The common regressor interface and its serializable snapshot form.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::gbrt::GradientBoosting;
use crate::lasso::LassoRegression;
use crate::linalg::Matrix;
use crate::linear::RidgeRegression;

/// A fitted regressor in serializable form, for the crash-safe
/// persistence layer: the controller's write-ahead log records fitted
/// model coefficients (lasso/ridge weights + scalers, GBRT flat tree
/// arenas) so a recovered run can restore the exact model instead of
/// refitting.
///
/// The contract is bit-exactness: `save()` → JSON → restore →
/// [`SavedRegressor::into_boxed`] must predict bit-identically to the
/// original on every row. All captured fields are finite `f64`s (targets
/// are clamped upstream), which the vendored JSON layer round-trips
/// exactly via shortest-representation formatting.
///
/// Corpus-backed kinds (offline, hierarchical) have no snapshot form and
/// return `None` from [`Regressor::save`]; recovery refits those
/// deterministically instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SavedRegressor {
    /// A ridge (or unregularized linear) fit.
    Ridge(RidgeRegression),
    /// A lasso fit.
    Lasso(LassoRegression),
    /// A gradient-boosted tree ensemble.
    Gbrt(GradientBoosting),
}

impl SavedRegressor {
    /// Rehydrate into the trait-object form the predictor stack uses.
    #[must_use]
    pub fn into_boxed(self) -> Box<dyn Regressor + Send> {
        match self {
            SavedRegressor::Ridge(m) => Box::new(m),
            SavedRegressor::Lasso(m) => Box::new(m),
            SavedRegressor::Gbrt(m) => Box::new(m),
        }
    }

    /// The wrapped model's [`Regressor::name`].
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SavedRegressor::Ridge(m) => m.name(),
            SavedRegressor::Lasso(m) => m.name(),
            SavedRegressor::Gbrt(m) => m.name(),
        }
    }
}

/// A trainable single-output regressor.
///
/// All of the paper's predictors implement this; the MCT framework trains
/// one regressor per objective (IPC, lifetime, energy).
pub trait Regressor {
    /// Fit the model to `data`, replacing any previous fit.
    ///
    /// Fits must be deterministic functions of `(data, hyperparameters)`:
    /// two fits on the same inputs produce models whose predictions are
    /// bit-identical, regardless of solver warm starts (see
    /// `crate::path`). The controller's refit elision and the
    /// golden-trace suites both lean on this.
    fn fit(&mut self, data: &Dataset);

    /// Predict the target for one feature row.
    ///
    /// # Panics
    /// Implementations may panic if called before [`Regressor::fit`] or
    /// with a row of the wrong dimensionality.
    fn predict(&self, row: &[f64]) -> f64;

    /// Predict every row of a feature matrix.
    ///
    /// The default maps [`Regressor::predict`] row by row; models with a
    /// cheaper vectorized path (flattened trees, folded linear weights)
    /// override it. Overrides must return bit-identical values to the
    /// row-by-row map — callers rely on batch and pointwise predictions
    /// agreeing exactly.
    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        (0..rows.rows())
            .map(|r| self.predict(rows.row(r)))
            .collect()
    }

    /// A short human-readable name (Table 7 row label).
    fn name(&self) -> &'static str;

    /// A serializable snapshot of the fitted model, when this family
    /// supports one (see [`SavedRegressor`]). The default — for
    /// corpus-backed or purely diagnostic models — is `None`, which tells
    /// the persistence layer to refit deterministically on recovery.
    fn save(&self) -> Option<SavedRegressor> {
        None
    }
}

impl<R: Regressor + ?Sized> Regressor for Box<R> {
    fn fit(&mut self, data: &Dataset) {
        (**self).fit(data);
    }

    fn predict(&self, row: &[f64]) -> f64 {
        (**self).predict(row)
    }

    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        (**self).predict_batch(rows)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn save(&self) -> Option<SavedRegressor> {
        (**self).save()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A constant model to exercise the default batch method.
    #[derive(Debug)]
    struct Const(f64);

    impl Regressor for Const {
        fn fit(&mut self, data: &Dataset) {
            self.0 = data.target_mean();
        }
        fn predict(&self, _row: &[f64]) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "const"
        }
    }

    #[test]
    fn default_batch_maps_predict() {
        let mut m = Const(0.0);
        m.fit(&Dataset::from_rows(
            vec![vec![0.0], vec![0.0]],
            vec![2.0, 4.0],
        ));
        let rows = Matrix::from_rows(vec![vec![1.0], vec![2.0]]);
        assert_eq!(m.predict_batch(&rows), vec![3.0, 3.0]);
        assert_eq!(m.name(), "const");
    }

    #[test]
    fn trait_is_object_safe() {
        let b: Box<dyn Regressor> = Box::new(Const(1.0));
        assert_eq!(b.predict(&[]), 1.0);
    }

    #[test]
    fn boxed_regressor_delegates() {
        let mut b: Box<dyn Regressor> = Box::new(Const(0.0));
        Regressor::fit(
            &mut b,
            &Dataset::from_rows(vec![vec![0.0], vec![0.0]], vec![4.0, 6.0]),
        );
        assert_eq!(b.predict(&[]), 5.0);
        assert_eq!(Regressor::name(&b), "const");
    }
}
