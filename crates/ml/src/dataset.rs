//! Training datasets: feature rows plus a scalar target.

use serde::{Deserialize, Serialize};

/// A dense supervised-regression dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    rows: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Build from feature rows and targets.
    ///
    /// # Panics
    /// Panics if lengths mismatch, the dataset is empty, or rows are
    /// ragged.
    #[must_use]
    pub fn from_rows(rows: Vec<Vec<f64>>, targets: Vec<f64>) -> Dataset {
        assert_eq!(rows.len(), targets.len(), "rows/targets length mismatch");
        assert!(!rows.is_empty(), "dataset must be non-empty");
        let dim = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == dim), "ragged feature rows");
        Dataset { rows, targets }
    }

    /// Number of examples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Always false (construction rejects empty datasets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.rows[0].len()
    }

    /// Feature rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Targets.
    #[must_use]
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// One example.
    #[must_use]
    pub fn example(&self, i: usize) -> (&[f64], f64) {
        (&self.rows[i], self.targets[i])
    }

    /// A new dataset with the same rows but different targets (multi-output
    /// training reuses the feature matrix).
    ///
    /// # Panics
    /// Panics if `targets` length differs.
    #[must_use]
    pub fn with_targets(&self, targets: Vec<f64>) -> Dataset {
        assert_eq!(targets.len(), self.rows.len());
        Dataset {
            rows: self.rows.clone(),
            targets,
        }
    }

    /// Subset by index list.
    ///
    /// # Panics
    /// Panics if any index is out of bounds or `idx` is empty.
    #[must_use]
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        assert!(!idx.is_empty(), "subset must be non-empty");
        Dataset {
            rows: idx.iter().map(|&i| self.rows[i].clone()).collect(),
            targets: idx.iter().map(|&i| self.targets[i]).collect(),
        }
    }

    /// Mean of the targets.
    #[must_use]
    pub fn target_mean(&self) -> f64 {
        self.targets.iter().sum::<f64>() / self.targets.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset::from_rows(
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            vec![1.0, 2.0, 3.0],
        )
    }

    #[test]
    fn basic_accessors() {
        let d = data();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.example(1), (&[3.0, 4.0][..], 2.0));
        assert!((d.target_mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn subset_selects() {
        let d = data().subset(&[2, 0]);
        assert_eq!(d.targets(), &[3.0, 1.0]);
        assert_eq!(d.rows()[0], vec![5.0, 6.0]);
    }

    #[test]
    fn with_targets_swaps() {
        let d = data().with_targets(vec![9.0, 8.0, 7.0]);
        assert_eq!(d.targets(), &[9.0, 8.0, 7.0]);
        assert_eq!(d.rows(), data().rows());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Dataset::from_rows(vec![vec![1.0]], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dataset_panics() {
        let _ = Dataset::from_rows(Vec::new(), Vec::new());
    }

    #[test]
    fn single_row_dataset_is_valid() {
        // Degenerate but legal: the learners must cope (a controller
        // segment can arm with a single measured sample).
        let d = Dataset::from_rows(vec![vec![2.0, 3.0]], vec![7.0]);
        assert_eq!(d.len(), 1);
        assert!((d.target_mean() - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "subset must be non-empty")]
    fn empty_subset_panics() {
        let _ = data().subset(&[]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]], vec![1.0, 2.0]);
    }
}
