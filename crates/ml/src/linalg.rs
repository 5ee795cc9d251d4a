//! Minimal dense linear algebra: just enough for normal-equation solves.
//!
//! Index-based loops are intentional here: they mirror the textbook
//! formulas and keep the math auditable.
#![allow(clippy::needless_range_loop)]

use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from nested rows.
    ///
    /// # Panics
    /// Panics on empty or ragged input.
    #[must_use]
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Matrix {
        assert!(
            !rows.is_empty() && !rows[0].is_empty(),
            "matrix must be non-empty"
        );
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let r = rows.len();
        Matrix {
            rows: r,
            cols,
            data: rows.into_iter().flatten().collect(),
        }
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Borrow row `r` as a contiguous slice.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over all rows as contiguous slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Gram matrix `XᵀX` (`cols x cols`).
    #[must_use]
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += self.get(r, i) * self.get(r, j);
                }
                g.set(i, j, s);
                g.set(j, i, s);
            }
        }
        g
    }

    /// `Xᵀ y` (length `cols`).
    ///
    /// # Panics
    /// Panics if `y.len() != rows`.
    #[must_use]
    pub fn t_mul_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c] += self.get(r, c) * y[r];
            }
        }
        out
    }

    /// Add `v` to every diagonal element (ridge regularization).
    pub fn add_diagonal(&mut self, v: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            let cur = self.get(i, i);
            self.set(i, i, cur + v);
        }
    }

    /// Iterate over full [`LANES`](crate::simd::LANES)-row blocks for the
    /// lane-parallel kernels in [`crate::simd`].
    ///
    /// The matrix is row-major, so four consecutive rows already share one
    /// contiguous backing slice with stride `cols` — the block view is
    /// zero-copy. Rows past the last full block (`rows % 4` of them, the
    /// scalar tail) are not yielded; they start at [`Matrix::lane_tail`].
    pub fn lane_blocks(&self) -> impl Iterator<Item = RowBlock4<'_>> {
        let cols = self.cols;
        self.data
            .chunks_exact(cols * crate::simd::LANES)
            .map(move |data| RowBlock4 { data, cols })
    }

    /// Index of the first row not covered by [`Matrix::lane_blocks`] —
    /// the start of the `rows % 4` scalar tail (equals `rows()` when the
    /// row count divides evenly).
    #[must_use]
    pub fn lane_tail(&self) -> usize {
        self.rows - self.rows % crate::simd::LANES
    }

    /// Iterate over full `W`-row groups as single contiguous slices of
    /// `W * cols` values (row-major, stride = column count), zero-copy
    /// like [`Matrix::lane_blocks`] — the feed of the gradient-boosting
    /// forest walk in [`crate::simd`]. Rows past the last full group
    /// start at [`Matrix::group_tail`].
    pub fn row_chunks<const W: usize>(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols * W)
    }

    /// Index of the first row not covered by [`Matrix::row_chunks`] with
    /// the same `W` — the start of the `rows % W` scalar tail.
    #[must_use]
    pub fn group_tail<const W: usize>(&self) -> usize {
        self.rows - self.rows % W
    }
}

/// A borrowed block of four consecutive matrix rows sharing one
/// contiguous backing slice (stride = column count). Produced by
/// [`Matrix::lane_blocks`]; feeds the kernels in [`crate::simd`] without
/// copying.
#[derive(Debug, Clone, Copy)]
pub struct RowBlock4<'a> {
    data: &'a [f64],
    cols: usize,
}

impl<'a> RowBlock4<'a> {
    /// The four row slices, in matrix order.
    #[must_use]
    pub fn lanes(&self) -> [&'a [f64]; crate::simd::LANES] {
        let c = self.cols;
        [
            &self.data[..c],
            &self.data[c..2 * c],
            &self.data[2 * c..3 * c],
            &self.data[3 * c..4 * c],
        ]
    }
}

/// Solve `A x = b` for symmetric positive-definite `A` via Cholesky
/// decomposition. Returns `None` when `A` is not positive-definite
/// (singular normal equations).
///
/// # Panics
/// Panics if `A` is not square or `b` has the wrong length.
#[must_use]
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    assert_eq!(b.len(), a.rows(), "rhs length mismatch");
    let n = a.rows();
    // Cholesky: A = L Lᵀ.
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut s = a.get(i, j);
            for k in 0..j {
                s -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if s <= 1e-12 {
                    return None;
                }
                l[i * n + i] = s.sqrt();
            } else {
                l[i * n + j] = s / l[j * n + j];
            }
        }
    }
    // Forward solve L z = b.
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * n + k] * z[k];
        }
        z[i] = s / l[i * n + i];
    }
    // Back solve Lᵀ x = z.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = z[i];
        for k in (i + 1)..n {
            s -= l[k * n + i] * x[k];
        }
        x[i] = s / l[i * n + i];
    }
    Some(x)
}

/// Dot product.
///
/// # Panics
/// Panics on length mismatch in debug builds.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gram_of_identity_like() {
        let x = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 2.0]]);
        let g = x.gram();
        assert_eq!(g.get(0, 0), 1.0);
        assert_eq!(g.get(1, 1), 4.0);
        assert_eq!(g.get(0, 1), 0.0);
    }

    #[test]
    fn t_mul_vec_works() {
        let x = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let v = x.t_mul_vec(&[1.0, 1.0]);
        assert_eq!(v, vec![4.0, 6.0]);
    }

    #[test]
    fn solve_2x2() {
        // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11].
        let a = Matrix::from_rows(vec![vec![4.0, 1.0], vec![1.0, 3.0]]);
        let x = solve_spd(&a, &[1.0, 2.0]).unwrap();
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn singular_returns_none() {
        let a = Matrix::from_rows(vec![vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert!(solve_spd(&a, &[1.0, 1.0]).is_none());
    }

    #[test]
    fn ridge_diagonal_fixes_singularity() {
        let mut a = Matrix::from_rows(vec![vec![1.0, 1.0], vec![1.0, 1.0]]);
        a.add_diagonal(0.1);
        assert!(solve_spd(&a, &[1.0, 1.0]).is_some());
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn row_slices_are_contiguous_views() {
        let x = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(x.row(0), &[1.0, 2.0]);
        assert_eq!(x.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn larger_solve_round_trip() {
        // Random-ish SPD matrix: G = XᵀX + 0.5 I.
        let x = Matrix::from_rows(vec![
            vec![1.0, 2.0, 0.5],
            vec![0.3, 1.7, 2.2],
            vec![2.1, 0.2, 1.1],
            vec![1.4, 1.4, 0.7],
        ]);
        let mut g = x.gram();
        g.add_diagonal(0.5);
        let truth = [0.7, -1.2, 2.5];
        // b = G * truth
        let mut b = vec![0.0; 3];
        for i in 0..3 {
            for j in 0..3 {
                b[i] += g.get(i, j) * truth[j];
            }
        }
        let sol = solve_spd(&g, &b).unwrap();
        for i in 0..3 {
            assert!((sol[i] - truth[i]).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_panic() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_cols_panic() {
        let _ = Matrix::zeros(3, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn from_rows_rejects_zero_rows() {
        let _ = Matrix::from_rows(Vec::new());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn lane_blocks_cover_every_row_exactly_once_for_all_tails() {
        // rows % 4 in {1, 2, 3, 0}: blocks plus tail must partition the
        // rows in order, with a tail strictly shorter than one block.
        for rows in 1..=9usize {
            let m = Matrix::from_rows(
                (0..rows)
                    .map(|r| vec![r as f64, r as f64 + 0.5, -(r as f64)])
                    .collect(),
            );
            let tail = m.lane_tail();
            assert_eq!(tail % 4, 0, "rows={rows}");
            assert!(m.rows() - tail < 4, "rows={rows}");
            let mut seen = 0usize;
            for block in m.lane_blocks() {
                for lane in block.lanes() {
                    assert_eq!(lane, m.row(seen), "rows={rows} row={seen}");
                    seen += 1;
                }
            }
            assert_eq!(seen, tail, "rows={rows}");
            for r in tail..m.rows() {
                assert_eq!(m.row(r)[0], r as f64, "rows={rows}");
            }
        }
    }

    #[test]
    fn lane_blocks_on_single_column_matrix() {
        let m = Matrix::from_rows((0..5).map(|r| vec![r as f64]).collect());
        let blocks: Vec<_> = m.lane_blocks().collect();
        assert_eq!(blocks.len(), 1);
        assert_eq!(m.lane_tail(), 4);
        assert_eq!(blocks[0].lanes()[3], &[3.0]);
    }
}
