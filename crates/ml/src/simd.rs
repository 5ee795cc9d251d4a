//! Lane-parallel f64 kernels for batch prediction.
//!
//! # The rows-not-reductions rule
//!
//! Every kernel here vectorizes **across rows** (independent predictions
//! advancing in lock step), never across a reduction dimension. Each
//! lane owns one row and performs, operation for operation, the exact
//! arithmetic sequence of the scalar reference path — same feature
//! order, same tree-node order, same rounding at every step — so lane
//! results are *bit-identical* to the scalar ones by construction, not
//! by tolerance. What the lanes buy is instruction-level parallelism:
//! independent dependency chains for the compiler to interleave (and,
//! where profitable, autovectorize into SIMD registers) instead of one
//! serial chain per row.
//!
//! Two kernels live here, hand-rolled over plain lane arrays on stable
//! Rust — no intrinsics, no new dependencies:
//!
//! - [`lasso_fold4`], the 4-wide sparse standardized dot product of the
//!   lasso batch path (fed by
//!   [`Matrix::lane_blocks`](crate::Matrix::lane_blocks));
//! - `DenseForest`, the gradient-boosting batch walk: every stage
//!   re-laid out as a dense complete tree of one common depth, walked
//!   eight rows at a time (fed by
//!   [`Matrix::row_chunks`](crate::Matrix::row_chunks)). An ensemble
//!   with a stage deeper than [`DENSE_MAX_DEPTH`] takes the scalar
//!   flat-table walk instead.
//!
//! Callers handle the leftover `rows % W` tail one row at a time.

// The tree-walk step is `2*i + usize::from(!(x <= t))`: the scalar
// reference path is `if x <= t { left } else { right }`, whose else
// branch fires on !(x <= t) — for a NaN feature that routes *right*,
// while the "cleaner" `x > t` would route left. The negated form is
// the bit-identity-preserving one.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

/// Lane width shared by all kernels and by
/// [`Matrix::lane_blocks`](crate::Matrix::lane_blocks).
pub const LANES: usize = 4;

/// Sparse standardized dot product, four rows at a time.
///
/// For each nonzero weight `(j, w)` in `nz` — in order — every lane `k`
/// computes `z[k] += w * ((rows[k][j] - means[j]) / stds[j])`, exactly
/// the term sequence of the scalar lasso batch path. The division is
/// kept per lane (no reciprocal precomputation): `x / s` and
/// `x * (1.0 / s)` round differently, and bit-identity wins over the
/// cheaper multiply.
///
/// # Panics
/// Panics if a feature index in `nz` is out of bounds for any row.
#[inline]
#[must_use]
pub fn lasso_fold4(
    rows: [&[f64]; LANES],
    nz: &[(usize, f64)],
    means: &[f64],
    stds: &[f64],
) -> [f64; LANES] {
    let [r0, r1, r2, r3] = rows;
    let mut z = [0.0f64; LANES];
    for &(j, w) in nz {
        let m = means[j];
        let s = stds[j];
        z[0] += w * ((r0[j] - m) / s);
        z[1] += w * ((r1[j] - m) / s);
        z[2] += w * ((r2[j] - m) / s);
        z[3] += w * ((r3[j] - m) / s);
    }
    z
}

/// Deepest tree the dense complete-tree layout will materialize
/// (`2^depth` leaf slots; 12 → 32 KiB of values per tree). An ensemble
/// with any deeper stage falls back to the scalar flat-table walk.
pub const DENSE_MAX_DEPTH: usize = 12;

/// A tree re-laid out as a *dense complete binary tree* in heap order:
/// interior node `i` has children `2i` and `2i + 1`, the root is node 1,
/// and after `depth` steps the cursor lands in `2^depth..2^(depth+1)`,
/// indexing the leaf value table directly. The walk therefore needs no
/// child-pointer loads at all — one feature load, one row load, one
/// threshold load, and an arithmetic step per level.
///
/// Trees shallower than `depth` along some path are padded by
/// replicating the early leaf's value (the same f64 bits) across every
/// descendant leaf slot; padding interiors keep feature 0 / threshold
/// 0.0 and route arbitrarily, which is harmless because both subtrees
/// hold identical copies. The route a row takes through real interior
/// nodes applies exactly the scalar walk's compares in the same order,
/// so evaluation is bit-identical to the flat-table walk.
///
/// Only [`DenseForest::new`] consumes these; the forest does the walking.
#[derive(Debug, Clone)]
pub(crate) struct DenseTree {
    depth: usize,
    /// `1 << depth` entries, heap-indexed (slot 0 unused).
    feature: Vec<u32>,
    /// `1 << depth` entries, heap-indexed (slot 0 unused).
    threshold: Vec<f64>,
    /// `1 << depth` leaf values for heap slots `2^depth..2^(depth+1)`.
    value: Vec<f64>,
}

impl DenseTree {
    /// Re-lay a flat node table whose leaves are self-loops
    /// (`left == right == self`) densely. Returns `None` when the tree is
    /// deeper than [`DENSE_MAX_DEPTH`] — the table would be exponential.
    #[must_use]
    pub(crate) fn from_flat(
        feature: &[u32],
        threshold: &[f64],
        left: &[u32],
        right: &[u32],
        value: &[f64],
    ) -> Option<DenseTree> {
        fn node_depth(left: &[u32], right: &[u32], i: usize, limit: usize) -> Option<usize> {
            if left[i] as usize == i {
                return Some(0);
            }
            if limit == 0 {
                return None;
            }
            let l = node_depth(left, right, left[i] as usize, limit - 1)?;
            let r = node_depth(left, right, right[i] as usize, limit - 1)?;
            Some(1 + l.max(r))
        }
        let depth = node_depth(left, right, 0, DENSE_MAX_DEPTH)?;
        let slots = 1usize << depth;
        let mut dense = DenseTree {
            depth,
            feature: vec![0; slots],
            threshold: vec![0.0; slots],
            value: vec![0.0; slots],
        };
        dense.fill(feature, threshold, left, right, value, 0, 1, depth);
        Some(dense)
    }

    /// Copy the subtree rooted at flat node `ni` into heap slot `hi`,
    /// `levels` levels above the leaf row.
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &mut self,
        feature: &[u32],
        threshold: &[f64],
        left: &[u32],
        right: &[u32],
        value: &[f64],
        ni: usize,
        hi: usize,
        levels: usize,
    ) {
        if left[ni] as usize == ni {
            // Leaf: replicate its value across every descendant leaf slot.
            let first = hi << levels;
            for slot in first..first + (1 << levels) {
                self.value[slot - (1 << self.depth)] = value[ni];
            }
            return;
        }
        self.feature[hi] = feature[ni];
        self.threshold[hi] = threshold[ni];
        let below = levels - 1;
        self.fill(
            feature,
            threshold,
            left,
            right,
            value,
            left[ni] as usize,
            2 * hi,
            below,
        );
        self.fill(
            feature,
            threshold,
            left,
            right,
            value,
            right[ni] as usize,
            2 * hi + 1,
            below,
        );
    }
}

/// A whole boosted ensemble's trees packed into one arena of dense
/// complete trees, every stage padded to the *same* depth (the max over
/// stages), walked tree-by-tree *inside* one call per row group. This is
/// the gradient-boosting batch kernel.
///
/// Compared to walking one stage at a time over every row this wins
/// three ways: the eight row accumulators stay in registers across
/// every stage instead of round-tripping through memory per tree; group
/// setup (lane splits, bounds facts) is paid once per group rather than
/// once per tree; and per-tree setup shrinks to three `chunks_exact`
/// pointer advances — no `Vec`-header derefs, no per-tree depth or mask,
/// both hoisted out of the stage loop by the uniform padding.
///
/// Padding a depth-`d` tree to depth `D` keeps evaluation bit-identical
/// by the same replication argument as [`DenseTree`]: levels `d..D` get
/// feature 0 / threshold 0.0 interiors that route arbitrarily, and leaf
/// slot `j` at depth `D` holds the depth-`d` leaf `j >> (D - d)`'s exact
/// f64 bits, so wherever the extra steps land the value is the same.
#[derive(Debug, Clone)]
pub(crate) struct DenseForest {
    /// Uniform padded depth of every tree.
    depth: usize,
    /// Largest feature index any step can read, or `None` when
    /// `depth == 0` (no row reads at all).
    max_feature: Option<u32>,
    /// `n_trees << depth` entries: tree `k`'s heap slots at
    /// `k << depth ..`, slot 0 of each unused.
    feature: Vec<u32>,
    /// Same layout as `feature`.
    threshold: Vec<f64>,
    /// `n_trees << depth` leaf values, tree-major.
    value: Vec<f64>,
}

impl DenseForest {
    /// Pack the given trees (stage order preserved) into one arena.
    #[must_use]
    pub(crate) fn new(trees: &[DenseTree]) -> DenseForest {
        let depth = trees.iter().map(|t| t.depth).max().unwrap_or(0);
        let slots = 1usize << depth;
        let mut forest = DenseForest {
            depth,
            max_feature: None,
            feature: vec![0; trees.len() * slots],
            threshold: vec![0.0; trees.len() * slots],
            value: vec![0.0; trees.len() * slots],
        };
        for (k, t) in trees.iter().enumerate() {
            let base = k * slots;
            // Heap indexing is position-independent across depths: node
            // `i` sits at heap slot `i` in both layouts, so levels
            // `0..t.depth` copy straight over and deeper levels keep the
            // zero padding.
            let n = t.feature.len();
            forest.feature[base..base + n].copy_from_slice(&t.feature);
            forest.threshold[base..base + n].copy_from_slice(&t.threshold);
            let pad = depth - t.depth;
            for (j, v) in forest.value[base..base + slots].iter_mut().enumerate() {
                *v = t.value[j >> pad];
            }
        }
        if depth > 0 {
            // Padding interiors read feature 0, so the max over the
            // whole arena (not just real nodes) is what rows must cover.
            forest.max_feature = forest.feature.iter().copied().max();
        }
        forest
    }

    /// Check once that rows of length `len` cover every feature index
    /// any step can read, so the per-step row loads can go unchecked.
    #[inline]
    fn check_row_len(&self, len: usize) {
        if let Some(mf) = self.max_feature {
            assert!((mf as usize) < len, "row shorter than forest features");
        }
    }

    /// Per-tree arena chunks, stage order: `(feature, threshold, value)`.
    #[inline]
    fn tree_tables(&self) -> impl Iterator<Item = (&[u32], &[f64], &[f64])> {
        let slots = 1usize << self.depth;
        self.feature
            .chunks_exact(slots)
            .zip(self.threshold.chunks_exact(slots))
            .zip(self.value.chunks_exact(slots))
            .map(|((f, t), v)| (f, t, v))
    }

    /// Sum of every tree's prediction for one row, in stage order
    /// starting from `0.0` — bit-identical to summing the scalar
    /// flat-table walk's leaf values one stage at a time.
    ///
    /// # Panics
    /// Panics when `row` does not cover the forest's feature indices.
    #[must_use]
    pub(crate) fn eval(&self, row: &[f64]) -> f64 {
        self.check_row_len(row.len());
        let mask = (1usize << self.depth) - 1;
        let mut sum = 0.0;
        for (feature, threshold, value) in self.tree_tables() {
            let mut i = 1usize;
            for _ in 0..self.depth {
                // SAFETY: the cursor starts at 1 and doubles (+0/1) per
                // level, so before each of the `depth` steps it is below
                // `1 << depth`, the chunk length; the feature index is
                // <= max_feature < row.len() by `check_row_len`.
                i = unsafe {
                    let f = *feature.get_unchecked(i) as usize;
                    let x = *row.get_unchecked(f);
                    let t = *threshold.get_unchecked(i);
                    2 * i + usize::from(!(x <= t))
                };
            }
            sum += value[i & mask];
        }
        sum
    }

    /// Add every tree's prediction for each of the eight rows stored
    /// contiguously in `block` (`8 * cols` values, row-major) into
    /// `sums`, stages in order — the same steps as [`DenseForest::eval`]
    /// per lane, eight independent cursor chains deep. Eight explicit
    /// scalar cursors (not an indexed array) keep every chain in
    /// registers and fully unrolled; that width hides the ~dozen-cycle
    /// feature-load → row-load → compare latency of a single chain.
    /// Taking one flat block instead of `[&[f64]; 8]` spares the caller
    /// materializing eight fat slice pointers per group.
    ///
    /// # Panics
    /// Panics when `block` is not exactly eight rows of `cols`, or when
    /// `cols` does not cover the forest's feature indices.
    #[inline]
    pub(crate) fn accumulate8(&self, block: &[f64], cols: usize, sums: &mut [f64; 2 * LANES]) {
        assert_eq!(block.len(), 2 * LANES * cols, "block must hold 8 rows");
        self.check_row_len(cols);
        let (r0, rest) = block.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, rest) = rest.split_at(cols);
        let (r3, rest) = rest.split_at(cols);
        let (r4, rest) = rest.split_at(cols);
        let (r5, rest) = rest.split_at(cols);
        let (r6, r7) = rest.split_at(cols);
        let mask = (1usize << self.depth) - 1;
        let [mut s0, mut s1, mut s2, mut s3, mut s4, mut s5, mut s6, mut s7] = *sums;
        for (feature, threshold, value) in self.tree_tables() {
            macro_rules! step {
                ($r:ident, $i:ident) => {
                    // SAFETY: the cursor starts at 1 and doubles (+0/1)
                    // per level, so before each of the `depth` steps it
                    // is below `1 << depth`, the chunk length; the
                    // feature index is <= max_feature < cols (the lane
                    // slice length) by `check_row_len`.
                    $i = unsafe {
                        let f = *feature.get_unchecked($i) as usize;
                        let x = *$r.get_unchecked(f);
                        let t = *threshold.get_unchecked($i);
                        2 * $i + usize::from(!(x <= t))
                    };
                };
            }
            let (mut i0, mut i1, mut i2, mut i3) = (1usize, 1usize, 1usize, 1usize);
            let (mut i4, mut i5, mut i6, mut i7) = (1usize, 1usize, 1usize, 1usize);
            for _ in 0..self.depth {
                step!(r0, i0);
                step!(r1, i1);
                step!(r2, i2);
                step!(r3, i3);
                step!(r4, i4);
                step!(r5, i5);
                step!(r6, i6);
                step!(r7, i7);
            }
            s0 += value[i0 & mask];
            s1 += value[i1 & mask];
            s2 += value[i2 & mask];
            s3 += value[i3 & mask];
            s4 += value[i4 & mask];
            s5 += value[i5 & mask];
            s6 += value[i6 & mask];
            s7 += value[i7 & mask];
        }
        *sums = [s0, s1, s2, s3, s4, s5, s6, s7];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference: the exact loop `lasso_fold4` must match per lane.
    fn lasso_scalar(row: &[f64], nz: &[(usize, f64)], means: &[f64], stds: &[f64]) -> f64 {
        let mut z = 0.0;
        for &(j, w) in nz {
            z += w * ((row[j] - means[j]) / stds[j]);
        }
        z
    }

    #[test]
    fn lasso_fold4_matches_scalar_per_lane_bitwise() {
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|k| (0..5).map(|j| (k * 5 + j) as f64 * 0.37 - 1.4).collect())
            .collect();
        let nz = vec![(0usize, 0.3), (2, -1.7), (4, 0.05)];
        let means = [0.1, 0.2, 0.3, 0.4, 0.5];
        let stds = [1.0, 2.0, 0.7, 1.3, 0.9];
        let blocks: [&[f64]; 4] = [&rows[0], &rows[1], &rows[2], &rows[3]];
        let got = lasso_fold4(blocks, &nz, &means, &stds);
        for k in 0..4 {
            let want = lasso_scalar(&rows[k], &nz, &means, &stds);
            assert_eq!(want.to_bits(), got[k].to_bits(), "lane {k}");
        }
    }

    /// A tiny hand-built absorbing-leaf tree (depth 2):
    ///   node 0: x0 <= 1.5 ? node 1 : node 2
    ///   node 1: leaf 10.0 (self-loop, feature 0)
    ///   node 2: x1 <= 0.0 ? node 3 : node 4
    ///   node 3: leaf -3.0, node 4: leaf 5.0 (self-loops)
    #[allow(clippy::type_complexity)]
    fn toy_tree() -> (Vec<u32>, Vec<f64>, Vec<u32>, Vec<u32>, Vec<f64>) {
        (
            vec![0, 0, 1, 0, 0],
            vec![1.5, 0.0, 0.0, 0.0, 0.0],
            vec![1, 1, 3, 3, 4],
            vec![2, 1, 4, 3, 4],
            vec![0.0, 10.0, 0.0, -3.0, 5.0],
        )
    }

    fn toy_dense() -> DenseTree {
        let (f, t, l, r, v) = toy_tree();
        DenseTree::from_flat(&f, &t, &l, &r, &v).expect("depth 2 densifies")
    }

    /// Four rows routed to different leaves at different depths.
    fn toy_rows() -> [Vec<f64>; 4] {
        [
            vec![0.0, 0.0],  // -> leaf 10.0 (depth 1)
            vec![2.0, -1.0], // -> leaf -3.0 (depth 2)
            vec![2.0, 1.0],  // -> leaf 5.0  (depth 2)
            vec![1.5, 9.0],  // boundary: x0 <= 1.5 -> leaf 10.0
        ]
    }

    /// Early-exit scalar reference over the toy tree: a leaf is a
    /// self-loop.
    fn walk_scalar(row: &[f64]) -> f64 {
        let (feature, threshold, left, right, value) = toy_tree();
        let mut i = 0usize;
        loop {
            if left[i] as usize == i {
                return value[i];
            }
            i = if row[feature[i] as usize] <= threshold[i] {
                left[i] as usize
            } else {
                right[i] as usize
            };
        }
    }

    #[test]
    fn dense_tree_matches_scalar_walk() {
        // The depth-1 leaf 10.0 is padded down to depth 2, so the table
        // holds 4 leaf slots; a one-tree forest sums from +0.0.
        let forest = DenseForest::new(&[toy_dense()]);
        for row in toy_rows() {
            let want = 0.0 + walk_scalar(&row);
            assert_eq!(want.to_bits(), forest.eval(&row).to_bits(), "row {row:?}");
        }
    }

    #[test]
    fn dense_tree_rejects_too_deep_trees() {
        // A left-spine chain deeper than DENSE_MAX_DEPTH: node i tests
        // x0 <= i and descends to i + 1 on both sides until the leaf.
        let n = DENSE_MAX_DEPTH + 2;
        let feature = vec![0u32; n];
        let threshold: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let left: Vec<u32> = (0..n).map(|i| (i + 1).min(n - 1) as u32).collect();
        let right = left.clone();
        let value = vec![0.0; n];
        assert!(DenseTree::from_flat(&feature, &threshold, &left, &right, &value).is_none());
    }

    #[test]
    fn dense_forest_pads_mixed_depths_bit_identically() {
        // One depth-2 tree and one depth-0 leaf tree (value -0.0): the
        // forest pads the leaf to depth 2 and must still reproduce the
        // stage-order sum bit for bit, including the signed zero.
        let leaf = DenseTree::from_flat(&[0], &[0.0], &[0], &[0], &[-0.0]).expect("depth 0");
        let forest = DenseForest::new(&[toy_dense(), leaf]);
        let rows = toy_rows();
        for row in &rows {
            let want = 0.0 + walk_scalar(row) + -0.0;
            assert_eq!(want.to_bits(), forest.eval(row).to_bits(), "row {row:?}");
        }
        // accumulate8 must match eval per lane (two groups of the four
        // rows repeated).
        let block: Vec<f64> = rows.iter().chain(rows.iter()).flatten().copied().collect();
        let mut sums = [1.0f64; 8];
        forest.accumulate8(&block, 2, &mut sums);
        for (k, s) in sums.iter().enumerate() {
            let want = 1.0 + forest.eval(&rows[k % 4]);
            assert_eq!(want.to_bits(), s.to_bits(), "lane {k}");
        }
    }

    #[test]
    #[should_panic(expected = "row shorter than forest features")]
    fn dense_forest_rejects_short_rows() {
        let forest = DenseForest::new(&[toy_dense()]);
        // The tree reads feature 1; a 1-wide row must be refused up
        // front (the walk itself skips per-step bounds checks).
        let _ = forest.eval(&[0.0]);
    }
}
