//! Regression trees (CART-style, variance-reduction splits).
//!
//! Fitted trees are stored as flat structure-of-arrays node tables rather
//! than boxed enum nodes: gradient boosting evaluates 100 trees over
//! thousands of configuration rows per `predict_all`, and a pointer-free
//! index walk keeps that traversal in cache with no per-node indirection.
//!
//! Fitting is presorted: a [`SplitWorkspace`] materializes one per-feature
//! row order over the whole dataset (sorted by `(value, row index)`),
//! built once and reused across every boosting stage. Each stage derives
//! its root order by filtering that master order against the subsample
//! mask — no per-node or per-stage sorting — and children inherit their
//! parents' orders through stable partitions. The split search scans
//! the features serially in index order and keeps the first strict-`>`
//! maximum (ties keep the lowest feature index, then the lowest
//! threshold), so a fitted tree is a pure function of its rows, targets,
//! subsample set and params. Paper-scale fits (tens to a few hundred rows
//! of about a dozen features) are too small for a threaded scan to pay
//! for its spawns.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::linalg::Matrix;
use crate::model::Regressor;

/// Reusable presorted split-search state for one dataset.
///
/// Gradient boosting fits hundreds of trees over the *same* feature rows
/// with changing targets and subsamples; everything about the rows that
/// split search needs — the per-feature `(value, row index)` sort order —
/// is computed once here and shared by every [`RegressionTree::fit_in`]
/// call. The workspace also recycles the per-node index buffers across
/// stages so steady-state fitting does not allocate.
#[derive(Debug)]
pub struct SplitWorkspace {
    n_rows: usize,
    dim: usize,
    /// Per-feature row order over the full dataset, stable-sorted by
    /// feature value (ties therefore stay in row-index order).
    master: Vec<Vec<u32>>,
    /// Feature-major copy of the rows (`cols[f][i] == rows[i][f]`): the
    /// split scan walks one feature at a time, and a flat column turns
    /// its two dependent loads per element into one.
    cols: Vec<Vec<f64>>,
    /// Subsample membership mask, reused (and cleared) per fit.
    in_sample: Vec<bool>,
    /// Per-row partition side for the node being split, so the `d + 1`
    /// stable partitions test one byte instead of re-deriving the
    /// predicate from the feature value each time.
    side: Vec<bool>,
    /// Recycled index buffers for node lists.
    pool: Vec<Vec<u32>>,
}

impl SplitWorkspace {
    /// Build the master per-feature sort orders for `rows`.
    #[must_use]
    pub fn for_rows(rows: &[Vec<f64>]) -> SplitWorkspace {
        let n = rows.len();
        let dim = if n == 0 { 0 } else { rows[0].len() };
        let cols: Vec<Vec<f64>> = (0..dim)
            .map(|f| rows.iter().map(|r| r[f]).collect())
            .collect();
        let master = (0..dim)
            .map(|f| {
                let mut order: Vec<u32> = (0..n as u32).collect();
                // Stable sort of an ascending index list: equal values
                // keep row-index order, i.e. (value, row) lexicographic.
                order.sort_by(|&a, &b| cols[f][a as usize].total_cmp(&cols[f][b as usize]));
                order
            })
            .collect();
        SplitWorkspace {
            n_rows: n,
            dim,
            master,
            cols,
            in_sample: vec![false; n],
            side: vec![false; n],
            pool: Vec::new(),
        }
    }

    fn take_buf(&mut self) -> Vec<u32> {
        self.pool.pop().unwrap_or_default()
    }
}

/// Shared immutable fit inputs threaded through the recursive builder.
struct FitCtx<'a> {
    /// Feature-major columns from the workspace (the scan's data path).
    cols: &'a [Vec<f64>],
    targets: &'a [f64],
    params: TreeParams,
}

/// Tree growth controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum examples a leaf may hold.
    pub min_leaf: usize,
}

impl Default for TreeParams {
    /// Shallow trees: the gradient-boosting weak learner of Section 4.3.
    fn default() -> TreeParams {
        TreeParams {
            max_depth: 3,
            min_leaf: 2,
        }
    }
}

/// Flattened tree nodes in structure-of-arrays layout. Node 0 is the
/// root; interior nodes route `row[feature[i]] <= threshold[i]` to
/// `left[i]`, else `right[i]`. A leaf is an *absorbing self-loop*
/// (`left == right == self`, with feature 0 and threshold 0.0): stepping
/// it lands back on it regardless of the compare. That lets the
/// fixed-depth lane-parallel walk in [`crate::simd`] step every lane
/// `max_depth` times unconditionally — one gather/compare/select per
/// level, no leaf-sentinel test in the hot loop. Children are always
/// pushed after their parent, so `left[i] == i` uniquely identifies
/// leaves for the early-exit scalar walk.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct FlatNodes {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
    value: Vec<f64>,
}

impl FlatNodes {
    fn push_leaf(&mut self, value: f64) -> u32 {
        let id = self.push(0, 0.0, value);
        self.left[id as usize] = id;
        self.right[id as usize] = id;
        id
    }

    /// Leaves are exactly the self-looping nodes.
    fn is_leaf(&self, i: usize) -> bool {
        self.left[i] as usize == i
    }

    fn push_split(&mut self, feature: usize, threshold: f64) -> u32 {
        self.push(
            // mct-tidy: allow(P003) -- feature count is bounded by the config-space width
            u32::try_from(feature).expect("feature index fits u32"),
            threshold,
            0.0,
        )
    }

    fn push(&mut self, feature: u32, threshold: f64, value: f64) -> u32 {
        // mct-tidy: allow(P003) -- node count is bounded by the depth limit
        let id = u32::try_from(self.feature.len()).expect("node count fits u32");
        self.feature.push(feature);
        self.threshold.push(threshold);
        self.left.push(0);
        self.right.push(0);
        self.value.push(value);
        id
    }
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    params: TreeParams,
    nodes: FlatNodes,
}

impl RegressionTree {
    /// An unfit tree.
    #[must_use]
    pub fn new(params: TreeParams) -> RegressionTree {
        RegressionTree {
            params,
            nodes: FlatNodes::default(),
        }
    }

    /// Fit on a subset of example indices (gradient boosting trains each
    /// stage on a subsample). One-shot wrapper over [`Self::fit_in`] with
    /// a throwaway workspace.
    ///
    /// # Panics
    /// Panics if `idx` is empty.
    pub fn fit_indices(&mut self, data: &Dataset, idx: &[usize]) {
        let mut ws = SplitWorkspace::for_rows(data.rows());
        self.fit_in(&mut ws, data.rows(), data.targets(), idx);
    }

    /// Fit over `idx` using a prebuilt [`SplitWorkspace`] for `rows`.
    ///
    /// The fitted tree is a pure function of `(rows, targets, idx-as-set,
    /// params)`: candidate scans always run in the workspace's
    /// `(value, row index)` order, so the order of `idx` changes not a
    /// single bit of the result.
    ///
    /// # Panics
    /// Panics if `idx` is empty, contains duplicates or out-of-range rows,
    /// or if the workspace was built for a different row count.
    pub fn fit_in(
        &mut self,
        ws: &mut SplitWorkspace,
        rows: &[Vec<f64>],
        targets: &[f64],
        idx: &[usize],
    ) {
        assert!(!idx.is_empty(), "cannot fit on zero examples");
        assert_eq!(ws.n_rows, rows.len(), "workspace/dataset row mismatch");
        assert_eq!(targets.len(), rows.len(), "targets/rows length mismatch");
        // Membership mask, then root per-feature orders by filtering the
        // master order — stable partition of a (value, row) sort is the
        // same (value, row) sort, so no per-stage sorting is needed.
        for &i in idx {
            assert!(!ws.in_sample[i], "duplicate index in fit subsample");
            ws.in_sample[i] = true;
        }
        let dim = ws.dim;
        let mut root_lists: Vec<Vec<u32>> = Vec::with_capacity(dim);
        for f in 0..dim {
            let mut list = ws.pool.pop().unwrap_or_default();
            list.clear();
            list.extend(
                ws.master[f]
                    .iter()
                    .copied()
                    .filter(|&i| ws.in_sample[i as usize]),
            );
            root_lists.push(list);
        }
        let mut members = ws.take_buf();
        members.clear();
        members.extend(idx.iter().map(|&i| i as u32));
        members.sort_unstable();
        let ctx = FitCtx {
            cols: &ws.cols,
            targets,
            params: self.params,
        };
        let mut nodes = FlatNodes::default();
        let root = build_sorted(
            &ctx,
            &mut nodes,
            &mut ws.pool,
            &mut ws.side,
            root_lists,
            members,
            0,
        );
        debug_assert_eq!(root, 0, "root must be node 0");
        for &i in idx {
            ws.in_sample[i] = false;
        }
        self.nodes = nodes;
    }

    /// The fitted node table, or `None` before [`Regressor::fit`] — the
    /// shared not-fitted gate for every predict entry point, matching the
    /// `Option`-backed fitted-state checks of the other models.
    fn fitted(&self) -> Option<&FlatNodes> {
        (!self.nodes.feature.is_empty()).then_some(&self.nodes)
    }

    /// Walk the flat node table for one row. The tree must be fitted.
    #[inline]
    pub(crate) fn eval_row(&self, row: &[f64]) -> f64 {
        let n = &self.nodes;
        let mut i = 0usize;
        loop {
            if n.is_leaf(i) {
                return n.value[i];
            }
            i = if row[n.feature[i] as usize] <= n.threshold[i] {
                n.left[i] as usize
            } else {
                n.right[i] as usize
            };
        }
    }

    /// Lane width of the deep-tree fallback walk in
    /// [`RegressionTree::accumulate_batch`].
    pub(crate) const ACCUM_LANES: usize = 16;

    /// Densify this tree for the pointer-free heap walk, or `None` when
    /// it exceeds [`crate::simd::DENSE_MAX_DEPTH`].
    pub(crate) fn densify(&self) -> Option<crate::simd::DenseTree> {
        let n = &self.nodes;
        crate::simd::DenseTree::from_flat(&n.feature, &n.threshold, &n.left, &n.right, &n.value)
    }

    /// Add this tree's prediction for every matrix row into `sums`
    /// (gradient boosting's inner loop). The tree is first re-laid out
    /// as a dense complete tree ([`crate::simd::DenseTree`], a few
    /// hundred bytes for the shallow boosting learners — built once per
    /// batch, amortized over every row), then full 4-row blocks walk
    /// lane-parallel with computed children and the `rows % 4` tail
    /// walks one row at a time. Trees too deep to densify take the
    /// 16-wide interleaved flat-table walk instead
    /// ([`crate::simd::tree_accumulate`]).
    pub(crate) fn accumulate_batch(&self, rows: &Matrix, sums: &mut [f64]) {
        debug_assert_eq!(sums.len(), rows.rows());
        if let Some(dense) = self.densify() {
            let split = rows.group_tail::<8>();
            let (head, tail) = sums.split_at_mut(split);
            for (block, s8) in rows.row_chunks::<8>().zip(head.chunks_exact_mut(8)) {
                // mct-tidy: allow(P003) -- chunks_exact_mut(8) yields exactly 8
                let s8: &mut [f64; 8] = s8.try_into().expect("lane-width chunk");
                dense.accumulate8(block, rows.cols(), s8);
            }
            for (r, s) in (split..rows.rows()).zip(tail.iter_mut()) {
                *s += dense.eval(rows.row(r));
            }
            return;
        }
        const W: usize = RegressionTree::ACCUM_LANES;
        let feature = self.nodes.feature.as_slice();
        let threshold = self.nodes.threshold.as_slice();
        let left = self.nodes.left.as_slice();
        let right = self.nodes.right.as_slice();
        let value = self.nodes.value.as_slice();
        let split = rows.group_tail::<W>();
        let (head, tail) = sums.split_at_mut(split);
        for (lanes, sw) in rows.row_groups::<W>().zip(head.chunks_exact_mut(W)) {
            // mct-tidy: allow(P003) -- chunks_exact_mut(W) yields exactly W
            let sw: &mut [f64; W] = sw.try_into().expect("lane-width chunk");
            crate::simd::tree_accumulate(
                &lanes,
                feature,
                threshold,
                left,
                right,
                value,
                self.params.max_depth,
                sw,
            );
        }
        for (r, s) in (split..rows.rows()).zip(tail.iter_mut()) {
            let row = rows.row(r);
            let mut i = 0usize;
            loop {
                if left[i] as usize == i {
                    *s += value[i];
                    break;
                }
                i = if row[feature[i] as usize] <= threshold[i] {
                    left[i] as usize
                } else {
                    right[i] as usize
                };
            }
        }
    }

    /// Number of leaves (diagnostics).
    #[must_use]
    pub fn leaves(&self) -> usize {
        (0..self.nodes.feature.len())
            .filter(|&i| self.nodes.is_leaf(i))
            .count()
    }
}

/// Grow the subtree whose examples are `members` (row indices ascending)
/// with per-feature scan orders `lists`, returning its node index.
/// Consumed buffers are recycled into `pool`.
fn build_sorted(
    ctx: &FitCtx<'_>,
    nodes: &mut FlatNodes,
    pool: &mut Vec<Vec<u32>>,
    side: &mut [bool],
    lists: Vec<Vec<u32>>,
    members: Vec<u32>,
    depth: usize,
) -> u32 {
    let recycle = |pool: &mut Vec<Vec<u32>>, lists: Vec<Vec<u32>>, members: Vec<u32>| {
        pool.extend(lists);
        pool.push(members);
    };
    let m = members.len();
    // One target sum in ascending-row order serves both the leaf mean and
    // the split scores (the pre-workspace implementation summed the same
    // order twice; sharing the sum keeps the bits identical).
    let total_sum: f64 = members.iter().map(|&i| ctx.targets[i as usize]).sum();
    let mean = total_sum / m as f64;
    if depth >= ctx.params.max_depth || m < 2 * ctx.params.min_leaf {
        recycle(pool, lists, members);
        return nodes.push_leaf(mean);
    }
    let Some((feature, threshold)) = best_split_sorted(ctx, &lists, total_sum, m) else {
        recycle(pool, lists, members);
        return nodes.push_leaf(mean);
    };
    // Stable partition of the members and of every feature order: children
    // keep their parent's (value, row) order with zero sorting. The side
    // of each member is decided once into the per-row mask; the `d + 1`
    // partitions below just read it back.
    let col = &ctx.cols[feature];
    for &i in &members {
        side[i as usize] = col[i as usize] <= threshold;
    }
    let mut left_members = pool.pop().unwrap_or_default();
    let mut right_members = pool.pop().unwrap_or_default();
    left_members.clear();
    right_members.clear();
    for &i in &members {
        if side[i as usize] {
            left_members.push(i);
        } else {
            right_members.push(i);
        }
    }
    if left_members.len() < ctx.params.min_leaf || right_members.len() < ctx.params.min_leaf {
        recycle(pool, lists, members);
        pool.push(left_members);
        pool.push(right_members);
        return nodes.push_leaf(mean);
    }
    let dim = lists.len();
    let mut left_lists = Vec::with_capacity(dim);
    let mut right_lists = Vec::with_capacity(dim);
    for list in lists {
        let mut ll = pool.pop().unwrap_or_default();
        let mut rl = pool.pop().unwrap_or_default();
        ll.clear();
        rl.clear();
        for &i in &list {
            if side[i as usize] {
                ll.push(i);
            } else {
                rl.push(i);
            }
        }
        pool.push(list);
        left_lists.push(ll);
        right_lists.push(rl);
    }
    pool.push(members);
    let id = nodes.push_split(feature, threshold);
    let l = build_sorted(ctx, nodes, pool, side, left_lists, left_members, depth + 1);
    let r = build_sorted(
        ctx,
        nodes,
        pool,
        side,
        right_lists,
        right_members,
        depth + 1,
    );
    nodes.left[id as usize] = l;
    nodes.right[id as usize] = r;
    id
}

/// Exhaustive variance-reduction split search over midpoints of adjacent
/// distinct feature values, scanning each feature's presorted order.
///
/// Features are scanned in ascending index order with a strict `>`, so on
/// ties the winner is the lowest feature index, then (within a feature)
/// the lowest threshold.
fn best_split_sorted(
    ctx: &FitCtx<'_>,
    lists: &[Vec<u32>],
    total_sum: f64,
    m: usize,
) -> Option<(usize, f64)> {
    let n = m as f64;
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
    for (f, list) in lists.iter().enumerate() {
        if let Some((threshold, score)) = scan_feature(ctx, list, f, total_sum, n) {
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((f, threshold, score));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

/// Best split point for one feature: prefix-sum scan of the presorted
/// order, skipping boundaries between identical values. Returns
/// `(threshold, score)` of the first (= lowest-threshold) maximum.
fn scan_feature(
    ctx: &FitCtx<'_>,
    list: &[u32],
    f: usize,
    total_sum: f64,
    n: f64,
) -> Option<(f64, f64)> {
    let col = &ctx.cols[f];
    let mut best: Option<(f64, f64)> = None;
    let mut left_sum = 0.0;
    // Each element's value is loaded once and carried to the next
    // iteration as its predecessor.
    let mut v = col[list[0] as usize];
    for k in 0..list.len() - 1 {
        let i = list[k] as usize;
        left_sum += ctx.targets[i];
        let v_next = col[list[k + 1] as usize];
        if v == v_next {
            continue; // identical values cannot be separated
        }
        let nl = (k + 1) as f64;
        let nr = n - nl;
        // Maximizing sum-of-squares of children means minimizing SSE.
        let score = left_sum * left_sum / nl + (total_sum - left_sum) * (total_sum - left_sum) / nr;
        if best.is_none_or(|(_, s)| score > s) {
            best = Some(((v + v_next) / 2.0, score));
        }
        v = v_next;
    }
    best
}

impl Regressor for RegressionTree {
    fn fit(&mut self, data: &Dataset) {
        let idx: Vec<usize> = (0..data.len()).collect();
        self.fit_indices(data, &idx);
    }

    fn predict(&self, row: &[f64]) -> f64 {
        // mct-tidy: allow(P003) -- Regressor contract: fit() before predict()
        self.fitted().expect("model not fitted");
        self.eval_row(row)
    }

    fn predict_batch(&self, rows: &Matrix) -> Vec<f64> {
        // mct-tidy: allow(P003) -- Regressor contract: fit() before predict()
        let nodes = self.fitted().expect("model not fitted");
        const W: usize = RegressionTree::ACCUM_LANES;
        let mut out = Vec::with_capacity(rows.rows());
        if let Some(dense) = self.densify() {
            // The dense walk *assigns* the leaf value (never sums from
            // +0.0), so a -0.0 leaf survives bit-exactly.
            out.extend(rows.row_iter().map(|row| dense.eval(row)));
            return out;
        }
        for lanes in rows.row_groups::<W>() {
            out.extend(crate::simd::tree_eval(
                &lanes,
                &nodes.feature,
                &nodes.threshold,
                &nodes.left,
                &nodes.right,
                &nodes.value,
                self.params.max_depth,
            ));
        }
        for r in rows.group_tail::<W>()..rows.rows() {
            out.push(self.eval_row(rows.row(r)));
        }
        out
    }

    fn name(&self) -> &'static str {
        "regression-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> Dataset {
        // y = 1 for x < 5, y = 9 for x >= 5: a single split nails it.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 5 { 1.0 } else { 9.0 }).collect();
        Dataset::from_rows(rows, y)
    }

    #[test]
    fn learns_step_function() {
        let mut t = RegressionTree::new(TreeParams::default());
        t.fit(&step_data());
        assert!((t.predict(&[2.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[10.0]) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_is_mean() {
        let mut t = RegressionTree::new(TreeParams {
            max_depth: 0,
            min_leaf: 1,
        });
        t.fit(&step_data());
        assert_eq!(t.leaves(), 1);
        assert!((t.predict(&[0.0]) - 7.0).abs() < 1e-9); // mean = (5*1 + 15*9)/20
    }

    #[test]
    fn respects_min_leaf() {
        let mut t = RegressionTree::new(TreeParams {
            max_depth: 10,
            min_leaf: 10,
        });
        t.fit(&step_data());
        assert!(t.leaves() <= 2);
    }

    #[test]
    fn splits_on_informative_feature() {
        // Feature 1 is the informative one.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 3) as f64, i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 4.0 }).collect();
        let mut t = RegressionTree::new(TreeParams {
            max_depth: 1,
            min_leaf: 1,
        });
        t.fit(&Dataset::from_rows(rows, y));
        assert!((t.predict(&[0.0, 3.0]) - 0.0).abs() < 1e-9);
        assert!((t.predict(&[0.0, 15.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 10];
        let mut t = RegressionTree::new(TreeParams::default());
        t.fit(&Dataset::from_rows(rows, y));
        assert!((t.predict(&[100.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fit_indices_subsets() {
        let mut t = RegressionTree::new(TreeParams::default());
        // Only the high half: tree should predict ~9 everywhere.
        t.fit_indices(&step_data(), &[10, 11, 12, 13, 14]);
        assert!((t.predict(&[0.0]) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn batch_matches_pointwise_bit_for_bit() {
        let mut t = RegressionTree::new(TreeParams::default());
        t.fit(&step_data());
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.7]).collect();
        let m = Matrix::from_rows(rows.clone());
        let batch = t.predict_batch(&m);
        for (r, b) in rows.iter().zip(&batch) {
            assert_eq!(t.predict(r).to_bits(), b.to_bits());
        }
    }

    #[test]
    fn refit_replaces_previous_nodes() {
        let mut t = RegressionTree::new(TreeParams::default());
        t.fit(&step_data());
        let first_leaves = t.leaves();
        assert!(first_leaves >= 2);
        // Refit on a constant target: a single leaf, no stale nodes.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        t.fit(&Dataset::from_rows(rows, vec![3.0; 10]));
        assert_eq!(t.leaves(), 1);
        assert!((t.predict(&[0.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        let _ = RegressionTree::new(TreeParams::default()).predict(&[0.0]);
    }
}
