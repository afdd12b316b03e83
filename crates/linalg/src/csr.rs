//! Compressed sparse row matrices and the SimRank transition matrix.
//!
//! The two materialization paths — building the backward transition
//! matrix from a graph and densifying a CSR matrix — shard whole rows
//! across the caller's [`WorkerPool`]: every row is produced by exactly
//! one worker running the same per-row arithmetic, so the results are
//! **bit-for-bit identical for every worker count**.

use crate::dense::DenseMatrix;
use simrank_graph::DiGraph;
use simrank_par::{weighted_blocks, RowWriter, WorkerPool};

/// A sparse `f64` matrix in compressed sparse row form.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from COO triplets `(row, col, value)`. Duplicate coordinates
    /// are summed; explicit zeros are kept (callers control sparsity).
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut items: Vec<(usize, usize, f64)> = triplets.into_iter().collect();
        for &(r, c, _) in &items {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
        }
        items.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(items.len());
        for (r, c, v) in items {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_offsets = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            row_offsets[r + 1] += 1;
        }
        for i in 0..rows {
            row_offsets[i + 1] += row_offsets[i];
        }
        let col_indices = merged.iter().map(|&(_, c, _)| c as u32).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        CsrMatrix {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// The paper's *backward transition matrix* `Q` (Eq. 3):
    /// `[Q]_{ij} = 1/|I(i)|` if there is an edge `j → i`, else 0.
    /// Row `i` of `Q` is supported on the in-neighbor set `I(i)`.
    ///
    /// Sharded over the pool: the row-offset prefix sum is computed up
    /// front, so each worker fills a disjoint `[row_offsets[start],
    /// row_offsets[end])` slice of the index/value arrays — no triplet
    /// staging, no sort, and bit-for-bit the same matrix at every worker
    /// count (in-neighbor lists are already sorted, which is exactly the
    /// per-row column order [`CsrMatrix::from_triplets`] produces).
    pub fn backward_transition(g: &DiGraph, pool: &mut WorkerPool<'_>) -> Self {
        let n = g.node_count();
        let mut row_offsets = vec![0usize; n + 1];
        for i in 0..n {
            row_offsets[i + 1] = row_offsets[i] + g.in_degree(i as u32);
        }
        let nnz = row_offsets[n];
        let mut col_indices = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        // Rows weighted by in-degree (+1 so empty rows still count toward
        // block boundaries), then each block gets the matching disjoint
        // slices of the column/value arrays.
        let weights: Vec<usize> = (0..n).map(|i| g.in_degree(i as u32) + 1).collect();
        let blocks = weighted_blocks(&weights, pool.workers());
        let mut items = Vec::with_capacity(blocks.len());
        let mut cols_rest: &mut [u32] = &mut col_indices;
        let mut vals_rest: &mut [f64] = &mut values;
        for rows in blocks {
            let len = row_offsets[rows.end] - row_offsets[rows.start];
            let (cols_block, cols_tail) = cols_rest.split_at_mut(len);
            let (vals_block, vals_tail) = vals_rest.split_at_mut(len);
            cols_rest = cols_tail;
            vals_rest = vals_tail;
            items.push((rows, cols_block, vals_block));
        }
        pool.sweep(items, |(rows, cols_block, vals_block), _counter| {
            let mut at = 0usize;
            for i in rows {
                let ins = g.in_neighbors(i as u32);
                if ins.is_empty() {
                    continue;
                }
                let w = 1.0 / ins.len() as f64;
                for &j in ins {
                    cols_block[at] = j;
                    vals_block[at] = w;
                    at += 1;
                }
            }
        });
        CsrMatrix {
            rows: n,
            cols: n,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Sparse row view: parallel `(col_indices, values)` slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_offsets[i];
        let hi = self.row_offsets[i + 1];
        (&self.col_indices[lo..hi], &self.values[lo..hi])
    }

    /// Entry lookup (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f64)> = (0..self.rows)
            .flat_map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter()
                    .zip(vals)
                    .map(move |(&c, &v)| (c as usize, i, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        CsrMatrix::from_triplets(self.cols, self.rows, triplets)
    }

    /// Densifies the matrix, sharded over the pool: dense output rows
    /// are disjoint memory, so each worker scatters its row block through
    /// a [`RowWriter`] — bit-for-bit identical at every worker count.
    pub fn to_dense(&self, pool: &mut WorkerPool<'_>) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        if self.cols == 0 || self.rows == 0 {
            return out;
        }
        let weights: Vec<usize> = (0..self.rows).map(|i| self.row(i).0.len() + 1).collect();
        let blocks = weighted_blocks(&weights, pool.workers());
        let writer = RowWriter::new(out.as_mut_slice(), self.cols);
        pool.sweep(blocks, |rows, _counter| {
            for i in rows {
                let (cols, vals) = self.row(i);
                // SAFETY: the blocks tile 0..rows disjointly, so each dense
                // row is written by exactly one worker.
                let row = unsafe { writer.row_mut(i) };
                for (&c, &v) in cols.iter().zip(vals) {
                    row[c as usize] = v;
                }
            }
        });
        out
    }

    /// Sparse–dense product `self · b`, `O(nnz · b.cols())`.
    pub fn mul_dense(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, b.rows(), "spmm shape mismatch");
        let mut out = DenseMatrix::zeros(self.rows, b.cols());
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            // out[i, :] += v * b[c, :] for each stored (c, v).
            for (&c, &v) in cols.iter().zip(vals) {
                let b_row = b.row(c as usize);
                let out_row = out.row_mut(i);
                for (o, &x) in out_row.iter_mut().zip(b_row) {
                    *o += v * x;
                }
            }
        }
        out
    }

    /// Dense–sparseᵀ product `b · selfᵀ`, `O(nnz · b.rows())`.
    ///
    /// This is the second half of the reference SimRank step
    /// `S ← C·Q·(S·Qᵀ) + (1−C)I`: `(Q S) Qᵀ` without densifying `Qᵀ`.
    pub fn mul_dense_transposed(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, b.cols(), "spmm-t shape mismatch");
        let mut out = DenseMatrix::zeros(b.rows(), self.rows);
        for j in 0..self.rows {
            let (cols, vals) = self.row(j);
            for i in 0..b.rows() {
                let b_row = b.row(i);
                let mut acc = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    acc += v * b_row[c as usize];
                }
                out.set(i, j, acc);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_graph::fixtures::paper_fig1a;

    /// `Q` of `g` built on a 1-wide pool.
    fn transition(g: &DiGraph) -> CsrMatrix {
        WorkerPool::scoped(1, |pool| CsrMatrix::backward_transition(g, pool))
    }

    /// `m` densified on a 1-wide pool.
    fn dense(m: &CsrMatrix) -> DenseMatrix {
        WorkerPool::scoped(1, |pool| m.to_dense(pool))
    }

    #[test]
    fn from_triplets_merges_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 2.0), (1, 1, 4.0)]);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn backward_transition_rows_are_uniform_over_in_neighbors() {
        let g = paper_fig1a();
        let q = transition(&g);
        // I(b) = {e, f, g, i} (ids 4,5,6,8): each weight 1/4.
        let (cols, vals) = q.row(1);
        assert_eq!(cols, &[4, 5, 6, 8]);
        assert!(vals.iter().all(|&v| (v - 0.25).abs() < 1e-15));
        // Source vertices have empty rows.
        assert_eq!(q.row(5).0.len(), 0);
        // Row sums are exactly 1 for non-source vertices.
        for i in 0..q.rows() {
            let (cols, vals) = q.row(i);
            if !cols.is_empty() {
                assert!((vals.iter().sum::<f64>() - 1.0).abs() < 1e-12, "row {i}");
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let m = CsrMatrix::from_triplets(3, 2, [(0, 1, 2.0), (2, 0, -1.0), (1, 1, 0.5)]);
        let t = m.transpose();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.get(0, 2), -1.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn backward_transition_matches_triplet_reference_at_any_width() {
        // The direct sharded construction must reproduce the historical
        // triplet-sort path exactly, at every pool width.
        let g = paper_fig1a();
        let n = g.node_count();
        let reference = CsrMatrix::from_triplets(
            n,
            n,
            g.nodes().flat_map(|i| {
                let ins = g.in_neighbors(i);
                let w = 1.0 / ins.len().max(1) as f64;
                ins.iter()
                    .map(move |&j| (i as usize, j as usize, w))
                    .collect::<Vec<_>>()
            }),
        );
        for workers in [1usize, 2, 3, 8] {
            let sharded =
                WorkerPool::scoped(workers, |pool| CsrMatrix::backward_transition(&g, pool));
            assert_eq!(sharded, reference, "workers = {workers}");
        }
    }

    #[test]
    fn to_dense_thread_invariant() {
        let g = paper_fig1a();
        let q = transition(&g);
        let base = dense(&q);
        for workers in [2usize, 3, 8] {
            let par = WorkerPool::scoped(workers, |pool| q.to_dense(pool));
            assert_eq!(par.as_slice(), base.as_slice(), "workers = {workers}");
        }
    }

    #[test]
    fn degenerate_shapes_materialize() {
        // Empty graph, empty matrix, zero-column matrix, at widths 1 and 4.
        let empty = DiGraph::from_edges(0, []).unwrap();
        let zero_cols = CsrMatrix::from_triplets(3, 0, []);
        let lone = DiGraph::from_edges(1, []).unwrap();
        for workers in [1usize, 4] {
            WorkerPool::scoped(workers, |pool| {
                let q = CsrMatrix::backward_transition(&empty, pool);
                assert_eq!(q.rows(), 0);
                assert_eq!(q.to_dense(pool).rows(), 0);
                let d = zero_cols.to_dense(pool);
                assert_eq!((d.rows(), d.cols()), (3, 0));
                // Single node, no edges: one all-zero row.
                let d = CsrMatrix::backward_transition(&lone, pool).to_dense(pool);
                assert_eq!(d.get(0, 0), 0.0);
            });
        }
    }

    #[test]
    fn spmm_matches_dense() {
        let m = CsrMatrix::from_triplets(3, 3, [(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]);
        let b = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let sparse = m.mul_dense(&b);
        let product = WorkerPool::scoped(1, |pool| dense(&m).matmul(&b, pool));
        assert!(sparse.max_abs_diff(&product) < 1e-12);
    }

    #[test]
    fn spmm_transposed_matches_dense() {
        let m = CsrMatrix::from_triplets(3, 3, [(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]);
        let b = DenseMatrix::from_fn(2, 3, |i, j| (1 + i + j) as f64);
        let fast = m.mul_dense_transposed(&b);
        let slow = WorkerPool::scoped(1, |pool| b.matmul(&dense(&m).transpose(pool), pool));
        assert!(fast.max_abs_diff(&slow) < 1e-12);
    }

    #[test]
    fn simrank_step_shapes() {
        // One reference step S' = C·Q·S·Qᵀ + (1-C)·I on the fixture.
        let g = paper_fig1a();
        let n = g.node_count();
        let q = transition(&g);
        let s = DenseMatrix::identity(n);
        let qs = q.mul_dense(&s);
        let mut s1 = q.mul_dense_transposed(&qs);
        s1.scale(0.6);
        s1.add_assign_scaled(&DenseMatrix::identity(n), 0.4);
        assert!(s1.is_symmetric(1e-12));
        // s1(a,b) with a=0, b=1: C * |I(a) ∩ I(b)| / (|I(a)||I(b)|) = 0.6 * 1/8.
        assert!((s1.get(0, 1) - 0.6 / 8.0).abs() < 1e-12);
    }
}
