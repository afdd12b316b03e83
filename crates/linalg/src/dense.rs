//! Row-major dense `f64` matrices.

use simrank_par::{blocks, kernel, RowWriter, WorkerPool};
use std::fmt;
use std::ops::Range;

/// Output rows per matmul tile: the tile's `a`-rows plus one `bt` row
/// stay L2-resident while each loaded `bt` row is reused across the
/// whole tile (16 rows × ≤4 KiB/row = ≤64 KiB), cutting `bt` memory
/// traffic by the tile height versus the row-at-a-time order.
const MATMUL_TILE: usize = 16;

/// Square tile edge for the blocked transpose: a 64 × 64 `f64` tile is
/// 32 KiB, so the strided source reads and contiguous destination writes
/// of one tile pair stay cache-resident.
const TRANSPOSE_TILE: usize = 64;

/// A dense row-major matrix of `f64`.
///
/// Sized for the reference implementations and the `mtx-SR` baseline; the
/// production SimRank algorithms in `simrank-core` never materialize dense
/// `n × n` intermediates beyond the similarity matrix itself.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Builds from a row-major slice.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        DenseMatrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics when `(i, j)` lies outside the matrix.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.check(i, j);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics when `(i, j)` lies outside the matrix.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.check(i, j);
        self.data[i * self.cols + j] = v;
    }

    /// Bounds check for [`Self::get`] / [`Self::set`]: a column past
    /// `cols` would otherwise alias an entry of the next row.
    #[inline]
    fn check(&self, i: usize, j: usize) {
        assert!(
            i < self.rows && j < self.cols,
            "entry ({i}, {j}) out of range for a {}x{} matrix",
            self.rows,
            self.cols
        );
    }

    /// Immutable row view.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row view.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw data slice (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable data slice (row-major) — what the pooled writers
    /// outside this module (e.g. the sharded CSR densification) hand to
    /// [`RowWriter`] to split into disjoint per-worker rows.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One tile of output rows of the product: `out[i][j] =`
    /// [`kernel::dot`]`(a_row(i), btᵀ_row(j))` for `i ∈ rows`. Every
    /// output element runs exactly the same lane-chunked dot regardless
    /// of how rows are banded across workers — the determinism contract
    /// is structural, not numerical. The `j`-outer / `i`-inner order
    /// inside a [`MATMUL_TILE`]-row tile reuses each loaded `bt` row
    /// across the whole tile instead of re-streaming `bt` once per output
    /// row.
    ///
    /// # Safety
    ///
    /// `writer` must view the output buffer and no other concurrent call
    /// may claim any row in `rows` (the caller shards disjoint bands).
    unsafe fn matmul_band(&self, bt: &DenseMatrix, writer: &RowWriter<'_>, rows: Range<usize>) {
        let mut i0 = rows.start;
        while i0 < rows.end {
            let i1 = (i0 + MATMUL_TILE).min(rows.end);
            for j in 0..bt.rows {
                let b_row = bt.row(j);
                for i in i0..i1 {
                    // SAFETY: row `i` lies in this call's disjoint band.
                    let out_row = unsafe { writer.row_mut(i) };
                    out_row[j] = kernel::dot(self.row(i), b_row);
                }
            }
            i0 = i1;
        }
    }

    /// Matrix product `self · other` with a transposed-operand,
    /// tile-blocked inner loop (better cache behaviour than the naive
    /// ijk order) over the lane-chunked [`kernel::dot`], sharded by
    /// contiguous output-row bands across the worker pool. Each worker
    /// runs the same per-element kernel dot on disjoint rows, so the
    /// product is **bit-for-bit identical** at every pool width.
    pub fn matmul(&self, other: &DenseMatrix, pool: &mut WorkerPool<'_>) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let bt = other.transpose(pool);
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        if other.cols > 0 {
            let bands = blocks(self.rows, pool.workers());
            let writer = RowWriter::new(&mut out.data, other.cols);
            pool.sweep(bands, |rows, _counter| {
                // SAFETY: the bands tile 0..rows disjointly, so each output
                // row is written by exactly one worker.
                unsafe { self.matmul_band(&bt, &writer, rows) };
            });
        }
        out
    }

    /// One band of the transposed copy: output rows `cols` (columns of
    /// `self`), tile-blocked so the strided source reads and the
    /// contiguous destination writes both stay cache-resident. A pure
    /// permutation copy — identical for any banding or tiling.
    ///
    /// # Safety
    ///
    /// `writer` must view the `cols × rows` output buffer and no other
    /// concurrent call may claim any output row in `cols`.
    unsafe fn transpose_band(&self, writer: &RowWriter<'_>, cols: Range<usize>) {
        let mut j0 = cols.start;
        while j0 < cols.end {
            let j1 = (j0 + TRANSPOSE_TILE).min(cols.end);
            let mut i0 = 0usize;
            while i0 < self.rows {
                let i1 = (i0 + TRANSPOSE_TILE).min(self.rows);
                for j in j0..j1 {
                    // SAFETY: output row `j` lies in this call's band.
                    let out_row = unsafe { writer.row_mut(j) };
                    for i in i0..i1 {
                        out_row[i] = self.data[i * self.cols + j];
                    }
                }
                i0 = i1;
            }
            j0 = j1;
        }
    }

    /// Transposed copy (tile-blocked via the internal `transpose_band`),
    /// sharded by contiguous output-row bands (columns of `self`) across
    /// the worker pool. A transpose is a pure permutation copy, so the
    /// result is trivially identical at every pool width.
    pub fn transpose(&self, pool: &mut WorkerPool<'_>) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        if self.rows > 0 {
            let bands = blocks(self.cols, pool.workers());
            let writer = RowWriter::new(&mut out.data, self.rows);
            pool.sweep(bands, |cols, _counter| {
                // SAFETY: the bands tile 0..cols disjointly, so each output
                // row (a column of `self`) is written by exactly one worker.
                unsafe { self.transpose_band(&writer, cols) };
            });
        }
        out
    }

    /// `self += alpha * other` (shape-checked), through [`kernel::axpy`]
    /// (bitwise identical to the historical scalar loop).
    pub fn add_assign_scaled(&mut self, other: &DenseMatrix, alpha: f64) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        kernel::axpy(&mut self.data, alpha, &other.data);
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        kernel::scale(&mut self.data, alpha);
    }

    /// Entry-wise max absolute difference; the convergence criterion used by
    /// the paper's accuracy arguments.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        kernel::max_abs_diff(&self.data, &other.data)
    }

    /// Whether `|self - selfᵀ| ≤ tol` entry-wise (square matrices only).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(i, j))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = DenseMatrix::identity(2);
        WorkerPool::scoped(1, |pool| {
            assert_eq!(a.matmul(&i, pool), a);
            assert_eq!(i.matmul(&a, pool), a);
        });
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_rows(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = WorkerPool::scoped(1, |pool| a.matmul(&b, pool));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        let at = WorkerPool::scoped(1, |pool| a.transpose(pool));
        assert_eq!(WorkerPool::scoped(1, |pool| at.transpose(pool)), a);
        assert_eq!(at.get(4, 2), a.get(2, 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_out_of_range_column() {
        // Row-major storage: (0, 2) of a 2 × 2 matrix would read (1, 0).
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let _ = a.get(0, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_out_of_range_column() {
        // (0, 3) of a 2 × 2 matrix would overwrite (1, 1).
        let mut a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.set(0, 3, 9.0);
    }

    #[test]
    fn add_assign_scaled_works() {
        let mut a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::identity(2);
        a.add_assign_scaled(&b, 2.5);
        assert_eq!(a.get(0, 0), 2.5);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn symmetry_check() {
        let s = DenseMatrix::from_rows(2, 2, &[1.0, 0.5, 0.5, 1.0]);
        assert!(s.is_symmetric(0.0));
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 0.5, 0.4, 1.0]);
        assert!(!a.is_symmetric(1e-3));
        assert!(a.is_symmetric(0.2));
        let r = DenseMatrix::zeros(2, 3);
        assert!(!r.is_symmetric(1.0));
    }

    #[test]
    fn parallel_matmul_and_transpose_are_bit_identical() {
        let a = DenseMatrix::from_fn(13, 7, |i, j| {
            ((i * 31 + j * 17 + 3) % 23) as f64 / 7.0 - 1.0
        });
        let b = DenseMatrix::from_fn(7, 11, |i, j| {
            ((i * 13 + j * 29 + 5) % 19) as f64 / 5.0 - 1.5
        });
        let (base_prod, base_t) =
            WorkerPool::scoped(1, |pool| (a.matmul(&b, pool), a.transpose(pool)));
        for workers in [2usize, 3, 4, 8] {
            WorkerPool::scoped(workers, |pool| {
                assert_eq!(a.matmul(&b, pool), base_prod, "matmul workers={workers}");
                assert_eq!(a.transpose(pool), base_t, "transpose workers={workers}");
            });
        }
    }

    #[test]
    fn parallel_matmul_handles_degenerate_shapes() {
        let empty = DenseMatrix::zeros(0, 4);
        let tall = DenseMatrix::zeros(4, 0);
        WorkerPool::scoped(4, |pool| {
            assert_eq!(empty.matmul(&tall, pool), DenseMatrix::zeros(0, 0));
            assert_eq!(tall.matmul(&empty, pool), DenseMatrix::zeros(4, 4));
            assert_eq!(empty.transpose(pool), DenseMatrix::zeros(4, 0));
            let one = DenseMatrix::from_rows(1, 3, &[1.0, 2.0, 3.0]);
            assert_eq!(
                one.transpose(pool),
                DenseMatrix::from_rows(3, 1, &[1.0, 2.0, 3.0])
            );
        });
    }

    #[test]
    fn max_abs_diff_is_zero_on_self() {
        let a = DenseMatrix::from_fn(4, 4, |i, j| (i + j) as f64);
        assert_eq!(a.max_abs_diff(&a), 0.0);
        let mut b = a.clone();
        b.set(3, 2, b.get(3, 2) + 0.25);
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }
}
