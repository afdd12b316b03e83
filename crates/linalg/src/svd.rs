//! One-sided Jacobi singular value decomposition.
//!
//! This powers the `mtx-SR` baseline (Li et al., EDBT'10), which the paper
//! compares against: `mtx-SR` factorizes the transition matrix with an SVD
//! and iterates in the low-rank space. One-sided Jacobi is simple, robust,
//! and accurate to working precision — ample for the ≤ few-thousand-vertex
//! matrices this workspace materializes (its `O(n³)` sweeps are in fact the
//! very cost the paper criticizes `mtx-SR` for).
//!
//! # Parallel execution
//!
//! Each Jacobi sweep is scheduled as a fixed round-robin tournament
//! ([`simrank_par::round_robin_rounds`]): `n − 1` rounds of ⌊n/2⌋
//! **disjoint** column pairs. A rotation touches only its two columns, so
//! the pairs of a round commute *exactly* — sharding a round across the
//! worker pool changes nothing but the interleaving, and the factors are
//! **bit-for-bit identical at every thread count**. Rounds run in a fixed
//! order (a pure function of `n`), and the off-diagonal convergence
//! measure is a commutative max, so even the sweep count is
//! thread-invariant.

// Indexed loops are the natural form for the paired-column rotations below;
// iterator adaptors would obscure the simultaneous updates.
#![allow(clippy::needless_range_loop)]

use crate::dense::DenseMatrix;
use simrank_par::{blocks, kernel, round_robin_rounds, RowWriter, WorkerPool};
use std::sync::atomic::{AtomicU64, Ordering};

/// A (thin) singular value decomposition `A = U · diag(σ) · Vᵀ`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m × r` (columns orthonormal).
    pub u: DenseMatrix,
    /// Singular values, descending, length `r`.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n × r` (columns orthonormal).
    pub v: DenseMatrix,
}

/// Applies (or skips) the Jacobi rotation for column pair `(p, q)` of the
/// working copy `B` (and mirrors it on `V`), recording the rotated
/// off-diagonal magnitude into `off_bits`.
///
/// `bw`/`vw` hand out the **columns** of the column-major buffers (a
/// column-major matrix is a row-major buffer of its columns).
fn rotate_pair(bw: &RowWriter<'_>, vw: &RowWriter<'_>, p: usize, q: usize, off_bits: &AtomicU64) {
    let eps = 1e-14;
    // SAFETY: within a tournament round every column index appears in at
    // most one pair, and each pair is processed by exactly one worker, so
    // columns `p` and `q` are exclusively this call's for its duration.
    let bp = unsafe { bw.row_mut(p) };
    let bq = unsafe { bw.row_mut(q) };
    // The 2×2 Gram block via the lane-chunked reduction kernels: values
    // are a pure function of the two columns, so the skip decision and
    // the rotation angle stay thread-invariant.
    let app = kernel::sq_sum(bp);
    let aqq = kernel::sq_sum(bq);
    let apq = kernel::dot(bp, bq);
    if apq.abs() <= eps * (app * aqq).sqrt().max(f64::MIN_POSITIVE) {
        return;
    }
    // Non-negative finite f64 bit patterns order exactly like the floats,
    // so an atomic max over bits is an exact float max — and max is
    // commutative, so the merged value is thread-invariant.
    off_bits.fetch_max(apq.abs().to_bits(), Ordering::Relaxed);
    // Jacobi rotation angle for the 2x2 Gram block.
    let tau = (aqq - app) / (2.0 * apq);
    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = c * t;
    kernel::rotate(bp, bq, c, s);
    let vp = unsafe { vw.row_mut(p) };
    let vq = unsafe { vw.row_mut(q) };
    kernel::rotate(vp, vq, c, s);
}

impl Svd {
    /// Computes the SVD of `a` by one-sided Jacobi, sharding each
    /// tournament round of disjoint column-pair rotations across the
    /// worker pool.
    ///
    /// Sweeps rotate column pairs of a working copy `B = A·V` until all
    /// pairs are orthogonal; singular values are then the column norms of
    /// `B` and `U = B · diag(1/σ)`. Factors are **bit-for-bit identical
    /// for every worker count** — rotations within a round touch disjoint
    /// columns and therefore commute exactly (see the module docs).
    ///
    /// An empty matrix (`m == 0` or `n == 0`) yields an explicit empty
    /// factorization: `u` is `m × 0`, `sigma` is empty, `v` is `n × 0`.
    pub fn compute(a: &DenseMatrix, pool: &mut WorkerPool<'_>) -> Svd {
        let m = a.rows();
        let n = a.cols();
        if m == 0 || n == 0 {
            return Svd {
                u: DenseMatrix::zeros(m, 0),
                sigma: Vec::new(),
                v: DenseMatrix::zeros(n, 0),
            };
        }
        // Column-major working copies: column `j` of `B` lives at
        // `b[j*m .. (j+1)*m]`, so each column is one contiguous "row" of
        // the buffer and the disjoint-row writer hands out disjoint
        // columns.
        let mut b = vec![0.0f64; n * m];
        for j in 0..n {
            for i in 0..m {
                b[j * m + i] = a.get(i, j);
            }
        }
        let mut v = vec![0.0f64; n * n];
        for j in 0..n {
            v[j * n + j] = 1.0;
        }
        let max_sweeps = 60;
        let rounds = round_robin_rounds(n);
        let off_bits = AtomicU64::new(0);
        for _ in 0..max_sweeps {
            off_bits.store(0, Ordering::Relaxed);
            for round in &rounds {
                let chunks = blocks(round.len(), pool.workers());
                // SAFETY (RowWriter): the chunks tile the round's pair
                // list disjointly and no column appears in two pairs of
                // one round, so every column is rotated by at most one
                // worker per sweep generation.
                let bw = RowWriter::new(&mut b, m);
                let vw = RowWriter::new(&mut v, n);
                pool.sweep(chunks, |range, _counter| {
                    for &(p, q) in &round[range] {
                        rotate_pair(&bw, &vw, p, q, &off_bits);
                    }
                });
            }
            if f64::from_bits(off_bits.load(Ordering::Relaxed)) < 1e-13 {
                break;
            }
        }
        // Extract singular values and sort descending.
        let norms: Vec<f64> = (0..n)
            .map(|j| kernel::sq_sum(&b[j * m..(j + 1) * m]).sqrt())
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).expect("finite norms"));
        let mut u = DenseMatrix::zeros(m, n);
        let mut vv = DenseMatrix::zeros(n, n);
        let mut sigma = Vec::with_capacity(n);
        for (new_j, &old_j) in order.iter().enumerate() {
            let s = norms[old_j];
            sigma.push(s);
            if s > 0.0 {
                for i in 0..m {
                    u.set(i, new_j, b[old_j * m + i] / s);
                }
            }
            for i in 0..n {
                vv.set(i, new_j, v[old_j * n + i]);
            }
        }
        Svd { u, sigma, v: vv }
    }

    /// Numerical rank at the given relative tolerance.
    pub fn rank(&self, rel_tol: f64) -> usize {
        let cutoff = self.sigma.first().copied().unwrap_or(0.0) * rel_tol;
        self.sigma.iter().filter(|&&s| s > cutoff).count()
    }

    /// Truncates to the leading `r` singular triplets (clamped to the
    /// stored count, so `r` past the factorization's width is safe).
    pub fn truncate(&self, r: usize) -> Svd {
        let r = r.min(self.sigma.len());
        let m = self.u.rows();
        let n = self.v.rows();
        let u = DenseMatrix::from_fn(m, r, |i, j| self.u.get(i, j));
        let v = DenseMatrix::from_fn(n, r, |i, j| self.v.get(i, j));
        Svd {
            u,
            sigma: self.sigma[..r].to_vec(),
            v,
        }
    }

    /// Borrows the factors as `(U, σ, V)` — for callers that serve
    /// queries straight from the factorization without reconstructing.
    pub fn factors(&self) -> (&DenseMatrix, &[f64], &DenseMatrix) {
        (&self.u, &self.sigma, &self.v)
    }

    /// Consumes the decomposition into its owned factors `(U, σ, V)`,
    /// letting callers keep (or persist) them without a clone.
    pub fn into_factors(self) -> (DenseMatrix, Vec<f64>, DenseMatrix) {
        (self.u, self.sigma, self.v)
    }

    /// Reconstructs `U · diag(σ) · Vᵀ` with the pooled matmul/transpose.
    pub fn reconstruct(&self, pool: &mut WorkerPool<'_>) -> DenseMatrix {
        let r = self.sigma.len();
        let mut us = DenseMatrix::zeros(self.u.rows(), r);
        for i in 0..self.u.rows() {
            for j in 0..r {
                us.set(i, j, self.u.get(i, j) * self.sigma[j]);
            }
        }
        us.matmul(&self.v.transpose(pool), pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The factorization of `a` on a 1-wide pool.
    fn svd_of(a: &DenseMatrix) -> Svd {
        WorkerPool::scoped(1, |pool| Svd::compute(a, pool))
    }

    /// `U · diag(σ) · Vᵀ` on a 1-wide pool.
    fn rebuilt(svd: &Svd) -> DenseMatrix {
        WorkerPool::scoped(1, |pool| svd.reconstruct(pool))
    }

    fn ortho_error(m: &DenseMatrix) -> f64 {
        // ‖MᵀM − I‖max over the leading r columns.
        let g = WorkerPool::scoped(1, |pool| m.transpose(pool).matmul(m, pool));
        let mut err = 0.0f64;
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                let want = if i == j { 1.0 } else { 0.0 };
                err = err.max((g.get(i, j) - want).abs());
            }
        }
        err
    }

    #[test]
    fn identity_svd() {
        let svd = svd_of(&DenseMatrix::identity(4));
        for &s in &svd.sigma {
            assert!((s - 1.0).abs() < 1e-12);
        }
        assert!(rebuilt(&svd).max_abs_diff(&DenseMatrix::identity(4)) < 1e-12);
    }

    #[test]
    fn diagonal_matrix_singular_values() {
        let a = DenseMatrix::from_rows(3, 3, &[3.0, 0.0, 0.0, 0.0, -5.0, 0.0, 0.0, 0.0, 1.0]);
        let svd = svd_of(&a);
        assert!((svd.sigma[0] - 5.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 3.0).abs() < 1e-12);
        assert!((svd.sigma[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        // A fixed pseudo-random matrix (no rand dependency needed here).
        let a = DenseMatrix::from_fn(6, 6, |i, j| {
            let x = (i * 31 + j * 17 + 7) % 23;
            (x as f64) / 23.0 - 0.5
        });
        let svd = svd_of(&a);
        assert!(
            rebuilt(&svd).max_abs_diff(&a) < 1e-10,
            "reconstruction failed"
        );
        assert!(ortho_error(&svd.u) < 1e-10, "U not orthonormal");
        assert!(ortho_error(&svd.v) < 1e-10, "V not orthonormal");
        // Descending singular values.
        assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn rank_deficient_matrix() {
        // Rank-1: outer product.
        let a = DenseMatrix::from_fn(4, 4, |i, j| ((i + 1) * (j + 1)) as f64);
        let svd = svd_of(&a);
        assert_eq!(svd.rank(1e-9), 1);
        let truncated = svd.truncate(1);
        assert!(rebuilt(&truncated).max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn truncation_clamps() {
        let svd = svd_of(&DenseMatrix::identity(3));
        assert_eq!(svd.truncate(10).sigma.len(), 3);
        assert_eq!(svd.truncate(2).sigma.len(), 2);
    }

    #[test]
    fn rectangular_matrix() {
        let a = DenseMatrix::from_rows(3, 2, &[1.0, 0.0, 0.0, 2.0, 0.0, 0.0]);
        let svd = svd_of(&a);
        assert!((svd.sigma[0] - 2.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 1.0).abs() < 1e-12);
        assert!(rebuilt(&svd).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn empty_matrices_yield_explicit_empty_svd() {
        // Regression: 0×0 and 0-column inputs used to build degenerate
        // working vectors; they must produce an explicit empty
        // factorization instead.
        for (m, n) in [(0usize, 0usize), (0, 3), (3, 0)] {
            let svd = svd_of(&DenseMatrix::zeros(m, n));
            assert_eq!(svd.sigma.len(), 0, "{m}x{n}");
            assert_eq!((svd.u.rows(), svd.u.cols()), (m, 0), "{m}x{n}");
            assert_eq!((svd.v.rows(), svd.v.cols()), (n, 0), "{m}x{n}");
            assert_eq!(svd.rank(1e-10), 0, "{m}x{n}");
            // Truncation edges on the empty factorization are safe no-ops.
            assert_eq!(svd.truncate(1).sigma.len(), 0, "{m}x{n}");
            assert_eq!(svd.truncate(n + 1).sigma.len(), 0, "{m}x{n}");
        }
    }

    #[test]
    fn parallel_factors_are_bit_identical() {
        // The tournament schedule makes the whole factorization — U, σ, V,
        // and even the sweep count — a pure function of the input, so any
        // pool width reproduces the 1-thread factors exactly.
        let a = DenseMatrix::from_fn(10, 8, |i, j| {
            let x = (i * 37 + j * 11 + 5) % 29;
            (x as f64) / 29.0 - 0.5
        });
        let base = svd_of(&a);
        for workers in [2usize, 3, 4, 8] {
            let svd = WorkerPool::scoped(workers, |pool| Svd::compute(&a, pool));
            assert_eq!(svd.u, base.u, "U diverged at workers={workers}");
            assert_eq!(svd.sigma, base.sigma, "σ diverged at workers={workers}");
            assert_eq!(svd.v, base.v, "V diverged at workers={workers}");
        }
    }
}
