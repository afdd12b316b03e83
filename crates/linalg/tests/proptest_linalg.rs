//! Property tests for the matrix substrate.

use proptest::prelude::*;
use simrank_linalg::{CsrMatrix, DenseMatrix, Svd};
use simrank_par::WorkerPool;

/// Strategy: a small dense matrix with entries in [-2, 2].
fn dense(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |data| DenseMatrix::from_rows(rows, cols, &data))
}

proptest! {
    /// (A·B)·C = A·(B·C) within floating tolerance.
    #[test]
    fn matmul_associative(a in dense(4, 3), b in dense(3, 5), c in dense(5, 2)) {
        let (left, right) = WorkerPool::scoped(1, |pool| {
            let bc = b.matmul(&c, pool);
            (a.matmul(&b, pool).matmul(&c, pool), a.matmul(&bc, pool))
        });
        prop_assert!(left.max_abs_diff(&right) < 1e-10);
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_of_product(a in dense(3, 4), b in dense(4, 3)) {
        let (lhs, rhs) = WorkerPool::scoped(1, |pool| {
            let at = a.transpose(pool);
            (a.matmul(&b, pool).transpose(pool), b.transpose(pool).matmul(&at, pool))
        });
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    /// CSR built from dense triplets reproduces the dense matrix, and both
    /// multiplication kernels agree with the dense reference.
    #[test]
    fn csr_kernels_match_dense(a in dense(5, 5), b in dense(5, 5)) {
        let triplets: Vec<(usize, usize, f64)> = (0..5)
            .flat_map(|i| (0..5).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, a.get(i, j)))
            .filter(|&(_, _, v)| v != 0.0)
            .collect();
        let m = CsrMatrix::from_triplets(5, 5, triplets);
        let (dense_m, ab, bat) = WorkerPool::scoped(1, |pool| {
            let at = a.transpose(pool);
            (m.to_dense(pool), a.matmul(&b, pool), b.matmul(&at, pool))
        });
        prop_assert!(dense_m.max_abs_diff(&a) < 1e-15);
        prop_assert!(m.mul_dense(&b).max_abs_diff(&ab) < 1e-10);
        prop_assert!(m.mul_dense_transposed(&b).max_abs_diff(&bat) < 1e-10);
    }

    /// SVD reconstructs its input and produces orthonormal factors with
    /// descending singular values.
    #[test]
    fn svd_reconstructs(a in dense(5, 5)) {
        let (svd, rebuilt, utu) = WorkerPool::scoped(1, |pool| {
            let svd = Svd::compute(&a, pool);
            let rebuilt = svd.reconstruct(pool);
            let utu = svd.u.transpose(pool).matmul(&svd.u, pool);
            (svd, rebuilt, utu)
        });
        prop_assert!(rebuilt.max_abs_diff(&a) < 1e-8);
        prop_assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1] - 1e-10));
        for i in 0..utu.rows() {
            for j in 0..utu.cols() {
                // Columns with zero singular value may be zero vectors; only
                // check the well-defined part.
                if svd.sigma[i.max(j)] > 1e-12 {
                    let want = if i == j { 1.0 } else { 0.0 };
                    let err = (utu.get(i, j) - want).abs();
                    prop_assert!(err < 1e-8, "U column gram error {} at ({}, {})", err, i, j);
                }
            }
        }
    }

    /// Truncated SVD error equals the largest dropped singular value
    /// (Eckart–Young, spectral norm checked via Frobenius upper bound).
    #[test]
    fn truncation_error_bounded(a in dense(4, 4)) {
        let r = 2;
        let (svd, rebuilt) = WorkerPool::scoped(1, |pool| {
            let svd = Svd::compute(&a, pool);
            let rebuilt = svd.truncate(r).reconstruct(pool);
            (svd, rebuilt)
        });
        let err = rebuilt.max_abs_diff(&a);
        // max-norm ≤ spectral norm = σ_{r+1}; allow slack for the norm gap.
        let dropped = svd.sigma.get(r).copied().unwrap_or(0.0);
        prop_assert!(err <= dropped + 1e-8, "err {err} vs dropped σ {dropped}");
    }
}
