//! Determinism contract of the pooled matrix kernels: `threads = N`
//! reproduces `threads = 1` **bit-for-bit** for the banded
//! matmul/transpose, the tournament-scheduled Jacobi SVD and the sharded
//! CSR materialization.
//!
//! These are the `parallel_*` tests the CI determinism matrix runs
//! explicitly (`cargo test -q -p simrank_linalg parallel`) before the full
//! suite, so a determinism break in the substrate fails fast and by name.

use proptest::prelude::*;
use simrank_linalg::{CsrMatrix, DenseMatrix, Svd};
use simrank_par::WorkerPool;

/// Strategy: a small dense matrix with entries in [-2, 2].
fn dense(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |data| DenseMatrix::from_rows(rows, cols, &data))
}

proptest! {
    /// Pooled matmul and transpose shard output rows into contiguous
    /// bands; each band runs the same per-row kernel, so the product is
    /// identical — not merely close — at every pool width.
    #[test]
    fn parallel_matmul_bit_identical(a in dense(7, 5), b in dense(5, 6), t in 2usize..9) {
        let (base, base_t) = WorkerPool::scoped(1, |pool| (a.matmul(&b, pool), a.transpose(pool)));
        let (pooled, pooled_t) = WorkerPool::scoped(t, |pool| (a.matmul(&b, pool), a.transpose(pool)));
        prop_assert_eq!(&pooled, &base, "matmul diverged at workers={}", t);
        prop_assert_eq!(&pooled_t, &base_t, "transpose diverged at workers={}", t);
    }

    /// The Jacobi tournament schedule is a pure function of the column
    /// count and rotations within a round touch disjoint columns, so the
    /// whole factorization — U, σ, V, even the sweep count — is
    /// bit-for-bit thread-invariant.
    #[test]
    fn parallel_svd_factors_bit_identical(a in dense(6, 6), t in 2usize..9) {
        let base = WorkerPool::scoped(1, |pool| Svd::compute(&a, pool));
        let svd = WorkerPool::scoped(t, |pool| Svd::compute(&a, pool));
        prop_assert_eq!(&svd.u, &base.u, "U diverged at workers={}", t);
        prop_assert_eq!(&svd.sigma, &base.sigma, "sigma diverged at workers={}", t);
        prop_assert_eq!(&svd.v, &base.v, "V diverged at workers={}", t);
    }

    /// The pooled SVD still factorizes: reconstruction round-trips on
    /// rectangular shapes at an arbitrary pool width.
    #[test]
    fn parallel_svd_reconstructs(a in dense(6, 4), t in 1usize..9) {
        let rebuilt = WorkerPool::scoped(t, |pool| Svd::compute(&a, pool).reconstruct(pool));
        prop_assert!(rebuilt.max_abs_diff(&a) < 1e-8);
    }
}

/// A long pooled chain (transpose → products → SVD) on one shared pool
/// matches the width-1 chain exactly — the composition property the
/// `mtx` pipeline relies on.
#[test]
fn parallel_pipeline_composition_is_bit_identical() {
    let a = DenseMatrix::from_fn(12, 9, |i, j| {
        ((i * 41 + j * 23 + 11) % 31) as f64 / 9.0 - 1.5
    });
    let chain = |pool: &mut WorkerPool<'_>| {
        let at = a.transpose(pool);
        let g = at.matmul(&a, pool);
        let svd = Svd::compute(&g, pool);
        let vt = svd.v.transpose(pool);
        svd.u.matmul(&g, pool).matmul(&vt, pool)
    };
    let base = WorkerPool::scoped(1, chain);
    for workers in [2usize, 3, 5, 8] {
        assert_eq!(
            WorkerPool::scoped(workers, chain),
            base,
            "workers = {workers}"
        );
    }
}

/// Strategy: a random digraph as (node count, edge list) — covers empty
/// graphs, in-degree-0 vertices, self-loops, and duplicate edges (which
/// `DiGraph` dedups away).
fn graph() -> impl Strategy<Value = simrank_graph::DiGraph> {
    (1usize..20).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..60)
            .prop_map(move |edges| simrank_graph::DiGraph::from_edges(n, edges).unwrap())
    })
}

proptest! {
    /// Sharded CSR materialization — `backward_transition` filling rows
    /// of `Q` and `to_dense` scattering them — hands each worker disjoint
    /// row ranges running the same per-row arithmetic, so both the sparse
    /// structure and the dense scatter are bit-for-bit identical at every
    /// pool width.
    #[test]
    fn parallel_csr_materialization_bit_identical(g in graph(), t in 2usize..9) {
        let materialize = |pool: &mut WorkerPool<'_>| {
            let q = CsrMatrix::backward_transition(&g, pool);
            let d = q.to_dense(pool);
            (q, d)
        };
        let (base_q, base_dense) = WorkerPool::scoped(1, materialize);
        let (q, dense) = WorkerPool::scoped(t, materialize);
        prop_assert_eq!(&q, &base_q, "CSR structure diverged at workers={}", t);
        prop_assert_eq!(&dense, &base_dense, "dense scatter diverged at workers={}", t);
    }
}
