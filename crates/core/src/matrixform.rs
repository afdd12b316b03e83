//! Dense matrix-form reference iterations (validation oracles).
//!
//! These implement the paper's Eq. (3) (conventional matrix form) and
//! Eq. (15) (differential form) directly with the `simrank-linalg`
//! sparse–dense kernels. They are `O(K·m·n)` time and `O(n²)` memory —
//! used as ground truth in tests and the convergence experiments, not as
//! production algorithms.

use crate::matrix::SimMatrix;
use simrank_graph::DiGraph;
use simrank_linalg::{CsrMatrix, DenseMatrix};
use simrank_par::WorkerPool;

/// The backward transition matrix `Q` of `g`, built on a 1-wide pool
/// (`Q` is bit-identical at every width).
fn transition(g: &DiGraph) -> CsrMatrix {
    WorkerPool::scoped(1, |pool| CsrMatrix::backward_transition(g, pool))
}

/// Conventional matrix-form SimRank (Eq. 3), iterated `k` times:
/// `S ← C·Q·S·Qᵀ + (1−C)·Iₙ`, starting from `S₀ = (1−C)·Iₙ`.
///
/// Note the well-known difference from the iterative form (Eq. 2): the
/// matrix form does *not* pin the diagonal to 1; its fixed point is the
/// geometric sum `(1−C)·Σ Cⁱ Qⁱ(Qᵀ)ⁱ`.
pub fn matrix_form_simrank(g: &DiGraph, c: f64, k: u32) -> DenseMatrix {
    let n = g.node_count();
    let q = transition(g);
    let mut identity = DenseMatrix::identity(n);
    identity.scale(1.0 - c);
    let mut s = identity.clone();
    for _ in 0..k {
        let qs = q.mul_dense(&s);
        let mut qsqt = q.mul_dense_transposed(&qs);
        qsqt.scale(c);
        qsqt.add_assign_scaled(&identity, 1.0);
        s = qsqt;
    }
    s
}

/// The iterative-form reference (Eq. 2) in dense arithmetic: identical to
/// `naive_simrank` but expressed through the transition matrix, with the
/// diagonal pinned to 1 each round. Used to pin down the exact relationship
/// between the two forms in tests.
pub fn iterative_form_reference(g: &DiGraph, c: f64, k: u32) -> DenseMatrix {
    let n = g.node_count();
    let q = transition(g);
    let mut s = DenseMatrix::identity(n);
    for _ in 0..k {
        let qs = q.mul_dense(&s);
        let mut next = q.mul_dense_transposed(&qs);
        next.scale(c);
        for i in 0..n {
            next.set(i, i, 1.0);
        }
        s = next;
    }
    s
}

/// Differential SimRank reference (Eq. 15) in dense arithmetic, returning
/// the packed `Ŝ_k`.
pub fn dsr_matrix_reference(g: &DiGraph, c: f64, k: u32) -> SimMatrix {
    let n = g.node_count();
    let q = transition(g);
    let e_neg_c = (-c).exp();
    let mut t = DenseMatrix::identity(n);
    let mut s_hat = DenseMatrix::identity(n);
    s_hat.scale(e_neg_c);
    let mut coef = 1.0f64; // C^i / i!
    for i in 0..k {
        let qt = q.mul_dense(&t);
        t = q.mul_dense_transposed(&qt);
        coef *= c / (i as f64 + 1.0);
        s_hat.add_assign_scaled(&t, e_neg_c * coef);
    }
    let mut out = SimMatrix::zeros(n);
    for a in 0..n {
        for b in a..n {
            out.set(a, b, 0.5 * (s_hat.get(a, b) + s_hat.get(b, a)));
        }
    }
    out
}

/// The exponential-sum definition (Eq. 13) evaluated term by term —
/// validates Proposition 6's claim that Eq. (15) sums the series.
pub fn exponential_sum_reference(g: &DiGraph, c: f64, terms: u32) -> DenseMatrix {
    let n = g.node_count();
    let q = transition(g);
    let e_neg_c = (-c).exp();
    let mut t = DenseMatrix::identity(n);
    let mut acc = DenseMatrix::identity(n);
    let mut coef = 1.0f64;
    for i in 1..=terms {
        let qt = q.mul_dense(&t);
        t = q.mul_dense_transposed(&qt);
        coef *= c / i as f64;
        acc.add_assign_scaled(&t, coef);
    }
    acc.scale(e_neg_c);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_simrank;
    use crate::options::SimRankOptions;
    use simrank_graph::fixtures::paper_fig1a;

    #[test]
    fn iterative_reference_matches_naive() {
        let g = paper_fig1a();
        let k = 6;
        let dense = iterative_form_reference(&g, 0.6, k);
        let packed = naive_simrank(&g, &SimRankOptions::default().with_iterations(k)).0;
        for a in 0..9 {
            for b in 0..9 {
                assert!((dense.get(a, b) - packed.get(a, b)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matrix_form_diagonal_differs_from_iterative() {
        // The two formulations are known to disagree on diagonals: the
        // matrix form gives s(v,v) ≤ 1 with equality only for sources.
        let g = paper_fig1a();
        let s = matrix_form_simrank(&g, 0.6, 30);
        assert!(s.get(1, 1) < 1.0);
        // Source vertex f (id 5): Q row empty, diag stays 1−C.
        assert!((s.get(5, 5) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn matrix_form_reaches_fixed_point() {
        let g = paper_fig1a();
        let s30 = matrix_form_simrank(&g, 0.6, 30);
        let s40 = matrix_form_simrank(&g, 0.6, 40);
        assert!(s30.max_abs_diff(&s40) < 1e-7);
        // Fixed-point property: S = C·Q·S·Qᵀ + (1−C)·I.
        let q = transition(&g);
        let qs = q.mul_dense(&s40);
        let mut rhs = q.mul_dense_transposed(&qs);
        rhs.scale(0.6);
        let mut identity = DenseMatrix::identity(9);
        identity.scale(0.4);
        rhs.add_assign_scaled(&identity, 1.0);
        assert!(rhs.max_abs_diff(&s40) < 1e-7);
    }

    #[test]
    fn eq15_sums_the_exponential_series() {
        // Proposition 6: the Eq. 15 iterates equal the partial sums of the
        // exponential series, term for term.
        let g = paper_fig1a();
        for k in [1u32, 3, 7] {
            let via_iteration = dsr_matrix_reference(&g, 0.8, k);
            let via_series = exponential_sum_reference(&g, 0.8, k);
            for a in 0..9 {
                for b in 0..9 {
                    assert!(
                        (via_iteration.get(a, b) - via_series.get(a, b)).abs() < 1e-12,
                        "k={k} ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn symmetry_of_all_references() {
        let g = paper_fig1a();
        assert!(matrix_form_simrank(&g, 0.6, 10).is_symmetric(1e-12));
        assert!(iterative_form_reference(&g, 0.6, 10).is_symmetric(1e-12));
        assert!(exponential_sum_reference(&g, 0.6, 10).is_symmetric(1e-12));
    }
}
