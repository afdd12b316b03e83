//! Kronecker-product and `vec(·)` helpers.
//!
//! The paper's Proposition 7 bounds `‖Ŝ_k − Ŝ‖max` by vectorizing the error
//! matrix and using `vec(A·X·B) = (Bᵀ ⊗ A)·vec(X)` together with
//! `‖Q ⊗ Q‖₁ ≤ 1` for the row-substochastic transition matrix. These
//! helpers exist so the workspace tests can exercise that argument
//! numerically on small graphs rather than trusting it on faith.

use crate::dense::DenseMatrix;

/// Column-stacking vectorization `vec(A)` (column-major, the convention of
/// the Kronecker identity used in the paper).
pub fn vec_mat(a: &DenseMatrix) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.rows() * a.cols());
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            out.push(a.get(i, j));
        }
    }
    out
}

/// Inverse of [`vec_mat`].
pub fn unvec(v: &[f64], rows: usize, cols: usize) -> DenseMatrix {
    assert_eq!(v.len(), rows * cols, "unvec length mismatch");
    DenseMatrix::from_fn(rows, cols, |i, j| v[j * rows + i])
}

/// Kronecker product `A ⊗ B`.
pub fn kronecker(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (ar, ac, br, bc) = (a.rows(), a.cols(), b.rows(), b.cols());
    DenseMatrix::from_fn(ar * br, ac * bc, |i, j| {
        a.get(i / br, j / bc) * b.get(i % br, j % bc)
    })
}

/// Induced 1-norm (max absolute column sum).
pub fn one_norm(a: &DenseMatrix) -> f64 {
    (0..a.cols())
        .map(|j| (0..a.rows()).map(|i| a.get(i, j).abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_par::WorkerPool;

    #[test]
    fn vec_unvec_round_trip() {
        let a = DenseMatrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let v = vec_mat(&a);
        assert_eq!(v, vec![0.0, 2.0, 4.0, 1.0, 3.0, 5.0]);
        assert_eq!(unvec(&v, 3, 2), a);
    }

    #[test]
    fn kronecker_identity_property() {
        // vec(A·X·B) = (Bᵀ ⊗ A)·vec(X) — the identity used in Prop. 7.
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 0.5, -1.0]);
        let x = DenseMatrix::from_rows(2, 2, &[0.25, 1.0, -0.75, 2.0]);
        let b = DenseMatrix::from_rows(2, 2, &[2.0, 0.0, 1.0, 1.0]);
        let (axb, bt) = WorkerPool::scoped(1, |pool| {
            (a.matmul(&x, pool).matmul(&b, pool), b.transpose(pool))
        });
        let lhs = vec_mat(&axb);
        let k = kronecker(&bt, &a);
        let vx = vec_mat(&x);
        let rhs: Vec<f64> = (0..k.rows())
            .map(|i| (0..k.cols()).map(|j| k.get(i, j) * vx[j]).sum())
            .collect();
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-12, "{l} vs {r}");
        }
    }

    #[test]
    fn kronecker_shapes_and_values() {
        let a = DenseMatrix::from_rows(1, 2, &[2.0, 3.0]);
        let b = DenseMatrix::from_rows(2, 1, &[1.0, -1.0]);
        let k = kronecker(&a, &b);
        assert_eq!((k.rows(), k.cols()), (2, 2));
        assert_eq!(k.as_slice(), &[2.0, 3.0, -2.0, -3.0]);
    }

    #[test]
    fn one_norm_is_max_column_sum() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, -4.0, 2.0, 1.0]);
        assert_eq!(one_norm(&a), 5.0);
    }

    #[test]
    fn substochastic_kron_substochastic() {
        // ‖Q ⊗ Q‖₁ ≤ 1 for a column-substochastic Q — the norm fact in the
        // proof of Proposition 7 (the paper works with ‖·‖₁ of Q ⊗ Q).
        let q = DenseMatrix::from_rows(2, 2, &[0.5, 0.3, 0.5, 0.2]);
        assert!(one_norm(&q) <= 1.0);
        assert!(one_norm(&kronecker(&q, &q)) <= 1.0 + 1e-12);
    }
}
