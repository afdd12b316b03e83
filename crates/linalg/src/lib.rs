//! Matrix substrate for the SimRank workspace.
//!
//! Everything the matrix-form SimRank derivations of the paper touch,
//! implemented from scratch:
//!
//! * [`DenseMatrix`] — row-major `f64` matrices with the product and
//!   transpose operations used by the reference iteration
//!   `S = C·Q·S·Qᵀ + (1−C)·Iₙ` (paper Eq. 3) and the differential SimRank
//!   `Ŝ` accumulation (Eq. 15);
//! * [`CsrMatrix`] — compressed sparse row matrices, including the backward
//!   transition matrix `Q` (`[Q]_{ij} = 1/|I(i)|` iff `j → i ∈ E`) and the
//!   sparse–dense kernels that make the reference iteration `O(m·n)` rather
//!   than `O(n³)`;
//! * [`svd`] — one-sided Jacobi singular value decomposition, the engine of
//!   the `mtx-SR` baseline (Li et al., EDBT'10) that the paper compares
//!   against.
//!
//! The heavy kernels take the caller's worker pool (`simrank_par`) and
//! have no other form: [`DenseMatrix::matmul`] and
//! [`DenseMatrix::transpose`] split output rows into contiguous bands,
//! [`CsrMatrix::backward_transition`] and [`CsrMatrix::to_dense`] shard
//! whole rows, and [`Svd::compute`] schedules each Jacobi sweep as a
//! round-robin tournament of disjoint column-pair rotations. A 1-wide
//! pool runs every sweep inline on the calling thread. All of them are
//! **bit-for-bit identical at every pool width** — workers own disjoint
//! output rows (or columns) and the per-item arithmetic does not depend
//! on the banding, so only the interleaving changes (enforced by the
//! `parallel_*` tests and the CI determinism matrix).

mod csr;
mod dense;
pub mod svd;

pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use svd::Svd;
