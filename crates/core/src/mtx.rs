//! `mtx-SR` — matrix-based SimRank via SVD (Li et al., EDBT'10), the
//! second baseline of the paper's evaluation.
//!
//! The transition matrix is factorized once, `Q ≈ U·Σ·Vᵀ` (rank `r`), and
//! the geometric sum `S = (1−C)·Σᵢ Cⁱ Qⁱ(Qᵀ)ⁱ` is evaluated in the rank-`r`
//! space: with `W = Vᵀ·U`, the terms satisfy `Qⁱ(Qᵀ)ⁱ = U·Nᵢ·Uᵀ` where
//! `N₁ = Σ²` and `N_{i+1} = Σ·W·Nᵢ·Wᵀ·Σ` — all `r × r` products. Exact when
//! `r` is the full numerical rank; an approximation on low-rank graphs
//! (the only setting the paper grants this baseline, Fig. 6a/6d restrict it
//! to DBLP).
//!
//! Costs, as the paper criticizes: the `O(n³)` SVD dominates, and the final
//! `U·M·Uᵀ` densifies the result — memory explodes on large graphs, which
//! is exactly the Fig. 6d behaviour this implementation preserves.
//!
//! # Parallel execution
//!
//! The whole path runs on one persistent [`simrank_par::WorkerPool`]
//! ([`SimRankOptions::threads`] flows through): `Q` is built and
//! densified in row blocks ([`CsrMatrix::backward_transition`],
//! [`CsrMatrix::to_dense`]), the Jacobi SVD shards tournament rounds of
//! disjoint column-pair rotations ([`Svd::compute`]), every dense
//! product shards output-row bands ([`DenseMatrix::matmul`]), and the
//! final densification is *triangular* — the result is symmetric, so
//! only unordered pairs `b ≥ a` are computed (half the arithmetic of
//! forming `U·M·Uᵀ` square) and written straight into the packed
//! [`SimMatrix`] triangle, sharded by triangular packed-row weights. Every stage runs the same per-item
//! arithmetic on disjoint outputs at any width, so scores are
//! **bit-for-bit identical at every thread count**.

use crate::instrument::{PhaseTimer, Report};
use crate::matrix::SimMatrix;
use crate::options::SimRankOptions;
use crate::store::LowRankScores;
use simrank_graph::DiGraph;
use simrank_linalg::{CsrMatrix, DenseMatrix, Svd};
use simrank_par as par;
use std::time::Duration;

/// Closed-form peak-intermediate-memory model for a rank-`r` `mtx-SR`
/// run on `n` vertices, in bytes: the dense `Q` plus the SVD's working
/// copies and full-width factors (`B`, `V` working, `U`, `V` output —
/// ≈ 4n² before truncation), then the truncated factors / `G` at `n·r`
/// and the `r × r` iteration state. The final result streams into the
/// packed triangle, so no `n × n` staging buffer appears. This is both
/// what [`Report::peak_intermediate_bytes`] reports and what the Fig. 6d
/// experiment evaluates analytically above its runtime cap (`r = n`) —
/// one definition, so the two can never skew apart.
pub fn model_peak_bytes(n: usize, r: usize) -> usize {
    (5 * n * n + 3 * n * r + 7 * r * r) * 8
}

/// All-pairs SimRank via truncated-SVD iteration (`mtx-SR`).
///
/// `rank = None` keeps the full numerical rank (exact). The result follows
/// the *matrix form* semantics (Eq. 3) — diagonals are not pinned to 1.
/// The [`Report`] carries the instrumentation, including the pool width
/// in [`Report::workers`].
pub fn mtx_simrank(g: &DiGraph, opts: &SimRankOptions, rank: Option<usize>) -> (SimMatrix, Report) {
    let n = g.node_count();
    let workers = par::effective_workers(opts.threads, n);
    par::WorkerPool::scoped(workers, |pool| mtx_pooled(g, opts, rank, pool))
}

/// The shared front half of the `mtx-SR` pipeline: the SVD factorization
/// plus the rank-space iteration, ending at the [`LowRankScores`] handle
/// `S = (1−C)·(I + U·Ms·Uᵀ)` — everything *before* a serving
/// representation is chosen (triangular densification in
/// [`mtx_simrank`], or the handle itself in [`mtx_simrank_low_rank`]).
struct MtxFactors {
    /// The factors `U` (`n × r`) and `Ms` (`r × r`), with `U·Ms` cached.
    scores: LowRankScores,
    /// Wall time of the factorization phase.
    factorize: Duration,
    /// Wall time of the rank-space iteration (through `U·Ms`).
    iterate: Duration,
}

/// Factorizes the transition matrix and runs the rank-space iteration,
/// all sweeps dispatched on the pool. Bit-for-bit thread-invariant like
/// every stage it composes.
fn mtx_factors(
    g: &DiGraph,
    opts: &SimRankOptions,
    rank: Option<usize>,
    pool: &mut par::WorkerPool<'_>,
) -> MtxFactors {
    let n = g.node_count();
    let c = opts.damping;
    let k_max = opts.conventional_iterations();
    let mut timer = PhaseTimer::start();

    // --- Factorization phase (the analogue of "Build MST" in Fig. 6b). ---
    let q_dense = CsrMatrix::backward_transition(g, pool).to_dense(pool);
    let svd = Svd::compute(&q_dense, pool);
    let r = rank.unwrap_or_else(|| svd.rank(1e-10)).max(1).min(n);
    let svd = svd.truncate(r);
    let factorize = timer.lap();

    // --- Rank-space iteration. ---
    let u = &svd.u; // n × r
    let w = svd.v.transpose(pool).matmul(u, pool); // r × r
    let wt = w.transpose(pool);
    let sigma = &svd.sigma;
    // N₁ = Σ²; M = Σᵢ Cⁱ·Nᵢ.
    let mut n_i = DenseMatrix::from_fn(r, r, |i, j| if i == j { sigma[i] * sigma[i] } else { 0.0 });
    let mut m = DenseMatrix::zeros(r, r);
    let mut coef = c;
    for _ in 0..k_max {
        m.add_assign_scaled(&n_i, coef);
        // N_{i+1} = Σ·W·Nᵢ·Wᵀ·Σ.
        let wn = w.matmul(&n_i, pool);
        let wnwt = wn.matmul(&wt, pool);
        n_i = DenseMatrix::from_fn(r, r, |i, j| sigma[i] * wnwt.get(i, j) * sigma[j]);
        coef *= c;
    }
    // S = (1−C)·(I + U·Ms·Uᵀ) with Ms = (M + Mᵀ)/2 — the exact-arithmetic
    // value of the historical two-sided average ½(U·M·Uᵀ + (U·M·Uᵀ)ᵀ),
    // symmetrized once in the cheap r × r space.
    let ms = DenseMatrix::from_fn(r, r, |i, j| 0.5 * (m.get(i, j) + m.get(j, i)));
    let (u, _sigma, _v) = svd.into_factors();
    let scores = LowRankScores::from_parts(1.0 - c, u, ms, pool);
    let iterate = timer.lap();
    MtxFactors {
        scores,
        factorize,
        iterate,
    }
}

/// The pooled `mtx-SR` pipeline: factorize, iterate in rank space, and
/// densify the triangle, all sweeps dispatched on one pool.
///
/// The densification is *triangular*: S is symmetric, so only unordered
/// pairs `a ≤ b` are evaluated (each one [`LowRankScores::get`], a
/// length-r dot product, half the arithmetic of forming the square
/// product) and written straight into the packed triangle — pair
/// (a, b ≥ a) lives in packed row `b`, so sharding by triangular
/// packed-row weights hands workers disjoint contiguous slices.
fn mtx_pooled(
    g: &DiGraph,
    opts: &SimRankOptions,
    rank: Option<usize>,
    pool: &mut par::WorkerPool<'_>,
) -> (SimMatrix, Report) {
    let n = g.node_count();
    let f = mtx_factors(g, opts, rank, pool);
    let mut timer = PhaseTimer::start();
    let scores = &f.scores;
    let mut out = SimMatrix::zeros(n);
    let row_weights: Vec<usize> = (1..=n).collect(); // packed row b holds b + 1 entries
    let bands = par::weighted_blocks(&row_weights, pool.workers());
    let items: Vec<_> = bands
        .iter()
        .cloned()
        .zip(out.packed_row_bands_mut(&bands))
        .collect();
    pool.sweep(items, |(band, slice), _counter| {
        let pairs = band.flat_map(|b| (0..=b).map(move |a| (a, b)));
        for (slot, (a, b)) in slice.iter_mut().zip(pairs) {
            *slot = scores.get(a, b);
        }
    });
    let densify = timer.lap();

    let report = Report {
        iterations: opts.conventional_iterations(),
        mst_build: f.factorize, // the precomputation phase
        share_sums: f.iterate + densify,
        peak_intermediate_bytes: model_peak_bytes(n, scores.rank()),
        workers: pool.workers(),
        ..Default::default()
    };
    (out, report)
}

/// All-pairs SimRank via `mtx-SR`, served as a [`LowRankScores`] handle —
/// the **no-densification** variant of [`mtx_simrank`]. The factors stay
/// in rank space (`O(n·r + r²)` resident score storage), and queries
/// contract them lazily with the exact densification arithmetic, so every
/// value matches the dense output bit-for-bit at the same rank.
pub fn mtx_simrank_low_rank(
    g: &DiGraph,
    opts: &SimRankOptions,
    rank: Option<usize>,
) -> LowRankScores {
    let workers = par::effective_workers(opts.threads, g.node_count());
    par::WorkerPool::scoped(workers, |pool| mtx_factors(g, opts, rank, pool).scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrixform::matrix_form_simrank;
    use simrank_graph::fixtures::paper_fig1a;
    use simrank_graph::gen;

    #[test]
    fn full_rank_matches_matrix_form() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default()
            .with_damping(0.6)
            .with_iterations(25);
        let via_svd = mtx_simrank(&g, &opts, None).0;
        let reference = matrix_form_simrank(&g, 0.6, 25);
        for a in 0..9 {
            for b in 0..9 {
                assert!(
                    (via_svd.get(a, b) - reference.get(a, b)).abs() < 1e-8,
                    "({a},{b}): {} vs {}",
                    via_svd.get(a, b),
                    reference.get(a, b)
                );
            }
        }
    }

    #[test]
    fn full_rank_matches_on_random_graph() {
        let g = gen::gnm(25, 90, 3);
        let opts = SimRankOptions::default()
            .with_damping(0.7)
            .with_iterations(30);
        let via_svd = mtx_simrank(&g, &opts, None).0;
        let reference = matrix_form_simrank(&g, 0.7, 30);
        for a in 0..25 {
            for b in 0..25 {
                assert!((via_svd.get(a, b) - reference.get(a, b)).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn low_rank_truncation_approximates() {
        // On a low-rank-ish co-authorship graph, a generous truncation stays
        // close to the exact answer.
        let g = gen::coauthor_graph(gen::CoauthorParams::dblp_like(40), 1);
        let opts = SimRankOptions::default().with_iterations(15);
        let exact = mtx_simrank(&g, &opts, None).0;
        let n = g.node_count();
        let approx = mtx_simrank(&g, &opts, Some(n * 3 / 4)).0;
        let mut worst = 0.0f64;
        for a in 0..n {
            for b in 0..n {
                worst = worst.max((exact.get(a, b) - approx.get(a, b)).abs());
            }
        }
        assert!(worst < 0.05, "rank-3n/4 truncation drifted by {worst}");
    }

    #[test]
    fn memory_model_is_quadratic() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default().with_iterations(5);
        let (_, r) = mtx_simrank(&g, &opts, None);
        assert!(r.peak_intermediate_bytes >= 3 * 9 * 9 * 8);
    }

    #[test]
    fn parallel_mtx_is_bit_identical_and_reports_workers() {
        // The SVD tournament, the banded matmuls, and the triangular
        // densification all run the exact sequential arithmetic on
        // disjoint outputs: every thread count reproduces threads = 1
        // bit-for-bit, and the pool width lands in the report.
        let g = gen::gnm(30, 110, 5);
        let opts = SimRankOptions::default()
            .with_damping(0.6)
            .with_iterations(12);
        let (base, r1) = mtx_simrank(&g, &opts.with_threads(1), None);
        assert_eq!(r1.workers, 1);
        for t in [2usize, 4, 8] {
            let (s, rt) = mtx_simrank(&g, &opts.with_threads(t), None);
            assert_eq!(base.max_abs_diff(&s), 0.0, "threads={t} diverged");
            assert_eq!(rt.workers, t.min(g.node_count()));
        }
    }

    #[test]
    fn empty_and_rank_edge_graphs_degenerate_cleanly() {
        // Regression for the empty-SVD fix: n = 0 must flow through the
        // whole pipeline (empty factors, rank clamping, empty packed
        // result) without building degenerate buffers, and explicit ranks
        // past the factorization width must clamp instead of panicking.
        let empty = DiGraph::from_edges(0, []).unwrap();
        let opts = SimRankOptions::default().with_iterations(4);
        assert_eq!(mtx_simrank(&empty, &opts, None).0.order(), 0);
        assert_eq!(mtx_simrank(&empty, &opts, Some(1)).0.order(), 0);
        let single = DiGraph::from_edges(1, []).unwrap();
        let s = mtx_simrank(&single, &opts, Some(5)).0; // rank > n clamps
        assert!((s.get(0, 0) - (1.0 - opts.damping)).abs() < 1e-12);
    }
}
