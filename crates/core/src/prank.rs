//! P-Rank (Penetrating Rank, Zhao et al., CIKM'09) — the in+out-link
//! generalization of SimRank.
//!
//! The paper's related-work section notes that "since the iterative
//! paradigms of SimRank and P-Rank are almost similar, our techniques for
//! SimRank can be easily extended to P-Rank". This module delivers that
//! extension: the recurrence
//!
//! ```text
//! s(a,b) = λ·C/(|I(a)||I(b)|)·ΣΣ s(i,j)  +  (1−λ)·C/(|O(a)||O(b)|)·ΣΣ s(o,o′)
//! ```
//!
//! runs the OIP engine's replay twice per sweep — once over in-neighbor
//! sets on `G`, once over out-neighbor sets (i.e. in-neighbor sets of the
//! reversed graph) — each with its own sharing plan and scaled by its
//! λ-factor, the second accumulating on top of the first. Both halves are
//! symmetric in `(a, b)`, so each emits only the triangular pair set
//! `w > u`; the shared iteration driver then sieves, pins, and mirrors
//! the summed score once. `λ = 1` recovers SimRank exactly.
//!
//! Every source row is emitted exactly once per direction, and the first
//! direction's sweep returns before the second starts, so the per-entry
//! addition order `in then out` never changes and scores are bit-for-bit
//! identical at every thread count.

use crate::engine::{Mode, OipKernel};
use crate::instrument::{PhaseTimer, Report};
use crate::iterate::{iterate, Start, Stop};
use crate::matrix::SimMatrix;
use crate::options::SimRankOptions;
use crate::plan::SharingPlan;
use simrank_graph::DiGraph;

/// Weighting between the in-link and out-link evidence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PRankOptions {
    /// Base SimRank options (damping, iterations, …).
    ///
    /// `base.threshold` sieves the *summed* in+out score of each pair
    /// after every iteration (Lizorkin et al.'s definition applied to the
    /// P-Rank score), not each direction separately.
    pub base: SimRankOptions,
    /// λ ∈ [0, 1]: 1 = in-links only (SimRank), 0 = out-links only.
    pub lambda: f64,
}

impl Default for PRankOptions {
    fn default() -> Self {
        PRankOptions {
            base: SimRankOptions::default(),
            lambda: 0.5,
        }
    }
}

/// All-pairs P-Rank with OIP partial-sums sharing on both link directions,
/// with its instrumentation.
pub fn prank(g: &DiGraph, opts: &PRankOptions) -> (SimMatrix, Report) {
    assert!(
        (0.0..=1.0).contains(&opts.lambda),
        "lambda must be in [0, 1]"
    );
    let n = g.node_count();
    let c = opts.base.damping;
    let mut timer = PhaseTimer::start();

    // In-link plan on G; out-link plan is the in-link plan of reversed G.
    // Each direction's factor gates its entire pass, so neither the
    // reversed graph nor a direction's O(Σₓ|O(x)|²) plan is built when λ pins
    // that factor to zero (λ = 1 is pure SimRank, λ = 0 pure reversed
    // SimRank — the single-direction cases run one plan build, not two).
    let in_factor = opts.lambda * c;
    let out_factor = (1.0 - opts.lambda) * c;
    let reversed = (out_factor != 0.0).then(|| g.reverse());
    let in_plan = (in_factor != 0.0).then(|| SharingPlan::build(g, &opts.base));
    let out_plan = reversed.as_ref().map(|r| SharingPlan::build(r, &opts.base));
    let mst_build = timer.lap();

    let mut passes = Vec::with_capacity(2);
    if let Some(plan) = &in_plan {
        passes.push((g, plan, in_factor));
    }
    if let (Some(rev), Some(plan)) = (&reversed, &out_plan) {
        passes.push((rev, plan, out_factor));
    }
    let mut kernel = OipKernel::new(n, &passes, &opts.base, Mode::Conventional);
    let (grid, report) = iterate(
        n,
        opts.base.threshold,
        &mut kernel,
        Start::Identity,
        Stop::Fixed(opts.base.conventional_iterations()),
        |_, _| {},
    );
    let report = Report {
        mst_build,
        peak_intermediate_bytes: kernel.state_bytes(),
        ..report
    };
    (grid.to_sim_matrix(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oip::oip_simrank;
    use simrank_graph::fixtures::paper_fig1a;
    use simrank_graph::gen;
    use simrank_par as par;

    #[test]
    fn lambda_one_recovers_simrank() {
        let g = paper_fig1a();
        let base = SimRankOptions::default().with_iterations(6);
        let pr = prank(&g, &PRankOptions { base, lambda: 1.0 }).0;
        let sr = oip_simrank(&g, &base);
        assert!(pr.max_abs_diff(&sr) < 1e-12);
    }

    #[test]
    fn lambda_zero_is_simrank_on_reversed_graph() {
        let g = paper_fig1a();
        let base = SimRankOptions::default().with_iterations(6);
        let pr = prank(&g, &PRankOptions { base, lambda: 0.0 }).0;
        let sr_rev = oip_simrank(&g.reverse(), &base);
        assert!(pr.max_abs_diff(&sr_rev) < 1e-12);
    }

    /// Dense matrix-form P-Rank from `S₀ = I`, with the diagonal pinned
    /// each round: `S ← λC·Q·S·Qᵀ + (1−λ)C·Q′·S·Q′ᵀ`, where `Q′` is the
    /// transition matrix of `Gᵀ`.
    fn assert_matches_dense(g: &DiGraph, opts: &PRankOptions) {
        use simrank_linalg::{CsrMatrix, DenseMatrix};
        let (c, n) = (opts.base.damping, g.node_count());
        let q = |g: &DiGraph| par::WorkerPool::scoped(1, |p| CsrMatrix::backward_transition(g, p));
        let (q_in, q_out) = (q(g), q(&g.reverse()));
        let mut want = DenseMatrix::identity(n);
        for _ in 0..opts.base.conventional_iterations() {
            let mut next = q_in.mul_dense_transposed(&q_in.mul_dense(&want));
            next.scale(opts.lambda * c);
            let out = q_out.mul_dense_transposed(&q_out.mul_dense(&want));
            next.add_assign_scaled(&out, (1.0 - opts.lambda) * c);
            (0..n).for_each(|i| next.set(i, i, 1.0));
            want = next;
        }
        let got = prank(g, opts).0;
        for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
            let (v, w) = (got.get(a, b), want.get(a, b));
            assert!((v - w).abs() < 1e-12, "({a},{b}): {v} vs {w}");
        }
    }

    #[test]
    fn naive_prank_cross_check() {
        // One iteration on a small graph against the matrix form.
        let base = SimRankOptions::default()
            .with_iterations(1)
            .with_damping(0.6);
        assert_matches_dense(&gen::gnm(20, 60, 5), &PRankOptions { base, lambda: 0.5 });
    }

    #[test]
    fn out_pass_fills_pairs_the_in_pass_never_assigned() {
        // Vertex 0 has out-edges but no in-edges and vertex 5 the reverse,
        // so the Gᵀ pass writes pairs the G pass never assigns. Its `+=`
        // lands on a grid the driver must clear every sweep.
        let g = gen::gnm(10, 30, 2);
        let edges = g.edges().filter(|&(u, v)| v != 0 && u != 5);
        let g = DiGraph::from_edges(10, edges.collect::<Vec<_>>()).unwrap();
        assert!(g.out_degree(0) > 0 && g.in_degree(5) > 0);
        for threads in [1, 2, 4, 8] {
            let base = SimRankOptions::default()
                .with_iterations(5)
                .with_threads(threads);
            assert_matches_dense(&g, &PRankOptions { base, lambda: 0.5 });
        }
    }

    #[test]
    fn scores_stay_in_unit_interval() {
        let g = gen::coauthor_graph(gen::CoauthorParams::dblp_like(50), 2);
        let pr = prank(
            &g,
            &PRankOptions {
                base: SimRankOptions::default().with_iterations(8),
                lambda: 0.4,
            },
        )
        .0;
        for (a, b, v) in pr.iter_upper() {
            assert!((0.0..=1.0 + 1e-12).contains(&v), "p({a},{b}) = {v}");
        }
    }

    #[test]
    fn parallel_replay_is_bit_identical_and_counts_merge_exactly() {
        // Both direction passes shard across the pool with disjoint row
        // ownership: every thread count must reproduce threads = 1
        // bit-for-bit, and the per-worker counter shards must merge to
        // exactly the single-threaded operation count.
        let g = gen::gnm(40, 170, 23);
        for lambda in [0.0, 0.35, 1.0] {
            let base = SimRankOptions::default().with_iterations(5).with_threads(1);
            let (s1, r1) = prank(&g, &PRankOptions { base, lambda });
            assert_eq!(r1.workers, 1);
            for t in [2usize, 3, 5, 8] {
                let opts = PRankOptions {
                    base: base.with_threads(t),
                    lambda,
                };
                let (st, rt) = prank(&g, &opts);
                assert_eq!(s1.max_abs_diff(&st), 0.0, "λ={lambda} threads={t}");
                assert_eq!(r1.adds, rt.adds, "op counts must merge exactly");
                assert!(rt.workers >= 1 && rt.workers <= t);
            }
        }
    }

    #[test]
    fn threshold_sieves_the_summed_score_at_every_width() {
        // The sieve runs on the summed in+out score: no stored
        // off-diagonal value may land in (0, δ), and the sieved result is
        // still bit-identical at every pool width.
        let g = gen::gnm(40, 160, 7);
        let delta = 0.05;
        let at = |threads| {
            let base = SimRankOptions::default()
                .with_iterations(5)
                .with_threshold(delta)
                .with_threads(threads);
            prank(&g, &PRankOptions { base, lambda: 0.5 }).0
        };
        let s1 = at(1);
        for (a, b, v) in s1.iter_upper() {
            assert!(
                a == b || v == 0.0 || v >= delta,
                "unsieved p({a},{b}) = {v}"
            );
        }
        assert!(s1.iter_upper().any(|(a, b, v)| a != b && v >= delta));
        for t in [2usize, 4, 8] {
            assert_eq!(at(t), s1, "threads = {t}");
        }
    }

    #[test]
    fn report_counts_match_complexity_model() {
        // Both half-sweeps run the same pruned triangular replay as the
        // OIP engine: λ = 1 runs exactly one in-link pass per iteration
        // (the out-link factor is 0 and skipped), so its counts equal
        // OIP-SR's on the same graph *exactly*; a mixed λ runs both
        // directions, so its counts are the sum of the two
        // single-direction runs.
        let g = gen::gnm(30, 120, 3);
        let base = SimRankOptions::default().with_iterations(4);
        let (_, r_in) = crate::oip::oip_simrank_with_report(&g, &base);
        let (_, r_out) = crate::oip::oip_simrank_with_report(&g.reverse(), &base);
        let (_, r1) = prank(&g, &PRankOptions { base, lambda: 1.0 });
        assert_eq!(r1.adds, r_in.adds);
        let (_, r_half) = prank(&g, &PRankOptions { base, lambda: 0.5 });
        assert_eq!(r_half.adds, r_in.adds + r_out.adds);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn rejects_bad_lambda() {
        let g = paper_fig1a();
        let _ = prank(
            &g,
            &PRankOptions {
                base: SimRankOptions::default(),
                lambda: 1.5,
            },
        );
    }
}
