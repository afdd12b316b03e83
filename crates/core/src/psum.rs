//! `psum-SR` — SimRank with partial sums memoization (Lizorkin et al.,
//! PVLDB'08), the state of the art the paper improves on.
//!
//! Implements two of the three optimizations of that work:
//! 1. *partial sums memoization* (Eq. 4/5): `Partial_{I(a)}(·)` computed
//!    once per source and reused across all targets — `O(K·d·n²)` total.
//!    The outer accumulation runs over the **triangular pair set** only
//!    (`b > a`; SimRank is symmetric);
//! 2. *threshold-sieved similarities* (scores below `δ` clamped to zero).
//!
//! The third, *essential node-pair selection*, is left out. It skips
//! pairs in different weakly connected components, but those scores are
//! already exactly `0.0` here: `S₀ = I` has no cross-component entry and
//! every update sums only cross-component entries of the previous
//! iterate. The filter changes no score, saves work only on disconnected
//! graphs, and `OIP-SR` does not apply it, so the two algorithms compare
//! on the same pair set.
//!
//! psum-SR is OIP-SR with no sharing: every partial sum and every outer
//! sum is computed **from scratch**, the redundancy across overlapping
//! in-neighbor sets that `OIP-SR` eliminates. So it is a plan, not a
//! kernel: it runs the sweep of [`crate::oip`] on the flat plan, where
//! every target hangs from the root `∅` in ascending id order. The shared
//! iteration driver runs the iteration around it, including the sieve and
//! the mirror pass.

use crate::engine::{self, Mode};
use crate::instrument::Report;
use crate::matrix::SimMatrix;
use crate::options::SimRankOptions;
use crate::plan::SharingPlan;
use simrank_graph::DiGraph;

/// All-pairs SimRank via partial sums memoization.
pub fn psum_simrank(g: &DiGraph, opts: &SimRankOptions) -> SimMatrix {
    psum_simrank_with_report(g, opts).0
}

/// As [`psum_simrank`], also returning instrumentation.
pub fn psum_simrank_with_report(g: &DiGraph, opts: &SimRankOptions) -> (SimMatrix, Report) {
    let plan = SharingPlan::flat(g);
    let iterations = opts.conventional_iterations();
    let (grid, report) = engine::run(g, &plan, opts, Mode::Conventional, iterations, |_, _| {});
    (grid.to_sim_matrix(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_simrank;
    use simrank_graph::fixtures::{paper_fig1a, two_triangles};

    #[test]
    fn matches_naive_on_fixture() {
        let g = paper_fig1a();
        for k in [1u32, 2, 5, 10] {
            let opts = SimRankOptions::default().with_iterations(k);
            let a = naive_simrank(&g, &opts).0;
            let b = psum_simrank(&g, &opts);
            assert!(
                a.max_abs_diff(&b) < 1e-12,
                "psum diverges from naive at K={k}: {}",
                a.max_abs_diff(&b)
            );
        }
    }

    #[test]
    fn matches_naive_with_damping_sweep() {
        let g = paper_fig1a();
        for &c in &[0.2, 0.4, 0.6, 0.8, 0.95] {
            let opts = SimRankOptions::default().with_damping(c).with_iterations(6);
            let a = naive_simrank(&g, &opts).0;
            let b = psum_simrank(&g, &opts);
            assert!(a.max_abs_diff(&b) < 1e-12, "C={c}");
        }
    }

    #[test]
    fn cross_component_scores_are_exactly_zero() {
        // Two disjoint triangles: no essential-pair filter is needed, the
        // iteration itself keeps every cross-component score at 0.0.
        let g = two_triangles();
        let s = psum_simrank(&g, &SimRankOptions::default().with_iterations(8));
        for a in 0..3 {
            for b in 3..6 {
                assert_eq!(s.get(a, b), 0.0, "({a},{b})");
            }
        }
    }

    #[test]
    fn threshold_zeroes_small_entries() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default()
            .with_iterations(5)
            .with_threshold(0.1);
        let s = psum_simrank(&g, &opts);
        for (a, b, v) in s.iter_upper() {
            assert!(v == 0.0 || v >= 0.1 || a == b);
        }
    }

    #[test]
    fn degenerate_target_sets_never_underflow_counters() {
        // Regression for the `(len - 1) * n` counter arithmetic: when the
        // target set degenerates (no vertex has in-edges, or a single
        // vertex does), a `0 - 1` in `u64` would wrap to ~2^64 and poison
        // `Report::adds`. All sweeps must report exact small counts.
        use crate::oip::oip_simrank_with_report;
        use crate::prank::{prank, PRankOptions};
        let opts = SimRankOptions::default().with_iterations(3);
        // Edgeless: target set is empty.
        let empty = simrank_graph::DiGraph::from_edges(4, []).unwrap();
        // One self-loop: a single target whose only in-neighbor is itself.
        let loop_only = simrank_graph::DiGraph::from_edges(3, [(1, 1)]).unwrap();
        for g in [&empty, &loop_only] {
            for (name, adds) in [
                ("psum", psum_simrank_with_report(g, &opts).1.adds),
                ("naive", naive_simrank(g, &opts).1.adds),
                ("oip", oip_simrank_with_report(g, &opts).1.adds),
                (
                    "prank",
                    prank(
                        g,
                        &PRankOptions {
                            base: opts,
                            lambda: 0.5,
                        },
                    )
                    .1
                    .adds,
                ),
            ] {
                assert!(
                    adds < 1_000,
                    "{name}: degenerate graph reported {adds} adds (counter wrapped?)"
                );
            }
        }
    }

    #[test]
    fn report_counts_match_complexity_model() {
        // For triangular psum-SR the additions per iteration are
        //   inner:  n·Σ_a (|I(a)|−1)  over every source *except the last*
        //           (its partial sum would have zero b > a consumers, so
        //           the flat plan gives it no step),
        //   outer:  Σ_a Σ_{b>a} (|I(b)|−1)  (halved pair set).
        // Target b (ascending id, index i) is visited by exactly the i
        // sources before it, so outer = Σ_i i·(|I(b_i)|−1). On the fixture
        // (Σ(d−1)=11, n=9, last target degree 2) that is 90 + 25 = 115,
        // down from the full-square 99 + 55.
        let g = paper_fig1a();
        let (_, r) = psum_simrank_with_report(&g, &SimRankOptions::default().with_iterations(1));
        let targets = g.nodes_with_in_edges();
        let inner: u64 = targets[..targets.len() - 1]
            .iter()
            .map(|&t| 9 * (g.in_degree(t) as u64 - 1))
            .sum();
        let outer: u64 = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| i as u64 * (g.in_degree(t) as u64 - 1))
            .sum();
        assert_eq!(inner, 90);
        assert_eq!(outer, 25);
        assert_eq!(r.adds, inner + outer);
    }

    #[test]
    fn peak_memory_is_one_buffer_per_worker() {
        // Per worker the engine holds one partial-sum buffer (n = 9), an
        // n × 8 staging block, one depth level of 8 outer lanes and 8
        // coefficients per distinct in-degree (2, 3 and 4 on the fixture):
        // (9 + 72 + 8 + 24) · 8 bytes.
        let g = paper_fig1a();
        let opts = SimRankOptions::default().with_iterations(1).with_threads(1);
        let (_, r) = psum_simrank_with_report(&g, &opts);
        assert_eq!(r.peak_intermediate_bytes, 904);
        assert_eq!(r.workers, 1);
        // Two workers double the live state (5 memoized sources split 3+2).
        let (_, r2) = psum_simrank_with_report(&g, &opts.with_threads(2));
        assert_eq!(r2.peak_intermediate_bytes, 2 * 904);
        assert_eq!(r2.workers, 2);
        // ... but never the operation count: shards merge exactly.
        assert_eq!(r2.adds, r.adds);
    }
}
