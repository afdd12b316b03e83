//! `OIP-SR` — the paper's Algorithm 1: SimRank with optimal in-neighbor
//! partitioning for inner *and* outer partial-sums sharing.
//!
//! Pipeline: [`SharingPlan::build`] runs `DMST-Reduce` (transition-cost
//! graph + directed MST, §III-A), then each iteration replays the plan —
//! partial sums flow along tree edges via Proposition 3 updates, and the
//! outer sums for every source reuse the same tree via Proposition 4
//! (procedure `OP`, §III-B). Complexity `O(d·n² + K·d′·n²)` with `d′ ≤ d`
//! (Proposition 5).

use crate::engine::{self, Mode};
use crate::instrument::Report;
use crate::matrix::SimMatrix;
use crate::options::SimRankOptions;
use crate::plan::SharingPlan;
use simrank_graph::DiGraph;

/// All-pairs SimRank via OIP partial-sums sharing (the paper's `OIP-SR`).
pub fn oip_simrank(g: &DiGraph, opts: &SimRankOptions) -> SimMatrix {
    oip_simrank_with_report(g, opts).0
}

/// As [`oip_simrank`], also returning instrumentation (phase timings,
/// addition counts, peak memory — the measurements behind Fig. 6a–6d).
/// The tree weight and `d′` live on the plan: build it with
/// [`SharingPlan::build`] and run [`oip_simrank_with_plan`] to read both.
pub fn oip_simrank_with_report(g: &DiGraph, opts: &SimRankOptions) -> (SimMatrix, Report) {
    oip_simrank_with_plan(g, &SharingPlan::build(g, opts), opts)
}

/// Runs `OIP-SR` for exactly `iterations` rounds, invoking `observer` with
/// `(k, S_k)` after each — the hook used by the convergence experiments
/// (Fig. 6e/6f measure the first `k` reaching each accuracy target).
pub fn oip_simrank_observe(
    g: &DiGraph,
    opts: &SimRankOptions,
    iterations: u32,
    mut observer: impl FnMut(u32, &SimMatrix),
) -> (SimMatrix, Report) {
    let plan = SharingPlan::build(g, opts);
    let (grid, report) = engine::run(g, &plan, opts, Mode::Conventional, iterations, |k, s| {
        observer(k, &s.to_sim_matrix())
    });
    (grid.to_sim_matrix(), report)
}

/// Reuses a prebuilt plan (amortizes `DMST-Reduce` across runs, e.g. when
/// sweeping `K` on a fixed graph as Fig. 6a does for BERKSTAN/PATENT).
pub fn oip_simrank_with_plan(
    g: &DiGraph,
    plan: &SharingPlan,
    opts: &SimRankOptions,
) -> (SimMatrix, Report) {
    let (grid, report) = engine::run(
        g,
        plan,
        opts,
        Mode::Conventional,
        opts.conventional_iterations(),
        |_, _| {},
    );
    (grid.to_sim_matrix(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_simrank;
    use crate::psum::psum_simrank_with_report;
    use simrank_graph::fixtures::paper_fig1a;
    use simrank_graph::gen;

    #[test]
    fn matches_naive_on_fixture() {
        let g = paper_fig1a();
        for k in [1u32, 3, 7] {
            let opts = SimRankOptions::default().with_iterations(k);
            let a = naive_simrank(&g, &opts).0;
            let b = oip_simrank(&g, &opts);
            assert!(a.max_abs_diff(&b) < 1e-12, "K={k}: {}", a.max_abs_diff(&b));
        }
    }

    /// Shared plan against flat plan: both run the same engine, so this
    /// checks the sharing tree, not the sweep (naive and `matrixform` are
    /// the engine's independent oracles).
    #[test]
    fn matches_psum_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::gnm(40, 160, seed);
            let opts = SimRankOptions::default().with_iterations(6);
            let (a, _) = psum_simrank_with_report(&g, &opts);
            let b = oip_simrank(&g, &opts);
            assert!(
                a.max_abs_diff(&b) < 1e-10,
                "seed {seed}: {}",
                a.max_abs_diff(&b)
            );
        }
    }

    #[test]
    fn matches_on_structured_graphs() {
        let graphs = [
            gen::copying_web_graph(gen::CopyingParams::berkstan_like(80), 1),
            gen::citation_dag(gen::CitationParams::patent_like(80), 2),
            gen::coauthor_graph(gen::CoauthorParams::dblp_like(80), 3),
            gen::preferential_attachment(80, 3, 4),
        ];
        let opts = SimRankOptions::default().with_iterations(5);
        for (i, g) in graphs.iter().enumerate() {
            let a = naive_simrank(g, &opts).0;
            let b = oip_simrank(g, &opts);
            assert!(
                a.max_abs_diff(&b) < 1e-10,
                "graph {i}: {}",
                a.max_abs_diff(&b)
            );
        }
    }

    #[test]
    fn saves_additions_vs_psum_on_overlapping_graph() {
        // The copying model creates exactly the in-set overlap OIP exploits.
        let g = gen::copying_web_graph(gen::CopyingParams::berkstan_like(150), 7);
        let opts = SimRankOptions::default().with_iterations(5);
        let (_, psum_r) = psum_simrank_with_report(&g, &opts);
        let (_, oip_r) = oip_simrank_with_report(&g, &opts);
        assert!(
            oip_r.adds < psum_r.adds,
            "OIP {} adds should undercut psum {} adds",
            oip_r.adds,
            psum_r.adds
        );
    }

    #[test]
    fn edmonds_and_greedy_agree() {
        let g = gen::gnm(50, 220, 9);
        let opts = SimRankOptions::default().with_iterations(4);
        let a = oip_simrank(&g, &opts);
        let edmonds_plan = crate::plan::build_with_edmonds(&g);
        let (b, _) = oip_simrank_with_plan(&g, &edmonds_plan, &opts);
        assert!(a.max_abs_diff(&b) < 1e-10);
    }

    #[test]
    fn plan_reuse_is_equivalent() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default().with_iterations(4);
        let plan = SharingPlan::build(&g, &opts);
        let (a, _) = oip_simrank_with_plan(&g, &plan, &opts);
        let b = oip_simrank(&g, &opts);
        assert!(a.max_abs_diff(&b) < 1e-15);
    }

    #[test]
    fn handles_edgeless_graph() {
        let g = simrank_graph::DiGraph::from_edges(5, []).unwrap();
        let s = oip_simrank(&g, &SimRankOptions::default().with_iterations(3));
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(s.get(a, b), if a == b { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn epsilon_driven_iteration_count() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default()
            .with_damping(0.6)
            .with_epsilon(1e-3);
        let (_, r) = oip_simrank_with_report(&g, &opts);
        // K = ⌈log_0.6 1e-3⌉ = ⌈13.52⌉ = 14.
        assert_eq!(r.iterations, 14);
    }
}
