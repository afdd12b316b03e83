//! `OIP-DSR` — differential SimRank (paper §IV) with partial-sums sharing.
//!
//! The differential model replaces the geometric series of conventional
//! SimRank with the exponential sum
//! `Ŝ = e^{-C} Σ_i (C^i/i!) Qⁱ(Qᵀ)ⁱ` — the unique solution of the matrix
//! ODE `dŜ(t)/dt = Q·Ŝ(t)·Qᵀ, Ŝ(0) = e^{-C}·I` evaluated at `t = C`
//! (Definition 2 / Proposition 6). Iterated via Eq. (15):
//!
//! ```text
//! T_{k+1} = Q·T_k·Qᵀ          T₀ = I
//! Ŝ_{k+1} = Ŝ_k + e^{-C}·C^{k+1}/(k+1)!·T_{k+1}    Ŝ₀ = e^{-C}·I
//! ```
//!
//! The `T` recurrence is the conventional SimRank recurrence without the
//! damping factor, so the whole OIP sharing machinery applies unchanged —
//! that combination is the paper's headline `OIP-DSR` algorithm. The error
//! after `k` iterations is bounded by `C^{k+1}/(k+1)!` (Proposition 7),
//! which is why single-digit iteration counts reach accuracies that take
//! conventional SimRank dozens.

use crate::engine::{self, Mode};
use crate::instrument::Report;
use crate::matrix::SimMatrix;
use crate::options::SimRankOptions;
use crate::plan::SharingPlan;
use simrank_graph::DiGraph;

/// All-pairs *differential* SimRank via OIP sharing (the paper's `OIP-DSR`),
/// with its instrumentation.
pub fn oip_dsr_simrank(g: &DiGraph, opts: &SimRankOptions) -> (SimMatrix, Report) {
    oip_dsr_simrank_with_plan(g, &SharingPlan::build(g, opts), opts)
}

/// Runs `OIP-DSR` for exactly `iterations` rounds, invoking `observer` with
/// `(k, Ŝ_k)` after each accumulation step.
pub fn oip_dsr_simrank_observe(
    g: &DiGraph,
    opts: &SimRankOptions,
    iterations: u32,
    mut observer: impl FnMut(u32, &SimMatrix),
) -> (SimMatrix, Report) {
    let plan = SharingPlan::build(g, opts);
    let (grid, report) = engine::run(g, &plan, opts, Mode::Differential, iterations, |k, s| {
        observer(k, &s.to_sim_matrix())
    });
    (grid.to_sim_matrix(), report)
}

/// Reuses a prebuilt plan across runs.
pub fn oip_dsr_simrank_with_plan(
    g: &DiGraph,
    plan: &SharingPlan,
    opts: &SimRankOptions,
) -> (SimMatrix, Report) {
    let (grid, report) = engine::run(
        g,
        plan,
        opts,
        Mode::Differential,
        opts.differential_iterations(),
        |_, _| {},
    );
    (grid.to_sim_matrix(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence;
    use crate::matrixform::dsr_matrix_reference;
    use simrank_graph::fixtures::paper_fig1a;
    use simrank_graph::gen;

    #[test]
    fn matches_matrix_reference_on_fixture() {
        let g = paper_fig1a();
        for k in [1u32, 3, 6] {
            let opts = SimRankOptions::default()
                .with_damping(0.6)
                .with_iterations(k);
            let fast = oip_dsr_simrank(&g, &opts).0;
            let reference = dsr_matrix_reference(&g, 0.6, k);
            let mut worst = 0.0f64;
            for a in 0..9 {
                for b in 0..9 {
                    worst = worst.max((fast.get(a, b) - reference.get(a, b)).abs());
                }
            }
            assert!(worst < 1e-12, "K={k}: {worst}");
        }
    }

    #[test]
    fn matches_matrix_reference_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::gnm(35, 140, seed);
            let opts = SimRankOptions::default()
                .with_damping(0.7)
                .with_iterations(5);
            let fast = oip_dsr_simrank(&g, &opts).0;
            let reference = dsr_matrix_reference(&g, 0.7, 5);
            for a in 0..35 {
                for b in 0..35 {
                    assert!(
                        (fast.get(a, b) - reference.get(a, b)).abs() < 1e-10,
                        "seed {seed} entry ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn proposition7_error_bound_holds() {
        // ‖Ŝ_k − Ŝ_∞‖max ≤ C^{k+1}/(k+1)! — measure against a
        // high-iteration reference.
        let g = paper_fig1a();
        let c = 0.8;
        let reference = oip_dsr_simrank(
            &g,
            &SimRankOptions::default()
                .with_damping(c)
                .with_iterations(30),
        )
        .0;
        for k in 1..8 {
            let opts = SimRankOptions::default().with_damping(c).with_iterations(k);
            let s_k = oip_dsr_simrank(&g, &opts).0;
            let err = s_k.max_abs_diff(&reference);
            let bound = convergence::differential_residual(c, k);
            assert!(err <= bound + 1e-12, "k={k}: err {err} > bound {bound}");
        }
    }

    #[test]
    fn converges_much_faster_than_conventional() {
        // Count iterations to reach eps against converged references.
        let g = gen::coauthor_graph(gen::CoauthorParams::dblp_like(60), 5);
        let c = 0.8;
        let eps = 1e-4;
        let opts = SimRankOptions::default().with_damping(c);

        let conv_ref = crate::oip::oip_simrank(&g, &opts.with_iterations(120));
        let mut conv_iters = 0;
        let _ = crate::oip::oip_simrank_observe(&g, &opts, 120, |k, s| {
            if conv_iters == 0 && s.max_abs_diff(&conv_ref) <= eps {
                conv_iters = k;
            }
        });

        let dsr_ref = oip_dsr_simrank(&g, &opts.with_iterations(40)).0;
        let mut dsr_iters = 0;
        let _ = oip_dsr_simrank_observe(&g, &opts, 40, |k, s| {
            if dsr_iters == 0 && s.max_abs_diff(&dsr_ref) <= eps {
                dsr_iters = k;
            }
        });

        assert!(
            dsr_iters * 3 < conv_iters,
            "differential {dsr_iters} iters should be ≳3× fewer than conventional {conv_iters}"
        );
    }

    #[test]
    fn diagonal_of_sources_is_e_minus_c() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default()
            .with_damping(0.6)
            .with_iterations(8);
        let s = oip_dsr_simrank(&g, &opts).0;
        // f (id 5) has no in-edges: T_k(f,f) = 0 for k ≥ 1, so Ŝ(f,f) = e^{-C}.
        assert!((s.get(5, 5) - (-0.6f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn scores_bounded_by_one() {
        let g = gen::preferential_attachment(50, 3, 2);
        let s = oip_dsr_simrank(&g, &SimRankOptions::default().with_iterations(12)).0;
        for a in 0..50 {
            for b in 0..50 {
                let v = s.get(a, b);
                assert!((-1e-12..=1.0 + 1e-9).contains(&v), "Ŝ({a},{b}) = {v}");
            }
        }
    }

    #[test]
    fn epsilon_resolves_to_few_iterations() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default()
            .with_damping(0.8)
            .with_epsilon(1e-4);
        let (_, r) = oip_dsr_simrank(&g, &opts);
        assert!(
            r.iterations <= 8,
            "differential run took {} iterations",
            r.iterations
        );
    }
}
