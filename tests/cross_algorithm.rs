//! Cross-crate integration: every algorithm variant, one pipeline.

use simrank::algo::{dsr, matrixform, mtx, naive, oip, psum, SimRankOptions};
use simrank::datasets;
use simrank::graph::gen;

/// All conventional-SimRank implementations agree on every simulated
/// dataset family.
#[test]
fn conventional_variants_agree_on_all_dataset_families() {
    let graphs = [
        datasets::berkstan_like(120, 1).graph,
        datasets::patent_like(120, 2).graph,
        datasets::dblp_like(datasets::DblpSnapshot::D02, 60, 3).graph,
        datasets::syn(100, 8, 4).graph,
    ];
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_iterations(6);
    for (i, g) in graphs.iter().enumerate() {
        let reference = naive::naive_simrank(g, &opts).0;
        let via_psum = psum::psum_simrank(g, &opts);
        let via_oip = oip::oip_simrank(g, &opts);
        assert!(
            reference.max_abs_diff(&via_psum) < 1e-10,
            "psum disagrees on family {i}"
        );
        assert!(
            reference.max_abs_diff(&via_oip) < 1e-10,
            "oip disagrees on family {i}"
        );
    }
}

/// Sharing changes cost, never scores: OIP-SR agrees with the
/// no-sharing psum-SR oracle and needs strictly fewer additions.
#[test]
fn ablations_cost_only() {
    let g = datasets::berkstan_like(150, 7).graph;
    let opts = SimRankOptions::default().with_iterations(5);
    let (s_oip, r_oip) = oip::oip_simrank_with_report(&g, &opts);
    let (s_psum, r_psum) = psum::psum_simrank_with_report(&g, &opts);
    assert!(s_oip.max_abs_diff(&s_psum) < 1e-10);
    assert!(
        r_oip.adds < r_psum.adds,
        "sharing must reduce additions: {} vs {}",
        r_oip.adds,
        r_psum.adds
    );
}

/// Differential SimRank through the OIP engine equals the dense Eq. 15
/// reference on a structured graph.
#[test]
fn dsr_pipeline_matches_dense_reference() {
    let g = datasets::patent_like(100, 5).graph;
    for k in [1u32, 4, 8] {
        let opts = SimRankOptions::default()
            .with_damping(0.7)
            .with_iterations(k);
        let fast = dsr::oip_dsr_simrank(&g, &opts).0;
        let reference = matrixform::dsr_matrix_reference(&g, 0.7, k);
        assert!(fast.max_abs_diff(&reference) < 1e-10, "K = {k}");
    }
}

/// Full-rank mtx-SR equals the converged matrix-form solution.
#[test]
fn mtx_pipeline_matches_matrix_form() {
    let g = gen::gnm(30, 110, 11);
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_iterations(30);
    let via_svd = mtx::mtx_simrank(&g, &opts, None).0;
    let reference = matrixform::matrix_form_simrank(&g, 0.6, 30);
    for a in 0..30 {
        for b in 0..30 {
            assert!((via_svd.get(a, b) - reference.get(a, b)).abs() < 1e-7);
        }
    }
}

/// The two SimRank formulations (iterative Eq. 2 vs matrix Eq. 3) have the
/// documented relationship: equal at every entry where neither argument's
/// self-similarity feedback matters at k=1, and ordered (matrix ≤
/// iterative) everywhere.
#[test]
fn formulation_relationship_pinned() {
    let g = simrank::graph::fixtures::paper_fig1a();
    let iterative = matrixform::iterative_form_reference(&g, 0.6, 20);
    let matrix = matrixform::matrix_form_simrank(&g, 0.6, 20);
    for a in 0..9 {
        for b in 0..9 {
            assert!(
                matrix.get(a, b) <= iterative.get(a, b) + 1e-12,
                "matrix form must lower-bound the iterative form at ({a},{b})"
            );
        }
    }
    // Known exact diagonal values.
    assert!((iterative.get(5, 5) - 1.0).abs() < 1e-12);
    assert!((matrix.get(5, 5) - 0.4).abs() < 1e-12);
}

/// Monte-Carlo estimates correlate strongly with exact scores.
#[test]
fn monte_carlo_tracks_exact() {
    use simrank::algo::montecarlo::Fingerprints;
    let g = simrank::graph::fixtures::paper_fig1a();
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_iterations(15);
    let exact = naive::naive_simrank(&g, &opts).0;
    let (fp, _) = Fingerprints::sample(&g, 15, 8_000, 13, &opts);
    let mut exact_v = Vec::new();
    let mut mc_v = Vec::new();
    for a in 0..9u32 {
        for b in (a + 1)..9u32 {
            exact_v.push(exact.get(a as usize, b as usize));
            mc_v.push(fp.estimate(a, b));
        }
    }
    let tau = simrank::eval::kendall_tau(&exact_v, &mc_v);
    assert!(tau > 0.75, "MC/exact rank correlation too weak: {tau}");
}

/// P-Rank interpolates between forward and backward SimRank.
#[test]
fn prank_interpolation() {
    use simrank::algo::prank::{prank, PRankOptions};
    let g = datasets::dblp_like(datasets::DblpSnapshot::D02, 120, 17).graph;
    let base = SimRankOptions::default().with_iterations(5);
    let sr = oip::oip_simrank(&g, &base);
    let pr_in = prank(&g, &PRankOptions { base, lambda: 1.0 }).0;
    assert!(sr.max_abs_diff(&pr_in) < 1e-12);
    // On a symmetric co-authorship graph, in-links equal out-links, so any
    // λ gives the same scores.
    let pr_half = prank(&g, &PRankOptions { base, lambda: 0.5 }).0;
    assert!(sr.max_abs_diff(&pr_half) < 1e-10);
}
