//! End-to-end checks of the paper's headline claims through the facade.

use simrank::algo::{convergence, dsr, oip, psum, SharingPlan, SimRankOptions};
use simrank::datasets;
use simrank::prelude::*;

/// §I / Fig. 1: partial-sums sharing eliminates redundant additions on a
/// graph with overlapping in-neighbor sets.
#[test]
fn claim_partial_sums_sharing_saves_work() {
    let g = datasets::berkstan_like(300, datasets::DEFAULT_SEED).graph;
    let opts = SimRankOptions::default().with_iterations(5);
    let plan = SharingPlan::build(&g, &opts);
    let (s_oip, r_oip) = oip::oip_simrank_with_plan(&g, &plan, &opts);
    let (s_psum, r_psum) = psum::psum_simrank_with_report(&g, &opts);
    assert!(
        s_oip.max_abs_diff(&s_psum) < 1e-10,
        "same model, same scores"
    );
    let ratio = r_oip.share_ratio_vs(&r_psum);
    assert!(ratio > 0.4, "web-graph share ratio too low: {ratio}");
    // Proposition 5: d' ≤ d.
    assert!(plan.d_eff() <= g.avg_in_degree() * 2.0);
}

/// §IV: the differential model reaches tight accuracies in single-digit
/// iterations where the conventional model needs dozens.
#[test]
fn claim_exponential_convergence() {
    let c = 0.8;
    let eps = 1e-5;
    assert!(convergence::geometric_iterations(c, eps) >= 40);
    assert!(convergence::differential_iterations(c, eps) <= 8);
    // And the a-priori estimates agree with the exact bound count to ±2.
    let exact = convergence::differential_iterations(c, eps) as i64;
    let lamw = convergence::lambert_w_estimate(c, eps).expect("in domain") as i64;
    assert!((lamw - exact).abs() <= 2);
}

/// §V Exp-1: on a fixed accuracy target the differential algorithm does
/// strictly less work than conventional OIP, which does less than psum.
#[test]
fn claim_work_ordering_at_fixed_accuracy() {
    let g = datasets::dblp_like(datasets::DblpSnapshot::D02, 48, 5).graph;
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-3);
    let (_, r_dsr) = dsr::oip_dsr_simrank(&g, &opts);
    let (_, r_oip) = oip::oip_simrank_with_report(&g, &opts);
    let (_, r_psum) = psum::psum_simrank_with_report(&g, &opts);
    assert!(
        r_dsr.adds < r_oip.adds,
        "DSR {} vs OIP {}",
        r_dsr.adds,
        r_oip.adds
    );
    assert!(
        r_oip.adds < r_psum.adds,
        "OIP {} vs psum {}",
        r_oip.adds,
        r_psum.adds
    );
}

/// §V Exp-4: the differential model fairly preserves the conventional
/// relative order (NDCG-style check against converged scores).
#[test]
fn claim_relative_order_preserved() {
    let g = datasets::dblp_like(datasets::DblpSnapshot::D02, 48, 9).graph;
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-3);
    let truth = oip::oip_simrank(&g, &opts.with_iterations(60));
    let fast = dsr::oip_dsr_simrank(&g, &opts).0;
    let query = g
        .nodes()
        .max_by_key(|&v| g.in_degree(v))
        .expect("non-empty");
    let ids =
        |s: &SimMatrix| -> Vec<NodeId> { s.top_k(query, 10).into_iter().map(|(v, _)| v).collect() };
    let (truth_ids, fast_ids) = (ids(&truth), ids(&fast));
    let overlap = top_k_overlap(&truth_ids, &fast_ids);
    assert!(overlap >= 0.8, "top-10 overlap {overlap}");
}

/// The facade's prelude is sufficient for the quickstart use case.
#[test]
fn prelude_quickstart_compiles_and_runs() {
    let g = simrank::graph::fixtures::paper_fig1a();
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_iterations(8);
    let conventional = oip_simrank(&g, &opts);
    let differential = oip_dsr_simrank(&g, &opts).0;
    let naive = naive_simrank(&g, &opts).0;
    let memoized = psum_simrank(&g, &opts);
    assert!(conventional.max_abs_diff(&naive) < 1e-10);
    assert!(memoized.max_abs_diff(&naive) < 1e-10);
    // The two models are distinct but correlated.
    assert!(conventional.max_abs_diff(&differential) > 1e-3);
    let tau = kendall_tau(
        &(0..9).map(|b| conventional.get(0, b)).collect::<Vec<_>>(),
        &(0..9).map(|b| differential.get(0, b)).collect::<Vec<_>>(),
    );
    assert!(tau > 0.6, "model correlation too weak: {tau}");
}

/// Graph serialization round-trips through the facade.
#[test]
fn io_round_trip_via_facade() {
    let g = datasets::patent_like(200, 3).graph;
    let mut text = Vec::new();
    simrank::graph::io::write_edge_list(&g, &mut text).expect("writes");
    assert_eq!(
        simrank::graph::io::read_edge_list(&text[..]).expect("parses"),
        g
    );
}
