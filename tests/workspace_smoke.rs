//! Facade-level smoke test: `simrank::prelude::*` alone must expose every
//! algorithm entry point named in the `simrank_core` doc table — naive,
//! psum, oip, oip_dsr, mtx, montecarlo, prank — and each must run on the
//! paper's Fig. 1a fixture producing scores in `[0, 1]`.
//!
//! Everything below is reached through the glob import only; a missing
//! re-export is a compile failure, which is the point of the test.

use simrank::prelude::*;

fn fig1a() -> DiGraph {
    simrank::graph::fixtures::paper_fig1a()
}

/// Asserts the Jeh–Widom (Eq. 2) contract: unit diagonal and scores in
/// `[0, 1]`. (Symmetry `s(a,b) == s(b,a)` is enforced structurally by
/// `SimMatrix`'s packed storage, so asserting it here would be vacuous.)
fn assert_eq2_contract(name: &str, s: &SimMatrix) {
    let n = s.order();
    assert_eq!(n, 9, "{name}: Fig. 1a has 9 vertices");
    for a in 0..n {
        assert!(
            (s.get(a, a) - 1.0).abs() < 1e-12,
            "{name}: s({a},{a}) = {} != 1",
            s.get(a, a)
        );
        for b in 0..n {
            let v = s.get(a, b);
            assert!(
                (-1e-12..=1.0 + 1e-12).contains(&v),
                "{name}: s({a},{b}) = {v} outside [0,1]"
            );
        }
    }
}

#[test]
fn naive_entry_point() {
    let s = naive_simrank(&fig1a(), &SimRankOptions::default().with_iterations(8)).0;
    assert_eq2_contract("naive_simrank", &s);
}

#[test]
fn psum_entry_point() {
    let s = psum_simrank(&fig1a(), &SimRankOptions::default().with_iterations(8));
    assert_eq2_contract("psum_simrank", &s);
}

#[test]
fn oip_entry_point() {
    let s = oip_simrank(&fig1a(), &SimRankOptions::default().with_iterations(8));
    assert_eq2_contract("oip_simrank", &s);
}

/// Asserts the *matrix form* (Eq. 3 / Eq. 15) contract followed by the
/// differential and SVD-based variants: scores in `[0, 1]`, diagonals
/// `(1−C)`-damped into `[1−C, 1]` rather than pinned to 1. (Symmetry
/// is structural, as in [`assert_eq2_contract`].)
fn assert_matrix_form_contract(name: &str, s: &SimMatrix, c: f64) {
    let n = s.order();
    assert_eq!(n, 9, "{name}: Fig. 1a has 9 vertices");
    for a in 0..n {
        let diag = s.get(a, a);
        assert!(
            (1.0 - c - 1e-9..=1.0 + 1e-9).contains(&diag),
            "{name}: s({a},{a}) = {diag} outside [1-C, 1]"
        );
        for b in 0..n {
            let v = s.get(a, b);
            assert!(
                (-1e-9..=1.0 + 1e-9).contains(&v),
                "{name}: s({a},{b}) = {v} outside [0,1]"
            );
        }
    }
}

#[test]
fn oip_dsr_entry_point() {
    let s = oip_dsr_simrank(&fig1a(), &SimRankOptions::default().with_iterations(8)).0;
    assert_matrix_form_contract("oip_dsr_simrank", &s, 0.6);
}

#[test]
fn mtx_entry_point() {
    let c = 0.6;
    let s = mtx_simrank(
        &fig1a(),
        &SimRankOptions::default()
            .with_damping(c)
            .with_iterations(20),
        None,
    )
    .0;
    assert_matrix_form_contract("mtx_simrank", &s, c);
}

#[test]
fn montecarlo_entry_points() {
    let g = fig1a();
    let opts = SimRankOptions::default();
    for a in 0..9u32 {
        assert_eq!(mc_simrank_pair(&g, a, a, &opts, 8, 50, 7), 1.0);
    }
    let (fp, _) = Fingerprints::sample(&g, 8, 400, 7, &opts);
    for a in 0..9u32 {
        assert_eq!(fp.estimate(a, a), 1.0, "fingerprint s({a},{a})");
        for b in 0..9u32 {
            let v = fp.estimate(a, b);
            assert!((0.0..=1.0).contains(&v), "montecarlo: s({a},{b}) = {v}");
        }
    }
}

#[test]
fn prank_entry_point() {
    let s = prank(
        &fig1a(),
        &PRankOptions {
            base: SimRankOptions::default().with_iterations(8),
            lambda: 0.5,
        },
    )
    .0;
    assert_eq2_contract("prank", &s);
}

#[test]
fn prelude_supports_the_full_query_pipeline() {
    // One end-to-end pass using only prelude names: build → score → rank.
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 2);
    b.add_edge(1, 2);
    b.add_edge(0, 3);
    b.add_edge(1, 3);
    let g: DiGraph = b.build();
    let s = oip_simrank(&g, &SimRankOptions::default().with_iterations(10));
    let query: NodeId = 2;
    let ids: Vec<NodeId> = s.top_k(query, 2).into_iter().map(|(v, _)| v).collect();
    assert_eq!(ids[0], 3, "vertices 2 and 3 share both in-neighbors");
    let ranked = s.top_k(query, 3);
    assert_eq!(ranked.len(), 3);
    let again: Vec<NodeId> = s.top_k(query, 2).into_iter().map(|(v, _)| v).collect();
    assert!(top_k_overlap(&ids, &again) == 1.0);
    let tau = kendall_tau(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
    assert!((tau - 1.0).abs() < 1e-12);
    let ndcg = ndcg_at(&ids, |v: NodeId| s.get(query as usize, v as usize), 2);
    assert!(
        (ndcg - 1.0).abs() < 1e-12,
        "top-k order is ideal by construction: {ndcg}"
    );
}
