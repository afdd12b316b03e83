//! Edit-script replay gate for dynamic SimRank maintenance.
//!
//! Replays random streams of 1–64 insert/delete deltas through the
//! warm-start paths — [`dynamic::resweep`] seeded from the pre-edit
//! scores and [`SimRankIndex::repair`] seeded from the pre-edit diagonal
//! — and checks every answer against a from-scratch recompute on the
//! mutated graph (`naive` *and* `psum` for the sweep path, a fresh index
//! build for the query path). The sweep path is also checked against the
//! naive warm oracle [`naive_resweep`]. The streams run over both synthetic
//! families the benchmarks use: the BERKSTAN-like site-template model and
//! preferential attachment.
//!
//! Warm and cold runs stop at the same tolerance `ε·(1−C)`, so each is
//! within `C·ε` of the exact fixed point: at `ε = 1e-9` they must agree
//! to `1e-8`. Bit-for-bit equality is asserted where the math allows it —
//! across pool widths (the executor's thread-invariance contract), never
//! between warm and cold (they take different iterates to the same
//! neighborhood).
//!
//! All options here leave the worker count at its default so the CI
//! determinism matrix (`SIMRANK_TEST_THREADS=1/2/4/8`) drives these
//! replays at every pool width; the explicit cross-width test pins the
//! contract even in a single run.

use proptest::prelude::*;
use simrank_core::index::SimRankIndex;
use simrank_core::naive::{naive_resweep, naive_simrank};
use simrank_core::psum::psum_simrank;
use simrank_core::query::QueryEngine;
use simrank_core::{dynamic, SimRankOptions};
use simrank_graph::{gen, DiGraph, EdgeDelta, NodeId};

/// Tight options: at `ε = 1e-9` the warm-start error bound guarantees
/// 1e-8 agreement with any cold recompute of the same fixed point.
fn tight() -> SimRankOptions {
    SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-9)
}

/// A base graph from one of the two stream families the issue names:
/// BERKSTAN-like site templates or preferential attachment.
fn arb_stream_graph() -> impl Strategy<Value = DiGraph> {
    (0u8..2, 12usize..26, 0u64..1024).prop_map(|(family, n, seed)| match family {
        0 => gen::copying_web_graph(gen::CopyingParams::berkstan_like(n), seed),
        _ => gen::preferential_attachment(n, 2, seed),
    })
}

/// A graph plus an edit script of 1–64 deltas. Raw `(kind, u, v)` triples
/// map to inserts, blind removes (often no-ops — `apply_batch` must
/// tolerate them), and removes biased onto edges that actually exist so
/// real deletions — including deletions that isolate a vertex — occur
/// with high probability.
fn arb_graph_and_script() -> impl Strategy<Value = (DiGraph, Vec<EdgeDelta>)> {
    arb_stream_graph().prop_flat_map(|g| {
        let n = g.node_count() as NodeId;
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        let raw = proptest::collection::vec((0u8..3, 0..n, 0..n), 1..=64);
        (
            Just(g),
            raw.prop_map(move |ops| {
                ops.into_iter()
                    .map(|(kind, u, v)| match kind {
                        0 => EdgeDelta::Insert(u, v),
                        1 => EdgeDelta::Remove(u, v),
                        _ if edges.is_empty() => EdgeDelta::Remove(u, v),
                        _ => {
                            let (a, b) = edges[(u as usize * 131 + v as usize) % edges.len()];
                            EdgeDelta::Remove(a, b)
                        }
                    })
                    .collect()
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Oracle test for the warm-start sweep: replaying an edit script and
    /// resweeping from the stale converged scores lands within the
    /// convergence bound of *both* cold `naive` and cold `psum` on the
    /// mutated graph, and the production (psum-SR) resweep agrees with the
    /// naive warm oracle from the same start, in the same sweep count.
    #[test]
    fn dynamic_replay_resweep_matches_cold_recompute(
        (g, script) in arb_graph_and_script(),
    ) {
        let opts = tight();
        let warm = naive_simrank(&g, &opts).0;
        let mut mg = g.clone();
        let summary = mg.apply_batch(&script).expect("in-range script");
        let (re, report) = dynamic::resweep_with_report(&mg, &warm, &opts);
        let (oracle, oracle_report) = naive_resweep(&mg, &warm, &opts);
        prop_assert!(
            re.max_abs_diff(&oracle) < 1e-12,
            "psum warm resweep diverged from the naive warm oracle: {}",
            re.max_abs_diff(&oracle)
        );
        prop_assert_eq!(report.iterations, oracle_report.iterations);
        let cold_naive = naive_simrank(&mg, &opts).0;
        let cold_psum = psum_simrank(&mg, &opts);
        prop_assert!(
            re.max_abs_diff(&cold_naive) < 1e-8,
            "warm resweep diverged from cold naive after {} effective edits",
            summary.inserted + summary.removed
        );
        prop_assert!(
            re.max_abs_diff(&cold_psum) < 1e-8,
            "warm resweep diverged from cold psum"
        );
    }

    /// Oracle test for index repair: after replaying an edit script, every
    /// single-source column of the repaired index agrees with a fresh
    /// from-scratch build on the mutated graph.
    #[test]
    fn dynamic_replay_repair_matches_fresh_index(
        (g, script) in arb_graph_and_script(),
    ) {
        let opts = tight();
        let index = SimRankIndex::build(&g, &opts);
        let (repaired, _) = index.repair(&script, &opts).expect("in-range script");
        let mut mg = g.clone();
        mg.apply_batch(&script).expect("in-range script");
        let fresh = SimRankIndex::build(&mg, &opts);
        for u in 0..mg.node_count() as NodeId {
            let got = repaired.single_source(u);
            let want = fresh.single_source(u);
            for v in 0..mg.node_count() {
                prop_assert!(
                    (got[v] - want[v]).abs() < 1e-8,
                    "repaired s({u},{v}) = {} vs fresh {}",
                    got[v],
                    want[v]
                );
            }
        }
    }

    /// Replaying a script delta-by-delta through the driver equals applying
    /// it as one batch: `apply_batch`'s net-effect semantics guarantee the
    /// same mutated graph, and both converge to the same fixed point.
    #[test]
    fn dynamic_replay_single_steps_match_one_batch(
        (g, script) in arb_graph_and_script(),
    ) {
        let opts = tight();
        let mut stepped = dynamic::DynamicSimRank::new(g.clone(), opts);
        for delta in &script {
            stepped.apply_batch(std::slice::from_ref(delta)).expect("in-range delta");
        }
        let mut batched = dynamic::DynamicSimRank::new(g, opts);
        batched.apply_batch(&script).expect("in-range script");
        prop_assert_eq!(
            stepped.graph().edge_count(),
            batched.graph().edge_count(),
            "net-effect batch produced a different graph than single steps"
        );
        prop_assert!(
            stepped.scores().max_abs_diff(batched.scores()) < 2e-8,
            "stepped and batched replays disagree beyond the convergence bound"
        );
    }
}

/// Deleting every in-edge of a vertex must drive its whole off-diagonal
/// similarity row to zero (the SimRank axiom for in-degree-0 vertices),
/// and the warm resweep must find that from scores where the row was
/// nonzero.
#[test]
fn dynamic_delete_to_isolated_vertex_matches_cold() {
    let opts = tight();
    let g = gen::preferential_attachment(16, 2, 9);
    let victim: NodeId = (0..16)
        .max_by_key(|&v| g.in_degree(v))
        .expect("non-empty graph");
    assert!(g.in_degree(victim) > 0, "victim must start with in-edges");
    let script: Vec<EdgeDelta> = g
        .edges()
        .filter(|&(_, v)| v == victim)
        .map(|(u, v)| EdgeDelta::Remove(u, v))
        .collect();
    let warm = naive_simrank(&g, &opts).0;
    let mut mg = g.clone();
    mg.apply_batch(&script).expect("all victims exist");
    assert_eq!(mg.in_degree(victim), 0);
    let re = dynamic::resweep(&mg, &warm, &opts);
    for b in 0..16 {
        if b != victim as usize {
            assert!(
                re.get(victim as usize, b).abs() < 1e-8,
                "isolated vertex kept similarity s({victim},{b}) = {}",
                re.get(victim as usize, b)
            );
        }
    }
    assert!(re.max_abs_diff(&naive_simrank(&mg, &opts).0) < 1e-8);
}

/// Deleting the *last* in-edge of a vertex is the boundary case where the
/// normalization term `1/(|I(a)|·|I(b)|)` disappears entirely rather than
/// shrinking — both the resweep and the repaired index must agree with
/// cold recomputes across it.
#[test]
fn dynamic_delete_last_in_edge_matches_cold() {
    let opts = tight();
    let g = gen::copying_web_graph(gen::CopyingParams::berkstan_like(20), 4);
    let victim: NodeId = (0..20)
        .find(|&v| g.in_degree(v) == 1)
        .unwrap_or_else(|| (0..20).min_by_key(|&v| g.in_degree(v).max(1)).unwrap());
    let script: Vec<EdgeDelta> = g
        .edges()
        .filter(|&(_, v)| v == victim)
        .map(|(u, v)| EdgeDelta::Remove(u, v))
        .collect();
    assert!(!script.is_empty(), "victim must have an in-edge to delete");
    let warm = naive_simrank(&g, &opts).0;
    let index = SimRankIndex::build(&g, &opts);
    let mut mg = g.clone();
    mg.apply_batch(&script).expect("victims exist");
    assert_eq!(mg.in_degree(victim), 0);
    let re = dynamic::resweep(&mg, &warm, &opts);
    assert!(re.max_abs_diff(&naive_simrank(&mg, &opts).0) < 1e-8);
    let (repaired, _) = index.repair(&script, &opts).expect("valid script");
    let fresh = SimRankIndex::build(&mg, &opts);
    for u in 0..20 {
        let (got, want) = (repaired.single_source(u), fresh.single_source(u));
        for v in 0..20 {
            assert!(
                (got[v as usize] - want[v as usize]).abs() < 1e-8,
                "repaired s({u},{v}) diverged across last-in-edge delete"
            );
        }
    }
}

/// The dynamic paths inherit the executor's determinism contract: the
/// same replay at pool widths 1/2/4/8 yields bit-identical scores, a
/// bit-identical repaired index, and exactly merged op counts.
#[test]
fn dynamic_replay_thread_invariant_across_pool_widths() {
    let g = gen::copying_web_graph(gen::CopyingParams::berkstan_like(24), 11);
    let script = vec![
        EdgeDelta::Insert(3, 17),
        EdgeDelta::Remove(3, 17),
        EdgeDelta::Insert(5, 1),
        EdgeDelta::Insert(20, 8),
        EdgeDelta::Remove(0, 2),
    ];
    let base = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-7)
        .with_threads(1);
    let warm = naive_simrank(&g, &base).0;
    let mut mg = g.clone();
    mg.apply_batch(&script).expect("in-range script");
    let (s1, r1) = dynamic::resweep_with_report(&mg, &warm, &base);
    let index = SimRankIndex::build(&g, &base);
    let (i1, ir1) = index.repair(&script, &base).expect("valid script");
    for t in [2usize, 4, 8] {
        let opts = base.with_threads(t);
        let (st, rt) = dynamic::resweep_with_report(&mg, &warm, &opts);
        assert_eq!(s1.max_abs_diff(&st), 0.0, "resweep diverged at threads={t}");
        assert_eq!(
            r1.adds, rt.adds,
            "resweep op counts diverged at threads={t}"
        );
        assert_eq!(r1.iterations, rt.iterations);
        let (it, irt) = index.repair(&script, &opts).expect("valid");
        assert_eq!(it, i1, "repaired index diverged at threads={t}");
        assert_eq!(
            ir1.adds, irt.adds,
            "repair op counts diverged at threads={t}"
        );
        assert_eq!(ir1.iterations, irt.iterations);
    }
}
