//! Edge-case integration tests with analytically known SimRank values.
//!
//! Graph families where the SimRank fixed point has a closed form make
//! excellent end-to-end oracles: any algebra or indexing slip in the
//! partial-sums machinery shows up as a wrong constant, not a vague drift.

use simrank::algo::{dsr, naive, oip, psum, SharingPlan, SimRankOptions};
use simrank::graph::DiGraph;
use simrank::prelude::*;

/// Worker count for the adversarial sweeps: honors the CI determinism
/// matrix (`SIMRANK_TEST_THREADS`) via [`SimRankOptions::default`]; results
/// are identical for every value by the executor's determinism contract.
fn test_opts(k: u32) -> SimRankOptions {
    SimRankOptions::default().with_iterations(k)
}

fn converged(g: &DiGraph, c: f64) -> simrank::algo::SimMatrix {
    oip::oip_simrank(
        g,
        &SimRankOptions::default()
            .with_damping(c)
            .with_iterations(120),
    )
}

/// Star `0 → {1..k}`: every pair of leaves meets at the hub in one step,
/// so `s(leaf_i, leaf_j) = C` exactly, for every k.
#[test]
fn star_graph_leaves_score_c() {
    for k in [2usize, 5, 12] {
        let edges: Vec<(u32, u32)> = (1..=k as u32).map(|v| (0, v)).collect();
        let g = DiGraph::from_edges(k + 1, edges).unwrap();
        let s = converged(&g, 0.7);
        for i in 1..=k {
            for j in (i + 1)..=k {
                assert!((s.get(i, j) - 0.7).abs() < 1e-10, "k={k} pair ({i},{j})");
            }
            assert_eq!(s.get(0, i), 0.0, "hub has no in-neighbors");
        }
    }
}

/// Directed path `0 → 1 → 2 → …`: backward walks are deterministic and
/// never meet from distinct starts, so all off-diagonal scores are zero.
#[test]
fn path_graph_all_zero() {
    let n = 8;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
    let g = DiGraph::from_edges(n, edges).unwrap();
    let s = converged(&g, 0.8);
    for a in 0..n {
        for b in 0..n {
            let want = if a == b { 1.0 } else { 0.0 };
            assert!((s.get(a, b) - want).abs() < 1e-12, "({a},{b})");
        }
    }
}

/// Directed cycle: same argument as the path — rotation distance is
/// invariant under the backward step, so distinct vertices never meet.
#[test]
fn cycle_graph_all_zero() {
    let n = 6;
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
    let g = DiGraph::from_edges(n, edges).unwrap();
    let s = converged(&g, 0.6);
    for a in 0..n {
        for b in 0..n {
            if a != b {
                assert!(s.get(a, b).abs() < 1e-12, "({a},{b})");
            }
        }
    }
}

/// Complete digraph `K_n` (all ordered pairs, no loops): by symmetry the
/// fixed point is a single constant
/// `x = C(n−2) / ((n−1)² − C((n−1)² − (n−2)))`.
#[test]
fn complete_digraph_closed_form() {
    for n in [3usize, 4, 6] {
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let g = DiGraph::from_edges(n, edges).unwrap();
        let c = 0.6;
        let s = converged(&g, c);
        let m = (n - 1) as f64;
        let want = c * (n as f64 - 2.0) / (m * m - c * (m * m - (n as f64 - 2.0)));
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    assert!(
                        (s.get(a, b) - want).abs() < 1e-9,
                        "n={n} ({a},{b}): {} vs {want}",
                        s.get(a, b)
                    );
                }
            }
        }
    }
}

/// Two vertices citing each other: `s` must converge to
/// `x = C·s(j,i)... ` — i.e. `x = C·1·1/(1·1)·s(b,a)`? No: I(a)={b},
/// I(b)={a}, so `s(a,b) = C·s(b,a) = C·s(a,b)` ⇒ `s(a,b) = 0`.
#[test]
fn mutual_citation_is_zero() {
    let g = DiGraph::from_edges(2, [(0, 1), (1, 0)]).unwrap();
    let s = converged(&g, 0.9);
    assert!(s.get(0, 1).abs() < 1e-12);
}

/// Self-loops: a vertex citing itself is its own in-neighbor; the
/// definition still applies and all variants must agree.
#[test]
fn self_loops_consistent_across_variants() {
    let g = DiGraph::from_edges(3, [(0, 0), (0, 1), (0, 2), (1, 2)]).unwrap();
    let opts = SimRankOptions::default().with_iterations(8);
    let a = naive::naive_simrank(&g, &opts).0;
    let b = psum::psum_simrank(&g, &opts);
    let c = oip::oip_simrank(&g, &opts);
    assert!(a.max_abs_diff(&b) < 1e-12);
    assert!(a.max_abs_diff(&c) < 1e-12);
}

/// Single vertex and empty graph degenerate cleanly everywhere.
#[test]
fn degenerate_graphs() {
    let single = DiGraph::from_edges(1, []).unwrap();
    let opts = SimRankOptions::default().with_iterations(4);
    assert_eq!(oip::oip_simrank(&single, &opts).get(0, 0), 1.0);
    assert_eq!(dsr::oip_dsr_simrank(&single, &opts).0.order(), 1);
    let empty = DiGraph::from_edges(0, []).unwrap();
    assert_eq!(oip::oip_simrank(&empty, &opts).order(), 0);
    assert_eq!(psum::psum_simrank(&empty, &opts).order(), 0);
}

/// Graphs that historically break symmetry or indexing assumptions: a
/// vertex that cites itself is its own in-neighbor, dangling sinks have no
/// out-edges, sources have no in-edges, and isolated vertices have neither.
fn adversarial_graphs() -> Vec<(&'static str, DiGraph)> {
    vec![
        (
            "self-loops",
            DiGraph::from_edges(5, [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (3, 0), (3, 3)])
                .unwrap(),
        ),
        (
            // 4 is a dangling sink, 5 is fully isolated.
            "dangling+isolated",
            DiGraph::from_edges(6, [(0, 1), (0, 2), (1, 4), (2, 4), (3, 1)]).unwrap(),
        ),
        (
            // Self-loop on a hub plus an isolated pair and a dangling chain.
            "mixed",
            DiGraph::from_edges(7, [(0, 0), (1, 0), (0, 2), (1, 2), (2, 3), (3, 4)]).unwrap(),
        ),
    ]
}

/// All seven prelude entry points run on every adversarial graph; the three
/// exact conventional algorithms (naive / psum / oip) must agree within
/// 1e-8, everything else must respect the SimRank axioms (symmetry is
/// structural in `SimMatrix`; ranges and diagonals are checked explicitly).
#[test]
fn all_prelude_entry_points_agree_on_adversarial_graphs() {
    for (name, g) in adversarial_graphs() {
        let n = g.node_count();
        let opts = test_opts(10);
        // 1–3: the conventional trio is an exact cross-oracle.
        let by_naive = naive_simrank(&g, &opts).0;
        let by_psum = psum_simrank(&g, &opts);
        let by_oip = oip_simrank(&g, &opts);
        assert!(
            by_naive.max_abs_diff(&by_psum) < 1e-8,
            "{name}: psum vs naive {}",
            by_naive.max_abs_diff(&by_psum)
        );
        assert!(
            by_naive.max_abs_diff(&by_oip) < 1e-8,
            "{name}: oip vs naive {}",
            by_naive.max_abs_diff(&by_oip)
        );
        for a in 0..n {
            assert_eq!(by_oip.get(a, a), 1.0, "{name}: diagonal pinned");
            for b in 0..n {
                let v = by_oip.get(a, b);
                assert!((0.0..=1.0).contains(&v), "{name}: s({a},{b}) = {v}");
            }
        }
        // 4: differential SimRank — exponential model, bounded and with
        // e^{-C} ≤ diagonal ≤ 1.
        let by_dsr = oip_dsr_simrank(&g, &opts).0;
        let floor = (-opts.damping).exp() - 1e-12;
        for a in 0..n {
            let d = by_dsr.get(a, a);
            assert!(
                d >= floor && d <= 1.0 + 1e-12,
                "{name}: dsr diagonal {d} outside [e^-C, 1]"
            );
            for b in 0..n {
                let v = by_dsr.get(a, b);
                assert!(
                    (-1e-12..=1.0 + 1e-12).contains(&v),
                    "{name}: dsr({a},{b}) = {v}"
                );
            }
        }
        // 5: mtx-SR (matrix-form semantics, diagonal not pinned) — bounded
        // and zero wherever structure forbids similarity.
        let by_mtx = mtx_simrank(&g, &opts, None).0;
        for a in 0..n {
            for b in 0..n {
                let v = by_mtx.get(a, b);
                assert!(
                    (-1e-8..=1.0 + 1e-8).contains(&v),
                    "{name}: mtx({a},{b}) = {v}"
                );
            }
        }
        // 6: P-Rank with λ = 1 degenerates to SimRank exactly, self-loops
        // and all.
        let by_prank = prank(
            &g,
            &PRankOptions {
                base: opts,
                lambda: 1.0,
            },
        )
        .0;
        assert!(
            by_prank.max_abs_diff(&by_oip) < 1e-10,
            "{name}: prank(λ=1) vs oip {}",
            by_prank.max_abs_diff(&by_oip)
        );
        // 7: Monte Carlo estimates stay in [0, 1] and vanish where the
        // exact score is structurally zero (isolated / source vertices).
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let est = mc_simrank_pair(&g, a, b, &opts, 8, 200, 42);
                assert!((0.0..=1.0).contains(&est), "{name}: mc({a},{b}) = {est}");
                if g.in_degree(a) == 0 && a != b {
                    assert_eq!(est, 0.0, "{name}: mc must be 0 for in-degree-0 {a}");
                }
            }
        }
    }
}

/// The executor's determinism contract holds on the adversarial graphs
/// end-to-end: `threads = 4` reproduces `threads = 1` bit-for-bit through
/// the public facade.
#[test]
fn adversarial_graphs_are_thread_count_invariant() {
    for (name, g) in adversarial_graphs() {
        let single = test_opts(12).with_threads(1);
        let sharded = single.with_threads(4);
        assert_eq!(
            naive_simrank(&g, &single)
                .0
                .max_abs_diff(&naive_simrank(&g, &sharded).0),
            0.0,
            "{name}: naive"
        );
        assert_eq!(
            psum_simrank(&g, &single).max_abs_diff(&psum_simrank(&g, &sharded)),
            0.0,
            "{name}: psum"
        );
        assert_eq!(
            oip_simrank(&g, &single).max_abs_diff(&oip_simrank(&g, &sharded)),
            0.0,
            "{name}: oip"
        );
        assert_eq!(
            dsr::oip_dsr_simrank(&g, &single)
                .0
                .max_abs_diff(&dsr::oip_dsr_simrank(&g, &sharded).0),
            0.0,
            "{name}: dsr"
        );
        // mtx routes its SVD, matrix products, and triangular
        // densification through the same executor: the self-loop /
        // dangling / isolated structures must not perturb the tournament
        // schedule's determinism.
        assert_eq!(
            mtx_simrank(&g, &single, None)
                .0
                .max_abs_diff(&mtx_simrank(&g, &sharded, None).0),
            0.0,
            "{name}: mtx"
        );
    }
}

/// Duplicate in-neighbor sets (the zero-cost sharing case): thousands of
/// vertices citing the same two hubs must all be pairwise `≈ C`-similar,
/// and OIP must process them with almost no additional work per vertex.
#[test]
fn duplicate_in_sets_share_for_free() {
    let k = 60u32;
    let mut edges = vec![(0u32, 1u32), (1, 0)];
    for v in 2..k {
        edges.push((0, v));
        edges.push((1, v));
    }
    let g = DiGraph::from_edges(k as usize, edges).unwrap();
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_iterations(30);
    let plan = SharingPlan::build(&g, &opts);
    let (s, _) = oip::oip_simrank_with_plan(&g, &plan, &opts);
    // All duplicate-set vertices are equally similar to each other.
    let first = s.get(2, 3);
    for a in 2..k as usize {
        for b in (a + 1)..k as usize {
            assert!((s.get(a, b) - first).abs() < 1e-12);
        }
    }
    // The tree weight collapses: after the first {0,1}-set vertex, each
    // duplicate costs 0 transitions (plus the two hub sets themselves).
    assert!(
        plan.tree_weight <= 4,
        "duplicate sets should make the plan nearly free, weight {}",
        plan.tree_weight
    );
}
