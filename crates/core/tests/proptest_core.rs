//! Property tests: all SimRank implementations agree and respect the
//! axioms on arbitrary random graphs.

use proptest::prelude::*;
use simrank_core::{
    convergence,
    dsr::oip_dsr_simrank,
    matrixform,
    montecarlo::Fingerprints,
    mtx::mtx_simrank,
    naive::naive_simrank,
    oip::{oip_simrank, oip_simrank_with_report},
    prank::{prank, PRankOptions},
    psum::{psum_simrank, psum_simrank_with_report},
    setops, QueryEngine, SharingPlan, SimRankOptions,
};
use simrank_graph::{DiGraph, NodeId};
use std::num::NonZeroUsize;

fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (4usize..24).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..(4 * n))
            .prop_map(move |edges| DiGraph::from_edges(n, edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// naive == psum == OIP (inner+outer sharing) on arbitrary graphs.
    #[test]
    fn all_conventional_variants_agree(g in arb_graph(), k in 1u32..6, c in 0.2f64..0.9) {
        let opts = SimRankOptions::default().with_damping(c).with_iterations(k);
        let a = naive_simrank(&g, &opts).0;
        let b = psum_simrank(&g, &opts);
        let d = oip_simrank(&g, &opts);
        prop_assert!(a.max_abs_diff(&b) < 1e-10);
        prop_assert!(a.max_abs_diff(&d) < 1e-10);
    }

    /// Oracle test for the sharing plan at the satellite tolerance:
    /// `naive`, `psum`, and `oip` agree within 1e-8. The literal
    /// `s(a,b) == s(b,a)` identity is enforced *structurally* by
    /// `SimMatrix`'s packed-triangle storage (asserting it through
    /// `get` would be vacuous), so the symmetric semantics are checked
    /// the non-vacuous way: SimRank depends only on graph structure,
    /// never on vertex numbering, so relabeling the vertices must
    /// permute the scores exactly — any hidden order-dependence in the
    /// pair iteration or the sharing plan breaks this.
    #[test]
    fn cross_algorithm_equivalence_and_symmetry(g in arb_graph(), k in 1u32..7, c in 0.2f64..0.9) {
        let opts = SimRankOptions::default().with_damping(c).with_iterations(k);
        let by_naive = naive_simrank(&g, &opts).0;
        let by_psum = psum_simrank(&g, &opts);
        let by_oip = oip_simrank(&g, &opts);
        prop_assert!(by_naive.max_abs_diff(&by_psum) < 1e-8, "psum diverges from naive");
        prop_assert!(by_naive.max_abs_diff(&by_oip) < 1e-8, "oip diverges from naive");
        // Rotate labels: π(v) = v + 1 (mod n).
        let n = g.node_count();
        let rotate = |v: NodeId| ((v as usize + 1) % n) as NodeId;
        let relabeled: Vec<(NodeId, NodeId)> =
            g.edges().map(|(u, v)| (rotate(u), rotate(v))).collect();
        let s_rot = oip_simrank(&DiGraph::from_edges(n, relabeled).unwrap(), &opts);
        for a in 0..n {
            for b in a..n {
                let (ra, rb) = ((a + 1) % n, (b + 1) % n);
                prop_assert!(
                    (s_rot.get(ra, rb) - by_oip.get(a, b)).abs() < 1e-12,
                    "relabeling changed s({a},{b})"
                );
            }
        }
    }

    /// SimRank axioms: s(a,a)=1, 0 ≤ s ≤ 1, rows of in-degree-0 vertices
    /// vanish off-diagonal.
    #[test]
    fn simrank_axioms(g in arb_graph(), k in 1u32..8) {
        let opts = SimRankOptions::default().with_iterations(k);
        let s = oip_simrank(&g, &opts);
        let n = g.node_count();
        for a in 0..n {
            prop_assert!((s.get(a, a) - 1.0).abs() < 1e-12);
            for b in 0..n {
                let v = s.get(a, b);
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v));
                if a != b && g.in_degree(a as NodeId) == 0 {
                    prop_assert!(v.abs() < 1e-12);
                }
            }
        }
    }

    /// Iterates increase monotonically toward the fixed point (Eq. 2 is a
    /// monotone map from S₀ = I on the off-diagonal... in fact entrywise).
    #[test]
    fn iterates_monotone(g in arb_graph(), c in 0.3f64..0.8) {
        let s2 = oip_simrank(&g, &SimRankOptions::default().with_damping(c).with_iterations(2));
        let s4 = oip_simrank(&g, &SimRankOptions::default().with_damping(c).with_iterations(4));
        for a in 0..g.node_count() {
            for b in 0..g.node_count() {
                prop_assert!(s4.get(a, b) + 1e-12 >= s2.get(a, b));
            }
        }
    }

    /// Lizorkin residual bound: ‖S_k − S_ref‖ ≤ C^{k+1} with S_ref deep.
    #[test]
    fn geometric_bound_holds(g in arb_graph(), c in 0.3f64..0.8) {
        let deep = oip_simrank(&g, &SimRankOptions::default().with_damping(c).with_iterations(60));
        for k in [1u32, 3, 5] {
            let s = oip_simrank(&g, &SimRankOptions::default().with_damping(c).with_iterations(k));
            let err = s.max_abs_diff(&deep);
            prop_assert!(err <= convergence::geometric_residual(c, k) + 1e-12);
        }
    }

    /// Proposition 7 residual bound for the differential model.
    #[test]
    fn differential_bound_holds(g in arb_graph(), c in 0.3f64..0.9) {
        let opts = SimRankOptions::default().with_damping(c);
        let deep = oip_dsr_simrank(&g, &opts.with_iterations(25)).0;
        for k in [1u32, 2, 4] {
            let s = oip_dsr_simrank(&g, &opts.with_iterations(k)).0;
            let err = s.max_abs_diff(&deep);
            prop_assert!(err <= convergence::differential_residual(c, k) + 1e-12);
        }
    }

    /// OIP-DSR equals the dense Eq. 15 reference.
    #[test]
    fn dsr_matches_reference(g in arb_graph(), k in 1u32..6, c in 0.3f64..0.9) {
        let opts = SimRankOptions::default().with_damping(c).with_iterations(k);
        let fast = oip_dsr_simrank(&g, &opts).0;
        let reference = matrixform::dsr_matrix_reference(&g, c, k);
        prop_assert!(fast.max_abs_diff(&reference) < 1e-10);
    }

    /// Transition costs are consistent with the materialized difference
    /// lists: |sub| + |add| = |A ⊖ B|.
    #[test]
    fn difference_lists_consistent(
        a in proptest::collection::btree_set(0u32..40, 1..12),
        b in proptest::collection::btree_set(0u32..40, 1..12),
    ) {
        let a: Vec<NodeId> = a.into_iter().collect();
        let b: Vec<NodeId> = b.into_iter().collect();
        let (sub, add) = setops::difference_lists(&a, &b);
        prop_assert_eq!(sub.len() + add.len(), setops::symmetric_difference_size(&a, &b));
        for x in &sub {
            prop_assert!(a.contains(x) && !b.contains(x));
        }
        for x in &add {
            prop_assert!(b.contains(x) && !a.contains(x));
        }
    }

    /// Determinism contract of the block-sharded executor over the
    /// *triangular* sweeps: workers own disjoint weighted row bands of the
    /// upper triangle, every row keeps its ascending-index summation
    /// order, and the mirror post-pass is a pure copy — so `threads = N`
    /// reproduces `threads = 1` **bit-for-bit** (scores *and* merged op
    /// counts) for naive, psum, and OIP.
    #[test]
    fn parallel_matches_single_thread(
        g in arb_graph(),
        k in 1u32..6,
        c in 0.2f64..0.9,
        t in 2usize..9,
    ) {
        let single = SimRankOptions::default()
            .with_damping(c)
            .with_iterations(k)
            .with_threads(1);
        let sharded = single.with_threads(t);
        let runs = [
            (
                naive_simrank(&g, &single),
                naive_simrank(&g, &sharded),
                "naive",
            ),
            (
                psum_simrank_with_report(&g, &single),
                psum_simrank_with_report(&g, &sharded),
                "psum",
            ),
            (
                oip_simrank_with_report(&g, &single),
                oip_simrank_with_report(&g, &sharded),
                "oip",
            ),
        ];
        for ((s1, r1), (st, rt), name) in &runs {
            prop_assert_eq!(s1.max_abs_diff(st), 0.0, "{}: threads={} diverged", name, t);
            prop_assert_eq!(r1.adds, rt.adds, "{}: op-count shards must merge exactly", name);
        }
    }

    /// Determinism contract for P-Rank: both direction passes shard their
    /// sharing-plan segments across the persistent pool, so scores are
    /// bit-for-bit identical and the per-worker counter shards merge to
    /// exactly the single-threaded operation count.
    #[test]
    fn parallel_prank_matches_single_thread(
        g in arb_graph(),
        k in 1u32..5,
        lambda in 0.0f64..1.0,
        t in 2usize..9,
    ) {
        let base = SimRankOptions::default().with_iterations(k);
        let (s1, r1) = prank(&g, &PRankOptions { base: base.with_threads(1), lambda });
        let (st, rt) = prank(&g, &PRankOptions { base: base.with_threads(t), lambda });
        prop_assert_eq!(s1.max_abs_diff(&st), 0.0, "threads={} diverged", t);
        prop_assert_eq!(r1.adds, rt.adds, "merged op counts must equal single-thread counts");
    }

    /// Determinism contract for Monte-Carlo sampling: per-walk seeding
    /// (SplitMix64 of `(seed, node, round)`) makes the fingerprint table —
    /// and the merged walk-step count — bit-identical at every thread
    /// count, and the user seed must actually reach the walks: whenever
    /// the graph offers enough random choice points, changing the seed
    /// changes the table.
    #[test]
    fn parallel_fingerprints_thread_invariant_and_seeded(
        g in arb_graph(),
        seed in 0u64..1_000_000,
    ) {
        let sample = |seed: u64, t: usize| {
            Fingerprints::sample(&g, 6, 16, seed, &SimRankOptions::default().with_threads(t))
        };
        let (fp1, r1) = sample(seed, 1);
        for t in [2usize, 4, 8] {
            let (fpt, rt) = sample(seed, t);
            prop_assert!(fp1 == fpt, "fingerprints diverged at threads={t}");
            prop_assert_eq!(r1.adds, rt.adds, "merged step counts must be exact");
        }
        // Seed sensitivity: every walk starting at a vertex with >= 2
        // in-neighbors makes a real random choice on its very first step,
        // so with >= 3 such vertices and 16 rounds there are >= 48
        // independent draws — two seeds agreeing on all of them is
        // impossible in practice (and the vendored proptest RNG is
        // deterministic, so this cannot flake).
        let branchy = (0..g.node_count())
            .filter(|&v| g.in_neighbors(v as NodeId).len() >= 2)
            .count();
        if branchy >= 3 {
            let (other, _) = sample(seed.wrapping_add(1), 4);
            prop_assert!(fp1 != other, "changing the seed left every fingerprint unchanged");
        }
    }

    /// Determinism contract for batched Monte-Carlo queries: each source
    /// is computed wholly by one worker with the exact sequential
    /// arithmetic, so the batch — and the top-k rankings derived from it —
    /// is bit-identical at every thread count and equals the per-source
    /// sequential queries.
    #[test]
    fn parallel_single_source_batch_thread_invariant(
        g in arb_graph(),
        seed in 0u64..1_000_000,
    ) {
        let nz = |t: usize| NonZeroUsize::new(t).unwrap();
        let n = g.node_count();
        let (engine, _) = Fingerprints::sample(&g, 6, 12, seed, &SimRankOptions::default());
        let sources: Vec<NodeId> = (0..n as NodeId).step_by(2).collect();
        let base = engine.single_source_batch(&sources, nz(1));
        for (row, &a) in base.iter().zip(&sources) {
            prop_assert_eq!(
                row,
                &engine.single_source(a),
                "source {} diverged",
                a
            );
        }
        let ranked1 = engine.top_k_batch(&sources, 5, nz(1));
        for t in [2usize, 4, 8] {
            let batch = engine.single_source_batch(&sources, nz(t));
            prop_assert_eq!(&batch, &base, "batch diverged at threads={}", t);
            let ranked = engine.top_k_batch(&sources, 5, nz(t));
            prop_assert_eq!(&ranked, &ranked1, "top-k diverged at threads={}", t);
        }
    }

    /// Determinism contract for `mtx-SR`, the last algorithm to join the
    /// pooled surface: the Jacobi SVD's tournament rounds rotate disjoint
    /// column pairs, the banded matmuls run the exact sequential per-row
    /// kernel, and the triangular densification writes disjoint packed
    /// rows — so the scores (and the reported pool width) are bit-for-bit
    /// thread-invariant end-to-end.
    #[test]
    fn parallel_mtx_matches_single_thread(
        g in arb_graph(),
        k in 1u32..6,
        c in 0.2f64..0.9,
        t in 2usize..9,
    ) {
        let opts = SimRankOptions::default().with_damping(c).with_iterations(k);
        let (s1, r1) = mtx_simrank(&g, &opts.with_threads(1), None);
        prop_assert_eq!(r1.workers, 1);
        let (st, rt) = mtx_simrank(&g, &opts.with_threads(t), None);
        prop_assert_eq!(s1.max_abs_diff(&st), 0.0, "threads={} diverged", t);
        prop_assert_eq!(rt.workers, t.min(g.node_count()));
        // Truncated factorizations shard the same kernels: the low-rank
        // path must be just as deterministic as the full-rank one.
        let r = (g.node_count() / 2).max(1);
        let (t1, _) = mtx_simrank(&g, &opts.with_threads(1), Some(r));
        let (tt, _) = mtx_simrank(&g, &opts.with_threads(t), Some(r));
        prop_assert_eq!(t1.max_abs_diff(&tt), 0.0, "rank={} threads={} diverged", r, t);
    }

    /// Determinism contract for plan construction: the sharded in-neighbor
    /// overlap count replays the sequential per-column best-edge decision
    /// exactly, so every component of the plan — including the triangular
    /// pruning metadata — is thread-invariant.
    #[test]
    fn parallel_plan_build_thread_invariant(g in arb_graph(), t in 2usize..9) {
        let base = SimRankOptions::default();
        let p1 = SharingPlan::build(&g, &base.with_threads(1));
        let pt = SharingPlan::build(&g, &base.with_threads(t));
        prop_assert_eq!(&p1.targets, &pt.targets);
        prop_assert_eq!(&p1.arb, &pt.arb);
        prop_assert_eq!(&p1.lists, &pt.lists);
        prop_assert_eq!(&p1.outer, &pt.outer);
        prop_assert_eq!(&p1.schedule, &pt.schedule);
        prop_assert_eq!(&p1.segments, &pt.segments);
        prop_assert_eq!(p1.slots, pt.slots);
        prop_assert_eq!(p1.tree_weight, pt.tree_weight);
    }

    /// Lambert-W satisfies its defining identity on a wide domain.
    #[test]
    fn lambert_identity(x in 0.001f64..1000.0) {
        let w = convergence::lambert_w0(x);
        prop_assert!((w * w.exp() - x).abs() < 1e-8 * x.max(1.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Oracle test for the single-source index on arbitrary graphs and
    /// dampings: every query column agrees with the exact dense iterate,
    /// and the solver reports convergence (the CGLS solve must handle the
    /// cycle-heavy graphs this strategy generates — the case plain Jacobi
    /// diverges on).
    #[test]
    fn index_queries_agree_with_naive(g in arb_graph(), c in 0.3f64..0.8) {
        let opts = SimRankOptions::default().with_damping(c).with_epsilon(1e-4);
        let index = simrank_core::index::SimRankIndex::build(&g, &opts);
        prop_assert!(
            index.solver_residual() <= 1e-4 * (1.0 - c) + 1e-12,
            "solver failed to converge: residual {}",
            index.solver_residual()
        );
        let dense = naive_simrank(&g, &opts.with_iterations(30)).0;
        // Both sides truncate the same geometric tail; allow both
        // truncations plus the diagonal-solve tolerance.
        let tol = 2.0 * c.powi(31) / (1.0 - c) + 1e-3;
        for u in 0..g.node_count() {
            let col = index.single_source(u as NodeId);
            for v in 0..g.node_count() {
                prop_assert!(
                    (col[v] - dense.get(u, v)).abs() < tol,
                    "s({},{}): index {} vs naive {} (tol {})",
                    u, v, col[v], dense.get(u, v), tol
                );
            }
        }
    }

    /// Determinism contract for the index engine: construction (CGLS
    /// rounds, op counts, every bit of the diagonal) and batched queries
    /// are thread-invariant, and a persisted index round-trips to an
    /// equal value.
    #[test]
    fn parallel_index_thread_invariant_and_round_trips(
        g in arb_graph(),
        c in 0.3f64..0.8,
        t in 2usize..9,
    ) {
        let opts = SimRankOptions::default().with_damping(c).with_epsilon(1e-4);
        let (base, r1) =
            simrank_core::index::SimRankIndex::build_with_report(&g, &opts.with_threads(1));
        let (other, rt) =
            simrank_core::index::SimRankIndex::build_with_report(&g, &opts.with_threads(t));
        prop_assert_eq!(&other, &base, "index diverged at threads={}", t);
        prop_assert_eq!(r1.iterations, rt.iterations, "round count diverged");
        prop_assert_eq!(r1.adds, rt.adds, "op counts diverged");
        let sources: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
        let nz = |w: usize| NonZeroUsize::new(w).unwrap();
        let singles: Vec<Vec<f64>> = sources.iter().map(|&u| base.single_source(u)).collect();
        prop_assert_eq!(
            base.single_source_batch(&sources, nz(t)),
            singles,
            "batched queries diverged at threads={}",
            t
        );
        prop_assert_eq!(
            base.top_k_batch(&sources, 4, nz(t)),
            base.top_k_batch(&sources, 4, nz(1)),
            "batched top-k diverged at threads={}",
            t
        );
        let mut buf = Vec::new();
        simrank_core::persist::write_index(&base, &mut buf).unwrap();
        prop_assert_eq!(simrank_core::persist::read_index(&buf[..]).unwrap(), base);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Oracle test for the low-rank score store: serving straight from the
    /// `mtx-SR` factors (`get`, whole rows, top-k) reproduces the densified
    /// packed triangle bit-for-bit at full rank.
    #[test]
    fn store_low_rank_pins_densified_mtx(g in arb_graph(), k in 1u32..5, c in 0.3f64..0.8) {
        let opts = SimRankOptions::default().with_damping(c).with_iterations(k);
        let dense = simrank_core::mtx::mtx_simrank(&g, &opts, None).0;
        let lr = simrank_core::mtx::mtx_simrank_low_rank(&g, &opts, None);
        let n = g.node_count();
        prop_assert_eq!(lr.order(), n);
        for a in 0..n {
            let row = lr.single_source(a as NodeId);
            for b in 0..n {
                prop_assert_eq!(
                    lr.get(a, b).to_bits(),
                    dense.get(a, b).to_bits(),
                    "s({},{}) diverged from the densified triangle", a, b
                );
                prop_assert_eq!(row[b].to_bits(), dense.get(a, b).to_bits());
            }
        }
        // Same scores and tie-breaks => bit-identical rankings.
        for q in 0..n.min(4) as NodeId {
            prop_assert_eq!(lr.top_k(q, 5), dense.top_k(q, 5));
        }
        // A truncated factorization still approximates the exact scores.
        let r = (n / 2).max(1);
        let trunc = simrank_core::mtx::mtx_simrank_low_rank(&g, &opts, Some(r));
        prop_assert_eq!(trunc.rank(), r.min(n));
        for (lo, hi, v) in dense.iter_upper() {
            prop_assert!((trunc.get(lo, hi) - v).abs() < 1.0, "s({},{})", lo, hi);
        }
    }

    /// Oracle test for the thresholded-sparse store: at θ = 0 it reproduces
    /// the dense scores exactly on every pair, and at θ > 0 every surviving
    /// entry is exact while every dropped entry was below θ in magnitude.
    #[test]
    fn store_thresholded_zero_theta_matches_dense(
        g in arb_graph(),
        k in 1u32..6,
        c in 0.2f64..0.9,
        theta in 0.0f64..0.05,
    ) {
        use simrank_core::store::ThresholdedSparse;
        let opts = SimRankOptions::default().with_damping(c).with_iterations(k);
        let dense = oip_simrank(&g, &opts);
        let exact = ThresholdedSparse::from_store(&dense, 0.0);
        let lossy = ThresholdedSparse::from_store(&dense, theta);
        let n = g.node_count();
        for a in 0..n {
            for b in 0..n {
                let want = dense.get(a, b);
                prop_assert_eq!(exact.get(a, b).to_bits(), want.to_bits(), "θ=0 s({},{})", a, b);
                let got = lossy.get(a, b);
                if got == 0.0 && want != 0.0 {
                    prop_assert!(want.abs() < theta, "dropped s({},{}) = {}", a, b, want);
                } else {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "kept s({},{})", a, b);
                }
            }
        }
        prop_assert!(lossy.nnz() <= exact.nnz());
        for q in 0..n as NodeId {
            let row = exact.single_source(q);
            let want = dense.single_source(q);
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&row), bits(&want), "θ=0 row {}", q);
            if (q as usize) < 3 {
                prop_assert_eq!(
                    simrank_core::topk::rank_scores(&row, q),
                    simrank_core::topk::rank_scores(&want, q)
                );
            }
        }
    }
}
