//! Monte-Carlo SimRank estimation (Fogaras & Rácz, TKDE'07).
//!
//! The probabilistic interpretation of SimRank: `s(a, b) = E[C^{τ(a,b)}]`
//! where `τ` is the first meeting time of two independent backward random
//! surfers started at `a` and `b` (each stepping to a uniformly random
//! in-neighbor, stopping at in-degree-0 vertices). The paper cites this as
//! the scalable-but-probabilistic alternative; it is included here both as
//! a related-work implementation and as a statistical cross-check of the
//! deterministic algorithms.
//!
//! # Parallel sampling
//!
//! [`Fingerprints::sample`] is embarrassingly parallel once every walk owns
//! an independent RNG stream: each walk is seeded by a SplitMix64 mix of
//! `(user_seed, node, round)`, so its trajectory depends only on those
//! three values — never on which worker runs it or in what order. Node
//! bands shard across the persistent [`simrank_par::WorkerPool`] and the
//! resulting fingerprint table is **bit-identical at every thread count**
//! (a property test and the CI determinism matrix enforce this). The
//! walk-step counts each worker accumulates merge exactly, so
//! [`Report::adds`] is thread-invariant too.

use crate::instrument::Report;
use crate::options::SimRankOptions;
use crate::query::{check_source, QueryEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simrank_graph::{DiGraph, NodeId};
use simrank_par as par;

/// Estimates `s(a, b)` from `samples` coupled backward walks of length at
/// most `walk_len`.
///
/// # Panics
///
/// If `samples` is zero (the estimate would be `0/0`).
pub fn mc_simrank_pair(
    g: &DiGraph,
    a: NodeId,
    b: NodeId,
    opts: &SimRankOptions,
    walk_len: u32,
    samples: u32,
    seed: u64,
) -> f64 {
    assert!(samples > 0, "samples must be at least 1, got {samples}");
    if a == b {
        return 1.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let c = opts.damping;
    let mut acc = 0.0f64;
    for _ in 0..samples {
        let mut x = a;
        let mut y = b;
        for t in 1..=walk_len {
            let ix = g.in_neighbors(x);
            let iy = g.in_neighbors(y);
            if ix.is_empty() || iy.is_empty() {
                break;
            }
            x = ix[rng.gen_range(0..ix.len())];
            y = iy[rng.gen_range(0..iy.len())];
            if x == y {
                acc += c.powi(t as i32);
                break;
            }
        }
    }
    acc / samples as f64
}

/// Sentinel recorded for a stopped walk (the walk hit an in-degree-0
/// vertex and rests there for the remaining steps).
pub const NONE: NodeId = NodeId::MAX;

/// SplitMix64 finalizer: a cheap bijective avalanche mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic per-walk seed: a SplitMix64 chain over
/// `(user_seed, node, round)`. Giving every walk its own stream is what
/// lets the sampler shard node bands across workers with bit-identical
/// fingerprints at any thread count.
fn walk_seed(seed: u64, v: NodeId, round: u32) -> u64 {
    splitmix64(splitmix64(seed ^ (v as u64).rotate_left(32)) ^ round as u64)
}

/// Precomputed walk *fingerprints*: for every vertex and sampled world
/// (round), the full trajectory of its backward walk, together with the
/// damping factor every estimate uses and the vertex count — the
/// Monte-Carlo member of the [`QueryEngine`] family.
///
/// Walks are stored node-major — [`Fingerprints::walk`] is one contiguous
/// slice — so sampling hands each worker a disjoint band of vertices and
/// pair estimation reads two contiguous blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprints {
    walk_len: u32,
    rounds: u32,
    damping: f64,
    order: usize,
    /// `walks[(v·rounds + r)·walk_len + t]` = vertex where `v`'s walk in
    /// world `r` sits after step `t + 1`, or [`NONE`] once stopped.
    walks: Vec<NodeId>,
}

impl Fingerprints {
    /// Samples `rounds` coupled worlds of backward walks of length
    /// `walk_len` on `opts.threads` workers, recording `opts.damping`
    /// for every later estimate.
    ///
    /// Within one world every vertex walks once — the Fogaras–Rácz
    /// fingerprint table that makes single-source queries `O(walk_len)`
    /// per candidate instead of `O(samples · walk_len)`. The table is
    /// bit-identical for every `threads` value. In the [`Report`],
    /// `adds` counts random walk steps taken (merged exactly across
    /// workers — thread-invariant), `iterations` the rounds, and
    /// `workers` the pool width.
    ///
    /// # Panics
    ///
    /// If `opts.damping` is outside `(0, 1)`, or if `rounds` is zero
    /// (every estimate would be `0/0`).
    pub fn sample(
        g: &DiGraph,
        walk_len: u32,
        rounds: u32,
        seed: u64,
        opts: &SimRankOptions,
    ) -> (Fingerprints, Report) {
        let damping = opts.damping;
        assert!(
            damping > 0.0 && damping < 1.0,
            "damping must lie in (0, 1), got {damping}"
        );
        assert!(rounds > 0, "rounds must be at least 1, got {rounds}");
        let n = g.node_count();
        let wl = walk_len as usize;
        let stride = rounds as usize * wl;
        let mut walks = vec![NONE; n * stride];
        // 0 until a pool actually runs: degenerate inputs (no nodes or
        // zero-length walks) never route through the executor.
        let mut workers = 0;
        let mut steps = 0u64;
        if stride > 0 && n > 0 {
            workers = par::effective_workers(opts.threads, n);
            // Disjoint contiguous bands of the node-major table, one per
            // worker.
            let node_blocks = par::blocks(n, workers);
            let mut items: Vec<(std::ops::Range<usize>, &mut [NodeId])> =
                Vec::with_capacity(node_blocks.len());
            let mut rest: &mut [NodeId] = &mut walks;
            for block in &node_blocks {
                let (band, tail) = rest.split_at_mut(block.len() * stride);
                items.push((block.clone(), band));
                rest = tail;
            }
            steps = par::WorkerPool::scoped(workers, |pool| {
                pool.sweep(items, |(nodes, band), counter| {
                    let base = nodes.start;
                    for v in nodes {
                        for r in 0..rounds {
                            let off = ((v - base) * rounds as usize + r as usize) * wl;
                            let out = &mut band[off..off + wl];
                            let mut rng = StdRng::seed_from_u64(walk_seed(seed, v as NodeId, r));
                            let mut at = v as NodeId;
                            for slot in out.iter_mut() {
                                let ins = g.in_neighbors(at);
                                if ins.is_empty() {
                                    break;
                                }
                                at = ins[rng.gen_range(0..ins.len())];
                                *slot = at;
                                counter.add(1);
                            }
                        }
                    }
                })
            });
        }
        let report = Report {
            iterations: rounds,
            adds: steps,
            workers,
            ..Default::default()
        };
        (
            Fingerprints {
                walk_len,
                rounds,
                damping,
                order: n,
                walks,
            },
            report,
        )
    }

    /// Walk length every trajectory was sampled to.
    pub fn walk_len(&self) -> u32 {
        self.walk_len
    }

    /// Number of sampled worlds.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The recorded trajectory of `v`'s walk in world `r`: entry `t` is
    /// the vertex after step `t + 1`, or [`NONE`] once the walk stopped.
    pub fn walk(&self, v: NodeId, r: u32) -> &[NodeId] {
        let wl = self.walk_len as usize;
        let off = (v as usize * self.rounds as usize + r as usize) * wl;
        &self.walks[off..off + wl]
    }

    /// Estimates `s(a, b)` from the precomputed worlds.
    pub fn estimate(&self, a: NodeId, b: NodeId) -> f64 {
        let c = self.damping;
        if a == b {
            return 1.0;
        }
        let mut acc = 0.0;
        for r in 0..self.rounds {
            let wa = self.walk(a, r);
            let wb = self.walk(b, r);
            for (t, (&x, &y)) in wa.iter().zip(wb).enumerate() {
                if x == NONE || y == NONE {
                    break;
                }
                if x == y {
                    acc += c.powi(t as i32 + 1);
                    break;
                }
            }
        }
        acc / self.rounds as f64
    }
}

impl QueryEngine for Fingerprints {
    fn order(&self) -> usize {
        self.order
    }

    /// Single-source estimates `s(a, ·)` for all vertices.
    ///
    /// The source walk for each world is decoded **once** and streamed
    /// against every candidate — not re-fetched per target the way a naive
    /// `(0..n).map(|b| estimate(a, b))` loop does — while keeping the
    /// per-entry summation order (worlds ascending) identical, so the
    /// results match the pairwise estimator bit-for-bit.
    fn single_source(&self, a: NodeId) -> Vec<f64> {
        check_source(a as usize, self.order);
        let c = self.damping;
        // Hoisted source-side decode: one slice per world, trimmed to its
        // live prefix (everything from the first stop sentinel on can
        // never meet), computed once instead of once per (target, world).
        // Worlds whose source walk never started drop out entirely.
        let src: Vec<(u32, &[NodeId])> = (0..self.rounds)
            .filter_map(|r| {
                let wa = self.walk(a, r);
                let live = wa.iter().position(|&x| x == NONE).unwrap_or(wa.len());
                (live > 0).then(|| (r, &wa[..live]))
            })
            .collect();
        // Targets stay in the outer loop (matching `estimate`'s memory
        // order over the node-major table): each target's worlds are one
        // contiguous block, and per target the surviving worlds ascend —
        // the same addition sequence as `estimate`, hence bit-identical.
        let mut out = vec![0.0; self.order];
        for (b, acc) in out.iter_mut().enumerate() {
            if b as NodeId == a {
                *acc = 1.0;
                continue;
            }
            let mut sum = 0.0;
            for &(r, wa) in &src {
                let wb = self.walk(b as NodeId, r);
                for (t, (&x, &y)) in wa.iter().zip(wb).enumerate() {
                    if y == NONE {
                        break;
                    }
                    if x == y {
                        sum += c.powi(t as i32 + 1);
                        break;
                    }
                }
            }
            *acc = sum / self.rounds as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_simrank;
    use simrank_graph::fixtures::paper_fig1a;
    use simrank_graph::DiGraph;
    use std::num::NonZeroUsize;

    fn nz(t: usize) -> NonZeroUsize {
        NonZeroUsize::new(t).unwrap()
    }

    /// Samples with the default options (`C = 0.6`).
    fn sample(g: &DiGraph, walk_len: u32, rounds: u32, seed: u64) -> Fingerprints {
        Fingerprints::sample(g, walk_len, rounds, seed, &SimRankOptions::default()).0
    }

    /// The default options on exactly `t` requested workers.
    fn threads(t: usize) -> SimRankOptions {
        SimRankOptions::default().with_threads(t)
    }

    #[test]
    fn deterministic_pair_on_shared_parent() {
        // 0 -> 1, 0 -> 2: both surfers step to 0 and meet at t = 1 with
        // probability 1, so the estimate is exactly C.
        let g = DiGraph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let opts = SimRankOptions::default().with_damping(0.6);
        let est = mc_simrank_pair(&g, 1, 2, &opts, 5, 200, 42);
        assert!((est - 0.6).abs() < 1e-12);
    }

    #[test]
    fn self_similarity_is_one() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default();
        assert_eq!(mc_simrank_pair(&g, 3, 3, &opts, 5, 10, 1), 1.0);
        let fp = sample(&g, 5, 10, 1);
        assert_eq!(fp.estimate(3, 3), 1.0);
    }

    #[test]
    fn estimates_converge_to_exact_simrank() {
        // Note: the first-meeting-time model slightly *underestimates*
        // iterative SimRank on general graphs (meetings after divergence
        // are discarded), but on the fixture the dominant mass is the first
        // meeting — statistical agreement within a loose tolerance.
        let g = paper_fig1a();
        let opts = SimRankOptions::default()
            .with_damping(0.6)
            .with_iterations(15);
        let exact = naive_simrank(&g, &opts).0;
        let est = mc_simrank_pair(&g, 0, 2, &opts, 15, 30_000, 7);
        let want = exact.get(0, 2);
        assert!(
            (est - want).abs() < 0.05,
            "MC estimate {est} too far from exact {want}"
        );
    }

    #[test]
    fn fingerprints_match_pairwise_estimator_statistically() {
        let g = paper_fig1a();
        let fp = sample(&g, 10, 20_000, 3);
        let opts = SimRankOptions::default();
        let direct = mc_simrank_pair(&g, 0, 2, &opts, 10, 20_000, 9);
        let coupled = fp.estimate(0, 2);
        assert!((direct - coupled).abs() < 0.05, "{direct} vs {coupled}");
    }

    #[test]
    fn single_source_shape() {
        let g = paper_fig1a();
        let fp = sample(&g, 8, 100, 5);
        let row = fp.single_source(0);
        assert_eq!(row.len(), 9);
        assert_eq!(row[0], 1.0);
        assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn single_source_matches_pairwise_estimator_bitwise() {
        // The hoisted source-walk decode must not change a single bit: the
        // per-entry summation order (worlds ascending) is identical to the
        // pairwise estimator's.
        let g = paper_fig1a();
        let fp = sample(&g, 9, 300, 17);
        for a in 0..9 {
            let fast = fp.single_source(a);
            for b in 0..9u32 {
                assert_eq!(fast[b as usize], fp.estimate(a, b), "({a},{b})");
            }
        }
    }

    #[test]
    fn batched_single_source_is_thread_invariant() {
        let g = paper_fig1a();
        let engine = sample(&g, 8, 120, 5);
        let sources: Vec<NodeId> = vec![0, 2, 3, 5, 7, 8];
        let base = engine.single_source_batch(&sources, nz(1));
        // Sequential oracle: the batch is exactly the per-source queries.
        for (row, &a) in base.iter().zip(&sources) {
            assert_eq!(row, &engine.single_source(a));
        }
        for t in [2usize, 3, 4, 8] {
            let batch = engine.single_source_batch(&sources, nz(t));
            assert_eq!(batch, base, "threads = {t}");
        }
        // Degenerate shapes.
        assert!(engine.single_source_batch(&[], nz(4)).is_empty());
    }

    #[test]
    fn top_k_batch_is_deterministic_and_ranked() {
        let g = paper_fig1a();
        let engine = sample(&g, 8, 200, 11);
        let sources: Vec<NodeId> = vec![1, 4, 6];
        let base = engine.top_k_batch(&sources, 3, nz(1));
        for (ranked, &a) in base.iter().zip(&sources) {
            assert!(ranked.len() <= 3);
            assert!(ranked.iter().all(|&(v, _)| v != a), "source excluded");
            for w in ranked.windows(2) {
                assert!(
                    w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                    "descending score, ties by ascending id"
                );
            }
            // Agrees with the single-source scores it is derived from.
            let scores = engine.single_source(a);
            for &(v, s) in ranked {
                assert_eq!(s, scores[v as usize]);
            }
        }
        for t in [2usize, 4] {
            assert_eq!(
                engine.top_k_batch(&sources, 3, nz(t)),
                base,
                "threads = {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "damping must lie in (0, 1)")]
    fn query_engine_rejects_bad_damping() {
        let g = paper_fig1a();
        let opts = SimRankOptions {
            damping: 1.0,
            ..Default::default()
        };
        let _ = Fingerprints::sample(&g, 4, 10, 1, &opts);
    }

    #[test]
    #[should_panic(expected = "rounds must be at least 1, got 0")]
    fn sampling_rejects_zero_rounds() {
        let _ = sample(&paper_fig1a(), 4, 0, 1);
    }

    #[test]
    #[should_panic(expected = "samples must be at least 1, got 0")]
    fn pair_estimate_rejects_zero_samples() {
        let g = paper_fig1a();
        let _ = mc_simrank_pair(&g, 0, 2, &SimRankOptions::default(), 5, 0, 1);
    }

    #[test]
    fn estimates_are_reproducible() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default();
        let a = mc_simrank_pair(&g, 1, 3, &opts, 10, 500, 11);
        let b = mc_simrank_pair(&g, 1, 3, &opts, 10, 500, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn walks_stop_at_indegree_zero_and_stay_stopped() {
        // 0 -> 1 -> ... every walk from 1 deterministically visits 0 then
        // stops; vertex 0 has no in-edges so its walks never start.
        let g = DiGraph::from_edges(3, [(0, 1)]).unwrap();
        let fp = sample(&g, 4, 3, 9);
        for r in 0..3 {
            assert_eq!(fp.walk(1, r), &[0, NONE, NONE, NONE]);
            assert_eq!(fp.walk(0, r), &[NONE; 4]);
        }
    }

    #[test]
    fn parallel_sampling_is_bit_identical_and_counts_merge_exactly() {
        // The per-walk seeding contract: the fingerprint table — and the
        // merged walk-step count in `Report::adds` — are identical at
        // every worker count, because each walk's RNG stream depends only
        // on (seed, node, round) and each step counts exactly once no
        // matter which worker shard takes it.
        let g = paper_fig1a();
        let (fp1, r1) = Fingerprints::sample(&g, 7, 40, 123, &threads(1));
        assert_eq!(r1.workers, 1);
        for t in [2usize, 3, 4, 8] {
            let (fpt, rt) = Fingerprints::sample(&g, 7, 40, 123, &threads(t));
            assert_eq!(fp1, fpt, "fingerprints diverged at threads = {t}");
            assert_eq!(r1.adds, rt.adds, "merged step counts must be exact");
            assert!(rt.workers >= 1 && rt.workers <= t);
        }
        assert!(r1.adds > 0, "fixture walks must actually step");
    }

    #[test]
    fn degenerate_sampling_reports_no_workers() {
        // No walks means no pool: `Report::workers = 0` is the documented
        // "did not route through the executor" marker.
        let g = paper_fig1a();
        let (fp, r) = Fingerprints::sample(&g, 0, 5, 1, &threads(4));
        assert_eq!(r.workers, 0);
        assert_eq!(r.adds, 0);
        assert_eq!(fp.walk_len(), 0);
    }

    #[test]
    fn changing_seed_changes_fingerprints() {
        let g = paper_fig1a();
        let a = sample(&g, 8, 16, 1);
        let b = sample(&g, 8, 16, 2);
        assert_ne!(a, b, "the user seed must reach every walk");
    }

    /// The vertex count comes from the sampled graph, so a source past it
    /// panics with the range message rather than a slice-index error.
    #[test]
    #[should_panic(expected = "query vertex 9 out of range for order 9")]
    fn fingerprints_order_is_the_graph_order() {
        let g = paper_fig1a();
        let fp = sample(&g, 4, 10, 1);
        assert_eq!(fp.order(), g.node_count());
        assert_eq!(fp.single_source(8).len(), g.node_count());
        let _ = fp.single_source(g.node_count() as NodeId);
    }
}
