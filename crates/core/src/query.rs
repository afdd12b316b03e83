//! The unified query surface: one object-safe [`QueryEngine`] trait over
//! every similarity-serving representation in the workspace.
//!
//! Every score representation in the workspace answers the same four
//! verbs, and this trait is the only way to read a score row or a ranking
//! from one of them:
//!
//! | Method | Shape | Cost |
//! |---|---|---|
//! | [`QueryEngine::single_source`] | `s(u, ·)` as a dense row | backend-dependent |
//! | [`QueryEngine::top_k`] | `k` best `(id, score)` pairs | row + `O(n + k log k)` selection |
//! | [`QueryEngine::single_source_batch`] | one row per source | sources sharded over the [`par::WorkerPool`] |
//! | [`QueryEngine::top_k_batch`] | one ranking per source | ditto |
//!
//! The trait is **object safe**: serving layers (the `simrank_serve`
//! crate's TCP server, the figure experiments) hold a
//! `Box<dyn QueryEngine>` or `&dyn QueryEngine` and never know which
//! family produced the scores. Every implementation keeps the workspace's
//! determinism contract: batched queries run the exact single-query
//! arithmetic per source on one worker, so batches are **bit-for-bit
//! identical** to one-by-one queries at every thread count, and rankings
//! share one comparator ([`topk::rank_order`]: score descending, ties by
//! ascending id, NaN last).
//!
//! # Implementations
//!
//! * [`crate::index::SimRankIndex`] — `O(K·(n+m))` per query, nothing
//!   `n × n` ever.
//! * The stored-score backends ([`SimMatrix`], [`LowRankScores`],
//!   [`ThresholdedSparse`]) — one whole-row pass per query.
//! * [`crate::montecarlo::Fingerprints`] — a sampled walk table that
//!   records its damping factor, `O(rounds · walk_len)` per candidate.
//!
//! # Example
//!
//! ```
//! use simrank_core::query::QueryEngine;
//! use simrank_core::{oip::oip_simrank, SimRankOptions};
//! use simrank_graph::fixtures::paper_fig1a;
//!
//! let g = paper_fig1a();
//! let scores = oip_simrank(&g, &SimRankOptions::default().with_iterations(8));
//! // Any engine behind one trait object.
//! let engine: &dyn QueryEngine = &scores;
//! let row = engine.single_source(1);
//! let top = engine.top_k(1, 3);
//! assert_eq!(top.len(), 3);
//! assert!(row[top[0].0 as usize] >= row[top[1].0 as usize]);
//! ```

use crate::matrix::SimMatrix;
use crate::store::{LowRankScores, ThresholdedSparse};
use crate::topk;
use simrank_graph::NodeId;
use simrank_par as par;
use std::num::NonZeroUsize;

/// Object-safe single-source / top-k query interface over any similarity
/// backend (see the [module docs](self)).
///
/// The two batch verbs have default implementations that shard sources
/// over the shared [`par::WorkerPool`]; each source runs the exact
/// single-query arithmetic on one worker, so results are bit-for-bit
/// identical to sequential queries at every thread count. `Send + Sync`
/// supertraits let serving layers share one engine across connection
/// threads.
pub trait QueryEngine: Send + Sync {
    /// Number of queryable vertices (valid sources are `0..order()`).
    fn order(&self) -> usize;

    /// The full score row `s(u, ·)` (including `s(u, u)`).
    ///
    /// # Panics
    ///
    /// Panics when `u` is not a vertex of the engine (`u >= order()`).
    fn single_source(&self, u: NodeId) -> Vec<f64>;

    /// The `k` vertices most similar to `u` — descending score, ties by
    /// ascending id, `u` itself excluded — derived from
    /// [`QueryEngine::single_source`] through the one shared comparator
    /// ([`topk::rank_order`]), so every engine family ranks identically.
    ///
    /// # Panics
    ///
    /// Panics when `u >= order()`.
    fn top_k(&self, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        topk::top_k_scores(&self.single_source(u), u, k)
    }

    /// Batched [`QueryEngine::single_source`]: one row per source,
    /// sources sharded over the worker pool. Bit-for-bit equal to
    /// querying one by one, at every `threads` value.
    fn single_source_batch(&self, sources: &[NodeId], threads: NonZeroUsize) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); sources.len()];
        shard_sources(sources, threads, &mut out, &|u| self.single_source(u));
        out
    }

    /// Batched [`QueryEngine::top_k`] (same sharding and determinism
    /// contract as [`QueryEngine::single_source_batch`]).
    fn top_k_batch(
        &self,
        sources: &[NodeId],
        k: usize,
        threads: NonZeroUsize,
    ) -> Vec<Vec<(NodeId, f64)>> {
        let mut out: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); sources.len()];
        shard_sources(sources, threads, &mut out, &|u| self.top_k(u, k));
        out
    }
}

/// The one batch kernel behind both default batch methods: splits
/// `sources` into contiguous blocks, hands each worker disjoint output
/// slots, and runs `query` per source — which worker takes which block is
/// scheduling only, so the output is a pure function of `query`.
fn shard_sources<T: Send>(
    sources: &[NodeId],
    threads: NonZeroUsize,
    out: &mut [T],
    query: &(dyn Fn(NodeId) -> T + Sync),
) {
    debug_assert_eq!(out.len(), sources.len());
    let workers = par::effective_workers(threads, sources.len());
    let blocks = par::blocks(sources.len(), workers);
    let mut items = Vec::with_capacity(blocks.len());
    let mut rest: &mut [T] = out;
    for b in &blocks {
        let (chunk, tail) = rest.split_at_mut(b.len());
        rest = tail;
        items.push((b.clone(), chunk));
    }
    par::WorkerPool::scoped(workers, |pool| {
        pool.sweep(items, |(range, chunk), _counter| {
            for (slot, &u) in chunk.iter_mut().zip(&sources[range]) {
                *slot = query(u);
            }
        });
    });
}

/// The range check every engine runs before answering for `u`.
///
/// # Panics
///
/// Panics when `u >= n`.
pub(crate) fn check_source(u: usize, n: usize) {
    assert!(u < n, "query vertex {u} out of range for order {n}");
}

impl QueryEngine for SimMatrix {
    fn order(&self) -> usize {
        SimMatrix::order(self)
    }

    fn single_source(&self, u: NodeId) -> Vec<f64> {
        check_source(u as usize, self.order());
        self.row(u as usize)
    }
}

impl QueryEngine for LowRankScores {
    fn order(&self) -> usize {
        LowRankScores::order(self)
    }

    fn single_source(&self, u: NodeId) -> Vec<f64> {
        check_source(u as usize, self.order());
        (0..self.order()).map(|y| self.get(u as usize, y)).collect()
    }
}

impl QueryEngine for ThresholdedSparse {
    fn order(&self) -> usize {
        ThresholdedSparse::order(self)
    }

    fn single_source(&self, u: NodeId) -> Vec<f64> {
        check_source(u as usize, self.order());
        self.row(u as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SimRankIndex;
    use crate::montecarlo::Fingerprints;
    use crate::options::SimRankOptions;
    use crate::psum::psum_simrank;
    use simrank_graph::fixtures::paper_fig1a;
    use simrank_graph::{gen, DiGraph};

    fn nz(t: usize) -> NonZeroUsize {
        NonZeroUsize::new(t).unwrap()
    }

    /// Every engine family behind one `&dyn QueryEngine`, each agreeing
    /// with its own native query path bit-for-bit.
    #[test]
    fn trait_objects_cover_all_engine_families() {
        let g = paper_fig1a();
        let n = g.node_count();
        let opts = SimRankOptions::default().with_iterations(8);
        let dense = psum_simrank(&g, &opts);
        let index = SimRankIndex::build(&g, &opts.with_epsilon(1e-4));
        let (mc, _) = Fingerprints::sample(&g, 5, 24, 7, &opts);
        let engines: Vec<(&str, &dyn QueryEngine)> =
            vec![("packed", &dense), ("index", &index), ("fingerprints", &mc)];
        for (name, e) in engines {
            assert_eq!(e.order(), n, "{name}");
            let row = e.single_source(1);
            assert_eq!(row.len(), n, "{name}");
            let top = e.top_k(1, 4);
            assert_eq!(top, topk::top_k_scores(&row, 1, 4), "{name}");
            assert!(top.iter().all(|&(v, _)| v != 1), "{name}");
        }
    }

    /// The default batch implementations are bit-for-bit equal to
    /// one-by-one queries at every thread count, for every family.
    #[test]
    fn default_batches_match_singles_at_any_width() {
        let g = gen::gnm(22, 70, 3);
        let n = g.node_count();
        let opts = SimRankOptions::default().with_iterations(6);
        let dense = psum_simrank(&g, &opts);
        let index = SimRankIndex::build(&g, &opts.with_epsilon(1e-4));
        let (mc, _) = Fingerprints::sample(&g, 5, 16, 11, &opts);
        let sources: Vec<NodeId> = (0..n as NodeId).rev().collect();
        for e in [&dense as &dyn QueryEngine, &index, &mc] {
            let singles: Vec<Vec<f64>> = sources.iter().map(|&u| e.single_source(u)).collect();
            let tops: Vec<_> = sources.iter().map(|&u| e.top_k(u, 5)).collect();
            for t in [1usize, 2, 4, 8] {
                assert_eq!(e.single_source_batch(&sources, nz(t)), singles, "t={t}");
                assert_eq!(e.top_k_batch(&sources, 5, nz(t)), tops, "t={t}");
            }
        }
    }

    /// All stored-score backends answer identically through the trait
    /// (θ = 0 keeps everything, full rank reproduces the dense triangle).
    #[test]
    fn store_backends_agree_through_the_trait() {
        let g = gen::coauthor_graph(gen::CoauthorParams::dblp_like(30), 2);
        let opts = SimRankOptions::default().with_iterations(8);
        let packed = psum_simrank(&g, &opts);
        let sparse = ThresholdedSparse::from_store(&packed, 0.0);
        let low_rank = crate::mtx::mtx_simrank_low_rank(&g, &opts, None);
        let dense_mtx = crate::mtx::mtx_simrank(&g, &opts, None).0;
        for u in [0 as NodeId, 7, 29] {
            let want = QueryEngine::single_source(&packed, u);
            assert_eq!(QueryEngine::single_source(&sparse, u), want);
            assert_eq!(low_rank.single_source(u), dense_mtx.single_source(u));
            let want_top = QueryEngine::top_k(&packed, u, 6);
            assert_eq!(QueryEngine::top_k(&sparse, u, 6), want_top);
            assert_eq!(low_rank.top_k(u, 6), dense_mtx.top_k(u, 6));
        }
    }

    /// The tie-ordering regression: every engine family pins the same
    /// (score desc, id asc) order through the one shared comparator, even
    /// on graphs engineered so distinct vertices tie exactly.
    #[test]
    fn tie_ordering_is_identical_across_engine_families() {
        // Vertices 1..=4 all have in-neighborhood {0}, so by symmetry
        // s(a, b) is exactly equal for every pair drawn from {1,2,3,4} —
        // a dense tie plateau in every engine family.
        let g = DiGraph::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5)]).unwrap();
        let opts = SimRankOptions::default().with_epsilon(1e-6);
        let dense = psum_simrank(&g, &opts.with_iterations(20));
        let index = SimRankIndex::build(&g, &opts);
        let (mc, _) = Fingerprints::sample(&g, 6, 32, 3, &opts);
        for e in [&dense as &dyn QueryEngine, &index, &mc] {
            let top = e.top_k(1, 5);
            let tied: Vec<NodeId> = top
                .iter()
                .filter(|&&(_, s)| (s - top[0].1).abs() == 0.0)
                .map(|&(v, _)| v)
                .collect();
            // The plateau {2, 3, 4} must come out in ascending-id order.
            assert!(tied.len() >= 2, "expected an exact tie plateau");
            let mut sorted = tied.clone();
            sorted.sort_unstable();
            assert_eq!(tied, sorted, "ties must break by ascending id");
        }
        // And the full rankings agree with the topk functional surface.
        let row = QueryEngine::single_source(&dense, 1);
        assert_eq!(
            QueryEngine::top_k(&dense, 1, 5),
            topk::top_k_scores(&row, 1, 5)
        );
        assert_eq!(
            topk::rank_scores(&row, 1)[..5],
            topk::top_k_scores(&row, 1, 5)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn store_engine_rejects_out_of_range_sources() {
        let g = paper_fig1a();
        let dense = psum_simrank(&g, &SimRankOptions::default().with_iterations(3));
        let _ = QueryEngine::single_source(&dense, 99);
    }

    #[test]
    fn empty_batches_are_empty_at_any_width() {
        let g = paper_fig1a();
        let dense = psum_simrank(&g, &SimRankOptions::default().with_iterations(3));
        assert!(QueryEngine::single_source_batch(&dense, &[], nz(4)).is_empty());
        assert!(QueryEngine::top_k_batch(&dense, &[], 3, nz(4)).is_empty());
    }
}
