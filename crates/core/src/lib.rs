//! SimRank algorithms from *Towards Efficient SimRank Computation on Large
//! Networks* (Yu, Lin & Zhang — ICDE 2013), plus the baselines it measures
//! against and the extensions it names.
//!
//! # The algorithms
//!
//! | Entry point | Paper name | Complexity / role |
//! |---|---|---|
//! | [`naive::naive_simrank`] | Jeh–Widom iteration | `O(K·d²·n²)`; correctness oracle |
//! | [`psum::psum_simrank`] | `psum-SR` (Lizorkin et al.) | `O(K·d·n²)`; prior state of the art |
//! | [`oip::oip_simrank`] | `OIP-SR` (Algorithm 1) | `O(d·n² + K·d′·n²)`, `d′ ≤ d` |
//! | [`dsr::oip_dsr_simrank`] | `OIP-DSR` (§IV) | exponential-rate convergence |
//! | [`mtx::mtx_simrank`] | `mtx-SR` (Li et al.) | SVD baseline, low-rank graphs |
//! | [`montecarlo`] | Fogaras–Rácz sampling | probabilistic estimator |
//! | [`prank::prank`] | P-Rank extension | in+out-link generalization |
//! | [`index::SimRankIndex`] | SLING-style linearized index | `O(K·(n+m))` single-source / top-k queries |
//!
//! # Quick example
//!
//! ```
//! use simrank_core::{oip::oip_simrank, SimRankOptions};
//! use simrank_graph::fixtures::paper_fig1a;
//!
//! let g = paper_fig1a();
//! let opts = SimRankOptions::default().with_damping(0.6).with_iterations(10);
//! let s = oip_simrank(&g, &opts);
//! // Vertices b and d are cited by overlapping sets {e,f,g,i} / {a,e,f,i}.
//! assert!(s.get(1, 3) > 0.05);
//! ```
//!
//! # Architecture
//!
//! The OIP machinery is split into the precomputed [`plan::SharingPlan`]
//! (`DMST-Reduce`: transition-cost graph, minimum spanning arborescence,
//! Proposition-3 update ops, buffer schedule) and the per-sweep OIP
//! engine that replays it for either the conventional or the
//! differential recurrence; psum-SR is that engine on a flat plan, with
//! every target summed from scratch. Every dense all-pairs sweep — naive,
//! psum (cold, and warm in the [`dynamic`] resweep), the OIP engine and
//! P-Rank — runs under one crate-private iteration driver, which owns the
//! ping-pong grids, the worker pool, the threshold sieve, the diagonal
//! pin, the mirror pass and the stop rule (its clear and its residual
//! touch only the authoritative upper triangle). [`convergence`] carries
//! the iteration-count theory (geometric bound, Proposition 7,
//! Corollaries 1–2 with a from-scratch Lambert-W implementation),
//! [`instrument`] the measurements the paper's figures report (phase
//! timings, addition counts, peak intermediate memory); the plan itself
//! carries the tree weight and `d′`.
//!
//! Each operation has one public form, and that form returns its
//! [`Report`] (phase timings, addition counts, peak intermediate memory)
//! next to its result; callers that only need the scores take `.0`. The
//! exceptions, until the benchmark moves off them, are OIP-SR, psum-SR,
//! the warm resweep and the index build, which still pair a bare form
//! with a `*_with_report` twin.
//!
//! Results come in three representations, one producer each: every
//! all-pairs entry point returns the packed triangle ([`SimMatrix`]),
//! [`mtx::mtx_simrank_low_rank`] returns a low-rank factor handle that
//! never densifies (`O(n·r + r²)` resident), and
//! [`store::ThresholdedSparse::from_store`] prunes any query engine into a
//! thresholded upper-triangle CSR.
//!
//! Graphs are not frozen: [`dynamic`] maintains converged results under
//! edge streams. `DiGraph::apply_batch` patches the CSR adjacency in
//! place, [`dynamic::resweep`] re-converges the all-pairs scores with
//! psum-SR sweeps from the stale grid as a warm start (a fraction of the
//! cold iteration bound), and [`SimRankIndex::repair`] re-solves the
//! diagonal system with the stale diagonal seeding CGLS — all on the same
//! pooled sweeps, with the same bit-for-bit thread-invariance contract
//! (`dynamic_resweep_psum/*` and `dynamic_repair/*` cases in
//! `baselines/op_counts.txt`).
//!
//! Every way to read scores — [`SimRankIndex`], the three score
//! representations, and the Monte-Carlo [`montecarlo::Fingerprints`] —
//! goes through the object-safe [`query::QueryEngine`] trait: one
//! `single_source` / `top_k` / batched vocabulary (with pool-sharded,
//! bit-deterministic batch defaults) that front-ends and the
//! `simrank_serve` crate program against via `Box<dyn QueryEngine>`.
//!
//! # Parallel execution
//!
//! **Every** algorithm runs on the persistent worker-pool executor (the
//! `simrank_par` crate): each run spawns a
//! [`simrank_par::WorkerPool`] once, parks the workers between
//! barrier-synchronized sweeps, and shards `naive` by row band, the OIP
//! engine (`psum` included) and both `prank` direction passes by
//! sharing-tree segment, `montecarlo` fingerprint sampling by node band (with
//! deterministic per-walk seeding), `SharingPlan::build`'s in-neighbor
//! overlap count by column block of near-equal out-list work, and `mtx`
//! by SVD tournament round / matmul row band / packed triangle band — no
//! single-threaded algorithm path remains. Per-worker instrumentation shards merge exactly.
//! Control the worker count with [`SimRankOptions::with_threads`];
//! results are bit-for-bit identical for every thread count.

pub mod convergence;
pub mod dsr;
pub mod dynamic;
mod engine;
mod grid;
pub mod index;
pub mod instrument;
mod iterate;
pub mod matrix;
pub mod matrixform;
pub mod montecarlo;
pub mod mtx;
pub mod naive;
pub mod oip;
pub mod options;
pub mod persist;
pub mod plan;
pub mod prank;
pub mod psum;
pub mod query;
pub mod setops;
pub mod store;
pub mod topk;

pub use dynamic::DynamicSimRank;
pub use index::SimRankIndex;
pub use instrument::Report;
pub use matrix::SimMatrix;
pub use options::SimRankOptions;
pub use plan::SharingPlan;
pub use query::QueryEngine;
pub use store::{LowRankScores, ThresholdedSparse};
