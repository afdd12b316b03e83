//! Facade crate for the SimRank workspace: re-exports the public API of
//! every member crate under one roof, so downstream users can depend on
//! `simrank` alone.
//!
//! This workspace reproduces *Towards Efficient SimRank Computation on
//! Large Networks* (Weiren Yu, Xuemin Lin, Wenjie Zhang — ICDE 2013):
//!
//! * [`graph`] — directed-graph substrate (CSR storage, generators, I/O).
//! * [`linalg`] — dense/sparse matrices and Jacobi SVD.
//! * [`par`] — the persistent worker-pool executor and sharding
//!   primitives every parallel path (algorithms *and* matrix kernels)
//!   runs on.
//! * [`mst`] — directed minimum spanning arborescence (Chu–Liu/Edmonds).
//! * [`algo`] — the SimRank algorithms: `naive`, `psum-SR`, `OIP-SR`,
//!   `OIP-DSR`, `mtx-SR`, plus convergence estimators, extensions, the
//!   index-backed single-source/top-k query engine
//!   (`simrank_core::index`), the pluggable score-storage layer
//!   (`simrank_core::store`: packed triangle, low-rank factors,
//!   thresholded sparse — all read through the one `QueryEngine`
//!   trait), and
//!   dynamic maintenance under edge streams (`simrank_core::dynamic`:
//!   warm-start delta sweeps and incremental index repair over the
//!   `DiGraph::apply_batch` mutation API).
//! * [`eval`] — ranking metrics (NDCG, Kendall τ, top-k overlap).
//! * [`datasets`] — simulated stand-ins for the paper's datasets.
//! * [`serve`] — the std-only TCP query server over the unified
//!   [`QueryEngine`](simrank_core::query::QueryEngine) trait: binary
//!   wire protocol, sharded LRU row cache, cross-connection request
//!   batching, and atomic generation reload.
//!
//! # Quickstart
//!
//! ```
//! use simrank::prelude::*;
//!
//! let g = simrank::graph::fixtures::paper_fig1a();
//! let opts = SimRankOptions::default().with_damping(0.6).with_iterations(8);
//! let scores = oip_simrank(&g, &opts);
//! let ab = scores.get(0, 1); // s(a, b) in the paper's lettering
//! assert!(ab >= 0.0 && ab <= 1.0);
//! ```
//!
//! # Parallel execution
//!
//! **Every** algorithm runs on the workspace's persistent worker-pool
//! executor (the `simrank_par` crate, re-exported at [`par`]): the pool
//! is spawned once per run, workers park
//! between barrier-synchronized sweeps, and each path shards its natural
//! unit — row bands (`naive`), sharing-tree segments
//! (`oip`/`oip_dsr`/`psum` and both `prank` direction passes), per-walk-seeded
//! node bands (`Fingerprints::sample`), plan-scan column blocks
//! (`SharingPlan::build`), or, for `mtx`, SVD tournament rounds of
//! disjoint column-pair rotations plus banded matrix products — merging
//! instrumentation shards exactly. No single-threaded algorithm path
//! remains.
//! `SimRankOptions::with_threads` sets the worker count (default: all
//! cores); results are bit-for-bit identical for every value, so
//! parallelism is purely a throughput knob. Independently of threading,
//! every dense sweep exploits SimRank's symmetry: only unordered pairs
//! `b ≥ a` are computed (half the arithmetic of the textbook loop) and a
//! bandwidth-only mirror pass restores the lower triangle each
//! iteration.
//!
//! ```
//! use simrank::prelude::*;
//!
//! let g = simrank::graph::fixtures::paper_fig1a();
//! let opts = SimRankOptions::default().with_iterations(8);
//! let a = oip_simrank(&g, &opts.with_threads(1));
//! let b = oip_simrank(&g, &opts.with_threads(4));
//! assert_eq!(a.max_abs_diff(&b), 0.0);
//! ```

pub use simrank_core as algo;
pub use simrank_datasets as datasets;
pub use simrank_eval as eval;
pub use simrank_graph as graph;
pub use simrank_linalg as linalg;
pub use simrank_mst as mst;
pub use simrank_par as par;
pub use simrank_serve as serve;

/// Convenient glob-import surface: the types and entry points most programs
/// need — one name per row of the algorithm table in [`simrank_core`].
pub mod prelude {
    pub use simrank_core::{
        dsr::oip_dsr_simrank,
        dynamic::{resweep, DynamicSimRank},
        index::SimRankIndex,
        montecarlo::{mc_simrank_pair, Fingerprints},
        mtx::mtx_simrank,
        naive::naive_simrank,
        oip::oip_simrank,
        prank::{prank, PRankOptions},
        psum::psum_simrank,
        query::QueryEngine,
        SimMatrix, SimRankOptions,
    };
    pub use simrank_eval::{kendall_tau, ndcg_at, top_k_overlap};
    pub use simrank_graph::{DiGraph, EdgeDelta, GraphBuilder, NodeId};
}
