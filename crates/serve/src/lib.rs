//! A std-only TCP query server for SimRank similarity — the serving
//! layer over the workspace's unified
//! [`QueryEngine`](simrank_core::query::QueryEngine) trait.
//!
//! Any engine family serves through the same loop: the linearized
//! [`SimRankIndex`](simrank_core::index::SimRankIndex), every
//! precomputed score backend (packed triangle, low-rank factors,
//! thresholded sparse), and the Monte-Carlo
//! [`Fingerprints`](simrank_core::montecarlo::Fingerprints) — the server
//! holds a `Box<dyn QueryEngine>` and never knows which.
//!
//! # Pieces
//!
//! * [`protocol`] — the tiny length-prefixed binary wire format
//!   (`SingleSource`, `TopK`, batched variants, `Stats`, `Reload`).
//! * [`server`] — the blocking TCP server: per-connection threads, a
//!   cross-connection batcher that coalesces concurrently queued
//!   queries into one worker-pool dispatch, and atomic `Arc`-swap
//!   generation reload that never drops or tears in-flight requests.
//! * [`cache`] — the bounded sharded LRU memoizing hot single-source
//!   rows per generation (hits return the engine's own allocation, so
//!   cached and uncached responses are bit-for-bit identical).
//! * [`client`] — a blocking typed client over one persistent
//!   connection.
//! * [`workload`] — deterministic Zipf-skewed query traces.
//!
//! # Example
//!
//! ```
//! use simrank_core::{oip::oip_simrank, SimRankOptions};
//! use simrank_graph::fixtures::paper_fig1a;
//! use simrank_serve::{serve, Client, ServerConfig};
//!
//! let scores = oip_simrank(&paper_fig1a(), &SimRankOptions::default().with_iterations(8));
//! let server = serve(Box::new(scores), None, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let (generation, top) = client.top_k(1, 3).unwrap();
//! assert_eq!(generation, 1);
//! assert_eq!(top.len(), 3);
//! server.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod workload;

pub use cache::RowCache;
pub use client::{Client, ClientError, Ranking};
pub use protocol::{Request, Response, ResponseBody, ServerStats};
pub use server::{serve, EngineSource, ServerConfig, ServerHandle};
pub use workload::{SplitMix64, ZipfWorkload};
