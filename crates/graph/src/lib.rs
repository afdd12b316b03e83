//! Directed-graph substrate for the SimRank workspace.
//!
//! This crate provides everything the SimRank algorithms of Yu, Lin & Zhang
//! (ICDE 2013) need from a graph library, implemented from scratch:
//!
//! * [`DiGraph`] — a directed graph in compressed sparse row (CSR) form
//!   holding *both* orientations, because SimRank is driven by in-neighbor
//!   sets (`I(a)` in the paper) while the minimum-spanning-tree sharing plan
//!   walks out-neighbors. Bulk construction is immutable; dynamic workloads
//!   patch edges in place with [`DiGraph::apply_batch`] over [`EdgeDelta`]
//!   streams (see the [`digraph`] module docs).
//! * [`GraphBuilder`] — a mutable edge accumulator that deduplicates parallel
//!   edges and produces a [`DiGraph`].
//! * [`gen`] — graph generators: R-MAT (the model behind the paper's GTGraph
//!   SYN datasets), Erdős–Rényi G(n, m), preferential attachment, a
//!   copying-model web graph, a time-ordered citation DAG, and a
//!   community-structured co-authorship simulator.
//! * [`io`] — SNAP-style edge-list text I/O.
//! * [`fixtures`] — the paper-citation network of the paper's Fig. 1a, used
//!   as a pinned fixture throughout the workspace tests.
//! * [`traversal`] — BFS/DFS/topological-sort helpers.
//! * [`stats`] — degree statistics reported by the dataset tables.
//!
//! # Example
//!
//! ```
//! use simrank_graph::{DiGraph, GraphBuilder};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(2, 1);
//! b.add_edge(3, 1);
//! let g: DiGraph = b.build();
//! assert_eq!(g.in_neighbors(1), &[0, 2, 3]);
//! assert_eq!(g.in_degree(1), 3);
//! ```

pub mod builder;
pub mod digraph;
pub mod fixtures;
pub mod gen;
pub mod io;
pub mod stats;
pub mod traversal;
pub mod types;

pub use builder::GraphBuilder;
pub use digraph::{BatchSummary, DiGraph, EdgeDelta};
pub use stats::DegreeStats;
pub use types::{GraphError, NodeId};
