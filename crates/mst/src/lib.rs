//! Directed minimum spanning arborescence substrate.
//!
//! The paper's `DMST-Reduce` procedure (Algorithm 1, line 1) builds a
//! weighted digraph `G*` over in-neighbor sets and extracts a directed
//! minimum spanning tree rooted at a synthetic vertex `#` (the empty set),
//! citing Gabow–Galil–Spencer–Tarjan \[7\]. This crate provides:
//!
//! * [`edmonds`] — the classic Chu–Liu/Edmonds algorithm for minimum
//!   arborescences on arbitrary digraphs (O(V·E) contraction version).
//!   The cost graphs `DMST-Reduce` produces only have forward edges under
//!   a strict total order, so they are DAGs and the planner's own
//!   cheapest-incoming greedy (`SharingPlan::solve_greedy` in
//!   `simrank_core`) is already optimal; Edmonds is the oracle its tests
//!   check that greedy against;
//! * [`Arborescence`] — the result tree, with the chain decomposition
//!   (`chains`) that reproduces the paper's Fig. 2d "partial sums order"
//!   and the child/subtree views the OIP-SR scheduler needs.
//!
//! Edmonds breaks weight ties deterministically in favor of the earliest
//! edge in input order, which is what lets the workspace tests pin
//! the paper's worked example (Fig. 2b–2d) exactly.

mod arborescence;
mod edmonds;

pub use arborescence::Arborescence;
pub use edmonds::{edmonds, Edge};
