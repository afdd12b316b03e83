//! CSR directed graph with both adjacency orientations and an
//! incremental edge-mutation API for dynamic-graph workloads.

use crate::types::{GraphError, NodeId};

/// One edge mutation in a dynamic stream.
///
/// Batches of deltas are applied with [`DiGraph::apply_batch`]; the two
/// single-edge conveniences [`DiGraph::insert_edge`] and
/// [`DiGraph::remove_edge`] are one-delta batches. Both operations are
/// idempotent set mutations: inserting a present edge and removing an
/// absent one are no-ops, which makes replaying an edit stream against a
/// snapshot safe regardless of where the snapshot was taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeDelta {
    /// Add the directed edge `from -> to` (no-op when already present).
    Insert(NodeId, NodeId),
    /// Delete the directed edge `from -> to` (no-op when absent).
    Remove(NodeId, NodeId),
}

impl EdgeDelta {
    /// The `(from, to)` endpoints of the delta.
    #[inline]
    pub fn endpoints(self) -> (NodeId, NodeId) {
        match self {
            EdgeDelta::Insert(u, v) | EdgeDelta::Remove(u, v) => (u, v),
        }
    }

    /// The delta that exactly undoes this one.
    #[inline]
    pub fn inverse(self) -> EdgeDelta {
        match self {
            EdgeDelta::Insert(u, v) => EdgeDelta::Remove(u, v),
            EdgeDelta::Remove(u, v) => EdgeDelta::Insert(u, v),
        }
    }
}

/// What a [`DiGraph::apply_batch`] call actually changed.
///
/// The *touched* vertex sets are the hook for incremental maintenance:
/// SimRank's recurrence reads **in**-neighborhoods, so any score row
/// whose fixed point can move is reachable from `touched_in` — a
/// delta-sweep (see `simrank_core::dynamic`) warm-starts from the old
/// scores and re-converges instead of recomputing from scratch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Edges actually inserted (present-edge inserts are no-ops).
    pub inserted: usize,
    /// Edges actually removed (absent-edge removes are no-ops).
    pub removed: usize,
    /// Vertices whose in-neighbor set changed, ascending and deduplicated.
    pub touched_in: Vec<NodeId>,
    /// Vertices whose out-neighbor set changed, ascending and deduplicated.
    pub touched_out: Vec<NodeId>,
}

impl BatchSummary {
    /// Total number of effective mutations (`inserted + removed`).
    #[inline]
    pub fn changed(&self) -> usize {
        self.inserted + self.removed
    }

    /// Whether the batch was a pure no-op (every delta already satisfied).
    #[inline]
    pub fn is_noop(&self) -> bool {
        self.changed() == 0
    }
}

/// A directed graph in compressed sparse row form.
///
/// Both orientations are materialized because SimRank consumes in-neighbor
/// sets (`I(a)` in the paper) in every inner loop, while builders and
/// traversals want out-neighbors. Neighbor lists are sorted ascending and
/// deduplicated, which makes the set operations at the heart of `OIP-SR`
/// (symmetric difference, intersection — Propositions 3 and 4 of the paper)
/// linear two-pointer merges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiGraph {
    /// `out_offsets[v]..out_offsets[v+1]` indexes `out_targets`.
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    /// `in_offsets[v]..in_offsets[v+1]` indexes `in_sources`.
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
}

impl DiGraph {
    /// Builds a graph from `node_count` vertices and an edge list.
    ///
    /// Parallel edges are collapsed; self-loops are kept (SimRank is defined
    /// on arbitrary digraphs). Errors if an endpoint is out of range.
    pub fn from_edges(
        node_count: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        if node_count > NodeId::MAX as usize {
            return Err(GraphError::TooManyNodes(node_count));
        }
        let mut list: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        for &(u, v) in &list {
            for node in [u, v] {
                if node as usize >= node_count {
                    return Err(GraphError::NodeOutOfRange { node, node_count });
                }
            }
        }
        list.sort_unstable();
        list.dedup();
        Ok(Self::from_sorted_dedup_edges(node_count, &list))
    }

    /// Internal constructor from a sorted, deduplicated edge list.
    fn from_sorted_dedup_edges(node_count: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let m = edges.len();
        let mut out_offsets = vec![0usize; node_count + 1];
        let mut in_offsets = vec![0usize; node_count + 1];
        for &(u, v) in edges {
            out_offsets[u as usize + 1] += 1;
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..node_count {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut out_targets = vec![0 as NodeId; m];
        let mut in_sources = vec![0 as NodeId; m];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for &(u, v) in edges {
            out_targets[out_cursor[u as usize]] = v;
            out_cursor[u as usize] += 1;
            in_sources[in_cursor[v as usize]] = u;
            in_cursor[v as usize] += 1;
        }
        // Edge list is sorted by (u, v), so out lists come out sorted; in
        // lists are filled in increasing source order, hence also sorted.
        DiGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Builds a graph from `node_count` vertices and an edge list that
    /// must already be duplicate-free.
    ///
    /// Where [`DiGraph::from_edges`] silently collapses repeated edges
    /// (the right contract for generators and ad-hoc edge lists), this
    /// strict constructor rejects them with
    /// [`GraphError::DuplicateEdge`]. It is the constructor every
    /// *canonical* source must use — the `SRI1` index format always
    /// serializes the deduplicated CSR edge list, so a duplicate on load
    /// is corruption, not data.
    pub fn from_edges_strict(
        node_count: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        if node_count > NodeId::MAX as usize {
            return Err(GraphError::TooManyNodes(node_count));
        }
        let mut list: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        for &(u, v) in &list {
            for node in [u, v] {
                if node as usize >= node_count {
                    return Err(GraphError::NodeOutOfRange { node, node_count });
                }
            }
        }
        list.sort_unstable();
        if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
            let (from, to) = w[0];
            return Err(GraphError::DuplicateEdge { from, to });
        }
        Ok(Self::from_sorted_dedup_edges(node_count, &list))
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of (deduplicated) directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbors of `v`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-neighbors of `v` (the paper's `I(v)`), sorted ascending.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// `|I(v)|`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// `|O(v)|`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// Whether the edge `u -> v` exists (binary search on the out list).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Average in-degree `d = m / n` (the paper's density parameter).
    pub fn avg_in_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Iterates all edges as `(source, target)` in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count() as NodeId)
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterates all vertex ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count() as NodeId
    }

    /// The reverse graph (every edge flipped).
    pub fn reverse(&self) -> DiGraph {
        DiGraph {
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
        }
    }

    /// Vertices with non-empty in-neighbor sets, in id order.
    ///
    /// These are exactly the vertices that participate in the paper's
    /// transition-cost graph `G*` (plus the synthetic root `∅`).
    pub fn nodes_with_in_edges(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.in_degree(v) > 0).collect()
    }

    /// Inserts the directed edge `u -> v`, incrementally patching both
    /// CSR orientations. Returns `Ok(true)` when the edge was new,
    /// `Ok(false)` when it was already present (no-op).
    ///
    /// One-delta convenience over [`DiGraph::apply_batch`]; streams of
    /// edits should batch for a single splice pass.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        Ok(self.apply_batch(&[EdgeDelta::Insert(u, v)])?.inserted == 1)
    }

    /// Removes the directed edge `u -> v`, incrementally patching both
    /// CSR orientations. Returns `Ok(true)` when the edge existed,
    /// `Ok(false)` when it was already absent (no-op).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        Ok(self.apply_batch(&[EdgeDelta::Remove(u, v)])?.removed == 1)
    }

    /// Applies a batch of edge mutations in stream order, patching the
    /// CSR adjacency (both orientations) **in one splice pass** — no
    /// re-sort of the full edge list, no degree recount; `O(n + m + b·log b)`
    /// for `b` deltas on an `(n, m)` graph.
    ///
    /// Deltas are resolved to their *net effect* first (an insert
    /// followed by a remove of the same edge cancels; inserting a
    /// present edge or removing an absent one is a no-op), so the
    /// resulting graph is exactly what replaying the stream one edge at
    /// a time would produce. The returned [`BatchSummary`] reports what
    /// actually changed, including the vertices whose in-neighbor sets
    /// moved — the seed set for incremental score maintenance.
    ///
    /// On error (an out-of-range endpoint) the graph is left untouched.
    ///
    /// # Example
    ///
    /// ```
    /// use simrank_graph::{DiGraph, EdgeDelta};
    ///
    /// let mut g = DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3)]).unwrap();
    /// let summary = g
    ///     .apply_batch(&[
    ///         EdgeDelta::Insert(2, 3),      // new edge
    ///         EdgeDelta::Insert(0, 1),      // already present: no-op
    ///         EdgeDelta::Remove(0, 2),      // deletes an existing edge
    ///         EdgeDelta::Remove(3, 0),      // absent: no-op
    ///     ])
    ///     .unwrap();
    /// assert_eq!((summary.inserted, summary.removed), (1, 1));
    /// assert_eq!(summary.touched_in, vec![2, 3]); // in-sets of 2 and 3 changed
    /// assert!(g.has_edge(2, 3) && !g.has_edge(0, 2));
    /// // The patched CSR is indistinguishable from a fresh build.
    /// let rebuilt = DiGraph::from_edges(4, g.edges().collect::<Vec<_>>()).unwrap();
    /// assert_eq!(g, rebuilt);
    /// ```
    pub fn apply_batch(&mut self, deltas: &[EdgeDelta]) -> Result<BatchSummary, GraphError> {
        let n = self.node_count();
        // Validate every endpoint up front: the graph is untouched on error.
        for d in deltas {
            let (u, v) = d.endpoints();
            for node in [u, v] {
                if node as usize >= n {
                    return Err(GraphError::NodeOutOfRange {
                        node,
                        node_count: n,
                    });
                }
            }
        }
        // Resolve the stream to its net membership effect. Later deltas
        // see the earlier ones, so stream order is honored exactly.
        let mut net: std::collections::BTreeMap<(NodeId, NodeId), bool> =
            std::collections::BTreeMap::new();
        for d in deltas {
            let (u, v) = d.endpoints();
            let present = *net.get(&(u, v)).unwrap_or(&self.has_edge(u, v));
            match d {
                EdgeDelta::Insert(..) if !present => {
                    net.insert((u, v), true);
                }
                EdgeDelta::Remove(..) if present => {
                    net.insert((u, v), false);
                }
                _ => {}
            }
        }
        // Drop round trips (insert-then-remove of an absent edge nets out).
        net.retain(|&(u, v), &mut member| member != self.has_edge(u, v));
        let mut summary = BatchSummary::default();
        if net.is_empty() {
            return Ok(summary);
        }
        // The BTreeMap iterates in (u, v) order — exactly the out-CSR
        // splice order; the in-CSR splice needs (v, u) order.
        let out_changes: Vec<(NodeId, NodeId, bool)> =
            net.iter().map(|(&(u, v), &ins)| (u, v, ins)).collect();
        let mut in_changes: Vec<(NodeId, NodeId, bool)> =
            net.iter().map(|(&(u, v), &ins)| (v, u, ins)).collect();
        in_changes.sort_unstable();
        summary.inserted = out_changes.iter().filter(|c| c.2).count();
        summary.removed = out_changes.len() - summary.inserted;
        summary.touched_out = out_changes.iter().map(|&(u, _, _)| u).collect();
        summary.touched_out.dedup();
        summary.touched_in = in_changes.iter().map(|&(v, _, _)| v).collect();
        summary.touched_in.dedup();
        let (out_offsets, out_targets) =
            splice_adjacency(&self.out_offsets, &self.out_targets, &out_changes);
        let (in_offsets, in_sources) =
            splice_adjacency(&self.in_offsets, &self.in_sources, &in_changes);
        self.out_offsets = out_offsets;
        self.out_targets = out_targets;
        self.in_offsets = in_offsets;
        self.in_sources = in_sources;
        Ok(summary)
    }

    /// Approximate heap footprint in bytes (CSR arrays only).
    pub fn heap_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>()
            + self.in_offsets.len() * std::mem::size_of::<usize>()
            + self.out_targets.len() * std::mem::size_of::<NodeId>()
            + self.in_sources.len() * std::mem::size_of::<NodeId>()
    }
}

/// Merges a sorted change list into one CSR orientation in a single pass.
///
/// `changes` is sorted by `(row, neighbor)` and contains only *effective*
/// mutations (each insert's entry is absent from the row, each removal's
/// entry is present), so the merge is a plain two-pointer walk: copy the
/// untouched prefix, then interleave. Neighbor lists stay sorted and
/// duplicate-free by construction.
fn splice_adjacency(
    offsets: &[usize],
    adj: &[NodeId],
    changes: &[(NodeId, NodeId, bool)],
) -> (Vec<usize>, Vec<NodeId>) {
    let n = offsets.len() - 1;
    let inserted = changes.iter().filter(|c| c.2).count();
    let mut new_adj = Vec::with_capacity(adj.len() + inserted - (changes.len() - inserted));
    let mut new_offsets = Vec::with_capacity(offsets.len());
    new_offsets.push(0);
    let mut ci = 0;
    for row in 0..n {
        let row_id = row as NodeId;
        let mut cursor = offsets[row];
        let end = offsets[row + 1];
        while ci < changes.len() && changes[ci].0 == row_id {
            let (_, nbr, insert) = changes[ci];
            // Copy the run of existing neighbors strictly below `nbr`.
            while cursor < end && adj[cursor] < nbr {
                new_adj.push(adj[cursor]);
                cursor += 1;
            }
            if insert {
                debug_assert!(cursor == end || adj[cursor] != nbr);
                new_adj.push(nbr);
            } else {
                debug_assert!(cursor < end && adj[cursor] == nbr);
                cursor += 1; // skip the removed entry
            }
            ci += 1;
        }
        new_adj.extend_from_slice(&adj[cursor..end]);
        new_offsets.push(new_adj.len());
    }
    debug_assert_eq!(ci, changes.len());
    (new_offsets, new_adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn neighbor_lists_sorted() {
        let g = DiGraph::from_edges(5, [(4, 0), (1, 0), (3, 0), (2, 0)]).unwrap();
        assert_eq!(g.in_neighbors(0), &[1, 2, 3, 4]);
        for v in 0..5 {
            let ns = g.out_neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn parallel_edges_dedup() {
        let g = DiGraph::from_edges(3, [(0, 1), (0, 1), (0, 1), (1, 2)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_neighbors(0), &[1]);
    }

    #[test]
    fn self_loop_kept() {
        let g = DiGraph::from_edges(2, [(0, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.in_neighbors(0), &[0]);
    }

    #[test]
    fn out_of_range_rejected() {
        let err = DiGraph::from_edges(2, [(0, 5)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: 5,
                node_count: 2
            }
        );
    }

    #[test]
    fn reverse_flips_edges() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.in_neighbors(0), &[1, 2]);
        assert_eq!(r.out_neighbors(3), &[1, 2]);
        assert_eq!(r.reverse(), g);
    }

    #[test]
    fn has_edge_works() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(3, 3));
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        let g2 = DiGraph::from_edges(4, edges).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn avg_in_degree_matches_m_over_n() {
        let g = diamond();
        assert!((g.avg_in_degree() - 1.0).abs() < 1e-12);
        let empty = DiGraph::from_edges(0, []).unwrap();
        assert_eq!(empty.avg_in_degree(), 0.0);
    }

    #[test]
    fn nodes_with_in_edges_excludes_sources() {
        let g = diamond();
        assert_eq!(g.nodes_with_in_edges(), vec![1, 2, 3]);
    }

    #[test]
    fn from_edges_strict_rejects_duplicates() {
        let err = DiGraph::from_edges_strict(3, [(0, 1), (1, 2), (0, 1)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { from: 0, to: 1 });
        // Duplicate-free input builds identically to the lenient path.
        let strict = DiGraph::from_edges_strict(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(strict, diamond());
    }

    #[test]
    fn insert_edge_patches_both_orientations() {
        let mut g = diamond();
        assert_eq!(g.insert_edge(3, 0), Ok(true));
        assert!(g.has_edge(3, 0));
        assert_eq!(g.out_neighbors(3), &[0]);
        assert_eq!(g.in_neighbors(0), &[3]);
        // Inserting a present edge is a no-op.
        assert_eq!(g.insert_edge(3, 0), Ok(false));
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn remove_edge_patches_both_orientations() {
        let mut g = diamond();
        assert_eq!(g.remove_edge(1, 3), Ok(true));
        assert!(!g.has_edge(1, 3));
        assert_eq!(g.out_neighbors(1), &[] as &[NodeId]);
        assert_eq!(g.in_neighbors(3), &[2]);
        assert_eq!(g.remove_edge(1, 3), Ok(false));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn apply_batch_matches_fresh_build() {
        let mut g = diamond();
        let summary = g
            .apply_batch(&[
                EdgeDelta::Insert(3, 0),
                EdgeDelta::Insert(3, 1),
                EdgeDelta::Remove(0, 2),
                EdgeDelta::Insert(0, 2), // reinsert: cancels the removal
                EdgeDelta::Remove(2, 3),
            ])
            .unwrap();
        assert_eq!(summary.inserted, 2);
        assert_eq!(summary.removed, 1);
        assert_eq!(summary.touched_out, vec![2, 3]);
        assert_eq!(summary.touched_in, vec![0, 1, 3]);
        let expected = DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (3, 0), (3, 1)]).unwrap();
        assert_eq!(g, expected);
    }

    #[test]
    fn apply_batch_noop_stream_leaves_graph_untouched() {
        let mut g = diamond();
        let before = g.clone();
        let summary = g
            .apply_batch(&[
                EdgeDelta::Insert(0, 1), // already present
                EdgeDelta::Remove(3, 0), // absent
                EdgeDelta::Insert(3, 0), // insert...
                EdgeDelta::Remove(3, 0), // ...then cancel
                EdgeDelta::Remove(0, 2), // remove...
                EdgeDelta::Insert(0, 2), // ...then cancel
            ])
            .unwrap();
        assert!(summary.is_noop());
        assert!(summary.touched_in.is_empty() && summary.touched_out.is_empty());
        assert_eq!(g, before);
    }

    #[test]
    fn apply_batch_error_is_atomic() {
        let mut g = diamond();
        let before = g.clone();
        let err = g
            .apply_batch(&[EdgeDelta::Insert(0, 3), EdgeDelta::Insert(1, 9)])
            .unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: 9,
                node_count: 4
            }
        );
        assert_eq!(g, before);
    }

    #[test]
    fn apply_batch_delete_to_isolated_vertex() {
        // Vertex 3 loses every incident edge; vertex 1 loses its last in-edge.
        let mut g = diamond();
        g.apply_batch(&[
            EdgeDelta::Remove(1, 3),
            EdgeDelta::Remove(2, 3),
            EdgeDelta::Remove(0, 1),
        ])
        .unwrap();
        assert_eq!(g.in_degree(3), 0);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(1), 0);
        assert_eq!(g.edge_count(), 1);
        let rebuilt = DiGraph::from_edges(4, g.edges().collect::<Vec<_>>()).unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn random_edit_scripts_match_rebuild() {
        // Deterministic xorshift stream; replay each script one delta at
        // a time against a set-of-edges model, then compare the patched
        // CSR against a from-scratch build of the model.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [2usize, 5, 9, 16] {
            let mut g = DiGraph::from_edges(
                n,
                (0..n as NodeId)
                    .map(|v| (v, (v + 1) % n as NodeId))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            let mut model: std::collections::BTreeSet<(NodeId, NodeId)> = g.edges().collect();
            for _ in 0..8 {
                let mut deltas = Vec::new();
                for _ in 0..(next() % 24 + 1) {
                    let u = (next() % n as u64) as NodeId;
                    let v = (next() % n as u64) as NodeId;
                    deltas.push(if next() % 2 == 0 {
                        EdgeDelta::Insert(u, v)
                    } else {
                        EdgeDelta::Remove(u, v)
                    });
                }
                for d in &deltas {
                    let (u, v) = d.endpoints();
                    match d {
                        EdgeDelta::Insert(..) => {
                            model.insert((u, v));
                        }
                        EdgeDelta::Remove(..) => {
                            model.remove(&(u, v));
                        }
                    }
                }
                g.apply_batch(&deltas).unwrap();
                let rebuilt =
                    DiGraph::from_edges(n, model.iter().copied().collect::<Vec<_>>()).unwrap();
                assert_eq!(g, rebuilt);
            }
        }
    }

    #[test]
    fn edge_delta_inverse_round_trips() {
        let d = EdgeDelta::Insert(2, 7);
        assert_eq!(d.inverse(), EdgeDelta::Remove(2, 7));
        assert_eq!(d.inverse().inverse(), d);
        assert_eq!(d.endpoints(), (2, 7));
    }
}
