//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use simrank_graph::{gen, io, traversal, DiGraph, NodeId};

/// Strategy: a small random edge list over `n` vertices.
fn edge_list(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edge = (0..n as NodeId, 0..n as NodeId);
        proptest::collection::vec(edge, 0..max_m).prop_map(move |es| (n, es))
    })
}

proptest! {
    /// CSR construction preserves exactly the set of distinct edges.
    #[test]
    fn csr_preserves_edge_set((n, edges) in edge_list(40, 200)) {
        let g = DiGraph::from_edges(n, edges.clone()).unwrap();
        let mut expect: Vec<_> = edges;
        expect.sort_unstable();
        expect.dedup();
        let got: Vec<_> = g.edges().collect();
        prop_assert_eq!(got, expect);
    }

    /// In- and out-degree sums both equal the edge count.
    #[test]
    fn degree_sums_match((n, edges) in edge_list(40, 200)) {
        let g = DiGraph::from_edges(n, edges).unwrap();
        let din: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        let dout: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(din, g.edge_count());
        prop_assert_eq!(dout, g.edge_count());
    }

    /// reverse() is an involution and swaps the degree profiles.
    #[test]
    fn reverse_involution((n, edges) in edge_list(30, 150)) {
        let g = DiGraph::from_edges(n, edges).unwrap();
        let r = g.reverse();
        prop_assert_eq!(r.reverse(), g.clone());
        for v in g.nodes() {
            prop_assert_eq!(g.in_degree(v), r.out_degree(v));
            prop_assert_eq!(g.in_neighbors(v), r.out_neighbors(v));
        }
    }

    /// Neighbor slices are sorted and duplicate-free (the invariant the
    /// two-pointer set operations in simrank-core rely on).
    #[test]
    fn neighbor_lists_sorted_unique((n, edges) in edge_list(40, 300)) {
        let g = DiGraph::from_edges(n, edges).unwrap();
        for v in g.nodes() {
            prop_assert!(g.in_neighbors(v).windows(2).all(|w| w[0] < w[1]));
            prop_assert!(g.out_neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// The edge-list text codec round-trips arbitrary graphs.
    #[test]
    fn io_round_trips((n, edges) in edge_list(30, 150)) {
        let g = DiGraph::from_edges(n, edges).unwrap();
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        prop_assert_eq!(io::read_edge_list(&buf[..]).unwrap(), g);
    }

    /// Generators respect their requested sizes and determinism.
    #[test]
    fn rmat_deterministic(seed in 0u64..1000, n in 8usize..64, m_frac in 1usize..4) {
        let m = n * m_frac;
        let p = gen::RmatParams::gtgraph_default(n, m);
        prop_assert_eq!(gen::rmat(p, seed), gen::rmat(p, seed));
    }

    /// Citation DAGs are always acyclic regardless of parameters.
    #[test]
    fn citation_always_dag(seed in 0u64..500, n in 10usize..200) {
        let g = gen::citation_dag(gen::CitationParams::patent_like(n), seed);
        prop_assert!(traversal::is_dag(&g));
    }

    /// Topological sort output, when present, is a valid linearization.
    #[test]
    fn topo_sort_valid((n, edges) in edge_list(25, 80)) {
        let g = DiGraph::from_edges(n, edges).unwrap();
        if let Some(order) = traversal::topological_sort(&g) {
            prop_assert_eq!(order.len(), n);
            let mut pos = vec![0usize; n];
            for (i, &v) in order.iter().enumerate() {
                pos[v as usize] = i;
            }
            for (u, v) in g.edges() {
                if u != v {
                    prop_assert!(pos[u as usize] < pos[v as usize]);
                }
            }
        }
    }

    /// BFS visits each reachable vertex exactly once.
    #[test]
    fn bfs_no_duplicates((n, edges) in edge_list(30, 150)) {
        let g = DiGraph::from_edges(n, edges).unwrap();
        let order = traversal::bfs_order(&g, 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), order.len());
    }
}
