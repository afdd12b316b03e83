//! Property tests: Chu–Liu/Edmonds against brute force, and the
//! arborescence views it returns.

use proptest::prelude::*;
use simrank_mst::{edmonds, Edge};

/// Brute force: enumerate every parent assignment, keep the cheapest
/// acyclic one. Exponential — only for tiny `n`.
fn brute_force_min_weight(n: usize, edges: &[Edge], root: usize) -> Option<u64> {
    // incoming[v] = candidate edges entering v.
    let mut incoming: Vec<Vec<&Edge>> = vec![Vec::new(); n];
    for e in edges {
        if e.to != root && e.from != e.to {
            incoming[e.to].push(e);
        }
    }
    let non_root: Vec<usize> = (0..n).filter(|&v| v != root).collect();
    for &v in &non_root {
        if incoming[v].is_empty() {
            return None;
        }
    }
    let mut best: Option<u64> = None;
    let mut choice = vec![0usize; n];
    fn recurse(
        idx: usize,
        non_root: &[usize],
        incoming: &[Vec<&Edge>],
        choice: &mut Vec<usize>,
        best: &mut Option<u64>,
        n: usize,
        root: usize,
    ) {
        if idx == non_root.len() {
            // Acyclicity check via parent-following.
            let mut parent = vec![usize::MAX; n];
            let mut total = 0u64;
            for (i, &v) in non_root.iter().enumerate() {
                let e = incoming[v][choice[i]];
                parent[v] = e.from;
                total += e.weight;
            }
            for start in 0..n {
                let mut seen = vec![false; n];
                let mut v = start;
                while v != root && parent[v] != usize::MAX {
                    if seen[v] {
                        return; // cycle
                    }
                    seen[v] = true;
                    v = parent[v];
                }
                if v != root {
                    return; // dangling (shouldn't happen)
                }
            }
            if best.map(|b| total < b).unwrap_or(true) {
                *best = Some(total);
            }
            return;
        }
        let v = non_root[idx];
        for c in 0..incoming[v].len() {
            choice[idx] = c;
            recurse(idx + 1, non_root, incoming, choice, best, n, root);
        }
    }
    recurse(0, &non_root, &incoming, &mut choice, &mut best, n, root);
    best
}

/// Strategy: dense-ish random weighted digraph on up to 6 vertices.
fn small_weighted_graph() -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (3usize..=6).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0u64..20).prop_map(|(f, t, w)| Edge::new(f, t, w));
        proptest::collection::vec(edge, 1..=(n * n)).prop_map(move |es| (n, es))
    })
}

proptest! {
    /// Edmonds finds the optimum weight (vs exhaustive search) and a valid tree.
    #[test]
    fn edmonds_is_optimal((n, edges) in small_weighted_graph()) {
        let brute = brute_force_min_weight(n, &edges, 0);
        let fast = edmonds(n, &edges, 0);
        match (brute, fast) {
            (None, None) => {}
            (Some(bw), Some(arb)) => {
                prop_assert_eq!(arb.total_weight, bw, "edmonds weight mismatch");
                prop_assert!(arb.is_acyclic());
                // Every non-root vertex has a parent; root does not.
                prop_assert!(arb.parent(0).is_none());
                for v in 1..n {
                    prop_assert!(arb.parent(v).is_some());
                }
            }
            (b, f) => prop_assert!(false, "feasibility disagreement: brute={b:?} edmonds={:?}", f.map(|a| a.total_weight)),
        }
    }

    /// Chains partition the non-root vertices and respect parent order.
    #[test]
    fn chains_partition((n, edges) in small_weighted_graph()) {
        if let Some(arb) = edmonds(n, &edges, 0) {
            let chains = arb.chains();
            let mut seen: Vec<usize> = chains.iter().flatten().copied().collect();
            seen.sort_unstable();
            let expect: Vec<usize> = (1..n).collect();
            prop_assert_eq!(seen, expect);
            for chain in &chains {
                for w in chain.windows(2) {
                    prop_assert_eq!(arb.parent(w[1]), Some(w[0]));
                }
            }
        }
    }

    /// Subtree sizes are consistent: root subtree = n, child sums + 1.
    #[test]
    fn subtree_sizes_consistent((n, edges) in small_weighted_graph()) {
        if let Some(arb) = edmonds(n, &edges, 0) {
            let sizes = arb.subtree_sizes();
            prop_assert_eq!(sizes[0], n);
            let children = arb.children();
            for v in 0..n {
                let child_sum: usize = children[v].iter().map(|&c| sizes[c]).sum();
                prop_assert_eq!(sizes[v], child_sum + 1);
            }
        }
    }
}
