//! Chu–Liu/Edmonds minimum arborescence.

// Per-vertex scans with explicit indices mirror the algorithm's statement;
// iterator forms hide the root/self-loop exclusions.
#![allow(clippy::needless_range_loop)]

use crate::arborescence::Arborescence;

/// A weighted directed edge of the cost graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Source vertex.
    pub from: usize,
    /// Target vertex.
    pub to: usize,
    /// Non-negative cost (the paper's transition cost is a set-size, hence
    /// an integer).
    pub weight: u64,
}

impl Edge {
    /// Convenience constructor.
    pub fn new(from: usize, to: usize, weight: u64) -> Self {
        Edge { from, to, weight }
    }
}

/// Internal edge with provenance for cycle expansion.
#[derive(Clone, Copy, Debug)]
struct WorkEdge {
    from: usize,
    to: usize,
    weight: i64,
    /// Index into the caller's original edge list.
    orig: usize,
}

/// Computes a minimum-weight arborescence of `(n, edges)` rooted at `root`
/// with the Chu–Liu/Edmonds algorithm.
///
/// Returns `None` when some vertex is unreachable from `root`. Ties are
/// broken toward the earliest edge in input order, making the result
/// deterministic (and reproducing the paper's Fig. 2c choice among the
/// equal-cost parents of `I(c)`).
pub fn edmonds(n: usize, edges: &[Edge], root: usize) -> Option<Arborescence> {
    assert!(root < n, "root {root} out of range for {n} vertices");
    let work: Vec<WorkEdge> = edges
        .iter()
        .enumerate()
        .filter(|(_, e)| e.from != e.to && e.to != root)
        .map(|(i, e)| WorkEdge {
            from: e.from,
            to: e.to,
            weight: e.weight as i64,
            orig: i,
        })
        .collect();
    let chosen = solve(n, root, work)?;
    Some(Arborescence::from_chosen_edges(n, root, edges, &chosen))
}

/// One level of the contraction recursion. Returns the indices (into the
/// *caller's original* edge list) of the arborescence edges.
fn solve(n: usize, root: usize, edges: Vec<WorkEdge>) -> Option<Vec<usize>> {
    if n <= 1 {
        return Some(Vec::new());
    }
    // 1. Cheapest incoming edge per non-root vertex (first-wins on ties).
    let mut best: Vec<Option<usize>> = vec![None; n]; // index into `edges`
    for (i, e) in edges.iter().enumerate() {
        if e.to == root {
            continue;
        }
        match best[e.to] {
            None => best[e.to] = Some(i),
            Some(j) if e.weight < edges[j].weight => best[e.to] = Some(i),
            _ => {}
        }
    }
    for (v, b) in best.iter().enumerate() {
        if v != root && b.is_none() {
            return None; // unreachable vertex
        }
    }

    // 2. Detect cycles among the selected edges.
    const UNSEEN: usize = usize::MAX;
    let mut color = vec![UNSEEN; n]; // visit epoch per vertex
    let mut comp = vec![UNSEEN; n]; // contracted component id
    let mut comp_count = 0usize;
    let mut cycles: Vec<Vec<usize>> = Vec::new(); // vertices per cycle
    for start in 0..n {
        if color[start] != UNSEEN {
            continue;
        }
        // Walk parents until we hit the root, a previously colored vertex,
        // or revisit this epoch's path (a new cycle).
        let mut path = Vec::new();
        let mut v = start;
        while v != root && color[v] == UNSEEN {
            color[v] = start;
            path.push(v);
            v = edges[best[v].expect("non-root has best edge")].from;
        }
        if v != root && color[v] == start && comp[v] == UNSEEN {
            // Found a new cycle; extract it from `path`.
            let pos = path
                .iter()
                .position(|&x| x == v)
                .expect("cycle member on path");
            let cycle: Vec<usize> = path[pos..].to_vec();
            let id = comp_count;
            comp_count += 1;
            for &u in &cycle {
                comp[u] = id;
            }
            cycles.push(cycle);
        }
    }
    if cycles.is_empty() {
        let mut chosen: Vec<usize> = (0..n)
            .filter(|&v| v != root)
            .map(|v| edges[best[v].expect("checked above")].orig)
            .collect();
        chosen.sort_unstable();
        return Some(chosen);
    }
    // Assign ids to non-cycle vertices.
    for v in 0..n {
        if comp[v] == UNSEEN {
            comp[v] = comp_count;
            comp_count += 1;
        }
    }

    // 3. Contract: reweight edges entering a cycle by the cost of the
    // cycle edge they would displace.
    let mut contracted: Vec<WorkEdge> = Vec::with_capacity(edges.len());
    // Map from contracted-edge index to (original edge index, entered vertex).
    let mut provenance: Vec<(usize, usize)> = Vec::with_capacity(edges.len());
    let in_cycle = |v: usize| comp[v] < cycles.len();
    for e in &edges {
        let (cf, ct) = (comp[e.from], comp[e.to]);
        if cf == ct {
            continue;
        }
        let adjust = if in_cycle(e.to) {
            edges[best[e.to].unwrap()].weight
        } else {
            0
        };
        contracted.push(WorkEdge {
            from: cf,
            to: ct,
            weight: e.weight - adjust,
            orig: provenance.len(),
        });
        provenance.push((e.orig, e.to));
    }
    let sub = solve(comp_count, comp[root], contracted)?;

    // 4. Expand: chosen contracted edges map back to original edges; each
    // cycle contributes all of its selected edges except the one displaced
    // at the vertex where the external edge enters.
    let mut chosen: Vec<usize> = Vec::with_capacity(n - 1);
    let mut entered: Vec<Option<usize>> = vec![None; cycles.len()]; // entry vertex per cycle
    for idx in sub {
        let (orig, to_vertex) = provenance[idx];
        chosen.push(orig);
        if in_cycle(to_vertex) {
            entered[comp[to_vertex]] = Some(to_vertex);
        }
    }
    for (c, cycle) in cycles.iter().enumerate() {
        let skip = entered[c];
        for &v in cycle {
            if Some(v) != skip {
                chosen.push(edges[best[v].unwrap()].orig);
            }
        }
    }
    chosen.sort_unstable();
    Some(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(from: usize, to: usize, weight: u64) -> Edge {
        Edge::new(from, to, weight)
    }

    #[test]
    fn simple_star() {
        let edges = vec![e(0, 1, 5), e(0, 2, 3), e(0, 3, 1)];
        let arb = edmonds(4, &edges, 0).unwrap();
        assert_eq!(arb.total_weight, 9);
        assert_eq!(arb.parent(1), Some(0));
        assert_eq!(arb.parent(2), Some(0));
        assert_eq!(arb.parent(3), Some(0));
    }

    #[test]
    fn prefers_cheaper_path() {
        let edges = vec![e(0, 1, 10), e(0, 2, 1), e(2, 1, 2)];
        let arb = edmonds(3, &edges, 0).unwrap();
        assert_eq!(arb.total_weight, 3);
        assert_eq!(arb.parent(1), Some(2));
    }

    #[test]
    fn handles_cycle_contraction() {
        // Classic example: 1 <-> 2 cheap cycle, root must break it.
        let edges = vec![e(0, 1, 10), e(0, 2, 10), e(1, 2, 1), e(2, 1, 1)];
        let arb = edmonds(3, &edges, 0).unwrap();
        // Either 0->1->2 or 0->2->1, both cost 11.
        assert_eq!(arb.total_weight, 11);
        assert!(arb.is_acyclic());
    }

    #[test]
    fn nested_cycles() {
        // Two mutually-cheap pairs forming a chain of contractions.
        let edges = vec![
            e(0, 1, 100),
            e(1, 2, 1),
            e(2, 1, 1),
            e(2, 3, 1),
            e(3, 2, 1),
            e(0, 3, 50),
        ];
        let arb = edmonds(4, &edges, 0).unwrap();
        assert!(arb.is_acyclic());
        // Best: 0->3 (50), 3->2 (1), 2->1 (1) = 52.
        assert_eq!(arb.total_weight, 52);
    }

    #[test]
    fn unreachable_vertex_is_none() {
        let edges = vec![e(0, 1, 1)];
        assert!(edmonds(3, &edges, 0).is_none());
    }

    #[test]
    fn self_loops_ignored() {
        let edges = vec![e(1, 1, 0), e(0, 1, 4)];
        let arb = edmonds(2, &edges, 0).unwrap();
        assert_eq!(arb.total_weight, 4);
    }

    #[test]
    fn ties_break_toward_earlier_edge() {
        let edges = vec![e(0, 2, 7), e(1, 2, 7), e(0, 1, 1)];
        let arb = edmonds(3, &edges, 0).unwrap();
        assert_eq!(arb.parent(2), Some(0), "earliest minimal edge must win");
    }

    #[test]
    fn zero_weight_edges_collapse_duplicates() {
        // Models duplicate in-neighbor sets: cost-0 transitions chain freely.
        let edges = vec![e(0, 1, 3), e(1, 2, 0), e(2, 3, 0), e(0, 3, 5)];
        let arb = edmonds(4, &edges, 0).unwrap();
        assert_eq!(arb.total_weight, 3);
        assert_eq!(arb.parent(3), Some(2));
    }
}
