//! In-neighbor-set copying generator (the SYN density-sweep stand-in).
//!
//! At the paper's SYN scale (300K vertices, GTGraph R-MAT), the power-law
//! source distribution makes low-degree vertices' in-neighbor sets collide
//! on the same hubs, which is what gives `OIP-SR` its 0.68–0.83 share
//! ratios in Fig. 6c. Scaling R-MAT down to laptop-sized `n` destroys that
//! structure: with few edges per hub, two low-degree vertices rarely draw
//! the same in-neighbors, so nearly every in-set becomes distinct. This
//! generator models the overlap *directly*: each vertex's in-neighbor set
//! copies a fraction of a prototype vertex's in-set (the web's
//! template/navigation-block phenomenon, or Kumar et al.'s evolving-copying
//! model applied to in-links) and fills the rest uniformly.
//!
//! One knob (`overlap`) controls redundancy; density `d` is swept
//! independently, exactly like Fig. 6c's x-axis.

use crate::builder::GraphBuilder;
use crate::digraph::DiGraph;
use crate::types::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the in-set copying model.
#[derive(Clone, Copy, Debug)]
pub struct OverlapParams {
    /// Number of vertices.
    pub nodes: usize,
    /// Target in-degree of every non-seed vertex.
    pub in_degree: usize,
    /// Fraction of each in-set copied from the prototype (0 = G(n,m)-like,
    /// → 1 = near-duplicate sets).
    pub overlap: f64,
}

impl OverlapParams {
    /// The SYN stand-in defaults: overlap matched so the measured Fig. 6c
    /// share ratios land in the paper's 0.68–0.83 band.
    pub fn syn(nodes: usize, in_degree: usize) -> Self {
        OverlapParams {
            nodes,
            in_degree,
            overlap: 0.9,
        }
    }
}

/// Samples an in-set copying graph.
pub fn overlap_graph(params: OverlapParams, seed: u64) -> DiGraph {
    let n = params.nodes;
    let d = params.in_degree;
    assert!(n > d + 1, "need more vertices ({n}) than in-degree ({d})");
    assert!((0.0..=1.0).contains(&params.overlap));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_edge_capacity(n, n * d);
    // in_sets[v] kept during generation for prototype copying.
    let mut in_sets: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut scratch: Vec<NodeId> = Vec::with_capacity(d);
    for v in 0..n {
        scratch.clear();
        let copy_target = (params.overlap * d as f64).round() as usize;
        if v > 0 {
            let proto = rng.gen_range(0..v);
            let proto_set = &in_sets[proto];
            // Copy a contiguous random run of the prototype's (sorted-ish)
            // set — runs keep copies maximally coherent between siblings.
            if !proto_set.is_empty() {
                let want = copy_target.min(proto_set.len());
                let start = rng.gen_range(0..=(proto_set.len() - want));
                for &x in &proto_set[start..start + want] {
                    if x as usize != v && !scratch.contains(&x) {
                        scratch.push(x);
                    }
                }
            }
        }
        let mut guard = 0;
        while scratch.len() < d.min(n - 1) && guard < 100 * d {
            guard += 1;
            let x = rng.gen_range(0..n) as NodeId;
            if x as usize != v && !scratch.contains(&x) {
                scratch.push(x);
            }
        }
        for &x in &scratch {
            builder.add_edge(x, v as NodeId);
        }
        scratch.sort_unstable();
        in_sets[v] = scratch.clone();
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn hits_requested_density() {
        let g = overlap_graph(OverlapParams::syn(500, 20), 3);
        let s = DegreeStats::of(&g);
        assert!((s.avg_degree - 20.0).abs() < 1.0, "avg {}", s.avg_degree);
        assert_eq!(s.zero_in_degree_nodes, 0);
    }

    #[test]
    fn deterministic() {
        let p = OverlapParams::syn(300, 15);
        assert_eq!(overlap_graph(p, 9), overlap_graph(p, 9));
        assert_ne!(overlap_graph(p, 9), overlap_graph(p, 10));
    }

    #[test]
    fn high_overlap_means_cheap_transitions() {
        // The average best-parent symmetric difference should be far below
        // the from-scratch cost d−1.
        let d = 20usize;
        let g = overlap_graph(
            OverlapParams {
                nodes: 400,
                in_degree: d,
                overlap: 0.9,
            },
            5,
        );
        // Cheapest sym-diff to any *earlier* vertex, averaged.
        let mut total = 0usize;
        let mut count = 0usize;
        for v in 1..400u32 {
            let best = (0..v)
                .map(|u| {
                    let (a, b) = (g.in_neighbors(u), g.in_neighbors(v));
                    a.len() + b.len() - 2 * a.iter().filter(|x| b.binary_search(x).is_ok()).count()
                })
                .min()
                .unwrap();
            total += best.min(d - 1);
            count += 1;
        }
        let avg = total as f64 / count as f64;
        assert!(
            avg < 0.4 * (d - 1) as f64,
            "average cheapest transition {avg} should be well below scratch {}",
            d - 1
        );
    }

    #[test]
    fn zero_overlap_behaves_like_random() {
        let g = overlap_graph(
            OverlapParams {
                nodes: 200,
                in_degree: 8,
                overlap: 0.0,
            },
            2,
        );
        let s = DegreeStats::of(&g);
        assert_eq!(s.distinct_in_sets, 200 - s.zero_in_degree_nodes);
    }
}
