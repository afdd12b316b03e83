//! Site-template web-graph model (BERKSTAN-like stand-in).
//!
//! Real web crawls like BerkStan owe their huge in-neighbor-set overlap to
//! *navigation templates*: every page of a site is linked from the same
//! site-wide hub/navigation pages, so pages of one site have nearly
//! identical in-neighbor sets. That overlap is exactly what gives `OIP-SR`
//! its largest speedup (4.6×) in the paper, and it does not survive naive
//! downscaling of edge-sampling models: at small `n` independently sampled
//! in-links rarely repeat, so in-sets stop overlapping. This generator
//! models the mechanism directly:
//!
//! * pages belong to *sites*; sites belong to one of two *domains*
//!   (the berkeley.edu / stanford.edu split);
//! * each page's in-links copy most of a same-site sibling's in-link set
//!   (the template block) and add a few fresh links, mostly intra-domain.

use crate::builder::GraphBuilder;
use crate::digraph::DiGraph;
use crate::types::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the site-template model.
#[derive(Clone, Copy, Debug)]
pub struct CopyingParams {
    /// Number of pages.
    pub nodes: usize,
    /// Target average in-degree.
    pub avg_in_degree: usize,
    /// Mean pages per site (geometric-ish site sizes).
    pub site_mean: usize,
    /// Fraction of each in-set copied from a same-site sibling (the
    /// template block).
    pub template_frac: f64,
    /// Probability a fresh in-link comes from the page's own domain.
    pub intra_domain_prob: f64,
    /// Fraction of pages in domain 0.
    pub domain_split: f64,
}

impl CopyingParams {
    /// Defaults matched to BERKSTAN's statistics (avg degree ≈ 11.1) and
    /// its measured sharing behaviour (the paper's 4.6× OIP speedup implies
    /// roughly 3/4 of partial-sum additions shared).
    pub fn berkstan_like(nodes: usize) -> Self {
        CopyingParams {
            nodes,
            avg_in_degree: 11,
            site_mean: 24,
            template_frac: 0.92,
            intra_domain_prob: 0.9,
            domain_split: 0.5,
        }
    }
}

/// Samples a site-template web graph.
// Site assignment iterates contiguous id ranges directly; an iterator chain
// would obscure the range semantics.
#[allow(clippy::needless_range_loop)]
pub fn copying_web_graph(params: CopyingParams, seed: u64) -> DiGraph {
    let n = params.nodes;
    assert!(n >= 8, "site-template model needs at least eight pages");
    assert!((0.0..=1.0).contains(&params.template_frac));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_edge_capacity(n, n * params.avg_in_degree);

    // Assign contiguous id ranges to sites (as crawls do).
    let mut site_of = vec![0u32; n];
    {
        let mut v = 0usize;
        let mut site = 0u32;
        while v < n {
            let size = 2 + rng.gen_range(0..params.site_mean.max(2) * 2 - 2);
            for u in v..(v + size).min(n) {
                site_of[u] = site;
            }
            v += size;
            site += 1;
        }
    }
    let domain_of = |v: usize| -> u8 { u8::from((v as f64) >= params.domain_split * n as f64) };

    // In-sets retained during generation for sibling copying.
    let mut in_sets: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut last_of_site: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut scratch: Vec<NodeId> = Vec::with_capacity(params.avg_in_degree * 2);
    for v in 0..n {
        // Degree jitter around the mean keeps the crawl-like variance.
        let d = (params.avg_in_degree as i64 + rng.gen_range(-3i64..=3)).max(1) as usize;
        scratch.clear();
        // Template block: copy a contiguous run of a same-site sibling.
        if let Some(&sib) = last_of_site.get(&site_of[v]) {
            let proto = &in_sets[sib];
            let want = ((params.template_frac * d as f64).round() as usize).min(proto.len());
            if want > 0 {
                let start = rng.gen_range(0..=(proto.len() - want));
                for &x in &proto[start..start + want] {
                    if x as usize != v && !scratch.contains(&x) {
                        scratch.push(x);
                    }
                }
            }
        }
        // Fresh links: mostly intra-domain, uniform over all pages (hubs,
        // directories, cross-site links).
        let mut guard = 0;
        while scratch.len() < d.min(n - 1) && guard < 200 * d {
            guard += 1;
            let x = rng.gen_range(0..n);
            if x == v {
                continue;
            }
            let same = domain_of(x) == domain_of(v);
            if same != (rng.gen::<f64>() < params.intra_domain_prob) {
                continue;
            }
            let x = x as NodeId;
            if !scratch.contains(&x) {
                scratch.push(x);
            }
        }
        for &x in &scratch {
            builder.add_edge(x, v as NodeId);
        }
        scratch.sort_unstable();
        in_sets[v] = scratch.clone();
        last_of_site.insert(site_of[v], v);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn deterministic() {
        let p = CopyingParams::berkstan_like(200);
        assert_eq!(copying_web_graph(p, 3), copying_web_graph(p, 3));
    }

    #[test]
    fn hits_target_degree() {
        let p = CopyingParams::berkstan_like(600);
        let g = copying_web_graph(p, 1);
        let s = DegreeStats::of(&g);
        assert!(
            (s.avg_degree - 11.0).abs() < 1.5,
            "avg degree {} should be near 11",
            s.avg_degree
        );
    }

    #[test]
    fn site_templates_create_in_set_overlap() {
        // Same-site neighbors must share most of their in-sets; the graph
        // overall must beat G(n, m) overlap at equal density by a wide
        // margin.
        let n = 400;
        let g = copying_web_graph(CopyingParams::berkstan_like(n), 7);
        let gnm_g = crate::gen::gnm(n, g.edge_count(), 7);
        let avg_best_symdiff = |g: &DiGraph| -> f64 {
            let mut total = 0usize;
            let mut count = 0usize;
            for v in 1..n as NodeId {
                let sv = g.in_neighbors(v);
                if sv.is_empty() {
                    continue;
                }
                let best = (0..v)
                    .filter(|&u| !g.in_neighbors(u).is_empty())
                    .map(|u| {
                        let su = g.in_neighbors(u);
                        su.len() + sv.len()
                            - 2 * su.iter().filter(|x| sv.binary_search(x).is_ok()).count()
                    })
                    .min()
                    .unwrap_or(sv.len());
                total += best.min(sv.len() - 1);
                count += 1;
            }
            total as f64 / count as f64
        };
        let ours = avg_best_symdiff(&g);
        let random = avg_best_symdiff(&gnm_g);
        assert!(
            ours < 0.5 * random,
            "template overlap should halve transition costs: {ours} vs {random}"
        );
    }

    #[test]
    fn two_domains_mostly_separate() {
        let n = 400;
        let g = copying_web_graph(CopyingParams::berkstan_like(n), 2);
        let cross = g
            .edges()
            .filter(|&(u, v)| {
                (u as usize) < n / 2 && (v as usize) >= n / 2
                    || (u as usize) >= n / 2 && (v as usize) < n / 2
            })
            .count();
        assert!(
            (cross as f64) < 0.3 * g.edge_count() as f64,
            "cross-domain edges should be the minority: {cross}/{}",
            g.edge_count()
        );
    }
}
