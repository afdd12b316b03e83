//! Simulated stand-ins for the paper's evaluation datasets.
//!
//! The paper evaluates on BERKSTAN (685K-vertex web graph), PATENT (3.77M-
//! vertex citation network), four DBLP co-authorship snapshots, and
//! GTGraph-generated synthetic graphs. None of those downloads are
//! available offline — and the originals are too large for laptop-scale
//! all-pairs SimRank anyway — so this crate provides *scaled-down
//! generative stand-ins* that preserve the properties the experiments
//! actually exercise (degree level, DAG-ness, in-neighbor-set overlap,
//! growth series). Each dataset function below names the generator it uses
//! and what that generator preserves; the generators' own docs in
//! [`simrank_graph::gen`] give the model.
//!
//! Every dataset is deterministic in its `(scale, seed)` parameters.

use simrank_graph::{gen, DegreeStats, DiGraph};

/// Canonical seed so every figure harness sees identical graphs.
pub const DEFAULT_SEED: u64 = 20130408; // ICDE'13 week, why not

/// A named dataset instance with its statistics (the Fig. 5 table row).
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Display name (e.g. "BERKSTAN-sim").
    pub name: String,
    /// The graph itself.
    pub graph: DiGraph,
    /// Degree statistics (the paper's Fig. 5 columns).
    pub stats: DegreeStats,
}

impl Dataset {
    fn new(name: impl Into<String>, graph: DiGraph) -> Dataset {
        let stats = DegreeStats::of(&graph);
        Dataset {
            name: name.into(),
            graph,
            stats,
        }
    }
}

/// BERKSTAN-like web graph: linked-copying model, two domains, average
/// degree ≈ 11.1 (the real crawl's headline statistic). The copying
/// process yields heavily overlapping in-neighbor sets — the regime where
/// the paper reports its largest (4.6×) OIP speedup.
pub fn berkstan_like(nodes: usize, seed: u64) -> Dataset {
    let g = gen::copying_web_graph(gen::CopyingParams::berkstan_like(nodes), seed);
    Dataset::new("BERKSTAN-sim", g)
}

/// PATENT-like citation DAG: time-ordered, preferential + recency
/// citations, average degree ≈ 4.4.
pub fn patent_like(nodes: usize, seed: u64) -> Dataset {
    let g = gen::citation_dag(gen::CitationParams::patent_like(nodes), seed);
    Dataset::new("PATENT-sim", g)
}

/// The four DBLP snapshot labels used by the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DblpSnapshot {
    /// 2000–2002 window (paper: 5,982 authors).
    D02,
    /// through 2005 (9,342 authors).
    D05,
    /// through 2008 (13,736 authors).
    D08,
    /// through 2011 (19,371 authors).
    D11,
}

impl DblpSnapshot {
    /// All four snapshots in growth order.
    pub const ALL: [DblpSnapshot; 4] = [Self::D02, Self::D05, Self::D08, Self::D11];

    /// Author count of the real snapshot (Fig. 5).
    pub fn paper_authors(self) -> usize {
        match self {
            Self::D02 => 5_982,
            Self::D05 => 9_342,
            Self::D08 => 13_736,
            Self::D11 => 19_371,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Self::D02 => "D02",
            Self::D05 => "D05",
            Self::D08 => "D08",
            Self::D11 => "D11",
        }
    }

    /// Scaled author count: the real size divided by `scale_div`.
    pub fn scaled_authors(self, scale_div: usize) -> usize {
        (self.paper_authors() / scale_div).max(20)
    }
}

/// DBLP-like co-authorship snapshot at `1/scale_div` of the real size.
/// Because the generator is a seeded growth process, the four snapshots at
/// a fixed seed are nested prefixes of one collaboration history, like the
/// real D02 ⊂ D05 ⊂ D08 ⊂ D11.
pub fn dblp_like(snapshot: DblpSnapshot, scale_div: usize, seed: u64) -> Dataset {
    let authors = snapshot.scaled_authors(scale_div);
    let g = gen::coauthor_graph(gen::CoauthorParams::dblp_like(authors), seed);
    Dataset::new(format!("DBLP-sim {}", snapshot.label()), g)
}

/// SYN: the Fig. 6c density-sweep graph — `nodes` vertices at average
/// degree `d`, generated by the in-set copying model whose overlap knob is
/// matched to the share ratios GTGraph R-MAT exhibits at the paper's 300K
/// scale. Downscaled R-MAT itself loses that structure: its low-degree
/// in-sets stop colliding on the same hubs (see [`gen::rmat`]).
pub fn syn(nodes: usize, avg_degree: usize, seed: u64) -> Dataset {
    let g = gen::overlap_graph(gen::OverlapParams::syn(nodes, avg_degree), seed);
    Dataset::new(format!("SYN n={nodes} d={avg_degree}"), g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_graph::traversal;

    #[test]
    fn berkstan_degree_close_to_paper() {
        let d = berkstan_like(1000, DEFAULT_SEED);
        assert!(
            (d.stats.avg_degree - 11.1).abs() < 1.6,
            "avg {}",
            d.stats.avg_degree
        );
        assert_eq!(d.name, "BERKSTAN-sim");
    }

    #[test]
    fn patent_is_sparse_dag() {
        let d = patent_like(2000, DEFAULT_SEED);
        assert!(traversal::is_dag(&d.graph));
        assert!(
            (d.stats.avg_degree - 4.4).abs() < 1.0,
            "avg {}",
            d.stats.avg_degree
        );
    }

    #[test]
    fn dblp_sizes_grow_like_the_paper() {
        let sizes: Vec<usize> = DblpSnapshot::ALL
            .iter()
            .map(|&s| dblp_like(s, 8, DEFAULT_SEED).stats.nodes)
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "sizes {sizes:?}");
        // Relative proportions match the paper's table within 2%.
        let ratio_paper = 19_371.0 / 5_982.0;
        let ratio_ours = sizes[3] as f64 / sizes[0] as f64;
        assert!((ratio_ours - ratio_paper).abs() / ratio_paper < 0.02);
    }

    #[test]
    fn dblp_snapshots_nest() {
        let d02 = dblp_like(DblpSnapshot::D02, 16, DEFAULT_SEED);
        let d11 = dblp_like(DblpSnapshot::D11, 16, DEFAULT_SEED);
        let missing = d02
            .graph
            .edges()
            .filter(|&(u, v)| !d11.graph.has_edge(u, v))
            .count();
        assert!(missing <= 20, "snapshots diverged by {missing} edges");
    }

    #[test]
    fn syn_density_sweep_hits_targets() {
        for d in [10usize, 30, 50] {
            let ds = syn(400, d, DEFAULT_SEED);
            assert!(
                (ds.stats.avg_degree - d as f64).abs() < 1.0,
                "requested d={d}, got {}",
                ds.stats.avg_degree
            );
        }
    }

    #[test]
    fn roster_is_deterministic() {
        // The Fig. 5 roster: BERKSTAN, PATENT and the 4 DBLP snapshots.
        let roster = |seed| {
            let mut v = vec![
                berkstan_like(685_230 / 256, seed),
                patent_like(3_774_768 / 1024, seed),
            ];
            v.extend(DblpSnapshot::ALL.map(|snap| dblp_like(snap, 8, seed)));
            v
        };
        let (a, b) = (roster(DEFAULT_SEED), roster(DEFAULT_SEED));
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph);
        }
    }
}
