//! Fig. 6h — the top-30 co-author list, OIP-DSR vs OIP-SR.
//!
//! The paper lists the top-30 co-authors of "Jeffrey Xu Yu" under OIP-DSR
//! and observes the OIP-SR list "merely differs in one inversion at two
//! adjacent positions (#23, #24)". Our stand-in queries the most prolific
//! simulated author and reports both lists with the inversion counts.

use crate::scale::Scale;
use crate::table::Table;
use simrank_core::query::QueryEngine;
use simrank_core::{dsr, oip, SimRankOptions};
use simrank_eval::{adjacent_inversions, kendall_tau_distance, top_k_overlap};
use simrank_graph::{gen, NodeId};

/// The comparison result.
#[derive(Clone, Debug)]
pub struct Fig6h {
    /// Query vertex (most prolific author).
    pub query: NodeId,
    /// Top-30 ids under OIP-DSR.
    pub dsr_top: Vec<NodeId>,
    /// Top-30 ids under OIP-SR.
    pub oip_top: Vec<NodeId>,
    /// Overlap fraction of the two lists.
    pub overlap: f64,
    /// Adjacent-position inversions between them.
    pub adjacent_inv: usize,
    /// Full Kendall tau distance between them (max `C(30,2) = 435`).
    pub tau_distance: usize,
    /// Kendall τ-b between the two *score vectors* over the union of both
    /// top-30 lists — robust to the near-tie reordering that a flat
    /// synthetic score profile produces (see EXPERIMENTS.md).
    pub score_tau: f64,
    /// Score range of the OIP-SR top-30 (`s_1 − s_30`), quantifying how
    /// separated the ranking is.
    pub score_spread: f64,
}

/// Scores of `ids` against `query`, read through one whole-row
/// [`QueryEngine::single_source`] pass rather than per-id point lookups.
fn union_scores(s: &dyn QueryEngine, query: NodeId, ids: &[NodeId]) -> Vec<f64> {
    let row = s.single_source(query);
    ids.iter().map(|&v| row[v as usize]).collect()
}

/// Runs the top-30 comparison (C = 0.6, ε = 1e-3, DBLP-d11-like).
pub fn run(scale: Scale, seed: u64) -> Fig6h {
    let n = scale.convergence_nodes();
    let g = gen::coauthor_graph(gen::CoauthorParams::dblp_like(n), seed);
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-3);
    let query = g
        .nodes()
        .max_by_key(|&v| (g.in_degree(v), std::cmp::Reverse(v)))
        .expect("non-empty graph");
    // The ranking and evaluation below only need the uniform
    // `QueryEngine` surface, so they run identically over any backend.
    let s_dsr: &dyn QueryEngine = &dsr::oip_dsr_simrank(&g, &opts).0;
    let s_oip: &dyn QueryEngine = &oip::oip_simrank(&g, &opts);
    let dsr_ranked = s_dsr.top_k(query, 30);
    let oip_ranked = s_oip.top_k(query, 30);
    let dsr_top: Vec<NodeId> = dsr_ranked.iter().map(|&(v, _)| v).collect();
    let oip_top: Vec<NodeId> = oip_ranked.iter().map(|&(v, _)| v).collect();
    // Score correlation over the union of both lists.
    let mut union: Vec<NodeId> = dsr_top.iter().chain(&oip_top).copied().collect();
    union.sort_unstable();
    union.dedup();
    let dsr_scores = union_scores(s_dsr, query, &union);
    let oip_scores = union_scores(s_oip, query, &union);
    let score_spread = oip_ranked.first().map(|p| p.1).unwrap_or(0.0)
        - oip_ranked.last().map(|p| p.1).unwrap_or(0.0);
    Fig6h {
        query,
        overlap: top_k_overlap(&dsr_top, &oip_top),
        adjacent_inv: adjacent_inversions(&dsr_top, &oip_top),
        tau_distance: kendall_tau_distance(&dsr_top, &oip_top),
        score_tau: simrank_eval::kendall_tau(&dsr_scores, &oip_scores),
        score_spread,
        dsr_top,
        oip_top,
    }
}

/// Renders the side-by-side lists (synthetic author labels).
pub fn render(fig: &Fig6h) -> String {
    let mut t = Table::new(&["#", "OIP-DSR", "OIP-SR", "same?"]);
    for i in 0..fig.dsr_top.len().max(fig.oip_top.len()) {
        let d = fig.dsr_top.get(i);
        let o = fig.oip_top.get(i);
        t.row(vec![
            (i + 1).to_string(),
            d.map(|v| format!("author_{v:05}")).unwrap_or_default(),
            o.map(|v| format!("author_{v:05}")).unwrap_or_default(),
            if d == o { "".into() } else { "◄".into() },
        ]);
    }
    format!(
        "Fig. 6h — top-30 co-authors of author_{:05} (most prolific)\n{t}\
         overlap {:.2} | adjacent inversions {} | Kendall tau distance {} | \
         score tau {:.3} | top-30 score spread {:.4}\n",
        fig.query, fig.overlap, fig.adjacent_inv, fig.tau_distance, fig.score_tau, fig.score_spread
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_nearly_identical() {
        // The paper's single-query anecdote on real DBLP sees exactly one
        // adjacent inversion. Our synthetic stand-in has a much flatter
        // top-30 score profile (spread < 0.05 vs the paper's well-separated
        // co-author scores), so near-ties reorder more freely; the robust
        // reproduction targets are high membership overlap and strongly
        // correlated score vectors. EXPERIMENTS.md discusses the gap.
        let fig = run(Scale::Quick, 9);
        assert_eq!(fig.dsr_top.len(), 30);
        assert!(fig.overlap >= 0.8, "overlap {}", fig.overlap);
        assert!(fig.score_tau >= 0.55, "score tau {}", fig.score_tau);
        // Pairwise order agreement stays above ~77% (435 possible pairs).
        assert!(fig.tau_distance <= 100, "tau distance {}", fig.tau_distance);
    }

    #[test]
    fn render_is_a_30_row_table() {
        let fig = run(Scale::Quick, 9);
        let s = render(&fig);
        assert!(s.contains("30"));
        assert!(s.lines().count() >= 32);
    }
}
