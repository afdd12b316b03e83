//! Fig. 6g — relative order: NDCG of OIP-DSR vs OIP-SR rankings.
//!
//! The paper issues three author queries on DBLP D11 and reports
//! NDCG@{10, 30, 50} against human-judged ground truth. No human
//! judgments exist for the simulated DBLP graph, so the substitute
//! ground truth is the converged *conventional* SimRank
//! ranking (residual < 1e-8), graded by ground-truth rank bands, exactly
//! testing the claim that both algorithms — and especially the modified
//! damping of OIP-DSR — preserve conventional SimRank's relative order.
//! Queries = the three highest-degree authors (the paper queries three
//! prolific authors). Expected shape: NDCG@10 ≈ 1.0; NDCG@{30,50} ≥ ~0.85
//! with OIP-DSR within ~1% of OIP-SR.

use crate::scale::Scale;
use crate::table::Table;
use simrank_core::query::QueryEngine;
use simrank_core::{convergence, dsr, oip, topk, SimRankOptions};
use simrank_eval::ndcg_at;
use simrank_graph::{gen, NodeId};

/// NDCG of both algorithms at one cutoff, averaged over the queries.
#[derive(Clone, Debug)]
pub struct NdcgPoint {
    /// Cutoff p.
    pub p: usize,
    /// Average NDCG@p of OIP-DSR.
    pub oip_dsr: f64,
    /// Average NDCG@p of OIP-SR.
    pub oip_sr: f64,
}

/// Grades a candidate by its ground-truth rank, mirroring the paper's
/// graded-relevance setup: top-10 → 4, top-20 → 3, top-30 → 2, top-50 → 1.
pub fn grade_for_rank(rank: usize) -> f64 {
    match rank {
        0..=9 => 4.0,
        10..=19 => 3.0,
        20..=29 => 2.0,
        30..=49 => 1.0,
        _ => 0.0,
    }
}

/// Runs the NDCG comparison on a DBLP-d11-like graph (C = 0.6, ε = 1e-3 for
/// the evaluated algorithms).
pub fn run(scale: Scale, seed: u64) -> Vec<NdcgPoint> {
    let n = scale.convergence_nodes();
    let g = gen::coauthor_graph(gen::CoauthorParams::dblp_like(n), seed);
    let c = 0.6;
    let opts = SimRankOptions::default().with_damping(c).with_epsilon(1e-3);

    // Ground truth: converged conventional SimRank. Everything below
    // reads scores only through the `QueryEngine` surface, so the
    // evaluation is backend-agnostic.
    let k_ref = convergence::geometric_iterations(c, 1e-8);
    let truth: &dyn QueryEngine = &oip::oip_simrank(&g, &opts.with_iterations(k_ref));

    // Evaluated rankings at the working accuracy.
    let s_oip: &dyn QueryEngine = &oip::oip_simrank(&g, &opts);
    let s_dsr: &dyn QueryEngine = &dsr::oip_dsr_simrank(&g, &opts).0;

    // Queries: three most prolific authors.
    let mut by_degree: Vec<NodeId> = g.nodes().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.in_degree(v)));
    let queries = &by_degree[..3.min(by_degree.len())];

    [10usize, 30, 50]
        .into_iter()
        .map(|p| {
            let mut acc_dsr = 0.0;
            let mut acc_oip = 0.0;
            for &q in queries {
                // Ground-truth rank position of every candidate.
                let truth_rank = topk::rank_scores(&truth.single_source(q), q);
                let rank_of = |v: NodeId| -> usize {
                    truth_rank
                        .iter()
                        .position(|&(x, _)| x == v)
                        .unwrap_or(usize::MAX)
                };
                let grade = |v: NodeId| grade_for_rank(rank_of(v));
                let ids = |s: &dyn QueryEngine| -> Vec<NodeId> {
                    s.top_k(q, p).into_iter().map(|(v, _)| v).collect()
                };
                let ids_dsr = ids(s_dsr);
                let ids_oip = ids(s_oip);
                acc_dsr += ndcg_at(&ids_dsr, grade, p);
                acc_oip += ndcg_at(&ids_oip, grade, p);
            }
            NdcgPoint {
                p,
                oip_dsr: acc_dsr / queries.len() as f64,
                oip_sr: acc_oip / queries.len() as f64,
            }
        })
        .collect()
}

/// Renders the comparison.
pub fn render(points: &[NdcgPoint]) -> String {
    let mut t = Table::new(&["p", "OIP-DSR NDCG_p", "OIP-SR NDCG_p", "gap"]);
    for pt in points {
        t.row(vec![
            pt.p.to_string(),
            format!("{:.3}", pt.oip_dsr),
            format!("{:.3}", pt.oip_sr),
            format!("{:+.3}", pt.oip_dsr - pt.oip_sr),
        ]);
    }
    format!("Fig. 6g — relative order (NDCG vs converged SimRank, 3 queries)\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grading_bands() {
        assert_eq!(grade_for_rank(0), 4.0);
        assert_eq!(grade_for_rank(9), 4.0);
        assert_eq!(grade_for_rank(10), 3.0);
        assert_eq!(grade_for_rank(29), 2.0);
        assert_eq!(grade_for_rank(49), 1.0);
        assert_eq!(grade_for_rank(50), 0.0);
    }

    #[test]
    fn ndcg_shape_matches_paper() {
        let points = run(Scale::Quick, 11);
        assert_eq!(points.len(), 3);
        // Top-10: both essentially perfect (paper: identical top-10 lists).
        assert!(
            points[0].oip_dsr > 0.95,
            "NDCG@10 dsr = {}",
            points[0].oip_dsr
        );
        assert!(points[0].oip_sr > 0.95);
        // Deeper cutoffs: both high, DSR within a few percent of OIP-SR.
        for pt in &points {
            assert!(pt.oip_dsr > 0.8, "NDCG@{} dsr = {}", pt.p, pt.oip_dsr);
            assert!(pt.oip_sr > 0.8);
            assert!(
                (pt.oip_dsr - pt.oip_sr).abs() < 0.08,
                "NDCG gap too wide at p={}: {} vs {}",
                pt.p,
                pt.oip_dsr,
                pt.oip_sr
            );
        }
    }
}
