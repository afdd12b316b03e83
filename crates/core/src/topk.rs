//! Single-source rankings and top-k queries over similarity scores.
//!
//! The paper's Fig. 6g/6h experiments issue single-source queries
//! (`s(a, ·)` for a query author) and compare top-k rankings between
//! algorithms. Ties are broken deterministically by vertex id so rankings
//! are reproducible across algorithms and runs.
//!
//! Two robustness properties hold on every entry point:
//!
//! * **Total order.** Scores are compared with [`f64::total_cmp`], never
//!   `partial_cmp().expect(..)` — a NaN smuggled in by a corrupted score
//!   file ranks *last* (after every finite score, ties still by ascending
//!   id) instead of panicking the query path.
//! * **Partial selection.** [`top_k_scores`] runs `select_nth_unstable_by` to
//!   isolate the `k` best candidates in `O(n)` and sorts only that prefix
//!   (`O(n + k log k)`), instead of fully sorting all `n` candidates —
//!   the output is pinned to the full-sort ranking by a property test.
//!
//! Both entry points rank one single-source score vector
//! (`scores[v] = s(query, v)`), as every
//! [`crate::query::QueryEngine::single_source`] produces it;
//! [`crate::query::QueryEngine::top_k`] is [`top_k_scores`] over that row.

use simrank_graph::NodeId;
use std::cmp::Ordering;

/// The ranking order every surface in the workspace shares — descending
/// score, NaN strictly last, ties broken by ascending vertex id. Total —
/// never panics, whatever the scores hold. [`crate::query::QueryEngine`]
/// implementations, the two rankings here, and the serving layer all
/// rank through this one comparator, so rankings agree bit-for-bit across
/// engine families even on exact score ties.
///
/// (`f64::total_cmp` alone would rank NaN with the sign bit clear *above*
/// `+∞` in a descending sort; the explicit NaN arm pins every NaN, either
/// sign, below every real score. `-0.0` and `+0.0` order deterministically
/// by `total_cmp`: `+0.0` first when descending.)
pub fn rank_order(a: &(NodeId, f64), b: &(NodeId, f64)) -> Ordering {
    match (a.1.is_nan(), b.1.is_nan()) {
        (false, false) => b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)),
        (a_nan, b_nan) => a_nan.cmp(&b_nan).then(a.0.cmp(&b.0)),
    }
}

/// All candidates for a query against a single-source score vector
/// (`scores[v] = s(query, v)`), unsorted.
fn slice_candidates(scores: &[f64], query: NodeId) -> Vec<(NodeId, f64)> {
    scores
        .iter()
        .enumerate()
        .map(|(v, &s)| (v as NodeId, s))
        .filter(|&(v, _)| v != query)
        .collect()
}

/// Sorts a full candidate list into ranking order.
fn rank_full(mut candidates: Vec<(NodeId, f64)>) -> Vec<(NodeId, f64)> {
    candidates.sort_unstable_by(rank_order);
    candidates
}

/// Keeps the `k` best candidates in ranking order without sorting the
/// rest: partial selection around the `k`-th element, then a sort of the
/// surviving prefix only.
fn rank_prefix(mut candidates: Vec<(NodeId, f64)>, k: usize) -> Vec<(NodeId, f64)> {
    if k == 0 {
        return Vec::new();
    }
    if k < candidates.len() {
        candidates.select_nth_unstable_by(k - 1, rank_order);
        candidates.truncate(k);
    }
    candidates.sort_unstable_by(rank_order);
    candidates
}

/// The full ranking of all other vertices by similarity to `query`,
/// descending, ties broken by ascending vertex id; NaN scores rank last
/// instead of panicking.
/// `scores[v] = s(query, v)` is one single-source row; the query vertex
/// is excluded when it lies inside the slice.
pub fn rank_scores(scores: &[f64], query: NodeId) -> Vec<(NodeId, f64)> {
    rank_full(slice_candidates(scores, query))
}

/// The `k` best entries of [`rank_scores`], found by partial selection:
/// `O(n + k log k)` instead of a full sort.
pub fn top_k_scores(scores: &[f64], query: NodeId, k: usize) -> Vec<(NodeId, f64)> {
    rank_prefix(slice_candidates(scores, query), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SimMatrix;
    use crate::query::QueryEngine;

    fn sample() -> SimMatrix {
        let mut m = SimMatrix::identity(5);
        m.set(0, 1, 0.9);
        m.set(0, 2, 0.5);
        m.set(0, 3, 0.9);
        m.set(0, 4, 0.1);
        m
    }

    fn ids(ranked: &[(NodeId, f64)]) -> Vec<NodeId> {
        ranked.iter().map(|&(v, _)| v).collect()
    }

    #[test]
    fn ranking_sorted_with_deterministic_ties() {
        let r = rank_scores(&sample().row(0), 0);
        // 1 and 3 tie at 0.9: lower id first.
        assert_eq!(ids(&r), vec![1, 3, 2, 4]);
    }

    #[test]
    fn query_vertex_excluded() {
        let r = rank_scores(&sample().row(0), 0);
        assert!(r.iter().all(|&(v, _)| v != 0));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn top_k_truncates() {
        let row = sample().row(0);
        assert_eq!(ids(&top_k_scores(&row, 0, 2)), vec![1, 3]);
        assert_eq!(top_k_scores(&row, 0, 100).len(), 4);
        assert!(top_k_scores(&row, 0, 0).is_empty());
    }

    #[test]
    fn symmetric_queries() {
        // Ranking from vertex 1's perspective sees s(1, 0) = 0.9.
        let r = rank_scores(&sample().row(1), 1);
        assert_eq!(r[0].0, 0);
        assert!((r[0].1 - 0.9).abs() < 1e-15);
    }

    #[test]
    fn nan_ranks_last_instead_of_panicking() {
        // A caller's score row can hand the ranking NaN (and -0.0):
        // regression for the old `partial_cmp().expect(..)` panic.
        let mut m = SimMatrix::identity(6);
        m.set(0, 1, f64::NAN);
        m.set(0, 2, 0.5);
        m.set(0, 3, -0.0);
        m.set(0, 4, 0.0);
        m.set(0, 5, f64::NAN);
        let row = m.row(0);
        let r = rank_scores(&row, 0);
        // Finite scores first (0.5, then +0.0 before -0.0 by total order),
        // NaNs last with ties by ascending id.
        assert_eq!(ids(&r), vec![2, 4, 3, 1, 5]);
        assert!(r[3].1.is_nan() && r[4].1.is_nan());
        // The partial-selection path agrees and never panics either.
        assert_eq!(ids(&top_k_scores(&row, 0, 3)), vec![2, 4, 3]);
        assert_eq!(ids(&top_k_scores(&row, 0, 5)), vec![2, 4, 3, 1, 5]);
    }

    #[test]
    fn slice_variants_match_matrix_variants() {
        // `QueryEngine::top_k` over a packed matrix is the slice ranking of
        // its row.
        let m = sample();
        let row = m.row(0);
        for k in 0..6 {
            assert_eq!(top_k_scores(&row, 0, k), m.top_k(0, k));
            assert_eq!(top_k_scores(&row, 0, k), rank_scores(&row, 0)[..k.min(4)]);
        }
        // A query id outside the slice excludes nothing.
        assert_eq!(rank_scores(&row, 99).len(), 5);
    }
    #[test]
    fn partial_selection_matches_full_sort() {
        // Dense tie plateaus + negative zero: the selection path must pin
        // the exact full-sort prefix for every k.
        let scores: Vec<f64> = (0..40)
            .map(|i| match i % 5 {
                0 => 0.25,
                1 => 0.75,
                2 => -0.0,
                3 => 0.0,
                _ => (i as f64) / 100.0,
            })
            .collect();
        let full = rank_scores(&scores, 7);
        for k in 0..=scores.len() + 1 {
            let got = top_k_scores(&scores, 7, k);
            assert_eq!(got, full[..k.min(full.len())].to_vec(), "k = {k}");
        }
    }
}
