//! Naive iterative SimRank (Jeh & Widom, KDD'02).
//!
//! Direct evaluation of Eq. (2): for every **unordered** pair `(a, b)`,
//! `b > a`, sum `s_k(i, j)` over all `(i, j) ∈ I(a) × I(b)` — SimRank is
//! symmetric, so only the upper triangle is computed and the
//! shared iteration driver mirrors it down. `O(K·d²·n²/2)` time. This
//! is the correctness oracle for every optimized variant and the baseline
//! the paper's complexity ladder starts from.

use crate::grid::ScoreGrid;
use crate::instrument::Report;
use crate::iterate::{iterate, Kernel, Start, Stop};
use crate::matrix::SimMatrix;
use crate::options::SimRankOptions;
use simrank_graph::DiGraph;
use simrank_par as par;

/// All-pairs SimRank by the naive double-sum iteration, with its
/// instrumentation.
pub fn naive_simrank(g: &DiGraph, opts: &SimRankOptions) -> (SimMatrix, Report) {
    let (grid, report) = iterate(
        g.node_count(),
        opts.threshold,
        &mut NaiveKernel::new(g, opts),
        Start::Identity,
        Stop::Fixed(opts.conventional_iterations()),
        |_, _| {},
    );
    (grid.to_sim_matrix(), report)
}

/// The warm-start resweep of [`crate::dynamic::resweep_with_report`] on the
/// naive kernel: the same warm start, tolerance and sweep cap, with
/// Jeh–Widom sweeps in place of psum-SR sweeps. This is the reference the
/// tests compare the production resweep against, not a production path.
pub fn naive_resweep(g: &DiGraph, warm: &SimMatrix, opts: &SimRankOptions) -> (SimMatrix, Report) {
    crate::dynamic::warm_iterate(g, warm, opts, &mut NaiveKernel::new(g, opts))
}

/// The triangular Jeh–Widom sweep, shared verbatim by the cold
/// [`naive_simrank`] run and the warm [`naive_resweep`] oracle
/// so the two are the same arithmetic by construction.
pub(crate) struct NaiveKernel<'a> {
    g: &'a DiGraph,
    c: f64,
    workers: usize,
    /// Row blocks carved by [`sweep_row_weights`]; one sweep item each.
    row_blocks: Vec<std::ops::Range<usize>>,
}

impl<'a> NaiveKernel<'a> {
    pub(crate) fn new(g: &'a DiGraph, opts: &SimRankOptions) -> Self {
        let workers = par::effective_workers(opts.threads, g.node_count());
        NaiveKernel {
            g,
            c: opts.damping,
            workers,
            row_blocks: par::weighted_blocks(&sweep_row_weights(g), workers),
        }
    }
}

/// Per-row work profile of one triangular sweep, fed to
/// [`par::weighted_blocks`]. Rows are independent given the previous grid,
/// but the sweep is *triangular* — row `a` computes only targets `b > a`
/// (the mirror pass recovers the lower triangle) — so equal-length row
/// bands would starve the late workers; blocks are carved by per-row work
/// weight instead: `d_a · Σ_{b>a} d_b` pair arithmetic plus the `n − a`
/// target scan (weight 1 for in-isolated rows so every row lands in a
/// block).
fn sweep_row_weights(g: &DiGraph) -> Vec<usize> {
    let n = g.node_count();
    let mut row_weights = vec![0usize; n];
    let mut suffix_deg = 0usize;
    for a in (0..n).rev() {
        let d = g.in_neighbors(a as u32).len();
        row_weights[a] = if d == 0 { 1 } else { d * suffix_deg + (n - a) };
        suffix_deg += d;
    }
    row_weights
}

impl Kernel for NaiveKernel<'_> {
    fn workers(&self) -> usize {
        self.workers
    }

    fn assigns(&self) -> bool {
        true
    }

    /// Writes `next(a, b)` for every `b > a` with both in-sets non-empty.
    fn sweep(
        &mut self,
        pool: &mut par::WorkerPool<'_>,
        items: &mut Vec<usize>,
        cur: &ScoreGrid,
        next: &mut ScoreGrid,
    ) -> u64 {
        let (g, c, row_blocks) = (self.g, self.c, &self.row_blocks);
        let n = g.node_count();
        let writer = par::RowWriter::new(next.data_mut(), n);
        items.extend(0..row_blocks.len());
        pool.sweep_drain(items, |bi, counter| {
            for a in row_blocks[bi].clone() {
                let ins_a = g.in_neighbors(a as u32);
                if ins_a.is_empty() {
                    continue;
                }
                // SAFETY: blocks partition the row range, so row `a`
                // is claimed by exactly one item per sweep.
                let row_out = unsafe { writer.row_mut(a) };
                for b in a + 1..n {
                    let ins_b = g.in_neighbors(b as u32);
                    if ins_b.is_empty() {
                        continue;
                    }
                    // Lane-chunked gather over I(b), one I(a)-row at
                    // a time — association is fixed by the kernel, so
                    // the sum is identical on any worker count.
                    let mut sum = 0.0;
                    for &i in ins_a {
                        sum += par::kernel::gather_sum(cur.row(i as usize), ins_b);
                    }
                    counter.add(((ins_a.len() * ins_b.len()) as u64).saturating_sub(1));
                    row_out[b] = c / (ins_a.len() as f64 * ins_b.len() as f64) * sum;
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_graph::fixtures::paper_fig1a;
    use simrank_graph::DiGraph;

    #[test]
    fn base_cases() {
        // Two isolated vertices: identity similarity.
        let g = DiGraph::from_edges(2, []).unwrap();
        let s = naive_simrank(&g, &SimRankOptions::default().with_iterations(5)).0;
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), 0.0);
    }

    #[test]
    fn shared_parent_pair() {
        // 0 -> 1, 0 -> 2: s(1,2) = C/(1·1)·s(0,0) = C, fixed point after k≥1.
        let g = DiGraph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let opts = SimRankOptions::default()
            .with_damping(0.6)
            .with_iterations(3);
        let s = naive_simrank(&g, &opts).0;
        assert!((s.get(1, 2) - 0.6).abs() < 1e-12);
        assert_eq!(s.get(0, 1), 0.0);
    }

    #[test]
    fn scores_are_valid_similarities() {
        let g = paper_fig1a();
        let s = naive_simrank(&g, &SimRankOptions::default().with_iterations(10)).0;
        for a in 0..9 {
            assert_eq!(s.get(a, a), 1.0);
            for b in 0..9 {
                let v = s.get(a, b);
                assert!((0.0..=1.0).contains(&v), "s({a},{b}) = {v}");
                assert_eq!(v, s.get(b, a));
            }
        }
    }

    #[test]
    fn monotone_in_iterations() {
        // SimRank iterates are monotonically non-decreasing in k.
        let g = paper_fig1a();
        let s2 = naive_simrank(&g, &SimRankOptions::default().with_iterations(2)).0;
        let s5 = naive_simrank(&g, &SimRankOptions::default().with_iterations(5)).0;
        for a in 0..9 {
            for b in 0..9 {
                assert!(s5.get(a, b) >= s2.get(a, b) - 1e-12);
            }
        }
    }

    #[test]
    fn counts_pair_products() {
        let g = DiGraph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let (_, report) = naive_simrank(&g, &SimRankOptions::default().with_iterations(1));
        // The single unordered pair (1,2): |I|·|I| − 1 = 1·1 − 1 = 0 adds.
        assert_eq!(report.adds, 0);
        assert_eq!(report.iterations, 1);
    }

    #[test]
    fn report_counts_match_complexity_model() {
        // One iteration counts |I(a)|·|I(b)| − 1 adds exactly once per
        // *unordered* pair (b > a, both in-sets non-empty) — the halved
        // pair set of the triangular sweep.
        let g = paper_fig1a();
        let (_, r) = naive_simrank(&g, &SimRankOptions::default().with_iterations(1));
        let mut per_iter = 0u64;
        for a in 0..9u32 {
            for b in a + 1..9 {
                let (da, db) = (g.in_degree(a) as u64, g.in_degree(b) as u64);
                if da > 0 && db > 0 {
                    per_iter += da * db - 1;
                }
            }
        }
        assert_eq!(r.adds, per_iter);
        // Over several iterations the model scales linearly.
        let (_, r3) = naive_simrank(&g, &SimRankOptions::default().with_iterations(3));
        assert_eq!(r3.adds, 3 * per_iter);
    }
}
