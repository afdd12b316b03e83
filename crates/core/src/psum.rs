//! `psum-SR` — SimRank with partial sums memoization (Lizorkin et al.,
//! PVLDB'08), the state of the art the paper improves on.
//!
//! Implements two of the three optimizations of that work:
//! 1. *partial sums memoization* (Eq. 4/5): `Partial_{I(a)}(·)` computed
//!    once per source and reused across all targets — `O(K·d·n²)` total.
//!    The outer accumulation runs over the **triangular pair set** only
//!    (`b > a`; SimRank is symmetric);
//! 2. *threshold-sieved similarities* (scores below `δ` clamped to zero).
//!
//! The third, *essential node-pair selection*, is left out. It skips
//! pairs in different weakly connected components, but those scores are
//! already exactly `0.0` here: `S₀ = I` has no cross-component entry and
//! every update sums only cross-component entries of the previous
//! iterate. The filter changes no score, saves work only on disconnected
//! graphs, and `OIP-SR` does not apply it, so the two algorithms compare
//! on the same pair set.
//!
//! This module supplies one sweep; the shared iteration driver runs the
//! iteration around it, including the sieve and the mirror pass.
//!
//! Crucially, each source's partial sum is computed **from scratch** — the
//! redundancy across overlapping in-neighbor sets that `OIP-SR` eliminates.

use crate::grid::ScoreGrid;
use crate::instrument::Report;
use crate::iterate::{iterate, Kernel, Start, Stop};
use crate::matrix::SimMatrix;
use crate::options::SimRankOptions;
use simrank_graph::{DiGraph, NodeId};
use simrank_par as par;

/// All-pairs SimRank via partial sums memoization.
pub fn psum_simrank(g: &DiGraph, opts: &SimRankOptions) -> SimMatrix {
    psum_simrank_with_report(g, opts).0
}

/// As [`psum_simrank`], also returning instrumentation.
pub fn psum_simrank_with_report(g: &DiGraph, opts: &SimRankOptions) -> (SimMatrix, Report) {
    let n = g.node_count();
    let mut kernel = PsumKernel::new(g, opts);
    let (grid, report) = iterate(
        n,
        opts.threshold,
        &mut kernel,
        Start::Identity,
        Stop::Fixed(opts.conventional_iterations()),
        |_, _| {},
    );
    let report = Report {
        peak_intermediate_bytes: kernel.state_bytes(),
        ..report
    };
    (grid.to_sim_matrix(), report)
}

/// One psum-SR sweep over the ascending target list, sharded by weighted
/// target block. The cold [`psum_simrank_with_report`] run and the warm
/// [`crate::dynamic`] resweep both run it.
pub(crate) struct PsumKernel<'a> {
    g: &'a DiGraph,
    c: f64,
    workers: usize,
    /// Vertices with in-edges, ascending.
    targets: Vec<NodeId>,
    target_blocks: Vec<std::ops::Range<usize>>,
    /// Memoization buffers for `Partial_{I(a)}(·)`: one flat
    /// `blocks × n` arena allocated once for the whole run, with each
    /// block claiming its own row through a `RowWriter`.
    partials_flat: Vec<f64>,
}

impl<'a> PsumKernel<'a> {
    pub(crate) fn new(g: &'a DiGraph, opts: &SimRankOptions) -> Self {
        let n = g.node_count();
        let targets: Vec<NodeId> = g.nodes_with_in_edges();
        // Each source's partial-sum chain is independent: shard the
        // (sorted) target list into contiguous blocks. `targets` ascend,
        // so a block of target indices maps to a contiguous band of output
        // rows — the grid splits safely with no locks on the hot path. The
        // outer loop is *triangular* (source `a` only visits targets
        // `b > a`), so blocks are carved by work weight — memoization
        // `(d_a − 1)·n` plus the shrinking outer suffix `Σ_{b>a} (d_b − 1)`
        // — not by equal length.
        let workers = par::effective_workers(opts.threads, targets.len());
        let mut target_weights = vec![0usize; targets.len()];
        let mut suffix_outer = 0usize;
        for i in (0..targets.len()).rev() {
            let d = g.in_neighbors(targets[i]).len();
            // The globally-last target skips its memoization pass (no
            // b > a consumers), so it carries no (d−1)·n term.
            let memo = if i + 1 == targets.len() {
                0
            } else {
                d.saturating_sub(1) * n
            };
            target_weights[i] = memo + suffix_outer + (targets.len() - i);
            suffix_outer += d.saturating_sub(1);
        }
        let target_blocks = par::weighted_blocks(&target_weights, workers);
        PsumKernel {
            g,
            c: opts.damping,
            workers,
            partials_flat: vec![0.0f64; target_blocks.len() * n],
            targets,
            target_blocks,
        }
    }

    /// Bytes of intermediate state: one `n`-vector of partial sums per
    /// target block, at most one block per worker.
    pub(crate) fn state_bytes(&self) -> usize {
        self.partials_flat.len() * std::mem::size_of::<f64>()
    }
}

impl Kernel for PsumKernel<'_> {
    fn workers(&self) -> usize {
        self.workers
    }

    /// Writes `next(a, b)` for every `b > a` with both in-sets non-empty.
    fn assigns(&self) -> bool {
        true
    }

    fn sweep(
        &mut self,
        pool: &mut par::WorkerPool<'_>,
        items: &mut Vec<usize>,
        cur: &ScoreGrid,
        next: &mut ScoreGrid,
    ) -> u64 {
        let (g, c) = (self.g, self.c);
        let (targets, target_blocks) = (&self.targets, &self.target_blocks);
        let n = g.node_count();
        let writer = par::RowWriter::new(next.data_mut(), n);
        let scratch = par::RowWriter::new(&mut self.partials_flat, n);
        items.extend(0..target_blocks.len());
        pool.sweep_drain(items, |bi, counter| {
            let block = target_blocks[bi].clone();
            // SAFETY: scratch row `bi` belongs to this block alone.
            let partial = unsafe { scratch.row_mut(bi) };
            for (idx, &a) in targets.iter().enumerate().take(block.end).skip(block.start) {
                if idx + 1 == targets.len() {
                    // No targets b > a remain: the partial sum would
                    // have zero consumers, so skip the whole
                    // memoization pass (its row is mirror-filled).
                    continue;
                }
                let ins_a = g.in_neighbors(a);
                // Memoize Partial_{I(a)}(y) for all y (Eq. 4), from scratch.
                partial.fill(0.0);
                for &x in ins_a {
                    cur.add_row_into(x as usize, partial);
                }
                counter.add((ins_a.len() as u64).saturating_sub(1) * n as u64);
                let da = ins_a.len() as f64;
                // SAFETY: `targets` ascend, so the target ids inside a
                // block form disjoint row sets across blocks.
                let row = unsafe { writer.row_mut(a as usize) };
                // Triangular outer accumulation: `targets` ascend, so
                // the suffix after `idx` is exactly the pair set b > a.
                for &b in &targets[idx + 1..] {
                    let ins_b = g.in_neighbors(b);
                    // Outer sum (Eq. 5) as one lane-chunked gather
                    // over I(b) — fixed association, thread-invariant.
                    let sum = par::kernel::gather_sum(partial, ins_b);
                    counter.add((ins_b.len() as u64).saturating_sub(1));
                    row[b as usize] = c / (da * ins_b.len() as f64) * sum;
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_simrank;
    use simrank_graph::fixtures::{paper_fig1a, two_triangles};

    #[test]
    fn matches_naive_on_fixture() {
        let g = paper_fig1a();
        for k in [1u32, 2, 5, 10] {
            let opts = SimRankOptions::default().with_iterations(k);
            let a = naive_simrank(&g, &opts).0;
            let b = psum_simrank(&g, &opts);
            assert!(
                a.max_abs_diff(&b) < 1e-12,
                "psum diverges from naive at K={k}: {}",
                a.max_abs_diff(&b)
            );
        }
    }

    #[test]
    fn matches_naive_with_damping_sweep() {
        let g = paper_fig1a();
        for &c in &[0.2, 0.4, 0.6, 0.8, 0.95] {
            let opts = SimRankOptions::default().with_damping(c).with_iterations(6);
            let a = naive_simrank(&g, &opts).0;
            let b = psum_simrank(&g, &opts);
            assert!(a.max_abs_diff(&b) < 1e-12, "C={c}");
        }
    }

    #[test]
    fn cross_component_scores_are_exactly_zero() {
        // Two disjoint triangles: no essential-pair filter is needed, the
        // iteration itself keeps every cross-component score at 0.0.
        let g = two_triangles();
        let s = psum_simrank(&g, &SimRankOptions::default().with_iterations(8));
        for a in 0..3 {
            for b in 3..6 {
                assert_eq!(s.get(a, b), 0.0, "({a},{b})");
            }
        }
    }

    #[test]
    fn threshold_zeroes_small_entries() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default()
            .with_iterations(5)
            .with_threshold(0.1);
        let s = psum_simrank(&g, &opts);
        for (a, b, v) in s.iter_upper() {
            assert!(v == 0.0 || v >= 0.1 || a == b);
        }
    }

    #[test]
    fn degenerate_target_sets_never_underflow_counters() {
        // Regression for the `(len - 1) * n` counter arithmetic: when the
        // target set degenerates (no vertex has in-edges, or a single
        // vertex does), a `0 - 1` in `u64` would wrap to ~2^64 and poison
        // `Report::adds`. All sweeps must report exact small counts.
        use crate::oip::oip_simrank_with_report;
        use crate::prank::{prank, PRankOptions};
        let opts = SimRankOptions::default().with_iterations(3);
        // Edgeless: target set is empty.
        let empty = simrank_graph::DiGraph::from_edges(4, []).unwrap();
        // One self-loop: a single target whose only in-neighbor is itself.
        let loop_only = simrank_graph::DiGraph::from_edges(3, [(1, 1)]).unwrap();
        for g in [&empty, &loop_only] {
            for (name, adds) in [
                ("psum", psum_simrank_with_report(g, &opts).1.adds),
                ("naive", naive_simrank(g, &opts).1.adds),
                ("oip", oip_simrank_with_report(g, &opts).1.adds),
                (
                    "prank",
                    prank(
                        g,
                        &PRankOptions {
                            base: opts,
                            lambda: 0.5,
                        },
                    )
                    .1
                    .adds,
                ),
            ] {
                assert!(
                    adds < 1_000,
                    "{name}: degenerate graph reported {adds} adds (counter wrapped?)"
                );
            }
        }
    }

    #[test]
    fn report_counts_match_complexity_model() {
        // For triangular psum-SR the additions per iteration are
        //   inner:  n·Σ_a (|I(a)|−1)  over every source *except the last*
        //           (its partial sum would have zero b > a consumers and
        //           is skipped outright),
        //   outer:  Σ_a Σ_{b>a} (|I(b)|−1)  (halved pair set).
        // Target b (ascending id, index i) is visited by exactly the i
        // sources before it, so outer = Σ_i i·(|I(b_i)|−1). On the fixture
        // (Σ(d−1)=11, n=9, last target degree 2) that is 90 + 25 = 115,
        // down from the full-square 99 + 55.
        let g = paper_fig1a();
        let (_, r) = psum_simrank_with_report(&g, &SimRankOptions::default().with_iterations(1));
        let targets = g.nodes_with_in_edges();
        let inner: u64 = targets[..targets.len() - 1]
            .iter()
            .map(|&t| 9 * (g.in_degree(t) as u64 - 1))
            .sum();
        let outer: u64 = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| i as u64 * (g.in_degree(t) as u64 - 1))
            .sum();
        assert_eq!(inner, 90);
        assert_eq!(outer, 25);
        assert_eq!(r.adds, inner + outer);
    }

    #[test]
    fn peak_memory_is_one_buffer_per_worker() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default().with_iterations(1).with_threads(1);
        let (_, r) = psum_simrank_with_report(&g, &opts);
        assert_eq!(r.peak_intermediate_bytes, 9 * 8);
        assert_eq!(r.workers, 1);
        // Two workers double the live memoization state (6 targets split 3+3).
        let (_, r2) = psum_simrank_with_report(&g, &opts.with_threads(2));
        assert_eq!(r2.peak_intermediate_bytes, 2 * 9 * 8);
        assert_eq!(r2.workers, 2);
        // ... but never the operation count: shards merge exactly.
        assert_eq!(r2.adds, r.adds);
    }
}
