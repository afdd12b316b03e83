//! The one dense all-pairs iteration driver.
//!
//! Every dense sweep in this crate is the same ping-pong loop around one
//! of two per-sweep kernels: the Jeh–Widom kernel of [`crate::naive`],
//! and the OIP engine behind [`crate::oip`], [`crate::dsr`],
//! [`crate::prank`], [`crate::psum`] (on its flat plan) and the warm
//! [`crate::dynamic`] resweep. [`iterate`] owns
//! that loop: the two grids and their start state, the single
//! [`WorkerPool`] for the whole run, the hoisted sweep-item queue, exact
//! op-count merging, the stop rule, the per-iteration hook, and the shared
//! part of the [`Report`]. A [`Kernel`] only computes one sweep's upper
//! triangle.
//!
//! Each sweep runs the same steps in the same order:
//!
//! 1. `next.clear_upper()` zeroes the pairs `b ≥ a`, except that a kernel
//!    which [`Kernel::assigns`] overwrites every pair it owns and no other,
//!    so only the start grid (`next` at sweep 2) needs it. Strictly-lower
//!    entries stay stale until step 5, and nothing reads them before;
//! 2. the kernel writes the pairs `b > a` of `next` (and `b = a` when it
//!    does not pin the diagonal) from the full rows of `cur`. It may also
//!    write a pinned diagonal and strictly-lower entries: steps 4 and 5
//!    overwrite both;
//! 3. the threshold sieve (when `threshold` is set) zeroes every
//!    upper-triangle score below `δ`, as Lizorkin et al. define it on the
//!    finished score;
//! 4. pinned-diagonal kernels set `s(a, a) = 1` (Eq. 2);
//! 5. the bandwidth-only mirror pass copies the upper triangle down, so
//!    the next sweep reads whole contiguous rows;
//! 6. the grids swap, and `after_each(k, S_k)` runs.
//!
//! Under [`Stop::Residual`] the driver stops after the first sweep whose
//! `max |S_{k+1} − S_k|` over the upper triangle (`b ≥ a`) is at most
//! `tol`, or after `cap` sweeps. Both grids are exact mirrors by then, so
//! the upper-triangle maximum is the full-square one.
//!
//! The sieve and the pin touch each entry independently and the mirror is
//! a pure copy, so none of them depends on the pool width: a kernel that
//! is bit-for-bit thread invariant stays so under the driver.

use crate::grid::ScoreGrid;
use crate::instrument::{PhaseTimer, Report};
use crate::matrix::SimMatrix;
use simrank_par::{OpCounter, WorkerPool};

/// The grid the first sweep reads.
pub(crate) enum Start<'a> {
    /// A cold run from `S₀ = I`.
    Identity,
    /// A warm resweep from previously converged scores.
    Warm(&'a SimMatrix),
}

/// When the driver stops sweeping.
pub(crate) enum Stop {
    /// Exactly this many sweeps.
    Fixed(u32),
    /// Until consecutive iterates differ by at most `tol` in the max norm,
    /// but never more than `cap` sweeps.
    Residual {
        /// Stopping tolerance on `max |S_{k+1} − S_k|`.
        tol: f64,
        /// Sweep cap.
        cap: u32,
    },
}

/// One dense sweep `next ← F(cur)`, called once per iteration. The row
/// and segment bodies inside stay monomorphic; only this call is dynamic.
pub(crate) trait Kernel {
    /// The pool width the kernel balanced its shards for.
    fn workers(&self) -> usize;

    /// Whether the driver pins `s(a, a) = 1` after each sweep. Kernels that
    /// do not pin write the diagonal themselves.
    fn pins_diagonal(&self) -> bool {
        true
    }

    /// Whether each sweep assigns (`=`, not `+=`) the same upper pairs, so
    /// the driver clears `next` only until each grid has been written once.
    fn assigns(&self) -> bool {
        false
    }

    /// Writes the upper triangle of `next` from the full rows of `cur`,
    /// draining the sweep items it pushes onto the (empty) `items` queue,
    /// and returns the merged add count. It never reads `next`'s
    /// strictly-lower entries or a pinned diagonal, and may write them:
    /// the mirror pass and the pin overwrite both.
    fn sweep(
        &mut self,
        pool: &mut WorkerPool<'_>,
        items: &mut Vec<usize>,
        cur: &ScoreGrid,
        next: &mut ScoreGrid,
    ) -> u64;
}

/// Runs `kernel` over order-`n` grids from `start` until `stop`, calling
/// `after_each(k, S_k)` after sweep `k = 1, 2, …`.
///
/// Returns the final grid (full square) and a [`Report`] with
/// `iterations`, `adds`, `share_sums` and `workers` filled in; callers add
/// their kernel-specific fields.
pub(crate) fn iterate(
    n: usize,
    threshold: Option<f64>,
    kernel: &mut dyn Kernel,
    start: Start<'_>,
    stop: Stop,
    mut after_each: impl FnMut(u32, &ScoreGrid),
) -> (ScoreGrid, Report) {
    let mut timer = PhaseTimer::start();
    let mut cur = match start {
        Start::Identity => ScoreGrid::identity(n),
        Start::Warm(scores) => {
            assert_eq!(
                scores.order(),
                n,
                "warm-start store order must match the (mutated) graph"
            );
            let mut grid = ScoreGrid::zeros(n);
            for a in 0..n {
                scores.copy_row_into(a, grid.row_mut(a));
            }
            grid
        }
    };
    let mut next = ScoreGrid::zeros(n);
    let (cap, tol) = match stop {
        Stop::Fixed(k) => (k, None),
        Stop::Residual { tol, cap } => (cap, Some(tol)),
    };
    let workers = kernel.workers();
    let mut counter = OpCounter::new();
    // Sweep items are recycled through `sweep_drain`, so the queue buffer
    // is allocated once for the whole run.
    let mut items: Vec<usize> = Vec::new();
    let mut iterations = 0u32;
    WorkerPool::scoped(workers, |pool| {
        while iterations < cap {
            if iterations == 1 || !kernel.assigns() {
                next.clear_upper();
            }
            counter.add(kernel.sweep(pool, &mut items, &cur, &mut next));
            if let Some(delta) = threshold {
                sieve_upper(&mut next, delta);
            }
            if kernel.pins_diagonal() {
                next.set_diagonal(1.0);
            }
            simrank_par::mirror_upper_to_lower(pool, next.data_mut(), n);
            // The diff is a lane-chunked max fold (`f64::max` is
            // associative), so the stopping decision — and with it the
            // iteration and op counts — is identical at every width.
            let converged = tol.is_some_and(|tol| cur.max_abs_diff_upper(&next) <= tol);
            std::mem::swap(&mut cur, &mut next);
            iterations += 1;
            after_each(iterations, &cur);
            if converged {
                break;
            }
        }
    });
    let report = Report {
        iterations,
        adds: counter.total(),
        share_sums: timer.lap(),
        workers,
        ..Default::default()
    };
    (cur, report)
}

/// Threshold sieve: zeroes every score below `delta` in the upper
/// triangle, diagonal included (pinned kernels re-pin it right after).
fn sieve_upper(grid: &mut ScoreGrid, delta: f64) {
    for a in 0..grid.order() {
        for v in &mut grid.row_mut(a)[a..] {
            if *v < delta {
                *v = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &crate::SimMatrix) -> Vec<u64> {
        s.iter_upper().map(|(_, _, v)| v.to_bits()).collect()
    }

    #[test]
    fn every_kernel_hands_on_a_bit_symmetric_pinned_square() {
        // Every grid `after_each` sees is exactly symmetric over the full
        // square, pinned where the kernel pins, and zero in the rows of
        // vertices no pass reaches (the differential diagonal included).
        // A stray lower or diagonal write that survives the mirror or the
        // pin breaks the first two; a skipped clear of the identity start
        // breaks the third. Vertex 0 has out-edges only, 9 in-edges only,
        // and 10 none.
        use crate::engine::{Mode, OipKernel};
        use crate::{naive::NaiveKernel, plan::SharingPlan};
        let g = simrank_graph::gen::gnm(10, 40, 5);
        let edges = g.edges().filter(|&(u, v)| v != 0 && u != 9);
        let g = simrank_graph::DiGraph::from_edges(11, edges.collect::<Vec<_>>()).unwrap();
        let rev = g.reverse();
        for threads in [1usize, 2, 4, 8] {
            let opts = crate::SimRankOptions::default().with_threads(threads);
            let (plan, rev_plan, flat) = (
                SharingPlan::build(&g, &opts),
                SharingPlan::build(&rev, &opts),
                SharingPlan::flat(&g),
            );
            let both = [(&g, &plan, 0.3), (&rev, &rev_plan, 0.3)];
            let oip = |passes: &[_], mode| Box::new(OipKernel::new(11, passes, &opts, mode));
            let kernels: [(&str, Box<dyn Kernel>); 5] = [
                ("naive", Box::new(NaiveKernel::new(&g, &opts))),
                ("psum", oip(&[(&g, &flat, 0.6)], Mode::Conventional)),
                ("oip", oip(&both[..1], Mode::Conventional)),
                ("oip-dsr", oip(&[(&g, &plan, 1.0)], Mode::Differential)),
                ("prank", oip(&both, Mode::Conventional)),
            ];
            for (name, mut kernel) in kernels {
                let pins = kernel.pins_diagonal();
                let cut_off = |a| g.in_degree(a) == 0 && (name != "prank" || g.out_degree(a) == 0);
                let check = |k, s: &ScoreGrid| {
                    let ok = (0..11).all(|a| {
                        (0..11).all(|b| {
                            let v = s.get(a, b);
                            let pinned = a == b && pins;
                            v.to_bits() == s.get(b, a).to_bits()
                                && (!pinned || v == 1.0)
                                && (pinned || !cut_off(a as u32) || v == 0.0)
                        })
                    });
                    assert!(ok, "{name}: sweep {k} at width {threads}");
                };
                iterate(
                    11,
                    None,
                    kernel.as_mut(),
                    Start::Identity,
                    Stop::Fixed(5),
                    check,
                );
            }
        }
    }

    #[test]
    fn observers_see_each_iterate_bitwise_at_every_width() {
        // The `after_each` hook behind both public observers: it fires
        // once per iteration with k = 1..=K in order, and the k-th
        // `&SimMatrix` it hands over is bit-identical to a fresh K = k
        // run, at every pool width.
        use crate::dsr::{oip_dsr_simrank, oip_dsr_simrank_observe};
        use crate::oip::{oip_simrank, oip_simrank_observe};
        use crate::SimRankOptions;
        let g = simrank_graph::gen::gnm(40, 160, 7);
        let iterations = 5;
        for differential in [false, true] {
            for threads in [1usize, 2, 4, 8] {
                let opts = SimRankOptions::default().with_threads(threads);
                let mut seen = Vec::new();
                let hook = |k: u32, s: &crate::SimMatrix| seen.push((k, bits(s)));
                let (last, report) = if differential {
                    oip_dsr_simrank_observe(&g, &opts, iterations, hook)
                } else {
                    oip_simrank_observe(&g, &opts, iterations, hook)
                };
                assert_eq!(report.iterations, iterations);
                let ks: Vec<u32> = seen.iter().map(|(k, _)| *k).collect();
                assert_eq!(ks, (1..=iterations).collect::<Vec<_>>());
                for (k, got) in &seen {
                    let fresh_opts = opts.with_iterations(*k);
                    let fresh = if differential {
                        oip_dsr_simrank(&g, &fresh_opts).0
                    } else {
                        oip_simrank(&g, &fresh_opts)
                    };
                    assert!(
                        *got == bits(&fresh),
                        "differential = {differential}, k = {k}, threads = {threads}"
                    );
                }
                assert!(seen[seen.len() - 1].1 == bits(&last));
            }
        }
    }
}
