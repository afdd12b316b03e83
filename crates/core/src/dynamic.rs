//! Dynamic-graph SimRank maintenance: warm-start delta resweeps.
//!
//! The paper's machinery (and every other all-pairs entry point in this
//! workspace) assumes a static graph: scores are computed once by running
//! `K = ⌈log_C ε⌉` iterations from the identity. When edges arrive or
//! vanish, a from-scratch rerun discards everything the previous run
//! converged to. This module reuses it instead: [`resweep`] seeds the
//! shared iteration driver with the **previously converged scores** and
//! runs psum-SR sweeps (the OIP sweep on psum's flat plan, as
//! [`crate::psum`] runs it cold: same pool sharding, same op counting)
//! only until the max-norm difference between consecutive iterates falls
//! under the re-convergence tolerance.
//! [`crate::naive::naive_resweep`] runs the same warm iteration on the
//! Jeh–Widom kernel; it is the test oracle for this one.
//!
//! # When a warm start pays off — and when it doesn't
//!
//! The SimRank iteration map `F` is a `C`-contraction in the max norm (off
//! the pinned diagonal): each sweep shrinks the distance to the fixed
//! point `S*` by at least `C`. Starting from the identity, that distance
//! begins at `‖I − S*‖ ≈ C`, so a cold run needs `⌈log_C ε⌉` sweeps. After
//! a *small* edit the new fixed point sits close to the old one — only the
//! pairs whose in-neighborhoods (or whose neighbors' neighborhoods…)
//! changed move — so the warm distance is typically orders of magnitude
//! smaller and the resweep stops after a handful of iterations; each sweep
//! still costs a full psum-SR sweep, `O(d·n²)`, so the savings factor is
//! exactly the iteration ratio (perfbench's allpairs-stream workload
//! measures it: `dynamic.resweep_s`, `dynamic.resweep_sweeps` and
//! `dynamic.resweep_adds`). The warm start *loses* when the edit
//! rewires a large fraction of the graph (the old scores are no better
//! than the identity — expect the full `⌈log_C ε⌉` sweeps plus the
//! stopping-check overhead) and is pointless when the batch nets out to
//! zero effective mutations ([`DynamicSimRank::apply_batch`] detects that
//! via [`BatchSummary::is_noop`] and returns the old scores bit-for-bit
//! without sweeping at all).
//!
//! Warm and cold runs converge to the *same* fixed point but approach it
//! along different trajectories, so their outputs agree to the
//! convergence tolerance — not bit-for-bit (the replay gates in
//! `tests/dynamic_replay.rs` pin the `≤ 1e-8` oracle at tight `ε`).
//! Determinism is a separate, stronger contract: for a *fixed* warm start
//! and edit batch, the resweep is bit-for-bit identical at every worker
//! count, and its merged op count is exact
//! ([`OpCounter`](simrank_par::OpCounter) shard merge) — both
//! enforced by the `dynamic_resweep_psum/*` cases of
//! `tests/op_baselines.rs` (the `dynamic_resweep/*` cases pin the naive
//! oracle).
//!
//! The single-source index path has its own warm-start analogue:
//! [`SimRankIndex::repair`](crate::SimRankIndex::repair) re-solves the
//! diagonal-correction system from the old diagonal instead of resweeping
//! a dense grid.

use crate::convergence;
use crate::engine::{Mode, OipKernel};
use crate::instrument::Report;
use crate::iterate::{iterate, Kernel, Start, Stop};
use crate::matrix::SimMatrix;
use crate::options::SimRankOptions;
use crate::plan::SharingPlan;
use simrank_graph::{BatchSummary, DiGraph, EdgeDelta, GraphError};

/// Re-convergence tolerance of a warm resweep, derived from the requested
/// accuracy `ε` by the contraction argument: stopping when consecutive
/// iterates differ by at most `δ = ε·(1 − C)` bounds the distance to the
/// fixed point by `C·δ/(1 − C) = C·ε ≤ ε`. Floored at `1e-12` so
/// pathological `ε` cannot demand sub-ulp agreement.
pub fn resweep_tolerance(damping: f64, epsilon: f64) -> f64 {
    (epsilon * (1.0 - damping)).max(1e-12)
}

/// Warm-start SimRank: re-converges `warm` on (the already-mutated) `g`.
///
/// See the [module docs](self) for the warm-start contract. The sweep cap
/// is `opts.iterations` when pinned, else the cold-run bound
/// `⌈log_C δ⌉` for the re-convergence tolerance `δ` — a warm start never
/// iterates more than a cold run would.
///
/// # Example
///
/// ```
/// use simrank_core::dynamic;
/// use simrank_core::naive::naive_simrank;
/// use simrank_core::SimRankOptions;
/// use simrank_graph::DiGraph;
///
/// let mut g = DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3)]).unwrap();
/// let opts = SimRankOptions::default().with_epsilon(1e-8);
/// let converged = naive_simrank(&g, &opts).0;
///
/// // An edge lands: patch the graph, then re-converge from the old scores.
/// g.insert_edge(2, 3).unwrap();
/// let warm = dynamic::resweep(&g, &converged, &opts);
///
/// // Same fixed point as a from-scratch run, to the convergence tolerance.
/// let cold = naive_simrank(&g, &opts).0;
/// for a in 0..4 {
///     for b in 0..4 {
///         assert!((warm.get(a, b) - cold.get(a, b)).abs() < 1e-7);
///     }
/// }
/// ```
pub fn resweep(g: &DiGraph, warm: &SimMatrix, opts: &SimRankOptions) -> SimMatrix {
    resweep_with_report(g, warm, opts).0
}

/// As [`resweep`], also returning instrumentation (`report.iterations` is
/// the number of sweeps the warm start actually needed).
pub fn resweep_with_report(
    g: &DiGraph,
    warm: &SimMatrix,
    opts: &SimRankOptions,
) -> (SimMatrix, Report) {
    let plan = SharingPlan::flat(g);
    let pass = [(g, &plan, opts.damping)];
    let mut kernel = OipKernel::new(g.node_count(), &pass, opts, Mode::Conventional);
    let (scores, report) = warm_iterate(g, warm, opts, &mut kernel);
    let report = Report {
        peak_intermediate_bytes: kernel.state_bytes(),
        ..report
    };
    (scores, report)
}

/// The warm iteration behind every resweep: runs `kernel` from `warm`
/// until consecutive iterates differ by at most [`resweep_tolerance`], or
/// for the cap [`resweep`] documents.
pub(crate) fn warm_iterate(
    g: &DiGraph,
    warm: &SimMatrix,
    opts: &SimRankOptions,
    kernel: &mut dyn Kernel,
) -> (SimMatrix, Report) {
    let c = opts.damping;
    let tol = resweep_tolerance(c, opts.epsilon);
    // A warm start never needs more sweeps than a cold run bound for the
    // same stopping tolerance; a pinned iteration count wins if tighter.
    let cold_cap = convergence::geometric_iterations(c, tol.min(0.5));
    let cap = opts.iterations.map_or(cold_cap, |k| k.min(cold_cap).max(1));
    let (grid, report) = iterate(
        g.node_count(),
        opts.threshold,
        kernel,
        Start::Warm(warm),
        Stop::Residual { tol, cap },
        |_, _| {},
    );
    (grid.to_sim_matrix(), report)
}

/// Owning driver for an evolving graph: holds the current graph and its
/// converged all-pairs scores, and keeps both in sync under edit batches.
///
/// [`DynamicSimRank::apply_batch`] patches the CSR in place
/// ([`DiGraph::apply_batch`]), skips the sweep entirely when the batch
/// nets out to nothing (scores stay bit-for-bit identical), and otherwise
/// re-converges with [`resweep`]. Errors from the graph layer (an
/// out-of-range endpoint) leave both the graph and the scores untouched.
#[derive(Clone, Debug)]
pub struct DynamicSimRank {
    graph: DiGraph,
    scores: SimMatrix,
    opts: SimRankOptions,
}

impl DynamicSimRank {
    /// Cold-builds the initial scores with the paper's
    /// [`crate::oip::oip_simrank`], then maintains them incrementally.
    pub fn new(graph: DiGraph, opts: SimRankOptions) -> Self {
        let scores = crate::oip::oip_simrank(&graph, &opts);
        DynamicSimRank {
            graph,
            scores,
            opts,
        }
    }

    /// Adopts an already-converged score matrix instead of cold-building.
    ///
    /// # Panics
    ///
    /// When `scores.order() != graph.node_count()`.
    pub fn from_converged(graph: DiGraph, scores: SimMatrix, opts: SimRankOptions) -> Self {
        assert_eq!(
            scores.order(),
            graph.node_count(),
            "converged matrix order must match the graph"
        );
        DynamicSimRank {
            graph,
            scores,
            opts,
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The current converged scores.
    pub fn scores(&self) -> &SimMatrix {
        &self.scores
    }

    /// The options every resweep runs under.
    pub fn options(&self) -> &SimRankOptions {
        &self.opts
    }

    /// Applies an edit batch and re-converges the scores.
    ///
    /// Returns what the batch changed ([`BatchSummary`]) and the resweep
    /// instrumentation (`report.iterations == 0` for net-no-op batches,
    /// which skip the sweep and keep the scores bit-for-bit).
    pub fn apply_batch(
        &mut self,
        deltas: &[EdgeDelta],
    ) -> Result<(BatchSummary, Report), GraphError> {
        let summary = self.graph.apply_batch(deltas)?;
        if summary.is_noop() {
            return Ok((summary, Report::default()));
        }
        let (scores, report) = resweep_with_report(&self.graph, &self.scores, &self.opts);
        self.scores = scores;
        Ok((summary, report))
    }

    /// Consumes the driver, yielding the graph and scores.
    pub fn into_parts(self) -> (DiGraph, SimMatrix) {
        (self.graph, self.scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_simrank;
    use simrank_graph::fixtures::paper_fig1a;

    fn tight() -> SimRankOptions {
        SimRankOptions::default()
            .with_damping(0.6)
            .with_epsilon(1e-9)
            .with_threads(1)
    }

    fn assert_close(a: &SimMatrix, b: &SimMatrix, tol: f64) {
        assert_eq!(a.order(), b.order());
        for x in 0..a.order() {
            for y in x..a.order() {
                let (va, vb) = (a.get(x, y), b.get(x, y));
                assert!((va - vb).abs() <= tol, "({x},{y}): {va} vs {vb}");
            }
        }
    }

    #[test]
    fn resweep_matches_cold_recompute_after_insert() {
        let opts = tight();
        let mut g = paper_fig1a();
        let converged = naive_simrank(&g, &opts).0;
        assert_eq!(g.insert_edge(5, 0), Ok(true));
        let (warm, report) = resweep_with_report(&g, &converged, &opts);
        let cold = naive_simrank(&g, &opts).0;
        assert_close(&warm, &cold, 1e-8);
        assert!(report.iterations > 0);
        // The warm sweep holds the same engine state as a cold psum run.
        let (_, cold_psum) = crate::psum::psum_simrank_with_report(&g, &opts);
        assert_eq!(report.peak_intermediate_bytes, 904);
        assert_eq!(
            report.peak_intermediate_bytes,
            cold_psum.peak_intermediate_bytes
        );
    }

    #[test]
    fn resweep_matches_cold_recompute_after_remove() {
        let opts = tight();
        let mut g = paper_fig1a();
        let converged = naive_simrank(&g, &opts).0;
        assert_eq!(g.remove_edge(0, 3), Ok(true));
        let warm = resweep(&g, &converged, &opts);
        let cold = naive_simrank(&g, &opts).0;
        assert_close(&warm, &cold, 1e-8);
    }

    #[test]
    fn resweep_on_converged_input_stops_fast() {
        // No mutation at all: the warm start is already the fixed point, so
        // one sweep confirms convergence.
        let opts = tight();
        let g = paper_fig1a();
        let converged = naive_simrank(&g, &opts).0;
        let (again, report) = resweep_with_report(&g, &converged, &opts);
        assert_eq!(report.iterations, 1);
        assert_close(&again, &converged, 1e-9);
    }

    #[test]
    fn resweep_uses_fewer_iterations_than_cold_bound() {
        let opts = tight();
        let mut g = paper_fig1a();
        let converged = naive_simrank(&g, &opts).0;
        g.insert_edge(8, 0).unwrap();
        let (_, report) = resweep_with_report(&g, &converged, &opts);
        let cold_bound =
            convergence::geometric_iterations(0.6, resweep_tolerance(0.6, opts.epsilon));
        assert!(
            report.iterations < cold_bound,
            "warm {} vs cold bound {cold_bound}",
            report.iterations
        );
    }

    #[test]
    fn driver_noop_batch_is_bitwise_identity() {
        let mut d = DynamicSimRank::new(paper_fig1a(), tight());
        let before = d.scores().clone();
        let (summary, report) = d
            .apply_batch(&[EdgeDelta::Insert(1, 0), EdgeDelta::Remove(7, 0)])
            .unwrap();
        assert!(summary.is_noop());
        assert_eq!(report.iterations, 0);
        assert_eq!(report.adds, 0);
        assert_eq!(d.scores(), &before);
    }

    #[test]
    fn driver_tracks_a_stream_of_batches() {
        let opts = tight();
        let mut d = DynamicSimRank::new(paper_fig1a(), opts);
        d.apply_batch(&[EdgeDelta::Insert(2, 5), EdgeDelta::Remove(1, 0)])
            .unwrap();
        d.apply_batch(&[EdgeDelta::Remove(3, 7), EdgeDelta::Insert(7, 8)])
            .unwrap();
        let cold = naive_simrank(d.graph(), &opts).0;
        assert_close(d.scores(), &cold, 1e-8);
    }

    #[test]
    fn driver_error_leaves_state_untouched() {
        let mut d = DynamicSimRank::new(paper_fig1a(), tight());
        let before_g = d.graph().clone();
        let before_s = d.scores().clone();
        assert!(d.apply_batch(&[EdgeDelta::Insert(0, 99)]).is_err());
        assert_eq!(d.graph(), &before_g);
        assert_eq!(d.scores(), &before_s);
    }

    #[test]
    fn thread_count_is_bitwise_invariant() {
        let mut g = paper_fig1a();
        let base = naive_simrank(&g, &tight()).0;
        assert_eq!(g.insert_edge(2, 8), Ok(true));
        assert_eq!(g.remove_edge(4, 1), Ok(true));
        let mut reference: Option<(SimMatrix, u64, u32)> = None;
        for threads in [1usize, 2, 4, 8] {
            let opts = tight().with_threads(threads);
            let (m, r) = resweep_with_report(&g, &base, &opts);
            match &reference {
                None => reference = Some((m, r.adds, r.iterations)),
                Some((m0, adds0, iters0)) => {
                    assert_eq!(&m, m0, "threads = {threads}");
                    assert_eq!(r.adds, *adds0, "threads = {threads}");
                    assert_eq!(r.iterations, *iters0, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn a_vertex_losing_its_last_in_edge_ends_with_a_zero_row() {
        // psum never writes the row of a vertex with no in-edges, so the
        // driver must clear the warm start's old row before sweep 2 lands
        // on that grid: s(a, w) = 0 for every w ≠ a after an odd or an even
        // number of sweeps.
        let mut g = paper_fig1a();
        let warm = naive_simrank(&g, &tight()).0;
        for &x in paper_fig1a().in_neighbors(0) {
            assert_eq!(g.remove_edge(x, 0), Ok(true));
        }
        for (sweeps, threads) in [(3, 1), (4, 1), (3, 2), (4, 4), (3, 8), (4, 8)] {
            let opts = tight().with_iterations(sweeps).with_threads(threads);
            let (scores, report) = resweep_with_report(&g, &warm, &opts);
            assert_eq!(report.iterations, sweeps);
            let row: Vec<f64> = (1..9).map(|w| scores.get(0, w)).collect();
            assert_eq!(row, [0.0; 8], "{sweeps} sweeps at width {threads}");
        }
    }

    #[test]
    fn tolerance_floor_holds() {
        assert_eq!(resweep_tolerance(0.6, 1e-3), 1e-3 * 0.4);
        assert_eq!(resweep_tolerance(0.999_999, 1e-300), 1e-12);
    }
}
