//! The shared OIP sweep kernel.
//!
//! Both `OIP-SR` (conventional SimRank, paper Algorithm 1) and `OIP-DSR`
//! (differential SimRank, Eq. 15 in component form) run the same two-level
//! partial-sums machinery; the paper notes the `T` recurrence "takes the
//! same form as the conventional SimRank formula except for the damping
//! factor", and P-Rank reuses it once per link direction. This module
//! replays a prebuilt [`SharingPlan`] once per sweep:
//!
//! * **inner pass** — replay the schedule, maintaining
//!   `Partial_{I(u)}(y) = Σ_{x∈I(u)} s_k(x, y)` buffers via Proposition 3
//!   updates along tree edges. A step's copy (or zero fill), subtracts and
//!   adds run as one pass over the buffer, strip by strip, and each entry
//!   keeps the order `((y₀ − s₁) − s₂ …) + a₁ + …` of whole-row updates;
//! * **outer pass** (procedure `OP`) — walk the same tree in preorder
//!   maintaining `OuterPartial^{I(u)}_{I(w)}` values via Proposition 4
//!   updates, writing `factor/(d_u·d_w)·OuterPartial` into `s_{k+1}(u, w)`
//!   — **for the triangular pair set** `w ≥ u` (SimRank is symmetric, so
//!   the strictly-lower pairs are redundant arithmetic).
//!
//! # The blocked outer pass
//!
//! One walk serves a block of up to `B` sources. Each worker copies every
//! finished source buffer into a transposed `n × B` staging block
//! (`stage[x·B + k]`), and walks the plan's program
//! ([`SharingPlan::outer`]) once the block is full and once more at the end
//! of its share of each pass (blocks never straddle a pass). The program
//! holds each node's target, op and prune extent, and its index lists sit
//! back to back in [`SharingPlan::lists`], so the walk reads both front to
//! back. Every tree node's `OuterPartial` is a contiguous `B`-vector —
//! `parent − Σsub + Σadd` over `B`-wide staged rows — kept in a stack
//! indexed by depth, because in preorder a node's parent is the last node
//! visited one level up. The walk prunes a subtree when its largest target
//! id falls below the smallest threshold in the block.
//!
//! The block changes how work is grouped, never what a lane computes:
//!
//! * lane `k` of a node is computed with exactly the single-source
//!   arithmetic — [`par::kernel::gather_sum_block`] reproduces
//!   `gather_sum`'s association order per lane, and the pair scale
//!   `factor/(d_u·d_w)` is the same expression, evaluated once per block
//!   for each distinct in-degree instead of once per pair;
//! * a computed node's parent is always computed too (its subtree holds a
//!   larger-or-equal maximum), so every lane's values match an unpruned
//!   walk;
//! * every filled lane writes `row_u[w]` at every visited node, with no
//!   branch. Where `w < lo_k` that lands on `u`'s diagonal or strictly-lower
//!   entries, which the driver's pin and mirror overwrite;
//! * adds are counted only for the lanes whose own pruned walk would
//!   visit the node, so the op count equals a walk per source.
//!
//! Which sources share a block depends on the pool width; no lane's bits
//! or count do. The first pass assigns its pairs, so a lone pass writes
//! every pair it owns each sweep and the driver need not clear the grid
//! ([`Kernel::assigns`]); P-Rank's second pass adds onto the first.
//!
//! The [`crate::iterate`] driver runs the iteration around [`OipKernel`]:
//! clear, sieve, diagonal pin, mirror and swap.
//!
//! # Parallel replay
//!
//! The schedule decomposes into [`SharingPlan::segments`] — one contiguous
//! range per root subtree, each starting from scratch and touching only its
//! own buffers. Each [`Pass`] shards those segments across the driver's
//! pool (balanced by step count), gives every worker a private buffer pool
//! and source block, and lets each worker emit its own sources' rows of
//! `S_{k+1}` through a disjoint-row writer. Passes run one after another,
//! and the sweep's return is the barrier that orders them, so the
//! per-entry addition order never changes. Per-row arithmetic is
//! untouched, so results are bit-for-bit identical for every thread count.

use crate::grid::ScoreGrid;
use crate::instrument::Report;
use crate::iterate::{iterate, Kernel, Start, Stop};
use crate::options::SimRankOptions;
use crate::plan::{EdgeOp, SharingPlan, Step};
use simrank_graph::DiGraph;
use simrank_par::{self as par, OpCounter};

/// Which recurrence the engine iterates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Conventional SimRank (Eq. 2): damping `C` inside the update, diagonal
    /// pinned to 1 every iteration, `S₀ = I`.
    Conventional,
    /// The differential auxiliary sequence `T_{k+1} = Q·T_k·Qᵀ` (Eq. 15): no
    /// damping inside the update, no diagonal pinning, `T₀ = I`; the caller
    /// accumulates `Ŝ`.
    Differential,
}

/// Runs `iterations` of the given mode over `g` with the prebuilt `plan`,
/// invoking `observer(k, S_k)` after every iteration (`Ŝ_k` in
/// differential mode) — the hook the convergence experiments (Fig. 6e/6f)
/// use to find the first iteration reaching a target accuracy.
///
/// Returns the final score grid and the instrumentation report. In
/// `Differential` mode the returned grid is the accumulated `Ŝ_K`, not the
/// auxiliary `T_K`.
pub(crate) fn run(
    g: &DiGraph,
    plan: &SharingPlan,
    opts: &SimRankOptions,
    mode: Mode,
    iterations: u32,
    mut observer: impl FnMut(u32, &ScoreGrid),
) -> (ScoreGrid, Report) {
    let n = g.node_count();
    let factor = match mode {
        Mode::Conventional => opts.damping,
        Mode::Differential => 1.0,
    };
    let mut kernel = OipKernel::new(n, &[(g, plan, factor)], opts, mode);
    // Differential accumulator Ŝ₀ = e^{-C}·I and running coefficient.
    let e_neg_c = (-opts.damping).exp();
    let mut s_hat = (mode == Mode::Differential).then(|| ScoreGrid::scaled_identity(n, e_neg_c));
    let mut coef_term = 1.0f64; // C^k / k! running product
    let (grid, report) = iterate(
        n,
        opts.threshold,
        &mut kernel,
        Start::Identity,
        Stop::Fixed(iterations),
        |k, t| match s_hat.as_mut() {
            Some(s_hat) => {
                // Ŝ_k = Ŝ_{k-1} + e^{-C}·C^k/k!·T_k.
                coef_term *= opts.damping / k as f64;
                s_hat.add_assign_scaled(t, e_neg_c * coef_term);
                observer(k, s_hat);
            }
            None => observer(k, t),
        },
    );
    // Beyond the ping-pong score state every algorithm carries, the
    // differential model memoizes the auxiliary `T_k` (Eq. 15). The
    // accumulation `Ŝ += coef·T` is row-streamable, so — matching the
    // paper's O(n)-intermediate accounting in Proposition 5 and Fig. 6d's
    // "a bit more space than OIP-SR" observation — we charge two extra row
    // buffers (one `T` row, one `Ŝ` row in flight).
    let accumulator_rows = match mode {
        Mode::Conventional => 0,
        Mode::Differential => 2 * n * 8,
    };
    let report = Report {
        mst_build: plan.build_time,
        peak_intermediate_bytes: kernel.state_bytes() + accumulator_rows,
        ..report
    };
    (s_hat.unwrap_or(grid), report)
}

/// Sources per outer-pass walk: each sharing-tree node's `OuterPartial`
/// is a `B`-vector, one lane per staged source. Eight `f64`s are one
/// cache line per staged partial-sum row.
const B: usize = 8;

/// Entries per strip of a fused row update: a strip of the destination
/// stays in L1 while every row of the update streams past it.
const STRIP: usize = 512;

/// One OIP replay over one graph: the plan, its segments balanced across
/// the pool, and the scale `factor/(d_u·d_w)` of every emitted pair.
struct Pass<'a> {
    plan: &'a SharingPlan,
    factor: f64,
    /// Whether the pair set includes `w = u` (differential mode; the
    /// conventional diagonal is pinned by the driver instead).
    diagonal: bool,
    /// Whether the pass assigns its pairs (the first pass) rather than
    /// accumulating onto an earlier pass's.
    assign: bool,
    /// The distinct target in-degrees, ascending.
    degrees: Vec<f64>,
    /// Index into `degrees` of each walk-program node's in-degree.
    class: Vec<u32>,
    /// Segment indices per worker.
    shares: Vec<Vec<usize>>,
}

/// Per-worker replay state: a private buffer pool for inner partial sums
/// plus the block of staged sources awaiting the outer walk.
struct WorkerState {
    pool: Vec<Vec<f64>>,
    block: SourceBlock,
}

/// Up to [`B`] emitted sources staged for one blocked outer walk. Lane
/// `k` holds one source; unfilled lanes have threshold `usize::MAX`, so
/// they never count an add or write a score.
struct SourceBlock {
    /// The staged partial sums, transposed: `stage[x·B + k]` is
    /// `Partial_{I(u_k)}(x)`.
    stage: Vec<f64>,
    /// `OuterPartial` per depth level of the sharing tree: lane `k` of
    /// the node last visited at depth `d` is `outer[d·B + k]`.
    outer: Vec<f64>,
    /// `factor/(d_u_k·d)` per distinct in-degree `d`: `coef[c·B + k]`.
    coef: Vec<f64>,
    /// Number of staged lanes.
    len: usize,
    /// Walk-program position of each lane's source.
    src: [usize; B],
    /// Each lane's threshold: only targets `w ≥ lo[k]` are counted.
    lo: [usize; B],
}

/// The OIP sweep: one or more [`Pass`]es accumulated into `next` in
/// order. OIP-SR and OIP-DSR run one pass over `G`; P-Rank runs one over
/// `G` and one over `Gᵀ`, each scaled by its λ-factor.
pub(crate) struct OipKernel<'a> {
    passes: Vec<Pass<'a>>,
    states: Vec<WorkerState>,
    mode: Mode,
    n: usize,
}

impl<'a> OipKernel<'a> {
    /// Builds the kernel for order-`n` grids from `(graph, plan, factor)`
    /// passes, allocating one replay state per worker, sized for the
    /// largest plan.
    pub(crate) fn new(
        n: usize,
        passes: &[(&'a DiGraph, &'a SharingPlan, f64)],
        opts: &SimRankOptions,
        mode: Mode,
    ) -> Self {
        // Shard the independent schedule segments across workers,
        // balancing by step count (root subtrees can be wildly uneven).
        let max_segments = passes.iter().map(|p| p.1.segments.len()).max();
        let workers = par::effective_workers(opts.threads, max_segments.unwrap_or(0));
        let passes: Vec<Pass<'a>> = passes
            .iter()
            .enumerate()
            .map(|(i, &(g, plan, factor))| {
                let seg_weights: Vec<usize> = plan.segments.iter().map(|s| s.len()).collect();
                // The distinct target in-degrees, ascending (the flat
                // plan's targets are not sorted by in-degree).
                let mut degrees: Vec<usize> =
                    plan.targets.iter().map(|&v| g.in_degree(v)).collect();
                degrees.sort_unstable();
                degrees.dedup();
                let class = plan.outer.iter().map(|step| {
                    degrees
                        .binary_search(&g.in_degree(step.w))
                        .expect("a target's degree") as u32
                });
                Pass {
                    plan,
                    factor,
                    diagonal: mode == Mode::Differential,
                    assign: i == 0,
                    class: class.collect(),
                    degrees: degrees.iter().map(|&d| d as f64).collect(),
                    shares: par::balance(&seg_weights, workers),
                }
            })
            .collect();
        let workers = passes.iter().map(|p| p.shares.len()).max().unwrap_or(0);
        let slots = passes.iter().map(|p| p.plan.slots).max().unwrap_or(0);
        let levels = passes
            .iter()
            .flat_map(|p| p.plan.outer.iter().map(|s| s.depth as usize + 1))
            .max()
            .unwrap_or(0);
        let classes = passes.iter().map(|p| p.degrees.len()).max().unwrap_or(0);
        let states = (0..workers.max(1))
            .map(|_| WorkerState {
                pool: (0..slots).map(|_| vec![0.0f64; n]).collect(),
                block: SourceBlock {
                    stage: vec![0.0; n * B],
                    outer: vec![0.0; levels * B],
                    coef: vec![0.0; classes * B],
                    len: 0,
                    src: [0; B],
                    lo: [usize::MAX; B],
                },
            })
            .collect();
        OipKernel {
            passes,
            states,
            mode,
            n,
        }
    }

    /// Bytes of replay state across all workers (buffer pools, staging
    /// blocks, depth stacks and per-degree coefficients).
    pub(crate) fn state_bytes(&self) -> usize {
        let per_worker = |s: &WorkerState| {
            let b = &s.block;
            s.pool.len() * self.n + b.stage.len() + b.outer.len() + b.coef.len()
        };
        self.states.iter().map(per_worker).sum::<usize>() * 8
    }
}

impl Kernel for OipKernel<'_> {
    fn workers(&self) -> usize {
        self.states.len()
    }

    fn pins_diagonal(&self) -> bool {
        self.mode == Mode::Conventional
    }

    /// A lone pass assigns; P-Rank's second pass accumulates onto pairs
    /// its first pass may not have assigned.
    fn assigns(&self) -> bool {
        self.passes.len() == 1
    }

    fn sweep(
        &mut self,
        pool: &mut par::WorkerPool<'_>,
        items: &mut Vec<usize>,
        cur: &ScoreGrid,
        next: &mut ScoreGrid,
    ) -> u64 {
        let mut adds = 0;
        for pass in &self.passes {
            // SAFETY (RowWriter): within one pass every target is emitted
            // exactly once and workers own disjoint segment sets, so each
            // row of `next` is written by exactly one worker.
            let writer = par::RowWriter::new(next.data_mut(), self.n.max(1));
            let slots = par::SlotWriter::new(&mut self.states);
            items.extend(0..pass.shares.len());
            adds += pool.sweep_drain(items, |wi, counter| {
                // SAFETY (SlotWriter): each worker index appears exactly
                // once per sweep, so state `wi` is this item's alone.
                let state = unsafe { slots.slot_mut(wi) };
                for &seg in &pass.shares[wi] {
                    pass.replay_segment(cur, &writer, &pass.plan.segments[seg], state, counter);
                }
                // Blocks never straddle a pass: the next pass walks
                // another plan.
                pass.walk_block(&mut state.block, &writer, counter);
            });
        }
        adds
    }
}

impl Pass<'_> {
    /// Replays one self-contained schedule segment (a root subtree)
    /// against a private buffer pool, staging finished sources into the
    /// worker's block and walking it whenever it fills.
    fn replay_segment(
        &self,
        cur: &ScoreGrid,
        writer: &par::RowWriter<'_>,
        segment: &std::ops::Range<usize>,
        state: &mut WorkerState,
        counter: &mut OpCounter,
    ) {
        let plan = self.plan;
        let n = cur.order();
        let pool = state.pool.as_mut_slice();
        for step in &plan.schedule[segment.clone()] {
            let Step { node, from, slot } = *step;
            let (base, y) = if from == slot {
                (None, pool[slot as usize].as_mut_slice())
            } else {
                let (src, dst) = borrow_two(pool, from as usize, slot as usize);
                (Some(src), dst)
            };
            let step = &plan.outer[node as usize];
            self.update_rows(cur, y, base, &step.op);
            counter.add(step.op.cost() as u64 * n as u64);
            // Stage the finished partial sum as the block's next lane.
            let block = &mut state.block;
            let k = block.len;
            for (row, &v) in block.stage.chunks_exact_mut(B).zip(&*y) {
                row[k] = v;
            }
            block.src[k] = node as usize;
            // Triangular pair set: only targets `w ≥ lo` count (the
            // driver mirrors the lower triangle).
            block.lo[k] = step.w as usize + usize::from(!self.diagonal);
            block.len += 1;
            if block.len == B {
                self.walk_block(block, writer, counter);
            }
        }
    }

    /// Sets `y = ((y₀ − s₁) − s₂ …) + a₁ + …` over the `cur` rows `op`
    /// subtracts and adds, one [`STRIP`] of `y` at a time, in the per-entry
    /// order of a copy followed by whole-row subtracts and adds. `y₀` is
    /// `base` when given, `y` itself for an update in place, and zero for a
    /// scratch sum.
    fn update_rows(&self, cur: &ScoreGrid, y: &mut [f64], base: Option<&[f64]>, op: &EdgeOp) {
        for (i, ys) in y.chunks_mut(STRIP).enumerate() {
            let r = i * STRIP..i * STRIP + ys.len();
            match base {
                Some(src) => ys.copy_from_slice(&src[r.clone()]),
                None if !op.update => ys.fill(0.0),
                None => {}
            }
            for &x in self.plan.sub(op) {
                par::kernel::subtract(ys, &cur.row(x as usize)[r.clone()]);
            }
            for &x in self.plan.add(op) {
                par::kernel::accumulate(ys, &cur.row(x as usize)[r.clone()]);
            }
        }
    }

    /// The outer pass (procedure `OP`) for every staged source at once:
    /// writes `factor/(d_u·d_w)·OuterPartial` into `row_u[w]` for every
    /// lane's source `u` and every target `w ≥ lo_u`, then empties the
    /// block.
    fn walk_block(
        &self,
        block: &mut SourceBlock,
        writer: &par::RowWriter<'_>,
        counter: &mut OpCounter,
    ) {
        if block.len == 0 {
            return;
        }
        let plan = self.plan;
        let (stage, lo) = (&block.stage, block.lo);
        // The pair scale with the same expression as per pair, once per
        // distinct target in-degree (not a reciprocal: that changes bits).
        for (c, &d) in self.degrees.iter().enumerate() {
            for k in 0..block.len {
                let d_u = self.degrees[self.class[block.src[k]] as usize];
                block.coef[c * B + k] = self.factor / (d_u * d);
            }
        }
        let mut rows: [&mut [f64]; B] = std::array::from_fn(|k| {
            if k < block.len {
                let u = plan.outer[block.src[k]].w as usize;
                // SAFETY: each target is emitted exactly once per pass,
                // this worker owns the segment that emitted it, and the
                // lanes hold distinct sources, so row `u` is this
                // thread's alone.
                unsafe { writer.row_mut(u) }
            } else {
                &mut []
            }
        });
        let rows = &mut rows[..block.len];
        // Preorder walk sharing OuterPartial lanes (Proposition 4), pruned
        // to the subtrees that still hold a target some lane needs (see
        // the module header for why every lane stays bit-exact).
        let lo_min = lo.iter().copied().min().expect("B > 0");
        let outer = &plan.outer;
        let mut i = 0;
        while i < outer.len() {
            let step = &outer[i];
            let subtree_max = step.subtree_max as usize;
            if subtree_max < lo_min {
                i = step.subtree_end as usize;
                continue;
            }
            let d = step.depth as usize;
            let a = par::kernel::gather_sum_block::<B>(stage, plan.add(&step.op));
            let val: [f64; B] = if step.op.update {
                let parent = &block.outer[(d - 1) * B..d * B];
                let s = par::kernel::gather_sum_block::<B>(stage, plan.sub(&step.op));
                std::array::from_fn(|k| parent[k] - s[k] + a[k])
            } else {
                a
            };
            block.outer[d * B..(d + 1) * B].copy_from_slice(&val);
            // Count only the lanes whose own pruned walk visits this node.
            let visits = lo.iter().filter(|&&l| l <= subtree_max).count();
            counter.add((visits * step.op.cost()) as u64);
            // Every filled lane writes, with no branch: a lane with
            // `w < lo_k` lands on row `u_k`'s diagonal or strictly-lower
            // entries, which the driver's pin and mirror overwrite.
            let w = step.w as usize;
            let coef = &block.coef[self.class[i] as usize * B..][..B];
            if self.assign {
                for (k, row) in rows.iter_mut().enumerate() {
                    row[w] = coef[k] * val[k];
                }
            } else {
                for (k, row) in rows.iter_mut().enumerate() {
                    row[w] += coef[k] * val[k];
                }
            }
            i += 1;
        }
        block.len = 0;
        block.lo = [usize::MAX; B];
    }
}

/// Disjoint mutable borrows of two pool slots.
fn borrow_two(pool: &mut [Vec<f64>], a: usize, b: usize) -> (&[f64], &mut [f64]) {
    assert_ne!(a, b, "schedule must not copy a slot onto itself");
    if a < b {
        let (lo, hi) = pool.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = pool.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SharingPlan;
    use simrank_graph::fixtures::paper_fig1a;
    use simrank_graph::NodeId;

    fn run_fixture(mode: Mode, k: u32, opts: &SimRankOptions) -> ScoreGrid {
        let g = paper_fig1a();
        let plan = SharingPlan::build(&g, opts);
        run(&g, &plan, opts, mode, k, |_, _| {}).0
    }

    #[test]
    fn conventional_first_iteration_known_value() {
        // s₁(a, b) = C·|I(a) ∩ I(b)| / (|I(a)||I(b)|) = 0.6·1/8 = 0.075.
        let opts = SimRankOptions::default();
        let s1 = run_fixture(Mode::Conventional, 1, &opts);
        assert!((s1.get(0, 1) - 0.075).abs() < 1e-12);
        // s₁(e, b): I(e)={f,g}, I(b)={e,f,g,i} share {f,g}: 0.6·2/8 = 0.15.
        assert!((s1.get(4, 1) - 0.15).abs() < 1e-12);
        // Diagonal pinned.
        for v in 0..9 {
            assert_eq!(s1.get(v, v), 1.0);
        }
        // Rows of in-degree-0 vertices are zero off-diagonal.
        for w in 0..9 {
            if w != 5 {
                assert_eq!(s1.get(5, w), 0.0);
            }
        }
    }

    #[test]
    fn paper_fig4_worked_example() {
        // Fig. 4 tabulates Partial/Outer/s₃ values for k = 2, C = 0.6. The
        // displayed numbers are truncated to two decimals; we verify our
        // s₃ values against every populated cell of the two rightmost
        // column groups with a matching tolerance.
        let opts = SimRankOptions::default().with_damping(0.6);
        let s3 = run_fixture(Mode::Conventional, 3, &opts);
        // Column s_{k+1}(x, a): rows a, e, h, c, b, d.
        let expect_a = [
            (0usize, 1.0),
            (4, 0.15),
            (7, 0.17),
            (2, 0.21),
            (1, 0.09),
            (3, 0.02),
        ];
        // Column s_{k+1}(x, c).
        let expect_c = [
            (0usize, 0.21),
            (4, 0.1),
            (7, 0.22),
            (2, 1.0),
            (1, 0.06),
            (3, 0.02),
        ];
        for &(x, want) in &expect_a {
            let got = s3.get(x, 0);
            assert!(
                (got - want).abs() < 0.011,
                "s3({x}, a): got {got}, paper {want}"
            );
        }
        for &(x, want) in &expect_c {
            let got = s3.get(x, 2);
            assert!(
                (got - want).abs() < 0.011,
                "s3({x}, c): got {got}, paper {want}"
            );
        }
    }

    #[test]
    fn differential_mode_accumulates() {
        let opts = SimRankOptions::default().with_damping(0.6);
        let s_hat = run_fixture(Mode::Differential, 6, &opts);
        let e = (-0.6f64).exp();
        // Source vertices keep Ŝ(v,v) = e^{-C} (their T_k rows vanish).
        assert!((s_hat.get(5, 5) - e).abs() < 1e-12);
        // Entries bounded by 1 and nonnegative.
        for a in 0..9 {
            for b in 0..9 {
                let v = s_hat.get(a, b);
                assert!((0.0..=1.0 + 1e-12).contains(&v), "Ŝ({a},{b}) = {v}");
            }
        }
        // Ŝ(v,v) ≤ 1 with equality iff the full exponential sum kicks in.
        assert!(s_hat.get(1, 1) > e);
    }

    #[test]
    fn observer_sees_every_iteration() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default();
        let plan = SharingPlan::build(&g, &opts);
        let mut ks = Vec::new();
        let mut cb = |k: u32, _s: &ScoreGrid| ks.push(k);
        let _ = run(&g, &plan, &opts, Mode::Conventional, 4, &mut cb);
        assert_eq!(ks, vec![1, 2, 3, 4]);
    }

    #[test]
    fn threshold_sieves_small_scores() {
        let opts = SimRankOptions::default().with_threshold(0.5);
        let s = run_fixture(Mode::Conventional, 5, &opts);
        for a in 0..9 {
            for b in 0..9 {
                let v = s.get(a, b);
                assert!(
                    v == 0.0 || v >= 0.5 || a == b,
                    "sieved value {v} at ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn sharded_replay_is_bit_identical() {
        // Stronger than the 1e-12 contract: the sharded engine performs the
        // exact same per-row arithmetic, so every thread count reproduces
        // threads = 1 bit-for-bit, in both modes, and the merged counter
        // shards reproduce the single-threaded operation count exactly.
        let g = simrank_graph::gen::gnm(60, 260, 11);
        let base = SimRankOptions::default().with_iterations(6).with_threads(1);
        let plan = SharingPlan::build(&g, &base);
        for mode in [Mode::Conventional, Mode::Differential] {
            let (s1, r1) = run(&g, &plan, &base, mode, 6, |_, _| {});
            for t in [2usize, 3, 5, 8] {
                let opts = base.with_threads(t);
                let (st, rt) = run(&g, &plan, &opts, mode, 6, |_, _| {});
                assert!(s1 == st, "mode {mode:?} threads {t}");
                assert_eq!(r1.adds, rt.adds, "op counts must merge exactly");
                assert!(rt.workers >= 1 && rt.workers <= t);
            }
        }
    }

    #[test]
    fn partial_blocks_are_bit_identical() {
        // Graphs whose plans hold 1, B − 1, B, B + 1 and 2B + 3 targets:
        // at widths 3 and 5 the per-worker source blocks are only partly
        // filled when a pass ends. Every lane must still reproduce width 1
        // bit-for-bit, and the merged counts must match exactly.
        for targets in [1, B - 1, B, B + 1, 2 * B + 3] {
            let n = targets + 3;
            let edges = (0..targets).flat_map(|v| {
                (0..1 + v % 4).map(move |j| (((v * 5 + j * 3 + 1) % n) as NodeId, v as NodeId))
            });
            let g = DiGraph::from_edges(n, edges).unwrap();
            let base = SimRankOptions::default().with_iterations(4).with_threads(1);
            let plan = SharingPlan::build(&g, &base);
            assert_eq!(plan.targets.len(), targets);
            for mode in [Mode::Conventional, Mode::Differential] {
                let (s1, r1) = run(&g, &plan, &base, mode, 4, |_, _| {});
                if mode == Mode::Conventional {
                    let oracle = crate::naive::naive_simrank(&g, &base).0;
                    for a in 0..n {
                        for b in 0..n {
                            assert!((s1.get(a, b) - oracle.get(a, b)).abs() < 1e-12);
                        }
                    }
                }
                for t in [2usize, 3, 5, 8] {
                    let (st, rt) = run(&g, &plan, &base.with_threads(t), mode, 4, |_, _| {});
                    let what = format!("{targets} targets, mode {mode:?}, threads {t}");
                    assert!(s1 == st, "{what}");
                    assert_eq!(r1.adds, rt.adds, "{what}");
                }
            }
        }
    }

    #[test]
    fn report_is_populated() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default();
        let plan = SharingPlan::build(&g, &opts);
        let (_, report) = run(&g, &plan, &opts, Mode::Conventional, 3, |_, _| {});
        assert_eq!(report.iterations, 3);
        assert!(report.adds > 0);
        assert_eq!(report.mst_build, plan.build_time);
        assert!(report.peak_intermediate_bytes >= 9 * 8);
    }
}
