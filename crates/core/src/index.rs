//! Index-backed single-source and top-k SimRank queries.
//!
//! Everything else in this crate computes **all pairs** — `O(n²)` memory
//! and time, the wrong shape for query traffic that asks "who is similar
//! to *this* vertex?". This module precomputes a SLING-style /
//! linearized index (Tian & Xiao; Maehara et al., arXiv:1411.7228) and
//! answers single-source and top-k queries from it in `O(K·(n + m))`
//! time and `O(K·n)` memory per query.
//!
//! # The linearization
//!
//! Exact SimRank satisfies the linear fixed point
//!
//! ```text
//! S = C · Q S Qᵀ + D,      D = diag(d),   diag(S) = 1,
//! ```
//!
//! where `Q` is the backward transition matrix (`[Q]_{ij} = 1/|I(i)|`
//! for `j ∈ I(i)`) and `d` is the *diagonal correction vector* — the
//! unique diagonal making the unrolled geometric series
//!
//! ```text
//! S = Σ_{k≥0} Cᵏ · Qᵏ D (Qᵀ)ᵏ
//! ```
//!
//! reproduce `diag(S) = 1`. Writing `hₖᵘ = (Qᵀ)ᵏ e_u` for the depth-`k`
//! reverse-walk (hitting-probability) distribution of vertex `u`, the
//! diagonal constraint is one linear equation per vertex:
//!
//! ```text
//! Σ_{k=0}^{K} Cᵏ · Σ_j (hₖᵃ[j])² · d_j = 1        for every a.
//! ```
//!
//! Stacking those equations gives a linear system `M·d = 𝟙` with
//! `M = Σ_k Cᵏ (Qᵏ ∘ Qᵏ)` (`∘` the entrywise square, applied row-wise).
//! The build walks every constraint row **once** — a depth-`K` reverse
//! walk, 8 rows at a time as the columns of row-major `n × 8` blocks, so
//! one pass over the out-lists advances all eight walks, `O(n·K·(n + m))`
//! in all — and stores each row's exact nonzeros as a sparse vector (the
//! linearization's `M` made explicit, as SLING stores its rows). Build
//! memory is `O(nnz(M))`: 12 bytes per stored entry, up to `n²` entries
//! on a graph whose walks reach everything.
//!
//! `M` is *not* diagonally dominant in general — on a pure directed
//! `L`-cycle the Jacobi iteration matrix has spectral radius
//! `Σ_{k=1}^{L−1} Cᵏ / M_aa`, which exceeds 1 already for a 4-cycle at
//! the paper's default `C = 0.6` — so [`SimRankIndex::build`] solves the
//! system by **CGLS** (conjugate gradient on the normal equations
//! `MᵀM·d = Mᵀ𝟙`), which converges monotonically for *every* damping in
//! `(0, 1)` because the normal system is symmetric positive
//! (semi-)definite. Each CGLS round applies the stored `M` once and `Mᵀ`
//! once, in `O(nnz(M))` each:
//!
//! * the row build shards contiguous vertex blocks over the
//!   [`simrank_par::WorkerPool`]; every lane of an 8-row walk is
//!   bit-for-bit the row built alone, so `M` is a pure function of the
//!   graph at any pool width and wherever the 8-row blocks fall.
//! * `M·x` is one row dot per vertex, sharded by the same vertex blocks
//!   with disjoint writes.
//! * `Mᵀ·x` scatters weighted rows, ascending, into per-shard
//!   accumulators over a **fixed** [`TRANSPOSE_SHARDS`]-way vertex
//!   partition (independent of the worker count) and folds the shards in
//!   index order, so its bits never depend on scheduling either.
//!
//! The result: the whole solve — round count, op count, and every bit of
//! `d` — is **identical at every thread count**, and per-worker
//! [`OpCounter`] shards merge exactly like every other path. The solve is
//! capped at [`MAX_SOLVER_ROUNDS`] rounds and finishes with one true
//! residual pass, so [`SimRankIndex::solver_residual`] always reports
//! `max_a |1 − (S)_{aa}|` of the vector actually stored. `M` is dropped
//! with the solve; a loaded index recomputes the residual on first use by
//! streaming the rows 8 at a time, never holding `M`.
//!
//! A query for vertex `u` then evaluates the series column without any
//! matrix: push `u`'s reverse-walk distributions `h₀..h_K` (`O(K·(n+m))`),
//! and fold them back through Horner's rule
//! `r ← d ⊙ hₖ + C · Q r` — `O(K·(n+m))` again, `O(K·n)` transient
//! memory. At the solver's fixed point the query's own diagonal entry
//! `r[u]` lands on 1 up to the solver tolerance — a built-in accuracy
//! probe.
//!
//! # Example
//!
//! ```
//! use simrank_core::index::SimRankIndex;
//! use simrank_core::query::QueryEngine;
//! use simrank_core::{naive::naive_simrank, SimRankOptions};
//! use simrank_graph::fixtures::paper_fig1a;
//!
//! let g = paper_fig1a();
//! let opts = SimRankOptions::default().with_damping(0.6).with_epsilon(1e-4);
//! let index = SimRankIndex::build(&g, &opts);
//!
//! // Index-backed single-source agrees with the exact dense oracle.
//! let dense = naive_simrank(&g, &opts.with_iterations(25)).0;
//! let col = index.single_source(1);
//! for v in 0..g.node_count() {
//!     assert!((col[v] - dense.get(1, v)).abs() < 1e-3);
//! }
//! // Top-k without ever touching an n×n matrix.
//! let top = index.top_k(1, 3);
//! assert_eq!(top.len(), 3);
//! ```

use crate::instrument::{PhaseTimer, Report};
use crate::options::SimRankOptions;
use crate::query::{check_source, QueryEngine};
use simrank_graph::{DiGraph, EdgeDelta, GraphError, NodeId};
use simrank_par::{self as par, OpCounter};
use std::sync::OnceLock;

/// Hard cap on diagonal-correction solver rounds. CGLS usually converges
/// in far fewer (in exact arithmetic it terminates in at most `n` steps,
/// and the constraint matrix is close to the identity on sparse graphs);
/// the cap bounds construction time on adversarial inputs, and
/// [`SimRankIndex::solver_residual`] exposes how converged the index
/// actually is.
pub const MAX_SOLVER_ROUNDS: u32 = 256;

/// Fixed shard count for the `Mᵀ·x` scatter of the stored rows. The
/// partition is a function of the vertex count alone — never of the worker
/// count — so the shard-fold order (ascending shard index) yields
/// bit-identical sums at every pool width. Also bounds the scatter's
/// accumulator arena at `TRANSPOSE_SHARDS · n` doubles (see the solve's
/// `Report::peak_intermediate_bytes`).
pub const TRANSPOSE_SHARDS: usize = 64;

/// A precomputed single-source / top-k SimRank query index: the graph's
/// backward-transition structure plus the diagonal correction vector of
/// the SimRank linearization (see the [module docs](self)).
///
/// Build with [`SimRankIndex::build`], persist with
/// [`crate::persist::save_index`] / [`crate::persist::load_index`]
/// (format `SRI1`), query with any [`crate::query::QueryEngine`] verb.
#[derive(Clone, Debug)]
pub struct SimRankIndex {
    /// The indexed graph (embedded so a persisted index is
    /// self-contained — serving needs no side channel for the topology).
    graph: DiGraph,
    /// `1/|I(v)|` per vertex (`0` for in-degree-0 vertices): the only
    /// transition weights SimRank's reverse walks need.
    inv_in: Vec<f64>,
    /// The diagonal correction vector `d`.
    diag: Vec<f64>,
    /// Damping factor `C` the index was built for.
    damping: f64,
    /// Series truncation depth `K` (reverse-walk length).
    depth: u32,
    /// True constraint residual `max_a |1 − (S)_{aa}|` of `diag` as
    /// stored: set by the solve, or (not persisted) re-derived with the
    /// identical bits on a loaded index's first
    /// [`SimRankIndex::solver_residual`] call.
    residual: OnceLock<f64>,
}

/// Constraint rows one walk of the row build covers at once: their
/// reverse walks are the columns of row-major `n × WB` blocks, so one pass
/// over the out-lists advances all of them.
const WB: usize = 8;

/// One reverse-walk step `next ← Qᵀ·cur` for `B` walks at once: `cur` and
/// `next` are row-major `n × B` blocks (column `s` is walk `s`) and `w` is
/// scratch of the same shape. Similarity mass flows from each vertex to
/// its in-neighbors, scaled by `1/|I(·)|`: the scale is applied once per
/// vertex, then each target gathers its sorted out-neighbor rows, so the
/// accumulation order is a pure function of the graph — never of
/// scheduling or of `B` (every column is bit-for-bit the `B = 1` walk).
fn reverse_step<const B: usize>(
    g: &DiGraph,
    inv_in: &[f64],
    cur: &[f64],
    w: &mut [f64],
    next: &mut [f64],
) {
    for ((wr, cr), &scale) in w.chunks_exact_mut(B).zip(cur.chunks_exact(B)).zip(inv_in) {
        for (wv, &cv) in wr.iter_mut().zip(cr) {
            *wv = cv * scale;
        }
    }
    for (j, row) in next.chunks_exact_mut(B).enumerate() {
        row.copy_from_slice(&par::kernel::gather_sum_block::<B>(
            w,
            g.out_neighbors(j as NodeId),
        ));
    }
}

/// One forward step `next ← Q·cur`: row `i` of `Q` averages over `I(i)`.
fn forward_step(g: &DiGraph, inv_in: &[f64], cur: &[f64], next: &mut [f64]) {
    for (i, slot) in next.iter_mut().enumerate() {
        *slot = par::kernel::gather_sum(cur, g.in_neighbors(i as NodeId)) * inv_in[i];
    }
}

/// `1/|I(v)|` per vertex, `0.0` where `I(v)` is empty.
fn inverse_in_degrees(g: &DiGraph) -> Vec<f64> {
    (0..g.node_count())
        .map(|v| {
            let d = g.in_degree(v as NodeId);
            if d == 0 {
                0.0
            } else {
                1.0 / d as f64
            }
        })
        .collect()
}

/// Splits a vertex range into the consecutive sub-blocks of at most
/// [`WB`] rows that one blocked walk covers (the last may be partial).
fn row_blocks(rows: std::ops::Range<usize>) -> impl Iterator<Item = std::ops::Range<usize>> {
    let end = rows.end;
    rows.step_by(WB).map(move |a| a..(a + WB).min(end))
}

/// One stored constraint row `m_a`: the columns of its nonzeros,
/// ascending, and their values, each allocated once at its exact length
/// (12 bytes per entry).
#[derive(Default)]
struct Row {
    cols: Box<[u32]>,
    vals: Box<[f64]>,
}

impl Row {
    /// `⟨m_a, x⟩` in [`par::kernel::gather_dot`]'s fixed order — the one
    /// row dot of the solve and of the residual.
    fn dot(&self, x: &[f64]) -> f64 {
        par::kernel::gather_dot(&self.vals, &self.cols, x)
    }

    /// Stored entries: the op bill of one dot or one scatter of the row.
    fn nnz(&self) -> u64 {
        self.cols.len() as u64
    }
}

/// The four `n × WB` blocks one [`constraint_rows`] call steps through:
/// the walk's `cur` and `nxt`, the step's scale scratch, and the rows'
/// accumulator.
fn walk_buffers(n: usize) -> [Vec<f64>; 4] {
    std::array::from_fn(|_| vec![0.0f64; n * WB])
}

/// Builds the up-to-[`WB`] constraint rows `a ∈ rows` of
/// `M = Σ_k Cᵏ (Qᵏ ∘ Qᵏ)`: their `h₀..h_K` walk side by side as the
/// columns of `cur`/`nxt`, and lane `s` accumulates
/// `m_a[j] = [a = j] + Σ_k Cᵏ (hₖᵃ[j])²` per entry, levels ascending.
/// Each row keeps its exact nonzeros. Lane `s` is bit-for-bit row
/// `rows.start + s` built alone (the lanes past a partial block are never
/// seeded and come back empty), and the op bill is exactly the sum of the
/// rows' bills: per level, the step's `m = |E|` gathers plus one add per
/// nonzero `hₖᵃ[j]`. This is the single definition of the row arithmetic —
/// the solve and the residual of a loaded index both run it.
fn constraint_rows(
    g: &DiGraph,
    inv_in: &[f64],
    c: f64,
    depth: u32,
    rows: std::ops::Range<usize>,
    [cur, nxt, w, acc]: &mut [Vec<f64>; 4],
    ops: &mut OpCounter,
) -> [Row; WB] {
    let live = rows.len();
    cur.fill(0.0);
    acc.fill(0.0);
    for (s, a) in rows.enumerate() {
        cur[a * WB + s] = 1.0;
        acc[a * WB + s] = 1.0;
    }
    let mut nnz = [0u64; WB];
    let mut ck = 1.0;
    for _ in 0..depth {
        reverse_step::<WB>(g, inv_in, cur, w, nxt);
        ck *= c;
        // A zero `h` adds an exact `+0.0` to a nonnegative entry, so the
        // loop runs dense and branch-free; the bill counts the nonzeros.
        for (mr, hr) in acc.chunks_exact_mut(WB).zip(nxt.chunks_exact(WB)) {
            for ((m, &h), count) in mr.iter_mut().zip(hr).zip(&mut nnz) {
                *m += ck * h * h;
                *count += u64::from(h != 0.0);
            }
        }
        std::mem::swap(cur, nxt);
    }
    let walk = u64::from(depth) * g.edge_count() as u64;
    for &count in &nnz[..live] {
        ops.add(walk + count);
    }
    std::array::from_fn(|s| {
        let len = acc.chunks_exact(WB).filter(|m| m[s] != 0.0).count();
        let (mut cols, mut vals) = (Vec::with_capacity(len), Vec::with_capacity(len));
        for (j, m) in acc
            .chunks_exact(WB)
            .enumerate()
            .filter(|(_, m)| m[s] != 0.0)
        {
            cols.push(j as NodeId);
            vals.push(m[s]);
        }
        Row {
            cols: cols.into_boxed_slice(),
            vals: vals.into_boxed_slice(),
        }
    })
}

/// The series depth ceiling for any damping (`Cᵏ < 2⁻⁵³` past it for
/// `C ≤ 0.99`); it bounds [`max_depth`]'s loop, so an `SRI1` header check
/// takes constant time.
pub(crate) const MAX_INDEX_DEPTH: u32 = 1 << 12;

/// The deepest useful series depth for damping `c`: the first `k` at
/// which the level weight `ck *= c` of [`constraint_rows`] stops
/// changing — `0.0` for `c ≤ 1/2`, a few subnormal ulps above (round-to-
/// nearest never takes it to zero), so deeper levels repeat that weight —
/// capped at [`MAX_INDEX_DEPTH`]. 1457 at `c = 0.6`.
pub(crate) fn max_depth(c: f64) -> u32 {
    let (mut ck, mut k) = (1.0f64, 0u32);
    while k < MAX_INDEX_DEPTH && ck * c != ck {
        ck *= c;
        k += 1;
    }
    k
}

/// Peak transient memory of one diagonal solve on `n` vertices over
/// `workers` workers, whose `M` stores `nnz` entries: the stored entries
/// (12 bytes each), plus the larger of the row build's four `n × WB`
/// blocks per worker and the CGLS phase's `Mᵀ·x` accumulator arena (one
/// `n`-vector per [`TRANSPOSE_SHARDS`] shard) with its five `n`-vectors
/// (`d`, `r`, `s`, `p` and the `M·x` output).
fn solve_intermediate_bytes(n: usize, nnz: usize, workers: usize) -> usize {
    let walk = workers * 4 * n * WB;
    let cgls = (TRANSPOSE_SHARDS.min(n.max(1)) + 5) * n;
    nnz * (std::mem::size_of::<NodeId>() + std::mem::size_of::<f64>())
        + walk.max(cgls) * std::mem::size_of::<f64>()
}

/// The constraint matrix `M` of one diagonal solve, stored row by row,
/// with the fixed sweep structure allocated once per solve: the vertex
/// partition `blocks`, the [`TRANSPOSE_SHARDS`]-way partition `shards`
/// with its flat `shards.len() × n` accumulator arena `partials`, and a
/// recycled item-index buffer.
struct RowMatrix {
    rows: Vec<Row>,
    blocks: Vec<std::ops::Range<usize>>,
    shards: Vec<std::ops::Range<usize>>,
    items: Vec<usize>,
    partials: Vec<f64>,
}

impl RowMatrix {
    /// Walks every row of `M` once, [`WB`] rows per walk over contiguous
    /// vertex blocks sharded across the pool, and stores it. Adds the
    /// merged walk bill to `counter`.
    fn build(
        pool: &mut par::WorkerPool<'_>,
        g: &DiGraph,
        inv_in: &[f64],
        c: f64,
        depth: u32,
        counter: &mut OpCounter,
    ) -> Self {
        let n = inv_in.len();
        let blocks = par::blocks(n, pool.workers());
        let mut rows: Vec<Row> = std::iter::repeat_with(Row::default).take(n).collect();
        let mut items: Vec<usize> = (0..blocks.len()).collect();
        // SAFETY (SlotWriter): the blocks partition `0..n`, so each row is
        // written by exactly one item.
        let slots = par::SlotWriter::new(&mut rows);
        counter.add(pool.sweep_drain(&mut items, |bi, ops| {
            let mut bufs = walk_buffers(n);
            for block in row_blocks(blocks[bi].clone()) {
                let built = constraint_rows(g, inv_in, c, depth, block.clone(), &mut bufs, ops);
                for (a, row) in block.zip(built) {
                    unsafe { *slots.slot_mut(a) = row };
                }
            }
        }));
        let shards = par::blocks(n, TRANSPOSE_SHARDS.min(n));
        RowMatrix {
            rows,
            partials: vec![0.0f64; shards.len() * n],
            blocks,
            shards,
            items,
        }
    }

    /// Stored entries of `M`.
    fn nnz(&self) -> usize {
        self.rows.iter().map(|row| row.cols.len()).sum()
    }

    /// `out[a] = ⟨m_a, x⟩` for every vertex — `M·x`, sharded by
    /// contiguous vertex blocks with disjoint per-vertex writes. Returns
    /// the merged add count.
    fn apply(&mut self, pool: &mut par::WorkerPool<'_>, x: &[f64], out: &mut [f64]) -> u64 {
        let (rows, blocks) = (&self.rows, &self.blocks);
        // SAFETY (SlotWriter): the blocks partition `0..n`, so each element of
        // `out` is written by exactly one item.
        let slots = par::SlotWriter::new(out);
        self.items.extend(0..blocks.len());
        pool.sweep_drain(&mut self.items, |bi, ops| {
            for a in blocks[bi].clone() {
                unsafe { *slots.slot_mut(a) = rows[a].dot(x) };
                ops.add(rows[a].nnz());
            }
        })
    }

    /// `out = Mᵀ·x`: rows scatter `x[a]·m_a` in ascending order into
    /// per-shard accumulators, then the shards fold in ascending index
    /// order — a summation tree that is a pure function of `n`, so the
    /// result is bit-identical at every pool width. Zero-weight rows
    /// contribute nothing and are skipped (a pure function of the values).
    /// Returns the merged add count.
    fn apply_transpose(
        &mut self,
        pool: &mut par::WorkerPool<'_>,
        x: &[f64],
        out: &mut [f64],
    ) -> u64 {
        let (rows, shards) = (&self.rows, &self.shards);
        let n = out.len();
        self.partials.fill(0.0);
        // SAFETY (RowWriter): accumulator row `si` belongs to shard `si` alone.
        let scratch = par::RowWriter::new(&mut self.partials, n);
        self.items.extend(0..shards.len());
        let adds = pool.sweep_drain(&mut self.items, |si, ops| {
            let acc = unsafe { scratch.row_mut(si) };
            for a in shards[si].clone().filter(|&a| x[a] != 0.0) {
                let row = &rows[a];
                for (&j, &v) in row.cols.iter().zip(row.vals.iter()) {
                    acc[j as usize] += x[a] * v;
                }
                ops.add(row.nnz());
            }
        });
        out.fill(0.0);
        for part in self.partials.chunks_exact(n) {
            par::kernel::accumulate(out, part);
        }
        adds
    }
}

impl SimRankIndex {
    /// Builds the index for `g`.
    ///
    /// `opts` supplies the damping factor, the worker count, and the
    /// accuracy target: the series depth is
    /// [`SimRankOptions::conventional_iterations`] (`⌈log_C ε⌉` unless an
    /// explicit `K` is set, capped at 4096 and where `Cᵏ` stops shrinking)
    /// and the diagonal solve runs until its residual
    /// drops below `ε·(1 − C)` (or [`MAX_SOLVER_ROUNDS`]).
    pub fn build(g: &DiGraph, opts: &SimRankOptions) -> SimRankIndex {
        Self::build_with_report(g, opts).0
    }

    /// As [`SimRankIndex::build`], also returning instrumentation:
    /// `iterations` is the CGLS rounds used, `adds` the exact merged
    /// floating-add count, `workers` the pool width. The adds are the row
    /// build (per row and level, `m` walk gathers plus one per nonzero
    /// walk entry), one per stored entry of `M` for every `M·x` and for
    /// every `Mᵀ·x` row of nonzero weight, and `3n` per CGLS round for
    /// the vector updates.
    pub fn build_with_report(g: &DiGraph, opts: &SimRankOptions) -> (SimRankIndex, Report) {
        // Start from d = 1−C: exact wherever reverse walks disperse
        // without revisiting (chains, trees), so the initial residual is
        // already small on sparse graphs.
        let c = opts.damping;
        let seed_d = vec![1.0 - c; g.node_count()];
        Self::solve(g.clone(), seed_d, c, opts.conventional_iterations(), opts)
    }

    /// Incrementally repairs the index after an edit batch: patches the
    /// embedded edge list with [`DiGraph::apply_batch`] and re-solves the
    /// diagonal-correction system `M·d = 𝟙` with the **old `d` as the
    /// CGLS warm start** — the exact solve loop [`SimRankIndex::build`]
    /// runs, just seeded differently, so a repaired index is the same
    /// kind of object as a built one (same determinism contract: bits,
    /// round count, and merged op count invariant across worker counts).
    /// After a small edit the old diagonal is already near the new
    /// system's solution, so the warm solve typically needs a fraction of
    /// a cold build's rounds. The returned [`Report`] says how many:
    /// `iterations` is the CGLS rounds the repair needed (`0` for a
    /// net-no-op batch, which skips the solve).
    ///
    /// `opts` supplies the worker count and the solve tolerance; the
    /// damping factor and series depth are pinned to this index's own
    /// (they define what the stored diagonal *means*). A batch that nets
    /// out to zero effective mutations returns a bit-for-bit clone
    /// without solving. On error the index is unchanged.
    ///
    /// The serving layer composes this with generation reload: repair on
    /// the ingest side, then publish the repaired index through
    /// `simrank_serve`'s `EngineSource` so in-flight queries cut over
    /// atomically.
    ///
    /// # Example
    ///
    /// ```
    /// use simrank_core::index::SimRankIndex;
    /// use simrank_core::query::QueryEngine;
    /// use simrank_core::SimRankOptions;
    /// use simrank_graph::{fixtures::paper_fig1a, EdgeDelta};
    ///
    /// let opts = SimRankOptions::default().with_damping(0.6).with_epsilon(1e-9);
    /// let index = SimRankIndex::build(&paper_fig1a(), &opts);
    ///
    /// // Two edges land, one vanishes: repair instead of rebuilding.
    /// let deltas = [
    ///     EdgeDelta::Insert(2, 5),
    ///     EdgeDelta::Insert(7, 0),
    ///     EdgeDelta::Remove(1, 0),
    /// ];
    /// let (repaired, report) = index.repair(&deltas, &opts).unwrap();
    /// assert!(report.iterations > 0);
    ///
    /// // Same answers as building fresh on the mutated graph.
    /// let fresh = SimRankIndex::build(repaired.graph(), &opts);
    /// for (a, b) in repaired.single_source(3).iter().zip(fresh.single_source(3)) {
    ///     assert!((a - b).abs() < 1e-8);
    /// }
    /// ```
    pub fn repair(
        &self,
        deltas: &[EdgeDelta],
        opts: &SimRankOptions,
    ) -> Result<(SimRankIndex, Report), GraphError> {
        let mut graph = self.graph.clone();
        let summary = graph.apply_batch(deltas)?;
        if summary.is_noop() {
            return Ok((self.clone(), Report::default()));
        }
        // Warm start: the previous diagonal. The constraint matrix moved
        // only where reverse walks cross the touched in-neighborhoods, so
        // the old solution is already near the new one.
        Ok(Self::solve(
            graph,
            self.diag.clone(),
            self.damping,
            self.depth,
            opts,
        ))
    }

    /// The one solve behind [`SimRankIndex::build_with_report`] and
    /// [`SimRankIndex::repair`]: runs [`Self::solve_diagonal`] on `graph`
    /// from the seed `d` and wraps the result as an index with its
    /// [`Report`]. `c` and `depth` define the index; `opts` supplies only
    /// the worker count and the tolerance `ε·(1 − C)`.
    fn solve(
        graph: DiGraph,
        mut d: Vec<f64>,
        c: f64,
        depth: u32,
        opts: &SimRankOptions,
    ) -> (SimRankIndex, Report) {
        let n = graph.node_count();
        // The `SRI1` loader rejects deeper series; they add nothing.
        let depth = depth.min(max_depth(c));
        let tol = (opts.epsilon * (1.0 - c)).max(1e-12);
        let inv_in = inverse_in_degrees(&graph);
        let mut timer = PhaseTimer::start();
        let mut counter = OpCounter::new();
        let workers = par::effective_workers(opts.threads, n);
        let (residual, rounds, nnz) = Self::solve_diagonal(
            &graph,
            &inv_in,
            c,
            depth,
            tol,
            workers,
            &mut d,
            &mut counter,
        );
        let report = Report {
            iterations: rounds,
            adds: counter.total(),
            share_sums: timer.lap(),
            peak_intermediate_bytes: solve_intermediate_bytes(n, nnz, workers),
            workers,
            ..Default::default()
        };
        let index = SimRankIndex {
            graph,
            inv_in,
            diag: d,
            damping: c,
            depth,
            residual: OnceLock::from(residual),
        };
        (index, report)
    }

    /// The CGLS solve of the diagonal system `M·d = 𝟙`, seeded with
    /// whatever `d` the caller passes in: `1 − C` for a cold
    /// [`SimRankIndex::build`], the previous index's diagonal for a warm
    /// [`SimRankIndex::repair`]. Stores `M` once, then every CGLS round
    /// runs on the stored rows. Overwrites `d` with the solution and
    /// returns `(residual, rounds, stored entries of M)`.
    #[allow(clippy::too_many_arguments)]
    fn solve_diagonal(
        g: &DiGraph,
        inv_in: &[f64],
        c: f64,
        depth: u32,
        tol: f64,
        workers: usize,
        d: &mut [f64],
        counter: &mut OpCounter,
    ) -> (f64, u32, usize) {
        let n = d.len();
        let mut residual = 0.0f64;
        let mut rounds = 0u32;
        let mut nnz = 0;
        if n > 0 {
            par::WorkerPool::scoped(workers, |pool| {
                let mut m = RowMatrix::build(pool, g, inv_in, c, depth, counter);
                nnz = m.nnz();
                let mut scratch = vec![0.0f64; n];
                // r = 𝟙 − M·d.
                counter.add(m.apply(pool, d, &mut scratch));
                let mut r: Vec<f64> = scratch.iter().map(|&v| 1.0 - v).collect();
                // s = Mᵀ·r; p = s; γ = ‖s‖².
                let mut s = vec![0.0f64; n];
                counter.add(m.apply_transpose(pool, &r, &mut s));
                let mut p = s.clone();
                let mut gamma: f64 = s.iter().map(|&v| v * v).sum();
                let mut r_inf = r.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
                // CGLS proper: every scalar below is reduced sequentially
                // from vectors that are themselves thread-invariant, so
                // round count and every iterate are too. (The sequential
                // reduction order is load-bearing: the `γ`/`δ`/`r_inf`
                // bits steer the round count, which the exact op-count
                // baselines pin — so these three folds deliberately keep
                // the historical scalar association instead of the
                // lane-chunked kernels.)
                while rounds < MAX_SOLVER_ROUNDS && r_inf > tol && gamma > 0.0 {
                    // q = M·p; α = γ / ‖q‖².
                    counter.add(m.apply(pool, &p, &mut scratch));
                    let delta: f64 = scratch.iter().map(|&v| v * v).sum();
                    if delta == 0.0 {
                        break;
                    }
                    let alpha = gamma / delta;
                    // d += α·p and r −= α·q as elementwise kernels —
                    // bitwise identical to the historical scalar loops
                    // (`−α·q` negates exactly).
                    par::kernel::axpy(d, alpha, &p);
                    par::kernel::axpy(&mut r, -alpha, &scratch);
                    counter.add(2 * n as u64);
                    // s = Mᵀ·r; β = ‖s_new‖² / ‖s_old‖²; p = s + β·p.
                    counter.add(m.apply_transpose(pool, &r, &mut s));
                    let gamma_next: f64 = s.iter().map(|&v| v * v).sum();
                    let beta = gamma_next / gamma;
                    gamma = gamma_next;
                    par::kernel::scaled_accumulate(&mut p, beta, &s);
                    counter.add(n as u64);
                    r_inf = r.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
                    rounds += 1;
                }
                // One true residual pass over the stored d — bit-identical
                // to what a loaded index recomputes on its first
                // `solver_residual` call, so that always describes the
                // vector actually served.
                counter.add(m.apply(pool, d, &mut scratch));
                residual = scratch
                    .iter()
                    .fold(0.0f64, |acc, &v| acc.max((1.0 - v).abs()));
            });
        }
        (residual, rounds, nnz)
    }

    /// Reassembles an index from persisted parts, recomputing the derived
    /// transition weights; the solver residual waits for its first
    /// [`SimRankIndex::solver_residual`] call.
    pub(crate) fn from_parts(
        graph: DiGraph,
        diag: Vec<f64>,
        damping: f64,
        depth: u32,
    ) -> SimRankIndex {
        assert_eq!(graph.node_count(), diag.len(), "diagonal length mismatch");
        let inv_in = inverse_in_degrees(&graph);
        SimRankIndex {
            graph,
            inv_in,
            diag,
            damping,
            depth,
            residual: OnceLock::new(),
        }
    }

    /// Number of indexed vertices.
    pub fn order(&self) -> usize {
        self.diag.len()
    }

    /// The damping factor `C` the index was built for.
    pub fn damping(&self) -> f64 {
        self.damping
    }

    /// The series truncation depth `K` (reverse-walk length).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The diagonal correction vector `d` (one entry per vertex).
    pub fn diagonal_correction(&self) -> &[f64] {
        &self.diag
    }

    /// The indexed graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// How converged the diagonal solve is: `max_a |1 − (S)_{aa}|` under
    /// this index's own query semantics. Zero-ish means every query's
    /// self-similarity lands on 1 to that accuracy. A built or repaired
    /// index knows it from its solve; a loaded one computes it on the
    /// first call, with the same bits.
    pub fn solver_residual(&self) -> f64 {
        *self.residual.get_or_init(|| self.max_constraint_residual())
    }

    /// Evaluates `max_a |1 − ⟨m_a, d⟩|` — the diagonal constraint
    /// residual of the current `d` — streaming [`WB`] rows at a time
    /// through the row build and dot the solver runs, so the value
    /// matches a fresh build's bit-for-bit without ever holding `M`.
    fn max_constraint_residual(&self) -> f64 {
        let mut worst = 0.0f64;
        let mut bufs = walk_buffers(self.order());
        let mut ops = OpCounter::new();
        for block in row_blocks(0..self.order()) {
            let live = block.len();
            let (g, inv_in) = (&self.graph, &self.inv_in);
            let rows = constraint_rows(
                g,
                inv_in,
                self.damping,
                self.depth,
                block,
                &mut bufs,
                &mut ops,
            );
            for row in &rows[..live] {
                worst = worst.max((1.0 - row.dot(&self.diag)).abs());
            }
        }
        worst
    }
}

/// Equality of the persisted fields — graph, `d`, `C` and `K`; the
/// transition weights and the residual are pure functions of them.
impl PartialEq for SimRankIndex {
    fn eq(&self, other: &Self) -> bool {
        self.graph == other.graph
            && self.diag == other.diag
            && self.damping == other.damping
            && self.depth == other.depth
    }
}

/// The index behind the unified query surface: `top_k` is the
/// shared-comparator selection over `single_source`, and the batch verbs
/// inherit the trait's pool-sharded defaults (bit-for-bit equal to
/// one-by-one queries at every thread count).
impl QueryEngine for SimRankIndex {
    fn order(&self) -> usize {
        SimRankIndex::order(self)
    }

    /// Single-source query: the full score vector `s(u, ·)` (including
    /// `s(u, u) ≈ 1`), in `O(K·(n + m))` time and `O(K·n)` transient
    /// memory — no `n × n` anything.
    fn single_source(&self, u: NodeId) -> Vec<f64> {
        let n = self.order();
        check_source(u as usize, n);
        // Push u's reverse-walk distributions h₀..h_K ...
        let mut levels: Vec<Vec<f64>> = Vec::with_capacity(self.depth as usize + 1);
        let mut seed = vec![0.0f64; n];
        seed[u as usize] = 1.0;
        levels.push(seed);
        let mut w = vec![0.0f64; n];
        for _ in 0..self.depth {
            let mut next = vec![0.0f64; n];
            reverse_step::<1>(
                &self.graph,
                &self.inv_in,
                levels.last().expect("seeded"),
                &mut w,
                &mut next,
            );
            levels.push(next);
        }
        // ... then fold back with Horner: r ← d ⊙ hₖ + C·Q·r.
        let mut r: Vec<f64> = levels
            .pop()
            .expect("depth+1 levels")
            .iter()
            .zip(&self.diag)
            .map(|(&h, &dv)| h * dv)
            .collect();
        let mut tmp = vec![0.0f64; n];
        while let Some(level) = levels.pop() {
            forward_step(&self.graph, &self.inv_in, &r, &mut tmp);
            for ((slot, &h), (&dv, &qr)) in r.iter_mut().zip(&level).zip(self.diag.iter().zip(&tmp))
            {
                *slot = h * dv + self.damping * qr;
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_simrank;
    use crate::psum::psum_simrank;
    use crate::topk;
    use simrank_graph::fixtures::{paper_fig1a, two_triangles};
    use simrank_graph::gen;
    use std::num::NonZeroUsize;

    fn opts() -> SimRankOptions {
        SimRankOptions::default()
            .with_damping(0.6)
            .with_epsilon(1e-4)
    }

    /// Constraint row `a` built alone, walking `h₀..h_K` one level at a
    /// time — the oracle every lane of [`constraint_rows`] must reproduce
    /// bit for bit, op bill included.
    fn constraint_row(
        g: &DiGraph,
        inv_in: &[f64],
        c: f64,
        depth: u32,
        a: usize,
        ops: &mut OpCounter,
    ) -> Vec<(NodeId, f64)> {
        let n = g.node_count();
        let (mut cur, mut nxt, mut w) = (vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; n]);
        cur[a] = 1.0;
        let mut m = cur.clone();
        let mut ck = 1.0;
        for _ in 0..depth {
            reverse_step::<1>(g, inv_in, &cur, &mut w, &mut nxt);
            ck *= c;
            for (mj, &h) in m.iter_mut().zip(&nxt) {
                if h != 0.0 {
                    *mj += ck * h * h;
                    ops.add(1);
                }
            }
            ops.add(g.edge_count() as u64);
            std::mem::swap(&mut cur, &mut nxt);
        }
        (0..n as NodeId).zip(m).filter(|&(_, v)| v != 0.0).collect()
    }

    /// Graphs for the blocked-vs-scalar row checks: fewer than `WB`
    /// vertices, in-degree-0 and isolated vertices, a dense random graph
    /// and a copying-model web graph.
    fn row_graphs() -> Vec<DiGraph> {
        vec![
            two_triangles(),
            DiGraph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap(),
            DiGraph::from_edges(11, [(0, 1), (1, 2), (2, 1), (3, 4), (4, 4), (5, 6)]).unwrap(),
            paper_fig1a(),
            gen::gnm(21, 70, 5),
            gen::copying_web_graph(gen::CopyingParams::berkstan_like(30), 2),
        ]
    }

    #[test]
    fn blocked_row_build_matches_scalar_rows_bit_for_bit() {
        for g in row_graphs() {
            let n = g.node_count();
            let inv_in = inverse_in_degrees(&g);
            for depth in [0u32, 1, 6] {
                let mut bufs = walk_buffers(n);
                // Every start and every block fill `1..=WB` (clipped at `n`).
                for rows in (0..n).flat_map(|a| (1..=WB.min(n - a)).map(move |f| a..a + f)) {
                    let mut blocked_ops = OpCounter::new();
                    let got = constraint_rows(
                        &g,
                        &inv_in,
                        0.6,
                        depth,
                        rows.clone(),
                        &mut bufs,
                        &mut blocked_ops,
                    );
                    let mut scalar_ops = OpCounter::new();
                    for (s, row) in got.iter().enumerate() {
                        let got: Vec<(NodeId, u64)> = row
                            .cols
                            .iter()
                            .zip(row.vals.iter())
                            .map(|(&j, v)| (j, v.to_bits()))
                            .collect();
                        let want: Vec<(NodeId, u64)> = match rows.clone().nth(s) {
                            Some(a) => constraint_row(&g, &inv_in, 0.6, depth, a, &mut scalar_ops)
                                .into_iter()
                                .map(|(j, v)| (j, v.to_bits()))
                                .collect(),
                            None => Vec::new(),
                        };
                        assert_eq!(got, want, "n={n} K={depth} rows={rows:?} lane {s}");
                    }
                    assert_eq!(
                        blocked_ops.total(),
                        scalar_ops.total(),
                        "n={n} K={depth} rows={rows:?} ops"
                    );
                }
            }
        }
    }

    /// For every row graph, depth and pool width: stores `M` with
    /// [`RowMatrix::build`], hands `f` the scalar rows (and the merged
    /// scalar bill), the probe `x` (with zeros) and the stored matrix, and
    /// checks the build's merged bill against the scalar one.
    fn with_stored_rows(
        mut f: impl FnMut(&[Vec<(NodeId, f64)>], &[f64], &mut par::WorkerPool<'_>, &mut RowMatrix),
    ) {
        for g in row_graphs() {
            let (n, inv_in) = (g.node_count(), inverse_in_degrees(&g));
            let x: Vec<f64> = (0..n).map(|j| (j % 3) as f64 * (j as f64).sin()).collect();
            for (depth, workers) in [(1u32, 1usize), (6, 1), (6, 2), (6, 4)] {
                let mut want_ops = OpCounter::new();
                let rows: Vec<_> = (0..n)
                    .map(|a| constraint_row(&g, &inv_in, 0.6, depth, a, &mut want_ops))
                    .collect();
                par::WorkerPool::scoped(workers, |pool| {
                    let mut ops = OpCounter::new();
                    let mut m = RowMatrix::build(pool, &g, &inv_in, 0.6, depth, &mut ops);
                    assert_eq!(ops.total(), want_ops.total(), "n={n} K={depth} w={workers}");
                    f(&rows, &x, pool, &mut m);
                });
            }
        }
    }

    #[test]
    fn blocked_row_dot_matches_scalar_rows_bit_for_bit() {
        with_stored_rows(|rows, x, pool, m| {
            let mut got = vec![0.0f64; x.len()];
            let ops = m.apply(pool, x, &mut got);
            for (a, row) in rows.iter().enumerate() {
                let (cols, vals): (Vec<NodeId>, Vec<f64>) = row.iter().copied().unzip();
                let want = par::kernel::gather_dot(&vals, &cols, x);
                assert_eq!(got[a].to_bits(), want.to_bits(), "row {a} of {}", x.len());
            }
            assert_eq!(ops, rows.iter().map(|r| r.len() as u64).sum::<u64>());
        });
    }

    #[test]
    fn blocked_row_scatter_matches_scalar_rows_bit_for_bit() {
        with_stored_rows(|rows, x, pool, m| {
            let n = x.len();
            let (mut want, mut want_ops) = (vec![0.0f64; n], 0u64);
            // The fixed shard tree: per-shard partials, folded in shard order.
            for shard in par::blocks(n, TRANSPOSE_SHARDS.min(n)) {
                let mut part = vec![0.0f64; n];
                for a in shard.filter(|&a| x[a] != 0.0) {
                    for &(j, v) in &rows[a] {
                        part[j as usize] += x[a] * v;
                    }
                    want_ops += rows[a].len() as u64;
                }
                par::kernel::accumulate(&mut want, &part);
            }
            let mut got = vec![0.0f64; n];
            assert_eq!(m.apply_transpose(pool, x, &mut got), want_ops);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n={n}");
        });
    }

    #[test]
    fn diagonal_matches_the_dense_fixed_point() {
        // d_a = 1 − C·(Q S Qᵀ)_aa, with S the naive dense fixed point: the
        // diagonal the linearization must recover. A deep series and a
        // tight solve (ε = 1e-10; measured gap at most 9e-12) against a
        // 1e-9 tolerance.
        let o = opts().with_epsilon(1e-10);
        for g in [paper_fig1a(), two_triangles(), gen::gnm(30, 110, 3)] {
            let s = &naive_simrank(&g, &o.with_iterations(80)).0;
            let index = SimRankIndex::build(&g, &o);
            for (a, &d) in index.diagonal_correction().iter().enumerate() {
                let ins = g.in_neighbors(a as NodeId);
                let qsq: f64 = ins
                    .iter()
                    .flat_map(|&i| ins.iter().map(move |&j| s.get(i as usize, j as usize)))
                    .sum::<f64>()
                    / (ins.len().max(1) * ins.len().max(1)) as f64;
                let want = 1.0 - 0.6 * qsq;
                assert!((d - want).abs() < 1e-9, "d[{a}] = {d}, oracle {want}");
            }
        }
    }

    /// Dense oracle at depth high enough that truncation error is far
    /// below the comparison tolerance (C^26/(1−C) ≈ 4e-6 at C = 0.6).
    fn oracle(g: &DiGraph, opts: &SimRankOptions) -> crate::SimMatrix {
        naive_simrank(g, &opts.with_iterations(25)).0
    }

    #[test]
    fn index_matches_naive_oracle_on_fixtures() {
        for g in [paper_fig1a(), two_triangles()] {
            let opts = opts();
            let index = SimRankIndex::build(&g, &opts);
            let dense = oracle(&g, &opts);
            for u in 0..g.node_count() {
                let col = index.single_source(u as NodeId);
                for v in 0..g.node_count() {
                    assert!(
                        (col[v] - dense.get(u, v)).abs() < 1e-3,
                        "s({u},{v}): index {} vs naive {}",
                        col[v],
                        dense.get(u, v)
                    );
                }
            }
        }
    }

    #[test]
    fn index_matches_psum_on_random_graphs() {
        for (seed, n, m) in [(3u64, 30usize, 110usize), (11, 24, 60)] {
            let g = gen::gnm(n, m, seed);
            let opts = opts();
            let index = SimRankIndex::build(&g, &opts);
            let dense = psum_simrank(&g, &opts.with_iterations(25));
            for u in 0..n {
                let col = index.single_source(u as NodeId);
                for v in 0..n {
                    assert!(
                        (col[v] - dense.get(u, v)).abs() < 1e-3,
                        "seed {seed} s({u},{v}): {} vs {}",
                        col[v],
                        dense.get(u, v)
                    );
                }
            }
        }
    }

    #[test]
    fn self_similarity_lands_on_one() {
        let g = gen::copying_web_graph(gen::CopyingParams::berkstan_like(50), 7);
        let index = SimRankIndex::build(&g, &opts());
        assert!(index.solver_residual() < 1e-4 * (1.0 - 0.6) + 1e-12);
        for u in (0..50).step_by(7) {
            let col = index.single_source(u);
            assert!(
                (col[u as usize] - 1.0).abs() < 1e-4,
                "diag({u}) = {}",
                col[u as usize]
            );
        }
    }

    #[test]
    fn solver_converges_on_pure_cycles_where_jacobi_diverges() {
        // On a pure directed L-cycle the Jacobi iteration matrix for the
        // diagonal system has spectral radius Σ_{k=1}^{L−1} Cᵏ / M_aa > 1
        // already for L = 4 at C = 0.6 — the motivating case for solving
        // via CGLS instead. The exact solution is uniform d = 1 − C
        // (walks around the cycle never re-meet), and off-diagonal
        // similarities are exactly zero.
        for (len, c) in [(4usize, 0.6f64), (5, 0.8), (3, 0.7)] {
            let edges: Vec<(NodeId, NodeId)> = (0..len)
                .map(|v| (v as NodeId, ((v + 1) % len) as NodeId))
                .collect();
            let g = DiGraph::from_edges(len, edges).unwrap();
            let o = SimRankOptions::default().with_damping(c).with_epsilon(1e-6);
            let index = SimRankIndex::build(&g, &o);
            assert!(
                index.solver_residual() < 1e-6,
                "cycle len {len}, C = {c}: residual {}",
                index.solver_residual()
            );
            for &d in index.diagonal_correction() {
                assert!((d - (1.0 - c)).abs() < 1e-6, "cycle len {len}: d = {d}");
            }
            let col = index.single_source(0);
            assert!((col[0] - 1.0).abs() < 1e-6);
            for &s in &col[1..] {
                assert!(s.abs() < 1e-6, "off-diagonal on a cycle must vanish: {s}");
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_and_reports_workers() {
        let g = gen::gnm(40, 160, 9);
        let base_opts = opts();
        let (base, r1) = SimRankIndex::build_with_report(&g, &base_opts.with_threads(1));
        assert_eq!(r1.workers, 1);
        assert!(r1.adds > 0, "build must be op-counted");
        for t in [2usize, 4, 8] {
            let (idx, rt) = SimRankIndex::build_with_report(&g, &base_opts.with_threads(t));
            assert_eq!(idx, base, "threads = {t} diverged");
            assert_eq!(rt.workers, t.min(40));
            assert_eq!(
                rt.iterations, r1.iterations,
                "round count must not depend on threads"
            );
            assert_eq!(rt.adds, r1.adds, "op counts must merge exactly");
        }
    }

    #[test]
    fn solve_memory_counts_the_blocked_walk_buffers() {
        // n = 40, K = 5: 12 bytes per stored entry of M, plus the larger of
        // the CGLS phase (a 40-shard arena and five CGLS vectors) and the
        // row build (four 40 × WB blocks per worker). Build and repair
        // report the same formula, each with its own M.
        let g = gen::gnm(40, 160, 9);
        let o = opts().with_iterations(5);
        let nnz = |g: &DiGraph| -> usize {
            let inv_in = inverse_in_degrees(g);
            let mut ops = OpCounter::new();
            (0..40)
                .map(|a| constraint_row(g, &inv_in, 0.6, 5, a, &mut ops).len())
                .sum()
        };
        for (t, walk) in [(1usize, (40 + 5) * 40 * 8), (2, 2 * 4 * 40 * WB * 8)] {
            let (index, built) = SimRankIndex::build_with_report(&g, &o.with_threads(t));
            assert_eq!(
                built.peak_intermediate_bytes,
                nnz(&g) * 12 + walk,
                "threads = {t}"
            );
            let deltas = [EdgeDelta::Insert(0, 39)];
            let (repaired, report) = index.repair(&deltas, &o.with_threads(t)).unwrap();
            let want = nnz(repaired.graph()) * 12 + walk;
            assert_eq!(report.peak_intermediate_bytes, want, "threads = {t}");
        }
    }

    #[test]
    fn batch_queries_match_single_queries_at_any_width() {
        let g = gen::gnm(25, 80, 4);
        let index = SimRankIndex::build(&g, &opts());
        let sources: Vec<NodeId> = (0..25).collect();
        let singles: Vec<Vec<f64>> = sources.iter().map(|&u| index.single_source(u)).collect();
        let tops: Vec<_> = sources.iter().map(|&u| index.top_k(u, 5)).collect();
        for t in [1usize, 2, 4, 8] {
            let w = NonZeroUsize::new(t).unwrap();
            assert_eq!(index.single_source_batch(&sources, w), singles, "t = {t}");
            assert_eq!(index.top_k_batch(&sources, 5, w), tops, "t = {t}");
        }
    }

    #[test]
    fn top_k_is_the_ranking_prefix_and_excludes_the_query() {
        let g = paper_fig1a();
        let index = SimRankIndex::build(&g, &opts());
        let col = index.single_source(1);
        let full = topk::rank_scores(&col, 1);
        for k in [0usize, 1, 3, 8, 20] {
            let got = index.top_k(1, k);
            assert_eq!(got, full[..k.min(full.len())].to_vec(), "k = {k}");
            assert!(got.iter().all(|&(v, _)| v != 1));
        }
    }

    #[test]
    fn degenerate_graphs_build_cleanly() {
        let empty = DiGraph::from_edges(0, []).unwrap();
        let index = SimRankIndex::build(&empty, &opts());
        assert_eq!(index.order(), 0);
        assert_eq!(index.solver_residual(), 0.0);
        assert!(index
            .single_source_batch(&[], NonZeroUsize::new(4).unwrap())
            .is_empty());

        // A lone vertex (no edges): s(0, 0) = 1 exactly, d = 1.
        let lone = DiGraph::from_edges(1, []).unwrap();
        let index = SimRankIndex::build(&lone, &opts());
        assert_eq!(index.single_source(0), vec![1.0]);
        assert_eq!(index.diagonal_correction(), &[1.0]);

        // Depth 0 truncates the series at S = D, which forces d = 1.
        let g = paper_fig1a();
        let shallow = SimRankIndex::build(&g, &opts().with_iterations(0));
        assert_eq!(shallow.depth(), 0);
        let col = shallow.single_source(2);
        for (v, &s) in col.iter().enumerate() {
            assert_eq!(s, if v == 2 { 1.0 } else { 0.0 });
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_out_of_range_panics() {
        let index = SimRankIndex::build(&paper_fig1a(), &opts());
        index.single_source(99);
    }

    #[test]
    fn repair_matches_fresh_build_answers() {
        let g = gen::gnm(30, 110, 3);
        let o = SimRankOptions::default()
            .with_damping(0.6)
            .with_epsilon(1e-9);
        let index = SimRankIndex::build(&g, &o);
        let deltas = [
            EdgeDelta::Insert(0, 29),
            EdgeDelta::Insert(13, 2),
            EdgeDelta::Remove(g.edges().next().unwrap().0, g.edges().next().unwrap().1),
        ];
        let (repaired, report) = index.repair(&deltas, &o).unwrap();
        let fresh = SimRankIndex::build(repaired.graph(), &o);
        assert_eq!(repaired.depth(), index.depth());
        assert_eq!(repaired.damping(), index.damping());
        for u in 0..30 {
            let (a, b) = (repaired.single_source(u), fresh.single_source(u));
            for v in 0..30 {
                assert!(
                    (a[v] - b[v]).abs() <= 1e-8,
                    "s({u},{v}): repaired {} vs fresh {}",
                    a[v],
                    b[v]
                );
            }
        }
        assert!(report.adds > 0, "repair must be op-counted");
    }

    #[test]
    fn repair_warm_start_needs_fewer_rounds_than_cold_build() {
        let g = gen::copying_web_graph(gen::CopyingParams::berkstan_like(80), 5);
        let o = SimRankOptions::default()
            .with_damping(0.6)
            .with_epsilon(1e-8);
        let index = SimRankIndex::build(&g, &o);
        let deltas = [EdgeDelta::Insert(3, 77), EdgeDelta::Remove(0, 1)];
        let (repaired, warm) = index.repair(&deltas, &o).unwrap();
        let (_, cold) = SimRankIndex::build_with_report(repaired.graph(), &o);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} rounds vs cold {}",
            warm.iterations,
            cold.iterations
        );
        assert!(repaired.solver_residual() <= 1e-8 * (1.0 - 0.6) + 1e-12);
    }

    #[test]
    fn repair_noop_batch_is_bit_identical_clone() {
        let g = paper_fig1a();
        let o = opts();
        let index = SimRankIndex::build(&g, &o);
        // (1,0) present (insert = no-op), (0,1) absent (remove = no-op).
        let (same, report) = index
            .repair(&[EdgeDelta::Insert(1, 0), EdgeDelta::Remove(0, 1)], &o)
            .unwrap();
        assert_eq!(same, index);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.adds, 0);
    }

    #[test]
    fn repair_error_leaves_index_untouched() {
        let index = SimRankIndex::build(&paper_fig1a(), &opts());
        let before = index.clone();
        assert!(index.repair(&[EdgeDelta::Insert(0, 42)], &opts()).is_err());
        assert_eq!(index, before);
    }

    #[test]
    fn repair_is_thread_invariant() {
        let g = gen::gnm(24, 70, 8);
        let o = SimRankOptions::default()
            .with_damping(0.6)
            .with_epsilon(1e-6);
        let index = SimRankIndex::build(&g, &o.with_threads(1));
        let deltas = [
            EdgeDelta::Insert(2, 23),
            EdgeDelta::Remove(g.edges().nth(5).unwrap().0, g.edges().nth(5).unwrap().1),
        ];
        let (base, r1) = index.repair(&deltas, &o.with_threads(1)).unwrap();
        for t in [2usize, 4, 8] {
            let (idx, rt) = index.repair(&deltas, &o.with_threads(t)).unwrap();
            assert_eq!(idx, base, "threads = {t} diverged");
            assert_eq!(rt.iterations, r1.iterations, "threads = {t} round count");
            assert_eq!(rt.adds, r1.adds, "threads = {t} op counts");
        }
    }

    #[test]
    fn depth_bound_is_where_the_level_weight_stops_shrinking() {
        let weight = |c: f64, k: u32| (0..k).fold(1.0f64, |ck, _| ck * c);
        for (c, k) in [(0.3, 619), (0.5, 1075), (0.6, 1457), (0.8, 3332)] {
            assert_eq!(max_depth(c), k);
            assert!(weight(c, k) * c == weight(c, k) && weight(c, k - 1) > weight(c, k));
        }
        // Near C = 1 the weight shrinks for billions of levels; the cap binds.
        assert!([0.9999, 1.0 - 1e-9]
            .iter()
            .all(|&c| max_depth(c) == MAX_INDEX_DEPTH));
    }

    #[test]
    fn accessors_expose_build_parameters() {
        let g = two_triangles();
        let o = opts().with_iterations(7);
        let index = SimRankIndex::build(&g, &o);
        assert_eq!(index.order(), g.node_count());
        assert_eq!(index.depth(), 7);
        assert_eq!(index.damping(), 0.6);
        assert_eq!(index.graph(), &g);
        assert_eq!(index.diagonal_correction().len(), g.node_count());
        assert!(index.diagonal_correction().iter().all(|&d| d.is_finite()));
    }
}
