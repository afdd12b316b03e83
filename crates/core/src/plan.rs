//! The partial-sums sharing plan: `DMST-Reduce` and the traversal schedule.
//!
//! This module turns a graph into everything Algorithm 1 needs ahead of the
//! iterations:
//!
//! 1. the *cost graph* `G*` over non-empty in-neighbor sets with transition
//!    costs `TC(A → B) = min(|A ⊖ B|, |B| − 1)` (Eq. 7), rooted at `∅`;
//! 2. its minimum spanning arborescence (procedure `DMST-Reduce`) via a
//!    streaming greedy that is exact because `G*`'s edges only go forward
//!    along the (in-degree, id) total order (so `G*` is a DAG and
//!    per-vertex cheapest-incoming-edge selection is optimal; the unit
//!    tests pin it against full Chu–Liu/Edmonds). A predecessor disjoint
//!    from a target never beats `∅`, so the greedy only visits pairs that
//!    share an in-neighbor: `O(Σₓ |O(x)|²)` time, not `O(t²·d)`;
//! 3. a preorder *walk program* of per-node update ops — the
//!    `(A ∖ B, B ∖ A)` lists of Proposition 3, or all of `B` when summing
//!    from scratch is cheaper — with the lists back to back in one array;
//! 4. a replayable *schedule* of buffer steps covering the whole tree with
//!    `O(log t)` simultaneously-live `n`-vectors: children are visited
//!    smallest-subtree-first and the largest subtree inherits its parent's
//!    buffer in place, so every live buffer halves the remaining subtree.
//!
//! The paper's own Algorithm 1 assumes the tree decomposes into `|O(#)|`
//! disjoint root paths and frees each path's buffers as it goes; the
//! schedule here generalizes that to arbitrary tree shapes while preserving
//! (and slightly strengthening) the memory claim of Proposition 5.

use crate::options::SimRankOptions;
use crate::setops;
use simrank_graph::{DiGraph, NodeId};
use simrank_mst::Arborescence;
use simrank_par as par;
use std::time::{Duration, Instant};

/// How a target's partial sum is obtained: a range of
/// [`SharingPlan::lists`] split in two. `lists[start..split]` holds the
/// rows to subtract, `lists[split..end]` the rows to add.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeOp {
    /// Proposition 3 when set: subtract `I(parent) ∖ I(target)` from the
    /// parent's partial sum and add `I(target) ∖ I(parent)` (`|sub| + |add|`
    /// operations per entry). Otherwise a scratch sum from zero: the sub
    /// range is empty and the add range is all of `I(target)` (`|I| − 1`
    /// additions per entry).
    pub update: bool,
    /// Start of the sub range.
    pub start: u32,
    /// End of the sub range, start of the add range.
    pub split: u32,
    /// End of the add range.
    pub end: u32,
}

impl EdgeOp {
    /// Additions per output entry.
    pub fn cost(&self) -> usize {
        if self.update {
            (self.end - self.start) as usize
        } else {
            (self.end - self.split).saturating_sub(1) as usize
        }
    }
}

/// One step of the replayable inner-partial-sums schedule: it leaves
/// `Partial_{I(w)}(·)` for the target `w` of walk-program node `node` in
/// buffer `slot`, ready for the outer pass. A scratch op sums from zero.
/// An update starts from the parent's partial sum in slot `from`: a copy
/// when `from ≠ slot`, in place otherwise (the paper's chain walk).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Position in [`SharingPlan::outer`], which holds the target and op.
    pub node: u32,
    /// Slot holding the parent's partial sum; `slot` for a scratch op.
    pub from: u32,
    /// Destination buffer slot.
    pub slot: u32,
}

/// One node of the sharing tree's walk program: the tree in preorder,
/// with each node's op and what the **triangular** outer pass (procedure
/// `OP`) needs to prune it. The outer pass reads the program and the
/// node's index lists front to back.
///
/// SimRank is symmetric, so when emitting source `u` the outer walk only
/// needs targets `w > u` (the strictly-upper pairs; the differential mode
/// also keeps `w = u`). The Proposition 4 sharing chain still forces every
/// *ancestor* of a needed node to be computed — `Outer[node]` derives from
/// `Outer[parent]` — but any subtree whose largest target id falls below
/// the source's threshold can be skipped wholesale without touching a
/// single scalar. Because a computed node's parent is always computed too,
/// the values produced by the pruned walk are bit-identical to the full
/// walk's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OuterStep {
    /// Target index into [`SharingPlan::targets`] (tree node `t + 1`).
    pub t: u32,
    /// The target vertex `targets[t]`.
    pub w: NodeId,
    /// Depth below the root `∅` (root children are at depth 0). In
    /// preorder a node's tree parent is the last node visited at
    /// `depth − 1`, so the walk keeps one `OuterPartial` per depth level.
    pub depth: u32,
    /// The exclusive position in [`SharingPlan::outer`] where this node's
    /// subtree ends: jumping there bypasses the whole subtree.
    pub subtree_end: u32,
    /// The largest target *vertex id* anywhere in this node's subtree.
    pub subtree_max: NodeId,
    /// How the node's partial sum is obtained from its parent's.
    pub op: EdgeOp,
}

/// The precomputed sharing plan for a graph.
#[derive(Clone, Debug)]
pub struct SharingPlan {
    /// Vertices with non-empty in-neighbor sets, in `DMST-Reduce`'s
    /// (in-degree, id) sort order, or ascending by id in the flat plan.
    /// Tree node `i + 1` corresponds to `targets[i]`; tree node 0 is the
    /// root `∅`.
    pub targets: Vec<NodeId>,
    /// The minimum spanning arborescence over `1 + targets.len()` nodes.
    pub arb: Arborescence,
    /// The walk program: every tree node in preorder (parents before
    /// children), with its op and the depth and subtree extents the
    /// triangular walk prunes by (see [`OuterStep`]).
    pub outer: Vec<OuterStep>,
    /// Every op's index lists, back to back in walk-program order.
    pub lists: Vec<NodeId>,
    /// The inner-partial-sums schedule.
    pub schedule: Vec<Step>,
    /// Contiguous, independently replayable ranges of [`Self::schedule`],
    /// one per root subtree of the sharing tree. A segment starts with a
    /// from-scratch computation and only ever reads buffers written inside
    /// itself, so distinct segments can run on distinct workers (each with
    /// a private buffer pool) in any order — the unit of parallelism for
    /// the block-sharded engine.
    pub segments: Vec<std::ops::Range<usize>>,
    /// Number of buffer slots the schedule needs.
    pub slots: usize,
    /// Total arborescence weight (sum of chosen transition costs).
    pub tree_weight: u64,
    /// Wall time spent constructing this plan (the Fig. 6b "Build MST"
    /// phase).
    pub build_time: Duration,
}

impl SharingPlan {
    /// Runs `DMST-Reduce` and builds the full plan for `g`. Only
    /// `opts.threads` is read, and the plan is identical at every width.
    pub fn build(g: &DiGraph, opts: &SimRankOptions) -> SharingPlan {
        let start = Instant::now();
        // --- DMST-Reduce line 2: sort vertices by in-degree (ties by id). ---
        let targets = Self::sorted_targets(g);

        // --- Transition costs and arborescence. ---
        let arb = Self::solve_greedy(g, &targets, opts);
        Self::from_tree(g, targets, arb, start)
    }

    /// psum-SR (Lizorkin et al.) as a plan: every target hangs from the
    /// root `∅` and sums its in-neighbors from scratch, with no inner or
    /// outer sum shared. Targets ascend by id, so a block of consecutive
    /// sources needs the walk from the first source on. The largest target
    /// gets no step: it has no pair `w > u` left to emit.
    pub(crate) fn flat(g: &DiGraph) -> SharingPlan {
        let start = Instant::now();
        let targets = g.nodes_with_in_edges();
        let parents = std::iter::once(None).chain(targets.iter().map(|_| Some(0)));
        let costs = targets.iter().map(|&v| g.in_degree(v) as u64 - 1);
        let weights = std::iter::once(0).chain(costs).collect();
        let arb = Arborescence::from_parents(0, parents.collect(), weights);
        let mut plan = Self::from_tree(g, targets, arb, start);
        plan.schedule.pop();
        plan.segments.pop();
        plan
    }

    /// Vertices with non-empty in-neighbor sets, sorted by (in-degree, id).
    fn sorted_targets(g: &DiGraph) -> Vec<NodeId> {
        let mut targets = g.nodes_with_in_edges();
        targets.sort_unstable_by_key(|&v| (g.in_degree(v), v));
        targets
    }

    /// Builds the ops, schedule and traversal metadata for an already
    /// chosen arborescence over `targets` (ordered as in [`Self::build`]
    /// or [`Self::flat`]).
    fn from_tree(
        g: &DiGraph,
        targets: Vec<NodeId>,
        arb: Arborescence,
        start: Instant,
    ) -> SharingPlan {
        let (outer, lists) = Self::walk_program(g, &arb, &targets);
        let (schedule, slots) = Self::build_schedule(&arb, &outer);
        let segments = Self::root_segments(&outer, &schedule);
        let tree_weight = arb.total_weight;
        SharingPlan {
            targets,
            arb,
            outer,
            lists,
            schedule,
            segments,
            slots,
            tree_weight,
            build_time: start.elapsed(),
        }
    }

    /// The rows `op` subtracts.
    pub fn sub(&self, op: &EdgeOp) -> &[NodeId] {
        &self.lists[op.start as usize..op.split as usize]
    }

    /// The rows `op` adds.
    pub fn add(&self, op: &EdgeOp) -> &[NodeId] {
        &self.lists[op.split as usize..op.end as usize]
    }

    /// Effective per-target transition cost `d′` (Proposition 5's
    /// constant): tree weight / #non-empty in-sets. Proposition 5 claims
    /// `d′ ≤ d`, typically `d′ ≪ d`.
    pub fn d_eff(&self) -> f64 {
        if self.targets.is_empty() {
            0.0
        } else {
            self.tree_weight as f64 / self.targets.len() as f64
        }
    }

    /// Streaming greedy `DMST-Reduce`: exact on the DAG-shaped cost graph,
    /// `O(Σₓ |O(x)|²)` time, `O(n)` memory per worker (no edge list
    /// materialized).
    ///
    /// Only predecessors that share an in-neighbor with a target can win:
    /// a disjoint `A` costs `|A ⊖ B| = |A| + |B| > |B| − 1`, which never
    /// beats the root `∅` under the strict `<`. Column `j` therefore walks
    /// `O(x)` for every `x ∈ I(j)`, counting `hits[i] = |I(i) ∩ I(j)|` for
    /// each earlier target `i` it meets, and prices the pair as
    /// `|I(i)| + |I(j)| − 2·hits[i]` with no set merge. Summed over all
    /// columns that is `Σₓ |O(x)|² = Σ_{i,j} |I(i) ∩ I(j)|` out-list steps,
    /// where a scan over every pair merges `Σ_{i<j} (|I(i)| + |I(j)|)`
    /// entries. The touched predecessors are then scanned in ascending rank
    /// order, after the root, with a strict `<`, so ties go to `∅` and then
    /// to the earliest minimal predecessor.
    ///
    /// The scan shards across workers *by column*: column `j`'s best
    /// incoming edge depends only on the read-only in- and out-lists, so
    /// each worker owns a disjoint slice of the best-edge arrays plus its
    /// own `hits`/`touched` scratch, and the chosen tree is identical at
    /// every thread count. Columns are carved into contiguous ranges of
    /// near-equal candidate work `Σ_{x ∈ I(j)} |O(x)|`.
    fn solve_greedy(g: &DiGraph, targets: &[NodeId], opts: &SimRankOptions) -> Arborescence {
        let t = targets.len();
        // best incoming (weight, parent) per tree node; root edges first so
        // ties resolve toward ∅ exactly like the paper's Fig. 2d.
        let mut best_w: Vec<u64> = Vec::with_capacity(t);
        let mut best_p: Vec<usize> = vec![0; t];
        for &v in targets {
            best_w.push((g.in_degree(v) as u64).saturating_sub(1));
        }
        if t > 1 {
            // Every out-neighbor has an in-edge, hence a rank.
            let mut rank = vec![u32::MAX; g.node_count()];
            for (r, &v) in targets.iter().enumerate() {
                rank[v as usize] = r as u32;
            }
            let col_weights: Vec<usize> = targets
                .iter()
                .map(|&v| g.in_neighbors(v).iter().map(|&x| g.out_degree(x)).sum())
                .collect();
            let workers = par::effective_workers(opts.threads, t);
            let col_blocks = par::weighted_blocks(&col_weights, workers);
            let mut items: Vec<(std::ops::Range<usize>, &mut [u64], &mut [usize])> =
                Vec::with_capacity(col_blocks.len());
            let mut w_rest = best_w.as_mut_slice();
            let mut p_rest = best_p.as_mut_slice();
            for block in &col_blocks {
                let (w_band, w_tail) = w_rest.split_at_mut(block.len());
                let (p_band, p_tail) = p_rest.split_at_mut(block.len());
                items.push((block.clone(), w_band, p_band));
                w_rest = w_tail;
                p_rest = p_tail;
            }
            par::WorkerPool::scoped(items.len(), |pool| {
                pool.sweep(items, |(cols, w_band, p_band), _counter| {
                    let base = cols.start;
                    let mut hits = vec![0usize; t];
                    let mut touched: Vec<usize> = Vec::new();
                    for j in cols {
                        let ins_j = g.in_neighbors(targets[j]);
                        for &x in ins_j {
                            for &v in g.out_neighbors(x) {
                                let i = rank[v as usize] as usize;
                                if i < j {
                                    if hits[i] == 0 {
                                        touched.push(i);
                                    }
                                    hits[i] += 1;
                                }
                            }
                        }
                        // Ascending `i` with strict `<` keeps the sequential
                        // tie-break: the earliest minimal predecessor wins.
                        touched.sort_unstable();
                        for &i in &touched {
                            let w = (g.in_degree(targets[i]) + ins_j.len() - 2 * hits[i]) as u64;
                            if w < w_band[j - base] {
                                w_band[j - base] = w;
                                p_band[j - base] = i + 1;
                            }
                            hits[i] = 0;
                        }
                        touched.clear();
                    }
                })
            });
        }
        let mut parents = vec![None; t + 1];
        let mut weights = vec![0u64; t + 1];
        for j in 0..t {
            parents[j + 1] = Some(best_p[j]);
            weights[j + 1] = best_w[j];
        }
        Arborescence::from_parents(0, parents, weights)
    }

    /// Splits the schedule at every root-child compute step. The schedule
    /// builder walks one root subtree to completion before starting the
    /// next, so each subtree occupies a contiguous step range; slot ids are
    /// recycled *between* segments but never shared concurrently within
    /// one, which is what makes per-worker buffer pools sound.
    fn root_segments(outer: &[OuterStep], schedule: &[Step]) -> Vec<std::ops::Range<usize>> {
        let mut starts = Vec::new();
        for (i, step) in schedule.iter().enumerate() {
            if outer[step.node as usize].depth == 0 {
                starts.push(i);
            }
        }
        let mut segments = Vec::with_capacity(starts.len());
        for (i, &s) in starts.iter().enumerate() {
            let end = starts.get(i + 1).copied().unwrap_or(schedule.len());
            segments.push(s..end);
        }
        segments
    }

    /// Builds the [`OuterStep`] program and its index lists: a preorder
    /// over tree nodes, parents before children, with each node's depth,
    /// subtree extent (a node's subtree is exactly the contiguous run of
    /// strictly deeper nodes that follows it), per-subtree max target id (a
    /// reverse-preorder max-fold, children before parents) and op.
    fn walk_program(
        g: &DiGraph,
        arb: &Arborescence,
        targets: &[NodeId],
    ) -> (Vec<OuterStep>, Vec<NodeId>) {
        let children = arb.children();
        let mut outer: Vec<OuterStep> = Vec::with_capacity(arb.len() - 1);
        let mut lists: Vec<NodeId> = Vec::new();
        let mut stack: Vec<(usize, u32)> = children[0].iter().rev().map(|&c| (c, 0)).collect();
        while let Some((v, depth)) = stack.pop() {
            let w = targets[v - 1];
            let ins = g.in_neighbors(w);
            let start = lists.len() as u32;
            let parent = arb.parent(v).expect("non-root node has a parent");
            let ins_p = match parent {
                0 => &[][..],
                p => g.in_neighbors(targets[p - 1]),
            };
            // Eq. 7: update from the parent only when that is strictly
            // cheaper than summing from scratch (never from the root `∅`).
            let update =
                setops::symmetric_difference_size(ins_p, ins) < ins.len().saturating_sub(1);
            let (sub, add) = setops::difference_lists(if update { ins_p } else { &[] }, ins);
            lists.extend(sub);
            let split = lists.len() as u32;
            lists.extend(add);
            outer.push(OuterStep {
                t: v as u32 - 1,
                w,
                depth,
                subtree_end: 0,
                subtree_max: w,
                op: EdgeOp {
                    update,
                    start,
                    split,
                    end: lists.len() as u32,
                },
            });
            stack.extend(children[v].iter().rev().map(|&c| (c, depth + 1)));
        }
        // Positions of the open subtrees, one per depth level.
        let mut open: Vec<usize> = Vec::new();
        for i in 0..outer.len() {
            while open.len() > outer[i].depth as usize {
                outer[open.pop().expect("len checked")].subtree_end = i as u32;
            }
            open.push(i);
        }
        for pos in open {
            outer[pos].subtree_end = outer.len() as u32;
        }
        // A subtree is its root plus its children's subtrees, which sit
        // back to back from `i + 1`.
        for i in (0..outer.len()).rev() {
            let (mut j, end) = (i + 1, outer[i].subtree_end as usize);
            while j < end {
                outer[i].subtree_max = outer[i].subtree_max.max(outer[j].subtree_max);
                j = outer[j].subtree_end as usize;
            }
        }
        (outer, lists)
    }

    /// Builds the buffer schedule: smallest subtrees first, largest subtree
    /// inherits the parent's buffer in place. Returns `(steps, slot_count)`.
    fn build_schedule(arb: &Arborescence, outer: &[OuterStep]) -> (Vec<Step>, usize) {
        let n_nodes = arb.len();
        // Walk-program position of each tree node.
        let mut pos = vec![0u32; n_nodes];
        for (p, step) in outer.iter().enumerate() {
            pos[step.t as usize + 1] = p as u32;
        }
        let mut children = arb.children();
        let sizes = arb.subtree_sizes();
        for ch in children.iter_mut() {
            ch.sort_unstable_by_key(|&c| (sizes[c], c));
        }
        let mut steps = Vec::with_capacity(n_nodes);
        let mut slot_of = vec![u32::MAX; n_nodes];
        let mut free: Vec<u32> = Vec::new();
        let mut next_slot: u32 = 0;

        enum Frame {
            /// Compute `node`'s partial (allocating or inheriting a slot),
            /// emit it, then descend.
            Enter {
                node: usize,
                parent_slot: u32,
                inplace: bool,
            },
            /// Visit the `idx`-th child of `node`.
            Children { node: usize, idx: usize },
            /// Release `node`'s slot back to the pool.
            Release { node: usize },
        }

        let mut stack: Vec<Frame> = Vec::new();
        // Root children each start a fresh (scratch) buffer; release after.
        for &rc in children[0].iter().rev() {
            stack.push(Frame::Release { node: rc });
            stack.push(Frame::Enter {
                node: rc,
                parent_slot: u32::MAX,
                inplace: false,
            });
        }
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter {
                    node,
                    parent_slot,
                    inplace,
                } => {
                    let slot = if inplace {
                        parent_slot
                    } else {
                        free.pop().unwrap_or_else(|| {
                            next_slot += 1;
                            next_slot - 1
                        })
                    };
                    slot_of[node] = slot;
                    let p = pos[node];
                    let from = if outer[p as usize].op.update {
                        parent_slot
                    } else {
                        slot
                    };
                    steps.push(Step {
                        node: p,
                        from,
                        slot,
                    });
                    stack.push(Frame::Children { node, idx: 0 });
                }
                Frame::Children { node, idx } => {
                    let ch = &children[node];
                    if ch.is_empty() {
                        continue;
                    }
                    if idx + 1 < ch.len() {
                        // Not the last child: fresh buffer, then come back.
                        let c = ch[idx];
                        stack.push(Frame::Children { node, idx: idx + 1 });
                        stack.push(Frame::Release { node: c });
                        stack.push(Frame::Enter {
                            node: c,
                            parent_slot: slot_of[node],
                            inplace: false,
                        });
                    } else {
                        // Last (largest) child inherits the buffer in place.
                        let c = ch[idx];
                        stack.push(Frame::Enter {
                            node: c,
                            parent_slot: slot_of[node],
                            inplace: true,
                        });
                    }
                }
                Frame::Release { node } => free.push(slot_of[node]),
            }
        }
        (steps, next_slot as usize)
    }
}

/// Test oracle: the plan [`SharingPlan::build`] would make if
/// `DMST-Reduce` ran full Chu–Liu/Edmonds on the materialized cost graph
/// instead of the streaming greedy.
#[cfg(test)]
pub(crate) fn build_with_edmonds(g: &DiGraph) -> SharingPlan {
    let start = Instant::now();
    let targets = SharingPlan::sorted_targets(g);
    let edges = cost_graph(g, &targets);
    let arb = simrank_mst::edmonds(targets.len() + 1, &edges, 0).expect("G* spans from the root");
    SharingPlan::from_tree(g, targets, arb, start)
}

/// Test oracle: the plan of the all-pairs greedy scan, which prices every
/// forward pair of `G*` (disjoint ones included) and keeps each target's
/// first cheapest incoming edge in `cost_graph`'s order — the root edge,
/// then predecessors in ascending rank.
#[cfg(test)]
pub(crate) fn build_with_full_scan(g: &DiGraph) -> SharingPlan {
    let start = Instant::now();
    let targets = SharingPlan::sorted_targets(g);
    let mut parents = vec![None; targets.len() + 1];
    let mut weights = vec![0u64; targets.len() + 1];
    for e in cost_graph(g, &targets) {
        if parents[e.to].is_none() || e.weight < weights[e.to] {
            parents[e.to] = Some(e.from);
            weights[e.to] = e.weight;
        }
    }
    let arb = Arborescence::from_parents(0, parents, weights);
    SharingPlan::from_tree(g, targets, arb, start)
}

/// The full `DMST-Reduce` cost graph `G*`: a root edge of weight
/// `|B| − 1` to every target, plus one Eq. 7 edge per forward pair in the
/// sorted target order.
#[cfg(test)]
fn cost_graph(g: &DiGraph, targets: &[NodeId]) -> Vec<simrank_mst::Edge> {
    use simrank_mst::Edge;
    let t = targets.len();
    let mut edges: Vec<Edge> = (0..t)
        .map(|j| Edge::new(0, j + 1, (g.in_degree(targets[j]) as u64).saturating_sub(1)))
        .collect();
    for j in 0..t {
        for i in 0..j {
            let w = setops::transition_cost(g.in_neighbors(targets[i]), g.in_neighbors(targets[j]));
            edges.push(Edge::new(i + 1, j + 1, w));
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simrank_graph::fixtures::{fig1a, paper_fig1a};
    use simrank_graph::gen;
    use simrank_mst::edmonds;

    fn default_plan() -> SharingPlan {
        SharingPlan::build(&paper_fig1a(), &SimRankOptions::default())
    }

    #[test]
    fn fig2a_sort_order() {
        // Sorted by (in-degree, id): a(2), e(2), h(2), c(3), b(4), d(4) —
        // exactly the row order of the paper's Fig. 2b.
        let plan = default_plan();
        assert_eq!(
            plan.targets,
            vec![fig1a::A, fig1a::E, fig1a::H, fig1a::C, fig1a::B, fig1a::D]
        );
    }

    #[test]
    fn fig2c_tree_weight_and_forced_parents() {
        let plan = default_plan();
        // Paper Fig. 2c: total MST cost 1+1+1+1+2+2 = 8.
        assert_eq!(plan.tree_weight, 8);
        // Unique minima: I(b)'s parent is I(e) (cost 2#), I(d)'s parent is
        // I(b) (cost 2#). Tree node ids: I(e)=2, I(b)=5, I(d)=6.
        assert_eq!(plan.arb.parent(5), Some(2));
        assert_eq!(plan.arb.parent(6), Some(5));
        // Tie-breaks toward ∅ / earlier sets, as in Fig. 2d: I(a), I(e),
        // I(h) hang off the root; I(c) hangs off I(a).
        assert_eq!(plan.arb.parent(1), Some(0));
        assert_eq!(plan.arb.parent(2), Some(0));
        assert_eq!(plan.arb.parent(3), Some(0));
        assert_eq!(plan.arb.parent(4), Some(1));
    }

    /// Target `t`'s op as `(update, sub, add)`.
    fn op_of(plan: &SharingPlan, t: u32) -> (bool, &[NodeId], &[NodeId]) {
        let op = &plan
            .outer
            .iter()
            .find(|s| s.t == t)
            .expect("a node per target")
            .op;
        (op.update, plan.sub(op), plan.add(op))
    }

    #[test]
    fn fig3a_partitions_as_ops() {
        let plan = default_plan();
        // I(c) = I(a) ∪ {d}: an update with sub [] and add [d].
        assert_eq!(op_of(&plan, 3), (true, &[][..], &[fig1a::D][..]));
        // I(b) = (I(e) ∖ ∅) with {e, i} added.
        assert_eq!(op_of(&plan, 4), (true, &[][..], &[fig1a::E, fig1a::I][..]));
        // I(d) = I(b) ∖ {g} ∪ {a}: the paper's Fig. 3a row for I(d).
        assert_eq!(op_of(&plan, 5), (true, &[fig1a::G][..], &[fig1a::A][..]));
        // Root children sum all of their in-neighbors from scratch.
        let g = paper_fig1a();
        for t in 0..3 {
            let ins = g.in_neighbors(plan.targets[t as usize]);
            assert_eq!(op_of(&plan, t), (false, &[][..], ins));
        }
    }

    #[test]
    fn d_eff_below_average_degree() {
        let plan = default_plan();
        let g = paper_fig1a();
        // d' = 8/6 ≈ 1.33 < average in-degree over targets (17/6 ≈ 2.8).
        assert!(plan.d_eff() < g.edge_count() as f64 / plan.targets.len() as f64);
    }

    #[test]
    fn preorder_parents_first() {
        // Every parent precedes its children, and is the last node visited
        // one level up — the invariant the depth-indexed outer stack needs.
        let plan = default_plan();
        let mut seen = vec![false; plan.arb.len()];
        seen[0] = true;
        let mut last_at_depth: Vec<usize> = Vec::new();
        for step in &plan.outer {
            let node = step.t as usize + 1;
            let p = plan.arb.parent(node).unwrap();
            assert!(seen[p], "parent {p} must precede node {node}");
            let d = step.depth as usize;
            last_at_depth.truncate(d);
            assert_eq!(p, if d == 0 { 0 } else { last_at_depth[d - 1] });
            last_at_depth.push(node);
            seen[node] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn outer_prune_extents_and_maxima_are_exact() {
        // Validate against a brute-force ancestor walk on several graphs:
        // positions [i+1, subtree_end) must be exactly the descendants of
        // step i's node, and subtree_max must be the max target id over
        // that subtree (including the node itself).
        let graphs = [
            paper_fig1a(),
            simrank_graph::gen::gnm(30, 110, 5),
            simrank_graph::gen::preferential_attachment(25, 3, 1),
        ];
        for g in &graphs {
            let plan = SharingPlan::build(g, &SimRankOptions::default());
            let outer = &plan.outer;
            let is_descendant = |anc: usize, mut v: usize| -> bool {
                while let Some(p) = plan.arb.parent(v) {
                    if v == anc {
                        return true;
                    }
                    if p == 0 {
                        return false;
                    }
                    v = p;
                }
                false
            };
            for (i, step) in outer.iter().enumerate() {
                let end = step.subtree_end as usize;
                assert!(end > i && end <= outer.len());
                let mut max_id = 0;
                for (j, other) in outer.iter().enumerate() {
                    let inside = j >= i && j < end;
                    assert_eq!(
                        inside,
                        is_descendant(step.t as usize + 1, other.t as usize + 1),
                        "extent mismatch at outer position {i} vs {j}"
                    );
                    if inside {
                        max_id = max_id.max(plan.targets[other.t as usize]);
                    }
                }
                assert_eq!(step.subtree_max, max_id);
            }
        }
    }

    #[test]
    fn schedule_covers_each_target_once() {
        let plan = default_plan();
        let mut computed = vec![0u32; plan.targets.len()];
        for step in &plan.schedule {
            computed[step.node as usize] += 1;
        }
        assert!(computed.iter().all(|&c| c == 1));
    }

    #[test]
    fn schedule_respects_buffer_semantics() {
        // Replay the schedule symbolically: a slot must hold the parent's
        // partial sum when an update consumes it.
        let plan = default_plan();
        let mut holder: Vec<Option<u32>> = vec![None; plan.slots]; // target in slot
        for step in &plan.schedule {
            let node = &plan.outer[step.node as usize];
            if node.op.update {
                let p = plan.arb.parent(node.t as usize + 1).unwrap();
                assert_eq!(
                    holder[step.from as usize],
                    Some(p as u32 - 1),
                    "the source slot must hold the tree parent's partial"
                );
            }
            holder[step.slot as usize] = Some(node.t);
        }
    }

    #[test]
    fn slot_count_is_logarithmic_for_fixture() {
        let plan = default_plan();
        assert!(
            plan.slots <= 2,
            "tiny fixture needs at most 2 buffers, got {}",
            plan.slots
        );
    }

    /// General Chu–Liu/Edmonds is the oracle for the streaming greedy:
    /// `G*` is a DAG, so the greedy tree must have the optimal weight.
    #[test]
    fn edmonds_matches_greedy_weight() {
        let graphs = [
            paper_fig1a(),
            simrank_graph::gen::gnm(50, 220, 9),
            simrank_graph::gen::copying_web_graph(
                simrank_graph::gen::CopyingParams::berkstan_like(80),
                1,
            ),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let plan = SharingPlan::build(g, &SimRankOptions::default());
            let t = plan.targets.len();
            let oracle =
                edmonds(t + 1, &cost_graph(g, &plan.targets), 0).expect("G* spans from the root");
            assert_eq!(plan.tree_weight, oracle.total_weight, "graph {i}");
        }
    }

    /// Every component the engine replays must be `==` between two plans.
    fn assert_same_plan(a: &SharingPlan, b: &SharingPlan, label: &str) {
        assert_eq!(a.targets, b.targets, "{label}: targets");
        assert_eq!(a.arb, b.arb, "{label}: arb");
        assert_eq!(a.outer, b.outer, "{label}: outer");
        assert_eq!(a.lists, b.lists, "{label}: lists");
        assert_eq!(a.schedule, b.schedule, "{label}: schedule");
        assert_eq!(a.segments, b.segments, "{label}: segments");
        assert_eq!(a.slots, b.slots, "{label}: slots");
        assert_eq!(a.tree_weight, b.tree_weight, "{label}: tree_weight");
    }

    /// The candidate greedy builds exactly the plan of the scan over every
    /// target pair.
    #[test]
    fn candidate_greedy_matches_full_scan() {
        let graphs = [
            ("paper_fig1a", paper_fig1a()),
            ("gnm", gen::gnm(60, 260, 4)),
            (
                "preferential_attachment",
                gen::preferential_attachment(80, 4, 2),
            ),
            (
                "berkstan_like(80)",
                gen::copying_web_graph(gen::CopyingParams::berkstan_like(80), 1),
            ),
            (
                "berkstan_like(300)",
                gen::copying_web_graph(gen::CopyingParams::berkstan_like(300), 3),
            ),
        ];
        for (label, g) in &graphs {
            let plan = SharingPlan::build(g, &SimRankOptions::default());
            assert_same_plan(&plan, &build_with_full_scan(g), label);
        }
    }

    /// Hand-built ties for the greedy's choice rule, one isolated
    /// component each (vertices 0–7, 8–12 and 13–17 share no in-neighbor
    /// across components):
    /// - `B = 7` with `I(B) = {0,1,2,3}` ties at cost 2 between `P1 = 6`
    ///   (`{0,1}`, rank 2) and `P2 = 5` (`{0,1,2,4}`, rank 5). `P1` ranks
    ///   first but `O(0)` lists `P2` first, so the earlier rank wins only
    ///   if the touched ranks are scanned in sorted order with a strict `<`;
    /// - `B2 = 12` with `I(B2) = {8,9,10}` ties its root cost 2 with the
    ///   overlapping `P3 = 11` (`{8}`): `∅` wins;
    /// - `B3 = 15` with `I(B3) = {16,17}` would tie its root cost 1 with the
    ///   disjoint, lower-ranked `D = 14` (`{13}`) under Eq. 7's
    ///   `min(|A ⊖ B|, |B| − 1)`: `∅` wins.
    #[test]
    fn greedy_tie_breaks_fixture() {
        let mut edges = vec![(0, 6), (1, 6)];
        edges.extend([0, 1, 2, 4].map(|x| (x, 5)));
        edges.extend([0, 1, 2, 3].map(|x| (x, 7)));
        edges.extend([(8, 11), (8, 12), (9, 12), (10, 12)]);
        edges.extend([(13, 14), (16, 15), (17, 15)]);
        let g = DiGraph::from_edges(18, edges).unwrap();
        // Ranks: 11, 14 | 6, 15 | 12 | 5, 7 — tree node = rank + 1.
        let plan = SharingPlan::build(&g, &SimRankOptions::default());
        assert_eq!(plan.targets, vec![11, 14, 6, 15, 12, 5, 7]);
        let parents: Vec<_> = (1..=7).map(|v| plan.arb.parent(v).unwrap()).collect();
        assert_eq!(parents, vec![0, 0, 0, 0, 0, 3, 3]);
        let weights: Vec<_> = (1..=7).map(|v| plan.arb.parent_weight(v)).collect();
        assert_eq!(weights, vec![0, 0, 1, 1, 2, 2, 2]);
        assert_same_plan(&plan, &build_with_full_scan(&g), "tie fixture");
    }

    /// Random graphs with self-loops, isolated vertices and vertices that
    /// share an identical in-set.
    fn arb_plan_graph() -> impl Strategy<Value = DiGraph> {
        (3usize..28).prop_flat_map(|n| {
            let v = 0..n as NodeId;
            (
                prop::collection::vec((v.clone(), v.clone()), 0..(4 * n)),
                prop::collection::vec(v.clone(), 1..4),
                prop::collection::vec((v.clone(), v), 1..4),
                0usize..4,
            )
                .prop_map(move |(mut edges, loops, copies, isolated)| {
                    edges.extend(loops.iter().map(|&v| (v, v)));
                    // `dst` takes over `src`'s in-set exactly.
                    for &(src, dst) in &copies {
                        let ins: Vec<NodeId> =
                            edges.iter().filter(|e| e.1 == src).map(|e| e.0).collect();
                        edges.retain(|e| e.1 != dst);
                        edges.extend(ins.into_iter().map(|u| (u, dst)));
                    }
                    DiGraph::from_edges(n + isolated, edges).unwrap()
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn candidate_greedy_matches_full_scan_on_random_graphs(g in arb_plan_graph()) {
            let plan = SharingPlan::build(&g, &SimRankOptions::default());
            assert_same_plan(&plan, &build_with_full_scan(&g), "random graph");
        }
    }

    #[test]
    fn parallel_build_is_thread_invariant() {
        // The sharded overlap count replays the sequential per-column
        // decision exactly: every component of the plan must be identical
        // at every thread count.
        let g = simrank_graph::gen::gnm(70, 300, 9);
        let base = SimRankOptions::default();
        let p1 = SharingPlan::build(&g, &base.with_threads(1));
        for t in [2usize, 3, 5, 8] {
            let pt = SharingPlan::build(&g, &base.with_threads(t));
            assert_same_plan(&p1, &pt, &format!("threads={t}"));
        }
    }

    #[test]
    fn empty_graph_plan() {
        let g = simrank_graph::DiGraph::from_edges(4, []).unwrap();
        let plan = SharingPlan::build(&g, &SimRankOptions::default());
        assert!(plan.targets.is_empty());
        assert!(plan.schedule.is_empty());
        assert!(plan.segments.is_empty());
        assert_eq!(plan.slots, 0);
    }

    #[test]
    fn flat_plan_sums_each_target_from_scratch_in_id_order() {
        let graphs = [
            paper_fig1a(),
            gen::gnm(40, 160, 3),
            gen::preferential_attachment(30, 3, 1),
        ];
        for g in &graphs {
            let plan = SharingPlan::flat(g);
            let t = plan.targets.len();
            assert!(plan.targets.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(plan.targets, g.nodes_with_in_edges());
            let cost: usize = plan.targets.iter().map(|&v| g.in_degree(v) - 1).sum();
            assert_eq!(plan.tree_weight, cost as u64);
            // Every node is a root child, summing all of I(w) from zero.
            assert_eq!(plan.outer.len(), t);
            for (i, step) in plan.outer.iter().enumerate() {
                assert_eq!((step.t as usize, step.w), (i, plan.targets[i]));
                assert_eq!((step.depth, step.subtree_end as usize), (0, i + 1));
                assert!(!step.op.update);
                assert!(plan.sub(&step.op).is_empty());
                assert_eq!(plan.add(&step.op), g.in_neighbors(step.w));
            }
            // One step per target but the largest, each its own segment,
            // all in one slot.
            let nodes: Vec<usize> = plan.schedule.iter().map(|s| s.node as usize).collect();
            assert_eq!(nodes, (0..t - 1).collect::<Vec<_>>());
            assert!(plan.schedule.iter().all(|s| s.from == 0 && s.slot == 0));
            let segments: Vec<_> = (0..t - 1).map(|i| i..i + 1).collect();
            assert_eq!(plan.segments, segments);
            assert_eq!(plan.slots, 1);
        }
        // No target, or one: no source has a pair left to emit.
        let empty = DiGraph::from_edges(4, []).unwrap();
        let single = DiGraph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
        for g in [empty, single] {
            let plan = SharingPlan::flat(&g);
            assert!(plan.schedule.is_empty());
            assert!(plan.segments.is_empty());
        }
    }

    #[test]
    fn segments_partition_schedule_into_root_subtrees() {
        for plan in [
            default_plan(),
            SharingPlan::build(
                &simrank_graph::gen::gnm(40, 160, 3),
                &SimRankOptions::default(),
            ),
        ] {
            // Segments tile the schedule exactly, in order.
            let mut cursor = 0;
            for seg in &plan.segments {
                assert_eq!(seg.start, cursor);
                assert!(seg.end > seg.start);
                cursor = seg.end;
            }
            assert_eq!(cursor, plan.schedule.len());
            // One segment per root child, each opening from scratch.
            let root_children = (1..plan.arb.len())
                .filter(|&v| plan.arb.parent(v) == Some(0))
                .count();
            assert_eq!(plan.segments.len(), root_children);
            let update = |step: &Step| plan.outer[step.node as usize].op.update;
            for seg in &plan.segments {
                assert!(!update(&plan.schedule[seg.start]));
            }
            // Segments are self-contained: every update reads a slot last
            // written inside the same segment.
            for seg in &plan.segments {
                let mut local = vec![false; plan.slots];
                for step in &plan.schedule[seg.clone()] {
                    assert!(
                        !update(step) || local[step.from as usize],
                        "parent buffer from this segment"
                    );
                    local[step.slot as usize] = true;
                }
            }
        }
    }
}
