//! Ablation benchmarks for the design choices DESIGN.md §5 calls out.
//!
//! Every ablation runs the *same* OIP engine with one knob flipped, on the
//! same graph, so differences isolate that design choice:
//!
//! * `ablation_mst` — the MST sharing plan vs. trivial partitions
//!   (`CostModel::ScratchOnly` + no outer sharing ⇒ psum-SR inside the
//!   same code path);
//! * `ablation_outer` — inner+outer sharing vs. inner-only (Prop. 4 off);
//! * `ablation_cost_model` — Eq. 7's `min(|A⊖B|, |B|−1)` vs. forced
//!   symmetric differences;
//! * `ablation_dmst_algo` — the streaming greedy DAG solver inside plan
//!   construction vs. full Chu–Liu/Edmonds on the materialized cost graph.

use criterion::{criterion_group, criterion_main, Criterion};
use simrank_core::{oip, setops, CostModel, SharingPlan, SimRankOptions};
use simrank_datasets as datasets;
use simrank_graph::DiGraph;
use simrank_mst::{edmonds, Edge};

const SEED: u64 = datasets::DEFAULT_SEED;

fn graph() -> simrank_graph::DiGraph {
    datasets::berkstan_like(700, SEED).graph
}

fn ablation_mst(c: &mut Criterion) {
    let g = graph();
    let base = SimRankOptions::default().with_iterations(4);
    let mut group = c.benchmark_group("ablation_mst");
    group.sample_size(10);
    group.bench_function("with_mst_sharing", |b| {
        b.iter(|| oip::oip_simrank(&g, &base))
    });
    let off = base
        .with_cost_model(CostModel::ScratchOnly)
        .with_outer_sharing(false);
    group.bench_function("trivial_partitions", |b| {
        b.iter(|| oip::oip_simrank(&g, &off))
    });
    group.finish();
}

fn ablation_outer(c: &mut Criterion) {
    let g = graph();
    let base = SimRankOptions::default().with_iterations(4);
    let mut group = c.benchmark_group("ablation_outer");
    group.sample_size(10);
    group.bench_function("inner_and_outer", |b| {
        b.iter(|| oip::oip_simrank(&g, &base))
    });
    let inner_only = base.with_outer_sharing(false);
    group.bench_function("inner_only", |b| {
        b.iter(|| oip::oip_simrank(&g, &inner_only))
    });
    group.finish();
}

fn ablation_cost_model(c: &mut Criterion) {
    let g = graph();
    let base = SimRankOptions::default().with_iterations(4);
    let mut group = c.benchmark_group("ablation_cost_model");
    group.sample_size(10);
    group.bench_function("min_eq7", |b| b.iter(|| oip::oip_simrank(&g, &base)));
    let symdiff = base.with_cost_model(CostModel::SymDiffOnly);
    group.bench_function("symdiff_only", |b| {
        b.iter(|| oip::oip_simrank(&g, &symdiff))
    });
    group.finish();
}

/// The `DMST-Reduce` cost graph under Eq. 7 over `targets` (sorted by
/// in-degree): root edges of weight `|B| − 1` plus every forward pair.
fn cost_graph(g: &DiGraph, targets: &[u32]) -> Vec<Edge> {
    let mut edges = Vec::new();
    for (j, &v) in targets.iter().enumerate() {
        let ins_j = g.in_neighbors(v);
        edges.push(Edge::new(0, j + 1, (ins_j.len() as u64).saturating_sub(1)));
        for (i, &u) in targets[..j].iter().enumerate() {
            let w = setops::transition_cost(g.in_neighbors(u), ins_j);
            edges.push(Edge::new(i + 1, j + 1, w));
        }
    }
    edges
}

fn ablation_dmst_algo(c: &mut Criterion) {
    let g = graph();
    let base = SimRankOptions::default();
    let mut group = c.benchmark_group("ablation_dmst_algo");
    group.sample_size(10);
    group.bench_function("greedy_dag_fast_path", |b| {
        b.iter(|| SharingPlan::build(&g, &base))
    });
    // Both arms pay for the transition costs: the greedy scan computes
    // them on the fly, Edmonds needs them materialized first.
    let targets = SharingPlan::build(&g, &base).targets;
    group.bench_function("chu_liu_edmonds", |b| {
        b.iter(|| edmonds(targets.len() + 1, &cost_graph(&g, &targets), 0))
    });
    group.finish();
}

criterion_group!(
    ablations,
    ablation_mst,
    ablation_outer,
    ablation_cost_model,
    ablation_dmst_algo
);
criterion_main!(ablations);
