//! Ablation benchmark for `DMST-Reduce`: the streaming greedy DAG solver
//! inside plan construction vs. full Chu–Liu/Edmonds on the materialized
//! cost graph. The cost graph only has forward edges in the sorted target
//! order, so it is a DAG and the greedy tree is optimal; this bench shows
//! what that shortcut saves (`plan::tests::edmonds_matches_greedy_weight`
//! checks the two agree).
//!
//! OIP-SR vs. psum-SR (the no-sharing baseline) is timed by the `figures`
//! bench (`fig6a_time`, `fig6c_density`).

use criterion::{criterion_group, criterion_main, Criterion};
use simrank_core::{setops, SharingPlan, SimRankOptions};
use simrank_datasets as datasets;
use simrank_graph::DiGraph;
use simrank_mst::{edmonds, Edge};

const SEED: u64 = datasets::DEFAULT_SEED;

fn graph() -> simrank_graph::DiGraph {
    datasets::berkstan_like(700, SEED).graph
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
    group.bench_function("greedy_dag_fast_path", |b| {
        b.iter(|| SharingPlan::build(&g, &base))
    });
    // Only Edmonds pays for every pair's transition cost, materialized
    // first; the greedy prices just the pairs that share an in-neighbor.
    let targets = SharingPlan::build(&g, &base).targets;
    group.bench_function("chu_liu_edmonds", |b| {
        b.iter(|| edmonds(targets.len() + 1, &cost_graph(&g, &targets), 0))
    });
    group.finish();
}

criterion_group!(ablations, ablation_dmst_algo);
criterion_main!(ablations);
