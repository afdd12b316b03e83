//! Criterion microbenchmarks for dynamic-graph maintenance.
//!
//! Three costs matter for a serving system absorbing an edge stream, and
//! each gets its own group:
//!
//! * `apply_batch` — the pure CSR patch cost, reported per batch size so
//!   updates/sec is `batch size / time`. Each iteration applies a script
//!   and then its inverse, so the graph is back in its original state and
//!   every iteration does identical work.
//! * `dynamic_resweep` — the warm-start delta sweep from stale converged
//!   scores, on both stream families (site-template BERKSTAN-like and
//!   preferential attachment). Compare against the cold `naive`/`psum`
//!   numbers in `BENCH_figures.json` to see the warm-start payoff.
//! * `index_repair` — re-solving the diagonal-correction system from the
//!   stale diagonal. Compare against perfbench's serve-zipf
//!   `index.build_s` row: the warm CGLS seed is the whole point.
//!
//! Results land in `BENCH_dynamic.json` via the vendored criterion's
//! `BENCH_JSON_DIR` hook; the CI bench-smoke job discovers this harness
//! automatically.

use criterion::{criterion_group, criterion_main, Criterion};
use simrank_core::index::SimRankIndex;
use simrank_core::{dynamic, naive, SimRankOptions};
use simrank_datasets as datasets;
use simrank_graph::{gen, DiGraph, EdgeDelta};

const SEED: u64 = datasets::DEFAULT_SEED;

fn opts() -> SimRankOptions {
    SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-4)
}

/// A deterministic edit script of `k` deltas: removals of real edges
/// interleaved with insertions of (almost surely) absent pairs, the same
/// shape the op-count gate replays.
fn script(g: &DiGraph, k: usize) -> Vec<EdgeDelta> {
    let n = g.node_count() as u32;
    let mut deltas = Vec::with_capacity(k);
    for (i, (u, v)) in g.edges().enumerate() {
        if deltas.len() + 2 > k {
            break;
        }
        if i % 5 == 2 {
            deltas.push(EdgeDelta::Remove(u, v));
            deltas.push(EdgeDelta::Insert((u + 13) % n, (v + 29) % n));
        }
    }
    while deltas.len() < k {
        let i = deltas.len() as u32;
        deltas.push(EdgeDelta::Insert((7 * i + 3) % n, (11 * i + 5) % n));
    }
    deltas
}

/// The inverse script, in reverse order, so `forward; backward` is a
/// round trip back to the original graph.
fn inverse(script: &[EdgeDelta]) -> Vec<EdgeDelta> {
    script.iter().rev().map(|d| d.inverse()).collect()
}

/// Pure CSR patch throughput: updates/sec = batch size / measured time
/// (each iteration applies the script *and* its inverse, i.e. 2×size
/// deltas, restoring the graph every time).
fn apply_batch(c: &mut Criterion) {
    let mut g = datasets::berkstan_like(700, SEED).graph;
    let mut group = c.benchmark_group("apply_batch");
    for size in [1usize, 16, 64] {
        let fwd = script(&g, size);
        let bwd = inverse(&fwd);
        group.bench_function(format!("berkstan700_batch{size}"), |b| {
            b.iter(|| {
                g.apply_batch(&fwd).expect("forward script");
                g.apply_batch(&bwd).expect("inverse script");
            })
        });
    }
    group.finish();
}

/// Warm-start delta sweep after a 16-delta batch, per stream family.
fn dynamic_resweep(c: &mut Criterion) {
    let opts = opts();
    let cases = [
        ("berkstan260", datasets::berkstan_like(260, SEED).graph),
        ("prefattach300", gen::preferential_attachment(300, 3, SEED)),
    ];
    let mut group = c.benchmark_group("dynamic_resweep");
    group.sample_size(10);
    for (name, g) in cases {
        let warm = naive::naive_simrank(&g, &opts);
        let mut mg = g.clone();
        mg.apply_batch(&script(&g, 16)).expect("valid script");
        group.bench_function(name, |b| b.iter(|| dynamic::resweep(&mg, &warm, &opts)));
    }
    group.finish();
}

/// Index repair after a 16-delta batch: the stale diagonal seeds CGLS, so
/// this should sit well below the `index_build` cost on the same graph.
fn index_repair(c: &mut Criterion) {
    let opts = opts();
    let g = datasets::berkstan_like(700, SEED).graph;
    let index = SimRankIndex::build(&g, &opts);
    let edits = script(&g, 16);
    let mut group = c.benchmark_group("index_repair");
    group.sample_size(10);
    group.bench_function("berkstan700_batch16", |b| {
        b.iter(|| index.repair(&edits, &opts).expect("valid script"))
    });
    group.finish();
}

criterion_group!(benches, apply_batch, dynamic_resweep, index_repair);
criterion_main!(benches);
