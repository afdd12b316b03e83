//! Criterion microbenchmark for incremental index repair.
//!
//! `index_repair` re-solves the diagonal-correction system of a
//! `SimRankIndex` after a 16-delta edge batch, seeding CGLS with the
//! stale diagonal. No perfbench metric covers repair; compare against
//! perfbench's serve-zipf `index.build_s` row, the cold build: the warm
//! CGLS seed is the whole point. (The CSR patch and the warm resweep are
//! measured by perfbench's allpairs-stream rows `graph.apply_batch_ms`,
//! `dynamic.resweep_s`, `dynamic.resweep_sweeps` and
//! `dynamic.resweep_adds`.)
//!
//! Results land in `BENCH_dynamic.json` via the vendored criterion's
//! `BENCH_JSON_DIR` hook; the CI bench-smoke job discovers this harness
//! automatically.

use criterion::{criterion_group, criterion_main, Criterion};
use simrank_core::index::SimRankIndex;
use simrank_core::SimRankOptions;
use simrank_datasets as datasets;
use simrank_graph::{DiGraph, EdgeDelta};

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

/// Index repair after a 16-delta batch: the stale diagonal seeds CGLS, so
/// this should sit well below a cold `SimRankIndex::build` of the same
/// graph.
fn index_repair(c: &mut Criterion) {
    let opts = opts();
    let g = datasets::berkstan_like(700, SEED).graph;
    let index = SimRankIndex::build(&g, &opts);
    let edits = script(&g, 16);
    let mut group = c.benchmark_group("index_repair");
    group.bench_function("berkstan700_batch16", |b| {
        b.iter(|| index.repair(&edits, &opts).expect("valid script"))
    });
    group.finish();
}

criterion_group!(benches, index_repair);
criterion_main!(benches);
