//! Criterion microbenchmarks for the pluggable score-storage layer.
//!
//! Compares the three score representations (packed, low-rank,
//! thresholded) on the operations the query layer actually issues:
//! backend construction from one `mtx-SR` run, point lookups (`get`),
//! whole-row extraction (`QueryEngine::single_source`) and top-k ranking.
//! The graph is kept moderate (an SVD runs inside the build benchmarks)
//! and results land in `BENCH_store.json` via the vendored criterion's
//! `BENCH_JSON_DIR` hook, so the CI bench-smoke job archives them with
//! every other harness.

use criterion::{criterion_group, criterion_main, Criterion};
use simrank_core::query::QueryEngine;
use simrank_core::store::ThresholdedSparse;
use simrank_core::{mtx, SimRankOptions};
use simrank_datasets as datasets;

const SEED: u64 = datasets::DEFAULT_SEED;
const N: usize = 180;
const RANK: usize = 24;
const THETA: f64 = 1e-3;

fn graph() -> simrank_graph::DiGraph {
    datasets::berkstan_like(N, SEED).graph
}

fn opts() -> SimRankOptions {
    SimRankOptions::default()
        .with_damping(0.6)
        .with_iterations(8)
}

/// Constructing each backend from the same factorization work.
fn store_build(c: &mut Criterion) {
    let g = graph();
    let opts = opts();
    let mut group = c.benchmark_group("store_build");
    group.bench_function("packed", |b| {
        b.iter(|| mtx::mtx_simrank(&g, &opts, Some(RANK)))
    });
    group.bench_function("low_rank", |b| {
        b.iter(|| mtx::mtx_simrank_low_rank(&g, &opts, Some(RANK)))
    });
    let lr = mtx::mtx_simrank_low_rank(&g, &opts, Some(RANK));
    group.bench_function("thresholded_from_low_rank", |b| {
        b.iter(|| ThresholdedSparse::from_store(&lr, THETA))
    });
    group.finish();
}

/// Served-path latency per backend: point lookup, whole row, top-k.
fn store_query(c: &mut Criterion) {
    let g = graph();
    let opts = opts();
    let packed = mtx::mtx_simrank(&g, &opts, Some(RANK)).0;
    let lr = mtx::mtx_simrank_low_rank(&g, &opts, Some(RANK));
    let sparse = ThresholdedSparse::from_store(&lr, THETA);

    let mut group = c.benchmark_group("store_get");
    group.bench_function("packed", |b| b.iter(|| packed.get(11, 97)));
    group.bench_function("low_rank", |b| b.iter(|| lr.get(11, 97)));
    group.bench_function("thresholded", |b| b.iter(|| sparse.get(11, 97)));
    group.finish();

    let stores: [(&str, &dyn QueryEngine); 3] = [
        ("packed", &packed),
        ("low_rank", &lr),
        ("thresholded", &sparse),
    ];
    let mut group = c.benchmark_group("store_row");
    for (name, s) in stores {
        group.bench_function(name, |b| b.iter(|| s.single_source(11)));
    }
    group.finish();

    let mut group = c.benchmark_group("store_top_k");
    for (name, s) in stores {
        group.bench_function(name, |b| b.iter(|| s.top_k(11, 10)));
    }
    group.finish();
}

criterion_group!(benches, store_build, store_query);
criterion_main!(benches);
