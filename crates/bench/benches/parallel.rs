//! Speedup curve of the persistent worker-pool executor.
//!
//! Sweeps the `threads` knob over every pooled surface on the largest
//! bench fixture (the BERKSTAN-like copying graph — the densest in-set
//! overlap, hence the heaviest per-iteration work): the OIP engine replay,
//! the psum row-band sweep, both P-Rank direction passes, Monte-Carlo
//! fingerprint sampling, and `mtx-SR` end to end (tournament-scheduled
//! Jacobi SVD, banded matmul, triangular densification).
//! Results are bit-for-bit identical across the sweep by the executor's
//! determinism contract, so any timing difference is pure scheduling: on a
//! multi-core host the `threads = N` rows should undercut `threads = 1`
//! (and the pooled engine should beat the old per-iteration spawning on
//! high-iteration runs), while on a single-core host they should tie (the
//! executor never spawns more workers than can help).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simrank_core::montecarlo::Fingerprints;
use simrank_core::mtx::mtx_simrank;
use simrank_core::prank::{prank, PRankOptions};
use simrank_core::{oip, psum, SharingPlan, SimRankOptions};
use simrank_datasets as datasets;

const SEED: u64 = datasets::DEFAULT_SEED;

/// Thread counts to sweep: 1 (the baseline), the machine, and 2×/4× points
/// to expose the curve shape.
fn thread_sweep() -> Vec<usize> {
    let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut ts = vec![1, 2, 4, avail];
    ts.sort_unstable();
    ts.dedup();
    ts
}

/// OIP-SR iteration sweep (plan prebuilt: measures the pooled engine
/// replay — one pool per run, one barrier-synchronized sweep per
/// iteration).
fn parallel_oip(c: &mut Criterion) {
    let d = datasets::berkstan_like(800, SEED);
    let g = &d.graph;
    let base = SimRankOptions::default().with_iterations(5);
    let plan = SharingPlan::build(g, &base);
    let mut group = c.benchmark_group("parallel_oip");
    for t in thread_sweep() {
        let opts = base.with_threads(t);
        group.bench_with_input(BenchmarkId::new("threads", t), &opts, |b, opts| {
            b.iter(|| oip::oip_simrank_with_plan(g, &plan, opts))
        });
    }
    group.finish();
}

/// psum-SR sweep (row-band sharding of the memoized partial sums).
fn parallel_psum(c: &mut Criterion) {
    let d = datasets::berkstan_like(800, SEED);
    let g = &d.graph;
    let base = SimRankOptions::default().with_iterations(5);
    let mut group = c.benchmark_group("parallel_psum");
    for t in thread_sweep() {
        let opts = base.with_threads(t);
        group.bench_with_input(BenchmarkId::new("threads", t), &opts, |b, opts| {
            b.iter(|| psum::psum_simrank(g, opts))
        });
    }
    group.finish();
}

/// P-Rank sweep: two sharded direction passes per iteration on one pool
/// (plan build included — it shards across the same knob).
fn parallel_prank(c: &mut Criterion) {
    let d = datasets::berkstan_like(600, SEED);
    let g = &d.graph;
    let base = SimRankOptions::default().with_iterations(5);
    let mut group = c.benchmark_group("parallel_prank");
    for t in thread_sweep() {
        let opts = PRankOptions {
            base: base.with_threads(t),
            lambda: 0.5,
        };
        group.bench_with_input(BenchmarkId::new("threads", t), &opts, |b, opts| {
            b.iter(|| prank(g, opts))
        });
    }
    group.finish();
}

/// Monte-Carlo fingerprint sampling sweep (per-walk seeded node bands).
fn parallel_montecarlo(c: &mut Criterion) {
    let d = datasets::berkstan_like(800, SEED);
    let g = &d.graph;
    let mut group = c.benchmark_group("parallel_montecarlo");
    for t in thread_sweep() {
        let opts = SimRankOptions::default().with_threads(t);
        group.bench_with_input(BenchmarkId::new("threads", t), &opts, |b, opts| {
            b.iter(|| Fingerprints::sample(g, 10, 400, SEED, opts))
        });
    }
    group.finish();
}

/// `mtx-SR` end to end: factorize, iterate in rank space, densify the
/// upper triangle.
fn parallel_mtx(c: &mut Criterion) {
    let d = datasets::berkstan_like(150, SEED);
    let g = &d.graph;
    let base = SimRankOptions::default().with_iterations(5);
    let mut group = c.benchmark_group("parallel_mtx");
    for t in thread_sweep() {
        let opts = base.with_threads(t);
        group.bench_with_input(BenchmarkId::new("threads", t), &opts, |b, opts| {
            b.iter(|| mtx_simrank(g, opts, None))
        });
    }
    group.finish();
}

criterion_group!(
    parallel,
    parallel_oip,
    parallel_psum,
    parallel_prank,
    parallel_montecarlo,
    parallel_mtx
);
criterion_main!(parallel);
