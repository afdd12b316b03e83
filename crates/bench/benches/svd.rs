//! Thread-sweep harness for the last path to join the pooled surface:
//! the Jacobi SVD, the banded dense matmul, and the `mtx-SR` baseline
//! end-to-end.
//!
//! Results are bit-for-bit identical across the sweep by the executor's
//! determinism contract (tournament rounds rotate disjoint column pairs;
//! matmul bands run the sequential per-row kernel), so any timing
//! difference is pure scheduling: on a multi-core host the `threads = N`
//! rows should undercut `threads = 1`, while on a single-core host they
//! should tie. The `mtx` rows also carry the triangular-densification
//! payoff — only unordered pairs `b ≥ a` of `U·M·Uᵀ` are evaluated — so
//! even the `threads = 1` row beats the historical full-square final
//! phase.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use simrank_core::mtx::mtx_simrank;
use simrank_core::SimRankOptions;
use simrank_datasets as datasets;
use simrank_linalg::{CsrMatrix, DenseMatrix, Svd};
use simrank_par::WorkerPool;

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

/// A dense transition matrix of a bench-fixture graph — the exact input
/// shape the `mtx` factorization sees.
fn transition_dense(n: usize) -> DenseMatrix {
    let d = datasets::berkstan_like(n, SEED);
    WorkerPool::scoped(1, |pool| {
        CsrMatrix::backward_transition(&d.graph, pool).to_dense(pool)
    })
}

/// One-sided Jacobi sweep cost across the thread knob (the pool is
/// spawned outside the timed closure).
fn svd_jacobi(c: &mut Criterion) {
    let a = transition_dense(120);
    let mut group = c.benchmark_group("svd_jacobi");
    group.sample_size(10);
    for t in thread_sweep() {
        group.bench_with_input(BenchmarkId::new("threads", t), &t, |b, &t| {
            WorkerPool::scoped(t, |pool| b.iter(|| Svd::compute(black_box(&a), pool)))
        });
    }
    group.finish();
}

/// Banded dense matmul across the thread knob (the kernel behind the
/// rank-space iteration and both densification products).
fn svd_matmul(c: &mut Criterion) {
    let a = transition_dense(300);
    let at = WorkerPool::scoped(1, |pool| a.transpose(pool));
    let mut group = c.benchmark_group("svd_matmul");
    group.sample_size(10);
    for t in thread_sweep() {
        group.bench_with_input(BenchmarkId::new("threads", t), &t, |b, &t| {
            WorkerPool::scoped(t, |pool| b.iter(|| black_box(&a).matmul(&at, pool)))
        });
    }
    group.finish();
}

/// `mtx-SR` end-to-end (factorize + rank-space iteration + triangular
/// densification) across the thread knob.
fn mtx_end_to_end(c: &mut Criterion) {
    let d = datasets::berkstan_like(150, SEED);
    let g = &d.graph;
    let base = SimRankOptions::default().with_iterations(5);
    let mut group = c.benchmark_group("mtx_end_to_end");
    group.sample_size(10);
    for t in thread_sweep() {
        let opts = base.with_threads(t);
        group.bench_with_input(BenchmarkId::new("threads", t), &opts, |b, opts| {
            b.iter(|| mtx_simrank(black_box(g), opts, None))
        });
    }
    group.finish();
}

criterion_group!(benches, svd_jacobi, svd_matmul, mtx_end_to_end);
criterion_main!(benches);
