//! Single-thread payoff of the symmetry-halved triangular sweeps.
//!
//! SimRank is symmetric, so the dense iterative algorithms now compute
//! each unordered pair once (upper triangle + bandwidth-only mirror)
//! instead of twice. This harness pits the shipped triangular kernels
//! against faithful *full-square* reimplementations of the seed's sweeps
//! — same graph, same iteration count, `threads = 1` — so the ~2×
//! reduction in outer-phase arithmetic is visible on any machine,
//! including a single-core runner where thread-scaling benches tie. It
//! also measures the Monte-Carlo single-source query before/after the
//! hoisted source-walk decode, and the batched form.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simrank_core::montecarlo::Fingerprints;
use simrank_core::query::QueryEngine;
use simrank_core::{naive, psum, SimRankOptions};
use simrank_datasets as datasets;
use simrank_graph::DiGraph;
use std::num::NonZeroUsize;

const SEED: u64 = datasets::DEFAULT_SEED;

/// The seed's full-square naive sweep: every *ordered* pair, every
/// iteration, with the old averaging conversion folded away (benchmarked
/// work is the pair arithmetic itself).
fn naive_full_square(g: &DiGraph, c: f64, k: u32) -> Vec<f64> {
    let n = g.node_count();
    let mut cur = vec![0.0f64; n * n];
    let mut next = vec![0.0f64; n * n];
    for i in 0..n {
        cur[i * n + i] = 1.0;
    }
    for _ in 0..k {
        next.fill(0.0);
        for a in 0..n {
            let ins_a = g.in_neighbors(a as u32);
            if ins_a.is_empty() {
                continue;
            }
            for b in 0..n {
                if b == a {
                    continue;
                }
                let ins_b = g.in_neighbors(b as u32);
                if ins_b.is_empty() {
                    continue;
                }
                let mut sum = 0.0;
                for &i in ins_a {
                    let row = &cur[i as usize * n..(i as usize + 1) * n];
                    for &j in ins_b {
                        sum += row[j as usize];
                    }
                }
                next[a * n + b] = c / (ins_a.len() as f64 * ins_b.len() as f64) * sum;
            }
        }
        for i in 0..n {
            next[i * n + i] = 1.0;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// The seed's full-square psum sweep: partial sums memoized per source,
/// outer accumulation over every ordered pair.
fn psum_full_square(g: &DiGraph, c: f64, k: u32) -> Vec<f64> {
    let n = g.node_count();
    let targets: Vec<u32> = (0..n as u32)
        .filter(|&v| !g.in_neighbors(v).is_empty())
        .collect();
    let mut cur = vec![0.0f64; n * n];
    let mut next = vec![0.0f64; n * n];
    let mut partial = vec![0.0f64; n];
    for i in 0..n {
        cur[i * n + i] = 1.0;
    }
    for _ in 0..k {
        next.fill(0.0);
        for &a in &targets {
            let ins_a = g.in_neighbors(a);
            partial.fill(0.0);
            for &x in ins_a {
                let row = &cur[x as usize * n..(x as usize + 1) * n];
                for (p, v) in partial.iter_mut().zip(row) {
                    *p += *v;
                }
            }
            let da = ins_a.len() as f64;
            for &b in &targets {
                if b == a {
                    continue;
                }
                let ins_b = g.in_neighbors(b);
                let mut sum = 0.0;
                for &j in ins_b {
                    sum += partial[j as usize];
                }
                next[a as usize * n + b as usize] = c / (da * ins_b.len() as f64) * sum;
            }
        }
        for i in 0..n {
            next[i * n + i] = 1.0;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Triangular vs full-square dense sweeps, single-threaded.
fn triangular_sweeps(c: &mut Criterion) {
    let d = datasets::berkstan_like(400, SEED);
    let g = &d.graph;
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_iterations(3)
        .with_threads(1);
    let mut group = c.benchmark_group("triangular_sweeps");
    group.sample_size(10);
    group.bench_function("naive/full_square", |b| {
        b.iter(|| naive_full_square(black_box(g), 0.6, 3))
    });
    group.bench_function("naive/triangular", |b| {
        b.iter(|| naive::naive_simrank(black_box(g), &opts))
    });
    group.bench_function("psum/full_square", |b| {
        b.iter(|| psum_full_square(black_box(g), 0.6, 3))
    });
    group.bench_function("psum/triangular", |b| {
        b.iter(|| psum::psum_simrank(black_box(g), &opts))
    });
    group.finish();
}

/// Monte-Carlo single-source queries: the old per-pair estimator loop vs
/// the hoisted source-walk decode vs the sharded batch.
fn mc_single_source(c: &mut Criterion) {
    let d = datasets::berkstan_like(2_000, SEED);
    let g = &d.graph;
    let n = g.node_count();
    let (fp, _) = Fingerprints::sample(g, 10, 96, SEED, &SimRankOptions::default());
    let sources: Vec<u32> = (0..16u32).map(|i| i * (n as u32 / 16)).collect();
    let mut group = c.benchmark_group("mc_single_source");
    group.sample_size(10);
    group.bench_function("per_pair_loop", |b| {
        b.iter(|| -> Vec<f64> {
            (0..n as u32)
                .map(|v| fp.estimate(black_box(7), v))
                .collect()
        })
    });
    group.bench_function("hoisted", |b| b.iter(|| fp.single_source(black_box(7))));
    group.bench_function("batch16_t1", |b| {
        b.iter(|| fp.single_source_batch(&sources, NonZeroUsize::MIN))
    });
    let threads = NonZeroUsize::new(std::thread::available_parallelism().map_or(1, |p| p.get()))
        .expect("nonzero");
    group.bench_function("batch16_tmax", |b| {
        b.iter(|| fp.single_source_batch(&sources, threads))
    });
    group.finish();
}

criterion_group!(benches, triangular_sweeps, mc_single_source);
criterion_main!(benches);
