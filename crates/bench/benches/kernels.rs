//! Single-thread payoff of the deterministic lane-chunked kernel layer.
//!
//! Every dense inner loop now routes through `simrank_par::kernel` — eight
//! independent accumulators folded in a fixed pairwise tree, which breaks
//! the serial-add dependency chain and autovectorizes under
//! `-C target-cpu=native`. This harness pits the kernels against the
//! historical single-accumulator scalar loops at both granularities:
//!
//! * **primitives** — `dot` / `axpy` / triangle mirror at
//!   several vector and matrix sizes, each against a faithful scalar
//!   re-implementation of the pre-kernel loop;
//! * **sweeps** — the shipped kernel-routed triangular `naive` / `psum`
//!   iterations on `berkstan_like(400)` and the tiled dense `matmul`,
//!   against scalar-association triangular/tiled baselines that differ
//!   *only* in the inner reduction.
//!
//! `BENCH_JSON_DIR=… cargo bench -p simrank_bench --bench kernels` writes
//! the measurements to `BENCH_kernels.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use simrank_core::{naive, psum, SimRankOptions};
use simrank_datasets as datasets;
use simrank_graph::DiGraph;
use simrank_linalg::DenseMatrix;
use simrank_par::{kernel, WorkerPool};

const SEED: u64 = datasets::DEFAULT_SEED;

/// SplitMix64 stream of values in `[-1, 1)` — deterministic bench inputs
/// without a rand dependency.
fn splitmix_vals(mut state: u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// The pre-kernel reduction: one accumulator, strictly sequential.
fn scalar_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Lane-chunked kernels vs the historical scalar loops, across sizes.
fn kernel_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_primitives");
    group.sample_size(10);
    for &n in &[64usize, 256, 1024, 4096] {
        let a = splitmix_vals(SEED, n);
        let b = splitmix_vals(SEED ^ 0x5555, n);
        // The bodies are cheap at small n; batch them so timer overhead
        // does not swamp the measurement.
        let reps = (1 << 22) / n.max(1);
        group.bench_with_input(BenchmarkId::new("dot_scalar", n), &n, |be, _| {
            be.iter(|| {
                let mut acc = 0.0;
                for _ in 0..reps {
                    acc += scalar_dot(black_box(&a), black_box(&b));
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("dot_kernel", n), &n, |be, _| {
            be.iter(|| {
                let mut acc = 0.0;
                for _ in 0..reps {
                    acc += kernel::dot(black_box(&a), black_box(&b));
                }
                acc
            })
        });
        let mut y = vec![0.0f64; n];
        group.bench_with_input(BenchmarkId::new("axpy_scalar", n), &n, |be, _| {
            be.iter(|| {
                y.copy_from_slice(&b);
                for _ in 0..reps {
                    for (yv, &xv) in y.iter_mut().zip(&a) {
                        *yv += 0.5 * xv;
                    }
                }
                black_box(y[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("axpy_kernel", n), &n, |be, _| {
            be.iter(|| {
                y.copy_from_slice(&b);
                for _ in 0..reps {
                    kernel::axpy(&mut y, 0.5, black_box(&a));
                }
                black_box(y[0])
            })
        });
    }
    // Triangle mirror: the tile-blocked transpose copy vs the naive
    // row-at-a-time strided walk it replaced.
    for &n in &[256usize, 1024] {
        let src = splitmix_vals(SEED ^ 0x77, n * n);
        let mut data = src.clone();
        group.bench_with_input(BenchmarkId::new("mirror_scalar", n), &n, |be, _| {
            be.iter(|| {
                for a in 1..n {
                    for b in 0..a {
                        data[a * n + b] = data[b * n + a];
                    }
                }
                black_box(data[n * n - 1])
            })
        });
        group.bench_with_input(BenchmarkId::new("mirror_kernel", n), &n, |be, _| {
            be.iter(|| {
                // SAFETY: `data` is an exclusively-borrowed n×n buffer and
                // this single call covers all rows — no aliased writers.
                unsafe { kernel::mirror_lower_rows(data.as_mut_ptr(), n, 1..n) };
                black_box(data[n * n - 1])
            })
        });
    }
    group.finish();
}

/// The pre-kernel triangular naive sweep: identical schedule (upper
/// triangle + mirror), scalar single-accumulator inner reduction.
fn naive_triangular_scalar(g: &DiGraph, c: f64, k: u32) -> Vec<f64> {
    let n = g.node_count();
    let mut cur = vec![0.0f64; n * n];
    let mut next = vec![0.0f64; n * n];
    for i in 0..n {
        cur[i * n + i] = 1.0;
    }
    for _ in 0..k {
        next.fill(0.0);
        for a in 0..n {
            next[a * n + a] = 1.0;
            let ins_a = g.in_neighbors(a as u32);
            if ins_a.is_empty() {
                continue;
            }
            for b in (a + 1)..n {
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
        for a in 1..n {
            for b in 0..a {
                next[a * n + b] = next[b * n + a];
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// The pre-kernel triangular psum sweep: per-source partial sums built
/// with a scalar accumulate, scalar gather over the outer targets.
fn psum_triangular_scalar(g: &DiGraph, c: f64, k: u32) -> Vec<f64> {
    let n = g.node_count();
    let mut cur = vec![0.0f64; n * n];
    let mut next = vec![0.0f64; n * n];
    let mut partial = vec![0.0f64; n];
    for i in 0..n {
        cur[i * n + i] = 1.0;
    }
    for _ in 0..k {
        next.fill(0.0);
        for a in 0..n {
            next[a * n + a] = 1.0;
            let ins_a = g.in_neighbors(a as u32);
            if ins_a.is_empty() {
                continue;
            }
            partial.fill(0.0);
            for &x in ins_a {
                let row = &cur[x as usize * n..(x as usize + 1) * n];
                for (p, v) in partial.iter_mut().zip(row) {
                    *p += *v;
                }
            }
            let da = ins_a.len() as f64;
            for b in (a + 1)..n {
                let ins_b = g.in_neighbors(b as u32);
                if ins_b.is_empty() {
                    continue;
                }
                let mut sum = 0.0;
                for &j in ins_b {
                    sum += partial[j as usize];
                }
                next[a * n + b] = c / (da * ins_b.len() as f64) * sum;
            }
        }
        for a in 1..n {
            for b in 0..a {
                next[a * n + b] = next[b * n + a];
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Pre-kernel tiled matmul: same transpose-then-dot schedule as the
/// shipped [`DenseMatrix::matmul`], scalar inner dot.
fn matmul_scalar(a: &DenseMatrix, b: &DenseMatrix, pool: &mut WorkerPool<'_>) -> DenseMatrix {
    let bt = b.transpose(pool);
    DenseMatrix::from_fn(a.rows(), b.cols(), |i, j| scalar_dot(a.row(i), bt.row(j)))
}

/// Kernel-routed sweeps vs scalar-association baselines that differ only
/// in the inner reduction.
fn kernel_sweeps(c: &mut Criterion) {
    let d = datasets::berkstan_like(400, SEED);
    let g = &d.graph;
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_iterations(3)
        .with_threads(1);
    let mut group = c.benchmark_group("kernel_sweeps");
    group.sample_size(10);
    group.bench_function("naive/scalar", |b| {
        b.iter(|| naive_triangular_scalar(black_box(g), 0.6, 3))
    });
    group.bench_function("naive/kernel", |b| {
        b.iter(|| naive::naive_simrank(black_box(g), &opts))
    });
    group.bench_function("psum/scalar", |b| {
        b.iter(|| psum_triangular_scalar(black_box(g), 0.6, 3))
    });
    group.bench_function("psum/kernel", |b| {
        b.iter(|| psum::psum_simrank(black_box(g), &opts))
    });
    let n = 384;
    let ma = DenseMatrix::from_rows(n, n, &splitmix_vals(SEED, n * n));
    let mb = DenseMatrix::from_rows(n, n, &splitmix_vals(SEED ^ 0x33, n * n));
    WorkerPool::scoped(1, |pool| {
        group.bench_function("matmul/scalar", |b| {
            b.iter(|| matmul_scalar(black_box(&ma), black_box(&mb), pool))
        });
        group.bench_function("matmul/kernel", |b| {
            b.iter(|| black_box(&ma).matmul(&mb, pool))
        });
    });
    group.finish();
}

criterion_group!(benches, kernel_primitives, kernel_sweeps);
criterion_main!(benches);
