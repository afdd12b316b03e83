//! Criterion microbenchmarks — one group per paper figure.
//!
//! These benchmark the *kernels* behind each figure at reduced size (the
//! full tables come from `repro --full`): per-iteration cost of each
//! algorithm (Fig. 6a), plan construction vs iteration (Fig. 6b), the
//! density sweep (Fig. 6c), and time-to-accuracy (Fig. 6e).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simrank_core::{dsr, mtx, naive, oip, psum, SharingPlan, SimRankOptions};
use simrank_datasets as datasets;

const SEED: u64 = datasets::DEFAULT_SEED;

/// Fig. 6a kernel: one algorithm pass on a DBLP-like snapshot.
fn fig6a_time(c: &mut Criterion) {
    let d = datasets::dblp_like(datasets::DblpSnapshot::D02, 24, SEED);
    let g = &d.graph;
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_iterations(5);
    let mut group = c.benchmark_group("fig6a_time");
    group.bench_function("oip_dsr", |b| b.iter(|| dsr::oip_dsr_simrank(g, &opts)));
    group.bench_function("oip_sr", |b| b.iter(|| oip::oip_simrank(g, &opts)));
    group.bench_function("psum_sr", |b| b.iter(|| psum::psum_simrank(g, &opts)));
    group.bench_function("mtx_sr", |b| b.iter(|| mtx::mtx_simrank(g, &opts, None)));
    group.bench_function("naive_sr", |b| b.iter(|| naive::naive_simrank(g, &opts)));
    group.finish();
}

/// Fig. 6b kernel: plan construction (Build MST) vs one iteration (Share
/// Sums) on the BERKSTAN-like graph.
fn fig6b_amortized(c: &mut Criterion) {
    let d = datasets::berkstan_like(800, SEED);
    let g = &d.graph;
    let opts = SimRankOptions::default();
    let mut group = c.benchmark_group("fig6b_amortized");
    group.bench_function("build_mst", |b| b.iter(|| SharingPlan::build(g, &opts)));
    let plan = SharingPlan::build(g, &opts);
    let one_iter = opts.with_iterations(1);
    group.bench_function("share_sums_one_iter", |b| {
        b.iter(|| oip::oip_simrank_with_plan(g, &plan, &one_iter))
    });
    group.finish();
}

/// Fig. 6c kernel: OIP-SR vs psum-SR across the density sweep.
fn fig6c_density(c: &mut Criterion) {
    let opts = SimRankOptions::default().with_iterations(3);
    let mut group = c.benchmark_group("fig6c_density");
    for d in [10usize, 30, 50] {
        let g = datasets::syn(400, d, SEED).graph;
        group.bench_with_input(BenchmarkId::new("oip_sr", d), &g, |b, g| {
            b.iter(|| oip::oip_simrank(g, &opts))
        });
        group.bench_with_input(BenchmarkId::new("psum_sr", d), &g, |b, g| {
            b.iter(|| psum::psum_simrank(g, &opts))
        });
    }
    group.finish();
}

/// Fig. 6d kernel: the psum/OIP peak-intermediate accounting is free; what
/// costs memory-wise is mtx-SR's SVD — bench its factorization-dominated
/// run against OIP on the same graph.
fn fig6d_memory_regimes(c: &mut Criterion) {
    let d = datasets::dblp_like(datasets::DblpSnapshot::D02, 48, SEED);
    let g = &d.graph;
    let opts = SimRankOptions::default().with_iterations(5);
    let mut group = c.benchmark_group("fig6d_memory_regimes");
    group.bench_function("mtx_sr_dense_svd", |b| {
        b.iter(|| mtx::mtx_simrank(g, &opts, None))
    });
    group.bench_function("oip_sr_sparse", |b| b.iter(|| oip::oip_simrank(g, &opts)));
    group.finish();
}

/// Fig. 6e kernel: wall time to reach ε = 1e-4 at C = 0.8 — conventional
/// vs differential model, same sharing machinery.
fn fig6e_convergence(c: &mut Criterion) {
    let g = simrank_graph::gen::coauthor_graph(
        simrank_graph::gen::CoauthorParams::dblp_like(400),
        SEED,
    );
    let opts = SimRankOptions::default()
        .with_damping(0.8)
        .with_epsilon(1e-4);
    let mut group = c.benchmark_group("fig6e_convergence");
    group.bench_function("oip_sr_to_eps", |b| b.iter(|| oip::oip_simrank(&g, &opts)));
    group.bench_function("oip_dsr_to_eps", |b| {
        b.iter(|| dsr::oip_dsr_simrank(&g, &opts))
    });
    group.finish();
}

/// Fig. 6g/6h kernel: single-source top-k query cost over a precomputed
/// similarity matrix.
fn fig6g_topk_query(c: &mut Criterion) {
    let g = simrank_graph::gen::coauthor_graph(
        simrank_graph::gen::CoauthorParams::dblp_like(500),
        SEED,
    );
    let opts = SimRankOptions::default().with_iterations(8);
    let s = oip::oip_simrank(&g, &opts);
    let query = g.nodes().max_by_key(|&v| g.in_degree(v)).unwrap();
    let mut group = c.benchmark_group("fig6g_topk_query");
    group.bench_function("top_30", |b| {
        b.iter(|| simrank_core::QueryEngine::top_k(&s, query, 30))
    });
    group.finish();
}

criterion_group!(
    figures,
    fig6a_time,
    fig6b_amortized,
    fig6c_density,
    fig6d_memory_regimes,
    fig6e_convergence,
    fig6g_topk_query
);
criterion_main!(figures);
