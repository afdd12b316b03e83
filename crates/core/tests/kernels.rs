//! Property suite for the deterministic lane-chunked kernel layer
//! (`simrank_par::kernel`), pinning the four contracts every dense
//! inner loop in the workspace now rests on:
//!
//! 1. each reduction kernel is **bitwise equal** to a straightforward
//!    lane-reference implementation of the documented association order
//!    (LANES accumulators, fixed pairwise fold, sequential tail);
//! 2. every kernel is **deterministic call-to-call** — the same inputs
//!    produce the same bits on every invocation;
//! 3. end-to-end scores and merged op counts stay **bit-for-bit
//!    thread-invariant** through the kernel-routed sweeps — the same
//!    contract the CI determinism matrix enforces at
//!    `SIMRANK_TEST_THREADS = 1/2/4/8`, exercised here with explicit
//!    `with_threads(1/2/4/8)`;
//! 4. the lane reassociation stays within a **1e-12** bound of the old
//!    scalar association on random inputs.
//!
//! Every test name carries the `kernels_` prefix so
//! `cargo test -q -p simrank_core kernels` runs exactly this suite.

use proptest::prelude::*;
use simrank_core::index::SimRankIndex;
use simrank_core::{
    naive::naive_simrank, oip::oip_simrank_with_report, psum::psum_simrank_with_report,
    SimRankOptions,
};
use simrank_graph::{DiGraph, NodeId};
use simrank_par::kernel;

const LANES: usize = kernel::LANES;

/// The documented kernel association order, written out naively: lane `k`
/// accumulates the chunked-prefix terms with index `≡ k (mod LANES)`, the
/// lanes fold in the fixed pairwise tree, and the tail terms append
/// sequentially.
fn reference_reduce(terms: &[f64]) -> f64 {
    let chunked = terms.len() / LANES * LANES;
    let mut lanes = [0.0f64; LANES];
    for (i, &t) in terms.iter().take(chunked).enumerate() {
        lanes[i % LANES] += t;
    }
    let mut acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for &t in &terms[chunked..] {
        acc += t;
    }
    acc
}

/// Two equal-length value vectors plus an index list into them.
fn vecs_and_indices() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<u32>)> {
    (1usize..120).prop_flat_map(|len| {
        (
            proptest::collection::vec(-2.0f64..2.0, len),
            proptest::collection::vec(-2.0f64..2.0, len),
            proptest::collection::vec(0..len as u32, 0..3 * len),
        )
    })
}

fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (4usize..20).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..(4 * n))
            .prop_map(move |edges| DiGraph::from_edges(n, edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1: every reduction kernel lands on exactly the bits of the
    /// lane-reference reduction over its term sequence.
    #[test]
    fn kernels_reductions_match_lane_reference((a, b, idx) in vecs_and_indices()) {
        let dot_terms: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        prop_assert_eq!(kernel::dot(&a, &b).to_bits(), reference_reduce(&dot_terms).to_bits());
        let sq_terms: Vec<f64> = a.iter().map(|&x| x * x).collect();
        prop_assert_eq!(kernel::sq_sum(&a).to_bits(), reference_reduce(&sq_terms).to_bits());
        let gs_terms: Vec<f64> = idx.iter().map(|&j| a[j as usize]).collect();
        prop_assert_eq!(
            kernel::gather_sum(&a, &idx).to_bits(),
            reference_reduce(&gs_terms).to_bits()
        );
        let gd_vals: Vec<f64> = idx.iter().map(|&j| b[j as usize]).collect();
        let gd_terms: Vec<f64> = gd_vals.iter().zip(&idx).map(|(&v, &j)| v * a[j as usize]).collect();
        prop_assert_eq!(
            kernel::gather_dot(&gd_vals, &idx, &a).to_bits(),
            reference_reduce(&gd_terms).to_bits()
        );
    }

    /// Contract 1 for the blocked gather: every lane of
    /// `gather_sum_block` is bit-for-bit `gather_sum` over that lane's
    /// column, at every list length around the chunk boundaries (the
    /// sequential tail below `LANES`, the lane fold plus tail above).
    #[test]
    fn kernels_gather_block_matches_gather_sum(
        (rows, vals, idx) in (1usize..40).prop_flat_map(|rows| (
            Just(rows),
            proptest::collection::vec(-2.0f64..2.0, rows * 8),
            proptest::collection::vec(0..rows as u32, 24),
        ))
    ) {
        fn check<const B: usize>(block: &[f64], idx: &[u32]) {
            let rows = block.len() / B;
            for len in 0..=idx.len() {
                let got = kernel::gather_sum_block::<B>(&block[..rows * B], &idx[..len]);
                for (k, lane) in got.iter().enumerate() {
                    let column: Vec<f64> = (0..rows).map(|x| block[x * B + k]).collect();
                    prop_assert_eq!(
                        lane.to_bits(),
                        kernel::gather_sum(&column, &idx[..len]).to_bits(),
                        "B={} len={} lane={}", B, len, k
                    );
                }
            }
        }
        prop_assert_eq!(vals.len(), rows * 8);
        check::<8>(&vals, &idx);
        check::<3>(&vals[..rows * 3], &idx);
        check::<1>(&vals[..rows], &idx);
    }

    /// Contract 1 for the max folds: `f64::max` is associative on non-NaN
    /// input, so the lane fold must equal the plain sequential fold.
    #[test]
    fn kernels_max_folds_equal_sequential((a, b, _) in vecs_and_indices()) {
        let seq_abs = a.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        prop_assert_eq!(kernel::max_abs(&a).to_bits(), seq_abs.to_bits());
        let seq_diff = a.iter().zip(&b).fold(0.0f64, |m, (&x, &y)| m.max((x - y).abs()));
        prop_assert_eq!(kernel::max_abs_diff(&a, &b).to_bits(), seq_diff.to_bits());
    }

    /// The element-wise kernels have no reduction at all: each output
    /// element must be bitwise the scalar expression.
    #[test]
    fn kernels_elementwise_are_bitwise_scalar(
        (x, y0, _) in vecs_and_indices(),
        alpha in -2.0f64..2.0,
    ) {
        let mut y = y0.clone();
        kernel::accumulate(&mut y, &x);
        for i in 0..x.len() {
            prop_assert_eq!(y[i].to_bits(), (y0[i] + x[i]).to_bits());
        }
        let mut y = y0.clone();
        kernel::subtract(&mut y, &x);
        for i in 0..x.len() {
            prop_assert_eq!(y[i].to_bits(), (y0[i] - x[i]).to_bits());
        }
        let mut y = y0.clone();
        kernel::axpy(&mut y, alpha, &x);
        for i in 0..x.len() {
            prop_assert_eq!(y[i].to_bits(), (y0[i] + alpha * x[i]).to_bits());
        }
        let mut y = y0.clone();
        kernel::scaled_accumulate(&mut y, alpha, &x);
        for i in 0..x.len() {
            prop_assert_eq!(y[i].to_bits(), (x[i] + alpha * y0[i]).to_bits());
        }
        let (c, s) = (0.8f64, 0.6f64);
        let mut p = y0.clone();
        let mut q = x.clone();
        kernel::rotate(&mut p, &mut q, c, s);
        for i in 0..x.len() {
            prop_assert_eq!(p[i].to_bits(), (c * y0[i] - s * x[i]).to_bits());
            prop_assert_eq!(q[i].to_bits(), (s * y0[i] + c * x[i]).to_bits());
        }
    }

    /// Contract 2: calling a kernel twice on the same input produces the
    /// same bits — no hidden state, scheduling, or run-to-run variation.
    #[test]
    fn kernels_are_deterministic_call_to_call((a, b, idx) in vecs_and_indices()) {
        prop_assert_eq!(kernel::dot(&a, &b).to_bits(), kernel::dot(&a, &b).to_bits());
        prop_assert_eq!(
            kernel::gather_sum(&a, &idx).to_bits(),
            kernel::gather_sum(&a, &idx).to_bits()
        );
        let k = idx.len().min(b.len());
        prop_assert_eq!(
            kernel::gather_dot(&b[..k], &idx[..k], &a).to_bits(),
            kernel::gather_dot(&b[..k], &idx[..k], &a).to_bits()
        );
        prop_assert_eq!(
            kernel::max_abs_diff(&a, &b).to_bits(),
            kernel::max_abs_diff(&a, &b).to_bits()
        );
    }

    /// Contract 4: the lane reassociation stays within 1e-12 of the old
    /// sequential scalar association on random inputs (the bound the
    /// cross-algorithm oracles lean on).
    #[test]
    fn kernels_reassociation_within_1e12_of_scalar((a, b, idx) in vecs_and_indices()) {
        let scalar_dot = a.iter().zip(&b).fold(0.0, |acc, (&x, &y)| acc + x * y);
        prop_assert!((kernel::dot(&a, &b) - scalar_dot).abs() < 1e-12);
        let scalar_gather = idx.iter().fold(0.0, |acc, &j| acc + a[j as usize]);
        prop_assert!((kernel::gather_sum(&a, &idx) - scalar_gather).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 3: the kernel-routed triangular sweeps (naive, psum, OIP)
    /// still reproduce `threads = 1` bit-for-bit — scores *and* merged op
    /// counts — at every thread count the CI matrix pins.
    #[test]
    fn kernels_end_to_end_scores_thread_invariant(
        g in arb_graph(),
        k in 1u32..5,
        c in 0.2f64..0.9,
    ) {
        let single = SimRankOptions::default()
            .with_damping(c)
            .with_iterations(k)
            .with_threads(1);
        let (n1, rn1) = naive_simrank(&g, &single);
        let (p1, rp1) = psum_simrank_with_report(&g, &single);
        let (o1, ro1) = oip_simrank_with_report(&g, &single);
        for t in [2usize, 4, 8] {
            let opts = single.with_threads(t);
            let (nt, rnt) = naive_simrank(&g, &opts);
            prop_assert_eq!(n1.max_abs_diff(&nt), 0.0, "naive threads={} diverged", t);
            prop_assert_eq!(rn1.adds, rnt.adds, "naive op counts diverged");
            let (pt, rpt) = psum_simrank_with_report(&g, &opts);
            prop_assert_eq!(p1.max_abs_diff(&pt), 0.0, "psum threads={} diverged", t);
            prop_assert_eq!(rp1.adds, rpt.adds, "psum op counts diverged");
            let (ot, rot) = oip_simrank_with_report(&g, &opts);
            prop_assert_eq!(o1.max_abs_diff(&ot), 0.0, "oip threads={} diverged", t);
            prop_assert_eq!(ro1.adds, rot.adds, "oip op counts diverged");
        }
    }

    /// Contract 3 for the index engine: the kernel-routed CGLS solve —
    /// round count, merged op count, and every bit of the diagonal — is
    /// identical at every pool width.
    #[test]
    fn kernels_index_build_thread_invariant(g in arb_graph(), c in 0.3f64..0.8) {
        let opts = SimRankOptions::default()
            .with_damping(c)
            .with_epsilon(1e-4)
            .with_iterations(5);
        let (base, r1) = SimRankIndex::build_with_report(&g, &opts.with_threads(1));
        for t in [2usize, 4, 8] {
            let (idx, rt) = SimRankIndex::build_with_report(&g, &opts.with_threads(t));
            prop_assert_eq!(&idx, &base, "index diverged at threads={}", t);
            prop_assert_eq!(r1.iterations, rt.iterations, "CGLS round count diverged");
            prop_assert_eq!(r1.adds, rt.adds, "op counts diverged");
        }
    }
}
