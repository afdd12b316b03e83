//! Absorbing a live edge stream: keep SimRank answers fresh while edges
//! arrive in small batches, without ever recomputing from scratch.
//!
//! The driver holds the current graph plus its converged scores; every
//! batch patches the CSR in place and resweeps from the stale scores,
//! converging in a fraction of the cold iteration bound. Alongside it,
//! the single-source index is repaired per batch — the stale diagonal
//! seeds the CGLS solve — which is how `simrank_serve` publishes a fresh
//! generation after each batch.
//!
//! ```text
//! cargo run --release --example dynamic_stream
//! ```

use simrank::algo::{convergence, dynamic, index::SimRankIndex, QueryEngine, SimRankOptions};
use simrank::datasets;
use simrank::graph::EdgeDelta;
use std::time::Instant;

fn main() {
    let data = datasets::berkstan_like(400, datasets::DEFAULT_SEED);
    let g = data.graph;
    println!("dataset {}: {}\n", data.name, data.stats);

    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-6);
    let cold_bound = convergence::geometric_iterations(0.6, 1e-6 * 0.4);

    // Cold start: one full build of the tracked scores and the index.
    let t0 = Instant::now();
    let mut tracker = dynamic::DynamicSimRank::new(g.clone(), opts);
    let mut index = SimRankIndex::build(&g, &opts);
    println!(
        "cold start: {} iterations bounded, built in {:.2?}\n",
        cold_bound,
        t0.elapsed()
    );

    // A synthetic stream: each batch rewires a handful of edges, the way
    // a crawler sees pages gain and lose links between visits.
    let n = g.node_count() as u32;
    let edges: Vec<_> = g.edges().collect();
    for batch_no in 0u32..4 {
        let mut batch = Vec::new();
        for i in 0..4u32 {
            let k = (batch_no * 4 + i) as usize;
            let (u, v) = edges[(k * 97 + 13) % edges.len()];
            batch.push(EdgeDelta::Remove(u, v));
            batch.push(EdgeDelta::Insert((u + 3 * i + 1) % n, (v + i + 7) % n));
        }

        let t = Instant::now();
        let (summary, report) = tracker.apply_batch(&batch).expect("in-range stream");
        let sweep_time = t.elapsed();
        let t = Instant::now();
        let (repaired, repair_report) = index.repair(&batch, &opts).expect("in-range stream");
        let repair_time = t.elapsed();
        index = repaired;

        let applied = summary.inserted + summary.removed;
        println!(
            "batch {batch_no}: {applied} effective edits \
             ({} in-neighborhoods touched)",
            summary.touched_in.len()
        );
        println!(
            "  resweep: {} iterations (cold bound {}) in {:.2?} \
             -> {:.0} updates/sec",
            report.iterations,
            cold_bound,
            sweep_time,
            applied as f64 / sweep_time.as_secs_f64()
        );
        println!(
            "  repair:  {} CGLS rounds in {:.2?}",
            repair_report.iterations, repair_time
        );
    }

    // The tracked scores and the repaired index answer from the same
    // fixed point: show a top-k ranking from each for one query node.
    let query = tracker
        .graph()
        .nodes()
        .max_by_key(|&v| tracker.graph().in_degree(v))
        .expect("non-empty");
    println!("\ntop-5 for node #{query} after the stream:");
    let by_sweep = tracker.scores().top_k(query, 5);
    let by_index = index.top_k(query, 5);
    for (rank, ((sv, ss), (iv, is))) in by_sweep.iter().zip(&by_index).enumerate() {
        println!(
            "  #{:<2} sweep: node {sv:<4} s = {ss:.4}   index: node {iv:<4} s = {is:.4}",
            rank + 1
        );
    }
}
