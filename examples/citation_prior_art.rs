//! Prior-art discovery on a PATENT-like citation DAG: find patents
//! structurally similar to a query patent — i.e. cited by similar citers —
//! even when they never cite each other. One of the paper's motivating
//! bibliometrics applications.
//!
//! ```text
//! cargo run --release --example citation_prior_art
//! ```

use simrank::algo::{montecarlo, oip, QueryEngine, SimRankOptions};
use simrank::datasets;

fn main() {
    let data = datasets::patent_like(1_500, datasets::DEFAULT_SEED);
    let g = &data.graph;
    println!("dataset {}: {}\n", data.name, data.stats);

    // Query: a heavily cited "classic" patent.
    let query = g
        .nodes()
        .max_by_key(|&v| g.in_degree(v))
        .expect("non-empty");
    println!("query patent #{query} has {} citations", g.in_degree(query));

    let opts = SimRankOptions::default()
        .with_damping(0.8)
        .with_epsilon(1e-3);
    let scores = oip::oip_simrank(g, &opts);

    println!("\nmost similar patents (candidates for overlapping prior art):");
    for (rank, (patent, score)) in scores.top_k(query, 8).into_iter().enumerate() {
        let cocited = g
            .in_neighbors(query)
            .iter()
            .filter(|c| g.in_neighbors(patent).contains(c))
            .count();
        println!(
            "  #{:<2} patent #{patent:<6} s = {score:.4}  ({cocited} shared citers)",
            rank + 1
        );
    }

    // Cross-check the top hit with the Monte-Carlo estimator (Fogaras-Rácz
    // random surfers) — handy when only a handful of pairs are needed.
    let (top, exact) = scores.top_k(query, 1)[0];
    let estimate = montecarlo::mc_simrank_pair(g, query, top, &opts, 20, 20_000, 7);
    println!(
        "\nMonte-Carlo cross-check of the top pair: estimate {estimate:.4} vs iterative {exact:.4}"
    );
}
