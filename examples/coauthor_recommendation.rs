//! Collaborator recommendation on a DBLP-like co-authorship network — the
//! paper's motivating top-K search scenario (Fig. 6h's query, made
//! runnable).
//!
//! ```text
//! cargo run --release --example coauthor_recommendation
//! ```

use simrank::algo::{dsr, oip, QueryEngine, SimRankOptions};
use simrank::datasets;
use simrank::eval::{kendall_tau_distance, top_k_overlap};

fn main() {
    // A simulated DBLP snapshot (~1,100 authors).
    let data = datasets::dblp_like(datasets::DblpSnapshot::D05, 8, datasets::DEFAULT_SEED);
    let g = &data.graph;
    println!("dataset {}: {}\n", data.name, data.stats);

    // Query: the most prolific author.
    let query = g
        .nodes()
        .max_by_key(|&v| g.in_degree(v))
        .expect("non-empty");
    println!(
        "query author_{query:05} has {} direct collaborators",
        g.in_degree(query)
    );

    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-3);
    let scores = oip::oip_simrank(g, &opts);
    println!("\ntop-10 recommended collaborators (conventional SimRank):");
    for (rank, (author, score)) in scores.top_k(query, 10).into_iter().enumerate() {
        let direct = if g.has_edge(author, query) {
            "existing co-author"
        } else {
            "NEW contact"
        };
        println!(
            "  #{:<2} author_{author:05}  s = {score:.4}  ({direct})",
            rank + 1
        );
    }

    // The differential model gives the same answer 5x+ faster — verify the
    // ranking barely moves.
    let fast = dsr::oip_dsr_simrank(g, &opts).0;
    let ids = |s: &dyn QueryEngine| -> Vec<_> {
        s.top_k(query, 30).into_iter().map(|(v, _)| v).collect()
    };
    let (a, b) = (ids(&scores), ids(&fast));
    println!(
        "\ndifferential vs conventional top-30: overlap {:.2}, Kendall tau distance {}",
        top_k_overlap(&a, &b),
        kendall_tau_distance(&a, &b)
    );
}
