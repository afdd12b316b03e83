//! Quickstart: compute SimRank on the paper's running-example network and
//! inspect the machinery behind the speedups.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use simrank::algo::{convergence, dsr, oip, SharingPlan, SimRankOptions};
use simrank::graph::fixtures::{fig1a, paper_fig1a};

fn main() {
    // The paper-citation network of the paper's Fig. 1a: 9 papers a..i.
    let g = paper_fig1a();
    println!(
        "graph: {} vertices, {} edges, avg in-degree {:.2}\n",
        g.node_count(),
        g.edge_count(),
        g.avg_in_degree()
    );

    // Conventional SimRank via OIP-SR (Algorithm 1): C = 0.6, ε = 1e-3.
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-3);
    let plan = SharingPlan::build(&g, &opts);
    let (scores, report) = oip::oip_simrank_with_plan(&g, &plan, &opts);

    println!("similarity of selected pairs (conventional SimRank):");
    for (x, y) in [
        (fig1a::A, fig1a::B),
        (fig1a::B, fig1a::D),
        (fig1a::A, fig1a::C),
    ] {
        println!(
            "  s({}, {}) = {:.4}",
            fig1a::LABELS[x as usize],
            fig1a::LABELS[y as usize],
            scores.get(x as usize, y as usize)
        );
    }
    println!(
        "\nOIP machinery: tree weight {} (d' = {:.2}), {} additions, {} buffer(s) per worker, {} iterations",
        plan.tree_weight,
        plan.d_eff(),
        report.adds,
        plan.slots,
        report.iterations
    );

    // Differential SimRank reaches the same accuracy in far fewer rounds.
    let (_, dsr_report) = dsr::oip_dsr_simrank(&g, &opts);
    println!(
        "differential SimRank needs {} iterations for the same ε (bound: {} ≥ residual {:.2e})",
        dsr_report.iterations,
        convergence::differential_iterations(0.6, 1e-3),
        convergence::differential_residual(0.6, dsr_report.iterations),
    );
}
