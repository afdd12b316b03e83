//! Convergence explorer: geometric vs exponential SimRank, live.
//!
//! Replays the paper's §IV argument on a real computation: for a range of
//! accuracy targets, how many iterations do the conventional and the
//! differential model actually need, and how tight are the paper's
//! a-priori estimates (Corollaries 1 and 2)?
//!
//! ```text
//! cargo run --release --example convergence_explorer [C] [n]
//! ```

use simrank::algo::{convergence, dsr, oip, SimRankOptions};
use simrank::graph::gen;

fn main() {
    let mut args = std::env::args().skip(1);
    let c: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.8);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(400);

    let g = gen::coauthor_graph(gen::CoauthorParams::dblp_like(n), 20130408);
    println!(
        "co-authorship graph: n = {}, m = {}, C = {c}\n",
        g.node_count(),
        g.edge_count()
    );

    let opts = SimRankOptions::default().with_damping(c);
    // Converged references.
    let k_deep = convergence::geometric_iterations(c, 1e-8);
    let s_ref = oip::oip_simrank(&g, &opts.with_iterations(k_deep));
    let k_deep_dsr = convergence::differential_iterations(c, 1e-8);
    let dsr_ref = dsr::oip_dsr_simrank(&g, &opts.with_iterations(k_deep_dsr)).0;

    println!("eps      conventional  differential  LamW est.  Log est.  bound-based K");
    for eps in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6] {
        let mut k_conv = 0u32;
        let _ = oip::oip_simrank_observe(&g, &opts, k_deep, |k, s| {
            if k_conv == 0 && s.max_abs_diff(&s_ref) <= eps {
                k_conv = k;
            }
        });
        let mut k_dsr = 0u32;
        let _ = dsr::oip_dsr_simrank_observe(&g, &opts, k_deep_dsr, |k, s| {
            if k_dsr == 0 && s.max_abs_diff(&dsr_ref) <= eps {
                k_dsr = k;
            }
        });
        let fmt = |o: Option<u32>| o.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
        println!(
            "{eps:<8.0e} {k_conv:<13} {k_dsr:<13} {:<10} {:<9} {}",
            fmt(convergence::lambert_w_estimate(c, eps)),
            fmt(convergence::log_estimate(c, eps)),
            convergence::geometric_iterations(c, eps),
        );
    }
    println!(
        "\nThe differential model's factorial error bound C^(k+1)/(k+1)! is why its column\n\
         stays single-digit while the geometric model's grows linearly in log(1/eps)."
    );
}
