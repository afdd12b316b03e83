//! Fig. 6a — time efficiency on real datasets.
//!
//! Three panels, as in the paper: (1) DBLP snapshots D02–D11 at ε = 0.001
//! comparing all four algorithms; (2) BERKSTAN and (3) PATENT varying the
//! iteration count K for the three scalable algorithms (the paper excludes
//! `mtx-SR` from the large graphs because its SVD memory explodes — so do
//! we). Expected shapes: OIP-SR < psum-SR everywhere; OIP-DSR fastest for
//! fixed ε (fewer iterations); mtx-SR slowest overall.

use crate::scale::Scale;
use crate::table::{fmt_secs, Table};
use simrank_core::{dsr, mtx, oip, psum, SharingPlan, SimRankOptions};
use simrank_datasets as datasets;
use std::time::Duration;

/// Timing of the four algorithms on one DBLP snapshot.
#[derive(Clone, Debug)]
pub struct DblpPoint {
    /// Snapshot label (D02…D11).
    pub label: &'static str,
    /// Vertex count of the simulated snapshot.
    pub nodes: usize,
    /// OIP-DSR wall time.
    pub oip_dsr: Duration,
    /// OIP-SR wall time.
    pub oip_sr: Duration,
    /// psum-SR wall time.
    pub psum_sr: Duration,
    /// mtx-SR wall time; `None` when the snapshot exceeds the size cap
    /// (the paper likewise restricts `mtx-SR` to small data — its dense
    /// SVD is cubic and "takes too long to finish", §V Exp-1).
    pub mtx_sr: Option<Duration>,
}

/// Largest snapshot mtx-SR is run on (its Jacobi SVD is `O(n³)` per sweep).
pub const MTX_NODE_CAP: usize = 1_100;

/// Timing of the three scalable algorithms at one iteration count.
#[derive(Clone, Debug)]
pub struct KSweepPoint {
    /// Iteration count K.
    pub k: u32,
    /// OIP-DSR wall time (runs its own, smaller, iteration count needed for
    /// the equivalent accuracy `C^{K+1}`; see panel docs).
    pub oip_dsr: Duration,
    /// OIP-SR wall time at K iterations.
    pub oip_sr: Duration,
    /// psum-SR wall time at K iterations.
    pub psum_sr: Duration,
}

/// The full Fig. 6a result.
#[derive(Clone, Debug)]
pub struct Fig6a {
    /// Panel 1: DBLP snapshots, fixed ε = 0.001.
    pub dblp: Vec<DblpPoint>,
    /// Panel 2: BERKSTAN-sim, varying K.
    pub berkstan: Vec<KSweepPoint>,
    /// Panel 3: PATENT-sim, varying K.
    pub patent: Vec<KSweepPoint>,
}

/// Runs all three panels.
pub fn run(scale: Scale, seed: u64) -> Fig6a {
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-3);

    // --- Panel 1: DBLP, all four algorithms, fixed accuracy. ---
    let mut dblp = Vec::new();
    for snap in datasets::DblpSnapshot::ALL {
        let d = datasets::dblp_like(snap, scale.dblp_scale_div(), seed);
        let g = &d.graph;
        let (_, r_dsr) = dsr::oip_dsr_simrank(g, &opts);
        let (_, r_oip) = oip::oip_simrank_with_report(g, &opts);
        let (_, r_psum) = psum::psum_simrank_with_report(g, &opts);
        let mtx_sr = (g.node_count() <= MTX_NODE_CAP)
            .then(|| mtx::mtx_simrank(g, &opts, None).1.total_time());
        dblp.push(DblpPoint {
            label: snap.label(),
            nodes: g.node_count(),
            oip_dsr: r_dsr.total_time(),
            oip_sr: r_oip.total_time(),
            psum_sr: r_psum.total_time(),
            mtx_sr,
        });
    }

    // --- Panels 2 & 3: K sweeps on the large simulated graphs. ---
    let berkstan = k_sweep(
        &datasets::berkstan_like(scale.berkstan_nodes(), seed).graph,
        &scale.berkstan_k_sweep(),
        &opts,
    );
    let patent = k_sweep(
        &datasets::patent_like(scale.patent_nodes(), seed).graph,
        &scale.patent_k_sweep(),
        &opts,
    );
    Fig6a {
        dblp,
        berkstan,
        patent,
    }
}

fn k_sweep(g: &simrank_graph::DiGraph, ks: &[u32], base: &SimRankOptions) -> Vec<KSweepPoint> {
    // Share one plan across the sweep: the paper amortizes MST construction
    // the same way (Fig. 6b separates it out).
    let plan = SharingPlan::build(g, base);
    ks.iter()
        .map(|&k| {
            let opts_k = base.with_iterations(k);
            // OIP-DSR at the accuracy equivalent to K conventional
            // iterations (geometric residual C^{K+1}).
            let eps_equiv = simrank_core::convergence::geometric_residual(base.damping, k);
            let dsr_k = simrank_core::convergence::differential_iterations(base.damping, eps_equiv);
            let opts_dsr = base.with_iterations(dsr_k);
            let (_, r_dsr) = dsr::oip_dsr_simrank_with_plan(g, &plan, &opts_dsr);
            let (_, r_oip) = oip::oip_simrank_with_plan(g, &plan, &opts_k);
            let (_, r_psum) = psum::psum_simrank_with_report(g, &opts_k);
            KSweepPoint {
                k,
                oip_dsr: r_dsr.share_sums,
                oip_sr: r_oip.share_sums,
                psum_sr: r_psum.share_sums,
            }
        })
        .collect()
}

/// Renders the three panels.
pub fn render(fig: &Fig6a) -> String {
    let mut out = String::from("Fig. 6a — time efficiency (ε = 0.001, C = 0.6)\n\n");
    let mut t = Table::new(&["DBLP", "n", "OIP-DSR", "OIP-SR", "psum-SR", "mtx-SR"]);
    for p in &fig.dblp {
        t.row(vec![
            p.label.to_string(),
            p.nodes.to_string(),
            fmt_secs(p.oip_dsr),
            fmt_secs(p.oip_sr),
            fmt_secs(p.psum_sr),
            p.mtx_sr
                .map(fmt_secs)
                .unwrap_or_else(|| "(too large)".into()),
        ]);
    }
    out.push_str(&format!("{t}\n"));
    for (name, series) in [("BERKSTAN-sim", &fig.berkstan), ("PATENT-sim", &fig.patent)] {
        let mut t = Table::new(&["K", "OIP-DSR", "OIP-SR", "psum-SR", "speedup oip/psum"]);
        for p in series {
            let speedup = p.psum_sr.as_secs_f64() / p.oip_sr.as_secs_f64().max(1e-9);
            t.row(vec![
                p.k.to_string(),
                fmt_secs(p.oip_dsr),
                fmt_secs(p.oip_sr),
                fmt_secs(p.psum_sr),
                format!("{speedup:.2}x"),
            ]);
        }
        out.push_str(&format!("{name} (iteration sweep)\n{t}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_hold_at_tiny_scale() {
        // A miniature run that still checks the orderings the paper reports.
        let opts = SimRankOptions::default()
            .with_damping(0.6)
            .with_epsilon(1e-3);
        let d = simrank_datasets::berkstan_like(400, 7);
        let (_, r_oip) = oip::oip_simrank_with_report(&d.graph, &opts);
        let (_, r_psum) = psum::psum_simrank_with_report(&d.graph, &opts);
        // Additions (the machine-independent cost) must favor OIP.
        assert!(r_oip.adds < r_psum.adds);
        // DSR runs far fewer iterations at equal ε.
        let (_, r_dsr) = dsr::oip_dsr_simrank(&d.graph, &opts);
        assert!(r_dsr.iterations < r_oip.iterations / 2);
    }

    #[test]
    fn render_has_three_panels() {
        let fig = Fig6a {
            dblp: vec![],
            berkstan: vec![KSweepPoint {
                k: 5,
                oip_dsr: Duration::from_millis(1),
                oip_sr: Duration::from_millis(2),
                psum_sr: Duration::from_millis(4),
            }],
            patent: vec![],
        };
        let s = render(&fig);
        assert!(s.contains("BERKSTAN-sim"));
        assert!(s.contains("PATENT-sim"));
        assert!(s.contains("2.00x"));
    }
}
