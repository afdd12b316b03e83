//! Fig. 6c — effect of graph density on CPU time.
//!
//! Fixed `n`, average degree swept 10→50 on SYN (R-MAT) graphs. Paper
//! observations to reproduce: (1) OIP-DSR beats psum-SR by growing margins
//! as density rises (up to ~2 orders of magnitude at d = 50); (2) the
//! share ratio — the fraction of additions OIP saves — rises with density
//! (annotated 0.68 → 0.83 in the paper).

use crate::scale::Scale;
use crate::table::{fmt_secs, Table};
use simrank_core::{dsr, oip, psum, SharingPlan, SimRankOptions};
use simrank_datasets as datasets;
use std::time::Duration;

/// One density point.
#[derive(Clone, Debug)]
pub struct DensityPoint {
    /// Average degree requested.
    pub avg_degree: usize,
    /// OIP-DSR wall time (fixed ε).
    pub oip_dsr: Duration,
    /// OIP-SR wall time.
    pub oip_sr: Duration,
    /// psum-SR wall time.
    pub psum_sr: Duration,
    /// Addition-count share ratio of OIP-SR vs psum-SR (Fig. 6c's
    /// annotations).
    pub share_ratio: f64,
    /// Effective `d′` of the sharing plan (Proposition 5's constant).
    pub d_eff: f64,
}

/// Runs the sweep at fixed ε = 0.001, C = 0.6.
pub fn run(scale: Scale, seed: u64) -> Vec<DensityPoint> {
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-3);
    let n = scale.syn_nodes();
    scale
        .density_sweep()
        .into_iter()
        .map(|d| {
            let g = datasets::syn(n, d, seed).graph;
            let (_, r_dsr) = dsr::oip_dsr_simrank(&g, &opts);
            let plan = SharingPlan::build(&g, &opts);
            let (_, r_oip) = oip::oip_simrank_with_plan(&g, &plan, &opts);
            let (_, r_psum) = psum::psum_simrank_with_report(&g, &opts);
            DensityPoint {
                avg_degree: d,
                oip_dsr: r_dsr.total_time(),
                oip_sr: r_oip.total_time(),
                psum_sr: r_psum.total_time(),
                share_ratio: r_oip.share_ratio_vs(&r_psum),
                d_eff: plan.d_eff(),
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(points: &[DensityPoint]) -> String {
    let mut t = Table::new(&[
        "avg deg d",
        "OIP-DSR",
        "OIP-SR",
        "psum-SR",
        "share ratio",
        "d'",
        "psum/dsr speedup",
    ]);
    for p in points {
        let speedup = p.psum_sr.as_secs_f64() / p.oip_dsr.as_secs_f64().max(1e-9);
        t.row(vec![
            p.avg_degree.to_string(),
            fmt_secs(p.oip_dsr),
            fmt_secs(p.oip_sr),
            fmt_secs(p.psum_sr),
            format!("{:.2}", p.share_ratio),
            format!("{:.1}", p.d_eff),
            format!("{speedup:.1}x"),
        ]);
    }
    format!("Fig. 6c — effect of density (SYN, fixed n, ε = 0.001)\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_ratio_rises_with_density() {
        let opts = SimRankOptions::default().with_iterations(3);
        let mut ratios = Vec::new();
        for d in [6usize, 20, 40] {
            let g = datasets::syn(300, d, 3).graph;
            let (_, r_oip) = oip::oip_simrank_with_report(&g, &opts);
            let (_, r_psum) = psum::psum_simrank_with_report(&g, &opts);
            ratios.push(r_oip.share_ratio_vs(&r_psum));
        }
        assert!(
            ratios[2] > ratios[0],
            "share ratio should grow with density: {ratios:?}"
        );
        // Dense R-MAT graphs overlap heavily: substantial sharing.
        assert!(ratios[2] > 0.3, "dense share ratio too small: {ratios:?}");
    }

    #[test]
    fn d_eff_stays_below_d() {
        let opts = SimRankOptions::default().with_iterations(2);
        for d in [10usize, 30] {
            let g = datasets::syn(300, d, 5).graph;
            let d_eff = SharingPlan::build(&g, &opts).d_eff();
            assert!(d_eff < d as f64, "d'={d_eff} should undercut d={d}");
        }
    }
}
