//! Fig. 6b — amortized time per phase ("Build MST" vs "Share Sums").
//!
//! The paper's observations to reproduce: (1) for OIP-SR, MST construction
//! is a small fraction of total time (6% on BERKSTAN, 12% on PATENT);
//! (2) for OIP-DSR the *fraction* is larger (34% / 24%) because the
//! iterative phase shrinks (same MST, far fewer iterations) — the MST cost
//! itself is unchanged.

use crate::scale::Scale;
use crate::table::{fmt_secs, Table};
use simrank_core::{dsr, oip, SimRankOptions};
use simrank_datasets as datasets;
use std::time::Duration;

/// Phase split for one algorithm on one dataset.
#[derive(Clone, Debug)]
pub struct PhaseSplit {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// `DMST-Reduce` wall time.
    pub build_mst: Duration,
    /// Iterative phase wall time.
    pub share_sums: Duration,
}

impl PhaseSplit {
    /// MST fraction of the total.
    pub fn mst_fraction(&self) -> f64 {
        let total = self.build_mst.as_secs_f64() + self.share_sums.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.build_mst.as_secs_f64() / total
        }
    }
}

/// Runs OIP-SR and OIP-DSR on BERKSTAN-sim and PATENT-sim at ε = 0.001.
pub fn run(scale: Scale, seed: u64) -> Vec<PhaseSplit> {
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-3);
    let mut out = Vec::new();
    for d in [
        datasets::berkstan_like(scale.berkstan_nodes(), seed),
        datasets::patent_like(scale.patent_nodes(), seed),
    ] {
        let (_, r_dsr) = dsr::oip_dsr_simrank(&d.graph, &opts);
        out.push(PhaseSplit {
            dataset: d.name.clone(),
            algorithm: "OIP-DSR",
            build_mst: r_dsr.mst_build,
            share_sums: r_dsr.share_sums,
        });
        let (_, r_oip) = oip::oip_simrank_with_report(&d.graph, &opts);
        out.push(PhaseSplit {
            dataset: d.name.clone(),
            algorithm: "OIP-SR",
            build_mst: r_oip.mst_build,
            share_sums: r_oip.share_sums,
        });
    }
    out
}

/// Renders the phase table.
pub fn render(rows: &[PhaseSplit]) -> String {
    let mut t = Table::new(&["Dataset", "Algorithm", "Build MST", "Share Sums", "MST %"]);
    for r in rows {
        t.row(vec![
            r.dataset.clone(),
            r.algorithm.to_string(),
            fmt_secs(r.build_mst),
            fmt_secs(r.share_sums),
            format!("{:.0}%", 100.0 * r.mst_fraction()),
        ]);
    }
    format!("Fig. 6b — amortized time per phase (ε = 0.001)\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsr_shrinks_the_iterative_phase() {
        // The paper's observation decomposes into two load-insensitive
        // facts: (1) both algorithms pay (almost) the same MST cost — it is
        // the same DMST-Reduce; (2) OIP-DSR's iterative phase is much
        // shorter (fewer iterations for equal ε), which is *why* its MST
        // fraction is larger in Fig. 6b. Wall-clock fractions themselves
        // jitter under parallel test load, so assert the structure instead.
        let rows = run(Scale::Quick, simrank_datasets::DEFAULT_SEED);
        assert_eq!(rows.len(), 4);
        for pair in rows.chunks(2) {
            let (dsr_row, oip_row) = (&pair[0], &pair[1]);
            assert_eq!(dsr_row.algorithm, "OIP-DSR");
            assert_eq!(oip_row.algorithm, "OIP-SR");
            assert!(
                dsr_row.share_sums.as_secs_f64() < 0.8 * oip_row.share_sums.as_secs_f64(),
                "{}: DSR iterative phase {:?} should undercut OIP-SR's {:?}",
                dsr_row.dataset,
                dsr_row.share_sums,
                oip_row.share_sums
            );
            // Share Sums dominates OIP-SR's total.
            assert!(oip_row.mst_fraction() < 0.5);
        }
    }
}
