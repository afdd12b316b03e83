//! Fig. 6e — convergence rate: measured iterations vs. accuracy.
//!
//! On a DBLP-d11-like graph with C = 0.8, sweep ε from 10⁻² to 10⁻⁶ and
//! measure the first iteration at which `‖S_k − S_∞‖max ≤ ε` for OIP-SR
//! and OIP-DSR, alongside the a-priori Lambert-W and Log estimates
//! (Corollaries 1–2). Expected shape: OIP-SR grows linearly in log(1/ε)
//! (tens of iterations); OIP-DSR stays single-digit, closely tracked by
//! both estimates.

use crate::scale::Scale;
use crate::table::Table;
use simrank_core::{convergence, dsr, oip, SimRankOptions};
use simrank_graph::gen;

/// Measured and estimated iteration counts for one accuracy target.
#[derive(Clone, Debug)]
pub struct ConvergencePoint {
    /// Accuracy target ε.
    pub epsilon: f64,
    /// Measured OIP-SR iterations to reach ε.
    pub oip_sr: u32,
    /// Measured OIP-DSR iterations to reach ε.
    pub oip_dsr: u32,
    /// Corollary 1 (Lambert-W) estimate.
    pub lambert_est: Option<u32>,
    /// Corollary 2 (Log) estimate.
    pub log_est: Option<u32>,
}

/// Runs the convergence sweep (C = 0.8, as in the paper's Exp-3).
pub fn run(scale: Scale, seed: u64) -> Vec<ConvergencePoint> {
    let n = scale.convergence_nodes();
    let g = gen::coauthor_graph(gen::CoauthorParams::dblp_like(n), seed);
    let c = 0.8;
    let opts = SimRankOptions::default().with_damping(c);
    let epsilons = scale.epsilon_sweep();
    let tightest = *epsilons.last().expect("non-empty sweep");

    // Converged references: run deep enough that the residual bound is two
    // orders below the tightest ε.
    let k_ref_conv = convergence::geometric_iterations(c, tightest * 1e-2);
    let conv_ref = oip::oip_simrank(&g, &opts.with_iterations(k_ref_conv));
    let k_ref_dsr = convergence::differential_iterations(c, tightest * 1e-2);
    let dsr_ref = dsr::oip_dsr_simrank(&g, &opts.with_iterations(k_ref_dsr)).0;

    // Track first-crossing iterations via observers.
    let mut conv_hits = vec![0u32; epsilons.len()];
    let _ = oip::oip_simrank_observe(&g, &opts, k_ref_conv, |k, s| {
        let err = s.max_abs_diff(&conv_ref);
        for (i, &eps) in epsilons.iter().enumerate() {
            if conv_hits[i] == 0 && err <= eps {
                conv_hits[i] = k;
            }
        }
    });
    let mut dsr_hits = vec![0u32; epsilons.len()];
    let _ = dsr::oip_dsr_simrank_observe(&g, &opts, k_ref_dsr, |k, s| {
        let err = s.max_abs_diff(&dsr_ref);
        for (i, &eps) in epsilons.iter().enumerate() {
            if dsr_hits[i] == 0 && err <= eps {
                dsr_hits[i] = k;
            }
        }
    });

    epsilons
        .iter()
        .enumerate()
        .map(|(i, &eps)| ConvergencePoint {
            epsilon: eps,
            oip_sr: conv_hits[i],
            oip_dsr: dsr_hits[i],
            lambert_est: convergence::lambert_w_estimate(c, eps),
            log_est: convergence::log_estimate(c, eps),
        })
        .collect()
}

/// Renders the sweep (also serves Fig. 6f's table body).
pub fn render(points: &[ConvergencePoint]) -> String {
    let mut t = Table::new(&["ε", "OIP-SR", "OIP-DSR", "LamW Est.", "Log Est."]);
    let opt_str = |o: Option<u32>| o.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
    for p in points {
        t.row(vec![
            format!("{:.0e}", p.epsilon),
            p.oip_sr.to_string(),
            p.oip_dsr.to_string(),
            opt_str(p.lambert_est),
            opt_str(p.log_est),
        ]);
    }
    format!("Fig. 6e — convergence rate (C = 0.8, DBLP-d11-like)\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_gap_is_dramatic() {
        let points = run(Scale::Quick, 3);
        assert_eq!(points.len(), 5);
        for p in &points {
            assert!(
                p.oip_sr > 0 && p.oip_dsr > 0,
                "crossing not found for {:?}",
                p.epsilon
            );
            assert!(p.oip_dsr <= 10, "DSR should stay single-digit-ish: {:?}", p);
        }
        // At ε = 1e-6 the conventional model needs dozens of iterations.
        let tight = points.last().expect("non-empty");
        assert!(
            tight.oip_sr >= 25,
            "OIP-SR took only {} iterations",
            tight.oip_sr
        );
        assert!(tight.oip_sr > 3 * tight.oip_dsr);
        // Iteration counts are monotone in accuracy.
        for w in points.windows(2) {
            assert!(w[1].oip_sr >= w[0].oip_sr);
            assert!(w[1].oip_dsr >= w[0].oip_dsr);
        }
    }

    #[test]
    fn estimates_track_measured_dsr() {
        let points = run(Scale::Quick, 3);
        for p in &points {
            if let Some(est) = p.lambert_est {
                // A-priori bound estimates may overshoot the measured count
                // (bounds are worst-case) but never fall far below.
                assert!(
                    est + 2 >= p.oip_dsr,
                    "LamW estimate {est} too far below measured {}",
                    p.oip_dsr
                );
            }
        }
    }
}
