//! Fig. 6d — memory space.
//!
//! The paper reports *intermediate* memory (partial-sum caches etc.), not
//! the output matrix. Observations to reproduce: (1) on DBLP, mtx-SR needs
//! an order of magnitude more than everything else (dense SVD); (2) OIP-SR
//! and OIP-DSR stay within a small constant (≈2×) of psum-SR; (3) on the
//! large graphs the OIP space is flat as K grows (buffers are freed every
//! iteration).

use crate::scale::Scale;
use crate::table::{fmt_bytes, Table};
use simrank_core::{dsr, mtx, oip, psum, SharingPlan, SimRankOptions};
use simrank_datasets as datasets;

/// Memory of the four algorithms on one DBLP snapshot.
#[derive(Clone, Debug)]
pub struct DblpMemRow {
    /// Snapshot label.
    pub label: &'static str,
    /// OIP-DSR peak intermediate bytes.
    pub oip_dsr: usize,
    /// OIP-SR peak intermediate bytes.
    pub oip_sr: usize,
    /// psum-SR peak intermediate bytes.
    pub psum_sr: usize,
    /// mtx-SR peak intermediate bytes.
    pub mtx_sr: usize,
}

/// Memory across an iteration sweep on one large graph (flatness check).
#[derive(Clone, Debug)]
pub struct KMemSeries {
    /// Dataset name.
    pub dataset: String,
    /// `(K, oip_dsr_bytes, oip_sr_bytes, psum_bytes)` per point.
    pub points: Vec<(u32, usize, usize, usize)>,
}

/// The full Fig. 6d result.
#[derive(Clone, Debug)]
pub struct Fig6d {
    /// DBLP panel (all four algorithms).
    pub dblp: Vec<DblpMemRow>,
    /// BERKSTAN-sim and PATENT-sim sweeps.
    pub sweeps: Vec<KMemSeries>,
}

/// Runs the memory experiment.
pub fn run(scale: Scale, seed: u64) -> Fig6d {
    // Pin one worker: peak intermediate memory scales with the worker
    // count, and this figure reproduces the paper's single-threaded
    // accounting — it must not vary with the host's core count.
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-3)
        .with_threads(1);
    let mut dblp = Vec::new();
    for snap in datasets::DblpSnapshot::ALL {
        let d = datasets::dblp_like(snap, scale.dblp_scale_div(), seed);
        let (_, r_dsr) = dsr::oip_dsr_simrank(&d.graph, &opts);
        let (_, r_oip) = oip::oip_simrank_with_report(&d.graph, &opts);
        let (_, r_psum) = psum::psum_simrank_with_report(&d.graph, &opts);
        // mtx-SR's intermediate memory is a closed-form function of its
        // dense factors (`mtx::model_peak_bytes`, full rank r = n); above
        // the runtime cap we evaluate that model analytically instead of
        // paying the O(n³) SVD just to read the counter.
        let n = d.graph.node_count();
        let mtx_bytes = if n <= crate::experiments::fig6a::MTX_NODE_CAP {
            mtx::mtx_simrank(&d.graph, &opts, None)
                .1
                .peak_intermediate_bytes
        } else {
            mtx::model_peak_bytes(n, n)
        };
        dblp.push(DblpMemRow {
            label: snap.label(),
            oip_dsr: r_dsr.peak_intermediate_bytes,
            oip_sr: r_oip.peak_intermediate_bytes,
            psum_sr: r_psum.peak_intermediate_bytes,
            mtx_sr: mtx_bytes,
        });
    }
    let mut sweeps = Vec::new();
    for (d, ks) in [
        (
            datasets::berkstan_like(scale.berkstan_nodes(), seed),
            scale.berkstan_k_sweep(),
        ),
        (
            datasets::patent_like(scale.patent_nodes(), seed),
            scale.patent_k_sweep(),
        ),
    ] {
        let plan = SharingPlan::build(&d.graph, &opts);
        let points = ks
            .iter()
            .map(|&k| {
                let o = opts.with_iterations(k);
                let (_, r_dsr) = dsr::oip_dsr_simrank_with_plan(&d.graph, &plan, &o);
                let (_, r_oip) = oip::oip_simrank_with_plan(&d.graph, &plan, &o);
                let (_, r_psum) = psum::psum_simrank_with_report(&d.graph, &o);
                (
                    k,
                    r_dsr.peak_intermediate_bytes,
                    r_oip.peak_intermediate_bytes,
                    r_psum.peak_intermediate_bytes,
                )
            })
            .collect();
        sweeps.push(KMemSeries {
            dataset: d.name,
            points,
        });
    }
    Fig6d { dblp, sweeps }
}

/// Renders the panels.
pub fn render(fig: &Fig6d) -> String {
    let mut out = String::from("Fig. 6d — memory space (peak intermediate bytes)\n\n");
    let mut t = Table::new(&["DBLP", "OIP-DSR", "OIP-SR", "psum-SR", "mtx-SR"]);
    for r in &fig.dblp {
        t.row(vec![
            r.label.to_string(),
            fmt_bytes(r.oip_dsr),
            fmt_bytes(r.oip_sr),
            fmt_bytes(r.psum_sr),
            fmt_bytes(r.mtx_sr),
        ]);
    }
    out.push_str(&format!("{t}\n"));
    for s in &fig.sweeps {
        let mut t = Table::new(&["K", "OIP-DSR", "OIP-SR", "psum-SR"]);
        for &(k, a, b, c) in &s.points {
            t.row(vec![
                k.to_string(),
                fmt_bytes(a),
                fmt_bytes(b),
                fmt_bytes(c),
            ]);
        }
        out.push_str(&format!("{} (iteration sweep)\n{t}\n", s.dataset));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtx_dwarfs_iterative_algorithms() {
        let opts = SimRankOptions::default().with_iterations(3).with_threads(1);
        let d = datasets::dblp_like(datasets::DblpSnapshot::D02, 48, 1);
        let (_, r_mtx) = mtx::mtx_simrank(&d.graph, &opts, None);
        let (_, r_oip) = oip::oip_simrank_with_report(&d.graph, &opts);
        assert!(
            r_mtx.peak_intermediate_bytes > 10 * r_oip.peak_intermediate_bytes,
            "mtx {} vs oip {}",
            r_mtx.peak_intermediate_bytes,
            r_oip.peak_intermediate_bytes
        );
    }

    #[test]
    fn oip_memory_is_flat_in_k_and_near_psum() {
        let d = datasets::patent_like(600, 2);
        let base = SimRankOptions::default().with_threads(1);
        let plan = SharingPlan::build(&d.graph, &base);
        let mut prev = None;
        for k in [2u32, 6, 12] {
            let o = base.with_iterations(k);
            let (_, r_oip) = oip::oip_simrank_with_plan(&d.graph, &plan, &o);
            if let Some(p) = prev {
                assert_eq!(
                    r_oip.peak_intermediate_bytes, p,
                    "OIP memory must be flat in K"
                );
            }
            prev = Some(r_oip.peak_intermediate_bytes);
            let (_, r_psum) = psum::psum_simrank_with_report(&d.graph, &o);
            let ratio =
                r_oip.peak_intermediate_bytes as f64 / r_psum.peak_intermediate_bytes as f64;
            assert!(
                ratio < 2.0,
                "OIP intermediate memory should stay within a small multiple of psum, got {ratio}"
            );
        }
    }
}
