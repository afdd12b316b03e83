//! Op-count and score-digest regression gates.
//!
//! The triangular-sweep refactor halved the dense outer-accumulation
//! arithmetic (every unordered pair is computed once; the mirror pass is a
//! pure copy and counts nothing). This test pins the exact
//! [`simrank::algo::Report::adds`] of every algorithm on fixed fixture
//! graphs against the committed `baselines/op_counts.txt`, so a silent
//! re-introduction of redundant arithmetic — or an accidental drop that
//! would indicate skipped work — fails CI by name.
//!
//! A second gate pins a 64-bit digest of the output score *bits* of every
//! dense all-pairs algorithm (plus threshold-sieved variants) against
//! `baselines/score_digests.txt`, so "scores are bitwise unchanged" is a
//! checked property of a refactor, not a claim. The digest runs run at the
//! default pool width, which `SIMRANK_TEST_THREADS` pins: every width of
//! the determinism matrix must reproduce the same file.
//!
//! To regenerate after an *intended* cost-model or arithmetic change:
//!
//! ```text
//! SIMRANK_UPDATE_BASELINES=1 cargo test --test op_baselines
//! ```

use simrank::algo::index::SimRankIndex;
use simrank::algo::montecarlo::Fingerprints;
use simrank::algo::prank::{prank, PRankOptions};
use simrank::algo::query::QueryEngine;
use simrank::algo::{dsr, dynamic, naive, oip, psum, Report, SimMatrix, SimRankOptions};
use simrank::graph::{fixtures, gen, DiGraph, EdgeDelta};
use std::collections::BTreeMap;

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/op_counts.txt");
const DIGEST_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/score_digests.txt");

/// The fixture graphs the gate runs on: the paper's Fig. 1a example, a
/// uniform random graph, and a copying-model web graph (the in-set overlap
/// OIP exploits).
fn fixture_graphs() -> Vec<(&'static str, DiGraph)> {
    vec![
        ("fig1a", fixtures::paper_fig1a()),
        ("gnm40", gen::gnm(40, 160, 7)),
        (
            "copy120",
            gen::copying_web_graph(gen::CopyingParams::berkstan_like(120), 7),
        ),
    ]
}

/// The fixed edit script the `dynamic/*` cases replay: a deterministic
/// insert/remove mix derived from the graph's own edge list, so the warm
/// resweep's stopping decision — and therefore its op count — is pinned.
fn dynamic_script(g: &DiGraph) -> Vec<EdgeDelta> {
    let n = g.node_count() as u32;
    let mut deltas = Vec::new();
    for (i, (u, v)) in g.edges().enumerate() {
        if i % 7 == 3 {
            deltas.push(EdgeDelta::Remove(u, v));
            deltas.push(EdgeDelta::Insert((u + 1) % n, (v + 2) % n));
        }
    }
    deltas
}

/// The stale scores and the mutated graph of the `dynamic_resweep*/*`
/// cases: converge on `g`, then apply the fixed edit script.
fn resweep_input(g: &DiGraph, opts: &SimRankOptions) -> (SimMatrix, DiGraph) {
    let warm = naive::naive_simrank(g, opts).0;
    let mut mg = g.clone();
    mg.apply_batch(&dynamic_script(g)).expect("valid script");
    (warm, mg)
}

/// The `dynamic_resweep/*` case: the naive warm-resweep oracle.
fn resweep_case(g: &DiGraph, opts: &SimRankOptions) -> (SimMatrix, Report) {
    let (warm, mg) = resweep_input(g, opts);
    naive::naive_resweep(&mg, &warm, opts)
}

/// The `dynamic_resweep_psum/*` case: the production warm resweep
/// (psum-SR sweeps) on the same input.
fn resweep_psum_case(g: &DiGraph, opts: &SimRankOptions) -> (SimMatrix, Report) {
    let (warm, mg) = resweep_input(g, opts);
    dynamic::resweep_with_report(&mg, &warm, opts)
}

/// Measures every `<algorithm>/<graph>` case. Counts are thread-invariant
/// by the executor's shard-merge contract; `threads = 1` keeps the gate
/// cheap on CI.
fn measured_cases() -> Vec<(String, u64)> {
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_iterations(5)
        .with_threads(1);
    let mut out = Vec::new();
    for (gname, g) in fixture_graphs() {
        out.push((
            format!("naive/{gname}"),
            naive::naive_simrank(&g, &opts).1.adds,
        ));
        out.push((
            format!("psum/{gname}"),
            psum::psum_simrank_with_report(&g, &opts).1.adds,
        ));
        out.push((
            format!("oip/{gname}"),
            oip::oip_simrank_with_report(&g, &opts).1.adds,
        ));
        out.push((
            format!("oip_dsr/{gname}"),
            dsr::oip_dsr_simrank(&g, &opts).1.adds,
        ));
        out.push((
            format!("prank/{gname}"),
            prank(
                &g,
                &PRankOptions {
                    base: opts,
                    lambda: 0.5,
                },
            )
            .1
            .adds,
        ));
        out.push((
            format!("montecarlo/{gname}"),
            Fingerprints::sample(&g, 8, 32, 1, &SimRankOptions::default().with_threads(1))
                .1
                .adds,
        ));
        out.push((
            format!("index/{gname}"),
            SimRankIndex::build_with_report(&g, &opts).1.adds,
        ));
        // Dynamic maintenance: warm resweep and index repair after the
        // fixed edit script. The warm paths stop on a convergence check,
        // so pinning their adds also pins the iteration/round counts.
        out.push((
            format!("dynamic_resweep/{gname}"),
            resweep_case(&g, &opts).1.adds,
        ));
        out.push((
            format!("dynamic_resweep_psum/{gname}"),
            resweep_psum_case(&g, &opts).1.adds,
        ));
        out.push((format!("dynamic_repair/{gname}"), {
            let index = SimRankIndex::build(&g, &opts);
            index
                .repair(&dynamic_script(&g), &opts)
                .expect("valid script")
                .1
                .adds
        }));
    }
    out
}

/// FNV-1a over the IEEE-754 bits of the stored triangle, row-major with
/// the diagonal: any bit flip in any score (even `0.0` vs `-0.0`) changes
/// the digest.
fn score_digest(s: &SimMatrix) -> u64 {
    bits_digest(s.iter_upper().map(|(_, _, v)| v))
}

/// FNV-1a over the IEEE-754 bits of `values` in order — the byte loop
/// behind [`score_digest`], also applied to the index's diagonal and
/// served rows.
fn bits_digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digests every dense all-pairs `<algorithm>/<graph>` output, plain and
/// `δ = 0.05`-sieved (`*_t05`), plus the index's outputs: the diagonal
/// correction `d` of a build (`index/*`) and of a repair after the fixed
/// edit script (`dynamic_repair/*`), and every `single_source(u)` row,
/// concatenated in `u` order (`index_rows/*`). Runs at the default pool
/// width so the determinism matrix checks each width against the same
/// committed file.
fn measured_digests() -> Vec<(String, u64)> {
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_iterations(5);
    let sieved = opts.with_threshold(0.05);
    let prank_opts = |base| PRankOptions { base, lambda: 0.5 };
    let mut out = Vec::new();
    for (gname, g) in fixture_graphs() {
        let cases = [
            ("naive", naive::naive_simrank(&g, &opts).0),
            ("naive_t05", naive::naive_simrank(&g, &sieved).0),
            ("psum", psum::psum_simrank(&g, &opts)),
            ("psum_t05", psum::psum_simrank(&g, &sieved)),
            ("oip", oip::oip_simrank(&g, &opts)),
            ("oip_t05", oip::oip_simrank(&g, &sieved)),
            ("oip_dsr", dsr::oip_dsr_simrank(&g, &opts).0),
            ("oip_dsr_t05", dsr::oip_dsr_simrank(&g, &sieved).0),
            ("prank", prank(&g, &prank_opts(opts)).0),
            ("prank_t05", prank(&g, &prank_opts(sieved)).0),
            ("dynamic_resweep", resweep_case(&g, &opts).0),
            ("dynamic_resweep_psum", resweep_psum_case(&g, &opts).0),
        ];
        for (algo, scores) in cases {
            out.push((format!("{algo}/{gname}"), score_digest(&scores)));
        }
        let index = SimRankIndex::build(&g, &opts);
        let (repaired, _) = index
            .repair(&dynamic_script(&g), &opts)
            .expect("valid script");
        let rows = (0..g.node_count() as u32).flat_map(|u| index.single_source(u));
        out.push((
            format!("index/{gname}"),
            bits_digest(index.diagonal_correction().iter().copied()),
        ));
        out.push((
            format!("dynamic_repair/{gname}"),
            bits_digest(repaired.diagonal_correction().iter().copied()),
        ));
        out.push((format!("index_rows/{gname}"), bits_digest(rows)));
    }
    out
}

#[test]
fn score_digests_match_committed_baselines() {
    let measured = measured_digests();
    if std::env::var_os("SIMRANK_UPDATE_BASELINES").is_some() {
        let mut body = String::from(
            "# FNV-1a digests of the output score bits on the fixture graphs (see\n\
             # tests/op_baselines.rs). Regenerate after intended arithmetic\n\
             # changes with: SIMRANK_UPDATE_BASELINES=1 cargo test --test op_baselines\n",
        );
        for (name, digest) in &measured {
            body.push_str(&format!("{name} {digest:016x}\n"));
        }
        std::fs::write(DIGEST_PATH, body).expect("write baselines/score_digests.txt");
        return;
    }

    let committed = std::fs::read_to_string(DIGEST_PATH).expect(
        "baselines/score_digests.txt missing — generate it with \
         SIMRANK_UPDATE_BASELINES=1 cargo test --test op_baselines",
    );
    let baseline: BTreeMap<&str, &str> = committed
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_once(' ').expect("digest lines are `<case> <hex>`"))
        .collect();
    for (name, digest) in &measured {
        let want = baseline.get(name.as_str()).unwrap_or_else(|| {
            panic!("no committed digest for `{name}` — regenerate score_digests.txt")
        });
        assert_eq!(
            format!("{digest:016x}"),
            want.trim(),
            "{name}: output score bits changed"
        );
    }
    for name in baseline.keys() {
        assert!(
            measured.iter().any(|(m, _)| m == name),
            "stale digest entry `{name}` no longer measured"
        );
    }
}

#[test]
fn op_counts_match_committed_baselines() {
    let measured = measured_cases();
    if std::env::var_os("SIMRANK_UPDATE_BASELINES").is_some() {
        let mut body = String::from(
            "# Per-algorithm Report::adds baselines on the fixture graphs (see\n\
             # tests/op_baselines.rs). Regenerate after intended cost-model\n\
             # changes with: SIMRANK_UPDATE_BASELINES=1 cargo test --test op_baselines\n",
        );
        for (name, adds) in &measured {
            body.push_str(&format!("{name} {adds}\n"));
        }
        std::fs::write(BASELINE_PATH, body).expect("write baselines/op_counts.txt");
        return; // freshly regenerated: trivially in sync
    }

    let committed = std::fs::read_to_string(BASELINE_PATH).expect(
        "baselines/op_counts.txt missing — generate it with \
         SIMRANK_UPDATE_BASELINES=1 cargo test --test op_baselines",
    );
    let mut baseline: BTreeMap<&str, u64> = BTreeMap::new();
    for line in committed.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, adds) = line
            .split_once(' ')
            .expect("baseline lines are `<case> <adds>`");
        baseline.insert(name, adds.trim().parse().expect("baseline adds count"));
    }

    for (name, adds) in &measured {
        let want = *baseline.get(name.as_str()).unwrap_or_else(|| {
            panic!("no committed baseline for `{name}` — regenerate op_counts.txt")
        });
        assert!(
            *adds <= want,
            "{name}: op count regressed above baseline ({adds} > {want}) — \
             was redundant (e.g. lower-triangle) arithmetic reintroduced?"
        );
        assert!(
            *adds >= want,
            "{name}: op count fell below baseline ({adds} < {want}); if this is an \
             intended optimization, regenerate baselines/op_counts.txt"
        );
    }
    for name in baseline.keys() {
        assert!(
            measured.iter().any(|(m, _)| m == name),
            "stale baseline entry `{name}` no longer measured"
        );
    }
}
