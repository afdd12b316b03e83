//! Score-storage backends beyond the packed triangle.
//!
//! Every dense algorithm in this workspace bottoms out in an `n(n+1)/2`
//! packed triangle ([`SimMatrix`](crate::SimMatrix)), which caps all-pairs runs at tens of
//! thousands of vertices no matter how fast the sweeps are. This module
//! holds the two other result representations; all three are read
//! through [`QueryEngine`]:
//!
//! | Backend | Type | Produced by | Resident bytes | When |
//! |---|---|---|---|---|
//! | Packed | [`SimMatrix`](crate::SimMatrix) | every all-pairs entry point (`naive`, `psum`, `oip`, `oip_dsr`, `mtx`, …) | `n(n+1)/2 · 8` | default; exact, O(1) `get` |
//! | Low-rank | [`LowRankScores`] | [`crate::mtx::mtx_simrank_low_rank`] | `(2nr + r²) · 8` | mtx factors served straight from rank space — **no** `n × n` materialization |
//! | Thresholded | [`ThresholdedSparse`] | [`ThresholdedSparse::from_store`] over any engine | `≈ nnz · 12` | near-zero pairs dropped |
//!
//! The low-rank backend answers `get` in `O(r)` and a full row / top-k in
//! `O(n·r)` by contracting the mtx factors `S = (1−C)·(I + U·Ms·Uᵀ)`
//! (Oseledets & Ovchinnikov's observation that SimRank can be *served*
//! from its factorization); the thresholded backend is the storage-side
//! counterpart of SLING-style near-zero pruning. Both reproduce the packed
//! backend **bit-for-bit** on the entries they store, and construction is
//! bit-for-bit thread-invariant like every other path in the workspace.

use crate::query::{check_source, QueryEngine};
use simrank_graph::NodeId;
use simrank_linalg::DenseMatrix;
use simrank_par as par;

/// The mtx factorization served as a score store: `S = scale·(I + U·Ms·Uᵀ)`
/// with `scale = 1 − C`, `U` the truncated left singular vectors (`n × r`)
/// and `Ms` the symmetrized rank-space mixing matrix (`r × r`).
///
/// Nothing `n × n` is ever materialized: `get` contracts one length-`r`
/// dot product (`O(r)`), a full row or top-k query costs `O(n·r)`. At the
/// same rank the values are **bit-for-bit identical** to the densified
/// [`crate::mtx::mtx_simrank`] output, which is filled by calling
/// [`Self::get`] on every packed pair.
///
/// The derived product `gm = U·Ms` is cached so `get` stays `O(r)`;
/// resident storage is `(2nr + r²)·8` bytes ([`Self::heap_bytes`]),
/// i.e. `O(n·r + r²)`.
#[derive(Clone, Debug, PartialEq)]
pub struct LowRankScores {
    scale: f64,
    u: DenseMatrix,
    ms: DenseMatrix,
    gm: DenseMatrix,
}

impl LowRankScores {
    /// Assembles a store from its factors, computing the cached
    /// `gm = U·Ms` product on the pool. `scale` must lie in `(0, 1)`;
    /// `u` must be `n × r` and `ms` `r × r`. The product is bit-for-bit
    /// identical at every pool width.
    pub(crate) fn from_parts(
        scale: f64,
        u: DenseMatrix,
        ms: DenseMatrix,
        pool: &mut par::WorkerPool<'_>,
    ) -> Self {
        Self::validate(scale, &u, &ms);
        let gm = u.matmul(&ms, pool);
        LowRankScores { scale, u, ms, gm }
    }

    fn validate(scale: f64, u: &DenseMatrix, ms: &DenseMatrix) {
        assert!(
            scale.is_finite() && scale > 0.0 && scale < 1.0,
            "scale (1 − C) must lie in (0, 1), got {scale}"
        );
        assert_eq!(ms.rows(), ms.cols(), "mixing matrix must be square");
        assert_eq!(
            u.cols(),
            ms.rows(),
            "factor width {} does not match mixing order {}",
            u.cols(),
            ms.rows()
        );
    }

    /// Truncation rank `r` of the factors.
    pub fn rank(&self) -> usize {
        self.ms.rows()
    }

    /// Matrix order `n`.
    pub fn order(&self) -> usize {
        self.u.rows()
    }

    /// `O(r)`: one lane-chunked [`par::kernel::dot`] between a cached
    /// `gm` row and a `U` row. The dense [`crate::mtx::mtx_simrank`]
    /// output is filled through this method, so the two agree
    /// bit-for-bit at the same rank.
    pub fn get(&self, a: usize, b: usize) -> f64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let dot = par::kernel::dot(self.gm.row(lo), self.u.row(hi));
        let base = if lo == hi { 1.0 } else { 0.0 };
        self.scale * (base + dot)
    }

    /// Resident heap footprint of the factors, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.u.heap_bytes() + self.ms.heap_bytes() + self.gm.heap_bytes()
    }
}

/// Upper-triangle CSR storage holding only pairs with `|s| ≥ θ`.
///
/// Built from any query engine row by row ([`Self::from_store`]). Rows
/// are keyed by the smaller vertex `lo` with ascending `hi` columns, so `get` is a binary search in row
/// `min(a, b)` and absent pairs read as `0.0`. With `θ = 0` every pair is
/// kept (including exact zeros) and the store reproduces the dense oracle
/// bit-for-bit.
#[derive(Clone, Debug, PartialEq)]
pub struct ThresholdedSparse {
    n: usize,
    theta: f64,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl ThresholdedSparse {
    /// Builds from any query engine, one [`QueryEngine::single_source`]
    /// row at a time, so a low-rank source is never expanded to `n × n`.
    pub fn from_store(store: &dyn QueryEngine, theta: f64) -> Self {
        let n = store.order();
        let mut out = Self::with_capacity(n, theta);
        for lo in 0..n {
            out.push_row(lo, &store.single_source(lo as NodeId)[lo..]);
        }
        out
    }

    fn with_capacity(n: usize, theta: f64) -> Self {
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "theta must be finite and ≥ 0, got {theta}"
        );
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        ThresholdedSparse {
            n,
            theta,
            row_ptr,
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Appends row `lo`'s surviving entries; `tail[d] = s(lo, lo + d)`.
    fn push_row(&mut self, lo: usize, tail: &[f64]) {
        for (d, &v) in tail.iter().enumerate() {
            if v.abs() >= self.theta {
                self.cols.push((lo + d) as u32);
                self.vals.push(v);
            }
        }
        self.row_ptr.push(self.cols.len());
    }

    /// The drop threshold `θ` this store was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Stored (surviving) upper-triangle entry count.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Matrix order `n`.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Similarity `s(a, b)`; pairs below `θ` read as `0.0`.
    ///
    /// # Panics
    ///
    /// Panics when `a` or `b` is not a vertex (`≥ order()`).
    pub fn get(&self, a: usize, b: usize) -> f64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        check_source(hi, self.n);
        let row = &self.cols[self.row_ptr[lo]..self.row_ptr[lo + 1]];
        match row.binary_search(&(hi as u32)) {
            Ok(pos) => self.vals[self.row_ptr[lo] + pos],
            Err(_) => 0.0,
        }
    }

    /// Resident heap footprint of the CSR arrays, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f64>()
    }

    /// Row `x` as a dense vector: `out[y] = s(x, y)`.
    pub(crate) fn row(&self, x: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        // Entries (y, x) with y < x live in the rows above, one binary
        // search each; row x's own entries (x, b ≥ x) are contiguous.
        for lo in 0..x {
            let row = &self.cols[self.row_ptr[lo]..self.row_ptr[lo + 1]];
            if let Ok(pos) = row.binary_search(&(x as u32)) {
                out[lo] = self.vals[self.row_ptr[lo] + pos];
            }
        }
        for i in self.row_ptr[x]..self.row_ptr[x + 1] {
            out[self.cols[i] as usize] = self.vals[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SimMatrix;
    use crate::matrixform::matrix_form_simrank;
    use crate::mtx;
    use crate::options::SimRankOptions;
    use simrank_graph::fixtures::paper_fig1a;
    use simrank_graph::{gen, DiGraph};

    fn coauthor(n: usize) -> DiGraph {
        gen::coauthor_graph(gen::CoauthorParams::dblp_like(n), 1)
    }

    /// Largest absolute entry difference between two engines, row by row.
    fn max_abs_diff(a: &dyn QueryEngine, b: &dyn QueryEngine) -> f64 {
        assert_eq!(a.order(), b.order(), "order mismatch");
        (0..a.order() as NodeId)
            .map(|x| par::kernel::max_abs_diff(&a.single_source(x), &b.single_source(x)))
            .fold(0.0, f64::max)
    }

    /// LowRank serves get / full-row / top-k bit-identically to the
    /// densified mtx output at the same rank — full and truncated.
    #[test]
    fn low_rank_store_pins_densified_mtx() {
        let g = coauthor(40);
        let n = g.node_count();
        let opts = SimRankOptions::default().with_iterations(12);
        for rank in [None, Some(n / 2), Some(3)] {
            let dense = mtx::mtx_simrank(&g, &opts, rank).0;
            let store = mtx::mtx_simrank_low_rank(&g, &opts, rank);
            assert_eq!(store.order(), n);
            for a in 0..n {
                let (dense_row, store_row) = (dense.row(a), store.single_source(a as NodeId));
                assert_eq!(dense_row, store_row, "row {a} (rank {rank:?})");
                for b in 0..n {
                    assert_eq!(store.get(a, b), dense.get(a, b), "({a},{b})");
                }
            }
            for q in [0u32, (n / 2) as u32] {
                assert_eq!(store.top_k(q, 10), dense.top_k(q, 10));
            }
            assert_eq!(max_abs_diff(&store, &dense), 0.0);
        }
    }

    /// Truncated ranks stay within the analytic drift the densified path
    /// exhibits on low-rank-ish graphs (same tolerance as the mtx
    /// truncation test, since the values are identical).
    #[test]
    fn low_rank_store_truncation_approximates_exact() {
        let g = coauthor(40);
        let n = g.node_count();
        let opts = SimRankOptions::default().with_iterations(15);
        let exact = mtx::mtx_simrank(&g, &opts, None).0;
        let approx = mtx::mtx_simrank_low_rank(&g, &opts, Some(n * 3 / 4));
        let worst = max_abs_diff(&approx, &exact);
        assert!(worst < 0.05, "rank-3n/4 low-rank store drifted by {worst}");
    }

    /// The acceptance assertion: resident low-rank score storage is
    /// exactly `(2nr + r²)·8` bytes — `O(n·r + r²)`, strictly below the
    /// packed triangle once `r ≪ n`.
    #[test]
    fn low_rank_store_heap_is_factor_sized() {
        let g = coauthor(48);
        let n = g.node_count();
        let r = 6;
        let opts = SimRankOptions::default().with_iterations(10);
        let store = mtx::mtx_simrank_low_rank(&g, &opts, Some(r));
        assert_eq!(store.rank(), r);
        assert_eq!(store.heap_bytes(), (2 * n * r + r * r) * 8);
        let packed = SimMatrix::zeros(n);
        assert!(
            store.heap_bytes() < packed.heap_bytes(),
            "factor handle ({}) must undercut the packed triangle ({})",
            store.heap_bytes(),
            packed.heap_bytes()
        );
    }

    #[test]
    fn low_rank_matches_matrix_form_at_full_rank() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default()
            .with_damping(0.6)
            .with_iterations(25);
        let store = mtx::mtx_simrank_low_rank(&g, &opts, None);
        let reference = matrix_form_simrank(&g, 0.6, 25);
        for a in 0..9 {
            for b in 0..9 {
                assert!(
                    (store.get(a, b) - reference.get(a, b)).abs() < 1e-8,
                    "({a},{b})"
                );
            }
        }
    }

    /// θ = 0 keeps every pair (zeros included): the sparse store is the
    /// dense oracle, bit-for-bit, across its whole read surface.
    #[test]
    fn thresholded_store_at_zero_matches_dense_oracle() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default().with_iterations(6);
        let dense = crate::psum::psum_simrank(&g, &opts);
        let sparse = ThresholdedSparse::from_store(&dense, 0.0);
        let n = g.node_count();
        assert_eq!(sparse.nnz(), n * (n + 1) / 2);
        for a in 0..n {
            assert_eq!(sparse.single_source(a as NodeId), dense.row(a), "row {a}");
            for b in 0..n {
                assert_eq!(sparse.get(a, b), dense.get(a, b));
            }
        }
        assert_eq!(max_abs_diff(&sparse, &dense), 0.0);
        for q in 0..n as u32 {
            assert_eq!(sparse.top_k(q, 5), dense.top_k(q, 5));
        }
    }

    #[test]
    fn thresholded_store_drops_small_pairs_with_bounded_error() {
        let g = coauthor(50);
        let theta = 0.02;
        let opts = SimRankOptions::default().with_iterations(8);
        let dense = crate::psum::psum_simrank(&g, &opts);
        let sparse = ThresholdedSparse::from_store(&dense, theta);
        let n = g.node_count();
        assert!(
            sparse.nnz() < n * (n + 1) / 2,
            "theta {theta} dropped nothing"
        );
        assert!(sparse.heap_bytes() < dense.heap_bytes());
        // Dropped pairs had |s| < θ, so the sup error is below θ; kept
        // pairs are exact.
        assert!(max_abs_diff(&sparse, &dense) < theta);
        let mut kept = 0usize;
        for (lo, hi, v) in dense.iter_upper() {
            if v.abs() >= theta {
                assert_eq!(sparse.get(lo, hi), v, "({lo},{hi})");
                kept += 1;
            } else {
                assert_eq!(sparse.get(lo, hi), 0.0, "({lo},{hi})");
            }
        }
        assert_eq!(kept, sparse.nnz());
    }

    /// Every row `a` serves is `b`'s, bit for bit.
    fn assert_rows_bitwise_equal(a: &dyn QueryEngine, b: &dyn QueryEngine, what: &str) {
        let n = b.order();
        assert_eq!(a.order(), n, "{what}");
        for x in 0..n as NodeId {
            let bits = |e: &dyn QueryEngine| -> Vec<u64> {
                e.single_source(x).iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(a), bits(b), "{what} row {x}");
        }
    }

    /// At θ = 0 the thresholded store of every all-pairs algorithm is its
    /// packed result, bit for bit; for mtx it is built from the low-rank
    /// store, so no `n × n` square is formed on the way.
    #[test]
    fn store_backends_agree_across_algorithms() {
        let g = paper_fig1a();
        let n = g.node_count();
        let opts = SimRankOptions::default().with_iterations(5);
        let runs = [
            ("naive", crate::naive::naive_simrank(&g, &opts).0),
            ("psum", crate::psum::psum_simrank(&g, &opts)),
            ("oip", crate::oip::oip_simrank(&g, &opts)),
            ("oip_dsr", crate::dsr::oip_dsr_simrank(&g, &opts).0),
        ];
        for (name, packed) in &runs {
            let sparse = ThresholdedSparse::from_store(packed, 0.0);
            assert_eq!(sparse.nnz(), n * (n + 1) / 2, "{name}");
            assert_rows_bitwise_equal(&sparse, packed, name);
        }
        let packed = mtx::mtx_simrank(&g, &opts, None).0;
        let low_rank = mtx::mtx_simrank_low_rank(&g, &opts, None);
        assert_rows_bitwise_equal(&low_rank, &packed, "mtx low-rank");
        let sparse = ThresholdedSparse::from_store(&low_rank, 0.0);
        assert_eq!(sparse.nnz(), n * (n + 1) / 2, "mtx thresholded");
        assert_rows_bitwise_equal(&sparse, &packed, "mtx thresholded");
    }

    /// Thresholded and low-rank construction are bit-for-bit
    /// thread-invariant: the CI determinism matrix re-runs this at
    /// `SIMRANK_TEST_THREADS = 1/2/4/8`.
    #[test]
    fn parallel_store_backend_construction_is_thread_invariant() {
        let g = gen::gnm(30, 110, 5);
        let opts = SimRankOptions::default().with_iterations(6);
        let build = |t: usize| {
            let opts = opts.with_threads(t);
            let low_rank = mtx::mtx_simrank_low_rank(&g, &opts, None);
            let sparse = [
                ThresholdedSparse::from_store(&crate::psum::psum_simrank(&g, &opts), 1e-3),
                ThresholdedSparse::from_store(&crate::oip::oip_simrank(&g, &opts), 1e-3),
                ThresholdedSparse::from_store(&low_rank, 1e-3),
            ];
            (low_rank, sparse)
        };
        let base = build(1);
        for t in [2usize, 4, 8] {
            assert_eq!(build(t), base, "store construction diverged at threads={t}");
        }
    }

    #[test]
    fn empty_graph_degenerates_cleanly_in_every_backend() {
        let empty = DiGraph::from_edges(0, []).unwrap();
        let opts = SimRankOptions::default().with_iterations(3);
        let packed = crate::naive::naive_simrank(&empty, &opts).0;
        assert_eq!(packed.order(), 0);
        let sparse = ThresholdedSparse::from_store(&packed, 0.1);
        assert_eq!(sparse.order(), 0);
        assert_eq!(sparse.nnz(), 0);
        let low_rank = mtx::mtx_simrank_low_rank(&empty, &opts, None);
        assert_eq!(low_rank.order(), 0);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_negative_theta() {
        let _ = ThresholdedSparse::from_store(&SimMatrix::identity(2), -0.1);
    }

    /// Out-of-range pairs panic with the range message instead of
    /// reading as an absent (zero) entry.
    #[test]
    #[should_panic(expected = "query vertex 14 out of range for order 9")]
    fn thresholded_get_rejects_out_of_range_pairs() {
        let g = paper_fig1a();
        let dense = crate::psum::psum_simrank(&g, &SimRankOptions::default().with_iterations(3));
        let sparse = ThresholdedSparse::from_store(&dense, 0.0);
        let _ = sparse.get(0, g.node_count() + 5);
    }

    #[test]
    fn trait_object_surface_is_usable() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default().with_iterations(5);
        let dense = crate::oip::oip_simrank(&g, &opts);
        let sparse = ThresholdedSparse::from_store(&dense, 0.0);
        for store in [&dense as &dyn QueryEngine, &sparse] {
            assert_eq!(store.order(), 9);
            let row = store.single_source(1);
            assert_eq!(row[3], dense.get(3, 1));
            assert_eq!(
                crate::topk::rank_scores(&row, 1),
                crate::topk::rank_scores(&dense.row(1), 1)
            );
        }
    }
}
