//! Pluggable score-storage backends behind the [`ScoreStore`] trait.
//!
//! Every dense algorithm in this workspace historically bottomed out in an
//! `n(n+1)/2` packed triangle ([`SimMatrix`]), which caps all-pairs runs at
//! tens of thousands of vertices no matter how fast the sweeps are. This
//! module puts the *result side* behind a trait, with one producer per
//! representation:
//!
//! | Backend | Type | Produced by | Resident bytes | When |
//! |---|---|---|---|---|
//! | Packed | [`SimMatrix`] | every all-pairs entry point (`naive`, `psum`, `oip`, `oip_dsr`, `mtx`, …) | `n(n+1)/2 · 8` | default; exact, O(1) `get` |
//! | Low-rank | [`LowRankScores`] | [`crate::mtx::mtx_simrank_low_rank`] | `(2nr + r²) · 8` | mtx factors served straight from rank space — **no** `n × n` materialization |
//! | Thresholded | [`ThresholdedSparse`] | [`ThresholdedSparse::from_store`] over any store | `≈ nnz · 12` | near-zero pairs dropped |
//!
//! The low-rank backend answers `get` in `O(r)` and a full row / top-k in
//! `O(n·r)` by contracting the mtx factors `S = (1−C)·(I + U·Ms·Uᵀ)`
//! (Oseledets & Ovchinnikov's observation that SimRank can be *served*
//! from its factorization); the thresholded backend is the storage-side
//! counterpart of SLING-style near-zero pruning. Both reproduce the packed
//! backend **bit-for-bit** on the entries they store, and construction is
//! bit-for-bit thread-invariant like every other path in the workspace.

use crate::matrix::SimMatrix;
use simrank_linalg::DenseMatrix;
use simrank_par as par;

/// Uniform read-side interface over similarity-score storage.
///
/// Implementations are symmetric (`get(a, b) == get(b, a)`) and object
/// safe, so serving layers can hold a `&dyn ScoreStore` without knowing
/// which representation a run produced. Entries a backend does not store
/// (dropped by a threshold, or the implicit zeros of a sparse row) read
/// as `0.0`. The `Send + Sync` supertraits let one store serve many
/// query threads at once; ranked queries go through the unified
/// [`crate::query::QueryEngine`] surface, which every backend (and
/// `&dyn ScoreStore` itself) implements.
pub trait ScoreStore: Send + Sync {
    /// Matrix order `n` (the scores cover vertex pairs in `0..n`).
    fn order(&self) -> usize;

    /// Similarity `s(a, b)`; symmetric in its arguments.
    fn get(&self, a: usize, b: usize) -> f64;

    /// Resident heap footprint of the score storage, in bytes — the
    /// number the backend table in the [module docs](self) is about.
    fn heap_bytes(&self) -> usize;

    /// Visits every *stored* upper-triangle entry as `(lo, hi, value)`
    /// with `lo ≤ hi`. Packed and low-rank backends visit all
    /// `n(n+1)/2` pairs (the low-rank backend computes each on the fly);
    /// the thresholded backend visits only the entries that survived its
    /// threshold.
    fn for_each_stored(&self, f: &mut dyn FnMut(usize, usize, f64));

    /// Writes row `x` into `out` (overwriting): `out[y] = s(x, y)`.
    fn copy_row_into(&self, x: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.order());
        for (y, o) in out.iter_mut().enumerate() {
            *o = self.get(x, y);
        }
    }

    /// Accumulates row `x` into `out`: `out[y] += s(x, y)`.
    fn add_row_into(&self, x: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.order());
        for (y, o) in out.iter_mut().enumerate() {
            *o += self.get(x, y);
        }
    }

    /// Largest absolute entry difference against another store (the
    /// `‖·‖max` metric), computed row-wise through the trait so any two
    /// backends compare; the per-row comparison is the lane-chunked
    /// [`par::kernel::max_abs_diff`].
    fn max_abs_diff(&self, other: &dyn ScoreStore) -> f64 {
        assert_eq!(self.order(), other.order(), "order mismatch");
        let n = self.order();
        let (mut mine, mut theirs) = (vec![0.0; n], vec![0.0; n]);
        let mut worst = 0.0f64;
        for x in 0..n {
            self.copy_row_into(x, &mut mine);
            other.copy_row_into(x, &mut theirs);
            worst = worst.max(par::kernel::max_abs_diff(&mine, &theirs));
        }
        worst
    }
}

impl ScoreStore for SimMatrix {
    fn order(&self) -> usize {
        SimMatrix::order(self)
    }

    fn get(&self, a: usize, b: usize) -> f64 {
        SimMatrix::get(self, a, b)
    }

    fn heap_bytes(&self) -> usize {
        SimMatrix::heap_bytes(self)
    }

    fn for_each_stored(&self, f: &mut dyn FnMut(usize, usize, f64)) {
        for (lo, hi, v) in self.iter_upper() {
            f(lo, hi, v);
        }
    }

    fn copy_row_into(&self, x: usize, out: &mut [f64]) {
        SimMatrix::copy_row_into(self, x, out);
    }

    fn add_row_into(&self, x: usize, out: &mut [f64]) {
        SimMatrix::add_row_into(self, x, out);
    }
}

/// The mtx factorization served as a score store: `S = scale·(I + U·Ms·Uᵀ)`
/// with `scale = 1 − C`, `U` the truncated left singular vectors (`n × r`)
/// and `Ms` the symmetrized rank-space mixing matrix (`r × r`).
///
/// Nothing `n × n` is ever materialized: `get` contracts one length-`r`
/// dot product (`O(r)`), a full row or top-k query costs `O(n·r)`. At the
/// same rank the values are **bit-for-bit identical** to the densified
/// [`crate::mtx::mtx_simrank`] output — the per-pair arithmetic is the same
/// `gm.row(lo) · u.row(hi)` contraction the triangular densification runs,
/// just evaluated lazily.
///
/// The derived product `gm = U·Ms` is cached so `get` stays `O(r)`;
/// resident storage is `(2nr + r²)·8` bytes ([`ScoreStore::heap_bytes`]),
/// i.e. `O(n·r + r²)`.
#[derive(Clone, Debug, PartialEq)]
pub struct LowRankScores {
    scale: f64,
    u: DenseMatrix,
    ms: DenseMatrix,
    gm: DenseMatrix,
}

impl LowRankScores {
    /// Assembles a store from its persisted factors, recomputing the
    /// cached `gm = U·Ms` product sequentially. `scale` must lie in
    /// `(0, 1)`; `u` must be `n × r` and `ms` `r × r`.
    ///
    /// The sequential product is bit-for-bit identical to the pooled one
    /// ([`Self::from_parts_with`]), so an `SRL1` round trip reproduces
    /// the original store `PartialEq`-exactly.
    pub fn from_parts(scale: f64, u: DenseMatrix, ms: DenseMatrix) -> Self {
        Self::validate(scale, &u, &ms);
        let gm = u.matmul(&ms);
        LowRankScores { scale, u, ms, gm }
    }

    /// As [`Self::from_parts`], sharding the `gm = U·Ms` product across
    /// the worker pool (bit-identical result).
    pub fn from_parts_with(
        scale: f64,
        u: DenseMatrix,
        ms: DenseMatrix,
        pool: &mut par::WorkerPool<'_>,
    ) -> Self {
        Self::validate(scale, &u, &ms);
        let gm = u.matmul_with(&ms, pool);
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

    /// The `1 − C` output scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The truncated left singular vectors `U` (`n × r`).
    pub fn factor_u(&self) -> &DenseMatrix {
        &self.u
    }

    /// The symmetrized rank-space mixing matrix `Ms` (`r × r`).
    pub fn mixing(&self) -> &DenseMatrix {
        &self.ms
    }
}

impl ScoreStore for LowRankScores {
    fn order(&self) -> usize {
        self.u.rows()
    }

    /// `O(r)`: one lane-chunked [`par::kernel::dot`] between a cached
    /// `gm` row and a `U` row — the exact arithmetic (and accumulation
    /// order) of the dense densification sweep, so values match it
    /// bit-for-bit.
    fn get(&self, a: usize, b: usize) -> f64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let dot = par::kernel::dot(self.gm.row(lo), self.u.row(hi));
        let base = if lo == hi { 1.0 } else { 0.0 };
        self.scale * (base + dot)
    }

    fn heap_bytes(&self) -> usize {
        self.u.heap_bytes() + self.ms.heap_bytes() + self.gm.heap_bytes()
    }

    fn for_each_stored(&self, f: &mut dyn FnMut(usize, usize, f64)) {
        let n = self.order();
        for hi in 0..n {
            for lo in 0..=hi {
                f(lo, hi, self.get(lo, hi));
            }
        }
    }
}

/// Upper-triangle CSR storage holding only pairs with `|s| ≥ θ`.
///
/// Built from any other store row-by-row ([`Self::from_store`]). Rows are keyed by the smaller vertex `lo`
/// with ascending `hi` columns, so `get` is a binary search in row
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
    /// Builds from any score store via one reused `O(n)` row buffer, so
    /// a low-rank source is never expanded to `n × n`.
    pub fn from_store(store: &dyn ScoreStore, theta: f64) -> Self {
        let n = store.order();
        let mut row = vec![0.0; n];
        let mut out = Self::with_capacity(n, theta);
        for lo in 0..n {
            store.copy_row_into(lo, &mut row);
            out.push_row(lo, &row[lo..]);
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
}

impl ScoreStore for ThresholdedSparse {
    fn order(&self) -> usize {
        self.n
    }

    fn get(&self, a: usize, b: usize) -> f64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        debug_assert!(hi < self.n);
        let row = &self.cols[self.row_ptr[lo]..self.row_ptr[lo + 1]];
        match row.binary_search(&(hi as u32)) {
            Ok(pos) => self.vals[self.row_ptr[lo] + pos],
            Err(_) => 0.0,
        }
    }

    fn heap_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f64>()
    }

    fn for_each_stored(&self, f: &mut dyn FnMut(usize, usize, f64)) {
        for lo in 0..self.n {
            for i in self.row_ptr[lo]..self.row_ptr[lo + 1] {
                f(lo, self.cols[i] as usize, self.vals[i]);
            }
        }
    }

    fn copy_row_into(&self, x: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n);
        out.fill(0.0);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrixform::matrix_form_simrank;
    use crate::mtx;
    use crate::options::SimRankOptions;
    use crate::query::QueryEngine;
    use crate::topk;
    use simrank_graph::fixtures::paper_fig1a;
    use simrank_graph::{gen, DiGraph};

    fn coauthor(n: usize) -> DiGraph {
        gen::coauthor_graph(gen::CoauthorParams::dblp_like(n), 1)
    }

    /// LowRank serves get / full-row / top-k bit-identically to the
    /// densified mtx output at the same rank — full and truncated.
    #[test]
    fn low_rank_store_pins_densified_mtx() {
        let g = coauthor(40);
        let n = g.node_count();
        let opts = SimRankOptions::default().with_iterations(12);
        for rank in [None, Some(n / 2), Some(3)] {
            let dense = mtx::mtx_simrank(&g, &opts, rank);
            let store = mtx::mtx_simrank_low_rank(&g, &opts, rank);
            assert_eq!(ScoreStore::order(&store), n);
            let mut dense_row = vec![0.0; n];
            let mut store_row = vec![0.0; n];
            for a in 0..n {
                ScoreStore::copy_row_into(&dense, a, &mut dense_row);
                store.copy_row_into(a, &mut store_row);
                assert_eq!(dense_row, store_row, "row {a} (rank {rank:?})");
                for b in 0..n {
                    assert_eq!(store.get(a, b), dense.get(a, b), "({a},{b})");
                }
            }
            for q in [0u32, (n / 2) as u32] {
                assert_eq!(
                    QueryEngine::top_k(&store, q, 10),
                    topk::top_k(&dense, q, 10)
                );
            }
            assert_eq!(ScoreStore::max_abs_diff(&store, &dense), 0.0);
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
        let exact = mtx::mtx_simrank(&g, &opts, None);
        let approx = mtx::mtx_simrank_low_rank(&g, &opts, Some(n * 3 / 4));
        let worst = ScoreStore::max_abs_diff(&approx, &exact);
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
            store.heap_bytes() < ScoreStore::heap_bytes(&packed),
            "factor handle ({}) must undercut the packed triangle ({})",
            store.heap_bytes(),
            ScoreStore::heap_bytes(&packed)
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
    /// dense oracle, bit-for-bit, across the whole trait surface.
    #[test]
    fn thresholded_store_at_zero_matches_dense_oracle() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default().with_iterations(6);
        let dense = crate::psum::psum_simrank(&g, &opts);
        let sparse = ThresholdedSparse::from_store(&dense, 0.0);
        let n = g.node_count();
        assert_eq!(sparse.nnz(), n * (n + 1) / 2);
        let mut a_row = vec![0.0; n];
        let mut b_row = vec![0.0; n];
        for a in 0..n {
            sparse.copy_row_into(a, &mut a_row);
            ScoreStore::copy_row_into(&dense, a, &mut b_row);
            assert_eq!(a_row, b_row, "row {a}");
            for b in 0..n {
                assert_eq!(sparse.get(a, b), dense.get(a, b));
            }
        }
        assert_eq!(ScoreStore::max_abs_diff(&sparse, &dense), 0.0);
        for q in 0..n as u32 {
            assert_eq!(QueryEngine::top_k(&sparse, q, 5), topk::top_k(&dense, q, 5));
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
        assert!(sparse.heap_bytes() < ScoreStore::heap_bytes(&dense));
        // Dropped pairs had |s| < θ, so the sup error is below θ; kept
        // pairs are exact.
        assert!(ScoreStore::max_abs_diff(&sparse, &dense) < theta);
        let mut kept = 0usize;
        sparse.for_each_stored(&mut |lo, hi, v| {
            assert!(v.abs() >= theta);
            assert_eq!(v, dense.get(lo, hi));
            kept += 1;
        });
        assert_eq!(kept, sparse.nnz());
    }

    /// Every stored entry of `a` equals `b`'s, bit for bit, and `a`
    /// stores the full upper triangle.
    fn assert_stores_bitwise_equal(a: &dyn ScoreStore, b: &dyn ScoreStore, what: &str) {
        let n = b.order();
        assert_eq!(a.order(), n, "{what}");
        let mut stored = 0usize;
        a.for_each_stored(&mut |lo, hi, v| {
            assert_eq!(v.to_bits(), b.get(lo, hi).to_bits(), "{what} ({lo},{hi})");
            stored += 1;
        });
        assert_eq!(stored, n * (n + 1) / 2, "{what}");
    }

    /// At θ = 0 the thresholded store of every all-pairs algorithm is its
    /// packed result, bit for bit; for mtx it is built from the low-rank
    /// store, so no `n × n` square is formed on the way.
    #[test]
    fn store_backends_agree_across_algorithms() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default().with_iterations(5);
        let runs = [
            ("naive", crate::naive::naive_simrank(&g, &opts)),
            ("psum", crate::psum::psum_simrank(&g, &opts)),
            ("oip", crate::oip::oip_simrank(&g, &opts)),
            ("oip_dsr", crate::dsr::oip_dsr_simrank(&g, &opts)),
        ];
        for (name, packed) in &runs {
            let sparse = ThresholdedSparse::from_store(packed, 0.0);
            assert_stores_bitwise_equal(&sparse, packed, name);
        }
        let packed = mtx::mtx_simrank(&g, &opts, None);
        let low_rank = mtx::mtx_simrank_low_rank(&g, &opts, None);
        assert_stores_bitwise_equal(&low_rank, &packed, "mtx low-rank");
        let sparse = ThresholdedSparse::from_store(&low_rank, 0.0);
        assert_stores_bitwise_equal(&sparse, &packed, "mtx thresholded");
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
        let packed = crate::naive::naive_simrank(&empty, &opts);
        assert_eq!(ScoreStore::order(&packed), 0);
        let sparse = ThresholdedSparse::from_store(&packed, 0.1);
        assert_eq!(ScoreStore::order(&sparse), 0);
        assert_eq!(sparse.nnz(), 0);
        let low_rank = mtx::mtx_simrank_low_rank(&empty, &opts, None);
        assert_eq!(ScoreStore::order(&low_rank), 0);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_negative_theta() {
        let _ = ThresholdedSparse::from_store(&SimMatrix::identity(2), -0.1);
    }

    #[test]
    fn trait_object_surface_is_usable() {
        let g = paper_fig1a();
        let opts = SimRankOptions::default().with_iterations(5);
        let dense = crate::oip::oip_simrank(&g, &opts);
        let store: &dyn ScoreStore = &dense;
        assert_eq!(store.order(), 9);
        assert_eq!(store.get(1, 3), dense.get(3, 1));
        let ranked = topk::rank_by_similarity(store, 1);
        assert_eq!(ranked, topk::rank_by_similarity(&dense, 1));
        let mut acc = vec![0.5; 9];
        store.add_row_into(2, &mut acc);
        for (y, &v) in acc.iter().enumerate() {
            assert_eq!(v, 0.5 + dense.get(2, y));
        }
    }
}
