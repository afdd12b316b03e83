//! Packed symmetric storage for all-pairs similarity scores.

use simrank_par::kernel;

/// A symmetric `n × n` matrix stored as the lower triangle
/// (`n(n+1)/2` entries), with `get`/`set` insensitive to argument order.
///
/// SimRank matrices are symmetric by definition, so packing halves the
/// dominant memory cost of all-pairs computation and *enforces* symmetry of
/// the result. This is the result container every dense all-pairs entry
/// point returns; the sweeps themselves iterate on crate-private
/// full-square score grids. Row reads
/// ([`SimMatrix::copy_row_into`]) walk the contiguous prefix of a row and
/// the strided suffix with incremental index arithmetic, never
/// recomputing triangle offsets per element.
#[derive(Clone, Debug, PartialEq)]
pub struct SimMatrix {
    n: usize,
    data: Vec<f64>,
}

#[inline(always)]
fn tri(i: usize) -> usize {
    i * (i + 1) / 2
}

impl SimMatrix {
    /// All-zeros matrix. Panics (with a clear message, not an allocator
    /// abort) when the packed triangle overflows `usize` or cannot be
    /// allocated.
    pub fn zeros(n: usize) -> Self {
        let mut data = Vec::new();
        match n.checked_add(1).and_then(|m| m.checked_mul(n)) {
            Some(twice) if data.try_reserve_exact(twice / 2).is_ok() => data.resize(twice / 2, 0.0),
            _ => panic!("cannot allocate an order-{n} packed score triangle (n(n+1)/2 doubles)"),
        }
        SimMatrix { n, data }
    }

    /// Identity matrix — the SimRank iteration seed `S₀`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        m.set_diagonal(1.0);
        m
    }

    /// Matrix order `n`.
    #[inline]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Entry `s(a, b)`; symmetric in its arguments.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> f64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        debug_assert!(hi < self.n);
        self.data[tri(hi) + lo]
    }

    /// Sets `s(a, b) = s(b, a) = v`.
    #[inline]
    pub fn set(&mut self, a: usize, b: usize, v: f64) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        debug_assert!(hi < self.n);
        self.data[tri(hi) + lo] = v;
    }

    /// Sets every diagonal entry to `v`.
    pub fn set_diagonal(&mut self, v: f64) {
        for i in 0..self.n {
            self.data[tri(i) + i] = v;
        }
    }

    /// Copies row `x` into `out` (overwrites) — an *exact* copy of the
    /// stored bits, not a zero-fill-plus-accumulate (`0.0 + (-0.0)`
    /// would flip a stored `-0.0` to `+0.0` and perturb `total_cmp`
    /// rankings downstream). This is the non-allocating row path the
    /// top-k and eval layers use.
    pub fn copy_row_into(&self, x: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n);
        let base = tri(x);
        // y ≤ x: contiguous slice of row x.
        out[..=x].copy_from_slice(&self.data[base..base + x + 1]);
        // y > x: entry (y, x) at tri(y) + x; advance tri(y) incrementally.
        let mut idx = tri(x + 1) + x;
        for (dy, o) in out[x + 1..].iter_mut().enumerate() {
            *o = self.data[idx];
            idx += x + 2 + dy;
        }
    }

    /// Full row as a fresh vector (query convenience; hot paths use the
    /// non-allocating [`SimMatrix::copy_row_into`] instead).
    pub fn row(&self, x: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.copy_row_into(x, &mut out);
        out
    }

    /// Packed row `hi`: the `hi + 1` entries `s(lo, hi)`, `lo ≤ hi`, in
    /// ascending `lo`.
    #[inline]
    pub(crate) fn packed_row_mut(&mut self, hi: usize) -> &mut [f64] {
        &mut self.data[tri(hi)..tri(hi + 1)]
    }

    /// Largest absolute entry difference — the `‖·‖max` convergence metric.
    pub fn max_abs_diff(&self, other: &SimMatrix) -> f64 {
        assert_eq!(self.n, other.n, "order mismatch");
        kernel::max_abs_diff(&self.data, &other.data)
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Splits the packed triangle into disjoint mutable bands of whole
    /// packed rows, one per range.
    ///
    /// Packed row `hi` holds the `hi + 1` entries `s(lo, hi)` for
    /// `lo ≤ hi`, stored contiguously — so contiguous `hi`-ranges map to
    /// contiguous, disjoint slices, and a triangular sweep can shard its
    /// unordered pairs across workers with no unsafe code. `bands` must be
    /// ascending, non-overlapping ranges within `0..=n`; rows between
    /// consecutive bands are skipped (borrowed by no one). Band `k`'s
    /// slice starts at the entry `s(0, bands[k].start)` and its length is
    /// the band's triangular weight `Σ (hi + 1)`.
    pub fn packed_row_bands_mut(&mut self, bands: &[std::ops::Range<usize>]) -> Vec<&mut [f64]> {
        let n = self.n;
        let mut out = Vec::with_capacity(bands.len());
        let mut rest: &mut [f64] = &mut self.data;
        let mut cursor = 0usize;
        for band in bands {
            assert!(
                band.start >= cursor && band.start <= band.end && band.end <= n,
                "bands must be ascending and within 0..={n}"
            );
            let (_gap, tail) = rest.split_at_mut(tri(band.start) - tri(cursor));
            let (rows, tail) = tail.split_at_mut(tri(band.end) - tri(band.start));
            out.push(rows);
            rest = tail;
            cursor = band.end;
        }
        out
    }

    /// Iterates `(a, b, value)` over the stored triangle (`a ≤ b`).
    pub fn iter_upper(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |hi| (0..=hi).map(move |lo| (lo, hi, self.data[tri(hi) + lo])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_layout_len() {
        assert_eq!(SimMatrix::zeros(5).data.len(), 15);
        assert_eq!(SimMatrix::zeros(1).data.len(), 1);
        assert_eq!(SimMatrix::zeros(0).data.len(), 0);
    }

    #[test]
    fn get_set_symmetric() {
        let mut m = SimMatrix::zeros(4);
        m.set(1, 3, 0.5);
        assert_eq!(m.get(1, 3), 0.5);
        assert_eq!(m.get(3, 1), 0.5);
        m.set(3, 1, 0.7);
        assert_eq!(m.get(1, 3), 0.7);
    }

    #[test]
    fn identity_diag() {
        let m = SimMatrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn copy_row_matches_get() {
        // Every row, every column: the contiguous prefix and the strided
        // suffix walk of the packed triangle.
        let n = 7;
        let mut m = SimMatrix::zeros(n);
        // Fill with distinct values.
        for i in 0..n {
            for j in i..n {
                m.set(i, j, (i * 10 + j) as f64 / 100.0);
            }
        }
        for x in 0..n {
            let mut out = vec![f64::NAN; n];
            m.copy_row_into(x, &mut out);
            for (y, &v) in out.iter().enumerate() {
                assert_eq!(v, m.get(x, y), "row {x} col {y}");
            }
        }
    }

    #[test]
    fn copy_row_and_row() {
        let mut m = SimMatrix::zeros(3);
        m.set(0, 1, 0.1);
        m.set(1, 1, 1.0);
        m.set(1, 2, 0.2);
        assert_eq!(m.row(1), vec![0.1, 1.0, 0.2]);
        let mut buf = vec![9.0; 3];
        m.copy_row_into(1, &mut buf);
        assert_eq!(buf, vec![0.1, 1.0, 0.2]);
    }

    #[test]
    fn copy_row_preserves_negative_zero_bits() {
        // The exact-copy guarantee: a stored -0.0 must come back as -0.0
        // (an add-based copy would normalize it to +0.0 and change
        // total_cmp orderings in the top-k layer).
        let mut m = SimMatrix::zeros(3);
        m.set(0, 2, -0.0);
        m.set(1, 2, 0.0);
        let mut buf = vec![9.0; 3];
        m.copy_row_into(2, &mut buf);
        assert!(buf[0].is_sign_negative(), "-0.0 bit lost");
        assert!(buf[1].is_sign_positive());
        assert!(m.row(2)[0].is_sign_negative());
    }

    #[test]
    fn diff_and_norm() {
        let mut a = SimMatrix::identity(3);
        let b = SimMatrix::identity(3);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        a.set(0, 2, -0.4);
        assert_eq!(a.max_abs_diff(&b), 0.4);
        // ‖a‖max as the distance from the zero matrix.
        assert_eq!(a.max_abs_diff(&SimMatrix::zeros(3)), 1.0);
    }

    #[test]
    fn iter_upper_covers_triangle() {
        let mut m = SimMatrix::zeros(3);
        m.set(0, 2, 0.3);
        let items: Vec<_> = m.iter_upper().collect();
        assert_eq!(items.len(), 6);
        assert!(items.contains(&(0, 2, 0.3)));
    }

    #[test]
    fn packed_row_bands_are_disjoint_and_aligned() {
        let n = 6;
        let mut m = SimMatrix::zeros(n);
        let bands = m.packed_row_bands_mut(&[0..2, 3..6]); // row 2 skipped
        assert_eq!(bands.len(), 2);
        assert_eq!(bands[0].len(), 1 + 2); // rows 0, 1
        assert_eq!(bands[1].len(), 4 + 5 + 6); // rows 3, 4, 5
        for (k, band) in bands.into_iter().enumerate() {
            band.fill(k as f64 + 1.0);
        }
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(2, 2), 0.0, "gap row untouched");
        assert_eq!(m.get(1, 3), 2.0, "band slice starts at s(0, band.start)");
        assert_eq!(m.get(5, 5), 2.0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn packed_row_bands_reject_overlap() {
        let mut m = SimMatrix::zeros(4);
        let _ = m.packed_row_bands_mut(&[0..2, 1..3]);
    }

    #[test]
    #[should_panic(expected = "cannot allocate")]
    fn zeros_panics_with_clear_message_on_overflow() {
        // tri(n) overflows usize: must fail cleanly, not abort.
        let _ = SimMatrix::zeros(usize::MAX);
    }

    #[test]
    #[should_panic(expected = "cannot allocate")]
    fn zeros_panics_with_clear_message_past_the_address_space() {
        // Fits the arithmetic but not the address space (u32::MAX order ≈ 64 EiB).
        let _ = SimMatrix::zeros(u32::MAX as usize);
    }
}
