//! Full-square iteration workspace for similarity scores.

use crate::matrix::SimMatrix;
use simrank_par::kernel;

/// A full (non-packed) `n × n` score matrix used *inside* iterations.
///
/// The partial-sums inner loop accumulates whole rows of `S_k`; a full
/// row-major layout keeps those accumulations contiguous (and
/// autovectorizable), which the packed triangle cannot. Algorithms iterate
/// on `ScoreGrid` ping-pong buffers and convert the final result to the
/// packed [`SimMatrix`] via [`ScoreGrid::to_sim_matrix`].
///
/// Every dense sweep computes only the **upper triangle** (`b ≥ a`) — the
/// SimRank recurrence is symmetric, so the lower triangle is redundant
/// arithmetic — and the iteration driver then mirrors it down with the
/// bandwidth-only pooled pass `simrank_par::mirror_upper_to_lower` before
/// the next iteration reads whole rows. The upper triangle is therefore
/// authoritative everywhere.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoreGrid {
    n: usize,
    data: Vec<f64>,
}

impl ScoreGrid {
    /// All-zeros grid. Panics (with a clear message, not an allocator
    /// abort) when the square cannot be allocated — the fallible form is
    /// [`ScoreGrid::try_zeros`].
    pub fn zeros(n: usize) -> Self {
        Self::try_zeros(n)
            .unwrap_or_else(|| panic!("cannot allocate a {n} x {n} score grid ({n}² doubles)"))
    }

    /// Fallible all-zeros constructor: `None` when `n²` overflows `usize`
    /// or the allocator refuses the square. Mirror of
    /// [`SimMatrix::try_zeros`] so every dense entry point (whose grids
    /// route through here) surfaces absurd orders as an error instead of
    /// aborting.
    pub fn try_zeros(n: usize) -> Option<Self> {
        let len = n.checked_mul(n)?;
        let mut data = Vec::new();
        data.try_reserve_exact(len).ok()?;
        data.resize(len, 0.0);
        Some(ScoreGrid { n, data })
    }

    /// Identity grid (`S₀`).
    pub fn identity(n: usize) -> Self {
        let mut g = Self::zeros(n);
        g.set_diagonal(1.0);
        g
    }

    /// Scaled identity (`Ŝ₀ = e^{-C} I`).
    pub fn scaled_identity(n: usize, alpha: f64) -> Self {
        let mut g = Self::zeros(n);
        g.set_diagonal(alpha);
        g
    }

    /// Matrix order.
    #[inline]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Entry `(a, b)`.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> f64 {
        self.data[a * self.n + b]
    }

    /// Sets entry `(a, b)` only (no mirror write; see type docs).
    #[inline]
    pub fn set(&mut self, a: usize, b: usize, v: f64) {
        self.data[a * self.n + b] = v;
    }

    /// Row view.
    #[inline]
    pub fn row(&self, a: usize) -> &[f64] {
        &self.data[a * self.n..(a + 1) * self.n]
    }

    /// Mutable row view.
    #[inline]
    pub fn row_mut(&mut self, a: usize) -> &mut [f64] {
        &mut self.data[a * self.n..(a + 1) * self.n]
    }

    /// `out[y] += self[x][y]` for all y — contiguous row accumulation
    /// through [`kernel::accumulate`] (bitwise identical to the historical
    /// scalar loop).
    #[inline]
    pub fn add_row_into(&self, x: usize, out: &mut [f64]) {
        kernel::accumulate(out, self.row(x));
    }

    /// `out[y] -= self[x][y]` for all y.
    #[inline]
    pub fn sub_row_from(&self, x: usize, out: &mut [f64]) {
        kernel::subtract(out, self.row(x));
    }

    /// Raw backing storage (row-major); used by the parallel executor's
    /// disjoint-row writer.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sets all diagonal entries.
    pub fn set_diagonal(&mut self, v: f64) {
        for i in 0..self.n {
            self.data[i * self.n + i] = v;
        }
    }

    /// Zeroes every entry.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// `self += alpha · other`.
    pub fn add_assign_scaled(&mut self, other: &ScoreGrid, alpha: f64) {
        assert_eq!(self.n, other.n);
        kernel::axpy(&mut self.data, alpha, &other.data);
    }

    /// Largest absolute entry difference (lane-chunked
    /// [`kernel::max_abs_diff`]; `f64::max` is associative, so the value
    /// equals the sequential fold exactly).
    pub fn max_abs_diff(&self, other: &ScoreGrid) -> f64 {
        assert_eq!(self.n, other.n);
        kernel::max_abs_diff(&self.data, &other.data)
    }

    /// Converts to packed symmetric storage — a straight copy of the upper
    /// triangle, which the triangular sweeps make authoritative (no
    /// averaging of redundantly-computed triangles).
    pub fn to_sim_matrix(&self) -> SimMatrix {
        let mut out = SimMatrix::zeros(self.n);
        for a in 0..self.n {
            for b in a..self.n {
                out.set(a, b, self.get(a, b));
            }
        }
        out
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_rows() {
        let g = ScoreGrid::identity(3);
        assert_eq!(g.row(1), &[0.0, 1.0, 0.0]);
        assert_eq!(g.get(2, 2), 1.0);
    }

    #[test]
    fn row_accumulation() {
        let mut g = ScoreGrid::zeros(3);
        g.set(1, 0, 0.5);
        g.set(1, 2, 0.25);
        let mut buf = vec![1.0; 3];
        g.add_row_into(1, &mut buf);
        assert_eq!(buf, vec![1.5, 1.0, 1.25]);
        g.sub_row_from(1, &mut buf);
        assert_eq!(buf, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn to_sim_matrix_is_exact_upper_triangle_copy() {
        // Regression: the conversion is a straight copy of the upper
        // triangle — no averaging drift. On an asymmetrically-written grid
        // the lower-triangle garbage must be ignored entirely.
        let mut g = ScoreGrid::zeros(2);
        g.set(0, 1, 0.4);
        g.set(1, 0, 0.6); // stale lower-triangle value: must not leak
        let m = g.to_sim_matrix();
        assert_eq!(m.get(0, 1), 0.4);
        assert_eq!(m.get(1, 0), 0.4);
    }

    #[test]
    fn diff_metric() {
        let a = ScoreGrid::identity(2);
        let mut b = ScoreGrid::identity(2);
        b.set(0, 1, 0.3);
        assert!((a.max_abs_diff(&b) - 0.3).abs() < 1e-15);
    }

    #[test]
    fn try_zeros_rejects_absurd_orders() {
        assert!(ScoreGrid::try_zeros(3).is_some());
        assert_eq!(ScoreGrid::try_zeros(0).unwrap().order(), 0);
        // n² overflows usize: must fail cleanly, not abort.
        assert!(ScoreGrid::try_zeros(usize::MAX).is_none());
        // Fits arithmetic but not the address space.
        assert!(ScoreGrid::try_zeros(u32::MAX as usize).is_none());
    }

    #[test]
    #[should_panic(expected = "cannot allocate")]
    fn zeros_panics_with_clear_message_on_overflow() {
        let _ = ScoreGrid::zeros(usize::MAX);
    }

    #[test]
    fn scaled_accumulate() {
        let mut a = ScoreGrid::zeros(2);
        let b = ScoreGrid::identity(2);
        a.add_assign_scaled(&b, 0.7);
        assert_eq!(a.get(0, 0), 0.7);
    }
}
