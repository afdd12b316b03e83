//! Full-square iteration workspace for similarity scores.

use crate::matrix::SimMatrix;
use simrank_par::kernel;

/// Grid rows per strip of [`ScoreGrid::to_sim_matrix`]'s tiled copy.
const COPY_STRIP: usize = 64;

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
/// authoritative everywhere, and the driver's per-sweep passes touch only
/// it: [`ScoreGrid::clear_upper`] before the kernel,
/// [`ScoreGrid::max_abs_diff_upper`] for the stop rule, and
/// [`ScoreGrid::to_sim_matrix`] at the end.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoreGrid {
    n: usize,
    data: Vec<f64>,
}

impl ScoreGrid {
    /// All-zeros grid. Panics (with a clear message, not an allocator
    /// abort) when `n²` overflows `usize` or the allocator refuses the
    /// square, so every dense entry point (whose grids route through
    /// here) reports an absurd order instead of aborting.
    pub fn zeros(n: usize) -> Self {
        let mut data = Vec::new();
        match n.checked_mul(n) {
            Some(len) if data.try_reserve_exact(len).is_ok() => data.resize(len, 0.0),
            _ => panic!("cannot allocate a {n} x {n} score grid ({n}² doubles)"),
        }
        ScoreGrid { n, data }
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
    #[cfg(test)]
    pub fn get(&self, a: usize, b: usize) -> f64 {
        self.data[a * self.n + b]
    }

    /// Sets entry `(a, b)` only (no mirror write; see type docs).
    #[cfg(test)]
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

    /// Zeroes the upper triangle (`b ≥ a`, diagonal included) and leaves
    /// the strictly-lower entries as they are: the driver's mirror pass
    /// overwrites all of them after every sweep.
    pub fn clear_upper(&mut self) {
        for a in 0..self.n {
            self.row_mut(a)[a..].fill(0.0);
        }
    }

    /// `self += alpha · other`.
    pub fn add_assign_scaled(&mut self, other: &ScoreGrid, alpha: f64) {
        assert_eq!(self.n, other.n);
        kernel::axpy(&mut self.data, alpha, &other.data);
    }

    /// Largest absolute entry difference over the upper triangle (`b ≥ a`,
    /// diagonal included), one lane-chunked [`kernel::max_abs_diff`] per
    /// row suffix. `f64::max` is associative, so on two mirrored grids the
    /// value equals the full-square maximum exactly.
    pub fn max_abs_diff_upper(&self, other: &ScoreGrid) -> f64 {
        assert_eq!(self.n, other.n);
        (0..self.n).fold(0.0, |acc, a| {
            acc.max(kernel::max_abs_diff(&self.row(a)[a..], &other.row(a)[a..]))
        })
    }

    /// Converts to packed symmetric storage — a straight copy of the upper
    /// triangle, which the triangular sweeps make authoritative (no
    /// averaging of redundantly-computed triangles); the lower triangle is
    /// never read.
    ///
    /// Packed row `hi` is column `hi` of the upper triangle, so an
    /// entry-by-entry copy strides through the grid by `n`. The copy runs
    /// in strips of 64 grid rows instead: within a strip, each packed row
    /// takes one contiguous run, and the strip's rows stay in cache while
    /// the walk moves along them.
    pub fn to_sim_matrix(&self) -> SimMatrix {
        let n = self.n;
        let mut out = SimMatrix::zeros(n);
        for lo0 in (0..n).step_by(COPY_STRIP) {
            let lo1 = (lo0 + COPY_STRIP).min(n);
            for hi in lo0..n {
                let run = &mut out.packed_row_mut(hi)[lo0..lo1.min(hi + 1)];
                for (k, dst) in run.iter_mut().enumerate() {
                    *dst = self.data[(lo0 + k) * n + hi];
                }
            }
        }
        out
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

    /// An order-`n` grid whose every entry is distinct, with an upper
    /// triangle unrelated to its lower one.
    fn distinct(n: usize, salt: f64) -> ScoreGrid {
        let mut g = ScoreGrid::zeros(n);
        for a in 0..n {
            for b in 0..n {
                g.set(a, b, (a * n + b) as f64 * 1e-3 + salt);
            }
        }
        g
    }

    /// Copies the upper triangle down, as the driver's mirror pass does.
    fn mirrored(mut g: ScoreGrid) -> ScoreGrid {
        for a in 0..g.order() {
            for b in 0..a {
                g.set(a, b, g.get(b, a));
            }
        }
        g
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
        // The strip-tiled copy equals the entry-wise copy bit for bit at
        // orders on both sides of every strip edge.
        for n in [1usize, 63, 64, 65, 130] {
            let g = distinct(n, -0.5);
            let mut want = SimMatrix::zeros(n);
            for a in 0..n {
                for b in a..n {
                    want.set(a, b, g.get(a, b));
                }
            }
            assert_eq!(g.to_sim_matrix(), want, "n = {n}");
        }
    }

    #[test]
    fn clear_upper_zeroes_upper_triangle_only() {
        let n = 70;
        let before = distinct(n, 1.0);
        let mut g = before.clone();
        g.clear_upper();
        for a in 0..n {
            for b in 0..n {
                let want = if b >= a { 0.0 } else { before.get(a, b) };
                assert_eq!(g.get(a, b).to_bits(), want.to_bits(), "({a},{b})");
            }
        }
    }

    #[test]
    fn diff_metric() {
        let a = ScoreGrid::identity(2);
        let mut b = ScoreGrid::identity(2);
        b.set(0, 1, 0.3);
        assert!((a.max_abs_diff_upper(&b) - 0.3).abs() < 1e-15);
        // On mirrored grids the upper-triangle residual is the full-square
        // one, bit for bit.
        for n in [1usize, 9, 65] {
            let x = mirrored(distinct(n, 0.0));
            let mut y = distinct(n, 0.0);
            y.set(n / 2, n - 1, -2.0);
            let y = mirrored(y);
            let full = kernel::max_abs_diff(&x.data, &y.data);
            assert_eq!(x.max_abs_diff_upper(&y).to_bits(), full.to_bits());
            // A perturbed lower triangle is never read.
            let mut z = y.clone();
            for r in 1..n {
                z.set(r, 0, 1e9);
            }
            assert_eq!(x.max_abs_diff_upper(&z).to_bits(), full.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "cannot allocate")]
    fn zeros_panics_with_clear_message_on_overflow() {
        // n² overflows usize: must fail cleanly, not abort.
        let _ = ScoreGrid::zeros(usize::MAX);
    }

    #[test]
    #[should_panic(expected = "cannot allocate")]
    fn zeros_panics_with_clear_message_past_the_address_space() {
        // n² fits the arithmetic but not the address space.
        let _ = ScoreGrid::zeros(u32::MAX as usize);
    }

    #[test]
    fn scaled_accumulate() {
        let mut a = ScoreGrid::zeros(2);
        let b = ScoreGrid::identity(2);
        a.add_assign_scaled(&b, 0.7);
        assert_eq!(a.get(0, 0), 0.7);
    }
}
