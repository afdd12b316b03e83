//! Deterministic lane-chunked arithmetic kernels — the one place every
//! dense inner loop in the workspace bottoms out.
//!
//! # The determinism contract
//!
//! A scalar reduction (`acc += a[i] * b[i]` in index order) carries a
//! loop-borne dependency through `acc`, so the compiler cannot vectorize
//! it without `-ffast-math`-style reassociation — which this workspace
//! forbids, because scores must be **bit-for-bit identical at every
//! thread count and on every run**. The kernels here square that circle
//! by fixing a *different* association order that is itself fully
//! deterministic:
//!
//! 1. the input is walked in [`LANES`]-wide chunks via `chunks_exact`,
//!    accumulating into [`LANES`] independent lanes (`lane[k]` only ever
//!    sees elements with index `≡ k (mod LANES)` inside the chunked
//!    prefix) — independent accumulators, so the compiler is free to map
//!    them onto vector registers;
//! 2. the lanes are folded in one fixed pairwise tree,
//!    `((l₀+l₁)+(l₂+l₃)) + ((l₄+l₅)+(l₆+l₇))`;
//! 3. the `len % LANES` tail elements are added sequentially, last.
//!
//! The result is a pure function of the input values — no thread count,
//! scheduling, or run-to-run variation anywhere — so the workspace's
//! thread-invariance gates hold exactly as they did over the old scalar
//! loops. What *does* change is the association order relative to those
//! scalar loops (step 1 interleaves, a scalar loop chains), which the
//! cross-algorithm 1e-8 oracles and the `kernels` property suite's 1e-12
//! reassociation bound absorb. For inputs shorter than [`LANES`] the
//! chunked prefix is empty and the tail *is* the old sequential loop, so
//! short reductions are bitwise-unchanged.
//!
//! The element-wise kernels ([`accumulate`], [`subtract`], [`axpy`],
//! [`scaled_accumulate`], [`scale`], [`rotate`]) have no loop-carried
//! dependency at all — each output element depends only on its own
//! inputs — so they are bitwise identical to the historical scalar loops
//! *and* trivially vectorizable; they live here so every dense path
//! routes through one audited implementation.
//!
//! Everything is safe, std-only code: no `unsafe`, no intrinsics, no
//! feature detection. The lane shapes are exactly what LLVM's
//! auto-vectorizer wants (`-C target-cpu=native` turns the lane loops
//! into AVX2/AVX-512 code; the CI bench-smoke variant verifies this off
//! the 1-core dev container).

/// Number of independent accumulator lanes in every chunked reduction:
/// eight `f64`s — one 64-byte cache line, two AVX2 registers, one
/// AVX-512 register.
pub const LANES: usize = 8;

/// Folds the lane accumulators in the fixed pairwise tree
/// `((l₀+l₁)+(l₂+l₃)) + ((l₄+l₅)+(l₆+l₇))` — part of the kernel layer's
/// documented association order.
#[inline(always)]
fn fold_lanes(l: [f64; LANES]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Lane-chunked dot product `Σᵢ a[i]·b[i]`.
///
/// # Panics
///
/// Panics when `a.len() != b.len()`.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot needs equal-length slices");
    let mut lanes = [0.0f64; LANES];
    let ac = a.chunks_exact(LANES);
    let bc = b.chunks_exact(LANES);
    let (ta, tb) = (ac.remainder(), bc.remainder());
    for (ca, cb) in ac.zip(bc) {
        for k in 0..LANES {
            lanes[k] += ca[k] * cb[k];
        }
    }
    let mut acc = fold_lanes(lanes);
    for (&x, &y) in ta.iter().zip(tb) {
        acc += x * y;
    }
    acc
}

/// Lane-chunked sum of squares `Σᵢ x[i]²` (CGLS `γ`, Frobenius/column
/// norms, Jacobi Gram diagonals).
#[inline]
pub fn sq_sum(x: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let xc = x.chunks_exact(LANES);
    let tail = xc.remainder();
    for c in xc {
        for k in 0..LANES {
            lanes[k] += c[k] * c[k];
        }
    }
    let mut acc = fold_lanes(lanes);
    for &v in tail {
        acc += v * v;
    }
    acc
}

/// Lane-chunked gather-sum `Σⱼ x[idx[j]]` over an index list — the
/// in-neighbor gathers of the naive/psum/OIP/prank sweeps.
///
/// # Panics
///
/// Panics (via slice indexing) when any index is out of bounds for `x`.
#[inline]
pub fn gather_sum(x: &[f64], idx: &[u32]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let ic = idx.chunks_exact(LANES);
    let tail = ic.remainder();
    for c in ic {
        for k in 0..LANES {
            lanes[k] += x[c[k] as usize];
        }
    }
    let mut acc = fold_lanes(lanes);
    for &j in tail {
        acc += x[j as usize];
    }
    acc
}

/// Blocked gather-sum over the columns of a row-major `rows × B` block:
/// lane `k` of the result is `Σⱼ x[idx[j]·B + k]`, summed in exactly
/// [`gather_sum`]'s association order (the [`LANES`]-chunked prefix, the
/// pairwise lane fold, then the sequential tail), so every lane is
/// bit-for-bit the `gather_sum` of its own column. Each index touches one
/// contiguous `B`-wide row — the OIP engine's outer pass gathers `B`
/// sources' partial sums at once this way, and the index engine's
/// reverse step advances `B` walks.
///
/// # Panics
///
/// Panics (via slice indexing) when any row `idx[j]` is out of bounds
/// for `x`.
#[inline]
pub fn gather_sum_block<const B: usize>(x: &[f64], idx: &[u32]) -> [f64; B] {
    let row = |j: u32| -> &[f64; B] {
        x[j as usize * B..][..B]
            .try_into()
            .expect("a B-wide slice converts to [f64; B]")
    };
    let ic = idx.chunks_exact(LANES);
    let tail = ic.remainder();
    let mut acc = [0.0f64; B];
    if idx.len() >= LANES {
        let mut lanes = [[0.0f64; B]; LANES];
        for c in ic {
            for (lane, &j) in lanes.iter_mut().zip(c) {
                for (l, &v) in lane.iter_mut().zip(row(j)) {
                    *l += v;
                }
            }
        }
        for (k, a) in acc.iter_mut().enumerate() {
            *a = fold_lanes(std::array::from_fn(|i| lanes[i][k]));
        }
    }
    // Below LANES the chunked prefix is empty and its fold is `+0.0` —
    // exactly the zero `acc` starts from.
    for &j in tail {
        for (a, &v) in acc.iter_mut().zip(row(j)) {
            *a += v;
        }
    }
    acc
}

/// Lane-chunked sparse dot `Σᵢ vals[i]·x[idx[i]]`, summed in [`dot`]'s
/// association order over its terms — one stored row of the index
/// engine's constraint matrix against a dense vector.
///
/// # Panics
///
/// Panics when `vals.len() != idx.len()`, or (via slice indexing) when
/// any index is out of bounds for `x`.
#[inline]
pub fn gather_dot(vals: &[f64], idx: &[u32], x: &[f64]) -> f64 {
    assert_eq!(
        vals.len(),
        idx.len(),
        "gather_dot needs one value per index"
    );
    let mut lanes = [0.0f64; LANES];
    let vc = vals.chunks_exact(LANES);
    let ic = idx.chunks_exact(LANES);
    let (tv, ti) = (vc.remainder(), ic.remainder());
    for (cv, ci) in vc.zip(ic) {
        for k in 0..LANES {
            lanes[k] += cv[k] * x[ci[k] as usize];
        }
    }
    let mut acc = fold_lanes(lanes);
    for (&v, &j) in tv.iter().zip(ti) {
        acc += v * x[j as usize];
    }
    acc
}

/// Lane-chunked maximum absolute value `maxᵢ |x[i]|` (returns `0.0` on
/// an empty slice). `f64::max` is associative and commutative on the
/// non-NaN inputs these buffers hold, so the lane fold returns exactly
/// the sequential maximum.
#[inline]
pub fn max_abs(x: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let xc = x.chunks_exact(LANES);
    let tail = xc.remainder();
    for c in xc {
        for k in 0..LANES {
            lanes[k] = lanes[k].max(c[k].abs());
        }
    }
    let mut acc = ((lanes[0].max(lanes[1])).max(lanes[2].max(lanes[3])))
        .max((lanes[4].max(lanes[5])).max(lanes[6].max(lanes[7])));
    for &v in tail {
        acc = acc.max(v.abs());
    }
    acc
}

/// Lane-chunked maximum absolute difference `maxᵢ |a[i] − b[i]|`
/// (returns `0.0` when both slices are empty) — the convergence check
/// of every iterative sweep.
///
/// # Panics
///
/// Panics when `a.len() != b.len()`.
#[inline]
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff needs equal lengths");
    let mut lanes = [0.0f64; LANES];
    let ac = a.chunks_exact(LANES);
    let bc = b.chunks_exact(LANES);
    let (ta, tb) = (ac.remainder(), bc.remainder());
    for (ca, cb) in ac.zip(bc) {
        for k in 0..LANES {
            lanes[k] = lanes[k].max((ca[k] - cb[k]).abs());
        }
    }
    let mut acc = ((lanes[0].max(lanes[1])).max(lanes[2].max(lanes[3])))
        .max((lanes[4].max(lanes[5])).max(lanes[6].max(lanes[7])));
    for (&x, &y) in ta.iter().zip(tb) {
        acc = acc.max((x - y).abs());
    }
    acc
}

/// Element-wise accumulate `y[i] += x[i]` — bitwise identical to the
/// scalar loop (no reduction, no reassociation), centralized here so the
/// partial-sum memoizations all route through one vectorizable body.
///
/// # Panics
///
/// Panics when `y.len() != x.len()`.
#[inline]
pub fn accumulate(y: &mut [f64], x: &[f64]) {
    assert_eq!(y.len(), x.len(), "accumulate needs equal lengths");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += xv;
    }
}

/// Element-wise subtract `y[i] -= x[i]`; bitwise identical to the scalar
/// loop.
///
/// # Panics
///
/// Panics when `y.len() != x.len()`.
#[inline]
pub fn subtract(y: &mut [f64], x: &[f64]) {
    assert_eq!(y.len(), x.len(), "subtract needs equal lengths");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv -= xv;
    }
}

/// Element-wise `axpy`: `y[i] += alpha·x[i]`; bitwise identical to the
/// scalar loop.
///
/// # Panics
///
/// Panics when `y.len() != x.len()`.
#[inline]
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy needs equal lengths");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// Element-wise scaled accumulate (`xpay`): `y[i] = x[i] + alpha·y[i]` —
/// the CGLS search-direction update. Bitwise identical to the scalar
/// loop.
///
/// # Panics
///
/// Panics when `y.len() != x.len()`.
#[inline]
pub fn scaled_accumulate(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "scaled_accumulate needs equal lengths");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv = xv + alpha * *yv;
    }
}

/// Element-wise scale `x[i] *= alpha`; bitwise identical to the scalar
/// loop.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Element-wise Givens rotation of two columns:
/// `p[i], q[i] ← c·p[i] − s·q[i], s·p[i] + c·q[i]` — the Jacobi SVD's
/// column update. Bitwise identical to the scalar loop.
///
/// # Panics
///
/// Panics when `p.len() != q.len()`.
#[inline]
pub fn rotate(p: &mut [f64], q: &mut [f64], c: f64, s: f64) {
    assert_eq!(p.len(), q.len(), "rotate needs equal-length columns");
    for (pv, qv) in p.iter_mut().zip(q.iter_mut()) {
        let (x, y) = (*pv, *qv);
        *pv = c * x - s * y;
        *qv = s * x + c * y;
    }
}

/// Square tile edge for the blocked [`mirror_lower_rows`] transpose-copy.
/// The pass is bound by memory bandwidth, not by cache fit: at n = 1000,
/// tiles of 16 or 32 measured the same as 64, and swapping the loop order
/// inside a tile was 4% slower.
pub const MIRROR_TILE: usize = 64;

/// Copies the authoritative upper triangle of the row-major `n × n`
/// buffer behind `data` into the strictly-lower entries of rows
/// `rows.start..rows.end`, tile-blocked so the strided reads (a column
/// walk of the upper triangle) reuse each source line across the tile's
/// rows. This is the one shared mirror body: the sequential
/// grid-level mirror runs it over `1..n` and the pool-sharded mirror
/// hands disjoint row bands to workers.
///
/// `data` is a raw pointer because the sharded caller's workers *read*
/// strictly-upper entries of rows other workers *write* strictly-lower
/// entries of — handing out `&mut` row slices would alias even though
/// the accessed address sets are disjoint.
///
/// # Safety
///
/// `data` must point to a live `n × n` row-major `f64` buffer, and for
/// the duration of the call no other thread may *write* any
/// strictly-upper entry or any strictly-lower entry of the given rows.
/// (Concurrent callers over disjoint `rows` ranges are safe: all writes
/// land in the strictly-lower entries of caller-owned rows, all reads in
/// the strictly-upper triangle nobody writes.)
pub unsafe fn mirror_lower_rows(data: *mut f64, n: usize, rows: std::ops::Range<usize>) {
    debug_assert!(rows.end <= n);
    let mut a0 = rows.start.max(1);
    while a0 < rows.end {
        let a1 = (a0 + MIRROR_TILE).min(rows.end);
        // Row tile `a0..a1` needs columns `0..a1 − 1`; walk them in
        // column tiles so the transposed reads `(b, a)` reuse each
        // loaded source row (`b`) across the whole row tile.
        let mut b0 = 0usize;
        while b0 < a1 - 1 {
            let b1 = (b0 + MIRROR_TILE).min(a1 - 1);
            for a in a0.max(b0 + 1)..a1 {
                let lo = b0;
                let hi = b1.min(a);
                for b in lo..hi {
                    // SAFETY: `(a, b)` is strictly lower in a row this
                    // call owns; `(b, a)` is strictly upper, which no
                    // thread writes during a mirror (caller contract).
                    *data.add(a * n + b) = *data.add(b * n + a);
                }
            }
            b0 = b1;
        }
        a0 = a1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f64s without any dependency.
    fn splitmix_vals(seed: u64, len: usize) -> Vec<f64> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    /// The documented association order, written out naively.
    fn reference_reduce(terms: &[f64]) -> f64 {
        let mut lanes = [0.0f64; LANES];
        for (i, &t) in terms.iter().take(terms.len() / LANES * LANES).enumerate() {
            lanes[i % LANES] += t;
        }
        let mut acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        for &t in &terms[terms.len() / LANES * LANES..] {
            acc += t;
        }
        acc
    }

    #[test]
    fn dot_matches_lane_reference_at_every_length() {
        for len in [0usize, 1, 7, 8, 9, 16, 31, 100] {
            let a = splitmix_vals(1, len);
            let b = splitmix_vals(2, len);
            let terms: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
            assert_eq!(dot(&a, &b).to_bits(), reference_reduce(&terms).to_bits());
        }
    }

    #[test]
    fn reductions_are_bitwise_scalar_below_lanes() {
        // Shorter than LANES, the chunked prefix is empty: the kernels
        // *are* the historical sequential loops, bit for bit.
        for len in 0..LANES {
            let a = splitmix_vals(3, len);
            let b = splitmix_vals(4, len);
            let scalar_dot = a.iter().zip(&b).fold(0.0, |acc, (&x, &y)| acc + x * y);
            assert_eq!(dot(&a, &b).to_bits(), scalar_dot.to_bits());
        }
    }

    #[test]
    fn gather_kernels_match_dense_kernels_on_identity_index() {
        for len in [0usize, 5, 8, 23, 64] {
            let a = splitmix_vals(5, len);
            let b = splitmix_vals(6, len);
            let idx: Vec<u32> = (0..len as u32).collect();
            assert_eq!(
                gather_sum(&a, &idx).to_bits(),
                reference_reduce(&a).to_bits()
            );
            let ab: Vec<f64> = a.iter().zip(&b).flat_map(|(&x, &y)| [x, y]).collect();
            assert_eq!(gather_dot(&a, &idx, &b).to_bits(), dot(&a, &b).to_bits());
            let [sa, sb] = gather_sum_block::<2>(&ab, &idx);
            assert_eq!(sa.to_bits(), reference_reduce(&a).to_bits());
            assert_eq!(sb.to_bits(), reference_reduce(&b).to_bits());
        }
    }

    #[test]
    fn max_kernels_equal_sequential_folds() {
        for len in [0usize, 3, 8, 17, 50] {
            let a = splitmix_vals(9, len);
            let b = splitmix_vals(10, len);
            let seq_abs = a.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            assert_eq!(max_abs(&a).to_bits(), seq_abs.to_bits());
            let seq_diff = a
                .iter()
                .zip(&b)
                .fold(0.0f64, |m, (&x, &y)| m.max((x - y).abs()));
            assert_eq!(max_abs_diff(&a, &b).to_bits(), seq_diff.to_bits());
        }
    }

    #[test]
    fn elementwise_kernels_are_bitwise_scalar() {
        let x = splitmix_vals(11, 37);
        let y0 = splitmix_vals(12, 37);
        let alpha = 0.3125;

        let mut y = y0.clone();
        accumulate(&mut y, &x);
        for i in 0..37 {
            assert_eq!(y[i].to_bits(), (y0[i] + x[i]).to_bits());
        }

        let mut y = y0.clone();
        axpy(&mut y, alpha, &x);
        for i in 0..37 {
            assert_eq!(y[i].to_bits(), (y0[i] + alpha * x[i]).to_bits());
        }

        let mut y = y0.clone();
        scaled_accumulate(&mut y, alpha, &x);
        for i in 0..37 {
            assert_eq!(y[i].to_bits(), (x[i] + alpha * y0[i]).to_bits());
        }

        let mut p = y0.clone();
        let mut q = x.clone();
        let (c, s) = (0.8, 0.6);
        rotate(&mut p, &mut q, c, s);
        for i in 0..37 {
            assert_eq!(p[i].to_bits(), (c * y0[i] - s * x[i]).to_bits());
            assert_eq!(q[i].to_bits(), (s * y0[i] + c * x[i]).to_bits());
        }
    }

    #[test]
    fn kernels_are_deterministic_call_to_call() {
        let a = splitmix_vals(13, 1000);
        let b = splitmix_vals(14, 1000);
        let first = (dot(&a, &b), sq_sum(&b), max_abs_diff(&a, &b));
        for _ in 0..10 {
            let again = (dot(&a, &b), sq_sum(&b), max_abs_diff(&a, &b));
            assert_eq!(first.0.to_bits(), again.0.to_bits());
            assert_eq!(first.1.to_bits(), again.1.to_bits());
            assert_eq!(first.2.to_bits(), again.2.to_bits());
        }
    }

    #[test]
    fn reassociation_stays_within_analysis_bound() {
        let a = splitmix_vals(15, 5000);
        let b = splitmix_vals(16, 5000);
        let scalar = a.iter().zip(&b).fold(0.0, |acc, (&x, &y)| acc + x * y);
        assert!((dot(&a, &b) - scalar).abs() < 1e-12);
    }

    #[test]
    fn blocked_mirror_matches_naive_mirror() {
        for n in [0usize, 1, 2, 7, MIRROR_TILE, MIRROR_TILE + 1, 150] {
            let vals = splitmix_vals(17 + n as u64, n * n);
            let mut naive = vals.clone();
            for a in 1..n {
                for b in 0..a {
                    naive[a * n + b] = naive[b * n + a];
                }
            }
            let mut blocked = vals.clone();
            // SAFETY: exclusive access, rows 1..n all owned by this call.
            unsafe { mirror_lower_rows(blocked.as_mut_ptr(), n, 1..n) };
            assert_eq!(blocked, naive, "n={n}");
            // And over split row ranges (the sharded caller's shape).
            if n > 4 {
                let mut split = vals.clone();
                let mid = n / 2;
                unsafe {
                    mirror_lower_rows(split.as_mut_ptr(), n, 1..mid);
                    mirror_lower_rows(split.as_mut_ptr(), n, mid..n);
                }
                assert_eq!(split, naive, "split n={n}");
            }
        }
    }
}
