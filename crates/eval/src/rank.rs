//! Rank-correlation measures.

/// Kendall's τ-b between two score vectors over the same items.
///
/// Counts concordant/discordant pairs with tie corrections; `O(n²)` —
/// intended for evaluation-sized lists, not streaming analytics.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "score vectors must align");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let (mut concordant, mut discordant) = (0i64, 0i64);
    let (mut ties_a, mut ties_b) = (0i64, 0i64);
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            if da == 0.0 && db == 0.0 {
                continue;
            } else if da == 0.0 {
                ties_a += 1;
            } else if db == 0.0 {
                ties_b += 1;
            } else if (da > 0.0) == (db > 0.0) {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let denom = (((concordant + discordant + ties_a) as f64)
        * ((concordant + discordant + ties_b) as f64))
        .sqrt();
    if denom == 0.0 {
        1.0
    } else {
        (concordant - discordant) as f64 / denom
    }
}

/// Spearman's ρ between two score vectors (via average ranks).
pub fn spearman_rho(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "score vectors must align");
    let ra = average_ranks(a);
    let rb = average_ranks(b);
    pearson(&ra, &rb)
}

/// Fraction of shared items between the two top-k id lists
/// (`|A ∩ B| / k`).
pub fn top_k_overlap<I: PartialEq + Copy>(a: &[I], b: &[I]) -> f64 {
    if a.is_empty() {
        return 1.0;
    }
    let hits = a.iter().filter(|x| b.contains(x)).count();
    hits as f64 / a.len() as f64
}

fn average_ranks(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let mut order: Vec<usize> = (0..n).collect();
    // Total order: a NaN in a caller's scores sorts to one end instead of
    // panicking the evaluation (matching the ranking layer's `topk`
    // robustness contract).
    order.sort_by(|&i, &j| x[i].total_cmp(&x[j]));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && x[order[j + 1]] == x[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        1.0
    } else {
        cov / (va * vb).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_orders() {
        let a = [0.9, 0.5, 0.3, 0.1];
        assert!((kendall_tau(&a, &a) - 1.0).abs() < 1e-12);
        assert!((spearman_rho(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_orders() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&a, &b) + 1.0).abs() < 1e-12);
        assert!((spearman_rho(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_adjacent_swap_tau() {
        // 4 items, one adjacent swap: tau = (C−D)/total = (5−1)/6.
        let a = [4.0, 3.0, 2.0, 1.0];
        let b = [4.0, 3.0, 1.0, 2.0];
        assert!((kendall_tau(&a, &b) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ties_handled() {
        let a = [1.0, 1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        let t = kendall_tau(&a, &b);
        assert!(t > 0.0 && t < 1.0);
        // All-constant vector: degenerate, defined as 1.
        assert_eq!(kendall_tau(&[1.0, 1.0], &[2.0, 3.0]), 1.0);
    }

    #[test]
    fn overlap_metric() {
        assert_eq!(top_k_overlap(&[1, 2, 3], &[3, 2, 1]), 1.0);
        assert_eq!(top_k_overlap(&[1, 2, 3, 4], &[1, 2, 9, 9]), 0.5);
        assert_eq!(top_k_overlap::<u32>(&[], &[]), 1.0);
    }

    #[test]
    fn spearman_survives_nan_scores() {
        // Regression: `average_ranks` used `partial_cmp().expect(..)` and
        // panicked on NaN; `total_cmp` ranks it at one end instead.
        let a = [0.3, f64::NAN, 0.1];
        let b = [0.3, 0.2, 0.1];
        assert!(spearman_rho(&a, &b).is_finite());
    }

    #[test]
    fn spearman_monotone_transform_invariant() {
        let a: [f64; 4] = [0.1, 0.4, 0.2, 0.9];
        let b: Vec<f64> = a.iter().map(|x| x.powi(3) * 100.0).collect();
        assert!((spearman_rho(&a, &b) - 1.0).abs() < 1e-12);
    }
}
