//! Zipf-skewed query workloads.
//!
//! Real similarity-serving traffic is heavily skewed — a few hot
//! vertices take most queries — which is exactly the regime an LRU row
//! cache targets. [`ZipfWorkload`] samples sources from
//! `P(rank r) ∝ 1 / r^s` over a deterministic rank permutation.

use simrank_graph::NodeId;

/// SplitMix64: tiny deterministic PRNG for workload sampling (workload
/// generation must be reproducible across runs and platforms).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded deterministically.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A Zipf(s) distribution over the vertices `0..n`, with vertex-to-rank
/// assignment shuffled by the seed (so the hot set is not just the
/// lowest ids).
#[derive(Clone, Debug)]
pub struct ZipfWorkload {
    /// `cdf[r]` = P(rank ≤ r); binary-searched per draw.
    cdf: Vec<f64>,
    /// `by_rank[r]` = the vertex holding popularity rank `r`.
    by_rank: Vec<NodeId>,
}

impl ZipfWorkload {
    /// A workload over `n` vertices with skew exponent `s`
    /// (`s = 0` is uniform; `s ≈ 1` is classic web-query skew).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64, seed: u64) -> ZipfWorkload {
        assert!(n > 0, "cannot sample queries from an empty vertex set");
        assert!(s.is_finite(), "skew exponent must be finite");
        let mut rng = SplitMix64::new(seed);
        // Fisher–Yates over the identity: rank -> vertex.
        let mut by_rank: Vec<NodeId> = (0..n as NodeId).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            by_rank.swap(i, j);
        }
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfWorkload { cdf, by_rank }
    }

    /// Draws one source vertex.
    pub fn sample(&self, rng: &mut SplitMix64) -> NodeId {
        let x = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1);
        self.by_rank[rank]
    }

    /// A full deterministic query trace of `count` draws.
    pub fn trace(&self, count: usize, seed: u64) -> Vec<NodeId> {
        let mut rng = SplitMix64::new(seed);
        (0..count).map(|_| self.sample(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(42);
        for _ in 0..100 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let n = 50;
        let w = ZipfWorkload::new(n, 1.0, 7);
        let trace = w.trace(20_000, 9);
        assert!(trace.iter().all(|&u| (u as usize) < n));
        // The hottest vertex must dominate a uniform share by a wide
        // margin at s = 1.
        let mut counts = vec![0usize; n];
        for &u in &trace {
            counts[u as usize] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        assert!(
            hottest > 3 * trace.len() / n,
            "hottest vertex only took {hottest}/{} draws",
            trace.len()
        );
    }

    #[test]
    fn zero_skew_is_roughly_uniform() {
        let n = 10;
        let w = ZipfWorkload::new(n, 0.0, 3);
        let trace = w.trace(10_000, 4);
        let mut counts = vec![0usize; n];
        for &u in &trace {
            counts[u as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&c),
                "vertex {v} drew {c}/10000 at s = 0"
            );
        }
    }

    #[test]
    fn traces_are_reproducible() {
        let w = ZipfWorkload::new(30, 0.8, 5);
        assert_eq!(w.trace(500, 6), w.trace(500, 6));
        assert_ne!(w.trace(500, 6), w.trace(500, 7), "seed must matter");
    }
}
