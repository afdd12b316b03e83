//! Instrumentation: operation counters, phase timers, memory accounting.
//!
//! The paper's evaluation reports more than wall-clock time: Fig. 6b splits
//! runtime into a "Build MST" and a "Share Sums" phase, Fig. 6c annotates a
//! *share ratio*, and Fig. 6d reports intermediate memory. This module
//! carries those measurements out of every algorithm run.

use std::time::{Duration, Instant};

/// Measurements accumulated during a SimRank run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Iterations actually executed.
    pub iterations: u32,
    /// Similarity additions/subtractions performed across all iterations —
    /// the abstract cost the OIP optimization minimizes (paper §III's
    /// "number of additions"). Since the triangular-sweep refactor every
    /// dense outer accumulation runs once per **unordered** pair (`b ≥ a`;
    /// SimRank is symmetric), so these counts are roughly half the
    /// full-square model's; the mirror pass that restores the lower
    /// triangle is a pure copy and counts zero. The committed
    /// `baselines/op_counts.txt` gate keeps the halved counts from
    /// silently regressing.
    pub adds: u64,
    /// Wall time spent building the sharing plan: the transition-cost graph
    /// and its minimum spanning arborescence (`DMST-Reduce`), or psum-SR's
    /// flat plan.
    pub mst_build: Duration,
    /// Wall time spent in the iterative partial-sums phase.
    pub share_sums: Duration,
    /// Peak intermediate heap (partial-sum buffers, staged outer-pass
    /// blocks, auxiliary matrices) in bytes — excludes the output similarity matrix itself,
    /// matching how the paper reports "memory space".
    pub peak_intermediate_bytes: usize,
    /// Worker threads used by the persistent worker-pool executor
    /// ([`simrank_par::WorkerPool`]). Every pooled path reports its pool
    /// width here: `naive`, `psum`, the OIP engine, both P-Rank direction
    /// passes, `Fingerprints::sample`, and `mtx` (whose SVD, matrix
    /// products, and densification all shard over one pool) — no
    /// algorithm path bypasses the executor anymore. The value never
    /// affects any other `Report` field except the memory-model ones
    /// (per-worker buffers scale with it): counts merge exactly across
    /// shards — see [`simrank_par::OpCounter::merge`].
    pub workers: usize,
}

impl Report {
    /// Total wall time of the run.
    pub fn total_time(&self) -> Duration {
        self.mst_build + self.share_sums
    }

    /// Fraction of additions saved relative to a baseline run, the paper's
    /// Fig. 6c "share ratio". Returns 0 when the baseline did no work.
    pub fn share_ratio_vs(&self, baseline: &Report) -> f64 {
        if baseline.adds == 0 {
            0.0
        } else {
            1.0 - self.adds as f64 / baseline.adds as f64
        }
    }
}

/// A simple two-phase stopwatch.
#[derive(Debug)]
pub struct PhaseTimer {
    started: Instant,
}

impl PhaseTimer {
    /// Starts timing.
    pub fn start() -> Self {
        PhaseTimer {
            started: Instant::now(),
        }
    }

    /// Elapsed time since start (or last [`PhaseTimer::lap`]).
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.started;
        self.started = now;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_par::OpCounter;

    #[test]
    fn counter_accumulates() {
        let mut c = OpCounter::new();
        c.add(10);
        c.add(5);
        assert_eq!(c.total(), 15);
    }

    #[test]
    fn counter_shards_merge_exactly() {
        // Any split of the same operations across shards merges to the
        // same total — the property the parallel executor relies on.
        let ops = [3u64, 7, 11, 2, 9];
        let mut single = OpCounter::new();
        for &n in &ops {
            single.add(n);
        }
        let mut shard_a = OpCounter::new();
        let mut shard_b = OpCounter::new();
        for (i, &n) in ops.iter().enumerate() {
            if i % 2 == 0 {
                shard_a.add(n);
            } else {
                shard_b.add(n);
            }
        }
        let mut merged = OpCounter::new();
        merged.merge(&shard_a);
        merged.merge(&shard_b);
        assert_eq!(merged.total(), single.total());
    }

    #[test]
    fn share_ratio() {
        let fast = Report {
            adds: 30,
            ..Default::default()
        };
        let slow = Report {
            adds: 100,
            ..Default::default()
        };
        assert!((fast.share_ratio_vs(&slow) - 0.7).abs() < 1e-12);
        let empty = Report::default();
        assert_eq!(fast.share_ratio_vs(&empty), 0.0);
    }

    #[test]
    fn phase_timer_laps_are_disjoint() {
        let mut t = PhaseTimer::start();
        std::thread::sleep(Duration::from_millis(2));
        let a = t.lap();
        let b = t.lap();
        assert!(a >= Duration::from_millis(1));
        assert!(b < a, "second lap should restart from zero");
    }

    #[test]
    fn report_total_time() {
        let r = Report {
            mst_build: Duration::from_millis(10),
            share_sums: Duration::from_millis(30),
            ..Default::default()
        };
        assert_eq!(r.total_time(), Duration::from_millis(40));
    }
}
