//! Algorithm configuration shared by every SimRank variant.

use crate::convergence;
use std::num::NonZeroUsize;

/// Environment override consulted by [`SimRankOptions::default`]: set
/// `SIMRANK_TEST_THREADS=<n>` to pin the default worker count (the CI
/// determinism matrix runs the whole suite at 1, 2, 4, and 8).
pub const THREADS_ENV: &str = "SIMRANK_TEST_THREADS";

/// Default worker count: the [`THREADS_ENV`] override when set and valid,
/// else the machine's available parallelism, else 1. Resolved once per
/// process — every `SimRankOptions::default()` consults it, and must not
/// pay a getenv + syscall each time.
fn default_workers() -> NonZeroUsize {
    static DEFAULT: std::sync::OnceLock<NonZeroUsize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(raw) = std::env::var(THREADS_ENV) {
            match raw.trim().parse::<NonZeroUsize>() {
                Ok(t) => return t,
                Err(_) => eprintln!(
                    "warning: ignoring invalid {THREADS_ENV}={raw:?} (want an integer >= 1)"
                ),
            }
        }
        std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
    })
}

/// Configuration for all SimRank computations.
///
/// Defaults follow the paper's experimental setting: `C = 0.6`,
/// `ε = 0.001`, no threshold sieving. The algorithms themselves have no
/// switches: OIP-SR always uses the Eq. 7 transition cost and Proposition
/// 4's shared outer sums; psum-SR is the no-sharing reference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimRankOptions {
    /// Damping factor `C ∈ (0, 1)`.
    pub damping: f64,
    /// Explicit iteration count `K`; when `None`, derived from [`Self::epsilon`]
    /// via the convergence theory (geometric `⌈log_C ε⌉` for conventional
    /// SimRank, the factorial bound of Proposition 7 for differential).
    pub iterations: Option<u32>,
    /// Desired accuracy `ε` used when [`Self::iterations`] is `None`.
    pub epsilon: f64,
    /// Threshold-sieving `δ` (Lizorkin's third optimization): computed
    /// similarities below `δ` are clamped to zero. `None` disables.
    pub threshold: Option<f64>,
    /// Worker threads for the persistent worker-pool executor
    /// ([`simrank_par::WorkerPool`]): each algorithm run spawns the pool
    /// once, parks the workers between barrier-synchronized sweeps, and
    /// tears it down on exit — no per-iteration spawn cost. Defaults to
    /// the machine's available parallelism (overridable via the
    /// [`THREADS_ENV`] environment variable). Results are **bit-for-bit
    /// identical** for every value: workers own disjoint rows (or walks,
    /// or plan columns) and the per-item arithmetic never changes, only
    /// the interleaving.
    pub threads: NonZeroUsize,
}

impl Default for SimRankOptions {
    fn default() -> Self {
        SimRankOptions {
            damping: 0.6,
            iterations: None,
            epsilon: 1e-3,
            threshold: None,
            threads: default_workers(),
        }
    }
}

impl SimRankOptions {
    /// Sets the damping factor `C` (must lie strictly inside `(0, 1)`).
    pub fn with_damping(mut self, c: f64) -> Self {
        assert!(
            c > 0.0 && c < 1.0,
            "damping factor must be in (0, 1), got {c}"
        );
        self.damping = c;
        self
    }

    /// Fixes the iteration count `K`.
    pub fn with_iterations(mut self, k: u32) -> Self {
        self.iterations = Some(k);
        self
    }

    /// Sets the target accuracy `ε` (and clears an explicit `K`).
    pub fn with_epsilon(mut self, eps: f64) -> Self {
        assert!(
            eps > 0.0 && eps < 1.0,
            "epsilon must be in (0, 1), got {eps}"
        );
        self.epsilon = eps;
        self.iterations = None;
        self
    }

    /// Enables threshold sieving at `delta`.
    pub fn with_threshold(mut self, delta: f64) -> Self {
        self.threshold = Some(delta);
        self
    }

    /// Sets the worker-thread count (must be at least 1). `1` reproduces the
    /// historical single-threaded execution exactly; any `N` produces
    /// bit-for-bit the same scores.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = NonZeroUsize::new(threads).expect("threads must be at least 1, got 0");
        self
    }

    /// Iterations to run for *conventional* (geometric) SimRank:
    /// the explicit `K`, else the paper's `K = ⌈log_C ε⌉`.
    pub fn conventional_iterations(&self) -> u32 {
        self.iterations
            .unwrap_or_else(|| convergence::geometric_iterations(self.damping, self.epsilon))
    }

    /// Iterations to run for *differential* (exponential) SimRank: the
    /// explicit `K`, else the minimal `k` with `C^{k+1}/(k+1)! ≤ ε`
    /// (Proposition 7's bound, evaluated exactly).
    pub fn differential_iterations(&self) -> u32 {
        self.iterations
            .unwrap_or_else(|| convergence::differential_iterations(self.damping, self.epsilon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setting() {
        let o = SimRankOptions::default();
        assert_eq!(o.damping, 0.6);
        assert_eq!(o.epsilon, 1e-3);
        assert_eq!(o.threshold, None);
        assert_eq!(o.iterations, None);
    }

    #[test]
    fn builder_chain() {
        let o = SimRankOptions::default()
            .with_damping(0.8)
            .with_epsilon(1e-4)
            .with_threshold(1e-5)
            .with_threads(3);
        assert_eq!(o.damping, 0.8);
        assert_eq!(o.epsilon, 1e-4);
        assert_eq!(o.threshold, Some(1e-5));
        assert_eq!(o.threads.get(), 3);
    }

    #[test]
    fn explicit_iterations_take_priority() {
        let o = SimRankOptions::default().with_iterations(7);
        assert_eq!(o.conventional_iterations(), 7);
        assert_eq!(o.differential_iterations(), 7);
    }

    #[test]
    fn paper_iteration_example() {
        // Paper §IV: C = 0.8, ε = 1e-4 needs K = ⌈log_0.8 1e-4⌉ = 42 for the
        // conventional model but only ~7 for the differential model.
        let o = SimRankOptions::default()
            .with_damping(0.8)
            .with_epsilon(1e-4);
        assert_eq!(o.conventional_iterations(), 42);
        assert!(o.differential_iterations() <= 8);
    }

    #[test]
    fn threads_builder_and_default() {
        let o = SimRankOptions::default();
        assert!(o.threads.get() >= 1);
        assert_eq!(o.with_threads(4).threads.get(), 4);
    }

    #[test]
    #[should_panic(expected = "threads")]
    fn rejects_zero_threads() {
        let _ = SimRankOptions::default().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "damping factor")]
    fn rejects_bad_damping() {
        let _ = SimRankOptions::default().with_damping(1.5);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let _ = SimRankOptions::default().with_epsilon(0.0);
    }
}
