//! The persistent worker-pool executor behind every parallel sweep in the
//! SimRank workspace, extracted into its own crate so both the algorithm
//! layer (`simrank_core`) and the matrix substrate (`simrank_linalg`) can
//! shard work on the same machinery.
//!
//! Every all-pairs sweep in the workspace writes each row of a next-state
//! buffer from a read-only view of the current one, so an iteration
//! parallelizes by *partitioning rows* across workers: each worker owns a
//! contiguous block (or, for the plan-replay engines, a set of independent
//! sharing subtrees; or, for the Jacobi SVD, a set of disjoint column
//! pairs) and writes disjoint memory with no locks on the hot path.
//! Because the per-item arithmetic is exactly the single-threaded sequence
//! — only the interleaving across items changes — results are
//! **bit-for-bit identical for every worker count**, and the determinism
//! contract `threads = N ⇔ threads = 1` holds exactly, not just within a
//! tolerance.
//!
//! # Pool lifecycle
//!
//! [`WorkerPool::scoped`] spawns `workers − 1` threads **once per
//! algorithm run** (the calling thread is worker 0) and parks them on a
//! condition variable between sweeps. Each [`WorkerPool::sweep`] publishes
//! one job generation, lets every worker drain a shared item queue, and
//! returns only after a barrier confirms the generation is fully retired —
//! so a sweep's return doubles as the synchronization point between an
//! iteration's phases. High-iteration runs (the paper's Fig. 5/6 sweeps
//! run tens of iterations) therefore pay the thread-spawn cost once, not
//! once per iteration. Dropping the pool (or unwinding through it) signals
//! shutdown and joins every worker; a panic inside a worker's share of a
//! sweep is caught, recorded, and re-raised on the calling thread at the
//! end of that sweep.
//!
//! Instrumentation stays exact: each worker accumulates into a private
//! [`OpCounter`] shard and the shards are summed after the barrier
//! (`u64` addition is associative and commutative, so the merged count
//! equals the single-threaded count — see [`OpCounter::merge`]).

pub mod kernel;

use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Counts abstract similarity additions.
///
/// # Shard-merge semantics
///
/// Every parallel path hands each worker a **private** `OpCounter` shard
/// (no sharing, no atomics on the hot path) and sums the shards after the
/// sweep's barrier. Because `u64` addition is associative and commutative,
/// and each operation is counted by exactly one worker, the merged total
/// is *exactly* the count a single-threaded run produces — reported op
/// counts are thread-invariant, and the `parallel_*` property tests
/// assert the equality for every pooled algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounter(u64);

impl OpCounter {
    /// Fresh counter.
    pub fn new() -> Self {
        OpCounter(0)
    }

    /// Records `n` additions.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Folds another worker's shard into this counter (see the type-level
    /// shard-merge semantics: the result equals the single-threaded count
    /// regardless of how operations were split across shards).
    #[inline]
    pub fn merge(&mut self, other: &OpCounter) {
        self.0 += other.0;
    }

    /// Current count.
    pub fn total(&self) -> u64 {
        self.0
    }
}

/// Effective worker count for `jobs` independent work items: never more
/// workers than requested, never more than there are jobs (an idle spawn is
/// pure overhead), and always at least one so degenerate inputs still run
/// the inline path.
pub fn effective_workers(requested: NonZeroUsize, jobs: usize) -> usize {
    requested.get().min(jobs.max(1))
}

/// Partitions `0..len` into at most `workers` contiguous, near-equal
/// blocks (sizes differ by at most one, larger blocks first). Returns an
/// empty vector when `len == 0`.
pub fn blocks(len: usize, workers: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let w = workers.clamp(1, len);
    let base = len / w;
    let extra = len % w;
    let mut out = Vec::with_capacity(w);
    let mut start = 0;
    for i in 0..w {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Partitions `0..weights.len()` into at most `workers` contiguous blocks
/// of near-equal total weight: a block closes as soon as it holds its fair
/// share of the weight that remains. Deterministic. This is the balancing
/// primitive for scans whose items cost unevenly — the plan builder's
/// column `j` walks `Σ_{x ∈ I(j)} |O(x)|` out-list entries, so
/// equal-length blocks would load the columns of high in-degree, at the
/// end of its sort order, onto the last worker.
pub fn weighted_blocks(weights: &[usize], workers: usize) -> Vec<Range<usize>> {
    let len = weights.len();
    if len == 0 {
        return Vec::new();
    }
    let w = workers.clamp(1, len);
    let total: u128 = weights.iter().map(|&x| x as u128).sum();
    let mut out = Vec::with_capacity(w);
    let mut start = 0usize;
    let mut acc: u128 = 0;
    let mut remaining = total;
    for (i, &weight) in weights.iter().enumerate() {
        let bl = (w - out.len()) as u128;
        let with = acc + weight as u128;
        // Close the block *before* item `i` when the boundary here sits
        // closer to the fair share `remaining / bl` than the boundary
        // after it would (never emitting an empty block): either the
        // block already reached its share, or item `i` overshoots it by
        // more than the current undershoot.
        let close_before = bl > 1
            && i > start
            && (acc * bl >= remaining
                || (with * bl > remaining && with * bl - remaining > remaining - acc * bl));
        if close_before {
            out.push(start..i);
            start = i;
            remaining -= acc;
            acc = weight as u128;
        } else {
            acc = with;
        }
    }
    out.push(start..len);
    out
}

/// Fixed round-robin (circle-method) schedule of every unordered index
/// pair of `0..n`: `n − 1` rounds (`n` rounds when `n` is odd), each a
/// list of **disjoint** pairs `(p, q)` with `p < q` — no index appears
/// twice within a round — covering each pair exactly once overall.
///
/// This is the scheduling primitive behind the parallel one-sided Jacobi
/// SVD: rotations of disjoint column pairs touch disjoint memory and
/// therefore commute *exactly*, so a round can shard across workers while
/// the whole sweep stays bit-for-bit identical at every thread count. The
/// schedule is a pure function of `n` — no randomness, no tie-breaking —
/// so the rotation order never varies between runs.
pub fn round_robin_rounds(n: usize) -> Vec<Vec<(usize, usize)>> {
    if n < 2 {
        return Vec::new();
    }
    // Classic circle method: seat 0 is fixed, the rest rotate one step per
    // round; odd n adds a phantom seat whose pairings are byes.
    let m = n + (n & 1);
    let mut seats: Vec<usize> = (0..m).collect();
    let mut rounds = Vec::with_capacity(m - 1);
    for _ in 0..m - 1 {
        let mut round: Vec<(usize, usize)> = (0..m / 2)
            .map(|k| (seats[k], seats[m - 1 - k]))
            .filter(|&(a, b)| a < n && b < n)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        // Canonical in-round order (the pairs are disjoint, so execution
        // order cannot matter — this is purely cosmetic determinism).
        round.sort_unstable();
        rounds.push(round);
        seats[1..].rotate_right(1);
    }
    rounds
}

/// Copies the authoritative upper triangle of the row-major `n × n`
/// buffer `data` into its strictly lower triangle, sharded across the
/// pool by triangular row weights (mirroring row `a` writes `a` entries,
/// so equal row bands would starve the early workers). This is the
/// bandwidth-only post-pass every triangular sweep runs after computing
/// pairs `b ≥ a`, so the next iteration can keep reading whole contiguous
/// rows; it performs no similarity arithmetic and therefore counts zero
/// adds.
///
/// A 1-wide pool and the sharded path share one body —
/// [`kernel::mirror_lower_rows`], the cache-blocked transpose-copy — so
/// there is exactly one mirror implementation in the workspace.
///
/// # Panics
///
/// Panics when `data.len() != n * n`.
pub fn mirror_upper_to_lower(pool: &mut WorkerPool<'_>, data: &mut [f64], n: usize) {
    assert_eq!(data.len(), n * n, "mirror needs a square row-major buffer");
    if n < 2 {
        return;
    }
    if pool.workers() == 1 {
        // SAFETY: exclusive `&mut` access to the whole buffer; the single
        // call owns every row.
        unsafe { kernel::mirror_lower_rows(data.as_mut_ptr(), n, 1..n) };
        return;
    }
    let weights: Vec<usize> = (0..n).collect();
    let blocks = weighted_blocks(&weights, pool.workers());
    // Raw shared pointer instead of `RowWriter`: a mirroring worker *reads*
    // strictly-upper entries of rows owned by other workers, so handing out
    // whole-row `&mut` slices would alias. Globally, writes touch only
    // strictly-lower entries and reads only strictly-upper ones — disjoint
    // address sets — so unordered raw accesses are race-free.
    struct MirrorPtr(*mut f64);
    unsafe impl Send for MirrorPtr {}
    unsafe impl Sync for MirrorPtr {}
    let ptr = MirrorPtr(data.as_mut_ptr());
    pool.sweep(blocks, |rows, _counter| {
        let p = &ptr;
        // SAFETY: each row belongs to exactly one block, so the
        // strictly-lower writes race with nothing; the strictly-upper
        // reads target entries no worker writes during the mirror (the
        // per-entry argument lives on `kernel::mirror_lower_rows`).
        unsafe { kernel::mirror_lower_rows(p.0, n, rows) };
    });
}

/// Greedy longest-processing-time assignment of weighted jobs to at most
/// `workers` bins. Returns one job-index list per non-empty bin; the
/// assignment is deterministic (ties resolve toward lower bin and job
/// indices). Used by the plan-replay engines, whose independent schedule
/// segments (root subtrees of the sharing tree) can be wildly uneven.
pub fn balance(weights: &[usize], workers: usize) -> Vec<Vec<usize>> {
    let w = workers.clamp(1, weights.len().max(1));
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&j| (std::cmp::Reverse(weights[j]), j));
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); w];
    let mut loads = vec![0usize; w];
    for j in order {
        let lightest = (0..w).min_by_key(|&b| (loads[b], b)).expect("w >= 1");
        loads[lightest] += weights[j];
        bins[lightest].push(j);
    }
    bins.retain(|b| !b.is_empty());
    bins
}

/// Locks a mutex, recovering from poisoning: the pool's own panic
/// propagation (not the poison flag) is the error channel, and the
/// protected state stays consistent because jobs never run under the lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A sweep job with its lifetime erased; see the `SAFETY` note in
/// [`WorkerPool::sweep`] for why the `'static` is sound.
type Job = &'static (dyn Fn(&mut OpCounter) + Sync);

/// Pool coordination state guarded by one mutex.
struct PoolState {
    /// Bumped once per sweep; workers run each generation exactly once.
    generation: u64,
    /// The currently published job, if a sweep is in flight.
    job: Option<Job>,
    /// Spawned workers still executing the current generation.
    active: usize,
    /// Set (under the lock) when the pool is being torn down.
    shutdown: bool,
}

/// State shared between the driver and the spawned workers.
struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new generation or shutdown.
    work_ready: Condvar,
    /// The driver waits here for `active` to reach zero.
    work_done: Condvar,
    /// Sum of the workers' per-sweep counter shards (exact: `u64` addition
    /// is associative and commutative).
    ops: AtomicU64,
    /// Set when any worker's share of a sweep panicked.
    panicked: AtomicBool,
}

/// The loop every spawned worker runs until shutdown.
fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    break st.job.expect("a bumped generation always carries a job");
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // Run the job outside the lock; catch panics so the pool can
        // re-raise them on the driver instead of deadlocking the barrier.
        match catch_unwind(AssertUnwindSafe(|| {
            let mut counter = OpCounter::new();
            job(&mut counter);
            counter.total()
        })) {
            Ok(count) => {
                shared.ops.fetch_add(count, Ordering::Relaxed);
            }
            Err(_) => shared.panicked.store(true, Ordering::Relaxed),
        }
        let mut st = lock(&shared.state);
        st.active -= 1;
        if st.active == 0 {
            shared.work_done.notify_all();
        }
    }
}

/// Signals shutdown when the scoped pool exits (normally or by unwind), so
/// the parked workers wake up and `std::thread::scope` can join them.
struct ShutdownGuard<'a>(&'a Shared);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        lock(&self.0.state).shutdown = true;
        self.0.work_ready.notify_all();
    }
}

/// Blocks until every spawned worker has retired the current generation.
/// Runs on drop so the barrier holds even when the driver's own share of
/// the sweep unwinds — workers must never outlive the sweep's stack frame.
struct SweepBarrier<'a>(&'a Shared);

impl Drop for SweepBarrier<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        while st.active > 0 {
            st = self.0.work_done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
    }
}

/// A persistent pool of `workers − 1` spawned threads plus the calling
/// thread, amortizing thread-spawn cost across every sweep of a run.
///
/// Obtain one with [`WorkerPool::scoped`]; dispatch iteration phases with
/// [`WorkerPool::sweep`]. `workers = 1` spawns nothing and runs every
/// sweep inline on the calling thread — exactly the historical
/// single-threaded code path.
pub struct WorkerPool<'pool> {
    shared: &'pool Shared,
    workers: usize,
}

impl WorkerPool<'_> {
    /// Spawns a pool of `workers` (clamped to at least 1, including the
    /// calling thread), hands it to `f`, and tears it down — signalling
    /// shutdown and joining every thread — when `f` returns or unwinds.
    pub fn scoped<R, F>(workers: usize, f: F) -> R
    where
        F: FnOnce(&mut WorkerPool<'_>) -> R,
    {
        let workers = workers.max(1);
        let shared = Shared {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            ops: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(|| worker_loop(&shared));
            }
            let _shutdown = ShutdownGuard(&shared);
            f(&mut WorkerPool {
                shared: &shared,
                workers,
            })
        })
    }

    /// Total worker count, including the calling thread.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `work` once per item across the pool and returns the merged
    /// operation count.
    ///
    /// Items are drained from a shared queue, so passing more items than
    /// workers is fine (and lets callers over-decompose for balance); which
    /// worker runs which item is *scheduling only* — items carry their own
    /// output locations, so results never depend on the assignment. The
    /// call returns only after every worker has finished its share (the
    /// barrier), re-raising any worker panic on the calling thread. A
    /// single item (or a 1-wide pool) runs inline without touching the
    /// pool machinery.
    ///
    /// Iterating callers that rebuild the same-shaped item list every
    /// generation should prefer [`WorkerPool::sweep_drain`], which reuses
    /// the caller's buffer instead of allocating a queue per sweep.
    pub fn sweep<I, W>(&mut self, items: Vec<I>, work: W) -> u64
    where
        I: Send,
        W: Fn(I, &mut OpCounter) + Sync,
    {
        let mut items = items;
        self.sweep_drain(&mut items, work)
    }

    /// As [`WorkerPool::sweep`], but drains the items out of a caller-owned
    /// buffer and hands the (emptied) allocation back on return, so a
    /// per-iteration sweep loop can `clear()` + refill one `Vec` instead of
    /// allocating a fresh item list and a fresh queue every generation.
    /// Items are claimed in buffer order; as with `sweep`, the claim
    /// assignment is scheduling only and never affects results.
    pub fn sweep_drain<I, W>(&mut self, items: &mut Vec<I>, work: W) -> u64
    where
        I: Send,
        W: Fn(I, &mut OpCounter) + Sync,
    {
        if items.is_empty() {
            return 0;
        }
        if self.workers == 1 || items.len() == 1 {
            let mut counter = OpCounter::new();
            for item in items.drain(..) {
                work(item, &mut counter);
            }
            return counter.total();
        }
        // Claims pop from the Vec's tail: reverse once so the drain order
        // matches the caller's item order.
        items.reverse();
        let queue = Mutex::new(std::mem::take(items));
        let job = |counter: &mut OpCounter| loop {
            let item = match lock(&queue).pop() {
                Some(i) => i,
                None => break,
            };
            work(item, counter);
        };
        let total = self.dispatch(&job);
        // Return the emptied buffer (and its capacity) to the caller. On a
        // panicking sweep this assignment is skipped by the unwind — the
        // caller's buffer simply stays empty.
        *items = queue.into_inner().unwrap_or_else(|e| e.into_inner());
        total
    }

    /// Publishes `job` as one pool generation, runs the driver's share
    /// inline, waits out the barrier, and returns the merged op count.
    fn dispatch(&mut self, job_ref: &(dyn Fn(&mut OpCounter) + Sync)) -> u64 {
        // A previous sweep that unwound from the *driver's* share never
        // reached its merge step: discard any counter/panic residue it
        // left behind so this sweep starts from a clean slate.
        self.shared.ops.store(0, Ordering::Relaxed);
        self.shared.panicked.store(false, Ordering::Relaxed);
        // SAFETY: the 'static lifetime is a lie confined to this call: the
        // sweep barrier below does not let this frame return or unwind
        // until every worker has retired the generation, so no worker can
        // hold the reference after the job (and everything it borrows) is
        // dropped.
        let job_erased: Job =
            unsafe { std::mem::transmute::<&(dyn Fn(&mut OpCounter) + Sync), Job>(job_ref) };
        let mut driver = OpCounter::new();
        {
            {
                let mut st = lock(&self.shared.state);
                debug_assert!(st.job.is_none(), "sweeps never overlap");
                st.job = Some(job_erased);
                st.generation = st.generation.wrapping_add(1);
                st.active = self.workers - 1;
                self.shared.work_ready.notify_all();
            }
            let _barrier = SweepBarrier(self.shared);
            // The calling thread is worker 0: it drains the queue alongside
            // the spawned workers instead of blocking idle.
            job_ref(&mut driver);
        }
        // Barrier passed: merge the driver's shard with the workers' (the
        // atomic already summed those — exact, see `OpCounter::merge`) and
        // surface any worker panic.
        let mut merged = OpCounter::new();
        merged.merge(&driver);
        merged.add(self.shared.ops.swap(0, Ordering::Relaxed));
        if self.shared.panicked.swap(false, Ordering::Relaxed) {
            panic!("simrank worker thread panicked");
        }
        merged.total()
    }
}

/// Hands out disjoint mutable rows of a row-major write-side buffer to
/// worker threads.
///
/// The contiguous-band sweeps (`naive`, the pooled dense matmul)
/// split their buffers safely with band helpers; the plan-replay engines
/// (OIP, psum, P-Rank) and the Jacobi rotation rounds cannot, because a sharing
/// subtree (or a rotation pairing) emits an arbitrary scattered subset of
/// rows. `RowWriter` is the minimal unsafe escape hatch for that case: it
/// is a raw view of a `rows × cols` row-major buffer whose **callers must
/// guarantee** that no row index is handed to two workers at once. The
/// engines satisfy this structurally — every target is emitted exactly
/// once per pass, and workers own disjoint segment sets; the Jacobi
/// rounds pair each column at most once — so each row is written by
/// exactly one thread per pass.
///
/// (A column-major matrix is just a row-major buffer of its columns, so
/// the same type hands out disjoint *columns* — that is how the SVD uses
/// it.)
pub struct RowWriter<'g> {
    data: *mut f64,
    rows: usize,
    cols: usize,
    _buf: PhantomData<&'g mut [f64]>,
}

// SAFETY: the raw pointer is only dereferenced through `row_mut`, whose
// contract confines every row to a single thread; distinct rows are
// disjoint memory.
unsafe impl Send for RowWriter<'_> {}
unsafe impl Sync for RowWriter<'_> {}

impl<'g> RowWriter<'g> {
    /// Wraps a row-major buffer of `cols`-wide rows for disjoint-row
    /// sharing. The borrow keeps the buffer inaccessible (and thus
    /// unaliased) for the writer's whole lifetime.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` is not a multiple of `cols` (an empty
    /// buffer with `cols == 0` is allowed and has zero rows).
    pub fn new(data: &'g mut [f64], cols: usize) -> Self {
        let rows = if cols == 0 {
            assert!(data.is_empty(), "cols = 0 requires an empty buffer");
            0
        } else {
            assert_eq!(data.len() % cols, 0, "buffer length must divide by cols");
            data.len() / cols
        };
        RowWriter {
            data: data.as_mut_ptr(),
            rows,
            cols,
            _buf: PhantomData,
        }
    }

    /// Mutable view of row `a`.
    ///
    /// # Safety
    ///
    /// While any returned slice is live, no other call (from any thread)
    /// may request the same `a`. Disjoint rows never alias.
    #[allow(clippy::mut_from_ref)] // the whole point: disjoint &mut rows from a shared handle
    #[inline]
    pub unsafe fn row_mut(&self, a: usize) -> &mut [f64] {
        debug_assert!(a < self.rows, "row {a} out of range for {} rows", self.rows);
        std::slice::from_raw_parts_mut(self.data.add(a * self.cols), self.cols)
    }
}

/// Hands out disjoint mutable *elements* of a slice to worker threads —
/// the typed sibling of [`RowWriter`] for the plan-replay engines' vector
/// of per-share scratch states, whose sweep items are plain indices (so
/// the item list can be hoisted and reused across iterations) rather
/// than borrowed `&mut` entries (which would tie the list's lifetime to
/// one iteration's borrow).
///
/// **Callers must guarantee** that no element index is handed to two
/// workers at once; the engines satisfy this structurally because each
/// sweep item is a distinct index.
pub struct SlotWriter<'g, T> {
    data: *mut T,
    len: usize,
    _buf: PhantomData<&'g mut [T]>,
}

// SAFETY: the raw pointer is only dereferenced through `slot_mut`, whose
// contract confines every element to a single thread; distinct elements
// are disjoint memory.
unsafe impl<T: Send> Send for SlotWriter<'_, T> {}
unsafe impl<T: Send> Sync for SlotWriter<'_, T> {}

impl<'g, T> SlotWriter<'g, T> {
    /// Wraps a slice for disjoint-element sharing. The borrow keeps the
    /// slice inaccessible (and thus unaliased) for the writer's whole
    /// lifetime.
    pub fn new(data: &'g mut [T]) -> Self {
        SlotWriter {
            len: data.len(),
            data: data.as_mut_ptr(),
            _buf: PhantomData,
        }
    }

    /// Mutable view of element `i`.
    ///
    /// # Safety
    ///
    /// While any returned reference is live, no other call (from any
    /// thread) may request the same `i`. Disjoint elements never alias.
    #[allow(clippy::mut_from_ref)] // the whole point: disjoint &mut slots from a shared handle
    #[inline]
    pub unsafe fn slot_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "slot {i} out of range for {} slots", self.len);
        &mut *self.data.add(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_merges() {
        let mut c = OpCounter::new();
        c.add(10);
        c.add(5);
        assert_eq!(c.total(), 15);
        let mut shard = OpCounter::new();
        shard.add(7);
        c.merge(&shard);
        assert_eq!(c.total(), 22);
    }

    #[test]
    fn blocks_cover_and_balance() {
        let bs = blocks(10, 3);
        assert_eq!(bs, vec![0..4, 4..7, 7..10]);
        assert_eq!(blocks(0, 4), vec![]);
        assert_eq!(blocks(2, 8), vec![0..1, 1..2]);
        assert_eq!(blocks(5, 1), vec![0..5]);
    }

    #[test]
    fn weighted_blocks_balance_triangular_loads() {
        // Column j of a triangular scan costs j: the split point must sit
        // near sqrt(1/2) of the range, not at the midpoint.
        let weights: Vec<usize> = (0..10).collect();
        let bs = weighted_blocks(&weights, 2);
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].end, bs[1].start, "blocks tile the range");
        assert_eq!(bs[1].end, 10);
        let sum = |r: &Range<usize>| weights[r.clone()].iter().sum::<usize>();
        let (a, b) = (sum(&bs[0]), sum(&bs[1]));
        assert!(a.abs_diff(b) <= 9, "unbalanced: {a} vs {b}");
        // Degenerate shapes.
        assert!(weighted_blocks(&[], 4).is_empty());
        assert_eq!(weighted_blocks(&[0, 0, 0], 8).len(), 3);
        assert_eq!(weighted_blocks(&[5], 3), vec![0..1]);
        // Deterministic.
        assert_eq!(weighted_blocks(&weights, 3), weighted_blocks(&weights, 3));
    }

    #[test]
    fn round_robin_covers_every_pair_once_with_disjoint_rounds() {
        for n in [0usize, 1, 2, 3, 4, 5, 8, 9, 17] {
            let rounds = round_robin_rounds(n);
            if n < 2 {
                assert!(rounds.is_empty(), "n={n}");
                continue;
            }
            assert_eq!(rounds.len(), if n % 2 == 0 { n - 1 } else { n }, "n={n}");
            let mut seen = std::collections::BTreeSet::new();
            for round in &rounds {
                let mut used = std::collections::BTreeSet::new();
                for &(p, q) in round {
                    assert!(p < q && q < n, "n={n}: bad pair ({p},{q})");
                    assert!(used.insert(p) && used.insert(q), "n={n}: overlap in round");
                    assert!(seen.insert((p, q)), "n={n}: pair ({p},{q}) repeated");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "n={n}: pairs missing");
        }
    }

    #[test]
    fn round_robin_is_deterministic() {
        assert_eq!(round_robin_rounds(9), round_robin_rounds(9));
    }

    #[test]
    fn effective_workers_caps_at_jobs() {
        let eight = NonZeroUsize::new(8).unwrap();
        assert_eq!(effective_workers(eight, 3), 3);
        assert_eq!(effective_workers(eight, 100), 8);
        assert_eq!(effective_workers(eight, 0), 1);
        assert_eq!(effective_workers(NonZeroUsize::MIN, 100), 1);
    }

    #[test]
    fn balance_is_deterministic_and_complete() {
        let bins = balance(&[10, 1, 1, 1, 9, 2], 2);
        // Every job appears exactly once.
        let mut all: Vec<usize> = bins.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        // LPT: the two heavy jobs land in different bins.
        let bin_of = |j: usize| bins.iter().position(|b| b.contains(&j)).unwrap();
        assert_ne!(bin_of(0), bin_of(4));
        assert_eq!(bins, balance(&[10, 1, 1, 1, 9, 2], 2), "deterministic");
    }

    #[test]
    fn balance_handles_degenerate_inputs() {
        assert!(balance(&[], 4).is_empty());
        assert_eq!(balance(&[5], 4), vec![vec![0]]);
    }

    #[test]
    fn pool_runs_many_sweeps_without_respawning() {
        // One pool, many generations: every sweep sees all items exactly
        // once and merges counts exactly — the persistent-pool contract.
        let hits = AtomicU64::new(0);
        let total = WorkerPool::scoped(4, |pool| {
            assert_eq!(pool.workers(), 4);
            let mut total = 0u64;
            for sweep in 0..50u64 {
                let items: Vec<u64> = (0..8).map(|i| sweep * 8 + i).collect();
                total += pool.sweep(items, |x, c| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    c.add(x);
                });
            }
            total
        });
        let n = 50 * 8;
        assert_eq!(hits.load(Ordering::Relaxed), n);
        assert_eq!(total, (0..n).sum::<u64>());
    }

    #[test]
    fn sweep_drain_reuses_the_buffer_across_generations() {
        let hits = AtomicU64::new(0);
        let total = WorkerPool::scoped(4, |pool| {
            let mut items: Vec<u64> = Vec::new();
            let mut total = 0u64;
            let mut cap = 0usize;
            for sweep in 0..20u64 {
                items.clear();
                items.extend((0..16).map(|i| sweep * 16 + i));
                total += pool.sweep_drain(&mut items, |x, c| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    c.add(x);
                });
                assert!(items.is_empty(), "drain must consume every item");
                // The capacity survives the round trip through the queue,
                // so steady-state iterations allocate nothing.
                if sweep == 0 {
                    cap = items.capacity();
                    assert!(cap >= 16);
                } else {
                    assert_eq!(items.capacity(), cap, "sweep {sweep} reallocated");
                }
            }
            total
        });
        let n = 20 * 16;
        assert_eq!(hits.load(Ordering::Relaxed), n);
        assert_eq!(total, (0..n).sum::<u64>());
    }

    #[test]
    fn slot_writer_disjoint_elements() {
        let mut states = vec![0u64; 6];
        {
            let slots = SlotWriter::new(&mut states);
            std::thread::scope(|s| {
                for i in 0..6 {
                    let slots = &slots;
                    s.spawn(move || {
                        // SAFETY: slot `i` is visited by exactly one thread.
                        *unsafe { slots.slot_mut(i) } = (i * i) as u64;
                    });
                }
            });
        }
        assert_eq!(states, vec![0, 1, 4, 9, 16, 25]);
    }

    #[test]
    fn pool_distributes_more_items_than_workers() {
        let done = AtomicU64::new(0);
        let count = WorkerPool::scoped(3, |pool| {
            pool.sweep((0..100u64).collect(), |x, c| {
                done.fetch_add(1, Ordering::Relaxed);
                c.add(x + 1);
            })
        });
        assert_eq!(done.load(Ordering::Relaxed), 100);
        assert_eq!(count, (1..=100).sum::<u64>());
        // Degenerate sweeps merge exactly too: no items count zero (a
        // 0-wide request clamps to one worker), a single item counts once.
        for workers in [0usize, 1, 3] {
            let (none, one) = WorkerPool::scoped(workers, |pool| {
                let none = pool.sweep(Vec::<u64>::new(), |x, c| c.add(x));
                (none, pool.sweep(vec![7u64], |x, c| c.add(x)))
            });
            assert_eq!((none, one), (0, 7), "workers = {workers}");
        }
    }

    #[test]
    fn run_sharded_merges_counts() {
        // A one-shot phase sizes its pool to the item count and runs one
        // sweep (the plan builder's cost scan does this); counts merge
        // exactly, including the degenerate zero- and one-item sweeps (a
        // 0-wide request clamps to one worker).
        let one_shot = |items: Vec<u64>| {
            WorkerPool::scoped(items.len(), |pool| pool.sweep(items, |x, c| c.add(x)))
        };
        assert_eq!(one_shot((1..=8).collect()), 36);
        assert_eq!(one_shot(Vec::new()), 0);
        assert_eq!(one_shot(vec![7]), 7);
    }

    #[test]
    fn pool_single_worker_runs_inline() {
        let id = std::thread::current().id();
        let count = WorkerPool::scoped(1, |pool| {
            pool.sweep(vec![1u64, 2, 3], |x, c| {
                assert_eq!(std::thread::current().id(), id, "threads = 1 never spawns");
                c.add(x);
            })
        });
        assert_eq!(count, 6);
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::scoped(4, |pool| {
                pool.sweep((0..8u64).collect(), |x, _c| {
                    if x == 5 {
                        panic!("boom");
                    }
                })
            })
        }));
        assert!(result.is_err(), "a panicking sweep item must propagate");
        // The panic surfaces either as the worker-pool message (worker
        // thread hit it) or as the original payload (driver thread hit it);
        // both are propagation, never a hang or a swallow.
    }

    #[test]
    fn pool_survives_a_panicked_sweep() {
        // After a sweep panics, the pool (and a fresh one) must still work:
        // shutdown paths may not deadlock and state may not leak between
        // generations.
        let result = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::scoped(3, |pool| {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    pool.sweep(vec![0u64, 1, 2], |x, _c| {
                        if x == 1 {
                            panic!("first sweep dies");
                        }
                    })
                }));
                pool.sweep(vec![10u64, 20, 30], |x, c| c.add(x))
            })
        }));
        assert_eq!(result.ok(), Some(60));
    }

    #[test]
    fn sharded_mirror_matches_sequential() {
        let n = 17;
        let mut seq = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                seq[i * n + j] = (i * 31 + j) as f64 * 0.01;
            }
        }
        // Poison the lower triangle: the mirror must overwrite all of it.
        for i in 1..n {
            for j in 0..i {
                seq[i * n + j] = -7.0;
            }
        }
        let poisoned = seq.clone();
        WorkerPool::scoped(1, |pool| mirror_upper_to_lower(pool, &mut seq, n));
        for i in 1..n {
            for j in 0..i {
                assert_eq!(seq[i * n + j], seq[j * n + i], "({i},{j})");
            }
        }
        // The stale corner entry now holds its upper twin; the diagonal is
        // untouched.
        assert_eq!(seq[(n - 1) * n], poisoned[n - 1], "stale (n-1, 0)");
        for i in 0..n {
            assert_eq!(seq[i * n + i], poisoned[i * n + i], "diagonal ({i},{i})");
        }
        for workers in [2usize, 3, 4] {
            let mut g = poisoned.clone();
            WorkerPool::scoped(workers, |pool| mirror_upper_to_lower(pool, &mut g, n));
            assert_eq!(g, seq, "workers = {workers}");
        }
    }

    #[test]
    fn row_writer_disjoint_rows() {
        let mut data = vec![0.0f64; 4 * 6];
        {
            let w = RowWriter::new(&mut data, 6);
            // Each row touched exactly once: the contract the engines uphold.
            std::thread::scope(|s| {
                for a in 0..4 {
                    let w = &w;
                    s.spawn(move || {
                        // SAFETY: row `a` is visited by exactly one thread.
                        let row = unsafe { w.row_mut(a) };
                        for (b, v) in row.iter_mut().enumerate() {
                            *v = (a * 10 + b) as f64;
                        }
                    });
                }
            });
        }
        for a in 0..4 {
            for b in 0..6 {
                assert_eq!(data[a * 6 + b], (a * 10 + b) as f64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "divide by cols")]
    fn row_writer_rejects_ragged_buffers() {
        let mut data = vec![0.0f64; 7];
        let _ = RowWriter::new(&mut data, 3);
    }
}
