//! `mps-par` — a dependency-free, deterministic, work-stealing thread pool
//! for the experiment grids of this workspace.
//!
//! # Why a bespoke pool
//!
//! Every expensive artifact in the study — the population throughput
//! tables (12 650 workloads at 4 cores), BADCO model training (22
//! benchmarks × ideal/pessimal runs), the resample loops behind the
//! confidence figures — is an *embarrassingly parallel grid*: a fixed list
//! of independent items whose results are combined in input order. The
//! paper's methodology guarantees the independence (each workload is its
//! own simulation); this crate supplies the parallelism without pulling in
//! rayon (the build environment has no registry access).
//!
//! # Determinism contract
//!
//! [`par_map_indexed`] guarantees **bit-identical output regardless of the
//! number of workers**: the function is applied exactly once per index,
//! results are merged in input-index order, and no worker-visible state
//! leaks into results. Anything order-dependent (RNG streams, shared
//! accumulators) must be derived *from the index*, never from execution
//! order — see `empirical_confidence` in `mps-sampling` for the pattern.
//! The thread-invariance suite in the workspace root asserts this end to
//! end (`MPS_JOBS=1` vs `MPS_JOBS=8` ⇒ byte-identical experiment
//! artifacts).
//!
//! # Scheduling
//!
//! Items `0..n` are split into one contiguous interval per worker. Each
//! worker owns a lock-free deque — an `AtomicU64` packing the interval's
//! `[lo, hi)` bounds — and pops chunks from the front with a CAS. A worker
//! whose interval drains picks the victim with the most remaining work and
//! steals the back half of its interval (again one CAS), making the stolen
//! range its own deque so it can in turn be stolen from. Intervals only
//! ever shrink, so the single-word CAS is ABA-free. Workers run on
//! [`std::thread::scope`] threads; worker panics propagate to the caller
//! after all workers have been joined.
//!
//! # Observability
//!
//! Each call updates `mps-obs` counters (`par.calls`, `par.items`,
//! `par.workers`, `par.steals`, `par.stolen_items`,
//! `par.imbalance_permille`), records every steal's size into the
//! `par.steal.size` histogram, and tracks the pool-wide remaining-item
//! count in the `par.queue.depth` gauge (updated at call start/end and at
//! every steal — the natural rebalancing points) so `mps-harness
//! --profile` and the live `/metrics` endpoint can show parallel
//! efficiency; see `docs/observability.md`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One worker's deque: a contiguous `[lo, hi)` interval of item indices
/// packed into a single `AtomicU64` (`hi` in the high 32 bits).
///
/// The owner pops chunks from the front, thieves steal halves from the
/// back; both transitions strictly shrink the interval, so a compare-
/// exchange on the packed word cannot suffer ABA.
#[derive(Debug)]
struct IntervalDeque(AtomicU64);

fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

fn unpack(v: u64) -> (u32, u32) {
    (v as u32, (v >> 32) as u32)
}

impl IntervalDeque {
    fn new(lo: u32, hi: u32) -> Self {
        IntervalDeque(AtomicU64::new(pack(lo, hi)))
    }

    /// Remaining items in the interval.
    fn remaining(&self) -> u32 {
        let (lo, hi) = unpack(self.0.load(Ordering::Acquire));
        hi.saturating_sub(lo)
    }

    /// Owner side: claim up to `chunk` items from the front.
    fn pop_front(&self, chunk: u32) -> Option<std::ops::Range<u32>> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let take = chunk.min(hi - lo).max(1);
            match self.0.compare_exchange_weak(
                cur,
                pack(lo + take, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo..lo + take),
                Err(v) => cur = v,
            }
        }
    }

    /// Thief side: claim the back half (at least one item).
    fn steal_back(&self) -> Option<std::ops::Range<u32>> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let take = ((hi - lo) / 2).max(1);
            match self.0.compare_exchange_weak(
                cur,
                pack(lo, hi - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(hi - take..hi),
                Err(v) => cur = v,
            }
        }
    }

    /// Owner side: replace an empty deque with a freshly stolen range.
    ///
    /// Only the owner ever *grows* its interval, and only when it is
    /// empty — thieves cannot touch an empty interval — so a plain store
    /// cannot race with a successful steal.
    fn refill(&self, range: &std::ops::Range<u32>) {
        debug_assert_eq!(self.remaining(), 0, "refill of a non-empty deque");
        self.0
            .store(pack(range.start, range.end), Ordering::Release);
    }
}

/// Number of worker threads to use by default: the `MPS_JOBS` environment
/// variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`], otherwise 1.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("MPS_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        eprintln!("mps-par: ignoring invalid MPS_JOBS={v:?} (want a positive integer)");
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resolves a job count: an explicit request (e.g. a `--jobs` flag) wins,
/// otherwise [`default_jobs`]. Zero is treated as "not specified".
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) if n > 0 => n,
        _ => default_jobs(),
    }
}

/// Statistics of one [`par_map_indexed`] call, mirrored into `mps-obs`
/// counters and returned by [`par_map_indexed_stats`] for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParStats {
    /// Worker threads actually spawned (0 when the call ran inline).
    pub workers: usize,
    /// Items executed (always the input length).
    pub items: usize,
    /// Successful steal operations.
    pub steals: u64,
    /// Items that changed hands through steals.
    pub stolen_items: u64,
    /// Idle-capacity permille: `1000·(1 − items/(workers·max_per_worker))`.
    /// 0 means perfectly balanced; inline runs report 0.
    pub imbalance_permille: u64,
}

/// Applies `f` to every `(index, item)` pair using up to `jobs` worker
/// threads and returns the results **in input-index order**.
///
/// Output is bit-identical for every `jobs` value (including 1): `f` runs
/// exactly once per index and the merge is by index, not completion order.
/// `jobs` is clamped to the item count; `jobs <= 1` (or fewer than two
/// items) runs inline on the calling thread with no spawns.
///
/// # Panics
///
/// A panic inside `f` is propagated to the caller after all workers have
/// drained (the first payload observed in worker order is rethrown).
pub fn par_map_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_stats(jobs, items, f).0
}

/// [`par_map_indexed`] variant that also returns the scheduling
/// statistics of this call (used by the scheduler's own tests and the
/// `par_speedup` bench).
pub fn par_map_indexed_stats<T, R, F>(jobs: usize, items: &[T], f: F) -> (Vec<R>, ParStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    assert!(
        u32::try_from(n).is_ok(),
        "par_map_indexed supports at most u32::MAX items (got {n})"
    );
    mps_obs::counter("par.calls").incr();
    mps_obs::counter("par.items").add(n as u64);
    let workers = jobs.min(n).max(1);
    if workers == 1 {
        let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        return (
            out,
            ParStats {
                items: n,
                ..ParStats::default()
            },
        );
    }

    // Initial partition: contiguous, near-equal intervals (the first
    // `n % workers` workers take one extra item).
    let deques: Vec<IntervalDeque> = {
        let base = (n / workers) as u32;
        let extra = (n % workers) as u32;
        let mut lo = 0u32;
        (0..workers as u32)
            .map(|w| {
                let len = base + u32::from(w < extra);
                let d = IntervalDeque::new(lo, lo + len);
                lo += len;
                d
            })
            .collect()
    };
    // Front-of-deque chunk size: coarse enough to keep CAS traffic low on
    // huge grids, fine enough (≤ remaining/2 via steals) for balance.
    let chunk = ((n / (workers * 8)) as u32).max(1);

    // Steals are rare (rebalancing points), so updating the depth gauge
    // and steal-size histogram there costs nothing on the hot path.
    let steal_size_hist = mps_obs::histogram("par.steal.size");
    let queue_depth = mps_obs::gauge("par.queue.depth");
    queue_depth.set(n as i64);

    struct WorkerOutcome<R> {
        /// `(index, result)` pairs in execution order.
        results: Vec<(u32, R)>,
        steals: u64,
        stolen_items: u64,
    }

    let run_worker = |me: usize| -> WorkerOutcome<R> {
        let mut out = WorkerOutcome {
            results: Vec::with_capacity(n / workers + 1),
            steals: 0,
            stolen_items: 0,
        };
        loop {
            // Drain the own deque front-to-back.
            while let Some(range) = deques[me].pop_front(chunk) {
                for i in range {
                    out.results.push((i, f(i as usize, &items[i as usize])));
                }
            }
            // Steal from the victim with the most remaining work.
            let victim = (0..workers)
                .filter(|&w| w != me)
                .map(|w| (deques[w].remaining(), w))
                .max()
                .filter(|&(rem, _)| rem > 0)
                .map(|(_, w)| w);
            match victim.and_then(|v| deques[v].steal_back()) {
                Some(range) => {
                    out.steals += 1;
                    out.stolen_items += u64::from(range.end - range.start);
                    steal_size_hist.record(u64::from(range.end - range.start));
                    let depth: u32 = (0..workers).map(|w| deques[w].remaining()).sum();
                    queue_depth.set(i64::from(depth) + i64::from(range.end - range.start));
                    deques[me].refill(&range);
                }
                // No stealable work anywhere: since the item set is fixed
                // (nothing respawns work), empty deques mean we are done.
                None => {
                    if (0..workers).all(|w| deques[w].remaining() == 0) {
                        break;
                    }
                    // A steal raced with another thief; rescan.
                    std::hint::spin_loop();
                }
            }
        }
        out
    };

    let joined: Vec<std::thread::Result<WorkerOutcome<R>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| s.spawn(move || run_worker(w)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut outcomes = Vec::with_capacity(workers);
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    for j in joined {
        match j {
            Ok(o) => outcomes.push(o),
            Err(p) => panic = panic.or(Some(p)),
        }
    }
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }

    let mut stats = ParStats {
        workers,
        items: n,
        ..ParStats::default()
    };
    let max_per_worker = outcomes.iter().map(|o| o.results.len()).max().unwrap_or(0);
    for o in &outcomes {
        stats.steals += o.steals;
        stats.stolen_items += o.stolen_items;
    }
    if max_per_worker > 0 {
        let capacity = (workers * max_per_worker) as u64;
        stats.imbalance_permille = 1000 - (n as u64 * 1000) / capacity;
    }
    queue_depth.set(0);
    mps_obs::counter("par.workers").add(workers as u64);
    mps_obs::counter("par.steals").add(stats.steals);
    mps_obs::counter("par.stolen_items").add(stats.stolen_items);
    mps_obs::counter("par.imbalance_permille").add(stats.imbalance_permille);

    // Order-independent merge: scatter by index, then unwrap in order.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for o in outcomes {
        for (i, r) in o.results {
            let slot = &mut slots[i as usize];
            debug_assert!(slot.is_none(), "index {i} executed twice");
            *slot = Some(r);
        }
    }
    let out = slots
        .into_iter()
        .map(|s| s.expect("every index executed exactly once"))
        .collect();
    (out, stats)
}

/// Convenience wrapper mapping over `0..n` without a backing slice.
pub fn par_map_range<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // A unit slice keeps the whole scheduler in one code path.
    let units = vec![(); n];
    par_map_indexed(jobs, &units, |i, ()| f(i))
}

/// Splits a lockstep grid of `n` items for `jobs` workers into
/// contiguous, near-equal chunks of at most `batch` items each, so
/// batching cannot leave a worker idle on a small grid: the chunk count
/// is the fewest the width cap allows, rounded up to a multiple of
/// `jobs` (every worker gets the same number of chunks) and capped at
/// `n`. There are thus never fewer than `min(n, jobs)` chunks. Chunk
/// lengths differ by at most one; the first chunks take the extra items.
pub fn chunk_ranges(n: usize, jobs: usize, batch: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.max(1);
    let k = (n.div_ceil(batch.max(1)).div_ceil(jobs) * jobs).min(n);
    let (base, extra) = (n / k, n % k);
    let mut lo = 0;
    (0..k)
        .map(|i| {
            let len = base + usize::from(i < extra);
            lo += len;
            lo - len..lo
        })
        .collect()
}

/// Applies `f` to the [`chunk_ranges`] chunks of `items` (at most `batch`
/// items each) using up to `jobs` workers, flattening the per-chunk
/// result vectors back into **input-index order**.
///
/// The scheduling unit is the whole chunk, so a batched kernel can
/// advance all of a chunk's items in lockstep; `f(start, chunk)` gets
/// the chunk's starting item index and must return exactly
/// `chunk.len()` results. The determinism contract matches
/// [`par_map_indexed`]: output is bit-identical for every `jobs` value
/// — and for every `batch` value, provided `f` itself is
/// batch-invariant (as `run_batch` is by construction).
///
/// Records each chunk's lane occupancy in the `batch.fill_permille`
/// histogram, against the widest chunk of this call (`1000` = as full as
/// the widest chunk, less for the shorter ones).
pub fn par_map_batched<T, R, F>(jobs: usize, items: &[T], batch: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let ranges = chunk_ranges(items.len(), jobs, batch);
    record_fill(&ranges);
    let out = par_map_indexed(jobs, &ranges, |_, r| {
        let chunk = &items[r.clone()];
        let out = f(r.start, chunk);
        assert_eq!(
            out.len(),
            chunk.len(),
            "batched map must return one result per item"
        );
        out
    });
    out.into_iter().flatten().collect()
}

/// Records the lane occupancy of `chunks` in the `batch.fill_permille`
/// histogram, each against the widest of them — the width the call
/// actually used, which is at most the configured batch.
pub fn record_fill(chunks: &[std::ops::Range<usize>]) {
    let width = chunks.iter().map(ExactSizeIterator::len).max().unwrap_or(1);
    let fill = mps_obs::histogram("batch.fill_permille");
    for c in chunks {
        fill.record((c.len() * 1000 / width) as u64);
    }
}

/// A shared queue of grid-cell indices for coordinator-style dispatch:
/// many dispatcher threads [`pop`](CellQueue::pop) work, and a cell whose
/// assignee died is [`requeue`](CellQueue::requeue)d at the *front* so
/// recovered work is retried before fresh work is started.
///
/// This is the cell-granularity counterpart of the interval deque above:
/// the interval deque shards a contiguous range across threads of one
/// process, while `CellQueue` hands out arbitrary (possibly sparse,
/// checkpoint-filtered) indices across *processes*, where the dispatcher
/// — not the worker — owns assignment. Order of service never affects
/// results (the caller merges by index); the queue only shapes latency.
#[derive(Debug, Default)]
pub struct CellQueue {
    cells: Mutex<VecDeque<usize>>,
}

impl CellQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        CellQueue::default()
    }

    /// Appends a fresh cell index at the back.
    pub fn push(&self, i: usize) {
        self.lock().push_back(i);
    }

    /// Puts a recovered cell index at the front, ahead of fresh work.
    pub fn requeue(&self, i: usize) {
        self.lock().push_front(i);
    }

    /// Takes the next cell index, or `None` when the queue is drained.
    pub fn pop(&self) -> Option<usize> {
        self.lock().pop_front()
    }

    /// Whether no cells are waiting (in-flight cells are not counted).
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Number of waiting cells.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
        match self.cells.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_index_order_for_every_jobs_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = par_map_indexed(jobs, &items, |_, &x| x * 3 + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_inputs_run_inline() {
        let empty: Vec<u8> = vec![];
        let (out, stats) = par_map_indexed_stats(8, &empty, |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(stats.workers, 0, "no threads for empty input");
        let (out, stats) = par_map_indexed_stats(8, &[41], |i, &x| x + i as i32 + 1);
        assert_eq!(out, vec![42]);
        assert_eq!(stats.workers, 0, "no threads for a single item");
    }

    #[test]
    fn every_index_executes_exactly_once() {
        let n = 1000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        par_map_indexed(7, &items, |i, _| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn steals_rebalance_skewed_work() {
        // One pathologically expensive item at the front of the first
        // worker's interval forces the others to steal its leftovers.
        let items: Vec<u64> = (0..64).collect();
        let (_, stats) = par_map_indexed_stats(4, &items, |i, _| {
            let spins = if i == 0 { 3_000_000 } else { 1_000 };
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc)
        });
        assert!(stats.steals > 0, "expected steals, got {stats:?}");
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..100).collect();
        let r = std::panic::catch_unwind(|| {
            par_map_indexed(4, &items, |i, _| {
                assert!(i != 57, "boom at 57");
                i
            })
        });
        assert!(r.is_err(), "panic must propagate to the caller");
    }

    #[test]
    fn resolve_jobs_prefers_explicit() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
        assert!(resolve_jobs(Some(0)) >= 1);
    }

    #[test]
    fn par_map_range_matches_sequential() {
        let got = par_map_range(5, 100, |i| i * i);
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn batched_map_matches_flat_map_for_every_shape() {
        let items: Vec<u64> = (0..53).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 7 + 2).collect();
        for jobs in [1, 4] {
            for batch in [1, 4, 16, 53, 100] {
                let got = par_map_batched(jobs, &items, batch, |start, chunk| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(k, x)| {
                            assert_eq!(items[start + k], *x, "chunk start index");
                            x * 7 + 2
                        })
                        .collect()
                });
                assert_eq!(got, expect, "jobs={jobs} batch={batch}");
            }
        }
    }

    #[test]
    fn batched_chunks_are_pool_sized() {
        for n in 0..=40usize {
            let items: Vec<usize> = (0..n).collect();
            let expect: Vec<usize> = items.iter().map(|x| x * 5 + 3).collect();
            for jobs in [1, 2, 3, 4, 8] {
                for batch in [1, 4, 8, 16] {
                    let widths = Mutex::new(Vec::new());
                    let got = par_map_batched(jobs, &items, batch, |_, chunk| {
                        widths.lock().unwrap().push(chunk.len());
                        chunk.iter().map(|x| x * 5 + 3).collect()
                    });
                    let widths = widths.into_inner().unwrap();
                    let tag = format!("n={n} jobs={jobs} batch={batch}");
                    assert!(widths.iter().all(|&w| w <= batch), "{tag}: {widths:?}");
                    assert!(widths.len() >= n.min(jobs), "{tag}: {widths:?}");
                    assert_eq!(got, expect, "{tag}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one result per item")]
    fn batched_map_rejects_wrong_arity() {
        par_map_batched(1, &[1, 2, 3], 2, |_, _| vec![0u8]);
    }

    #[test]
    fn interval_deque_pop_and_steal_shrink() {
        let d = IntervalDeque::new(0, 10);
        assert_eq!(d.pop_front(3), Some(0..3));
        assert_eq!(d.steal_back(), Some(7..10), "steal takes the back half");
        assert_eq!(d.remaining(), 4);
        assert_eq!(d.pop_front(8), Some(3..7));
        assert_eq!(d.pop_front(1), None);
        assert_eq!(d.steal_back(), None);
    }

    #[test]
    fn cell_queue_serves_fifo_with_requeue_at_front() {
        let q = CellQueue::new();
        assert!(q.is_empty());
        q.push(3);
        q.push(7);
        q.push(9);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(3));
        q.requeue(3); // a dead worker's cell jumps the line
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn cell_queue_hands_each_cell_to_exactly_one_thread() {
        let q = CellQueue::new();
        for i in 0..500 {
            q.push(i);
        }
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(i) = q.pop() {
                        seen.lock().unwrap().push(i);
                    }
                });
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }
}
