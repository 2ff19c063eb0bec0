//! A resident worker pool with adaptive chunk scheduling.
//!
//! Spawning OS threads per parallel call makes small parallel regions (a
//! pipeline exec over a few thousand rows, one Zorro gradient epoch)
//! *slower* than sequential: spawn plus join costs tens of microseconds per
//! worker, paid again for every epoch and every operator. [`WorkerPool`]
//! spawns its workers once and parks them on a condvar between jobs;
//! submitting a job is a queue push plus a wake, and an idle pool costs
//! nothing but parked threads. Every parallel map in the workspace runs on
//! one ([`WorkerPool::shared`] unless the caller hands in its own).
//!
//! # Scheduling model
//!
//! A job is an indexed map over `range` with `threads - 1` pool slots; the
//! **submitting thread always participates as one worker**, so a map is never
//! starved even when every pool worker is busy (a saturated pool degrades to
//! inline execution, never deadlocks). Workers claim *chunks* of indices from
//! a shared atomic cursor. Chunk size is adaptive:
//!
//! - every job starts with single-item claims; the first completed claim
//!   publishes its measured per-item nanosecond cost, and every later
//!   claim replaces it with its own measurement;
//! - once a cost is known, chunks are sized to roughly `TARGET_CHUNK_NANOS`
//!   of work (inside the 100µs–1ms band), capped so every worker still gets
//!   several claims for load balancing.
//!
//! The measurement is the only cost input: callers pass no estimate, and
//! the thread count is clamped only by the item count. Chunk boundaries
//! provably cannot affect output: each result is tagged with its item index
//! and results are merged sorted by index, so the determinism contract of
//! [`crate::par`] (bit-identical output at every thread count) holds for
//! whatever chunks the measurement picks.
//!
//! # Failure and stop semantics
//!
//! Panics in `f` are caught per item and
//! surfaced as [`WorkerFailure::Panic`]; the reported failure is always the
//! one with the smallest index (claims are monotone in the cursor and a
//! worker finishes its already-claimed chunk when *another* worker fails, so
//! the smallest failing index is always evaluated). A cooperative `stop`
//! drops the unevaluated remainder of a claimed chunk — consumers with
//! budget heuristics settle sorted results front-to-back and re-claim gaps,
//! so this only affects the speculative tail, never the settled prefix.
//!
//! Worker panics never poison the pool: the resident threads survive, and
//! the pool remains usable for subsequent jobs. Dropping a pool joins all
//! worker threads (no leaks).

use crate::par::{panic_message, WorkerFailure};
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Target work per claimed chunk once the per-item cost is known (~0.25ms,
/// the middle of the 100µs–1ms sweet spot: large enough to amortize the
/// claim, small enough to load-balance and honor stop flags promptly).
const TARGET_CHUNK_NANOS: u64 = 250_000;
/// Hard ceiling on adaptive chunk size (keeps result merging cheap even for
/// nanosecond-scale items).
const MAX_CHUNK: u64 = 8192;
/// Keep at least this many claims available per worker for load balancing.
const CLAIMS_PER_WORKER: u64 = 4;

thread_local! {
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` on a resident pool worker thread. Nested maps run inline there:
/// the outer job already owns the pool's parallelism, and queueing from
/// inside a worker would only add scheduling churn.
fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(Cell::get)
}

/// Monotone counters describing pool activity since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs submitted to the pool (one per parallel map that ran pooled).
    pub jobs: u64,
    /// Chunks claimed from job cursors (adaptive batches, including the
    /// submitting thread's own claims).
    pub chunks: u64,
    /// Times a worker parked on the condvar waiting for work.
    pub parks: u64,
    /// Times a parked worker woke up (includes spurious wakeups).
    pub wakes: u64,
}

/// Type-erased pointer to a job body living on the submitter's stack.
struct RawBody(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync`, and every dereference happens before the
// submitting call returns — `JobGuard` retires the job and blocks until all
// joined workers have finished, so the pointee outlives all uses.
unsafe impl Send for RawBody {}
unsafe impl Sync for RawBody {}

/// Per-job control block shared between the submitter and the workers.
struct JobCtl {
    body: RawBody,
    /// Pool worker slots this job wants (`threads - 1`).
    slots: usize,
    /// Workers that claimed a slot so far (mutated only under the queue
    /// lock, so `retire` reads a final value once the job leaves the queue).
    joined: AtomicUsize,
    /// Workers that finished running the body.
    finished: AtomicUsize,
}

struct PoolQueue {
    jobs: VecDeque<Arc<JobCtl>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_cv: Condvar,
    done_cv: Condvar,
    jobs: AtomicU64,
    chunks: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
}

/// A long-lived pool of parked worker threads for deterministic indexed maps.
///
/// Construct a dedicated pool with [`WorkerPool::new`], or share the
/// process-wide one via [`WorkerPool::shared`] (sized from the machine, at
/// least 7 workers so `threads <= 8` never degrades, overridable with the
/// `NDE_POOL_WORKERS` environment variable). Dropping a pool shuts down and
/// joins every worker thread.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    name: String,
}

fn worker_loop(shared: Arc<PoolShared>) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
    loop {
        if q.shutdown {
            return;
        }
        let open = q
            .jobs
            .iter()
            .position(|j| j.joined.load(Ordering::Relaxed) < j.slots);
        let Some(pos) = open else {
            shared.parks.fetch_add(1, Ordering::Relaxed);
            q = shared.work_cv.wait(q).unwrap_or_else(|p| p.into_inner());
            shared.wakes.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let job = Arc::clone(&q.jobs[pos]);
        let slot = job.joined.fetch_add(1, Ordering::Relaxed);
        if slot + 1 >= job.slots {
            // Fully joined: no further workers may claim it.
            q.jobs.remove(pos);
        }
        drop(q);
        // The job body catches user panics itself; this outer guard only
        // shields the resident thread from bookkeeping bugs so one bad job
        // cannot kill the pool.
        let body = unsafe { &*job.body.0 };
        let _ = panic::catch_unwind(AssertUnwindSafe(|| body(slot)));
        job.finished.fetch_add(1, Ordering::Release);
        q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        shared.done_cv.notify_all();
    }
}

/// Pool size for [`WorkerPool::shared`]: `NDE_POOL_WORKERS` if set, else
/// one less than the hardware parallelism (the submitter is a worker too),
/// floored so that 8-way maps still get real pool slots on small machines.
fn default_workers() -> usize {
    if let Ok(raw) = std::env::var("NDE_POOL_WORKERS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n;
        }
    }
    let hw = std::thread::available_parallelism().map_or(8, |n| n.get());
    hw.max(8) - 1
}

impl WorkerPool {
    /// Spawn a dedicated pool with exactly `workers` resident threads.
    /// `workers == 0` is valid: every map then runs inline on the caller.
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            jobs: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        });
        // Unique per pool so a pool's own threads can be told apart; at most
        // 15 bytes, the Linux limit for a thread's `comm` name.
        static NEXT_POOL: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "nde-pool-{}",
            NEXT_POOL.fetch_add(1, Ordering::Relaxed) % 1_000_000
        );
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
            name,
        }
    }

    /// The process-wide shared pool (spawned once, on first use).
    pub fn shared() -> Arc<WorkerPool> {
        static SHARED: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(WorkerPool::new(default_workers()))))
    }

    /// Number of resident worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The name every worker thread of this pool carries, unique within
    /// the process (`nde-pool-<n>`, at most 15 bytes, so it is also the
    /// thread's `comm` name on Linux).
    pub fn thread_name(&self) -> &str {
        &self.name
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            chunks: self.shared.chunks.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
            wakes: self.shared.wakes.load(Ordering::Relaxed),
        }
    }

    fn submit(&self, slots: usize, body: &(dyn Fn(usize) + Sync)) -> Arc<JobCtl> {
        // SAFETY: `JobGuard::drop` retires the job and blocks until every
        // joined worker finished, before `body`'s stack frame can unwind.
        let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        let job = Arc::new(JobCtl {
            body: RawBody(body),
            slots,
            joined: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
        });
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            if !q.shutdown {
                q.jobs.push_back(Arc::clone(&job));
            }
        }
        self.shared.jobs.fetch_add(1, Ordering::Relaxed);
        self.shared.work_cv.notify_all();
        job
    }

    /// Remove `job` from the queue (no new joiners) and wait for every
    /// worker that already joined. Waits only for *joined* workers: a job
    /// nobody picked up retires immediately, which is what makes nested or
    /// saturated submission degrade to inline execution instead of
    /// deadlocking.
    fn retire(&self, job: &Arc<JobCtl>) {
        let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(pos) = q.jobs.iter().position(|j| Arc::ptr_eq(j, job)) {
            q.jobs.remove(pos);
        }
        let joined = job.joined.load(Ordering::Relaxed);
        while job.finished.load(Ordering::Acquire) < joined {
            q = self
                .shared
                .done_cv
                .wait(q)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// [`WorkerPool::map_indexed_scratch`] without per-worker scratch state.
    pub fn map_indexed<T, E, F>(
        &self,
        threads: usize,
        range: Range<u64>,
        stop: &AtomicBool,
        f: F,
    ) -> Result<Vec<(u64, T)>, WorkerFailure<E>>
    where
        T: Send,
        E: Send,
        F: Fn(u64) -> Result<T, E> + Sync,
    {
        self.map_indexed_scratch(threads, range, stop, || (), |(), i| f(i))
    }

    /// Parallel indexed map with per-worker scratch state on this pool.
    ///
    /// Each worker builds one scratch value with `init` (reusable buffers,
    /// so items do not allocate afresh) and then repeatedly claims chunks
    /// of indices, evaluating `f(&mut scratch, index)` for each. Results
    /// are returned sorted by index; see [`crate::par`] for the
    /// determinism contract.
    ///
    /// Early exit:
    /// - `stop` — cooperative flag; once set (by a worker, by the caller, or
    ///   by a budget heuristic) no *new* indices are claimed and the
    ///   unevaluated remainder of in-flight chunks is dropped (budgeted
    ///   callers settle sorted results front-to-back and re-claim gaps).
    /// - An `Err` or panic from `f` sets an internal failure flag; after all
    ///   workers drain, the failure with the smallest index is returned.
    ///
    /// `threads` is clamped to the item count. With one thread, or on a
    /// pool worker (nested maps), the items run inline on the calling
    /// thread in index order.
    pub fn map_indexed_scratch<S, T, E, I, F>(
        &self,
        threads: usize,
        range: Range<u64>,
        stop: &AtomicBool,
        init: I,
        f: F,
    ) -> Result<Vec<(u64, T)>, WorkerFailure<E>>
    where
        T: Send,
        E: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, u64) -> Result<T, E> + Sync,
    {
        let items = range.end.saturating_sub(range.start);
        let threads = if in_pool_worker() {
            1
        } else {
            (threads as u64).clamp(1, items.max(1)) as usize
        };
        let next = AtomicU64::new(range.start);
        let failed = AtomicBool::new(false);
        let failure: Mutex<Option<WorkerFailure<E>>> = Mutex::new(None);
        let cost_ns = AtomicU64::new(0);
        let claims = AtomicU64::new(0);

        let record_failure = |fail: WorkerFailure<E>| {
            failed.store(true, Ordering::Relaxed);
            let mut slot = failure.lock().unwrap_or_else(|p| p.into_inner());
            if slot.as_ref().is_none_or(|prev| fail.index() < prev.index()) {
                *slot = Some(fail);
            }
        };

        let worker = |out: &mut Vec<(u64, T)>| {
            let mut scratch = init();
            'claims: loop {
                if stop.load(Ordering::Relaxed) || failed.load(Ordering::Relaxed) {
                    break;
                }
                let est = cost_ns.load(Ordering::Relaxed);
                let want = chunk_size(est, items, threads);
                let start = next.fetch_add(want, Ordering::Relaxed);
                if start >= range.end {
                    break;
                }
                let end = range.end.min(start.saturating_add(want));
                claims.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                for i in start..end {
                    // A cooperative stop drops the unevaluated rest of the
                    // chunk (budgeted callers settle front-to-back and
                    // re-claim gaps next round). A failure elsewhere does
                    // NOT: finishing the claimed chunk preserves the
                    // smallest-failing-index guarantee, because claims are
                    // monotone in the cursor.
                    if stop.load(Ordering::Relaxed) {
                        break 'claims;
                    }
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&mut scratch, i)));
                    match outcome {
                        Ok(Ok(v)) => out.push((i, v)),
                        Ok(Err(e)) => {
                            record_failure(WorkerFailure::Err(i, e));
                            break 'claims;
                        }
                        Err(payload) => {
                            record_failure(WorkerFailure::Panic(i, panic_message(payload)));
                            break 'claims;
                        }
                    }
                }
                // Every completed claim re-measures: a one-item probe can
                // read microseconds for a nanosecond item (a cold first
                // call, preemption), and the next claim corrects it instead
                // of that reading sizing the whole job.
                let spent = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                cost_ns.store((spent / (end - start)).max(1), Ordering::Relaxed);
            }
        };

        let mut results: Vec<(u64, T)> = Vec::with_capacity(items.min(1 << 20) as usize);
        if threads == 1 {
            worker(&mut results);
        } else {
            let extra = threads - 1;
            let slots: Vec<Mutex<Vec<(u64, T)>>> =
                (0..extra).map(|_| Mutex::new(Vec::new())).collect();
            let pool_panic: Mutex<Option<String>> = Mutex::new(None);
            let body = |slot: usize| {
                let run = panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut local = Vec::new();
                    worker(&mut local);
                    local
                }));
                match run {
                    Ok(local) => {
                        *slots[slot].lock().unwrap_or_else(|p| p.into_inner()) = local;
                    }
                    Err(payload) => {
                        // Only `init` can panic outside the per-item guard;
                        // re-raise it on the submitting thread once the job
                        // drains, as a scoped spawn would.
                        failed.store(true, Ordering::Relaxed);
                        let mut first = pool_panic.lock().unwrap_or_else(|p| p.into_inner());
                        if first.is_none() {
                            *first = Some(panic_message(payload));
                        }
                    }
                }
            };
            {
                let _guard = JobGuard {
                    pool: self,
                    job: self.submit(extra, &body),
                };
                worker(&mut results);
            }
            for slot in slots {
                results.append(&mut slot.into_inner().unwrap_or_else(|p| p.into_inner()));
            }
            results.sort_unstable_by_key(|&(i, _)| i);
            if let Some(msg) = pool_panic.into_inner().unwrap_or_else(|p| p.into_inner()) {
                panic!("pool worker panicked outside the item guard: {msg}");
            }
        }
        self.shared
            .chunks
            .fetch_add(claims.load(Ordering::Relaxed), Ordering::Relaxed);

        match failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(fail) => Err(fail),
            None => Ok(results),
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Ensures a submitted job is retired even if the submitter's own worker
/// body panics (e.g. a panicking `init` on the calling thread): the job must
/// never outlive the stack frame its body borrows from.
struct JobGuard<'p> {
    pool: &'p WorkerPool,
    job: Arc<JobCtl>,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        self.pool.retire(&self.job);
    }
}

/// Items to claim in one chunk given the current cost estimate.
fn chunk_size(est_ns: u64, items: u64, threads: usize) -> u64 {
    if est_ns == 0 {
        // Cost unknown: claim single items so the first completion can
        // publish a measured estimate (and so expensive items are never
        // over-claimed before we know they are expensive).
        return 1;
    }
    let target = (TARGET_CHUNK_NANOS / est_ns).max(1);
    let fair = (items / (threads as u64 * CLAIMS_PER_WORKER)).max(1);
    target.min(fair).min(MAX_CHUNK)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Busy-wait for at least `nanos` on the monotonic clock.
    fn spin(nanos: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < nanos {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn adaptive_chunking_is_output_invariant() {
        let pool = WorkerPool::new(3);
        let stop = AtomicBool::new(false);
        // Each claim's measured cost sizes the next chunks, so a slow
        // first item, or slow items scattered among cheap ones, give very
        // different chunk geometry; output must not change.
        let slow_items: [fn(u64) -> bool; 3] = [|_| false, |i| i == 0, |i| i != 0 && i % 97 == 0];
        let reference: Vec<(u64, u64)> = (0..1000u64).map(|i| (i, i * 3 + 1)).collect();
        for (case, slow) in slow_items.into_iter().enumerate() {
            let out = pool
                .map_indexed::<u64, (), _>(4, 0..1000, &stop, |i| {
                    if slow(i) {
                        spin(200_000);
                    }
                    Ok(i * 3 + 1)
                })
                .unwrap();
            assert_eq!(out, reference, "case {case}");
        }
    }

    #[test]
    fn measured_cost_sizes_chunks() {
        let pool = WorkerPool::new(3);
        let stop = AtomicBool::new(false);
        // Near-free items: after the single-item probe, chunks grow to
        // over a thousand items.
        let before = pool.stats().chunks;
        let cheap = pool
            .map_indexed::<u64, (), _>(4, 0..20_000, &stop, |i| Ok(i ^ 0x5a))
            .unwrap();
        let claims = pool.stats().chunks - before;
        assert!(claims < 200, "{claims} claims for 20,000 near-free items");
        let expect: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i, i ^ 0x5a)).collect();
        assert_eq!(cheap, expect);
        // Items above the per-chunk target (300µs > `TARGET_CHUNK_NANOS`):
        // every claim is a single item.
        let before = pool.stats().chunks;
        let slow = pool
            .map_indexed::<u64, (), _>(4, 0..24, &stop, |i| {
                spin(300_000);
                Ok(i * 7)
            })
            .unwrap();
        assert_eq!(pool.stats().chunks - before, 24);
        let expect: Vec<(u64, u64)> = (0..24u64).map(|i| (i, i * 7)).collect();
        assert_eq!(slow, expect);
    }

    #[test]
    fn threads_are_clamped_by_item_count() {
        let pool = WorkerPool::new(6);
        let stop = AtomicBool::new(false);
        // Every worker that joins a job builds its scratch once, so the
        // threads running `init` are the threads the job ran on.
        let ran_on = Mutex::new(Vec::new());
        let out = pool
            .map_indexed_scratch::<(), u64, (), _, _>(
                7,
                0..2,
                &stop,
                || ran_on.lock().unwrap().push(std::thread::current().id()),
                |(), i| {
                    spin(1_000_000);
                    Ok(i)
                },
            )
            .unwrap();
        assert_eq!(out, vec![(0, 0), (1, 1)]);
        let ids: std::collections::HashSet<_> = ran_on.into_inner().unwrap().into_iter().collect();
        assert!(ids.len() <= 2, "2 items ran on {} threads", ids.len());
        let empty = pool.map_indexed::<u64, (), _>(7, 0..0, &stop, Ok).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn worker_panic_is_contained_and_pool_stays_usable() {
        let pool = WorkerPool::new(4);
        let stop = AtomicBool::new(false);
        let err = pool
            .map_indexed::<(), (), _>(4, 0..64, &stop, |i| {
                if i == 9 {
                    panic!("chaos {i}");
                }
                Ok(())
            })
            .unwrap_err();
        match err {
            WorkerFailure::Panic(9, msg) => assert!(msg.contains("chaos 9")),
            other => panic!("expected panic at 9, got {other:?}"),
        }
        // The pool survives the panic and keeps producing correct results.
        let ok = pool
            .map_indexed::<u64, (), _>(4, 0..64, &stop, |i| Ok(i + 1))
            .unwrap();
        assert_eq!(ok.len(), 64);
        assert!(ok.iter().all(|&(i, v)| v == i + 1));
    }

    #[test]
    fn smallest_failing_index_wins_with_adaptive_chunks() {
        let pool = WorkerPool::new(4);
        let stop = AtomicBool::new(false);
        // Cheap items are measured cheap, so claims after the first are
        // multi-item chunks; the reported failure must still be the
        // smallest failing index.
        for threads in [1, 4, 7] {
            let err = pool
                .map_indexed::<(), String, _>(threads, 0..256, &stop, |i| {
                    if i % 50 == 13 {
                        Err(format!("bad {i}"))
                    } else {
                        Ok(())
                    }
                })
                .unwrap_err();
            assert_eq!(err, WorkerFailure::Err(13, "bad 13".into()));
        }
    }

    #[test]
    fn stats_count_jobs_chunks_and_parks() {
        let pool = WorkerPool::new(2);
        let stop = AtomicBool::new(false);
        let before = pool.stats();
        pool.map_indexed::<u64, (), _>(3, 0..100, &stop, Ok)
            .unwrap();
        let after = pool.stats();
        assert_eq!(after.jobs, before.jobs + 1);
        assert!(after.chunks > before.chunks);
        // threads == 1 must bypass the pool entirely.
        pool.map_indexed::<u64, (), _>(1, 0..100, &stop, Ok)
            .unwrap();
        assert_eq!(pool.stats().jobs, after.jobs);
    }

    #[test]
    fn nested_maps_run_inline_without_deadlock() {
        let pool = Arc::new(WorkerPool::new(2));
        let stop = AtomicBool::new(false);
        let inner_pool = Arc::clone(&pool);
        let out = pool
            .map_indexed::<u64, (), _>(3, 0..8, &stop, |i| {
                let inner_stop = AtomicBool::new(false);
                let inner = inner_pool
                    .map_indexed::<u64, (), _>(4, 0..10, &inner_stop, |j| Ok(i * 100 + j))
                    .unwrap();
                Ok(inner.iter().map(|&(_, v)| v).sum())
            })
            .unwrap();
        let expect: Vec<(u64, u64)> = (0..8u64).map(|i| (i, i * 1000 + 45)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn zero_worker_pool_runs_everything_inline() {
        let pool = WorkerPool::new(0);
        let stop = AtomicBool::new(false);
        let out = pool
            .map_indexed::<u64, (), _>(8, 0..50, &stop, |i| Ok(i * 2))
            .unwrap();
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|&(i, v)| v == i * 2));
    }

    #[test]
    fn drop_joins_all_workers() {
        // Run a job, then drop: Drop must join every resident thread (a
        // hang here fails the test harness timeout; completing proves the
        // shutdown handshake works even right after activity).
        let pool = WorkerPool::new(4);
        let stop = AtomicBool::new(false);
        pool.map_indexed::<u64, (), _>(4, 0..200, &stop, Ok)
            .unwrap();
        drop(pool);
    }
}
