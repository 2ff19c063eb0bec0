//! Lifecycle tests for the resident [`WorkerPool`]: reuse across many
//! jobs must stay bit-identical to the scoped-spawn reference, worker
//! panics must surface as [`WorkerFailure`] without poisoning the pool,
//! and dropping a pool must join every worker thread (no leaks, even
//! when a chaos kill switch stops a job mid-flight).

use nde_robust::par::{WorkerFailure, WorkerPool};
use nde_tests::chaos::FaultSchedule;
use nde_tests::{par_map_indexed_scoped, par_map_indexed_scratch_scoped};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tests that create pool threads do not overlap, so each one's timing
/// and pool activity stay independent of its neighbours.
static POOL_TESTS: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    POOL_TESTS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Live threads of this process named `name` (Linux
/// `/proc/self/task/*/comm`). Each pool names its workers uniquely, so
/// this counts one pool's workers and nothing else — the test harness's
/// own threads come and go without affecting it. `None` where the proc
/// filesystem is unavailable, in which case leak checks degrade to "drop
/// returns" (a deadlocked join would hang the test instead).
fn live_workers(name: &str) -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == name)
            .count(),
    )
}

/// How long a pool worker armed by [`slow_exit_on_pool_worker`] takes to
/// exit.
const SLOW_EXIT: Duration = Duration::from_millis(300);

/// [`live_workers`] once a pool's drop has returned. A joined thread can
/// stay listed for a moment while the kernel finishes tearing it down, so
/// wait up to a third of [`SLOW_EXIT`] for the count to reach zero: far
/// longer than that teardown takes, far shorter than an unjoined, armed
/// worker lingers.
fn workers_left_after_drop(name: &str) -> Option<usize> {
    let deadline = Instant::now() + SLOW_EXIT / 3;
    loop {
        let n = live_workers(name)?;
        if n == 0 || Instant::now() > deadline {
            return Some(n);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// On a pool worker, make the thread's exit slow (a thread-local destructor
/// sleeps) and return `true` the first time this thread gets here. A `Drop`
/// that joins its workers waits the sleep out; one that returns without
/// joining leaves them visibly alive, so a leak check cannot pass by luck.
fn slow_exit_on_pool_worker() -> bool {
    struct SlowExit(Cell<bool>);
    impl Drop for SlowExit {
        fn drop(&mut self) {
            std::thread::sleep(SLOW_EXIT);
        }
    }
    thread_local! {
        static ARMED: SlowExit = const { SlowExit(Cell::new(false)) };
    }
    let on_worker = std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("nde-pool-"));
    on_worker && ARMED.with(|s| !s.0.replace(true))
}

/// Holds job items until `expected` pool workers have each run one, so a
/// test knows every worker took part and armed its slow exit. Bounded: on a
/// starved machine the caller's arrival assertion fails instead of the test
/// hanging.
struct Arrivals {
    count: Mutex<usize>,
    all_in: Condvar,
    expected: usize,
    deadline: Instant,
}

impl Arrivals {
    fn new(expected: usize) -> Arrivals {
        Arrivals {
            count: Mutex::new(0),
            all_in: Condvar::new(),
            expected,
            deadline: Instant::now() + Duration::from_secs(10),
        }
    }

    fn gate(&self) {
        let mut count = self.count.lock().unwrap();
        if slow_exit_on_pool_worker() {
            *count += 1;
            self.all_in.notify_all();
        }
        let left = self.deadline.saturating_duration_since(Instant::now());
        drop(
            self.all_in
                .wait_timeout_while(count, left, |n| *n < self.expected)
                .unwrap(),
        );
    }

    fn arrived(&self) -> usize {
        *self.count.lock().unwrap()
    }
}

/// A deterministic, mildly expensive work item: enough arithmetic that
/// adaptive chunking engages, pure in `i` so every schedule agrees.
fn work(i: u64) -> u64 {
    let mut acc = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..64 {
        acc = acc.rotate_left(7) ^ acc.wrapping_add(i);
    }
    acc
}

#[test]
fn pool_reuse_is_bit_identical_to_scoped_spawns() {
    let _serial = serialize();
    let pool = WorkerPool::new(3);
    let stop = AtomicBool::new(false);
    let reference = par_map_indexed_scratch_scoped::<_, _, (), _, _>(
        4,
        0..500,
        &stop,
        || (),
        |(), i| Ok(work(i)),
    )
    .unwrap();
    // Many calls on one pool, at several thread counts: every run must
    // reproduce the scoped reference exactly.
    for round in 0..10 {
        for &threads in &[1, 2, 4, 7] {
            let got = pool
                .map_indexed::<u64, (), _>(threads, 0..500, &stop, |i| Ok(work(i)))
                .unwrap();
            assert_eq!(got, reference, "round {round}, {threads} threads");
        }
    }
}

#[test]
fn pooled_map_matches_scoped_reference_across_thread_counts() {
    let _serial = serialize();
    let pool = WorkerPool::new(6);
    let stop = AtomicBool::new(false);
    let reference = par_map_indexed_scratch_scoped::<u64, u64, (), _, _>(
        1,
        0..500,
        &stop,
        || 0,
        |_, i| Ok(i.wrapping_mul(i) ^ 0x9e37),
    )
    .unwrap();
    for threads in [1, 2, 4, 7] {
        // Reuse the same pool many times: results must stay identical.
        for _ in 0..5 {
            let pooled = pool
                .map_indexed_scratch::<u64, u64, (), _, _>(
                    threads,
                    0..500,
                    &stop,
                    || 0,
                    |_, i| Ok(i.wrapping_mul(i) ^ 0x9e37),
                )
                .unwrap();
            assert_eq!(pooled, reference, "threads={threads}");
        }
    }
}

#[test]
fn pooled_free_functions_match_scoped_reference() {
    let _serial = serialize();
    let stop = AtomicBool::new(false);
    let work = |i: u64| Ok::<u64, ()>(i.rotate_left(7) ^ 0xabcd);
    let reference = par_map_indexed_scoped(1, 0..300, &stop, work).unwrap();
    for threads in [1, 2, 4, 7] {
        assert_eq!(
            WorkerPool::shared()
                .map_indexed(threads, 0..300, &stop, work)
                .unwrap(),
            reference,
            "pooled threads={threads}"
        );
        assert_eq!(
            par_map_indexed_scoped(threads, 0..300, &stop, work).unwrap(),
            reference,
            "scoped threads={threads}"
        );
    }
}

#[test]
fn worker_panic_surfaces_as_failure_and_pool_stays_usable() {
    let _serial = serialize();
    let pool = WorkerPool::new(2);
    let stop = AtomicBool::new(false);
    // A chaos schedule decides which indices blow up; the smallest one
    // must win regardless of which worker hits it first.
    let schedule = FaultSchedule::at(&[13, 401]);
    let err = pool
        .map_indexed::<u64, (), _>(4, 0..500, &stop, |i| {
            if schedule.should_fail(i) {
                panic!("injected fault at {i}");
            }
            Ok(work(i))
        })
        .unwrap_err();
    match err {
        WorkerFailure::Panic(i, msg) => {
            assert_eq!(i, 13, "smallest failing index wins");
            assert!(msg.contains("injected fault"), "{msg}");
        }
        other => panic!("expected a panic failure, got {other:?}"),
    }
    // The same pool keeps serving correct answers afterwards.
    for _ in 0..3 {
        let ok = pool
            .map_indexed::<u64, (), _>(4, 0..100, &stop, |i| Ok(work(i)))
            .unwrap();
        assert_eq!(ok.len(), 100);
        assert!(ok.iter().all(|&(i, v)| v == work(i)));
    }
}

#[test]
fn error_results_match_at_every_thread_count() {
    let _serial = serialize();
    let pool = WorkerPool::new(3);
    let stop = AtomicBool::new(false);
    for &threads in &[1, 2, 4, 7] {
        let err = pool
            .map_indexed::<u64, String, _>(threads, 0..300, &stop, |i| {
                if i >= 37 {
                    Err(format!("bad item {i}"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            WorkerFailure::Err(37, "bad item 37".to_string()),
            "{threads} threads"
        );
    }
}

#[test]
fn dropping_a_pool_joins_all_workers() {
    let _serial = serialize();
    let name = {
        let pool = WorkerPool::new(4);
        let stop = AtomicBool::new(false);
        let arrivals = Arrivals::new(4);
        let out = pool
            .map_indexed::<u64, (), _>(5, 0..200, &stop, |i| {
                arrivals.gate();
                Ok(work(i))
            })
            .unwrap();
        assert_eq!(out.len(), 200);
        assert_eq!(arrivals.arrived(), 4, "every worker ran");
        if let Some(n) = live_workers(pool.thread_name()) {
            assert_eq!(n, 4, "pool workers alive while pool exists");
        }
        pool.thread_name().to_string()
    };
    // Drop joined the workers: none of them is still alive.
    if let Some(n) = workers_left_after_drop(&name) {
        assert_eq!(n, 0, "dropped pool leaked worker threads");
    }
}

#[test]
fn kill_switch_mid_job_leaves_no_leaks_and_pool_reusable() {
    let _serial = serialize();
    let name = {
        let pool = Arc::new(WorkerPool::new(3));
        let stop = AtomicBool::new(false);
        let done = AtomicU64::new(0);
        let arrivals = Arrivals::new(3);
        // The kill switch arms after 64 completions — mid-run, from inside
        // the workers, the way a tripped budget clock does it.
        let out = pool
            .map_indexed::<u64, (), _>(4, 0..10_000, &stop, |i| {
                arrivals.gate();
                if done.fetch_add(1, Ordering::Relaxed) >= 64 {
                    stop.store(true, Ordering::Relaxed);
                }
                Ok(work(i))
            })
            .unwrap();
        assert!(
            out.len() >= 64 && out.len() < 10_000,
            "kill switch should truncate the run: {} items",
            out.len()
        );
        assert_eq!(arrivals.arrived(), 3, "every worker ran");
        // Killed mid-job, the pool still serves the next job in full.
        stop.store(false, Ordering::Relaxed);
        let clean = pool
            .map_indexed::<u64, (), _>(4, 0..128, &stop, |i| Ok(work(i)))
            .unwrap();
        assert_eq!(clean.len(), 128);
        pool.thread_name().to_string()
    };
    if let Some(n) = workers_left_after_drop(&name) {
        assert_eq!(n, 0, "killed pool leaked worker threads");
    }
}

#[test]
fn zero_and_tiny_pools_agree_with_large_ones() {
    let _serial = serialize();
    let stop = AtomicBool::new(false);
    let reference: Vec<(u64, u64)> = (0..257).map(|i| (i, work(i))).collect();
    for workers in [0, 1, 3] {
        let pool = WorkerPool::new(workers);
        for &threads in &[1, 4, 8] {
            let got = pool
                .map_indexed::<u64, (), _>(threads, 0..257, &stop, |i| Ok(work(i)))
                .unwrap();
            assert_eq!(got, reference, "{workers} workers, {threads} threads");
        }
    }
}

#[test]
fn shared_pool_reports_activity_monotonically() {
    let _serial = serialize();
    let pool = WorkerPool::shared();
    let stop = AtomicBool::new(false);
    let before = pool.stats();
    let out = pool
        .map_indexed::<u64, (), _>(4, 0..64, &stop, |i| Ok(work(i)))
        .unwrap();
    assert_eq!(out.len(), 64);
    let after = pool.stats();
    assert!(after.jobs >= before.jobs);
    assert!(after.chunks > before.chunks, "{before:?} -> {after:?}");
    assert!(after.parks >= before.parks);
    assert!(after.wakes >= before.wakes);
}
