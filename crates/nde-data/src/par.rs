//! Deterministic parallelism and a utility-call memo cache.
//!
//! Every long-running estimator in the workspace is a loop over independent,
//! seed-derived work items (permutations, coalition samples, validation
//! points, pipeline tuples, possible worlds). They all run on one substrate,
//! [`WorkerPool::map_indexed`] / [`WorkerPool::map_indexed_scratch`], an
//! indexed map on a resident pool (workers are spawned once and parked
//! between jobs, never per call; most callers use [`WorkerPool::shared`]).
//! This module holds what those maps share:
//!
//! - [`WorkerFailure`] — why a map stopped early;
//! - [`tree_reduce`] — the fixed-shape reduction that keeps chunked
//!   floating-point sums bit-identical at every thread count;
//! - [`panic_message`] and [`catch_quiet`] — panic isolation;
//! - [`MemoCache`] — a sharded, thread-safe memoization cache for utility
//!   evaluations keyed by a [`subset_fingerprint`] of the coalition's index
//!   set, so repeated coalition evaluations across permutations and across
//!   methods (TMC-Shapley, Banzhaf, Beta-Shapley) are served from cache.
//!
//! # Determinism contract
//!
//! Work item `i` must depend only on `i` (typically via
//! `child_seed(seed, i)`), never on which worker ran it or what ran before
//! it. Workers claim index chunks, sized from the item cost the pool
//! measures, from an atomic cursor; results come back **sorted by index**.
//! So if `f(i)` is a pure function of `i`, the returned `(index, value)`
//! pairs are identical for any `threads >= 1`, and any fold over them is
//! independent of the schedule.
//! Early termination via the `stop` flag only affects *which* items are
//! missing (a set of the highest claimed indices plus possibly gaps past
//! the first unevaluated index) — callers that need a deterministic cut
//! must fold the sorted results front-to-back and apply their own
//! (count-based) stopping rule, discarding the speculative tail.
//! Failures are deterministic too: the error reported is always the one
//! from the **smallest failing index**, matching what a sequential run
//! would hit first.
//!
//! [`WorkerPool::map_indexed`]: crate::pool::WorkerPool::map_indexed
//! [`WorkerPool::map_indexed_scratch`]: crate::pool::WorkerPool::map_indexed_scratch
//! [`WorkerPool::shared`]: crate::pool::WorkerPool::shared

use crate::fxhash::{FxHashMap, FxHasher};
use std::cell::Cell;
use std::hash::Hasher;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

/// Why a parallel map stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFailure<E> {
    /// `f` returned an error for the given index (the smallest failing one).
    Err(u64, E),
    /// `f` panicked for the given index; the payload is stringified.
    Panic(u64, String),
}

impl<E> WorkerFailure<E> {
    /// The failing work-item index.
    pub fn index(&self) -> u64 {
        match self {
            WorkerFailure::Err(i, _) => *i,
            WorkerFailure::Panic(i, _) => *i,
        }
    }
}

/// Fixed-shape pairwise tree reduction.
///
/// Combines adjacent pairs `(0,1), (2,3), …` repeatedly until one value
/// remains; an odd trailing item is carried to the next round unchanged.
/// The association shape depends **only on the item count**, never on the
/// thread count that produced the items or on timing, which is what makes
/// a chunk-parallel floating-point accumulation bit-identical at every
/// thread count: compute per-chunk partials (deterministic per chunk),
/// sort them by index ([`crate::pool::WorkerPool::map_indexed`] already
/// does), then fold them through this one canonical tree.
///
/// Returns `None` for an empty input.
pub fn tree_reduce<T>(mut items: Vec<T>, mut combine: impl FnMut(T, T) -> T) -> Option<T> {
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(2));
        let mut it = items.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        items = next;
    }
    items.pop()
}

/// Stringify a panic payload (the common `&str` / `String` cases).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

// Panics caught on purpose must not spam stderr through the default panic
// hook, but hooks are process-global: install one delegating hook and
// silence it only on threads currently inside `catch_quiet`.
thread_local! {
    static SUPPRESS_PANIC_OUTPUT: Cell<u32> = const { Cell::new(0) };
}
static INSTALL_HOOK: Once = Once::new();

/// Run `f`, converting a panic into its stringified payload. The panic is
/// not printed; panics elsewhere in the process still are.
pub fn catch_quiet<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    INSTALL_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SUPPRESS_PANIC_OUTPUT.with(Cell::get) == 0 {
                previous(info);
            }
        }));
    });
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(s.get() + 1));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(s.get() - 1));
    outcome.map_err(panic_message)
}

/// Fingerprint of a **sorted** index set (FxHash over length + elements).
///
/// Two coalitions get the same fingerprint iff they hold the same indices
/// (up to the negligible 64-bit collision probability), independent of the
/// order they were assembled in — which is what lets a TMC permutation
/// prefix hit a cache entry written by a Banzhaf subset sample.
pub fn subset_fingerprint_sorted(sorted: &[usize]) -> u64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
    let mut h = FxHasher::default();
    h.write_usize(sorted.len());
    for &i in sorted {
        h.write_usize(i);
    }
    h.finish()
}

/// Fingerprint of an index set in any order (sorts a scratch copy).
pub fn subset_fingerprint(indices: &[usize], scratch: &mut Vec<usize>) -> u64 {
    if indices.windows(2).all(|w| w[0] < w[1]) {
        return subset_fingerprint_sorted(indices);
    }
    scratch.clear();
    scratch.extend_from_slice(indices);
    scratch.sort_unstable();
    subset_fingerprint_sorted(scratch)
}

/// Shard count for [`MemoCache`] (power of two; keyed by low fingerprint bits).
const CACHE_SHARDS: usize = 16;

/// 64-bit membership bloom signature of an index set: bit `i % 64` is set
/// for every member `i`. Two sets with disjoint signatures are provably
/// disjoint; overlapping signatures may or may not share members — exactly
/// the one-sided test [`MemoCache::invalidate_members`] needs (it may
/// evict a still-valid entry, never keep a stale one).
pub fn member_signature(members: &[usize]) -> u64 {
    members.iter().fold(0u64, |sig, &i| sig | 1u64 << (i % 64))
}

/// A sharded, thread-safe memoization cache for utility evaluations.
///
/// Keys are [`subset_fingerprint`]s; values are the utility of that
/// coalition. The cache is **only** valid for a fixed utility function —
/// one `(model template, training set, validation set)` triple. Callers
/// must use a fresh cache (or [`MemoCache::clear`]) when any of the three
/// changes; the cache cannot detect mismatched reuse.
///
/// Lookups and inserts are lock-striped across 16 shards, so
/// concurrent workers rarely contend. A racing double-compute of the same
/// key is possible and harmless: utilities are deterministic, so both
/// writers insert the same value.
///
/// Every new key is numbered in insertion order, so a writer that persists
/// the cache in pieces can ask for only the entries added since its last
/// [`MemoCache::mark`] ([`MemoCache::entries_since`]).
#[derive(Debug, Default)]
pub struct MemoCache {
    shards: [Mutex<FxHashMap<u64, Entry>>; CACHE_SHARDS],
    /// The number the next new key gets (`Relaxed`: it publishes no
    /// entry; entries are published through the shard locks).
    inserted: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One cached utility.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    /// The coalition's membership bloom signature (`!0` when the
    /// membership is unknown, so unknown entries survive no invalidation).
    signature: u64,
    /// Insertion number; a key inserted again keeps its first one.
    seq: u64,
}

impl MemoCache {
    /// An empty cache.
    pub fn new() -> MemoCache {
        MemoCache::default()
    }

    fn shard(&self, key: u64) -> &Mutex<FxHashMap<u64, Entry>> {
        &self.shards[(key as usize) & (CACHE_SHARDS - 1)]
    }

    /// Store `value` and `signature` under `key`; a new key takes the next
    /// insertion number, an existing one keeps its own.
    fn put(&self, key: u64, value: f64, signature: u64) {
        let mut map = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
        let seq = map.get(&key).map_or_else(
            || self.inserted.fetch_add(1, Ordering::Relaxed),
            |old| old.seq,
        );
        map.insert(
            key,
            Entry {
                value,
                signature,
                seq,
            },
        );
    }

    /// Look up a fingerprint, recording a hit or miss.
    pub fn get(&self, key: u64) -> Option<f64> {
        let found = self
            .shard(key)
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&key)
            .map(|e| e.value);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store a computed utility under its fingerprint, with an unknown
    /// membership signature: the entry is treated as possibly containing
    /// *every* training row, so any [`MemoCache::invalidate_members`] call
    /// evicts it. Callers that know the coalition should prefer
    /// [`MemoCache::insert_with_members`].
    pub fn insert(&self, key: u64, value: f64) {
        self.put(key, value, !0u64);
    }

    /// Store a computed utility tagged with the coalition's
    /// [`member_signature`], enabling selective invalidation when training
    /// rows change.
    pub fn insert_with_members(&self, key: u64, value: f64, members: &[usize]) {
        self.put(key, value, member_signature(members));
    }

    /// Evict every entry whose coalition may contain one of the `changed`
    /// training rows (signature overlap — conservative: an entry is only
    /// kept when its coalition provably avoids all changed rows). Returns
    /// the number of evicted entries. The hit/miss counters are untouched.
    ///
    /// This is what keeps a shared cache sound across accepted cleaning
    /// fixes: a fix to row `i` changes `U(S)` only for coalitions with
    /// `i ∈ S`, so entries provably excluding `i` stay valid.
    pub fn invalidate_members(&self, changed: &[usize]) -> usize {
        if changed.is_empty() {
            return 0;
        }
        let dirty = member_signature(changed);
        let mut evicted = 0;
        for s in &self.shards {
            let mut map = s.lock().unwrap_or_else(|p| p.into_inner());
            let before = map.len();
            map.retain(|_, e| e.signature & dirty == 0);
            evicted += before - map.len();
        }
        evicted
    }

    /// Lookups served from cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 when the cache was never queried.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Number of distinct cached coalitions.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries and reset the hit/miss counters (insertion numbers
    /// keep counting, so an earlier [`MemoCache::mark`] stays valid).
    /// Required before reusing the cache for a different utility function.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap_or_else(|p| p.into_inner()).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Snapshot every `(fingerprint, utility)` pair, sorted by fingerprint
    /// so the result is deterministic regardless of insertion order — the
    /// serialization surface for cross-process cache persistence.
    pub fn entries(&self) -> Vec<(u64, f64)> {
        self.entries_since(0)
    }

    /// The insertion number the next new key will get: pass it to
    /// [`MemoCache::entries_since`] later to read what was added in between.
    pub fn mark(&self) -> u64 {
        self.inserted.load(Ordering::Relaxed)
    }

    /// The live `(fingerprint, utility)` pairs whose key was first inserted
    /// at or after `mark`, sorted by fingerprint. A key evicted and inserted
    /// again counts as new. Under concurrent inserts a key numbered just
    /// below a mark read at the same moment may be missed by both sides of
    /// it; callers that persist increments take marks while no one inserts.
    pub fn entries_since(&self, mark: u64) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let map = s.lock().unwrap_or_else(|p| p.into_inner());
            out.extend(
                map.iter()
                    .filter(|(_, e)| e.seq >= mark)
                    .map(|(&k, e)| (k, e.value)),
            );
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Bulk-insert previously snapshotted entries (does not touch the
    /// hit/miss counters). Returns how many entries were loaded.
    pub fn load_entries(&self, entries: &[(u64, f64)]) -> usize {
        for &(k, v) in entries {
            self.insert(k, v);
        }
        entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_are_sorted_and_thread_invariant() {
        let stop = AtomicBool::new(false);
        let run = |threads| {
            WorkerPool::shared()
                .map_indexed::<u64, (), _>(threads, 0..100, &stop, |i| Ok(i * i))
                .unwrap()
        };
        let seq = run(1);
        assert_eq!(seq.len(), 100);
        assert!(seq.windows(2).all(|w| w[0].0 < w[1].0));
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), seq);
        }
    }

    #[test]
    fn scratch_is_per_worker_and_reused() {
        let stop = AtomicBool::new(false);
        // Scratch buffer grows once per worker; items observe a warm buffer.
        let out = WorkerPool::shared()
            .map_indexed_scratch::<Vec<u64>, usize, (), _, _>(
                4,
                0..40,
                &stop,
                Vec::new,
                |buf, i| {
                    buf.push(i);
                    Ok(buf.len())
                },
            )
            .unwrap();
        // Every worker's scratch length is monotone in the items it ran.
        assert_eq!(out.len(), 40);
        assert!(out.iter().all(|&(_, len)| len >= 1));
    }

    #[test]
    fn smallest_failing_index_wins() {
        let stop = AtomicBool::new(false);
        for threads in [1, 4] {
            let err = WorkerPool::shared()
                .map_indexed::<(), String, _>(threads, 0..64, &stop, |i| {
                    if i % 10 == 7 {
                        Err(format!("bad {i}"))
                    } else {
                        Ok(())
                    }
                })
                .unwrap_err();
            assert_eq!(err, WorkerFailure::Err(7, "bad 7".into()));
        }
    }

    #[test]
    fn panics_are_caught_and_indexed() {
        let stop = AtomicBool::new(false);
        for threads in [1, 3] {
            let err = WorkerPool::shared()
                .map_indexed::<(), (), _>(threads, 0..32, &stop, |i| {
                    if i == 5 {
                        panic!("boom {i}");
                    }
                    Ok(())
                })
                .unwrap_err();
            match err {
                WorkerFailure::Panic(5, msg) => assert!(msg.contains("boom 5")),
                other => panic!("expected panic at 5, got {other:?}"),
            }
        }
    }

    #[test]
    fn catch_quiet_returns_the_value_or_the_panic_message() {
        assert_eq!(catch_quiet(|| 7), Ok(7));
        assert_eq!(
            catch_quiet(|| panic!("quiet {}", 3)),
            Err::<(), _>("quiet 3".into())
        );
        // Nested guards unwind to the innermost one and leave the outer
        // value intact.
        let nested = catch_quiet(|| catch_quiet(|| -> u8 { panic!("inner") }));
        assert_eq!(nested, Ok(Err("inner".into())));
    }

    #[test]
    fn stop_flag_halts_claiming() {
        let stop = AtomicBool::new(true);
        let out = WorkerPool::shared()
            .map_indexed::<u64, (), _>(4, 0..1000, &stop, Ok)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn tree_reduce_shape_is_fixed_by_item_count() {
        assert_eq!(tree_reduce(Vec::<u64>::new(), |a, b| a + b), None);
        assert_eq!(tree_reduce(vec![7u64], |a, b| a + b), Some(7));
        // Record the association shape symbolically: 5 items reduce as
        // (((0+1)+(2+3))+4) regardless of how they were produced.
        let shape = tree_reduce((0..5).map(|i| i.to_string()).collect(), |a, b| {
            format!("({a}+{b})")
        })
        .unwrap();
        assert_eq!(shape, "(((0+1)+(2+3))+4)");
        // And sums still come out right at assorted counts.
        for n in [1u64, 2, 3, 4, 6, 17, 64, 100] {
            let total = tree_reduce((0..n).collect(), |a, b| a + b).unwrap();
            assert_eq!(total, n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn fingerprints_are_order_independent_and_distinct() {
        let mut scratch = Vec::new();
        let a = subset_fingerprint(&[3, 1, 2], &mut scratch);
        let b = subset_fingerprint(&[1, 2, 3], &mut scratch);
        assert_eq!(a, b);
        assert_eq!(b, subset_fingerprint_sorted(&[1, 2, 3]));
        assert_ne!(a, subset_fingerprint_sorted(&[1, 2]));
        assert_ne!(a, subset_fingerprint_sorted(&[1, 2, 4]));
        // Length is part of the key: {0} vs {} vs {0, 1}.
        assert_ne!(
            subset_fingerprint_sorted(&[0]),
            subset_fingerprint_sorted(&[])
        );
    }

    #[test]
    fn memo_cache_counts_hits_and_misses() {
        let cache = MemoCache::new();
        let key = subset_fingerprint_sorted(&[1, 2, 3]);
        assert_eq!(cache.get(key), None);
        cache.insert(key, 0.75);
        assert_eq!(cache.get(key), Some(0.75));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn memo_cache_membership_invalidation_is_selective_and_sound() {
        let cache = MemoCache::new();
        let a = subset_fingerprint_sorted(&[1, 2]);
        let b = subset_fingerprint_sorted(&[3, 4]);
        let c = subset_fingerprint_sorted(&[2, 3]);
        cache.insert_with_members(a, 0.1, &[1, 2]);
        cache.insert_with_members(b, 0.2, &[3, 4]);
        cache.insert_with_members(c, 0.3, &[2, 3]);
        // Plain insert = unknown membership: evicted by any invalidation.
        let d = subset_fingerprint_sorted(&[9]);
        cache.insert(d, 0.4);
        // Nothing changed → nothing evicted.
        assert_eq!(cache.invalidate_members(&[]), 0);
        assert_eq!(cache.len(), 4);
        // Row 2 changed: coalitions containing (or possibly containing) it
        // go; {3, 4} provably avoids it and survives.
        let evicted = cache.invalidate_members(&[2]);
        assert_eq!(evicted, 3);
        assert_eq!(cache.get(b), Some(0.2));
        assert_eq!(cache.get(a), None);
        assert_eq!(cache.get(c), None);
        assert_eq!(cache.get(d), None);
        // Signature aliasing (i % 64) is conservative, never unsound: row
        // 66 aliases row 2's bit, so a {66} coalition is evicted by a
        // change to row 2 — a spurious eviction, not a stale survival.
        let e = subset_fingerprint_sorted(&[66]);
        cache.insert_with_members(e, 0.5, &[66]);
        assert_eq!(cache.invalidate_members(&[2]), 1);
        assert_eq!(cache.get(e), None);
    }

    #[test]
    fn memo_cache_marks_select_the_entries_added_since() {
        let cache = MemoCache::new();
        assert_eq!(cache.mark(), 0);
        cache.insert(30, 0.3);
        cache.insert_with_members(10, 0.1, &[1]);
        let mark = cache.mark();
        assert_eq!(mark, 2);
        cache.insert(20, 0.2);
        // Re-inserting a key keeps its first number.
        cache.insert(30, 0.3);
        cache.insert_with_members(5, 0.05, &[2]);
        assert_eq!(cache.entries_since(mark), vec![(5, 0.05), (20, 0.2)]);
        assert_eq!(cache.entries_since(0), cache.entries());
        assert_eq!(cache.entries().len(), 4);
        // An evicted key inserted again is new; a clear keeps the count.
        let mark = cache.mark();
        cache.invalidate_members(&[1]);
        cache.insert_with_members(10, 0.1, &[1]);
        assert_eq!(cache.entries_since(mark), vec![(10, 0.1)]);
        let mark = cache.mark();
        cache.clear();
        assert!(cache.entries_since(0).is_empty());
        cache.insert(7, 0.7);
        assert_eq!(cache.entries_since(mark), vec![(7, 0.7)]);
    }

    #[test]
    fn memo_cache_is_shareable_across_threads() {
        let cache = MemoCache::new();
        let stop = AtomicBool::new(false);
        let out = WorkerPool::shared()
            .map_indexed::<f64, (), _>(4, 0..200, &stop, |i| {
                let key = i % 10; // heavy key reuse
                Ok(match cache.get(key) {
                    Some(v) => v,
                    None => {
                        let v = (key as f64).sqrt();
                        cache.insert(key, v);
                        v
                    }
                })
            })
            .unwrap();
        assert_eq!(out.len(), 200);
        assert_eq!(cache.len(), 10);
        assert!(cache.hits() > 0);
        for (i, v) in out {
            assert_eq!(v, ((i % 10) as f64).sqrt());
        }
    }
}
