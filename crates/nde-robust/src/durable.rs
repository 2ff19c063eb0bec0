//! Crash-safe on-disk run store and supervised resume.
//!
//! Long-running estimation loops (Monte-Carlo Shapley sweeps, interval
//! gradient descent, prioritized cleaning) checkpoint their state as JSON,
//! but an in-memory checkpoint dies with the process. [`RunStore`] gives
//! those snapshots a home on disk:
//!
//! - **Atomic records.** Every checkpoint is written to a temp file and
//!   atomically renamed into place, so a crash mid-write leaves at worst a
//!   stray `.tmp` — never a half-written record under the real name. No
//!   file or directory is synced: a record survives a process crash, not
//!   power loss or an OS crash.
//! - **Checksummed, versioned envelopes.** Each record is one line of
//!   compact JSON: an envelope carrying a format version, the run
//!   fingerprint, the step number, and an [`FxHasher`]-based checksum of
//!   the payload, with the payload last. The payload is serialized once and
//!   the checksum covers exactly its bytes in the line.
//!   [`RunStore::latest_valid`] walks records newest-first and skips any
//!   that are truncated, corrupt, mis-fingerprinted, or from a different
//!   format version — a torn write or bit-rot costs at most one
//!   checkpoint interval, never the run.
//! - **Fingerprint keys.** Records are grouped by [`RunFingerprint`] —
//!   method, seed, a config tag, and a 64-bit data fingerprint — so a
//!   resumed process only ever picks up state written by an identical run.
//! - **Cross-process memo log.** A coalition-utility [`MemoCache`] persists
//!   as an append-only log, `memo.log`, one envelope per line:
//!   [`RunStore::save_memo`] rewrites the log as one record holding every
//!   entry (the compaction, atomic like a checkpoint), and
//!   [`RunStore::append_memo`] appends one record holding only the entries
//!   inserted since the previous save. [`RunStore::load_memo`] restores the
//!   records up to the first bad one, so a torn tail loses only the last
//!   append's entries — which a restarted run recomputes, since the cache
//!   only accelerates.
//!
//! [`supervise`] ties it together: it runs a closure under
//! `catch_unwind`, turning crashes into [`RetryPolicy`]-governed restarts,
//! with each attempt handed a [`SuperviseCtx`] through which it loads the
//! latest valid record and writes new ones. Because every estimator's
//! checkpoint restores its exact fold state (running sums, RNG streams,
//! cursors), a supervised run that crashed and resumed produces results
//! **bit-identical** to an uninterrupted one.

use crate::error::RobustError;
use crate::retry::RetryPolicy;
use crate::Result;
use nde_data::fxhash::FxHasher;
use nde_data::json::Json;
use nde_data::par::{catch_quiet, MemoCache};
use std::hash::Hasher;
use std::path::{Path, PathBuf};

/// On-disk envelope format version; bumped on incompatible layout changes.
/// Records from another version are skipped by [`RunStore::latest_valid`]
/// and end [`RunStore::load_memo`]. Version 1 wrote pretty-printed records
/// and a whole-cache `memo.json`; version 2 writes one compact line per
/// record and the `memo.log` append-only log.
pub const STORE_FORMAT_VERSION: u64 = 2;

/// The memo log's file name inside a run directory.
const MEMO_LOG: &str = "memo.log";

/// What separates an envelope's header from its payload, which runs to the
/// record's closing brace.
const PAYLOAD_FIELD: &str = ",\"payload\":";

/// FxHash-64 over a serialized payload's bytes — the record checksum.
pub fn payload_checksum(text: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

/// Identity of a resumable run: which estimator, which seed, which
/// configuration, over which data. Records are stored under the hex digest
/// of all four, so state from a different run can never be resumed into
/// this one — even if both share a store directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFingerprint {
    /// Estimator name (e.g. `"tmc-shapley"`).
    pub method: String,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Canonical rendering of every config knob that changes the
    /// trajectory (sample counts, tolerances, the model's
    /// hyper-parameters, ...).
    pub config: String,
    /// 64-bit fingerprint of the input data (e.g.
    /// `nde_ml::dataset::Dataset::fingerprint` folded over train + valid).
    pub data: u64,
}

impl RunFingerprint {
    /// Build a fingerprint from the four identity components.
    pub fn new(
        method: impl Into<String>,
        seed: u64,
        config: impl Into<String>,
        data: u64,
    ) -> RunFingerprint {
        RunFingerprint {
            method: method.into(),
            seed,
            config: config.into(),
            data,
        }
    }

    /// The store key: `<method>-<16-hex-digit digest>`. The method prefix
    /// keeps store directories human-readable; the digest covers all four
    /// components.
    pub fn key(&self) -> String {
        let mut h = FxHasher::default();
        h.write(self.method.as_bytes());
        h.write_u64(self.seed);
        h.write(self.config.as_bytes());
        h.write_u64(self.data);
        let digest = h.finish();
        let slug: String = self
            .method
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        format!("{slug}-{digest:016x}")
    }
}

/// A validated checkpoint record read back from a [`RunStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Monotone step number the writer assigned (iterations done, epochs
    /// done, fixes applied, ...).
    pub step: u64,
    /// The estimator snapshot, exactly as written.
    pub payload: Json,
}

/// Crash-safe checkpoint store rooted at a directory.
///
/// Layout: one subdirectory per [`RunFingerprint::key`], holding
/// `ckpt-<step>.json` records plus an optional `memo.log` utility-cache log.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<RunStore> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| RobustError::Io(format!("creating store {}: {e}", root.display())))?;
        Ok(RunStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory holding this run's records (not created until the
    /// first write).
    pub fn run_dir(&self, fingerprint: &RunFingerprint) -> PathBuf {
        self.root.join(fingerprint.key())
    }

    fn record_path(&self, fingerprint: &RunFingerprint, step: u64) -> PathBuf {
        self.run_dir(fingerprint)
            .join(format!("ckpt-{step:020}.json"))
    }

    /// One record line: the compact envelope header, then the payload
    /// serialized once, its bytes the checksum covers, then a newline.
    fn envelope(fingerprint: &RunFingerprint, step: u64, payload: &Json) -> String {
        let body = payload.to_string_compact();
        let mut line = Json::Obj(vec![
            ("format_version".into(), Json::UInt(STORE_FORMAT_VERSION)),
            ("fingerprint".into(), Json::Str(fingerprint.key())),
            ("step".into(), Json::UInt(step)),
            ("checksum".into(), Json::UInt(payload_checksum(&body))),
        ])
        .to_string_compact();
        line.pop(); // the header's closing brace
        line.reserve(PAYLOAD_FIELD.len() + body.len() + 2);
        line.push_str(PAYLOAD_FIELD);
        line.push_str(&body);
        line.push_str("}\n");
        line
    }

    fn create_run_dir(&self, fingerprint: &RunFingerprint) -> Result<PathBuf> {
        let dir = self.run_dir(fingerprint);
        std::fs::create_dir_all(&dir)
            .map_err(|e| RobustError::Io(format!("creating {}: {e}", dir.display())))?;
        Ok(dir)
    }

    /// Write-temp-then-rename; no sync (see the module docs).
    fn write_atomic(path: &Path, text: &str) -> Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)
            .map_err(|e| RobustError::Io(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| RobustError::Io(format!("renaming {}: {e}", path.display())))
    }

    /// Write one checkpoint record atomically (write-temp-then-rename): it
    /// survives a process crash, not power loss. Returns the record's final
    /// path.
    pub fn save_checkpoint(
        &self,
        fingerprint: &RunFingerprint,
        step: u64,
        payload: &Json,
    ) -> Result<PathBuf> {
        self.create_run_dir(fingerprint)?;
        let path = self.record_path(fingerprint, step);
        RunStore::write_atomic(&path, &RunStore::envelope(fingerprint, step, payload))?;
        Ok(path)
    }

    /// All record paths for a run, sorted by ascending step — including
    /// records that would fail validation (chaos tests corrupt these
    /// in place).
    pub fn record_paths(&self, fingerprint: &RunFingerprint) -> Result<Vec<(u64, PathBuf)>> {
        let dir = self.run_dir(fingerprint);
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| RobustError::Io(format!("listing {}: {e}", dir.display())))?;
        let mut out = Vec::new();
        for entry in entries {
            let entry =
                entry.map_err(|e| RobustError::Io(format!("listing {}: {e}", dir.display())))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(step) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((step, entry.path()));
        }
        out.sort_unstable_by_key(|&(step, _)| step);
        Ok(out)
    }

    /// Parse and validate one record file against the expected fingerprint.
    fn read_record(path: &Path, expected_key: &str) -> Result<CheckpointRecord> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| RobustError::Io(format!("reading {}: {e}", path.display())))?;
        let line = text.strip_suffix('\n').unwrap_or(&text);
        parse_record(line, expected_key)
            .map_err(|e| RobustError::Checkpoint(format!("record {}: {e}", path.display())))
    }

    /// The newest record that passes every validation layer (parse,
    /// version, fingerprint, checksum), or `None` when no usable record
    /// exists. Invalid records are skipped, not deleted — recovery never
    /// destroys evidence.
    pub fn latest_valid(&self, fingerprint: &RunFingerprint) -> Result<Option<CheckpointRecord>> {
        let key = fingerprint.key();
        for (_, path) in self.record_paths(fingerprint)?.iter().rev() {
            if let Ok(record) = RunStore::read_record(path, &key) {
                return Ok(Some(record));
            }
        }
        Ok(None)
    }

    /// The path of this run's memo log (not created until the first save).
    pub fn memo_path(&self, fingerprint: &RunFingerprint) -> PathBuf {
        self.run_dir(fingerprint).join(MEMO_LOG)
    }

    /// One memo record line holding `entries`.
    fn memo_record(fingerprint: &RunFingerprint, entries: &[(u64, f64)]) -> String {
        let pairs = entries
            .iter()
            .map(|&(k, v)| Json::Arr(vec![Json::UInt(k), Json::Float(v)]))
            .collect();
        let payload = Json::Obj(vec![("entries".into(), Json::Arr(pairs))]);
        RunStore::envelope(fingerprint, entries.len() as u64, &payload)
    }

    /// Compact the memo log: rewrite it atomically as one record holding
    /// every entry of `cache`, sorted by fingerprint (byte-deterministic
    /// for a given cache content). Returns the [`MemoCache::mark`] to pass
    /// to the next [`RunStore::append_memo`].
    pub fn save_memo(&self, fingerprint: &RunFingerprint, cache: &MemoCache) -> Result<u64> {
        let mark = cache.mark();
        self.create_run_dir(fingerprint)?;
        let line = RunStore::memo_record(fingerprint, &cache.entries());
        RunStore::write_atomic(&self.memo_path(fingerprint), &line)?;
        Ok(mark)
    }

    /// Append to the memo log one record holding the entries `cache` gained
    /// since `mark` (nothing when there are none). Returns the mark for the
    /// next append. Not atomic: a crash mid-append leaves a torn last line,
    /// which [`RunStore::load_memo`] stops at.
    pub fn append_memo(
        &self,
        fingerprint: &RunFingerprint,
        cache: &MemoCache,
        mark: u64,
    ) -> Result<u64> {
        use std::io::Write;
        let next = cache.mark();
        let entries = cache.entries_since(mark);
        if entries.is_empty() {
            return Ok(next);
        }
        self.create_run_dir(fingerprint)?;
        let path = self.memo_path(fingerprint);
        let line = RunStore::memo_record(fingerprint, &entries);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut file| file.write_all(line.as_bytes()))
            .map_err(|e| RobustError::Io(format!("appending to {}: {e}", path.display())))?;
        Ok(next)
    }

    /// Load this run's memo log into `cache`, returning how many entries
    /// were restored: every record up to the first one that is torn,
    /// corrupt, mis-fingerprinted or from another format version. A missing
    /// log restores nothing (0) — the cache is an accelerator, so damage
    /// degrades to recomputing, never to an error.
    pub fn load_memo(&self, fingerprint: &RunFingerprint, cache: &MemoCache) -> Result<usize> {
        let Ok(text) = std::fs::read_to_string(self.memo_path(fingerprint)) else {
            return Ok(0);
        };
        let key = fingerprint.key();
        let mut restored = 0;
        for line in text.split_terminator('\n') {
            let Some(entries) = parse_record(line, &key)
                .ok()
                .and_then(|record| memo_entries(&record.payload))
            else {
                break;
            };
            restored += cache.load_entries(&entries);
        }
        Ok(restored)
    }
}

/// Parse and validate one record line (no trailing newline) against the
/// expected fingerprint key.
fn parse_record(line: &str, expected_key: &str) -> std::result::Result<CheckpointRecord, String> {
    let doc = Json::parse(line).map_err(|e| format!("truncated or corrupt: {e}"))?;
    let version = doc.get("format_version").and_then(Json::as_u64);
    if version != Some(STORE_FORMAT_VERSION) {
        return Err(format!(
            "has format version {version:?}, expected {STORE_FORMAT_VERSION}"
        ));
    }
    let key = doc.get("fingerprint").and_then(Json::as_str);
    if key != Some(expected_key) {
        return Err(format!("belongs to run {key:?}, expected {expected_key}"));
    }
    let step = doc
        .get("step")
        .and_then(Json::as_u64)
        .ok_or("lacks a step")?;
    let stored = doc
        .get("checksum")
        .and_then(Json::as_u64)
        .ok_or("lacks a checksum")?;
    // The header holds no `"payload":` text of its own, so the first match
    // starts the payload, which runs to the closing brace.
    let body = line
        .find(PAYLOAD_FIELD)
        .and_then(|at| line[at + PAYLOAD_FIELD.len()..].strip_suffix('}'))
        .ok_or("lacks a compact payload")?;
    let actual = payload_checksum(body);
    if stored != actual {
        return Err(format!(
            "checksum mismatch: stored {stored}, computed {actual}"
        ));
    }
    let Json::Obj(fields) = doc else {
        return Err("is not an object".into());
    };
    let payload = fields
        .into_iter()
        .find_map(|(name, value)| (name == "payload").then_some(value))
        .ok_or("lacks a payload")?;
    Ok(CheckpointRecord { step, payload })
}

/// The `(fingerprint, utility)` pairs of a memo record's payload, or `None`
/// if any is malformed or non-finite.
fn memo_entries(payload: &Json) -> Option<Vec<(u64, f64)>> {
    payload
        .get("entries")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let items = pair.as_arr()?;
            let k = items.first()?.as_u64()?;
            let v = items.get(1)?.as_f64()?;
            v.is_finite().then_some((k, v))
        })
        .collect()
}

/// Handle a supervised closure uses to talk to its [`RunStore`].
#[derive(Debug)]
pub struct SuperviseCtx<'a> {
    store: &'a RunStore,
    fingerprint: &'a RunFingerprint,
    attempt: u32,
}

impl SuperviseCtx<'_> {
    /// 1-based attempt number (1 on the first run, 2 after one restart...).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The store this run checkpoints into.
    pub fn store(&self) -> &RunStore {
        self.store
    }

    /// This run's fingerprint.
    pub fn fingerprint(&self) -> &RunFingerprint {
        self.fingerprint
    }

    /// The newest valid record to resume from, if any.
    pub fn latest(&self) -> Result<Option<CheckpointRecord>> {
        self.store.latest_valid(self.fingerprint)
    }

    /// Write a checkpoint record at `step` ([`RunStore::save_checkpoint`]).
    pub fn checkpoint(&self, step: u64, payload: &Json) -> Result<PathBuf> {
        self.store.save_checkpoint(self.fingerprint, step, payload)
    }
}

/// Result of a [`supervise`]d computation.
#[derive(Debug)]
pub struct Supervised<T> {
    /// The successful attempt's return value.
    pub value: T,
    /// Total attempts spent, including the successful one.
    pub attempts: u32,
    /// One stringified failure (panic payload or error) per failed attempt.
    pub crashes: Vec<String>,
}

/// Run `body` under crash supervision.
///
/// Each attempt gets a fresh [`SuperviseCtx`]; the body is expected to call
/// [`SuperviseCtx::latest`] to pick up where the previous attempt's
/// checkpoints left off, and [`SuperviseCtx::checkpoint`] as it progresses.
/// A panic (e.g. an injected crash from the chaos harness) or an `Err` is
/// caught, the [`RetryPolicy`] delay is slept, and the body is restarted —
/// up to `policy.max_attempts` total attempts, after which the last error
/// is returned (a final panic surfaces as [`RobustError::Crash`] through
/// `E::from`).
pub fn supervise<T, E, F>(
    store: &RunStore,
    fingerprint: &RunFingerprint,
    policy: &RetryPolicy,
    mut body: F,
) -> std::result::Result<Supervised<T>, E>
where
    F: FnMut(&SuperviseCtx<'_>) -> std::result::Result<T, E>,
    E: From<RobustError> + std::fmt::Display,
{
    let max = policy.max_attempts.max(1);
    let mut crashes = Vec::new();
    for attempt in 1..=max {
        let ctx = SuperviseCtx {
            store,
            fingerprint,
            attempt,
        };
        match catch_quiet(|| body(&ctx)) {
            Ok(Ok(value)) => {
                return Ok(Supervised {
                    value,
                    attempts: attempt,
                    crashes,
                })
            }
            Ok(Err(e)) => {
                if attempt >= max {
                    return Err(e);
                }
                crashes.push(e.to_string());
            }
            Err(message) => {
                if attempt >= max {
                    return Err(E::from(RobustError::Crash(format!(
                        "attempt {attempt}/{max} panicked: {message}"
                    ))));
                }
                crashes.push(message);
            }
        }
        let delay = policy.delay_after(attempt);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }
    unreachable!("loop returns on the final attempt")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Payload prefix of the crashes these tests inject.
    const CHAOS_PANIC_PREFIX: &str = "chaos: injected operator panic";

    fn temp_store(tag: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("nde-durable-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        RunStore::open(dir).unwrap()
    }

    fn fp() -> RunFingerprint {
        RunFingerprint::new("tmc-shapley", 7, "perms=16;tol=0", 0xDA7A)
    }

    fn payload(step: u64) -> Json {
        Json::Obj(vec![
            ("cursor".into(), Json::UInt(step)),
            ("total".into(), Json::Float(0.1 * step as f64 + 1e-13)),
        ])
    }

    #[test]
    fn fingerprint_key_separates_runs() {
        let base = fp();
        assert!(base.key().starts_with("tmc-shapley-"));
        for other in [
            RunFingerprint::new("banzhaf", 7, "perms=16;tol=0", 0xDA7A),
            RunFingerprint::new("tmc-shapley", 8, "perms=16;tol=0", 0xDA7A),
            RunFingerprint::new("tmc-shapley", 7, "perms=32;tol=0", 0xDA7A),
            RunFingerprint::new("tmc-shapley", 7, "perms=16;tol=0", 0xDA7B),
        ] {
            assert_ne!(base.key(), other.key(), "{other:?}");
        }
    }

    #[test]
    fn save_then_latest_roundtrips_bit_identically() {
        let store = temp_store("roundtrip");
        let fp = fp();
        assert_eq!(store.latest_valid(&fp).unwrap(), None);
        for step in [3, 9, 27] {
            store.save_checkpoint(&fp, step, &payload(step)).unwrap();
        }
        let latest = store.latest_valid(&fp).unwrap().unwrap();
        assert_eq!(latest.step, 27);
        assert_eq!(latest.payload, payload(27));
        // Bit-identical float round-trip through the envelope.
        let v = latest.payload.get("total").unwrap().as_f64().unwrap();
        assert_eq!(v.to_bits(), (0.1 * 27.0 + 1e-13f64).to_bits());
        // A different fingerprint sees nothing.
        let other = RunFingerprint::new("banzhaf", 7, "perms=16;tol=0", 0xDA7A);
        assert_eq!(store.latest_valid(&other).unwrap(), None);
    }

    #[test]
    fn invalid_records_are_skipped_not_fatal() {
        let store = temp_store("skip");
        let fp = fp();
        for step in [1, 2, 3] {
            store.save_checkpoint(&fp, step, &payload(step)).unwrap();
        }
        let paths = store.record_paths(&fp).unwrap();
        assert_eq!(paths.len(), 3);
        // Truncate the newest (torn write): recovery falls back to step 2.
        let text = std::fs::read_to_string(&paths[2].1).unwrap();
        std::fs::write(&paths[2].1, &text[..text.len() / 2]).unwrap();
        assert_eq!(store.latest_valid(&fp).unwrap().unwrap().step, 2);
        // Corrupt step 2's checksum: falls back to step 1.
        let text = std::fs::read_to_string(&paths[1].1).unwrap();
        std::fs::write(&paths[1].1, text.replace("\"cursor\":2", "\"cursor\":20")).unwrap();
        assert_eq!(store.latest_valid(&fp).unwrap().unwrap().step, 1);
        // Stale format version on the last good record: nothing valid left.
        let text = std::fs::read_to_string(&paths[0].1).unwrap();
        std::fs::write(
            &paths[0].1,
            text.replace("\"format_version\":2", "\"format_version\":0"),
        )
        .unwrap();
        assert_eq!(store.latest_valid(&fp).unwrap(), None);
    }

    #[test]
    fn memo_cache_persists_across_processes() {
        let store = temp_store("memo");
        let fp = fp();
        let cache = MemoCache::new();
        cache.insert(u64::MAX - 3, 0.875);
        cache.insert(42, -0.1 + 1e-15);
        store.save_memo(&fp, &cache).unwrap();
        // "New process": a fresh cache warmed from disk.
        let warmed = MemoCache::new();
        assert_eq!(store.load_memo(&fp, &warmed).unwrap(), 2);
        assert_eq!(
            warmed.get(42).unwrap().to_bits(),
            (-0.1 + 1e-15f64).to_bits()
        );
        assert_eq!(warmed.get(u64::MAX - 3), Some(0.875));
        // Corrupt memo degrades to a cold start, not an error.
        let path = store.memo_path(&fp);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("0.875", "0.5")).unwrap();
        let cold = MemoCache::new();
        assert_eq!(store.load_memo(&fp, &cold).unwrap(), 0);
        assert!(cold.is_empty());
    }

    #[test]
    fn memo_log_appends_new_entries_and_loads_up_to_the_first_bad_record() {
        let store = temp_store("memo-log");
        let fp = fp();
        let cache = MemoCache::new();
        cache.insert(1, 0.25);
        let mark = store.save_memo(&fp, &cache).unwrap();
        // Nothing new: nothing appended.
        assert_eq!(store.append_memo(&fp, &cache, mark).unwrap(), mark);
        cache.insert(2, 0.5);
        cache.insert(1, 0.25);
        let mark = store.append_memo(&fp, &cache, mark).unwrap();
        cache.insert(3, 0.75);
        store.append_memo(&fp, &cache, mark).unwrap();
        let path = store.memo_path(&fp);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[1].contains("[[2,0.5]]"), "{}", lines[1]);
        let warmed = MemoCache::new();
        assert_eq!(store.load_memo(&fp, &warmed).unwrap(), 3);
        assert_eq!(warmed.entries(), cache.entries());
        // A bad middle record ends the load: the third is not read either.
        std::fs::write(&path, text.replacen("0.5]", "0.4]", 1)).unwrap();
        let partial = MemoCache::new();
        assert_eq!(store.load_memo(&fp, &partial).unwrap(), 1);
        assert_eq!(partial.entries(), vec![(1, 0.25)]);
        // Compaction rewrites the log as one record.
        store.save_memo(&fp, &cache).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
    }

    #[test]
    fn supervise_restarts_through_panics_and_resumes() {
        let store = temp_store("supervise");
        let fp = fp();
        let out: Supervised<u64> = supervise(
            &store,
            &fp,
            &RetryPolicy::immediate(5),
            |ctx: &SuperviseCtx<'_>| -> Result<u64> {
                // Resume from the last checkpoint, advance, crash twice.
                let start = ctx.latest()?.map_or(0, |r| r.step);
                let next = start + 1;
                ctx.checkpoint(next, &payload(next))?;
                if ctx.attempt() < 3 {
                    panic!("{CHAOS_PANIC_PREFIX}: kill at checkpoint {next}");
                }
                Ok(next)
            },
        )
        .unwrap();
        // Attempt 1 checkpoints step 1 and dies; attempt 2 resumes at 1,
        // checkpoints 2 and dies; attempt 3 resumes at 2 and finishes at 3.
        assert_eq!(out.value, 3);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.crashes.len(), 2);
        assert!(out
            .crashes
            .iter()
            .all(|c| c.starts_with(CHAOS_PANIC_PREFIX)));
        assert_eq!(store.latest_valid(&fp).unwrap().unwrap().step, 3);
    }

    #[test]
    fn supervise_exhaustion_is_a_typed_crash_error() {
        let store = temp_store("exhaust");
        let fp = fp();
        let out: std::result::Result<Supervised<()>, RobustError> = supervise(
            &store,
            &fp,
            &RetryPolicy::immediate(2),
            |_ctx: &SuperviseCtx<'_>| -> Result<()> { panic!("{CHAOS_PANIC_PREFIX}: hard down") },
        );
        assert!(matches!(out, Err(RobustError::Crash(_))));
        // Typed errors pass through unchanged on the final attempt.
        let out: std::result::Result<Supervised<()>, RobustError> = supervise(
            &store,
            &fp,
            &RetryPolicy::immediate(2),
            |_ctx: &SuperviseCtx<'_>| Err(RobustError::InvalidArgument("nope".into())),
        );
        assert!(matches!(out, Err(RobustError::InvalidArgument(_))));
    }
}
