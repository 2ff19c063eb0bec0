//! Fuzzy string matching and fuzzy joins.
//!
//! Fig. 3's pipeline description includes "(fuzzy) joins": real integration
//! pipelines match keys like names or addresses that differ by typos or
//! formatting. We provide normalized Levenshtein similarity and a
//! [`fuzzy_join`] that pairs each left row with its best-scoring right row
//! above a threshold — with the same lineage reporting as the exact joins,
//! so provenance tracking extends to fuzzy matching unchanged.

use crate::{PipelineError, Result};
use nde_data::par::WorkerFailure;
use nde_data::planes::{Plane, StrPlane};
use nde_data::pool::WorkerPool;
use nde_data::Table;
use std::sync::atomic::AtomicBool;

/// Levenshtein edit distance between two strings (bytewise on chars).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Single-row DP.
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalized similarity in `[0, 1]`: `1 − distance / max_len` after
/// lowercasing and trimming. Two empty strings are fully similar.
pub fn similarity(a: &str, b: &str) -> f64 {
    let a = a.trim().to_lowercase();
    let b = b.trim().to_lowercase();
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(&a, &b) as f64 / max_len as f64
}

/// Fuzzy inner join on string keys: each left row matches the single
/// highest-similarity right row with `similarity >= threshold` (ties broken
/// by the lower right index). Unmatched left rows are dropped. Returns the
/// joined table and the `(left_row, right_row)` lineage.
///
/// Cost is `O(|L| · |R|)` similarity computations — fuzzy matching has no
/// hash shortcut; keep it for the smaller dimension tables it is meant for.
pub fn fuzzy_join(
    left: &Table,
    right: &Table,
    left_key: &str,
    right_key: &str,
    threshold: f64,
) -> Result<(Table, Vec<(usize, usize)>)> {
    fuzzy_join_par(left, right, left_key, right_key, threshold, 1)
}

/// [`fuzzy_join`] with parallel matching: each left value's best match
/// depends only on that value, so work merged in index order gives
/// bit-identical output for every `threads` value.
///
/// Both key columns must be string columns, which are dictionary-encoded:
/// the expensive similarity scan runs once per **distinct** left value
/// against the **distinct** right values (parallel over left dictionary
/// codes), and a per-row lookup table replaces the per-row `O(|R|)` scan.
pub fn fuzzy_join_par(
    left: &Table,
    right: &Table,
    left_key: &str,
    right_key: &str,
    threshold: f64,
    threads: usize,
) -> Result<(Table, Vec<(usize, usize)>)> {
    if !(0.0..=1.0).contains(&threshold) {
        return Err(PipelineError::InvalidPlan(format!(
            "fuzzy threshold must be in [0,1], got {threshold}"
        )));
    }
    let lineage = match_by_dictionary(
        key_plane(left, left_key)?,
        key_plane(right, right_key)?,
        threshold,
        threads,
    )?;

    // Materialize with the hash-join conventions (right key dropped, name
    // clashes suffixed `_right`).
    let rk = right.schema().index_of(right_key)?;
    let opt_lineage: Vec<(usize, Option<usize>)> =
        lineage.iter().map(|&(l, r)| (l, Some(r))).collect();
    let out = left.materialize_join(right, &opt_lineage, rk)?;
    Ok((out, lineage))
}

/// The string plane of a fuzzy join key column.
fn key_plane<'a>(t: &'a Table, key: &str) -> Result<&'a StrPlane> {
    match t.plane(key)? {
        Plane::Str(p) => Ok(p),
        _ => Err(PipelineError::InvalidPlan(format!(
            "fuzzy join key `{key}` must be a string column"
        ))),
    }
}

/// Score distinct left values (dictionary codes) against distinct right
/// values, then expand per-row lineage through the code lookup table. Right
/// candidates are visited in first-occurrence row order with a strict `>`
/// improvement test, so among equally similar right rows the lowest wins.
fn match_by_dictionary(
    lp: &StrPlane,
    rp: &StrPlane,
    threshold: f64,
    threads: usize,
) -> Result<Vec<(usize, usize)>> {
    // Distinct right candidates as (first_row, code), in first-occurrence
    // order. Rows after a code's first carry equal similarity and can never
    // win a strict-improvement test, so they are skipped entirely.
    let mut seen = vec![false; rp.dict().len()];
    let mut candidates: Vec<(usize, u32)> = Vec::new();
    for row in 0..rp.len() {
        if !rp.nulls.get(row) {
            let code = rp.codes[row];
            if !seen[code as usize] {
                seen[code as usize] = true;
                candidates.push((row, code));
            }
        }
    }

    // Best right row per left dictionary code, parallel over codes. The
    // dictionary may hold values no surviving row references (shared across
    // row subsets); scoring them is wasted-but-bounded work.
    let n_codes = lp.dict().len() as u64;
    let stop = AtomicBool::new(false);
    let parts = WorkerPool::shared()
        .map_indexed(threads, 0..n_codes, &stop, |code| {
            let lv = lp.dict().value(code as u32);
            let mut best: Option<(usize, f64)> = None;
            for &(ri, rcode) in &candidates {
                let sim = similarity(lv, rp.dict().value(rcode));
                if sim >= threshold && best.is_none_or(|(_, b)| sim > b) {
                    best = Some((ri, sim));
                }
            }
            Ok::<_, PipelineError>(best.map(|(ri, _)| ri))
        })
        .map_err(|fail| match fail {
            WorkerFailure::Err(_, e) => e,
            // Unreachable in practice: similarity scoring does not panic.
            WorkerFailure::Panic(_, msg) => {
                PipelineError::InvalidPlan(format!("fuzzy join worker panicked: {msg}"))
            }
        })?;
    let best_of_code: Vec<Option<usize>> = parts.into_iter().map(|(_, b)| b).collect();

    let mut lineage: Vec<(usize, usize)> = Vec::new();
    for row in 0..lp.len() {
        if !lp.nulls.get(row) {
            if let Some(ri) = best_of_code[lp.codes[row] as usize] {
                lineage.push((row, ri));
            }
        }
    }
    Ok(lineage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::{DataType, Field, Schema, Value};

    fn companies() -> Table {
        let mut t = Table::empty(
            "companies",
            Schema::new(vec![
                Field::new("name", DataType::Str),
                Field::new("rating", DataType::Float),
            ])
            .unwrap(),
        );
        t.push_row(vec!["Acme Corp".into(), 4.5.into()]).unwrap();
        t.push_row(vec!["Globex".into(), 3.2.into()]).unwrap();
        t.push_row(vec!["Initech".into(), 2.8.into()]).unwrap();
        t
    }

    fn mentions() -> Table {
        let mut t = Table::empty(
            "mentions",
            Schema::new(vec![
                Field::new("employer", DataType::Str),
                Field::new("person", DataType::Int),
            ])
            .unwrap(),
        );
        t.push_row(vec!["acme corp.".into(), 1.into()]).unwrap(); // typo-ish
        t.push_row(vec!["GLOBEX".into(), 2.into()]).unwrap(); // case
        t.push_row(vec!["Umbrella".into(), 3.into()]).unwrap(); // no match
        t.push_row(vec![Value::Null, 4.into()]).unwrap(); // null key
        t
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "ab"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn similarity_normalizes_case_and_space() {
        assert_eq!(similarity("", ""), 1.0);
        assert_eq!(similarity("Acme", " acme "), 1.0);
        assert!(similarity("acme corp", "acme corp.") > 0.85);
        assert!(similarity("acme", "umbrella") < 0.3);
    }

    #[test]
    fn fuzzy_join_matches_despite_typos() {
        let (joined, lineage) =
            fuzzy_join(&mentions(), &companies(), "employer", "name", 0.75).unwrap();
        // acme corp. -> Acme Corp; GLOBEX -> Globex; Umbrella and Null drop.
        assert_eq!(lineage, vec![(0, 0), (1, 1)]);
        assert_eq!(joined.n_rows(), 2);
        assert_eq!(joined.get(0, "rating").unwrap(), Value::Float(4.5));
        assert_eq!(joined.get(1, "rating").unwrap(), Value::Float(3.2));
        // Right key column is dropped.
        assert!(!joined.schema().contains("name"));
    }

    #[test]
    fn threshold_one_requires_normalized_equality() {
        let (joined, lineage) =
            fuzzy_join(&mentions(), &companies(), "employer", "name", 1.0).unwrap();
        // Only GLOBEX == Globex after normalization.
        assert_eq!(lineage, vec![(1, 1)]);
        assert_eq!(joined.n_rows(), 1);
    }

    #[test]
    fn best_match_wins_among_candidates() {
        let mut near = companies();
        near.push_row(vec!["Acme Corp.".into(), 9.9.into()])
            .unwrap();
        let (joined, lineage) = fuzzy_join(&mentions(), &near, "employer", "name", 0.75).unwrap();
        // "acme corp." matches the exact-normalized "Acme Corp." (row 3)
        // rather than "Acme Corp" (row 0).
        assert_eq!(lineage[0], (0, 3));
        assert_eq!(joined.get(0, "rating").unwrap(), Value::Float(9.9));
    }

    #[test]
    fn validates_arguments() {
        assert!(fuzzy_join(&mentions(), &companies(), "employer", "name", 1.5).is_err());
        assert!(fuzzy_join(&mentions(), &companies(), "person", "name", 0.5).is_err());
        assert!(fuzzy_join(&mentions(), &companies(), "employer", "rating", 0.5).is_err());
    }

    #[test]
    fn parallel_fuzzy_join_is_bit_identical() {
        // Enough left rows to span several chunks, with variants of every
        // company name plus misses and nulls.
        let mut left = Table::empty(
            "left",
            Schema::new(vec![
                Field::new("employer", DataType::Str),
                Field::new("row", DataType::Int),
            ])
            .unwrap(),
        );
        let variants = [
            "acme corp.",
            "ACME CORP",
            "globexx",
            "initech inc",
            "umbrella",
        ];
        for i in 0..300i64 {
            let v = if i % 41 == 0 {
                Value::Null
            } else {
                Value::Str(variants[i as usize % variants.len()].into())
            };
            left.push_row(vec![v, i.into()]).unwrap();
        }
        let (seq, seq_lineage) =
            fuzzy_join_par(&left, &companies(), "employer", "name", 0.6, 1).unwrap();
        assert!(seq.n_rows() > 0);
        for threads in [2, 4, 7] {
            let (par, par_lineage) =
                fuzzy_join_par(&left, &companies(), "employer", "name", 0.6, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(par_lineage, seq_lineage, "threads={threads}");
        }
    }
}
