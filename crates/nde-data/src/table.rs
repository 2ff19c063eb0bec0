//! In-memory columnar tables with relational operations.
//!
//! A [`Table`] owns one typed [`Plane`] per column: null bitmaps beside
//! `i64`/`f64`/`bool` vectors and dictionary-encoded strings. Joins are
//! radix-partitioned and read canonical keys plane to plane; equality scans
//! use [`Plane::filter_eq_rows`]. Join output and row lineage are
//! bit-identical for every thread count, and the `nde-tests` crate checks
//! every operation against a `Value`-per-cell reference table that shares
//! no storage code with this one.

use crate::fxhash::{hash_u64, FxHashMap};
use crate::par::WorkerFailure;
use crate::planes::{fits, Plane};
use crate::pool::WorkerPool;
use crate::schema::{Field, Schema};
use crate::value::{Value, ValueRef};
use crate::{DataError, Result};
use std::fmt;
use std::sync::atomic::AtomicBool;

/// Rows are probed in fixed-size chunks merged in chunk order, so parallel
/// joins produce bit-identical output (rows *and* row lineage) for every
/// thread count. The chunking is independent of `threads`.
const ROW_CHUNK: usize = 256;

/// Build-side partitions of the radix join. Fixed (never derived from the
/// thread count) so the partition a key lands in — and therefore the whole
/// join output — is identical for every `threads` value.
const RADIX_PARTITIONS: usize = 16;

/// The radix partition of a canonical join key: top bits of its Fx hash.
#[inline]
fn radix_partition(key: u64) -> usize {
    (hash_u64(key) >> 60) as usize
}

/// Join output plus per-output-row `(left_row, right_row)` lineage.
pub type JoinResult = (Table, Vec<(usize, usize)>);
/// Left-join output; unmatched left rows carry `None` on the right.
pub type LeftJoinResult = (Table, Vec<(usize, Option<usize>)>);

/// A named, schema-ful columnar table.
///
/// Rows are addressed by position (`usize`). Relational operations that keep
/// or combine rows also report the *row lineage* (which input positions each
/// output row came from) so that the pipeline crate can assemble fine-grained
/// provenance without re-deriving it.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    planes: Vec<Plane>,
    n_rows: usize,
}

/// Tables are equal iff name, schema, and logical cell contents match
/// (string cells compare by value, whatever their dictionary codes).
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.schema == other.schema
            && self.n_rows == other.n_rows
            && self.planes == other.planes
    }
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn empty(name: impl Into<String>, schema: Schema) -> Self {
        let planes = schema
            .fields()
            .iter()
            .map(|f| Plane::empty(f.dtype))
            .collect();
        Table {
            name: name.into(),
            schema,
            planes,
            n_rows: 0,
        }
    }

    /// Table name (used in plan rendering and provenance source labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.schema.len()
    }

    /// The plane of a column.
    pub fn plane(&self, name: &str) -> Result<&Plane> {
        Ok(&self.planes[self.schema.index_of(name)?])
    }

    /// A column's cells widened to `f64` ([`Plane::f64_at`]): ints widen,
    /// bools read 0/1, string and null cells read `None`.
    pub fn f64_cells(&self, name: &str) -> Result<impl ExactSizeIterator<Item = Option<f64>> + '_> {
        let plane = self.plane(name)?;
        Ok((0..self.n_rows).map(|row| plane.f64_at(row)))
    }

    /// Rows whose cell equals `value` under SQL equality, in ascending
    /// order, from a vectorized plane scan.
    pub fn filter_eq_rows(&self, name: &str, value: &Value) -> Result<Vec<usize>> {
        Ok(self.plane(name)?.filter_eq_rows(value))
    }

    /// Append a row of values (arity- and type-checked).
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        // Validate all cells first so a failed push cannot leave ragged columns.
        for (field, value) in self.schema.fields().iter().zip(&row) {
            if !fits(field.dtype, value) {
                return Err(DataError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.dtype.name(),
                    got: format!("{value:?}"),
                });
            }
        }
        for (plane, value) in self.planes.iter_mut().zip(row) {
            plane.push_value(value).expect("validated above");
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Get the cell at (`row`, `col_name`) as an owned [`Value`].
    pub fn get(&self, row: usize, col_name: &str) -> Result<Value> {
        let idx = self.schema.index_of(col_name)?;
        if row >= self.n_rows {
            return Err(DataError::RowOutOfBounds {
                index: row,
                len: self.n_rows,
            });
        }
        Ok(self.planes[idx].value(row))
    }

    /// Get the cell at (`row`, `col_name`) as a borrowed [`ValueRef`] —
    /// string cells borrow the backing storage instead of cloning.
    pub fn get_ref(&self, row: usize, col_name: &str) -> Result<ValueRef<'_>> {
        let idx = self.schema.index_of(col_name)?;
        if row >= self.n_rows {
            return Err(DataError::RowOutOfBounds {
                index: row,
                len: self.n_rows,
            });
        }
        Ok(self.planes[idx].value_ref(row))
    }

    /// Borrowed cell at (`row`, column position `idx`); `None` out of bounds.
    pub fn value_ref_at(&self, row: usize, idx: usize) -> Option<ValueRef<'_>> {
        if row >= self.n_rows || idx >= self.schema.len() {
            return None;
        }
        Some(self.planes[idx].value_ref(row))
    }

    /// Overwrite the cell at (`row`, `col_name`).
    pub fn set(&mut self, row: usize, col_name: &str, value: Value) -> Result<()> {
        let idx = self.schema.index_of(col_name)?;
        self.planes[idx].set_value(row, value).map_err(|e| match e {
            DataError::TypeMismatch { expected, got, .. } => DataError::TypeMismatch {
                column: col_name.to_owned(),
                expected,
                got,
            },
            other => other,
        })
    }

    /// Materialize a full row as values.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.n_rows {
            return Err(DataError::RowOutOfBounds {
                index: row,
                len: self.n_rows,
            });
        }
        Ok(self.planes.iter().map(|p| p.value(row)).collect())
    }

    /// New table with the rows at `indices` (repeats and reorders allowed).
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        for &i in indices {
            if i >= self.n_rows {
                return Err(DataError::RowOutOfBounds {
                    index: i,
                    len: self.n_rows,
                });
            }
        }
        Ok(Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            planes: self.planes.iter().map(|p| p.take(indices)).collect(),
            n_rows: indices.len(),
        })
    }

    /// Keep rows satisfying `pred`; returns the filtered table and the kept
    /// original row indices (the row lineage of the output).
    pub fn filter<F: FnMut(usize) -> bool>(&self, mut pred: F) -> (Table, Vec<usize>) {
        let kept: Vec<usize> = (0..self.n_rows).filter(|&i| pred(i)).collect();
        let table = self.take(&kept).expect("indices in bounds by construction");
        (table, kept)
    }

    /// New table with only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<Table> {
        let mut fields = Vec::with_capacity(names.len());
        let mut idxs = Vec::with_capacity(names.len());
        for &n in names {
            let idx = self.schema.index_of(n)?;
            fields.push(self.schema.fields()[idx].clone());
            idxs.push(idx);
        }
        let n_rows = if idxs.is_empty() { 0 } else { self.n_rows };
        Ok(Table {
            name: self.name.clone(),
            schema: Schema::new(fields)?,
            planes: idxs.iter().map(|&c| self.planes[c].clone()).collect(),
            n_rows,
        })
    }

    /// Drop the named columns.
    pub fn drop_columns(&self, names: &[&str]) -> Result<Table> {
        for &n in names {
            self.schema.index_of(n)?;
        }
        let keep: Vec<&str> = self
            .schema
            .names()
            .into_iter()
            .filter(|n| !names.contains(n))
            .collect();
        self.select(&keep)
    }

    /// Add a column on the right (length and type must match).
    pub fn add_column(&mut self, field: Field, plane: Plane) -> Result<()> {
        if plane.len() != self.n_rows {
            return Err(DataError::SchemaMismatch(format!(
                "new column `{}` has {} rows, table has {}",
                field.name,
                plane.len(),
                self.n_rows
            )));
        }
        if plane.data_type() != field.dtype {
            return Err(DataError::TypeMismatch {
                column: field.name.clone(),
                expected: field.dtype.name(),
                got: plane.data_type().name().to_owned(),
            });
        }
        self.schema.push(field)?;
        self.planes.push(plane);
        Ok(())
    }

    /// Append all rows of `other` (schemas must match exactly).
    pub fn append(&mut self, other: &Table) -> Result<()> {
        if self.schema != other.schema {
            return Err(DataError::SchemaMismatch(format!(
                "cannot append `{}` to `{}`: schemas differ",
                other.name, self.name
            )));
        }
        for (a, b) in self.planes.iter_mut().zip(&other.planes) {
            a.extend_from(b)?;
        }
        self.n_rows += other.n_rows;
        Ok(())
    }

    /// Inner hash join on `left_key` = `right_key`.
    ///
    /// Null keys never match (SQL semantics). Columns from `right` are added
    /// with their names, except the join key which is dropped; a name clash
    /// on a non-key column gets a `_right` suffix. Returns the joined table
    /// plus per-output-row lineage `(left_row, right_row)`.
    pub fn hash_join(&self, right: &Table, left_key: &str, right_key: &str) -> Result<JoinResult> {
        self.hash_join_par(right, left_key, right_key, 1)
    }

    /// [`Table::hash_join`] with a parallel probe phase. The build side is
    /// radix-partitioned on the key's hash prefix (partitions claimed
    /// through the resident worker pool); probe rows are
    /// processed in fixed chunks merged in index order — the joined table
    /// and lineage are bit-identical for every `threads` value.
    pub fn hash_join_par(
        &self,
        right: &Table,
        left_key: &str,
        right_key: &str,
        threads: usize,
    ) -> Result<JoinResult> {
        self.join_impl(right, left_key, right_key, false, threads)
            .map(|(t, lineage)| {
                let pairs = lineage
                    .into_iter()
                    .map(|(l, r)| (l, r.expect("inner join always has a right match")))
                    .collect();
                (t, pairs)
            })
    }

    /// Left outer hash join on `left_key` = `right_key`.
    ///
    /// Unmatched left rows appear once with nulls on the right side; lineage
    /// records `None` for their right row.
    pub fn left_join(
        &self,
        right: &Table,
        left_key: &str,
        right_key: &str,
    ) -> Result<LeftJoinResult> {
        self.left_join_par(right, left_key, right_key, 1)
    }

    /// [`Table::left_join`] with the parallel probe phase of
    /// [`Table::hash_join_par`]; output is thread-count invariant.
    pub fn left_join_par(
        &self,
        right: &Table,
        left_key: &str,
        right_key: &str,
        threads: usize,
    ) -> Result<LeftJoinResult> {
        self.join_impl(right, left_key, right_key, true, threads)
    }

    fn join_impl(
        &self,
        right: &Table,
        left_key: &str,
        right_key: &str,
        outer: bool,
        threads: usize,
    ) -> Result<LeftJoinResult> {
        let lk = self.schema.index_of(left_key)?;
        let rk = right.schema.index_of(right_key)?;
        if self.schema.fields()[lk].dtype != right.schema.fields()[rk].dtype {
            return Err(DataError::SchemaMismatch(format!(
                "join key types differ: {} vs {}",
                self.schema.fields()[lk].dtype,
                right.schema.fields()[rk].dtype
            )));
        }

        let lineage = self.probe_radix(right, lk, rk, outer, threads)?;
        let out = self.materialize_join(right, &lineage, rk)?;
        Ok((out, lineage))
    }

    /// Radix join kernel: canonical `u64` keys are read plane-to-plane
    /// (string keys join by dictionary-code remapping, never by string
    /// comparison), the build side is radix-partitioned on the key's hash
    /// prefix with partitions claimed through the resident worker pool, and
    /// the probe phase runs over fixed [`ROW_CHUNK`] row chunks merged in
    /// chunk order. Both the partition count and chunk size are independent
    /// of `threads`, and every per-partition row list is collected in
    /// ascending row order, so the lineage lists left rows in order, each
    /// with its right matches in ascending order, at every thread count.
    fn probe_radix(
        &self,
        right: &Table,
        lk: usize,
        rk: usize,
        outer: bool,
        threads: usize,
    ) -> Result<Vec<(usize, Option<usize>)>> {
        // For string keys, remap left dictionary codes into the right
        // dictionary's code space: one hash lookup per *distinct* left
        // value, not per row. A left value absent on the right can never
        // match, which is exactly how a null key behaves in both join types.
        let remap: Option<Vec<Option<u32>>> = match (&self.planes[lk], &right.planes[rk]) {
            (Plane::Str(lp), Plane::Str(rp)) => Some(
                lp.dict()
                    .values()
                    .iter()
                    .map(|s| rp.dict().code_of(s))
                    .collect(),
            ),
            _ => None,
        };
        let (lkeys, lvalid) = plane_join_keys(&self.planes[lk], remap.as_deref());
        let (rkeys, rvalid) = plane_join_keys(&right.planes[rk], None);

        // Build phase: workers claim whole partitions; each scans the right
        // key plane and keeps the rows hashing into its partition, in
        // ascending row order.
        let stop = AtomicBool::new(false);
        let parts = WorkerPool::shared()
            .map_indexed(threads, 0..RADIX_PARTITIONS as u64, &stop, |p| {
                let p = p as usize;
                let mut map: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
                for row in 0..right.n_rows {
                    if rvalid[row] && radix_partition(rkeys[row]) == p {
                        map.entry(rkeys[row]).or_default().push(row as u32);
                    }
                }
                Ok::<_, DataError>(map)
            })
            .map_err(|fail| match fail {
                WorkerFailure::Err(_, e) => e,
                WorkerFailure::Panic(_, msg) => {
                    DataError::InvalidArgument(format!("radix build worker panicked: {msg}"))
                }
            })?;
        let partitions: Vec<FxHashMap<u64, Vec<u32>>> = parts.into_iter().map(|(_, m)| m).collect();

        // Probe phase: chunked over left rows, merged in chunk order.
        let chunks = self.n_rows.div_ceil(ROW_CHUNK) as u64;
        let stop = AtomicBool::new(false);
        let parts = WorkerPool::shared()
            .map_indexed(threads, 0..chunks, &stop, |c| {
                let start = c as usize * ROW_CHUNK;
                let end = (start + ROW_CHUNK).min(self.n_rows);
                let mut part: Vec<(usize, Option<usize>)> = Vec::with_capacity(end - start);
                for row in start..end {
                    if lvalid[row] {
                        let key = lkeys[row];
                        match partitions[radix_partition(key)].get(&key) {
                            Some(rows) => {
                                part.extend(rows.iter().map(|&r| (row, Some(r as usize))))
                            }
                            None if outer => part.push((row, None)),
                            None => {}
                        }
                    } else if outer {
                        part.push((row, None));
                    }
                }
                Ok::<_, DataError>(part)
            })
            .map_err(|fail| match fail {
                WorkerFailure::Err(_, e) => e,
                WorkerFailure::Panic(_, msg) => {
                    DataError::InvalidArgument(format!("radix probe worker panicked: {msg}"))
                }
            })?;
        let mut lineage: Vec<(usize, Option<usize>)> = Vec::with_capacity(self.n_rows);
        for (_, part) in parts {
            lineage.extend(part);
        }
        Ok(lineage)
    }

    /// Materialize a join output from its `(left_row, right_row)` lineage:
    /// all left columns gathered at the left rows, then the right columns
    /// (minus the join key at position `right_key`, name clashes suffixed
    /// `_right`) gathered at the right rows with nulls for `None`.
    ///
    /// Gathers planes: string columns copy 4-byte dictionary codes and share
    /// the dictionary. Used by the hash joins and by `nde-pipeline`'s fuzzy
    /// join.
    pub fn materialize_join(
        &self,
        right: &Table,
        lineage: &[(usize, Option<usize>)],
        right_key: usize,
    ) -> Result<Table> {
        let mut fields: Vec<Field> = self.schema.fields().to_vec();
        for (ci, f) in right.schema.fields().iter().enumerate() {
            if ci == right_key {
                continue; // drop duplicate join key
            }
            fields.push(Field::new(self.join_right_name(&f.name), f.dtype));
        }
        let left_idx: Vec<usize> = lineage.iter().map(|&(l, _)| l).collect();

        let right_idx: Vec<Option<usize>> = lineage.iter().map(|&(_, r)| r).collect();
        let mut planes: Vec<Plane> = self.planes.iter().map(|p| p.take(&left_idx)).collect();
        for (ci, p) in right.planes.iter().enumerate() {
            if ci == right_key {
                continue;
            }
            planes.push(p.take_opt(&right_idx));
        }
        Ok(Table {
            name: self.name.clone(),
            schema: Schema::new(fields)?,
            planes,
            n_rows: lineage.len(),
        })
    }

    /// The name right-side column `column` takes in a join with `self` as
    /// the left input: unchanged, or suffixed `_right` when `self` already
    /// has a column of that name.
    pub fn join_right_name(&self, column: &str) -> String {
        if self.schema.contains(column) {
            format!("{column}_right")
        } else {
            column.to_string()
        }
    }

    /// Group rows by a key column, keeping the first occurrence of each
    /// distinct key value.
    ///
    /// Returns `(kept, owner)`: `kept` lists the surviving input rows in
    /// first-occurrence order, and `owner[row]` is the `kept` slot every
    /// input row collapsed into. Keys use hash-join equality (floats by bit
    /// pattern; all nulls form one class — within a typed column this is
    /// exactly `total_cmp == Equal` on same-typed values). Keys are read
    /// plane-to-plane (string columns group by dictionary code, no string
    /// materialization) in one sequential scan: the key extraction is too
    /// cheap to outweigh chunk scheduling.
    pub fn distinct_by(&self, key: &str) -> Result<(Vec<usize>, Vec<usize>)> {
        let k = self.schema.index_of(key)?;
        let (keys, valid) = plane_join_keys(&self.planes[k], None);
        let mut kept: Vec<usize> = Vec::new();
        let mut owner: Vec<usize> = Vec::with_capacity(self.n_rows);
        let mut slot_of: FxHashMap<Option<u64>, usize> = FxHashMap::default();
        for row in 0..self.n_rows {
            let key = valid[row].then_some(keys[row]);
            let next = kept.len();
            let slot = *slot_of.entry(key).or_insert(next);
            if slot == next {
                kept.push(row);
            }
            owner.push(slot);
        }
        Ok((kept, owner))
    }

    /// Stable sort by a column (nulls first); returns the sorted table and
    /// the original index of each output row.
    pub fn sort_by(&self, col_name: &str) -> Result<(Table, Vec<usize>)> {
        let col = self.plane(col_name)?;
        let mut idx: Vec<usize> = (0..self.n_rows).collect();
        idx.sort_by(|&a, &b| col.value_ref(a).total_cmp(&col.value_ref(b)));
        let table = self.take(&idx)?;
        Ok((table, idx))
    }

    /// Count of rows per distinct value of a column (nulls grouped under
    /// `Value::Null`), sorted by count descending with ties broken by value
    /// ascending.
    ///
    /// Counting goes through a hash map (one probe per row, not one scan per
    /// distinct value); dictionary-encoded string columns count per code
    /// with no hashing at all. The output order is deterministic: groups are
    /// accumulated in first-occurrence order and the final sort is stable.
    pub fn value_counts(&self, col_name: &str) -> Result<Vec<(Value, usize)>> {
        let plane = self.plane(col_name)?;

        // Dictionary fast path: count per code into a dense vector.
        if let Plane::Str(p) = plane {
            let (code_counts, nulls) = p.code_counts();
            let mut counts: Vec<(Value, usize)> = Vec::new();
            if nulls > 0 {
                counts.push((Value::Null, nulls));
            }
            for (code, &n) in code_counts.iter().enumerate() {
                if n > 0 {
                    counts.push((Value::Str(p.dict().value(code as u32).to_owned()), n));
                }
            }
            counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
            return Ok(counts);
        }

        // Other types: group through a hash map keyed on a canonical form
        // of the cell (floats canonicalize -0.0 to 0.0, matching
        // `total_cmp == Equal` grouping), keeping the first-seen value as
        // the group representative.
        let mut counts: Vec<(Value, usize)> = Vec::new();
        let mut slot_of: FxHashMap<Option<CountKey>, usize> = FxHashMap::default();
        for row in 0..self.n_rows {
            let v = plane.value(row);
            let key = CountKey::from_value(&v);
            let next = counts.len();
            let slot = *slot_of.entry(key).or_insert(next);
            if slot == next {
                counts.push((v, 1));
            } else {
                counts[slot].1 += 1;
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
        Ok(counts)
    }

    /// Fraction of missing cells per column, by column name order.
    pub fn missing_profile(&self) -> Vec<(String, f64)> {
        self.schema
            .fields()
            .iter()
            .enumerate()
            .map(|(ci, f)| {
                let frac = if self.n_rows == 0 {
                    0.0
                } else {
                    self.planes[ci].null_count() as f64 / self.n_rows as f64
                };
                (f.name.clone(), frac)
            })
            .collect()
    }

    /// Render the first `limit` rows as an aligned ASCII table.
    pub fn pretty(&self, limit: usize) -> String {
        let n = self.n_rows.min(limit);
        let headers: Vec<String> = self.schema.names().iter().map(|s| s.to_string()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(n);
        for row in 0..n {
            let mut r = Vec::with_capacity(self.n_cols());
            for (ci, width) in widths.iter_mut().enumerate() {
                let v = self.planes[ci].value_ref(row);
                let mut s = match v {
                    ValueRef::Null => "null".to_string(),
                    ValueRef::Int(x) => x.to_string(),
                    ValueRef::Float(x) => x.to_string(),
                    ValueRef::Str(x) => x.to_string(),
                    ValueRef::Bool(x) => x.to_string(),
                };
                if s.len() > 40 {
                    s.truncate(37);
                    s.push_str("...");
                }
                *width = (*width).max(s.len());
                r.push(s);
            }
            cells.push(r);
        }
        let mut out = String::new();
        let fmt_row = |vals: &[String], widths: &[usize]| -> String {
            let parts: Vec<String> = vals
                .iter()
                .zip(widths)
                .map(|(v, w)| format!("{v:<w$}", w = w))
                .collect();
            format!("| {} |", parts.join(" | "))
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        out.push('\n');
        for r in &cells {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        if self.n_rows > n {
            out.push_str(&format!("... {} more rows\n", self.n_rows - n));
        }
        out
    }
}

/// Canonical `u64` join keys for one plane, plus per-row validity (`false`
/// for null rows, and for string values that cannot exist on the build side
/// when a `remap` into the build dictionary is supplied).
///
/// The canonical forms are exact: `i64` by value (bijective into `u64`),
/// floats by bit pattern, bools as 0/1, strings by dictionary code.
fn plane_join_keys(plane: &Plane, remap: Option<&[Option<u32>]>) -> (Vec<u64>, Vec<bool>) {
    let n = plane.len();
    let mut keys = vec![0u64; n];
    let mut valid = vec![false; n];
    match plane {
        Plane::I64(p) => {
            for row in 0..n {
                keys[row] = p.values[row] as u64;
                valid[row] = !p.nulls.get(row);
            }
        }
        Plane::F64(p) => {
            for row in 0..n {
                keys[row] = p.values[row].to_bits();
                valid[row] = !p.nulls.get(row);
            }
        }
        Plane::Bool(p) => {
            for row in 0..n {
                keys[row] = p.values[row] as u64;
                valid[row] = !p.nulls.get(row);
            }
        }
        Plane::Str(p) => match remap {
            None => {
                for row in 0..n {
                    keys[row] = p.codes[row] as u64;
                    valid[row] = !p.nulls.get(row);
                }
            }
            Some(remap) => {
                for row in 0..n {
                    if !p.nulls.get(row) {
                        if let Some(code) = remap[p.codes[row] as usize] {
                            keys[row] = code as u64;
                            valid[row] = true;
                        }
                    }
                }
            }
        },
    }
    (keys, valid)
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} rows x {} cols]",
            self.name,
            self.n_rows,
            self.n_cols()
        )
    }
}

/// Grouping key for [`Table::value_counts`]: a non-null cell keyed by value,
/// floats by bit pattern with `-0.0` canonicalized to `0.0`, so grouping
/// matches `total_cmp == Equal` (which treats the two zero representations
/// as the same value).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CountKey {
    Int(i64),
    FloatBits(u64),
    Str(String),
    Bool(bool),
}

impl CountKey {
    fn from_value(v: &Value) -> Option<CountKey> {
        match v {
            Value::Null => None,
            Value::Int(x) => Some(CountKey::Int(*x)),
            Value::Float(x) => {
                let x = if *x == 0.0 { 0.0 } else { *x };
                Some(CountKey::FloatBits(x.to_bits()))
            }
            Value::Str(s) => Some(CountKey::Str(s.clone())),
            Value::Bool(b) => Some(CountKey::Bool(*b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn people() -> Table {
        let mut t = Table::empty(
            "people",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("name", DataType::Str),
                Field::new("age", DataType::Float),
            ])
            .unwrap(),
        );
        t.push_row(vec![1.into(), "ada".into(), 36.0.into()])
            .unwrap();
        t.push_row(vec![2.into(), "bob".into(), Value::Null])
            .unwrap();
        t.push_row(vec![3.into(), "eve".into(), 29.0.into()])
            .unwrap();
        t
    }

    fn jobs() -> Table {
        let mut t = Table::empty(
            "jobs",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("sector", DataType::Str),
            ])
            .unwrap(),
        );
        t.push_row(vec![1.into(), "health".into()]).unwrap();
        t.push_row(vec![3.into(), "tech".into()]).unwrap();
        t.push_row(vec![3.into(), "tech2".into()]).unwrap();
        t
    }

    #[test]
    fn push_and_get() {
        let t = people();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.get(0, "name").unwrap(), Value::Str("ada".into()));
        assert_eq!(t.get(1, "age").unwrap(), Value::Null);
        assert!(t.get(0, "nope").is_err());
        assert!(t.get(9, "name").is_err());
    }

    #[test]
    fn get_ref_borrows_without_cloning() {
        let t = people();
        assert_eq!(t.get_ref(0, "name").unwrap(), ValueRef::Str("ada"));
        assert_eq!(t.get_ref(1, "age").unwrap(), ValueRef::Null);
        assert_eq!(t.get_ref(2, "id").unwrap(), ValueRef::Int(3));
        assert!(t.get_ref(0, "nope").is_err());
        assert!(t.get_ref(9, "name").is_err());
        // By-position access for serializers.
        assert_eq!(t.value_ref_at(0, 1), Some(ValueRef::Str("ada")));
        assert_eq!(t.value_ref_at(9, 0), None);
        assert_eq!(t.value_ref_at(0, 9), None);
    }

    #[test]
    fn plane_views_expose_typed_columns() {
        let t = people();
        let Ok(Plane::I64(ids)) = t.plane("id") else {
            panic!("`id` is an Int plane")
        };
        assert_eq!(ids.values, vec![1, 2, 3]);
        assert_eq!(ids.null_count(), 0);
        let Ok(Plane::F64(ages)) = t.plane("age") else {
            panic!("`age` is a Float plane")
        };
        assert_eq!(ages.get(0), Some(36.0));
        assert_eq!(ages.get(1), None);
        let Ok(Plane::Str(names)) = t.plane("name") else {
            panic!("`name` is a Str plane")
        };
        assert_eq!(names.get(2), Some("eve"));
        assert_eq!(names.dict().len(), 3);
        assert!(matches!(
            t.plane("nope"),
            Err(DataError::UnknownColumn(c)) if c == "nope"
        ));
    }

    #[test]
    fn columnar_stat_hooks() {
        let t = people();
        assert_eq!(t.filter_eq_rows("id", &Value::Int(3)).unwrap(), vec![2]);
        assert!(t.filter_eq_rows("nope", &Value::Int(3)).is_err());
    }

    #[test]
    fn push_row_validates_before_mutating() {
        let mut t = people();
        // Wrong type in the last column: nothing must be appended.
        let err = t.push_row(vec![4.into(), "zed".into(), "oops".into()]);
        assert!(err.is_err());
        assert_eq!(t.n_rows(), 3);
        for name in t.schema().names() {
            assert_eq!(t.plane(name).unwrap().len(), 3);
        }
    }

    #[test]
    fn push_row_rejects_a_mixed_row_naming_its_column() {
        let mut t = people();
        let before = t.clone();
        // Valid cells (an int widening into the float column, a null)
        // before and after the one that does not fit.
        let rows = [
            (vec![4.into(), Value::Int(7), "x".into()], "name", "Str"),
            (vec![Value::Null, "dan".into(), true.into()], "age", "Float"),
            (vec![2.5.into(), "dan".into(), 40.into()], "id", "Int"),
        ];
        for (row, column, expected) in rows {
            let got = format!("{:?}", row[t.schema().index_of(column).unwrap()]);
            assert_eq!(
                t.push_row(row),
                Err(DataError::TypeMismatch {
                    column: column.into(),
                    expected,
                    got,
                })
            );
            assert_eq!(t, before);
        }
        // The same cells in the right columns fit.
        t.push_row(vec![4.into(), Value::Null, 40.into()]).unwrap();
        assert_eq!(t.get(3, "age").unwrap(), Value::Float(40.0));
        assert!(t.get(3, "name").unwrap().is_null());
    }

    #[test]
    fn arity_checked() {
        let mut t = people();
        assert!(matches!(
            t.push_row(vec![1.into()]),
            Err(DataError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn take_filter_select() {
        let t = people();
        let (young, kept) = t.filter(|i| {
            t.get(i, "age")
                .unwrap()
                .as_float()
                .map(|a| a < 35.0)
                .unwrap_or(false)
        });
        assert_eq!(kept, vec![2]);
        assert_eq!(young.get(0, "name").unwrap(), Value::Str("eve".into()));

        let s = t.select(&["name", "id"]).unwrap();
        assert_eq!(s.schema().names(), vec!["name", "id"]);
        assert!(t.select(&["nope"]).is_err());

        let d = t.drop_columns(&["age"]).unwrap();
        assert_eq!(d.schema().names(), vec!["id", "name"]);
    }

    #[test]
    fn inner_join_with_duplicates_and_lineage() {
        let (joined, lineage) = people().hash_join(&jobs(), "id", "id").unwrap();
        // id=1 matches once, id=2 not at all, id=3 twice.
        assert_eq!(joined.n_rows(), 3);
        assert_eq!(lineage, vec![(0, 0), (2, 1), (2, 2)]);
        assert_eq!(
            joined.get(0, "sector").unwrap(),
            Value::Str("health".into())
        );
        assert_eq!(joined.get(2, "sector").unwrap(), Value::Str("tech2".into()));
        // Join key from the right side is dropped.
        assert!(!joined.schema().contains("id_right"));
    }

    #[test]
    fn left_join_keeps_unmatched_with_nulls() {
        let (joined, lineage) = people().left_join(&jobs(), "id", "id").unwrap();
        assert_eq!(joined.n_rows(), 4);
        assert_eq!(lineage[1], (1, None));
        assert_eq!(joined.get(1, "sector").unwrap(), Value::Null);
    }

    #[test]
    fn null_keys_never_match() {
        let mut l = people();
        l.set(0, "id", Value::Null).unwrap();
        let (joined, _) = l.hash_join(&jobs(), "id", "id").unwrap();
        // Only id=3 matches now (twice).
        assert_eq!(joined.n_rows(), 2);
    }

    #[test]
    fn join_type_mismatch_rejected() {
        let t = people();
        assert!(t.hash_join(&jobs(), "name", "id").is_err());
    }

    #[test]
    fn string_key_join_matches_across_dictionaries() {
        // Left and right dictionaries intern in different orders; the radix
        // kernel must join by remapped codes, not raw code values.
        let mut left = Table::empty(
            "l",
            Schema::new(vec![
                Field::new("k", DataType::Str),
                Field::new("i", DataType::Int),
            ])
            .unwrap(),
        );
        for (i, s) in ["b", "a", "c", "b"].iter().enumerate() {
            left.push_row(vec![(*s).into(), (i as i64).into()]).unwrap();
        }
        left.push_row(vec![Value::Null, 9.into()]).unwrap();
        let mut right = Table::empty(
            "r",
            Schema::new(vec![
                Field::new("k", DataType::Str),
                Field::new("tag", DataType::Str),
            ])
            .unwrap(),
        );
        for (s, t) in [("a", "ta"), ("b", "tb"), ("z", "tz")] {
            right.push_row(vec![s.into(), t.into()]).unwrap();
        }
        let (joined, lineage) = left.hash_join(&right, "k", "k").unwrap();
        assert_eq!(lineage, vec![(0, 1), (1, 0), (3, 1)]);
        assert_eq!(joined.get(0, "tag").unwrap(), Value::Str("tb".into()));
        assert_eq!(joined.get(1, "tag").unwrap(), Value::Str("ta".into()));
    }

    #[test]
    fn sort_nulls_first() {
        let (sorted, perm) = people().sort_by("age").unwrap();
        assert_eq!(perm, vec![1, 2, 0]);
        assert_eq!(sorted.get(0, "age").unwrap(), Value::Null);
    }

    #[test]
    fn value_counts_descending() {
        let t = jobs();
        let counts = t.value_counts("id").unwrap();
        assert_eq!(counts[0], (Value::Int(3), 2));
        assert_eq!(counts[1], (Value::Int(1), 1));
    }

    #[test]
    fn value_counts_groups_nulls_and_sorts_ties_by_value() {
        let mut t = Table::empty(
            "t",
            Schema::new(vec![Field::new("s", DataType::Str)]).unwrap(),
        );
        for v in ["b", "a", "b", "a", "c"] {
            t.push_row(vec![v.into()]).unwrap();
        }
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let counts = t.value_counts("s").unwrap();
        // a and b tie at 2: value-ascending order; null group counted.
        assert_eq!(
            counts,
            vec![
                (Value::Null, 2),
                (Value::Str("a".into()), 2),
                (Value::Str("b".into()), 2),
                (Value::Str("c".into()), 1),
            ]
        );
    }

    #[test]
    fn append_and_schema_mismatch() {
        let mut a = people();
        let b = people();
        a.append(&b).unwrap();
        assert_eq!(a.n_rows(), 6);
        let c = jobs();
        assert!(a.append(&c).is_err());
    }

    #[test]
    fn missing_profile_reports_fractions() {
        let t = people();
        let prof = t.missing_profile();
        let age = prof.iter().find(|(n, _)| n == "age").unwrap();
        assert!((age.1 - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn add_column_checks_length_and_type() {
        let plane = |dtype, cells: &[Value]| {
            let mut p = Plane::empty(dtype);
            for v in cells {
                p.push_value(v.clone()).unwrap();
            }
            p
        };
        let mut t = people();
        let ok = plane(DataType::Bool, &[true.into(), false.into(), Value::Null]);
        t.add_column(Field::new("flag", DataType::Bool), ok)
            .unwrap();
        assert_eq!(t.n_cols(), 4);
        assert_eq!(t.get(2, "flag").unwrap(), Value::Null);
        let short = plane(DataType::Bool, &[true.into()]);
        assert!(t
            .add_column(Field::new("flag2", DataType::Bool), short)
            .is_err());
        let wrong = plane(DataType::Int, &[1.into(), 2.into(), 3.into()]);
        assert!(t
            .add_column(Field::new("flag3", DataType::Bool), wrong)
            .is_err());
        assert_eq!(t.n_cols(), 4);
    }

    #[test]
    fn f64_cells_widen_numeric_and_bool_cells() {
        let mut t = people();
        let flags = [true.into(), Value::Null, false.into()];
        let mut p = Plane::empty(DataType::Bool);
        for v in flags {
            p.push_value(v).unwrap();
        }
        t.add_column(Field::new("flag", DataType::Bool), p).unwrap();
        let cells = |name| t.f64_cells(name).unwrap().collect::<Vec<_>>();
        // Ints widen; floats come back bit for bit, nulls as `None`.
        assert_eq!(cells("id"), vec![Some(1.0), Some(2.0), Some(3.0)]);
        assert_eq!(cells("age"), vec![Some(36.0), None, Some(29.0)]);
        // Bools read 0/1; strings have no numeric cells.
        assert_eq!(cells("flag"), vec![Some(1.0), None, Some(0.0)]);
        assert_eq!(cells("name"), vec![None, None, None]);
        assert_eq!(t.f64_cells("id").unwrap().len(), 3);
        assert!(matches!(
            t.f64_cells("nope").err(),
            Some(DataError::UnknownColumn(c)) if c == "nope"
        ));
    }

    #[test]
    fn pretty_prints_header_and_rows() {
        let s = people().pretty(2);
        assert!(s.contains("name"));
        assert!(s.contains("ada"));
        assert!(s.contains("1 more rows"));
    }

    /// A left table big enough to span several probe chunks, with nulls,
    /// duplicate keys, and misses sprinkled in.
    fn wide_tables() -> (Table, Table) {
        let mut left = Table::empty(
            "left",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("pos", DataType::Int),
            ])
            .unwrap(),
        );
        for i in 0..1000i64 {
            let key = if i % 97 == 0 {
                Value::Null
            } else {
                Value::Int(i % 61)
            };
            left.push_row(vec![key, i.into()]).unwrap();
        }
        let mut right = Table::empty(
            "right",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("tag", DataType::Str),
            ])
            .unwrap(),
        );
        for i in 0..50i64 {
            right
                .push_row(vec![i.into(), format!("tag{i}").into()])
                .unwrap();
            if i % 7 == 0 {
                right
                    .push_row(vec![i.into(), format!("dup{i}").into()])
                    .unwrap();
            }
        }
        (left, right)
    }

    #[test]
    fn parallel_join_is_bit_identical_to_sequential() {
        let (left, right) = wide_tables();
        let (seq, seq_lineage) = left.hash_join(&right, "k", "k").unwrap();
        for threads in [2, 4, 7] {
            let (par, par_lineage) = left.hash_join_par(&right, "k", "k", threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(par_lineage, seq_lineage, "threads={threads}");
        }
        let (lseq, lseq_lineage) = left.left_join(&right, "k", "k").unwrap();
        assert!(lseq.n_rows() > seq.n_rows(), "outer keeps unmatched rows");
        for threads in [2, 4, 7] {
            let (lpar, lpar_lineage) = left.left_join_par(&right, "k", "k", threads).unwrap();
            assert_eq!(lpar, lseq, "threads={threads}");
            assert_eq!(lpar_lineage, lseq_lineage, "threads={threads}");
        }
    }

    #[test]
    fn distinct_by_keeps_first_occurrence() {
        let (left, _) = wide_tables();
        let (kept, owner) = left.distinct_by("k").unwrap();
        // 61 int keys + the null class.
        assert_eq!(kept.len(), 62);
        assert_eq!(owner.len(), left.n_rows());
        // Every row's owner slot holds an equal key (nulls group together).
        for (row, &slot) in owner.iter().enumerate() {
            let a = left.get(row, "k").unwrap();
            let b = left.get(kept[slot], "k").unwrap();
            assert_eq!(a.is_null(), b.is_null());
            if !a.is_null() {
                assert_eq!(a, b);
            }
        }
        // First occurrence wins: kept rows appear in ascending order and
        // own themselves.
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        for (slot, &row) in kept.iter().enumerate() {
            assert_eq!(owner[row], slot);
        }
    }

    #[test]
    fn distinct_by_unknown_column_rejected() {
        let (left, _) = wide_tables();
        assert!(left.distinct_by("nope").is_err());
    }
}
