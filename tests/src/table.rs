//! The `Value`-per-cell reference table the columnar [`Table`] is checked
//! against.
//!
//! [`RefTable`] stores every column as a `Vec<Value>` and reads the columnar
//! table only through its public cell accessors, never through its typed
//! storage, so the two share no code below the [`Value`] type. Cells follow
//! the table's type rules (`cell`): `Null` fits any column, ints widen
//! into float columns, and a misfit is the same `TypeMismatch`. Its joins
//! build one hash map over the right side's [`Value`] keys and probe in
//! fixed chunks, its join output is gathered cell by cell, and
//! `distinct_by` and `value_counts` hash whole values: the seed algorithms
//! the radix join, the typed gathers and the dictionary scans of the
//! columnar table must reproduce bit for bit.

use nde_data::fxhash::FxHashMap;
use nde_data::par::WorkerFailure;
use nde_data::pool::WorkerPool;
use nde_data::{DataError, DataType, Field, Schema, Table, Value, ValueRef};
use std::sync::atomic::AtomicBool;

type Result<T> = std::result::Result<T, DataError>;
/// Inner-join output plus `(left_row, right_row)` lineage.
pub type RefJoin = (RefTable, Vec<(usize, usize)>);
/// Left-join output; unmatched left rows carry `None` on the right.
pub type RefLeftJoin = (RefTable, Vec<(usize, Option<usize>)>);

/// Rows per probe or key-extraction chunk. Chunks merge in order, so the
/// output is the same at every thread count.
const ROW_CHUNK: usize = 256;

/// A named table stored as one `Vec<Value>` per field.
#[derive(Debug, Clone)]
pub struct RefTable {
    name: String,
    schema: Schema,
    columns: Vec<Vec<Value>>,
}

/// `value` as a cell of a `dtype` column: `Null` fits any column and ints
/// widen into float columns; any other misfit is a `TypeMismatch` naming no
/// column.
fn cell(dtype: DataType, value: Value) -> Result<Value> {
    match (dtype, value) {
        (DataType::Float, Value::Int(x)) => Ok(Value::Float(x as f64)),
        (_, Value::Null) => Ok(Value::Null),
        (dtype, value) if value.data_type() == Some(dtype) => Ok(value),
        (dtype, value) => Err(DataError::TypeMismatch {
            column: String::new(),
            expected: dtype.name(),
            got: format!("{value:?}"),
        }),
    }
}

impl RefTable {
    /// The reference copy of a columnar table: same name, schema and cells,
    /// read cell by cell.
    pub fn from_table(t: &Table) -> RefTable {
        RefTable {
            name: t.name().to_string(),
            schema: t.schema().clone(),
            columns: (0..t.n_cols())
                .map(|c| {
                    (0..t.n_rows())
                        .map(|r| t.value_ref_at(r, c).expect("in bounds").to_value())
                        .collect()
                })
                .collect(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Owned cell value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col][row].clone()
    }

    /// Borrowed cell value at (`row`, `col`).
    pub fn value_ref(&self, row: usize, col: usize) -> ValueRef<'_> {
        ValueRef::from_value(&self.columns[col][row])
    }

    fn check_row(&self, row: usize) -> Result<()> {
        if row >= self.n_rows() {
            return Err(DataError::RowOutOfBounds {
                index: row,
                len: self.n_rows(),
            });
        }
        Ok(())
    }

    /// The cell at (`row`, `col_name`).
    pub fn get(&self, row: usize, col_name: &str) -> Result<Value> {
        let idx = self.schema.index_of(col_name)?;
        self.check_row(row)?;
        Ok(self.value(row, idx))
    }

    /// The borrowed cell at (`row`, `col_name`).
    pub fn get_ref(&self, row: usize, col_name: &str) -> Result<ValueRef<'_>> {
        let idx = self.schema.index_of(col_name)?;
        self.check_row(row)?;
        Ok(self.value_ref(row, idx))
    }

    /// Append a row; every cell is type-checked before any column grows.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        let cells = self
            .schema
            .fields()
            .iter()
            .zip(row)
            .map(|(field, value)| cell(field.dtype, value).map_err(|e| named(e, &field.name)))
            .collect::<Result<Vec<Value>>>()?;
        for (col, value) in self.columns.iter_mut().zip(cells) {
            col.push(value);
        }
        Ok(())
    }

    /// Overwrite the cell at (`row`, `col_name`): bounds first, then type.
    pub fn set(&mut self, row: usize, col_name: &str, value: Value) -> Result<()> {
        let idx = self.schema.index_of(col_name)?;
        self.check_row(row)?;
        let dtype = self.schema.fields()[idx].dtype;
        self.columns[idx][row] = cell(dtype, value).map_err(|e| named(e, col_name))?;
        Ok(())
    }

    /// The rows at `indices`, bounds-checked.
    pub fn take(&self, indices: &[usize]) -> Result<RefTable> {
        for &i in indices {
            self.check_row(i)?;
        }
        Ok(RefTable {
            columns: self.columns.iter().map(|c| gather(c, indices)).collect(),
            ..self.clone()
        })
    }

    /// Rows satisfying `pred`, and their input positions.
    pub fn filter<F: FnMut(usize) -> bool>(&self, mut pred: F) -> (RefTable, Vec<usize>) {
        let kept: Vec<usize> = (0..self.n_rows()).filter(|&i| pred(i)).collect();
        (self.take(&kept).expect("in bounds"), kept)
    }

    /// The named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<RefTable> {
        let idxs = names
            .iter()
            .map(|n| self.schema.index_of(n))
            .collect::<Result<Vec<usize>>>()?;
        Ok(RefTable {
            name: self.name.clone(),
            schema: Schema::new(
                idxs.iter()
                    .map(|&i| self.schema.fields()[i].clone())
                    .collect(),
            )?,
            columns: idxs.iter().map(|&i| self.columns[i].clone()).collect(),
        })
    }

    /// Every column except the named ones.
    pub fn drop_columns(&self, names: &[&str]) -> Result<RefTable> {
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

    /// Add a column on the right: one cell per row, each fitting the
    /// field's type.
    pub fn add_column(&mut self, field: Field, cells: Vec<Value>) -> Result<()> {
        if cells.len() != self.n_rows() {
            return Err(DataError::SchemaMismatch(format!(
                "column `{}` does not fit",
                field.name
            )));
        }
        let column = cells
            .into_iter()
            .map(|v| cell(field.dtype, v).map_err(|e| named(e, &field.name)))
            .collect::<Result<Vec<Value>>>()?;
        self.schema.push(field)?;
        self.columns.push(column);
        Ok(())
    }

    /// Append all rows of `other` (schemas must match exactly).
    pub fn append(&mut self, other: &RefTable) -> Result<()> {
        if self.schema != other.schema {
            return Err(DataError::SchemaMismatch("schemas differ".into()));
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.extend(b.iter().cloned());
        }
        Ok(())
    }

    /// Fraction of null cells per column.
    pub fn missing_profile(&self) -> Vec<(String, f64)> {
        let n = self.n_rows();
        self.schema
            .fields()
            .iter()
            .zip(&self.columns)
            .map(|(f, c)| {
                let nulls = c.iter().filter(|v| v.is_null()).count();
                let frac = if n == 0 { 0.0 } else { nulls as f64 / n as f64 };
                (f.name.clone(), frac)
            })
            .collect()
    }

    /// Stable sort by a column (nulls first) and the input row of each
    /// output row.
    pub fn sort_by(&self, col_name: &str) -> Result<(RefTable, Vec<usize>)> {
        let col = &self.columns[self.schema.index_of(col_name)?];
        let mut idx: Vec<usize> = (0..self.n_rows()).collect();
        idx.sort_by(|&a, &b| col[a].total_cmp(&col[b]));
        Ok((self.take(&idx)?, idx))
    }

    /// Rows per distinct value, count descending then value ascending;
    /// groups are hashed on whole values in first-occurrence order.
    pub fn value_counts(&self, col_name: &str) -> Result<Vec<(Value, usize)>> {
        let col = &self.columns[self.schema.index_of(col_name)?];
        let mut counts: Vec<(Value, usize)> = Vec::new();
        let mut slot_of: FxHashMap<Option<CountKey>, usize> = FxHashMap::default();
        for v in col {
            let next = counts.len();
            let slot = *slot_of.entry(CountKey::from_value(v)).or_insert(next);
            if slot == next {
                counts.push((v.clone(), 1));
            } else {
                counts[slot].1 += 1;
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
        Ok(counts)
    }

    /// First-occurrence grouping by a key column, as `(kept, owner)` in the
    /// shape of [`Table::distinct_by`]. Keys are extracted in chunks on
    /// `threads` workers and folded in row order.
    pub fn distinct_by(&self, key: &str, threads: usize) -> Result<(Vec<usize>, Vec<usize>)> {
        let k = self.schema.index_of(key)?;
        let n = self.n_rows();
        let parts = chunked(threads, n, |start, end| {
            (start..end)
                .map(|row| JoinKey::from_value(&self.value(row, k)))
                .collect::<Vec<_>>()
        })?;
        let mut kept: Vec<usize> = Vec::new();
        let mut owner: Vec<usize> = Vec::with_capacity(n);
        let mut slot_of: FxHashMap<Option<JoinKey>, usize> = FxHashMap::default();
        for key in parts.into_iter().flatten() {
            let row = owner.len();
            let next = kept.len();
            let slot = *slot_of.entry(key).or_insert(next);
            if slot == next {
                kept.push(row);
            }
            owner.push(slot);
        }
        Ok((kept, owner))
    }

    /// Inner hash join, single-threaded.
    pub fn hash_join(&self, right: &RefTable, left_key: &str, right_key: &str) -> Result<RefJoin> {
        self.hash_join_par(right, left_key, right_key, 1)
    }

    /// Inner hash join with the probe on `threads` workers.
    pub fn hash_join_par(
        &self,
        right: &RefTable,
        left_key: &str,
        right_key: &str,
        threads: usize,
    ) -> Result<RefJoin> {
        let (t, lineage) = self.join(right, left_key, right_key, false, threads)?;
        let pairs = lineage
            .into_iter()
            .map(|(l, r)| (l, r.expect("inner join always has a right match")))
            .collect();
        Ok((t, pairs))
    }

    /// Left outer hash join, single-threaded.
    pub fn left_join(
        &self,
        right: &RefTable,
        left_key: &str,
        right_key: &str,
    ) -> Result<RefLeftJoin> {
        self.left_join_par(right, left_key, right_key, 1)
    }

    /// Left outer hash join with the probe on `threads` workers.
    pub fn left_join_par(
        &self,
        right: &RefTable,
        left_key: &str,
        right_key: &str,
        threads: usize,
    ) -> Result<RefLeftJoin> {
        self.join(right, left_key, right_key, true, threads)
    }

    fn join(
        &self,
        right: &RefTable,
        left_key: &str,
        right_key: &str,
        outer: bool,
        threads: usize,
    ) -> Result<RefLeftJoin> {
        let lk = self.schema.index_of(left_key)?;
        let rk = right.schema.index_of(right_key)?;
        if self.schema.fields()[lk].dtype != right.schema.fields()[rk].dtype {
            return Err(DataError::SchemaMismatch("join key types differ".into()));
        }
        let mut index: FxHashMap<JoinKey, Vec<usize>> = FxHashMap::default();
        for row in 0..right.n_rows() {
            if let Some(key) = JoinKey::from_value(&right.value(row, rk)) {
                index.entry(key).or_default().push(row);
            }
        }
        let parts = chunked(threads, self.n_rows(), |start, end| {
            let mut part: Vec<(usize, Option<usize>)> = Vec::with_capacity(end - start);
            for row in start..end {
                let key = JoinKey::from_value(&self.value(row, lk));
                match key.and_then(|k| index.get(&k)) {
                    Some(rows) => part.extend(rows.iter().map(|&r| (row, Some(r)))),
                    None if outer => part.push((row, None)),
                    None => {}
                }
            }
            part
        })?;
        let lineage: Vec<(usize, Option<usize>)> = parts.into_iter().flatten().collect();
        let out = self.materialize_join(right, &lineage, rk)?;
        Ok((out, lineage))
    }

    /// The join output for a `(left_row, right_row)` lineage, gathered cell
    /// by cell: left columns, then right columns except `right_key`, with
    /// nulls where the right row is `None` and `_right` on name clashes.
    pub fn materialize_join(
        &self,
        right: &RefTable,
        lineage: &[(usize, Option<usize>)],
        right_key: usize,
    ) -> Result<RefTable> {
        let mut fields: Vec<Field> = self.schema.fields().to_vec();
        let left_idx: Vec<usize> = lineage.iter().map(|&(l, _)| l).collect();
        let mut columns: Vec<Vec<Value>> =
            self.columns.iter().map(|c| gather(c, &left_idx)).collect();
        for (ci, f) in right.schema.fields().iter().enumerate() {
            if ci == right_key {
                continue;
            }
            let name = if self.schema.contains(&f.name) {
                format!("{}_right", f.name)
            } else {
                f.name.clone()
            };
            fields.push(Field::new(name, f.dtype));
            columns.push(
                lineage
                    .iter()
                    .map(|&(_, r)| r.map_or(Value::Null, |r| right.value(r, ci)))
                    .collect(),
            );
        }
        Ok(RefTable {
            name: self.name.clone(),
            schema: Schema::new(fields)?,
            columns,
        })
    }
}

/// Equal iff name, schema and every cell match, as [`Table`]'s own
/// equality defines it.
impl PartialEq<Table> for RefTable {
    fn eq(&self, t: &Table) -> bool {
        self.name == t.name()
            && &self.schema == t.schema()
            && self.n_rows() == t.n_rows()
            && (0..self.n_rows()).all(|row| {
                (0..self.columns.len())
                    .all(|col| t.value_ref_at(row, col) == Some(self.value_ref(row, col)))
            })
    }
}

impl PartialEq<RefTable> for Table {
    fn eq(&self, r: &RefTable) -> bool {
        r == self
    }
}

/// Run `f(start, end)` over `ROW_CHUNK`-row chunks of `0..rows` on
/// `threads` pool workers and return the results in chunk order.
fn chunked<T: Send>(
    threads: usize,
    rows: usize,
    f: impl Fn(usize, usize) -> T + Sync,
) -> Result<Vec<T>> {
    let stop = AtomicBool::new(false);
    let parts = WorkerPool::shared()
        .map_indexed(threads, 0..rows.div_ceil(ROW_CHUNK) as u64, &stop, |c| {
            let start = c as usize * ROW_CHUNK;
            Ok::<_, DataError>(f(start, (start + ROW_CHUNK).min(rows)))
        })
        .map_err(|fail| match fail {
            WorkerFailure::Err(_, e) => e,
            WorkerFailure::Panic(_, msg) => {
                DataError::InvalidArgument(format!("reference worker panicked: {msg}"))
            }
        })?;
    Ok(parts.into_iter().map(|(_, part)| part).collect())
}

/// The cells of `column` at `indices` (rows may repeat).
fn gather(column: &[Value], indices: &[usize]) -> Vec<Value> {
    indices.iter().map(|&i| column[i].clone()).collect()
}

/// Names the column in a cell error raised by [`cell`].
fn named(e: DataError, column: &str) -> DataError {
    match e {
        DataError::TypeMismatch { expected, got, .. } => DataError::TypeMismatch {
            column: column.to_owned(),
            expected,
            got,
        },
        other => other,
    }
}

/// Hash-join key of a non-null value: floats by bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    Int(i64),
    FloatBits(u64),
    Str(String),
    Bool(bool),
}

impl JoinKey {
    fn from_value(v: &Value) -> Option<JoinKey> {
        match v {
            Value::Null => None,
            Value::Int(x) => Some(JoinKey::Int(*x)),
            Value::Float(x) => Some(JoinKey::FloatBits(x.to_bits())),
            Value::Str(s) => Some(JoinKey::Str(s.clone())),
            Value::Bool(b) => Some(JoinKey::Bool(*b)),
        }
    }
}

/// Grouping key of `value_counts`: a [`JoinKey`] whose float `-0.0` is
/// canonicalized to `0.0`, so groups match `total_cmp == Equal`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CountKey(JoinKey);

impl CountKey {
    fn from_value(v: &Value) -> Option<CountKey> {
        match v {
            Value::Float(x) if *x == 0.0 => Some(CountKey(JoinKey::FloatBits(0.0f64.to_bits()))),
            _ => JoinKey::from_value(v).map(CountKey),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn cells_follow_the_table_type_rules() {
        assert_eq!(cell(DataType::Float, Value::Int(3)), Ok(Value::Float(3.0)));
        assert_eq!(cell(DataType::Str, Value::Null), Ok(Value::Null));
        let mut t = Table::empty(
            "t",
            Schema::new(vec![Field::new("s", DataType::Str)]).unwrap(),
        );
        let mut r = RefTable::from_table(&t);
        let (et, er) = (
            t.push_row(vec![Value::Int(1)]).unwrap_err(),
            r.push_row(vec![Value::Int(1)]).unwrap_err(),
        );
        assert_eq!(format!("{et:?}"), format!("{er:?}"));
        let (et, er) = (
            t.set(4, "s", Value::Bool(true)).unwrap_err(),
            r.set(4, "s", Value::Bool(true)).unwrap_err(),
        );
        assert_eq!(format!("{et:?}"), format!("{er:?}"));
    }

    #[test]
    fn radix_join_is_bit_identical_to_reference_kernel() {
        let (left, right) = wide_tables();
        let (lref, rref) = (RefTable::from_table(&left), RefTable::from_table(&right));
        for threads in [1, 2, 4, 7] {
            let (col, col_lineage) = left.hash_join_par(&right, "k", "k", threads).unwrap();
            let (refr, ref_lineage) = lref.hash_join_par(&rref, "k", "k", threads).unwrap();
            assert_eq!(col, refr, "threads={threads}");
            assert_eq!(col_lineage, ref_lineage, "threads={threads}");
            let (lcol, lcol_lineage) = left.left_join_par(&right, "k", "k", threads).unwrap();
            let (lrefr, lref_lineage) = lref.left_join_par(&rref, "k", "k", threads).unwrap();
            assert_eq!(lcol, lrefr, "threads={threads}");
            assert_eq!(lcol_lineage, lref_lineage, "threads={threads}");
        }
    }
}
