//! Storage behind [`crate::Table`].
//!
//! [`ColumnarStore`] keeps typed planes (`i64`, `f64`, `bool`,
//! dictionary-encoded strings) with null bitmaps. Operators read the planes
//! directly; [`ColumnarStore::filter_eq_rows`] is the equality scan, which
//! never materializes a per-row `Value`. The `Value`-per-cell reference
//! table of the `nde-tests` crate exposes the same cell accessors, and the
//! differential tests in `tests/tests/columnar_backend.rs` compare the two.

use crate::column::Column;
use crate::planes::{BoolPlane, F64Plane, I64Plane, StrPlane};
use crate::schema::{DataType, Schema};
use crate::value::{Value, ValueRef};
use crate::{DataError, Result};

/// One typed column plane of a [`ColumnarStore`].
#[derive(Debug, Clone, PartialEq)]
pub enum Plane {
    /// Integer plane.
    I64(I64Plane),
    /// Float plane.
    F64(F64Plane),
    /// Dictionary-encoded string plane.
    Str(StrPlane),
    /// Boolean plane.
    Bool(BoolPlane),
}

impl Plane {
    /// An empty plane of the given type.
    pub fn empty(dtype: DataType) -> Plane {
        match dtype {
            DataType::Int => Plane::I64(I64Plane::new()),
            DataType::Float => Plane::F64(F64Plane::new()),
            DataType::Str => Plane::Str(StrPlane::new()),
            DataType::Bool => Plane::Bool(BoolPlane::new()),
        }
    }

    /// The plane's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Plane::I64(_) => DataType::Int,
            Plane::F64(_) => DataType::Float,
            Plane::Str(_) => DataType::Str,
            Plane::Bool(_) => DataType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Plane::I64(p) => p.len(),
            Plane::F64(p) => p.len(),
            Plane::Str(p) => p.len(),
            Plane::Bool(p) => p.len(),
        }
    }

    /// `true` if the plane has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        match self {
            Plane::I64(p) => p.null_count(),
            Plane::F64(p) => p.null_count(),
            Plane::Str(p) => p.null_count(),
            Plane::Bool(p) => p.null_count(),
        }
    }

    /// Owned cell value at `row`.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Plane::I64(p) => p.get(row).map(Value::Int).unwrap_or(Value::Null),
            Plane::F64(p) => p.get(row).map(Value::Float).unwrap_or(Value::Null),
            Plane::Str(p) => p
                .get(row)
                .map(|s| Value::Str(s.to_owned()))
                .unwrap_or(Value::Null),
            Plane::Bool(p) => p.get(row).map(Value::Bool).unwrap_or(Value::Null),
        }
    }

    /// Borrowed cell value at `row`.
    pub fn value_ref(&self, row: usize) -> ValueRef<'_> {
        match self {
            Plane::I64(p) => p.get(row).map(ValueRef::Int).unwrap_or(ValueRef::Null),
            Plane::F64(p) => p.get(row).map(ValueRef::Float).unwrap_or(ValueRef::Null),
            Plane::Str(p) => p.get(row).map(ValueRef::Str).unwrap_or(ValueRef::Null),
            Plane::Bool(p) => p.get(row).map(ValueRef::Bool).unwrap_or(ValueRef::Null),
        }
    }

    /// Append a value, checking type compatibility (`Null` fits any plane;
    /// ints widen into float planes) — same contract as [`Column::push`].
    pub fn push_value(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Plane::I64(p), Value::Int(x)) => p.push(x),
            (Plane::I64(p), Value::Null) => p.push_null(),
            (Plane::F64(p), Value::Float(x)) => p.push(x),
            (Plane::F64(p), Value::Int(x)) => p.push(x as f64),
            (Plane::F64(p), Value::Null) => p.push_null(),
            (Plane::Str(p), Value::Str(x)) => p.push(&x),
            (Plane::Str(p), Value::Null) => p.push_null(),
            (Plane::Bool(p), Value::Bool(x)) => p.push(x),
            (Plane::Bool(p), Value::Null) => p.push_null(),
            (plane, value) => {
                return Err(DataError::TypeMismatch {
                    column: String::new(),
                    expected: plane.data_type().name(),
                    got: format!("{value:?}"),
                })
            }
        }
        Ok(())
    }

    /// Overwrite the cell at `row`, checking bounds and type — same contract
    /// as [`Column::set`].
    pub fn set_value(&mut self, row: usize, value: Value) -> Result<()> {
        let len = self.len();
        if row >= len {
            return Err(DataError::RowOutOfBounds { index: row, len });
        }
        match (self, value) {
            (Plane::I64(p), Value::Int(x)) => p.set(row, Some(x)),
            (Plane::I64(p), Value::Null) => p.set(row, None),
            (Plane::F64(p), Value::Float(x)) => p.set(row, Some(x)),
            (Plane::F64(p), Value::Int(x)) => p.set(row, Some(x as f64)),
            (Plane::F64(p), Value::Null) => p.set(row, None),
            (Plane::Str(p), Value::Str(x)) => p.set(row, Some(&x)),
            (Plane::Str(p), Value::Null) => p.set(row, None),
            (Plane::Bool(p), Value::Bool(x)) => p.set(row, Some(x)),
            (Plane::Bool(p), Value::Null) => p.set(row, None),
            (plane, value) => {
                return Err(DataError::TypeMismatch {
                    column: String::new(),
                    expected: plane.data_type().name(),
                    got: format!("{value:?}"),
                })
            }
        }
        Ok(())
    }

    /// Plane with the rows at `indices` (callers bounds-check).
    pub fn take(&self, indices: &[usize]) -> Plane {
        match self {
            Plane::I64(p) => Plane::I64(p.take(indices)),
            Plane::F64(p) => Plane::F64(p.take(indices)),
            Plane::Str(p) => Plane::Str(p.take(indices)),
            Plane::Bool(p) => Plane::Bool(p.take(indices)),
        }
    }

    /// Plane gathering `indices` with nulls for `None` slots.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> Plane {
        match self {
            Plane::I64(p) => Plane::I64(p.take_opt(indices)),
            Plane::F64(p) => Plane::F64(p.take_opt(indices)),
            Plane::Str(p) => Plane::Str(p.take_opt(indices)),
            Plane::Bool(p) => Plane::Bool(p.take_opt(indices)),
        }
    }

    /// Append all rows of `other` (must have the same type).
    pub fn extend_from(&mut self, other: &Plane) -> Result<()> {
        match (self, other) {
            (Plane::I64(a), Plane::I64(b)) => a.extend_from(b),
            (Plane::F64(a), Plane::F64(b)) => a.extend_from(b),
            (Plane::Str(a), Plane::Str(b)) => a.extend_from(b),
            (Plane::Bool(a), Plane::Bool(b)) => a.extend_from(b),
            (a, b) => {
                return Err(DataError::SchemaMismatch(format!(
                    "cannot append {} column to {} column",
                    b.data_type(),
                    a.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Convert an owned [`Column`] into a plane (interning strings).
    pub fn from_column(col: Column) -> Plane {
        match col {
            Column::Int(v) => {
                let mut p = I64Plane::with_capacity(v.len());
                for c in v {
                    match c {
                        Some(x) => p.push(x),
                        None => p.push_null(),
                    }
                }
                Plane::I64(p)
            }
            Column::Float(v) => {
                let mut p = F64Plane::with_capacity(v.len());
                for c in v {
                    match c {
                        Some(x) => p.push(x),
                        None => p.push_null(),
                    }
                }
                Plane::F64(p)
            }
            Column::Str(v) => {
                let mut p = StrPlane::with_capacity(v.len());
                for c in v {
                    match c {
                        Some(s) => p.push(&s),
                        None => p.push_null(),
                    }
                }
                Plane::Str(p)
            }
            Column::Bool(v) => {
                let mut p = BoolPlane::with_capacity(v.len());
                for c in v {
                    match c {
                        Some(b) => p.push(b),
                        None => p.push_null(),
                    }
                }
                Plane::Bool(p)
            }
        }
    }

    /// Materialize the plane as a `Value`-per-cell [`Column`].
    pub fn to_column(&self) -> Column {
        match self {
            Plane::I64(p) => Column::Int((0..p.len()).map(|r| p.get(r)).collect()),
            Plane::F64(p) => Column::Float((0..p.len()).map(|r| p.get(r)).collect()),
            Plane::Str(p) => {
                Column::Str((0..p.len()).map(|r| p.get(r).map(str::to_owned)).collect())
            }
            Plane::Bool(p) => Column::Bool((0..p.len()).map(|r| p.get(r)).collect()),
        }
    }
}

/// Typed-plane storage: one [`Plane`] per column.
#[derive(Debug, Clone, Default)]
pub struct ColumnarStore {
    planes: Vec<Plane>,
}

impl ColumnarStore {
    /// Empty store matching `schema`.
    pub fn empty(schema: &Schema) -> ColumnarStore {
        ColumnarStore {
            planes: schema
                .fields()
                .iter()
                .map(|f| Plane::empty(f.dtype))
                .collect(),
        }
    }

    /// Store built directly from planes (used by plane-wise gathers).
    pub fn from_planes(planes: Vec<Plane>) -> ColumnarStore {
        ColumnarStore { planes }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.planes.first().map_or(0, Plane::len)
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.planes.len()
    }

    /// Owned cell value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.planes[col].value(row)
    }

    /// Borrowed cell value at (`row`, `col`).
    pub fn value_ref(&self, row: usize, col: usize) -> ValueRef<'_> {
        self.planes[col].value_ref(row)
    }

    /// Number of null cells in column `col`.
    pub fn null_count(&self, col: usize) -> usize {
        self.planes[col].null_count()
    }

    /// The plane of column `col`.
    pub fn plane(&self, col: usize) -> &Plane {
        &self.planes[col]
    }

    /// Mutable plane of column `col`.
    pub fn plane_mut(&mut self, col: usize) -> &mut Plane {
        &mut self.planes[col]
    }

    /// All planes in column order.
    pub fn planes(&self) -> &[Plane] {
        &self.planes
    }

    /// Store built by converting owned columns into planes.
    pub fn from_columns(columns: Vec<Column>) -> ColumnarStore {
        ColumnarStore {
            planes: columns.into_iter().map(Plane::from_column).collect(),
        }
    }

    /// Append one pre-validated row of values.
    pub fn push_row(&mut self, row: Vec<Value>) {
        for (plane, value) in self.planes.iter_mut().zip(row) {
            plane
                .push_value(value)
                .expect("validated by Table::push_row");
        }
    }

    /// Store with the rows at `indices` (callers bounds-check).
    pub fn take(&self, indices: &[usize]) -> ColumnarStore {
        ColumnarStore {
            planes: self.planes.iter().map(|p| p.take(indices)).collect(),
        }
    }

    /// Store keeping only the columns at `cols`, in that order.
    pub fn select_columns(&self, cols: &[usize]) -> ColumnarStore {
        ColumnarStore {
            planes: cols.iter().map(|&c| self.planes[c].clone()).collect(),
        }
    }

    /// Add a column on the right, converted to a plane.
    pub fn add_column(&mut self, column: Column) {
        self.planes.push(Plane::from_column(column));
    }

    /// Append all rows of `other` column-wise (schemas must already match).
    pub fn extend_from(&mut self, other: &ColumnarStore) -> Result<()> {
        for (pa, pb) in self.planes.iter_mut().zip(&other.planes) {
            pa.extend_from(pb)?;
        }
        Ok(())
    }

    /// Row indices whose cell in column `col` equals `value` under SQL
    /// equality (nulls never match, `Int`/`Float` compare numerically), in
    /// ascending order.
    pub fn filter_eq_rows(&self, col: usize, value: &Value) -> Vec<usize> {
        if value.is_null() {
            return Vec::new(); // SQL equality: null matches nothing
        }
        match &self.planes[col] {
            Plane::I64(p) => {
                let target = match value {
                    Value::Int(x) => Target::Int(*x),
                    Value::Float(f) => Target::Float(*f),
                    _ => return Vec::new(),
                };
                (0..p.len())
                    .filter(|&r| {
                        !p.nulls.get(r)
                            && match target {
                                Target::Int(x) => p.values[r] == x,
                                Target::Float(f) => p.values[r] as f64 == f,
                            }
                    })
                    .collect()
            }
            Plane::F64(p) => {
                let target = match value {
                    Value::Float(f) => *f,
                    Value::Int(x) => *x as f64,
                    _ => return Vec::new(),
                };
                (0..p.len())
                    .filter(|&r| !p.nulls.get(r) && p.values[r] == target)
                    .collect()
            }
            Plane::Str(p) => {
                let Some(code) = value.as_str().and_then(|s| p.dict().code_of(s)) else {
                    return Vec::new();
                };
                (0..p.len())
                    .filter(|&r| !p.nulls.get(r) && p.codes[r] == code)
                    .collect()
            }
            Plane::Bool(p) => {
                let Some(target) = value.as_bool() else {
                    return Vec::new();
                };
                (0..p.len())
                    .filter(|&r| !p.nulls.get(r) && p.values[r] == target)
                    .collect()
            }
        }
    }
}

/// Lit target for numeric `filter_eq_rows` scans over an integer plane.
#[derive(Clone, Copy)]
enum Target {
    Int(i64),
    Float(f64),
}

/// Stores are equal iff they hold the same logical cells. String planes
/// compare by value, not by dictionary code, because row-subset stores
/// share dictionaries that may hold values no surviving row references.
impl PartialEq for ColumnarStore {
    fn eq(&self, other: &Self) -> bool {
        if self.row_count() != other.row_count() || self.column_count() != other.column_count() {
            return false;
        }
        self.planes.iter().zip(&other.planes).all(|(a, b)| {
            a.data_type() == b.data_type() && (0..a.len()).all(|r| a.value_ref(r) == b.value_ref(r))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("b", DataType::Bool),
        ])
        .unwrap()
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![1.into(), 1.5.into(), "a".into(), true.into()],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
            vec![2.into(), 2.5.into(), "a".into(), false.into()],
            vec![1.into(), 1.5.into(), "b".into(), true.into()],
        ]
    }

    fn filled() -> ColumnarStore {
        let mut s = ColumnarStore::empty(&schema());
        for row in rows() {
            s.push_row(row);
        }
        s
    }

    #[test]
    fn backends_hold_identical_cells() {
        // The same pushes into planes and into `Value`-per-cell columns
        // hold the same cells.
        let c = filled();
        let mut columns: Vec<Column> = schema()
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        for row in rows() {
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v).unwrap();
            }
        }
        for (ci, col) in columns.iter().enumerate() {
            assert_eq!(c.null_count(ci), col.null_count());
            for row in 0..c.row_count() {
                assert_eq!(c.value(row, ci), col.get(row).unwrap());
            }
            assert_eq!(&c.plane(ci).to_column(), col);
        }
        assert_eq!(c.value(0, 2), Value::Str("a".into()));
        assert_eq!(c.value(1, 2), Value::Null);
        assert_eq!(c.value_ref(3, 2), ValueRef::Str("b"));
    }

    #[test]
    fn filter_eq_matches_sql_equality() {
        let c = filled();
        assert_eq!(c.filter_eq_rows(0, &Value::Int(1)), vec![0, 3]);
        // Numeric cross-type equality.
        assert_eq!(c.filter_eq_rows(0, &Value::Float(2.0)), vec![2]);
        assert_eq!(c.filter_eq_rows(1, &Value::Float(2.5)), vec![2]);
        assert_eq!(c.filter_eq_rows(2, &Value::Str("a".into())), vec![0, 2]);
        assert!(c.filter_eq_rows(2, &Value::Str("zzz".into())).is_empty());
        assert_eq!(c.filter_eq_rows(3, &Value::Bool(true)), vec![0, 3]);
        // Nulls never match; type-mismatched literals match nothing.
        assert!(c.filter_eq_rows(0, &Value::Null).is_empty());
        assert!(c.filter_eq_rows(2, &Value::Int(1)).is_empty());
    }
}
