//! Typed column planes: one contiguous value vector plus a null bitmap.
//!
//! A [`crate::Table`] stores each column as one [`Plane`]: `Vec<i64>`,
//! `Vec<f64>`, `Vec<bool>`, or dictionary codes `Vec<u32>`, with nullness
//! tracked out-of-band in a packed [`NullBitmap`]. Hot loops (joins,
//! filters, featurization) read the value vector directly with no per-cell
//! enum dispatch, no `Option` boxing, and no string clones. The cell-level
//! operations ([`Plane::push_value`], [`Plane::set_value`],
//! [`Plane::filter_eq_rows`]) carry the table's type rules: `Null` fits any
//! plane, ints widen into float planes (both stated once, in `fits`),
//! equality is SQL equality.

use crate::dict::Dict;
use crate::schema::DataType;
use crate::value::{Value, ValueRef};
use crate::{DataError, Result};
use std::sync::Arc;

/// A packed bitmap marking which rows are null (bit set ⇒ null).
///
/// Trailing bits past `len` are always zero, so two bitmaps with equal
/// contents compare equal structurally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullBitmap {
    bits: Vec<u64>,
    len: usize,
}

impl NullBitmap {
    /// An empty bitmap.
    pub fn new() -> NullBitmap {
        NullBitmap::default()
    }

    /// An empty bitmap with room for `cap` rows.
    pub fn with_capacity(cap: usize) -> NullBitmap {
        NullBitmap {
            bits: Vec::with_capacity(cap.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of rows tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one row's nullness.
    pub fn push(&mut self, is_null: bool) {
        let word = self.len / 64;
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if is_null {
            self.bits[word] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// `true` iff row `row` is null. Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize) -> bool {
        assert!(
            row < self.len,
            "bitmap row {row} out of bounds ({})",
            self.len
        );
        self.bits[row / 64] >> (row % 64) & 1 == 1
    }

    /// Overwrite row `row`'s nullness. Panics if out of bounds.
    pub fn set(&mut self, row: usize, is_null: bool) {
        assert!(
            row < self.len,
            "bitmap row {row} out of bounds ({})",
            self.len
        );
        let mask = 1u64 << (row % 64);
        if is_null {
            self.bits[row / 64] |= mask;
        } else {
            self.bits[row / 64] &= !mask;
        }
    }

    /// Number of null rows.
    pub fn count_nulls(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitmap with the rows at `indices` (callers bounds-check).
    pub fn take(&self, indices: &[usize]) -> NullBitmap {
        let mut out = NullBitmap::with_capacity(indices.len());
        for &i in indices {
            out.push(self.get(i));
        }
        out
    }

    /// Append all rows of `other`.
    pub fn extend_from(&mut self, other: &NullBitmap) {
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }
}

/// A plane of `Copy` primitives (`i64`, `f64`, `bool`) with a null bitmap.
///
/// Null rows hold `T::default()` padding in `values` so the vector stays
/// densely initialized; readers must consult `nulls` before trusting a slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrimPlane<T: Copy + Default> {
    /// Row values; null rows hold `T::default()` padding.
    pub values: Vec<T>,
    /// Which rows are null.
    pub nulls: NullBitmap,
}

impl<T: Copy + Default> PrimPlane<T> {
    /// An empty plane.
    pub fn new() -> PrimPlane<T> {
        PrimPlane {
            values: Vec::new(),
            nulls: NullBitmap::new(),
        }
    }

    /// An empty plane with capacity for `cap` rows.
    pub fn with_capacity(cap: usize) -> PrimPlane<T> {
        PrimPlane {
            values: Vec::with_capacity(cap),
            nulls: NullBitmap::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the plane has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Append a present value.
    pub fn push(&mut self, v: T) {
        self.values.push(v);
        self.nulls.push(false);
    }

    /// Append a null row.
    pub fn push_null(&mut self) {
        self.values.push(T::default());
        self.nulls.push(true);
    }

    /// Append `v`, or a null row for `None`.
    pub(crate) fn push_opt(&mut self, v: Option<T>) {
        match v {
            Some(x) => self.push(x),
            None => self.push_null(),
        }
    }

    /// The value at `row`, or `None` if null.
    #[inline]
    pub fn get(&self, row: usize) -> Option<T> {
        if self.nulls.get(row) {
            None
        } else {
            Some(self.values[row])
        }
    }

    /// Overwrite `row` (null padding is normalized to `T::default()`).
    pub fn set(&mut self, row: usize, v: Option<T>) {
        match v {
            Some(x) => {
                self.values[row] = x;
                self.nulls.set(row, false);
            }
            None => {
                self.values[row] = T::default();
                self.nulls.set(row, true);
            }
        }
    }

    /// Plane with the rows at `indices` (callers bounds-check).
    pub fn take(&self, indices: &[usize]) -> PrimPlane<T> {
        PrimPlane {
            values: indices.iter().map(|&i| self.values[i]).collect(),
            nulls: self.nulls.take(indices),
        }
    }

    /// Plane gathering `indices`, writing null rows for `None` slots —
    /// the outer-join gather.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> PrimPlane<T> {
        let mut out = PrimPlane::with_capacity(indices.len());
        for &i in indices {
            match i {
                Some(i) if !self.nulls.get(i) => out.push(self.values[i]),
                _ => out.push_null(),
            }
        }
        out
    }

    /// Append all rows of `other`.
    pub fn extend_from(&mut self, other: &PrimPlane<T>) {
        self.values.extend_from_slice(&other.values);
        self.nulls.extend_from(&other.nulls);
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.nulls.count_nulls()
    }
}

/// Integer plane.
pub type I64Plane = PrimPlane<i64>;
/// Float plane.
pub type F64Plane = PrimPlane<f64>;
/// Boolean plane.
pub type BoolPlane = PrimPlane<bool>;

/// A dictionary-encoded string plane: per-row `u32` codes into a shared
/// [`Dict`], plus a null bitmap. Null rows hold code `0` padding.
///
/// The dictionary is shared (`Arc`) across tables produced by `take`,
/// `filter`, and joins, so those operations gather 4-byte codes and never
/// touch string heap data.
#[derive(Debug, Clone, Default)]
pub struct StrPlane {
    dict: Arc<Dict>,
    /// Per-row dictionary codes; null rows hold `0` padding.
    pub codes: Vec<u32>,
    /// Which rows are null.
    pub nulls: NullBitmap,
}

impl StrPlane {
    /// An empty plane with its own empty dictionary.
    pub fn new() -> StrPlane {
        StrPlane::default()
    }

    /// An empty plane with capacity for `cap` rows.
    pub fn with_capacity(cap: usize) -> StrPlane {
        StrPlane {
            dict: Arc::new(Dict::new()),
            codes: Vec::with_capacity(cap),
            nulls: NullBitmap::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` if the plane has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Dict {
        &self.dict
    }

    /// Append a present string, interning it.
    pub fn push(&mut self, s: &str) {
        let code = Arc::make_mut(&mut self.dict).intern(s);
        self.codes.push(code);
        self.nulls.push(false);
    }

    /// Append a null row.
    pub fn push_null(&mut self) {
        self.codes.push(0);
        self.nulls.push(true);
    }

    /// Append `v`, or a null row for `None`.
    pub(crate) fn push_opt(&mut self, v: Option<&str>) {
        match v {
            Some(s) => self.push(s),
            None => self.push_null(),
        }
    }

    /// The string at `row`, or `None` if null.
    #[inline]
    pub fn get(&self, row: usize) -> Option<&str> {
        if self.nulls.get(row) {
            None
        } else {
            Some(self.dict.value(self.codes[row]))
        }
    }

    /// Overwrite `row` (null padding is normalized to code `0`).
    pub fn set(&mut self, row: usize, v: Option<&str>) {
        match v {
            Some(s) => {
                let code = Arc::make_mut(&mut self.dict).intern(s);
                self.codes[row] = code;
                self.nulls.set(row, false);
            }
            None => {
                self.codes[row] = 0;
                self.nulls.set(row, true);
            }
        }
    }

    /// Plane with the rows at `indices`: gathers codes, shares the dict.
    pub fn take(&self, indices: &[usize]) -> StrPlane {
        let mut codes = Vec::with_capacity(indices.len());
        let mut nulls = NullBitmap::with_capacity(indices.len());
        for &i in indices {
            let null = self.nulls.get(i);
            codes.push(if null { 0 } else { self.codes[i] });
            nulls.push(null);
        }
        StrPlane {
            dict: Arc::clone(&self.dict),
            codes,
            nulls,
        }
    }

    /// Plane gathering `indices`, null rows for `None` slots; shares the dict.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> StrPlane {
        let mut codes = Vec::with_capacity(indices.len());
        let mut nulls = NullBitmap::with_capacity(indices.len());
        for &i in indices {
            match i {
                Some(i) if !self.nulls.get(i) => {
                    codes.push(self.codes[i]);
                    nulls.push(false);
                }
                _ => {
                    codes.push(0);
                    nulls.push(true);
                }
            }
        }
        StrPlane {
            dict: Arc::clone(&self.dict),
            codes,
            nulls,
        }
    }

    /// Append all rows of `other`. When the dictionaries are the same `Arc`
    /// the codes transfer directly; otherwise `other`'s codes are remapped
    /// through one intern per *distinct* value.
    pub fn extend_from(&mut self, other: &StrPlane) {
        if Arc::ptr_eq(&self.dict, &other.dict) {
            self.codes.extend_from_slice(&other.codes);
            self.nulls.extend_from(&other.nulls);
            return;
        }
        let dict = Arc::make_mut(&mut self.dict);
        let remap: Vec<u32> = other.dict.values().iter().map(|s| dict.intern(s)).collect();
        for row in 0..other.len() {
            if other.nulls.get(row) {
                self.codes.push(0);
                self.nulls.push(true);
            } else {
                self.codes.push(remap[other.codes[row] as usize]);
                self.nulls.push(false);
            }
        }
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.nulls.count_nulls()
    }

    /// Per-distinct-value row counts, indexed by code, plus the null count —
    /// the dictionary fast path behind `Table::value_counts`.
    pub fn code_counts(&self) -> (Vec<usize>, usize) {
        let mut counts = vec![0usize; self.dict.len()];
        let mut nulls = 0usize;
        for row in 0..self.len() {
            if self.nulls.get(row) {
                nulls += 1;
            } else {
                counts[self.codes[row] as usize] += 1;
            }
        }
        (counts, nulls)
    }
}

/// String planes are equal iff they hold the same logical string per row —
/// dictionaries with different code assignments can still compare equal.
impl PartialEq for StrPlane {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        if Arc::ptr_eq(&self.dict, &other.dict) || self.dict == other.dict {
            return self.codes == other.codes && self.nulls == other.nulls;
        }
        (0..self.len()).all(|row| self.get(row) == other.get(row))
    }
}

/// One typed column plane of a [`crate::Table`].
#[derive(Debug, Clone)]
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

    /// The null bitmap.
    pub fn nulls(&self) -> &NullBitmap {
        match self {
            Plane::I64(p) => &p.nulls,
            Plane::F64(p) => &p.nulls,
            Plane::Str(p) => &p.nulls,
            Plane::Bool(p) => &p.nulls,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.nulls().len()
    }

    /// `true` if the plane has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.nulls().count_nulls()
    }

    /// Owned cell value at `row`.
    pub fn value(&self, row: usize) -> Value {
        self.value_ref(row).to_value()
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

    /// Cell `row` widened to `f64`: ints widen, bools read 0/1, and string
    /// and null cells read `None`.
    #[inline]
    pub fn f64_at(&self, row: usize) -> Option<f64> {
        match self {
            Plane::F64(p) => p.get(row),
            Plane::I64(p) => p.get(row).map(|x| x as f64),
            Plane::Bool(p) => p.get(row).map(|b| b as i64 as f64),
            Plane::Str(_) => None,
        }
    }

    /// Append a value, checking type compatibility: `Null` fits any plane,
    /// and an int fits a float plane, widened by `Value::as_float`.
    pub fn push_value(&mut self, value: Value) -> Result<()> {
        self.check_fits(&value)?;
        match self {
            Plane::I64(p) => p.push_opt(value.as_int()),
            Plane::F64(p) => p.push_opt(value.as_float()),
            Plane::Str(p) => p.push_opt(value.as_str()),
            Plane::Bool(p) => p.push_opt(value.as_bool()),
        }
        Ok(())
    }

    /// Overwrite the cell at `row`, checking bounds and then type, with
    /// the type rules of [`Plane::push_value`].
    pub fn set_value(&mut self, row: usize, value: Value) -> Result<()> {
        let len = self.len();
        if row >= len {
            return Err(DataError::RowOutOfBounds { index: row, len });
        }
        self.check_fits(&value)?;
        match self {
            Plane::I64(p) => p.set(row, value.as_int()),
            Plane::F64(p) => p.set(row, value.as_float()),
            Plane::Str(p) => p.set(row, value.as_str()),
            Plane::Bool(p) => p.set(row, value.as_bool()),
        }
        Ok(())
    }

    /// The type-mismatch error unless `value` fits this plane.
    fn check_fits(&self, value: &Value) -> Result<()> {
        if fits(self.data_type(), value) {
            Ok(())
        } else {
            Err(DataError::TypeMismatch {
                column: String::new(),
                expected: self.data_type().name(),
                got: format!("{value:?}"),
            })
        }
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

    /// Rows whose cell equals `value` under SQL equality (nulls never
    /// match, `Int`/`Float` compare numerically), in ascending order.
    pub fn filter_eq_rows(&self, value: &Value) -> Vec<usize> {
        if value.is_null() {
            return Vec::new(); // SQL equality: null matches nothing
        }
        match self {
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

/// Whether `value` may be stored in a column of type `dtype`: `Null` fits
/// every type, an `Int` also fits `Float` (widened), and any other value
/// fits only its own type.
///
/// The one statement of the table's cell type rules: `Table::push_row`,
/// [`Plane::push_value`] and [`Plane::set_value`] all check with it.
pub(crate) fn fits(dtype: DataType, value: &Value) -> bool {
    matches!(
        (dtype, value),
        (_, Value::Null)
            | (DataType::Int, Value::Int(_))
            | (DataType::Float, Value::Float(_) | Value::Int(_))
            | (DataType::Str, Value::Str(_))
            | (DataType::Bool, Value::Bool(_))
    )
}

/// Lit target for numeric `filter_eq_rows` scans over an integer plane.
#[derive(Clone, Copy)]
enum Target {
    Int(i64),
    Float(f64),
}

/// Planes are equal iff they have the same type and hold the same logical
/// cells. String planes compare by value, not by dictionary code, because
/// row-subset planes share dictionaries that may hold values no surviving
/// row references.
impl PartialEq for Plane {
    fn eq(&self, other: &Self) -> bool {
        self.data_type() == other.data_type()
            && self.len() == other.len()
            && (0..self.len()).all(|r| self.value_ref(r) == other.value_ref(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_of(dtype: DataType, cells: &[Value]) -> Plane {
        let mut p = Plane::empty(dtype);
        for v in cells {
            p.push_value(v.clone()).unwrap();
        }
        p
    }

    /// One plane per type, filled with the same four rows.
    fn filled() -> Vec<Plane> {
        let rows: [[Value; 4]; 4] = [
            [1.into(), 1.5.into(), "a".into(), true.into()],
            [Value::Null, Value::Null, Value::Null, Value::Null],
            [2.into(), 2.5.into(), "a".into(), false.into()],
            [1.into(), 1.5.into(), "b".into(), true.into()],
        ];
        [
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bool,
        ]
        .into_iter()
        .enumerate()
        .map(|(c, dtype)| {
            plane_of(
                dtype,
                &rows.iter().map(|r| r[c].clone()).collect::<Vec<_>>(),
            )
        })
        .collect()
    }

    #[test]
    fn planes_hold_pushed_cells() {
        let planes = filled();
        for p in &planes {
            assert_eq!(p.len(), 4);
            assert_eq!(p.null_count(), 1);
            assert_eq!(p.value(1), Value::Null);
        }
        assert_eq!(planes[0].value(0), Value::Int(1));
        assert_eq!(planes[1].value(2), Value::Float(2.5));
        assert_eq!(planes[2].value(0), Value::Str("a".into()));
        assert_eq!(planes[2].value_ref(3), ValueRef::Str("b"));
        assert_eq!(planes[3].value_ref(2), ValueRef::Bool(false));
    }

    #[test]
    fn filter_eq_matches_sql_equality() {
        let c = filled();
        assert_eq!(c[0].filter_eq_rows(&Value::Int(1)), vec![0, 3]);
        // Numeric cross-type equality.
        assert_eq!(c[0].filter_eq_rows(&Value::Float(2.0)), vec![2]);
        assert_eq!(c[1].filter_eq_rows(&Value::Float(2.5)), vec![2]);
        assert_eq!(c[2].filter_eq_rows(&Value::Str("a".into())), vec![0, 2]);
        assert!(c[2].filter_eq_rows(&Value::Str("zzz".into())).is_empty());
        assert_eq!(c[3].filter_eq_rows(&Value::Bool(true)), vec![0, 3]);
        // Nulls never match; type-mismatched literals match nothing.
        assert!(c[0].filter_eq_rows(&Value::Null).is_empty());
        assert!(c[2].filter_eq_rows(&Value::Int(1)).is_empty());
    }

    #[test]
    fn plane_push_get_set_roundtrip() {
        let mut c = Plane::empty(DataType::Int);
        c.push_value(Value::Int(1)).unwrap();
        c.push_value(Value::Null).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Null);
        c.set_value(1, Value::Int(5)).unwrap();
        assert_eq!(c.value(1), Value::Int(5));
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn plane_type_checks() {
        let mut c = Plane::empty(DataType::Str);
        assert!(matches!(
            c.push_value(Value::Int(1)),
            Err(DataError::TypeMismatch {
                expected: "Str",
                ..
            })
        ));
        assert!(c.push_value(Value::Str("x".into())).is_ok());
        assert!(c.set_value(0, Value::Bool(true)).is_err());
        assert!(matches!(
            c.set_value(9, Value::Null),
            Err(DataError::RowOutOfBounds { index: 9, len: 1 })
        ));
    }

    #[test]
    fn int_widens_into_float_plane() {
        let mut c = Plane::empty(DataType::Float);
        c.push_value(Value::Int(3)).unwrap();
        assert_eq!(c.value(0), Value::Float(3.0));
        c.set_value(0, Value::Int(4)).unwrap();
        assert_eq!(c.value(0), Value::Float(4.0));
    }

    #[test]
    fn plane_take_repeats_and_reorders() {
        let c = plane_of(DataType::Str, &["a".into(), "b".into(), "c".into()]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.value(0), Value::Str("c".into()));
        assert_eq!(t.value(1), Value::Str("a".into()));
        assert_eq!(t.value(2), Value::Str("a".into()));
    }

    #[test]
    fn plane_extend_checks_types() {
        let mut a = plane_of(DataType::Int, &[1.into()]);
        let b = plane_of(DataType::Int, &[2.into(), Value::Null]);
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.null_count(), 1);
        let f = plane_of(DataType::Float, &[1.0.into()]);
        assert!(a.extend_from(&f).is_err());
    }

    #[test]
    fn bitmap_push_get_set() {
        let mut b = NullBitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(b.get(129));
        assert_eq!(b.count_nulls(), 44);
        b.set(0, false);
        b.set(1, true);
        assert!(!b.get(0));
        assert!(b.get(1));
        assert_eq!(b.count_nulls(), 44);
    }

    #[test]
    fn bitmap_take_and_extend() {
        let mut b = NullBitmap::new();
        b.push(true);
        b.push(false);
        b.push(true);
        let t = b.take(&[2, 1, 1]);
        assert!(t.get(0));
        assert!(!t.get(1));
        assert!(!t.get(2));
        let mut c = NullBitmap::new();
        c.push(false);
        c.extend_from(&b);
        assert_eq!(c.len(), 4);
        assert!(c.get(1));
    }

    #[test]
    fn prim_plane_roundtrip() {
        let mut p: I64Plane = PrimPlane::new();
        p.push(7);
        p.push_null();
        p.push(-3);
        assert_eq!(p.get(0), Some(7));
        assert_eq!(p.get(1), None);
        assert_eq!(p.null_count(), 1);
        p.set(1, Some(5));
        p.set(0, None);
        assert_eq!(p.get(0), None);
        assert_eq!(p.get(1), Some(5));
        // Null padding is normalized, so structurally equal planes compare equal.
        assert_eq!(p.values[0], 0);
        let t = p.take(&[2, 2, 0]);
        assert_eq!(t.get(0), Some(-3));
        assert_eq!(t.get(2), None);
        let o = p.take_opt(&[Some(1), None, Some(0)]);
        assert_eq!(o.get(0), Some(5));
        assert_eq!(o.get(1), None);
        assert_eq!(o.get(2), None);
    }

    #[test]
    fn str_plane_interns_and_shares_dict() {
        let mut p = StrPlane::new();
        p.push("a");
        p.push("b");
        p.push("a");
        p.push_null();
        assert_eq!(p.dict().len(), 2);
        assert_eq!(p.codes, vec![0, 1, 0, 0]);
        assert_eq!(p.get(2), Some("a"));
        assert_eq!(p.get(3), None);
        let t = p.take(&[1, 3]);
        assert!(Arc::ptr_eq(&p.dict, &t.dict));
        assert_eq!(t.get(0), Some("b"));
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn str_plane_extend_remaps_codes() {
        let mut a = StrPlane::new();
        a.push("x");
        let mut b = StrPlane::new();
        b.push("y");
        b.push("x");
        b.push_null();
        a.extend_from(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(1), Some("y"));
        assert_eq!(a.get(2), Some("x"));
        assert_eq!(a.get(3), None);
        // Logical equality across different dictionaries.
        let mut c = StrPlane::new();
        c.push("x");
        c.push("y");
        c.push("x");
        c.push_null();
        assert_eq!(a, c);
    }

    #[test]
    fn str_plane_code_counts() {
        let mut p = StrPlane::new();
        for s in ["a", "b", "a", "a"] {
            p.push(s);
        }
        p.push_null();
        let (counts, nulls) = p.code_counts();
        assert_eq!(counts, vec![3, 1]);
        assert_eq!(nulls, 1);
    }
}
