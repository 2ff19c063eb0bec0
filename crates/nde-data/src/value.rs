//! Dynamically-typed cell values.

use crate::schema::DataType;
use std::cmp::Ordering;
use std::fmt;

/// A single cell value in a [`crate::Table`].
///
/// `Null` models a *missing* value — the central object of study in this
/// toolkit. Comparisons order `Null` first, then by value within a type.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is not a valid payload; use `Null` for missing.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The data type of this value, or `None` for `Null` (which is untyped).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// `true` iff this is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an integer, if this value is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a float; integers are widened to `f64`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extract a string slice, if this value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Extract a boolean, if this value is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Total order used for sorting and grouping: `Null < Bool < Int/Float < Str`,
    /// with numeric types compared by value (so `Int(2) == Float(2.0)` sorts equal).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        ValueRef::from_value(self).total_cmp(&ValueRef::from_value(other))
    }
}

/// A borrowed view of a cell value: like [`Value`] but with `Str` borrowing
/// the backing storage, so inspecting string cells allocates nothing.
///
/// Produced by `Table::get_ref`; convert with [`ValueRef::to_value`] when an
/// owned [`Value`] is genuinely needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// Missing value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Borrowed UTF-8 string.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl<'a> ValueRef<'a> {
    /// `true` iff this is [`ValueRef::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Extract a string slice, if this value is a `Str`.
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a float; integers are widened to `f64`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ValueRef::Float(v) => Some(*v),
            ValueRef::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The order of [`Value::total_cmp`].
    pub fn total_cmp(&self, other: &ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        fn rank(v: &ValueRef<'_>) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Str(a), Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Materialize an owned [`Value`] (clones `Str` payloads).
    pub fn to_value(&self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(*v),
            ValueRef::Float(v) => Value::Float(*v),
            ValueRef::Str(s) => Value::Str((*s).to_owned()),
            ValueRef::Bool(b) => Value::Bool(*b),
        }
    }

    /// Borrow a [`Value`] as a `ValueRef`.
    pub fn from_value(v: &'a Value) -> ValueRef<'a> {
        match v {
            Value::Null => ValueRef::Null,
            Value::Int(x) => ValueRef::Int(*x),
            Value::Float(x) => ValueRef::Float(*x),
            Value::Str(s) => ValueRef::Str(s.as_str()),
            Value::Bool(b) => ValueRef::Bool(*b),
        }
    }
}

impl PartialEq<Value> for ValueRef<'_> {
    fn eq(&self, other: &Value) -> bool {
        *self == ValueRef::from_value(other)
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => write!(f, "null"),
            ValueRef::Int(v) => write!(f, "{v}"),
            ValueRef::Float(v) => write!(f, "{v}"),
            ValueRef::Str(s) => write!(f, "{s}"),
            ValueRef::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(inner) => inner.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(4i64)), Value::Int(4));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_float(), Some(4.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Null.as_int(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn ordering_null_first_and_numeric_cross_type() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(
            Value::Str("b".into()).total_cmp(&Value::Str("a".into())),
            Ordering::Greater
        );
        assert_eq!(Value::Bool(false).total_cmp(&Value::Int(0)), Ordering::Less);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }
}
