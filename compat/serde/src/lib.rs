//! In-tree stand-in for the `serde` crate.
//!
//! The build environment has no registry access, so the workspace vendors a
//! minimal serialization framework under the same crate name: the
//! [`Serialize`] / [`Deserialize`] traits convert through the JSON-shaped
//! [`Value`] model, and `#[derive(Serialize, Deserialize)]` (re-exported
//! from the sibling `serde_derive` proc-macro crate) generates
//! externally-tagged impls with the same JSON layout real serde produces
//! for plain structs and enums. Only the surface this workspace uses is
//! implemented — no `#[serde(...)]` attributes, no generics, no zero-copy
//! deserialization.

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;
use std::time::Duration;

/// An arbitrary-precision-free JSON number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A 32-bit float (kept separate so shortest-f32 formatting survives).
    F32(f32),
    /// A 64-bit float.
    F64(f64),
}

impl Number {
    /// The number as `f64` (lossy for huge integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::UInt(v) => v as f64,
            Number::Int(v) => v as f64,
            Number::F32(v) => v as f64,
            Number::F64(v) => v,
        }
    }

    /// The number as `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::UInt(v) => Some(v),
            Number::Int(v) => u64::try_from(v).ok(),
            Number::F32(v) if v >= 0.0 && v.fract() == 0.0 => Some(v as u64),
            Number::F64(v) if v >= 0.0 && v.fract() == 0.0 => Some(v as u64),
            _ => None,
        }
    }

    /// The number as `i64`, if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::UInt(v) => i64::try_from(v).ok(),
            Number::Int(v) => Some(v),
            Number::F32(v) if v.fract() == 0.0 => Some(v as i64),
            Number::F64(v) if v.fract() == 0.0 => Some(v as i64),
            _ => None,
        }
    }
}

/// The JSON-shaped data model all (de)serialization goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, insertion-ordered.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, or a typed error naming `ty`.
    pub fn as_object_for(&self, ty: &str) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Object(entries) => Ok(entries),
            other => Err(Error::new(format!(
                "expected object for {ty}, got {}",
                other.kind()
            ))),
        }
    }

    /// A short name of the value's JSON kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// A (de)serialization error: a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// An error carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

/// Conversion into the [`Value`] model.
pub trait Serialize {
    /// The value representation of `self`.
    fn to_value(&self) -> Value;
}

/// Conversion out of the [`Value`] model.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from `value`.
    ///
    /// # Errors
    /// Returns [`Error`] when `value` has the wrong shape.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Looks up field `name` in `entries` and deserializes it — the helper the
/// derive macro calls for every struct field.
///
/// # Errors
/// Returns [`Error`] if the field is missing or has the wrong shape.
pub fn field<T: Deserialize>(entries: &[(String, Value)], name: &str) -> Result<T, Error> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v).map_err(|e| Error::new(format!("field `{name}`: {e}"))),
        None => Err(Error::new(format!("missing field `{name}`"))),
    }
}

/// The error the derive macro emits for an unknown enum tag.
pub fn unknown_variant(ty: &str, tag: &str) -> Error {
    Error::new(format!("unknown {ty} variant `{tag}`"))
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::UInt(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Number(n) => n
                        .as_u64()
                        .and_then(|v| <$t>::try_from(v).ok())
                        .ok_or_else(|| Error::new(concat!("number out of range for ", stringify!($t)))),
                    other => Err(Error::new(format!(
                        concat!("expected ", stringify!($t), ", got {}"), other.kind()))),
                }
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::Number(Number::UInt(v as u64))
                } else {
                    Value::Number(Number::Int(v))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Number(n) => n
                        .as_i64()
                        .and_then(|v| <$t>::try_from(v).ok())
                        .ok_or_else(|| Error::new(concat!("number out of range for ", stringify!($t)))),
                    other => Err(Error::new(format!(
                        concat!("expected ", stringify!($t), ", got {}"), other.kind()))),
                }
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F32(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Number(n) => Ok(n.as_f64() as f32),
            other => Err(Error::new(format!("expected f32, got {}", other.kind()))),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Number(n) => Ok(n.as_f64()),
            other => Err(Error::new(format!("expected f64, got {}", other.kind()))),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, got {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::new(format!("expected string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(s) if s.chars().count() == 1 => {
                s.chars().next().ok_or_else(|| Error::new("empty char"))
            }
            other => Err(Error::new(format!(
                "expected single-char string, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::new(format!("expected array, got {}", other.kind()))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(value)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected {N}-element array, got {got}")))
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+)),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                const ARITY: usize = 0 $(+ { let _ = $idx; 1 })+;
                match value {
                    Value::Array(items) if items.len() == ARITY => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(Error::new(format!(
                        "expected {}-tuple array, got {}", ARITY, other.kind()))),
                }
            }
        }
    )*};
}
impl_serde_tuple!((A: 0), (A: 0, B: 1), (A: 0, B: 1, C: 2), (A: 0, B: 1, C: 2, D: 3));

impl Serialize for Duration {
    fn to_value(&self) -> Value {
        // Matches real serde's layout for std::time::Duration.
        Value::Object(vec![
            (
                "secs".to_string(),
                Value::Number(Number::UInt(self.as_secs())),
            ),
            (
                "nanos".to_string(),
                Value::Number(Number::UInt(u64::from(self.subsec_nanos()))),
            ),
        ])
    }
}

impl Deserialize for Duration {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = value.as_object_for("Duration")?;
        let secs: u64 = field(entries, "secs")?;
        let nanos: u32 = field(entries, "nanos")?;
        Ok(Duration::new(secs, nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(u32::from_value(&42u32.to_value()), Ok(42));
        assert_eq!(i64::from_value(&(-7i64).to_value()), Ok(-7));
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()),
            Ok("hi".to_string())
        );
        assert_eq!(f32::from_value(&0.1f32.to_value()), Ok(0.1f32));
    }

    #[test]
    fn option_and_vec_round_trip() {
        let v: Option<Vec<u8>> = Some(vec![1, 2, 3]);
        assert_eq!(Option::<Vec<u8>>::from_value(&v.to_value()), Ok(v));
        let none: Option<u8> = None;
        assert_eq!(none.to_value(), Value::Null);
        assert_eq!(Option::<u8>::from_value(&Value::Null), Ok(None));
    }

    #[test]
    fn arc_is_written_as_its_value() {
        let shared = std::sync::Arc::new(vec![1u8, 2]);
        assert_eq!(shared.to_value(), vec![1u8, 2].to_value());
        let back = std::sync::Arc::<Vec<u8>>::from_value(&shared.to_value());
        assert_eq!(back, Ok(shared));
    }

    #[test]
    fn tuple_and_duration_round_trip() {
        let t = (3usize, "x".to_string());
        assert_eq!(<(usize, String)>::from_value(&t.to_value()), Ok(t));
        let d = Duration::new(5, 42);
        assert_eq!(Duration::from_value(&d.to_value()), Ok(d));
    }

    #[test]
    fn range_errors_are_typed() {
        let big = Value::Number(Number::UInt(300));
        assert!(u8::from_value(&big).is_err());
        assert!(bool::from_value(&big).is_err());
        assert!(field::<u8>(&[], "missing").is_err());
    }
}
