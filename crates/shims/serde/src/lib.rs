//! Vendored work-alike shim for the slice of `serde` this workspace uses:
//! a [`Serialize`] trait rendered through a self-describing JSON [`Value`]
//! model, plus a strict JSON parser (used by tests to validate emitted
//! traces). `#[derive(Serialize)]` comes from the sibling `serde_derive`
//! shim (enabled by the `derive` feature, as upstream).
//!
//! The build environment has no registry access; the workspace points
//! `serde` at this path crate (see the root `Cargo.toml`). The surface is
//! deliberately small — callers only need "make my struct a JSON value".

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod json;

pub use json::{ParseError, Value};

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

/// A type renderable as a JSON [`Value`].
pub trait Serialize {
    /// Convert to the self-describing value model.
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_serialize_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
    )*};
}

impl_serialize_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for std::borrow::Cow<'_, str> {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
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

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<std::borrow::Cow<'static, str>, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_through_value() {
        assert_eq!(42u32.to_value().to_json(), "42");
        assert_eq!(1.5f64.to_value().to_json(), "1.5");
        assert_eq!(true.to_value().to_json(), "true");
        assert_eq!("hi".to_value().to_json(), "\"hi\"");
        assert_eq!(Option::<u32>::None.to_value().to_json(), "null");
        assert_eq!(vec![1u8, 2].to_value().to_json(), "[1,2]");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_value().to_json(), "null");
        assert_eq!(f64::INFINITY.to_value().to_json(), "null");
    }
}
