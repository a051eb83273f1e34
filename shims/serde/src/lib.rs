//! Minimal `serde` shim, serialisation only.
//!
//! The real serde serialises through a visitor pipeline; this shim keeps
//! the same trait name but routes everything through a concrete
//! JSON-shaped [`Value`] tree, which is all the workspace (and the
//! `serde_json` shim) needs. The workspace never deserialises into a
//! type, so the shim has no deserialising half, and it has no derive:
//! the few types written as JSON implement [`Serialize`] by hand, in
//! serde_json's conventions (structs → objects, fields in declaration
//! order).

mod value;

pub use value::{Map, Value};

/// Types that can render themselves as a [`Value`].
pub trait Serialize {
    /// This value as a JSON-shaped tree.
    fn to_value(&self) -> Value;
}

// ---------------------------------------------------------------------------
// Serialize impls for primitives and std containers.
// ---------------------------------------------------------------------------

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}
ser_unsigned!(u64, usize);

impl Serialize for i64 {
    fn to_value(&self) -> Value {
        Value::I64(*self)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

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

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
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

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
