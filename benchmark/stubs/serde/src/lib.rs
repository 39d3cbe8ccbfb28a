//! Offline stand-in for `serde`: just enough trait surface for the product's
//! `#[serde(with = ..)]` helper module to type-check. Nothing here runs.

pub use serde_derive::{Deserialize, Serialize};

pub mod ser {
    pub trait Error: Sized + std::fmt::Debug {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

pub mod de {
    pub trait Error: Sized + std::fmt::Debug {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

pub trait Serializer: Sized {
    type Ok;
    type Error: ser::Error;
    fn serialize_bytes(self, v: &[u8]) -> Result<Self::Ok, Self::Error>;
}

pub trait Deserializer<'de>: Sized {
    type Error: de::Error;
    fn deserialize_byte_buf(self) -> Result<Vec<u8>, Self::Error>;
}

pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

impl Serialize for [u8] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self)
    }
}

impl<'de> Deserialize<'de> for Vec<u8> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_byte_buf()
    }
}
