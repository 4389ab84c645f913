//! Offline stand-in for `serde_json`.
//!
//! Only `emap_datasets::registry::{save_specs, load_specs}` call into this
//! crate, and the benchmark calls neither; every function returns an error
//! saying so instead of pretending to serialize.

use std::fmt;

/// The only error this stand-in produces.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is an offline stand-in in this build: JSON is unavailable")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn from_str<T>(_s: &str) -> Result<T> {
    Err(Error)
}
