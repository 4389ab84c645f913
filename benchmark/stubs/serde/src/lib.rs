//! Offline stand-in for `serde`.
//!
//! The sandbox has no registry, and nothing the benchmark measures
//! serializes: the workspace crates only *derive* the traits. The derives
//! expand to nothing, so the traits below have no implementors and any code
//! that tried to serialize through this stand-in would fail to compile
//! rather than silently misbehave.

/// Marker for `use serde::Serialize` (shares its name with the derive).
pub trait Serialize {}

/// Marker for `use serde::Deserialize` (shares its name with the derive).
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
