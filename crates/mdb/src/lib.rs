//! The EMAP mega-database (MDB).
//!
//! §V-B of the paper constructs the MDB by collecting five EEG corpora,
//! up-/down-sampling every signal to the 256 Hz base rate, bandpass
//! filtering it (consistency with the filtered input), slicing it into
//! *signal-sets* of 1000 samples, and labeling each slice normal or
//! anomalous. The original used MongoDB as the store; here the store is an
//! in-process collection with a binary snapshot format (see `DESIGN.md` §4
//! for why this preserves the search semantics).
//!
//! - [`SignalSet`] — one labeled 1000-sample slice with provenance.
//! - [`MdbBuilder`] — the ingestion pipeline (resample → bandpass → slice →
//!   label).
//! - [`Mdb`] — the store: indexed access, iteration, chunking for parallel
//!   scans, statistics, and snapshot persistence.
//! - [`SharedMdb`] — a cheaply clonable thread-safe handle used by the
//!   cloud-side search when serving concurrent requests.
//!
//! # Example
//!
//! ```
//! use emap_datasets::{registry::standard_registry, SignalClass};
//! use emap_mdb::MdbBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = MdbBuilder::new();
//! for spec in standard_registry(1) {
//!     builder.add_dataset(&spec.generate(42))?;
//! }
//! let mdb = builder.build();
//! assert!(mdb.len() > 100);
//! assert!(mdb.stats().anomalous > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod slice;
mod snapshot;
mod store;

pub use builder::{class_from_label, MdbBuilder};
pub use error::MdbError;
pub use slice::{counts, Provenance, SetId, SharedSamples, SignalSet};
pub use store::{LiveInsert, Mdb, MdbStats, SharedMdb};

/// Number of samples per signal-set (§V-B: "sliced into signal-sets of 1000
/// samples each").
pub const SIGNAL_SET_LEN: usize = 1000;
