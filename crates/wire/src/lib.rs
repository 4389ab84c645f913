//! # emap-wire — the EMAP cloud-edge wire protocol
//!
//! The paper's deployment (Fig. 3) is a cloud search service talking to
//! wearable edge devices over a real link; Figs. 4 and 9 budget the
//! upload/download times of exactly that traffic. This crate defines the
//! transport those figures assume: a length-prefixed, CRC-sealed binary
//! protocol for the EMAP conversations (a delta search — one query or
//! several in a frame, one shared sweep, only the slices the edge lacks
//! in the reply —, ingest, health), built on `std` alone.
//!
//! Layering:
//!
//! * [`codec`] — little-endian field (de)serialization that returns typed
//!   errors on any shortfall,
//! * [`assembler`] — incremental frame reassembly ([`FrameAssembler`]):
//!   feed bytes as a nonblocking socket yields them, drain complete
//!   validated messages; the blocking reader is built on it,
//! * [`quant`] — the 16-bit slice transport the delta-refresh frames
//!   ship samples in (the store's counts, bit for bit),
//! * [`Message`] — the typed messages and their payload encodings,
//! * [`frame`] — the `magic + version + type + length + crc32` frame
//!   header, with a hard payload cap enforced before allocation,
//! * [`crc`] — the CRC-32 the frame layer seals payloads with.
//!
//! Decoding is **total**: truncated, corrupt, oversized, or adversarial
//! input produces a [`WireError`], never a panic — the proptests in
//! `tests/proptests.rs` hammer exactly that contract. `emap-cloud` builds
//! the reactor TCP server and the retrying edge client on top.
//!
//! # Example
//!
//! ```
//! use emap_wire::{frame_bytes, read_frame, DeltaQuery, Message, DEFAULT_MAX_PAYLOAD};
//!
//! let request = Message::SearchBatchDeltaRequest {
//!     queries: vec![DeltaQuery {
//!         second: (0..256).map(|i| (i as f32 * 0.1).sin()).collect(),
//!         tracked: vec![],
//!     }],
//! };
//! let bytes = frame_bytes(&request);
//! let decoded = read_frame(&mut &bytes[..], DEFAULT_MAX_PAYLOAD)?;
//! assert_eq!(decoded, request);
//! # Ok::<(), emap_wire::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assembler;
pub mod codec;
pub mod crc;
mod error;
pub mod frame;
mod message;
pub mod quant;

pub use assembler::FrameAssembler;
pub use error::WireError;
pub use frame::{
    frame_bytes, read_frame, write_frame, DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, VERSION,
};
pub use message::{
    error_code, DeltaHit, DeltaQuery, DeltaSearchResult, Message, StatsMetric, StatsValue,
    MAX_BATCH_QUERIES, MAX_INGEST_SAMPLES, MAX_STATS_METRICS, MAX_TRACKED_IDS,
};
pub use quant::QuantizedSlice;
