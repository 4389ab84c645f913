//! The EMAP cloud search (§V-B, Algorithm 1, Figs. 5–7).
//!
//! Given the patient's one-second input window, the cloud must find the
//! top-100 most-correlated 256-sample windows anywhere in the mega-database.
//! Exhaustively cross-correlating all 745 offsets of every 1000-sample
//! signal-set explodes (Fig. 5), so the paper proposes an exponential
//! sliding window: after evaluating the correlation `ω` at an offset, skip
//! `β = α^(ω−1)` samples — dissimilar content (`ω ≈ 0`) jumps ~250 samples,
//! near-matches (`ω ≈ 1`) advance one sample at a time (Fig. 6).
//!
//! - [`SearchConfig`] — `α = 0.004`, `δ = 0.8`, top-100, as fixed by §V-B.
//!   The one home of `α`: the skip law [`skip_for_omega`] is always read
//!   at the configuration's value.
//! - [`BatchExecutor`] — the search: one [`ScanKernel`] swept over the
//!   store for a batch of queries ([`BatchExecutor::sweep`]) or one
//!   ([`BatchExecutor::search`]), fanned out over worker threads with
//!   [`BatchExecutor::with_workers`] (the paper's parallel MDB scan).
//! - [`ScanKernel`] — `Sliding` is Algorithm 1, `Exhaustive` the stride-1
//!   baseline of Figs. 5 and 7b.
//! - [`CorrelationSet`] — the result `T`: hits `W = [S, ω, β]` plus the work
//!   counters that feed the timing model of Fig. 7.
//! - [`QueryIndex`] — beyond the paper: precomputed spectral envelopes give
//!   an O(1) admissible upper bound on any host's best `ω`, letting either
//!   kernel visit hosts best-bound-first and skip those that cannot enter
//!   the current top-K (DESIGN.md §12) — the hits are those of a scan of
//!   every host, bit for bit.
//!
//! # Example
//!
//! ```
//! use emap_datasets::RecordingFactory;
//! use emap_mdb::MdbBuilder;
//! use emap_search::{BatchExecutor, ScanKernel, SearchConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let factory = RecordingFactory::new(5);
//! let mut builder = MdbBuilder::new();
//! builder.add_recording("ds", &factory.normal_recording("r0", 24.0))?;
//! let mdb = builder.build();
//!
//! // Query: one second filtered exactly like the MDB content.
//! let rec = factory.normal_recording("r0", 24.0);
//! let filt = emap_dsp::emap_bandpass().filter(rec.channels()[0].samples());
//! let query = emap_search::Query::new(&filt[2000..2256])?;
//!
//! let cfg = SearchConfig::paper();
//! let result = BatchExecutor::new(ScanKernel::Sliding, cfg).search(&query, &mdb)?;
//! assert!(result.hits().iter().any(|h| h.omega > 0.99));
//!
//! // The stride-1 baseline evaluates more windows.
//! let stride1 = BatchExecutor::new(ScanKernel::Exhaustive, cfg).search(&query, &mdb)?;
//! assert!(result.work().correlations < stride1.work().correlations);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod index;
mod query;
mod result;
mod skip;
mod telemetry;

pub use config::SearchConfig;
pub use engine::{BatchExecutor, ScanKernel};
pub use error::SearchError;
pub use index::QueryIndex;
pub use query::Query;
pub use result::{CorrelationSet, SearchHit, SearchWork};
pub use skip::skip_for_omega;
pub use telemetry::SweepTelemetry;
