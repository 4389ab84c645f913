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
//! - [`ExhaustiveSearch`] — the stride-1 baseline.
//! - [`SlidingSearch`] — Algorithm 1, fanned out over worker threads with
//!   [`SlidingSearch::with_workers`] (the paper's parallel MDB scan).
//! - [`TwoStageSearch`] — an extension beyond the paper: a coarse prescan
//!   followed by dense refinement around promising offsets.
//! - [`CorrelationSet`] — the result `T`: hits `W = [S, ω, β]` plus the work
//!   counters that feed the timing model of Fig. 7.
//! - [`QueryIndex`] — beyond the paper: precomputed spectral envelopes give
//!   an O(1) admissible upper bound on any host's best `ω`, letting every
//!   algorithm visit hosts best-bound-first and skip those that cannot enter
//!   the current top-K (DESIGN.md §12) — the hits are those of a scan of
//!   every host, bit for bit.
//!
//! # Example
//!
//! ```
//! use emap_datasets::RecordingFactory;
//! use emap_mdb::MdbBuilder;
//! use emap_search::{Search, SearchConfig, SlidingSearch};
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
//! let result = SlidingSearch::new(SearchConfig::paper()).search(&query, &mdb)?;
//! assert!(result.hits().iter().any(|h| h.omega > 0.99));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod exhaustive;
mod index;
mod query;
mod result;
mod skip;
mod sliding;
mod telemetry;
mod two_stage;

pub use config::SearchConfig;
pub use engine::{BatchExecutor, ScanKernel};
pub use error::SearchError;
pub use exhaustive::ExhaustiveSearch;
pub use index::QueryIndex;
pub use query::Query;
pub use result::{CorrelationSet, SearchHit, SearchWork};
pub use skip::SkipTable;
pub use sliding::{skip_for_omega, SlidingSearch};
pub use telemetry::SweepTelemetry;
pub use two_stage::TwoStageSearch;

use emap_mdb::Mdb;

/// Common interface of the search algorithms, object-safe so harnesses can
/// hold `Box<dyn Search>` baselines.
pub trait Search {
    /// Human-readable algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Serves a batch of queries (e.g. several patients' seconds arriving
    /// in the same cloud scheduling window) over one consistent view of
    /// `mdb`, preserving order. Queries are served independently: each
    /// result is bitwise what [`Search::search`] returns for that query.
    ///
    /// # Errors
    ///
    /// Returns the first [`SearchError`] encountered.
    fn search_batch(
        &self,
        queries: &[Query],
        mdb: &Mdb,
    ) -> Result<Vec<CorrelationSet>, SearchError>;

    /// Finds the correlation set `T` for `query` over `mdb`.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError`] if the query or configuration is unusable.
    fn search(&self, query: &Query, mdb: &Mdb) -> Result<CorrelationSet, SearchError> {
        let mut out = self.search_batch(std::slice::from_ref(query), mdb)?;
        Ok(out.pop().expect("one result per query"))
    }
}
