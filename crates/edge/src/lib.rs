//! The EMAP edge node (§V-C): lightweight real-time tracking of the
//! correlation set, anomaly-probability estimation, and prediction.
//!
//! After the cloud returns the top-100 correlation set `T`, the edge device
//! tracks each entry `W = [S, ω, β]` against every subsequent one-second
//! input using the cheap *area between curves* metric (Eq. 3) instead of
//! re-evaluating correlations (~4.3× faster, Fig. 8b):
//!
//! - [`EdgeTracker`] — Algorithm 2: per iteration, keep each tracked
//!   signal iff some window of its slice is within the area threshold
//!   `δ_A` (the scan stops at the first such window), and request a new
//!   cloud search when fewer than `H` signals remain.
//! - [`PaHistory`] — the anomaly-probability series `P_A = N(AS)/N(F)`
//!   (Eq. 5) across iterations, as visualized in Fig. 2.
//! - [`AnomalyPredictor`] — §VI-B's decision rule: a *rising* `P_A` is
//!   classified as an impending anomaly.
//!
//! # Example
//!
//! ```
//! use emap_edge::{EdgeConfig, EdgeTracker};
//! use emap_datasets::RecordingFactory;
//! use emap_mdb::MdbBuilder;
//! use emap_search::{BatchExecutor, Query, ScanKernel, SearchConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let factory = RecordingFactory::new(2);
//! let rec = factory.normal_recording("r", 24.0);
//! let mut b = MdbBuilder::new();
//! b.add_recording("d", &rec)?;
//! let mdb = b.build();
//!
//! let filtered = emap_dsp::emap_bandpass().filter(rec.channels()[0].samples());
//! let t = BatchExecutor::new(ScanKernel::Sliding, SearchConfig::paper())
//!     .search(&Query::new(&filtered[1024..1280])?, &mdb)?;
//!
//! let mut tracker = EdgeTracker::new(EdgeConfig::default());
//! tracker.load(&t, &mdb)?;
//! let report = tracker.step(&filtered[1280..1536])?;
//! assert!(report.probability >= 0.0 && report.probability <= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod predictor;
mod probability;
mod tracker;

pub use config::EdgeConfig;
pub use error::EdgeError;
pub use predictor::{AnomalyPredictor, Prediction, PredictorConfig};
pub use probability::PaHistory;
pub use tracker::{
    EdgeTracker, SharedDownload, SharedSlice, StepReport, TrackedSignal, TrackerState,
};
