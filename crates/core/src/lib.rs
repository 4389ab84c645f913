//! The EMAP framework: cloud-edge hybrid EEG monitoring and real-time
//! anomaly prediction.
//!
//! This crate ties the substrates together into the three-stage pipeline of
//! Fig. 3:
//!
//! 1. **Signal acquisition** ([`Acquisition`]) — 256 Hz sampling, the
//!    100-tap 11–40 Hz bandpass, one-second windows.
//! 2. **Cloud search** — a [`CloudEndpoint`]: the in-process
//!    [`CloudService`] over the [`emap_mdb::Mdb`] or a remote server,
//!    returning the top-100 correlation set.
//! 3. **Edge tracking** — [`EdgeFleet::tick`], where each patient-second
//!    meets the optional quality gate and [`emap_edge::EdgeTracker`],
//!    which prunes the set and estimates the anomaly probability `P_A`.
//!
//! [`EdgeFleet`] steps many sessions per tick; [`EmapPipeline`] drives a
//! one-session fleet second by second, including the *background* cloud
//! refresh of Fig. 9: when the tracked set shrinks below `H`, the current
//! second is transmitted to the cloud, tracking continues on the shrinking
//! set, and the new correlation set is installed when the modeled search
//! latency elapses.
//!
//! [`eval`] hosts the accuracy-evaluation harness behind Table I and
//! Fig. 10; [`timeline`] reproduces Fig. 9's timing trace.
//!
//! # Example
//!
//! ```
//! use emap_core::{EmapConfig, EmapPipeline};
//! use emap_datasets::RecordingFactory;
//! use emap_mdb::MdbBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let factory = RecordingFactory::new(7);
//! let mut builder = MdbBuilder::new();
//! for i in 0..4 {
//!     builder.add_recording("ds", &factory.normal_recording(&format!("r{i}"), 24.0))?;
//! }
//! let mdb = builder.build();
//!
//! let mut pipeline = EmapPipeline::new(EmapConfig::default(), mdb);
//! let input = factory.normal_recording("patient", 12.0);
//! let trace = pipeline.run_on_samples(input.channels()[0].samples())?;
//! assert!(trace.iterations.len() > 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acquisition;
mod config;
mod error;
pub mod eval;
mod fleet;
mod monitor;
mod pipeline;
mod report;
mod service;
pub mod timeline;

pub use acquisition::{seconds_of, Acquisition};
pub use config::EmapConfig;
pub use error::EmapError;
pub use fleet::{EdgeFleet, FleetSession, FleetTick};
pub use monitor::{MonitorEvent, StreamingMonitor};
pub use pipeline::{EmapPipeline, IterationOutcome, RunTrace};
pub use report::SessionReport;
pub use service::{CloudEndpoint, CloudService, IngestOutcome, IngestPolicy, Quarantined};

/// A small two-class corpus for unit tests: `pairs` normal and `pairs`
/// seizure recordings of 24 s from `RecordingFactory::new(seed)`.
#[cfg(test)]
fn test_corpus(seed: u64, pairs: usize) -> emap_mdb::Mdb {
    let factory = emap_datasets::RecordingFactory::new(seed);
    let mut builder = emap_mdb::MdbBuilder::new();
    for i in 0..pairs {
        let seizure = emap_datasets::SignalClass::Seizure;
        for rec in [
            factory.normal_recording(&format!("n{i}"), 24.0),
            factory.anomaly_recording(seizure, &format!("s{i}"), 24.0),
        ] {
            builder.add_recording("d", &rec).expect("valid recording");
        }
    }
    builder.build()
}
