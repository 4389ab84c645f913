//! # EMAP — cloud-edge hybrid EEG monitoring and anomaly prediction
//!
//! A from-scratch Rust reproduction of *EMAP: A Cloud-Edge Hybrid Framework
//! for EEG Monitoring and Cross-Correlation Based Real-time Anomaly
//! Prediction* (Prabakaran et al., DAC 2020, arXiv:2004.10491).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`dsp`] | `emap-dsp` | FIR design, filtering, resampling, similarity metrics |
//! | [`edf`] | `emap-edf` | EDF-style recording container and binary codec |
//! | [`datasets`] | `emap-datasets` | synthetic mirrors of the five source corpora |
//! | [`mdb`] | `emap-mdb` | the mega-database: ingestion, storage, snapshots |
//! | [`search`] | `emap-search` | exhaustive baseline + Algorithm 1 cloud search |
//! | [`net`] | `emap-net` | communication & device timing models |
//! | [`edge`] | `emap-edge` | Algorithm 2 tracking, `P_A`, prediction |
//! | [`core`] | `emap-core` | the assembled pipeline, timeline, evaluation |
//! | [`wire`] | `emap-wire` | CRC-framed binary wire protocol |
//! | [`cloud`] | `emap-cloud` | TCP cloud server + fault-tolerant edge client |
//! | [`telemetry`] | `emap-telemetry` | lock-free runtime metrics: counters, gauges, latency histograms |
//!
//! # Quickstart
//!
//! Build a mega-database from the synthetic registry, run a patient signal
//! through the pipeline, and classify it:
//!
//! ```
//! use emap::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Cloud side: ingest the five dataset mirrors into the MDB.
//! let mut builder = MdbBuilder::new();
//! for spec in standard_registry(1) {
//!     builder.add_dataset(&spec.generate(42))?;
//! }
//! let mdb = builder.build();
//!
//! // 2. A patient input (here: synthetic, sharing the corpus libraries).
//! let factory = RecordingFactory::new(42);
//! let patient = factory.normal_recording("patient-7", 12.0);
//!
//! // 3. Run the framework and inspect the anomaly-probability series.
//! let mut pipeline = EmapPipeline::new(EmapConfig::default(), mdb);
//! let trace = pipeline.run_on_samples(patient.channels()[0].samples())?;
//! let verdict = AnomalyPredictor::default().classify(&trace.pa_history);
//! println!("verdict: {verdict:?} (P_A ended at {:.2})", trace.pa_history.last());
//! assert!(trace.pa_history.last() >= 0.0 && trace.pa_history.last() <= 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! See the repository `examples/` directory for complete scenarios and
//! `crates/bench` for the per-figure reproduction harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use emap_cloud as cloud;
pub use emap_core as core;
pub use emap_datasets as datasets;
pub use emap_dsp as dsp;
pub use emap_edf as edf;
pub use emap_edge as edge;
pub use emap_mdb as mdb;
pub use emap_net as net;
pub use emap_search as search;
pub use emap_telemetry as telemetry;
pub use emap_wire as wire;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use emap_cloud::{CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
    pub use emap_core::{
        Acquisition, CloudEndpoint, CloudService, EdgeFleet, EmapConfig, EmapPipeline,
        MonitorEvent, RunTrace, StreamingMonitor,
    };
    pub use emap_datasets::{
        registry::standard_registry, DatasetSpec, RecordingFactory, SignalClass,
    };
    pub use emap_dsp::{emap_bandpass, SampleRate};
    pub use emap_edf::{Annotation, Channel, Recording};
    pub use emap_edge::{AnomalyPredictor, EdgeConfig, EdgeTracker, PaHistory, Prediction};
    pub use emap_mdb::{Mdb, MdbBuilder, SignalSet};
    pub use emap_net::{CommTech, Device, InitialLatency, TrackingMetric};
    pub use emap_search::{BatchExecutor, Query, ScanKernel, SearchConfig};
}
