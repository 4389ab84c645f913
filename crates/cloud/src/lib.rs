//! The EMAP cloud-edge transport: real processes on real sockets.
//!
//! Everything up to this crate runs the paper's pipeline in one process;
//! here the Fig. 3 deployment becomes literal. [`CloudServer`] exposes an
//! [`emap_core::CloudService`] over TCP using the [`emap_wire`] frame
//! protocol — one readiness loop in front of a fixed worker pool,
//! per-connection deadlines, bounded in-flight searches with typed [`emap_wire::Message::Busy`]
//! backpressure, and a graceful drain on shutdown. [`RemoteCloud`] is the
//! wearable's side: a reconnecting, retrying client that implements the
//! same [`emap_core::CloudEndpoint`] seam as the in-process service, so
//! [`emap_core::EdgeFleet::serve_with`] works identically against either —
//! and when the cloud is unreachable, the fleet degrades to local-only
//! tracking instead of failing (see `DESIGN.md` §11).
//!
//! # Example
//!
//! ```
//! use emap_cloud::{CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
//! use emap_core::CloudService;
//! use emap_datasets::RecordingFactory;
//! use emap_mdb::MdbBuilder;
//! use emap_search::SearchConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let factory = RecordingFactory::new(3);
//! let mut builder = MdbBuilder::new();
//! builder.add_recording("d", &factory.normal_recording("r", 24.0))?;
//! let service = CloudService::new(SearchConfig::paper(), builder.build().into_shared(), 2);
//!
//! let server = CloudServer::bind("127.0.0.1:0", service, ServerConfig::default())?;
//! let client = RemoteCloud::new(server.local_addr().to_string(), RemoteCloudConfig::default());
//! assert!(client.ping()? > 0);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod delta;
mod reactor;
mod server;

pub use client::{
    ClientError, CloudHealth, CloudStats, RefreshMode, RemoteCloud, RemoteCloudConfig,
};
pub use delta::{apply_delta, Delivered, DeltaPlanner};
pub use server::{CloudServer, ServerConfig, ServerCore, ServerStats};
