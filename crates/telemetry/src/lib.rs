//! Lock-free runtime metrics for the EMAP cloud-edge stack.
//!
//! The paper's whole argument is a latency/energy budget, yet a production
//! deployment of the pipeline has to *measure* that budget continuously:
//! where do the milliseconds go per request, how effective is the area-bound
//! prune, how often does the server coalesce concurrent searches?
//! This crate is the measurement substrate — deliberately dependency-free
//! and cheap enough to leave enabled in the hot paths it observes.
//!
//! # Design
//!
//! Three primitive instruments, all built on `std::sync::atomic`:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`.
//! * [`Gauge`] — a signed instantaneous value (`AtomicI64`).
//! * [`Histogram`] — fixed power-of-two log-scale buckets over nanosecond
//!   values with p50/p90/p99 readout from a [`HistogramSnapshot`].
//!
//! Handles are `Arc`-shared: cloning is cheap, and every mutation is a
//! single relaxed atomic RMW — **no locks anywhere on the record path**.
//! The [`Registry`] keeps a name → instrument map behind a mutex, but that
//! lock is touched only at registration and snapshot time, never when a
//! counter increments or a timer fires.
//!
//! A registry can be built *disabled* ([`Registry::disabled`]): counters
//! and gauges stay live (they are one relaxed `fetch_add`, and server
//! bookkeeping depends on them) while histograms and [`Timer`]s become
//! inert — in particular no `Instant::now()` clock reads happen, which is
//! the only per-event cost that shows up on a profile.
//!
//! # Example
//!
//! ```
//! use emap_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let requests = registry.counter("requests_total");
//! let latency = registry.histogram("request_nanos");
//!
//! for _ in 0..3 {
//!     let _timer = latency.start_timer(); // records on drop
//!     requests.inc();
//! }
//!
//! assert_eq!(requests.get(), 3);
//! let text = registry.render_text();
//! assert!(text.contains("requests_total 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Timer, BUCKETS};
pub use registry::{MetricSnapshot, MetricValue, Registry};
