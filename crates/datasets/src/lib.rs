//! Synthetic EEG dataset generators for the EMAP reproduction.
//!
//! The paper builds its mega-database from five public corpora
//! (PhysioNet, the TUH EEG corpus, the UCI epileptic-seizure set, BNCI
//! Horizon 2020, and the Zwoliński epilepsy database). Those corpora cannot
//! ship with this repository, so this crate provides the closest synthetic
//! equivalent (see `DESIGN.md` §4 for the substitution argument):
//!
//! - [`SignalClass`] — the four signal classes of the evaluation: normal
//!   background EEG plus the three anomalies (seizure, encephalopathy,
//!   stroke).
//! - [`PatternLibrary`] — per-class banks of deterministic waveform
//!   *patterns*. Two recordings drawn from the same pattern differ only by
//!   noise and gain, so they cross-correlate highly — reproducing the
//!   "substantially large and highly redundant data-set" (§VI-B) property
//!   the paper's search relies on, while different classes produce
//!   morphologically distinct waveforms in the 11–40 Hz analysis band.
//! - [`synth`] — turns patterns into sampled waveforms, with per-recording
//!   noise, gain wobble, and class-specific transients (3 Hz spike-wave for
//!   seizures, triphasic waves for encephalopathy, focal attenuation with
//!   polymorphic bursts for stroke).
//! - [`artifacts`] — optional eye-blink / muscle / electrode-pop
//!   contamination for robustness experiments.
//! - [`RecordingFactory`] — assembles labeled [`emap_edf::Recording`]s:
//!   whole-record anomalies for encephalopathy/stroke (the paper annotates
//!   those "complete signal as an anomaly") and onset-annotated seizure
//!   records with a preictal buildup for the prediction-horizon experiments.
//! - [`DatasetSpec`] / [`registry::standard_registry`] — five dataset mirrors
//!   with the native sampling rates and class mixes of the originals.
//! - [`json`] — the small JSON value, writer and strict parser that specs,
//!   session reports and the CLI's `--json` records go through.
//!
//! Everything is seeded: the same seed always generates the same corpus.
//!
//! # Example
//!
//! ```
//! use emap_datasets::{RecordingFactory, SignalClass};
//!
//! let factory = RecordingFactory::new(42);
//! let rec = factory.seizure_recording("p0", 30.0, 10.0);
//! // One annotated seizure onset 30 s in, lasting 10 s.
//! assert_eq!(rec.annotations_labeled(SignalClass::Seizure.label()).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
mod class;
mod dataset;
pub mod export;
mod factory;
pub mod json;
mod pattern;
pub mod registry;
pub mod synth;

pub use class::SignalClass;
pub use dataset::{Dataset, DatasetSpec};
pub use factory::{RecordingFactory, ARTIFACT_LABEL, MONTAGE, PREICTAL_LABEL, PREICTAL_SECONDS};
pub use pattern::{Pattern, PatternLibrary};

/// Number of distinct waveform patterns per signal class.
///
/// More patterns means a more diverse class; the per-class noise levels in
/// [`synth`] control intra-pattern redundancy. Six patterns keeps every
/// pattern represented in the standard registry (dataset generation cycles
/// patterns deterministically), which models the paper's premise that the
/// mega-database is large and redundant enough for any input to find
/// analogues.
pub const PATTERNS_PER_CLASS: usize = 6;
