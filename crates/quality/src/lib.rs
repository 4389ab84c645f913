//! Per-second EEG signal-quality gating.
//!
//! Wearable EEG is riddled with non-cerebral contamination — detached
//! electrodes, amplifier saturation, motion spikes, slow electrode
//! drift — and the paper's pipeline (PAPER.md §III) implicitly assumes
//! clean windows: an artifact second fed to the edge tracker poisons
//! the anomaly probability `P_A`, and an artifact slice ingested by the
//! cloud poisons every future sweep. This crate is the gate that keeps
//! both out.
//!
//! The design follows the energy-efficient tree-based artifact
//! detectors of the embedded-EEG literature: four cheap time-domain
//! features per one-second window (no FFT, no training) feeding a
//! small hand-rolled decision tree with fixed, documented thresholds.
//! Everything is pure and allocation-free per window, so the gate can
//! run on every acquisition second of a 10k-session fleet.
//!
//! * [`features::SecondFeatures`] — line-length, zero-crossings,
//!   amplitude range, and a crest-factor kurtosis proxy.
//! * [`QualityGate`] — the classifier; [`Verdict`] says clean or which
//!   [`ArtifactKind`] archetype fired.
//!
//! It is the repository's one quality gate: the edge applies it per
//! session second in `emap_core::EdgeFleet::tick` (which every monitoring
//! loop, `emap_core::EmapPipeline` included, steps through), and the
//! cloud per ingested slice under an `emap_core::IngestPolicy`.
//!
//! # Example
//!
//! ```
//! use emap_quality::{QualityGate, Verdict, ArtifactKind};
//!
//! let gate = QualityGate::default();
//! let eeg: Vec<f32> = (0..256)
//!     .map(|n| (n as f32 * 0.35).sin() * 40.0 + (n as f32 * 1.1).sin() * 10.0)
//!     .collect();
//! assert_eq!(gate.assess_second(&eeg), Verdict::Clean);
//! assert_eq!(
//!     gate.assess_second(&[0.0; 256]),
//!     Verdict::Artifact(ArtifactKind::Flatline)
//! );
//! ```

#![forbid(unsafe_code)]

pub mod features;
mod gate;

pub use features::SecondFeatures;
pub use gate::{ArtifactKind, GateThresholds, QualityGate, Verdict};
