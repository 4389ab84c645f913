//! DSP substrate for the EMAP framework.
//!
//! This crate implements, from scratch, every signal-processing primitive the
//! EMAP paper relies on (the original implementation used `scipy`):
//!
//! - [`window`] — spectral window functions (Hamming, Hann, Blackman, …) used
//!   by the windowed-sinc FIR designer.
//! - [`fir`] — FIR filter design ([`fir::FirFilter::bandpass`] builds the
//!   100-tap 11–40 Hz bandpass from §III of the paper) and both batch and
//!   streaming application.
//! - [`resample`] — sample-rate conversion used when building the
//!   mega-database (all source datasets are brought to the 256 Hz base rate).
//! - [`kernel`] — the paper's `ω` (Eq. 2, min–max form):
//!   [`kernel::KernelCorrelator`], the one correlator the search and the
//!   tracker run, over per-host prefix sums and sparse-table min/max so
//!   window statistics cost O(1) at any offset.
//! - [`area`] — the area between curves (Eq. 3): [`area::abs_diff_sum`],
//!   its one arithmetic, and the bound-pruned scan the edge tracker runs
//!   (prefix-sum lower bounds reject whole offsets before any sample is
//!   touched, and the survivors run an 8-lane early-exit sum).
//! - [`similarity`] — pairwise forms of both metrics on two equal-length
//!   windows: raw and zero-mean normalized cross-correlation, and the area
//!   between curves.
//! - [`spectra`] — spectral envelopes that bound the best `ω` a host can
//!   reach, so the search skips hosts without correlating them.
//! - [`spectrum`] — periodogram / Welch PSD estimation, used to verify band
//!   content of filters and synthetic signals.
//! - [`stats`] — small numeric helpers shared by the other modules.
//! - [`rng`] — the workspace's one seeded generator (the synthetic corpus is
//!   a function of its stream, so it lives at the bottom of the crate graph).
//!
//! # Example
//!
//! Designing the paper's bandpass filter and measuring the similarity of two
//! filtered windows:
//!
//! ```
//! use emap_dsp::fir::FirFilter;
//! use emap_dsp::similarity::{normalized_cross_correlation, area_between_curves};
//! use emap_dsp::SampleRate;
//!
//! # fn main() -> Result<(), emap_dsp::DspError> {
//! let fs = SampleRate::EEG_BASE; // 256 Hz
//! let filter = FirFilter::bandpass(100, 11.0, 40.0, fs)?;
//!
//! let raw: Vec<f32> = (0..256)
//!     .map(|n| (2.0 * std::f32::consts::PI * 20.0 * n as f32 / 256.0).sin())
//!     .collect();
//! let filtered = filter.filter(&raw);
//!
//! let omega = normalized_cross_correlation(&filtered, &filtered)?;
//! assert!((omega - 1.0).abs() < 1e-5);
//! let area = area_between_curves(&filtered, &filtered)?;
//! assert_eq!(area, 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod fir;
pub mod kernel;
pub mod resample;
pub mod rng;
pub mod similarity;
pub mod spectra;
pub mod spectrum;
pub mod stats;
pub mod window;

mod error;
mod rate;

pub use error::DspError;
pub use rate::SampleRate;

/// Number of samples in one second of EEG at the EMAP base rate (256 Hz).
pub const SAMPLES_PER_SECOND: usize = 256;

/// Number of taps in the EMAP bandpass filter (§III, Eq. 1).
pub const EMAP_FILTER_TAPS: usize = 100;

/// Lower cutoff of the EMAP bandpass filter in Hz (§III).
pub const EMAP_BAND_LOW_HZ: f64 = 11.0;

/// Upper cutoff of the EMAP bandpass filter in Hz (§III).
pub const EMAP_BAND_HIGH_HZ: f64 = 40.0;

/// Builds the exact bandpass filter the paper defines in §III: a 100-tap FIR
/// passing 11–40 Hz at the 256 Hz base rate.
///
/// This is a convenience wrapper over [`fir::FirFilter::bandpass`] with the
/// paper's constants.
///
/// # Example
///
/// ```
/// let filter = emap_dsp::emap_bandpass();
/// assert_eq!(filter.taps().len(), emap_dsp::EMAP_FILTER_TAPS);
/// ```
#[must_use]
pub fn emap_bandpass() -> fir::FirFilter {
    fir::FirFilter::bandpass(
        EMAP_FILTER_TAPS,
        EMAP_BAND_LOW_HZ,
        EMAP_BAND_HIGH_HZ,
        SampleRate::EEG_BASE,
    )
    .expect("the paper's filter parameters are statically valid")
}
