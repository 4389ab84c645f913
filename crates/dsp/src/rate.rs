use std::fmt;

use crate::DspError;

/// A sampling rate in hertz.
///
/// Newtype over `f64` so that frequencies (cutoffs) and rates cannot be
/// accidentally swapped at call sites. The EMAP base rate used throughout the
/// paper is [`SampleRate::EEG_BASE`] (256 Hz, §V-A).
///
/// # Example
///
/// ```
/// use emap_dsp::SampleRate;
///
/// # fn main() -> Result<(), emap_dsp::DspError> {
/// let fs = SampleRate::new(512.0)?;
/// assert_eq!(fs.hz(), 512.0);
/// assert_eq!(fs.nyquist_hz(), 256.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SampleRate(f64);

impl SampleRate {
    /// The EMAP base sampling rate: 256 Hz (§V-A of the paper).
    pub const EEG_BASE: SampleRate = SampleRate(256.0);

    /// Creates a sample rate, validating that it is finite and positive.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidSampleRate`] if `hz` is not a finite
    /// positive number.
    pub fn new(hz: f64) -> Result<Self, DspError> {
        if hz.is_finite() && hz > 0.0 {
            Ok(SampleRate(hz))
        } else {
            Err(DspError::InvalidSampleRate { rate_hz: hz })
        }
    }

    /// The rate in hertz.
    #[must_use]
    pub fn hz(self) -> f64 {
        self.0
    }

    /// The Nyquist frequency (half the sampling rate) in hertz.
    #[must_use]
    pub fn nyquist_hz(self) -> f64 {
        self.0 / 2.0
    }

    /// Number of samples spanning `seconds` of signal at this rate, rounded
    /// to the nearest sample.
    #[must_use]
    pub fn samples_for(self, seconds: f64) -> usize {
        (self.0 * seconds).round().max(0.0) as usize
    }

    /// Duration in seconds of `samples` samples at this rate.
    #[must_use]
    pub fn duration_of(self, samples: usize) -> f64 {
        samples as f64 / self.0
    }
}

impl fmt::Display for SampleRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Hz", self.0)
    }
}

impl TryFrom<f64> for SampleRate {
    type Error = DspError;

    fn try_from(hz: f64) -> Result<Self, Self::Error> {
        SampleRate::new(hz)
    }
}

impl From<SampleRate> for f64 {
    fn from(rate: SampleRate) -> f64 {
        rate.hz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_rate_is_256() {
        assert_eq!(SampleRate::EEG_BASE.hz(), 256.0);
        assert_eq!(SampleRate::EEG_BASE.nyquist_hz(), 128.0);
    }

    #[test]
    fn rejects_nonpositive_rates() {
        assert!(SampleRate::new(0.0).is_err());
        assert!(SampleRate::new(-1.0).is_err());
        assert!(SampleRate::new(f64::NAN).is_err());
        assert!(SampleRate::new(f64::INFINITY).is_err());
    }

    #[test]
    fn samples_for_rounds() {
        let fs = SampleRate::new(173.61).unwrap();
        assert_eq!(fs.samples_for(1.0), 174);
        assert_eq!(SampleRate::EEG_BASE.samples_for(1.0), 256);
        assert_eq!(SampleRate::EEG_BASE.samples_for(0.0), 0);
    }

    #[test]
    fn duration_roundtrip() {
        let fs = SampleRate::EEG_BASE;
        let n = fs.samples_for(3.5);
        assert!((fs.duration_of(n) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_hz() {
        assert_eq!(SampleRate::EEG_BASE.to_string(), "256 Hz");
    }

    #[test]
    fn try_from_matches_new() {
        assert_eq!(SampleRate::try_from(100.0).unwrap().hz(), 100.0);
        assert!(SampleRate::try_from(-5.0).is_err());
    }
}
