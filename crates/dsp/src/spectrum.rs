//! Spectral estimation: periodogram and Welch power-spectral-density.
//!
//! The framework itself never needs a spectrum (its similarity metrics are
//! time-domain), but the *evaluation* of a reproduction does: the synthetic
//! corpus must demonstrably carry its class signatures inside the 11–40 Hz
//! analysis band, and the bandpass filter's behavior is easiest to verify
//! spectrally. Window lengths in this codebase are short (256–2048), so a
//! direct DFT is used rather than pulling in an FFT dependency.

use crate::window::Window;
use crate::{DspError, SampleRate};

/// A one-sided power spectral density estimate.
///
/// # Example
///
/// ```
/// use emap_dsp::spectrum::Psd;
/// use emap_dsp::SampleRate;
///
/// # fn main() -> Result<(), emap_dsp::DspError> {
/// let fs = SampleRate::EEG_BASE;
/// let tone: Vec<f32> = (0..1024)
///     .map(|n| (std::f64::consts::TAU * 20.0 * n as f64 / 256.0).sin() as f32)
///     .collect();
/// let psd = Psd::welch(&tone, fs, 256)?;
/// let peak = psd.peak_frequency_hz();
/// assert!((peak - 20.0).abs() < 1.5, "peak at {peak} Hz");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Psd {
    rate: SampleRate,
    /// Power at bin `k`, frequency `k · rate / segment_len`.
    power: Vec<f64>,
    segment_len: usize,
}

impl Psd {
    /// Single-segment periodogram of `signal` with a Hann window.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptySignal`] for an empty input.
    pub fn periodogram(signal: &[f32], rate: SampleRate) -> Result<Self, DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptySignal);
        }
        Ok(Self::segment_psd(signal, rate))
    }

    /// Welch's method: averaged periodograms over 50 %-overlapping
    /// Hann-windowed segments of `segment_len` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptySignal`] if `signal` is shorter than one
    /// segment or `segment_len == 0`.
    pub fn welch(signal: &[f32], rate: SampleRate, segment_len: usize) -> Result<Self, DspError> {
        if segment_len == 0 || signal.len() < segment_len {
            return Err(DspError::EmptySignal);
        }
        let hop = (segment_len / 2).max(1);
        let mut acc: Option<Psd> = None;
        let mut count = 0usize;
        let mut start = 0usize;
        while start + segment_len <= signal.len() {
            let seg = Self::segment_psd(&signal[start..start + segment_len], rate);
            match &mut acc {
                None => acc = Some(seg),
                Some(a) => {
                    for (p, q) in a.power.iter_mut().zip(&seg.power) {
                        *p += q;
                    }
                }
            }
            count += 1;
            start += hop;
        }
        let mut psd = acc.expect("at least one segment fits by the length check");
        for p in &mut psd.power {
            *p /= count as f64;
        }
        Ok(psd)
    }

    fn segment_psd(segment: &[f32], rate: SampleRate) -> Psd {
        let n = segment.len();
        let win = Window::Hann.coefficients(n);
        let win_power: f64 = win.iter().map(|w| w * w).sum::<f64>() / n as f64;
        let windowed: Vec<f64> = segment
            .iter()
            .zip(&win)
            .map(|(&x, w)| f64::from(x) * w)
            .collect();
        let bins = n / 2 + 1;
        let mut power = Vec::with_capacity(bins);
        for k in 0..bins {
            let (mut re, mut im) = (0.0f64, 0.0f64);
            let w = std::f64::consts::TAU * k as f64 / n as f64;
            for (i, &x) in windowed.iter().enumerate() {
                re += x * (w * i as f64).cos();
                im -= x * (w * i as f64).sin();
            }
            // One-sided PSD normalization (interior bins doubled).
            let scale = if k == 0 || (n.is_multiple_of(2) && k == bins - 1) {
                1.0
            } else {
                2.0
            };
            power.push(scale * (re * re + im * im) / (rate.hz() * n as f64 * win_power));
        }
        Psd {
            rate,
            power,
            segment_len: n,
        }
    }

    /// The sampling rate this PSD was computed at.
    #[must_use]
    pub fn rate(&self) -> SampleRate {
        self.rate
    }

    /// Frequency of bin `k` in Hz.
    #[must_use]
    pub fn frequency_of(&self, bin: usize) -> f64 {
        bin as f64 * self.rate.hz() / self.segment_len as f64
    }

    /// Frequency resolution (bin spacing) in Hz.
    #[must_use]
    pub fn resolution_hz(&self) -> f64 {
        self.rate.hz() / self.segment_len as f64
    }

    /// Power values per bin.
    #[must_use]
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// `(frequency, power)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.power
            .iter()
            .enumerate()
            .map(|(k, &p)| (self.frequency_of(k), p))
    }

    /// Integrated power inside `[low_hz, high_hz)`.
    #[must_use]
    pub fn band_power(&self, low_hz: f64, high_hz: f64) -> f64 {
        self.iter()
            .filter(|&(f, _)| f >= low_hz && f < high_hz)
            .map(|(_, p)| p)
            .sum::<f64>()
            * self.resolution_hz()
    }

    /// Total power across all bins.
    #[must_use]
    pub fn total_power(&self) -> f64 {
        self.power.iter().sum::<f64>() * self.resolution_hz()
    }

    /// Fraction of total power inside `[low_hz, high_hz)`; `0.0` for a
    /// silent signal.
    #[must_use]
    pub fn band_fraction(&self, low_hz: f64, high_hz: f64) -> f64 {
        let total = self.total_power();
        if total <= f64::EPSILON {
            return 0.0;
        }
        self.band_power(low_hz, high_hz) / total
    }

    /// Frequency of the strongest non-DC bin.
    #[must_use]
    pub fn peak_frequency_hz(&self) -> f64 {
        self.iter()
            .skip(1)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(0.0, |(f, _)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, rate: SampleRate, n: usize) -> Vec<f32> {
        (0..n)
            .map(|k| (std::f64::consts::TAU * freq * k as f64 / rate.hz()).sin() as f32)
            .collect()
    }

    #[test]
    fn empty_signal_rejected() {
        assert!(Psd::periodogram(&[], SampleRate::EEG_BASE).is_err());
        assert!(Psd::welch(&[0.0; 10], SampleRate::EEG_BASE, 0).is_err());
        assert!(Psd::welch(&[0.0; 10], SampleRate::EEG_BASE, 16).is_err());
    }

    #[test]
    fn tone_peak_at_right_frequency() {
        let fs = SampleRate::EEG_BASE;
        for freq in [8.0, 20.0, 40.0, 60.0] {
            let psd = Psd::welch(&tone(freq, fs, 2048), fs, 256).unwrap();
            assert!(
                (psd.peak_frequency_hz() - freq).abs() <= psd.resolution_hz(),
                "expected {freq}, got {}",
                psd.peak_frequency_hz()
            );
        }
    }

    #[test]
    fn parseval_total_power_matches_variance() {
        // PSD integral ≈ signal variance for a zero-mean tone (A²/2 = 0.5).
        let fs = SampleRate::EEG_BASE;
        let psd = Psd::welch(&tone(20.0, fs, 4096), fs, 512).unwrap();
        let total = psd.total_power();
        assert!((total - 0.5).abs() < 0.05, "total power {total}");
    }

    #[test]
    fn band_power_captures_the_tone() {
        let fs = SampleRate::EEG_BASE;
        let psd = Psd::welch(&tone(20.0, fs, 4096), fs, 512).unwrap();
        assert!(psd.band_fraction(18.0, 22.0) > 0.9);
        assert!(psd.band_fraction(40.0, 60.0) < 0.02);
    }

    #[test]
    fn band_fraction_of_silence_is_zero() {
        let psd = Psd::welch(&vec![0.0; 1024], SampleRate::EEG_BASE, 256).unwrap();
        assert_eq!(psd.band_fraction(1.0, 100.0), 0.0);
    }

    #[test]
    fn bandpass_filter_verified_spectrally() {
        // White noise through the EMAP bandpass must concentrate its power
        // in 11–40 Hz — the spectral view of the §III filter.
        let mut rng = crate::rng::SeededRng::seed_from_u64(1);
        let noise: Vec<f32> = (0..8192).map(|_| rng.range_f64(-1.0..1.0) as f32).collect();
        let filtered = crate::emap_bandpass().filter(&noise);
        let psd = Psd::welch(&filtered[256..], SampleRate::EEG_BASE, 512).unwrap();
        let in_band = psd.band_fraction(11.0, 40.0);
        assert!(in_band > 0.9, "in-band fraction {in_band}");
    }

    #[test]
    fn periodogram_equals_single_segment_welch() {
        let fs = SampleRate::EEG_BASE;
        let sig = tone(15.0, fs, 256);
        let a = Psd::periodogram(&sig, fs).unwrap();
        let b = Psd::welch(&sig, fs, 256).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn iter_matches_indexing() {
        let fs = SampleRate::EEG_BASE;
        let psd = Psd::periodogram(&tone(10.0, fs, 128), fs).unwrap();
        for (k, (f, p)) in psd.iter().enumerate() {
            assert_eq!(f, psd.frequency_of(k));
            assert_eq!(p, psd.power()[k]);
        }
        assert_eq!(psd.power().len(), 65);
    }
}
