//! FIR filter design and application.
//!
//! The EMAP paper (§III, Eq. 1) pre-processes every EEG signal with a 100-tap
//! FIR bandpass passing 11–40 Hz at 256 Hz. The original implementation used
//! `scipy.signal.firwin`; this module reimplements the same *windowed-sinc*
//! design method from scratch and provides both batch ([`FirFilter::filter`])
//! and streaming ([`FirState`]) application.
//!
//! Application follows the paper's causal convolution
//! `B(N,k) = Σ_{i=0}^{taps-1} H_i · I(N,k−i)` with zero history before the
//! first sample, so the output has the same length as the input.

use crate::window::Window;
use crate::{DspError, SampleRate};

/// A finite-impulse-response filter: an immutable vector of taps plus the
/// design metadata needed to reason about it.
///
/// # Example
///
/// The paper's filter, and checking it actually attenuates out-of-band
/// content:
///
/// ```
/// use emap_dsp::fir::FirFilter;
/// use emap_dsp::SampleRate;
///
/// # fn main() -> Result<(), emap_dsp::DspError> {
/// let f = FirFilter::bandpass(100, 11.0, 40.0, SampleRate::EEG_BASE)?;
/// let passband = f.magnitude_at(25.0, SampleRate::EEG_BASE);
/// let stopband = f.magnitude_at(2.0, SampleRate::EEG_BASE);
/// assert!(passband > 0.9 && passband < 1.1);
/// assert!(stopband < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FirFilter {
    taps: Vec<f64>,
}

impl FirFilter {
    /// Creates a filter directly from tap coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyFilter`] if `taps` is empty.
    pub fn from_taps(taps: Vec<f64>) -> Result<Self, DspError> {
        if taps.is_empty() {
            return Err(DspError::EmptyFilter);
        }
        Ok(FirFilter { taps })
    }

    /// Designs a windowed-sinc bandpass filter with a [`Window::Hamming`]
    /// window (the paper's filter uses `bandpass(100, 11.0, 40.0, 256 Hz)`;
    /// see [`crate::emap_bandpass`]).
    ///
    /// The response is normalized to unity gain at the geometric center of
    /// the passband.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyFilter`] if `num_taps == 0`, or
    /// [`DspError::InvalidCutoff`] if the band is inverted, non-positive, or
    /// reaches the Nyquist frequency.
    pub fn bandpass(
        num_taps: usize,
        low_hz: f64,
        high_hz: f64,
        rate: SampleRate,
    ) -> Result<Self, DspError> {
        Self::bandpass_with_window(num_taps, low_hz, high_hz, rate, Window::Hamming)
    }

    /// Like [`FirFilter::bandpass`] but with an explicit window choice.
    ///
    /// # Errors
    ///
    /// Same as [`FirFilter::bandpass`].
    pub fn bandpass_with_window(
        num_taps: usize,
        low_hz: f64,
        high_hz: f64,
        rate: SampleRate,
        window: Window,
    ) -> Result<Self, DspError> {
        if num_taps == 0 {
            return Err(DspError::EmptyFilter);
        }
        let nyq = rate.nyquist_hz();
        if !(low_hz > 0.0 && high_hz > low_hz && high_hz < nyq) {
            return Err(DspError::InvalidCutoff {
                low_hz,
                high_hz,
                rate_hz: rate.hz(),
            });
        }
        // Ideal bandpass impulse response, windowed. The center is fractional
        // for even tap counts, which keeps the design linear-phase.
        let center = (num_taps as f64 - 1.0) / 2.0;
        let wl = std::f64::consts::TAU * low_hz / rate.hz();
        let wh = std::f64::consts::TAU * high_hz / rate.hz();
        let mut taps: Vec<f64> = (0..num_taps)
            .map(|n| {
                let m = n as f64 - center;
                let ideal = if m.abs() < 1e-12 {
                    (wh - wl) / std::f64::consts::PI
                } else {
                    ((wh * m).sin() - (wl * m).sin()) / (std::f64::consts::PI * m)
                };
                ideal * window.value(n, num_taps)
            })
            .collect();
        // Normalize to unity gain at the band center.
        let f0 = (low_hz * high_hz).sqrt();
        let gain = magnitude_of(&taps, f0, rate);
        if gain > 0.0 {
            for t in &mut taps {
                *t /= gain;
            }
        }
        Ok(FirFilter { taps })
    }

    /// Designs a windowed-sinc lowpass filter (used by the resampler as its
    /// anti-aliasing stage), normalized to unity DC gain.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyFilter`] if `num_taps == 0`, or
    /// [`DspError::InvalidCutoff`] if `cutoff_hz` is outside `(0, nyquist)`.
    pub fn lowpass(num_taps: usize, cutoff_hz: f64, rate: SampleRate) -> Result<Self, DspError> {
        Self::lowpass_with_window(num_taps, cutoff_hz, rate, Window::Hamming)
    }

    /// Like [`FirFilter::lowpass`] but with an explicit window choice.
    ///
    /// # Errors
    ///
    /// Same as [`FirFilter::lowpass`].
    pub fn lowpass_with_window(
        num_taps: usize,
        cutoff_hz: f64,
        rate: SampleRate,
        window: Window,
    ) -> Result<Self, DspError> {
        if num_taps == 0 {
            return Err(DspError::EmptyFilter);
        }
        let nyq = rate.nyquist_hz();
        if !(cutoff_hz > 0.0 && cutoff_hz < nyq) {
            return Err(DspError::InvalidCutoff {
                low_hz: 0.0,
                high_hz: cutoff_hz,
                rate_hz: rate.hz(),
            });
        }
        let center = (num_taps as f64 - 1.0) / 2.0;
        let wc = std::f64::consts::TAU * cutoff_hz / rate.hz();
        let mut taps: Vec<f64> = (0..num_taps)
            .map(|n| {
                let m = n as f64 - center;
                let ideal = if m.abs() < 1e-12 {
                    wc / std::f64::consts::PI
                } else {
                    (wc * m).sin() / (std::f64::consts::PI * m)
                };
                ideal * window.value(n, num_taps)
            })
            .collect();
        let dc: f64 = taps.iter().sum();
        if dc.abs() > 0.0 {
            for t in &mut taps {
                *t /= dc;
            }
        }
        Ok(FirFilter { taps })
    }

    /// Designs a windowed-sinc highpass filter (spectral inversion of the
    /// lowpass), normalized to unity gain at the Nyquist frequency.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyFilter`] if `num_taps == 0`, or
    /// [`DspError::InvalidCutoff`] if `cutoff_hz` is outside `(0, nyquist)`.
    /// `num_taps` must be odd for a highpass (type-I linear phase); even
    /// counts are bumped up by one.
    pub fn highpass(num_taps: usize, cutoff_hz: f64, rate: SampleRate) -> Result<Self, DspError> {
        if num_taps == 0 {
            return Err(DspError::EmptyFilter);
        }
        let num_taps = if num_taps.is_multiple_of(2) {
            num_taps + 1
        } else {
            num_taps
        };
        let low = Self::lowpass(num_taps, cutoff_hz, rate)?;
        // Spectral inversion: δ[n − center] − h_lp[n].
        let center = (num_taps - 1) / 2;
        let mut taps = low.taps;
        for (i, t) in taps.iter_mut().enumerate() {
            *t = if i == center { 1.0 - *t } else { -*t };
        }
        Ok(FirFilter { taps })
    }

    /// Designs a windowed-sinc bandstop (notch band) filter — e.g. the
    /// 48–52 Hz powerline notch EEG rigs apply before analysis.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyFilter`] if `num_taps == 0`, or
    /// [`DspError::InvalidCutoff`] if the stop band is inverted or reaches
    /// the Nyquist frequency. Even tap counts are bumped up by one (type-I
    /// linear phase is required for a non-zero response at Nyquist).
    pub fn bandstop(
        num_taps: usize,
        low_hz: f64,
        high_hz: f64,
        rate: SampleRate,
    ) -> Result<Self, DspError> {
        if num_taps == 0 {
            return Err(DspError::EmptyFilter);
        }
        let num_taps = if num_taps.is_multiple_of(2) {
            num_taps + 1
        } else {
            num_taps
        };
        // Bandstop = lowpass(low) + highpass(high).
        let lp = Self::lowpass(num_taps, low_hz, rate)?;
        let hp = Self::highpass(num_taps, high_hz, rate)?;
        if high_hz <= low_hz {
            return Err(DspError::InvalidCutoff {
                low_hz,
                high_hz,
                rate_hz: rate.hz(),
            });
        }
        let taps = lp.taps.iter().zip(&hp.taps).map(|(a, b)| a + b).collect();
        Ok(FirFilter { taps })
    }

    /// The filter's tap coefficients.
    #[must_use]
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Consumes the filter, returning its tap coefficients.
    #[must_use]
    pub fn into_taps(self) -> Vec<f64> {
        self.taps
    }

    /// Group delay of the (linear-phase) filter in samples.
    #[must_use]
    pub fn group_delay(&self) -> f64 {
        (self.taps.len() as f64 - 1.0) / 2.0
    }

    /// Applies the filter causally to `input`, returning an output of the
    /// same length (`B(k) = Σ H_i · I(k−i)` with zero history), exactly as
    /// §V-A of the paper specifies for the acquisition stage.
    #[must_use]
    pub fn filter(&self, input: &[f32]) -> Vec<f32> {
        let x: Vec<f64> = input.iter().map(|&v| f64::from(v)).collect();
        let mut out = Vec::with_capacity(input.len());
        // The first `taps − 1` outputs reach back before the input: each
        // sums only the taps that land on a sample.
        for k in 0..x.len().min(self.taps.len() - 1) {
            out.push(serial_sum(&self.taps, &x, k) as f32);
        }
        full_sums(&self.taps, &x, &mut out);
        out
    }

    /// Applies the filter and drops the group delay, producing a
    /// delay-compensated output of the same length (the tail is zero-padded).
    /// Useful when comparing filtered and unfiltered signals sample-aligned.
    #[must_use]
    pub fn filter_compensated(&self, input: &[f32]) -> Vec<f32> {
        let delay = self.group_delay().round() as usize;
        let mut out = self.filter(input);
        let shift = delay.min(out.len());
        out.rotate_left(shift);
        let len = out.len();
        for v in &mut out[len.saturating_sub(delay)..] {
            *v = 0.0;
        }
        out
    }

    /// Magnitude of the filter's frequency response at `freq_hz` for signals
    /// sampled at `rate`, evaluated directly from the taps.
    #[must_use]
    pub fn magnitude_at(&self, freq_hz: f64, rate: SampleRate) -> f64 {
        magnitude_of(&self.taps, freq_hz, rate)
    }

    /// Creates a streaming applicator sharing this filter's taps.
    #[must_use]
    pub fn stream(&self) -> FirState {
        FirState::new(self.clone())
    }
}

/// Appends to `out`, for every `k ≥ taps.len() − 1` of `x`, the output
/// `Σ_i taps[i] · x[k − i]` summed over every tap in ascending `i`.
///
/// Four consecutive outputs are computed per pass: each keeps its own
/// accumulator and adds the same terms in the same order as it would alone,
/// so only independent chains interleave and every output has the bits of
/// the serial loop.
fn full_sums(taps: &[f64], x: &[f64], out: &mut Vec<f32>) {
    let n = taps.len();
    let mut k = n - 1;
    while k + 4 <= x.len() {
        // `window[j..j + 4]` holds `x[k − i ..= k + 3 − i]` for `i = n − 1 − j`.
        let window = &x[k + 1 - n..k + 4];
        let mut acc = [0.0f64; 4];
        for (&t, s) in taps.iter().zip(window.windows(4).rev()) {
            for (a, &v) in acc.iter_mut().zip(s) {
                *a += t * v;
            }
        }
        out.extend(acc.iter().map(|&a| a as f32));
        k += 4;
    }
    for k in k..x.len() {
        out.push(serial_sum(taps, x, k) as f32);
    }
}

/// `Σ_i taps[i] · x[k − i]` over the taps that land on a sample
/// (`i ≤ k`), summed in ascending `i`: the paper's convolution, one output
/// at a time.
fn serial_sum(taps: &[f64], x: &[f64], k: usize) -> f64 {
    taps.iter()
        .zip(x[..=k].iter().rev())
        .fold(0.0, |acc, (t, v)| acc + t * v)
}

fn magnitude_of(taps: &[f64], freq_hz: f64, rate: SampleRate) -> f64 {
    let w = std::f64::consts::TAU * freq_hz / rate.hz();
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for (n, &t) in taps.iter().enumerate() {
        re += t * (w * n as f64).cos();
        im -= t * (w * n as f64).sin();
    }
    (re * re + im * im).sqrt()
}

/// Streaming FIR applicator holding the last `taps − 1` inputs as history.
///
/// The edge sensor node filters samples as they arrive (the paper suggests a
/// "hard-coded accelerator" for exactly this); `FirState` is the software
/// model of that stage. Feeding the same samples through [`FirState::push`]
/// one at a time, or through [`FirState::push_block`] in blocks of any size,
/// yields bit-identical output to [`FirFilter::filter`].
///
/// # Example
///
/// ```
/// use emap_dsp::emap_bandpass;
///
/// let filter = emap_bandpass();
/// let input: Vec<f32> = (0..512).map(|n| (n as f32 * 0.3).sin()).collect();
///
/// let batch = filter.filter(&input);
/// let mut stream = filter.stream();
/// let streamed: Vec<f32> = input.iter().map(|&s| stream.push(s)).collect();
/// assert_eq!(batch, streamed);
/// ```
#[derive(Debug, Clone)]
pub struct FirState {
    filter: FirFilter,
    /// The last `taps − 1` inputs, oldest first (silence before the first).
    history: Vec<f64>,
}

impl FirState {
    /// Creates a streaming state with zeroed history.
    #[must_use]
    pub fn new(filter: FirFilter) -> Self {
        let len = filter.taps.len() - 1;
        FirState {
            filter,
            history: vec![0.0; len],
        }
    }

    /// Pushes one input sample and returns the corresponding output sample.
    pub fn push(&mut self, sample: f32) -> f32 {
        self.history.push(f64::from(sample));
        let out = serial_sum(&self.filter.taps, &self.history, self.history.len() - 1);
        self.history.remove(0);
        out as f32
    }

    /// Pushes a block of samples, returning the filtered block — four
    /// outputs per pass, like [`FirFilter::filter`].
    #[must_use]
    pub fn push_block(&mut self, samples: &[f32]) -> Vec<f32> {
        self.history.extend(samples.iter().map(|&v| f64::from(v)));
        let mut out = Vec::with_capacity(samples.len());
        full_sums(&self.filter.taps, &self.history, &mut out);
        self.history.drain(..samples.len());
        out
    }

    /// Clears the history back to silence.
    pub fn reset(&mut self) {
        self.history.fill(0.0);
    }

    /// The filter this state applies.
    #[must_use]
    pub fn filter(&self) -> &FirFilter {
        &self.filter
    }

    /// Consumes the state, returning the underlying filter.
    #[must_use]
    pub fn into_inner(self) -> FirFilter {
        self.filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SAMPLES_PER_SECOND;

    fn sine(freq_hz: f64, rate: SampleRate, n: usize) -> Vec<f32> {
        (0..n)
            .map(|k| (std::f64::consts::TAU * freq_hz * k as f64 / rate.hz()).sin() as f32)
            .collect()
    }

    /// RMS of the steady-state tail (skips the transient).
    fn tail_rms(signal: &[f32], skip: usize) -> f64 {
        let tail = &signal[skip..];
        (tail
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            / tail.len() as f64)
            .sqrt()
    }

    #[test]
    fn rejects_zero_taps() {
        assert_eq!(
            FirFilter::bandpass(0, 11.0, 40.0, SampleRate::EEG_BASE),
            Err(DspError::EmptyFilter)
        );
    }

    #[test]
    fn rejects_inverted_band() {
        assert!(matches!(
            FirFilter::bandpass(100, 40.0, 11.0, SampleRate::EEG_BASE),
            Err(DspError::InvalidCutoff { .. })
        ));
    }

    #[test]
    fn rejects_band_reaching_nyquist() {
        assert!(FirFilter::bandpass(100, 11.0, 128.0, SampleRate::EEG_BASE).is_err());
        assert!(FirFilter::bandpass(100, 11.0, 500.0, SampleRate::EEG_BASE).is_err());
    }

    #[test]
    fn emap_filter_has_100_taps() {
        let f = crate::emap_bandpass();
        assert_eq!(f.taps().len(), 100);
        assert_eq!(f.group_delay(), 49.5);
    }

    #[test]
    fn taps_are_symmetric_linear_phase() {
        let f = crate::emap_bandpass();
        let t = f.taps();
        for i in 0..t.len() {
            assert!(
                (t[i] - t[t.len() - 1 - i]).abs() < 1e-12,
                "taps not symmetric at {i}"
            );
        }
    }

    #[test]
    fn passband_gain_near_unity() {
        let f = crate::emap_bandpass();
        for freq in [15.0, 20.0, 25.0, 30.0, 35.0] {
            let g = f.magnitude_at(freq, SampleRate::EEG_BASE);
            assert!((0.85..1.15).contains(&g), "gain at {freq} Hz = {g}");
        }
    }

    #[test]
    fn stopband_attenuated() {
        let f = crate::emap_bandpass();
        for freq in [0.5, 2.0, 5.0, 60.0, 90.0, 120.0] {
            let g = f.magnitude_at(freq, SampleRate::EEG_BASE);
            assert!(g < 0.05, "gain at {freq} Hz = {g} not attenuated");
        }
    }

    #[test]
    fn sine_in_band_passes_sine_out_of_band_blocked() {
        let fs = SampleRate::EEG_BASE;
        let f = crate::emap_bandpass();
        let in_band = f.filter(&sine(20.0, fs, 4 * SAMPLES_PER_SECOND));
        let out_band = f.filter(&sine(3.0, fs, 4 * SAMPLES_PER_SECOND));
        let in_rms = tail_rms(&in_band, 256);
        let out_rms = tail_rms(&out_band, 256);
        assert!(in_rms > 0.6, "in-band rms {in_rms}");
        assert!(out_rms < 0.03, "out-of-band rms {out_rms}");
    }

    #[test]
    fn filter_output_length_matches_input() {
        let f = crate::emap_bandpass();
        for n in [0usize, 1, 50, 99, 100, 101, 256, 1000] {
            assert_eq!(f.filter(&vec![1.0; n]).len(), n);
        }
    }

    #[test]
    fn filter_is_linear() {
        let fs = SampleRate::EEG_BASE;
        let f = crate::emap_bandpass();
        let a = sine(15.0, fs, 300);
        let b = sine(30.0, fs, 300);
        let sum: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = f.filter(&a);
        let fb = f.filter(&b);
        let fsum = f.filter(&sum);
        for i in 0..300 {
            assert!((fsum[i] - (fa[i] + fb[i])).abs() < 1e-4, "nonlinear at {i}");
        }
    }

    #[test]
    fn streaming_matches_batch() {
        let f = crate::emap_bandpass();
        let input = sine(22.0, SampleRate::EEG_BASE, 700);
        let batch = f.filter(&input);
        let mut s = f.stream();
        let streamed = s.push_block(&input);
        assert_eq!(batch, streamed);
    }

    #[test]
    fn streaming_reset_restores_initial_state() {
        let f = crate::emap_bandpass();
        let input = sine(22.0, SampleRate::EEG_BASE, 300);
        let mut s = f.stream();
        let first = s.push_block(&input);
        s.reset();
        let second = s.push_block(&input);
        assert_eq!(first, second);
    }

    #[test]
    fn lowpass_passes_dc_blocks_high() {
        let fs = SampleRate::EEG_BASE;
        let f = FirFilter::lowpass(64, 30.0, fs).unwrap();
        assert!((f.magnitude_at(0.0, fs) - 1.0).abs() < 1e-9);
        assert!(f.magnitude_at(100.0, fs) < 0.02);
    }

    #[test]
    fn lowpass_rejects_bad_cutoff() {
        assert!(FirFilter::lowpass(64, 0.0, SampleRate::EEG_BASE).is_err());
        assert!(FirFilter::lowpass(64, 128.0, SampleRate::EEG_BASE).is_err());
    }

    #[test]
    fn highpass_blocks_dc_passes_high() {
        let fs = SampleRate::EEG_BASE;
        let f = FirFilter::highpass(65, 30.0, fs).unwrap();
        assert!(f.magnitude_at(0.0, fs) < 0.01);
        assert!((f.magnitude_at(100.0, fs) - 1.0).abs() < 0.05);
        assert!(f.magnitude_at(30.0, fs) < 0.8);
        // Even tap count is bumped to odd.
        assert_eq!(FirFilter::highpass(64, 30.0, fs).unwrap().taps().len(), 65);
    }

    #[test]
    fn bandstop_notches_the_band() {
        let fs = SampleRate::new(512.0).unwrap();
        // A 50 Hz powerline notch.
        let f = FirFilter::bandstop(201, 45.0, 55.0, fs).unwrap();
        assert!(
            f.magnitude_at(50.0, fs) < 0.05,
            "{}",
            f.magnitude_at(50.0, fs)
        );
        assert!((f.magnitude_at(20.0, fs) - 1.0).abs() < 0.05);
        assert!((f.magnitude_at(100.0, fs) - 1.0).abs() < 0.05);
    }

    #[test]
    fn bandstop_rejects_inverted_band() {
        let fs = SampleRate::EEG_BASE;
        assert!(FirFilter::bandstop(101, 55.0, 45.0, fs).is_err());
        assert!(FirFilter::bandstop(0, 45.0, 55.0, fs).is_err());
    }

    #[test]
    fn compensated_filter_aligns_peak() {
        let fs = SampleRate::EEG_BASE;
        let f = crate::emap_bandpass();
        // An in-band burst at a known position should stay near that position
        // after delay compensation.
        let mut input = vec![0.0f32; 1024];
        for (k, v) in input.iter_mut().enumerate().skip(400).take(128) {
            *v = (std::f64::consts::TAU * 20.0 * k as f64 / fs.hz()).sin() as f32;
        }
        let comp = f.filter_compensated(&input);
        let peak_in = input
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap()
            .0;
        let peak_out = comp
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap()
            .0;
        assert!(
            (peak_in as i64 - peak_out as i64).unsigned_abs() < 64,
            "peaks {peak_in} vs {peak_out}"
        );
    }

    #[test]
    fn from_taps_roundtrip() {
        let f = FirFilter::from_taps(vec![0.25, 0.5, 0.25]).unwrap();
        assert_eq!(f.taps(), &[0.25, 0.5, 0.25]);
        assert_eq!(f.clone().into_taps(), vec![0.25, 0.5, 0.25]);
        assert!(FirFilter::from_taps(Vec::new()).is_err());
    }

    #[test]
    fn moving_average_filters_impulse() {
        let f = FirFilter::from_taps(vec![0.5, 0.5]).unwrap();
        let out = f.filter(&[1.0, 0.0, 0.0]);
        assert_eq!(out, vec![0.5, 0.5, 0.0]);
    }
}
