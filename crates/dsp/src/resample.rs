//! Sample-rate conversion.
//!
//! The mega-database (§V-B) is built from five source datasets recorded at
//! different native rates; every signal is "up-/down-sampled to the base
//! frequency of 256 Hz" before filtering and slicing. The original pipeline
//! used `scipy`; this module implements a windowed-sinc *fractional
//! interpolation* resampler from scratch that handles arbitrary (including
//! irrational-looking, e.g. 173.61 Hz → 256 Hz) rate ratios with built-in
//! anti-aliasing when decimating.

use std::sync::OnceLock;

use crate::fir::FirFilter;
use crate::window::Window;
use crate::{DspError, SampleRate};

/// Default half-width of the interpolation kernel, in zero-crossings of the
/// sinc. 16 gives ≳80 dB of alias rejection with the Blackman window.
pub const DEFAULT_KERNEL_HALF_WIDTH: usize = 16;

/// A windowed-sinc resampler converting between two fixed sample rates.
///
/// For each output sample at continuous input time `t`, the resampler
/// evaluates `Σ_k x[k] · sinc(c·(t−k)) · w(t−k)` over a finite kernel
/// support, where the cutoff `c ≤ 1` shrinks when downsampling so the kernel
/// doubles as the anti-aliasing filter.
///
/// # Example
///
/// ```
/// use emap_dsp::resample::Resampler;
/// use emap_dsp::SampleRate;
///
/// # fn main() -> Result<(), emap_dsp::DspError> {
/// let from = SampleRate::new(512.0)?;
/// let to = SampleRate::EEG_BASE; // 256 Hz
/// let r = Resampler::new(from, to)?;
///
/// let x: Vec<f32> = (0..1024)
///     .map(|n| (std::f32::consts::TAU * 10.0 * n as f32 / 512.0).sin())
///     .collect();
/// let y = r.resample(&x);
/// assert_eq!(y.len(), 512); // half the samples
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Resampler {
    from: SampleRate,
    to: SampleRate,
    /// Output-sample spacing measured in input samples.
    step: f64,
    /// Sinc cutoff relative to the input Nyquist (1.0 = full band).
    cutoff: f64,
    half_width: usize,
    /// Fast path for exact integer rate ratios.
    integer: Option<IntegerMode>,
}

/// Points of the grid the kernel's Blackman window is read from: the
/// continuous window, sampled finely enough that rounding a tap's position
/// to the nearest point costs nothing measurable.
const WINDOW_GRID: usize = 4097;

/// Longest phase period of a dyadic step whose tap weights are cached
/// (`2^12` phases × `2·support` taps).
const MAX_PHASES: u64 = 1 << 12;

/// `Window::Blackman.value(i, WINDOW_GRID)` for every grid point, computed
/// once per process.
fn blackman_grid() -> &'static [f64] {
    static GRID: OnceLock<Vec<f64>> = OnceLock::new();
    GRID.get_or_init(|| Window::Blackman.coefficients(WINDOW_GRID))
}

/// Exact integer-ratio conversion: one FIR anti-alias/anti-image filter
/// plus a stride or zero-stuffing pass — much cheaper than per-sample
/// fractional interpolation, and the case the registry actually hits
/// (512 → 256 Hz).
#[derive(Debug, Clone)]
enum IntegerMode {
    /// `from = factor × to`: filter then keep every `factor`-th sample.
    Decimate { factor: usize, filter: FirFilter },
    /// `to = factor × from`: zero-stuff then filter with gain `factor`.
    Interpolate { factor: usize, filter: FirFilter },
}

impl Resampler {
    /// Creates a resampler with the default kernel quality.
    ///
    /// # Errors
    ///
    /// Never fails for valid [`SampleRate`]s today, but returns
    /// `Result` so future parameter validation is non-breaking.
    pub fn new(from: SampleRate, to: SampleRate) -> Result<Self, DspError> {
        Self::with_quality(from, to, DEFAULT_KERNEL_HALF_WIDTH)
    }

    /// Creates a resampler with an explicit kernel half-width (larger is
    /// higher quality and slower).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyFilter`] if `half_width == 0`.
    pub fn with_quality(
        from: SampleRate,
        to: SampleRate,
        half_width: usize,
    ) -> Result<Self, DspError> {
        if half_width == 0 {
            return Err(DspError::EmptyFilter);
        }
        let ratio = to.hz() / from.hz();
        // When downsampling (ratio < 1) the kernel cutoff must drop to the
        // *output* Nyquist to reject aliases; slight rolloff margin keeps the
        // transition band inside bounds.
        let cutoff = if ratio < 1.0 { ratio * 0.92 } else { 0.92 };
        let integer = IntegerMode::detect(from, to, half_width)?;
        Ok(Resampler {
            from,
            to,
            step: from.hz() / to.hz(),
            cutoff,
            half_width,
            integer,
        })
    }

    /// Whether this resampler uses the exact integer-ratio fast path.
    #[must_use]
    pub fn is_integer_ratio(&self) -> bool {
        self.integer.is_some()
    }

    /// The input rate this resampler expects.
    #[must_use]
    pub fn from_rate(&self) -> SampleRate {
        self.from
    }

    /// The output rate this resampler produces.
    #[must_use]
    pub fn to_rate(&self) -> SampleRate {
        self.to
    }

    /// Number of output samples produced for `input_len` input samples.
    #[must_use]
    pub fn output_len(&self, input_len: usize) -> usize {
        if input_len == 0 {
            return 0;
        }
        ((input_len as f64) / self.step).round() as usize
    }

    /// Resamples `input` from the source to the target rate.
    ///
    /// The output duration matches the input duration to within one output
    /// sample. An empty input yields an empty output.
    #[must_use]
    pub fn resample(&self, input: &[f32]) -> Vec<f32> {
        match &self.integer {
            Some(mode) => mode.resample(input, self.output_len(input.len())),
            None => self.resample_fractional(input),
        }
    }

    fn resample_fractional(&self, input: &[f32]) -> Vec<f32> {
        let out_len = self.output_len(input.len());
        // When downsampling, the kernel support widens by 1/cutoff so the
        // narrower sinc still spans `half_width` of its own zero-crossings.
        let support = (self.half_width as f64 / self.cutoff).ceil() as i64;
        let taps = 2 * support as usize;
        let grid = blackman_grid();
        // A dyadic step repeats its tap weights every `period` outputs (see
        // `dyadic_step`): tabulate them once per phase when that costs no
        // more kernel evaluations than evaluating every output's taps.
        let phases =
            dyadic_step(self.step, out_len).filter(|&(period, _)| period <= out_len as u64);
        let mut table = vec![0.0f64; phases.map_or(0, |(period, _)| period as usize * taps)];
        let wsums: Vec<f64> = table
            .chunks_exact_mut(taps)
            .enumerate()
            .map(|(p, row)| self.weights(grid, p as f64 * self.step, support, row))
            .collect();
        let mut row = vec![0.0f64; taps];
        let mut out = Vec::with_capacity(out_len);
        for m in 0..out_len {
            let (weights, wsum, base) = match phases {
                Some((period, numer)) => {
                    let p = (m as u64 % period) as usize;
                    // `m·step` is exact, so its floor is this quotient.
                    let base = (m as u64 * numer / period) as i64;
                    (&table[p * taps..(p + 1) * taps], wsums[p], base)
                }
                None => {
                    let t = m as f64 * self.step;
                    let wsum = self.weights(grid, t, support, &mut row);
                    (&row[..], wsum, t.floor() as i64)
                }
            };
            // Taps `k0 + j` outside the input contribute to `wsum` only.
            let k0 = base - support + 1;
            let first = (-k0).clamp(0, taps as i64) as usize;
            let last = (input.len() as i64 - k0).clamp(0, taps as i64) as usize;
            let mut acc = 0.0f64;
            if first < last {
                let samples = &input[(k0 + first as i64) as usize..];
                for (w, &x) in weights[first..last].iter().zip(samples) {
                    acc += w * f64::from(x);
                }
            }
            // Normalizing by the kernel sum removes DC ripple from the
            // finite, fractionally-placed support.
            out.push(if wsum.abs() > f64::EPSILON {
                (acc / wsum) as f32
            } else {
                0.0
            });
        }
        out
    }

    /// Fills `row` with the kernel weights of the output at input time `t`
    /// — tap `j` sits at input sample `⌊t⌋ − support + 1 + j` — and returns
    /// their sum, accumulated in tap order.
    fn weights(&self, grid: &[f64], t: f64, support: i64, row: &mut [f64]) -> f64 {
        let k0 = t.floor() as i64 - support + 1;
        let mut wsum = 0.0f64;
        for (j, w) in row.iter_mut().enumerate() {
            let d = t - (k0 + j as i64) as f64;
            *w = self.kernel(grid, d, support as f64);
            wsum += *w;
        }
        wsum
    }

    /// Windowed-sinc kernel value at distance `d` (in input samples), with
    /// window support `[−support, support]`; the window is read from its
    /// tabulated `grid`.
    fn kernel(&self, grid: &[f64], d: f64, support: f64) -> f64 {
        if d.abs() >= support {
            return 0.0;
        }
        let x = std::f64::consts::PI * self.cutoff * d;
        let sinc = if x.abs() < 1e-12 { 1.0 } else { x.sin() / x };
        // Map distance to window position in [0, 1].
        let pos = (d + support) / (2.0 * support);
        let idx = ((pos * (WINDOW_GRID - 1) as f64).round() as usize).min(WINDOW_GRID - 1);
        sinc * grid[idx]
    }
}

/// `(period, numer)` with `step = numer / period`, `period` a power of two
/// up to [`MAX_PHASES`], when every output time `m·step` of an
/// `out_len`-sample output is exact in `f64` (`m·numer < 2⁵³`); `None`
/// otherwise.
///
/// For such a step, output `m + period` sits exactly `numer` input samples
/// after output `m`, so every tap distance `d = t − k` repeats exactly
/// (each is a small dyadic rational, which `f64` subtraction returns
/// unrounded) — and with it every kernel weight and every `wsum`, bit for
/// bit. 200 Hz → 256 Hz is `25/32`, 250 Hz → 256 Hz is `125/128`; 173.61 Hz
/// is no such fraction below `2⁻¹²` and keeps evaluating its taps.
fn dyadic_step(step: f64, out_len: usize) -> Option<(u64, u64)> {
    const EXACT: u64 = 1 << 53;
    let mut period = 1u64;
    while period <= MAX_PHASES {
        // A power-of-two scaling: exact.
        let scaled = step * period as f64;
        if scaled == scaled.floor() {
            let numer = scaled as u64;
            let exact = (out_len as u64)
                .checked_mul(numer)
                .is_some_and(|top| top < EXACT);
            return exact.then_some((period, numer));
        }
        period *= 2;
    }
    None
}

impl IntegerMode {
    fn detect(
        from: SampleRate,
        to: SampleRate,
        half_width: usize,
    ) -> Result<Option<IntegerMode>, DspError> {
        let down = from.hz() / to.hz();
        let up = to.hz() / from.hz();
        // Group delay of an odd, linear-phase FIR is integral, so the
        // compensated output aligns to the sample grid.
        let taps = (half_width * 8) | 1;
        if down > 1.0 && (down - down.round()).abs() < 1e-9 {
            let factor = down.round() as usize;
            // Anti-alias at the output Nyquist (with rolloff margin).
            let filter = FirFilter::lowpass(taps, to.nyquist_hz() * 0.92, from)?;
            return Ok(Some(IntegerMode::Decimate { factor, filter }));
        }
        if up > 1.0 && (up - up.round()).abs() < 1e-9 {
            let factor = up.round() as usize;
            // Anti-image at the input Nyquist, evaluated at the output rate.
            let filter = FirFilter::lowpass(taps, from.nyquist_hz() * 0.92, to)?;
            return Ok(Some(IntegerMode::Interpolate { factor, filter }));
        }
        Ok(None)
    }

    fn resample(&self, input: &[f32], out_len: usize) -> Vec<f32> {
        match self {
            IntegerMode::Decimate { factor, filter } => {
                let filtered = filter.filter_compensated(input);
                let mut out: Vec<f32> = filtered.iter().step_by(*factor).copied().collect();
                out.truncate(out_len);
                while out.len() < out_len {
                    out.push(0.0);
                }
                out
            }
            IntegerMode::Interpolate { factor, filter } => {
                let mut stuffed = vec![0.0f32; input.len() * factor];
                for (i, &v) in input.iter().enumerate() {
                    stuffed[i * factor] = v * *factor as f32;
                }
                let mut out = filter.filter_compensated(&stuffed);
                out.truncate(out_len);
                while out.len() < out_len {
                    out.push(0.0);
                }
                out
            }
        }
    }
}

/// Convenience: resample `input` from `from` to the 256 Hz EMAP base rate.
///
/// # Errors
///
/// Propagates [`Resampler::new`] errors.
///
/// # Example
///
/// ```
/// use emap_dsp::{resample::to_base_rate, SampleRate};
///
/// # fn main() -> Result<(), emap_dsp::DspError> {
/// let native = SampleRate::new(173.61)?; // UCI/Bonn-style rate
/// let x = vec![0.0f32; 1736]; // ~10 s
/// let y = to_base_rate(&x, native)?;
/// assert!((y.len() as i64 - 2560).abs() <= 2);
/// # Ok(())
/// # }
/// ```
pub fn to_base_rate(input: &[f32], from: SampleRate) -> Result<Vec<f32>, DspError> {
    if (from.hz() - SampleRate::EEG_BASE.hz()).abs() < 1e-9 {
        return Ok(input.to_vec());
    }
    Ok(Resampler::new(from, SampleRate::EEG_BASE)?.resample(input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::rms;

    fn sine(freq_hz: f64, rate: SampleRate, n: usize) -> Vec<f32> {
        (0..n)
            .map(|k| (std::f64::consts::TAU * freq_hz * k as f64 / rate.hz()).sin() as f32)
            .collect()
    }

    #[test]
    fn identity_rate_is_passthrough() {
        let x = sine(10.0, SampleRate::EEG_BASE, 512);
        let y = to_base_rate(&x, SampleRate::EEG_BASE).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn output_length_tracks_ratio() {
        let r = Resampler::new(SampleRate::new(512.0).unwrap(), SampleRate::EEG_BASE).unwrap();
        assert_eq!(r.output_len(1024), 512);
        assert_eq!(r.output_len(0), 0);
        let up = Resampler::new(SampleRate::new(128.0).unwrap(), SampleRate::EEG_BASE).unwrap();
        assert_eq!(up.output_len(128), 256);
    }

    #[test]
    fn empty_input_empty_output() {
        let r = Resampler::new(SampleRate::new(200.0).unwrap(), SampleRate::EEG_BASE).unwrap();
        assert!(r.resample(&[]).is_empty());
    }

    #[test]
    fn zero_half_width_rejected() {
        assert!(
            Resampler::with_quality(SampleRate::new(200.0).unwrap(), SampleRate::EEG_BASE, 0)
                .is_err()
        );
    }

    /// A pure tone survives downsampling with the right frequency: its
    /// period in output samples must match the analytic value.
    #[test]
    fn downsampled_tone_keeps_frequency() {
        let from = SampleRate::new(512.0).unwrap();
        let x = sine(20.0, from, 4096);
        let r = Resampler::new(from, SampleRate::EEG_BASE).unwrap();
        let y = r.resample(&x);
        // Count zero crossings in the steady-state interior.
        let interior = &y[256..y.len() - 256];
        let crossings = interior
            .windows(2)
            .filter(|w| (w[0] >= 0.0) != (w[1] >= 0.0))
            .count();
        let seconds = interior.len() as f64 / 256.0;
        let est_freq = crossings as f64 / (2.0 * seconds);
        assert!((est_freq - 20.0).abs() < 0.5, "estimated {est_freq} Hz");
    }

    #[test]
    fn upsampled_tone_keeps_frequency_and_amplitude() {
        let from = SampleRate::new(128.0).unwrap();
        let x = sine(13.0, from, 1024);
        let r = Resampler::new(from, SampleRate::EEG_BASE).unwrap();
        let y = r.resample(&x);
        assert_eq!(y.len(), 2048);
        let interior = &y[256..y.len() - 256];
        let amp = rms(interior) * std::f64::consts::SQRT_2;
        assert!((amp - 1.0).abs() < 0.05, "amplitude {amp}");
    }

    /// Content above the output Nyquist must be rejected when decimating —
    /// this is the anti-aliasing property.
    #[test]
    fn downsampling_rejects_aliases() {
        let from = SampleRate::new(1024.0).unwrap();
        // 300 Hz is above the 128 Hz output Nyquist: must vanish.
        let x = sine(300.0, from, 8192);
        let r = Resampler::new(from, SampleRate::EEG_BASE).unwrap();
        let y = r.resample(&x);
        let interior = &y[256..y.len() - 256];
        assert!(rms(interior) < 0.02, "alias rms {}", rms(interior));
    }

    #[test]
    fn fractional_ratio_duration_preserved() {
        let from = SampleRate::new(173.61).unwrap();
        let x = sine(8.0, from, 1736); // ~10 s
        let y = to_base_rate(&x, from).unwrap();
        let out_seconds = y.len() as f64 / 256.0;
        assert!((out_seconds - 10.0).abs() < 0.05, "{out_seconds} s");
    }

    #[test]
    fn dc_signal_preserved() {
        let from = SampleRate::new(200.0).unwrap();
        let x = vec![0.75f32; 2000];
        let r = Resampler::new(from, SampleRate::EEG_BASE).unwrap();
        let y = r.resample(&x);
        let interior = &y[100..y.len() - 100];
        for &v in interior {
            assert!((v - 0.75).abs() < 0.01, "dc drifted to {v}");
        }
    }

    #[test]
    fn roundtrip_up_then_down_approximates_identity() {
        let base = SampleRate::EEG_BASE;
        let high = SampleRate::new(512.0).unwrap();
        let x = sine(17.0, base, 1024);
        let up = Resampler::new(base, high).unwrap().resample(&x);
        let back = Resampler::new(high, base).unwrap().resample(&up);
        assert_eq!(back.len(), x.len());
        let mut err = 0.0f64;
        for i in 200..x.len() - 200 {
            err += f64::from((back[i] - x[i]).abs());
        }
        err /= (x.len() - 400) as f64;
        assert!(err < 0.02, "mean roundtrip error {err}");
    }

    #[test]
    fn integer_fast_path_detected() {
        let base = SampleRate::EEG_BASE;
        assert!(Resampler::new(SampleRate::new(512.0).unwrap(), base)
            .unwrap()
            .is_integer_ratio());
        assert!(Resampler::new(SampleRate::new(128.0).unwrap(), base)
            .unwrap()
            .is_integer_ratio());
        assert!(!Resampler::new(SampleRate::new(200.0).unwrap(), base)
            .unwrap()
            .is_integer_ratio());
        assert!(!Resampler::new(SampleRate::new(173.61).unwrap(), base)
            .unwrap()
            .is_integer_ratio());
    }

    #[test]
    fn integer_decimation_preserves_a_tone() {
        let from = SampleRate::new(512.0).unwrap();
        let x = sine(20.0, from, 4096);
        let y = Resampler::new(from, SampleRate::EEG_BASE)
            .unwrap()
            .resample(&x);
        assert_eq!(y.len(), 2048);
        let interior = &y[256..y.len() - 256];
        let amp = rms(interior) * std::f64::consts::SQRT_2;
        assert!((amp - 1.0).abs() < 0.05, "amplitude {amp}");
        let crossings = interior
            .windows(2)
            .filter(|w| (w[0] >= 0.0) != (w[1] >= 0.0))
            .count();
        let est = crossings as f64 / (2.0 * interior.len() as f64 / 256.0);
        assert!((est - 20.0).abs() < 0.5, "estimated {est} Hz");
    }

    #[test]
    fn integer_decimation_rejects_aliases() {
        let from = SampleRate::new(512.0).unwrap();
        let x = sine(200.0, from, 4096); // above the 128 Hz output Nyquist
        let y = Resampler::new(from, SampleRate::EEG_BASE)
            .unwrap()
            .resample(&x);
        let interior = &y[256..y.len() - 256];
        assert!(rms(interior) < 0.02, "alias rms {}", rms(interior));
    }

    #[test]
    fn integer_interpolation_preserves_a_tone() {
        let from = SampleRate::new(128.0).unwrap();
        let x = sine(13.0, from, 2048);
        let y = Resampler::new(from, SampleRate::EEG_BASE)
            .unwrap()
            .resample(&x);
        assert_eq!(y.len(), 4096);
        let interior = &y[512..y.len() - 512];
        let amp = rms(interior) * std::f64::consts::SQRT_2;
        assert!((amp - 1.0).abs() < 0.06, "amplitude {amp}");
    }

    #[test]
    fn rates_exposed() {
        let from = SampleRate::new(200.0).unwrap();
        let r = Resampler::new(from, SampleRate::EEG_BASE).unwrap();
        assert_eq!(r.from_rate(), from);
        assert_eq!(r.to_rate(), SampleRate::EEG_BASE);
    }
}
