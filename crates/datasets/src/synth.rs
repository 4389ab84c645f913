//! Waveform synthesis: patterns + per-recording noise and gain.
//!
//! A recording is `gain · pattern(t) + noise`. The per-class noise levels
//! here are the main knob controlling how strongly two recordings of the
//! same pattern cross-correlate — i.e. how "redundant" the synthetic corpus
//! is — and therefore how well the EMAP search and tracker perform per
//! class. Seizures are the most stereotyped (least noise), matching the
//! paper's observation that seizure prediction works best (94 %) while the
//! poorly-annotated encephalopathy/stroke classes trail (73 % / 79 %).

use emap_dsp::rng::SeededRng;

use crate::{Pattern, SignalClass};

pub use crate::pattern::PERIOD_S;

/// Relative noise amplitude for a class, as a fraction of the pattern's RMS.
#[must_use]
pub fn noise_fraction(class: SignalClass) -> f64 {
    match class {
        SignalClass::Normal => 0.30,
        SignalClass::Seizure => 0.15,
        SignalClass::Encephalopathy => 0.44,
        SignalClass::Stroke => 0.37,
    }
}

/// Per-recording gain wobble range (uniform multiplicative factor).
pub const GAIN_RANGE: (f64, f64) = (0.85, 1.15);

/// Synthesis parameters for one recording.
#[derive(Debug, Clone, Copy)]
pub struct SynthParams {
    /// Sampling rate in Hz.
    pub rate_hz: f64,
    /// Pattern-time of the first sample, in seconds.
    pub t0_s: f64,
    /// Number of samples to synthesize.
    pub n_samples: usize,
    /// Additive white-noise amplitude as a fraction of the pattern RMS.
    pub noise_fraction: f64,
    /// Multiplicative gain applied to the pattern (not the noise).
    pub gain: f64,
}

/// RMS of a pattern estimated over one full period at 256 Hz.
#[must_use]
pub fn pattern_rms(pattern: &Pattern) -> f64 {
    let n = (PERIOD_S * 256.0) as usize;
    let sum: f64 = (0..n)
        .map(|k| {
            let v = pattern.value(k as f64 / 256.0);
            v * v
        })
        .sum();
    (sum / n as f64).sqrt()
}

/// Synthesizes one noisy realization of `pattern`.
///
/// The same `(pattern, params, seed)` triple always produces the same
/// samples.
///
/// # Example
///
/// ```
/// use emap_datasets::{PatternLibrary, SignalClass};
/// use emap_datasets::synth::{synthesize, SynthParams};
///
/// let lib = PatternLibrary::new(SignalClass::Normal, 1);
/// let params = SynthParams {
///     rate_hz: 256.0,
///     t0_s: 0.0,
///     n_samples: 512,
///     noise_fraction: 0.2,
///     gain: 1.0,
/// };
/// let a = synthesize(lib.pattern(0), params, 5);
/// let b = synthesize(lib.pattern(0), params, 5);
/// assert_eq!(a, b);
/// ```
#[must_use]
pub fn synthesize(pattern: &Pattern, params: SynthParams, seed: u64) -> Vec<f32> {
    let mut rng = SeededRng::seed_from_u64(seed ^ 0xa076_1d64_78bd_642f);
    let noise_amp = params.noise_fraction * pattern_rms(pattern);
    (0..params.n_samples)
        .map(|k| {
            let t = params.t0_s + k as f64 / params.rate_hz;
            let noise = noise_amp * (rng.f64() * 2.0 - 1.0) * (3.0f64).sqrt();
            (params.gain * pattern.value(t) + noise) as f32
        })
        .collect()
}

/// Draws a per-recording gain from [`GAIN_RANGE`].
#[must_use]
pub fn draw_gain(rng: &mut SeededRng) -> f64 {
    rng.range_f64(GAIN_RANGE.0..GAIN_RANGE.1)
}

/// Synthesizes a seizure-input waveform: normal background that blends into
/// a preictal buildup and finally the full ictal pattern at `onset_s`.
///
/// The buildup ramps the seizure pattern in (and the normal background out)
/// over `preictal_s` seconds before the onset with a concave (cube-root)
/// profile — this growing rhythmic component is what the
/// prediction-horizon experiments of Fig. 10 detect.
#[must_use]
pub fn synthesize_seizure_transition(
    normal: &Pattern,
    seizure: &Pattern,
    params: SynthParams,
    onset_s: f64,
    preictal_s: f64,
    seed: u64,
) -> Vec<f32> {
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
    let n_noise = params.noise_fraction * pattern_rms(normal);
    (0..params.n_samples)
        .map(|k| {
            let t = params.t0_s + k as f64 / params.rate_hz;
            // Blend coefficient: 0 well before onset − preictal_s, 1 at and
            // after the onset.
            let blend = if preictal_s <= 0.0 {
                if t >= onset_s {
                    1.0
                } else {
                    0.0
                }
            } else {
                // Concave buildup: the preictal signature appears early and
                // strengthens toward the onset (cube-root ramp), which is
                // what lets the framework predict at the 120 s horizon of
                // Fig. 10, not just right before the seizure.
                ((t - (onset_s - preictal_s)) / preictal_s)
                    .clamp(0.0, 1.0)
                    .cbrt()
            };
            let v = params.gain * ((1.0 - blend) * normal.value(t) + blend * seizure.value(t));
            let noise = n_noise * (rng.f64() * 2.0 - 1.0) * (3.0f64).sqrt();
            (v + noise) as f32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternLibrary;

    fn params(n: usize) -> SynthParams {
        SynthParams {
            rate_hz: 256.0,
            t0_s: 0.0,
            n_samples: n,
            noise_fraction: 0.2,
            gain: 1.0,
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let lib = PatternLibrary::new(SignalClass::Seizure, 1);
        let a = synthesize(lib.pattern(0), params(300), 42);
        let b = synthesize(lib.pattern(0), params(300), 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_noise() {
        let lib = PatternLibrary::new(SignalClass::Seizure, 1);
        let a = synthesize(lib.pattern(0), params(300), 1);
        let b = synthesize(lib.pattern(0), params(300), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_noise_equals_pattern() {
        let lib = PatternLibrary::new(SignalClass::Normal, 1);
        let p = lib.pattern(3);
        let mut prm = params(100);
        prm.noise_fraction = 0.0;
        let s = synthesize(p, prm, 9);
        for (k, &v) in s.iter().enumerate() {
            assert!((f64::from(v) - p.value(k as f64 / 256.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn noise_scales_with_fraction() {
        let lib = PatternLibrary::new(SignalClass::Normal, 1);
        let p = lib.pattern(0);
        let clean = {
            let mut prm = params(2048);
            prm.noise_fraction = 0.0;
            synthesize(p, prm, 7)
        };
        let noisy = {
            let mut prm = params(2048);
            prm.noise_fraction = 0.5;
            synthesize(p, prm, 7)
        };
        let resid: f64 = clean
            .iter()
            .zip(&noisy)
            .map(|(&a, &b)| f64::from(b - a) * f64::from(b - a))
            .sum::<f64>()
            / clean.len() as f64;
        let expect = 0.5 * pattern_rms(p);
        assert!(
            (resid.sqrt() - expect).abs() / expect < 0.15,
            "residual rms {} vs expected {expect}",
            resid.sqrt()
        );
    }

    #[test]
    fn rms_is_positive_for_all_patterns() {
        for class in SignalClass::ALL {
            let lib = PatternLibrary::new(class, 2);
            for p in lib.iter() {
                assert!(pattern_rms(p) > 1.0, "{class:?} rms too small");
            }
        }
    }

    #[test]
    fn transition_is_normal_before_and_seizure_after() {
        let nl = PatternLibrary::new(SignalClass::Normal, 3);
        let sl = PatternLibrary::new(SignalClass::Seizure, 3);
        let mut prm = params((256.0 * 40.0) as usize);
        prm.noise_fraction = 0.0;
        let s = synthesize_seizure_transition(nl.pattern(0), sl.pattern(0), prm, 30.0, 10.0, 1);
        // Before onset − preictal: identical to the normal pattern.
        for (k, &v) in s.iter().enumerate().take(256 * 18) {
            let t = k as f64 / 256.0;
            assert!(
                (f64::from(v) - nl.pattern(0).value(t)).abs() < 1e-4,
                "early mismatch at {t}"
            );
        }
        // After onset: identical to the seizure pattern.
        for (k, &v) in s.iter().enumerate().take(256 * 39).skip(256 * 31) {
            let t = k as f64 / 256.0;
            assert!(
                (f64::from(v) - sl.pattern(0).value(t)).abs() < 1e-3,
                "late mismatch at {t}"
            );
        }
    }

    #[test]
    fn class_noise_ordering_matches_accuracy_story() {
        assert!(noise_fraction(SignalClass::Seizure) < noise_fraction(SignalClass::Normal));
        assert!(noise_fraction(SignalClass::Stroke) < noise_fraction(SignalClass::Encephalopathy));
    }

    #[test]
    fn draw_gain_in_range() {
        let mut rng = SeededRng::seed_from_u64(0);
        for _ in 0..100 {
            let g = draw_gain(&mut rng);
            assert!((GAIN_RANGE.0..GAIN_RANGE.1).contains(&g));
        }
    }
}
