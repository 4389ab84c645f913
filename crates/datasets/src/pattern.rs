//! Deterministic per-class waveform patterns.
//!
//! A [`Pattern`] is a pure, *periodic* function of continuous time. Every
//! frequency in a pattern is quantized to the grid `1/PERIOD_S`, so the
//! whole waveform repeats every [`PERIOD_S`] seconds. Periodicity is what
//! makes the synthetic corpus behave like the paper's "highly redundant"
//! mega-database: an input window cut at any time has an exactly aligned
//! counterpart somewhere in every recording of the same pattern, which the
//! sliding cross-correlation search can find.

use emap_dsp::rng::SeededRng;

use crate::{SignalClass, PATTERNS_PER_CLASS};

/// Period of every pattern in seconds. All component frequencies are
/// multiples of `1/PERIOD_S`.
pub const PERIOD_S: f64 = 16.0;

/// One sinusoidal component with slow amplitude modulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    freq_hz: f64,
    amp: f64,
    phase: f64,
    am_freq_hz: f64,
    am_depth: f64,
    am_phase: f64,
    /// Slow frequency-modulation (phase wander) parameters: real EEG
    /// rhythms decohere within a second, which keeps windows cut at the
    /// wrong alignment from correlating.
    fm_freq_hz: f64,
    fm_depth: f64,
    fm_phase: f64,
}

impl Component {
    fn value(&self, t: f64) -> f64 {
        let tau = std::f64::consts::TAU;
        let am =
            1.0 - self.am_depth * (0.5 + 0.5 * (tau * self.am_freq_hz * t + self.am_phase).sin());
        let wander = self.fm_depth * (tau * self.fm_freq_hz * t + self.fm_phase).sin();
        self.amp * am * (tau * self.freq_hz * t + self.phase + wander).sin()
    }
}

/// A periodic transient train (epileptiform spikes or triphasic waves).
#[derive(Debug, Clone, PartialEq)]
pub struct TransientTrain {
    /// Transients per [`PERIOD_S`] (integral, to preserve periodicity).
    count_per_period: u32,
    phase_s: f64,
    width_s: f64,
    amp: f64,
    shape: TransientShape,
}

/// Morphology of a transient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientShape {
    /// Sharp biphasic epileptiform spike (derivative-of-Gaussian), broadband
    /// enough to survive the 11–40 Hz analysis bandpass.
    BiphasicSpike,
    /// Blunt triphasic wave (Hermite-like three-lobe shape) typical of
    /// metabolic encephalopathy.
    Triphasic,
}

impl TransientTrain {
    fn value(&self, t: f64) -> f64 {
        if self.count_per_period == 0 {
            return 0.0;
        }
        let period = PERIOD_S / f64::from(self.count_per_period);
        let s = (t - self.phase_s) / period;
        let mut frac = s - s.floor();
        if frac > 0.5 {
            frac -= 1.0;
        }
        let d = frac * period / self.width_s;
        let shape = match self.shape {
            // Peak-normalized derivative of a Gaussian.
            TransientShape::BiphasicSpike => -1.1658 * 2.0 * d * (-d * d).exp(),
            // Peak-normalized (d³ − 1.5 d)·exp(−d²): three lobes.
            TransientShape::Triphasic => 0.9162 * (d * d * d - 1.5 * d) * (-d * d).exp(),
        };
        self.amp * shape
    }
}

/// A slow on/off gate producing burst-like activity (used by the stroke
/// class for its polymorphic delta bursts).
#[derive(Debug, Clone, PartialEq)]
pub struct BurstGate {
    gate_freq_hz: f64,
    gate_phase: f64,
    steepness: f64,
}

impl BurstGate {
    fn value(&self, t: f64) -> f64 {
        let tau = std::f64::consts::TAU;
        0.5 * (1.0
            + (self.steepness * (tau * self.gate_freq_hz * t + self.gate_phase).sin()).tanh())
    }
}

/// A deterministic periodic EEG waveform pattern for one signal class.
///
/// Obtain patterns from a [`PatternLibrary`]; evaluate with
/// [`Pattern::value`].
///
/// # Example
///
/// ```
/// use emap_datasets::{PatternLibrary, SignalClass};
///
/// let lib = PatternLibrary::new(SignalClass::Seizure, 7);
/// let p = lib.pattern(0);
/// // Patterns are periodic with PERIOD_S.
/// let a = p.value(1.234);
/// let b = p.value(1.234 + emap_datasets::synth::PERIOD_S);
/// assert!((a - b).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    class: SignalClass,
    index: usize,
    components: Vec<Component>,
    transients: Vec<TransientTrain>,
    gated: Vec<(BurstGate, Component)>,
    baseline_gain: f64,
}

impl Pattern {
    /// The class this pattern belongs to.
    #[must_use]
    pub fn class(&self) -> SignalClass {
        self.class
    }

    /// Index of this pattern within its library.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Evaluates the noiseless waveform at continuous time `t` seconds.
    /// Periodic with [`PERIOD_S`].
    #[must_use]
    pub fn value(&self, t: f64) -> f64 {
        let mut v = 0.0;
        for c in &self.components {
            v += c.value(t);
        }
        for tr in &self.transients {
            v += tr.value(t);
        }
        for (gate, c) in &self.gated {
            v += gate.value(t) * c.value(t);
        }
        v * self.baseline_gain
    }

    /// Samples the waveform at `rate_hz` starting at `t0_s`.
    #[must_use]
    pub fn sample(&self, rate_hz: f64, t0_s: f64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|k| self.value(t0_s + k as f64 / rate_hz) as f32)
            .collect()
    }
}

/// Quantizes a frequency to the periodic grid (`k / PERIOD_S`, `k ≥ 1`).
fn quantize(freq_hz: f64) -> f64 {
    ((freq_hz * PERIOD_S).round().max(1.0)) / PERIOD_S
}

fn component(rng: &mut SeededRng, freq_range: (f64, f64), amp_range: (f64, f64)) -> Component {
    let tau = std::f64::consts::TAU;
    Component {
        freq_hz: quantize(rng.range_f64(freq_range.0..freq_range.1)),
        amp: rng.range_f64(amp_range.0..amp_range.1),
        phase: rng.range_f64(0.0..tau),
        am_freq_hz: quantize(rng.range_f64(0.06..0.4)),
        am_depth: rng.range_f64(0.15..0.35),
        am_phase: rng.range_f64(0.0..tau),
        fm_freq_hz: quantize(rng.range_f64(0.2..0.6)),
        fm_depth: rng.range_f64(2.5..6.0),
        fm_phase: rng.range_f64(0.0..tau),
    }
}

/// A seeded bank of [`PATTERNS_PER_CLASS`] patterns for one class.
#[derive(Debug, Clone)]
pub struct PatternLibrary {
    class: SignalClass,
    patterns: Vec<Pattern>,
}

impl PatternLibrary {
    /// Builds the deterministic library for `class` under `seed`.
    #[must_use]
    pub fn new(class: SignalClass, seed: u64) -> Self {
        let patterns = (0..PATTERNS_PER_CLASS)
            .map(|idx| Self::make_pattern(class, idx, seed))
            .collect();
        PatternLibrary { class, patterns }
    }

    /// The class of every pattern in this library.
    #[must_use]
    pub fn class(&self) -> SignalClass {
        self.class
    }

    /// Number of patterns (always [`PATTERNS_PER_CLASS`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the library is empty (never, kept for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Returns pattern `index % len`.
    #[must_use]
    pub fn pattern(&self, index: usize) -> &Pattern {
        &self.patterns[index % self.patterns.len()]
    }

    /// Iterates over all patterns.
    pub fn iter(&self) -> impl Iterator<Item = &Pattern> {
        self.patterns.iter()
    }

    fn make_pattern(class: SignalClass, index: usize, seed: u64) -> Pattern {
        let mut rng = SeededRng::seed_from_u64(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ class.seed_tag().wrapping_mul(0xff51_afd7_ed55_8ccd)
                ^ (index as u64).wrapping_mul(0xc4ce_b9fe_1a85_ec53),
        );
        let mut components = Vec::new();
        let mut transients = Vec::new();
        let mut gated = Vec::new();
        // Uniform today; kept as a field so per-class global scaling stays a
        // one-line change.
        let baseline_gain = 1.0;
        // Each pattern has ONE dominant rhythm; its frequency is stratified
        // by pattern index so patterns of the same class never share a
        // dominant frequency (keeps them separable under the search
        // threshold), while every window stays dominated by a single
        // oscillation -- the property that puts the unrelated-window
        // correlation baseline near the ~0.65 the paper's skip statistics
        // imply.
        let stratum = |low: f64, high: f64| -> (f64, f64) {
            let n = PATTERNS_PER_CLASS as f64;
            let span = (high - low) / n;
            let i = (index % PATTERNS_PER_CLASS) as f64;
            (low + i * span, low + (i + 0.8) * span)
        };
        match class {
            SignalClass::Normal => {
                // Dominant posterior alpha at the band edge, weak mid-beta.
                components.push(component(&mut rng, stratum(9.0, 12.0), (28.0, 38.0)));
                components.push(component(&mut rng, (13.0, 20.0), (4.0, 8.0)));
                if rng.bool(0.5) {
                    components.push(component(&mut rng, (30.0, 38.0), (2.0, 4.0)));
                }
            }
            SignalClass::Seizure => {
                // Stereotyped ~3 Hz spike discharges over a dominant
                // rhythmic beta run.
                let spikes = 42 + 2 * (index as u32 % 6); // 2.6-3.3 Hz
                transients.push(TransientTrain {
                    count_per_period: spikes,
                    phase_s: rng.range_f64(0.0..PERIOD_S / f64::from(spikes)),
                    width_s: rng.range_f64(0.018..0.028),
                    amp: rng.range_f64(55.0..75.0),
                    shape: TransientShape::BiphasicSpike,
                });
                components.push(component(&mut rng, stratum(15.0, 23.0), (38.0, 50.0)));
                components.push(component(&mut rng, (26.0, 34.0), (5.0, 9.0)));
            }
            SignalClass::Encephalopathy => {
                // Diffuse slowing: triphasic waves over a weak slowed alpha.
                let waves = 24 + 3 * (index as u32 % 6); // 1.5-2.4 Hz
                transients.push(TransientTrain {
                    count_per_period: waves,
                    phase_s: rng.range_f64(0.0..PERIOD_S / f64::from(waves)),
                    width_s: rng.range_f64(0.025..0.04),
                    amp: rng.range_f64(42.0..60.0),
                    shape: TransientShape::Triphasic,
                });
                components.push(component(&mut rng, stratum(11.0, 14.5), (24.0, 34.0)));
                components.push(component(&mut rng, (16.0, 22.0), (3.0, 6.0)));
            }
            SignalClass::Stroke => {
                // Focal attenuation: weak dominant alpha, gated spindle
                // runs, and sharp polymorphic slow waves.
                components.push(component(&mut rng, stratum(8.5, 11.5), (9.0, 13.0)));
                gated.push((
                    BurstGate {
                        gate_freq_hz: quantize(rng.range_f64(0.12..0.5)),
                        gate_phase: rng.range_f64(0.0..std::f64::consts::TAU),
                        steepness: rng.range_f64(2.5..4.0),
                    },
                    component(&mut rng, stratum(12.0, 16.5), (26.0, 38.0)),
                ));
                let bursts = 32 + 4 * (index as u32 % 6); // 2-3.3 Hz
                transients.push(TransientTrain {
                    count_per_period: bursts,
                    phase_s: rng.range_f64(0.0..PERIOD_S / f64::from(bursts)),
                    width_s: rng.range_f64(0.03..0.05),
                    amp: rng.range_f64(26.0..40.0),
                    shape: TransientShape::BiphasicSpike,
                });
            }
        }
        Pattern {
            class,
            index,
            components,
            transients,
            gated,
            baseline_gain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_is_deterministic() {
        for class in SignalClass::ALL {
            let a = PatternLibrary::new(class, 99);
            let b = PatternLibrary::new(class, 99);
            for (pa, pb) in a.iter().zip(b.iter()) {
                assert_eq!(pa, pb);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = PatternLibrary::new(SignalClass::Normal, 1);
        let b = PatternLibrary::new(SignalClass::Normal, 2);
        assert_ne!(a.pattern(0), b.pattern(0));
    }

    #[test]
    fn different_classes_differ_under_same_seed() {
        let a = PatternLibrary::new(SignalClass::Normal, 5);
        let b = PatternLibrary::new(SignalClass::Seizure, 5);
        assert_ne!(a.pattern(0).value(0.5), b.pattern(0).value(0.5));
    }

    #[test]
    fn patterns_are_periodic() {
        for class in SignalClass::ALL {
            let lib = PatternLibrary::new(class, 3);
            for p in lib.iter() {
                for t in [0.0, 0.77, 3.21, 8.5, 15.9] {
                    let a = p.value(t);
                    let b = p.value(t + PERIOD_S);
                    assert!(
                        (a - b).abs() < 1e-6 * (1.0 + a.abs()),
                        "{class:?} pattern {} not periodic at {t}: {a} vs {b}",
                        p.index()
                    );
                }
            }
        }
    }

    #[test]
    fn library_has_expected_size() {
        let lib = PatternLibrary::new(SignalClass::Stroke, 0);
        assert_eq!(lib.len(), PATTERNS_PER_CLASS);
        assert!(!lib.is_empty());
        assert_eq!(lib.class(), SignalClass::Stroke);
    }

    #[test]
    fn pattern_index_wraps() {
        let lib = PatternLibrary::new(SignalClass::Normal, 0);
        assert_eq!(
            lib.pattern(0).index(),
            lib.pattern(PATTERNS_PER_CLASS).index()
        );
    }

    #[test]
    fn seizure_patterns_have_big_amplitude() {
        // Spike trains must rise well above the normal background so the
        // classes are morphologically distinct.
        let normal = PatternLibrary::new(SignalClass::Normal, 11);
        let seizure = PatternLibrary::new(SignalClass::Seizure, 11);
        let peak = |p: &Pattern| {
            (0..4096)
                .map(|k| p.value(k as f64 * PERIOD_S / 4096.0).abs())
                .fold(0.0f64, f64::max)
        };
        let n_peak = peak(normal.pattern(0));
        let s_peak = peak(seizure.pattern(0));
        assert!(s_peak > 1.5 * n_peak, "seizure {s_peak} vs normal {n_peak}");
    }

    #[test]
    fn sampling_matches_value() {
        let lib = PatternLibrary::new(SignalClass::Seizure, 8);
        let p = lib.pattern(2);
        let s = p.sample(256.0, 1.5, 10);
        for (k, &v) in s.iter().enumerate() {
            let expect = p.value(1.5 + k as f64 / 256.0) as f32;
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn values_are_finite_everywhere() {
        for class in SignalClass::ALL {
            let lib = PatternLibrary::new(class, 42);
            for p in lib.iter() {
                for k in 0..2000 {
                    let v = p.value(k as f64 * 0.01);
                    assert!(v.is_finite());
                }
            }
        }
    }
}
