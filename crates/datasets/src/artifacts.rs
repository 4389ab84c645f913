//! Recording artifacts: eye blinks, muscle bursts, electrode pops.
//!
//! Real scalp EEG is contaminated by non-cerebral transients; the paper's
//! §III motivates the bandpass filter with exactly this ("attenuate the
//! noise components and motion artifacts"). Injecting artifacts into the
//! synthetic corpus lets the robustness ablation
//! (`emap-bench/ablation_artifacts`) quantify how the framework degrades —
//! and shows which artifact kinds the 11–40 Hz filter actually removes.

use emap_dsp::rng::SeededRng;

/// The artifact morphologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Ocular artifact: a large, slow (~0.5–2 Hz) monophasic lobe. Mostly
    /// removed by the 11–40 Hz bandpass.
    EyeBlink,
    /// Muscle (EMG) burst: broadband 20–60 Hz activity. Partially *inside*
    /// the analysis band — the artifact that actually hurts.
    MuscleBurst,
    /// Electrode pop: an abrupt step with exponential recovery.
    ElectrodePop,
}

impl ArtifactKind {
    /// All kinds.
    pub const ALL: [ArtifactKind; 3] = [
        ArtifactKind::EyeBlink,
        ArtifactKind::MuscleBurst,
        ArtifactKind::ElectrodePop,
    ];
}

/// Where an injected artifact landed (for ground-truth bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArtifactSpan {
    /// Artifact morphology.
    pub kind: ArtifactKind,
    /// Onset in seconds.
    pub onset_s: f64,
    /// Duration in seconds.
    pub duration_s: f64,
}

/// Artifact injection parameters.
///
/// # Example
///
/// ```
/// use emap_datasets::artifacts::{inject, ArtifactConfig};
///
/// let clean = vec![0.0f32; 256 * 30];
/// let (dirty, spans) = inject(&clean, 256.0, 30.0, &ArtifactConfig::default(), 7);
/// assert_eq!(dirty.len(), clean.len());
/// assert!(!spans.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArtifactConfig {
    /// Expected artifacts per minute of signal.
    pub rate_per_minute: f64,
    /// Peak artifact amplitude in the recording's physical units (µV).
    pub amplitude: f64,
    /// Artifact duration range in seconds.
    pub duration_range_s: (f64, f64),
}

impl Default for ArtifactConfig {
    /// Clinically plausible contamination: ~4 artifacts per minute at
    /// ~150 µV peaks lasting 0.2–0.6 s.
    fn default() -> Self {
        ArtifactConfig {
            rate_per_minute: 4.0,
            amplitude: 150.0,
            duration_range_s: (0.2, 0.6),
        }
    }
}

/// Injects artifacts into `samples` (recorded at `rate_hz` for
/// `seconds`), returning the contaminated copy and the injected spans.
/// Deterministic in `seed`.
#[must_use]
pub fn inject(
    samples: &[f32],
    rate_hz: f64,
    seconds: f64,
    config: &ArtifactConfig,
    seed: u64,
) -> (Vec<f32>, Vec<ArtifactSpan>) {
    let mut out = samples.to_vec();
    let mut spans = Vec::new();
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x94d0_49bb_1331_11eb);
    let expected = (config.rate_per_minute * seconds / 60.0).max(0.0);
    // Deterministic count near the expectation (± Bernoulli remainder).
    let mut count = expected.floor() as usize;
    if rng.f64() < expected.fract() {
        count += 1;
    }
    for _ in 0..count {
        let kind = ArtifactKind::ALL[rng.index(ArtifactKind::ALL.len())];
        let duration_s =
            rng.range_f64_inclusive(config.duration_range_s.0..=config.duration_range_s.1);
        let max_onset = (seconds - duration_s).max(0.0);
        let onset_s = rng.range_f64_inclusive(0.0..=max_onset);
        apply(
            &mut out,
            rate_hz,
            kind,
            onset_s,
            duration_s,
            config.amplitude,
            &mut rng,
        );
        spans.push(ArtifactSpan {
            kind,
            onset_s,
            duration_s,
        });
    }
    spans.sort_by(|a, b| a.onset_s.total_cmp(&b.onset_s));
    (out, spans)
}

fn apply(
    samples: &mut [f32],
    rate_hz: f64,
    kind: ArtifactKind,
    onset_s: f64,
    duration_s: f64,
    amplitude: f64,
    rng: &mut SeededRng,
) {
    let start = (onset_s * rate_hz) as usize;
    let len = ((duration_s * rate_hz) as usize).max(1);
    let polarity = if rng.bool(0.5) { 1.0 } else { -1.0 };
    for i in 0..len {
        let Some(sample) = samples.get_mut(start + i) else {
            break;
        };
        let x = i as f64 / len as f64; // position in [0, 1)
        let value = match kind {
            // Raised-cosine lobe.
            ArtifactKind::EyeBlink => amplitude * 0.5 * (1.0 - (std::f64::consts::TAU * x).cos()),
            // Band-limited-ish noise burst with a cosine envelope.
            ArtifactKind::MuscleBurst => {
                let env = 0.5 * (1.0 - (std::f64::consts::TAU * x).cos());
                let carrier = (std::f64::consts::TAU
                    * (20.0 + 40.0 * rng.f64())
                    * (onset_s + i as f64 / rate_hz))
                    .sin();
                amplitude * 0.6 * env * carrier
            }
            // Step with exponential recovery.
            ArtifactKind::ElectrodePop => amplitude * (-4.0 * x).exp(),
        };
        *sample += (polarity * value) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(seconds: f64) -> Vec<f32> {
        vec![0.0; (256.0 * seconds) as usize]
    }

    #[test]
    fn injection_is_deterministic() {
        let c = clean(60.0);
        let a = inject(&c, 256.0, 60.0, &ArtifactConfig::default(), 5);
        let b = inject(&c, 256.0, 60.0, &ArtifactConfig::default(), 5);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        let other = inject(&c, 256.0, 60.0, &ArtifactConfig::default(), 6);
        assert_ne!(a.1, other.1);
    }

    #[test]
    fn count_tracks_rate() {
        let c = clean(600.0); // 10 minutes
        let cfg = ArtifactConfig {
            rate_per_minute: 6.0,
            ..ArtifactConfig::default()
        };
        let (_, spans) = inject(&c, 256.0, 600.0, &cfg, 1);
        assert!(
            (55..=65).contains(&spans.len()),
            "{} artifacts",
            spans.len()
        );
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let c = clean(30.0);
        let cfg = ArtifactConfig {
            rate_per_minute: 0.0,
            ..ArtifactConfig::default()
        };
        let (out, spans) = inject(&c, 256.0, 30.0, &cfg, 1);
        assert_eq!(out, c);
        assert!(spans.is_empty());
    }

    #[test]
    fn artifacts_actually_modify_the_signal() {
        let c = clean(60.0);
        let (out, spans) = inject(&c, 256.0, 60.0, &ArtifactConfig::default(), 2);
        assert!(!spans.is_empty());
        let peak = out.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        assert!(peak > 50.0, "peak {peak}");
        // The contamination is local: samples outside every span are
        // untouched.
        for (i, (&a, &b)) in c.iter().zip(&out).enumerate() {
            let t = i as f64 / 256.0;
            // One-sample slack: the onset index is truncated to the grid.
            let slack = 1.0 / 256.0;
            let inside = spans
                .iter()
                .any(|s| t >= s.onset_s - slack && t <= s.onset_s + s.duration_s + slack);
            if !inside {
                assert_eq!(a, b, "sample {i} at {t:.2}s modified outside spans");
            }
        }
    }

    #[test]
    fn spans_are_sorted_and_inside_the_recording() {
        let c = clean(120.0);
        let (_, spans) = inject(&c, 256.0, 120.0, &ArtifactConfig::default(), 3);
        for w in spans.windows(2) {
            assert!(w[0].onset_s <= w[1].onset_s);
        }
        for s in &spans {
            assert!(s.onset_s >= 0.0);
            assert!(s.onset_s + s.duration_s <= 120.0 + 1e-9);
        }
    }

    /// The §III claim: the bandpass removes ocular artifacts but muscle
    /// bursts overlap the analysis band.
    #[test]
    fn bandpass_removes_blinks_not_muscle() {
        use emap_dsp::stats::rms;
        let filter = emap_dsp::emap_bandpass();
        let n = 256 * 8;
        let rng_cfg = ArtifactConfig {
            rate_per_minute: 60.0, // dense, for measurable energy
            amplitude: 100.0,
            duration_range_s: (0.3, 0.5),
        };
        let mut blink_only = vec![0.0f32; n];
        let mut muscle_only = vec![0.0f32; n];
        let mut rng = SeededRng::seed_from_u64(9);
        for k in 0..8 {
            apply(
                &mut blink_only,
                256.0,
                ArtifactKind::EyeBlink,
                k as f64,
                0.4,
                rng_cfg.amplitude,
                &mut rng,
            );
            apply(
                &mut muscle_only,
                256.0,
                ArtifactKind::MuscleBurst,
                k as f64,
                0.4,
                rng_cfg.amplitude,
                &mut rng,
            );
        }
        let blink_out = rms(&filter.filter(&blink_only)[256..]);
        let blink_in = rms(&blink_only[256..]);
        let muscle_out = rms(&filter.filter(&muscle_only)[256..]);
        let muscle_in = rms(&muscle_only[256..]);
        assert!(
            blink_out / blink_in < 0.15,
            "blink survived the filter: {blink_out}/{blink_in}"
        );
        assert!(
            muscle_out / muscle_in > 0.3,
            "muscle should partially survive: {muscle_out}/{muscle_in}"
        );
    }
}
