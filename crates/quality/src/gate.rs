//! The decision tree.
//!
//! Four features, four artifact archetypes, five comparisons — small
//! enough to audit by eye and to run per second per session. The
//! thresholds are fixed (no training) and calibrated for the repo's
//! ±500 µV / 256 Hz channel convention; they are `pub` constants via
//! [`GateThresholds`] so ablations can sweep them.

use crate::features::{extract, SecondFeatures};

/// Artifact archetypes the tree distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Effectively constant window — detached or shorted electrode.
    Flatline,
    /// Rail-pinned, square-ish window — amplifier saturation (also any
    /// non-finite sample, an acquisition fault).
    Saturation,
    /// Isolated large transients dominate — motion/electrode-pop
    /// spikes.
    SpikeTrain,
    /// Slow high-amplitude wander with almost no in-band activity —
    /// electrode drift / sweat artifact.
    Drift,
}

impl ArtifactKind {
    /// All archetypes, in severity-agnostic display order.
    pub const ALL: [ArtifactKind; 4] = [
        ArtifactKind::Flatline,
        ArtifactKind::Saturation,
        ArtifactKind::SpikeTrain,
        ArtifactKind::Drift,
    ];

    /// Stable lower-case label (telemetry, reports, wire details).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::Flatline => "flatline",
            ArtifactKind::Saturation => "saturation",
            ArtifactKind::SpikeTrain => "spike_train",
            ArtifactKind::Drift => "drift",
        }
    }
}

/// One window's classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Plausible EEG — safe to track and to ingest.
    Clean,
    /// Artifact second; the payload names the archetype.
    Artifact(ArtifactKind),
}

impl Verdict {
    /// Whether the window passed the gate.
    #[must_use]
    pub fn is_clean(self) -> bool {
        matches!(self, Verdict::Clean)
    }

    /// The artifact archetype, if any.
    #[must_use]
    pub fn artifact(self) -> Option<ArtifactKind> {
        match self {
            Verdict::Clean => None,
            Verdict::Artifact(kind) => Some(kind),
        }
    }
}

/// The tree's split points.
///
/// Calibration assumes the repo-wide channel convention: physical
/// units are µV, rails at ±500, sampling at 256 Hz, analysis band
/// 11–40 Hz. Every threshold is documented on its field; `Default` is
/// the tuned tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateThresholds {
    /// Peak-to-peak swing below which a window is a [`ArtifactKind::Flatline`]
    /// (µV): real scalp EEG never sits below a few µV peak-to-peak.
    pub flat_range: f64,
    /// Peak-to-peak swing above which a window is pathological (µV):
    /// scalp EEG stays well under this, so the only question left is
    /// *which* artifact. 700 µV sits between the largest plausible
    /// burst (~300 µV) and a rail-to-rail swing (1000 µV).
    pub extreme_range: f64,
    /// Crest factor below which an extreme-range window is
    /// [`ArtifactKind::Saturation`]: rail-pinned square-ish signals
    /// have crest ≈ 1, Gaussian-like EEG ≈ 3–4.5. Extreme-range
    /// windows above this are spikes.
    pub saturation_crest: f64,
    /// Crest factor above which any window is a
    /// [`ArtifactKind::SpikeTrain`]: for 256 Gaussian-like samples the
    /// expected crest is ≈ 3.3 and the tail ends ≈ 5; isolated
    /// transients push it well past 6.
    pub spike_crest: f64,
    /// Mean-crossing count at or below which a window is drift-suspect:
    /// in-band EEG (≥ 11 Hz) crosses its mean ≥ ~22 times per second,
    /// sub-2 Hz electrode wander ≤ 4 times.
    pub drift_max_crossings: usize,
    /// Path-efficiency bound for [`ArtifactKind::Drift`]: total
    /// variation divided by amplitude range is ≈ 1 for a monotone ramp,
    /// ≤ 2·f for an f-Hz tone, and large for busy EEG. Both this and
    /// the crossing bound must fire for the drift verdict.
    pub drift_max_tv_ratio: f64,
}

impl Default for GateThresholds {
    fn default() -> Self {
        GateThresholds {
            flat_range: 1.0,
            extreme_range: 700.0,
            saturation_crest: 1.8,
            spike_crest: 6.0,
            drift_max_crossings: 4,
            drift_max_tv_ratio: 3.0,
        }
    }
}

/// The per-second gate: [`extract`](crate::features::extract) +
/// the fixed decision tree.
///
/// Cloneable and `Sync` (it is plain data), so one gate can serve a
/// whole fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QualityGate {
    thresholds: GateThresholds,
}

impl QualityGate {
    /// A gate with custom split points.
    #[must_use]
    pub fn new(thresholds: GateThresholds) -> Self {
        QualityGate { thresholds }
    }

    /// The active split points.
    #[must_use]
    pub fn thresholds(&self) -> &GateThresholds {
        &self.thresholds
    }

    /// Classifies pre-extracted features. The tree, in evaluation
    /// order:
    ///
    /// 1. non-finite → `Saturation` (acquisition fault),
    /// 2. `amplitude_range < flat_range` → `Flatline`,
    /// 3. `amplitude_range > extreme_range` → `Saturation` if
    ///    `crest_factor < saturation_crest`, else `SpikeTrain`,
    /// 4. `crest_factor > spike_crest` → `SpikeTrain`,
    /// 5. `zero_crossings ≤ drift_max_crossings` **and**
    ///    `total_variation / amplitude_range < drift_max_tv_ratio`
    ///    → `Drift`,
    /// 6. otherwise → `Clean`.
    #[must_use]
    pub fn classify(&self, f: &SecondFeatures) -> Verdict {
        let t = &self.thresholds;
        if !f.finite {
            return Verdict::Artifact(ArtifactKind::Saturation);
        }
        if f.amplitude_range < t.flat_range {
            return Verdict::Artifact(ArtifactKind::Flatline);
        }
        if f.amplitude_range > t.extreme_range {
            return if f.crest_factor < t.saturation_crest {
                Verdict::Artifact(ArtifactKind::Saturation)
            } else {
                Verdict::Artifact(ArtifactKind::SpikeTrain)
            };
        }
        if f.crest_factor > t.spike_crest {
            return Verdict::Artifact(ArtifactKind::SpikeTrain);
        }
        if f.zero_crossings <= t.drift_max_crossings
            && f.total_variation / f.amplitude_range < t.drift_max_tv_ratio
        {
            return Verdict::Artifact(ArtifactKind::Drift);
        }
        Verdict::Clean
    }

    /// Classifies one acquisition second (any non-empty window; an
    /// empty one reads as flatlined).
    #[must_use]
    pub fn assess_second(&self, window: &[f32]) -> Verdict {
        self.classify(&extract(window))
    }

    /// Classifies a longer slice (e.g. a 1000-sample signal-set) by
    /// walking non-overlapping [`emap_dsp::SAMPLES_PER_SECOND`]-sample
    /// windows plus the remainder tail: the slice is rejected if *any*
    /// window is artifactual, and the first artifact found names the
    /// verdict. A slice must be clean end to end to enter the store.
    #[must_use]
    pub fn assess_slice(&self, samples: &[f32]) -> Verdict {
        if samples.is_empty() {
            return Verdict::Artifact(ArtifactKind::Flatline);
        }
        let mut rest = samples;
        while !rest.is_empty() {
            let n = rest.len().min(emap_dsp::SAMPLES_PER_SECOND);
            let verdict = self.assess_second(&rest[..n]);
            if !verdict.is_clean() {
                return verdict;
            }
            rest = &rest[n..];
        }
        Verdict::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> QualityGate {
        QualityGate::default()
    }

    fn eeg_like() -> Vec<f32> {
        // 12 Hz + 25 Hz mixture, ~60 µV peak-to-peak: inside the
        // analysis band, Gaussian-ish crest.
        (0..256)
            .map(|n| {
                let t = n as f64 / 256.0;
                ((std::f64::consts::TAU * 12.0 * t).sin() * 22.0
                    + (std::f64::consts::TAU * 25.0 * t).sin() * 9.0
                    + (std::f64::consts::TAU * 31.0 * t).cos() * 5.0) as f32
            })
            .collect()
    }

    #[test]
    fn clean_eeg_passes() {
        assert_eq!(gate().assess_second(&eeg_like()), Verdict::Clean);
        assert!(Verdict::Clean.is_clean());
        assert_eq!(Verdict::Clean.artifact(), None);
    }

    #[test]
    fn flatline_flagged() {
        let v = gate().assess_second(&[3.0; 256]);
        assert_eq!(v, Verdict::Artifact(ArtifactKind::Flatline));
        assert!(!v.is_clean());
        assert_eq!(v.artifact(), Some(ArtifactKind::Flatline));
        assert_eq!(
            gate().assess_second(&[]),
            Verdict::Artifact(ArtifactKind::Flatline)
        );
    }

    #[test]
    fn saturation_flagged() {
        // Rail-pinned square wave at ±500 µV, crest ≈ 1.
        let railed: Vec<f32> = (0..256)
            .map(|n| if (n / 13) % 2 == 0 { 500.0 } else { -500.0 })
            .collect();
        assert_eq!(
            gate().assess_second(&railed),
            Verdict::Artifact(ArtifactKind::Saturation)
        );
    }

    #[test]
    fn non_finite_reads_as_saturation() {
        let mut w = eeg_like();
        w[17] = f32::NAN;
        assert_eq!(
            gate().assess_second(&w),
            Verdict::Artifact(ArtifactKind::Saturation)
        );
    }

    #[test]
    fn spike_train_flagged() {
        // Small background with three sharp 400 µV pops.
        let mut w: Vec<f32> = (0..256)
            .map(|n| ((n as f64 * 0.9).sin() * 6.0) as f32)
            .collect();
        for &i in &[30usize, 120, 210] {
            w[i] = 400.0;
        }
        assert_eq!(
            gate().assess_second(&w),
            Verdict::Artifact(ArtifactKind::SpikeTrain)
        );
    }

    #[test]
    fn bipolar_extreme_spikes_still_read_as_spikes() {
        // Range exceeds extreme_range but crest is high → spike branch.
        let mut w = vec![1.0f32; 256];
        w[50] = 450.0;
        w[180] = -450.0;
        assert_eq!(
            gate().assess_second(&w),
            Verdict::Artifact(ArtifactKind::SpikeTrain)
        );
    }

    #[test]
    fn drift_flagged() {
        // Slow monotone electrode wander with a whisper of ripple.
        let ramp: Vec<f32> = (0..256)
            .map(|n| n as f32 * 0.8 + ((n as f64 * 0.05).sin() * 0.4) as f32)
            .collect();
        assert_eq!(
            gate().assess_second(&ramp),
            Verdict::Artifact(ArtifactKind::Drift)
        );
        // Half a period of a 0.5 Hz wander.
        let slow: Vec<f32> = (0..256)
            .map(|n| ((std::f64::consts::PI * n as f64 / 256.0).sin() * 120.0) as f32)
            .collect();
        assert_eq!(
            gate().assess_second(&slow),
            Verdict::Artifact(ArtifactKind::Drift)
        );
    }

    #[test]
    fn alpha_band_is_not_drift() {
        // 11 Hz at the band edge: 22 crossings, far above the bound.
        let alpha: Vec<f32> = (0..256)
            .map(|n| ((std::f64::consts::TAU * 11.0 * n as f64 / 256.0).sin() * 45.0) as f32)
            .collect();
        assert_eq!(gate().assess_second(&alpha), Verdict::Clean);
    }

    #[test]
    fn slice_gate_rejects_if_any_second_is_bad() {
        let g = gate();
        let mut slice = Vec::new();
        for _ in 0..3 {
            slice.extend(eeg_like());
        }
        slice.extend_from_slice(&eeg_like()[..232]); // 1000-sample set
        assert_eq!(slice.len(), 1000);
        assert_eq!(g.assess_slice(&slice), Verdict::Clean);

        // Flatten the second second only.
        let mut bad = slice.clone();
        for v in &mut bad[256..512] {
            *v = 0.0;
        }
        assert_eq!(
            g.assess_slice(&bad),
            Verdict::Artifact(ArtifactKind::Flatline)
        );

        // The 232-sample tail is assessed too.
        let mut tail_bad = slice.clone();
        for v in &mut tail_bad[768..] {
            *v = 0.0;
        }
        assert_eq!(
            g.assess_slice(&tail_bad),
            Verdict::Artifact(ArtifactKind::Flatline)
        );
        assert_eq!(
            g.assess_slice(&[]),
            Verdict::Artifact(ArtifactKind::Flatline)
        );
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: Vec<&str> = ArtifactKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec!["flatline", "saturation", "spike_train", "drift"]
        );
    }

    #[test]
    fn custom_thresholds_are_honored() {
        // An absurdly strict flat_range turns ordinary EEG into flatline.
        let strict = QualityGate::new(GateThresholds {
            flat_range: 1_000.0,
            ..GateThresholds::default()
        });
        assert_eq!(
            strict.assess_second(&eeg_like()),
            Verdict::Artifact(ArtifactKind::Flatline)
        );
        assert_eq!(strict.thresholds().flat_range, 1_000.0);
    }
}
