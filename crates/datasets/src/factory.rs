use emap_dsp::rng::SeededRng;
use emap_dsp::SampleRate;
use emap_edf::{Annotation, Channel, Recording};

use crate::artifacts::{self, ArtifactConfig};
use crate::pattern::PERIOD_S;
use crate::synth::{self, SynthParams};
use crate::{PatternLibrary, SignalClass};

/// Label used for the preictal buildup window in seizure recordings.
pub const PREICTAL_LABEL: &str = "preictal";

/// Label used for injected artifact spans.
pub const ARTIFACT_LABEL: &str = "artifact";

/// Electrode labels used for multi-channel recordings, 10–20 system names.
pub const MONTAGE: [&str; 8] = [
    "EEG C3", "EEG C4", "EEG O1", "EEG O2", "EEG F3", "EEG F4", "EEG T3", "EEG T4",
];

/// Duration of the preictal buildup in seizure recordings, seconds. Fig. 10
/// evaluates prediction up to 120 s before onset; the buildup must span that
/// horizon for the longest-horizon predictions to have any signal to find.
pub const PREICTAL_SECONDS: f64 = 150.0;

/// Builds labeled [`Recording`]s from the per-class pattern libraries.
///
/// All output is deterministic in `(seed, recording id, method arguments)` —
/// the id string is hashed into the per-recording RNG stream.
///
/// # Example
///
/// ```
/// use emap_datasets::{RecordingFactory, SignalClass};
///
/// let f = RecordingFactory::new(1);
/// let a = f.normal_recording("rec-1", 20.0);
/// let b = f.normal_recording("rec-1", 20.0);
/// let c = f.normal_recording("rec-2", 20.0);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone)]
pub struct RecordingFactory {
    seed: u64,
    libraries: [PatternLibrary; 4],
    rate: SampleRate,
    artifacts: Option<ArtifactConfig>,
    channels: usize,
}

impl RecordingFactory {
    /// Creates a factory generating at the EMAP base rate (256 Hz).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_rate(seed, SampleRate::EEG_BASE)
    }

    /// Creates a factory generating at an arbitrary native rate (used by the
    /// dataset mirrors whose sources were not recorded at 256 Hz).
    #[must_use]
    pub fn with_rate(seed: u64, rate: SampleRate) -> Self {
        RecordingFactory {
            seed,
            libraries: [
                PatternLibrary::new(SignalClass::Normal, seed),
                PatternLibrary::new(SignalClass::Seizure, seed),
                PatternLibrary::new(SignalClass::Encephalopathy, seed),
                PatternLibrary::new(SignalClass::Stroke, seed),
            ],
            rate,
            artifacts: None,
            channels: 1,
        }
    }

    /// Sets the number of channels per recording (clamped to the montage
    /// size). Channels share the class pattern with per-channel gain and
    /// independent sensor noise; for the stroke class the even-indexed
    /// channels are focally attenuated, modeling the affected hemisphere.
    #[must_use]
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels.clamp(1, MONTAGE.len());
        self
    }

    /// Enables artifact injection for every recording this factory
    /// produces. Injected spans are annotated with [`ARTIFACT_LABEL`].
    #[must_use]
    pub fn with_artifacts(mut self, config: ArtifactConfig) -> Self {
        self.artifacts = Some(config);
        self
    }

    /// Applies the factory's artifact configuration (if any) to freshly
    /// synthesized samples, returning the annotations to attach.
    fn contaminate(
        &self,
        samples: Vec<f32>,
        seconds: f64,
        seed: u64,
    ) -> (Vec<f32>, Vec<Annotation>) {
        match &self.artifacts {
            None => (samples, Vec::new()),
            Some(cfg) => {
                let (dirty, spans) =
                    artifacts::inject(&samples, self.rate.hz(), seconds, cfg, seed);
                let anns = spans
                    .iter()
                    .map(|s| {
                        Annotation::new(s.onset_s, s.duration_s, ARTIFACT_LABEL)
                            .expect("spans are validated non-negative")
                    })
                    .collect();
                (dirty, anns)
            }
        }
    }

    /// The sampling rate recordings are generated at.
    #[must_use]
    pub fn rate(&self) -> SampleRate {
        self.rate
    }

    /// The pattern library for `class`.
    #[must_use]
    pub fn library(&self, class: SignalClass) -> &PatternLibrary {
        match class {
            SignalClass::Normal => &self.libraries[0],
            SignalClass::Seizure => &self.libraries[1],
            SignalClass::Encephalopathy => &self.libraries[2],
            SignalClass::Stroke => &self.libraries[3],
        }
    }

    fn rng_for(&self, id: &str, salt: u64) -> SeededRng {
        // FNV-1a over the id, mixed with the factory seed and a method salt.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in id.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SeededRng::seed_from_u64(h ^ self.seed.rotate_left(17) ^ salt)
    }

    /// Pattern-time of the first sample: random but aligned to the 256 Hz
    /// *base-rate* grid (not the native grid), so that after resampling to
    /// the base rate, windows of two recordings of the same pattern align
    /// exactly under integer-offset sliding search.
    fn draw_t0(&self, rng: &mut SeededRng) -> f64 {
        let base_hz = SampleRate::EEG_BASE.hz();
        let grid = (PERIOD_S * base_hz).round() as usize;
        rng.index(grid) as f64 / base_hz
    }

    /// A purely normal recording of `seconds` seconds, annotated `normal`
    /// over its whole extent. The waveform pattern is drawn from the id.
    #[must_use]
    pub fn normal_recording(&self, id: &str, seconds: f64) -> Recording {
        self.single_class_recording(SignalClass::Normal, id, seconds, None)
    }

    /// Like [`RecordingFactory::normal_recording`] but with an explicit
    /// pattern index (wrapped modulo the library size). Dataset generation
    /// uses this to guarantee every pattern is represented in the
    /// mega-database.
    #[must_use]
    pub fn normal_recording_with_pattern(
        &self,
        id: &str,
        seconds: f64,
        pattern: usize,
    ) -> Recording {
        self.single_class_recording(SignalClass::Normal, id, seconds, Some(pattern))
    }

    /// A whole-record anomalous recording — the labeling the paper uses for
    /// encephalopathy and stroke ("we have annotated the complete signal as
    /// an anomaly", §VI-B), and for purely ictal seizure segments.
    ///
    /// # Panics
    ///
    /// Panics if `class` is [`SignalClass::Normal`]; use
    /// [`RecordingFactory::normal_recording`] for that.
    #[must_use]
    pub fn anomaly_recording(&self, class: SignalClass, id: &str, seconds: f64) -> Recording {
        assert!(
            class.is_anomaly(),
            "use normal_recording for the normal class"
        );
        self.single_class_recording(class, id, seconds, None)
    }

    /// Like [`RecordingFactory::anomaly_recording`] but with an explicit
    /// pattern index (wrapped modulo the library size).
    ///
    /// # Panics
    ///
    /// Panics if `class` is [`SignalClass::Normal`].
    #[must_use]
    pub fn anomaly_recording_with_pattern(
        &self,
        class: SignalClass,
        id: &str,
        seconds: f64,
        pattern: usize,
    ) -> Recording {
        assert!(
            class.is_anomaly(),
            "use normal_recording for the normal class"
        );
        self.single_class_recording(class, id, seconds, Some(pattern))
    }

    fn single_class_recording(
        &self,
        class: SignalClass,
        id: &str,
        seconds: f64,
        pattern: Option<usize>,
    ) -> Recording {
        let mut rng = self.rng_for(id, class.seed_tag());
        let lib = self.library(class);
        let drawn = rng.index(lib.len());
        let pattern = lib.pattern(pattern.unwrap_or(drawn));
        let n = self.rate.samples_for(seconds);
        let t0_s = self.draw_t0(&mut rng);
        let base_gain = synth::draw_gain(&mut rng);
        let mut builder = Recording::builder(id, format!("{class}-synthetic")).annotation(
            Annotation::new(0.0, seconds, class.label())
                .expect("non-negative synthetic annotation"),
        );
        let mut artifact_anns = Vec::new();
        for (ch, label) in MONTAGE.iter().enumerate().take(self.channels) {
            let gain = base_gain * self.channel_gain(class, ch, &mut rng);
            let params = SynthParams {
                rate_hz: self.rate.hz(),
                t0_s,
                n_samples: n,
                noise_fraction: synth::noise_fraction(class),
                gain,
            };
            let samples = synth::synthesize(pattern, params, rng.u64());
            let (samples, anns) = self.contaminate(samples, seconds, rng.u64());
            if ch == 0 {
                artifact_anns = anns;
            }
            builder = builder.channel(
                Channel::new(*label, self.rate, samples)
                    .expect("generated recordings are non-empty"),
            );
        }
        for a in artifact_anns {
            builder = builder.annotation(a);
        }
        builder.build().expect("one channel is always present")
    }

    /// Per-channel gain: the reference channel is unity; the rest vary
    /// mildly, except stroke's even channels, which are focally attenuated.
    fn channel_gain(&self, class: SignalClass, channel: usize, rng: &mut SeededRng) -> f64 {
        if channel == 0 {
            return 1.0;
        }
        let spatial = rng.range_f64(0.75..1.0);
        if class == SignalClass::Stroke && channel.is_multiple_of(2) {
            spatial * rng.range_f64(0.35..0.55)
        } else {
            spatial
        }
    }

    /// A seizure recording: normal background blending into a preictal
    /// buildup and a full ictal discharge at `onset_s`, lasting `ictal_s`.
    ///
    /// Annotations: `preictal` covering the buildup window and `seizure`
    /// covering the ictal window. The recording length is
    /// `onset_s + ictal_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `onset_s` or `ictal_s` is not positive.
    #[must_use]
    pub fn seizure_recording(&self, id: &str, onset_s: f64, ictal_s: f64) -> Recording {
        assert!(
            onset_s > 0.0 && ictal_s > 0.0,
            "onset and ictal durations must be positive"
        );
        let mut rng = self.rng_for(id, 0x5a5a_1111);
        let normal_lib = self.library(SignalClass::Normal);
        let seizure_lib = self.library(SignalClass::Seizure);
        let normal = normal_lib.pattern(rng.index(normal_lib.len()));
        let seizure = seizure_lib.pattern(rng.index(seizure_lib.len()));
        let seconds = onset_s + ictal_s;
        let params = SynthParams {
            rate_hz: self.rate.hz(),
            t0_s: self.draw_t0(&mut rng),
            n_samples: self.rate.samples_for(seconds),
            noise_fraction: synth::noise_fraction(SignalClass::Seizure),
            gain: synth::draw_gain(&mut rng),
        };
        // The blend operates on *recording* time; shift by t0 so the onset
        // lands at `onset_s` into the recording regardless of pattern phase.
        let samples = synth::synthesize_seizure_transition(
            normal,
            seizure,
            params,
            params.t0_s + onset_s,
            PREICTAL_SECONDS.min(onset_s),
            rng.u64(),
        );
        let (samples, artifact_anns) = self.contaminate(samples, seconds, rng.u64());
        let channel =
            Channel::new("EEG C3", self.rate, samples).expect("generated recordings are non-empty");
        let preictal_len = PREICTAL_SECONDS.min(onset_s);
        let mut builder = Recording::builder(id, "seizure-transition-synthetic")
            .channel(channel)
            .annotation(
                Annotation::new(onset_s - preictal_len, preictal_len, PREICTAL_LABEL)
                    .expect("valid preictal window"),
            )
            .annotation(
                Annotation::new(onset_s, ictal_s, SignalClass::Seizure.label())
                    .expect("valid seizure window"),
            );
        for a in artifact_anns {
            builder = builder.annotation(a);
        }
        builder.build().expect("one channel is always present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_id() {
        let f = RecordingFactory::new(7);
        assert_eq!(f.normal_recording("a", 20.0), f.normal_recording("a", 20.0));
        assert_ne!(f.normal_recording("a", 20.0), f.normal_recording("b", 20.0));
    }

    #[test]
    fn different_factory_seeds_differ() {
        let a = RecordingFactory::new(1).normal_recording("x", 20.0);
        let b = RecordingFactory::new(2).normal_recording("x", 20.0);
        assert_ne!(a, b);
    }

    #[test]
    fn normal_recording_is_fully_annotated_normal() {
        let f = RecordingFactory::new(3);
        let r = f.normal_recording("n1", 24.0);
        assert_eq!(r.annotations().len(), 1);
        let a = &r.annotations()[0];
        assert_eq!(a.label(), "normal");
        assert_eq!(a.onset_s(), 0.0);
        assert!((a.duration_s() - 24.0).abs() < 1e-9);
        assert_eq!(r.channels()[0].len(), 256 * 24);
    }

    #[test]
    fn anomaly_recording_covers_whole_record() {
        let f = RecordingFactory::new(3);
        for class in SignalClass::ANOMALIES {
            let r = f.anomaly_recording(class, "a1", 20.0);
            assert_eq!(r.annotations()[0].label(), class.label());
            assert!((r.annotations()[0].duration_s() - 20.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "normal_recording")]
    fn anomaly_recording_rejects_normal_class() {
        let f = RecordingFactory::new(3);
        let _ = f.anomaly_recording(SignalClass::Normal, "x", 10.0);
    }

    #[test]
    fn seizure_recording_annotations() {
        let f = RecordingFactory::new(9);
        let r = f.seizure_recording("s1", 200.0, 15.0);
        let sz: Vec<_> = r.annotations_labeled("seizure").collect();
        assert_eq!(sz.len(), 1);
        assert_eq!(sz[0].onset_s(), 200.0);
        assert_eq!(sz[0].duration_s(), 15.0);
        let pre: Vec<_> = r.annotations_labeled(PREICTAL_LABEL).collect();
        assert_eq!(pre.len(), 1);
        assert!((pre[0].end_s() - 200.0).abs() < 1e-9);
        assert!((pre[0].duration_s() - PREICTAL_SECONDS).abs() < 1e-9);
        assert!((r.duration_s() - 215.0).abs() < 1e-6);
    }

    #[test]
    fn short_onset_clamps_preictal() {
        let f = RecordingFactory::new(9);
        let r = f.seizure_recording("s2", 30.0, 5.0);
        let pre: Vec<_> = r.annotations_labeled(PREICTAL_LABEL).collect();
        assert!((pre[0].duration_s() - 30.0).abs() < 1e-9);
        assert_eq!(pre[0].onset_s(), 0.0);
    }

    #[test]
    fn multichannel_recordings() {
        let f = RecordingFactory::new(4).with_channels(4);
        let r = f.normal_recording("mc", 10.0);
        assert_eq!(r.channels().len(), 4);
        let labels: Vec<&str> = r.channels().iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["EEG C3", "EEG C4", "EEG O1", "EEG O2"]);
        // Channels differ (independent noise + gains) but share length.
        assert_ne!(r.channels()[0].samples(), r.channels()[1].samples());
        assert_eq!(r.channels()[0].len(), r.channels()[3].len());
    }

    #[test]
    fn channel_count_clamped_to_montage() {
        let f = RecordingFactory::new(4).with_channels(100);
        let r = f.normal_recording("mc", 4.0);
        assert_eq!(r.channels().len(), MONTAGE.len());
        let z = RecordingFactory::new(4).with_channels(0);
        assert_eq!(z.normal_recording("mc", 4.0).channels().len(), 1);
    }

    #[test]
    fn stroke_recordings_are_focally_attenuated() {
        use emap_dsp::stats::rms;
        let f = RecordingFactory::new(4).with_channels(4);
        let r = f.anomaly_recording(SignalClass::Stroke, "focal", 16.0);
        // Even channels (other than the reference) are attenuated vs odd.
        let rms2 = rms(r.channels()[2].samples());
        let rms1 = rms(r.channels()[1].samples());
        assert!(
            rms2 < 0.8 * rms1,
            "expected focal attenuation: ch2 rms {rms2} vs ch1 rms {rms1}"
        );
    }

    #[test]
    fn custom_rate_changes_sample_count() {
        let rate = SampleRate::new(512.0).unwrap();
        let f = RecordingFactory::with_rate(1, rate);
        assert_eq!(f.rate(), rate);
        let r = f.normal_recording("n", 10.0);
        assert_eq!(r.channels()[0].len(), 5120);
        assert_eq!(r.channels()[0].rate(), rate);
    }

    /// Two recordings of the same class share a pattern often enough (12
    /// patterns) that at least one pair among a handful is highly
    /// correlated once aligned — smoke-check of the redundancy property the
    /// MDB search relies on.
    #[test]
    fn same_pattern_recordings_correlate_when_aligned() {
        use emap_dsp::similarity::normalized_cross_correlation;
        let f = RecordingFactory::new(21);
        // Force the same pattern by hunting for two ids that pick pattern 0.
        let lib = f.library(SignalClass::Seizure);
        let base = lib.pattern(0);
        let params = |t0: f64| SynthParams {
            rate_hz: 256.0,
            t0_s: t0,
            n_samples: 256,
            noise_fraction: 0.15,
            gain: 1.0,
        };
        let input = synth::synthesize(base, params(3.0), 1);
        let host = synth::synthesize(
            base,
            SynthParams {
                n_samples: 256 * 16,
                t0_s: 0.0,
                ..params(0.0)
            },
            2,
        );
        let best = host
            .windows(input.len())
            .map(|window| normalized_cross_correlation(&input, window).unwrap())
            .fold(f64::MIN, f64::max);
        assert!(best > 0.85, "best aligned correlation {best}");
    }
}
