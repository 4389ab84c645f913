use emap_dsp::SampleRate;
use emap_edf::Recording;

use crate::json::Value;
use crate::{RecordingFactory, SignalClass};

/// Declarative description of one synthetic dataset mirror: how many
/// recordings of which classes at which native sampling rate.
///
/// See [`crate::registry::standard_registry`] for the five mirrors standing
/// in for the corpora the paper combines.
///
/// # Example
///
/// ```
/// use emap_datasets::{DatasetSpec, SignalClass};
///
/// let spec = DatasetSpec::new("tiny", 256.0, 20.0)
///     .normal_recordings(3)
///     .anomaly_recordings(SignalClass::Seizure, 2);
/// let ds = spec.generate(1);
/// assert_eq!(ds.recordings().len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    id: String,
    native_rate_hz: f64,
    seconds_per_recording: f64,
    n_normal: usize,
    anomalies: Vec<(SignalClass, usize)>,
}

impl DatasetSpec {
    /// Creates an empty spec.
    ///
    /// # Panics
    ///
    /// Panics if `native_rate_hz` or `seconds_per_recording` is not
    /// positive.
    #[must_use]
    pub fn new(id: impl Into<String>, native_rate_hz: f64, seconds_per_recording: f64) -> Self {
        assert!(native_rate_hz > 0.0, "rate must be positive");
        assert!(seconds_per_recording > 0.0, "duration must be positive");
        DatasetSpec {
            id: id.into(),
            native_rate_hz,
            seconds_per_recording,
            n_normal: 0,
            anomalies: Vec::new(),
        }
    }

    /// Sets the number of normal recordings.
    #[must_use]
    pub fn normal_recordings(mut self, n: usize) -> Self {
        self.n_normal = n;
        self
    }

    /// Adds `n` whole-record anomalous recordings of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is [`SignalClass::Normal`].
    #[must_use]
    pub fn anomaly_recordings(mut self, class: SignalClass, n: usize) -> Self {
        assert!(class.is_anomaly(), "use normal_recordings for normals");
        self.anomalies.push((class, n));
        self
    }

    /// Dataset identifier.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Native sampling rate of the mirrored corpus.
    #[must_use]
    pub fn native_rate_hz(&self) -> f64 {
        self.native_rate_hz
    }

    /// Recording duration in seconds.
    #[must_use]
    pub fn seconds_per_recording(&self) -> f64 {
        self.seconds_per_recording
    }

    /// Total number of recordings this spec will generate.
    #[must_use]
    pub fn total_recordings(&self) -> usize {
        self.n_normal + self.anomalies.iter().map(|&(_, n)| n).sum::<usize>()
    }

    /// The spec as a JSON object: its five fields by name, `anomalies` as
    /// `[class, count]` pairs with the class spelled as its variant name.
    pub(crate) fn to_json(&self) -> Value {
        let anomalies = self.anomalies.iter().map(|&(class, n)| {
            Value::Array(vec![
                Value::String(format!("{class:?}")),
                Value::UInt(n as u64),
            ])
        });
        Value::object([
            ("id", Value::String(self.id.clone())),
            ("native_rate_hz", Value::Float(self.native_rate_hz)),
            (
                "seconds_per_recording",
                Value::Float(self.seconds_per_recording),
            ),
            ("n_normal", Value::UInt(self.n_normal as u64)),
            ("anomalies", Value::Array(anomalies.collect())),
        ])
    }

    /// Reads what [`DatasetSpec::to_json`] writes, checking everything the
    /// builder methods assert: a user file must fail with a message, not a
    /// panic.
    pub(crate) fn from_json(value: &Value) -> Result<Self, String> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| format!("dataset spec lacks `{name}`"))
        };
        let positive = |name: &str| match field(name)?.as_f64() {
            Some(v) if v > 0.0 => Ok(v),
            _ => Err(format!("`{name}` must be a positive number")),
        };
        let count = |v: &Value| v.as_u64().and_then(|n| usize::try_from(n).ok());
        let id = field("id")?.as_str().ok_or("`id` must be a string")?;
        let mut spec = DatasetSpec::new(
            id,
            positive("native_rate_hz")?,
            positive("seconds_per_recording")?,
        );
        spec.n_normal = count(field("n_normal")?).ok_or("`n_normal` must be a count")?;
        let anomalies = field("anomalies")?.as_array();
        for pair in anomalies.ok_or("`anomalies` must be an array")? {
            let (class, n) = match pair.as_array() {
                Some([class, n]) => (class.as_str(), count(n)),
                _ => (None, None),
            };
            let class = SignalClass::ANOMALIES
                .into_iter()
                .find(|c| class == Some(format!("{c:?}").as_str()));
            match (class, n) {
                (Some(class), Some(n)) => spec.anomalies.push((class, n)),
                _ => return Err("`anomalies` holds [anomaly class, count] pairs".into()),
            }
        }
        Ok(spec)
    }

    /// Generates the dataset deterministically under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the native rate fails [`SampleRate`] validation (excluded
    /// by the constructor's assertion).
    #[must_use]
    pub fn generate(&self, seed: u64) -> Dataset {
        let rate = SampleRate::new(self.native_rate_hz).expect("validated in constructor");
        let factory = RecordingFactory::with_rate(seed, rate);
        // Patterns are cycled deterministically (with a per-dataset phase)
        // so that a registry with ≥ PATTERNS_PER_CLASS recordings of a class
        // represents every pattern — the redundancy the paper's search
        // relies on.
        let phase = self.id.bytes().fold(0usize, |acc, b| {
            acc.wrapping_mul(31).wrapping_add(b as usize)
        });
        let mut recordings = Vec::with_capacity(self.total_recordings());
        for i in 0..self.n_normal {
            let id = format!("{}/normal-{i:04}", self.id);
            recordings.push(LabeledRecording {
                class: SignalClass::Normal,
                recording: factory.normal_recording_with_pattern(
                    &id,
                    self.seconds_per_recording,
                    phase + i,
                ),
            });
        }
        for &(class, n) in &self.anomalies {
            for i in 0..n {
                let id = format!("{}/{}-{i:04}", self.id, class.label());
                recordings.push(LabeledRecording {
                    class,
                    recording: factory.anomaly_recording_with_pattern(
                        class,
                        &id,
                        self.seconds_per_recording,
                        phase + i,
                    ),
                });
            }
        }
        Dataset {
            spec: self.clone(),
            recordings,
        }
    }
}

/// A recording together with its generating class (also recoverable from
/// the annotations; kept here for convenience).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledRecording {
    /// The generating signal class.
    pub class: SignalClass,
    /// The recording itself.
    pub recording: Recording,
}

/// A generated dataset: the spec it came from plus its recordings.
#[derive(Debug, Clone)]
pub struct Dataset {
    spec: DatasetSpec,
    recordings: Vec<LabeledRecording>,
}

impl Dataset {
    /// The generating spec.
    #[must_use]
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// All recordings with their class labels.
    #[must_use]
    pub fn recordings(&self) -> &[LabeledRecording] {
        &self.recordings
    }

    /// Iterates over recordings of one class.
    pub fn of_class(&self, class: SignalClass) -> impl Iterator<Item = &LabeledRecording> {
        self.recordings.iter().filter(move |r| r.class == class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DatasetSpec {
        DatasetSpec::new("t", 200.0, 18.0)
            .normal_recordings(4)
            .anomaly_recordings(SignalClass::Seizure, 3)
            .anomaly_recordings(SignalClass::Stroke, 2)
    }

    #[test]
    fn generates_declared_counts() {
        let ds = spec().generate(5);
        assert_eq!(ds.recordings().len(), 9);
        assert_eq!(ds.of_class(SignalClass::Normal).count(), 4);
        assert_eq!(ds.of_class(SignalClass::Seizure).count(), 3);
        assert_eq!(ds.of_class(SignalClass::Stroke).count(), 2);
        assert_eq!(ds.of_class(SignalClass::Encephalopathy).count(), 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = spec().generate(5);
        let b = spec().generate(5);
        assert_eq!(a.recordings(), b.recordings());
    }

    #[test]
    fn different_seed_different_data() {
        let a = spec().generate(5);
        let b = spec().generate(6);
        assert_ne!(a.recordings()[0].recording, b.recordings()[0].recording);
    }

    #[test]
    fn recordings_use_native_rate() {
        let ds = spec().generate(1);
        for r in ds.recordings() {
            assert_eq!(r.recording.channels()[0].rate().hz(), 200.0);
            assert_eq!(r.recording.channels()[0].len(), 3600); // 18 s × 200 Hz
        }
    }

    #[test]
    fn labels_match_annotations() {
        let ds = spec().generate(2);
        for r in ds.recordings() {
            assert_eq!(r.recording.annotations()[0].label(), r.class.label());
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = DatasetSpec::new("x", 0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "use normal_recordings")]
    fn normal_in_anomalies_rejected() {
        let _ = DatasetSpec::new("x", 256.0, 10.0).anomaly_recordings(SignalClass::Normal, 1);
    }

    #[test]
    fn total_recordings_counts() {
        assert_eq!(spec().total_recordings(), 9);
        assert_eq!(DatasetSpec::new("e", 256.0, 1.0).total_recordings(), 0);
    }
}
