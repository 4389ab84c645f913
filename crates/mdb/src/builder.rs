use emap_datasets::{Dataset, SignalClass};
use emap_dsp::fir::FirFilter;
use emap_dsp::resample::to_base_rate;
use emap_dsp::SampleRate;
use emap_edf::Recording;

use crate::{Mdb, MdbError, Provenance, SignalSet, SIGNAL_SET_LEN};

/// The spellings of a microvolt a channel's physical dimension may carry:
/// ASCII `u`, the micro sign and the Greek mu.
const MICROVOLTS: [&str; 3] = ["uV", "\u{b5}V", "\u{3bc}V"];

/// The MDB ingestion pipeline (§V-B): resample every channel to the 256 Hz
/// base rate, apply the same 100-tap 11–40 Hz bandpass the acquisition
/// stage uses ("all the signals in the dataset are also bandpass filtered to
/// ensure consistency"), slice into 1000-sample signal-sets, and label each
/// slice from the recording's annotations.
///
/// A slice is labeled with an anomaly class if its time window overlaps an
/// annotation carrying that class's label; otherwise it is labeled normal.
/// Trailing samples that do not fill a complete signal-set are discarded,
/// exactly like the paper's fixed-size slicing.
///
/// # Example
///
/// ```
/// use emap_datasets::RecordingFactory;
/// use emap_mdb::MdbBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let factory = RecordingFactory::new(3);
/// let rec = factory.normal_recording("r0", 24.0);
///
/// let mut builder = MdbBuilder::new();
/// builder.add_recording("my-dataset", &rec)?;
/// let mdb = builder.build();
/// // 24 s × 256 Hz = 6144 samples → 6 complete slices of 1000.
/// assert_eq!(mdb.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MdbBuilder {
    filter: FirFilter,
    sets: Vec<SignalSet>,
}

impl MdbBuilder {
    /// Creates a builder with the paper's bandpass filter.
    #[must_use]
    pub fn new() -> Self {
        MdbBuilder {
            filter: emap_dsp::emap_bandpass(),
            sets: Vec::new(),
        }
    }

    /// Number of signal-sets ingested so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether nothing has been ingested yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Ingests every channel of `recording` under the given dataset id, or
    /// none of them: a recording that fails adds no set.
    ///
    /// A signal-set holds whole microvolt counts, so a channel must be in
    /// microvolts: one in millivolts would round to zeros and one in
    /// nanovolts would overflow 16 bits.
    ///
    /// # Errors
    ///
    /// Returns [`MdbError::NotMicrovolts`] for a channel whose physical
    /// dimension is not microvolts, [`MdbError::SampleOutOfRange`] if a
    /// filtered sample does not fit a 16-bit count, and [`MdbError::Dsp`]
    /// if a channel's sampling rate cannot be resampled (never for valid
    /// rates).
    pub fn add_recording(
        &mut self,
        dataset_id: &str,
        recording: &Recording,
    ) -> Result<usize, MdbError> {
        if let Some(channel) = recording
            .channels()
            .iter()
            .find(|c| !MICROVOLTS.contains(&c.physical_dimension().trim()))
        {
            return Err(MdbError::NotMicrovolts {
                channel: channel.label().to_string(),
                unit: channel.physical_dimension().to_string(),
            });
        }
        let mut sets = Vec::new();
        for channel in recording.channels() {
            let resampled = to_base_rate(channel.samples(), channel.rate())?;
            let filtered = self.filter.filter(&resampled);
            let n_slices = filtered.len() / SIGNAL_SET_LEN;
            for k in 0..n_slices {
                let start = k * SIGNAL_SET_LEN;
                let from_s = start as f64 / SampleRate::EEG_BASE.hz();
                let to_s = (start + SIGNAL_SET_LEN) as f64 / SampleRate::EEG_BASE.hz();
                let class = slice_class(recording, from_s, to_s);
                let set = SignalSet::new(
                    filtered[start..start + SIGNAL_SET_LEN].to_vec(),
                    class,
                    Provenance {
                        dataset_id: dataset_id.to_string(),
                        recording_id: recording.patient_id().to_string(),
                        channel: channel.label().to_string(),
                        offset: start as u64,
                    },
                )?;
                sets.push(set);
            }
        }
        let added = sets.len();
        self.sets.append(&mut sets);
        Ok(added)
    }

    /// Ingests every recording of a generated [`Dataset`].
    ///
    /// # Errors
    ///
    /// Propagates [`MdbBuilder::add_recording`] errors.
    pub fn add_dataset(&mut self, dataset: &Dataset) -> Result<usize, MdbError> {
        let mut added = 0;
        for labeled in dataset.recordings() {
            added += self.add_recording(dataset.spec().id(), &labeled.recording)?;
        }
        Ok(added)
    }

    /// Ingests every `.emapedf` recording found in a directory (the layout
    /// [`emap_datasets::export::write_dataset_dir`] produces, or a
    /// hospital export), using the directory name as the dataset id.
    ///
    /// # Errors
    ///
    /// Returns [`MdbError::Io`] on filesystem failures and codec errors
    /// wrapped the same way.
    pub fn add_edf_dir(&mut self, dir: impl AsRef<std::path::Path>) -> Result<usize, MdbError> {
        let dir = dir.as_ref();
        let dataset_id = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "edf-dir".to_string());
        let recordings = emap_datasets::export::read_recording_dir(dir).map_err(|e| match e {
            emap_edf::EdfError::Io(io) => MdbError::Io(io),
            other => MdbError::Io(std::io::Error::other(other)),
        })?;
        let mut added = 0;
        for (_, rec) in recordings {
            added += self.add_recording(&dataset_id, &rec)?;
        }
        Ok(added)
    }

    /// Finalizes the mega-database.
    #[must_use]
    pub fn build(self) -> Mdb {
        Mdb::from_sets(self.sets)
    }
}

impl Default for MdbBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps an ingestion label to its [`SignalClass`], the validation every
/// label-carrying ingest path (CLI directories, the `emap-wire` `Ingest`
/// message an ingesting server decodes) funnels through.
///
/// # Errors
///
/// Returns [`MdbError::UnknownClassLabel`] for labels outside
/// [`SignalClass::from_label`]'s vocabulary — a typed rejection, never a
/// panic, so one malformed recording label cannot take down a server.
///
/// # Example
///
/// ```
/// use emap_datasets::SignalClass;
/// use emap_mdb::{class_from_label, MdbError};
///
/// assert_eq!(class_from_label("seizure").unwrap(), SignalClass::Seizure);
/// assert!(matches!(
///     class_from_label("sz-episode"),
///     Err(MdbError::UnknownClassLabel { .. })
/// ));
/// ```
pub fn class_from_label(label: &str) -> Result<SignalClass, MdbError> {
    SignalClass::from_label(label).ok_or_else(|| MdbError::UnknownClassLabel {
        label: label.to_string(),
    })
}

/// Labels the slice window `[from_s, to_s)` by the anomaly annotation that
/// overlaps it, if any. The preictal window is *not* an anomaly label: the
/// tracker is supposed to discover the buildup via correlation with ictal
/// slices, not via leaked ground truth.
fn slice_class(recording: &Recording, from_s: f64, to_s: f64) -> SignalClass {
    for ann in recording.annotations() {
        if let Some(class) = SignalClass::from_label(ann.label()) {
            if class.is_anomaly() && ann.overlaps(from_s, to_s) {
                return class;
            }
        }
    }
    SignalClass::Normal
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_datasets::{registry::standard_registry, RecordingFactory};
    use emap_edf::{Annotation, Channel};

    #[test]
    fn slices_have_fixed_length_and_count() {
        let factory = RecordingFactory::new(1);
        let rec = factory.normal_recording("r", 24.0);
        let mut b = MdbBuilder::new();
        let added = b.add_recording("d", &rec).unwrap();
        assert_eq!(added, 6); // 6144 / 1000 = 6, remainder discarded
        let mdb = b.build();
        for set in mdb.iter() {
            assert_eq!(set.samples().len(), SIGNAL_SET_LEN);
        }
    }

    #[test]
    fn resampling_preserves_slice_counts_across_rates() {
        // 24 s at any native rate is 6144 base-rate samples → 6 slices.
        for rate in [173.61, 200.0, 250.0, 512.0] {
            let factory = RecordingFactory::with_rate(1, SampleRate::new(rate).unwrap());
            let rec = factory.normal_recording("r", 24.0);
            let mut b = MdbBuilder::new();
            let added = b.add_recording("d", &rec).unwrap();
            assert_eq!(added, 6, "rate {rate}");
        }
    }

    #[test]
    fn anomaly_labels_follow_annotations() {
        let factory = RecordingFactory::new(2);
        let rec = factory.anomaly_recording(SignalClass::Stroke, "a", 20.0);
        let mut b = MdbBuilder::new();
        b.add_recording("d", &rec).unwrap();
        let mdb = b.build();
        assert!(!mdb.is_empty());
        for set in mdb.iter() {
            assert_eq!(set.class(), SignalClass::Stroke);
        }
    }

    #[test]
    fn seizure_recording_labels_only_ictal_slices() {
        let factory = RecordingFactory::new(2);
        // Onset at 200 s, 15 s of seizure → recording of 215 s.
        let rec = factory.seizure_recording("s", 200.0, 15.0);
        let mut b = MdbBuilder::new();
        b.add_recording("d", &rec).unwrap();
        let mdb = b.build();
        let mut seen_normal = 0;
        let mut seen_seizure = 0;
        for set in mdb.iter() {
            let from_s = set.provenance().start_s();
            // Only the annotated classes may appear; assert instead of a
            // `panic!` arm so a labeling bug reads as a test failure.
            assert!(
                matches!(set.class(), SignalClass::Seizure | SignalClass::Normal),
                "unexpected class {:?}",
                set.class()
            );
            if set.class() == SignalClass::Seizure {
                seen_seizure += 1;
                // Slice [from, from+3.90625) must overlap [200, 215).
                assert!(from_s + 1000.0 / 256.0 > 200.0 && from_s < 215.0);
            } else {
                seen_normal += 1;
            }
        }
        assert!(seen_normal > 0 && seen_seizure > 0);
    }

    #[test]
    fn preictal_annotation_is_not_anomalous() {
        let rate = SampleRate::EEG_BASE;
        let samples = vec![1.0f32; 4000];
        let rec = Recording::builder("p", "r")
            .channel(Channel::new("C3", rate, samples).unwrap())
            .annotation(Annotation::new(0.0, 15.0, "preictal").unwrap())
            .build()
            .unwrap();
        let mut b = MdbBuilder::new();
        b.add_recording("d", &rec).unwrap();
        for set in b.build().iter() {
            assert_eq!(set.class(), SignalClass::Normal);
        }
    }

    #[test]
    fn short_recording_yields_no_slices() {
        let factory = RecordingFactory::new(1);
        let rec = factory.normal_recording("tiny", 3.0); // 768 samples < 1000
        let mut b = MdbBuilder::new();
        assert_eq!(b.add_recording("d", &rec).unwrap(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn full_registry_builds_with_stats() {
        let mut b = MdbBuilder::new();
        for spec in standard_registry(1) {
            b.add_dataset(&spec.generate(7)).unwrap();
        }
        let mdb = b.build();
        let stats = mdb.stats();
        assert_eq!(stats.total, mdb.len());
        assert!(stats.normal > 0);
        assert!(stats.anomalous > 0);
        assert_eq!(stats.normal + stats.anomalous, stats.total);
        // All three anomaly classes must be represented.
        for class in SignalClass::ANOMALIES {
            assert!(
                stats.per_class.iter().any(|&(c, n)| c == class && n > 0),
                "{class:?} missing"
            );
        }
    }

    #[test]
    fn provenance_is_traceable() {
        let factory = RecordingFactory::new(1);
        let rec = factory.normal_recording("trace-me", 24.0);
        let mut b = MdbBuilder::new();
        b.add_recording("my-ds", &rec).unwrap();
        let mdb = b.build();
        let set = mdb.get(crate::SetId(3)).unwrap();
        assert_eq!(set.provenance().dataset_id, "my-ds");
        assert_eq!(set.provenance().recording_id, "trace-me");
        assert_eq!(set.provenance().offset, 3000);
    }

    #[test]
    fn ingests_an_exported_directory() {
        let dir = std::env::temp_dir().join(format!("emap-mdb-edfdir-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ds = emap_datasets::DatasetSpec::new("dirtest", 256.0, 12.0)
            .normal_recordings(1)
            .anomaly_recordings(SignalClass::Seizure, 1)
            .generate(5);
        emap_datasets::export::write_dataset_dir(&ds, &dir).unwrap();

        let mut b = MdbBuilder::new();
        let added = b.add_edf_dir(&dir).unwrap();
        assert_eq!(added, 2 * 3); // two 12 s recordings → 3 slices each
        let mdb = b.build();
        let stats = mdb.stats();
        assert_eq!(stats.per_dataset.len(), 1);
        assert!(stats.per_dataset[0].0.starts_with("emap-mdb-edfdir"));
        assert!(stats.anomalous > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A 20 Hz sine of `amplitude`, 8 s at the base rate: in the passband,
    /// so the filter keeps its amplitude.
    fn sine_uv(label: &str, amplitude: f32, pmax: f64, unit: &str) -> Channel {
        let samples = (0..2048)
            .map(|i| amplitude * (i as f32 * 20.0 * std::f32::consts::TAU / 256.0).sin())
            .collect();
        Channel::with_calibration(label, SampleRate::EEG_BASE, samples, -pmax, pmax, unit).unwrap()
    }

    /// A channel whose filtered samples pass 16 bits is a typed error,
    /// and the recording adds no set, not even its channels that fit.
    #[test]
    fn samples_past_16_bits_are_refused_and_add_nothing() {
        let rec = Recording::builder("p", "r")
            .channel(sine_uv("C3", 50.0, 500.0, "uV"))
            .channel(sine_uv("C4", 100_000.0, 1.0e6, "uV"))
            .build()
            .unwrap();
        let mut b = MdbBuilder::new();
        match b.add_recording("d", &rec) {
            Err(MdbError::SampleOutOfRange { value, .. }) => assert!(value.abs() > 32767.0),
            other => panic!("{other:?}"),
        }
        assert!(b.is_empty());
        let fits = Recording::builder("p", "r")
            .channel(sine_uv("C3", 50.0, 500.0, "uV"))
            .build()
            .unwrap();
        assert_eq!(b.add_recording("d", &fits).unwrap(), 2);
    }

    /// A channel in millivolts would round to zeros and one in nanovolts
    /// would overflow: both are refused by their unit, from a recording
    /// built here or read from an exported directory, and the micro
    /// sign's spellings are all microvolts.
    #[test]
    fn channels_not_in_microvolts_are_refused() {
        let mut b = MdbBuilder::new();
        for unit in ["mV", "nV", "V", ""] {
            let rec = Recording::builder("p", "r")
                .channel(sine_uv("C3", 0.05, 0.5, unit))
                .build()
                .unwrap();
            assert!(matches!(
                b.add_recording("d", &rec),
                Err(MdbError::NotMicrovolts { ref channel, unit: ref u }) if channel == "C3" && u == unit
            ));
        }
        assert!(b.is_empty());
        for unit in ["uV", "\u{b5}V", "\u{3bc}V"] {
            let rec = Recording::builder("p", "r")
                .channel(sine_uv("C3", 50.0, 500.0, unit))
                .build()
                .unwrap();
            assert_eq!(b.add_recording("d", &rec).unwrap(), 2, "{unit}");
        }

        let dir = std::env::temp_dir().join(format!("emap-mdb-mv-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Recording::builder("p", "r")
            .channel(sine_uv("C3", 0.05, 0.5, "mV"))
            .build()
            .unwrap()
            .write_to(std::fs::File::create(dir.join("0000-normal.emapedf")).unwrap())
            .unwrap();
        let mut b = MdbBuilder::new();
        assert!(matches!(
            b.add_edf_dir(&dir),
            Err(MdbError::NotMicrovolts { ref unit, .. }) if unit == "mV"
        ));
        assert!(b.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_edf_dir_is_io_error() {
        let mut b = MdbBuilder::new();
        assert!(matches!(
            b.add_edf_dir("/nonexistent/emap/dir"),
            Err(MdbError::Io(_))
        ));
    }

    #[test]
    fn class_labels_validate_as_typed_errors() {
        for class in SignalClass::ALL {
            assert_eq!(class_from_label(class.label()).unwrap(), class);
        }
        for bad in ["", "sz", "Seizure", "seizure "] {
            assert!(matches!(
                class_from_label(bad),
                Err(MdbError::UnknownClassLabel { ref label }) if label == bad
            ));
        }
    }

    #[test]
    fn default_builder_equals_new() {
        assert_eq!(MdbBuilder::default().len(), MdbBuilder::new().len());
    }
}
