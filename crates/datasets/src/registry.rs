//! The five dataset mirrors standing in for the corpora the paper combines
//! into its mega-database (§V-B, refs \[21\]–\[25\]).
//!
//! Each mirror keeps the native sampling rate and the broad class mix of the
//! original corpus; sizes are scaled by a single factor so tests can run on
//! a small registry and benchmarks on a large one.

use std::path::Path;

use crate::json::{self, Value};
use crate::{DatasetSpec, SignalClass};

/// Scale factor for registry sizes. `scale = 1` yields a small,
/// test-friendly corpus (~40 recordings); Fig. 7b benchmarks use larger
/// scales to reach thousands of signal-sets.
///
/// # Example
///
/// ```
/// let specs = emap_datasets::registry::standard_registry(1);
/// assert_eq!(specs.len(), 5);
/// let total: usize = specs.iter().map(|s| s.total_recordings()).sum();
/// assert!(total > 30);
/// ```
#[must_use]
pub fn standard_registry(scale: usize) -> Vec<DatasetSpec> {
    let scale = scale.max(1);
    let n = |base: usize| base * scale;
    vec![
        // PhysioNet CHB-MIT mirror: scalp EEG at 256 Hz, seizure-rich.
        DatasetSpec::new("physionet-mirror", 256.0, 24.0)
            .normal_recordings(n(6))
            .anomaly_recordings(SignalClass::Seizure, n(6)),
        // TUH EEG corpus mirror: clinical EEG at 250 Hz, diverse pathology.
        DatasetSpec::new("tuh-mirror", 250.0, 24.0)
            .normal_recordings(n(5))
            .anomaly_recordings(SignalClass::Seizure, n(2))
            .anomaly_recordings(SignalClass::Encephalopathy, n(6)),
        // UCI epileptic-seizure mirror: Bonn-style 173.61 Hz short segments.
        DatasetSpec::new("uci-mirror", 173.61, 20.0)
            .normal_recordings(n(4))
            .anomaly_recordings(SignalClass::Seizure, n(3)),
        // BNCI Horizon 2020 mirror: healthy BCI subjects at 512 Hz.
        DatasetSpec::new("bnci-mirror", 512.0, 24.0).normal_recordings(n(6)),
        // Zwoliński epilepsy DB mirror: 200 Hz, epilepsy plus the
        // vascular-pathology recordings we label as stroke.
        DatasetSpec::new("zwolinski-mirror", 200.0, 24.0)
            .normal_recordings(n(3))
            .anomaly_recordings(SignalClass::Seizure, n(2))
            .anomaly_recordings(SignalClass::Stroke, n(6)),
    ]
}

/// Serializes dataset specs to a JSON file, so corpora can be versioned as
/// configuration rather than code.
///
/// # Errors
///
/// Returns [`std::io::Error`] on filesystem failures.
pub fn save_specs(specs: &[DatasetSpec], path: impl AsRef<Path>) -> std::io::Result<()> {
    let doc = Value::Array(specs.iter().map(DatasetSpec::to_json).collect());
    std::fs::write(path, doc.to_string())
}

/// Loads dataset specs previously written by [`save_specs`] (or authored
/// by hand).
///
/// # Errors
///
/// Returns [`std::io::Error`] on filesystem failures, malformed JSON, or a
/// spec no constructor would accept (a non-positive rate or duration, a
/// normal class listed as an anomaly).
pub fn load_specs(path: impl AsRef<Path>) -> std::io::Result<Vec<DatasetSpec>> {
    let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let text = std::fs::read_to_string(path)?;
    let doc = json::parse(&text).map_err(|e| invalid(e.to_string()))?;
    let specs = doc.as_array();
    specs
        .ok_or_else(|| invalid("expected an array of dataset specs".into()))?
        .iter()
        .map(|spec| DatasetSpec::from_json(spec).map_err(invalid))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_five_datasets_with_distinct_ids_and_rates() {
        let specs = standard_registry(1);
        assert_eq!(specs.len(), 5);
        let mut ids: Vec<&str> = specs.iter().map(DatasetSpec::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
        let mut rates: Vec<u64> = specs
            .iter()
            .map(|s| (s.native_rate_hz() * 100.0) as u64)
            .collect();
        rates.sort_unstable();
        rates.dedup();
        assert_eq!(rates.len(), 5, "each mirror has a distinct native rate");
    }

    #[test]
    fn covers_all_anomaly_classes() {
        let specs = standard_registry(1);
        for class in SignalClass::ANOMALIES {
            let covered = specs
                .iter()
                .any(|s| s.clone().generate(1).of_class(class).next().is_some());
            assert!(covered, "{class:?} missing from registry");
        }
    }

    #[test]
    fn scale_multiplies_counts() {
        let s1: usize = standard_registry(1)
            .iter()
            .map(DatasetSpec::total_recordings)
            .sum();
        let s3: usize = standard_registry(3)
            .iter()
            .map(DatasetSpec::total_recordings)
            .sum();
        assert_eq!(s3, 3 * s1);
    }

    #[test]
    fn specs_roundtrip_through_json_file() {
        let path = std::env::temp_dir().join(format!("emap-registry-{}.json", std::process::id()));
        let specs = standard_registry(2);
        save_specs(&specs, &path).unwrap();
        let loaded = load_specs(&path).unwrap();
        assert_eq!(loaded, specs);
        // And a loaded spec still generates the same corpus.
        let a = specs[0].generate(5);
        let b = loaded[0].generate(5);
        assert_eq!(a.recordings(), b.recordings());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_specs_reports_malformed_json() {
        let path =
            std::env::temp_dir().join(format!("emap-registry-bad-{}.json", std::process::id()));
        std::fs::write(&path, "{not json").unwrap();
        assert!(load_specs(&path).is_err());
        assert!(load_specs("/nonexistent/specs.json").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_specs_rejects_what_the_constructors_would_panic_on() {
        let path =
            std::env::temp_dir().join(format!("emap-registry-inv-{}.json", std::process::id()));
        let spec = |rate: &str, seconds: &str, n: &str, anomalies: &str| {
            format!(
                "[{{\"id\": \"x\", \"native_rate_hz\": {rate}, \"seconds_per_recording\": \
                 {seconds}, \"n_normal\": {n}, \"anomalies\": {anomalies}}}]"
            )
        };
        // A hand-authored file may spell a whole-number rate without a fraction.
        std::fs::write(&path, spec("256", "8.5", "2", "[[\"Stroke\", 1]]")).unwrap();
        let loaded = load_specs(&path).unwrap();
        let expected = DatasetSpec::new("x", 256.0, 8.5)
            .normal_recordings(2)
            .anomaly_recordings(SignalClass::Stroke, 1);
        assert_eq!(loaded, [expected]);
        for bad in [
            spec("0", "8", "2", "[]"),
            spec("-256.0", "8", "2", "[]"),
            spec("256", "0.0", "2", "[]"),
            spec("256", "-1", "2", "[]"),
            spec("\"256\"", "8", "2", "[]"),
            spec("256", "8", "-2", "[]"),
            spec("256", "8", "2.5", "[]"),
            spec("256", "8", "2", "[[\"Normal\", 1]]"),
            spec("256", "8", "2", "[[\"Seizure\"]]"),
            spec("256", "8", "2", "[[\"seizure\", 1]]"),
            spec("256", "8", "2", "{}"),
            "[{\"id\": \"x\"}]".to_string(),
            "{}".to_string(),
        ] {
            std::fs::write(&path, &bad).unwrap();
            let err = load_specs(&path).expect_err(&bad);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{bad}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_scale_clamps_to_one() {
        let s0: usize = standard_registry(0)
            .iter()
            .map(DatasetSpec::total_recordings)
            .sum();
        let s1: usize = standard_registry(1)
            .iter()
            .map(DatasetSpec::total_recordings)
            .sum();
        assert_eq!(s0, s1);
    }
}
