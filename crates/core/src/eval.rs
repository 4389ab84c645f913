//! The accuracy-evaluation harness behind Table I and Fig. 10.
//!
//! §VI-B: "we have randomly constructed 5 batches of 20 input signals each
//! to estimate the accuracy of predicting each anomaly … The prediction
//! results presented are for two sequential cloud calls." This module
//! generates those input batches from the same pattern libraries the
//! mega-database was built from (different recordings, same signal
//! classes — the synthetic analogue of drawing patients from the same
//! population the corpora cover), runs each input through a fresh
//! [`EmapPipeline`], and classifies the resulting `P_A` trajectory.

use emap_datasets::{RecordingFactory, SignalClass};
use emap_edge::{AnomalyPredictor, Prediction};
use emap_mdb::Mdb;

use crate::{CloudService, EmapConfig, EmapError, EmapPipeline};

/// How a single input was generated and judged.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// The ground-truth class of the input.
    pub truth: SignalClass,
    /// The framework's verdict.
    pub prediction: Prediction,
    /// The final anomaly probability.
    pub final_pa: f64,
    /// Total rise of `P_A` over the run.
    pub pa_rise: f64,
    /// Cloud calls issued during the run.
    pub cloud_calls: usize,
}

impl CaseResult {
    /// Whether the verdict matches the ground truth.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.truth.is_anomaly() == self.prediction.is_anomaly()
    }
}

/// Results of one batch of inputs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchResult {
    /// Per-input outcomes.
    pub cases: Vec<CaseResult>,
}

impl BatchResult {
    /// Fraction of correct verdicts; `0.0` for an empty batch.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.cases.is_empty() {
            return 0.0;
        }
        self.cases.iter().filter(|c| c.is_correct()).count() as f64 / self.cases.len() as f64
    }

    /// Tallies this batch into a confusion matrix (batches can be merged
    /// by tallying several into the same matrix).
    pub fn tally_into(&self, matrix: &mut ConfusionMatrix) {
        for case in &self.cases {
            matrix.record(case.truth.is_anomaly(), case.prediction.is_anomaly());
        }
    }
}

/// Binary confusion matrix over anomaly-vs-normal verdicts, with the
/// clinical summary statistics the paper's §VI-B discussion uses
/// (sensitivity-first tuning, ~15 % false positives).
///
/// # Example
///
/// ```
/// use emap_core::eval::ConfusionMatrix;
///
/// let mut m = ConfusionMatrix::default();
/// m.record(true, true);   // hit
/// m.record(true, false);  // miss
/// m.record(false, false); // correct rejection
/// m.record(false, true);  // false alarm
/// assert_eq!(m.sensitivity(), 0.5);
/// assert_eq!(m.specificity(), 0.5);
/// assert_eq!(m.accuracy(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Anomalous inputs predicted anomalous.
    pub true_positives: u64,
    /// Normal inputs predicted anomalous (the paper's ~15 %).
    pub false_positives: u64,
    /// Normal inputs predicted normal.
    pub true_negatives: u64,
    /// Anomalous inputs predicted normal (missed events).
    pub false_negatives: u64,
}

impl ConfusionMatrix {
    /// Records one case.
    pub fn record(&mut self, truth_anomalous: bool, predicted_anomalous: bool) {
        match (truth_anomalous, predicted_anomalous) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Total cases recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// TP / (TP + FN); `0.0` with no anomalous cases.
    #[must_use]
    pub fn sensitivity(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_negatives,
        )
    }

    /// TN / (TN + FP); `0.0` with no normal cases.
    #[must_use]
    pub fn specificity(&self) -> f64 {
        ratio(
            self.true_negatives,
            self.true_negatives + self.false_positives,
        )
    }

    /// FP / (FP + TN) — the §VI-B false-positive rate; `0.0` with no
    /// normal cases.
    #[must_use]
    pub fn false_positive_rate(&self) -> f64 {
        ratio(
            self.false_positives,
            self.false_positives + self.true_negatives,
        )
    }

    /// (TP + TN) / total; `0.0` when empty.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        ratio(self.true_positives + self.true_negatives, self.total())
    }

    /// TP / (TP + FP); `0.0` with no positive predictions.
    #[must_use]
    pub fn precision(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives,
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Evaluation harness: a mega-database, an input generator sharing its
/// pattern libraries, and a pipeline.
///
/// # Example
///
/// ```no_run
/// use emap_core::eval::EvalHarness;
/// use emap_core::EmapConfig;
/// use emap_datasets::SignalClass;
///
/// # fn main() -> Result<(), emap_core::EmapError> {
/// let mut harness = EvalHarness::from_registry(EmapConfig::default(), 42, 2);
/// let batch = harness.evaluate_anomaly_batch(SignalClass::Seizure, "B1", 20, 15.0)?;
/// println!("seizure accuracy at 15 s horizon: {:.2}", batch.accuracy());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EvalHarness {
    factory: RecordingFactory,
    pipeline: EmapPipeline,
    predictor: AnomalyPredictor,
    /// Seconds of signal fed per input case.
    window_s: f64,
    /// Seizure-input onset position within its recording, seconds.
    onset_s: f64,
}

impl EvalHarness {
    /// Builds the harness over the standard five-dataset registry at the
    /// given scale (see
    /// [`emap_datasets::registry::standard_registry`]).
    #[must_use]
    pub fn from_registry(config: EmapConfig, seed: u64, registry_scale: usize) -> Self {
        let mut builder = emap_mdb::MdbBuilder::new();
        for spec in emap_datasets::registry::standard_registry(registry_scale) {
            builder
                .add_dataset(&spec.generate(seed))
                .expect("synthetic registry rates are valid");
        }
        Self::with_mdb(config, seed, builder.build())
    }

    /// Builds the harness over a pre-built mega-database. `seed` must match
    /// the seed the MDB recordings were generated with for inputs to share
    /// the pattern libraries.
    #[must_use]
    pub fn with_mdb(config: EmapConfig, seed: u64, mdb: Mdb) -> Self {
        EvalHarness {
            factory: RecordingFactory::new(seed),
            predictor: AnomalyPredictor::new(config.predictor())
                .expect("default predictor config is valid"),
            pipeline: EmapPipeline::new(config, mdb),
            window_s: 16.0,
            onset_s: 200.0,
        }
    }

    /// The in-process cloud serving the mega-database under evaluation.
    #[must_use]
    pub fn cloud(&self) -> &CloudService {
        self.pipeline.cloud()
    }

    /// Seconds of signal fed per case (default 16 — roughly two sequential
    /// cloud calls at the paper's cadence).
    #[must_use]
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// Contaminates every *input* this harness generates with artifacts
    /// (the mega-database stays as built) — the robustness ablation's
    /// scenario: a clean reference corpus queried by noisy field
    /// recordings.
    pub fn set_input_artifacts(&mut self, config: emap_datasets::artifacts::ArtifactConfig) {
        self.factory = self.factory.clone().with_artifacts(config);
    }

    /// Sets the per-case window length in seconds (min 4).
    pub fn set_window_s(&mut self, window_s: f64) {
        self.window_s = window_s.max(4.0);
    }

    /// Runs one raw input through a fresh pipeline and classifies it.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn classify(&mut self, truth: SignalClass, raw: &[f32]) -> Result<CaseResult, EmapError> {
        self.pipeline.reset();
        let trace = self.pipeline.run_on_samples(raw)?;
        let prediction = self.predictor.classify(&trace.pa_history);
        Ok(CaseResult {
            truth,
            prediction,
            final_pa: trace.pa_history.last(),
            pa_rise: trace.pa_history.rise(),
            cloud_calls: trace.cloud_calls,
        })
    }

    /// Generates and classifies one batch of anomalous inputs.
    ///
    /// For seizures, each input is the window of a seizure recording ending
    /// `horizon_s` seconds **before** the annotated onset (the
    /// prediction-horizon protocol of Fig. 10). For encephalopathy and
    /// stroke the whole-record labeling of §VI-B applies and the window is
    /// cut from an anomalous recording directly (`horizon_s` is ignored).
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    ///
    /// # Panics
    ///
    /// Panics if `class` is [`SignalClass::Normal`].
    pub fn evaluate_anomaly_batch(
        &mut self,
        class: SignalClass,
        batch_id: &str,
        n: usize,
        horizon_s: f64,
    ) -> Result<BatchResult, EmapError> {
        assert!(class.is_anomaly(), "use evaluate_normal_batch for normals");
        let mut cases = Vec::with_capacity(n);
        for i in 0..n {
            let raw = self.anomaly_input(class, batch_id, i, horizon_s);
            cases.push(self.classify(class, &raw)?);
        }
        Ok(BatchResult { cases })
    }

    /// Generates and classifies one batch of normal inputs; the complement
    /// of the returned accuracy is the false-positive rate (§VI-B reports
    /// ~15 %).
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn evaluate_normal_batch(
        &mut self,
        batch_id: &str,
        n: usize,
    ) -> Result<BatchResult, EmapError> {
        let mut cases = Vec::with_capacity(n);
        for i in 0..n {
            let rec = self
                .factory
                .normal_recording(&format!("eval/{batch_id}/normal-{i}"), self.window_s);
            cases.push(self.classify(SignalClass::Normal, rec.channels()[0].samples())?);
        }
        Ok(BatchResult { cases })
    }

    /// Builds the raw input window for one anomalous case.
    #[must_use]
    pub fn anomaly_input(
        &self,
        class: SignalClass,
        batch_id: &str,
        index: usize,
        horizon_s: f64,
    ) -> Vec<f32> {
        let id = format!("eval/{batch_id}/{}-{index}", class.label());
        match class {
            SignalClass::Seizure => {
                let rec = self.factory.seizure_recording(&id, self.onset_s, 10.0);
                let samples = rec.channels()[0].samples();
                let end = ((self.onset_s - horizon_s) * 256.0) as usize;
                let start = end.saturating_sub((self.window_s * 256.0) as usize);
                samples[start..end.min(samples.len())].to_vec()
            }
            _ => {
                let rec = self.factory.anomaly_recording(class, &id, self.window_s);
                rec.channels()[0].samples().to_vec()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_edge::EdgeConfig;

    fn harness() -> EvalHarness {
        let config = EmapConfig::default()
            .with_edge(EdgeConfig::default().with_h(10).unwrap())
            .with_cloud_latency_iterations(2);
        let mut h = EvalHarness::from_registry(config, 42, 1);
        h.set_window_s(12.0);
        h
    }

    #[test]
    fn case_correctness_logic() {
        let case = CaseResult {
            truth: SignalClass::Seizure,
            prediction: Prediction::Anomaly,
            final_pa: 0.9,
            pa_rise: 0.3,
            cloud_calls: 2,
        };
        assert!(case.is_correct());
        let miss = CaseResult {
            prediction: Prediction::Normal,
            ..case.clone()
        };
        assert!(!miss.is_correct());
    }

    #[test]
    fn empty_batch_accuracy_is_zero() {
        assert_eq!(BatchResult::default().accuracy(), 0.0);
    }

    #[test]
    fn confusion_matrix_statistics() {
        let mut m = ConfusionMatrix::default();
        for _ in 0..9 {
            m.record(true, true);
        }
        m.record(true, false);
        for _ in 0..17 {
            m.record(false, false);
        }
        for _ in 0..3 {
            m.record(false, true);
        }
        assert_eq!(m.total(), 30);
        assert!((m.sensitivity() - 0.9).abs() < 1e-12);
        assert!((m.specificity() - 0.85).abs() < 1e-12);
        assert!((m.false_positive_rate() - 0.15).abs() < 1e-12);
        assert!((m.precision() - 0.75).abs() < 1e-12);
        assert!((m.accuracy() - 26.0 / 30.0).abs() < 1e-12);
        // Degenerate cases stay defined.
        let empty = ConfusionMatrix::default();
        assert_eq!(empty.sensitivity(), 0.0);
        assert_eq!(empty.accuracy(), 0.0);
    }

    #[test]
    fn batches_tally_into_a_matrix() {
        let batch = BatchResult {
            cases: vec![
                CaseResult {
                    truth: SignalClass::Seizure,
                    prediction: Prediction::Anomaly,
                    final_pa: 1.0,
                    pa_rise: 0.0,
                    cloud_calls: 1,
                },
                CaseResult {
                    truth: SignalClass::Normal,
                    prediction: Prediction::Anomaly,
                    final_pa: 0.7,
                    pa_rise: 0.1,
                    cloud_calls: 1,
                },
            ],
        };
        let mut m = ConfusionMatrix::default();
        batch.tally_into(&mut m);
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.false_positives, 1);
        assert_eq!(m.total(), 2);
    }

    #[test]
    fn seizure_input_window_has_requested_length() {
        let h = harness();
        let raw = h.anomaly_input(SignalClass::Seizure, "B1", 0, 30.0);
        assert_eq!(raw.len(), 12 * 256);
    }

    #[test]
    fn whole_record_input_for_stroke() {
        let h = harness();
        let raw = h.anomaly_input(SignalClass::Stroke, "B1", 0, 30.0);
        assert_eq!(raw.len(), 12 * 256);
    }

    /// End-to-end smoke test: a small seizure batch at a short horizon
    /// should mostly be predicted, and a normal batch mostly not.
    #[test]
    fn seizure_batch_beats_normal_batch() {
        let mut h = harness();
        let seizure = h
            .evaluate_anomaly_batch(SignalClass::Seizure, "B1", 4, 15.0)
            .unwrap();
        let normal = h.evaluate_normal_batch("B1", 4).unwrap();
        let seizure_hits = seizure
            .cases
            .iter()
            .filter(|c| c.prediction.is_anomaly())
            .count();
        let normal_false = normal
            .cases
            .iter()
            .filter(|c| c.prediction.is_anomaly())
            .count();
        assert!(
            seizure_hits > normal_false,
            "seizure predicted {seizure_hits}/4 vs normal false alarms {normal_false}/4"
        );
    }

    #[test]
    #[should_panic(expected = "evaluate_normal_batch")]
    fn normal_class_rejected_in_anomaly_batch() {
        let mut h = harness();
        let _ = h.evaluate_anomaly_batch(SignalClass::Normal, "B1", 1, 15.0);
    }
}
