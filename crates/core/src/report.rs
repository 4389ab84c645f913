//! Session reports: one consolidated record of a monitoring
//! run — what a clinician (or a results archive) receives.

use std::fmt;

use emap_datasets::json::Value;
use emap_edge::{AnomalyPredictor, Prediction};
use emap_net::energy::DataExposure;

use crate::{EmapConfig, RunTrace};

/// Consolidated summary of one monitoring session.
///
/// # Example
///
/// ```
/// use emap_core::{EmapConfig, EmapPipeline, SessionReport};
/// use emap_datasets::RecordingFactory;
/// use emap_mdb::MdbBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let factory = RecordingFactory::new(7);
/// let mut builder = MdbBuilder::new();
/// builder.add_recording("d", &factory.normal_recording("r", 24.0))?;
/// let config = EmapConfig::default();
/// let mut pipeline = EmapPipeline::new(config, builder.build());
/// let patient = factory.normal_recording("p", 10.0);
/// let trace = pipeline.run_on_samples(patient.channels()[0].samples())?;
///
/// let report = SessionReport::from_trace(&config, &trace)?;
/// assert_eq!(report.monitored_seconds, 10);
/// println!("{report}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Seconds of signal processed.
    pub monitored_seconds: usize,
    /// Seconds rejected by the quality gate.
    pub quality_rejected_seconds: usize,
    /// Iterations with active tracking.
    pub tracked_iterations: usize,
    /// The classifier's verdict over the whole session.
    pub verdict: Prediction,
    /// Iteration at which the verdict first became anomalous (the alarm
    /// instant), if it ever did.
    pub first_alarm_iteration: Option<usize>,
    /// Final anomaly probability.
    pub final_pa: f64,
    /// Peak anomaly probability.
    pub peak_pa: f64,
    /// Total rise of `P_A`.
    pub pa_rise: f64,
    /// Cloud calls issued.
    pub cloud_calls: usize,
    /// Fresh correlation sets installed.
    pub refreshes: usize,
    /// Seconds whose due refresh found the cloud unreachable (the session
    /// kept tracking locally).
    pub degraded_seconds: usize,
    /// Fraction of the monitored signal transmitted to the cloud (the §I
    /// privacy metric).
    pub data_exposure: f64,
}

impl SessionReport {
    /// Builds the report by replaying the predictor over the trace.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EmapError::Edge`] if the configured predictor
    /// thresholds are invalid.
    pub fn from_trace(config: &EmapConfig, trace: &RunTrace) -> Result<Self, crate::EmapError> {
        let predictor = AnomalyPredictor::new(config.predictor())?;

        // Replay the probability series to find the first alarm instant.
        let mut replay = emap_edge::PaHistory::new();
        let mut first_alarm_iteration = None;
        for outcome in &trace.iterations {
            if let Some(p) = outcome.probability {
                replay.push(p);
                if first_alarm_iteration.is_none()
                    && predictor.classify(&replay) == Prediction::Anomaly
                {
                    first_alarm_iteration = Some(outcome.iteration);
                }
            }
        }

        let monitored_seconds = trace.iterations.len();
        let count = |flag: fn(&crate::IterationOutcome) -> bool| {
            trace.iterations.iter().filter(|o| flag(o)).count()
        };
        let peak_pa = trace
            .pa_history
            .values()
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        let exposure = DataExposure::new(trace.cloud_calls as f64, monitored_seconds as f64);

        Ok(SessionReport {
            monitored_seconds,
            quality_rejected_seconds: count(|o| o.quality_rejected),
            tracked_iterations: trace.pa_history.len(),
            verdict: predictor.classify(&trace.pa_history),
            first_alarm_iteration,
            final_pa: trace.pa_history.last(),
            peak_pa,
            pa_rise: trace.pa_history.rise(),
            cloud_calls: trace.cloud_calls,
            refreshes: count(|o| o.refresh_applied),
            degraded_seconds: count(|o| o.degraded),
            data_exposure: exposure.fraction(),
        })
    }

    /// The report as a JSON object, one member per field under the field's
    /// name (`verdict` as `"Normal"` / `"Anomaly"`, no alarm as `null`).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let count = |n: usize| Value::UInt(n as u64);
        Value::object([
            ("monitored_seconds", count(self.monitored_seconds)),
            (
                "quality_rejected_seconds",
                count(self.quality_rejected_seconds),
            ),
            ("tracked_iterations", count(self.tracked_iterations)),
            ("verdict", Value::String(format!("{:?}", self.verdict))),
            (
                "first_alarm_iteration",
                self.first_alarm_iteration.map_or(Value::Null, count),
            ),
            ("final_pa", Value::Float(self.final_pa)),
            ("peak_pa", Value::Float(self.peak_pa)),
            ("pa_rise", Value::Float(self.pa_rise)),
            ("cloud_calls", count(self.cloud_calls)),
            ("refreshes", count(self.refreshes)),
            ("degraded_seconds", count(self.degraded_seconds)),
            ("data_exposure", Value::Float(self.data_exposure)),
        ])
    }

    /// Alarm lead time before a known event onset (seconds into the
    /// monitored window), if the alarm fired before it.
    #[must_use]
    pub fn lead_time_s(&self, onset_iteration: usize) -> Option<f64> {
        self.first_alarm_iteration
            .filter(|&alarm| alarm <= onset_iteration)
            .map(|alarm| (onset_iteration - alarm) as f64)
    }
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "monitored {}s ({} rejected by quality gate), {} tracked iterations",
            self.monitored_seconds, self.quality_rejected_seconds, self.tracked_iterations
        )?;
        writeln!(
            f,
            "P_A: final {:.2}, peak {:.2}, rise {:+.2}; {} cloud calls ({:.0}% exposure)",
            self.final_pa,
            self.peak_pa,
            self.pa_rise,
            self.cloud_calls,
            self.data_exposure * 100.0
        )?;
        writeln!(
            f,
            "cloud refreshes: {}, degraded seconds: {}",
            self.refreshes, self.degraded_seconds
        )?;
        match (self.verdict, self.first_alarm_iteration) {
            (Prediction::Anomaly, Some(at)) => {
                write!(
                    f,
                    "verdict: ANOMALY (alarm first raised at t = {}s)",
                    at + 1
                )
            }
            (Prediction::Anomaly, None) => write!(f, "verdict: ANOMALY"),
            (Prediction::Normal, _) => write!(f, "verdict: normal"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmapPipeline;
    use emap_datasets::{RecordingFactory, SignalClass};

    fn setup() -> (EmapConfig, emap_mdb::Mdb, RecordingFactory) {
        let factory = RecordingFactory::new(14);
        let config = EmapConfig::default()
            .with_edge(emap_edge::EdgeConfig::default().with_h(3).expect("H > 0"))
            .with_cloud_latency_iterations(1);
        (config, crate::test_corpus(14, 2), factory)
    }

    #[test]
    fn anomalous_session_reports_an_alarm() {
        let (config, mdb, factory) = setup();
        let mut pipeline = EmapPipeline::new(config, mdb);
        let rec = factory.anomaly_recording(SignalClass::Seizure, "s0", 10.0);
        let trace = pipeline
            .run_on_samples(rec.channels()[0].samples())
            .expect("runs");
        let report = SessionReport::from_trace(&config, &trace).expect("valid config");
        assert_eq!(report.verdict, Prediction::Anomaly);
        assert!(report.first_alarm_iteration.is_some());
        assert!(report.peak_pa >= report.final_pa || report.peak_pa > 0.5);
        assert_eq!(report.monitored_seconds, 10);
        let text = report.to_string();
        assert!(text.contains("ANOMALY"));
    }

    #[test]
    fn normal_session_reports_no_alarm() {
        let (config, mdb, factory) = setup();
        let mut pipeline = EmapPipeline::new(config, mdb);
        let rec = factory.normal_recording("calm", 10.0);
        let trace = pipeline
            .run_on_samples(rec.channels()[0].samples())
            .expect("runs");
        let report = SessionReport::from_trace(&config, &trace).expect("valid config");
        assert_eq!(report.verdict, Prediction::Normal);
        assert_eq!(report.first_alarm_iteration, None);
        assert!(report.to_string().contains("normal"));
    }

    #[test]
    fn lead_time_computation() {
        let report = SessionReport {
            monitored_seconds: 60,
            quality_rejected_seconds: 0,
            tracked_iterations: 58,
            verdict: Prediction::Anomaly,
            first_alarm_iteration: Some(12),
            final_pa: 0.9,
            peak_pa: 1.0,
            pa_rise: 0.5,
            cloud_calls: 4,
            refreshes: 4,
            degraded_seconds: 0,
            data_exposure: 0.07,
        };
        assert_eq!(report.lead_time_s(40), Some(28.0));
        assert_eq!(report.lead_time_s(12), Some(0.0));
        assert_eq!(report.lead_time_s(5), None); // alarm after the onset
    }

    #[test]
    fn report_json_carries_every_field_under_its_name() {
        let mut report = SessionReport {
            monitored_seconds: 60,
            quality_rejected_seconds: 1,
            tracked_iterations: 58,
            verdict: Prediction::Anomaly,
            first_alarm_iteration: Some(12),
            final_pa: 0.9,
            peak_pa: 1.0,
            pa_rise: 0.5,
            cloud_calls: 4,
            refreshes: 3,
            degraded_seconds: 2,
            data_exposure: 0.07,
        };
        let back = emap_datasets::json::parse(&report.to_json().to_string()).expect("parses");
        let uint = |key: &str| back.get(key).and_then(Value::as_u64);
        let float = |key: &str| back.get(key).and_then(Value::as_f64);
        assert_eq!(uint("monitored_seconds"), Some(60));
        assert_eq!(uint("quality_rejected_seconds"), Some(1));
        assert_eq!(uint("tracked_iterations"), Some(58));
        assert_eq!(back.get("verdict").and_then(Value::as_str), Some("Anomaly"));
        assert_eq!(uint("first_alarm_iteration"), Some(12));
        assert_eq!(float("final_pa"), Some(0.9));
        assert_eq!(float("peak_pa"), Some(1.0));
        assert_eq!(float("pa_rise"), Some(0.5));
        assert_eq!(uint("cloud_calls"), Some(4));
        assert_eq!(uint("refreshes"), Some(3));
        assert_eq!(uint("degraded_seconds"), Some(2));
        assert_eq!(float("data_exposure"), Some(0.07));
        report.first_alarm_iteration = None;
        assert_eq!(
            report.to_json().get("first_alarm_iteration"),
            Some(&Value::Null)
        );
    }
}
