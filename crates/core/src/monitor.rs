//! Online monitoring API: push samples as they arrive, receive events.
//!
//! [`EmapPipeline`] consumes whole one-second windows; real acquisition
//! hardware delivers sample bursts of arbitrary size. [`StreamingMonitor`]
//! buffers pushed samples into exact one-second windows, drives the
//! pipeline, runs the anomaly predictor continuously, and emits
//! [`MonitorEvent`]s — including edge-triggered alarms when the verdict
//! flips.

use emap_edge::{AnomalyPredictor, Prediction};
use emap_mdb::Mdb;

use crate::{EmapConfig, EmapError, EmapPipeline, IterationOutcome};

/// Events produced by the monitor.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorEvent {
    /// One tracking iteration completed.
    Iteration(IterationOutcome),
    /// The verdict flipped from normal to anomalous — raise the alarm.
    AlarmRaised {
        /// Iteration at which the alarm fired.
        iteration: usize,
        /// The anomaly probability at that moment.
        probability: f64,
    },
    /// The verdict flipped back to normal.
    AlarmCleared {
        /// Iteration at which the alarm cleared.
        iteration: usize,
    },
}

/// A push-based wrapper around the EMAP pipeline.
///
/// # Example
///
/// ```
/// use emap_core::{EmapConfig, StreamingMonitor};
/// use emap_datasets::RecordingFactory;
/// use emap_mdb::MdbBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let factory = RecordingFactory::new(3);
/// let mut builder = MdbBuilder::new();
/// builder.add_recording("d", &factory.normal_recording("r", 24.0))?;
/// let mut monitor = StreamingMonitor::new(EmapConfig::default(), builder.build())?;
///
/// // Hardware delivers 100-sample bursts; the monitor re-chunks into
/// // one-second windows internally.
/// let rec = factory.normal_recording("patient", 6.0);
/// let mut events = Vec::new();
/// for burst in rec.channels()[0].samples().chunks(100) {
///     events.extend(monitor.push(burst)?);
/// }
/// assert!(events.len() >= 5); // one iteration event per full second
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamingMonitor {
    pipeline: EmapPipeline,
    predictor: AnomalyPredictor,
    buffer: Vec<f32>,
    alarm: bool,
}

impl StreamingMonitor {
    /// Creates a monitor over a built mega-database.
    ///
    /// # Errors
    ///
    /// Returns [`EmapError::Edge`] if the configured predictor thresholds
    /// are invalid.
    pub fn new(config: EmapConfig, mdb: Mdb) -> Result<Self, EmapError> {
        Ok(StreamingMonitor {
            predictor: AnomalyPredictor::new(config.predictor())?,
            pipeline: EmapPipeline::new(config, mdb),
            buffer: Vec::with_capacity(emap_dsp::SAMPLES_PER_SECOND),
            alarm: false,
        })
    }

    /// Whether the alarm is currently raised.
    #[must_use]
    pub fn alarm_active(&self) -> bool {
        self.alarm
    }

    /// The underlying pipeline (read access to history, cloud, config).
    #[must_use]
    pub fn pipeline(&self) -> &EmapPipeline {
        &self.pipeline
    }

    /// Samples buffered toward the next full second.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Pushes a burst of raw samples of any size; runs one pipeline
    /// iteration per completed second and returns the resulting events in
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures; buffered state stays consistent.
    pub fn push(&mut self, samples: &[f32]) -> Result<Vec<MonitorEvent>, EmapError> {
        let mut events = Vec::new();
        self.buffer.extend_from_slice(samples);
        while self.buffer.len() >= emap_dsp::SAMPLES_PER_SECOND {
            let second: Vec<f32> = self.buffer.drain(..emap_dsp::SAMPLES_PER_SECOND).collect();
            let outcome = self.pipeline.process_second(&second)?;
            let iteration = outcome.iteration;
            events.push(MonitorEvent::Iteration(outcome));
            let verdict = self.predictor.classify(self.pipeline.history());
            match (self.alarm, verdict) {
                (false, Prediction::Anomaly) => {
                    self.alarm = true;
                    events.push(MonitorEvent::AlarmRaised {
                        iteration,
                        probability: self.pipeline.history().last(),
                    });
                }
                (true, Prediction::Normal) => {
                    self.alarm = false;
                    events.push(MonitorEvent::AlarmCleared { iteration });
                }
                _ => {}
            }
        }
        Ok(events)
    }

    /// Resets all patient state (buffer, alarm, pipeline) while keeping the
    /// mega-database.
    pub fn reset(&mut self) {
        self.buffer.clear();
        self.alarm = false;
        self.pipeline.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_datasets::{RecordingFactory, SignalClass};
    use emap_edge::EdgeConfig;

    fn monitor(seed: u64) -> StreamingMonitor {
        let config = EmapConfig::default()
            .with_edge(EdgeConfig::default().with_h(3).unwrap())
            .with_cloud_latency_iterations(1);
        StreamingMonitor::new(config, crate::test_corpus(seed, 3)).unwrap()
    }

    #[test]
    fn rechunking_matches_whole_second_processing() {
        let factory = RecordingFactory::new(5);
        let rec = factory.normal_recording("p", 6.0);
        let samples = rec.channels()[0].samples();

        let mut direct = monitor(5);
        let mut by_bursts = monitor(5);

        let direct_events = direct.push(samples).unwrap();
        let mut burst_events = Vec::new();
        for burst in samples.chunks(37) {
            burst_events.extend(by_bursts.push(burst).unwrap());
        }
        assert_eq!(direct_events, burst_events);
        assert_eq!(direct.buffered(), by_bursts.buffered());
    }

    #[test]
    fn partial_seconds_stay_buffered() {
        let mut m = monitor(5);
        let events = m.push(&[0.0; 200]).unwrap();
        assert!(events.is_empty());
        assert_eq!(m.buffered(), 200);
        let events = m.push(&[0.0; 100]).unwrap();
        assert_eq!(events.len(), 1); // one full second completed
        assert_eq!(m.buffered(), 44);
    }

    #[test]
    fn seizure_stream_raises_alarm_once() {
        let factory = RecordingFactory::new(5);
        let rec = factory.anomaly_recording(SignalClass::Seizure, "s1", 12.0);
        let mut m = monitor(5);
        let events = m.push(rec.channels()[0].samples()).unwrap();
        let raised = events
            .iter()
            .filter(|e| matches!(e, MonitorEvent::AlarmRaised { .. }))
            .count();
        assert_eq!(raised, 1, "events: {events:?}");
        assert!(m.alarm_active());
    }

    #[test]
    fn alarm_clears_when_the_signal_normalizes() {
        let factory = RecordingFactory::new(5);
        let ictal = factory.anomaly_recording(SignalClass::Seizure, "s0", 10.0);
        let calm = factory.normal_recording("calm-after", 14.0);
        let mut m = monitor(5);
        m.push(ictal.channels()[0].samples()).unwrap();
        assert!(m.alarm_active());
        let events = m.push(calm.channels()[0].samples()).unwrap();
        let cleared = events
            .iter()
            .any(|e| matches!(e, MonitorEvent::AlarmCleared { .. }));
        assert!(cleared, "alarm should clear on a normal tail: {events:?}");
        assert!(!m.alarm_active());
    }

    #[test]
    fn reset_clears_alarm_and_buffer() {
        let factory = RecordingFactory::new(5);
        let rec = factory.anomaly_recording(SignalClass::Seizure, "s0", 12.0);
        let mut m = monitor(5);
        m.push(rec.channels()[0].samples()).unwrap();
        m.push(&[0.0; 100]).unwrap();
        m.reset();
        assert!(!m.alarm_active());
        assert_eq!(m.buffered(), 0);
        assert!(m.pipeline().history().is_empty());
    }
}
