use emap_dsp::SAMPLES_PER_SECOND;
use emap_edge::{EdgeTracker, PaHistory};
use emap_mdb::Mdb;
use emap_search::Query;

use crate::{Acquisition, CloudEndpoint, CloudService, EdgeFleet, EmapConfig, EmapError};

/// What happened during one one-second iteration of the framework.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationOutcome {
    /// Iteration index (one per second of input).
    pub iteration: usize,
    /// `P_A` after this iteration (`None` while nothing is tracked yet,
    /// i.e. during the initial cloud search, and for a masked second).
    pub probability: Option<f64>,
    /// Signals tracked after this iteration.
    pub tracked: usize,
    /// Of those, anomalous.
    pub anomalous: usize,
    /// Signals pruned this iteration.
    pub removed: usize,
    /// Whether this iteration transmitted a second to the cloud (a new
    /// background search was issued).
    pub cloud_call_issued: bool,
    /// Whether a completed cloud search installed a fresh correlation set
    /// at the start of this iteration.
    pub refresh_applied: bool,
    /// Whether a refresh fell due at the start of this iteration but the
    /// endpoint was unreachable ([`EmapError::Transport`]): the session kept
    /// tracking its local set and re-calls the cloud when it next runs low.
    pub degraded: bool,
    /// Whether the quality gate masked this second: the tracker was frozen
    /// (no scan, no pruning, no `P_A`, no cloud call).
    pub quality_rejected: bool,
    /// Window comparisons the edge evaluated this iteration.
    pub windows_evaluated: u64,
}

/// The full trace of a pipeline run over an input signal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    /// Per-iteration outcomes.
    pub iterations: Vec<IterationOutcome>,
    /// The anomaly-probability series (only iterations where tracking was
    /// active).
    pub pa_history: PaHistory,
    /// Total cloud calls issued (including the initial one).
    pub cloud_calls: usize,
}

/// The EMAP pipeline: acquisition → edge tracking → background cloud
/// refresh, the one-patient loop of Fig. 3 with the timeline of Fig. 9.
///
/// Each filtered second is stepped through a one-session [`EdgeFleet`],
/// where it meets [`EmapConfig::quality_gate`] and the tracker. A second
/// that leaves fewer than `H` signals tracked at iteration `N` is sent to
/// the cloud endpoint `C` (an in-process [`CloudService`] by default, any
/// [`CloudEndpoint`] via [`EmapPipeline::with_cloud`]); the refresh lands
/// at the start of iteration `N + L`
/// ([`EmapConfig::cloud_latency_iterations`]) while tracking continues on
/// the shrinking set — at `L = 1`, before the next second, as
/// [`EdgeFleet::serve_with`] does. A refresh failing with
/// [`EmapError::Transport`] leaves the session tracking
/// ([`IterationOutcome::degraded`]).
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug)]
pub struct EmapPipeline<C = CloudService> {
    config: EmapConfig,
    cloud: C,
    fleet: EdgeFleet,
    acquisition: Acquisition,
    history: PaHistory,
    /// The background search in flight: when it lands, and its query.
    pending: Option<(usize, Query)>,
    iteration: usize,
    cloud_calls: usize,
}

impl EmapPipeline {
    /// Creates a pipeline over a built mega-database, searched in process
    /// by a one-worker [`CloudService`].
    #[must_use]
    pub fn new(config: EmapConfig, mdb: Mdb) -> Self {
        Self::with_cloud(
            config,
            CloudService::new(config.search(), mdb.into_shared(), 1),
        )
    }
}

impl<C: CloudEndpoint> EmapPipeline<C> {
    /// Creates a pipeline refreshing through `cloud`.
    #[must_use]
    pub fn with_cloud(config: EmapConfig, cloud: C) -> Self {
        EmapPipeline {
            fleet: one_session(&config),
            acquisition: Acquisition::new(),
            history: PaHistory::new(),
            pending: None,
            iteration: 0,
            cloud_calls: 0,
            config,
            cloud,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EmapConfig {
        &self.config
    }

    /// The cloud endpoint this pipeline refreshes through.
    #[must_use]
    pub fn cloud(&self) -> &C {
        &self.cloud
    }

    /// The probability series recorded so far.
    #[must_use]
    pub fn history(&self) -> &PaHistory {
        &self.history
    }

    /// Resets all per-patient state (tracker, history, filter, pending
    /// calls) while keeping the cloud endpoint.
    pub fn reset(&mut self) {
        self.fleet = one_session(&self.config);
        self.history = PaHistory::new();
        self.acquisition.reset();
        self.pending = None;
        self.iteration = 0;
        self.cloud_calls = 0;
    }

    /// Processes one second (256 raw samples) through the framework.
    ///
    /// # Errors
    ///
    /// Returns [`EmapError::InputTooShort`] unless exactly one second is
    /// supplied, and propagates tracking failures and non-transport
    /// refresh failures.
    pub fn process_second(&mut self, raw: &[f32]) -> Result<IterationOutcome, EmapError> {
        if raw.len() != SAMPLES_PER_SECOND {
            return Err(EmapError::InputTooShort {
                got: raw.len(),
                needed: SAMPLES_PER_SECOND,
            });
        }
        let iteration = self.iteration;
        self.iteration += 1;
        let filtered = self.acquisition.process_second(raw);

        // 1. Install a background search whose modelled latency elapsed.
        let (mut refresh_applied, mut degraded) = (false, false);
        if let Some((_, query)) = self.pending.take_if(|(ready_at, _)| *ready_at <= iteration) {
            let tracker = self
                .fleet
                .session_mut(0)
                .expect("the pipeline's one session")
                .tracker_mut();
            match self.cloud.refresh(&query, tracker) {
                Ok(()) => refresh_applied = true,
                Err(e) if e.is_transport() => degraded = true,
                Err(e) => return Err(e),
            }
        }

        // 2. The gate and the tracker: one fleet tick.
        let tick = self.fleet.tick(&[&filtered])?;
        let report = &tick.reports[0];
        let quality_rejected = !tick.artifacts.is_empty();
        // Nothing tracked going in (the initial search is still out), or a
        // masked second: no P_A this iteration.
        let probability = (report.tracked + report.removed > 0 && !quality_rejected)
            .then_some(report.probability);
        if let Some(p) = probability {
            self.history.push(p);
        }

        // 3. Transmit this second to the cloud if the tracked set ran low.
        let cloud_call_issued = report.needs_cloud_call && self.pending.is_none();
        if cloud_call_issued {
            let ready_at = iteration + self.config.cloud_latency_iterations();
            self.pending = Some((ready_at, Query::new(&filtered)?));
            self.cloud_calls += 1;
        }

        Ok(IterationOutcome {
            iteration,
            probability,
            tracked: report.tracked,
            anomalous: report.anomalous,
            removed: report.removed,
            cloud_call_issued,
            refresh_applied,
            degraded,
            quality_rejected,
            windows_evaluated: report.windows_evaluated,
        })
    }

    /// Runs the pipeline over a whole raw sample stream (any leftover
    /// partial second is discarded) and returns the trace.
    ///
    /// # Errors
    ///
    /// Returns [`EmapError::InputTooShort`] if `raw` holds less than one
    /// second, and propagates per-iteration failures.
    pub fn run_on_samples(&mut self, raw: &[f32]) -> Result<RunTrace, EmapError> {
        if raw.len() < SAMPLES_PER_SECOND {
            return Err(EmapError::InputTooShort {
                got: raw.len(),
                needed: SAMPLES_PER_SECOND,
            });
        }
        let mut iterations = Vec::new();
        for second in crate::seconds_of(raw) {
            iterations.push(self.process_second(second)?);
        }
        Ok(RunTrace {
            iterations,
            pa_history: self.history.clone(),
            cloud_calls: self.cloud_calls,
        })
    }
}

/// The pipeline's fleet: one empty session behind the configured gate.
fn one_session(config: &EmapConfig) -> EdgeFleet {
    let mut fleet = EdgeFleet::new(1);
    if let Some(gate) = config.quality_gate() {
        fleet = fleet.with_quality_gate(gate);
    }
    fleet.add_session("patient", EdgeTracker::new(config.edge()));
    fleet
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use emap_datasets::{RecordingFactory, SignalClass};

    fn config() -> EmapConfig {
        // Small H so a handful of tracked signals does not immediately
        // re-trigger cloud calls in these smoke tests.
        EmapConfig::default()
            .with_edge(emap_edge::EdgeConfig::default().with_h(2).unwrap())
            .with_cloud_latency_iterations(2)
    }

    #[test]
    fn wrong_second_length_rejected() {
        let mut p = EmapPipeline::new(config(), crate::test_corpus(1, 3));
        assert!(matches!(
            p.process_second(&[0.0; 100]),
            Err(EmapError::InputTooShort { .. })
        ));
    }

    #[test]
    fn initial_call_follows_latency_model() {
        let factory = RecordingFactory::new(1);
        let rec = factory.anomaly_recording(SignalClass::Seizure, "s0", 10.0);
        let mut p = EmapPipeline::new(config(), crate::test_corpus(1, 3));
        let trace = p.run_on_samples(rec.channels()[0].samples()).unwrap();

        // Iteration 0 issues the initial call; nothing tracked yet.
        assert!(trace.iterations[0].cloud_call_issued);
        assert_eq!(trace.iterations[0].probability, None);
        assert!(!trace.iterations[0].refresh_applied);
        // Latency 2 → refresh lands at iteration 2.
        assert!(!trace.iterations[1].refresh_applied);
        assert!(trace.iterations[2].refresh_applied);
        assert!(trace.iterations[2].probability.is_some());
        assert!(trace.cloud_calls >= 1);
    }

    #[test]
    fn anomalous_input_tracks_anomalous_signals() {
        let factory = RecordingFactory::new(1);
        let rec = factory.anomaly_recording(SignalClass::Seizure, "s0", 12.0);
        let mut p = EmapPipeline::new(config(), crate::test_corpus(1, 3));
        let trace = p.run_on_samples(rec.channels()[0].samples()).unwrap();
        // Across the run, the iterations that tracked anything must have
        // been dominated by anomalous signals (the MDB contains the very
        // recording this input extends).
        let best_pa = trace
            .iterations
            .iter()
            .filter(|o| o.tracked > 0)
            .filter_map(|o| o.probability)
            .fold(0.0f64, f64::max);
        assert!(
            best_pa > 0.5,
            "peak P_A = {best_pa} — seizure input should track mostly anomalous sets"
        );
    }

    #[test]
    fn reset_clears_state() {
        let factory = RecordingFactory::new(1);
        let rec = factory.normal_recording("n9", 8.0);
        let mut p = EmapPipeline::new(config(), crate::test_corpus(1, 3));
        let t1 = p.run_on_samples(rec.channels()[0].samples()).unwrap();
        p.reset();
        let t2 = p.run_on_samples(rec.channels()[0].samples()).unwrap();
        assert_eq!(t1, t2, "runs after reset are reproducible");
    }

    #[test]
    fn quality_gate_masks_artifact_seconds() {
        let factory = RecordingFactory::new(1);
        let rec = factory.normal_recording("qg", 8.0);
        let mut samples = rec.channels()[0].samples().to_vec();
        // A dropped electrode over seconds 2–3, a railed one over 5–6. The
        // gate sees what the tracker would: the filtered second. Once the
        // filter's 100 taps have run through a fault it is exactly flat
        // (3, 6); the rail's onset and release also ring through the
        // filter as transients the tree flags (5, 7), while the drop's
        // decay stays EEG-sized and passes (2).
        for v in &mut samples[2 * 256..4 * 256] {
            *v = 0.0;
        }
        for v in &mut samples[5 * 256..7 * 256] {
            *v = 499.0;
        }
        let cfg = config().with_quality_gate(emap_quality::QualityGate::default());
        let mut p = EmapPipeline::new(cfg, crate::test_corpus(1, 3));
        let trace = p.run_on_samples(&samples).unwrap();
        let rejected: Vec<usize> = trace
            .iterations
            .iter()
            .filter(|o| o.quality_rejected)
            .map(|o| o.iteration)
            .collect();
        assert_eq!(rejected, vec![3, 5, 6, 7]);
        // Masked iterations froze the session: no scan, no P_A, no call.
        for o in trace.iterations.iter().filter(|o| o.quality_rejected) {
            assert!(!o.cloud_call_issued);
            assert_eq!(o.probability, None);
            assert_eq!((o.removed, o.windows_evaluated), (0, 0));
        }
        // Without the gate, the same seconds are tracked.
        let mut p = EmapPipeline::new(config(), crate::test_corpus(1, 3));
        let trace = p.run_on_samples(&samples).unwrap();
        assert!(trace.iterations.iter().all(|o| !o.quality_rejected));
    }

    #[test]
    fn too_short_stream_rejected() {
        let mut p = EmapPipeline::new(config(), crate::test_corpus(1, 3));
        assert!(matches!(
            p.run_on_samples(&[0.0; 100]),
            Err(EmapError::InputTooShort { .. })
        ));
    }

    /// An in-process cloud whose transport can be cut: while down, every
    /// refresh fails with [`EmapError::Transport`].
    struct Switchable {
        cloud: CloudService,
        up: Cell<bool>,
    }

    impl CloudEndpoint for Switchable {
        fn refresh_batch(
            &self,
            queries: &[Query],
            trackers: &mut [&mut EdgeTracker],
        ) -> Vec<Result<(), EmapError>> {
            if self.up.get() {
                return self.cloud.refresh_batch(queries, trackers);
            }
            let refused = || EmapError::Transport {
                detail: "connection refused".into(),
            };
            queries.iter().map(|_| Err(refused())).collect()
        }
    }

    #[test]
    fn unreachable_cloud_degrades_instead_of_failing() {
        // H above the top-k: every second re-calls the cloud, so with
        // L = 1 a refresh falls due every second.
        let config = EmapConfig::default()
            .with_edge(emap_edge::EdgeConfig::default().with_h(1000).unwrap())
            .with_cloud_latency_iterations(1);
        let cloud = Switchable {
            cloud: CloudService::new(config.search(), crate::test_corpus(1, 3).into_shared(), 1),
            up: Cell::new(true),
        };
        let mut p = EmapPipeline::with_cloud(config, cloud);
        let samples = RecordingFactory::new(1)
            .anomaly_recording(SignalClass::Seizure, "s0", 12.0)
            .channels()[0]
            .samples()
            .to_vec();
        let mut seconds = crate::seconds_of(&samples);
        let mut next =
            |p: &mut EmapPipeline<Switchable>| p.process_second(seconds.next().unwrap()).unwrap();
        for _ in 0..3 {
            next(&mut p);
        }
        let loaded = next(&mut p);
        assert!(loaded.refresh_applied && loaded.tracked > 0);

        // The cloud goes away: no error, the session keeps tracking its
        // local set, and every due refresh is counted degraded.
        p.cloud().up.set(false);
        let mut tracked = loaded.tracked;
        for _ in 0..4 {
            let o = next(&mut p);
            assert!(o.degraded && !o.refresh_applied, "{o:?}");
            assert!(o.cloud_call_issued, "it keeps asking");
            assert!(o.tracked <= tracked);
            if o.tracked + o.removed > 0 {
                assert!(o.probability.is_some());
            }
            tracked = o.tracked;
        }

        // The cloud comes back: the next due refresh lands.
        p.cloud().up.set(true);
        let o = next(&mut p);
        assert!(o.refresh_applied && !o.degraded, "{o:?}");
        assert!(o.tracked > 0);
    }

    #[test]
    fn latency_one_decides_as_serve_with() {
        // `serve_with` refreshes right after the step that ran low; the
        // pipeline at L = 1 installs the same query's set before the next
        // step. Same tracker states at every step, so the same P_A series
        // (the pipeline just reports no P_A while nothing is tracked).
        let config = EmapConfig::default().with_cloud_latency_iterations(1);
        let mdb = crate::test_corpus(3, 3);
        let samples = RecordingFactory::new(3)
            .anomaly_recording(SignalClass::Seizure, "s1", 16.0)
            .channels()[0]
            .samples()
            .to_vec();
        let mut pipeline = EmapPipeline::new(config, mdb.clone());
        let trace = pipeline.run_on_samples(&samples).unwrap();

        let cloud = CloudService::new(config.search(), mdb.into_shared(), 1);
        let mut fleet = EdgeFleet::new(1);
        fleet.add_session("p", EdgeTracker::new(config.edge()));
        let mut acquisition = Acquisition::new();
        let (mut history, mut refreshes) = (PaHistory::new(), 0);
        for second in crate::seconds_of(&samples) {
            let filtered = acquisition.process_second(second);
            let tick = fleet.serve_with(&cloud, &[&filtered]).unwrap();
            let report = &tick.reports[0];
            if report.tracked + report.removed > 0 {
                history.push(report.probability);
            }
            refreshes += tick.refreshed.len();
        }
        assert_eq!(trace.pa_history, history);
        assert_eq!(trace.cloud_calls, refreshes);
    }
}
