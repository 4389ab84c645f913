use emap_dsp::SAMPLES_PER_SECOND;
use emap_edge::{EdgeTracker, PaHistory};
use emap_mdb::Mdb;
use emap_search::{Query, Search, SearchWork, SlidingSearch};

use crate::{Acquisition, EmapConfig, EmapError};

/// What happened during one one-second iteration of the framework.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationOutcome {
    /// Iteration index (one per second of input).
    pub iteration: usize,
    /// `P_A` after this iteration (`None` while nothing is tracked yet,
    /// i.e. during the initial cloud search).
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
    /// Whether the quality gate rejected this second (tracking and cloud
    /// calls were skipped; nothing else happened this iteration).
    pub quality_rejected: bool,
    /// Work counters of the search installed this iteration (present only
    /// when `refresh_applied`).
    pub search_work: Option<SearchWork>,
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

struct PendingCall {
    ready_at: usize,
    query: Query,
}

/// The EMAP pipeline: acquisition → cloud search → edge tracking, with the
/// background-refresh behavior of Fig. 9.
///
/// The pipeline owns the mega-database (the "cloud") and models the cloud
/// call latency in whole iterations
/// ([`EmapConfig::cloud_latency_iterations`]): a call issued at iteration
/// `N` installs its correlation set at the start of iteration `N + L`,
/// while tracking continues on the shrinking set in between — exactly the
/// timeline the paper draws.
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug)]
pub struct EmapPipeline {
    config: EmapConfig,
    mdb: Mdb,
    search: SlidingSearch,
    acquisition: Acquisition,
    tracker: EdgeTracker,
    history: PaHistory,
    pending: Option<PendingCall>,
    iteration: usize,
    cloud_calls: usize,
}

impl std::fmt::Debug for PendingCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingCall")
            .field("ready_at", &self.ready_at)
            .finish_non_exhaustive()
    }
}

impl EmapPipeline {
    /// Creates a pipeline over a built mega-database.
    #[must_use]
    pub fn new(config: EmapConfig, mdb: Mdb) -> Self {
        EmapPipeline {
            search: SlidingSearch::new(config.search()),
            tracker: EdgeTracker::new(config.edge()),
            acquisition: Acquisition::new(),
            history: PaHistory::new(),
            pending: None,
            iteration: 0,
            cloud_calls: 0,
            config,
            mdb,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EmapConfig {
        &self.config
    }

    /// The mega-database this pipeline searches.
    #[must_use]
    pub fn mdb(&self) -> &Mdb {
        &self.mdb
    }

    /// The probability series recorded so far.
    #[must_use]
    pub fn history(&self) -> &PaHistory {
        &self.history
    }

    /// Resets all per-patient state (tracker, history, filter, pending
    /// calls) while keeping the mega-database.
    pub fn reset(&mut self) {
        self.tracker = EdgeTracker::new(self.config.edge());
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
    /// supplied, and propagates search/tracking failures.
    pub fn process_second(&mut self, raw: &[f32]) -> Result<IterationOutcome, EmapError> {
        if raw.len() != SAMPLES_PER_SECOND {
            return Err(EmapError::InputTooShort {
                got: raw.len(),
                needed: SAMPLES_PER_SECOND,
            });
        }
        let iteration = self.iteration;
        self.iteration += 1;

        // 0. Quality gate (if configured): a railed or flat second is
        // dropped before it can reach the tracker or the cloud.
        if let Some(gate) = self.config.quality_gate() {
            if !emap_dsp::quality::assess(raw, &gate).is_usable() {
                return Ok(IterationOutcome {
                    iteration,
                    probability: None,
                    tracked: self.tracker.len(),
                    anomalous: 0,
                    removed: 0,
                    cloud_call_issued: false,
                    refresh_applied: false,
                    search_work: None,
                    windows_evaluated: 0,
                    quality_rejected: true,
                });
            }
        }
        let filtered = self.acquisition.process_second(raw);

        // 1. Install a completed background search.
        let mut refresh_applied = false;
        let mut search_work = None;
        if let Some(pending) = &self.pending {
            if pending.ready_at <= iteration {
                let result = self.search.search(&pending.query, &self.mdb)?;
                search_work = Some(result.work());
                self.tracker.load(&result, &self.mdb)?;
                self.pending = None;
                refresh_applied = true;
            }
        }

        // 2. Track the current second.
        let (probability, tracked, anomalous, removed, windows, needs_call) =
            if self.tracker.is_empty() {
                (None, 0, 0, 0, 0, true)
            } else {
                let report = self.tracker.step(&filtered)?;
                self.history.push(report.probability);
                (
                    Some(report.probability),
                    report.tracked,
                    report.anomalous,
                    report.removed,
                    report.windows_evaluated,
                    report.needs_cloud_call,
                )
            };

        // 3. Transmit this second to the cloud if the tracked set ran low.
        let mut cloud_call_issued = false;
        if needs_call && self.pending.is_none() {
            self.pending = Some(PendingCall {
                ready_at: iteration + self.config.cloud_latency_iterations(),
                query: Query::new(&filtered)?,
            });
            self.cloud_calls += 1;
            cloud_call_issued = true;
        }

        Ok(IterationOutcome {
            iteration,
            probability,
            tracked,
            anomalous,
            removed,
            cloud_call_issued,
            refresh_applied,
            search_work,
            windows_evaluated: windows,
            quality_rejected: false,
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

#[cfg(test)]
mod tests {
    use super::*;
    use emap_datasets::{RecordingFactory, SignalClass};
    use emap_mdb::MdbBuilder;

    fn small_mdb(seed: u64) -> Mdb {
        let factory = RecordingFactory::new(seed);
        let mut b = MdbBuilder::new();
        for i in 0..3 {
            b.add_recording("d", &factory.normal_recording(&format!("n{i}"), 24.0))
                .unwrap();
            b.add_recording(
                "d",
                &factory.anomaly_recording(SignalClass::Seizure, &format!("s{i}"), 24.0),
            )
            .unwrap();
        }
        b.build()
    }

    fn config() -> EmapConfig {
        // Small H so a handful of tracked signals does not immediately
        // re-trigger cloud calls in these smoke tests.
        EmapConfig::default()
            .with_edge(emap_edge::EdgeConfig::default().with_h(2).unwrap())
            .with_cloud_latency_iterations(2)
    }

    #[test]
    fn wrong_second_length_rejected() {
        let mut p = EmapPipeline::new(config(), small_mdb(1));
        assert!(matches!(
            p.process_second(&[0.0; 100]),
            Err(EmapError::InputTooShort { .. })
        ));
    }

    #[test]
    fn initial_call_follows_latency_model() {
        let factory = RecordingFactory::new(1);
        let rec = factory.anomaly_recording(SignalClass::Seizure, "s0", 10.0);
        let mut p = EmapPipeline::new(config(), small_mdb(1));
        let trace = p.run_on_samples(rec.channels()[0].samples()).unwrap();

        // Iteration 0 issues the initial call; nothing tracked yet.
        assert!(trace.iterations[0].cloud_call_issued);
        assert_eq!(trace.iterations[0].probability, None);
        assert!(!trace.iterations[0].refresh_applied);
        // Latency 2 → refresh lands at iteration 2.
        assert!(!trace.iterations[1].refresh_applied);
        assert!(trace.iterations[2].refresh_applied);
        assert!(trace.iterations[2].search_work.is_some());
        assert!(trace.cloud_calls >= 1);
    }

    #[test]
    fn anomalous_input_tracks_anomalous_signals() {
        let factory = RecordingFactory::new(1);
        let rec = factory.anomaly_recording(SignalClass::Seizure, "s0", 12.0);
        let mut p = EmapPipeline::new(config(), small_mdb(1));
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
        let mut p = EmapPipeline::new(config(), small_mdb(1));
        let t1 = p.run_on_samples(rec.channels()[0].samples()).unwrap();
        p.reset();
        let t2 = p.run_on_samples(rec.channels()[0].samples()).unwrap();
        assert_eq!(t1, t2, "runs after reset are reproducible");
    }

    #[test]
    fn quality_gate_skips_bad_seconds() {
        use emap_dsp::quality::QualityConfig;
        let factory = RecordingFactory::new(1);
        let rec = factory.normal_recording("qg", 6.0);
        let mut samples = rec.channels()[0].samples().to_vec();
        // Ruin second 2 (flatline) and second 4 (railed).
        for v in &mut samples[2 * 256..3 * 256] {
            *v = 0.0;
        }
        for v in &mut samples[4 * 256..5 * 256] {
            *v = 499.0;
        }
        let cfg = config().with_quality_gate(QualityConfig::default());
        let mut p = EmapPipeline::new(cfg, small_mdb(1));
        let trace = p.run_on_samples(&samples).unwrap();
        let rejected: Vec<usize> = trace
            .iterations
            .iter()
            .filter(|o| o.quality_rejected)
            .map(|o| o.iteration)
            .collect();
        assert_eq!(rejected, vec![2, 4]);
        // Rejected iterations did nothing.
        for o in &trace.iterations {
            if o.quality_rejected {
                assert!(!o.cloud_call_issued && !o.refresh_applied);
                assert_eq!(o.windows_evaluated, 0);
            }
        }
        // Without the gate, the flat second would still be processed.
        let mut p = EmapPipeline::new(config(), small_mdb(1));
        let trace = p.run_on_samples(&samples).unwrap();
        assert!(trace.iterations.iter().all(|o| !o.quality_rejected));
    }

    #[test]
    fn too_short_stream_rejected() {
        let mut p = EmapPipeline::new(config(), small_mdb(1));
        assert!(matches!(
            p.run_on_samples(&[0.0; 100]),
            Err(EmapError::InputTooShort { .. })
        ));
    }
}
