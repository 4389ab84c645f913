//! Multi-patient edge fleet.
//!
//! The paper's deployment (Fig. 3) is one cloud serving *many* wearables,
//! each running Algorithm 2 on its own one-second stream. [`EdgeFleet`]
//! models the device side of that fan-out: it owns one tracking session per
//! patient and steps all of them per tick over chunked worker threads —
//! the edge-side counterpart of [`crate::CloudService`]'s concurrent search
//! endpoint. [`EdgeFleet::serve_with`] closes the loop, re-calling the
//! cloud for every session whose tracked set fell below `H` while the rest
//! of the fleet keeps stepping;
//! [`crate::EmapPipeline`] drives a one-session fleet second by second
//! with a modelled refresh latency.

use std::cmp::Reverse;

use emap_edge::{EdgeError, EdgeTracker, StepReport};
use emap_quality::{ArtifactKind, QualityGate};
use emap_search::Query;
use emap_telemetry::{Counter, Gauge, Histogram, Registry, Timer};

use crate::{CloudEndpoint, EmapError};

/// Cached instrument handles for the fleet's per-tick metrics.
///
/// Written once per tick from the [`StepReport`]s the trackers already
/// produce — the tracking loops themselves are untouched, so an
/// instrumented fleet makes exactly the decisions a bare one makes.
#[derive(Debug, Clone)]
struct FleetTelemetry {
    ticks: Counter,
    windows_evaluated: Counter,
    windows_pruned: Counter,
    area_blocks: Counter,
    area_resolved: Counter,
    refreshes: Counter,
    degraded_sessions: Counter,
    artifact_seconds: Counter,
    tracked_signals: Gauge,
    sessions: Gauge,
    tick_latency: Histogram,
}

impl FleetTelemetry {
    fn register(registry: &Registry) -> Self {
        FleetTelemetry {
            ticks: registry.counter("fleet_ticks_total"),
            windows_evaluated: registry.counter("fleet_windows_evaluated_total"),
            windows_pruned: registry.counter("fleet_windows_pruned_total"),
            area_blocks: registry.counter("fleet_area_blocks_total"),
            area_resolved: registry.counter("fleet_area_resolved_total"),
            refreshes: registry.counter("fleet_refreshes_total"),
            degraded_sessions: registry.counter("fleet_degraded_sessions_total"),
            artifact_seconds: registry.counter("fleet_artifact_seconds_total"),
            tracked_signals: registry.gauge("fleet_tracked_signals"),
            sessions: registry.gauge("fleet_sessions"),
            tick_latency: registry.histogram("fleet_tick_nanos"),
        }
    }

    fn record_tick(&self, tick: &FleetTick, sessions: &[FleetSession]) {
        self.ticks.inc();
        self.windows_evaluated.add(tick.windows_evaluated());
        self.windows_pruned.add(tick.windows_pruned());
        self.area_blocks.add(tick.area_blocks());
        self.area_resolved.add(tick.area_resolved());
        self.artifact_seconds.add(tick.artifacts.len() as u64);
        self.refreshes.add(tick.refreshed.len() as u64);
        self.degraded_sessions.add(tick.degraded.len() as u64);
        // Read the live trackers: a refresh may have replaced sets since
        // the reports were taken.
        self.tracked_signals
            .set(sessions.iter().map(|s| s.tracker.len() as i64).sum());
    }
}

/// One patient's tracking session within an [`EdgeFleet`].
#[derive(Debug, Clone)]
pub struct FleetSession {
    patient: String,
    tracker: EdgeTracker,
    /// Ticks on which this session needed the cloud: the order
    /// [`EdgeFleet::serve_with`] steps sessions in.
    cloud_ticks: u64,
}

impl FleetSession {
    /// The patient identifier this session tracks.
    #[must_use]
    pub fn patient(&self) -> &str {
        &self.patient
    }

    /// The session's tracker.
    #[must_use]
    pub fn tracker(&self) -> &EdgeTracker {
        &self.tracker
    }

    /// Mutable access to the session's tracker (e.g. to load a fresh
    /// correlation set outside of [`EdgeFleet::serve_with`]).
    pub fn tracker_mut(&mut self) -> &mut EdgeTracker {
        &mut self.tracker
    }
}

/// The outcome of stepping every session of the fleet one second forward.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetTick {
    /// Per-session step reports, in session order.
    pub reports: Vec<StepReport>,
    /// Indices of sessions whose correlation set was refreshed from the
    /// cloud during this tick (only [`EdgeFleet::serve_with`] fills this;
    /// [`EdgeFleet::tick`] leaves it empty).
    pub refreshed: Vec<usize>,
    /// Indices of sessions that needed a cloud refresh but could not reach
    /// it (transport failure): they keep tracking their shrinking local
    /// set until a later refresh succeeds. Only [`EdgeFleet::serve_with`]
    /// fills this; an in-process cloud never degrades.
    pub degraded: Vec<usize>,
    /// Sessions whose input second the fleet's quality gate classified as
    /// artifact this tick, with the archetype: their trackers were frozen
    /// (no scan, no pruning, `P_A` untouched, no cloud call) rather than
    /// fed the contaminated second. Empty unless the fleet was built with
    /// [`EdgeFleet::with_quality_gate`]. Ascending by session index.
    pub artifacts: Vec<(usize, ArtifactKind)>,
}

impl FleetTick {
    /// Window comparisons scored across all sessions this tick.
    #[must_use]
    pub fn windows_evaluated(&self) -> u64 {
        self.reports.iter().map(|r| r.windows_evaluated).sum()
    }

    /// Offsets rejected by the area lower bound across all sessions.
    #[must_use]
    pub fn windows_pruned(&self) -> u64 {
        self.reports.iter().map(|r| r.windows_pruned).sum()
    }

    /// 32-sample blocks the area kernel accumulated across all sessions.
    #[must_use]
    pub fn area_blocks(&self) -> u64 {
        self.reports.iter().map(|r| r.area_blocks).sum()
    }

    /// Scored windows the area kernel's grid left to `f64` across all
    /// sessions.
    #[must_use]
    pub fn area_resolved(&self) -> u64 {
        self.reports.iter().map(|r| r.area_resolved).sum()
    }

    /// Indices of sessions that need (or needed) a cloud re-call.
    #[must_use]
    pub fn needing_cloud(&self) -> Vec<usize> {
        self.reports
            .iter()
            .enumerate()
            .filter(|(_, r)| r.needs_cloud_call)
            .map(|(i, _)| i)
            .collect()
    }

    /// Mean anomaly probability across the fleet (0 when empty).
    #[must_use]
    pub fn mean_probability(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().map(|r| r.probability).sum::<f64>() / self.reports.len() as f64
    }
}

/// Many per-patient [`EdgeTracker`] sessions stepped in lockstep over
/// chunked worker threads.
///
/// # Example
///
/// ```
/// use emap_core::{CloudService, EdgeFleet};
/// use emap_datasets::RecordingFactory;
/// use emap_edge::{EdgeConfig, EdgeTracker};
/// use emap_mdb::MdbBuilder;
/// use emap_search::SearchConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let factory = RecordingFactory::new(3);
/// let mut builder = MdbBuilder::new();
/// builder.add_recording("d", &factory.normal_recording("r", 24.0))?;
/// let cloud = CloudService::new(SearchConfig::paper(), builder.build().into_shared(), 2);
///
/// let mut fleet = EdgeFleet::new(2);
/// for p in 0..3 {
///     fleet.add_session(format!("patient-{p}"), EdgeTracker::new(EdgeConfig::default()));
/// }
///
/// let second = emap_dsp::emap_bandpass()
///     .filter(factory.normal_recording("r", 24.0).channels()[0].samples());
/// let inputs = vec![&second[1024..1280]; 3];
/// let tick = fleet.serve_with(&cloud, &inputs)?;
/// assert_eq!(tick.reports.len(), 3);
/// assert_eq!(tick.refreshed, vec![0, 1, 2]); // empty trackers re-call the cloud
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EdgeFleet {
    sessions: Vec<FleetSession>,
    workers: usize,
    telemetry: Option<FleetTelemetry>,
    gate: Option<QualityGate>,
}

impl EdgeFleet {
    /// Creates an empty fleet stepping sessions across `workers` threads
    /// (values below 1 are treated as 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        EdgeFleet {
            sessions: Vec::new(),
            workers: workers.max(1),
            telemetry: None,
            gate: None,
        }
    }

    /// Attaches a per-second signal-quality gate: every input second is
    /// classified *before* tracking, and artifact seconds (flatline,
    /// saturation, spike trains, drift) are masked — the session's report
    /// for that tick comes from [`EdgeTracker::masked_report`], so `P_A`
    /// is never updated from contaminated signal and the second is never
    /// sent cloudward as a query. Flagged sessions land in
    /// [`FleetTick::artifacts`].
    #[must_use]
    pub fn with_quality_gate(mut self, gate: QualityGate) -> Self {
        self.gate = Some(gate);
        self
    }

    /// The fleet's quality gate, when one is attached.
    #[must_use]
    pub fn quality_gate(&self) -> Option<&QualityGate> {
        self.gate.as_ref()
    }

    /// Attaches fleet telemetry: per-tick latency, windows evaluated and
    /// pruned by the area bound, tracked-set size, refreshed and degraded
    /// session counts, all recorded into `registry` (names prefixed
    /// `fleet_`). Tracking decisions are unchanged.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = Some(FleetTelemetry::register(registry));
        self
    }

    /// Adds a patient session and returns its index.
    pub fn add_session(&mut self, patient: impl Into<String>, tracker: EdgeTracker) -> usize {
        self.sessions.push(FleetSession {
            patient: patient.into(),
            tracker,
            cloud_ticks: 0,
        });
        self.sessions.len() - 1
    }

    /// The sessions, in insertion order.
    #[must_use]
    pub fn sessions(&self) -> &[FleetSession] {
        &self.sessions
    }

    /// Mutable access to one session.
    pub fn session_mut(&mut self, index: usize) -> Option<&mut FleetSession> {
        self.sessions.get_mut(index)
    }

    /// Number of patient sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the fleet has no sessions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Steps every session against its patient's next one-second window
    /// (`inputs[i]` feeds session `i`), fanning the sessions across the
    /// fleet's worker threads in contiguous chunks (a single chunk steps on
    /// the calling thread).
    ///
    /// # Errors
    ///
    /// Returns [`EmapError::FleetSizeMismatch`] unless `inputs` has exactly
    /// one window per session, or the first per-session
    /// [`emap_edge::EdgeError`] encountered (in session order).
    pub fn tick(&mut self, inputs: &[&[f32]]) -> Result<FleetTick, EmapError> {
        self.check_inputs(inputs)?;
        if self.sessions.is_empty() {
            return Ok(FleetTick::default());
        }
        let timer = self
            .telemetry
            .as_ref()
            .map(|t| t.tick_latency.start_timer());
        let mut jobs: Vec<Job<'_, '_>> = self
            .sessions
            .iter_mut()
            .zip(inputs.iter().copied())
            .collect();
        let tick = assemble(step_all(self.gate, self.workers, &mut jobs))?;
        self.record(timer, &tick);
        Ok(tick)
    }

    /// Steps every session one second forward, as [`EdgeFleet::tick`]
    /// does, and re-calls the cloud for every session whose tracked set
    /// fell below `H`: the current second is sent to `cloud` — in-process
    /// or remote — as a fresh search and the session's correlation set
    /// replaced with the result (the Fig. 9 refresh, fleet-wide).
    ///
    /// The refresh overlaps the rest of the tick (Fig. 9's timeline: the
    /// edge keeps iterating while the cloud searches):
    ///
    /// - **Order.** Sessions step in descending order of how many ticks
    ///   each has needed the cloud, ties by session index, so the
    ///   frequent callers step first.
    /// - **What overlaps.** As soon as one session needs the cloud, its
    ///   refresh goes out through
    ///   [`CloudEndpoint::refresh_batch_overlapped`] with the remaining
    ///   sessions' steps (over the fleet's workers, as in `tick`) as
    ///   `meanwhile`. A remote endpoint searches while they step; an
    ///   in-process one runs them first.
    /// - **The late batch.** Sessions found to need the cloud during
    ///   `meanwhile` are refreshed afterwards in **one**
    ///   [`CloudEndpoint::refresh_batch`] call, in session order, so the
    ///   endpoint serves them through one shared sweep (and, remotely, one
    ///   wire exchange).
    ///
    /// Sessions are independent and a refresh's answer does not depend on
    /// when it is read, so the tick and every tracker end exactly as
    /// stepping every session first and refreshing in one batch leaves
    /// them. [`FleetTick::reports`] and [`FleetTick::artifacts`] are in
    /// session order; [`FleetTick::refreshed`] and
    /// [`FleetTick::degraded`] ascend.
    ///
    /// Degradation is graceful: a session whose refresh fails with
    /// [`EmapError::Transport`] is *not* an error. It keeps tracking its
    /// current (shrinking) set, its index is recorded in
    /// [`FleetTick::degraded`], and the next tick below `H` simply retries
    /// (an in-process [`crate::CloudService`] never raises transport failures, so
    /// `degraded` stays empty there). Non-transport refresh failures still
    /// abort the call.
    ///
    /// # Errors
    ///
    /// In this precedence: the errors of [`EdgeFleet::tick`] (a size
    /// mismatch, then the first failing step in session order); then the
    /// first session in session order whose second cannot be a query; then
    /// the first non-transport refresh failure (search error, malformed
    /// response) in session order. Every session is stepped before a step
    /// or query error is returned. A refresh already issued when such an
    /// error is found is **applied** — the endpoint installs it as part of
    /// its exchange — and no late batch is sent.
    pub fn serve_with<C: CloudEndpoint + ?Sized>(
        &mut self,
        cloud: &C,
        inputs: &[&[f32]],
    ) -> Result<FleetTick, EmapError> {
        self.check_inputs(inputs)?;
        if self.sessions.is_empty() {
            return Ok(FleetTick::default());
        }
        let timer = self
            .telemetry
            .as_ref()
            .map(|t| t.tick_latency.start_timer());
        let (gate, workers) = (self.gate, self.workers);
        let mut order: Vec<usize> = (0..self.sessions.len()).collect();
        order.sort_by_key(|&i| Reverse(self.sessions[i].cloud_ticks));
        let mut slots: Vec<Option<&mut FleetSession>> =
            self.sessions.iter_mut().map(Some).collect();
        let mut stepped: Vec<Option<Stepped>> = slots.iter().map(|_| None).collect();
        let mut query_errors: Vec<(usize, EmapError)> = Vec::new();

        // Step in priority order until one session needs the cloud.
        let mut pending = order.iter();
        let mut first = None;
        for &i in pending.by_ref() {
            let session = slots[i].take().expect("each session steps once");
            let result = step_session(gate, session, inputs[i]);
            let needs = result.0.as_ref().is_ok_and(|r| r.needs_cloud_call);
            stepped[i] = Some(result);
            if needs {
                match Query::new(inputs[i]) {
                    Ok(query) => {
                        first = Some((i, query, &mut session.tracker));
                        break;
                    }
                    Err(e) => query_errors.push((i, e.into())),
                }
            }
        }

        // Its refresh goes out; the rest step while it is in flight.
        let rest: Vec<usize> = pending.copied().collect();
        let mut jobs: Vec<Job<'_, '_>> = rest
            .iter()
            .map(|&i| (slots[i].take().expect("each session steps once"), inputs[i]))
            .collect();
        let mut outcomes = Vec::new();
        if let Some((i, query, tracker)) = first {
            let mut rest_steps = Vec::new();
            let mut meanwhile = || rest_steps = step_all(gate, workers, &mut jobs);
            let outcome = cloud
                .refresh_batch_overlapped(
                    std::slice::from_ref(&query),
                    &mut [tracker],
                    &mut meanwhile,
                )
                .pop()
                .expect("one outcome per query");
            outcomes.push((i, outcome));
            for (&i, result) in rest.iter().zip(rest_steps) {
                stepped[i] = Some(result);
            }
        }
        let mut tick = assemble(
            stepped
                .into_iter()
                .map(|s| s.expect("every session stepped")),
        )?;

        // The late batch: sessions that needed the cloud during `meanwhile`.
        let mut late: Vec<(usize, &mut EdgeTracker)> = rest
            .iter()
            .zip(jobs)
            .filter(|(&i, _)| tick.reports[i].needs_cloud_call)
            .map(|(&i, (session, _))| (i, &mut session.tracker))
            .collect();
        late.sort_by_key(|&(i, _)| i);
        let mut queries = Vec::with_capacity(late.len());
        for &(i, _) in &late {
            match Query::new(inputs[i]) {
                Ok(query) => queries.push(query),
                Err(e) => query_errors.push((i, e.into())),
            }
        }
        if let Some((_, e)) = query_errors.into_iter().min_by_key(|&(i, _)| i) {
            return Err(e);
        }
        if !late.is_empty() {
            let (indices, mut trackers): (Vec<usize>, Vec<&mut EdgeTracker>) =
                late.into_iter().unzip();
            outcomes.extend(
                indices
                    .into_iter()
                    .zip(cloud.refresh_batch(&queries, &mut trackers)),
            );
        }
        outcomes.sort_by_key(|&(i, _)| i);
        for (i, outcome) in outcomes {
            match outcome {
                Ok(()) => tick.refreshed.push(i),
                Err(e) if e.is_transport() => tick.degraded.push(i),
                Err(e) => return Err(e),
            }
        }
        self.record(timer, &tick);
        Ok(tick)
    }

    fn check_inputs(&self, inputs: &[&[f32]]) -> Result<(), EmapError> {
        if inputs.len() == self.sessions.len() {
            Ok(())
        } else {
            Err(EmapError::FleetSizeMismatch {
                sessions: self.sessions.len(),
                inputs: inputs.len(),
            })
        }
    }

    /// Records a finished tick into the fleet's telemetry, if attached.
    fn record(&self, timer: Option<Timer>, tick: &FleetTick) {
        if let Some(t) = &self.telemetry {
            drop(timer);
            t.sessions.set(self.sessions.len() as i64);
            t.record_tick(tick, &self.sessions);
        }
    }
}

/// A session and the second it steps on.
type Job<'s, 'i> = (&'s mut FleetSession, &'i [f32]);

/// One session's second: its report (or the tracker's error) and, when the
/// gate masked the second, the artifact kind.
type Stepped = (Result<StepReport, EdgeError>, Option<ArtifactKind>);

/// The one place a patient-second meets the quality gate and the tracker:
/// an artifact second is masked (the tracker frozen), any other is
/// tracked. Counts the ticks on which the session needed the cloud.
fn step_session(gate: Option<QualityGate>, session: &mut FleetSession, input: &[f32]) -> Stepped {
    // The gate sees only well-formed seconds: length errors must surface
    // exactly as they would ungated.
    let kind = gate
        .filter(|_| input.len() == emap_dsp::SAMPLES_PER_SECOND)
        .and_then(|g| g.assess_second(input).artifact());
    let report = match kind {
        Some(_) => Ok(session.tracker.masked_report()),
        None => session.tracker.step(input),
    };
    if report.as_ref().is_ok_and(|r| r.needs_cloud_call) {
        session.cloud_ticks += 1;
    }
    (report, kind)
}

/// Steps every job with [`step_session`], fanning the jobs across up to
/// `workers` scoped threads in contiguous chunks; a single chunk steps on
/// the calling thread, where a scoped thread would only add a spawn.
/// Results come back in job order.
fn step_all(gate: Option<QualityGate>, workers: usize, jobs: &mut [Job<'_, '_>]) -> Vec<Stepped> {
    fn step_chunk(gate: Option<QualityGate>, jobs: &mut [Job<'_, '_>]) -> Vec<Stepped> {
        jobs.iter_mut()
            .map(|(session, input)| step_session(gate, session, input))
            .collect()
    }
    let chunk = jobs.len().div_ceil(workers);
    if chunk >= jobs.len() {
        return step_chunk(gate, jobs);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks_mut(chunk)
            .map(|chunk| scope.spawn(move || step_chunk(gate, chunk)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    })
}

/// Folds per-session results, in session order, into a tick: every report
/// and the masked sessions, or the first failing session's error.
fn assemble(results: impl IntoIterator<Item = Stepped>) -> Result<FleetTick, EmapError> {
    let mut tick = FleetTick::default();
    for (i, (report, kind)) in results.into_iter().enumerate() {
        tick.reports.push(report.map_err(EmapError::Edge)?);
        if let Some(k) = kind {
            tick.artifacts.push((i, k));
        }
    }
    Ok(tick)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CloudService;
    use emap_datasets::RecordingFactory;
    use emap_edge::EdgeConfig;
    use emap_search::SearchConfig;

    fn cloud() -> (CloudService, RecordingFactory) {
        let factory = RecordingFactory::new(21);
        (
            CloudService::new(
                SearchConfig::paper(),
                crate::test_corpus(21, 2).into_shared(),
                2,
            ),
            factory,
        )
    }

    fn patient_seconds(factory: &RecordingFactory, id: &str) -> Vec<f32> {
        emap_dsp::emap_bandpass().filter(factory.normal_recording(id, 16.0).channels()[0].samples())
    }

    #[test]
    fn tick_matches_serial_stepping() {
        let (cloud, factory) = cloud();
        let streams: Vec<Vec<f32>> = (0..5)
            .map(|i| patient_seconds(&factory, &format!("p{i}")))
            .collect();

        // Fleet of 5 sessions over 3 workers (scoped threads), over one
        // worker (one chunk, stepped on the calling thread), and the same
        // sessions stepped serially: identical reports in session order.
        let mut fleet = EdgeFleet::new(3);
        let mut inline = EdgeFleet::new(1);
        let mut serial = Vec::new();
        for (i, stream) in streams.iter().enumerate() {
            let mut tracker = EdgeTracker::new(EdgeConfig::default());
            let set = cloud
                .search(&Query::new(&stream[1024..1280]).unwrap())
                .unwrap();
            cloud
                .mdb()
                .with_read(|mdb| tracker.load(&set, mdb))
                .unwrap();
            fleet.add_session(format!("p{i}"), tracker.clone());
            inline.add_session(format!("p{i}"), tracker.clone());
            serial.push(tracker);
        }
        for second in 5..8 {
            let inputs: Vec<&[f32]> = streams
                .iter()
                .map(|s| &s[second * 256..(second + 1) * 256])
                .collect();
            let tick = fleet.tick(&inputs).unwrap();
            assert_eq!(tick, inline.tick(&inputs).unwrap());
            assert_eq!(tick.reports.len(), 5);
            for (i, tracker) in serial.iter_mut().enumerate() {
                let expected = tracker.step(inputs[i]).unwrap();
                assert_eq!(tick.reports[i], expected, "session {i} second {second}");
            }
            assert!(tick.refreshed.is_empty());
        }
        for (session, tracker) in fleet.sessions().iter().zip(&serial) {
            assert_eq!(session.tracker().tracked(), tracker.tracked());
        }
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let mut fleet = EdgeFleet::new(2);
        fleet.add_session("p0", EdgeTracker::new(EdgeConfig::default()));
        let second = vec![0.0f32; 256];
        let inputs: Vec<&[f32]> = vec![&second, &second];
        assert!(matches!(
            fleet.tick(&inputs),
            Err(EmapError::FleetSizeMismatch {
                sessions: 1,
                inputs: 2
            })
        ));
    }

    #[test]
    fn empty_fleet_ticks_to_nothing() {
        let mut fleet = EdgeFleet::new(4);
        let tick = fleet.tick(&[]).unwrap();
        assert!(tick.reports.is_empty());
        assert_eq!(tick.mean_probability(), 0.0);
        assert_eq!(tick.windows_evaluated(), 0);
    }

    #[test]
    fn serve_refreshes_sessions_below_h() {
        let (cloud, factory) = cloud();
        let stream = patient_seconds(&factory, "p0");
        // Empty trackers are below any H ≥ 1 → serve must re-call the
        // cloud for both sessions and install fresh correlation sets.
        let mut fleet = EdgeFleet::new(2);
        fleet.add_session("p0", EdgeTracker::new(EdgeConfig::default()));
        fleet.add_session("p1", EdgeTracker::new(EdgeConfig::default()));
        let inputs: Vec<&[f32]> = vec![&stream[1024..1280], &stream[1280..1536]];
        let tick = fleet.serve_with(&cloud, &inputs).unwrap();
        assert_eq!(tick.refreshed, vec![0, 1]);
        for session in fleet.sessions() {
            assert!(!session.tracker().is_empty());
        }
        // A loaded fleet that stays above H is not refreshed again.
        let tick2 = fleet.serve_with(&cloud, &inputs).unwrap();
        for (i, report) in tick2.reports.iter().enumerate() {
            assert_eq!(report.needs_cloud_call, tick2.refreshed.contains(&i));
        }
    }

    /// A cloud endpoint whose transport is down: every refresh fails with
    /// [`EmapError::Transport`].
    struct DeadCloud;

    impl CloudEndpoint for DeadCloud {
        fn refresh_batch(
            &self,
            queries: &[Query],
            _trackers: &mut [&mut EdgeTracker],
        ) -> Vec<Result<(), EmapError>> {
            let refused = || EmapError::Transport {
                detail: "connection refused".into(),
            };
            queries.iter().map(|_| Err(refused())).collect()
        }
    }

    /// A cloud endpoint that fails with a *non*-transport error.
    struct BrokenCloud;

    impl CloudEndpoint for BrokenCloud {
        fn refresh_batch(
            &self,
            queries: &[Query],
            _trackers: &mut [&mut EdgeTracker],
        ) -> Vec<Result<(), EmapError>> {
            let bad = || EmapError::Search(emap_search::SearchError::BadQueryLength { got: 1 });
            queries.iter().map(|_| Err(bad())).collect()
        }
    }

    #[test]
    fn unreachable_cloud_degrades_instead_of_failing() {
        let (cloud, factory) = cloud();
        let stream = patient_seconds(&factory, "p0");

        // Load a real session first, then cut the cloud: the session must
        // keep tracking its local set through degraded ticks.
        let mut fleet = EdgeFleet::new(2);
        fleet.add_session("p0", EdgeTracker::new(EdgeConfig::default()));
        // An empty second session stays below H forever → needs the cloud
        // every tick.
        fleet.add_session("p1", EdgeTracker::new(EdgeConfig::default()));
        let inputs: Vec<&[f32]> = vec![&stream[1024..1280], &stream[1024..1280]];
        let tick = fleet.serve_with(&cloud, &inputs).unwrap();
        assert_eq!(tick.refreshed, vec![0, 1]);
        let tracked_before = fleet.sessions()[0].tracker().len();
        assert!(tracked_before > 0);

        let inputs2: Vec<&[f32]> = vec![&stream[1280..1536], &stream[1280..1536]];
        let tick2 = fleet.serve_with(&DeadCloud, &inputs2).unwrap();
        // No error, full per-session reports, and every session that needed
        // the cloud is flagged degraded rather than refreshed.
        assert_eq!(tick2.reports.len(), 2);
        assert!(tick2.refreshed.is_empty());
        assert_eq!(tick2.degraded, tick2.needing_cloud());
        // Session 0 kept its (possibly shrunk) local set and still tracks.
        assert!(fleet.sessions()[0].tracker().len() <= tracked_before);

        // The cloud comes back: the next serve refreshes the starved
        // sessions and the fleet exits degraded mode.
        let tick3 = fleet.serve_with(&cloud, &inputs2).unwrap();
        assert!(tick3.degraded.is_empty());
        assert_eq!(tick3.refreshed, tick3.needing_cloud());
        assert!(!fleet.sessions()[1].tracker().is_empty());
    }

    /// Serves a batch as one batch-of-one `refresh` per session against an
    /// inner [`CloudService`], pinning that sharing a sweep changes no
    /// decisions.
    struct OneByOne(CloudService);

    impl CloudEndpoint for OneByOne {
        fn refresh_batch(
            &self,
            queries: &[Query],
            trackers: &mut [&mut EdgeTracker],
        ) -> Vec<Result<(), EmapError>> {
            queries
                .iter()
                .zip(trackers.iter_mut())
                .map(|(query, tracker)| self.0.refresh(query, tracker))
                .collect()
        }
    }

    #[test]
    fn batched_serve_matches_per_session_refresh() {
        let (cloud, factory) = cloud();
        let streams: Vec<Vec<f32>> = (0..4)
            .map(|i| patient_seconds(&factory, &format!("p{i}")))
            .collect();

        let mut batched = EdgeFleet::new(2);
        for i in 0..4 {
            batched.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
        }
        let mut looped = batched.clone();
        let one_by_one = OneByOne(cloud.clone());

        for second in 4..8 {
            let inputs: Vec<&[f32]> = streams
                .iter()
                .map(|s| &s[second * 256..(second + 1) * 256])
                .collect();
            let ta = batched.serve_with(&cloud, &inputs).unwrap();
            let tb = looped.serve_with(&one_by_one, &inputs).unwrap();
            assert_eq!(ta, tb, "second {second}");
        }
        for (a, b) in batched.sessions().iter().zip(looped.sessions()) {
            assert_eq!(a.tracker().tracked(), b.tracker().tracked());
        }
    }

    /// Serves refreshes from an inner [`CloudService`], logging each call:
    /// whether it was the overlapped one, and the seconds it carried.
    struct Logged {
        inner: CloudService,
        calls: std::cell::RefCell<Vec<(bool, Vec<Vec<f32>>)>>,
    }

    impl Logged {
        fn new(inner: CloudService) -> Self {
            Logged {
                inner,
                calls: Default::default(),
            }
        }

        fn note(&self, overlapped: bool, queries: &[Query]) {
            let seconds = queries.iter().map(|q| q.samples().to_vec()).collect();
            self.calls.borrow_mut().push((overlapped, seconds));
        }

        /// The calls so far, each second named by the session it fed.
        fn sessions(&self, inputs: &[&[f32]]) -> Vec<(bool, Vec<usize>)> {
            let session = |second: &Vec<f32>| {
                inputs
                    .iter()
                    .position(|input| input == second)
                    .expect("every query is one session's second")
            };
            self.calls
                .borrow()
                .iter()
                .map(|(overlapped, seconds)| (*overlapped, seconds.iter().map(session).collect()))
                .collect()
        }
    }

    impl CloudEndpoint for Logged {
        fn refresh_batch(
            &self,
            queries: &[Query],
            trackers: &mut [&mut EdgeTracker],
        ) -> Vec<Result<(), EmapError>> {
            self.note(false, queries);
            self.inner.refresh_batch(queries, trackers)
        }

        fn refresh_batch_overlapped(
            &self,
            queries: &[Query],
            trackers: &mut [&mut EdgeTracker],
            meanwhile: &mut dyn FnMut(),
        ) -> Vec<Result<(), EmapError>> {
            self.note(true, queries);
            self.inner
                .refresh_batch_overlapped(queries, trackers, meanwhile)
        }
    }

    #[test]
    fn serve_refreshes_the_frequent_caller_first_and_the_rest_late() {
        let (cloud, factory) = cloud();
        let streams: Vec<Vec<f32>> = (0..3)
            .map(|i| patient_seconds(&factory, &format!("p{i}")))
            .collect();
        let mut fleet = EdgeFleet::new(2);
        for i in 0..3 {
            fleet.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
        }
        // Sessions 1 and 2 have needed the cloud twice, session 0 never:
        // they step in the order 1, 2, 0.
        fleet.sessions[1].cloud_ticks = 2;
        fleet.sessions[2].cloud_ticks = 2;
        let mut serial = fleet.clone();
        let inputs: Vec<&[f32]> = streams.iter().map(|s| &s[1024..1280]).collect();

        let logged = Logged::new(cloud.clone());
        let tick = fleet.serve_with(&logged, &inputs).unwrap();
        // Empty trackers all need the cloud: session 1's refresh goes out
        // first, 2 and 0 are found while it is in flight and go out in one
        // late batch, in session order.
        assert_eq!(
            logged.sessions(&inputs),
            vec![(true, vec![1]), (false, vec![0, 2])]
        );
        assert_eq!(tick.refreshed, vec![0, 1, 2]);
        let counts: Vec<u64> = fleet.sessions().iter().map(|s| s.cloud_ticks).collect();
        assert_eq!(counts, vec![1, 3, 3]);

        // The same tick stepped whole and then refreshed session by session.
        let mut expected = serial.tick(&inputs).unwrap();
        for i in expected.needing_cloud() {
            let tracker = serial.session_mut(i).unwrap().tracker_mut();
            cloud
                .refresh(&Query::new(inputs[i]).unwrap(), tracker)
                .unwrap();
            expected.refreshed.push(i);
        }
        assert_eq!(tick, expected);
        for (a, b) in fleet.sessions().iter().zip(serial.sessions()) {
            assert_eq!(a.tracker().save_state(), b.tracker().save_state());
        }
    }

    #[test]
    fn a_step_error_is_ticks_error_and_the_issued_refresh_is_applied() {
        let (cloud, factory) = cloud();
        let stream = patient_seconds(&factory, "p0");
        let mut fleet = EdgeFleet::new(1);
        for i in 0..4 {
            fleet.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
        }
        // Session 3 steps first; sessions 1 and 2 are fed malformed seconds.
        fleet.sessions[3].cloud_ticks = 1;
        let inputs: Vec<&[f32]> = vec![
            &stream[1024..1280],
            &stream[..255],
            &stream[..257],
            &stream[1280..1536],
        ];
        let expected = fleet.clone().tick(&inputs).unwrap_err();

        let logged = Logged::new(cloud);
        let err = fleet.serve_with(&logged, &inputs).unwrap_err();
        // The first failing session in session order, as `tick` reports it.
        assert!(matches!(
            err,
            EmapError::Edge(EdgeError::BadInputLength { got: 255 })
        ));
        assert_eq!(err.to_string(), expected.to_string());
        // Session 3's refresh was in flight when the bad steps were found:
        // it is applied. Session 0 needed the cloud too, but no late batch
        // goes out.
        assert_eq!(logged.sessions(&inputs), vec![(true, vec![3])]);
        assert!(!fleet.sessions()[3].tracker().is_empty());
        assert!(fleet.sessions()[0].tracker().is_empty());
    }

    #[test]
    fn non_transport_refresh_failure_still_aborts() {
        let mut fleet = EdgeFleet::new(2);
        fleet.add_session("p0", EdgeTracker::new(EdgeConfig::default()));
        let second = vec![1.0f32; 255]
            .into_iter()
            .chain([2.0])
            .collect::<Vec<_>>();
        let inputs: Vec<&[f32]> = vec![&second];
        let err = fleet.serve_with(&BrokenCloud, &inputs).unwrap_err();
        assert!(matches!(err, EmapError::Search(_)));
    }

    #[test]
    fn instrumented_fleet_matches_bare_fleet_and_counts() {
        let (cloud, factory) = cloud();
        let streams: Vec<Vec<f32>> = (0..3)
            .map(|i| patient_seconds(&factory, &format!("p{i}")))
            .collect();

        let registry = Registry::new();
        let mut bare = EdgeFleet::new(2);
        for i in 0..3 {
            bare.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
        }
        let mut instrumented = bare.clone().with_telemetry(&registry);

        let (mut ticks, mut resolved) = (0u64, 0u64);
        for second in 4..7 {
            let inputs: Vec<&[f32]> = streams
                .iter()
                .map(|s| &s[second * 256..(second + 1) * 256])
                .collect();
            let ta = bare.serve_with(&cloud, &inputs).unwrap();
            let tb = instrumented.serve_with(&cloud, &inputs).unwrap();
            assert_eq!(ta, tb, "telemetry changed a decision at {second}");
            ticks += 1;
            resolved += tb.reports.iter().map(|r| r.area_resolved).sum::<u64>();
        }

        assert_eq!(registry.counter("fleet_ticks_total").get(), ticks);
        assert_eq!(registry.gauge("fleet_sessions").get(), 3);
        assert!(registry.counter("fleet_refreshes_total").get() >= 3);
        assert_eq!(registry.counter("fleet_degraded_sessions_total").get(), 0);
        let evaluated = registry.counter("fleet_windows_evaluated_total").get();
        assert!(evaluated > 0);
        // Every scored window reads at least one block, and the exits keep
        // the mean well short of a whole window's eight.
        let blocks = registry.counter("fleet_area_blocks_total").get();
        assert!(
            evaluated <= blocks && blocks < 8 * evaluated,
            "{blocks} blocks"
        );
        // The windows the grid left to `f64`: the counter is the reports'
        // sum, and every kept window is among them.
        assert_eq!(
            registry.counter("fleet_area_resolved_total").get(),
            resolved
        );
        assert!(0 < resolved && resolved <= evaluated, "{resolved} resolved");
        let tracked: i64 = instrumented
            .sessions()
            .iter()
            .map(|s| s.tracker().len() as i64)
            .sum();
        assert_eq!(registry.gauge("fleet_tracked_signals").get(), tracked);
        assert_eq!(
            registry.histogram("fleet_tick_nanos").snapshot().count(),
            ticks
        );
    }

    #[test]
    fn gated_fleet_masks_artifact_seconds() {
        let (cloud, factory) = cloud();
        let stream = patient_seconds(&factory, "p0");

        let mut fleet = EdgeFleet::new(2).with_quality_gate(emap_quality::QualityGate::default());
        assert!(fleet.quality_gate().is_some());
        fleet.add_session("p0", EdgeTracker::new(EdgeConfig::default()));
        fleet.add_session("p1", EdgeTracker::new(EdgeConfig::default()));

        // Load both sessions from clean signal first.
        let clean: Vec<&[f32]> = vec![&stream[1024..1280], &stream[1280..1536]];
        let tick = fleet.serve_with(&cloud, &clean).unwrap();
        assert!(tick.artifacts.is_empty(), "clean EEG must pass the gate");
        assert_eq!(tick.refreshed, vec![0, 1]);

        // Session 1 gets a saturated second (amplifier slamming between
        // the rails); session 0 stays clean.
        let railed: Vec<f32> = (0..256)
            .map(|i| if (i / 64) % 2 == 0 { 500.0 } else { -500.0 })
            .collect();
        let before: Vec<_> = fleet.sessions()[1].tracker().tracked().to_vec();
        let p_before = fleet.sessions()[1].tracker().probability();
        let mixed: Vec<&[f32]> = vec![&stream[1536..1792], &railed];
        let tick2 = fleet.serve_with(&cloud, &mixed).unwrap();

        assert_eq!(tick2.artifacts.len(), 1);
        let (idx, kind) = tick2.artifacts[0];
        assert_eq!(idx, 1);
        assert_eq!(kind, emap_quality::ArtifactKind::Saturation);
        // The masked session is frozen: nothing pruned, P_A untouched,
        // no cloud call, and the tracked set byte-identical.
        let masked = &tick2.reports[1];
        assert_eq!(masked.removed, 0);
        assert_eq!(masked.windows_evaluated, 0);
        assert!(!masked.needs_cloud_call);
        assert_eq!(masked.probability, p_before);
        assert_eq!(fleet.sessions()[1].tracker().tracked(), &before[..]);
        // The clean session stepped normally.
        assert!(tick2.reports[0].windows_evaluated > 0);
    }

    #[test]
    fn gate_masks_even_a_below_h_session() {
        // An empty (below-H) session fed an artifact second must NOT call
        // the cloud with it — the refresh waits for clean signal.
        let (cloud, factory) = cloud();
        let stream = patient_seconds(&factory, "p0");
        let mut fleet = EdgeFleet::new(1).with_quality_gate(emap_quality::QualityGate::default());
        fleet.add_session("p0", EdgeTracker::new(EdgeConfig::default()));

        let flat = vec![0.0f32; 256];
        let inputs: Vec<&[f32]> = vec![&flat];
        let tick = fleet.serve_with(&cloud, &inputs).unwrap();
        assert_eq!(
            tick.artifacts,
            vec![(0, emap_quality::ArtifactKind::Flatline)]
        );
        assert!(tick.refreshed.is_empty());
        assert!(fleet.sessions()[0].tracker().is_empty());

        // Clean signal arrives: the deferred refresh happens now.
        let inputs2: Vec<&[f32]> = vec![&stream[1024..1280]];
        let tick2 = fleet.serve_with(&cloud, &inputs2).unwrap();
        assert!(tick2.artifacts.is_empty());
        assert_eq!(tick2.refreshed, vec![0]);
        assert!(!fleet.sessions()[0].tracker().is_empty());
    }

    #[test]
    fn ungated_fleet_reports_no_artifacts() {
        let mut fleet = EdgeFleet::new(2);
        assert!(fleet.quality_gate().is_none());
        fleet.add_session("p0", EdgeTracker::new(EdgeConfig::default()));
        let railed = vec![500.0f32; 256];
        let inputs: Vec<&[f32]> = vec![&railed];
        let tick = fleet.tick(&inputs).unwrap();
        assert!(tick.artifacts.is_empty());
    }

    #[test]
    fn more_workers_than_sessions_is_fine() {
        let (cloud, factory) = cloud();
        let stream = patient_seconds(&factory, "solo");
        let mut fleet = EdgeFleet::new(64);
        fleet.add_session("solo", EdgeTracker::new(EdgeConfig::default()));
        let tick = fleet.serve_with(&cloud, &[&stream[1024..1280]]).unwrap();
        assert_eq!(tick.reports.len(), 1);
        assert_eq!(fleet.len(), 1);
        assert!(!fleet.is_empty());
        assert_eq!(fleet.sessions()[0].patient(), "solo");
    }
}
