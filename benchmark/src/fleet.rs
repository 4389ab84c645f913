//! The fleet cycle shared by `edge_only`, `fleet_remote` and `ingest_mixed`:
//! one fixed script of [`TICKS`] fleet-seconds over eight patient sessions.
//!
//! Design rule 2: a cycle always starts from the same state (empty
//! trackers, the acquisition filters as the lead-in left them) and runs the
//! same ops, so every complete cycle is the same multiset of work.

use std::time::Instant;

use emap_core::{Acquisition, CloudEndpoint, EdgeFleet, EmapError, FleetTick, IngestOutcome};
use emap_edge::{AnomalyPredictor, EdgeConfig, EdgeTracker, PaHistory, StepReport, TrackerState};
use emap_quality::{ArtifactKind, QualityGate};
use emap_search::Query;

use crate::content::{self, Arrangement, FeedItem, Patient, INGESTS_PER_TICK, SESSIONS, TICKS};
use crate::stats::Digest;
use crate::trace::{Recorder, Span};

/// The op script of one arrangement.
#[derive(Debug)]
pub struct Script {
    /// Patients in session order.
    pub patients: Vec<Patient>,
    artifact_seconds: [Vec<f32>; 3],
    /// `artifact_at[tick][session]`: which artifact second replaces the
    /// filtered one, if any.
    artifact_at: Vec<[Option<usize>; SESSIONS]>,
    /// Live-ingest feed, [`INGESTS_PER_TICK`] slices per tick; empty for
    /// workloads that do not ingest.
    pub feed: Vec<FeedItem>,
}

impl Script {
    pub fn new(patients: &[Patient], feed: Vec<FeedItem>, arrangement: &Arrangement) -> Self {
        let artifact_at = (0..TICKS)
            .map(|tick| {
                let mut row = [None; SESSIONS];
                for (session, &p) in arrangement.sessions.iter().enumerate() {
                    row[session] = arrangement.artifact(p, &patients[p].artifact_ticks, tick);
                }
                row
            })
            .collect();
        Script {
            patients: arrangement
                .sessions
                .iter()
                .map(|&p| patients[p].clone())
                .collect(),
            artifact_seconds: content::artifact_seconds(),
            artifact_at,
            feed,
        }
    }

    fn raw(&self, session: usize, tick: usize) -> &[f32] {
        let n = emap_dsp::SAMPLES_PER_SECOND;
        &self.patients[session].raw[tick * n..(tick + 1) * n]
    }

    /// What the tracker is fed: the filtered second, or the scheduled
    /// artifact second in its place.
    fn input<'a>(&'a self, session: usize, tick: usize, filtered: &'a [f32]) -> &'a [f32] {
        match self.artifact_at[tick][session] {
            Some(kind) => &self.artifact_seconds[kind],
            None => filtered,
        }
    }

    fn feed_at(&self, tick: usize) -> &[FeedItem] {
        if self.feed.is_empty() {
            &[]
        } else {
            &self.feed[tick * INGESTS_PER_TICK..(tick + 1) * INGESTS_PER_TICK]
        }
    }

    pub fn scheduled_artifacts(&self) -> usize {
        self.artifact_at.iter().flatten().flatten().count()
    }
}

/// What the cloud made of one live-ingest slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestResult {
    Stored,
    Rejected,
    /// Transport or server failure.
    Failed,
}

impl From<IngestOutcome> for IngestResult {
    fn from(outcome: IngestOutcome) -> Self {
        match outcome {
            IngestOutcome::Stored(_) => IngestResult::Stored,
            IngestOutcome::Rejected(_) => IngestResult::Rejected,
        }
    }
}

pub type IngestFn<'a> = &'a dyn Fn(&FeedItem) -> IngestResult;

/// Where a session's fresh correlation set comes from.
pub enum Refresh<'a> {
    /// `edge_only`: no cloud. After each tick the sessions the reference run
    /// refreshed there get the tracked set that refresh installed.
    Restore(&'a [Vec<(usize, TrackerState)>]),
    Endpoint(&'a dyn CloudEndpoint),
}

/// Everything one cycle observed.
#[derive(Debug, Default)]
pub struct CycleLog {
    /// Wall time of each op (one fleet-second).
    pub op_ns: Vec<u64>,
    /// Decision digest of each op.
    pub tick_digest: Vec<u64>,
    /// Sessions refreshed (or restored) after each op.
    pub refreshed: Vec<usize>,
    pub degraded_ticks: usize,
    /// Ingests that failed or that the gate judged against the feed's label.
    pub ingest_wrong: usize,
    pub ingest_rejected: usize,
    /// Ticks on which the edge gate masked other sessions than scheduled.
    pub gate_wrong: usize,
    /// Whether the default predictor ever called a session's `P_A` history
    /// anomalous.
    pub alarms: [bool; SESSIONS],
    /// Tracked sets installed by refreshes, per tick (reference runs only).
    pub saved: Vec<Vec<(usize, TrackerState)>>,
    pub steps: u64,
    pub masked: u64,
    pub tracked_sum: u64,
    pub windows_evaluated: u64,
    pub windows_pruned: u64,
}

impl CycleLog {
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for &t in &self.tick_digest {
            d.word(t);
        }
        d.value()
    }

    /// Ops whose decisions differ from the reference cycle's.
    pub fn failed_against(&self, reference: &CycleLog) -> usize {
        self.tick_digest
            .iter()
            .zip(&reference.tick_digest)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Books one finished op: its decision digest, whether the gate masked
    /// what was scheduled, and the trackers' counters.
    fn note_tick(
        &mut self,
        script: &Script,
        tick: usize,
        reports: &[StepReport],
        refreshed: &[usize],
        artifacts: &[(usize, ArtifactKind)],
        ingests: &[IngestResult],
    ) {
        let masked = artifacts.iter().map(|&(s, _)| s);
        let scheduled = (0..SESSIONS).filter(|&s| script.artifact_at[tick][s].is_some());
        self.gate_wrong += usize::from(!masked.eq(scheduled));
        self.steps += (reports.len() - artifacts.len()) as u64;
        self.masked += artifacts.len() as u64;
        for r in reports {
            self.tracked_sum += r.tracked as u64;
            self.windows_evaluated += r.windows_evaluated;
            self.windows_pruned += r.windows_pruned;
        }
        self.refreshed.push(refreshed.len());
        self.tick_digest
            .push(hash_tick(tick, reports, refreshed, artifacts, ingests));
    }
}

fn artifact_code(kind: ArtifactKind) -> u64 {
    1 + ArtifactKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("ALL lists every archetype") as u64
}

/// The per-op decision digest: `tick, session, P_A bits, tracked,
/// refreshed, artifact kind`, then the outcome of each ingest.
fn hash_tick(
    tick: usize,
    reports: &[StepReport],
    refreshed: &[usize],
    artifacts: &[(usize, ArtifactKind)],
    ingests: &[IngestResult],
) -> u64 {
    let mut d = Digest::new();
    d.word(tick as u64);
    for (s, r) in reports.iter().enumerate() {
        d.word(s as u64);
        d.word(r.probability.to_bits());
        d.word(r.tracked as u64);
        d.word(u64::from(refreshed.contains(&s)));
        d.word(
            artifacts
                .iter()
                .find(|(i, _)| *i == s)
                .map_or(0, |&(_, k)| artifact_code(k)),
        );
    }
    for &i in ingests {
        d.word(i as u64);
    }
    d.value()
}

/// Per-session alarm state over one cycle.
struct Alarms {
    predictor: AnomalyPredictor,
    history: Vec<PaHistory>,
    raised: [bool; SESSIONS],
}

impl Alarms {
    fn new() -> Self {
        Alarms {
            predictor: AnomalyPredictor::default(),
            history: vec![PaHistory::new(); SESSIONS],
            raised: [false; SESSIONS],
        }
    }

    fn note(&mut self, reports: &[StepReport]) {
        for (s, r) in reports.iter().enumerate() {
            self.history[s].push(r.probability);
            self.raised[s] |= self.predictor.classify(&self.history[s]).is_anomaly();
        }
    }
}

fn run_ingests(
    script: &Script,
    tick: usize,
    ingest: Option<IngestFn<'_>>,
    log: &mut CycleLog,
    mut around: impl FnMut(&mut dyn FnMut() -> IngestResult) -> IngestResult,
) -> Vec<IngestResult> {
    let Some(ingest) = ingest else {
        return Vec::new();
    };
    script
        .feed_at(tick)
        .iter()
        .map(|item| {
            let result = around(&mut || ingest(item));
            let expected = if item.flatline {
                IngestResult::Rejected
            } else {
                IngestResult::Stored
            };
            log.ingest_wrong += usize::from(result != expected);
            log.ingest_rejected += usize::from(result == IngestResult::Rejected);
            result
        })
        .collect()
}

/// The fleet as the program runs it: `EdgeFleet` over one worker, gate on.
pub struct Rig {
    fleet: EdgeFleet,
    acquisitions: Vec<Acquisition>,
}

impl Rig {
    pub fn new(script: &Script) -> Self {
        // Design rule 3: one fleet worker, so the client never has more
        // than one runnable thread.
        let mut fleet = EdgeFleet::new(1).with_quality_gate(QualityGate::default());
        for s in 0..SESSIONS {
            fleet.add_session(
                format!("session-{s}"),
                EdgeTracker::new(EdgeConfig::default()),
            );
        }
        let mut rig = Rig {
            fleet,
            acquisitions: Vec::new(),
        };
        rig.reset(script);
        rig
    }

    /// Back to the state every cycle starts from.
    pub fn reset(&mut self, script: &Script) {
        self.acquisitions = script
            .patients
            .iter()
            .map(|p| p.acquisition.clone())
            .collect();
        for s in 0..SESSIONS {
            self.fleet
                .session_mut(s)
                .expect("session exists")
                .tracker_mut()
                .restore_state(TrackerState::default());
        }
    }

    /// The first tracked-set load, as set-up performs it: tick 0 from empty
    /// trackers, which sends every session to the cloud. Returns how many
    /// sessions came back loaded and leaves the rig reset.
    pub fn first_load(
        &mut self,
        script: &Script,
        cloud: &dyn CloudEndpoint,
    ) -> Result<usize, EmapError> {
        let log = self.run_ticks(script, &Refresh::Endpoint(cloud), None, false, 1)?;
        self.reset(script);
        Ok(log.refreshed[0])
    }

    /// Runs one cycle through `EdgeFleet`, timing each op from outside.
    pub fn run_cycle(
        &mut self,
        script: &Script,
        refresh: &Refresh<'_>,
        ingest: Option<IngestFn<'_>>,
        save_states: bool,
    ) -> Result<CycleLog, EmapError> {
        self.run_ticks(script, refresh, ingest, save_states, TICKS)
    }

    fn run_ticks(
        &mut self,
        script: &Script,
        refresh: &Refresh<'_>,
        ingest: Option<IngestFn<'_>>,
        save_states: bool,
        ticks: usize,
    ) -> Result<CycleLog, EmapError> {
        let mut log = CycleLog::default();
        let mut alarms = Alarms::new();
        for tick in 0..ticks {
            let started = Instant::now();
            let ingests = run_ingests(script, tick, ingest, &mut log, |f| f());
            let filtered: Vec<Vec<f32>> = self
                .acquisitions
                .iter_mut()
                .enumerate()
                .map(|(s, a)| a.process_second(script.raw(s, tick)))
                .collect();
            let inputs: Vec<&[f32]> = filtered
                .iter()
                .enumerate()
                .map(|(s, f)| script.input(s, tick, f))
                .collect();
            let mut outcome: FleetTick = match refresh {
                Refresh::Restore(_) => self.fleet.tick(&inputs)?,
                Refresh::Endpoint(cloud) => self.fleet.serve_with(*cloud, &inputs)?,
            };
            log.op_ns.push(started.elapsed().as_nanos() as u64);

            if let Refresh::Restore(saved) = refresh {
                for (s, state) in &saved[tick] {
                    self.tracker_mut(*s).restore_state(state.clone());
                    outcome.refreshed.push(*s);
                }
            }
            if save_states {
                log.saved.push(
                    outcome
                        .refreshed
                        .iter()
                        .map(|&s| (s, self.fleet.sessions()[s].tracker().save_state()))
                        .collect(),
                );
            }
            log.degraded_ticks += usize::from(!outcome.degraded.is_empty());
            log.note_tick(
                script,
                tick,
                &outcome.reports,
                &outcome.refreshed,
                &outcome.artifacts,
                &ingests,
            );
            alarms.note(&outcome.reports);
        }
        log.alarms = alarms.raised;
        Ok(log)
    }

    fn tracker_mut(&mut self, session: usize) -> &mut EdgeTracker {
        self.fleet
            .session_mut(session)
            .expect("session exists")
            .tracker_mut()
    }
}

/// The traced fleet: the same script driven through `Acquisition`,
/// `QualityGate` and `EdgeTracker::step` directly, one span per call, so
/// each layer's share of an op is visible from outside the program. Its
/// decision digest must equal the `EdgeFleet` run's.
pub struct TracedRig {
    gate: QualityGate,
    trackers: Vec<EdgeTracker>,
    acquisitions: Vec<Acquisition>,
}

impl TracedRig {
    pub fn new(script: &Script) -> Self {
        let mut rig = TracedRig {
            gate: QualityGate::default(),
            trackers: Vec::new(),
            acquisitions: Vec::new(),
        };
        rig.reset(script);
        rig
    }

    pub fn reset(&mut self, script: &Script) {
        self.acquisitions = script
            .patients
            .iter()
            .map(|p| p.acquisition.clone())
            .collect();
        self.trackers = (0..SESSIONS)
            .map(|_| EdgeTracker::new(EdgeConfig::default()))
            .collect();
    }

    /// Runs one cycle, one span per call into a layer; also returns the span
    /// ids of the calls to the cloud endpoint, in call order.
    pub fn run_cycle(
        &mut self,
        script: &Script,
        refresh: &Refresh<'_>,
        ingest: Option<IngestFn<'_>>,
        rec: &mut Recorder,
        first_op_id: u32,
    ) -> Result<(CycleLog, Vec<u32>), EmapError> {
        let mut log = CycleLog::default();
        let mut refresh_spans = Vec::new();
        let mut alarms = Alarms::new();
        for tick in 0..TICKS {
            let op_id = first_op_id + tick as u32;
            let started = Instant::now();
            let op = rec.begin("op", crate::trace::NO_PARENT, op_id);
            let ingests = run_ingests(script, tick, ingest, &mut log, |f| {
                rec.span("cloud.ingest", op, op_id, f)
            });

            let mut filtered = Vec::with_capacity(SESSIONS);
            let mut reports = Vec::with_capacity(SESSIONS);
            let mut artifacts = Vec::new();
            for s in 0..SESSIONS {
                let acquisition = &mut self.acquisitions[s];
                filtered.push(rec.span("dsp.process_second", op, op_id, || {
                    acquisition.process_second(script.raw(s, tick))
                }));
            }
            for (s, second) in filtered.iter().enumerate() {
                let input = script.input(s, tick, second);
                let verdict = rec.span("quality.assess_second", op, op_id, || {
                    self.gate.assess_second(input)
                });
                match verdict.artifact() {
                    Some(kind) => {
                        artifacts.push((s, kind));
                        reports.push(self.trackers[s].masked_report());
                    }
                    None => {
                        let tracker = &mut self.trackers[s];
                        reports.push(
                            rec.span("edge.step", op, op_id, || tracker.step(input))
                                .map_err(EmapError::Edge)?,
                        );
                    }
                }
            }

            let needing: Vec<usize> = (0..SESSIONS)
                .filter(|&s| reports[s].needs_cloud_call)
                .collect();
            let mut refreshed = Vec::new();
            let mut degraded = false;
            if let (Refresh::Endpoint(cloud), false) = (refresh, needing.is_empty()) {
                let queries = rec.span("search.query_new", op, op_id, || {
                    needing
                        .iter()
                        .map(|&s| Query::new(script.input(s, tick, &filtered[s])))
                        .collect::<Result<Vec<_>, _>>()
                })?;
                let mut trackers: Vec<&mut EdgeTracker> = self
                    .trackers
                    .iter_mut()
                    .enumerate()
                    .filter(|(s, _)| needing.contains(s))
                    .map(|(_, t)| t)
                    .collect();
                let call = rec.begin(
                    "cloud.refresh",
                    op.unwrap_or(crate::trace::NO_PARENT),
                    op_id,
                );
                let outcomes = cloud.refresh_batch(&queries, &mut trackers);
                rec.end(call);
                refresh_spans.extend(call);
                for (&s, outcome) in needing.iter().zip(outcomes) {
                    match outcome {
                        Ok(()) => refreshed.push(s),
                        Err(e) if e.is_transport() => degraded = true,
                        Err(e) => return Err(e),
                    }
                }
            }
            rec.end(op);
            log.op_ns.push(started.elapsed().as_nanos() as u64);

            if let Refresh::Restore(saved) = refresh {
                for (s, state) in &saved[tick] {
                    self.trackers[*s].restore_state(state.clone());
                    refreshed.push(*s);
                }
            }
            log.degraded_ticks += usize::from(degraded);
            log.note_tick(script, tick, &reports, &refreshed, &artifacts, &ingests);
            alarms.note(&reports);
        }
        log.alarms = alarms.raised;
        Ok((log, refresh_spans))
    }
}

/// Durations (µs) of the spans called `name`.
pub fn span_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && !s.replayed)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}
