//! Multi-patient cloud service.
//!
//! The paper's cloud hosts one mega-database that serves *many* wearables
//! at once — slicing the MDB exists precisely so searches can run in
//! parallel (§V-B). [`CloudService`] models that deployment: a shared,
//! concurrently-ingestible store plus a thread-parallel search endpoint
//! that multiple edge sessions call concurrently. Batches of sessions are
//! served against one consistent snapshot of the store
//! ([`CloudService::search_batch`]).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use emap_datasets::SignalClass;
use emap_edge::EdgeTracker;
use emap_mdb::{LiveInsert, Provenance, SharedMdb, SignalSet};
use emap_quality::{ArtifactKind, QualityGate, Verdict};
use emap_search::{BatchExecutor, CorrelationSet, Query, ScanKernel, SearchConfig, SearchError};

use crate::EmapError;

/// Most quarantine records kept for audit; older ones roll off.
const QUARANTINE_DEPTH: usize = 256;

/// Live-ingest policy for a [`CloudService`]: what the store accepts
/// and how it ages.
///
/// The default policy is the frozen-corpus behaviour the rest of the
/// repo was built on — no gate, no bound, every ingest appends.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestPolicy {
    /// When set, every ingested slice is assessed second by second
    /// ([`QualityGate::assess_slice`]) and artifact slices are
    /// quarantined instead of stored — they never enter a sweep.
    pub gate: Option<QualityGate>,
    /// When set, the store is capacity-bounded: at the bound, live
    /// ingest replaces the class-aware eviction victim in place
    /// ([`emap_mdb::Mdb::insert_bounded`]) instead of growing.
    pub capacity: Option<usize>,
}

impl IngestPolicy {
    /// Gate with default thresholds, bounded at `capacity` sets — the
    /// recommended live-deployment policy.
    #[must_use]
    pub fn gated(capacity: usize) -> Self {
        IngestPolicy {
            gate: Some(QualityGate::default()),
            capacity: Some(capacity),
        }
    }
}

/// What [`CloudService::ingest_live`] did with a slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The slice passed the gate (or no gate is set) and is now in the
    /// store.
    Stored(LiveInsert),
    /// The quality gate refused the slice; it was quarantined and no
    /// sweep will ever see it.
    Rejected(ArtifactKind),
}

/// Audit record of a quarantined slice (the samples are dropped — the
/// point of the gate is that artifact data never takes up residence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Why the gate refused it.
    pub kind: ArtifactKind,
    /// The label it arrived with.
    pub class: SignalClass,
    /// Where it claimed to come from.
    pub provenance: Provenance,
}

/// Anything an edge session can ask for a fresh correlation set: the
/// in-process [`CloudService`] or a remote server reached over a transport
/// (e.g. `emap_cloud::RemoteCloud`).
///
/// The contract is *decision equality*: given the same query against the
/// same store contents, every implementation must leave `tracker` in an
/// identical state — the transport may move bytes, but it must not move
/// decisions. Implementations signal an unreachable backend with
/// [`EmapError::Transport`] so callers ([`crate::EdgeFleet::serve_with`])
/// can degrade to local-only tracking instead of aborting.
///
/// A refresh may run beside the caller's own work
/// ([`CloudEndpoint::refresh_batch_overlapped`]); its answer must not
/// depend on when the caller reads it.
pub trait CloudEndpoint {
    /// Runs a fresh search for every query in one round-trip to the
    /// backend — one shared sweep, and remotely one wire exchange — and
    /// replaces each `trackers[i]`'s correlation set with the result for
    /// `queries[i]`. Returns one outcome per `(query, tracker)` pair in
    /// order; every pair is attempted, and a failure on one session is
    /// reported in its slot without short-circuiting the rest.
    ///
    /// Per slot: [`EmapError::Transport`] when the backend is
    /// unreachable; other variants for non-recoverable failures (bad
    /// query, search error, malformed response).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `queries.len() != trackers.len()`.
    fn refresh_batch(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
    ) -> Vec<Result<(), EmapError>>;

    /// [`CloudEndpoint::refresh_batch`], with `meanwhile` run exactly once
    /// while the refresh is in flight: how [`crate::EdgeFleet::serve_with`]
    /// keeps stepping its other sessions while the cloud searches. An
    /// endpoint that can overlap overrides this (the remote client sends
    /// the request, runs `meanwhile`, then reads the reply); the default
    /// runs `meanwhile`, then [`CloudEndpoint::refresh_batch`], so it
    /// decides exactly as the batch alone does.
    ///
    /// `meanwhile` must not call this endpoint: an implementation may hold
    /// its connection while `meanwhile` runs.
    ///
    /// # Panics
    ///
    /// As [`CloudEndpoint::refresh_batch`].
    fn refresh_batch_overlapped(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
        meanwhile: &mut dyn FnMut(),
    ) -> Vec<Result<(), EmapError>> {
        meanwhile();
        self.refresh_batch(queries, trackers)
    }

    /// Refreshes one session: [`CloudEndpoint::refresh_batch`] with a
    /// batch of one.
    ///
    /// # Errors
    ///
    /// The slot outcome of the one-entry batch.
    fn refresh(&self, query: &Query, tracker: &mut EdgeTracker) -> Result<(), EmapError> {
        self.refresh_batch(std::slice::from_ref(query), &mut [tracker])
            .pop()
            .expect("one outcome per query")
    }
}

/// A cloud node serving concurrent search requests over a shared,
/// still-growing mega-database.
///
/// Cloning the service is cheap (the store is shared); each clone can be
/// moved to its own thread.
///
/// # Example
///
/// ```
/// use emap_core::CloudService;
/// use emap_datasets::RecordingFactory;
/// use emap_mdb::MdbBuilder;
/// use emap_search::{Query, SearchConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let factory = RecordingFactory::new(1);
/// let mut builder = MdbBuilder::new();
/// builder.add_recording("d", &factory.normal_recording("r", 24.0))?;
/// let service = CloudService::new(SearchConfig::paper(), builder.build().into_shared(), 2);
///
/// let filtered = emap_dsp::emap_bandpass().filter(
///     factory.normal_recording("r", 24.0).channels()[0].samples(),
/// );
/// let t = service.search(&Query::new(&filtered[1024..1280])?)?;
/// assert!(!t.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CloudService {
    mdb: SharedMdb,
    search: BatchExecutor,
    policy: IngestPolicy,
    /// Rolling audit of gate rejections, shared across clones.
    quarantine: Arc<Mutex<VecDeque<Quarantined>>>,
}

impl CloudService {
    /// Creates a service over a shared store, fanning each search across
    /// `workers` threads.
    #[must_use]
    pub fn new(config: SearchConfig, mdb: SharedMdb, workers: usize) -> Self {
        CloudService {
            mdb,
            search: BatchExecutor::new(ScanKernel::Sliding, config).with_workers(workers),
            policy: IngestPolicy::default(),
            quarantine: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    /// Sets the live-ingest policy (builder style).
    #[must_use]
    pub fn with_ingest_policy(mut self, policy: IngestPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active live-ingest policy.
    #[must_use]
    pub fn ingest_policy(&self) -> &IngestPolicy {
        &self.policy
    }

    /// The shared mega-database handle.
    #[must_use]
    pub fn mdb(&self) -> &SharedMdb {
        &self.mdb
    }

    /// Attaches sweep telemetry to the search engine: every search this
    /// service runs — single, batched, or via [`CloudEndpoint`] — records
    /// its sweep latency and scan totals into `registry` (names prefixed
    /// `search_`). Results are unchanged; see
    /// [`emap_search::SweepTelemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, registry: &emap_telemetry::Registry) -> Self {
        self.search = self
            .search
            .with_telemetry(emap_search::SweepTelemetry::register(registry));
        self
    }

    /// Serves one search request against the current store contents.
    ///
    /// # Errors
    ///
    /// Propagates [`SearchError`] from the underlying algorithm.
    pub fn search(&self, query: &Query) -> Result<CorrelationSet, SearchError> {
        self.mdb.with_read(|mdb| self.search.search(query, mdb))
    }

    /// Serves a batch of search requests over **one consistent store
    /// snapshot**: the queries are served independently under one read
    /// guard, and results come back in query order, bitwise identical to
    /// per-query [`CloudService::search`] against the same snapshot.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SearchError`] from the underlying algorithm.
    pub fn search_batch(&self, queries: &[Query]) -> Result<Vec<CorrelationSet>, SearchError> {
        self.mdb.with_read(|mdb| self.search.sweep(queries, mdb))
    }

    /// Ingests a new signal-set while searches keep running (the paper's
    /// "Insertion" arrow in Fig. 3), applying the live-ingest policy and
    /// ignoring the outcome. Under the default policy this is a plain
    /// append; gated or bounded deployments should prefer
    /// [`CloudService::ingest_live`] and look at the result.
    pub fn ingest(&self, set: SignalSet) {
        let _ = self.ingest_live(set);
    }

    /// Live ingest under the configured [`IngestPolicy`]: the gate
    /// assesses the slice second by second (rejections are quarantined,
    /// never stored), then the set lands either by append or — at the
    /// capacity bound — by in-place class-aware replacement. The gate
    /// and the slice's statistics/spectra prewarm both run on the
    /// calling thread *before* the store's write lock is taken, so
    /// concurrent searches never stall behind an ingest.
    pub fn ingest_live(&self, set: SignalSet) -> IngestOutcome {
        if let Some(gate) = &self.policy.gate {
            if let Verdict::Artifact(kind) = gate.assess_slice(set.samples()) {
                let mut q = self.quarantine.lock().expect("quarantine lock poisoned");
                if q.len() == QUARANTINE_DEPTH {
                    q.pop_front();
                }
                q.push_back(Quarantined {
                    kind,
                    class: set.class(),
                    provenance: set.provenance().clone(),
                });
                return IngestOutcome::Rejected(kind);
            }
        }
        let landed = match self.policy.capacity {
            Some(capacity) => self.mdb.ingest_bounded(set, capacity),
            None => LiveInsert::Appended(self.mdb.insert(set)),
        };
        IngestOutcome::Stored(landed)
    }

    /// Snapshot of the quarantine audit trail (most recent last; the
    /// trail is bounded, older records roll off).
    #[must_use]
    pub fn quarantined(&self) -> Vec<Quarantined> {
        self.quarantine
            .lock()
            .expect("quarantine lock poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

impl CloudEndpoint for CloudService {
    /// One snapshot: all queries are searched through
    /// [`emap_search::BatchExecutor::sweep`] and every tracker is loaded
    /// under the same read guard — a concurrent [`CloudService::ingest`]
    /// cannot land between search and load, so the slices a tracker loads
    /// come from exactly the MDB snapshot the search ranked.
    fn refresh_batch(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
    ) -> Vec<Result<(), EmapError>> {
        assert_eq!(
            queries.len(),
            trackers.len(),
            "query/tracker count mismatch"
        );
        self.mdb.with_read(|mdb| {
            let sets = match self.search.sweep(queries, mdb) {
                Ok(sets) => sets,
                // A search error is per-batch here; report it in every slot
                // (SearchError is Clone) so no session silently succeeds.
                Err(e) => {
                    return queries
                        .iter()
                        .map(|_| Err(EmapError::Search(e.clone())))
                        .collect()
                }
            };
            sets.iter()
                .zip(trackers.iter_mut())
                .map(|(set, tracker)| {
                    tracker.load(set, mdb)?;
                    Ok(())
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_datasets::{RecordingFactory, SignalClass};
    use emap_mdb::Provenance;

    fn service() -> (CloudService, RecordingFactory) {
        let factory = RecordingFactory::new(8);
        (
            CloudService::new(
                SearchConfig::paper(),
                crate::test_corpus(8, 3).into_shared(),
                4,
            ),
            factory,
        )
    }

    fn query_from(factory: &RecordingFactory, id: &str) -> Query {
        let rec = factory.normal_recording(id, 8.0);
        let filtered = emap_dsp::emap_bandpass().filter(rec.channels()[0].samples());
        Query::new(&filtered[1024..1280]).unwrap()
    }

    fn filler_set(i: u64) -> SignalSet {
        SignalSet::new(
            vec![0.25; emap_mdb::SIGNAL_SET_LEN],
            SignalClass::Normal,
            Provenance {
                dataset_id: "live".into(),
                recording_id: format!("fill{i}"),
                channel: "c".into(),
                offset: 0,
            },
        )
        .unwrap()
    }

    #[test]
    fn serves_concurrent_patients() {
        let (service, factory) = service();
        let queries: Vec<Query> = (0..6)
            .map(|i| query_from(&factory, &format!("p{i}")))
            .collect();
        std::thread::scope(|scope| {
            for q in &queries {
                let service = service.clone();
                scope.spawn(move || {
                    let t = service.search(q).expect("search succeeds");
                    assert!(t.work().sets_scanned > 0);
                });
            }
        });
    }

    #[test]
    fn ingestion_is_visible_to_subsequent_searches() {
        let (service, factory) = service();
        let before = service.mdb().len();
        service.ingest(
            SignalSet::new(
                vec![0.5; emap_mdb::SIGNAL_SET_LEN],
                SignalClass::Stroke,
                Provenance {
                    dataset_id: "live".into(),
                    recording_id: "new".into(),
                    channel: "c".into(),
                    offset: 0,
                },
            )
            .unwrap(),
        );
        assert_eq!(service.mdb().len(), before + 1);
        // Search still works over the grown store: the indexed sweep either
        // scans or prunes every host, the new one included.
        let t = service.search(&query_from(&factory, "p0")).unwrap();
        assert_eq!(
            t.work().sets_scanned + t.work().hosts_pruned,
            (before + 1) as u64
        );
        assert!(t.work().sets_scanned > 0);
    }

    #[test]
    fn service_clones_share_the_store() {
        let (service, _) = service();
        let clone = service.clone();
        let before = clone.mdb().len();
        service.ingest(
            SignalSet::new(
                vec![0.0; emap_mdb::SIGNAL_SET_LEN],
                SignalClass::Normal,
                Provenance {
                    dataset_id: "live".into(),
                    recording_id: "x".into(),
                    channel: "c".into(),
                    offset: 0,
                },
            )
            .unwrap(),
        );
        assert_eq!(clone.mdb().len(), before + 1);
    }

    fn artifact_set(kind: &str) -> SignalSet {
        let samples: Vec<f32> = match kind {
            "flat" => vec![0.0; emap_mdb::SIGNAL_SET_LEN],
            _ => (0..emap_mdb::SIGNAL_SET_LEN)
                .map(|n| if (n / 20) % 2 == 0 { 500.0 } else { -500.0 })
                .collect(),
        };
        SignalSet::new(
            samples,
            SignalClass::Normal,
            Provenance {
                dataset_id: "live".into(),
                recording_id: format!("art-{kind}"),
                channel: "c".into(),
                offset: 0,
            },
        )
        .unwrap()
    }

    fn plausible_set(i: u64) -> SignalSet {
        let samples: Vec<f32> = (0..emap_mdb::SIGNAL_SET_LEN)
            .map(|n| {
                let t = n as f64 / 256.0;
                ((std::f64::consts::TAU * 13.0 * t).sin() * 25.0
                    + (std::f64::consts::TAU * 29.0 * t + i as f64).sin() * 10.0)
                    as f32
            })
            .collect();
        SignalSet::new(
            samples,
            SignalClass::Normal,
            Provenance {
                dataset_id: "live".into(),
                recording_id: format!("ok{i}"),
                channel: "c".into(),
                offset: i,
            },
        )
        .unwrap()
    }

    #[test]
    fn gated_ingest_quarantines_artifacts() {
        let (service, _) = service();
        let service = service.with_ingest_policy(IngestPolicy {
            gate: Some(emap_quality::QualityGate::default()),
            capacity: None,
        });
        let before = service.mdb().len();
        assert!(matches!(
            service.ingest_live(plausible_set(0)),
            IngestOutcome::Stored(LiveInsert::Appended(_))
        ));
        assert_eq!(
            service.ingest_live(artifact_set("flat")),
            IngestOutcome::Rejected(emap_quality::ArtifactKind::Flatline)
        );
        assert_eq!(
            service.ingest_live(artifact_set("sat")),
            IngestOutcome::Rejected(emap_quality::ArtifactKind::Saturation)
        );
        // Rejected sets never entered the store…
        assert_eq!(service.mdb().len(), before + 1);
        // …but left an audit trail, shared across clones.
        let q = service.clone().quarantined();
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].kind, emap_quality::ArtifactKind::Flatline);
        assert_eq!(q[0].provenance.recording_id, "art-flat");
    }

    #[test]
    fn bounded_ingest_replaces_instead_of_growing() {
        let (service, _) = service();
        let cap = service.mdb().len(); // already at capacity
        let service = service.with_ingest_policy(IngestPolicy {
            gate: None,
            capacity: Some(cap),
        });
        let out = service.ingest_live(plausible_set(1));
        assert!(matches!(
            out,
            IngestOutcome::Stored(LiveInsert::Replaced { .. })
        ));
        assert_eq!(service.mdb().len(), cap);
    }

    #[test]
    fn default_policy_is_the_frozen_corpus_behaviour() {
        let (service, _) = service();
        let before = service.mdb().len();
        // Even a flatline lands: no gate by default.
        assert!(matches!(
            service.ingest_live(artifact_set("flat")),
            IngestOutcome::Stored(LiveInsert::Appended(_))
        ));
        assert_eq!(service.mdb().len(), before + 1);
        assert!(service.quarantined().is_empty());
    }

    #[test]
    fn batch_search_matches_per_query_search() {
        let (service, factory) = service();
        let queries: Vec<Query> = (0..4)
            .map(|i| query_from(&factory, &format!("p{i}")))
            .collect();
        let batch = service.search_batch(&queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(b, &service.search(q).unwrap());
        }
    }

    /// Search and tracker load see the same snapshot even while another
    /// thread ingests continuously: every slice the tracker holds must be
    /// internally consistent with the search that selected it, which
    /// `EdgeTracker::load` verifies by resolving each hit's `set_id`
    /// against the store it is given. Under the old two-guard refresh an
    /// interleaved ingest could reallocate the store between search and
    /// load; with one guard the pairing is airtight by construction.
    #[test]
    fn refresh_is_atomic_under_concurrent_ingest() {
        let (service, factory) = service();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = service.clone();
            let stop_ref = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                    writer.ingest(filler_set(i));
                    i += 1;
                    std::thread::yield_now();
                }
            });
            for round in 0..20 {
                let query = query_from(&factory, &format!("p{round}"));
                let mut tracker = EdgeTracker::new(emap_edge::EdgeConfig::default());
                service
                    .refresh(&query, &mut tracker)
                    .expect("refresh stays consistent under concurrent ingest");
                assert!(!tracker.tracked().is_empty());
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }

    #[test]
    fn batched_refresh_matches_sequential_refresh() {
        let (service, factory) = service();
        let queries: Vec<Query> = (0..3)
            .map(|i| query_from(&factory, &format!("p{i}")))
            .collect();

        let mut sequential: Vec<EdgeTracker> = (0..queries.len())
            .map(|_| EdgeTracker::new(emap_edge::EdgeConfig::default()))
            .collect();
        for (q, t) in queries.iter().zip(sequential.iter_mut()) {
            service.refresh(q, t).unwrap();
        }

        let mut batched: Vec<EdgeTracker> = (0..queries.len())
            .map(|_| EdgeTracker::new(emap_edge::EdgeConfig::default()))
            .collect();
        let mut refs: Vec<&mut EdgeTracker> = batched.iter_mut().collect();
        let outcomes = service.refresh_batch(&queries, &mut refs);
        assert!(outcomes.iter().all(Result::is_ok));

        for (seq, bat) in sequential.iter().zip(&batched) {
            assert_eq!(seq.tracked(), bat.tracked());
        }
    }
}
