use emap_datasets::SignalClass;
use emap_dsp::area::{BoundedAreaScan, ScanCounters};
use emap_dsp::SAMPLES_PER_SECOND;
use emap_mdb::{Mdb, SetId, SharedSamples};
use emap_search::CorrelationSet;

use crate::{EdgeConfig, EdgeError};

/// One tracked entry `W = [S, ω, β]` plus the downloaded slice data and its
/// label.
///
/// The slice samples are [`SharedSamples`] aliasing the mega-database's
/// storage (the cloud→edge "download" is a refcount bump, not a copy).
/// They are all a tracking iteration reads: the area scan puts what it
/// needs of them on its grid in a buffer of its thread's own, so a tracked
/// slice carries no tables.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedSignal {
    /// Which signal-set this is.
    pub set_id: SetId,
    /// The correlation the cloud search reported.
    pub omega: f64,
    /// The offset the last iteration matched within the slice: the first
    /// window whose area is within `δ_A`; the cloud search's `β` until the
    /// first iteration.
    pub beta: usize,
    /// That window's area (within `δ_A`) from the last iteration.
    pub last_score: f64,
    /// Class label of the slice (drives `N(AS)` in Eq. 5).
    pub class: SignalClass,
    samples: SharedSamples,
}

impl TrackedSignal {
    /// The downloaded slice samples.
    #[must_use]
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// The slice samples behind their shared handle — `ptr_eq` against the
    /// store's [`emap_mdb::SignalSet::samples_shared`] proves the download
    /// copied nothing.
    #[must_use]
    pub fn samples_shared(&self) -> &SharedSamples {
        &self.samples
    }

    /// Re-wraps this signal's slice as a [`SharedSlice`] — a refcount
    /// bump, no sample copy. A delta refresh carries retained hits as bare
    /// references; the edge resolves them against slices it already
    /// tracks via this.
    #[must_use]
    pub fn to_shared_slice(&self) -> SharedSlice {
        SharedSlice {
            set_id: self.set_id,
            class: self.class,
            samples: self.samples.clone(),
        }
    }
}

/// The outcome of one tracking iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Anomaly probability `P_A = N(AS)/N(F)` after pruning (Eq. 5);
    /// `0.0` when nothing is tracked.
    pub probability: f64,
    /// Signals still tracked after this iteration, `N(F)`.
    pub tracked: usize,
    /// Of those, anomalous ones, `N(AS)`.
    pub anomalous: usize,
    /// Signals pruned this iteration.
    pub removed: usize,
    /// Whether `N(F)` dropped below the threshold `H`, i.e. the edge should
    /// transmit the current second to the cloud for a fresh search.
    pub needs_cloud_call: bool,
    /// Window comparisons actually scored this iteration — offsets whose
    /// samples were touched (feeds the Fig. 8b timing model). Offsets
    /// rejected wholesale by the area lower bound are *not* counted here;
    /// see [`StepReport::windows_pruned`].
    pub windows_evaluated: u64,
    /// Offsets rejected by the O(1) area lower bound without touching any
    /// sample.
    pub windows_pruned: u64,
    /// 32-sample blocks the area kernel accumulated over the scored
    /// windows — how deep the early exits let it read, as a count that
    /// repeats exactly.
    pub area_blocks: u64,
    /// Scored windows the area kernel's integer grid left to an `f64` sum
    /// (`ScanCounters::resolved`): the window that fits, and those whose
    /// grid area lies within the grid's bracket of δ_A.
    pub area_resolved: u64,
}

/// One downloaded slice prepared for sharing: the samples behind a shared
/// handle.
///
/// A response ships each distinct slice once, and every tracker that loads
/// it (via [`EdgeTracker::load_shared`]) aliases the one allocation. The
/// tracking state stays byte-identical to [`EdgeTracker::load`] from the
/// store the slices came from: the samples travel bit-exactly, and they
/// are all tracking reads.
#[derive(Debug, Clone)]
pub struct SharedSlice {
    set_id: SetId,
    class: SignalClass,
    samples: SharedSamples,
}

impl SharedSlice {
    /// Wraps downloaded samples.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::BadSliceLength`] unless `samples` holds
    /// exactly [`emap_mdb::SIGNAL_SET_LEN`] samples.
    pub fn new(set_id: SetId, class: SignalClass, samples: Vec<f32>) -> Result<Self, EdgeError> {
        if samples.len() != emap_mdb::SIGNAL_SET_LEN {
            return Err(EdgeError::BadSliceLength {
                set_id,
                got: samples.len(),
            });
        }
        Ok(SharedSlice {
            set_id,
            class,
            samples: SharedSamples::new(samples),
        })
    }

    /// Which signal-set this is.
    #[must_use]
    pub fn set_id(&self) -> SetId {
        self.set_id
    }

    /// Class label of the slice.
    #[must_use]
    pub fn class(&self) -> SignalClass {
        self.class
    }

    /// The slice samples.
    #[must_use]
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }
}

/// One correlation hit referencing a [`SharedSlice`]: the per-query `ω`
/// and `β` plus a cheap handle on the slice data.
#[derive(Debug, Clone)]
pub struct SharedDownload {
    /// The correlation the cloud search reported.
    pub omega: f64,
    /// Best-match offset the cloud search reported.
    pub beta: usize,
    /// The hit's slice — cloning this is two refcount bumps.
    pub slice: SharedSlice,
}

/// Algorithm 2: the lightweight signal tracker running on the edge device.
///
/// Per iteration ([`EdgeTracker::step`]), every tracked signal is scanned
/// across the offsets of its slice and kept iff some window's area between
/// curves (Eq. 3) is within `δ_A`. The scan stops at the first such window,
/// and `β` moves there. See `DESIGN.md` §3 for why this is the consistent
/// reading of the paper's pseudocode.
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct EdgeTracker {
    config: EdgeConfig,
    tracked: Vec<TrackedSignal>,
}

impl EdgeTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new(config: EdgeConfig) -> Self {
        EdgeTracker {
            config,
            tracked: Vec::new(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EdgeConfig {
        &self.config
    }

    /// Replaces the tracked set with the hits of a fresh correlation set,
    /// materializing slice data and labels from `mdb` (modeling the
    /// cloud→edge download).
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::MissingSet`] if a hit references an id not in
    /// `mdb`.
    pub fn load(&mut self, set: &CorrelationSet, mdb: &Mdb) -> Result<(), EdgeError> {
        let mut tracked = Vec::with_capacity(set.len());
        for hit in set.hits() {
            let s = mdb.try_get(hit.set_id)?;
            tracked.push(TrackedSignal {
                set_id: hit.set_id,
                omega: hit.omega,
                beta: hit.beta,
                last_score: 0.0,
                class: s.class(),
                // Alias the store's allocation: the "download" costs a
                // refcount bump per hit.
                samples: s.samples_shared().clone(),
            });
        }
        self.tracked = tracked;
        Ok(())
    }

    /// Replaces the tracked set with hits on slices downloaded over a
    /// transport: aliases each [`SharedSlice`]'s samples — a refcount bump
    /// per hit, no sample copy, and no table built.
    ///
    /// Loading the same correlation set through here and through
    /// [`EdgeTracker::load`] yields byte-identical tracking state: every
    /// field travels bit-exactly. Slice lengths were validated when each
    /// [`SharedSlice`] was built, so this cannot fail.
    pub fn load_shared(&mut self, hits: Vec<SharedDownload>) {
        self.tracked = hits
            .into_iter()
            .map(|h| TrackedSignal {
                set_id: h.slice.set_id,
                omega: h.omega,
                beta: h.beta,
                last_score: 0.0,
                class: h.slice.class,
                samples: h.slice.samples,
            })
            .collect();
    }

    /// The currently tracked signals.
    #[must_use]
    pub fn tracked(&self) -> &[TrackedSignal] {
        &self.tracked
    }

    /// The set IDs currently tracked, in tracked order — the membership
    /// list a delta-refresh request declares to the cloud.
    #[must_use]
    pub fn tracked_ids(&self) -> Vec<SetId> {
        self.tracked.iter().map(|w| w.set_id).collect()
    }

    /// Number of tracked signals, `N(F)`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tracked.len()
    }

    /// Whether nothing is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tracked.is_empty()
    }

    /// Current anomaly probability without advancing an iteration.
    #[must_use]
    pub fn probability(&self) -> f64 {
        probability_of(&self.tracked)
    }

    /// The report for a *masked* second: one the caller's signal-quality
    /// gate classified as artifact and therefore withheld from tracking.
    /// The session is frozen in place — no windows move, nothing is
    /// pruned, `P_A` reflects the unchanged tracked set — and
    /// `needs_cloud_call` is forced `false` even below `H`, because an
    /// artifact second would poison a cloud query just as it would
    /// poison the local scan. The refresh waits for clean signal.
    #[must_use]
    pub fn masked_report(&self) -> StepReport {
        let mut report = self.report(self.tracked.len(), ScanCounters::default());
        report.needs_cloud_call = false;
        report
    }

    /// Captures the tracked set (slices included) so a session can be
    /// resumed later without a fresh cloud call.
    #[must_use]
    pub fn save_state(&self) -> TrackerState {
        TrackerState {
            tracked: self.tracked.clone(),
        }
    }

    /// Restores a tracked set previously captured with
    /// [`EdgeTracker::save_state`]. The configuration stays as constructed.
    pub fn restore_state(&mut self, state: TrackerState) {
        self.tracked = state.tracked;
    }

    /// Runs one tracking iteration against the next one-second input
    /// window: each slice is scanned through [`BoundedAreaScan`] (O(1)
    /// lower-bound pruning plus early-exit sums, in exact integers on a
    /// grid, with `f64` for the windows the grid cannot decide). The property tests
    /// pin it to a per-sample scalar reference, `crates/edge/tests/oracle`.
    ///
    /// A degenerate input second — a flat line from sensor dropout or a
    /// railed electrode, or any non-finite sample — matches nothing: no
    /// scores move, nothing is pruned, and the tracked set survives
    /// untouched until real signal returns.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::BadInputLength`] unless `input` holds exactly
    /// 256 samples.
    pub fn step(&mut self, input: &[f32]) -> Result<StepReport, EdgeError> {
        if input.len() != SAMPLES_PER_SECOND {
            return Err(EdgeError::BadInputLength { got: input.len() });
        }
        let before = self.tracked.len();
        let mut counters = ScanCounters::default();

        // A flat-line second carries no shape to match: it would prune
        // everything dissimilar to a constant — one bad second of sensor
        // dropout would destroy the whole session, and so would one NaN
        // sample, which makes every area NaN. Treat such a second as
        // matching nothing: β and scores stay put, nothing is pruned.
        if is_degenerate(input) {
            return Ok(self.report(before, counters));
        }

        let delta_a = self.config.delta_a();
        let scan = BoundedAreaScan::new(input)?;
        for w in &mut self.tracked {
            // Algorithm 2 decides one thing per slice: whether some window's
            // area is within δ_A. The scan stops at the first that is, and
            // `None` certifies that none is.
            match scan.first_within(&w.samples, delta_a, &mut counters)? {
                Some((beta, area)) => {
                    w.beta = beta;
                    w.last_score = area;
                }
                None => w.last_score = f64::INFINITY,
            }
        }
        self.tracked.retain(|w| w.last_score <= delta_a);

        Ok(self.report(before, counters))
    }

    fn report(&self, before: usize, counters: ScanCounters) -> StepReport {
        let tracked = self.tracked.len();
        // `N(AS)` and `N(F)` are counted exactly once per iteration; the
        // probability (Eq. 5) is derived from the same counts.
        let anomalous = self.tracked.iter().filter(|w| w.class.is_anomaly()).count();
        let probability = if tracked == 0 {
            0.0
        } else {
            anomalous as f64 / tracked as f64
        };
        StepReport {
            probability,
            tracked,
            anomalous,
            removed: before - tracked,
            needs_cloud_call: tracked < self.config.h(),
            windows_evaluated: counters.scored,
            windows_pruned: counters.pruned,
            area_blocks: counters.blocks,
            area_resolved: counters.resolved,
        }
    }
}

/// An input second with nothing to match: a flat line (constant or
/// all-zero), or one holding any non-finite sample — a single NaN turns
/// every area into NaN and so every tracked slice into a prune.
fn is_degenerate(input: &[f32]) -> bool {
    !input.iter().all(|x| x.is_finite()) || input.iter().all(|&x| x == input[0])
}

/// A snapshot of the tracked set (see
/// [`EdgeTracker::save_state`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrackerState {
    tracked: Vec<TrackedSignal>,
}

impl TrackerState {
    /// Number of tracked signals in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tracked.len()
    }

    /// Whether the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tracked.is_empty()
    }
}

fn probability_of(tracked: &[TrackedSignal]) -> f64 {
    if tracked.is_empty() {
        return 0.0;
    }
    let anomalous = tracked.iter().filter(|w| w.class.is_anomaly()).count();
    anomalous as f64 / tracked.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_dsp::area::{abs_diff_sum, AREA_BLOCK};
    use emap_mdb::{Provenance, SignalSet, SIGNAL_SET_LEN};
    use emap_search::{SearchHit, SearchWork};

    fn mdb_with(sets: Vec<(SignalClass, Vec<f32>)>) -> Mdb {
        let mut mdb = Mdb::new();
        for (i, (class, samples)) in sets.into_iter().enumerate() {
            mdb.insert(
                SignalSet::new(
                    samples,
                    class,
                    Provenance {
                        dataset_id: "d".into(),
                        recording_id: "r".into(),
                        channel: "c".into(),
                        offset: i as u64 * 1000,
                    },
                )
                .unwrap(),
            );
        }
        mdb
    }

    /// A 20 µV rhythm in whole counts, as the store holds it.
    fn rhythm(freq: f32, phase: f32, n: usize) -> Vec<f32> {
        (0..n)
            .map(|k| ((freq * k as f32 + phase).sin() * 20.0).round())
            .collect()
    }

    fn correlation_set(ids: &[u64]) -> CorrelationSet {
        CorrelationSet::from_candidates(
            ids.iter()
                .map(|&id| SearchHit {
                    set_id: SetId(id),
                    omega: 0.9,
                    beta: 0,
                })
                .collect(),
            100,
            SearchWork::default(),
        )
    }

    fn area_config(delta_a: f64) -> EdgeConfig {
        EdgeConfig::default().with_delta_a(delta_a).unwrap()
    }

    #[test]
    fn load_materializes_labels_and_samples() {
        let mdb = mdb_with(vec![
            (SignalClass::Normal, rhythm(0.3, 0.0, SIGNAL_SET_LEN)),
            (SignalClass::Seizure, rhythm(0.5, 1.0, SIGNAL_SET_LEN)),
        ]);
        let mut tr = EdgeTracker::new(EdgeConfig::default());
        tr.load(&correlation_set(&[0, 1]), &mdb).unwrap();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.tracked()[1].class, SignalClass::Seizure);
        assert_eq!(tr.tracked()[0].samples().len(), SIGNAL_SET_LEN);
        assert!((tr.probability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn load_rejects_unknown_ids() {
        let mdb = mdb_with(vec![(
            SignalClass::Normal,
            rhythm(0.3, 0.0, SIGNAL_SET_LEN),
        )]);
        let mut tr = EdgeTracker::new(EdgeConfig::default());
        assert!(tr.load(&correlation_set(&[5]), &mdb).is_err());
    }

    #[test]
    fn step_rejects_wrong_input_length() {
        let mut tr = EdgeTracker::new(EdgeConfig::default());
        assert!(matches!(
            tr.step(&[0.0; 100]),
            Err(EdgeError::BadInputLength { got: 100 })
        ));
    }

    #[test]
    fn matching_signal_survives_dissimilar_pruned() {
        let keep = rhythm(0.3, 0.2, SIGNAL_SET_LEN);
        let drop = rhythm(0.71, 0.0, SIGNAL_SET_LEN);
        let mdb = mdb_with(vec![
            (SignalClass::Seizure, keep.clone()),
            (SignalClass::Normal, drop),
        ]);
        // Input: a window of the kept signal → its best area is ~0.
        let input = &keep[300..300 + 256];
        let mut tr = EdgeTracker::new(area_config(500.0));
        tr.load(&correlation_set(&[0, 1]), &mdb).unwrap();
        let report = tr.step(input).unwrap();
        assert_eq!(report.tracked, 1);
        assert_eq!(report.removed, 1);
        assert_eq!(tr.tracked()[0].set_id, SetId(0));
        // The first window within δ_A: one 14 periods (~293 samples) before
        // the exact match at 300 is already within it.
        assert_eq!(tr.tracked()[0].beta, 7);
        let area = abs_diff_sum(input, &keep[7..7 + 256]);
        assert_eq!(tr.tracked()[0].last_score.to_bits(), area.to_bits());
        assert!(area <= 500.0);
        assert!((report.probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probability_counts_anomalous_fraction() {
        let sets: Vec<(SignalClass, Vec<f32>)> = vec![
            (SignalClass::Normal, rhythm(0.3, 0.0, SIGNAL_SET_LEN)),
            (SignalClass::Seizure, rhythm(0.3, 0.1, SIGNAL_SET_LEN)),
            (SignalClass::Stroke, rhythm(0.3, 0.2, SIGNAL_SET_LEN)),
            (SignalClass::Normal, rhythm(0.3, 0.3, SIGNAL_SET_LEN)),
        ];
        let input = sets[0].1[0..256].to_vec();
        let mdb = mdb_with(sets);
        // Huge threshold: nothing is pruned. H = 2 ≤ 4 tracked → no call.
        let mut tr = EdgeTracker::new(area_config(1e12).with_h(2).unwrap());
        tr.load(&correlation_set(&[0, 1, 2, 3]), &mdb).unwrap();
        let report = tr.step(&input).unwrap();
        assert_eq!(report.tracked, 4);
        assert_eq!(report.anomalous, 2);
        assert!((report.probability - 0.5).abs() < 1e-12);
        assert!(!report.needs_cloud_call);
    }

    #[test]
    fn cloud_call_triggered_when_below_h() {
        let sets = vec![(SignalClass::Normal, rhythm(0.3, 0.0, SIGNAL_SET_LEN))];
        let input = sets[0].1[0..256].to_vec();
        let mdb = mdb_with(sets);
        let mut tr = EdgeTracker::new(area_config(1e12).with_h(2).unwrap());
        tr.load(&correlation_set(&[0]), &mdb).unwrap();
        let report = tr.step(&input).unwrap();
        assert!(report.needs_cloud_call); // 1 tracked < H = 2
    }

    #[test]
    fn empty_tracker_reports_zero_probability() {
        let mut tr = EdgeTracker::new(area_config(100.0).with_h(1).unwrap());
        let report = tr.step(&[0.0; 256]).unwrap();
        assert_eq!(report.probability, 0.0);
        assert_eq!(report.tracked, 0);
        assert!(report.needs_cloud_call);
    }

    #[test]
    fn state_roundtrip_resumes_tracking_identically() {
        let host = rhythm(0.37, 0.0, SIGNAL_SET_LEN);
        let mdb = mdb_with(vec![(SignalClass::Seizure, host.clone())]);
        let mut a = EdgeTracker::new(area_config(1e12));
        a.load(&correlation_set(&[0]), &mdb).unwrap();
        a.step(&host[0..256]).unwrap();

        // Persist, "reboot", restore, and continue: identical behavior.
        let restored = a.save_state();
        assert_eq!(restored.len(), 1);
        let mut b = EdgeTracker::new(area_config(1e12));
        b.restore_state(restored);

        let ra = a.step(&host[256..512]).unwrap();
        let rb = b.step(&host[256..512]).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.tracked(), b.tracked());
    }

    #[test]
    fn beta_follows_the_signal_across_iterations() {
        // Input windows cut at successive seconds of the tracked slice must
        // move β forward by 256 per iteration. A δ_A of one unit admits the
        // exact match alone (a window a period of the rhythm away is ~20
        // off), so the first window within it is that match.
        let host = rhythm(0.37, 0.0, SIGNAL_SET_LEN);
        let mdb = mdb_with(vec![(SignalClass::Seizure, host.clone())]);
        let mut tr = EdgeTracker::new(area_config(1.0));
        tr.load(&correlation_set(&[0]), &mdb).unwrap();
        tr.step(&host[0..256]).unwrap();
        assert_eq!(tr.tracked()[0].beta, 0);
        tr.step(&host[256..512]).unwrap();
        assert_eq!(tr.tracked()[0].beta, 256);
        tr.step(&host[512..768]).unwrap();
        assert_eq!(tr.tracked()[0].beta, 512);
    }

    #[test]
    fn load_shares_mdb_storage_without_copying() {
        let mdb = mdb_with(vec![
            (SignalClass::Normal, rhythm(0.3, 0.0, SIGNAL_SET_LEN)),
            (SignalClass::Seizure, rhythm(0.5, 1.0, SIGNAL_SET_LEN)),
        ]);
        let mut tr = EdgeTracker::new(EdgeConfig::default());
        tr.load(&correlation_set(&[0, 1]), &mdb).unwrap();
        for (i, w) in tr.tracked().iter().enumerate() {
            let set = mdb.try_get(SetId(i as u64)).unwrap();
            // Same allocation as the store — the download copied nothing.
            assert!(w.samples_shared().ptr_eq(set.samples_shared()));
        }
    }

    /// One second of `bad` input in the middle of a session must leave it
    /// untouched — nothing scored, nothing pruned, nothing moved — and
    /// tracking must resume after it.
    fn assert_second_matches_nothing(bad: &[f32]) {
        let host = rhythm(0.37, 0.0, SIGNAL_SET_LEN);
        let mdb = mdb_with(vec![(SignalClass::Seizure, host.clone())]);
        // δ_A admits the exact match alone, as in
        // `beta_follows_the_signal_across_iterations`.
        let mut tr = EdgeTracker::new(area_config(1.0));
        tr.load(&correlation_set(&[0]), &mdb).unwrap();
        tr.step(&host[0..256]).unwrap();
        let (beta, score) = (tr.tracked()[0].beta, tr.tracked()[0].last_score);

        let report = tr.step(bad).unwrap();
        assert_eq!(report.tracked, 1);
        assert_eq!(report.removed, 0);
        assert_eq!(report.windows_evaluated, 0);
        assert_eq!(report.windows_pruned, 0);
        assert_eq!(report.area_blocks, 0);
        assert_eq!(tr.tracked()[0].beta, beta);
        assert_eq!(tr.tracked()[0].last_score, score);

        // Real signal afterwards resumes tracking normally.
        let report = tr.step(&host[256..512]).unwrap();
        assert_eq!(report.tracked, 1);
        assert_eq!(tr.tracked()[0].beta, 256);
    }

    #[test]
    fn flat_line_input_keeps_session_intact() {
        // Sensor dropout: a railed electrode, then a dead one.
        assert_second_matches_nothing(&[3.3; 256]);
        assert_second_matches_nothing(&[0.0; 256]);
    }

    #[test]
    fn one_non_finite_sample_keeps_session_intact() {
        // A single NaN or ±∞ in an otherwise healthy second makes every
        // area NaN/∞: without the guard each slice scored `∞` and the
        // retain emptied the tracked set.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut second = rhythm(0.37, 0.0, SIGNAL_SET_LEN)[256..512].to_vec();
            second[100] = bad;
            assert_second_matches_nothing(&second);
        }
    }

    /// The wire-side view of a correlation set: one [`SharedSlice`] per
    /// distinct hit, built from a copy of the store's samples (a download
    /// cannot alias the store), and the hits referencing them.
    fn downloaded(set: &CorrelationSet, mdb: &Mdb) -> Vec<SharedDownload> {
        set.hits()
            .iter()
            .map(|hit| {
                let s = mdb.try_get(hit.set_id).unwrap();
                SharedDownload {
                    omega: hit.omega,
                    beta: hit.beta,
                    slice: SharedSlice::new(hit.set_id, s.class(), s.samples().to_vec()).unwrap(),
                }
            })
            .collect()
    }

    #[test]
    fn load_shared_matches_local_load_exactly() {
        // Loading the same correlation set via the MDB alias path and via
        // downloaded slices must produce identical tracking state and
        // identical subsequent decisions.
        let sets: Vec<(SignalClass, Vec<f32>)> = vec![
            (SignalClass::Seizure, rhythm(0.37, 0.0, SIGNAL_SET_LEN)),
            (SignalClass::Normal, rhythm(0.52, 0.4, SIGNAL_SET_LEN)),
        ];
        let follow = sets[0].1.clone();
        let mdb = mdb_with(sets);
        let set = correlation_set(&[0, 1]);

        let mut local = EdgeTracker::new(area_config(3800.0));
        local.load(&set, &mdb).unwrap();
        let mut remote = EdgeTracker::new(area_config(3800.0));
        remote.load_shared(downloaded(&set, &mdb));

        assert_eq!(local.tracked(), remote.tracked());
        for second in 0..3 {
            let input = &follow[second * 256..(second + 1) * 256];
            let rl = local.step(input).unwrap();
            let rr = remote.step(input).unwrap();
            assert_eq!(rl, rr, "second {second}");
        }
        assert_eq!(local.tracked(), remote.tracked());
    }

    /// A tracked slice builds no tables at all: the area scan reads only
    /// its samples (putting them on its grid in a buffer of its thread's
    /// own), so a downloaded slice is its samples, and tracking a store's
    /// set leaves the store's bytes as they were — and the session is the
    /// one a store-prewarmed slice gives.
    #[test]
    fn downloaded_slices_build_only_the_tables_their_metric_reads() {
        let samples = rhythm(0.37, 0.0, SIGNAL_SET_LEN);
        let mdb = mdb_with(vec![(SignalClass::Seizure, samples.clone())]);
        let store_bytes = mdb.stats().resident_bytes;
        let set_bytes = mdb.try_get(SetId(0)).unwrap().resident_bytes();

        let mut prewarmed = EdgeTracker::new(area_config(3800.0));
        prewarmed.load(&correlation_set(&[0]), &mdb).unwrap();
        let mut remote = EdgeTracker::new(area_config(3800.0));
        remote.load_shared(vec![SharedDownload {
            omega: 0.9,
            beta: 0,
            slice: SharedSlice::new(SetId(0), SignalClass::Seizure, samples.clone()).unwrap(),
        }]);
        for step in 0..10 {
            let at = (step * 67) % (SIGNAL_SET_LEN - 256);
            let input = &samples[at..at + 256];
            assert_eq!(remote.step(input).unwrap(), prewarmed.step(input).unwrap());
        }
        assert_eq!(remote.tracked(), prewarmed.tracked());
        assert_eq!(remote.len(), 1);
        // Both sessions alias their samples and hold nothing beside them.
        assert_eq!(
            std::mem::size_of::<TrackedSignal>(),
            std::mem::size_of::<(SetId, f64, usize, f64, SignalClass, SharedSamples)>()
        );
        assert_eq!(mdb.stats().resident_bytes, store_bytes);
        assert_eq!(mdb.try_get(SetId(0)).unwrap().resident_bytes(), set_bytes);
    }

    #[test]
    fn load_shared_shares_allocations_across_trackers() {
        let sets: Vec<(SignalClass, Vec<f32>)> = vec![
            (SignalClass::Seizure, rhythm(0.37, 0.0, SIGNAL_SET_LEN)),
            (SignalClass::Normal, rhythm(0.52, 0.4, SIGNAL_SET_LEN)),
        ];
        let follow = sets[0].1.clone();
        let mdb = mdb_with(sets);
        let set = correlation_set(&[0, 1]);

        // One shared slice per distinct set — the response's slice table —
        // loaded into two trackers, beside a third with its own download.
        let table = downloaded(&set, &mdb);
        let mut own = EdgeTracker::new(area_config(3800.0));
        own.load_shared(downloaded(&set, &mdb));
        let mut shared_a = EdgeTracker::new(area_config(3800.0));
        let mut shared_b = EdgeTracker::new(area_config(3800.0));
        shared_a.load_shared(table.clone());
        shared_b.load_shared(table);

        // Identical state, and both shared trackers alias the same slice
        // allocation: the per-tracker download was a refcount bump, not a
        // copy.
        assert_eq!(own.tracked(), shared_a.tracked());
        assert!(shared_a.tracked()[0]
            .samples_shared()
            .ptr_eq(shared_b.tracked()[0].samples_shared()));
        assert!(!own.tracked()[0]
            .samples_shared()
            .ptr_eq(shared_a.tracked()[0].samples_shared()));

        // Identical subsequent decisions too.
        for second in 0..3 {
            let input = &follow[second * 256..(second + 1) * 256];
            let ro = own.step(input).unwrap();
            let ra = shared_a.step(input).unwrap();
            let rb = shared_b.step(input).unwrap();
            assert_eq!(ro, ra, "second {second}");
            assert_eq!(ro, rb, "second {second}");
        }
    }

    #[test]
    fn shared_slice_rejects_short_samples() {
        assert!(matches!(
            SharedSlice::new(SetId(0), SignalClass::Normal, vec![0.0; 999]),
            Err(EdgeError::BadSliceLength {
                set_id: SetId(0),
                got: 999,
            })
        ));
    }

    #[test]
    fn tracking_prunes_on_three_regime_bandpassed_corpus() {
        // Regression for the dormant δ_A bound: with only the whole-window
        // sum and energy legs, `kernel_windows_pruned` stayed at 0 on
        // bandpassed corpora (zero-mean windows make the sum leg vanish and
        // similar RMS makes the energy gap tiny), so `BENCH_tracking.json`
        // reported a 0.0 prune fraction. The blockwise sum bound of
        // `BoundedAreaScan` must keep the bound live on realistic
        // three-regime content under the default retention threshold.
        use emap_datasets::RecordingFactory;
        let factory = RecordingFactory::new(42);
        let filter = emap_dsp::emap_bandpass();
        let regimes = [
            SignalClass::Normal,
            SignalClass::Seizure,
            SignalClass::Stroke,
        ];
        let filtered: Vec<Vec<f32>> = regimes
            .iter()
            .enumerate()
            .map(|(i, &class)| {
                let id = format!("regime/{i}");
                let rec = match class {
                    SignalClass::Normal => factory.normal_recording(&id, 6.0),
                    c => factory.anomaly_recording(c, &id, 6.0),
                };
                filter.filter(rec.channels()[0].samples())
            })
            .collect();
        let sets = regimes
            .iter()
            .zip(&filtered)
            .map(|(&class, recording)| (class, recording[..SIGNAL_SET_LEN].to_vec()))
            .collect();
        let mdb = mdb_with(sets);
        let mut tr = EdgeTracker::new(EdgeConfig::default());
        tr.load(&correlation_set(&[0, 1, 2]), &mdb).unwrap();

        let input_rec = factory.anomaly_recording(SignalClass::Seizure, "input", 6.0);
        let input = filter.filter(input_rec.channels()[0].samples());
        let before = tr.clone();
        let input = &input[512..768];
        let report = tr.step(input).unwrap();
        assert!(report.windows_evaluated > 0, "{report:?}");
        assert!(
            report.windows_pruned > 0,
            "δ_A bound went dormant again on bandpassed content: {report:?}"
        );

        // The residual exit, pinned by a count that repeats exactly: the
        // same first-fit scan — same order, same bound — abandoning a
        // window once its partial sum alone passes δ_A reads about twice
        // the blocks (4 609 against 8 586 here; 1.5× leaves room for a
        // corpus drawn from another generator).
        let delta_a = before.config().delta_a();
        let scan = BoundedAreaScan::new(input).unwrap();
        let (mut scored, mut blocks) = (0u64, 0u64);
        for w in before.tracked() {
            for beta in 0..=SIGNAL_SET_LEN - SAMPLES_PER_SECOND {
                if scan.lower_bound(w.samples(), beta) > delta_a {
                    continue;
                }
                scored += 1;
                let window = &w.samples()[beta..beta + SAMPLES_PER_SECOND];
                let ends = (AREA_BLOCK..=SAMPLES_PER_SECOND).step_by(AREA_BLOCK);
                let mut partials = ends.map(|end| abs_diff_sum(&input[..end], &window[..end]));
                if partials.all(|partial| {
                    blocks += 1;
                    partial <= delta_a
                }) {
                    break;
                }
            }
        }
        assert_eq!(report.windows_evaluated, scored);
        assert!(
            report.area_blocks * 3 <= blocks * 2,
            "{} blocks over {scored} windows, {blocks} on partial sums alone",
            report.area_blocks
        );
        // The windows the grid leaves to `f64`, pinned as a count read
        // through the step report: at most 3 % of those scored, and at
        // least 90 % of them the window that fits. Inputs are seconds of
        // each slice's own recording, inside the slice and past it, as a
        // session tracking that recording meets them, each stepped by the
        // whole loaded set (31 of 9 017 scored windows are resolved here,
        // 30 of them kept).
        let (mut scored, mut resolved, mut kept) = (0u64, 0u64, 0u64);
        for recording in &filtered {
            for at in [0usize, 300, 744, 1000, 1100, 1280] {
                let report = before.clone().step(&recording[at..at + 256]).unwrap();
                scored += report.windows_evaluated;
                resolved += report.area_resolved;
                kept += report.tracked as u64;
            }
        }
        assert!(
            resolved * 100 <= scored * 3,
            "{resolved} of {scored} scored"
        );
        assert!(
            resolved * 9 <= kept * 10,
            "{resolved} resolved, {kept} kept"
        );
    }

    #[test]
    fn bound_pruning_shrinks_scored_windows_on_exact_match() {
        let host = rhythm(0.37, 0.0, SIGNAL_SET_LEN);
        let mdb = mdb_with(vec![(SignalClass::Seizure, host.clone())]);
        // Only the exact match is within δ_A.
        let mut tr = EdgeTracker::new(area_config(1.0));
        tr.load(&correlation_set(&[0]), &mdb).unwrap();
        let report = tr.step(&host[256..512]).unwrap();
        assert_eq!(tr.tracked()[0].beta, 256);
        // Every offset up to the match is either scored or bound-pruned,
        // and the tight δ_A makes the bound reject most outright.
        assert_eq!(report.windows_evaluated + report.windows_pruned, 257);
        assert!(report.windows_pruned > 128, "{report:?}");
    }
}
