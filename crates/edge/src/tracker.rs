use std::sync::{Arc, OnceLock};

use emap_datasets::SignalClass;
use emap_dsp::area::{BoundedAreaScan, ScanCounters};
use emap_dsp::kernel::{HostStats, KernelCorrelator};
use emap_dsp::SAMPLES_PER_SECOND;
use emap_mdb::{Mdb, SetId, SharedSamples};
use emap_search::CorrelationSet;

use crate::{EdgeConfig, EdgeError, EdgeMetric};

/// One tracked entry `W = [S, ω, β]` plus the downloaded slice data and its
/// label.
///
/// The slice samples are [`SharedSamples`] aliasing the mega-database's
/// storage (the cloud→edge "download" is a refcount bump, not a copy), and
/// the per-slice [`HostStats`] tables ride along from the store, so every
/// tracking iteration gets O(1) window statistics without ever rebuilding
/// them.
#[derive(Debug, Clone)]
pub struct TrackedSignal {
    /// Which signal-set this is.
    pub set_id: SetId,
    /// The correlation the cloud search reported.
    pub omega: f64,
    /// Current best-match offset within the slice.
    pub beta: usize,
    /// The metric value at the current offset from the last iteration
    /// (area or correlation depending on the configured metric).
    pub last_score: f64,
    /// Class label of the slice (drives `N(AS)` in Eq. 5).
    pub class: SignalClass,
    samples: SharedSamples,
    /// Derived from `samples`; excluded from equality.
    stats: Arc<HostStats>,
}

impl PartialEq for TrackedSignal {
    fn eq(&self, other: &Self) -> bool {
        self.set_id == other.set_id
            && self.omega == other.omega
            && self.beta == other.beta
            && self.last_score == other.last_score
            && self.class == other.class
            && self.samples == other.samples
    }
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

    /// The cached O(1)-statistics tables for this slice.
    #[must_use]
    pub fn stats(&self) -> &HostStats {
        &self.stats
    }

    /// Re-wraps this signal's slice as a [`SharedSlice`] — two refcount
    /// bumps, no sample copy, no statistics rebuild. A delta refresh
    /// carries retained hits as bare references; the edge resolves them
    /// against slices it already tracks via this.
    #[must_use]
    pub fn to_shared_slice(&self) -> SharedSlice {
        SharedSlice {
            set_id: self.set_id,
            class: self.class,
            samples: self.samples.clone(),
            stats: Arc::new(OnceLock::from(Arc::clone(&self.stats))),
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
    /// sample. Always zero for the correlation metric (which has no bound).
    pub windows_pruned: u64,
    /// 32-sample blocks the area kernel accumulated over the scored
    /// windows — how deep the early exits let it read, as a count that
    /// repeats exactly. Zero for the correlation metric.
    pub area_blocks: u64,
}

/// One correlation-set hit materialized for transport: the `W = [S, ω, β]`
/// tuple plus the slice's label and its full 1000 samples.
///
/// An owned record of one hit for code that ranks and re-encodes hits
/// without tracking them — a cluster coordinator merging its shards'
/// answers. A tracker installs hits by reference instead
/// ([`EdgeTracker::load`] from a store, [`EdgeTracker::load_shared`] from
/// the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct SliceDownload {
    /// Which signal-set this is.
    pub set_id: SetId,
    /// The correlation the cloud search reported.
    pub omega: f64,
    /// Best-match offset the cloud search reported.
    pub beta: usize,
    /// Class label of the slice.
    pub class: SignalClass,
    /// The full slice samples (must hold [`emap_mdb::SIGNAL_SET_LEN`]).
    pub samples: Vec<f32>,
}

/// One downloaded slice prepared for sharing: the samples behind a shared
/// handle and the statistics tables built at most once, lazily.
///
/// A response ships each distinct slice once; the statistics build
/// is deferred until the first tracker actually loads the slice (via
/// [`EdgeTracker::load_shared`]), and every clone shares the one build —
/// so paths that only relay slices onward (a cluster coordinator
/// re-encoding shard responses) never pay for tables nobody reads. The
/// tracking state stays byte-identical to [`EdgeTracker::load`] from the
/// store the slices came from, because the tables are a pure function of
/// the samples.
#[derive(Debug, Clone)]
pub struct SharedSlice {
    set_id: SetId,
    class: SignalClass,
    samples: SharedSamples,
    stats: Arc<OnceLock<Arc<HostStats>>>,
}

impl SharedSlice {
    /// Wraps downloaded samples. The per-slice statistics tables are not
    /// built here — they materialize on the first [`SharedSlice::stats_arc`]
    /// call and are shared by every clone.
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
            stats: Arc::new(OnceLock::new()),
        })
    }

    /// The cached O(1)-statistics tables (prefix checkpoints; see
    /// [`HostStats`] for what else they may come to hold), built on first
    /// use. Clones made before the first call share the build with their
    /// siblings.
    #[must_use]
    pub fn stats_arc(&self) -> Arc<HostStats> {
        Arc::clone(
            self.stats
                .get_or_init(|| Arc::new(HostStats::new(&self.samples))),
        )
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
/// across all offsets of its slice; its `β` moves to the best-matching
/// window, and the signal is pruned when even the best window violates the
/// threshold (area above `δ_A`, or correlation below `δ`). See `DESIGN.md`
/// §3 for why this is the consistent reading of the paper's pseudocode.
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
                // Alias the store's allocation and its prewarmed stats:
                // the "download" costs two refcount bumps per hit.
                samples: s.samples_shared().clone(),
                stats: s.stats_arc(),
            });
        }
        self.tracked = tracked;
        Ok(())
    }

    /// Replaces the tracked set with hits on slices downloaded over a
    /// transport: aliases each [`SharedSlice`]'s allocations — two
    /// refcount bumps per hit, no sample copy — and its statistics tables,
    /// built once however many trackers load the slice (the prefix
    /// checkpoints here, a min/max level only if a correlation-metric step
    /// later reads one).
    ///
    /// Loading the same correlation set through here and through
    /// [`EdgeTracker::load`] yields byte-identical tracking state: the
    /// statistics tables are a pure function of the samples, and every
    /// other field travels bit-exactly. Slice lengths were validated when
    /// each [`SharedSlice`] was built, so this cannot fail.
    pub fn load_shared(&mut self, hits: Vec<SharedDownload>) {
        self.tracked = hits
            .into_iter()
            .map(|h| {
                let stats = h.slice.stats_arc();
                TrackedSignal {
                    set_id: h.slice.set_id,
                    omega: h.omega,
                    beta: h.beta,
                    last_score: 0.0,
                    class: h.slice.class,
                    samples: h.slice.samples,
                    stats,
                }
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
    /// window: the area metric scans through [`BoundedAreaScan`] (O(1)
    /// lower-bound pruning plus 8-lane early-exit sums) and the correlation
    /// metric through [`KernelCorrelator`] (O(1) window statistics from the
    /// cached [`HostStats`]). The property tests pin both to a per-sample
    /// scalar reference, `crates/edge/tests/oracle`.
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

        // A flat-line second carries no shape to match: under the area
        // metric it would prune everything dissimilar to a constant, and
        // under the correlation metric it normalizes to a zero query whose
        // ω is 0 against every window — one bad second of sensor dropout
        // would destroy the whole session either way, and so would one NaN
        // sample, which makes every score NaN. Treat such a second as
        // matching nothing: β and scores stay put, nothing is pruned.
        if is_degenerate(input) {
            return Ok(self.report(before, counters));
        }

        // Offset range to scan for a tracked signal: the full slice
        // (Algorithm 2), or — with windowed tracking enabled — only the
        // neighborhood of the predicted continuation β + 256. `None` means
        // the slice is exhausted (predicted window past its end).
        let range_for = |beta: usize, host_len: usize| -> Option<(usize, usize)> {
            let last = host_len - SAMPLES_PER_SECOND;
            match self.config.search_window() {
                None => Some((0, last)),
                Some(w) => {
                    let center = beta + SAMPLES_PER_SECOND;
                    if center > last + w {
                        return None;
                    }
                    Some((center.saturating_sub(w), (center + w).min(last)))
                }
            }
        };

        match self.config.metric() {
            EdgeMetric::AreaBetweenCurves { delta_a } => {
                let scan = BoundedAreaScan::new(input)?;
                for w in &mut self.tracked {
                    match range_for(w.beta, w.samples.len()) {
                        Some((lo, hi)) => {
                            // δ_A seeds the cutoff: any best above it is
                            // dropped by the retain below regardless of its
                            // value, so the scan may reject hopeless slices
                            // against δ_A instead of their (large) running
                            // best. Survivors still get the exact argmin.
                            let (beta, area) = scan.best_below(
                                &w.samples,
                                &w.stats,
                                lo,
                                hi,
                                delta_a,
                                &mut counters,
                            )?;
                            w.beta = beta;
                            w.last_score = area;
                        }
                        None => w.last_score = f64::INFINITY, // exhausted
                    }
                }
                self.tracked.retain(|w| w.last_score <= delta_a);
            }
            EdgeMetric::CrossCorrelation { delta } => {
                let kc = KernelCorrelator::new(input)?;
                for w in &mut self.tracked {
                    match range_for(w.beta, w.samples.len()) {
                        Some((lo, hi)) => {
                            let (beta, omega) = kernel_best_correlation(
                                &kc,
                                &w.samples,
                                &w.stats,
                                lo,
                                hi,
                                &mut counters,
                            )?;
                            w.beta = beta;
                            w.last_score = omega;
                        }
                        None => w.last_score = f64::NEG_INFINITY, // exhausted
                    }
                }
                self.tracked.retain(|w| w.last_score >= delta);
            }
        }

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

/// Maximum normalized correlation over offsets `lo..=hi` of `host`, with
/// the argmax, the per-offset window statistics read from the cached
/// [`HostStats`] instead of re-scanned.
fn kernel_best_correlation(
    kc: &KernelCorrelator,
    host: &[f32],
    stats: &HostStats,
    lo: usize,
    hi: usize,
    counters: &mut ScanCounters,
) -> Result<(usize, f64), EdgeError> {
    let mut kernel = kc.on_host(host, stats)?;
    let mut best = (lo, f64::NEG_INFINITY);
    for beta in lo..=hi.min(kernel.last_offset()) {
        counters.scored += 1;
        let omega = kernel.exact_at(beta);
        if omega > best.1 {
            best = (beta, omega);
        }
    }
    Ok(best)
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

    fn rhythm(freq: f32, phase: f32, n: usize) -> Vec<f32> {
        (0..n)
            .map(|k| (freq * k as f32 + phase).sin() * 20.0)
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
        EdgeConfig::default()
            .with_metric(EdgeMetric::AreaBetweenCurves { delta_a })
            .unwrap()
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
        assert_eq!(tr.tracked()[0].beta, 300);
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
    fn correlation_metric_prunes_by_delta() {
        let keep = rhythm(0.3, 0.0, SIGNAL_SET_LEN);
        let drop = rhythm(0.9, 0.0, SIGNAL_SET_LEN);
        let input = keep[100..356].to_vec();
        let mdb = mdb_with(vec![
            (SignalClass::Seizure, keep),
            (SignalClass::Normal, drop),
        ]);
        let cfg = EdgeConfig::default()
            .with_metric(EdgeMetric::CrossCorrelation { delta: 0.9 })
            .unwrap();
        let mut tr = EdgeTracker::new(cfg);
        tr.load(&correlation_set(&[0, 1]), &mdb).unwrap();
        let report = tr.step(&input).unwrap();
        assert_eq!(report.tracked, 1);
        assert_eq!(tr.tracked()[0].set_id, SetId(0));
        assert!(tr.tracked()[0].last_score > 0.99);
    }

    #[test]
    fn windows_evaluated_counts_all_offsets() {
        let sets = vec![
            (SignalClass::Normal, rhythm(0.3, 0.0, SIGNAL_SET_LEN)),
            (SignalClass::Seizure, rhythm(0.4, 0.0, SIGNAL_SET_LEN)),
        ];
        let input = sets[0].1[0..256].to_vec();
        let mdb = mdb_with(sets);
        let cfg = EdgeConfig::default()
            .with_metric(EdgeMetric::CrossCorrelation { delta: 0.0 })
            .unwrap();
        let mut tr = EdgeTracker::new(cfg);
        tr.load(&correlation_set(&[0, 1]), &mdb).unwrap();
        let report = tr.step(&input).unwrap();
        // 745 offsets × 2 signals (no early exit in the correlation path).
        assert_eq!(report.windows_evaluated, 2 * 745);
    }

    #[test]
    fn windowed_tracking_follows_and_exhausts() {
        // With windowed tracking the scan follows β + 256 and prunes the
        // slice once its end is reached.
        let host = rhythm(0.37, 0.0, SIGNAL_SET_LEN);
        let mdb = mdb_with(vec![(SignalClass::Seizure, host.clone())]);
        let cfg = area_config(1e12).with_search_window(16).unwrap();
        let mut tr = EdgeTracker::new(cfg);
        tr.load(&correlation_set(&[0]), &mdb).unwrap();
        // Start at β = 0; three seconds fit in a 1000-sample slice.
        let r1 = tr.step(&host[256..512]).unwrap();
        assert_eq!(tr.tracked()[0].beta, 256);
        // Windowed scan evaluates at most 2·16 + 1 offsets.
        assert!(r1.windows_evaluated <= 33, "{}", r1.windows_evaluated);
        tr.step(&host[512..768]).unwrap();
        assert_eq!(tr.tracked()[0].beta, 512);
        // Predicted continuation at 768 exceeds the last offset (744) by
        // more than the window → exhausted → pruned.
        let r3 = tr.step(&host[512..768]).unwrap();
        assert_eq!(r3.tracked, 0);
        assert_eq!(r3.removed, 1);
    }

    #[test]
    fn windowed_tracking_costs_less_than_full_scan() {
        let host = rhythm(0.37, 0.0, SIGNAL_SET_LEN);
        let input = host[256..512].to_vec();
        let mdb = mdb_with(vec![(SignalClass::Seizure, host)]);
        // Compare offsets *considered* (scored + bound-pruned): the bound
        // may reject almost every offset of the full scan for free, but the
        // windowed scan must not even consider most of them.
        let full = {
            let mut tr = EdgeTracker::new(area_config(1e12));
            tr.load(&correlation_set(&[0]), &mdb).unwrap();
            let r = tr.step(&input).unwrap();
            r.windows_evaluated + r.windows_pruned
        };
        let windowed = {
            let cfg = area_config(1e12).with_search_window(32).unwrap();
            let mut tr = EdgeTracker::new(cfg);
            tr.load(&correlation_set(&[0]), &mdb).unwrap();
            let r = tr.step(&input).unwrap();
            r.windows_evaluated + r.windows_pruned
        };
        assert!(windowed * 5 < full, "windowed {windowed} vs full {full}");
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
        // move β forward by ~256 per iteration.
        let host = rhythm(0.37, 0.0, SIGNAL_SET_LEN);
        let mdb = mdb_with(vec![(SignalClass::Seizure, host.clone())]);
        let mut tr = EdgeTracker::new(area_config(1e12));
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
            // And the prewarmed statistics tables ride along, not rebuilt.
            assert!(std::ptr::eq(w.stats(), set.stats()));
        }
    }

    /// One second of `bad` input in the middle of a session must leave it
    /// untouched — nothing scored, nothing pruned, nothing moved — on both
    /// metrics, and tracking must resume after it.
    fn assert_second_matches_nothing(bad: &[f32]) {
        let host = rhythm(0.37, 0.0, SIGNAL_SET_LEN);
        let configs = [
            area_config(500.0),
            EdgeConfig::default()
                .with_metric(EdgeMetric::CrossCorrelation { delta: 0.9 })
                .unwrap(),
        ];
        for cfg in configs {
            let mdb = mdb_with(vec![(SignalClass::Seizure, host.clone())]);
            let mut tr = EdgeTracker::new(cfg);
            tr.load(&correlation_set(&[0]), &mdb).unwrap();
            tr.step(&host[0..256]).unwrap();
            let (beta, score) = (tr.tracked()[0].beta, tr.tracked()[0].last_score);

            let report = tr.step(bad).unwrap();
            assert_eq!(report.tracked, 1, "{cfg:?}");
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
    }

    #[test]
    fn flat_line_input_keeps_session_intact_on_both_metrics() {
        // Sensor dropout: a railed electrode, then a dead one.
        assert_second_matches_nothing(&[3.3; 256]);
        assert_second_matches_nothing(&[0.0; 256]);
    }

    #[test]
    fn one_non_finite_sample_keeps_session_intact_on_both_metrics() {
        // A single NaN or ±∞ in an otherwise healthy second makes every
        // area NaN/∞ (and every ω meaningless): without the guard each
        // slice scored `∞` and the retain emptied the tracked set.
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

    /// A downloaded slice pays for the tables its metric reads and no
    /// others: area tracking adds nothing to its prefix checkpoints (the
    /// scan replays every prefix into a buffer of its thread's own), the
    /// correlation metric adds exactly the min/max level of a one-second
    /// window — and either way the session is the one a store-prewarmed
    /// slice gives.
    #[test]
    fn downloaded_slices_build_only_the_tables_their_metric_reads() {
        let samples = rhythm(0.37, 0.0, SIGNAL_SET_LEN);
        let mdb = mdb_with(vec![(SignalClass::Seizure, samples.clone())]);
        // The checkpoints and the empty level slots alone.
        let prefix_only = HostStats::new(&samples).memory_bytes();
        let levels = |tr: &EdgeTracker| tr.tracked()[0].stats().built_levels().collect::<Vec<_>>();

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
        assert_eq!(levels(&remote), []);
        assert_eq!(remote.tracked()[0].stats().memory_bytes(), prefix_only);

        // The same slices (same tables, by `Arc`) under the correlation
        // metric: the first step builds level 8 = ⌊log₂ 256⌋ and only it,
        // two one-byte offsets per row.
        let correlation = EdgeConfig::default()
            .with_metric(EdgeMetric::CrossCorrelation { delta: 0.8 })
            .unwrap();
        let mut remote_corr = EdgeTracker::new(correlation);
        remote_corr.restore_state(remote.save_state());
        let mut prewarmed_corr = EdgeTracker::new(correlation);
        prewarmed_corr.restore_state(prewarmed.save_state());
        for step in 0..3 {
            let input = &samples[step * 256..(step + 1) * 256];
            let report = remote_corr.step(input).unwrap();
            assert_eq!(report, prewarmed_corr.step(input).unwrap());
            assert_eq!(report.tracked, 1);
        }
        assert_eq!(remote_corr.tracked(), prewarmed_corr.tracked());
        assert_eq!(levels(&remote), [8]);
        assert_eq!(levels(&prewarmed), [8]);
        assert_eq!(
            remote.tracked()[0].stats().memory_bytes(),
            prefix_only + 2 * (SIGNAL_SET_LEN - 256 + 1)
        );
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
        // reported a 0.0 prune fraction. The blockwise sum legs of
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
        let sets = regimes
            .iter()
            .enumerate()
            .map(|(i, &class)| {
                let id = format!("regime/{i}");
                let rec = match class {
                    SignalClass::Normal => factory.normal_recording(&id, 6.0),
                    c => factory.anomaly_recording(c, &id, 6.0),
                };
                let filtered = filter.filter(rec.channels()[0].samples());
                (class, filtered[..SIGNAL_SET_LEN].to_vec())
            })
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
        // same scan — same order, same bound, same cutoffs — abandoning a
        // window on its partial sum alone reads about twice the blocks
        // (1.9× here, 2.1× over 72 slices; 1.5× leaves room for a corpus
        // drawn from another generator).
        let EdgeMetric::AreaBetweenCurves { delta_a } = before.config().metric() else {
            panic!("the default metric is the area");
        };
        let scan = BoundedAreaScan::new(input).unwrap();
        let (mut scored, mut blocks) = (0u64, 0u64);
        for w in before.tracked() {
            let mut best = f64::INFINITY;
            for beta in 0..=SIGNAL_SET_LEN - SAMPLES_PER_SECOND {
                let cutoff = delta_a.min(best);
                if scan.lower_bound(w.samples(), w.stats(), beta) > cutoff {
                    continue;
                }
                scored += 1;
                let window = &w.samples()[beta..beta + SAMPLES_PER_SECOND];
                let ends = (AREA_BLOCK..=SAMPLES_PER_SECOND).step_by(AREA_BLOCK);
                let mut partials = ends.map(|end| abs_diff_sum(&input[..end], &window[..end]));
                let mut area = 0.0;
                if partials.all(|partial| {
                    blocks += 1;
                    area = partial;
                    partial <= cutoff
                }) {
                    best = best.min(area);
                }
            }
        }
        assert_eq!(report.windows_evaluated, scored);
        assert!(
            report.area_blocks * 3 <= blocks * 2,
            "{} blocks over {scored} windows, {blocks} on partial sums alone",
            report.area_blocks
        );
    }

    #[test]
    fn bound_pruning_shrinks_scored_windows_on_exact_match() {
        let host = rhythm(0.37, 0.0, SIGNAL_SET_LEN);
        let mdb = mdb_with(vec![(SignalClass::Seizure, host.clone())]);
        let mut tr = EdgeTracker::new(area_config(1e12));
        tr.load(&correlation_set(&[0]), &mdb).unwrap();
        let report = tr.step(&host[256..512]).unwrap();
        assert_eq!(tr.tracked()[0].beta, 256);
        // Every offset is either scored or bound-pruned, and the zero-area
        // match makes the bound reject a large share outright.
        assert_eq!(report.windows_evaluated + report.windows_pruned, 745);
        assert!(report.windows_pruned > 300, "{report:?}");
    }
}
