use std::sync::{Arc, OnceLock};

use emap_datasets::SignalClass;
use emap_dsp::kernel::HostStats;
use emap_dsp::spectra::HostSpectra;

use crate::{MdbError, SIGNAL_SET_LEN};

/// Reference-counted, immutable sample storage shared between the
/// mega-database, its snapshots, and every edge tracker that downloads a
/// slice — cloning a [`SharedSamples`] bumps a refcount instead of copying
/// 1000 floats.
///
/// Snapshots and the wire carry the samples as 16-bit counts; sharing is
/// a process-local property and is (correctly) not preserved across
/// either.
///
/// # Example
///
/// ```
/// use emap_mdb::SharedSamples;
///
/// let a = SharedSamples::new(vec![1.0, 2.0, 3.0]);
/// let b = a.clone();
/// assert!(a.ptr_eq(&b)); // same allocation, not a copy
/// assert_eq!(&a[..], &[1.0, 2.0, 3.0]);
/// ```
#[derive(Debug, Clone)]
pub struct SharedSamples(Arc<[f32]>);

impl SharedSamples {
    /// Moves `samples` into shared storage.
    #[must_use]
    pub fn new(samples: Vec<f32>) -> Self {
        SharedSamples(samples.into())
    }

    /// Whether `self` and `other` share the same allocation (i.e. one is a
    /// clone of the other, not a deep copy).
    #[must_use]
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl std::ops::Deref for SharedSamples {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.0
    }
}

impl AsRef<[f32]> for SharedSamples {
    fn as_ref(&self) -> &[f32] {
        &self.0
    }
}

impl PartialEq for SharedSamples {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.0 == other.0
    }
}

/// The 16-bit counts of a stored set's samples ([`SignalSet::samples`],
/// or a copy of them), in order: the one reading of the format
/// [`SignalSet::new`] writes, by which a snapshot and the wire carry a
/// set as it is stored.
///
/// Every sample must be a whole count in the 16-bit range, as every
/// stored one is; a debug build checks it.
///
/// # Example
///
/// ```
/// let stored = [-32768.0, -0.0, 7.0, 32767.0];
/// assert!(emap_mdb::counts(&stored).eq([-32768, 0, 7, 32767]));
/// ```
pub fn counts(samples: &[f32]) -> impl ExactSizeIterator<Item = i16> + '_ {
    samples.iter().map(|&x| {
        let count = x as i16;
        debug_assert!(f32::from(count) == x, "sample {x} is no 16-bit count");
        count
    })
}

/// Identifier of a [`SignalSet`] within one [`crate::Mdb`]. Assigned
/// densely at insertion, so it doubles as the store index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SetId(pub u64);

impl std::fmt::Display for SetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Where a signal-set came from: enough to trace any search hit back to a
/// specific second of a specific channel of a specific recording.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Provenance {
    /// Dataset identifier (e.g. `"physionet-mirror"`).
    pub dataset_id: String,
    /// Recording identifier within the dataset.
    pub recording_id: String,
    /// Channel label within the recording.
    pub channel: String,
    /// Offset of the slice's first sample in the resampled (256 Hz)
    /// recording.
    pub offset: u64,
}

impl Provenance {
    /// Start time of the slice in seconds of the resampled recording.
    #[must_use]
    pub fn start_s(&self) -> f64 {
        self.offset as f64 / 256.0
    }
}

/// One labeled 1000-sample slice of the mega-database (§V-B).
///
/// Samples are at the 256 Hz base rate, already bandpass filtered, and
/// whole 16-bit counts (1 µV a count): [`SignalSet::new`] rounds them and
/// refuses what does not fit, so every stored host is on the kernel's
/// integer grid and crosses the wire and a snapshot as it is stored. The
/// attribute `A(S_P)` of the paper maps to [`SignalSet::is_anomalous`];
/// the finer-grained class is kept so the evaluation can distinguish the
/// three anomalies.
///
/// # Example
///
/// ```
/// use emap_datasets::SignalClass;
/// use emap_mdb::{Provenance, SignalSet};
///
/// # fn main() -> Result<(), emap_mdb::MdbError> {
/// let set = SignalSet::new(
///     vec![0.0; emap_mdb::SIGNAL_SET_LEN],
///     SignalClass::Seizure,
///     Provenance {
///         dataset_id: "physionet-mirror".into(),
///         recording_id: "rec-1".into(),
///         channel: "EEG C3".into(),
///         offset: 2000,
///     },
/// )?;
/// assert!(set.is_anomalous());
/// assert_eq!(set.samples().len(), 1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SignalSet {
    samples: SharedSamples,
    class: SignalClass,
    provenance: Provenance,
    /// Lazily built (and [`crate::Mdb`]-prewarmed) O(1)-statistics tables
    /// for the kernel correlator — prefix checkpoints, plus the one min/max
    /// level a [`SignalSet::SPECTRA_WINDOW`] scan reads once prewarmed —
    /// behind an `Arc` so every clone of the set shares the one build.
    /// Derived from `samples`, which are immutable after construction, so
    /// no invalidation is ever needed. Not part of a snapshot: snapshots
    /// stay compact and stats are rebuilt on load.
    stats: OnceLock<Arc<HostStats>>,
    /// Lazily built (and [`crate::Mdb`]-prewarmed) multi-resolution spectral
    /// envelopes for the search index's admissible host bounds, with the
    /// same lifecycle as `stats`: derived from the immutable `samples`,
    /// shared by `Arc`, not part of a snapshot and rebuilt on load.
    spectra: OnceLock<Arc<HostSpectra>>,
}

impl PartialEq for SignalSet {
    fn eq(&self, other: &Self) -> bool {
        // `stats` and `spectra` are derived from `samples`, so they carry
        // no identity.
        self.samples == other.samples
            && self.class == other.class
            && self.provenance == other.provenance
    }
}

impl SignalSet {
    /// Creates a signal-set of 16-bit counts: the one place the store's
    /// sample format is decided. Every sample is rounded with
    /// [`f32::round`], as a 16-bit ADC would digitize it (a whole count
    /// keeps its bits, `-0.0` included), and the rounded sample must lie in
    /// `[-32768, 32767]`.
    ///
    /// # Errors
    ///
    /// Returns [`MdbError::WrongSliceLength`] unless `samples` holds exactly
    /// [`SIGNAL_SET_LEN`] values, and [`MdbError::SampleOutOfRange`] for the
    /// first sample that is non-finite or rounds outside the 16-bit range.
    pub fn new(
        mut samples: Vec<f32>,
        class: SignalClass,
        provenance: Provenance,
    ) -> Result<Self, MdbError> {
        if samples.len() != SIGNAL_SET_LEN {
            return Err(MdbError::WrongSliceLength { got: samples.len() });
        }
        for (index, x) in samples.iter_mut().enumerate() {
            let count = x.round();
            // A NaN is in no range.
            if !(-32768.0..=32767.0).contains(&count) {
                return Err(MdbError::SampleOutOfRange { index, value: *x });
            }
            *x = count;
        }
        Ok(SignalSet {
            samples: SharedSamples::new(samples),
            class,
            provenance,
            stats: OnceLock::new(),
            spectra: OnceLock::new(),
        })
    }

    /// The window length (in samples) every [`SignalSet::spectra`] table is
    /// built for: the cloud search correlates one-second queries at the
    /// 256 Hz base rate.
    pub const SPECTRA_WINDOW: usize = emap_dsp::SAMPLES_PER_SECOND;

    /// The slice samples (always [`SIGNAL_SET_LEN`] of them).
    #[must_use]
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// The slice samples as shared storage: cloning the result is a
    /// refcount bump, so edge downloads alias the store's allocation
    /// instead of copying it.
    #[must_use]
    pub fn samples_shared(&self) -> &SharedSamples {
        &self.samples
    }

    /// The signal class this slice was labeled with.
    #[must_use]
    pub fn class(&self) -> SignalClass {
        self.class
    }

    /// The paper's binary attribute `A(S_P)`: 1 for anomalous slices.
    #[must_use]
    pub fn is_anomalous(&self) -> bool {
        self.class.is_anomaly()
    }

    /// Provenance of the slice.
    #[must_use]
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// The O(1)-statistics tables for this slice, built on first access and
    /// cached for the set's lifetime. [`crate::Mdb`] prewarms this at
    /// insert/load time so searches never pay the build cost on the hot
    /// path.
    #[must_use]
    pub fn stats(&self) -> &HostStats {
        self.stats
            .get_or_init(|| Arc::new(HostStats::new(&self.samples)))
    }

    /// Whether the statistics tables have already been built.
    #[must_use]
    pub fn stats_ready(&self) -> bool {
        self.stats.get().is_some()
    }

    /// The multi-resolution spectral envelopes for this slice at
    /// [`SignalSet::SPECTRA_WINDOW`], built on first access and cached for
    /// the set's lifetime. [`crate::Mdb`] prewarms this alongside `stats`
    /// so indexed sweeps never pay the build cost on the hot path.
    #[must_use]
    pub fn spectra(&self) -> &HostSpectra {
        self.spectra_arc_ref()
    }

    /// The spectral envelopes behind their shared handle, for consumers
    /// that keep them alive past a borrow of the set.
    #[must_use]
    pub fn spectra_arc(&self) -> Arc<HostSpectra> {
        Arc::clone(self.spectra_arc_ref())
    }

    fn spectra_arc_ref(&self) -> &Arc<HostSpectra> {
        self.spectra.get_or_init(|| {
            Arc::new(HostSpectra::new(
                &self.samples,
                self.stats(),
                Self::SPECTRA_WINDOW,
            ))
        })
    }

    /// Whether the spectral envelopes have already been built.
    #[must_use]
    pub fn spectra_ready(&self) -> bool {
        self.spectra.get().is_some()
    }

    /// Heap bytes this set keeps resident right now: the samples plus
    /// whatever of the statistics tables (prefixes and built min/max
    /// levels) and the spectral envelopes has been built. Allocations
    /// shared with clones and edge trackers are counted here, once.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.samples())
            + self.stats.get().map_or(0, |s| s.memory_bytes())
            + self.spectra.get().map_or(0, |s| s.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_dsp::area::{BoundedAreaScan, ScanCounters};

    fn prov() -> Provenance {
        Provenance {
            dataset_id: "d".into(),
            recording_id: "r".into(),
            channel: "c".into(),
            offset: 512,
        }
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(matches!(
            SignalSet::new(vec![0.0; 999], SignalClass::Normal, prov()),
            Err(MdbError::WrongSliceLength { got: 999 })
        ));
        assert!(SignalSet::new(vec![0.0; 1000], SignalClass::Normal, prov()).is_ok());
    }

    /// `SignalSet::new` decides the sample format: it rounds with
    /// `f32::round` (a whole count keeps its bits, `-0.0` included) and
    /// refuses, naming the first, a sample that is non-finite or rounds
    /// outside the 16-bit range.
    #[test]
    fn samples_are_rounded_to_16_bit_counts_or_refused() {
        let mut samples = vec![7.0f32; 1000];
        samples[..7].copy_from_slice(&[2.5, -2.5, 0.49, -0.0, 32767.4, -32768.4, -0.3]);
        let set = SignalSet::new(samples, SignalClass::Normal, prov()).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&set.samples()[..8]),
            bits(&[3.0, -3.0, 0.0, -0.0, 32767.0, -32768.0, -0.0, 7.0])
        );
        let refused = [
            (0, f32::NAN),
            (999, f32::INFINITY),
            (5, f32::NEG_INFINITY),
            (7, 40_000.0),
            (2, 32767.5),
            (1, -32768.5),
        ];
        for (at, bad) in refused {
            let mut samples = vec![0.0f32; 1000];
            samples[at] = bad;
            samples[(at + 1) % 1000] = f32::NAN;
            let first = at.min((at + 1) % 1000);
            match SignalSet::new(samples, SignalClass::Normal, prov()) {
                Err(MdbError::SampleOutOfRange { index, value }) => {
                    assert_eq!(index, first, "{bad}");
                    assert!(!(-32768.0..=32767.0).contains(&value.round()), "{bad}");
                }
                other => panic!("{bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn anomaly_attribute_follows_class() {
        let normal = SignalSet::new(vec![0.0; 1000], SignalClass::Normal, prov()).unwrap();
        assert!(!normal.is_anomalous());
        for class in SignalClass::ANOMALIES {
            let s = SignalSet::new(vec![0.0; 1000], class, prov()).unwrap();
            assert!(s.is_anomalous());
            assert_eq!(s.class(), class);
        }
    }

    #[test]
    fn provenance_time_mapping() {
        let p = prov();
        assert!((p.start_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn set_id_display() {
        assert_eq!(SetId(42).to_string(), "S42");
    }

    #[test]
    fn stats_are_lazy_cached_and_consistent() {
        let samples: Vec<f32> = (0..1000)
            .map(|i| ((i as f32) * 0.11).sin() * 50.0)
            .collect();
        let set = SignalSet::new(samples, SignalClass::Normal, prov()).unwrap();
        let samples = set.samples();
        assert!(!set.stats_ready());
        let stats = set.stats();
        assert_eq!(stats.len(), 1000);
        assert!(set.stats_ready());
        let direct: f64 = samples[100..300].iter().map(|&x| f64::from(x)).sum();
        assert_eq!(stats.window_sum(samples, 100, 200), direct);
    }

    #[test]
    fn samples_are_shared_not_copied() {
        let set = SignalSet::new(vec![0.25; 1000], SignalClass::Normal, prov()).unwrap();
        let a = set.samples_shared().clone();
        let b = set.samples_shared().clone();
        assert!(a.ptr_eq(&b));
        assert!(a.ptr_eq(set.samples_shared()));
        // A value-equal but separately-allocated copy is equal, not aliased.
        let copy = SharedSamples::new(set.samples().to_vec());
        assert_eq!(a, copy);
        assert!(!a.ptr_eq(&copy));
        // Cloning the whole set shares the storage too.
        let cloned = set.clone();
        assert!(cloned.samples_shared().ptr_eq(set.samples_shared()));
    }

    #[test]
    fn stats_handle_is_shared() {
        let samples: Vec<f32> = (0..1000)
            .map(|i| ((i as f32) * 0.07).cos() * 50.0)
            .collect();
        let set = SignalSet::new(samples, SignalClass::Normal, prov()).unwrap();
        let a = set.stats();
        assert!(std::ptr::eq(a, set.stats()));
        // A clone of a built set shares the one build.
        assert!(std::ptr::eq(a, set.clone().stats()));
        assert_eq!(a.len(), 1000);
        assert!(set.stats_ready());
    }

    #[test]
    fn equality_ignores_stats_cache() {
        let samples = vec![0.5f32; 1000];
        let a = SignalSet::new(samples.clone(), SignalClass::Normal, prov()).unwrap();
        let b = SignalSet::new(samples, SignalClass::Normal, prov()).unwrap();
        let _ = a.stats();
        let _ = a.spectra();
        assert_eq!(a, b);
        assert!(a.stats_ready());
        assert!(a.spectra_ready());
        assert!(!b.stats_ready());
        assert!(!b.spectra_ready());
    }

    #[test]
    fn resident_bytes_follow_what_is_built() {
        let samples: Vec<f32> = (0..1000)
            .map(|i| ((i as f32) * 0.11).sin() * 50.0)
            .collect();
        let set = SignalSet::new(samples, SignalClass::Normal, prov()).unwrap();
        assert_eq!(set.resident_bytes(), 4000);
        let stats = set.stats().memory_bytes();
        assert_eq!(set.resident_bytes(), 4000 + stats);
        // The spectra build reads (and so builds) one min/max level, and
        // streams its window sums from the prefix checkpoints.
        let spectra = set.spectra().memory_bytes();
        assert_eq!(set.stats().built_levels().count(), 1);
        let warm = set.stats().memory_bytes();
        assert_eq!(warm, stats + 2 * (1000 - 256 + 1));
        assert_eq!(set.resident_bytes(), 4000 + warm + spectra);
        // An area scan reads the samples alone, putting them on its grid
        // in a buffer of its thread's own: the bytes of a set with nothing
        // built, and of a built one, do not move, scan after scan.
        let cold = SignalSet::new(set.samples().to_vec(), SignalClass::Normal, prov()).unwrap();
        let input = &set.samples()[300..556];
        let scan = BoundedAreaScan::new(input).unwrap();
        let mut counters = ScanCounters::default();
        for _ in 0..2 {
            for scanned in [&set, &cold] {
                let found = scan.first_within(scanned.samples(), 0.0, &mut counters);
                assert_eq!(found.unwrap(), Some((300, 0.0)));
            }
            assert_eq!(set.resident_bytes(), 4000 + warm + spectra);
            assert_eq!(cold.resident_bytes(), 4000);
            assert!(!cold.stats_ready());
        }
    }

    #[test]
    fn spectra_are_lazy_cached_and_shared() {
        let samples: Vec<f32> = (0..1000)
            .map(|i| ((i as f32) * 0.13).sin() * 10.0)
            .collect();
        let set = SignalSet::new(samples, SignalClass::Normal, prov()).unwrap();
        assert!(!set.spectra_ready());
        let spectra = set.spectra();
        assert_eq!(spectra.window(), SignalSet::SPECTRA_WINDOW);
        assert_eq!(spectra.offsets(), 1000 - SignalSet::SPECTRA_WINDOW + 1);
        assert!(set.spectra_ready());
        let a = set.spectra_arc();
        let b = set.spectra_arc();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.memory_bytes() > 0);
    }
}
