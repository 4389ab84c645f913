use std::io::{Read, Write};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use emap_datasets::SignalClass;

use crate::{snapshot, MdbError, SetId, SignalSet};

/// Aggregate statistics of a mega-database.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MdbStats {
    /// Total number of signal-sets.
    pub total: usize,
    /// Number of normal signal-sets.
    pub normal: usize,
    /// Number of anomalous signal-sets.
    pub anomalous: usize,
    /// Per-class counts (classes with zero slices omitted).
    pub per_class: Vec<(SignalClass, usize)>,
    /// Per-dataset counts (dataset id, slices).
    pub per_dataset: Vec<(String, usize)>,
    /// Heap bytes the sets keep resident: the sum of
    /// [`SignalSet::resident_bytes`].
    pub resident_bytes: usize,
}

/// Outcome of a capacity-bounded live insert ([`Mdb::insert_bounded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveInsert {
    /// The store had headroom; the set landed in a fresh slot.
    Appended(SetId),
    /// The store was full; the set replaced the eviction victim
    /// in place. `generation` is the victim slot's new per-slot
    /// generation (≥ 1), which delta-dedup layers use to detect that
    /// a previously delivered id no longer names the same samples.
    Replaced {
        /// The reused slot id.
        id: SetId,
        /// The slot's generation after this replacement.
        generation: u64,
        /// Class of the set that was evicted.
        evicted_class: SignalClass,
    },
}

impl LiveInsert {
    /// The slot the set landed in, either way.
    #[must_use]
    pub fn id(self) -> SetId {
        match self {
            LiveInsert::Appended(id) | LiveInsert::Replaced { id, .. } => id,
        }
    }
}

/// Per-slot lifecycle metadata: how many times the slot has been
/// reused, and when (logically) its current occupant arrived.
#[derive(Debug, Clone, Copy, Default)]
struct SlotMeta {
    /// 0 = the slot still holds its first occupant; each in-place
    /// replacement increments it.
    generation: u64,
    /// Store-wide insertion sequence of the current occupant — the
    /// age order the eviction policy consults.
    seq: u64,
}

/// The mega-database store: a dense, indexable collection of
/// [`SignalSet`]s.
///
/// The store is dense — `SetId` doubles as the index — and `Sync`, so
/// the parallel cloud search can scan `&Mdb` from many threads. Batch
/// construction is append-only (the paper's pipeline only ever
/// inserts); live serving additionally supports capacity-bounded
/// ingest via [`Mdb::insert_bounded`], which at capacity reuses a slot
/// *in place* (the store stays dense, ids stay stable for searches)
/// and advances that slot's generation counter so connection-level
/// caches can detect the change. For the serving scenario where the
/// pipeline keeps ingesting while searches run, wrap it in a
/// [`SharedMdb`].
///
/// Lifecycle metadata (generations, insertion order) is runtime state:
/// snapshots persist only the sets, and a reloaded store starts at
/// generation 0 — coherent, because connection caches do not survive a
/// server restart either.
///
/// # Example
///
/// See the crate-level example; typical construction goes through
/// [`crate::MdbBuilder`].
#[derive(Debug, Clone, Default)]
pub struct Mdb {
    sets: Vec<SignalSet>,
    meta: Vec<SlotMeta>,
    /// Next insertion sequence number.
    next_seq: u64,
    /// Total in-place replacements ever performed (the store
    /// generation; exposed for telemetry and replay checks).
    replacements: u64,
}

impl Mdb {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Mdb::default()
    }

    /// Creates a store from pre-built signal-sets, prewarming each set's
    /// O(1)-statistics tables and spectral envelopes so the first search
    /// never pays the build cost.
    #[must_use]
    pub fn from_sets(sets: Vec<SignalSet>) -> Self {
        let mut mdb = Mdb::new();
        for set in sets {
            mdb.insert(set);
        }
        mdb
    }

    /// Number of signal-sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Appends a signal-set, returning its new id. The set's
    /// O(1)-statistics tables and spectral envelopes are built here (the
    /// store is append-only, so the one-time cost is amortized across every
    /// query that ever scans the set).
    pub fn insert(&mut self, set: SignalSet) -> SetId {
        prewarm(&set);
        self.push_prewarmed(set)
    }

    /// Appends an already-prewarmed set (see [`prewarm`]); the internal
    /// primitive every construction path funnels through so slot
    /// metadata never desynchronizes from the dense set vector.
    fn push_prewarmed(&mut self, set: SignalSet) -> SetId {
        self.sets.push(set);
        self.meta.push(SlotMeta {
            generation: 0,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        SetId(self.sets.len() as u64 - 1)
    }

    /// Inserts under a capacity bound: below `capacity` this is
    /// [`Mdb::insert`]; at capacity the class-aware eviction policy
    /// picks a victim slot and the set replaces it in place. The
    /// policy — evict the oldest member of the most-populated class,
    /// population ties broken toward the class holding the older
    /// oldest member — keeps minority classes (the anomalies searches
    /// exist to find) resident while churning the bulk class, and is
    /// fully deterministic, so replaying the same ingest journal into
    /// an empty store always reproduces the same slots, generations,
    /// and search results.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a store that can hold nothing can
    /// not accept an insert.
    pub fn insert_bounded(&mut self, set: SignalSet, capacity: usize) -> LiveInsert {
        assert!(capacity > 0, "capacity must be at least 1");
        if self.sets.len() < capacity {
            return LiveInsert::Appended(self.insert(set));
        }
        prewarm(&set);
        let victim = self.eviction_victim();
        let evicted_class = self.sets[victim].class();
        self.sets[victim] = set;
        self.meta[victim].generation += 1;
        self.meta[victim].seq = self.next_seq;
        self.next_seq += 1;
        self.replacements += 1;
        LiveInsert::Replaced {
            id: SetId(victim as u64),
            generation: self.meta[victim].generation,
            evicted_class,
        }
    }

    /// The slot the eviction policy would reuse next. The store must be
    /// non-empty.
    fn eviction_victim(&self) -> usize {
        // Per-class (population, oldest seq, oldest slot), one scan.
        let mut classes: Vec<(SignalClass, usize, u64, usize)> = Vec::new();
        for (i, (set, meta)) in self.sets.iter().zip(&self.meta).enumerate() {
            match classes.iter_mut().find(|(c, ..)| *c == set.class()) {
                Some((_, n, seq, slot)) => {
                    *n += 1;
                    if meta.seq < *seq {
                        *seq = meta.seq;
                        *slot = i;
                    }
                }
                None => classes.push((set.class(), 1, meta.seq, i)),
            }
        }
        classes
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)))
            .map(|&(_, _, _, slot)| slot)
            .expect("eviction requires a non-empty store")
    }

    /// The per-slot replacement generation: `Some(0)` for a slot still
    /// holding its first occupant, incremented on every in-place
    /// replacement, `None` for ids the store has never assigned.
    #[must_use]
    pub fn slot_generation(&self, id: SetId) -> Option<u64> {
        self.meta.get(id.0 as usize).map(|m| m.generation)
    }

    /// Total in-place replacements performed over the store's lifetime.
    #[must_use]
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// Looks up a signal-set by id.
    #[must_use]
    pub fn get(&self, id: SetId) -> Option<&SignalSet> {
        self.sets.get(id.0 as usize)
    }

    /// Looks up a signal-set by id, with a descriptive error.
    ///
    /// # Errors
    ///
    /// Returns [`MdbError::UnknownSet`] if `id` is out of range.
    pub fn try_get(&self, id: SetId) -> Result<&SignalSet, MdbError> {
        self.get(id).ok_or(MdbError::UnknownSet { id: id.0 })
    }

    /// Iterates over all signal-sets in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &SignalSet> {
        self.sets.iter()
    }

    /// Iterates over `(id, set)` pairs.
    pub fn iter_with_ids(&self) -> impl ExactSizeIterator<Item = (SetId, &SignalSet)> {
        self.sets
            .iter()
            .enumerate()
            .map(|(i, s)| (SetId(i as u64), s))
    }

    /// Iterates over the signal-sets of one class.
    pub fn of_class(&self, class: SignalClass) -> impl Iterator<Item = (SetId, &SignalSet)> {
        self.iter_with_ids()
            .filter(move |(_, s)| s.class() == class)
    }

    /// Iterates over the signal-sets from one dataset.
    pub fn of_dataset<'a>(
        &'a self,
        dataset_id: &'a str,
    ) -> impl Iterator<Item = (SetId, &'a SignalSet)> + 'a {
        self.iter_with_ids()
            .filter(move |(_, s)| s.provenance().dataset_id == dataset_id)
    }

    /// Builds a new store containing only the sets selected by `keep` —
    /// used for ablations that search class- or dataset-restricted corpora.
    #[must_use]
    pub fn filtered(&self, keep: impl Fn(&SignalSet) -> bool) -> Mdb {
        let mut out = Mdb::new();
        for set in self.sets.iter().filter(|s| keep(s)) {
            // Clones carry warm tables; no rebuild happens here.
            out.push_prewarmed(set.clone());
        }
        out
    }

    /// Computes aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> MdbStats {
        let mut stats = MdbStats {
            total: self.sets.len(),
            ..MdbStats::default()
        };
        for set in &self.sets {
            stats.resident_bytes += set.resident_bytes();
            if set.is_anomalous() {
                stats.anomalous += 1;
            } else {
                stats.normal += 1;
            }
            match stats.per_class.iter_mut().find(|(c, _)| *c == set.class()) {
                Some((_, n)) => *n += 1,
                None => stats.per_class.push((set.class(), 1)),
            }
            let ds = &set.provenance().dataset_id;
            match stats.per_dataset.iter_mut().find(|(d, _)| d == ds) {
                Some((_, n)) => *n += 1,
                None => stats.per_dataset.push((ds.clone(), 1)),
            }
        }
        stats
    }

    /// Serializes the store to a binary snapshot (the stand-in for the
    /// paper's MongoDB persistence).
    ///
    /// # Errors
    ///
    /// Returns [`MdbError::Io`] on write failures.
    pub fn write_snapshot<W: Write>(&self, writer: W) -> Result<(), MdbError> {
        snapshot::write(self, writer)
    }

    /// Restores a store from a snapshot produced by
    /// [`Mdb::write_snapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`MdbError::BadMagic`] for foreign streams and
    /// [`MdbError::CorruptSnapshot`] / [`MdbError::Io`] for damaged ones.
    pub fn read_snapshot<R: Read>(reader: R) -> Result<Self, MdbError> {
        snapshot::read(reader)
    }

    /// Wraps the store in a thread-safe, cheaply clonable handle.
    #[must_use]
    pub fn into_shared(self) -> SharedMdb {
        SharedMdb {
            inner: Arc::new(RwLock::new(self)),
        }
    }
}

impl FromIterator<SignalSet> for Mdb {
    fn from_iter<I: IntoIterator<Item = SignalSet>>(iter: I) -> Self {
        Mdb::from_sets(iter.into_iter().collect())
    }
}

impl Extend<SignalSet> for Mdb {
    fn extend<I: IntoIterator<Item = SignalSet>>(&mut self, iter: I) {
        for set in iter {
            self.insert(set);
        }
    }
}

/// Builds every derived per-set table a search reads so no search path ever
/// pays the construction cost: the spectral envelopes, and with them (they
/// are built from the set's statistics at the same window) the prefix
/// tables and the one min/max level a [`SignalSet::SPECTRA_WINDOW`] query
/// reads. No other level is built: a search never reads one.
fn prewarm(set: &SignalSet) {
    let _ = set.spectra();
}

/// Thread-safe handle over an [`Mdb`], for the cloud service scenario where
/// ingestion and search run concurrently.
///
/// # Example
///
/// ```
/// use emap_mdb::Mdb;
///
/// let shared = Mdb::new().into_shared();
/// let clone = shared.clone();
/// assert_eq!(clone.len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SharedMdb {
    inner: Arc<RwLock<Mdb>>,
}

impl SharedMdb {
    /// Poison is recovered, not propagated: the one panic a writer can
    /// raise ([`Mdb::insert_bounded`]'s capacity assertion) fires before it
    /// touches the store, so the data behind a poisoned lock is whole.
    fn read(&self) -> RwLockReadGuard<'_, Mdb> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Mdb> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of signal-sets at this instant.
    #[must_use]
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the store is empty at this instant.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Appends a signal-set. The set's statistics tables and spectral
    /// envelopes are built *before* the write lock is taken (the
    /// `OnceLock` caches in [`SignalSet`] make prewarming idempotent),
    /// so concurrent searches are never blocked behind a table build.
    pub fn insert(&self, set: SignalSet) -> SetId {
        prewarm(&set);
        self.write().insert(set)
    }

    /// Capacity-bounded live ingest: [`Mdb::insert_bounded`], with the
    /// prewarm cost paid on the calling (request) thread outside the
    /// write lock. This is the cloud's `IngestRequest` path — the lock
    /// is held only for the O(len) victim scan and an O(1) swap.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn ingest_bounded(&self, set: SignalSet, capacity: usize) -> LiveInsert {
        prewarm(&set);
        self.write().insert_bounded(set, capacity)
    }

    /// Runs `f` with read access to the store (used by searches).
    pub fn with_read<T>(&self, f: impl FnOnce(&Mdb) -> T) -> T {
        f(&self.read())
    }

    /// Takes a point-in-time copy of the store.
    #[must_use]
    pub fn snapshot(&self) -> Mdb {
        self.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Provenance;

    fn set(class: SignalClass, ds: &str, offset: u64) -> SignalSet {
        SignalSet::new(
            vec![offset as f32; crate::SIGNAL_SET_LEN],
            class,
            Provenance {
                dataset_id: ds.into(),
                recording_id: "r".into(),
                channel: "c".into(),
                offset,
            },
        )
        .unwrap()
    }

    fn sample_mdb() -> Mdb {
        let mut mdb = Mdb::new();
        mdb.insert(set(SignalClass::Normal, "a", 0));
        mdb.insert(set(SignalClass::Seizure, "a", 1000));
        mdb.insert(set(SignalClass::Normal, "b", 0));
        mdb.insert(set(SignalClass::Stroke, "b", 1000));
        mdb.insert(set(SignalClass::Normal, "b", 2000));
        mdb
    }

    #[test]
    fn insert_assigns_dense_ids() {
        let mut mdb = Mdb::new();
        assert_eq!(mdb.insert(set(SignalClass::Normal, "a", 0)), SetId(0));
        assert_eq!(mdb.insert(set(SignalClass::Normal, "a", 1)), SetId(1));
        assert_eq!(mdb.len(), 2);
    }

    #[test]
    fn get_and_try_get() {
        let mdb = sample_mdb();
        assert!(mdb.get(SetId(4)).is_some());
        assert!(mdb.get(SetId(5)).is_none());
        assert!(mdb.try_get(SetId(5)).is_err());
        assert_eq!(mdb.try_get(SetId(1)).unwrap().class(), SignalClass::Seizure);
    }

    #[test]
    fn stats_are_consistent() {
        let stats = sample_mdb().stats();
        assert_eq!(stats.total, 5);
        assert_eq!(stats.normal, 3);
        assert_eq!(stats.anomalous, 2);
        assert_eq!(stats.per_class.iter().map(|&(_, n)| n).sum::<usize>(), 5);
        assert_eq!(stats.per_dataset.len(), 2);
    }

    #[test]
    fn iter_with_ids_matches_get() {
        let mdb = sample_mdb();
        for (id, s) in mdb.iter_with_ids() {
            assert_eq!(mdb.get(id).unwrap(), s);
        }
    }

    #[test]
    fn from_iterator_and_extend() {
        let sets: Vec<SignalSet> = (0..3).map(|i| set(SignalClass::Normal, "x", i)).collect();
        let mut mdb: Mdb = sets.clone().into_iter().collect();
        assert_eq!(mdb.len(), 3);
        mdb.extend(sets);
        assert_eq!(mdb.len(), 6);
    }

    #[test]
    fn class_and_dataset_views() {
        let mdb = sample_mdb();
        assert_eq!(mdb.of_class(SignalClass::Normal).count(), 3);
        assert_eq!(mdb.of_class(SignalClass::Seizure).count(), 1);
        assert_eq!(mdb.of_class(SignalClass::Encephalopathy).count(), 0);
        assert_eq!(mdb.of_dataset("a").count(), 2);
        assert_eq!(mdb.of_dataset("b").count(), 3);
        assert_eq!(mdb.of_dataset("zzz").count(), 0);
        // Views carry correct ids.
        for (id, s) in mdb.of_class(SignalClass::Stroke) {
            assert_eq!(mdb.get(id).unwrap(), s);
        }
    }

    #[test]
    fn filtered_builds_a_sub_corpus() {
        let mdb = sample_mdb();
        let normals = mdb.filtered(|s| !s.is_anomalous());
        assert_eq!(normals.len(), 3);
        assert!(normals.iter().all(|s| !s.is_anomalous()));
        let empty = mdb.filtered(|_| false);
        assert!(empty.is_empty());
    }

    #[test]
    fn shared_mdb_inserts_are_visible_to_clones() {
        let shared = Mdb::new().into_shared();
        let other = shared.clone();
        shared.insert(set(SignalClass::Normal, "a", 0));
        assert_eq!(other.len(), 1);
        assert_eq!(other.with_read(|m| m.len()), 1);
        assert_eq!(other.snapshot().len(), 1);
    }

    #[test]
    fn stats_prewarmed_on_every_construction_path() {
        let fresh = || set(SignalClass::Normal, "a", 7);
        assert!(!fresh().stats_ready());
        assert!(!fresh().spectra_ready());
        let warm = |s: &SignalSet| s.stats_ready() && s.spectra_ready();

        let mut mdb = Mdb::new();
        let id = mdb.insert(fresh());
        assert!(warm(mdb.get(id).unwrap()));

        let built = Mdb::from_sets(vec![fresh(), fresh()]);
        assert!(built.iter().all(warm));

        let collected: Mdb = (0..2).map(|_| fresh()).collect();
        assert!(collected.iter().all(warm));

        let mut extended = Mdb::new();
        extended.extend(std::iter::once(fresh()));
        assert!(extended.iter().all(warm));

        // Clones (and therefore `filtered` sub-corpora) carry warm tables.
        let filtered = built.filtered(|_| true);
        assert!(filtered.iter().all(warm));
    }

    /// The footprint the store is held to: everything a search reads of a
    /// 1000-sample set fits 18 KiB (17 689 bytes: 4 000 of samples, the
    /// prefix checkpoints, one min/max level and the spectral envelopes),
    /// and of the min/max levels exactly the one a one-second query reads
    /// exists.
    #[test]
    fn a_prewarmed_set_fits_18_kib_and_holds_one_level() {
        let mut mdb = Mdb::new();
        let id = mdb.insert(set(SignalClass::Normal, "a", 7));
        let warm = mdb.get(id).unwrap();
        assert!(
            warm.resident_bytes() <= 18 * 1024,
            "{}",
            warm.resident_bytes()
        );
        let level = SignalSet::SPECTRA_WINDOW.ilog2() as usize;
        assert_eq!(warm.stats().built_levels().collect::<Vec<_>>(), [level]);
        assert_eq!(mdb.stats().resident_bytes, warm.resident_bytes());

        // A set whose windows were only ever summed, never min/max-ed,
        // holds no level, and summing replays from the prefix checkpoints
        // without building the full tables: its bytes do not move.
        let tracked = set(SignalClass::Normal, "a", 7);
        let (samples, stats) = (tracked.samples(), tracked.stats());
        let fresh = tracked.resident_bytes();
        assert!(fresh < 4000 + 1024, "{fresh}");
        let _ = stats.window_sum(samples, 100, SignalSet::SPECTRA_WINDOW);
        let _ = stats.window_energy(samples, 100, SignalSet::SPECTRA_WINDOW);
        assert_eq!(stats.built_levels().count(), 0);
        assert_eq!(tracked.resident_bytes(), fresh);
    }

    #[test]
    fn bounded_insert_appends_until_capacity() {
        let mut mdb = Mdb::new();
        for i in 0..3 {
            let out = mdb.insert_bounded(set(SignalClass::Normal, "a", i), 3);
            assert_eq!(out, LiveInsert::Appended(SetId(i)));
            assert_eq!(out.id(), SetId(i));
        }
        assert_eq!(mdb.len(), 3);
        assert_eq!(mdb.replacements(), 0);
        assert_eq!(mdb.slot_generation(SetId(0)), Some(0));
        assert_eq!(mdb.slot_generation(SetId(3)), None);
    }

    #[test]
    fn bounded_insert_replaces_in_place_at_capacity() {
        let mut mdb = Mdb::new();
        for i in 0..3 {
            mdb.insert_bounded(set(SignalClass::Normal, "a", i), 3);
        }
        // Full: the oldest normal (slot 0) is the victim.
        let out = mdb.insert_bounded(set(SignalClass::Seizure, "b", 99), 3);
        assert_eq!(
            out,
            LiveInsert::Replaced {
                id: SetId(0),
                generation: 1,
                evicted_class: SignalClass::Normal,
            }
        );
        assert_eq!(mdb.len(), 3, "store stays dense at capacity");
        assert_eq!(mdb.get(SetId(0)).unwrap().class(), SignalClass::Seizure);
        assert!(mdb.get(SetId(0)).unwrap().stats_ready());
        assert_eq!(mdb.slot_generation(SetId(0)), Some(1));
        assert_eq!(mdb.slot_generation(SetId(1)), Some(0));
        assert_eq!(mdb.replacements(), 1);
    }

    #[test]
    fn eviction_is_class_aware() {
        let mut mdb = Mdb::new();
        // 3 normals (majority), 1 seizure.
        mdb.insert_bounded(set(SignalClass::Seizure, "a", 0), 4);
        for i in 1..4 {
            mdb.insert_bounded(set(SignalClass::Normal, "a", i), 4);
        }
        // The minority seizure at slot 0 is spared; the oldest normal
        // (slot 1) goes.
        let out = mdb.insert_bounded(set(SignalClass::Normal, "b", 50), 4);
        assert_eq!(out.id(), SetId(1));
        assert_eq!(mdb.get(SetId(0)).unwrap().class(), SignalClass::Seizure);
        // Next eviction: slot 2 is now the oldest normal.
        let out = mdb.insert_bounded(set(SignalClass::Normal, "b", 51), 4);
        assert_eq!(out.id(), SetId(2));
    }

    #[test]
    fn eviction_population_ties_prefer_the_older_class() {
        let mut mdb = Mdb::new();
        mdb.insert_bounded(set(SignalClass::Stroke, "a", 0), 2);
        mdb.insert_bounded(set(SignalClass::Normal, "a", 1), 2);
        // 1–1 population tie: the class whose member is older (stroke,
        // seq 0) loses its oldest member.
        let out = mdb.insert_bounded(set(SignalClass::Normal, "b", 9), 2);
        assert_eq!(out.id(), SetId(0));
    }

    #[test]
    fn replay_of_the_same_journal_is_deterministic() {
        let journal: Vec<SignalSet> = (0..12)
            .map(|i| {
                let class = match i % 3 {
                    0 => SignalClass::Normal,
                    1 => SignalClass::Seizure,
                    _ => SignalClass::Stroke,
                };
                set(class, "j", i)
            })
            .collect();
        let replay = || {
            let mut mdb = Mdb::new();
            for entry in journal.clone() {
                mdb.insert_bounded(entry, 5);
            }
            mdb
        };
        let (a, b) = (replay(), replay());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.replacements(), b.replacements());
        for (id, s) in a.iter_with_ids() {
            assert_eq!(b.get(id).unwrap(), s);
            assert_eq!(a.slot_generation(id), b.slot_generation(id));
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        Mdb::new().insert_bounded(set(SignalClass::Normal, "a", 0), 0);
    }

    #[test]
    fn shared_bounded_ingest_prewarms_and_replaces() {
        let shared = Mdb::new().into_shared();
        for i in 0..2 {
            shared.ingest_bounded(set(SignalClass::Normal, "a", i), 2);
        }
        let out = shared.ingest_bounded(set(SignalClass::Normal, "a", 7), 2);
        assert!(matches!(out, LiveInsert::Replaced { id: SetId(0), .. }));
        assert_eq!(shared.len(), 2);
        shared.with_read(|m| {
            assert!(m.iter().all(|s| s.stats_ready() && s.spectra_ready()));
            assert_eq!(m.slot_generation(SetId(0)), Some(1));
        });
    }

    #[test]
    fn snapshot_round_trip_resets_lifecycle_state() {
        let mut mdb = Mdb::new();
        for i in 0..3 {
            mdb.insert_bounded(set(SignalClass::Normal, "a", i), 2);
        }
        assert_eq!(mdb.replacements(), 1);
        let mut buf = Vec::new();
        mdb.write_snapshot(&mut buf).unwrap();
        let back = Mdb::read_snapshot(&buf[..]).unwrap();
        assert_eq!(back.len(), mdb.len());
        assert_eq!(back.replacements(), 0);
        assert!(back
            .iter_with_ids()
            .all(|(id, _)| back.slot_generation(id) == Some(0)));
    }

    #[test]
    fn shared_mdb_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SharedMdb>();
        check::<Mdb>();
    }
}
