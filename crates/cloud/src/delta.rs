//! Delta-refresh planning and application — the pure core of the
//! refresh path, socket-free so the equivalence proptests can drive it
//! directly.
//!
//! At the paper's refresh cadence most of a session's top-K membership
//! is stable from one cloud call to the next, so re-shipping every hit's
//! 1000-sample slice wastes almost all of the downlink. A delta refresh
//! splits the response into three parts:
//!
//! * **new hits** — sets the edge has never held on this connection:
//!   their slices travel (16-bit quantized) in the frame's table and the
//!   hit references the table by index,
//! * **retained hits** — sets the edge already holds (declared tracked,
//!   or delivered earlier on this connection): the hit travels as a bare
//!   set-ID reference with fresh `ω`/`β`, no samples,
//! * **evictions** — declared-tracked sets absent from the new top-K:
//!   just their IDs, so the edge (and telemetry) can see churn.
//!
//! With a capacity-bounded live store, a set id no longer names
//! immutable samples: an in-place replacement reuses the slot for new
//! data. The connection state is therefore generation-aware —
//! [`Delivered`] remembers *which generation* of each slot it shipped,
//! and the planner re-ships (as `New`) any hit whose slot has been
//! replaced since, instead of emitting a stale `Known` reference that
//! would resolve against outdated edge cache. Declared-tracked ids are
//! trusted only for generation-0 slots (never replaced ⇒ whatever the
//! edge holds is current); anything else travels in full.
//!
//! The server side is [`DeltaPlanner`]; the edge side is [`apply_delta`].
//! Both are pure over their inputs: the planner never touches the store
//! (the caller supplies a slot-generation lookup and fetches/quantizes
//! the table it asks for) and the applier resolves references through a
//! caller-supplied lookup. The invariant the proptests pin: *plan →
//! apply → load_shared* yields the same tracked state as shipping every
//! slice in full, whenever the lookup is coherent — and `apply_delta`
//! returns `None` (never a wrong answer) when it is not.

use std::collections::{HashMap, HashSet};

use emap_edge::{SharedDownload, SharedSlice};
use emap_mdb::SetId;
use emap_search::{SearchHit, SearchWork};
use emap_wire::{DeltaHit, DeltaSearchResult};

/// Generation-aware per-connection delivery state: which slot
/// generation of each set id this connection has already shipped.
///
/// An entry `(id, g)` means: the edge side of this connection holds the
/// samples slot `id` carried at generation `g`. The reference is valid
/// only while the slot still carries generation `g`; after an in-place
/// replacement the entry is stale and the planner ships fresh samples
/// (overwriting the entry on commit).
#[derive(Debug, Clone, Default)]
pub struct Delivered {
    map: HashMap<SetId, u64>,
}

impl Delivered {
    /// Empty state (a fresh connection).
    #[must_use]
    pub fn new() -> Self {
        Delivered::default()
    }

    /// Whether this connection holds `id` *at* the store's current
    /// generation for that slot — i.e. whether a bare reference is
    /// still resolvable to the right samples.
    #[must_use]
    pub fn holds_current(&self, id: SetId, current_generation: u64) -> bool {
        self.map.get(&id) == Some(&current_generation)
    }

    /// Records one shipped slice. Call only after the frame carrying it
    /// is on the wire.
    pub fn record(&mut self, id: SetId, generation: u64) {
        self.map.insert(id, generation);
    }

    /// Records a whole frame's shipped slices (see
    /// [`DeltaPlanner::shipped`]).
    pub fn record_all(&mut self, shipped: impl IntoIterator<Item = (SetId, u64)>) {
        for (id, generation) in shipped {
            self.record(id, generation);
        }
    }

    /// Number of distinct sets this connection holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been delivered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Plans delta responses for one frame: decides, hit by hit, whether a
/// slice must travel or a reference suffices, and builds the frame's
/// deduplicated slice table.
///
/// One planner serves one frame. For a batch frame, call
/// [`DeltaPlanner::plan`] once per query — the table is shared across
/// the whole frame, so a slice two queries both need still travels once.
/// After encoding, fold [`DeltaPlanner::shipped`] into the connection's
/// [`Delivered`] state: those (and only those) slices are now on the
/// edge's side of the wire, at the recorded generations.
///
/// `generation_of` is the store's slot-generation lookup at plan time
/// (`Mdb::slot_generation`, collapsed to 0 for append-only stores): the
/// planner compares it against [`Delivered`] to refuse stale
/// references.
pub struct DeltaPlanner<'a> {
    /// Sets already shipped to this connection in earlier frames.
    delivered: &'a Delivered,
    /// Current slot generation per set id.
    generation_of: &'a dyn Fn(SetId) -> u64,
    /// Frame-local table membership: set → table index.
    index: HashMap<SetId, u16>,
    /// Table entries in ship order, with the generation they carry.
    table: Vec<(SetId, u64)>,
    /// Table ids alone, for the fetch-and-quantize pass.
    table_ids: Vec<SetId>,
}

impl std::fmt::Debug for DeltaPlanner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaPlanner")
            .field("delivered", self.delivered)
            .field("table", &self.table)
            .finish_non_exhaustive()
    }
}

impl<'a> DeltaPlanner<'a> {
    /// Starts planning a frame against what this connection already
    /// holds and the store's current slot generations.
    #[must_use]
    pub fn new(delivered: &'a Delivered, generation_of: &'a dyn Fn(SetId) -> u64) -> Self {
        DeltaPlanner {
            delivered,
            generation_of,
            index: HashMap::new(),
            table: Vec::new(),
            table_ids: Vec::new(),
        }
    }

    /// Plans one query's delta: `hits` is the fresh top-K, `tracked` the
    /// membership the edge declared for this session.
    ///
    /// A hit becomes a reference when the edge demonstrably holds the
    /// *current* samples — delivered earlier on this connection at the
    /// slot's present generation, declared tracked while the slot is
    /// still at generation 0, or already in this frame's table.
    /// Everything else (including hits whose slot was replaced since
    /// delivery) is appended to the table and ships in full. Evictions
    /// are the declared IDs the new top-K no longer contains.
    pub fn plan(
        &mut self,
        hits: &[SearchHit],
        tracked: &[SetId],
        work: SearchWork,
    ) -> DeltaSearchResult {
        let tracked_set: HashSet<SetId> = tracked.iter().copied().collect();
        let hit_ids: HashSet<SetId> = hits.iter().map(|h| h.set_id).collect();
        let out = hits
            .iter()
            .map(|h| {
                if let Some(&slice) = self.index.get(&h.set_id) {
                    // Already travelling in this frame's table.
                    return DeltaHit::New {
                        slice,
                        omega: h.omega,
                        beta: h.beta,
                    };
                }
                let generation = (self.generation_of)(h.set_id);
                let resolvable = self.delivered.holds_current(h.set_id, generation)
                    || (generation == 0 && tracked_set.contains(&h.set_id));
                if resolvable {
                    DeltaHit::Known {
                        set_id: h.set_id,
                        omega: h.omega,
                        beta: h.beta,
                    }
                } else {
                    let slice = u16::try_from(self.table.len()).expect("table fits in u16");
                    self.index.insert(h.set_id, slice);
                    self.table.push((h.set_id, generation));
                    self.table_ids.push(h.set_id);
                    DeltaHit::New {
                        slice,
                        omega: h.omega,
                        beta: h.beta,
                    }
                }
            })
            .collect();
        DeltaSearchResult {
            work,
            hits: out,
            evicted: tracked
                .iter()
                .copied()
                .filter(|id| !hit_ids.contains(id))
                .collect(),
        }
    }

    /// The sets whose slices this frame ships, in table order. The
    /// caller fetches, quantizes, and encodes these.
    #[must_use]
    pub fn shipped_ids(&self) -> &[SetId] {
        &self.table_ids
    }

    /// The shipped sets with the generations they carry — fold into the
    /// connection's [`Delivered`] once the frame is written.
    #[must_use]
    pub fn shipped(&self) -> &[(SetId, u64)] {
        &self.table
    }
}

/// Resolves one query's delta hits into full shared downloads on the
/// edge: table references take the frame's freshly decoded slices,
/// `Known` references resolve through `have` (the connection's slice
/// cache plus the session's currently tracked slices).
///
/// Returns `None` when a `Known` reference cannot be resolved — the
/// edge's cache and the server's delivered set have diverged (restarted
/// peer, pruned cache). That is the signal to fall back to a full
/// refresh; a delta must never guess.
///
/// Out-of-range table indices cannot occur on decoded frames (the wire
/// layer validates them against the table length), but a defensive
/// `None` is returned rather than panicking.
#[must_use]
pub fn apply_delta<F>(
    table: &[SharedSlice],
    hits: &[DeltaHit],
    mut have: F,
) -> Option<Vec<SharedDownload>>
where
    F: FnMut(SetId) -> Option<SharedSlice>,
{
    hits.iter()
        .map(|hit| match *hit {
            DeltaHit::New { slice, omega, beta } => {
                table.get(usize::from(slice)).map(|s| SharedDownload {
                    omega,
                    beta,
                    slice: s.clone(),
                })
            }
            DeltaHit::Known {
                set_id,
                omega,
                beta,
            } => have(set_id).map(|slice| SharedDownload { omega, beta, slice }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_datasets::SignalClass;
    use emap_mdb::SIGNAL_SET_LEN;

    fn hit(id: u64) -> SearchHit {
        SearchHit {
            set_id: SetId(id),
            omega: 0.5 + id as f64 / 100.0,
            beta: id as usize,
        }
    }

    fn slice(id: u64) -> SharedSlice {
        SharedSlice::new(
            SetId(id),
            SignalClass::Normal,
            vec![id as f32; SIGNAL_SET_LEN],
        )
        .unwrap()
    }

    /// Gen lookup for an append-only store: every slot at 0.
    fn gen0(_: SetId) -> u64 {
        0
    }

    #[test]
    fn first_contact_ships_everything() {
        let delivered = Delivered::new();
        let mut planner = DeltaPlanner::new(&delivered, &gen0);
        let result = planner.plan(&[hit(1), hit(2)], &[], SearchWork::default());
        assert_eq!(planner.shipped_ids(), &[SetId(1), SetId(2)]);
        assert_eq!(planner.shipped(), &[(SetId(1), 0), (SetId(2), 0)]);
        assert!(result
            .hits
            .iter()
            .all(|h| matches!(h, DeltaHit::New { .. })));
        assert!(result.evicted.is_empty());
    }

    #[test]
    fn stable_membership_ships_nothing() {
        let delivered = Delivered::new();
        let mut planner = DeltaPlanner::new(&delivered, &gen0);
        let tracked = [SetId(1), SetId(2)];
        let result = planner.plan(&[hit(1), hit(2)], &tracked, SearchWork::default());
        assert!(planner.shipped_ids().is_empty());
        assert!(result
            .hits
            .iter()
            .all(|h| matches!(h, DeltaHit::Known { .. })));
        assert!(result.evicted.is_empty());
    }

    #[test]
    fn churn_ships_only_the_newcomer_and_names_the_evicted() {
        let delivered = Delivered::new();
        let mut planner = DeltaPlanner::new(&delivered, &gen0);
        let tracked = [SetId(1), SetId(2)];
        let result = planner.plan(&[hit(1), hit(3)], &tracked, SearchWork::default());
        assert_eq!(planner.shipped_ids(), &[SetId(3)]);
        assert_eq!(result.evicted, vec![SetId(2)]);
        assert!(matches!(result.hits[0], DeltaHit::Known { set_id, .. } if set_id == SetId(1)));
        assert!(matches!(result.hits[1], DeltaHit::New { slice: 0, .. }));
    }

    #[test]
    fn connection_history_counts_as_known() {
        let mut delivered = Delivered::new();
        delivered.record(SetId(7), 0);
        let mut planner = DeltaPlanner::new(&delivered, &gen0);
        // Not tracked, but delivered earlier on this connection: a
        // reference suffices, the slice does not travel again.
        let result = planner.plan(&[hit(7)], &[], SearchWork::default());
        assert!(planner.shipped_ids().is_empty());
        assert!(matches!(result.hits[0], DeltaHit::Known { set_id, .. } if set_id == SetId(7)));
    }

    #[test]
    fn replaced_slot_invalidates_the_delivered_reference() {
        let mut delivered = Delivered::new();
        delivered.record(SetId(7), 0);
        // The slot was replaced since: generation moved to 1.
        let gen = |id: SetId| u64::from(id == SetId(7));
        let mut planner = DeltaPlanner::new(&delivered, &gen);
        let result = planner.plan(&[hit(7)], &[], SearchWork::default());
        // Stale reference refused: fresh samples travel, at the new
        // generation.
        assert!(matches!(result.hits[0], DeltaHit::New { slice: 0, .. }));
        assert_eq!(planner.shipped(), &[(SetId(7), 1)]);
    }

    #[test]
    fn tracked_claims_are_not_trusted_on_replaced_slots() {
        let delivered = Delivered::new();
        let gen = |id: SetId| u64::from(id == SetId(3)) * 5;
        let mut planner = DeltaPlanner::new(&delivered, &gen);
        let tracked = [SetId(3), SetId(4)];
        let result = planner.plan(&[hit(3), hit(4)], &tracked, SearchWork::default());
        // Slot 3 was replaced under the edge: its tracked copy may be
        // any older generation, so samples travel. Slot 4 never moved:
        // the claim is safe.
        assert!(matches!(result.hits[0], DeltaHit::New { slice: 0, .. }));
        assert!(matches!(result.hits[1], DeltaHit::Known { set_id, .. } if set_id == SetId(4)));
        assert_eq!(planner.shipped(), &[(SetId(3), 5)]);
    }

    #[test]
    fn recommit_at_new_generation_restores_references() {
        let mut delivered = Delivered::new();
        delivered.record(SetId(7), 0);
        let gen = |_: SetId| 1u64;
        // Frame 1: stale → re-ship, then commit at generation 1.
        let shipped = {
            let mut planner = DeltaPlanner::new(&delivered, &gen);
            planner.plan(&[hit(7)], &[], SearchWork::default());
            planner.shipped().to_vec()
        };
        delivered.record_all(shipped);
        assert!(delivered.holds_current(SetId(7), 1));
        assert_eq!(delivered.len(), 1);
        // Frame 2: the reference is valid again.
        let mut planner = DeltaPlanner::new(&delivered, &gen);
        let result = planner.plan(&[hit(7)], &[], SearchWork::default());
        assert!(matches!(result.hits[0], DeltaHit::Known { .. }));
        assert!(planner.shipped_ids().is_empty());
    }

    #[test]
    fn batch_table_is_shared_across_queries() {
        let delivered = Delivered::new();
        let mut planner = DeltaPlanner::new(&delivered, &gen0);
        let a = planner.plan(&[hit(5)], &[], SearchWork::default());
        let b = planner.plan(&[hit(5)], &[], SearchWork::default());
        // Query 2 references the entry query 1 put in the table.
        assert_eq!(planner.shipped_ids(), &[SetId(5)]);
        assert!(matches!(a.hits[0], DeltaHit::New { slice: 0, .. }));
        assert!(matches!(b.hits[0], DeltaHit::New { slice: 0, .. }));
    }

    #[test]
    fn apply_resolves_new_from_table_and_known_from_cache() {
        let table = vec![slice(3)];
        let cache: HashMap<SetId, SharedSlice> = [(SetId(1), slice(1))].into_iter().collect();
        let hits = vec![
            DeltaHit::Known {
                set_id: SetId(1),
                omega: 0.9,
                beta: 4,
            },
            DeltaHit::New {
                slice: 0,
                omega: 0.8,
                beta: 8,
            },
        ];
        let out = apply_delta(&table, &hits, |id| cache.get(&id).cloned()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].slice.set_id(), SetId(1));
        assert_eq!((out[0].omega, out[0].beta), (0.9, 4));
        assert_eq!(out[1].slice.set_id(), SetId(3));
        // Table resolution is a refcount bump on the decoded slice.
        assert!(std::ptr::eq(out[1].slice.samples(), table[0].samples()));
    }

    #[test]
    fn apply_refuses_unresolvable_references() {
        let hits = vec![DeltaHit::Known {
            set_id: SetId(9),
            omega: 0.9,
            beta: 0,
        }];
        assert!(apply_delta(&[], &hits, |_| None).is_none());
        let out_of_range = vec![DeltaHit::New {
            slice: 4,
            omega: 0.9,
            beta: 0,
        }];
        assert!(apply_delta(&[], &out_of_range, |_| None).is_none());
    }
}
