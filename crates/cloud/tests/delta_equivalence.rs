//! Proptests pinning the delta-refresh path to the f32 full-refresh
//! path: over any universe of native-16-bit signal-sets and any sequence
//! of search rounds, *plan → quantize → apply → load_shared* must leave a
//! tracker in exactly the state that shipping every slice in full would
//! have — same tracked set, same step reports, bit for bit.
//!
//! The machinery under test is pure ([`emap_cloud::DeltaPlanner`] /
//! [`emap_cloud::apply_delta`]), so these tests drive it without sockets;
//! the loopback suite proves the same property through the real server.

use std::collections::{HashMap, HashSet};

use emap_cloud::{apply_delta, Delivered, DeltaPlanner};
use emap_datasets::SignalClass;
use emap_edge::{EdgeConfig, EdgeTracker, SharedDownload, SharedSlice};
use emap_mdb::{SetId, SIGNAL_SET_LEN};
use emap_search::{SearchHit, SearchWork};
use emap_testkit::prelude::*;
use emap_wire::QuantizedSlice;

const CLASSES: [SignalClass; 4] = [
    SignalClass::Normal,
    SignalClass::Seizure,
    SignalClass::Encephalopathy,
    SignalClass::Stroke,
];

/// A tiny "store": integer-valued slices (native 16-bit EEG, so
/// quantization is exact) tiled from short generated patterns.
fn universe(patterns: &[Vec<i16>]) -> Vec<SharedSlice> {
    patterns
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let samples: Vec<f32> = (0..SIGNAL_SET_LEN)
                .map(|j| f32::from(p[j % p.len()]))
                .collect();
            SharedSlice::new(SetId(i as u64), CLASSES[i % CLASSES.len()], samples)
                .expect("slice length")
        })
        .collect()
}

/// One round of cloud search results: (universe index, ω, β) per hit,
/// already deduplicated by index.
type Round = Vec<(usize, f64, usize)>;

fn rounds_strategy(sets: usize) -> impl Strategy<Value = Vec<Round>> {
    prop::collection::vec(
        prop::collection::vec(
            (0..sets, 0.0f64..1.0, 0usize..SIGNAL_SET_LEN - 256),
            1..=sets,
        )
        .prop_map(|hits| {
            let mut seen = HashSet::new();
            hits.into_iter()
                .filter(|(i, _, _)| seen.insert(*i))
                .collect::<Round>()
        }),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equivalence: a tracker refreshed through the delta
    /// machinery (references resolved against its cache and its own
    /// tracked slices) is bit-identical to one refreshed with every
    /// slice shipped in full, across multi-round sessions with real
    /// membership churn and tracking steps in between.
    #[test]
    fn delta_refresh_is_decision_equal_to_full_refresh(
        patterns in prop::collection::vec(
            prop::collection::vec(any::<i16>(), 1..8), 1..7),
        rounds_seed in rounds_strategy(8),
        window in prop::collection::vec(-2000i16..2000, 256),
    ) {
        let slices = universe(&patterns);
        let rounds: Vec<Round> = rounds_seed
            .into_iter()
            .map(|r| r.into_iter().filter(|(i, _, _)| *i < slices.len()).collect())
            .collect();
        let input: Vec<f32> = window.iter().map(|&v| f32::from(v)).collect();

        let mut full = EdgeTracker::new(EdgeConfig::default());
        let mut delta = EdgeTracker::new(EdgeConfig::default());
        // Connection state: what the server believes it shipped, and the
        // decoded slices the edge kept from earlier frames. The universe
        // is immutable here, so every slot stays at generation 0.
        let generation_of = |_: SetId| 0u64;
        let mut delivered = Delivered::new();
        let mut cache: HashMap<SetId, SharedSlice> = HashMap::new();

        for round in &rounds {
            let hits: Vec<SearchHit> = round
                .iter()
                .map(|&(i, omega, beta)| SearchHit {
                    set_id: slices[i].set_id(),
                    omega,
                    beta,
                })
                .collect();

            // Reference path: every hit ships its full f32 slice.
            full.load_shared(
                round
                    .iter()
                    .map(|&(i, omega, beta)| SharedDownload {
                        omega,
                        beta,
                        slice: slices[i].clone(),
                    })
                    .collect(),
            );

            // Delta path: plan against the declared membership and the
            // connection history, quantize only what must travel, then
            // resolve references through cache + currently tracked.
            let tracked = delta.tracked_ids();
            let mut planner = DeltaPlanner::new(&delivered, &generation_of);
            let result = planner.plan(&hits, &tracked, SearchWork::default());
            let table: Vec<SharedSlice> = planner
                .shipped_ids()
                .iter()
                .map(|id| {
                    let s = &slices[id.0 as usize];
                    let q = QuantizedSlice::quantize(s.set_id(), s.class(), s.samples());
                    prop_assert!(q.is_exact(), "16-bit integer slice must quantize exactly");
                    Ok(SharedSlice::new(q.set_id, q.class, q.dequantize()).unwrap())
                })
                .collect::<Result<_, _>>()?;

            // Every shipped slice is a fresh hit; nothing re-ships.
            for id in planner.shipped_ids() {
                prop_assert!(hits.iter().any(|h| h.set_id == *id));
                prop_assert!(!delivered.holds_current(*id, 0) && !tracked.contains(id));
            }
            // Evictions are exactly the declared sets the top-K dropped.
            let hit_ids: HashSet<SetId> = hits.iter().map(|h| h.set_id).collect();
            let expect_evicted: Vec<SetId> = tracked
                .iter()
                .copied()
                .filter(|id| !hit_ids.contains(id))
                .collect();
            prop_assert_eq!(&result.evicted, &expect_evicted);

            let have = |id: SetId| {
                cache.get(&id).cloned().or_else(|| {
                    delta
                        .tracked()
                        .iter()
                        .find(|t| t.set_id == id)
                        .map(|t| t.to_shared_slice())
                })
            };
            let downloads = apply_delta(&table, &result.hits, have)
                .expect("coherent cache: every reference resolves");
            let shipped: Vec<(SetId, u64)> = planner.shipped().to_vec();
            drop(planner);
            delivered.record_all(shipped);
            for s in &table {
                cache.insert(s.set_id(), s.clone());
            }
            delta.load_shared(downloads);

            prop_assert_eq!(full.tracked(), delta.tracked(), "refresh diverged");

            // A tracking iteration on both: pruning decisions, β moves,
            // and the report must stay identical.
            let rf = full.step(&input).unwrap();
            let rd = delta.step(&input).unwrap();
            prop_assert_eq!(rf, rd, "step report diverged");
            prop_assert_eq!(full.tracked(), delta.tracked(), "step state diverged");
        }
    }

    /// An incoherent edge cache can never produce a silently wrong
    /// refresh: if a referenced slice is unavailable, [`apply_delta`]
    /// refuses and the tracker is left untouched.
    #[test]
    fn unresolvable_references_refuse_rather_than_guess(
        patterns in prop::collection::vec(
            prop::collection::vec(any::<i16>(), 1..4), 1..4),
        omega in 0.0f64..1.0,
    ) {
        let slices = universe(&patterns);
        let generation_of = |_: SetId| 0u64;
        let mut delivered = Delivered::new();
        delivered.record_all(slices.iter().map(|s| (s.set_id(), 0)));
        let mut planner = DeltaPlanner::new(&delivered, &generation_of);
        let hits: Vec<SearchHit> = slices
            .iter()
            .map(|s| SearchHit { set_id: s.set_id(), omega, beta: 0 })
            .collect();
        // The server believes everything was delivered, so nothing ships…
        let result = planner.plan(&hits, &[], SearchWork::default());
        prop_assert!(planner.shipped_ids().is_empty());
        // …but this edge lost its cache: the delta must be refused whole.
        prop_assert!(apply_delta(&[], &result.hits, |_| None).is_none());
    }
}
