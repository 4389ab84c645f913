//! Proptests pinning live-ingest maintenance to the frozen-corpus path:
//! after *any* sequence of bounded ingests (appends, evictions,
//! replacements), the store must search bitwise-identically to an `Mdb`
//! rebuilt from scratch from the same final sets. The incremental
//! stats/spectra prewarm must be a pure function of the surviving
//! samples — never of the ingest order, the eviction history, or which
//! thread warmed which table — and the sweep's parallelism must not
//! change that.

use emap_core::{CloudService, IngestOutcome, IngestPolicy};
use emap_datasets::SignalClass;
use emap_mdb::{Mdb, Provenance, SignalSet, SIGNAL_SET_LEN};
use emap_search::{Query, SearchConfig};
use emap_testkit::prelude::*;

const CLASSES: [SignalClass; 4] = [
    SignalClass::Normal,
    SignalClass::Seizure,
    SignalClass::Encephalopathy,
    SignalClass::Stroke,
];

/// One generated slice: a short i16 pattern tiled to slice length (native
/// 16-bit values keep every float exact) with a cycling class label.
fn materialize(index: usize, pattern: &[i16], class_pick: usize) -> SignalSet {
    let samples: Vec<f32> = (0..SIGNAL_SET_LEN)
        .map(|j| f32::from(pattern[j % pattern.len()]))
        .collect();
    SignalSet::new(
        samples,
        CLASSES[class_pick % CLASSES.len()],
        Provenance {
            dataset_id: "ingest-equivalence".into(),
            recording_id: format!("r{index}"),
            channel: "c0".into(),
            offset: index as u64,
        },
    )
    .expect("slice length")
}

/// Search hits reduced to raw bits: id, `ω` bit pattern, `β`. Equality on
/// this is the "bitwise, tie order included" claim.
fn fingerprint(service: &CloudService, window: &[f32]) -> Vec<(u64, u64, usize)> {
    let set = service
        .search(&Query::new(window).expect("query window"))
        .expect("search");
    set.hits()
        .iter()
        .map(|h| (h.set_id.0, h.omega.to_bits(), h.beta))
        .collect()
}

/// Rebuilds the live store's final contents from raw samples: fresh
/// allocations, cold statistics tables, insertion order = slot order.
fn rebuilt_from_scratch(live: &CloudService) -> Mdb {
    live.mdb().with_read(|mdb| {
        let mut fresh = Mdb::new();
        for (_, set) in mdb.iter_with_ids() {
            fresh.insert(
                SignalSet::new(
                    set.samples().to_vec(),
                    set.class(),
                    set.provenance().clone(),
                )
                .expect("slice length"),
            );
        }
        fresh
    })
}

fn run_equivalence(
    patterns: Vec<Vec<i16>>,
    classes: Vec<usize>,
    capacity: usize,
    window: Vec<i16>,
    workers: usize,
) -> Result<(), TestCaseError> {
    // Live path: every slice arrives through bounded live ingest.
    let live = CloudService::new(SearchConfig::paper(), Mdb::new().into_shared(), workers)
        .with_ingest_policy(IngestPolicy {
            gate: None,
            capacity: Some(capacity),
        });
    let mut evictions = 0u64;
    for (i, p) in patterns.iter().enumerate() {
        match live.ingest_live(materialize(i, p, classes[i])) {
            IngestOutcome::Stored(landed) => {
                if matches!(landed, emap_mdb::LiveInsert::Replaced { .. }) {
                    evictions += 1;
                }
            }
            IngestOutcome::Rejected(kind) => {
                return Err(TestCaseError::fail(format!("ungated reject: {kind:?}")))
            }
        }
    }
    let len = live.mdb().with_read(emap_mdb::Mdb::len);
    prop_assert!(len <= capacity, "bounded store grew past capacity");
    prop_assert_eq!(live.mdb().with_read(emap_mdb::Mdb::replacements), evictions);

    // Reference path: the same final sets, built cold, searched by an
    // identically configured service.
    let scratch = CloudService::new(
        SearchConfig::paper(),
        rebuilt_from_scratch(&live).into_shared(),
        workers,
    );

    let query: Vec<f32> = window.iter().map(|&v| f32::from(v)).collect();
    prop_assert_eq!(
        fingerprint(&live, &query),
        fingerprint(&scratch, &query),
        "incrementally maintained store diverged from a cold rebuild"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequential sweep (workers = 1).
    #[test]
    fn live_ingest_searches_like_a_cold_rebuild_sequential(
        patterns in prop::collection::vec(
            prop::collection::vec(any::<i16>(), 1..8), 1..14),
        classes in prop::collection::vec(0usize..4, 14),
        capacity in 1usize..8,
        window in prop::collection::vec(-2000i16..2000, 256),
    ) {
        run_equivalence(patterns, classes, capacity, window, 1)?;
    }

    /// Parallel sweep (workers = 4): chunked scans over the same slots
    /// must land on the same bits in the same tie order.
    #[test]
    fn live_ingest_searches_like_a_cold_rebuild_parallel(
        patterns in prop::collection::vec(
            prop::collection::vec(any::<i16>(), 1..8), 1..14),
        classes in prop::collection::vec(0usize..4, 14),
        capacity in 1usize..8,
        window in prop::collection::vec(-2000i16..2000, 256),
    ) {
        run_equivalence(patterns, classes, capacity, window, 4)?;
    }
}
