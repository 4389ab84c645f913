//! Property-based tests for the mega-database: snapshot round-trips,
//! builder slicing arithmetic, and store invariants under arbitrary
//! content.

use emap_datasets::SignalClass;
use emap_dsp::SampleRate;
use emap_edf::{Annotation, Channel, Recording};
use emap_mdb::{Mdb, MdbBuilder, Provenance, SignalSet, SIGNAL_SET_LEN};
use emap_testkit::prelude::*;

fn arb_class() -> impl Strategy<Value = SignalClass> {
    prop_oneof![
        Just(SignalClass::Normal),
        Just(SignalClass::Seizure),
        Just(SignalClass::Encephalopathy),
        Just(SignalClass::Stroke),
    ]
}

/// Sets of anything `SignalSet::new` takes: µV-scale samples, samples
/// across the whole 16-bit range, and both zeros and both ends of it.
fn arb_set() -> impl Strategy<Value = SignalSet> {
    let sample = prop_oneof![
        -500.0f32..500.0,
        -32768.4f32..32767.4,
        prop::sample::select(vec![-0.0f32, 0.0, -32768.0, 32767.0]),
    ];
    (
        prop::collection::vec(sample, SIGNAL_SET_LEN),
        arb_class(),
        "[a-z]{1,12}",
        "[a-z0-9/]{1,20}",
        0u64..1_000_000,
    )
        .prop_map(|(samples, class, ds, rec, offset)| {
            SignalSet::new(
                samples,
                class,
                Provenance {
                    dataset_id: ds,
                    recording_id: rec,
                    channel: "EEG C3".into(),
                    offset,
                },
            )
            .expect("fixed slice length")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot round trip is exact for arbitrary stores: every store
    /// built through `SignalSet::new` reads back equal.
    #[test]
    fn snapshot_roundtrip(sets in prop::collection::vec(arb_set(), 0..12)) {
        let mdb: Mdb = sets.into_iter().collect();
        let mut buf = Vec::new();
        mdb.write_snapshot(&mut buf).expect("snapshot writes");
        let back = Mdb::read_snapshot(&mut buf.as_slice()).expect("snapshot reads");
        prop_assert_eq!(back.len(), mdb.len());
        for (a, b) in mdb.iter().zip(back.iter()) {
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(back.stats(), mdb.stats());
    }

    /// Snapshot decoding never panics on corrupted streams.
    #[test]
    fn snapshot_decode_total(
        sets in prop::collection::vec(arb_set(), 1..4),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..10),
    ) {
        let mdb: Mdb = sets.into_iter().collect();
        let mut buf = Vec::new();
        mdb.write_snapshot(&mut buf).expect("snapshot writes");
        for (pos, bit) in flips {
            let p = pos % buf.len();
            buf[p] ^= 1 << bit;
        }
        let _ = Mdb::read_snapshot(&mut buf.as_slice());
    }

    /// Builder slicing arithmetic: a recording of `n` base-rate samples
    /// yields exactly `n / 1000` slices per channel, each fully labeled.
    #[test]
    fn builder_slice_count(seconds in 1u32..40, channels in 1usize..4, anomalous in any::<bool>()) {
        let rate = SampleRate::EEG_BASE;
        let n = (seconds * 256) as usize;
        let mut builder = Recording::builder("p", "r");
        for c in 0..channels {
            builder = builder.channel(
                Channel::new(format!("ch{c}"), rate, vec![1.0; n]).expect("non-empty"),
            );
        }
        if anomalous {
            builder = builder.annotation(
                Annotation::new(0.0, f64::from(seconds), "stroke").expect("valid"),
            );
        }
        let rec = builder.build().expect("has channels");
        let mut b = MdbBuilder::new();
        let added = b.add_recording("d", &rec).expect("ingest succeeds");
        prop_assert_eq!(added, (n / SIGNAL_SET_LEN) * channels);
        let mdb = b.build();
        for set in mdb.iter() {
            prop_assert_eq!(set.is_anomalous(), anomalous);
        }
    }

    /// Class views partition the store.
    #[test]
    fn class_views_partition(sets in prop::collection::vec(arb_set(), 0..20)) {
        let mdb: Mdb = sets.into_iter().collect();
        let total: usize = SignalClass::ALL
            .iter()
            .map(|&c| mdb.of_class(c).count())
            .sum();
        prop_assert_eq!(total, mdb.len());
        let stats = mdb.stats();
        prop_assert_eq!(stats.normal, mdb.of_class(SignalClass::Normal).count());
    }
}
