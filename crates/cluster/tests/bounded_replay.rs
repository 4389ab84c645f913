//! Journal replay into capacity-bounded replica stores: a replica that
//! was down for part of the write stream must, after rejoin + replay,
//! converge *bitwise* on its sibling — same slots, same occupants, same
//! generations, same replacement count — because bounded eviction is a
//! deterministic function of the ingest sequence, and the journal feeds
//! every replica the same sequence in the same order.

use std::time::Duration;

use emap_cloud::{RemoteCloud, RemoteCloudConfig};
use emap_cluster::loopback_upstream;
use emap_cluster::{CoordinatorConfig, LoopbackCluster, Placement};
use emap_core::IngestPolicy;
use emap_datasets::SignalClass;
use emap_mdb::{Mdb, Provenance, SignalSet, SIGNAL_SET_LEN};
use emap_search::SearchConfig;
use emap_telemetry::Registry;

/// Deterministic integer-valued "EEG" (exact under quantization).
fn integer_stream(seed: u64, len: usize) -> Vec<f32> {
    let mut x = seed.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(3);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((x >> 33) % 4001) as f32 - 2000.0
        })
        .collect()
}

const CLASSES: [SignalClass; 4] = [
    SignalClass::Normal,
    SignalClass::Seizure,
    SignalClass::Encephalopathy,
    SignalClass::Stroke,
];

fn corpus(stream: &[f32]) -> Mdb {
    let mut mdb = Mdb::new();
    for i in 0..(stream.len() - SIGNAL_SET_LEN) / 256 + 1 {
        mdb.insert(
            SignalSet::new(
                stream[i * 256..i * 256 + SIGNAL_SET_LEN].to_vec(),
                CLASSES[i % CLASSES.len()],
                Provenance {
                    dataset_id: "bounded-replay".into(),
                    recording_id: "seed".into(),
                    channel: "c0".into(),
                    offset: i as u64 * 256,
                },
            )
            .expect("window length"),
        );
    }
    mdb
}

fn client(addr: &str) -> RemoteCloud {
    RemoteCloud::new(
        addr,
        RemoteCloudConfig {
            connect_timeout: Duration::from_millis(200),
            attempts: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            ..RemoteCloudConfig::default()
        },
    )
}

#[test]
fn journal_replay_into_bounded_stores_converges_on_the_sibling() {
    let stream = integer_stream(71, 3072); // 9 seed sets
    let live = integer_stream(72, 6144); // live-ingest material
    let capacity = 12;
    let mut cluster = LoopbackCluster::launch_with_policy(
        &corpus(&stream),
        Placement::hash(1),
        2,
        SearchConfig::paper(),
        emap_cloud::ServerConfig::default(),
        CoordinatorConfig {
            upstream: loopback_upstream(),
            ..CoordinatorConfig::default()
        },
        Registry::new(),
        IngestPolicy {
            gate: None,
            capacity: Some(capacity),
        },
    )
    .expect("launch bounded cluster");
    let c = client(&cluster.addr());

    let window = |i: usize| live[i * 256..i * 256 + SIGNAL_SET_LEN].to_vec();
    let prov = |i: usize| Provenance {
        dataset_id: "bounded-replay".into(),
        recording_id: "live".into(),
        channel: "c0".into(),
        offset: i as u64 * 256,
    };

    // Phase 1: both replicas up, the store crosses its capacity.
    for i in 0..6 {
        c.ingest(CLASSES[i % CLASSES.len()], prov(i), window(i))
            .expect("live ingest");
    }
    // Phase 2: replica 1 dies and misses a stretch of writes — including
    // evictions on the survivor.
    cluster.kill_replica(0, 1);
    for i in 6..12 {
        c.ingest(CLASSES[i % CLASSES.len()], prov(i), window(i))
            .expect("ingest during downtime");
    }
    // Phase 3: it rejoins; the next writes trigger the journal replay of
    // everything it missed, through the same bounded ingest path.
    cluster.restart_replica(0, 1).expect("restart replica");
    for i in 12..14 {
        c.ingest(CLASSES[i % CLASSES.len()], prov(i), window(i))
            .expect("ingest after rejoin");
    }

    // Bitwise convergence: same length, same replacement history depth,
    // and every slot holds the same occupant at the same generation.
    let a = cluster.replica_store(0, 0);
    let b = cluster.replica_store(0, 1);
    a.with_read(|ma| {
        b.with_read(|mb| {
            assert_eq!(ma.len(), mb.len());
            assert_eq!(ma.len(), capacity, "bounded store must sit at capacity");
            assert_eq!(ma.replacements(), mb.replacements());
            assert!(ma.replacements() > 0, "the sequence never evicted");
            for (id, sa) in ma.iter_with_ids() {
                let sb = mb.get(id).expect("slot exists on the sibling");
                assert_eq!(sa.samples(), sb.samples(), "slot {} diverged", id.0);
                assert_eq!(sa.class(), sb.class());
                assert_eq!(sa.provenance(), sb.provenance());
                assert_eq!(
                    ma.slot_generation(id),
                    mb.slot_generation(id),
                    "generation diverged on slot {}",
                    id.0
                );
            }
        });
    });

    // And the replicas answer identically when asked directly.
    let ca = client(&cluster.replica_addr(0, 0).expect("replica 0 up"));
    let cb = client(&cluster.replica_addr(0, 1).expect("replica 1 up"));
    let query = &live[512..768];
    let (_, hits_a) = ca.search(query).expect("search replica 0");
    let (_, hits_b) = cb.search(query).expect("search replica 1");
    assert!(!hits_a.is_empty());
    assert_eq!(hits_a, hits_b, "replayed replica answers diverged");
    cluster.shutdown();
}
