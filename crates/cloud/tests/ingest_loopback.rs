//! Loopback tests for the live-ingest lifecycle: malformed ingest frames
//! must earn a typed error (not a malformed store or a dead connection),
//! a gated server must refuse artifact slices with a typed code, and an
//! eviction between two delta refreshes must invalidate the connection's
//! delivery history — a replaced slot re-ships, never resolves stale.

use std::net::TcpStream;
use std::time::Duration;

use emap_cloud::{ClientError, CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
use emap_core::{CloudService, IngestPolicy, Quarantined};
use emap_datasets::SignalClass;
use emap_mdb::{Mdb, Provenance, SetId, SignalSet, SIGNAL_SET_LEN};
use emap_quality::ArtifactKind;
use emap_search::SearchConfig;
use emap_wire::{
    error_code, read_frame, write_frame, DeltaHit, Message, DEFAULT_MAX_PAYLOAD, MAX_INGEST_SAMPLES,
};

/// Deterministic integer-valued "EEG" so the quantized delta path is
/// exact (same generator as the wire-diet suite).
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

fn provenance(recording: &str, offset: u64) -> Provenance {
    Provenance {
        dataset_id: "ingest-loopback".into(),
        recording_id: recording.into(),
        channel: "c0".into(),
        offset,
    }
}

/// Overlapping single-class windows of `stream`, stepped by one second:
/// with every slot Normal, the eviction order is pure insertion order.
fn windowed_mdb(stream: &[f32], recording: &str) -> Mdb {
    let mut mdb = Mdb::new();
    for i in 0..(stream.len() - SIGNAL_SET_LEN) / 256 + 1 {
        mdb.insert(
            SignalSet::new(
                stream[i * 256..i * 256 + SIGNAL_SET_LEN].to_vec(),
                SignalClass::Normal,
                provenance(recording, i as u64 * 256),
            )
            .expect("window length"),
        );
    }
    mdb
}

fn fast_client(addr: &str) -> RemoteCloud {
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

/// A clean, physiological-looking slice: a two-tone mixture inside the
/// analysis band, far from the rails, dense in crossings.
fn clean_slice() -> Vec<f32> {
    (0..SIGNAL_SET_LEN)
        .map(|i| {
            let t = i as f32 / 256.0;
            30.0 * (2.0 * std::f32::consts::PI * 13.0 * t).sin()
                + 20.0 * (2.0 * std::f32::consts::PI * 29.0 * t).sin()
        })
        .collect()
}

/// Satellite: a wrong-length sample vector decodes fine, reaches the
/// application layer, and earns a typed `BAD_REQUEST` — the store does
/// not grow a malformed set and the connection keeps serving.
#[test]
fn wrong_length_ingest_gets_typed_error_and_connection_survives() {
    let stream = integer_stream(11, 3072);
    let service = CloudService::new(
        SearchConfig::paper(),
        windowed_mdb(&stream, "a").into_shared(),
        1,
    );
    let server = CloudServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default())
        .expect("bind loopback");
    let before = service.mdb().with_read(emap_mdb::Mdb::len);

    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    for bad_len in [0usize, 999, 1001, 2048] {
        let msg = Message::Ingest {
            class: SignalClass::Normal,
            provenance: provenance("adversarial", 0),
            samples: vec![1.0; bad_len],
        };
        write_frame(&mut sock, &msg).expect("send bad ingest");
        let reply = read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("typed reply");
        match reply {
            Message::ErrorReply { code, detail } => {
                assert_eq!(code, error_code::BAD_REQUEST, "len {bad_len}: {detail}");
            }
            other => panic!("len {bad_len}: expected ErrorReply, got {other:?}"),
        }
    }
    // The same socket still serves: the error was a reply, not a hangup.
    write_frame(&mut sock, &Message::Ping).expect("ping");
    let reply = read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("pong");
    assert!(matches!(reply, Message::Pong { .. }));

    // Nothing malformed entered the store; a well-formed ingest lands.
    assert_eq!(service.mdb().with_read(emap_mdb::Mdb::len), before);
    let msg = Message::Ingest {
        class: SignalClass::Normal,
        provenance: provenance("good", 0),
        samples: stream[..SIGNAL_SET_LEN].to_vec(),
    };
    write_frame(&mut sock, &msg).expect("good ingest");
    let reply = read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("ack");
    match reply {
        Message::IngestAck { total_sets } => assert_eq!(total_sets, before as u64 + 1),
        other => panic!("expected IngestAck, got {other:?}"),
    }
    server.shutdown();
}

/// A hostile length prefix above the decode cap never allocates: the
/// frame is rejected as malformed (and the stream, unresyncable after a
/// bad frame, closes — the typed error still travels first).
#[test]
fn over_cap_ingest_is_refused_at_decode() {
    let stream = integer_stream(12, 2048);
    let service = CloudService::new(
        SearchConfig::paper(),
        windowed_mdb(&stream, "a").into_shared(),
        1,
    );
    let server = CloudServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default())
        .expect("bind loopback");
    let before = service.mdb().with_read(emap_mdb::Mdb::len);

    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    let msg = Message::Ingest {
        class: SignalClass::Normal,
        provenance: provenance("hostile", 0),
        samples: vec![0.5; MAX_INGEST_SAMPLES + 1],
    };
    write_frame(&mut sock, &msg).expect("send over-cap ingest");
    let reply = read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("typed reply");
    match reply {
        Message::ErrorReply { code, .. } => assert_eq!(code, error_code::BAD_REQUEST),
        other => panic!("expected ErrorReply, got {other:?}"),
    }
    assert_eq!(service.mdb().with_read(emap_mdb::Mdb::len), before);
    server.shutdown();
}

/// Tentpole: a gated server refuses artifact slices with the typed
/// `REJECTED_ARTIFACT` code, quarantines them (they never enter the
/// store or a sweep), and keeps accepting clean slices — all visible in
/// the ingest/quality telemetry.
#[test]
fn gated_server_rejects_artifact_slices_with_typed_code() {
    let stream = integer_stream(13, 2048);
    let service = CloudService::new(
        SearchConfig::paper(),
        windowed_mdb(&stream, "a").into_shared(),
        1,
    )
    .with_ingest_policy(IngestPolicy {
        gate: Some(emap_quality::QualityGate::default()),
        capacity: None,
    });
    let server = CloudServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default())
        .expect("bind loopback");
    let client = fast_client(&server.local_addr().to_string());
    let before = service.mdb().with_read(emap_mdb::Mdb::len) as u64;

    // A dead electrode's flatline slice: typed refusal, store untouched.
    match client.ingest(
        SignalClass::Normal,
        provenance("dropout", 512),
        vec![0.0; SIGNAL_SET_LEN],
    ) {
        Err(ClientError::Remote { code, detail }) => {
            assert_eq!(code, error_code::REJECTED_ARTIFACT);
            assert!(detail.contains("flatline"), "detail: {detail}");
        }
        other => panic!("expected REJECTED_ARTIFACT, got {other:?}"),
    }
    // A clean slice on the same client still lands.
    let total = client
        .ingest(SignalClass::Normal, provenance("clean", 0), clean_slice())
        .expect("clean ingest passes the gate");
    assert_eq!(total, before + 1);

    // The refusal is quarantined server-side with its archetype…
    assert_eq!(
        service.quarantined(),
        vec![Quarantined {
            kind: ArtifactKind::Flatline,
            class: SignalClass::Normal,
            provenance: provenance("dropout", 512),
        }]
    );
    // …and the counters tell the same story.
    let stats = client.stats().expect("stats over loopback");
    assert_eq!(stats.counter("ingest_rejected_total"), Some(1));
    assert_eq!(stats.counter("quality_artifact_total"), Some(1));
    assert_eq!(stats.counter("ingest_accepted_total"), Some(1));
    assert_eq!(stats.counter("quality_clean_total"), Some(1));
    server.shutdown();
}

/// Satellite: an eviction between two delta refreshes invalidates the
/// connection's per-slot delivery history. A replaced slot's id is
/// re-shipped as `New` (never resolved `Known` against the edge's stale
/// cache), and tracked ids the new top-K dropped surface as `evicted`.
#[test]
fn eviction_between_delta_refreshes_invalidates_stale_references() {
    let old = integer_stream(21, 3072);
    let new = integer_stream(22, 3072);
    let capacity = (old.len() - SIGNAL_SET_LEN) / 256 + 1;
    let service = CloudService::new(
        SearchConfig::paper(),
        windowed_mdb(&old, "old").into_shared(),
        1,
    )
    .with_ingest_policy(IngestPolicy {
        gate: None,
        capacity: Some(capacity),
    });
    let server = CloudServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default())
        .expect("bind loopback");
    let client = fast_client(&server.local_addr().to_string());

    // Round 1: first contact ships every hit in full.
    let window = &old[1024..1280];
    let (table1, result1) = client
        .search_delta(window, Vec::new())
        .expect("first refresh");
    assert!(!table1.is_empty());
    assert!(result1
        .hits
        .iter()
        .all(|h| matches!(h, DeltaHit::New { .. })));
    let delivered1: Vec<SetId> = table1.iter().map(|s| s.set_id).collect();

    // Between refreshes: live ingest rolls the whole bounded store over.
    // Every slot is replaced in place — same ids, new content, next
    // generation.
    for i in 0..capacity {
        let total = client
            .ingest(
                SignalClass::Normal,
                provenance("new", i as u64 * 256),
                new[i * 256..i * 256 + SIGNAL_SET_LEN].to_vec(),
            )
            .expect("live ingest");
        assert_eq!(total as usize, capacity, "bounded store must not grow");
    }
    assert_eq!(
        service.mdb().with_read(emap_mdb::Mdb::replacements),
        capacity as u64
    );

    // Round 2: query the *new* content while declaring round 1's ids as
    // tracked. The top-K lands on replaced slots whose ids this
    // connection was already served — every one must re-ship.
    let (table2, result2) = client
        .search_delta(&new[1024..1280], delivered1.clone())
        .expect("second refresh");
    assert!(!result2.hits.is_empty());
    let mut reshipped = 0;
    for hit in &result2.hits {
        match hit {
            DeltaHit::New { slice, .. } => {
                let q = &table2[*slice as usize];
                if delivered1.contains(&q.set_id) {
                    reshipped += 1;
                    // The re-shipped slice is the slot's *new* occupant,
                    // bit for bit — not the stale content the edge holds.
                    let i = q.set_id.0 as usize;
                    assert_eq!(
                        q.dequantize(),
                        &new[i * 256..i * 256 + SIGNAL_SET_LEN],
                        "slot {i} shipped stale content"
                    );
                }
            }
            DeltaHit::Known { set_id, .. } => {
                assert!(
                    !delivered1.contains(set_id),
                    "stale reference: slot {} was replaced after delivery but \
                     resolved Known against the edge's dead cache",
                    set_id.0
                );
            }
        }
    }
    assert!(reshipped > 0, "top-K never landed on a replaced slot");
    // Tracked ids the new top-K dropped are evicted, in declaration order.
    let hit_ids: Vec<SetId> = result2
        .hits
        .iter()
        .map(|h| match h {
            DeltaHit::New { slice, .. } => table2[*slice as usize].set_id,
            DeltaHit::Known { set_id, .. } => *set_id,
        })
        .collect();
    let expect_evicted: Vec<SetId> = delivered1
        .iter()
        .copied()
        .filter(|id| !hit_ids.contains(id))
        .collect();
    assert_eq!(result2.evicted, expect_evicted);
    server.shutdown();
}
