//! The cluster's tentpole guarantee, pinned: an edge pointed at a
//! [`Coordinator`](emap_cluster::Coordinator) must be unable to tell it
//! from a single [`CloudServer`] over the union store. Scatter-gather
//! answers — singles, batches, delta refreshes — have to match the
//! single-store sweep **bitwise**: same hits, same `ω` values, same tie
//! order.
//!
//! The corpus deliberately contains duplicate sets (same samples, same
//! class, distinct IDs), so exact-`ω` ties occur on every matching
//! query and the merge's tie-break order is genuinely exercised, not
//! just its `ω` comparison. Stores are integer-valued so the quantized
//! delta path is exact and equality stays bitwise there too.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use emap_cloud::{CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
use emap_cluster::{LoopbackCluster, Placement};
use emap_core::{CloudService, EdgeFleet};
use emap_datasets::SignalClass;
use emap_edge::{EdgeConfig, EdgeTracker};
use emap_mdb::{Mdb, Provenance, SetId, SignalSet, SIGNAL_SET_LEN};
use emap_search::SearchConfig;
use emap_testkit::prelude::*;
use emap_testkit::run_cases;
use emap_wire::{error_code, frame_bytes, read_frame, DeltaHit, Message, DEFAULT_MAX_PAYLOAD};

/// Deterministic integer-valued "EEG": whole numbers in the native
/// 16-bit range, so quantization is exact.
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

/// The union store: overlapping 1000-sample windows of each stream
/// stepped by one second, with every third window inserted **twice** —
/// two sets with identical samples, identical class, adjacent IDs. Any
/// query matching such a window produces an exact-`ω` tie whose order
/// the single store resolves by ID; the cluster merge must agree.
fn union_store(streams: &[Vec<f32>]) -> Mdb {
    let mut mdb = Mdb::new();
    for (k, stream) in streams.iter().enumerate() {
        for i in 0..(stream.len() - SIGNAL_SET_LEN) / 256 + 1 {
            let copies = if i % 3 == 0 { 2 } else { 1 };
            for c in 0..copies {
                mdb.insert(
                    SignalSet::new(
                        stream[i * 256..i * 256 + SIGNAL_SET_LEN].to_vec(),
                        CLASSES[(k + i) % CLASSES.len()],
                        Provenance {
                            dataset_id: "cluster-eq".into(),
                            recording_id: format!("s{k}c{c}"),
                            channel: "c0".into(),
                            offset: i as u64 * 256,
                        },
                    )
                    .expect("window length"),
                );
            }
        }
    }
    mdb
}

fn client(addr: &str) -> RemoteCloud {
    RemoteCloud::new(
        addr,
        RemoteCloudConfig {
            connect_timeout: Duration::from_millis(200),
            attempts: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            ..RemoteCloudConfig::default()
        },
    )
}

fn single_server(union: &Mdb) -> CloudServer {
    CloudServer::bind(
        "127.0.0.1:0",
        CloudService::new(SearchConfig::paper(), union.clone().into_shared(), 2),
        ServerConfig::default(),
    )
    .expect("bind single-store reference server")
}

/// The query generator: a corpus window (so matches above `δ` are
/// guaranteed and the duplicate ties fire) plus small integer noise
/// (so `ω` values and `β` offsets vary case to case).
fn perturbed_window(
    streams: &[Vec<f32>],
    k: usize,
    second: usize,
    amp: u32,
    seed: u64,
) -> Vec<f32> {
    let window = &streams[k][second * 256..(second + 1) * 256];
    if amp == 0 {
        return window.to_vec();
    }
    let noise = integer_stream(seed | 1, window.len());
    window
        .iter()
        .zip(noise)
        .map(|(s, n)| s + (n as i64 % (amp as i64 + 1)) as f32)
        .collect()
}

/// Property: for random corpus-derived queries, both a 2-shard hash
/// cluster and a 3-shard class-aware cluster (with an empty shard —
/// four classes hash onto at most three shards) answer singles and
/// batches bitwise identically to the single-store server.
#[test]
fn scatter_gather_matches_single_store_bitwise() {
    let streams: Vec<Vec<f32>> = (0..2).map(|k| integer_stream(k + 11, 4096)).collect();
    let union = union_store(&streams);
    let single = single_server(&union);
    let hash2 = LoopbackCluster::launch(&union, Placement::hash(2), 1).expect("launch hash2");
    let class3 =
        LoopbackCluster::launch(&union, Placement::class_aware(3), 2).expect("launch class3");

    let reference = client(&single.local_addr().to_string());
    let clusters = [client(&hash2.addr()), client(&class3.addr())];

    // The final second extends past the last corpus window, so only
    // seconds fully contained in some window are drawn (match guaranteed).
    let seconds_per_stream = streams[0].len() / 256 - 1;
    let strategy = prop::collection::vec(
        (
            0..streams.len(),
            0..seconds_per_stream,
            0u32..4,
            any::<u64>(),
        ),
        1..=3,
    );
    let mut total_hits = 0usize;
    run_cases(
        &ProptestConfig::with_cases(48),
        &strategy,
        "scatter_gather_matches_single_store_bitwise",
        |specs| {
            let queries: Vec<Vec<f32>> = specs
                .iter()
                .map(|&(k, s, amp, seed)| perturbed_window(&streams, k, s, amp, seed))
                .collect();

            // Singles: every query, every cluster, against the reference.
            for q in &queries {
                let (_, expected) = reference.search(q).expect("single search");
                total_hits += expected.len();
                for c in &clusters {
                    let (work, slices) = c.search(q).expect("cluster search");
                    prop_assert_eq!(&slices, &expected);
                    prop_assert!(!work.partial, "full cluster must not degrade");
                }
            }

            // The same queries as one batch frame.
            let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
            let expected = reference.search_batch(&refs).expect("single batch");
            for c in &clusters {
                let batch = c.search_batch(&refs).expect("cluster batch");
                prop_assert_eq!(batch.len(), expected.len());
                for q in 0..batch.len() {
                    prop_assert_eq!(batch.materialize(q), expected.materialize(q));
                    prop_assert!(!batch.work(q).partial);
                }
            }
            Ok(())
        },
    );
    // The property must not have held vacuously.
    assert!(total_hits > 0, "no query ever matched the corpus");

    single.shutdown();
    hash2.shutdown();
    class3.shutdown();
}

/// The ID a [`DeltaHit`] names, resolving `New` hits through the frame's
/// slice table.
fn hit_id(table: &[emap_wire::QuantizedSlice], hit: &DeltaHit) -> SetId {
    match *hit {
        DeltaHit::New { slice, .. } => table[slice as usize].set_id,
        DeltaHit::Known { set_id, .. } => set_id,
    }
}

/// A multi-second delta session — tracked declarations fed back from the
/// previous answer, per-connection delivery dedup in play — produces the
/// identical quantized tables, hits, and evictions on both sides.
#[test]
fn delta_refreshes_match_single_store() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(7, 4096)];
    let union = union_store(&streams);
    let single = single_server(&union);
    let cluster = LoopbackCluster::launch(&union, Placement::hash(3), 1).expect("launch cluster");
    let reference = client(&single.local_addr().to_string());
    let clustered = client(&cluster.addr());

    let mut tracked: Vec<SetId> = Vec::new();
    let mut shipped = 0usize;
    for second in 0..10 {
        let window = &streams[0][second * 256..(second + 1) * 256];
        let (t0, r0) = reference
            .search_delta(window, tracked.clone())
            .expect("single delta");
        let (t1, r1) = clustered
            .search_delta(window, tracked.clone())
            .expect("cluster delta");
        assert_eq!(t1, t0, "slice table diverged at second {second}");
        assert_eq!(r1.hits, r0.hits, "hits diverged at second {second}");
        assert_eq!(r1.evicted, r0.evicted, "evictions diverged at {second}");
        assert!(!r1.work.partial);
        shipped += t0.len();
        tracked = r0.hits.iter().map(|h| hit_id(&t0, h)).collect();
    }
    // The dedup path must have engaged: later seconds re-rank mostly
    // already-delivered sets, so strictly fewer slices travel than hits.
    assert!(shipped > 0, "no slice ever travelled");
    cluster.shutdown();
    single.shutdown();
}

/// Ingest through the coordinator lands on the owning shard and the very
/// next search sees it — with the same global ID and the same ranked
/// answer the single store gives after the same ingest.
#[test]
fn ingest_stays_equivalent_across_the_split() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(21, 3072)];
    let union = union_store(&streams);
    let single = single_server(&union);
    let cluster = LoopbackCluster::launch(&union, Placement::hash(2), 2).expect("launch cluster");
    let reference = client(&single.local_addr().to_string());
    let clustered = client(&cluster.addr());

    let fresh = integer_stream(77, SIGNAL_SET_LEN);
    let provenance = Provenance {
        dataset_id: "cluster-eq".into(),
        recording_id: "ingested".into(),
        channel: "c0".into(),
        offset: 0,
    };
    let a = reference
        .ingest(SignalClass::Seizure, provenance.clone(), fresh.clone())
        .expect("single ingest");
    let b = clustered
        .ingest(SignalClass::Seizure, provenance, fresh.clone())
        .expect("cluster ingest");
    assert_eq!(a, b, "store sizes diverged after ingest");
    assert_eq!(clustered.ping().expect("ping"), b);

    // A query cut from the fresh set must hit it on both sides, with the
    // same global ID, ranked identically among the original corpus.
    let query = &fresh[256..512];
    let (_, expected) = reference.search(query).expect("single search");
    let (work, slices) = clustered.search(query).expect("cluster search");
    assert_eq!(slices, expected);
    assert!(!work.partial);
    assert!(
        slices.iter().any(|s| s.set_id == SetId(a - 1)),
        "the ingested set must be hit"
    );
    cluster.shutdown();
    single.shutdown();
}

/// End to end: a fleet refreshed through the cluster (delta path,
/// replicated shards) makes bit-identical tracking decisions to one
/// refreshed in process against the union store.
#[test]
fn cluster_fleet_is_decision_equal_to_in_process() {
    let streams: Vec<Vec<f32>> = (0..2).map(|k| integer_stream(k + 31, 4096)).collect();
    let union = union_store(&streams);
    let service = CloudService::new(SearchConfig::paper(), union.clone().into_shared(), 2);
    let cluster = LoopbackCluster::launch(&union, Placement::hash(2), 2).expect("launch cluster");
    let clustered = client(&cluster.addr());

    let mut local = EdgeFleet::new(2);
    let mut remote = EdgeFleet::new(2);
    for k in 0..streams.len() {
        local.add_session(format!("p{k}"), EdgeTracker::new(EdgeConfig::default()));
        remote.add_session(format!("p{k}"), EdgeTracker::new(EdgeConfig::default()));
    }

    let mut refreshes = 0;
    for second in 4..10 {
        let inputs: Vec<&[f32]> = streams
            .iter()
            .map(|s| &s[second * 256..(second + 1) * 256])
            .collect();
        let tl = local.serve_with(&service, &inputs).expect("local serve");
        let tr = remote
            .serve_with(&clustered, &inputs)
            .expect("cluster serve");
        assert_eq!(tl, tr, "tick diverged at second {second}");
        assert!(tr.degraded.is_empty());
        refreshes += tr.refreshed.len();
        for (sl, sr) in local.sessions().iter().zip(remote.sessions()) {
            assert_eq!(
                sl.tracker().tracked(),
                sr.tracker().tracked(),
                "tracked state diverged at second {second}"
            );
        }
    }
    assert!(refreshes >= streams.len(), "no cloud refresh ever happened");
    cluster.shutdown();
}

/// Sends a Ping stamped with protocol version `old` (CRC re-sealed) and
/// returns the version byte of the reply frame, the decoded reply, and
/// what the read after it yields — `Ok(0)` is a FIN, an error is a reset.
fn old_ping_exchange(addr: &str, old: u8) -> (u8, Message, std::io::Result<usize>) {
    const HEADER_LEN: usize = emap_wire::HEADER_LEN;
    let mut ping = frame_bytes(&Message::Ping);
    ping[4] = old;
    let crc = emap_wire::crc::crc32_pair(&ping[..12], &ping[HEADER_LEN..]);
    ping[12..16].copy_from_slice(&crc.to_le_bytes());

    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    sock.write_all(&ping).expect("send old-version ping");
    let mut frame = vec![0u8; HEADER_LEN];
    sock.read_exact(&mut frame).expect("reply header");
    let len = u32::from_le_bytes(frame[8..12].try_into().unwrap()) as usize;
    frame.resize(HEADER_LEN + len, 0);
    sock.read_exact(&mut frame[HEADER_LEN..])
        .expect("reply payload");
    let reply = read_frame(&mut &frame[..], DEFAULT_MAX_PAYLOAD).expect("decode reply");
    let mut byte = [0u8; 1];
    (frame[4], reply, sock.read(&mut byte))
}

/// One protocol version on both tiers: a Ping stamped v3 or v4 earns the
/// same typed `BAD_REQUEST`, framed at the current version, and the same
/// clean close from a coordinator as from a single server.
#[test]
fn old_version_stamped_ping_is_rejected_identically_by_both_tiers() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(13, 2048)];
    let union = union_store(&streams);
    let single = single_server(&union);
    let cluster = LoopbackCluster::launch(&union, Placement::hash(2), 1).expect("launch cluster");

    for old in [3u8, 4] {
        let answers =
            [single.local_addr().to_string(), cluster.addr()].map(|a| old_ping_exchange(&a, old));
        for (version, reply, after) in &answers {
            assert_eq!(
                *version,
                emap_wire::VERSION,
                "reply framed at the one version"
            );
            match reply {
                Message::ErrorReply { code, detail } => {
                    assert_eq!(*code, error_code::BAD_REQUEST);
                    assert!(
                        detail.contains(&format!("unsupported wire protocol version {old}")),
                        "detail: {detail}"
                    );
                }
                other => panic!("expected ErrorReply, got {other:?}"),
            }
            assert!(matches!(after, Ok(0)), "expected FIN, got {after:?}");
        }
        assert_eq!(
            answers[0].1, answers[1].1,
            "tiers worded the error differently"
        );
    }
    cluster.shutdown();
    single.shutdown();
}
