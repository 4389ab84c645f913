//! Loopback tests for the delta refresh: refreshes over real sockets
//! must stay decision-equal to the in-process pipeline, slices must never
//! re-ship on a connection, and a frame stamped with any other protocol
//! version must earn a typed error and a clean close.
//!
//! The store here is integer-valued (native 16-bit EEG), so quantization
//! is exact and equality is bitwise. Sets are overlapping windows of the
//! session streams themselves: each second's query is an exact
//! subsequence of ~3 sets, so top-K membership churns by one set per
//! second — the delta path's steady state.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use emap_cloud::{CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
use emap_core::{CloudEndpoint, CloudService, EdgeFleet};
use emap_datasets::SignalClass;
use emap_edge::{EdgeConfig, EdgeTracker};
use emap_mdb::{Mdb, Provenance, SignalSet, SIGNAL_SET_LEN};
use emap_search::{Query, SearchConfig};
use emap_wire::{
    error_code, frame_bytes, read_frame, DeltaHit, Message, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
    VERSION,
};

/// Deterministic integer-valued "EEG": every sample is a whole number in
/// the native 16-bit range, so the quantized path is exact.
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

/// A store of overlapping 1000-sample windows of each stream, stepped by
/// one second: querying second `s` of stream `k` matches sets `s-2..=s`
/// of that stream exactly (ω = 1), so membership shifts by one set per
/// second.
fn integer_service(streams: &[Vec<f32>], workers: usize) -> CloudService {
    let mut mdb = Mdb::new();
    for (k, stream) in streams.iter().enumerate() {
        for i in 0..(stream.len() - SIGNAL_SET_LEN) / 256 + 1 {
            mdb.insert(
                SignalSet::new(
                    stream[i * 256..i * 256 + SIGNAL_SET_LEN].to_vec(),
                    CLASSES[(k + i) % CLASSES.len()],
                    Provenance {
                        dataset_id: "wire-diet".into(),
                        recording_id: format!("s{k}"),
                        channel: "c0".into(),
                        offset: i as u64 * 256,
                    },
                )
                .expect("window length"),
            );
        }
    }
    CloudService::new(SearchConfig::paper(), mdb.into_shared(), workers)
}

fn client_for(addr: &str) -> RemoteCloud {
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

/// The tentpole guarantee, rebased onto the diet: a fleet refreshed with
/// quantized deltas over TCP makes bit-identical decisions to one
/// refreshed in process with full f32 slices — while the server's
/// telemetry shows slices being retained instead of re-shipped.
#[test]
fn delta_fleet_is_decision_equal_to_in_process() {
    let streams: Vec<Vec<f32>> = (0..2).map(|k| integer_stream(k + 1, 4096)).collect();
    let service = integer_service(&streams, 2);
    let server = CloudServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default())
        .expect("bind loopback");
    let client = client_for(&server.local_addr().to_string());

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
        let tr = remote.serve_with(&client, &inputs).expect("remote serve");
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

    // The diet must actually have engaged: with H = 25 > |top-K| every
    // second re-searches, and stable membership rides as references.
    let stats = client.stats().expect("stats over loopback");
    let shipped = stats.counter("wire_delta_shipped_total").unwrap_or(0);
    let retained = stats.counter("wire_delta_retained_total").unwrap_or(0);
    assert!(shipped > 0, "no slice ever travelled");
    assert!(
        retained > shipped,
        "steady state must be reference-dominated"
    );
    assert!(stats.counter("cloud_bytes_out_slice").unwrap_or(0) > 0);
    server.shutdown();
}

/// Cross-round dedup: a slice delivered once on a connection never
/// travels again — the second identical query gets references only.
#[test]
fn connection_never_reships_a_delivered_slice() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(5, 3072)];
    let service = integer_service(&streams, 2);
    let server =
        CloudServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback");
    let client = client_for(&server.local_addr().to_string());
    let window = &streams[0][1024..1280];

    let (table1, result1) = client
        .search_delta(window, Vec::new())
        .expect("first search");
    assert!(!table1.is_empty(), "first contact must ship slices");
    assert_eq!(table1.len(), result1.hits.len());
    assert!(result1
        .hits
        .iter()
        .all(|h| matches!(h, DeltaHit::New { .. })));
    assert!(table1.iter().all(emap_wire::QuantizedSlice::is_exact));

    // Same query, same connection, still no tracked declaration: the
    // server's delivery history alone must suppress every slice.
    let (table2, result2) = client
        .search_delta(window, Vec::new())
        .expect("second search");
    assert!(table2.is_empty(), "re-shipped {} slices", table2.len());
    assert_eq!(result2.hits.len(), result1.hits.len());
    assert!(result2
        .hits
        .iter()
        .all(|h| matches!(h, DeltaHit::Known { .. })));

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.counter("wire_delta_shipped_total"),
        Some(table1.len() as u64)
    );
    assert_eq!(
        stats.counter("wire_delta_retained_total"),
        Some(result2.hits.len() as u64)
    );

    // A fresh connection starts cold: the slices travel again, because
    // the delivery history died with the socket.
    client.disconnect();
    let (table3, _) = client
        .search_delta(window, Vec::new())
        .expect("reconnect search");
    assert_eq!(table3.len(), table1.len(), "fresh connection must re-ship");
    server.shutdown();
}

/// An explicit search and a refresh share one connection's history: the
/// slices `search_delta` received are in the client's cache, so the
/// refresh that follows on the same client resolves the `Known`
/// references the server now sends for them — one connection, two
/// searches, no cache-miss reconnect.
#[test]
fn refresh_after_search_delta_resolves_its_slices() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(7, 3072)];
    let service = integer_service(&streams, 2);
    let server =
        CloudServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback");
    let client = client_for(&server.local_addr().to_string());
    let window = &streams[0][1024..1280];

    let (table, _) = client
        .search_delta(window, Vec::new())
        .expect("explicit search");
    assert!(!table.is_empty(), "first contact must ship slices");
    let mut tracker = EdgeTracker::new(EdgeConfig::default());
    client
        .refresh(&Query::new(window).expect("query"), &mut tracker)
        .expect("refresh");
    assert_eq!(tracker.tracked().len(), table.len());

    let stats = client.stats().expect("stats");
    let counts = [
        "cloud_connections_total",
        "cloud_searches_total",
        "cloud_sweeps_total",
    ]
    .map(|name| stats.counter(name).unwrap_or(0));
    assert_eq!(counts, [1, 2, 2], "connections, searches, sweeps");
    server.shutdown();
}

/// Exactly one protocol version is spoken: a Ping stamped v3 or v4 (CRC
/// and all) is answered with a typed `BAD_REQUEST` naming the unsupported
/// version, framed at [`VERSION`], and the connection then closes with a
/// FIN — the reply is readable and the next read is a clean EOF, not a
/// reset.
#[test]
fn old_version_stamped_ping_gets_typed_error_and_clean_close() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(3, 2048)];
    let service = integer_service(&streams, 1);
    let server =
        CloudServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback");

    for old in [3u8, 4] {
        let mut ping = frame_bytes(&Message::Ping);
        ping[4] = old;
        let crc = emap_wire::crc::crc32_pair(&ping[..12], &ping[HEADER_LEN..]);
        ping[12..16].copy_from_slice(&crc.to_le_bytes());

        let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        sock.write_all(&ping).expect("send old-version ping");

        let mut header = [0u8; HEADER_LEN];
        sock.read_exact(&mut header).expect("reply header");
        assert_eq!(header[4], VERSION, "the reply is framed at the one version");
        let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        let mut frame = header.to_vec();
        frame.resize(HEADER_LEN + len, 0);
        sock.read_exact(&mut frame[HEADER_LEN..])
            .expect("reply payload");
        match read_frame(&mut &frame[..], DEFAULT_MAX_PAYLOAD).expect("decode reply") {
            Message::ErrorReply { code, detail } => {
                assert_eq!(code, error_code::BAD_REQUEST);
                assert!(
                    detail.contains(&format!("unsupported wire protocol version {old}")),
                    "detail: {detail}"
                );
            }
            other => panic!("expected ErrorReply, got {other:?}"),
        }
        let mut byte = [0u8; 1];
        assert_eq!(sock.read(&mut byte).expect("FIN, not RST"), 0);
    }
    assert_eq!(server.shutdown().protocol_errors, 2);
}
