//! Loopback tests pinning the reactor's own semantics: idle eviction
//! that consumes neither a worker nor an in-flight permit, the
//! `reactor_*` telemetry surface over the stats wire path, and pipelined
//! frames answered in order with partial writes resumed.

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use emap_cloud::{CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
use emap_core::CloudService;
use emap_datasets::{RecordingFactory, SignalClass};
use emap_mdb::{MdbBuilder, SetId};
use emap_search::SearchConfig;
use emap_wire::{
    read_frame, write_frame, DeltaQuery, Message, StatsValue, DEFAULT_MAX_PAYLOAD,
    MAX_BATCH_QUERIES, MAX_TRACKED_IDS,
};

fn seeded_service(workers: usize) -> (CloudService, RecordingFactory) {
    let factory = RecordingFactory::new(41);
    let mut builder = MdbBuilder::new();
    for i in 0..2 {
        builder
            .add_recording("d", &factory.normal_recording(&format!("n{i}"), 24.0))
            .unwrap();
        builder
            .add_recording(
                "d",
                &factory.anomaly_recording(SignalClass::Seizure, &format!("s{i}"), 24.0),
            )
            .unwrap();
    }
    (
        CloudService::new(
            SearchConfig::paper(),
            builder.build().into_shared(),
            workers,
        ),
        factory,
    )
}

fn patient_stream(factory: &RecordingFactory, id: &str) -> Vec<f32> {
    emap_dsp::emap_bandpass().filter(factory.normal_recording(id, 8.0).channels()[0].samples())
}

/// Satellite: a client that connects and sends nothing is evicted at the
/// idle deadline by the loop thread alone — while it sits there, and
/// after it is gone, a single-worker single-permit server keeps serving,
/// proving the silent session never held a worker or a permit.
#[test]
fn idle_sessions_evicted_without_consuming_worker_or_permit() {
    let (service, factory) = seeded_service(1);
    let config = ServerConfig {
        workers: 1,
        max_inflight_searches: 1,
        idle_timeout: Duration::from_millis(200),
        max_sessions: 16,
        ..ServerConfig::default()
    };
    let server = CloudServer::bind("127.0.0.1:0", service, config).expect("bind loopback");
    let addr = server.local_addr();
    let stream = patient_stream(&factory, "p0");

    // The silent session: connected, never speaks.
    let mut silent = TcpStream::connect(addr).expect("silent connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");

    // With the only worker and the only permit supposedly "available",
    // a real client gets served immediately — the silent session cost
    // neither.
    let client = RemoteCloud::new(
        addr.to_string(),
        RemoteCloudConfig {
            attempts: 1,
            ..RemoteCloudConfig::default()
        },
    );
    let (slices, result) = client
        .search_delta(&stream[1024..1280], vec![])
        .expect("search");
    assert!(result.work.sets_scanned > 0);
    assert!(!result.hits.is_empty());
    assert!(!slices.is_empty());

    // The reactor closes the silent session at its idle deadline: the
    // blocking read observes EOF, not a timeout.
    let waited = Instant::now();
    let mut byte = [0u8; 1];
    let got = silent.read(&mut byte).expect("EOF, not an error");
    assert_eq!(got, 0, "expected the server to close the idle session");
    assert!(
        waited.elapsed() < Duration::from_secs(4),
        "eviction took implausibly long"
    );

    let stats = server.shutdown();
    assert_eq!(stats.searches, 1, "only the real search took a permit");
    assert_eq!(stats.busy_rejections, 0, "nothing was shed");
}

/// Satellite: the `reactor_*` counters and by-state gauges ride the same
/// registry as the `cloud_*` set, visible over the stats wire path and
/// in the Prometheus text render. The by-state gauges are pinned from
/// the inside: while the stats request itself is on the worker pool, its
/// own connection is the one `Dispatched` session.
#[test]
fn reactor_telemetry_roundtrips_over_stats() {
    let (service, factory) = seeded_service(2);
    let server =
        CloudServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback");
    let client = RemoteCloud::new(
        server.local_addr().to_string(),
        RemoteCloudConfig::default(),
    );
    let stream = patient_stream(&factory, "p1");

    assert!(client.ping().expect("ping") > 0);
    let (_, result) = client
        .search_delta(&stream[1024..1280], vec![])
        .expect("search");
    assert!(result.work.sets_scanned > 0);

    let stats = client.stats().expect("stats over loopback");
    assert!(
        stats
            .counter("reactor_wakeups_total")
            .expect("wakeups counter")
            > 0,
        "the loop woke for the requests just served"
    );
    assert_eq!(stats.counter("reactor_evicted_idle_total"), Some(0));
    // Spurious wakeups and partial-write resumes are load-dependent, but
    // the counters themselves must exist on the wire.
    for name in [
        "reactor_spurious_wakeups_total",
        "reactor_partial_writes_total",
    ] {
        assert!(
            stats.counter(name).is_some(),
            "{name} missing from snapshot"
        );
    }
    let gauge = |name: &str| {
        stats.metrics.iter().find_map(|m| match m.value {
            StatsValue::Gauge(v) if m.name == name => Some(v),
            _ => None,
        })
    };
    // The stats request was snapshotted by a worker while its own
    // connection sat dispatched — the one live session, in exactly one
    // state.
    assert_eq!(gauge("reactor_conns_dispatched"), Some(1));
    assert_eq!(gauge("reactor_conns_reading"), Some(0));
    assert_eq!(gauge("reactor_conns_writing"), Some(0));

    // Same instruments in the Prometheus text render.
    let text = server.telemetry().render_text();
    assert!(text.contains("reactor_wakeups_total"));
    assert!(text.contains("reactor_conns_reading"));
    server.shutdown();
}

/// A burst of pipelined request frames written before any reply is read:
/// the reactor answers every one, in order, resuming partial writes as
/// the client drains — the one-request-in-flight contract holds per
/// connection even when megabytes of replies queue behind a slow reader.
#[test]
fn pipelined_bursts_answer_in_order_with_partial_writes() {
    let (service, factory) = seeded_service(2);
    let server =
        CloudServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback");
    let stream = patient_stream(&factory, "p2");

    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");

    // Get-or-create handles on the server's instruments: the reactor
    // registers its own when its loop starts, which may be after `bind`
    // returns.
    let partial_writes = server.telemetry().counter("reactor_partial_writes_total");
    let searches = server.telemetry().counter("cloud_searches_total");

    // Pipeline full batches without draining a byte until the replies
    // have outrun the kernel's send-buffer autotune (tcp_wmem caps at a
    // few MB) and the server parks mid-write. Only the first reply on the
    // connection ships slices; after it every hit is a ~14-byte `Known`
    // reference. So each frame holds the wire's cap of 64 queries, and
    // each query declares the cap of tracked ids, none of them in the
    // store: all come back as evictions, 3-byte varints, ~220 kB a reply
    // for the search work of 64 queries. Reading nothing meanwhile keeps
    // every queued reply in the server's court. The pace is the server's:
    // a batch is written once every batch before it has been admitted
    // (`cloud_searches_total` counts a request's queries when the loop
    // dispatches it, and one request is in flight per connection), so the
    // server always has the next request waiting however slow its
    // searches run, and the client never queues more than one unread
    // request.
    let queries: Vec<DeltaQuery> = (0..MAX_BATCH_QUERIES)
        .map(|i| DeltaQuery {
            second: stream[i * 28..i * 28 + 256].to_vec(),
            tracked: (0..MAX_TRACKED_IDS as u64)
                .map(|k| SetId(1 << 20 | k))
                .collect(),
        })
        .collect();
    let batch = queries.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut rounds = 0u64;
    while partial_writes.get() == 0 {
        assert!(
            Instant::now() < deadline,
            "{rounds} undrained batch replies never blocked a write within 60 s"
        );
        if searches.get() >= rounds * batch {
            write_frame(
                &mut conn,
                &Message::SearchBatchDeltaRequest {
                    queries: queries.clone(),
                },
            )
            .expect("write batch");
            rounds += 1;
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    write_frame(&mut conn, &Message::Ping).expect("write ping");

    for round in 0..rounds {
        match read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).expect("read batch reply") {
            Message::SearchBatchDeltaResponse { results, .. } => {
                assert_eq!(results.len(), queries.len(), "round {round}");
                assert!(results.iter().all(|r| r.evicted.len() == MAX_TRACKED_IDS));
            }
            other => panic!(
                "round {round}: expected delta response, got {}",
                other.name()
            ),
        }
    }
    match read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).expect("read pong") {
        Message::Pong { .. } => {}
        other => panic!("expected trailing Pong, got {other:?}"),
    }
    drop(conn);

    let stats = server.shutdown();
    assert_eq!(stats.searches, rounds * batch);
}
