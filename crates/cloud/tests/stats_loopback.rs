//! Loopback integration tests for the telemetry wire path: a server is
//! driven through a batched serve, then asked for its registry snapshot
//! ([`emap_wire::Message::StatsRequest`]) and extended health figures
//! ([`emap_wire::Message::HealthRequest`]). The numbers that come back
//! must agree with the legacy [`emap_cloud::ServerStats`] counters — both
//! read the same atomics — and the hot-path instruments (request
//! latencies, shared sweeps, windows evaluated) must be live.

use emap_cloud::{CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
use emap_core::{CloudService, EdgeFleet};
use emap_datasets::{RecordingFactory, SignalClass};
use emap_edge::{EdgeConfig, EdgeTracker};
use emap_mdb::MdbBuilder;
use emap_search::SearchConfig;
use emap_wire::StatsValue;

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

/// After a batched fleet serve plus an over-the-wire ingest, `stats()`
/// returns nonzero request, latency, and sweep counters that agree with
/// the server's legacy [`emap_cloud::ServerStats`] readout, and
/// `health()` reports live store and ingest figures.
#[test]
fn stats_roundtrip_after_batched_serve() {
    let (service, factory) = seeded_service(2);
    let store_sets = service.mdb().len() as u64;
    let server =
        CloudServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback");
    let client = RemoteCloud::new(
        server.local_addr().to_string(),
        RemoteCloudConfig::default(),
    );

    // A three-session fleet served over the wire, every session needing
    // the cloud each round: each serve_with() round ships one
    // SearchBatchDeltaRequest for the first session stepped, then one late
    // batch carrying the other two.
    let mut fleet = EdgeFleet::new(2);
    for i in 0..3 {
        fleet.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
    }
    let streams: Vec<Vec<f32>> = (0..3)
        .map(|i| patient_stream(&factory, &format!("p{i}")))
        .collect();
    for step in 0..2 {
        let seconds: Vec<&[f32]> = streams
            .iter()
            .map(|s| &s[step * 256..(step + 1) * 256])
            .collect();
        let tick = fleet
            .serve_with(&client, &seconds)
            .expect("serve over loopback");
        assert!(tick.degraded.is_empty(), "cloud reachable");
    }

    // One wire ingest so the health probe has something to count.
    let new_total = client
        .ingest(
            SignalClass::Stroke,
            emap_mdb::Provenance {
                dataset_id: "live".into(),
                recording_id: "w".into(),
                channel: "c".into(),
                offset: 0,
            },
            vec![0.5; emap_mdb::SIGNAL_SET_LEN],
        )
        .expect("ingest over loopback");
    assert_eq!(new_total, store_sets + 1);

    let stats = client.stats().expect("stats over loopback");
    let legacy = server.stats();

    // The wire counters and the legacy readout are the same atomics.
    for (name, want) in [
        ("cloud_searches_total", legacy.searches),
        ("cloud_sweeps_total", legacy.sweeps),
        ("cloud_coalesced_total", legacy.coalesced),
        ("cloud_ingested_total", legacy.ingested),
        ("cloud_served_total", legacy.served),
    ] {
        assert_eq!(stats.counter(name), Some(want), "{name}");
    }
    // 2 batched rounds × 3 sessions, plus nothing else searching.
    assert_eq!(stats.counter("cloud_searches_total"), Some(6));
    assert!(legacy.sweeps >= 2, "each round swept at least once");
    assert!(stats.counter("cloud_bytes_in_total").unwrap() > 0);
    assert!(stats.counter("cloud_bytes_out_total").unwrap() > 0);
    assert_eq!(stats.counter("cloud_request_search_total"), Some(4));
    assert_eq!(stats.counter("cloud_request_ingest_total"), Some(1));

    // The engine's sweep telemetry rides the same registry: the store was
    // actually walked and the latency summaries recorded.
    assert!(stats.counter("search_sweeps_total").unwrap() >= 2);
    assert!(stats.counter("search_windows_evaluated_total").unwrap() > 0);
    assert!(stats.counter("search_hosts_scanned_total").unwrap() > 0);
    let search_latency = stats
        .metrics
        .iter()
        .find(|m| m.name == "cloud_request_search_nanos")
        .expect("search latency summary present");
    match search_latency.value {
        StatsValue::Summary {
            count,
            sum_nanos,
            p50_nanos,
            p99_nanos,
            ..
        } => {
            assert_eq!(count, 4, "one timing per search request");
            assert!(sum_nanos > 0);
            assert!(p50_nanos > 0 && p50_nanos <= p99_nanos);
        }
        other => panic!("expected Summary, got {other:?}"),
    }

    let health = client.health().expect("health over loopback");
    assert_eq!(health.store_sets, store_sets + 1);
    assert_eq!(health.ingested, 1);
    assert_eq!(health.in_flight, 0, "no search in flight while probing");
    assert!(health.uptime_seconds <= stats.uptime_seconds + 60);

    server.shutdown();
}

/// A server bound with a disabled registry still serves exact counters —
/// the stripped configuration drops only the latency timing.
#[test]
fn disabled_registry_keeps_counters_but_not_latencies() {
    let (service, factory) = seeded_service(2);
    let server = CloudServer::bind_with_telemetry(
        "127.0.0.1:0",
        service,
        ServerConfig::default(),
        emap_telemetry::Registry::disabled(),
    )
    .expect("bind loopback");
    let client = RemoteCloud::new(
        server.local_addr().to_string(),
        RemoteCloudConfig::default(),
    );

    let stream = patient_stream(&factory, "p0");
    let (slices, result) = client.search_delta(&stream[..256], vec![]).expect("search");
    assert!(result.work.sets_scanned > 0);
    assert!(!result.hits.is_empty());
    assert!(!slices.is_empty());

    let stats = client.stats().expect("stats over loopback");
    assert_eq!(stats.counter("cloud_searches_total"), Some(1));
    let latency = stats
        .metrics
        .iter()
        .find(|m| m.name == "cloud_request_search_nanos")
        .expect("latency instrument still registered");
    match latency.value {
        StatsValue::Summary { count, .. } => {
            assert_eq!(count, 0, "disabled histograms record nothing")
        }
        other => panic!("expected Summary, got {other:?}"),
    }

    server.shutdown();
}
