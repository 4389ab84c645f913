//! Two-process-shaped integration tests over the loopback interface: the
//! remote transport must be *decision-equal* to the in-process pipeline,
//! and losing the cloud mid-session must degrade tracking, not kill it.

use std::time::Duration;

use emap_cloud::{CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
use emap_core::{CloudService, EdgeFleet};
use emap_datasets::{RecordingFactory, SignalClass};
use emap_edge::{EdgeConfig, EdgeTracker};
use emap_mdb::{Mdb, MdbBuilder, SignalSet};
use emap_search::SearchConfig;

fn seeded_service(workers: usize) -> (CloudService, RecordingFactory) {
    let factory = RecordingFactory::new(33);
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
            whole_counts(&builder.build()).into_shared(),
            workers,
        ),
        factory,
    )
}

/// The factory store rounded to whole µV — native 16-bit EEG, which the
/// delta refresh's quantization carries exactly, so remote and in-process
/// trackers hold bit-identical slices.
fn whole_counts(mdb: &Mdb) -> Mdb {
    Mdb::from_sets(
        mdb.iter()
            .map(|s| {
                SignalSet::new(
                    s.samples().iter().map(|v| v.round()).collect(),
                    s.class(),
                    s.provenance().clone(),
                )
                .expect("slice length is preserved")
            })
            .collect(),
    )
}

fn patient_stream(factory: &RecordingFactory, id: &str) -> Vec<f32> {
    emap_dsp::emap_bandpass().filter(factory.normal_recording(id, 16.0).channels()[0].samples())
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

/// The tentpole guarantee: a fleet refreshed through the TCP transport
/// makes bit-identical decisions to one refreshed in process, across a
/// multi-second session with real refreshes happening.
#[test]
fn remote_fleet_is_decision_equal_to_in_process() {
    let (service, factory) = seeded_service(2);
    let server = CloudServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default())
        .expect("bind loopback");
    let client = fast_client(&server.local_addr().to_string());

    let streams: Vec<Vec<f32>> = (0..3)
        .map(|i| patient_stream(&factory, &format!("p{i}")))
        .collect();

    let mut local = EdgeFleet::new(2);
    let mut remote = EdgeFleet::new(2);
    for i in 0..streams.len() {
        local.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
        remote.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
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
    // The equivalence must have been exercised through actual refreshes.
    assert!(refreshes >= streams.len(), "no cloud refresh ever happened");
    server.shutdown();
}

/// Killing the server mid-session leaves the edge in degraded local-only
/// tracking — no error, no emptied report — and a successful re-search
/// after the cloud returns restores normal operation.
#[test]
fn server_death_degrades_then_recovers() {
    let (service, factory) = seeded_service(2);
    let server = CloudServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    let client = fast_client(&addr.to_string());
    let stream = patient_stream(&factory, "p0");

    let mut fleet = EdgeFleet::new(1);
    // Session 0 gets a healthy refresh; session 1 stays empty (below H
    // every tick) so it exercises the degraded path each second.
    fleet.add_session("p0", EdgeTracker::new(EdgeConfig::default()));
    fleet.add_session("p1", EdgeTracker::new(EdgeConfig::default()));

    let inputs: Vec<&[f32]> = vec![&stream[1024..1280], &stream[1024..1280]];
    let tick = fleet.serve_with(&client, &inputs).expect("initial serve");
    assert_eq!(tick.refreshed, vec![0, 1]);
    let tracked_before = fleet.sessions()[0].tracker().len();
    assert!(tracked_before > 0);

    // The cloud dies.
    server.shutdown();

    let mut degraded_ticks = 0;
    for second in 5..8 {
        let inputs: Vec<&[f32]> = vec![&stream[second * 256..(second + 1) * 256]; 2];
        let tick = fleet
            .serve_with(&client, &inputs)
            .expect("degraded serve must not error");
        // Full reports for every session, nothing silently dropped.
        assert_eq!(tick.reports.len(), 2);
        assert!(tick.refreshed.is_empty());
        degraded_ticks += tick.degraded.len();
    }
    // The starved empty session flagged degraded every second.
    assert!(degraded_ticks >= 3, "degraded ticks: {degraded_ticks}");
    // Session 0 kept tracking its local set throughout the outage.
    assert!(!fleet.sessions()[0].tracker().is_empty() || tracked_before == 0);

    // The cloud comes back on the same address; the next serve recovers.
    let revived =
        CloudServer::bind(addr, service, ServerConfig::default()).expect("rebind same addr");
    let inputs: Vec<&[f32]> = vec![&stream[2048..2304], &stream[2048..2304]];
    let tick = fleet.serve_with(&client, &inputs).expect("recovered serve");
    assert!(tick.degraded.is_empty());
    assert_eq!(tick.refreshed, tick.needing_cloud());
    assert!(!fleet.sessions()[1].tracker().is_empty());
    revived.shutdown();
}

/// Concurrent clients hammering one server all get correct answers, and
/// the in-flight bound converts overload into typed Busy rejections (which
/// the client absorbs by retrying) rather than failures.
#[test]
fn concurrent_sessions_with_backpressure() {
    let (service, factory) = seeded_service(2);
    let config = ServerConfig {
        workers: 2,
        max_sessions: 4,
        max_inflight_searches: 2,
        ..ServerConfig::default()
    };
    let server = CloudServer::bind("127.0.0.1:0", service, config).expect("bind loopback");
    let addr = server.local_addr().to_string();

    let streams: Vec<Vec<f32>> = (0..6)
        .map(|i| patient_stream(&factory, &format!("q{i}")))
        .collect();
    std::thread::scope(|scope| {
        for stream in &streams {
            let addr = addr.clone();
            scope.spawn(move || {
                let client = RemoteCloud::new(
                    addr,
                    RemoteCloudConfig {
                        attempts: 8,
                        backoff_base: Duration::from_millis(10),
                        backoff_cap: Duration::from_millis(100),
                        ..RemoteCloudConfig::default()
                    },
                );
                for second in 4..7 {
                    let (_, result) = client
                        .search_delta(&stream[second * 256..(second + 1) * 256], vec![])
                        .expect("search under load");
                    assert!(result.work.sets_scanned > 0);
                    assert!(!result.hits.is_empty());
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.searches, 6 * 3);
}
