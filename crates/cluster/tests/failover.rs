//! Replication and failover, end to end over loopback sockets: a dying
//! replica must be invisible (the coordinator walks to its sibling, zero
//! wrong decisions), a whole shard dying must degrade to flagged partial
//! coverage rather than failure, a whole *cluster* dying must leave the
//! fleet in local-only tracking (`FleetTick::degraded`), and a replica
//! that rejoins after downtime must be replayed the ingests it missed
//! before serving a search.

use std::time::Duration;

use std::io::Read;
use std::net::TcpStream;

use emap_cloud::{ClientError, CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
use emap_cluster::{loopback_upstream, CoordinatorConfig, LoopbackCluster, Placement};
use emap_core::{CloudService, EdgeFleet};
use emap_datasets::SignalClass;
use emap_edge::{EdgeConfig, EdgeTracker};
use emap_mdb::{Mdb, Provenance, SetId, SignalSet, SIGNAL_SET_LEN};
use emap_search::SearchConfig;
use emap_telemetry::Registry;
use emap_wire::{error_code, read_frame, write_frame, Message, DEFAULT_MAX_PAYLOAD};

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

fn corpus(streams: &[Vec<f32>]) -> Mdb {
    let mut mdb = Mdb::new();
    for (k, stream) in streams.iter().enumerate() {
        for i in 0..(stream.len() - SIGNAL_SET_LEN) / 256 + 1 {
            mdb.insert(
                SignalSet::new(
                    stream[i * 256..i * 256 + SIGNAL_SET_LEN].to_vec(),
                    CLASSES[(k + i) % CLASSES.len()],
                    Provenance {
                        dataset_id: "cluster-fo".into(),
                        recording_id: format!("s{k}"),
                        channel: "c0".into(),
                        offset: i as u64 * 256,
                    },
                )
                .expect("window length"),
            );
        }
    }
    mdb
}

fn client_config() -> RemoteCloudConfig {
    RemoteCloudConfig {
        connect_timeout: Duration::from_millis(200),
        attempts: 2,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        ..RemoteCloudConfig::default()
    }
}

fn client(addr: &str) -> RemoteCloud {
    RemoteCloud::new(addr, client_config())
}

/// Killing one replica of each shard mid-session changes nothing an
/// edge can observe: the coordinator fails over to the surviving
/// sibling, answers stay bitwise identical, no partial flag, and the
/// failover counter records the walk.
#[test]
fn replica_death_fails_over_with_identical_answers() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(41, 4096)];
    let union = corpus(&streams);
    let mut cluster =
        LoopbackCluster::launch(&union, Placement::hash(2), 2).expect("launch cluster");
    let c = client(&cluster.addr());

    let query = &streams[0][1024..1280];
    let (work, baseline) = c.search(query).expect("baseline search");
    assert!(!baseline.is_empty());
    assert!(!work.partial);

    // Preferred replicas start at index 0; kill both shards' replica 0.
    cluster.kill_replica(0, 0);
    cluster.kill_replica(1, 0);

    let (work, slices) = c.search(query).expect("post-kill search");
    assert_eq!(slices, baseline, "failover changed the answer");
    assert!(!work.partial, "replica loss is not partial coverage");

    let telemetry = cluster.coordinator().telemetry();
    assert!(telemetry.counter("cluster_failovers_total").get() >= 2);
    assert_eq!(telemetry.gauge("cluster_shards_degraded").get(), 0);
    assert_eq!(telemetry.gauge("cluster_shard_up_0").get(), 1);
    assert_eq!(telemetry.gauge("cluster_shard_up_1").get(), 1);
    cluster.shutdown();
}

/// Losing *every* replica of one shard degrades, visibly: the response
/// still succeeds, carries the partial flag, and covers exactly the
/// surviving shard's sets. Restarting a replica restores the full
/// answer and clears the degraded gauges.
#[test]
fn shard_loss_degrades_to_flagged_partial_coverage() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(43, 4096)];
    let union = corpus(&streams);
    let mut cluster =
        LoopbackCluster::launch(&union, Placement::hash(2), 1).expect("launch cluster");
    let c = client(&cluster.addr());
    let placement = Placement::hash(2);

    // Pick a second whose hits span both shards, so losing shard 0
    // removes some hits and keeps others.
    let (query, baseline, lost) = (4..14)
        .find_map(|second| {
            let query = &streams[0][second * 256..(second + 1) * 256];
            let (_, baseline) = c.search(query).expect("baseline search");
            let lost: Vec<SetId> = baseline
                .iter()
                .filter(|s| placement.shard_of(s.set_id, s.class) == 0)
                .map(|s| s.set_id)
                .collect();
            (!lost.is_empty() && lost.len() < baseline.len()).then_some((query, baseline, lost))
        })
        .expect("some query must hit both shards");

    cluster.kill_replica(0, 0);
    let (work, slices) = c.search(query).expect("degraded search must succeed");
    assert!(work.partial, "missing shard must be flagged");
    let expected: Vec<_> = baseline
        .iter()
        .filter(|s| !lost.contains(&s.set_id))
        .cloned()
        .collect();
    assert_eq!(slices, expected, "survivors must still rank identically");

    let telemetry = cluster.coordinator().telemetry();
    let partials = telemetry.counter("cluster_partial_responses_total");
    let degraded = telemetry.gauge("cluster_shards_degraded");
    let shard0_up = telemetry.gauge("cluster_shard_up_0");
    assert!(partials.get() >= 1);
    assert_eq!(degraded.get(), 1);
    assert_eq!(shard0_up.get(), 0);

    // The shard comes back; coverage and gauges recover.
    cluster.restart_replica(0, 0).expect("restart replica");
    let (work, slices) = c.search(query).expect("recovered search");
    assert!(!work.partial);
    assert_eq!(slices, baseline);
    assert_eq!(degraded.get(), 0);
    assert_eq!(shard0_up.get(), 1);
    cluster.shutdown();
}

/// The fleet seam across outage depths: one shard down → refreshes keep
/// succeeding on partial coverage, nothing degraded; the whole cluster
/// down → sessions needing the cloud land in `FleetTick::degraded` and
/// keep tracking locally; the cluster back → normal refresh resumes.
#[test]
fn fleet_keeps_tracking_through_shard_and_cluster_loss() {
    let streams: Vec<Vec<f32>> = (0..2).map(|k| integer_stream(k + 51, 4096)).collect();
    let union = corpus(&streams);
    let mut cluster =
        LoopbackCluster::launch(&union, Placement::hash(2), 1).expect("launch cluster");
    let c = client(&cluster.addr());

    let mut fleet = EdgeFleet::new(2);
    for k in 0..streams.len() {
        fleet.add_session(format!("p{k}"), EdgeTracker::new(EdgeConfig::default()));
    }
    let inputs_at = |second: usize| -> Vec<&[f32]> {
        streams
            .iter()
            .map(|s| &s[second * 256..(second + 1) * 256])
            .collect()
    };

    let tick = fleet.serve_with(&c, &inputs_at(4)).expect("healthy serve");
    assert!(tick.degraded.is_empty());
    assert!(!tick.refreshed.is_empty());

    // One shard dies: coverage shrinks, tracking does not stop. The
    // refreshes still *succeed* — partial coverage is a flagged answer,
    // not a transport failure.
    cluster.kill_replica(0, 0);
    let tick = fleet.serve_with(&c, &inputs_at(5)).expect("partial serve");
    assert_eq!(tick.reports.len(), 2);
    assert!(tick.degraded.is_empty(), "one shard down must not degrade");
    assert_eq!(tick.refreshed, tick.needing_cloud());

    // The whole cluster dies: every session needing the cloud degrades
    // to local-only tracking, full reports still flow.
    cluster.kill_replica(1, 0);
    let mut degraded_ticks = 0;
    for second in 6..9 {
        let tick = fleet
            .serve_with(&c, &inputs_at(second))
            .expect("degraded serve must not error");
        assert_eq!(tick.reports.len(), 2);
        assert!(tick.refreshed.is_empty());
        assert_eq!(tick.degraded, tick.needing_cloud());
        degraded_ticks += tick.degraded.len();
    }
    assert!(degraded_ticks > 0, "nothing ever needed the cloud");

    // Both shards return; the next serve exits degraded mode.
    cluster.restart_replica(0, 0).expect("restart shard 0");
    cluster.restart_replica(1, 0).expect("restart shard 1");
    let tick = fleet
        .serve_with(&c, &inputs_at(9))
        .expect("recovered serve");
    assert!(tick.degraded.is_empty());
    assert_eq!(tick.refreshed, tick.needing_cloud());
    cluster.shutdown();
}

/// A replica that was down through an ingest is replayed the journal
/// when it rejoins: after its sibling dies too, it alone serves the
/// ingested set — same global ID, same answer.
#[test]
fn rejoining_replica_resyncs_missed_ingests() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(61, 3072)];
    let union = corpus(&streams);
    let mut cluster =
        LoopbackCluster::launch(&union, Placement::hash(1), 2).expect("launch cluster");
    let c = client(&cluster.addr());

    // Replica 1 goes down *before* the write exists anywhere.
    cluster.kill_replica(0, 1);

    let fresh = integer_stream(99, SIGNAL_SET_LEN);
    let total = c
        .ingest(
            SignalClass::Seizure,
            Provenance {
                dataset_id: "cluster-fo".into(),
                recording_id: "late".into(),
                channel: "c0".into(),
                offset: 0,
            },
            fresh.clone(),
        )
        .expect("ingest with one replica down");
    let new_id = SetId(total - 1);

    let query = &fresh[0..256];
    let (work, baseline) = c.search(query).expect("search via replica 0");
    assert!(!work.partial);
    assert!(baseline.iter().any(|s| s.set_id == new_id));

    // Now the only up-to-date replica dies and the stale one rejoins:
    // the journal replay must close the gap before it answers.
    cluster.kill_replica(0, 0);
    cluster.restart_replica(0, 1).expect("rejoin replica 1");
    let (work, slices) = c.search(query).expect("search via rejoined replica");
    assert!(!work.partial);
    assert_eq!(slices, baseline, "resynced replica diverged");

    let telemetry = cluster.coordinator().telemetry();
    // Once into replica 0 at ingest time, once replayed into replica 1.
    assert!(telemetry.counter("cluster_replica_ingests_total").get() >= 2);
    assert_eq!(c.ping().expect("ping"), total);
    cluster.shutdown();
}

/// `emap stats` against a coordinator surfaces its own `cloud_*` and
/// `cluster_*` instruments plus each shard's snapshot under a
/// `shard<k>_` prefix.
#[test]
fn stats_surface_cluster_and_shard_metrics() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(71, 3072)];
    let union = corpus(&streams);
    let cluster = LoopbackCluster::launch(&union, Placement::hash(2), 1).expect("launch cluster");
    let c = client(&cluster.addr());

    for second in 4..7 {
        let _ = c
            .search(&streams[0][second * 256..(second + 1) * 256])
            .expect("search");
    }
    let stats = c.stats().expect("stats over loopback");
    assert!(stats.counter("cloud_request_search_total").unwrap_or(0) >= 3);
    assert_eq!(stats.counter("cluster_partial_responses_total"), Some(0));
    assert!(
        stats.metrics.iter().any(|m| m.name.starts_with("shard0_")),
        "shard snapshots must be re-exported"
    );
    assert!(
        stats
            .metrics
            .iter()
            .any(|m| m.name == "cluster_fanout_seconds_shard_0"),
        "fan-out latency histogram must be registered"
    );
    cluster.shutdown();
}

/// A malformed ingest is refused by the coordinator exactly as a single
/// server refuses it — before anything is journaled — so no replica is
/// ever handed an entry it must reject, and the cluster keeps serving
/// full answers.
#[test]
fn malformed_ingest_is_refused_before_the_journal() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(81, 3072)];
    let union = corpus(&streams);
    let single = CloudServer::bind(
        "127.0.0.1:0",
        CloudService::new(SearchConfig::paper(), union.clone().into_shared(), 2),
        ServerConfig::default(),
    )
    .expect("bind single server");
    let cluster = LoopbackCluster::launch(&union, Placement::hash(2), 1).expect("launch cluster");
    let reference = client(&single.local_addr().to_string());
    let c = client(&cluster.addr());
    let before = c.ping().expect("ping");

    let short = Provenance {
        dataset_id: "cluster-fo".into(),
        recording_id: "short".into(),
        channel: "c0".into(),
        offset: 0,
    };
    let refusals = [&reference, &c].map(|cloud| {
        match cloud.ingest(SignalClass::Seizure, short.clone(), vec![1.0; 10]) {
            Err(ClientError::Remote { code, detail }) => (code, detail),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    });
    assert_eq!(refusals[0].0, error_code::BAD_REQUEST);
    assert_eq!(refusals[1], refusals[0], "the tiers refused differently");
    assert_eq!(c.ping().expect("ping"), before, "the refusal was journaled");

    let (work, slices) = c.search(&streams[0][1024..1280]).expect("search");
    assert!(!work.partial, "a refused ingest must not wedge a shard");
    assert!(!slices.is_empty());
    let telemetry = cluster.coordinator().telemetry();
    assert_eq!(telemetry.gauge("cluster_shards_degraded").get(), 0);
    cluster.shutdown();
    single.shutdown();
}

/// The coordinator admits sessions as a `CloudServer` does: the 20 its
/// default cap allows are all served, the 21st is answered `Busy` and
/// closed by the coordinator itself, and no shard is blamed for it.
#[test]
fn coordinator_sheds_sessions_past_its_cap_with_busy() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(83, 3072)];
    let cluster =
        LoopbackCluster::launch(&corpus(&streams), Placement::hash(2), 1).expect("launch cluster");
    let search = Message::SearchBatchRequest {
        seconds: vec![streams[0][1024..1280].to_vec()],
    };
    let held: Vec<TcpStream> = (0..ServerConfig::default().max_sessions)
        .map(|_| {
            let mut conn = TcpStream::connect(cluster.addr()).expect("connect");
            write_frame(&mut conn, &search).expect("send search");
            match read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).expect("reply") {
                Message::SearchBatchResponse { results, .. } => assert!(!results[0].work.partial),
                other => panic!("a session under the cap got {}", other.name()),
            }
            conn
        })
        .collect();

    let mut late = TcpStream::connect(cluster.addr()).expect("connect");
    late.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let reply = read_frame(&mut late, DEFAULT_MAX_PAYLOAD).expect("reply");
    assert_eq!(reply, Message::Busy);
    assert_eq!(late.read(&mut [0u8; 1]).expect("close"), 0);

    let telemetry = cluster.coordinator().telemetry();
    assert_eq!(telemetry.counter("cloud_busy_total").get(), 1);
    assert_eq!(telemetry.gauge("cluster_shards_degraded").get(), 0);
    drop(held);
    cluster.shutdown();
}

/// Upstream sockets are bounded by the coordinator's workers, not by its
/// edges: shards capped at 8 sessions serve 12 concurrent coordinator
/// sessions, each answered bitwise as the single store answers.
#[test]
fn more_edges_than_shard_sessions_are_all_served() {
    let streams: Vec<Vec<f32>> = vec![integer_stream(85, 4096)];
    let union = corpus(&streams);
    let single = CloudServer::bind(
        "127.0.0.1:0",
        CloudService::new(SearchConfig::paper(), union.clone().into_shared(), 2),
        ServerConfig::default(),
    )
    .expect("bind single server");
    let cluster = LoopbackCluster::launch_with(
        &union,
        Placement::hash(2),
        1,
        SearchConfig::paper(),
        ServerConfig {
            max_sessions: 8,
            ..ServerConfig::default()
        },
        CoordinatorConfig {
            upstream: loopback_upstream(),
            ..CoordinatorConfig::default()
        },
        Registry::new(),
    )
    .expect("launch cluster");
    let reference = client(&single.local_addr().to_string());
    // Patient with `Busy`: twelve concurrent searches outnumber the
    // coordinator's search permits, and a shed request retries.
    let edges: Vec<RemoteCloud> = (0..12)
        .map(|_| {
            RemoteCloud::new(
                cluster.addr(),
                RemoteCloudConfig {
                    attempts: 20,
                    ..client_config()
                },
            )
        })
        .collect();
    for edge in &edges {
        edge.ping().expect("open the session");
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = edges
            .iter()
            .enumerate()
            .map(|(i, edge)| {
                let query = &streams[0][(i + 2) * 256..(i + 3) * 256];
                scope.spawn(move || (query, edge.search(query)))
            })
            .collect();
        for handle in handles {
            let (query, got) = handle.join().expect("edge thread");
            let (work, slices) = got.expect("every edge is served");
            assert!(!work.partial);
            assert_eq!(slices, reference.search(query).expect("reference").1);
        }
    });
    cluster.shutdown();
    single.shutdown();
}
