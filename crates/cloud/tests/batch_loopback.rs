//! Loopback integration tests for the search path: a fleet tick's
//! refreshes travel as [`emap_wire::Message::SearchBatchDeltaRequest`]s
//! (one for the session that first needs the cloud, one late batch for the
//! rest), the server sweeps its store once per request — or for several
//! connections' requests coalesced — and every layer of the stack must
//! stay bitwise decision-equal however queries are grouped: in process,
//! one frame per session over TCP, and batched frames over TCP.

use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

use emap_cloud::{CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
use emap_core::{CloudEndpoint, CloudService, EdgeFleet, EmapError};
use emap_datasets::{RecordingFactory, SignalClass};
use emap_edge::{EdgeConfig, EdgeTracker};
use emap_mdb::{Mdb, MdbBuilder, SetId, SignalSet};
use emap_search::{Query, SearchConfig};
use emap_wire::{
    read_frame, write_frame, DeltaHit, DeltaQuery, DeltaSearchResult, Message, QuantizedSlice,
    DEFAULT_MAX_PAYLOAD,
};

fn seeded_service(workers: usize) -> (CloudService, RecordingFactory) {
    let factory = RecordingFactory::new(77);
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

/// One explicit multi-query exchange on `conn`: every second in one
/// `SearchBatchDeltaRequest` frame, nothing declared tracked. Returns the
/// frame's slice table and one result per second.
fn delta_batch(
    conn: &mut TcpStream,
    seconds: &[&[f32]],
) -> (Vec<QuantizedSlice>, Vec<DeltaSearchResult>) {
    let queries = seconds
        .iter()
        .map(|s| DeltaQuery {
            second: s.to_vec(),
            tracked: vec![],
        })
        .collect();
    write_frame(conn, &Message::SearchBatchDeltaRequest { queries }).expect("write batch");
    match read_frame(conn, DEFAULT_MAX_PAYLOAD).expect("read batch reply") {
        Message::SearchBatchDeltaResponse { slices, results } => {
            assert_eq!(results.len(), seconds.len(), "one result per query");
            (slices, results)
        }
        other => panic!("expected SearchBatchDeltaResponse, got {}", other.name()),
    }
}

/// A result's hits as `(set, ω bits, β)`, in order, each `New` hit
/// resolved through its frame's slice table.
fn hit_keys(slices: &[QuantizedSlice], result: &DeltaSearchResult) -> Vec<(SetId, u64, usize)> {
    result
        .hits
        .iter()
        .map(|hit| match *hit {
            DeltaHit::New { slice, omega, beta } => {
                (slices[usize::from(slice)].set_id, omega.to_bits(), beta)
            }
            DeltaHit::Known {
                set_id,
                omega,
                beta,
            } => (set_id, omega.to_bits(), beta),
        })
        .collect()
}

/// Forces one wire exchange per session: serves a batch as one
/// batch-of-one `refresh` (one single-entry `SearchBatchDeltaRequest`)
/// per session through the remote client.
struct PerQuery<'a>(&'a RemoteCloud);

impl CloudEndpoint for PerQuery<'_> {
    fn refresh_batch(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
    ) -> Vec<Result<(), EmapError>> {
        queries
            .iter()
            .zip(trackers.iter_mut())
            .map(|(query, tracker)| self.0.refresh(query, tracker))
            .collect()
    }
}

/// Three fleets — in-process, one frame per session over TCP, batched
/// frames over TCP — fed the same streams make bit-identical decisions
/// every second, and the batched fleet actually coalesced its refreshes
/// into shared sweeps.
#[test]
fn batched_fleet_is_decision_equal_over_tcp() {
    let (service, factory) = seeded_service(2);
    let server = CloudServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default())
        .expect("bind loopback");
    let client = RemoteCloud::new(
        server.local_addr().to_string(),
        RemoteCloudConfig::default(),
    );

    let streams: Vec<Vec<f32>> = (0..3)
        .map(|i| patient_stream(&factory, &format!("p{i}")))
        .collect();

    let mut local = EdgeFleet::new(2);
    let mut per_query = EdgeFleet::new(2);
    let mut batched = EdgeFleet::new(2);
    for i in 0..streams.len() {
        local.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
        per_query.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
        batched.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
    }

    for second in 4..9 {
        let inputs: Vec<&[f32]> = streams
            .iter()
            .map(|s| &s[second * 256..(second + 1) * 256])
            .collect();
        let tl = local.serve_with(&service, &inputs).expect("local serve");
        let tq = per_query
            .serve_with(&PerQuery(&client), &inputs)
            .expect("per-query serve");
        let tb = batched.serve_with(&client, &inputs).expect("batched serve");
        assert_eq!(tl, tq, "per-query tick diverged at second {second}");
        assert_eq!(tl, tb, "batched tick diverged at second {second}");
        for ((sl, sq), sb) in local
            .sessions()
            .iter()
            .zip(per_query.sessions())
            .zip(batched.sessions())
        {
            assert_eq!(sl.tracker().tracked(), sq.tracker().tracked());
            assert_eq!(sl.tracker().tracked(), sb.tracker().tracked());
        }
    }
    let stats = server.shutdown();
    // Each late batch carried every session found needing the cloud
    // during the overlap in one frame, so searches rode another query's
    // sweep.
    assert!(stats.coalesced >= 2, "no coalescing observed: {stats:?}");
    assert!(stats.sweeps >= 1);
}

/// An explicit batch request answers exactly what per-second searches
/// would: same work counters, same hits (set, ω bits, β), same slices, in
/// query order.
#[test]
fn explicit_batch_equals_per_second_searches() {
    let (service, factory) = seeded_service(2);
    let server =
        CloudServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback");
    let client = RemoteCloud::new(
        server.local_addr().to_string(),
        RemoteCloudConfig::default(),
    );
    let stream = patient_stream(&factory, "p0");
    let seconds: Vec<&[f32]> = (4..8).map(|s| &stream[s * 256..(s + 1) * 256]).collect();

    // One connection, one second a frame: a set ships the first time a
    // hit names it and is a `Known` reference after that.
    let mut shipped: HashMap<SetId, QuantizedSlice> = HashMap::new();
    let singles: Vec<_> = seconds
        .iter()
        .map(|s| {
            let (slices, result) = client.search_delta(s, vec![]).expect("single search");
            let keys = hit_keys(&slices, &result);
            for slice in slices {
                assert!(
                    shipped.insert(slice.set_id, slice).is_none(),
                    "shipped twice"
                );
            }
            (result.work, keys)
        })
        .collect();

    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let (table, results) = delta_batch(&mut conn, &seconds);
    let mut new_hits = 0;
    for (i, ((work, keys), result)) in singles.iter().zip(&results).enumerate() {
        assert_eq!(*work, result.work, "work counters diverged at query {i}");
        assert_eq!(
            *keys,
            hit_keys(&table, result),
            "hits diverged at query {i}"
        );
        new_hits += result
            .hits
            .iter()
            .filter(|h| matches!(h, DeltaHit::New { .. }))
            .count();
    }
    for slice in &table {
        assert_eq!(Some(slice), shipped.get(&slice.set_id), "slices diverged");
    }
    // A fresh connection: every hit is `New`. Consecutive seconds of one
    // patient hit overlapping sets, so the frame carried each distinct
    // slice once, not once per hit.
    assert_eq!(
        new_hits,
        singles.iter().map(|(_, keys)| keys.len()).sum::<usize>()
    );
    assert!(
        table.len() < new_hits,
        "no slice sharing: {} distinct for {new_hits} hits",
        table.len()
    );
    drop(conn);
    server.shutdown();
}

/// Satellite: a saturated server answers [`Message::Busy`], the client
/// treats it as retryable backpressure under its capped backoff, and the
/// request succeeds once capacity frees up — no error ever escapes.
#[test]
fn busy_saturation_is_retryable_backpressure() {
    let (service, factory) = seeded_service(1);
    let config = ServerConfig {
        workers: 1,
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let server = CloudServer::bind("127.0.0.1:0", service, config).expect("bind loopback");
    let addr = server.local_addr();
    let stream = patient_stream(&factory, "p0");

    // Fill both session slots: one connection that stays open (a served
    // ping proves it is registered), then a second that just sits there.
    let mut pin = std::net::TcpStream::connect(addr).expect("pin connect");
    write_frame(&mut pin, &Message::Ping).expect("pin ping");
    assert!(matches!(
        read_frame(&mut pin, DEFAULT_MAX_PAYLOAD).expect("pin pong"),
        Message::Pong { .. }
    ));
    let parked = std::net::TcpStream::connect(addr).expect("parked connect");

    // A single-attempt client now hits the session ceiling's Busy and gives up:
    // saturation surfaces as Unreachable with the busy reason attached.
    let impatient = RemoteCloud::new(
        addr.to_string(),
        RemoteCloudConfig {
            attempts: 1,
            ..RemoteCloudConfig::default()
        },
    );
    match impatient.search_delta(&stream[1024..1280], vec![]) {
        Err(emap_cloud::ClientError::Unreachable { attempts: 1, last }) => {
            assert!(last.contains("busy"), "unexpected reason: {last}");
        }
        other => panic!("expected Unreachable from saturation, got {other:?}"),
    }

    // A patient client keeps backing off while another thread releases
    // the capacity; the same request then succeeds without the caller
    // ever seeing the Busy replies it absorbed.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(80));
        drop(pin);
        drop(parked);
    });
    let patient = RemoteCloud::new(
        addr.to_string(),
        RemoteCloudConfig {
            attempts: 20,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(50),
            ..RemoteCloudConfig::default()
        },
    );
    let (slices, result) = patient
        .search_delta(&stream[1024..1280], vec![])
        .expect("search must succeed after capacity frees");
    assert!(result.work.sets_scanned > 0);
    assert!(!result.hits.is_empty());
    assert!(!slices.is_empty());
    release.join().unwrap();

    let stats = server.shutdown();
    assert!(
        stats.busy_rejections >= 1,
        "saturation never produced a Busy: {stats:?}"
    );
}

/// Concurrent connections sending requests of one, two and three queries
/// to a coalescing server: however the arrivals were grouped into sweeps,
/// every request gets bitwise the in-process `search_batch` reply, and
/// the sweeps account for every search.
#[test]
fn coalesced_replies_match_in_process() {
    let (service, factory) = seeded_service(2);
    let config = ServerConfig {
        workers: 4,
        max_batch: 8,
        ..ServerConfig::default()
    };
    let server = CloudServer::bind("127.0.0.1:0", service.clone(), config).expect("bind loopback");
    let addr = server.local_addr().to_string();

    let streams: Vec<Vec<f32>> = (0..6)
        .map(|i| patient_stream(&factory, &format!("q{i}")))
        .collect();
    std::thread::scope(|scope| {
        for (i, stream) in streams.iter().enumerate() {
            let addr = addr.clone();
            let service = &service;
            scope.spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect");
                let size = i % 3 + 1;
                for round in 0..3 {
                    let seconds: Vec<&[f32]> = (0..size)
                        .map(|q| {
                            let at = 4 + round * size + q;
                            &stream[at * 256..(at + 1) * 256]
                        })
                        .collect();
                    let (table, results) = delta_batch(&mut conn, &seconds);
                    let queries: Vec<Query> = seconds
                        .iter()
                        .map(|s| Query::new(s).expect("window length"))
                        .collect();
                    let expected = service.search_batch(&queries).expect("in-process batch");
                    for (set, result) in expected.iter().zip(&results) {
                        assert_eq!(result.work, set.work(), "work diverged under batching");
                        let want: Vec<_> = set
                            .hits()
                            .iter()
                            .map(|hit| (hit.set_id, hit.omega.to_bits(), hit.beta))
                            .collect();
                        assert_eq!(hit_keys(&table, result), want);
                    }
                }
            });
        }
    });
    let stats = server.shutdown();
    // Two clients each of sizes 1, 2 and 3, three rounds apiece.
    assert_eq!(stats.searches, 2 * (1 + 2 + 3) * 3);
    // Every search ran through the coalescer: sweeps + coalesced always
    // account for all of them, however the timing grouped the arrivals.
    assert_eq!(stats.sweeps + stats.coalesced, stats.searches);
}

/// A request that alone holds `max_batch` queries never waits for
/// company: it is exactly one sweep, by itself.
#[test]
fn a_full_request_is_one_sweep_by_itself() {
    let (service, factory) = seeded_service(2);
    let config = ServerConfig {
        max_batch: 4,
        ..ServerConfig::default()
    };
    let server = CloudServer::bind("127.0.0.1:0", service, config).expect("bind loopback");
    let client = RemoteCloud::new(
        server.local_addr().to_string(),
        RemoteCloudConfig::default(),
    );
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let stream = patient_stream(&factory, "p0");
    let seconds: Vec<&[f32]> = (4..9).map(|s| &stream[s * 256..(s + 1) * 256]).collect();

    // At the cap.
    delta_batch(&mut conn, &seconds[..4]);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.counter("cloud_sweeps_total"), Some(1));
    assert_eq!(stats.counter("cloud_coalesced_total"), Some(3));

    // Above the cap.
    delta_batch(&mut conn, &seconds);
    drop(conn);
    let stats = server.shutdown();
    assert_eq!((stats.sweeps, stats.coalesced), (2, 3 + 4));
    assert_eq!(stats.sweeps + stats.coalesced, stats.searches);
}
