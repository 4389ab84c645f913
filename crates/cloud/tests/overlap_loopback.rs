//! Loopback tests for the overlapped refresh. `EdgeFleet::serve_with`
//! sends the refresh of the first session that needs the cloud, steps the
//! rest while the server searches, and refreshes the sessions found
//! meanwhile in one late batch. Over TCP that must decide bit for bit as
//! the in-process service does, and `RemoteCloud` must keep its fault
//! contract on every path: `meanwhile` runs exactly once, every session is
//! reported, and a failed refresh lands in `degraded`, not in an error.

use std::cell::{Cell, RefCell};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use emap_cloud::{CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
use emap_core::{CloudEndpoint, CloudService, EdgeFleet, EmapError};
use emap_datasets::{RecordingFactory, SignalClass};
use emap_edge::{EdgeConfig, EdgeTracker};
use emap_mdb::{Mdb, MdbBuilder, SetId, SignalSet};
use emap_quality::QualityGate;
use emap_search::{Query, SearchConfig, SearchWork};
use emap_wire::{
    frame_bytes, read_frame, write_frame, DeltaHit, DeltaQuery, DeltaSearchResult, Message,
    DEFAULT_MAX_PAYLOAD,
};

/// 96 whole-count sets (native 16-bit EEG, which the delta refresh
/// quantizes exactly): enough that a tracked normal stream stays above
/// `H` between refreshes while a seizure stream falls below it every
/// second.
fn whole_count_service(factory: &RecordingFactory) -> CloudService {
    let mut builder = MdbBuilder::new();
    for i in 0..4 {
        builder
            .add_recording("d", &factory.normal_recording(&format!("n{i}"), 48.0))
            .unwrap();
        builder
            .add_recording(
                "d",
                &factory.anomaly_recording(SignalClass::Seizure, &format!("s{i}"), 48.0),
            )
            .unwrap();
    }
    let mdb = builder.build();
    let sets = mdb
        .iter()
        .map(|s| {
            SignalSet::new(
                s.samples().iter().map(|v| v.round()).collect(),
                s.class(),
                s.provenance().clone(),
            )
            .expect("slice length is preserved")
        })
        .collect();
    CloudService::new(SearchConfig::paper(), Mdb::from_sets(sets).into_shared(), 2)
}

fn filtered(samples: &[f32]) -> Vec<f32> {
    emap_dsp::emap_bandpass().filter(samples)
}

/// Two attempts per request, `backoff` (±25 %) before the second.
fn client_for(addr: &str, backoff: Duration) -> RemoteCloud {
    RemoteCloud::new(
        addr,
        RemoteCloudConfig {
            connect_timeout: Duration::from_millis(200),
            attempts: 2,
            backoff_base: backoff,
            backoff_cap: backoff,
            ..RemoteCloudConfig::default()
        },
    )
}

const QUICK: Duration = Duration::from_millis(2);
const SLOW: Duration = Duration::from_millis(100);

fn bytes_in(server: &CloudServer) -> u64 {
    server.telemetry().counter("cloud_bytes_in_total").get()
}

/// Forwards refreshes to a remote client, noting each call's seconds and
/// whether it was the overlapped one, counting the runs of `meanwhile` and
/// timing what the client did after it.
/// With a `server`, `meanwhile` first waits until the server has counted
/// the whole request frame in `cloud_bytes_in_total`: the client runs
/// `meanwhile` on its own thread, so that happens only if the request was
/// written before `meanwhile` began.
struct Probe<'a> {
    client: &'a RemoteCloud,
    server: Option<&'a CloudServer>,
    calls: RefCell<Vec<(bool, Vec<Vec<f32>>)>>,
    meanwhile_runs: Cell<usize>,
    /// From the end of the last `meanwhile` to the return of its call.
    after_meanwhile: Cell<Duration>,
}

impl<'a> Probe<'a> {
    fn new(client: &'a RemoteCloud, server: Option<&'a CloudServer>) -> Self {
        Probe {
            client,
            server,
            calls: RefCell::default(),
            meanwhile_runs: Cell::new(0),
            after_meanwhile: Cell::new(Duration::ZERO),
        }
    }

    fn note(&self, overlapped: bool, queries: &[Query]) {
        let seconds = queries.iter().map(|q| q.samples().to_vec()).collect();
        self.calls.borrow_mut().push((overlapped, seconds));
    }

    /// Takes the calls so far, each second named by the session it fed.
    fn take_calls(&self, inputs: &[&[f32]]) -> Vec<(bool, Vec<usize>)> {
        let session = |second: &Vec<f32>| {
            inputs
                .iter()
                .position(|input| input == second)
                .expect("every query is one session's second")
        };
        self.calls
            .take()
            .iter()
            .map(|(overlapped, seconds)| (*overlapped, seconds.iter().map(session).collect()))
            .collect()
    }
}

impl CloudEndpoint for Probe<'_> {
    fn refresh_batch(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
    ) -> Vec<Result<(), EmapError>> {
        self.note(false, queries);
        self.client.refresh_batch(queries, trackers)
    }

    fn refresh_batch_overlapped(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
        meanwhile: &mut dyn FnMut(),
    ) -> Vec<Result<(), EmapError>> {
        self.note(true, queries);
        let request = Message::SearchBatchDeltaRequest {
            queries: queries
                .iter()
                .zip(trackers.iter())
                .map(|(q, t)| DeltaQuery {
                    second: q.samples().to_vec(),
                    tracked: t.tracked_ids(),
                })
                .collect(),
        };
        let counted = self
            .server
            .map(|s| bytes_in(s) + frame_bytes(&request).len() as u64);
        let ended = Cell::new(None);
        let outcomes = self
            .client
            .refresh_batch_overlapped(queries, trackers, &mut || {
                if let (Some(server), Some(counted)) = (self.server, counted) {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while bytes_in(server) < counted {
                        assert!(
                            Instant::now() < deadline,
                            "the request was not on the wire when meanwhile began"
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                self.meanwhile_runs.set(self.meanwhile_runs.get() + 1);
                meanwhile();
                ended.set(Some(Instant::now()));
            });
        self.after_meanwhile
            .set(ended.get().map_or(Duration::ZERO, |t| t.elapsed()));
        outcomes
    }
}

/// The tentpole guarantee over real sockets. A gated four-session fleet
/// whose frequent caller is session 3 is served once in process and once
/// through the overlapped remote client. Every tick and every tracker must
/// be equal, and the script exercises each part of the overlap: the
/// all-empty first load, ticks where a second session is found needing
/// the cloud during `meanwhile` (one of them session 0, which index order
/// would have sent first), and gate-masked sessions.
#[test]
fn overlapped_fleet_is_decision_equal_to_in_process() {
    let factory = RecordingFactory::new(77);
    let service = whole_count_service(&factory);
    let server = CloudServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default())
        .expect("bind loopback");
    let client = client_for(&server.local_addr().to_string(), QUICK);
    let probe = Probe::new(&client, Some(&server));

    let streams: Vec<Vec<f32>> = vec![
        filtered(factory.normal_recording("p0", 24.0).channels()[0].samples()),
        filtered(factory.normal_recording("p1", 24.0).channels()[0].samples()),
        filtered(
            factory
                .anomaly_recording(SignalClass::Encephalopathy, "p2", 24.0)
                .channels()[0]
                .samples(),
        ),
        filtered(
            factory
                .anomaly_recording(SignalClass::Seizure, "p3", 24.0)
                .channels()[0]
                .samples(),
        ),
    ];
    // Session 0 jumps to another patient's seizure for one second, which
    // sends it to the cloud beside session 3.
    let jump = filtered(
        factory
            .anomaly_recording(SignalClass::Seizure, "jump", 24.0)
            .channels()[0]
            .samples(),
    );
    let railed: Vec<f32> = (0..256)
        .map(|i| if (i / 64) % 2 == 0 { 500.0 } else { -500.0 })
        .collect();

    let mut local = EdgeFleet::new(2).with_quality_gate(QualityGate::default());
    for i in 0..streams.len() {
        local.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
    }
    let mut remote = local.clone();

    let mut needs = [0usize; 4];
    let mut masked = 0;
    let mut late_finds = 0;
    let mut session0_sent_late = false;
    for second in 2..14 {
        let mut inputs: Vec<&[f32]> = streams
            .iter()
            .map(|s| &s[second * 256..(second + 1) * 256])
            .collect();
        if second == 10 {
            inputs[0] = &jump[second * 256..(second + 1) * 256];
        }
        if second % 4 == 3 {
            inputs[1] = &railed;
        }
        let tl = local.serve_with(&service, &inputs).expect("local serve");
        let tr = remote.serve_with(&probe, &inputs).expect("remote serve");
        assert_eq!(tl.reports, tr.reports, "reports at second {second}");
        assert_eq!(tl.refreshed, tr.refreshed, "refreshed at second {second}");
        assert_eq!(tl.degraded, tr.degraded, "degraded at second {second}");
        assert_eq!(tl.artifacts, tr.artifacts, "artifacts at second {second}");
        for (i, (sl, sr)) in local.sessions().iter().zip(remote.sessions()).enumerate() {
            assert_eq!(
                sl.tracker().save_state(),
                sr.tracker().save_state(),
                "session {i}'s tracker at second {second}"
            );
        }
        assert!(tr.degraded.is_empty(), "the cloud is reachable");

        let needing = tr.needing_cloud();
        for &i in &needing {
            needs[i] += 1;
        }
        masked += tr.artifacts.len();
        let calls = probe.take_calls(&inputs);
        if second == 2 {
            // The first load: every tracker is empty, ties go by index.
            assert_eq!(needing, vec![0, 1, 2, 3]);
            assert_eq!(calls, vec![(true, vec![0]), (false, vec![1, 2, 3])]);
        }
        if let Some((true, first)) = calls.first() {
            assert_eq!(first.len(), 1, "the overlapped refresh carries one session");
        }
        if needing.len() >= 2 && calls.len() == 2 {
            late_finds += 1;
            session0_sent_late |= calls[1].1.contains(&0);
        }
    }
    let overlapped = probe.meanwhile_runs.get();
    drop(probe);
    server.shutdown();

    let frequent = (0..4).max_by_key(|&i| (needs[i], std::cmp::Reverse(i)));
    assert_eq!(frequent, Some(3), "needs per session: {needs:?}");
    assert!(late_finds >= 3, "late batches: {late_finds}");
    assert!(
        session0_sent_late,
        "session 0 never waited behind session 3"
    );
    assert!(masked >= 3, "gate-masked sessions: {masked}");
    assert_eq!(overlapped, 12, "one overlapped refresh a tick");
}

/// Serves one tick of three empty sessions through `client` and checks the
/// fault contract: one overlapped refresh whose `meanwhile` ran exactly
/// once, every session reported, and every session degraded. Returns how
/// long the overlapped refresh went on after its `meanwhile`.
fn assert_degrades(fleet: &mut EdgeFleet, client: &RemoteCloud, inputs: &[&[f32]]) -> Duration {
    let probe = Probe::new(client, None);
    let tick = fleet
        .serve_with(&probe, inputs)
        .expect("a failed refresh is not an error");
    let calls = probe.take_calls(inputs);
    assert_eq!(calls, vec![(true, vec![0]), (false, vec![1, 2])]);
    assert_eq!(probe.meanwhile_runs.get(), 1);
    assert_eq!(tick.reports.len(), 3);
    assert!(tick.refreshed.is_empty());
    assert_eq!(tick.degraded, vec![0, 1, 2]);
    probe.after_meanwhile.get()
}

fn empty_fleet() -> EdgeFleet {
    let mut fleet = EdgeFleet::new(2);
    for i in 0..3 {
        fleet.add_session(format!("p{i}"), EdgeTracker::new(EdgeConfig::default()));
    }
    fleet
}

fn three_seconds(factory: &RecordingFactory) -> Vec<Vec<f32>> {
    (0..3)
        .map(|i| {
            let stream =
                filtered(factory.normal_recording(&format!("p{i}"), 8.0).channels()[0].samples());
            stream[1024..1280].to_vec()
        })
        .collect()
}

/// A stand-in server on loopback that answers every request frame with
/// `reply(request)`, one connection at a time.
struct FakeServer {
    addr: String,
    stopping: Arc<AtomicBool>,
    thread: JoinHandle<usize>,
}

impl FakeServer {
    fn start(reply: impl Fn(&Message) -> Message + Send + 'static) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound").to_string();
        let stopping = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&stopping);
        let thread = std::thread::spawn(move || {
            let mut frames = 0;
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let mut conn = conn.expect("accept");
                while let Ok(request) = read_frame(&mut conn, DEFAULT_MAX_PAYLOAD) {
                    frames += 1;
                    if write_frame(&mut conn, &reply(&request)).is_err() {
                        break;
                    }
                }
            }
            frames
        });
        FakeServer {
            addr,
            stopping,
            thread,
        }
    }

    /// Stops the server once its client has hung up, and returns the
    /// number of request frames it read.
    fn stop(self) -> usize {
        self.stopping.store(true, Ordering::SeqCst);
        // Wake the accept loop so it sees the flag.
        drop(TcpStream::connect(&self.addr));
        self.thread.join().expect("fake server panicked")
    }
}

#[test]
fn connect_refused_degrades_after_meanwhile() {
    let factory = RecordingFactory::new(5);
    let seconds = three_seconds(&factory);
    let inputs: Vec<&[f32]> = seconds.iter().map(Vec::as_slice).collect();
    // A port that was just bound and released: nothing listens there.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind loopback")
        .to_string();
    // The second attempt, and the backoff before it, come after
    // `meanwhile`.
    let after = assert_degrades(&mut empty_fleet(), &client_for(&addr, SLOW), &inputs);
    assert!(after >= SLOW.mul_f64(0.75), "{after:?}");
}

#[test]
fn server_shut_down_between_ticks_degrades_after_meanwhile() {
    let factory = RecordingFactory::new(77);
    let service = whole_count_service(&factory);
    let server =
        CloudServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback");
    let client = client_for(&server.local_addr().to_string(), QUICK);
    let seconds = three_seconds(&factory);
    let inputs: Vec<&[f32]> = seconds.iter().map(Vec::as_slice).collect();

    let mut fleet = empty_fleet();
    let tick = fleet.serve_with(&client, &inputs).expect("healthy serve");
    assert_eq!(tick.refreshed, vec![0, 1, 2]);
    server.shutdown();

    // Empty the trackers again so every session needs the dead cloud; the
    // client still holds the connection the server just closed.
    for i in 0..3 {
        *fleet.session_mut(i).expect("session").tracker_mut() =
            EdgeTracker::new(EdgeConfig::default());
    }
    assert_degrades(&mut fleet, &client, &inputs);
}

#[test]
fn busy_replies_degrade_after_meanwhile() {
    let factory = RecordingFactory::new(5);
    let seconds = three_seconds(&factory);
    let inputs: Vec<&[f32]> = seconds.iter().map(Vec::as_slice).collect();
    let server = FakeServer::start(|_| Message::Busy);
    let after = assert_degrades(&mut empty_fleet(), &client_for(&server.addr, SLOW), &inputs);
    assert!(after >= SLOW.mul_f64(0.75), "{after:?}");
    // Two attempts for the overlapped refresh, two for the late batch.
    assert_eq!(server.stop(), 4);
}

#[test]
fn a_forced_cache_miss_degrades_after_meanwhile() {
    let factory = RecordingFactory::new(5);
    let seconds = three_seconds(&factory);
    let inputs: Vec<&[f32]> = seconds.iter().map(Vec::as_slice).collect();
    // Every answer names a set this connection never delivered and no
    // tracker holds, so the client cannot resolve it.
    let server = FakeServer::start(|request| match request {
        Message::SearchBatchDeltaRequest { queries } => Message::SearchBatchDeltaResponse {
            slices: Vec::new(),
            results: queries
                .iter()
                .map(|_| DeltaSearchResult {
                    work: SearchWork::default(),
                    hits: vec![DeltaHit::Known {
                        set_id: SetId(7_777),
                        omega: 0.9,
                        beta: 0,
                    }],
                    evicted: Vec::new(),
                })
                .collect(),
        },
        other => panic!("unexpected request {other:?}"),
    });
    assert_degrades(
        &mut empty_fleet(),
        &client_for(&server.addr, QUICK),
        &inputs,
    );
    // Each refresh: the miss, then one reconnect-and-declare-nothing retry.
    assert_eq!(server.stop(), 4);
}

/// An empty batch sends nothing, and `meanwhile` still runs once.
#[test]
fn the_remote_client_runs_meanwhile_once_on_an_empty_batch() {
    let server = FakeServer::start(|_| Message::Busy);
    let runs = Cell::new(0);
    let outcomes =
        client_for(&server.addr, QUICK)
            .refresh_batch_overlapped(&[], &mut [], &mut || runs.set(runs.get() + 1));
    assert!(outcomes.is_empty());
    assert_eq!(runs.get(), 1);
    assert_eq!(server.stop(), 0);
}
