//! The cluster front-end: one TCP server speaking the EMAP wire protocol
//! downstream to edges and upstream to shard servers.
//!
//! An edge cannot tell a [`Coordinator`] from a single
//! [`emap_cloud::CloudServer`]: the same requests go in, and — for every
//! query the whole cluster can cover — the bitwise-identical responses
//! come out. Internally each search multiplexes one upstream leg per
//! shard on a single [`emap_reactor::Poller`] owned by the connection
//! thread (no scoped thread per shard — wide fan-out costs file
//! descriptors, not spawns), falling back per shard to a blocking
//! replica walk over persistent [`RemoteCloud`] connections when a leg
//! fails; per-shard top-K answers are merged into an exact global top-K
//! (same `ω` comparator, same tie order as a single-store sweep, see
//! `DESIGN.md` §14), and ingest is routed to the owning shard's replicas
//! with a journal that re-syncs replicas that were down when the write
//! happened.
//!
//! Failover is replica-order retry: every shard has ≥1 replicas, the
//! coordinator prefers the replica that answered last, and walks the
//! others when it fails (the [`RemoteCloud`] inside already burns its
//! capped-backoff attempts before giving up). Only when *every* replica
//! of a shard is down does the response degrade: surviving shards still
//! answer and the merged result carries the wire's partial-coverage flag
//! ([`SearchWork::partial`]) so edges know the top-K may under-cover.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use emap_cloud::{Delivered, DeltaPlanner, RemoteCloud, RemoteCloudConfig};
use emap_datasets::SignalClass;
use emap_edge::SliceDownload;
use emap_mdb::{Provenance, SetId};
use emap_reactor::{Event, Interest, Poller, Token};
use emap_search::{SearchHit, SearchWork};
use emap_telemetry::{Counter, Gauge, Histogram, MetricValue, Registry};
use emap_wire::{
    error_code, frame_bytes, read_frame, write_frame, BatchHit, BatchSearchResult, BatchSlice,
    FrameAssembler, Message, QuantizedSlice, StatsMetric, StatsValue, WireError,
    DEFAULT_MAX_PAYLOAD, MAX_STATS_METRICS,
};

use crate::Placement;

/// One shard's placement on the network: the addresses of its replicas,
/// all serving the same MDB partition.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// `host:port` of every replica of this shard, in preference order.
    /// At least one entry; two or more for failover.
    pub replicas: Vec<String>,
}

/// Tuning knobs for [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Global top-K size the merged correlation set is truncated to —
    /// must match the shards' search configuration (the paper's 100).
    pub top_k: usize,
    /// Downstream read deadline (mid-frame and per response).
    pub read_timeout: Duration,
    /// Downstream write deadline per response frame.
    pub write_timeout: Duration,
    /// Largest downstream payload accepted.
    pub max_payload: usize,
    /// Client configuration for the upstream shard connections — its
    /// `attempts`/backoff knobs are the per-replica retry budget spent
    /// before the coordinator fails over to the next replica.
    pub upstream: RemoteCloudConfig,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            top_k: 100,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_payload: DEFAULT_MAX_PAYLOAD,
            upstream: RemoteCloudConfig::default(),
        }
    }
}

/// One signal-set accepted by the coordinator but owned by a shard: kept
/// so replicas that were down at ingest time can be replayed the write.
#[derive(Debug)]
struct IngestEntry {
    class: SignalClass,
    provenance: Provenance,
    samples: Vec<f32>,
}

/// Per-shard ID translation and write journal, guarded together: a
/// journal append and its `local→global` map push must be one atomic
/// step or replicas and coordinator would disagree on local IDs.
#[derive(Debug, Default)]
struct ShardTable {
    /// `local_to_global[local.0]` = the union store's ID for that set.
    local_to_global: Vec<SetId>,
    /// Every ingest routed to this shard since boot, in local-ID order.
    journal: Vec<Arc<IngestEntry>>,
}

#[derive(Debug)]
struct Tables {
    /// Signal-sets across the whole cluster — the next global ID.
    total_sets: u64,
    shards: Vec<ShardTable>,
}

/// One replica's mutable identity: where it lives and how much of the
/// shard's journal it has acknowledged.
#[derive(Debug)]
struct ReplicaState {
    addr: Mutex<String>,
    /// Bumped by [`Coordinator::rejoin_replica`]; connection-local
    /// clients rebuild when their cached generation falls behind.
    generation: AtomicU64,
    /// Journal entries this replica has applied, serialized so two
    /// connections never replay the same entry twice.
    synced: Mutex<usize>,
}

/// A shard's runtime state shared by every connection thread.
#[derive(Debug)]
struct ShardRuntime {
    replicas: Vec<ReplicaState>,
    /// Replica index that answered most recently — tried first.
    preferred: AtomicUsize,
    /// Whether the last fan-out reached any replica of this shard.
    up: AtomicBool,
    up_gauge: Gauge,
    /// Latency of this shard's leg of the fan-out (successful calls).
    fanout: Histogram,
}

/// Coordinator-wide instruments (`cluster_*`).
#[derive(Debug)]
struct Metrics {
    requests: Counter,
    partial_responses: Counter,
    failovers: Counter,
    ingests: Counter,
    replica_ingests: Counter,
    shards_degraded: Gauge,
    protocol_errors: Counter,
}

struct Shared {
    config: CoordinatorConfig,
    placement: Placement,
    shards: Vec<ShardRuntime>,
    tables: Mutex<Tables>,
    metrics: Metrics,
    telemetry: Registry,
    shutdown: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// The scatter-gather front-end server. See the module docs.
pub struct Coordinator {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("local_addr", &self.local_addr)
            .field("shards", &self.shared.shards.len())
            .finish_non_exhaustive()
    }
}

impl Coordinator {
    /// Binds `addr` and starts coordinating `shards`.
    ///
    /// `maps[k]` is shard `k`'s local→global ID map as produced by
    /// [`Placement::partition`] over the union store the shards were
    /// loaded from; `placement` must be the same placement, so ingest
    /// routing and the partition agree on ownership.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; rejects mismatched shard counts or a
    /// shard with no replicas as [`io::ErrorKind::InvalidInput`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        shards: Vec<ShardSpec>,
        maps: Vec<Vec<SetId>>,
        placement: Placement,
        config: CoordinatorConfig,
    ) -> io::Result<Self> {
        Coordinator::bind_with_telemetry(addr, shards, maps, placement, config, Registry::new())
    }

    /// [`Coordinator::bind`] with a caller-supplied telemetry
    /// [`Registry`] carrying the `cluster_*` instruments.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; rejects mismatched shard counts or a
    /// shard with no replicas as [`io::ErrorKind::InvalidInput`].
    pub fn bind_with_telemetry(
        addr: impl ToSocketAddrs,
        shards: Vec<ShardSpec>,
        maps: Vec<Vec<SetId>>,
        placement: Placement,
        config: CoordinatorConfig,
        registry: Registry,
    ) -> io::Result<Self> {
        if shards.is_empty() || shards.len() != placement.shards() || shards.len() != maps.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shard specs, maps, and placement must agree on the shard count",
            ));
        }
        if shards.iter().any(|s| s.replicas.is_empty()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "every shard needs at least one replica",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let total_sets = maps.iter().map(|m| m.len() as u64).sum();
        let runtimes = shards
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                let up_gauge = registry.gauge(&format!("cluster_shard_up_{k}"));
                up_gauge.set(1);
                ShardRuntime {
                    replicas: spec
                        .replicas
                        .iter()
                        .map(|a| ReplicaState {
                            addr: Mutex::new(a.clone()),
                            generation: AtomicU64::new(0),
                            synced: Mutex::new(0),
                        })
                        .collect(),
                    preferred: AtomicUsize::new(0),
                    up: AtomicBool::new(true),
                    up_gauge,
                    fanout: registry.histogram(&format!("cluster_fanout_seconds_shard_{k}")),
                }
            })
            .collect();
        let shared = Arc::new(Shared {
            placement,
            shards: runtimes,
            tables: Mutex::new(Tables {
                total_sets,
                shards: maps
                    .into_iter()
                    .map(|m| ShardTable {
                        local_to_global: m,
                        journal: Vec::new(),
                    })
                    .collect(),
            }),
            metrics: Metrics {
                requests: registry.counter("cluster_requests_total"),
                partial_responses: registry.counter("cluster_partial_responses_total"),
                failovers: registry.counter("cluster_failovers_total"),
                ingests: registry.counter("cluster_ingests_total"),
                replica_ingests: registry.counter("cluster_replica_ingests_total"),
                shards_degraded: registry.gauge("cluster_shards_degraded"),
                protocol_errors: registry.counter("cluster_protocol_errors_total"),
            },
            telemetry: registry,
            config,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(Coordinator {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The address the coordinator listens on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry carrying the `cluster_*` instruments.
    #[must_use]
    pub fn telemetry(&self) -> &Registry {
        &self.shared.telemetry
    }

    /// Connection threads the coordinator still holds a handle for.
    #[cfg(test)]
    pub(crate) fn connection_handles(&self) -> usize {
        self.shared
            .conns
            .lock()
            .expect("conn list lock poisoned")
            .len()
    }

    /// Re-registers a restarted replica at `addr`.
    ///
    /// The replica is assumed to have kept its store (same partition plus
    /// every journal entry it had acknowledged before going down); the
    /// coordinator replays only the writes it missed, through the normal
    /// ingest path, before the replica serves its next search. Every
    /// connection's cached client for this slot is invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `shard` or `replica` is out of range.
    pub fn rejoin_replica(&self, shard: usize, replica: usize, addr: impl Into<String>) {
        let state = &self.shared.shards[shard].replicas[replica];
        *state.addr.lock().expect("replica addr lock poisoned") = addr.into();
        state.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Stops accepting, lets in-flight requests finish, joins all
    /// connection threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = {
            let mut conns = self.shared.conns.lock().expect("conn list lock poisoned");
            conns.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How long the acceptor and idle connections sleep between shutdown
/// checks.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((conn, _peer)) => {
                let shared2 = Arc::clone(shared);
                let handle = std::thread::spawn(move || serve_connection(&shared2, conn));
                let mut conns = shared.conns.lock().expect("conn list lock poisoned");
                // Finished threads need no join to be reclaimed; keeping
                // their handles would grow the list with every reconnect.
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL_INTERVAL),
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// [`Read`] adapter that yields one already-read byte before the stream —
/// lets the idle-probe byte rejoin the frame it heads.
struct Prepend<'a, R> {
    first: Option<u8>,
    inner: &'a mut R,
}

impl<R: Read> Read for Prepend<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(b) = self.first.take() {
            if buf.is_empty() {
                self.first = Some(b);
                return Ok(0);
            }
            buf[0] = b;
            return Ok(1);
        }
        self.inner.read(buf)
    }
}

/// One connection's upstream clients: `[shard][replica]`, built lazily
/// and rebuilt when a replica's generation moves (rejoin after restart).
/// `mux` additionally caches one raw nonblocking socket per shard for
/// the multiplexed fan-out fast path (see [`mux_scatter`]).
struct ConnClients {
    slots: Vec<Vec<Option<(u64, RemoteCloud)>>>,
    mux: Vec<Option<MuxCached>>,
}

/// A kept-alive upstream socket for one shard's fan-out leg, valid only
/// while the replica it points at keeps its index and generation.
struct MuxCached {
    replica: usize,
    generation: u64,
    stream: TcpStream,
}

impl ConnClients {
    fn new(shared: &Shared) -> Self {
        ConnClients {
            slots: shared
                .shards
                .iter()
                .map(|s| s.replicas.iter().map(|_| None).collect())
                .collect(),
            mux: shared.shards.iter().map(|_| None).collect(),
        }
    }
}

/// Returns the (possibly rebuilt) client for one replica slot.
fn client_for<'a>(
    shared: &Shared,
    state: &ReplicaState,
    slot: &'a mut Option<(u64, RemoteCloud)>,
) -> &'a RemoteCloud {
    let generation = state.generation.load(Ordering::Acquire);
    if slot.as_ref().map(|(g, _)| *g) != Some(generation) {
        let addr = state
            .addr
            .lock()
            .expect("replica addr lock poisoned")
            .clone();
        *slot = Some((
            generation,
            RemoteCloud::new(addr, shared.config.upstream.clone()),
        ));
    }
    &slot.as_ref().expect("slot just filled").1
}

fn serve_connection(shared: &Shared, mut conn: TcpStream) {
    if conn
        .set_write_timeout(Some(shared.config.write_timeout))
        .is_err()
    {
        return;
    }
    let mut clients = ConnClients::new(shared);
    // Global-ID slices this connection has delivered on the delta path —
    // the same per-connection contract a single CloudServer keeps. The
    // coordinator's union view is append-only (global IDs are never
    // reused), so every delivery is recorded at generation 0.
    let mut delivered = Delivered::new();

    loop {
        // Idle probe: wait for the next request's first byte in short
        // slices so shutdown is honored between requests.
        let first = loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if conn.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
                return;
            }
            let mut byte = [0u8; 1];
            match conn.read(&mut byte) {
                Ok(0) => return, // peer closed
                Ok(_) => break byte[0],
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => return,
            }
        };
        if conn
            .set_read_timeout(Some(shared.config.read_timeout))
            .is_err()
        {
            return;
        }
        let mut reader = Prepend {
            first: Some(first),
            inner: &mut conn,
        };
        let msg = match read_frame(&mut reader, shared.config.max_payload) {
            Ok(msg) => msg,
            Err(e) => {
                shared.metrics.protocol_errors.inc();
                let reply = Message::ErrorReply {
                    code: error_code::BAD_REQUEST,
                    detail: bad_frame_detail(&e),
                };
                let _ = write_frame(&mut conn, &reply);
                return;
            }
        };
        shared.metrics.requests.inc();
        let (reply, shipped, close) = handle_request(shared, &mut clients, &delivered, msg);
        if write_frame(&mut conn, &reply).is_err() {
            return;
        }
        // Only after the frame is on the wire do the shipped slices count
        // as delivered — mirror of the single-server delta contract.
        delivered.record_all(shipped.into_iter().map(|id| (id, 0)));
        if close {
            return;
        }
    }
}

fn bad_frame_detail(e: &WireError) -> String {
    format!("malformed frame: {e}")
}

/// One merged query result: the summed work counters and the global
/// top-K with global set IDs, exactly as a union-store sweep would have
/// ranked it.
struct MergedQuery {
    work: SearchWork,
    slices: Vec<SliceDownload>,
}

/// One shard's answers to a fan-out: per query, its share of the work
/// and its local top-K translated to global IDs.
type ShardAnswers = Vec<(SearchWork, Vec<SliceDownload>)>;

/// Dispatches one decoded request. Returns the reply, the global IDs
/// whose slices the reply ships on the delta path (to fold into the
/// connection's delivered set after the write), and whether to close.
fn handle_request(
    shared: &Shared,
    clients: &mut ConnClients,
    delivered: &Delivered,
    msg: Message,
) -> (Message, Vec<SetId>, bool) {
    match msg {
        Message::Ping => {
            let total = shared
                .tables
                .lock()
                .expect("tables lock poisoned")
                .total_sets;
            (Message::Pong { total_sets: total }, Vec::new(), false)
        }
        Message::HealthRequest => (health_reply(shared, clients), Vec::new(), false),
        Message::StatsRequest => (stats_reply(shared, clients), Vec::new(), false),
        Message::Ingest {
            class,
            provenance,
            samples,
        } => (
            ingest_reply(shared, clients, class, provenance, samples),
            Vec::new(),
            false,
        ),
        Message::SearchBatchRequest { seconds } => {
            let refs: Vec<&[f32]> = seconds.iter().map(Vec::as_slice).collect();
            match scatter(shared, clients, &refs) {
                Some(merged) => (batch_response(merged), Vec::new(), false),
                None => (all_shards_down(), Vec::new(), false),
            }
        }
        Message::SearchBatchDeltaRequest { queries } => {
            let seconds: Vec<&[f32]> = queries.iter().map(|q| q.second.as_slice()).collect();
            match scatter(shared, clients, &seconds) {
                Some(merged) => {
                    let with_tracked: Vec<(MergedQuery, Vec<SetId>)> = merged
                        .into_iter()
                        .zip(queries)
                        .map(|(m, q)| (m, q.tracked))
                        .collect();
                    let (slices, results, shipped) = plan_deltas(delivered, with_tracked);
                    (
                        Message::SearchBatchDeltaResponse { slices, results },
                        shipped,
                        false,
                    )
                }
                None => (all_shards_down(), Vec::new(), false),
            }
        }
        // Server-to-client message types arriving here are a protocol
        // violation; answer once, then close.
        other @ (Message::SearchBatchResponse { .. }
        | Message::SearchBatchDeltaResponse { .. }
        | Message::IngestAck { .. }
        | Message::Pong { .. }
        | Message::Busy
        | Message::ErrorReply { .. }
        | Message::StatsResponse { .. }
        | Message::HealthResponse { .. }) => {
            shared.metrics.protocol_errors.inc();
            (
                Message::ErrorReply {
                    code: error_code::BAD_REQUEST,
                    detail: format!("client sent a server-side message type: {}", other.name()),
                },
                Vec::new(),
                true,
            )
        }
    }
}

fn all_shards_down() -> Message {
    Message::ErrorReply {
        code: error_code::INTERNAL,
        detail: "no shard replica reachable".into(),
    }
}

/// Fans `seconds` out to every shard in parallel and merges per-shard
/// answers into exact global top-K results.
///
/// Returns `None` only when *no* shard answered (zero coverage); with at
/// least one shard up, the merged results carry
/// [`SearchWork::partial`] for the shards that were missing.
fn scatter(
    shared: &Shared,
    clients: &mut ConnClients,
    seconds: &[&[f32]],
) -> Option<Vec<MergedQuery>> {
    if seconds.is_empty() {
        return Some(Vec::new());
    }
    // Fast path: every shard's preferred replica is driven concurrently
    // from this one thread, multiplexed on a single readiness poller —
    // wide fan-out costs file descriptors, not thread spawns. A leg that
    // fails for any reason (connect, write, decode, an incoherent ID) is
    // retried the slow way below.
    let mut per_shard = mux_scatter(shared, clients, seconds);
    // Slow path, per failed shard only: the blocking replica walk, which
    // owns failover (preferred hand-off), journal re-sync of lagging
    // replicas, and the client's capped-backoff retry budget.
    for (k, answers) in per_shard.iter_mut().enumerate() {
        if answers.is_none() {
            *answers = shard_call(shared, k, &mut clients.slots[k], seconds);
        }
    }
    if per_shard.iter().all(Option::is_none) {
        return None;
    }
    let partial = per_shard.iter().any(Option::is_none);
    if partial {
        shared.metrics.partial_responses.inc();
    }
    let mut merged: Vec<MergedQuery> = (0..seconds.len())
        .map(|_| MergedQuery {
            work: SearchWork::default(),
            slices: Vec::new(),
        })
        .collect();
    for answers in per_shard.into_iter().flatten() {
        for (q, (work, mut downloads)) in answers.into_iter().enumerate() {
            merged[q].work.merge(work);
            merged[q].slices.append(&mut downloads);
        }
    }
    for m in &mut merged {
        m.work.partial |= partial;
        // The exact single-store order: descending ω under the same total
        // order `CorrelationSet::from_candidates` sorts with, ties broken
        // by ascending global ID — which is the candidate order a
        // union-store sweep feeds its stable sort (see DESIGN.md §14).
        m.slices.sort_by(|a, b| {
            b.omega
                .total_cmp(&a.omega)
                .then_with(|| a.set_id.0.cmp(&b.set_id.0))
        });
        m.slices.truncate(shared.config.top_k);
    }
    Some(merged)
}

/// One in-flight leg of the multiplexed fan-out: the request bytes still
/// to write, and the frame being reassembled from nonblocking reads.
struct MuxLeg {
    shard: usize,
    stream: TcpStream,
    asm: FrameAssembler,
    out_pos: usize,
    timer: emap_telemetry::Timer,
}

/// What one readiness step did to a leg.
enum LegStep {
    Continue,
    Done(ShardAnswers),
    Failed,
}

/// The fan-out fast path: one `SearchBatchRequest` to every shard's
/// *preferred* replica, all legs multiplexed on a single
/// [`emap_reactor::Poller`] owned by this connection thread — no scoped
/// thread per shard. Each leg is journal-synced first (cheap no-op when
/// the replica is caught up), then written and read nonblockingly with a
/// per-leg [`FrameAssembler`]. Returns per-shard answers; `None` marks a
/// leg the caller must retry via the blocking replica walk.
fn mux_scatter(
    shared: &Shared,
    clients: &mut ConnClients,
    seconds: &[&[f32]],
) -> Vec<Option<ShardAnswers>> {
    let n = shared.shards.len();
    let mut answers: Vec<Option<ShardAnswers>> = (0..n).map(|_| None).collect();
    // Encode once; every leg writes the same bytes. The shard legs use
    // the f32 batch messages: the merge ranks on exact samples, and the
    // coordinator quantizes once, downstream, for its own edge.
    let request = frame_bytes(&Message::SearchBatchRequest {
        seconds: seconds.iter().map(|s| s.to_vec()).collect(),
    });
    let Ok(mut poller) = Poller::new() else {
        return answers;
    };

    let mut legs: Vec<Option<MuxLeg>> = (0..n)
        .map(|k| mux_leg(shared, clients, k, &mut poller))
        .collect();
    let mut open = 0;
    for leg in legs.iter_mut().flatten() {
        // Edge-triggered registration reports an already-writable socket
        // immediately, but eagerly pushing the request here saves that
        // first wakeup on every leg.
        open += 1;
        while leg.out_pos < request.len() {
            match (&leg.stream).write(&request[leg.out_pos..]) {
                Ok(0) => break,
                Ok(wrote) => leg.out_pos += wrote,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    let deadline = std::time::Instant::now() + shared.config.read_timeout;
    let mut events = Vec::new();
    while open > 0 {
        let now = std::time::Instant::now();
        let Some(remaining) = deadline
            .checked_duration_since(now)
            .filter(|d| !d.is_zero())
        else {
            break;
        };
        events.clear();
        if poller.wait(&mut events, Some(remaining)).is_err() {
            break;
        }
        for &ev in &events {
            let k = usize::try_from(ev.token.0).unwrap_or(usize::MAX);
            let Some(leg) = legs.get_mut(k).and_then(Option::as_mut) else {
                continue;
            };
            let step = mux_step(shared, leg, &request, seconds.len(), ev);
            if matches!(step, LegStep::Continue) {
                continue;
            }
            let leg = legs[k].take().expect("leg just stepped");
            open -= 1;
            let _ = poller.deregister(leg.stream.as_raw_fd());
            match step {
                LegStep::Done(got) => {
                    leg.timer.stop();
                    set_shard_up(shared, leg.shard, true);
                    // A drained, frame-aligned socket is good for the
                    // next fan-out; anything else would desynchronize.
                    if leg.asm.pending() == 0 && !leg.asm.is_poisoned() {
                        let rt = &shared.shards[leg.shard];
                        let r = rt.preferred.load(Ordering::Relaxed) % rt.replicas.len();
                        clients.mux[leg.shard] = Some(MuxCached {
                            replica: r,
                            generation: rt.replicas[r].generation.load(Ordering::Acquire),
                            stream: leg.stream,
                        });
                    }
                    answers[leg.shard] = Some(got);
                }
                LegStep::Failed | LegStep::Continue => {
                    leg.timer.discard();
                    // Cached socket (if this was it) is already taken out
                    // of `clients.mux`; dropping the leg closes it.
                }
            }
        }
    }
    // Legs still open at the deadline: fail them over to the slow path.
    for leg in legs.into_iter().flatten() {
        leg.timer.discard();
        let _ = poller.deregister(leg.stream.as_raw_fd());
    }
    answers
}

/// Builds shard `k`'s fan-out leg against its preferred replica: journal
/// re-sync first, then a cached or fresh nonblocking socket registered
/// with the poller. `None` sends the shard straight to the slow path.
fn mux_leg(
    shared: &Shared,
    clients: &mut ConnClients,
    k: usize,
    poller: &mut Poller,
) -> Option<MuxLeg> {
    let rt = &shared.shards[k];
    let r = rt.preferred.load(Ordering::Relaxed) % rt.replicas.len();
    let state = &rt.replicas[r];
    let client = client_for(shared, state, &mut clients.slots[k][r]);
    if !ensure_synced(shared, k, state, client) {
        return None;
    }
    let generation = state.generation.load(Ordering::Acquire);
    let stream = match clients.mux[k].take() {
        Some(c) if c.replica == r && c.generation == generation => c.stream,
        _ => {
            let addr = state
                .addr
                .lock()
                .expect("replica addr lock poisoned")
                .clone();
            let sa = addr.to_socket_addrs().ok()?.next()?;
            TcpStream::connect_timeout(&sa, shared.config.upstream.connect_timeout).ok()?
        }
    };
    stream.set_nonblocking(true).ok()?;
    poller
        .register(stream.as_raw_fd(), Token(k as u64), Interest::BOTH)
        .ok()?;
    Some(MuxLeg {
        shard: k,
        stream,
        asm: FrameAssembler::new(shared.config.upstream.max_payload),
        out_pos: 0,
        timer: rt.fanout.start_timer(),
    })
}

/// Advances one leg on a readiness event: finish writing the request,
/// then read until the response frame assembles. A reply that is not a
/// coherent, translatable batch response fails the leg.
fn mux_step(
    shared: &Shared,
    leg: &mut MuxLeg,
    request: &[u8],
    queries: usize,
    ev: Event,
) -> LegStep {
    if ev.writable {
        while leg.out_pos < request.len() {
            match (&leg.stream).write(&request[leg.out_pos..]) {
                Ok(0) => return LegStep::Failed,
                Ok(wrote) => leg.out_pos += wrote,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return LegStep::Failed,
            }
        }
    }
    if ev.readable || ev.closed {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match (&leg.stream).read(&mut buf) {
                // EOF mid-exchange: a reused socket the server has since
                // closed, or a replica dying — either way the slow path
                // owns the retry.
                Ok(0) => return LegStep::Failed,
                Ok(got) => leg.asm.feed(&buf[..got]),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return LegStep::Failed,
            }
            match leg.asm.next_frame() {
                Ok(None) => {}
                Ok(Some(Message::SearchBatchResponse { slices, results }))
                    if results.len() == queries =>
                {
                    return match translate_answers(shared, leg.shard, &slices, &results) {
                        Some(got) => LegStep::Done(got),
                        None => LegStep::Failed,
                    };
                }
                // Busy, an error reply, a short batch, or garbage: the
                // blocking client's retry/backoff handles all of those.
                Ok(Some(_)) | Err(_) => return LegStep::Failed,
            }
        }
    }
    if ev.closed && !ev.readable {
        return LegStep::Failed;
    }
    LegStep::Continue
}

/// Translates one shard's decoded batch response to global IDs under the
/// tables lock — the wire-level mirror of [`shard_call`]'s coherence
/// check. `None` when the replica reports a local ID the coordinator
/// never placed there (stale wiring: treat the leg as down).
fn translate_answers(
    shared: &Shared,
    k: usize,
    slices: &[BatchSlice],
    results: &[BatchSearchResult],
) -> Option<ShardAnswers> {
    let tables = shared.tables.lock().expect("tables lock poisoned");
    let map = &tables.shards[k].local_to_global;
    let mut out = Vec::with_capacity(results.len());
    for result in results {
        let mut downloads = result.materialize(slices).ok()?;
        for d in &mut downloads {
            d.set_id = *map.get(d.set_id.0 as usize)?;
        }
        out.push((result.work, downloads));
    }
    Some(out)
}

/// One shard's leg of the fan-out: walk the replicas starting at the
/// preferred one, re-sync the journal if the replica is behind, run the
/// batch, translate local IDs to global. `None` when every replica
/// failed.
fn shard_call(
    shared: &Shared,
    k: usize,
    slots: &mut [Option<(u64, RemoteCloud)>],
    seconds: &[&[f32]],
) -> Option<ShardAnswers> {
    let rt = &shared.shards[k];
    let n = rt.replicas.len();
    let start = rt.preferred.load(Ordering::Relaxed) % n;
    for i in 0..n {
        let r = (start + i) % n;
        let client = client_for(shared, &rt.replicas[r], &mut slots[r]);
        if !ensure_synced(shared, k, &rt.replicas[r], client) {
            continue;
        }
        let timer = rt.fanout.start_timer();
        let batch = match client.search_batch(seconds) {
            Ok(batch) => batch,
            Err(_) => {
                timer.discard();
                continue;
            }
        };
        timer.stop();
        if batch.len() != seconds.len() {
            continue;
        }
        let mut out = Vec::with_capacity(batch.len());
        {
            let tables = shared.tables.lock().expect("tables lock poisoned");
            let map = &tables.shards[k].local_to_global;
            let mut coherent = true;
            for q in 0..batch.len() {
                let mut downloads = batch.materialize(q);
                for d in &mut downloads {
                    match map.get(d.set_id.0 as usize) {
                        Some(global) => d.set_id = *global,
                        None => {
                            coherent = false;
                            break;
                        }
                    }
                }
                if !coherent {
                    break;
                }
                out.push((batch.work(q), downloads));
            }
            if !coherent {
                // The replica knows sets the coordinator never placed
                // there — stale cluster wiring. Treat it as down.
                continue;
            }
        }
        if r != start {
            rt.preferred.store(r, Ordering::Relaxed);
            shared.metrics.failovers.inc();
        }
        set_shard_up(shared, k, true);
        return Some(out);
    }
    set_shard_up(shared, k, false);
    None
}

/// Replays journal entries the replica has not acknowledged yet, through
/// the ordinary ingest path. Returns whether the replica is fully caught
/// up (and therefore safe to search).
fn ensure_synced(shared: &Shared, k: usize, state: &ReplicaState, client: &RemoteCloud) -> bool {
    let mut synced = state.synced.lock().expect("replica sync lock poisoned");
    loop {
        let entry = {
            let tables = shared.tables.lock().expect("tables lock poisoned");
            let journal = &tables.shards[k].journal;
            if *synced >= journal.len() {
                return true;
            }
            Arc::clone(&journal[*synced])
        };
        match client.ingest(entry.class, entry.provenance.clone(), entry.samples.clone()) {
            Ok(_) => {
                *synced += 1;
                shared.metrics.replica_ingests.inc();
            }
            Err(_) => return false,
        }
    }
}

fn set_shard_up(shared: &Shared, k: usize, up: bool) {
    let was = shared.shards[k].up.swap(up, Ordering::SeqCst);
    if was != up {
        shared.shards[k].up_gauge.set(i64::from(up));
        if up {
            shared.metrics.shards_degraded.dec();
        } else {
            shared.metrics.shards_degraded.inc();
        }
    }
}

/// Routes one ingest: assigns the next global ID, journals the write
/// under the owning shard, then pushes it to every replica that is
/// reachable (the rest catch up via [`ensure_synced`]).
fn ingest_reply(
    shared: &Shared,
    clients: &mut ConnClients,
    class: SignalClass,
    provenance: Provenance,
    samples: Vec<f32>,
) -> Message {
    let (owner, total) = {
        let mut tables = shared.tables.lock().expect("tables lock poisoned");
        let global = SetId(tables.total_sets);
        let owner = shared.placement.shard_of(global, class);
        tables.total_sets += 1;
        let shard = &mut tables.shards[owner];
        shard.local_to_global.push(global);
        shard.journal.push(Arc::new(IngestEntry {
            class,
            provenance,
            samples,
        }));
        (owner, tables.total_sets)
    };
    shared.metrics.ingests.inc();
    let rt = &shared.shards[owner];
    let mut any = false;
    for (r, state) in rt.replicas.iter().enumerate() {
        let client = client_for(shared, state, &mut clients.slots[owner][r]);
        any |= ensure_synced(shared, owner, state, client);
    }
    set_shard_up(shared, owner, any);
    // Acked even when every replica is down: the write is durable in the
    // journal and replays before the shard serves its next search.
    Message::IngestAck { total_sets: total }
}

/// Builds the downstream batch response: per-frame slice table in
/// first-reference order, hits as table references.
fn batch_response(merged: Vec<MergedQuery>) -> Message {
    let mut index: HashMap<SetId, u32> = HashMap::new();
    let mut slices: Vec<BatchSlice> = Vec::new();
    let mut results = Vec::with_capacity(merged.len());
    for m in merged {
        let hits = m
            .slices
            .into_iter()
            .map(|d| {
                let slot = match index.get(&d.set_id) {
                    Some(&slot) => slot,
                    None => {
                        let slot = slices.len() as u32;
                        index.insert(d.set_id, slot);
                        slices.push(BatchSlice {
                            set_id: d.set_id,
                            class: d.class,
                            samples: d.samples,
                        });
                        slot
                    }
                };
                BatchHit {
                    slice: slot,
                    omega: d.omega,
                    beta: d.beta,
                }
            })
            .collect();
        results.push(BatchSearchResult { work: m.work, hits });
    }
    Message::SearchBatchResponse { slices, results }
}

/// Runs the shared [`DeltaPlanner`] over merged queries — the identical
/// planning a single server does, so a delta edge session sees the same
/// reference/ship decisions it would against one store. Returns the
/// quantized frame table, per-query results, and the shipped global IDs.
fn plan_deltas(
    delivered: &Delivered,
    queries: Vec<(MergedQuery, Vec<SetId>)>,
) -> (
    Vec<QuantizedSlice>,
    Vec<emap_wire::DeltaSearchResult>,
    Vec<SetId>,
) {
    // Append-only union view: every slot is forever at generation 0.
    let generation_of = |_: SetId| 0u64;
    let mut planner = DeltaPlanner::new(delivered, &generation_of);
    let mut slice_info: HashMap<SetId, (SignalClass, Vec<f32>)> = HashMap::new();
    let mut results = Vec::with_capacity(queries.len());
    for (m, tracked) in queries {
        let hits: Vec<SearchHit> = m
            .slices
            .iter()
            .map(|d| SearchHit {
                set_id: d.set_id,
                omega: d.omega,
                beta: d.beta,
            })
            .collect();
        for d in m.slices {
            slice_info.entry(d.set_id).or_insert((d.class, d.samples));
        }
        results.push(planner.plan(&hits, &tracked, m.work));
    }
    let shipped = planner.shipped_ids().to_vec();
    let table = shipped
        .iter()
        .map(|id| {
            let (class, samples) = &slice_info[id];
            QuantizedSlice::quantize(*id, *class, samples)
        })
        .collect();
    (table, results, shipped)
}

/// Aggregated health: cluster-wide store size from the coordinator's
/// authoritative tables, in-flight load summed over reachable shards.
fn health_reply(shared: &Shared, clients: &mut ConnClients) -> Message {
    let (total, ingested) = {
        let tables = shared.tables.lock().expect("tables lock poisoned");
        (tables.total_sets, shared.metrics.ingests.get())
    };
    let mut in_flight = 0;
    for (k, rt) in shared.shards.iter().enumerate() {
        for (r, state) in rt.replicas.iter().enumerate() {
            let client = client_for(shared, state, &mut clients.slots[k][r]);
            if let Ok(h) = client.health() {
                in_flight += h.in_flight;
                break;
            }
        }
    }
    Message::HealthResponse {
        uptime_seconds: shared.telemetry.uptime_seconds(),
        in_flight,
        store_sets: total,
        ingested,
    }
}

/// The coordinator's own `cluster_*` instruments plus each reachable
/// shard's snapshot re-exported under a `shard<k>_` prefix, clipped to
/// the wire cap.
fn stats_reply(shared: &Shared, clients: &mut ConnClients) -> Message {
    let mut metrics: Vec<StatsMetric> = shared
        .telemetry
        .snapshot()
        .into_iter()
        .map(|m| StatsMetric {
            name: m.name,
            value: stats_value(&m.value),
        })
        .collect();
    for (k, rt) in shared.shards.iter().enumerate() {
        for (r, state) in rt.replicas.iter().enumerate() {
            let client = client_for(shared, state, &mut clients.slots[k][r]);
            if let Ok(stats) = client.stats() {
                metrics.extend(stats.metrics.into_iter().map(|m| StatsMetric {
                    name: format!("shard{k}_{}", m.name),
                    value: m.value,
                }));
                break;
            }
        }
    }
    metrics.truncate(MAX_STATS_METRICS);
    Message::StatsResponse {
        uptime_seconds: shared.telemetry.uptime_seconds(),
        metrics,
    }
}

fn stats_value(value: &MetricValue) -> StatsValue {
    match value {
        MetricValue::Counter(v) => StatsValue::Counter(*v),
        MetricValue::Gauge(v) => StatsValue::Gauge(*v),
        MetricValue::Histogram(h) => StatsValue::Summary {
            count: h.count(),
            sum_nanos: h.sum_nanos(),
            p50_nanos: h.p50() as u64,
            p90_nanos: h.p90() as u64,
            p99_nanos: h.p99() as u64,
        },
    }
}
