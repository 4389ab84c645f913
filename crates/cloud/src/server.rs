//! The cloud-side TCP endpoint: framed EMAP requests over persistent,
//! pipelined connections, served by the reactor in [`crate::reactor`].
//!
//! The server fronts one store — every decision (search, ingest) is
//! delegated to it, so a remote client sees exactly the answers the
//! store gives. The transport layer adds only what a network needs:
//! deadlines, backpressure, request validation and a graceful way down.
//! This module holds what the reactor's workers call — admission, the
//! reply builders, the counters — and the store, a [`CloudService`]
//! behind the coalescer its searches pass through.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use emap_core::{CloudService, IngestOutcome};
use emap_datasets::SignalClass;
use emap_mdb::{LiveInsert, SetId, SignalSet};
use emap_search::{CorrelationSet, Query, SearchError};
use emap_telemetry::{Counter, Gauge, Histogram, MetricValue, Registry};
use emap_wire::{
    error_code, DeltaHit, DeltaQuery, DeltaSearchResult, Message, QuantizedSlice, StatsMetric,
    StatsValue, DEFAULT_MAX_PAYLOAD, MAX_STATS_METRICS,
};

use crate::delta::{Delivered, DeltaPlanner};

/// The only core; field kept until `benchmark/` is next re-baselined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerCore {
    /// One event-loop thread over epoll plus a compute worker pool.
    #[default]
    Reactor,
}

/// Tuning knobs for [`CloudServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The only core; field kept until `benchmark/` is next re-baselined.
    pub core: ServerCore,
    /// Worker threads running the compute of dispatched requests.
    pub workers: usize,
    /// Most connections held open at once; arrivals beyond this are
    /// answered [`Message::Busy`] and closed. An idle session costs a
    /// slab slot, not a thread, so this can be set in the thousands.
    pub max_sessions: usize,
    /// How long a connection may sit with no frame in progress before
    /// it is evicted.
    pub idle_timeout: Duration,
    /// Searches allowed in flight across all connections; requests beyond
    /// this get [`Message::Busy`] instead of queueing unboundedly.
    pub max_inflight_searches: usize,
    /// Deadline for reading the remainder of a frame once its first byte
    /// arrived, and for any mid-stream read.
    pub read_timeout: Duration,
    /// Deadline for writing a response frame.
    pub write_timeout: Duration,
    /// Largest payload accepted from a client (see
    /// [`emap_wire::DEFAULT_MAX_PAYLOAD`]).
    pub max_payload: usize,
    /// Most *queries* coalesced into one shared sweep: search requests
    /// from different connections queue while their query counts sum to
    /// at most this, and one worker sweeps the store once for all of
    /// them. `1` (or `0`) disables coalescing, and a request that alone
    /// holds this many queries is never queued — either way the request
    /// gets its own store walk. Replies are bitwise identical however
    /// requests are grouped; only the number of passes over the cached
    /// statistics changes.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            core: ServerCore::Reactor,
            workers: 4,
            max_sessions: 20,
            idle_timeout: Duration::from_secs(60),
            max_inflight_searches: 8,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_payload: DEFAULT_MAX_PAYLOAD,
            max_batch: 8,
        }
    }
}

/// Monotonic counters the server maintains; cheap to read at any time via
/// [`CloudServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered with a non-error reply.
    pub served: u64,
    /// Searches executed.
    pub searches: u64,
    /// Requests rejected with [`Message::Busy`] (either no session slot
    /// or no search permit).
    pub busy_rejections: u64,
    /// Signal-sets ingested.
    pub ingested: u64,
    /// Malformed frames or client-illegal messages.
    pub protocol_errors: u64,
    /// Shared sweeps executed — one per [`CloudService::search_batch`]
    /// call the server made, whether for one request or a coalesced
    /// group of them.
    pub sweeps: u64,
    /// Searches that shared a sweep with at least one other query
    /// (`batch size − 1`, summed over all sweeps). Zero means every
    /// search walked the store alone.
    pub coalesced: u64,
}

/// The request kinds a client may legally send, indexing the per-type
/// telemetry in [`Counters::requests`].
#[derive(Debug, Clone, Copy)]
enum RequestKind {
    Search,
    Ingest,
    Ping,
    Stats,
    Health,
}

/// Metric-name suffixes, indexed by [`RequestKind`].
const REQUEST_KIND_NAMES: [&str; 5] = ["search", "ingest", "ping", "stats", "health"];

/// Per-request-kind telemetry: arrivals and handling latency.
#[derive(Debug)]
pub(crate) struct RequestMetrics {
    count: Counter,
    latency: Histogram,
}

impl RequestMetrics {
    /// Records one arrival and returns the scoped latency timer for it.
    pub(crate) fn observe(&self) -> emap_telemetry::Timer {
        self.count.inc();
        self.latency.start_timer()
    }
}

/// Registry-backed counter handles, looked up once at bind time so the
/// hot path touches only the handles' atomics, never the registry's map
/// lock. [`CloudServer::stats`] reads the same cells back, so the
/// [`ServerStats`] figures and the wire-exposed telemetry snapshot can
/// never disagree.
#[derive(Debug)]
pub(crate) struct Counters {
    pub(crate) connections: Counter,
    served: Counter,
    searches: Counter,
    pub(crate) busy_rejections: Counter,
    ingested: Counter,
    pub(crate) protocol_errors: Counter,
    sweeps: Counter,
    coalesced: Counter,
    pub(crate) bytes_in: Counter,
    pub(crate) bytes_out: Counter,
    pub(crate) bytes_out_search: Counter,
    pub(crate) bytes_out_slice: Counter,
    delta_retained: Counter,
    delta_shipped: Counter,
    delta_evicted: Counter,
    requests: [RequestMetrics; REQUEST_KIND_NAMES.len()],
}

impl Counters {
    fn register(registry: &Registry) -> Self {
        Counters {
            connections: registry.counter("cloud_connections_total"),
            served: registry.counter("cloud_served_total"),
            searches: registry.counter("cloud_searches_total"),
            busy_rejections: registry.counter("cloud_busy_total"),
            ingested: registry.counter("cloud_ingested_total"),
            protocol_errors: registry.counter("cloud_protocol_errors_total"),
            sweeps: registry.counter("cloud_sweeps_total"),
            coalesced: registry.counter("cloud_coalesced_total"),
            bytes_in: registry.counter("cloud_bytes_in_total"),
            bytes_out: registry.counter("cloud_bytes_out_total"),
            bytes_out_search: registry.counter("cloud_bytes_out_search"),
            bytes_out_slice: registry.counter("cloud_bytes_out_slice"),
            delta_retained: registry.counter("wire_delta_retained_total"),
            delta_shipped: registry.counter("wire_delta_shipped_total"),
            delta_evicted: registry.counter("wire_delta_evicted_total"),
            requests: std::array::from_fn(|i| RequestMetrics {
                count: registry.counter(&format!("cloud_request_{}_total", REQUEST_KIND_NAMES[i])),
                latency: registry
                    .histogram(&format!("cloud_request_{}_nanos", REQUEST_KIND_NAMES[i])),
            }),
        }
    }

    /// The per-kind telemetry for a client request, or `None` for message
    /// types a client may not send.
    pub(crate) fn request(&self, msg: &Message) -> Option<&RequestMetrics> {
        let kind = match msg {
            Message::SearchBatchDeltaRequest { .. } => RequestKind::Search,
            Message::Ingest { .. } => RequestKind::Ingest,
            Message::Ping => RequestKind::Ping,
            Message::StatsRequest => RequestKind::Stats,
            Message::HealthRequest => RequestKind::Health,
            _ => return None,
        };
        Some(&self.requests[kind as usize])
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.get(),
            served: self.served.get(),
            searches: self.searches.get(),
            busy_rejections: self.busy_rejections.get(),
            ingested: self.ingested.get(),
            protocol_errors: self.protocol_errors.get(),
            sweeps: self.sweeps.get(),
            coalesced: self.coalesced.get(),
        }
    }
}

/// A counting permit for globally bounded in-flight searches. The gauge
/// mirrors `inflight` into the telemetry registry.
pub(crate) struct Permits {
    inflight: AtomicUsize,
    max: usize,
    gauge: Gauge,
}

impl Permits {
    fn try_acquire(self: &Arc<Self>) -> Option<PermitGuard> {
        self.inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.max).then_some(n + 1)
            })
            .ok()
            .map(|_| {
                self.gauge.inc();
                PermitGuard(Arc::clone(self))
            })
    }
}

pub(crate) struct PermitGuard(Arc<Permits>);

impl Drop for PermitGuard {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::AcqRel);
        self.0.gauge.dec();
    }
}

/// What one sweep returns: one correlation set per query, in order.
type SweepResult = Result<Vec<CorrelationSet>, SearchError>;

/// One search request parked in the coalescer: its queries plus the
/// channel its share of the sweep travels back on.
type PendingRequest = (Vec<Query>, std::sync::mpsc::Sender<SweepResult>);

#[derive(Default)]
struct BatchState {
    pending: VecDeque<PendingRequest>,
    sweeping: bool,
}

/// The queue every store search passes through. Group-commit style:
/// the first worker to find the queue unattended elects itself leader,
/// drains queued requests from the front while their query counts sum to
/// at most `max_batch`, runs them as one shared sweep, and hands each
/// waiter its share; workers arriving mid-sweep enqueue and wait, so
/// their requests ride the *next* sweep together.
struct Coalescer {
    state: Mutex<BatchState>,
    wake: Condvar,
    max_batch: usize,
    /// The `cloud_sweeps_total` / `cloud_coalesced_total` cells
    /// [`ServerStats`] reads back.
    sweeps: Counter,
    coalesced: Counter,
}

/// The store: a [`CloudService`] behind the [`Coalescer`], with
/// the live-ingest lifecycle counters.
struct Store {
    service: CloudService,
    coalescer: Coalescer,
    /// Slices stored (appended or replacing), in-place evictions
    /// performed, and gate rejections.
    ingest_accepted: Counter,
    ingest_evicted: Counter,
    ingest_rejected: Counter,
    /// Quality-gate verdicts on the ingest path (only moves when the
    /// service has a gate configured).
    quality_clean: Counter,
    quality_artifact: Counter,
}

impl Store {
    fn new(service: CloudService, max_batch: usize, registry: &Registry) -> Self {
        Store {
            service: service.with_telemetry(registry),
            coalescer: Coalescer {
                state: Mutex::default(),
                wake: Condvar::new(),
                max_batch,
                sweeps: registry.counter("cloud_sweeps_total"),
                coalesced: registry.counter("cloud_coalesced_total"),
            },
            ingest_accepted: registry.counter("ingest_accepted_total"),
            ingest_evicted: registry.counter("ingest_evicted_total"),
            ingest_rejected: registry.counter("ingest_rejected_total"),
            quality_clean: registry.counter("quality_clean_total"),
            quality_artifact: registry.counter("quality_artifact_total"),
        }
    }

    /// Searches `queries` through the coalescer and calls `assemble` once
    /// with one [`CorrelationSet`] per query, in order, plus a slice
    /// lookup valid for that call: per hit, the set's `(class, samples,
    /// slot generation)`.
    ///
    /// # Errors
    ///
    /// The error reply the request earns instead; `assemble` is not
    /// called.
    #[allow(clippy::type_complexity)]
    fn search(
        &self,
        queries: Vec<Query>,
        assemble: &mut dyn for<'s> FnMut(
            &[CorrelationSet],
            &dyn Fn(SetId) -> Option<(SignalClass, &'s [f32], u64)>,
        ),
    ) -> Result<(), Message> {
        let sets = self
            .coalescer
            .search(queries, |queries| self.service.search_batch(queries))
            .map_err(|e| error_reply(error_code::INTERNAL, &e))?;
        // The reply is built under one store read: one snapshot, so a
        // set_id maps to the same samples for every query in the frame.
        self.service.mdb().with_read(|mdb| {
            assemble(&sets, &|id| {
                let set = mdb.get(id)?;
                Some((set.class(), set.samples(), mdb.slot_generation(id)?))
            });
        });
        Ok(())
    }

    /// Stores one already-validated set and returns the number of sets
    /// served after it.
    ///
    /// # Errors
    ///
    /// The error reply the ingest earns instead (a gate rejection).
    fn ingest(&self, set: SignalSet) -> Result<u64, Message> {
        match self.service.ingest_live(set) {
            IngestOutcome::Stored(landed) => {
                self.ingest_accepted.inc();
                if self.service.ingest_policy().gate.is_some() {
                    self.quality_clean.inc();
                }
                if matches!(landed, LiveInsert::Replaced { .. }) {
                    self.ingest_evicted.inc();
                }
                Ok(self.total_sets())
            }
            IngestOutcome::Rejected(kind) => {
                self.ingest_rejected.inc();
                self.quality_artifact.inc();
                Err(Message::ErrorReply {
                    code: error_code::REJECTED_ARTIFACT,
                    detail: format!("quality gate rejected slice: {} artifact", kind.label()),
                })
            }
        }
    }

    /// The number of signal-sets served.
    fn total_sets(&self) -> u64 {
        self.service.mdb().len() as u64
    }
}

/// Everything the reactor loop and its workers share.
pub(crate) struct Shared {
    store: Store,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    permits: Arc<Permits>,
    pub(crate) counters: Counters,
    pub(crate) telemetry: Registry,
}

impl Shared {
    fn new(service: CloudService, config: ServerConfig, registry: Registry) -> Self {
        Shared {
            store: Store::new(service, config.max_batch, &registry),
            permits: Arc::new(Permits {
                inflight: AtomicUsize::new(0),
                max: config.max_inflight_searches.max(1),
                gauge: registry.gauge("cloud_inflight"),
            }),
            config,
            shutdown: AtomicBool::new(false),
            counters: Counters::register(&registry),
            telemetry: registry,
        }
    }
}

/// A TCP server exposing a [`CloudService`] over the [`emap_wire`]
/// protocol.
///
/// One event-loop thread multiplexes every connection nonblockingly —
/// frame reassembly, response flushing, and idle/read/write deadlines
/// all happen on the loop — and a fixed worker pool runs only the
/// compute of dispatched requests, answering pipelined requests in
/// order. Past [`ServerConfig::max_sessions`] connections, or with every
/// search permit taken, the server answers [`Message::Busy`] — clients
/// treat that as a retryable condition, so overload degrades into
/// backoff instead of unbounded queueing. See `DESIGN.md` §11.
///
/// [`CloudServer::shutdown`] stops accepting, lets every in-flight
/// request finish and flush, then joins all threads. Search requests
/// from different connections — one query or several — that land in
/// the same scheduling window are **coalesced**:
/// they queue briefly, one worker sweeps the store once for up to
/// [`ServerConfig::max_batch`] queries' worth of them, and each
/// connection gets exactly the reply it would have gotten alone (the
/// engine's batched sweep is bitwise identical to per-query search). A
/// request that alone fills a sweep is served directly.
pub struct CloudServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    reactor: crate::reactor::ReactorHandle,
}

impl std::fmt::Debug for CloudServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl CloudServer {
    /// Binds `addr` and starts serving `service` in background threads.
    ///
    /// Bind to port 0 to let the OS pick a free port; read it back with
    /// [`CloudServer::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: CloudService,
        config: ServerConfig,
    ) -> io::Result<Self> {
        CloudServer::bind_with_telemetry(addr, service, config, Registry::new())
    }

    /// [`CloudServer::bind`] with a caller-supplied telemetry [`Registry`].
    ///
    /// The server registers its `cloud_*` instruments in `registry` and
    /// instruments the service's search engine through it, so one registry
    /// carries transport, search, and (if the caller shares it with an
    /// [`emap_core::EdgeFleet`]) fleet metrics. Pass
    /// [`Registry::disabled`] to strip latency timing from the hot path:
    /// counters stay live ([`CloudServer::stats`] needs them) but no
    /// clock is read per request.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the failure to open the reactor's
    /// epoll instance and wakeup pipe.
    pub fn bind_with_telemetry(
        addr: impl ToSocketAddrs,
        service: CloudService,
        config: ServerConfig,
        registry: Registry,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared::new(service, config, registry));
        let reactor = crate::reactor::spawn(Arc::clone(&shared), listener)?;
        Ok(CloudServer {
            shared,
            local_addr,
            reactor,
        })
    }

    /// The address the server actually listens on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current counter values.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.counters.snapshot()
    }

    /// The telemetry registry this server records into — the one passed to
    /// [`CloudServer::bind_with_telemetry`], or a fresh enabled registry
    /// for [`CloudServer::bind`].
    #[must_use]
    pub fn telemetry(&self) -> &Registry {
        &self.shared.telemetry
    }

    /// Stops accepting, drains in-flight requests, and joins all threads.
    ///
    /// Sessions parked between requests are closed; a request already being
    /// served completes and its response is flushed before the connection
    /// drops.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.shared.counters.snapshot()
    }

    /// Raises the shutdown flag and joins the reactor. The loop may be
    /// parked in the poller with no timers armed; `join` wakes it so it
    /// notices the flag.
    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.reactor.join();
    }
}

impl Drop for CloudServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The admission verdict for one decoded request: either it may run —
/// holding a search permit if it is a search — or the server is at its
/// in-flight bound and the reply is [`Message::Busy`].
pub(crate) enum Admission {
    /// Run the request; the guard (for searches) releases on drop.
    Granted(Option<PermitGuard>),
    /// No permit free; `busy_rejections` has been counted.
    Busy,
}

/// Applies the in-flight search bound to one request, *before* any work
/// is queued or executed. Non-search messages are always granted.
///
/// The reactor calls it at dispatch time on the loop thread, so a
/// saturated worker pool answers `Busy` immediately instead of growing
/// an unbounded job queue. The `searches` counter is incremented here,
/// on grant.
pub(crate) fn admit(shared: &Shared, msg: &Message) -> Admission {
    // One permit covers a whole request: it is at most one sweep's worth
    // of store work, however many queries ride it.
    let Message::SearchBatchDeltaRequest { queries } = msg else {
        return Admission::Granted(None);
    };
    let weight = queries.len() as u64;
    match shared.permits.try_acquire() {
        Some(permit) => {
            shared.counters.searches.add(weight);
            Admission::Granted(Some(permit))
        }
        None => {
            shared.counters.busy_rejections.inc();
            Admission::Busy
        }
    }
}

/// Serves an already-admitted request: the reactor's workers enter here
/// with the permit the loop thread acquired at dispatch (held until the
/// reply is computed). The bool asks the loop to close the connection
/// after sending the reply.
pub(crate) fn handle_admitted(
    shared: &Shared,
    msg: Message,
    delivered: &mut Delivered,
    _permit: Option<PermitGuard>,
) -> (Message, bool) {
    // Per-frame-type telemetry: arrival count plus a scoped
    // handling-latency timer (inert when the registry is disabled).
    let _timer = shared.counters.request(&msg).map(RequestMetrics::observe);
    match msg {
        Message::SearchBatchDeltaRequest { queries } => {
            (delta_batch_reply(shared, queries, delivered), false)
        }
        Message::Ingest {
            class,
            provenance,
            samples,
        } => {
            // The wire layer accepts any sample count (bounded only by
            // the allocation cap): the server is the validator. A
            // wrong-length vector earns a typed error and the connection
            // stays usable — the store never holds a malformed set.
            let reply = SignalSet::new(samples, class, provenance)
                .map_err(|e| error_reply(error_code::BAD_REQUEST, &e))
                .and_then(|set| shared.store.ingest(set));
            match reply {
                Ok(total_sets) => {
                    shared.counters.ingested.inc();
                    shared.counters.served.inc();
                    (Message::IngestAck { total_sets }, false)
                }
                Err(reply) => (reply, false),
            }
        }
        Message::Ping => {
            shared.counters.served.inc();
            (
                Message::Pong {
                    total_sets: shared.store.total_sets(),
                },
                false,
            )
        }
        Message::StatsRequest => {
            shared.counters.served.inc();
            (stats_reply(shared), false)
        }
        Message::HealthRequest => {
            shared.counters.served.inc();
            (
                Message::HealthResponse {
                    uptime_seconds: shared.telemetry.uptime_seconds(),
                    in_flight: shared.permits.inflight.load(Ordering::Acquire) as u64,
                    store_sets: shared.store.total_sets(),
                    ingested: shared.counters.ingested.get(),
                },
                false,
            )
        }
        // Server-to-client message types arriving at the server are a
        // protocol violation; answer once, then close.
        other @ (Message::SearchBatchDeltaResponse { .. }
        | Message::IngestAck { .. }
        | Message::Pong { .. }
        | Message::Busy
        | Message::ErrorReply { .. }
        | Message::StatsResponse { .. }
        | Message::HealthResponse { .. }) => {
            shared.counters.protocol_errors.inc();
            (
                Message::ErrorReply {
                    code: error_code::BAD_REQUEST,
                    detail: format!("client sent a server-side message type: {}", other.name()),
                },
                true,
            )
        }
    }
}

/// Builds a [`Message::StatsResponse`] from the registry's current
/// snapshot. Histograms travel as summaries; percentiles are rounded to
/// whole nanoseconds. The entry count is clipped to the wire cap.
fn stats_reply(shared: &Shared) -> Message {
    let mut metrics: Vec<StatsMetric> = shared
        .telemetry
        .snapshot()
        .into_iter()
        .map(|m| StatsMetric {
            name: m.name,
            value: match m.value {
                MetricValue::Counter(v) => StatsValue::Counter(v),
                MetricValue::Gauge(v) => StatsValue::Gauge(v),
                MetricValue::Histogram(h) => StatsValue::Summary {
                    count: h.count(),
                    sum_nanos: h.sum_nanos(),
                    p50_nanos: h.p50() as u64,
                    p90_nanos: h.p90() as u64,
                    p99_nanos: h.p99() as u64,
                },
            },
        })
        .collect();
    metrics.truncate(MAX_STATS_METRICS);
    Message::StatsResponse {
        uptime_seconds: shared.telemetry.uptime_seconds(),
        metrics,
    }
}

/// How long a parked request waits on the coalescer's condvar before
/// re-checking its result channel — a safety net; the leader's notify
/// normally wakes waiters well before this.
const BATCH_WAIT: Duration = Duration::from_millis(50);

impl Coalescer {
    /// Runs one request's queries through `sweep`, alone or sharing a
    /// call with other queued requests, and returns its sets in query
    /// order. Every `sweep` call made for admitted work is counted:
    /// `sweeps += 1`, `coalesced += queries − 1`.
    ///
    /// With `max_batch <= 1`, or for a request that alone holds
    /// `max_batch` queries or more, this is a direct call. An empty
    /// request is answered without a sweep, as the engine would.
    fn search(&self, queries: Vec<Query>, sweep: impl Fn(&[Query]) -> SweepResult) -> SweepResult {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let max_batch = self.max_batch;
        let counted = |queries: &[Query]| {
            self.sweeps.inc();
            self.coalesced.add(queries.len() as u64 - 1);
            sweep(queries)
        };
        if max_batch <= 1 || queries.len() >= max_batch {
            return counted(&queries);
        }
        let (tx, rx) = std::sync::mpsc::channel();
        self.state
            .lock()
            .expect("batch queue lock poisoned")
            .pending
            .push_back((queries, tx));
        loop {
            let state = self.state.lock().expect("batch queue lock poisoned");
            // Check for our result while holding the lock: a leader that
            // sends it after this check cannot flip `sweeping` and notify
            // until we release the lock inside `wait_timeout`, so the
            // wakeup is never lost.
            if let Ok(result) = rx.try_recv() {
                return result;
            }
            if state.sweeping || state.pending.is_empty() {
                let (guard, _) = self
                    .wake
                    .wait_timeout(state, BATCH_WAIT)
                    .expect("batch queue lock poisoned");
                drop(guard);
                continue;
            }
            // Leader: take queued requests from the front while they fit
            // one sweep — always at least one; ours is among them unless
            // the queue runs deeper — and sweep the store once for all of
            // them, outside the lock.
            let mut state = state;
            state.sweeping = true;
            let (mut take, mut total) = (0, 0);
            for (queued, _) in &state.pending {
                if take > 0 && total + queued.len() > max_batch {
                    break;
                }
                take += 1;
                total += queued.len();
            }
            let (requests, senders): (Vec<Vec<Query>>, Vec<_>) =
                state.pending.drain(..take).unzip();
            drop(state);

            let lens: Vec<usize> = requests.iter().map(Vec::len).collect();
            let all: Vec<Query> = requests.into_iter().flatten().collect();
            match counted(&all) {
                Ok(sets) => {
                    let mut sets = sets.into_iter();
                    for (&len, tx) in lens.iter().zip(&senders) {
                        let _ = tx.send(Ok(sets.by_ref().take(len).collect()));
                    }
                }
                Err(_) => {
                    // The shared sweep failed as a whole; re-run each
                    // request on its own so one bad batch-mate cannot
                    // fail the others.
                    let mut rest = &all[..];
                    for (&len, tx) in lens.iter().zip(&senders) {
                        let (own, tail) = rest.split_at(len);
                        rest = tail;
                        let _ = tx.send(sweep(own));
                    }
                }
            }
            self.state
                .lock()
                .expect("batch queue lock poisoned")
                .sweeping = false;
            self.wake.notify_all();
        }
    }
}

fn error_reply(code: u16, e: &dyn std::fmt::Display) -> Message {
    Message::ErrorReply {
        code,
        detail: e.to_string(),
    }
}

/// Folds one delta result into the wire-diet telemetry: retained hits
/// (references instead of slices) and evictions. Shipped slices are
/// counted per frame table, not per result — a frame ships each
/// distinct slice once however many queries hit it.
fn note_delta_result(counters: &Counters, result: &DeltaSearchResult) {
    let retained = result
        .hits
        .iter()
        .filter(|h| matches!(h, DeltaHit::Known { .. }))
        .count();
    counters.delta_retained.add(retained as u64);
    counters.delta_evicted.add(result.evicted.len() as u64);
}

/// Serves a [`Message::SearchBatchDeltaRequest`]: validates each query's
/// second, searches them through the store (see [`Store::search`]; the
/// coalescer lets requests from several connections share a sweep) and
/// answers with membership changes — one frame-wide quantized slice table
/// holding only the sets *no* session on this connection has yet
/// received. Returns the typed error reply the request earns instead,
/// including for a hit whose slice the store's lookup cannot supply.
fn delta_batch_reply(
    shared: &Shared,
    queries: Vec<DeltaQuery>,
    delivered: &mut Delivered,
) -> Message {
    let seconds = match queries
        .iter()
        .map(|q| Query::new(&q.second))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(seconds) => seconds,
        Err(e) => return error_reply(error_code::BAD_REQUEST, &e),
    };
    let mut reply = error_reply(error_code::INTERNAL, &"the store assembled no reply");
    let mut shipped = Vec::new();
    let searched = shared.store.search(seconds, &mut |sets, lookup| {
        let generation_of = |id: SetId| lookup(id).map_or(0, |(_, _, generation)| generation);
        let mut planner = DeltaPlanner::new(delivered, &generation_of);
        let results: Vec<DeltaSearchResult> = sets
            .iter()
            .zip(&queries)
            .map(|(set, query)| planner.plan(set.hits(), &query.tracked, set.work()))
            .collect();
        let slices = planner
            .shipped_ids()
            .iter()
            .map(|&id| {
                let (class, samples, _) = lookup(id).ok_or(id)?;
                Ok(QuantizedSlice::quantize(id, class, samples))
            })
            .collect::<Result<Vec<_>, SetId>>();
        reply = match slices {
            Ok(slices) => {
                shipped = planner.shipped().to_vec();
                shared.counters.served.inc();
                shared.counters.delta_shipped.add(shipped.len() as u64);
                for result in &results {
                    note_delta_result(&shared.counters, result);
                }
                Message::SearchBatchDeltaResponse { slices, results }
            }
            Err(id) => error_reply(
                error_code::INTERNAL,
                &emap_mdb::MdbError::UnknownSet { id: id.0 },
            ),
        };
    });
    delivered.record_all(shipped);
    searched.err().unwrap_or(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_datasets::RecordingFactory;
    use emap_mdb::MdbBuilder;
    use emap_search::SearchConfig;
    use emap_wire::{read_frame, write_frame};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn service() -> (CloudService, Vec<f32>) {
        let factory = RecordingFactory::new(5);
        let mut builder = MdbBuilder::new();
        builder
            .add_recording("d", &factory.normal_recording("r", 24.0))
            .unwrap();
        let stream = emap_dsp::emap_bandpass()
            .filter(factory.normal_recording("p", 8.0).channels()[0].samples());
        (
            CloudService::new(SearchConfig::paper(), builder.build().into_shared(), 2),
            stream,
        )
    }

    fn quick_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            max_sessions: 4,
            max_inflight_searches: 2,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_payload: DEFAULT_MAX_PAYLOAD,
            max_batch: 8,
            ..ServerConfig::default()
        }
    }

    fn request(conn: &mut TcpStream, msg: &Message) -> Message {
        write_frame(conn, msg).unwrap();
        read_frame(conn, DEFAULT_MAX_PAYLOAD).unwrap()
    }

    #[test]
    fn ping_pong_reports_store_size() {
        let (service, _) = service();
        let expected = service.mdb().len() as u64;
        let server = CloudServer::bind("127.0.0.1:0", service, quick_config()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let reply = request(&mut conn, &Message::Ping);
        assert_eq!(
            reply,
            Message::Pong {
                total_sets: expected
            }
        );
        let stats = server.shutdown();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.served, 1);
    }

    fn delta_request(seconds: &[&[f32]]) -> Message {
        Message::SearchBatchDeltaRequest {
            queries: seconds
                .iter()
                .map(|s| DeltaQuery {
                    second: s.to_vec(),
                    tracked: vec![],
                })
                .collect(),
        }
    }

    #[test]
    fn search_over_loopback_returns_slices() {
        let (service, stream) = service();
        let server = CloudServer::bind("127.0.0.1:0", service, quick_config()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let reply = request(&mut conn, &delta_request(&[&stream[1024..1280]]));
        match reply {
            Message::SearchBatchDeltaResponse { slices, results } => {
                assert_eq!(results.len(), 1);
                assert!(results[0].work.sets_scanned > 0);
                assert!(!results[0].hits.is_empty());
                // A fresh connection holds nothing: every hit ships.
                assert!(results[0]
                    .hits
                    .iter()
                    .all(|h| matches!(h, DeltaHit::New { .. })));
                assert!(slices.iter().all(|s| s.q.len() == emap_mdb::SIGNAL_SET_LEN));
            }
            other => panic!("expected SearchBatchDeltaResponse, got {}", other.name()),
        }
        drop(conn);
        let stats = server.shutdown();
        assert_eq!(stats.searches, 1);
        assert_eq!((stats.sweeps, stats.coalesced), (1, 0));
    }

    #[test]
    fn empty_batch_request_is_served() {
        let (service, _) = service();
        let server = CloudServer::bind("127.0.0.1:0", service, quick_config()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let reply = request(&mut conn, &delta_request(&[]));
        assert_eq!(
            reply,
            Message::SearchBatchDeltaResponse {
                slices: vec![],
                results: vec![]
            }
        );
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        let (service, _) = service();
        let server = CloudServer::bind("127.0.0.1:0", service, quick_config()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // Write three pings back-to-back before reading anything.
        for _ in 0..3 {
            write_frame(&mut conn, &Message::Ping).unwrap();
        }
        for _ in 0..3 {
            assert!(matches!(
                read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap(),
                Message::Pong { .. }
            ));
        }
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn malformed_frame_gets_typed_error_and_close() {
        let (service, _) = service();
        let server = CloudServer::bind("127.0.0.1:0", service, quick_config()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"NOT A FRAME AT ALL").unwrap();
        let reply = read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap();
        assert!(matches!(
            reply,
            Message::ErrorReply {
                code: error_code::BAD_REQUEST,
                ..
            }
        ));
        // The connection is closed afterwards.
        let mut byte = [0u8; 1];
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(conn.read(&mut byte).unwrap(), 0);
        let stats = server.shutdown();
        assert_eq!(stats.protocol_errors, 1);
    }

    /// A CRC-valid frame of the retired `f32` search request (type byte
    /// `0x09`, with the payload that request carried) is a malformed
    /// frame: a typed `BAD_REQUEST` naming the type, then FIN, counted
    /// once as a protocol error.
    #[test]
    fn retired_f32_search_frame_gets_typed_error_and_close() {
        let (service, stream) = service();
        let server = CloudServer::bind("127.0.0.1:0", service, quick_config()).unwrap();
        let errors = server.telemetry().counter("cloud_protocol_errors_total");
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&256u32.to_le_bytes());
        for x in &stream[1024..1280] {
            payload.extend_from_slice(&x.to_le_bytes());
        }
        let mut frame = Vec::new();
        frame.extend_from_slice(&emap_wire::MAGIC);
        frame.extend_from_slice(&[emap_wire::VERSION, 0x09, 0, 0]);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = emap_wire::crc::crc32_pair(&frame, &payload);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&payload);

        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(&frame).unwrap();
        match read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap() {
            Message::ErrorReply {
                code: error_code::BAD_REQUEST,
                detail,
            } => assert!(
                detail.contains("unknown message type 0x09"),
                "detail: {detail}"
            ),
            other => panic!("expected BAD_REQUEST, got {}", other.name()),
        }
        let mut byte = [0u8; 1];
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(conn.read(&mut byte).unwrap(), 0, "expected FIN");
        assert_eq!(errors.get(), 1);
        let stats = server.shutdown();
        assert_eq!((stats.protocol_errors, stats.searches), (1, 0));
    }

    #[test]
    fn client_illegal_message_type_is_rejected() {
        let (service, _) = service();
        let server = CloudServer::bind("127.0.0.1:0", service, quick_config()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let reply = request(&mut conn, &Message::Busy);
        assert!(matches!(reply, Message::ErrorReply { .. }));
        server.shutdown();
    }

    #[test]
    fn ingest_grows_the_store_and_acks_with_total() {
        let (service, _) = service();
        let before = service.mdb().len() as u64;
        let server = CloudServer::bind("127.0.0.1:0", service, quick_config()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let reply = request(
            &mut conn,
            &Message::Ingest {
                class: emap_datasets::SignalClass::Stroke,
                provenance: emap_mdb::Provenance {
                    dataset_id: "live".into(),
                    recording_id: "w1".into(),
                    channel: "c".into(),
                    offset: 0,
                },
                samples: vec![0.25; emap_mdb::SIGNAL_SET_LEN],
            },
        );
        assert_eq!(
            reply,
            Message::IngestAck {
                total_sets: before + 1
            }
        );
        let stats = server.shutdown();
        assert_eq!(stats.ingested, 1);
    }

    #[test]
    fn shutdown_with_idle_connection_completes() {
        let (service, _) = service();
        let server = CloudServer::bind("127.0.0.1:0", service, quick_config()).unwrap();
        let addr = server.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        assert!(matches!(
            request(&mut conn, &Message::Ping),
            Message::Pong { .. }
        ));
        // The connection idles; shutdown must not hang on it.
        let stats = server.shutdown();
        assert_eq!(stats.served, 1);
        // And the port is released for a successor.
        let revived = CloudServer::bind(addr, service_like(), quick_config());
        assert!(revived.is_ok());
    }

    fn service_like() -> CloudService {
        let (service, _) = service();
        service
    }

    fn shared_over(service: CloudService, max_batch: usize) -> Shared {
        let config = ServerConfig {
            max_batch,
            ..quick_config()
        };
        Shared::new(service, config, Registry::new())
    }

    /// Parks the coalescer as if a leader were mid-sweep, runs `requests`
    /// on their own threads until all of them are queued behind it, then
    /// lets the (imaginary) leader finish: the next leader finds every
    /// request waiting. Returns what each request got, in order.
    fn queued_together<T: Send>(
        coalescer: &Coalescer,
        requests: Vec<Box<dyn FnOnce() -> T + Send + '_>>,
    ) -> Vec<T> {
        coalescer.state.lock().unwrap().sweeping = true;
        let expected = requests.len();
        std::thread::scope(|scope| {
            let handles: Vec<_> = requests.into_iter().map(|r| scope.spawn(r)).collect();
            while coalescer.state.lock().unwrap().pending.len() < expected {
                std::thread::yield_now();
            }
            coalescer.state.lock().unwrap().sweeping = false;
            coalescer.wake.notify_all();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Two delta requests queued together ride the same sweep, and each
    /// gets exactly the reply it would have gotten alone.
    #[test]
    fn two_delta_requests_share_one_sweep() {
        let (service, stream) = service();
        let shared = shared_over(service.clone(), 8);
        let alone = shared_over(service, 1);
        let query = |at: usize| DeltaQuery {
            second: stream[at..at + 256].to_vec(),
            tracked: vec![],
        };
        let pair = vec![query(1024), query(1280)];
        let single = vec![query(1536)];

        let replies = queued_together(
            &shared.store.coalescer,
            vec![
                Box::new(|| delta_batch_reply(&shared, pair.clone(), &mut Delivered::new())),
                Box::new(|| delta_batch_reply(&shared, single.clone(), &mut Delivered::new())),
            ],
        );
        let stats = shared.counters.snapshot();
        assert_eq!(
            (stats.sweeps, stats.coalesced),
            (1, 2),
            "one sweep, three queries"
        );
        assert_eq!(
            replies[0],
            delta_batch_reply(&alone, pair, &mut Delivered::new())
        );
        assert_eq!(
            replies[1],
            delta_batch_reply(&alone, single, &mut Delivered::new())
        );
        assert_eq!(alone.counters.snapshot().sweeps, 2);
    }

    /// The leader takes requests from the front while their queries fit
    /// one sweep — and a request that alone fills a sweep never queues.
    #[test]
    fn a_sweep_holds_at_most_max_batch_queries() {
        let (service, stream) = service();
        let shared = shared_over(service, 4);
        let store = &shared.store;
        let query = |i: usize| Query::new(&stream[i * 256..(i + 1) * 256]).unwrap();
        let sizes = std::sync::Mutex::new(Vec::new());
        let sweep = |queries: &[Query]| {
            sizes.lock().unwrap().push(queries.len());
            store.service.search_batch(queries)
        };
        let run = |queries: Vec<Query>| store.coalescer.search(queries, sweep).unwrap();

        // Four queries fill a sweep on their own: direct, even while the
        // queue is held.
        store.coalescer.state.lock().unwrap().sweeping = true;
        assert_eq!(run((0..4).map(query).collect()).len(), 4);
        assert_eq!(*sizes.lock().unwrap(), [4]);

        // 2 + 1 + 2 queries queued in that order: the first two requests
        // fit a sweep of four, the third would overflow it and rides the
        // next one.
        let pending = |n| store.coalescer.state.lock().unwrap().pending.len() == n;
        let sets: Vec<usize> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (n, ids) in [vec![0, 1], vec![2], vec![3, 4]].into_iter().enumerate() {
                let run = &run;
                handles.push(scope.spawn(move || run(ids.into_iter().map(query).collect()).len()));
                while !pending(n + 1) {
                    std::thread::yield_now();
                }
            }
            store.coalescer.state.lock().unwrap().sweeping = false;
            store.coalescer.wake.notify_all();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sets, [2, 1, 2], "each request gets its own sets back");
        assert_eq!(*sizes.lock().unwrap(), [4, 3, 2]);
        let stats = shared.counters.snapshot();
        assert_eq!(stats.sweeps + stats.coalesced, 9);
    }

    /// A request whose shared sweep fails does not fail its batch-mates:
    /// each request is re-run alone, and only the bad one sees the error.
    #[test]
    fn a_failed_shared_sweep_is_rerun_per_request() {
        let (service, stream) = service();
        let shared = shared_over(service, 8);
        let store = &shared.store;
        let good = Query::new(&stream[1024..1280]).unwrap();
        let bad = Query::new(&stream[1280..1536]).unwrap();
        // No query a client can send fails a sweep (`Query::new` has
        // already validated it), so the failure is injected: any sweep
        // holding the marked query errors.
        let sweep = |queries: &[Query]| {
            if queries.iter().any(|q| q.samples() == bad.samples()) {
                return Err(SearchError::BadQueryLength { got: 0 });
            }
            store.service.search_batch(queries)
        };
        let run = |queries: Vec<Query>| store.coalescer.search(queries, sweep);

        let results = queued_together(
            &store.coalescer,
            vec![
                Box::new(|| run(vec![good.clone(), good.clone()])),
                Box::new(|| run(vec![bad.clone()])),
                Box::new(|| run(vec![good.clone()])),
            ],
        );
        let expected = store.service.search(&good).unwrap();
        assert_eq!(results[0], Ok(vec![expected.clone(), expected.clone()]));
        assert_eq!(results[1], Err(SearchError::BadQueryLength { got: 0 }));
        assert_eq!(results[2], Ok(vec![expected]));
        let stats = shared.counters.snapshot();
        assert_eq!((stats.sweeps, stats.coalesced), (1, 3));
    }
}
