//! The cluster front-end: an [`emap_cloud::CloudServer`] whose backend is
//! a scatter over shard servers speaking the same wire protocol.
//!
//! An edge cannot tell a [`Coordinator`] from a single `CloudServer`: it
//! *is* one — the same reactor core, admission (`Busy` past the session
//! cap or the search permits), idle eviction, request validation, reply
//! builders and delta bookkeeping — and for every query the whole
//! cluster can cover, the bitwise-identical responses come out. Only the
//! backend differs. Each search multiplexes one upstream leg per shard on
//! a single [`emap_reactor::Poller`] owned by the serving worker (wide
//! fan-out costs file descriptors, not spawns), falling back per shard to
//! a blocking replica walk over persistent [`RemoteCloud`] connections
//! when a leg fails; per-shard top-K answers are merged by the store's
//! own selection into an exact global top-K (see `DESIGN.md` §14), and
//! ingest is routed to the owning shard's replicas with a journal that
//! re-syncs replicas that were down when the write happened. Upstream
//! connections live in a pool a call checks out and returns, so sockets
//! per shard are bounded by the coordinator's workers, not by how many
//! edges are connected.
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
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use emap_cloud::{Backend, CloudServer, RemoteCloud, RemoteCloudConfig, ServerConfig};
use emap_datasets::SignalClass;
use emap_edge::SliceDownload;
use emap_mdb::{SetId, SignalSet};
use emap_reactor::{Event, Interest, Poller, Token};
use emap_search::{CorrelationSet, Query, SearchHit, SearchWork};
use emap_telemetry::{Counter, Gauge, Histogram, Registry};
use emap_wire::{error_code, frame_bytes, FrameAssembler, Message, StatsMetric};

use crate::Placement;

/// One shard's placement on the network: the addresses of its replicas,
/// all serving the same MDB partition.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// `host:port` of every replica of this shard, in preference order.
    /// At least one entry; two or more for failover.
    pub replicas: Vec<String>,
}

/// Tuning knobs for [`Coordinator`]. The downstream side serves on
/// [`ServerConfig::default`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Global top-K size the merged correlation set is truncated to —
    /// must match the shards' search configuration (the paper's 100).
    pub top_k: usize,
    /// Client configuration for the upstream shard connections — its
    /// `attempts`/backoff knobs are the per-replica retry budget spent
    /// before the coordinator fails over to the next replica, and its
    /// `read_timeout` bounds a whole fan-out.
    pub upstream: RemoteCloudConfig,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            top_k: 100,
            upstream: RemoteCloudConfig::default(),
        }
    }
}

/// Per-shard ID translation and write journal, guarded together: a
/// journal append and its `local→global` map push must be one atomic
/// step or replicas and coordinator would disagree on local IDs.
#[derive(Debug, Default)]
struct ShardTable {
    /// `local_to_global[local.0]` = the union store's ID for that set.
    local_to_global: Vec<SetId>,
    /// Every ingest routed to this shard since boot, in local-ID order.
    journal: Vec<Arc<SignalSet>>,
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
    /// Bumped by [`Coordinator::rejoin_replica`]; pooled clients rebuild
    /// when their cached generation falls behind.
    generation: AtomicU64,
    /// Journal entries this replica has applied, serialized so two
    /// workers never replay the same entry twice.
    synced: Mutex<usize>,
}

/// A shard's runtime state shared by every worker.
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
    partial_responses: Counter,
    failovers: Counter,
    replica_ingests: Counter,
    shards_degraded: Gauge,
}

/// The scatter backend: fan-out, failover, merge, and the write journal.
struct Scatter {
    config: CoordinatorConfig,
    placement: Placement,
    shards: Vec<ShardRuntime>,
    tables: Mutex<Tables>,
    metrics: Metrics,
    /// Idle upstream connection sets. A call checks one out and returns
    /// it, so there are at most as many as calls ever ran at once — the
    /// server's workers.
    pool: Mutex<Vec<Upstream>>,
}

/// The scatter-gather front-end server. See the module docs.
pub struct Coordinator {
    server: CloudServer,
    scatter: Arc<Scatter>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("local_addr", &self.local_addr())
            .field("shards", &self.scatter.shards.len())
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
    /// [`Registry`] carrying the server's `cloud_*` / `reactor_*` and the
    /// coordinator's `cluster_*` instruments.
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
        let scatter = Arc::new(Scatter {
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
                partial_responses: registry.counter("cluster_partial_responses_total"),
                failovers: registry.counter("cluster_failovers_total"),
                replica_ingests: registry.counter("cluster_replica_ingests_total"),
                shards_degraded: registry.gauge("cluster_shards_degraded"),
            },
            config,
            pool: Mutex::new(Vec::new()),
        });
        let server = CloudServer::bind_backend(
            addr,
            Arc::clone(&scatter) as Arc<dyn Backend>,
            ServerConfig::default(),
            registry,
        )?;
        Ok(Coordinator { server, scatter })
    }

    /// The address the coordinator listens on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The registry carrying the coordinator's instruments.
    #[must_use]
    pub fn telemetry(&self) -> &Registry {
        self.server.telemetry()
    }

    /// Re-registers a restarted replica at `addr`.
    ///
    /// The replica is assumed to have kept its store (same partition plus
    /// every journal entry it had acknowledged before going down); the
    /// coordinator replays only the writes it missed, through the normal
    /// ingest path, before the replica serves its next search. Every
    /// pooled client for this slot is invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `shard` or `replica` is out of range.
    pub fn rejoin_replica(&self, shard: usize, replica: usize, addr: impl Into<String>) {
        let state = &self.scatter.shards[shard].replicas[replica];
        *state.addr.lock().expect("replica addr lock poisoned") = addr.into();
        state.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Stops accepting, lets in-flight requests finish, joins the
    /// server's threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// One checkout's upstream connections: a client per `[shard][replica]`,
/// built lazily and rebuilt when a replica's generation moves (rejoin
/// after restart), plus one raw nonblocking socket per shard for the
/// multiplexed fan-out fast path (see [`mux_scatter`]).
struct Upstream {
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

impl Scatter {
    /// Runs `f` on an upstream set checked out of the pool, then returns
    /// the set for the next call.
    fn with_upstream<R>(&self, f: impl FnOnce(&mut Upstream) -> R) -> R {
        let idle = self.pool.lock().expect("upstream pool poisoned").pop();
        let mut upstream = idle.unwrap_or_else(|| Upstream {
            slots: self
                .shards
                .iter()
                .map(|s| s.replicas.iter().map(|_| None).collect())
                .collect(),
            mux: self.shards.iter().map(|_| None).collect(),
        });
        let out = f(&mut upstream);
        self.pool
            .lock()
            .expect("upstream pool poisoned")
            .push(upstream);
        out
    }
}

impl Backend for Scatter {
    fn search(
        &self,
        queries: Vec<Query>,
        assemble: &mut dyn for<'s> FnMut(
            &[CorrelationSet],
            &dyn Fn(SetId) -> Option<(SignalClass, &'s [f32], u64)>,
        ),
    ) -> Result<(), Message> {
        let seconds: Vec<&[f32]> = queries.iter().map(Query::samples).collect();
        let (sets, slices) = self
            .with_upstream(|upstream| fan_out(self, upstream, &seconds))
            .ok_or_else(|| Message::ErrorReply {
                code: error_code::INTERNAL,
                detail: "no shard replica reachable".into(),
            })?;
        // The union view is append-only (global IDs are never reused), so
        // every slice is at generation 0.
        assemble(&sets, &|id| {
            let (class, samples) = slices.get(&id)?;
            Some((*class, samples.as_slice(), 0))
        });
        Ok(())
    }

    /// Assigns the next global ID, journals the write under the owning
    /// shard, then pushes it to every replica that is reachable (the rest
    /// catch up via [`ensure_synced`]). Acked even when every replica is
    /// down: the write is durable in the journal and replays before the
    /// shard serves its next search.
    fn ingest(&self, set: SignalSet) -> Result<u64, Message> {
        let (owner, total) = {
            let mut tables = self.tables.lock().expect("tables lock poisoned");
            let global = SetId(tables.total_sets);
            let owner = self.placement.shard_of(global, set.class());
            tables.total_sets += 1;
            let shard = &mut tables.shards[owner];
            shard.local_to_global.push(global);
            shard.journal.push(Arc::new(set));
            (owner, tables.total_sets)
        };
        let any = self.with_upstream(|upstream| {
            let rt = &self.shards[owner];
            let mut any = false;
            for (r, state) in rt.replicas.iter().enumerate() {
                let client = client_for(self, state, &mut upstream.slots[owner][r]);
                any |= ensure_synced(self, owner, state, client);
            }
            any
        });
        set_shard_up(self, owner, any);
        Ok(total)
    }

    fn total_sets(&self) -> u64 {
        self.tables.lock().expect("tables lock poisoned").total_sets
    }

    /// Each reachable shard's snapshot, re-exported under a `shard<k>_`
    /// prefix.
    fn extra_stats(&self, metrics: &mut Vec<StatsMetric>) {
        self.with_upstream(|upstream| {
            for (k, rt) in self.shards.iter().enumerate() {
                for (r, state) in rt.replicas.iter().enumerate() {
                    let client = client_for(self, state, &mut upstream.slots[k][r]);
                    if let Ok(stats) = client.stats() {
                        metrics.extend(stats.metrics.into_iter().map(|m| StatsMetric {
                            name: format!("shard{k}_{}", m.name),
                            value: m.value,
                        }));
                        break;
                    }
                }
            }
        });
    }
}

/// Returns the (possibly rebuilt) client for one replica slot.
fn client_for<'a>(
    scatter: &Scatter,
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
            RemoteCloud::new(addr, scatter.config.upstream.clone()),
        ));
    }
    &slot.as_ref().expect("slot just filled").1
}

/// One shard's answers to a fan-out: per query, its share of the work
/// and its local top-K translated to global IDs.
type ShardAnswers = Vec<(SearchWork, Vec<SliceDownload>)>;

/// One fan-out's merged answer: per query the exact global top-K, plus
/// the class and samples of every hit by global ID.
type Merged = (Vec<CorrelationSet>, HashMap<SetId, (SignalClass, Vec<f32>)>);

/// Fans `seconds` out to every shard and merges per-shard answers into
/// exact global top-K results.
///
/// Returns `None` only when *no* shard answered (zero coverage); with at
/// least one shard up, the merged results carry
/// [`SearchWork::partial`] for the shards that were missing.
fn fan_out(scatter: &Scatter, upstream: &mut Upstream, seconds: &[&[f32]]) -> Option<Merged> {
    if seconds.is_empty() {
        return Some((Vec::new(), HashMap::new()));
    }
    // Fast path: every shard's preferred replica is driven concurrently
    // from this one thread, multiplexed on a single readiness poller. A
    // leg that fails for any reason (connect, write, decode, an
    // incoherent ID) is retried the slow way below.
    let mut per_shard = mux_scatter(scatter, upstream, seconds);
    // Slow path, per failed shard only: the blocking replica walk, which
    // owns failover (preferred hand-off), journal re-sync of lagging
    // replicas, and the client's capped-backoff retry budget.
    for (k, answers) in per_shard.iter_mut().enumerate() {
        if answers.is_none() {
            *answers = shard_call(scatter, k, &mut upstream.slots[k], seconds);
        }
    }
    if per_shard.iter().all(Option::is_none) {
        return None;
    }
    let partial = per_shard.iter().any(Option::is_none);
    if partial {
        scatter.metrics.partial_responses.inc();
    }
    let mut candidates: Vec<(SearchWork, Vec<SearchHit>)> = seconds
        .iter()
        .map(|_| {
            let work = SearchWork {
                partial,
                ..SearchWork::default()
            };
            (work, Vec::new())
        })
        .collect();
    let mut slices = HashMap::new();
    for answers in per_shard.into_iter().flatten() {
        for ((work, hits), (shard_work, downloads)) in candidates.iter_mut().zip(answers) {
            work.merge(shard_work);
            for d in downloads {
                hits.push(SearchHit {
                    set_id: d.set_id,
                    omega: d.omega,
                    beta: d.beta,
                });
                slices.entry(d.set_id).or_insert((d.class, d.samples));
            }
        }
    }
    let sets = candidates
        .into_iter()
        .map(|(work, mut hits)| {
            // Ascending global ID is the candidate order a union-store
            // sweep feeds the same stable selection, so exact-ω ties rank
            // as they would there (DESIGN.md §14).
            hits.sort_by_key(|h| h.set_id.0);
            CorrelationSet::from_candidates(hits, scatter.config.top_k, work)
        })
        .collect();
    Some((sets, slices))
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
/// [`emap_reactor::Poller`] owned by this worker — no thread per shard.
/// Each leg is journal-synced first (cheap no-op when the replica is
/// caught up), then written and read nonblockingly with a per-leg
/// [`FrameAssembler`]. Returns per-shard answers; `None` marks a leg the
/// caller must retry via the blocking replica walk.
fn mux_scatter(
    scatter: &Scatter,
    upstream: &mut Upstream,
    seconds: &[&[f32]],
) -> Vec<Option<ShardAnswers>> {
    let n = scatter.shards.len();
    let mut answers: Vec<Option<ShardAnswers>> = (0..n).map(|_| None).collect();
    // Encode once; every leg writes the same bytes. The shard legs use
    // the f32 batch messages: the merge ranks on exact samples, and the
    // server quantizes once, downstream, for its own edge.
    let request = frame_bytes(&Message::SearchBatchRequest {
        seconds: seconds.iter().map(|s| s.to_vec()).collect(),
    });
    let Ok(mut poller) = Poller::new() else {
        return answers;
    };

    let mut legs: Vec<Option<MuxLeg>> = (0..n)
        .map(|k| mux_leg(scatter, upstream, k, &mut poller))
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

    let deadline = std::time::Instant::now() + scatter.config.upstream.read_timeout;
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
            let step = mux_step(scatter, leg, &request, seconds.len(), ev);
            if matches!(step, LegStep::Continue) {
                continue;
            }
            let leg = legs[k].take().expect("leg just stepped");
            open -= 1;
            let _ = poller.deregister(leg.stream.as_raw_fd());
            match step {
                LegStep::Done(got) => {
                    leg.timer.stop();
                    set_shard_up(scatter, leg.shard, true);
                    // A drained, frame-aligned socket is good for the
                    // next fan-out; anything else would desynchronize.
                    if leg.asm.pending() == 0 && !leg.asm.is_poisoned() {
                        let rt = &scatter.shards[leg.shard];
                        let r = rt.preferred.load(Ordering::Relaxed) % rt.replicas.len();
                        upstream.mux[leg.shard] = Some(MuxCached {
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
                    // of `upstream.mux`; dropping the leg closes it.
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
    scatter: &Scatter,
    upstream: &mut Upstream,
    k: usize,
    poller: &mut Poller,
) -> Option<MuxLeg> {
    let rt = &scatter.shards[k];
    let r = rt.preferred.load(Ordering::Relaxed) % rt.replicas.len();
    let state = &rt.replicas[r];
    let client = client_for(scatter, state, &mut upstream.slots[k][r]);
    if !ensure_synced(scatter, k, state, client) {
        return None;
    }
    let generation = state.generation.load(Ordering::Acquire);
    let stream = match upstream.mux[k].take() {
        Some(c) if c.replica == r && c.generation == generation => c.stream,
        _ => {
            let addr = state
                .addr
                .lock()
                .expect("replica addr lock poisoned")
                .clone();
            let sa = addr.to_socket_addrs().ok()?.next()?;
            TcpStream::connect_timeout(&sa, scatter.config.upstream.connect_timeout).ok()?
        }
    };
    stream.set_nonblocking(true).ok()?;
    poller
        .register(stream.as_raw_fd(), Token(k as u64), Interest::BOTH)
        .ok()?;
    Some(MuxLeg {
        shard: k,
        stream,
        asm: FrameAssembler::new(scatter.config.upstream.max_payload),
        out_pos: 0,
        timer: rt.fanout.start_timer(),
    })
}

/// Advances one leg on a readiness event: finish writing the request,
/// then read until the response frame assembles. A reply that is not a
/// coherent, translatable batch response fails the leg.
fn mux_step(
    scatter: &Scatter,
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
                    let answers: Option<ShardAnswers> = results
                        .iter()
                        .map(|r| r.materialize(&slices).ok().map(|d| (r.work, d)))
                        .collect();
                    return match answers.and_then(|a| translate_answers(scatter, leg.shard, a)) {
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

/// Translates one shard's per-query answers from its local IDs to global
/// ones under the tables lock. `None` when the replica reports a local ID
/// the coordinator never placed there (stale wiring: treat the leg as
/// down).
fn translate_answers(scatter: &Scatter, k: usize, answers: ShardAnswers) -> Option<ShardAnswers> {
    let tables = scatter.tables.lock().expect("tables lock poisoned");
    let map = &tables.shards[k].local_to_global;
    answers
        .into_iter()
        .map(|(work, mut downloads)| {
            for d in &mut downloads {
                d.set_id = *map.get(d.set_id.0 as usize)?;
            }
            Some((work, downloads))
        })
        .collect()
}

/// One shard's leg of the fan-out: walk the replicas starting at the
/// preferred one, re-sync the journal if the replica is behind, run the
/// batch, translate local IDs to global. `None` when every replica
/// failed.
fn shard_call(
    scatter: &Scatter,
    k: usize,
    slots: &mut [Option<(u64, RemoteCloud)>],
    seconds: &[&[f32]],
) -> Option<ShardAnswers> {
    let rt = &scatter.shards[k];
    let n = rt.replicas.len();
    let start = rt.preferred.load(Ordering::Relaxed) % n;
    for i in 0..n {
        let r = (start + i) % n;
        let client = client_for(scatter, &rt.replicas[r], &mut slots[r]);
        if !ensure_synced(scatter, k, &rt.replicas[r], client) {
            continue;
        }
        let timer = rt.fanout.start_timer();
        let batch = match client.search_batch(seconds) {
            Ok(batch) if batch.len() == seconds.len() => batch,
            _ => {
                timer.discard();
                continue;
            }
        };
        timer.stop();
        let answers = (0..batch.len()).map(|q| (batch.work(q), batch.materialize(q)));
        let Some(out) = translate_answers(scatter, k, answers.collect()) else {
            continue;
        };
        if r != start {
            rt.preferred.store(r, Ordering::Relaxed);
            scatter.metrics.failovers.inc();
        }
        set_shard_up(scatter, k, true);
        return Some(out);
    }
    set_shard_up(scatter, k, false);
    None
}

/// Replays journal entries the replica has not acknowledged yet, through
/// the ordinary ingest path. Returns whether the replica is fully caught
/// up (and therefore safe to search).
fn ensure_synced(scatter: &Scatter, k: usize, state: &ReplicaState, client: &RemoteCloud) -> bool {
    let mut synced = state.synced.lock().expect("replica sync lock poisoned");
    loop {
        let entry = {
            let tables = scatter.tables.lock().expect("tables lock poisoned");
            let journal = &tables.shards[k].journal;
            if *synced >= journal.len() {
                return true;
            }
            Arc::clone(&journal[*synced])
        };
        let (class, provenance) = (entry.class(), entry.provenance().clone());
        match client.ingest(class, provenance, entry.samples().to_vec()) {
            Ok(_) => {
                *synced += 1;
                scatter.metrics.replica_ingests.inc();
            }
            Err(_) => return false,
        }
    }
}

fn set_shard_up(scatter: &Scatter, k: usize, up: bool) {
    let was = scatter.shards[k].up.swap(up, Ordering::SeqCst);
    if was != up {
        scatter.shards[k].up_gauge.set(i64::from(up));
        if up {
            scatter.metrics.shards_degraded.dec();
        } else {
            scatter.metrics.shards_degraded.inc();
        }
    }
}
