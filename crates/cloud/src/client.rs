//! The edge-side transport client: [`RemoteCloud`] speaks the
//! [`emap_wire`] protocol to a [`crate::CloudServer`] and plugs into the
//! same [`CloudEndpoint`] seam the in-process service implements — the
//! tracking code cannot tell which one it is talking to.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use emap_core::{CloudEndpoint, EmapError};
use emap_edge::{EdgeTracker, SharedDownload, SharedSlice, TrackedSignal};
use emap_mdb::{Provenance, SetId};
use emap_search::Query;
use emap_wire::{
    frame_bytes, read_frame, DeltaQuery, DeltaSearchResult, Message, QuantizedSlice, StatsMetric,
    WireError, DEFAULT_MAX_PAYLOAD, MAX_BATCH_QUERIES, MAX_TRACKED_IDS,
};

use crate::delta::apply_delta;

/// The only mode; field kept until `benchmark/` is next re-baselined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshMode {
    /// Requests declare the tracked set, responses carry membership
    /// changes only — new hits ship 16-bit quantized slices, retained
    /// hits are bare references, evictions are IDs.
    #[default]
    Delta,
}

/// Tuning knobs for [`RemoteCloud`].
#[derive(Debug, Clone)]
pub struct RemoteCloudConfig {
    /// Deadline for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for reading a full response frame.
    pub read_timeout: Duration,
    /// Deadline for writing a request frame.
    pub write_timeout: Duration,
    /// Attempts per request (first try included). Connect failures, send
    /// and receive failures, and [`Message::Busy`] replies consume one
    /// attempt each.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Largest response payload accepted.
    pub max_payload: usize,
    /// The only mode; field kept until `benchmark/` is next re-baselined.
    pub refresh: RefreshMode,
}

impl Default for RemoteCloudConfig {
    fn default() -> Self {
        RemoteCloudConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            attempts: 3,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(400),
            max_payload: DEFAULT_MAX_PAYLOAD,
            refresh: RefreshMode::Delta,
        }
    }
}

/// Errors from the remote transport.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// All attempts failed to move a request/response pair; carries the
    /// last underlying failure.
    Unreachable {
        /// Attempts made.
        attempts: u32,
        /// The last failure, rendered.
        last: String,
    },
    /// The server answered with a typed error reply.
    Remote {
        /// The [`emap_wire::error_code`] value.
        code: u16,
        /// The server's description.
        detail: String,
    },
    /// The server answered with a message type that does not answer the
    /// request (protocol violation).
    Unexpected {
        /// The reply actually received, rendered.
        got: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Unreachable { attempts, last } => {
                write!(f, "cloud unreachable after {attempts} attempts: {last}")
            }
            ClientError::Remote { code, detail } => {
                write!(f, "cloud replied error {code}: {detail}")
            }
            ClientError::Unexpected { got } => {
                write!(f, "cloud sent an unexpected reply: {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// The live figures a [`Message::HealthResponse`] carries, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloudHealth {
    /// Whole seconds since the server started.
    pub uptime_seconds: u64,
    /// Requests holding an in-flight search permit right now.
    pub in_flight: u64,
    /// Signal-set slices currently hosted by the server's store.
    pub store_sets: u64,
    /// Slices ingested over the wire since the server started.
    pub ingested: u64,
}

/// A decoded [`Message::StatsResponse`]: the server's uptime plus every
/// registered instrument's reading, sorted by name.
#[derive(Debug, Clone)]
pub struct CloudStats {
    /// Whole seconds since the server started.
    pub uptime_seconds: u64,
    /// One entry per instrument in the server's telemetry registry.
    pub metrics: Vec<StatsMetric>,
}

impl CloudStats {
    /// The value of the counter named `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|m| match &m.value {
            emap_wire::StatsValue::Counter(v) if m.name == name => Some(*v),
            _ => None,
        })
    }
}

/// An edge-resident client for a remote EMAP cloud server.
///
/// One TCP connection is kept alive across requests and re-established on
/// demand; every request retries with capped exponential backoff (plus
/// deterministic jitter) before giving up. A failed request never panics
/// and never poisons the client — the next call simply reconnects.
///
/// [`Message::Busy`] is **typed backpressure, not an error**: a saturated
/// server (no worker slot, or no search permit) answers Busy instead of
/// queueing unboundedly, and this client burns one attempt, backs off,
/// reconnects, and tries again. Only after `attempts` consecutive
/// rejections does the request surface as [`ClientError::Unreachable`]
/// (with the busy reason as `last`), which the [`CloudEndpoint`] seam
/// maps to degraded local-only tracking rather than a hard failure.
///
/// As a [`CloudEndpoint`], an unreachable server surfaces as
/// [`EmapError::Transport`], which [`emap_core::EdgeFleet::serve_with`]
/// converts into degraded (local-only) tracking rather than a failure.
pub struct RemoteCloud {
    addr: String,
    config: RemoteCloudConfig,
    conn: Mutex<Option<TcpStream>>,
    /// xorshift state for backoff jitter — deterministic, no clock seed.
    jitter: AtomicU64,
    /// Slices the *current connection* has delivered on the delta path,
    /// mirroring the server's per-connection delivered set. Cleared on
    /// every (re)connect — both sides forget together, which is what
    /// keeps `Known` references resolvable.
    cache: Mutex<HashMap<SetId, SharedSlice>>,
}

impl fmt::Debug for RemoteCloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteCloud")
            .field("addr", &self.addr)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl RemoteCloud {
    /// Creates a client for the server at `addr` (`host:port`). No I/O
    /// happens until the first request.
    #[must_use]
    pub fn new(addr: impl Into<String>, config: RemoteCloudConfig) -> Self {
        let addr = addr.into();
        // Seed the jitter stream from the address so two clients do not
        // retry in lockstep; any nonzero seed works.
        let seed = addr.bytes().fold(0x9e37_79b9_7f4a_7c15u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        }) | 1;
        RemoteCloud {
            addr,
            config,
            conn: Mutex::new(None),
            jitter: AtomicU64::new(seed),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The server address this client targets.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Health check: sends [`Message::Ping`], returns the server's current
    /// store size.
    ///
    /// # Errors
    ///
    /// [`ClientError`] when the server is unreachable or misbehaves.
    pub fn ping(&self) -> Result<u64, ClientError> {
        match self.request(&Message::Ping)? {
            Message::Pong { total_sets } => Ok(total_sets),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server's full telemetry snapshot
    /// ([`Message::StatsRequest`]).
    ///
    /// # Errors
    ///
    /// [`ClientError`] when the server is unreachable or misbehaves.
    pub fn stats(&self) -> Result<CloudStats, ClientError> {
        match self.request(&Message::StatsRequest)? {
            Message::StatsResponse {
                uptime_seconds,
                metrics,
            } => Ok(CloudStats {
                uptime_seconds,
                metrics,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Extended health probe ([`Message::HealthRequest`]): live uptime,
    /// in-flight load, and store figures.
    ///
    /// # Errors
    ///
    /// [`ClientError`] when the server is unreachable or misbehaves.
    pub fn health(&self) -> Result<CloudHealth, ClientError> {
        match self.request(&Message::HealthRequest)? {
            Message::HealthResponse {
                uptime_seconds,
                in_flight,
                store_sets,
                ingested,
            } => Ok(CloudHealth {
                uptime_seconds,
                in_flight,
                store_sets,
                ingested,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Ingests one labeled signal-set into the remote store; returns the
    /// store's new size.
    ///
    /// # Errors
    ///
    /// [`ClientError`] when the server is unreachable or misbehaves.
    pub fn ingest(
        &self,
        class: emap_datasets::SignalClass,
        provenance: Provenance,
        samples: Vec<f32>,
    ) -> Result<u64, ClientError> {
        let msg = Message::Ingest {
            class,
            provenance,
            samples,
        };
        match self.request(&msg)? {
            Message::IngestAck { total_sets } => Ok(total_sets),
            other => Err(unexpected(&other)),
        }
    }

    /// One request/response exchange with retries.
    fn request(&self, msg: &Message) -> Result<Message, ClientError> {
        self.exchange(msg, &mut None)
    }

    /// One request/response exchange with retries. The first attempt takes
    /// `meanwhile` and runs it between writing the request and reading the
    /// reply (or right after a connect or write that failed), holding the
    /// connection; retries, backoff and `Busy` all come after it.
    fn exchange(
        &self,
        msg: &Message,
        meanwhile: &mut Option<&mut dyn FnMut()>,
    ) -> Result<Message, ClientError> {
        let attempts = self.config.attempts.max(1);
        let frame = frame_bytes(msg);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt));
            }
            match self.try_once(&frame, meanwhile) {
                Ok(Message::Busy) => {
                    // Typed backpressure: retryable, with backoff.
                    last = "server busy".into();
                    // A Busy at the session ceiling closes the connection;
                    // a Busy for want of a search permit keeps it.
                    // Reconnect either way to rejoin the accept queue.
                    self.disconnect();
                }
                Ok(Message::ErrorReply { code, detail }) => {
                    return Err(ClientError::Remote { code, detail });
                }
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    last = e.to_string();
                    self.disconnect();
                }
            }
        }
        Err(ClientError::Unreachable { attempts, last })
    }

    /// Sends `frame`, runs `meanwhile` if it is still pending, and reads
    /// one reply over the cached connection, establishing it first if
    /// needed.
    fn try_once(
        &self,
        frame: &[u8],
        meanwhile: &mut Option<&mut dyn FnMut()>,
    ) -> Result<Message, WireError> {
        let mut guard = self.conn.lock().expect("client connection lock poisoned");
        let sent = self.send(&mut guard, frame);
        if let Some(meanwhile) = meanwhile.take() {
            meanwhile();
        }
        sent?;
        let conn = guard.as_mut().expect("a sent frame has a connection");
        read_frame(conn, self.config.max_payload)
    }

    /// Writes `frame` over the pooled connection, establishing it first if
    /// needed.
    fn send(&self, conn: &mut Option<TcpStream>, frame: &[u8]) -> Result<(), WireError> {
        if conn.is_none() {
            *conn = Some(self.connect()?);
            // A fresh connection means a fresh server-side delivered set:
            // forget in lockstep or stale `Known` references would
            // resolve against slices the new connection never shipped.
            self.cache
                .lock()
                .expect("delta cache lock poisoned")
                .clear();
        }
        conn.as_mut()
            .expect("connection just installed")
            .write_all(frame)?;
        Ok(())
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no socket addresses");
        for addr in std::net::ToSocketAddrs::to_socket_addrs(&self.addr.as_str())? {
            match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
                Ok(conn) => {
                    conn.set_read_timeout(Some(self.config.read_timeout))?;
                    conn.set_write_timeout(Some(self.config.write_timeout))?;
                    conn.set_nodelay(true)?;
                    return Ok(conn);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Drops the pooled connection and forgets every slice delivered on
    /// it. The server's per-connection delivery history dies with the
    /// socket, so the edge-side cache must die with it too — both sides
    /// forget together, and the next delta refresh starts cold.
    pub fn disconnect(&self) {
        *self.conn.lock().expect("client connection lock poisoned") = None;
        self.cache
            .lock()
            .expect("delta cache lock poisoned")
            .clear();
    }

    /// Runs one explicit remote search, the client's one search call
    /// outside the [`CloudEndpoint`] refresh: ships the second plus the
    /// declared tracked IDs in a delta frame of one and returns the
    /// frame's quantized slice table and the membership delta. The table
    /// is folded into the connection cache, as the server folds it into
    /// the connection's delivered set, so a later refresh on this client
    /// resolves its `Known` references; nothing is installed and an
    /// unresolvable reference is not retried: the caller resolves `Known`
    /// hits itself (a set ships the first time a reply on this connection
    /// names it). Connect failures and [`Message::Busy`] retry as for
    /// every request.
    ///
    /// # Errors
    ///
    /// [`ClientError`] when the server is unreachable or misbehaves.
    pub fn search_delta(
        &self,
        second: &[f32],
        tracked: Vec<SetId>,
    ) -> Result<(Vec<QuantizedSlice>, DeltaSearchResult), ClientError> {
        let (slices, mut results) = self.delta_exchange(
            vec![DeltaQuery {
                second: second.to_vec(),
                tracked,
            }],
            &mut None,
        )?;
        self.remember(&decode_table(slices.clone())?);
        Ok((slices, results.pop().expect("one result per query")))
    }

    /// One batch-delta exchange: the frame's quantized slice table plus
    /// exactly one result per query. Declared tracked lists are capped at
    /// the wire limit ([`MAX_TRACKED_IDS`]) — declaring less is always
    /// safe: undeclared sets just ship (or resolve via the connection's
    /// delivered history) instead of travelling as references.
    fn delta_exchange(
        &self,
        mut queries: Vec<DeltaQuery>,
        meanwhile: &mut Option<&mut dyn FnMut()>,
    ) -> Result<(Vec<QuantizedSlice>, Vec<DeltaSearchResult>), ClientError> {
        for query in &mut queries {
            query.tracked.truncate(MAX_TRACKED_IDS);
        }
        let asked = queries.len();
        match self.exchange(&Message::SearchBatchDeltaRequest { queries }, meanwhile)? {
            Message::SearchBatchDeltaResponse { slices, results } if results.len() == asked => {
                Ok((slices, results))
            }
            Message::SearchBatchDeltaResponse { results, .. } => Err(ClientError::Unexpected {
                got: format!(
                    "delta batch response with {} results for {asked} queries",
                    results.len()
                ),
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// One delta refresh attempt for a batch, `meanwhile` running (if
    /// still pending) during its first exchange. All-or-nothing: every
    /// query's downloads are staged before any tracker is touched.
    fn delta_refresh_batch(
        &self,
        queries: &[Query],
        tracked: &[Vec<SetId>],
        trackers: &mut [&mut EdgeTracker],
        meanwhile: &mut Option<&mut dyn FnMut()>,
    ) -> Result<(), DeltaSetback> {
        let mut staged: Vec<Vec<SharedDownload>> = Vec::with_capacity(queries.len());
        for (chunk_idx, chunk) in queries.chunks(MAX_BATCH_QUERIES).enumerate() {
            let base = chunk_idx * MAX_BATCH_QUERIES;
            let declared = chunk
                .iter()
                .zip(&tracked[base..])
                .map(|(q, tracked)| DeltaQuery {
                    second: q.samples().to_vec(),
                    tracked: tracked.clone(),
                })
                .collect();
            let (slices, results) = self
                .delta_exchange(declared, meanwhile)
                .map_err(DeltaSetback::Failed)?;
            let table = decode_table(slices).map_err(DeltaSetback::Failed)?;
            {
                let cache = self.cache.lock().expect("delta cache lock poisoned");
                for (i, result) in results.iter().enumerate() {
                    let tracker: &EdgeTracker = trackers[base + i];
                    let downloads = apply_delta(&table, &result.hits, |id| {
                        cache
                            .get(&id)
                            .cloned()
                            .or_else(|| slice_from_tracker(tracker, id))
                    });
                    match downloads {
                        Some(d) => staged.push(d),
                        None => return Err(DeltaSetback::CacheMiss),
                    }
                }
            }
            self.remember(&table);
        }
        for (tracker, downloads) in trackers.iter_mut().zip(staged) {
            tracker.load_shared(downloads);
        }
        Ok(())
    }

    /// Folds a decoded slice table into the connection cache —
    /// mirroring the server extending its delivered set for the same
    /// frame.
    fn remember(&self, table: &[SharedSlice]) {
        let mut cache = self.cache.lock().expect("delta cache lock poisoned");
        for s in table {
            cache.insert(s.set_id(), s.clone());
        }
    }

    /// Capped exponential backoff with ±25% deterministic jitter.
    fn backoff(&self, attempt: u32) -> Duration {
        let base = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.config.backoff_cap);
        // xorshift64* step; derive a factor in [0.75, 1.25).
        let mut x = self.jitter.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.store(x, Ordering::Relaxed);
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        base.mul_f64(0.75 + unit / 2.0)
    }
}

/// Why one delta refresh attempt did not complete.
enum DeltaSetback {
    /// A `Known` reference was locally unresolvable: reconnect (both
    /// sides forget) and retry with nothing declared, shipping in full.
    CacheMiss,
    /// Hard transport or remote failure — no point retrying here.
    Failed(ClientError),
}

/// Dequantizes a frame's slice table into shared slices, building each
/// slice's statistics tables exactly once for the whole tick.
fn decode_table(slices: Vec<QuantizedSlice>) -> Result<Vec<SharedSlice>, ClientError> {
    slices
        .into_iter()
        .map(|q| {
            SharedSlice::new(q.set_id, q.class, q.dequantize()).map_err(|e| {
                ClientError::Unexpected {
                    got: format!("bad slice in delta response: {e}"),
                }
            })
        })
        .collect()
}

/// Resolves a `Known` reference against the session's currently tracked
/// slices — a refcount bump on data the edge already holds.
fn slice_from_tracker(tracker: &EdgeTracker, id: SetId) -> Option<SharedSlice> {
    tracker
        .tracked()
        .iter()
        .find(|w| w.set_id == id)
        .map(TrackedSignal::to_shared_slice)
}

fn unexpected(got: &Message) -> ClientError {
    ClientError::Unexpected {
        got: got.name().into(),
    }
}

impl CloudEndpoint for RemoteCloud {
    /// Remote refresh: [`RemoteCloud::refresh_batch_overlapped`] with
    /// nothing to run meanwhile, so the client has one exchange path.
    fn refresh_batch(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
    ) -> Vec<Result<(), EmapError>> {
        self.refresh_batch_overlapped(queries, trackers, &mut || {})
    }

    /// Remote refresh, overlapped: every query's second travels with its
    /// tracked IDs in one [`Message::SearchBatchDeltaRequest`] (one per
    /// [`MAX_BATCH_QUERIES`]) and the server answers from one shared sweep,
    /// with one shared slice table: each tracker's install is refcount
    /// bumps via [`EdgeTracker::load_shared`]. `meanwhile` runs once, after
    /// the first frame is written and before its reply is read, so the edge
    /// works while the cloud searches. Decision-equal to the in-process
    /// [`emap_core::CloudService`] endpoint against a store of native
    /// 16-bit EEG: whole-count samples quantize exactly, so the trackers
    /// rebuild identical state.
    ///
    /// `meanwhile` runs exactly once on every path: with a failed connect
    /// or write it runs right after the failure; the retries, `Busy`
    /// backoff, the reconnect after an unresolvable reference and the
    /// degraded path all run after it. The connection lock is held across
    /// `meanwhile`, so it must not call this client — it would deadlock.
    ///
    /// An unresolvable reference triggers one reconnect-and-declare-
    /// nothing retry (both sides forget, every hit ships) — degradation,
    /// never divergence.
    ///
    /// Every [`ClientError`] maps to [`EmapError::Transport`]: from the
    /// edge's point of view a misbehaving cloud and an absent cloud call
    /// for the same response — keep tracking locally and retry later.
    /// Failure is all-or-nothing for the batch, so every slot reports it
    /// and the fleet degrades all of those sessions to local-only tracking
    /// for the tick.
    fn refresh_batch_overlapped(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
        meanwhile: &mut dyn FnMut(),
    ) -> Vec<Result<(), EmapError>> {
        assert_eq!(
            queries.len(),
            trackers.len(),
            "one tracker per query required"
        );
        if queries.is_empty() {
            meanwhile();
            return Vec::new();
        }
        // The first attempt's first exchange takes it.
        let mut meanwhile = Some(meanwhile);
        let mut tracked: Vec<Vec<SetId>> = trackers.iter().map(|t| t.tracked_ids()).collect();
        let mut detail = "delta refresh unresolvable after a full retry".to_string();
        for _attempt in 0..2 {
            match self.delta_refresh_batch(queries, &tracked, trackers, &mut meanwhile) {
                Ok(()) => return queries.iter().map(|_| Ok(())).collect(),
                Err(DeltaSetback::Failed(e)) => {
                    detail = e.to_string();
                    break;
                }
                Err(DeltaSetback::CacheMiss) => {
                    self.disconnect();
                    tracked.iter_mut().for_each(Vec::clear);
                }
            }
        }
        queries
            .iter()
            .map(|_| {
                Err(EmapError::Transport {
                    detail: detail.clone(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_jittered() {
        let client = RemoteCloud::new("127.0.0.1:1", RemoteCloudConfig::default());
        let cap = client.config.backoff_cap.mul_f64(1.25);
        let mut seen = Vec::new();
        for attempt in 1..6 {
            let d = client.backoff(attempt);
            assert!(d <= cap, "attempt {attempt}: {d:?} above cap");
            assert!(d >= client.config.backoff_base.mul_f64(0.74));
            seen.push(d);
        }
        // Jitter: not all equal once the cap is reached.
        assert!(seen.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn unreachable_server_is_a_typed_error() {
        // TEST-NET-1 address with a tiny timeout: connect cannot succeed.
        let config = RemoteCloudConfig {
            connect_timeout: Duration::from_millis(30),
            attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..RemoteCloudConfig::default()
        };
        let client = RemoteCloud::new("192.0.2.1:9", config);
        match client.ping() {
            Err(ClientError::Unreachable { attempts: 2, .. }) => {}
            other => panic!("expected Unreachable, got {other:?}"),
        }
    }

    #[test]
    fn jitter_streams_differ_per_address() {
        let a = RemoteCloud::new("10.0.0.1:80", RemoteCloudConfig::default());
        let b = RemoteCloud::new("10.0.0.2:80", RemoteCloudConfig::default());
        assert_ne!(
            a.jitter.load(Ordering::Relaxed),
            b.jitter.load(Ordering::Relaxed)
        );
    }
}
