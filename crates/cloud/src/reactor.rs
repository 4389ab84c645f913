//! The server's IO core: one event-loop thread multiplexing every
//! connection, a worker pool running only compute.
//!
//! The paper's fleet is thousands of wearables, each speaking for a few
//! milliseconds per second, so an idle session must cost a slab slot,
//! not a thread: connections live in a [`Slab`] on a single loop thread,
//! their sockets nonblocking and multiplexed through an
//! [`emap_reactor::Poller`] (edge-triggered epoll), and the worker pool
//! only ever sees *decoded requests*, never sockets.
//!
//! Per-connection state machine (DESIGN.md §11):
//!
//! ```text
//!            frame complete & admitted          reply encoded
//! Reading ───────────────────────────▶ Dispatched ───────────▶ Writing
//!    ▲   (assembler yields a message,   (job on the worker      (flush until
//!    │    permit taken at dispatch)      pool; socket silent)    WouldBlock)
//!    └──────────────────────────────────────────────────────────────┘
//!                     flush complete → try next pipelined frame
//! ```
//!
//! Contracts:
//!
//! * **One request in flight per connection.** A `Dispatched`
//!   connection is not read further; the assembler holds any pipelined
//!   successors, so replies come back in request order.
//! * **Admission at dispatch.** The loop thread takes the in-flight
//!   search permit *before* queueing a job — a saturated pool answers
//!   [`Message::Busy`] immediately and the job queue stays bounded by
//!   `max_inflight_searches`.
//! * **Per-connection delta state travels with the job.** The
//!   `delivered` set moves into the worker and back in the completion.
//! * **Malformed frames** (a foreign version byte included) get a typed
//!   error reply, an input drain so the close is a FIN rather than an
//!   RST, and a close.
//!
//! Deadlines (idle, mid-frame read, write) ride a [`TimerWheel`] with
//! at most one outstanding entry per connection: each connection tracks
//! `last_activity` and the earliest armed deadline; a fired entry is
//! re-validated against the live state and either evicts or re-arms at
//! the true due time. Workers hand completed responses back through a
//! channel plus a socketpair [`Waker`], so the loop never blocks
//! anywhere but the poller.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use emap_reactor::{
    wake_pair, Event, Interest, Key, Poller, Slab, TimerWheel, Token, WakeReceiver, Waker,
};
use emap_telemetry::{Counter, Gauge};
use emap_wire::{error_code, frame_bytes, FrameAssembler, Message};

use crate::delta::Delivered;
use crate::server::{admit, handle_admitted, Admission, PermitGuard, Shared};

/// Poller token for the listening socket.
const LISTENER_TOKEN: Token = Token(u64::MAX);
/// Poller token for the worker-completion wakeup pipe.
const WAKE_TOKEN: Token = Token(u64::MAX - 1);

/// Timer wheel granularity: deadlines fire at most this late.
const TIMER_TICK: Duration = Duration::from_millis(10);
/// Wheel slots; one revolution spans `TICK × SLOTS` = 5.12 s, so only
/// long idle deadlines ever wrap.
const TIMER_SLOTS: usize = 512;

/// Read/drain buffer size for the loop thread.
const READ_CHUNK: usize = 16 * 1024;

/// The server's running threads, owned by `CloudServer`.
pub(crate) struct ReactorHandle {
    loop_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    waker: Waker,
}

impl ReactorHandle {
    /// Joins the loop and the workers; the caller has set the shutdown
    /// flag, and the wakeup makes a loop parked in the poller notice it.
    pub(crate) fn join(&mut self) {
        self.waker.wake();
        if let Some(h) = self.loop_handle.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// `reactor_*` telemetry instruments, registered alongside the server's
/// `cloud_*` set and exposed through the same `StatsRequest` /
/// Prometheus paths.
struct Metrics {
    conns_reading: Gauge,
    conns_dispatched: Gauge,
    conns_writing: Gauge,
    wakeups: Counter,
    spurious_wakeups: Counter,
    partial_writes: Counter,
    evicted_idle: Counter,
}

impl Metrics {
    fn register(shared: &Shared) -> Metrics {
        let r = &shared.telemetry;
        Metrics {
            conns_reading: r.gauge("reactor_conns_reading"),
            conns_dispatched: r.gauge("reactor_conns_dispatched"),
            conns_writing: r.gauge("reactor_conns_writing"),
            wakeups: r.counter("reactor_wakeups_total"),
            spurious_wakeups: r.counter("reactor_spurious_wakeups_total"),
            partial_writes: r.counter("reactor_partial_writes_total"),
            evicted_idle: r.counter("reactor_evicted_idle_total"),
        }
    }

    fn state_gauge(&self, state: ConnState) -> &Gauge {
        match state {
            ConnState::Reading => &self.conns_reading,
            ConnState::Dispatched => &self.conns_dispatched,
            ConnState::Writing => &self.conns_writing,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Assembling the next request frame.
    Reading,
    /// A request is on the worker pool; the socket is left unread.
    Dispatched,
    /// A response is being flushed; partial writes resume on the next
    /// writable edge.
    Writing,
}

struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    state: ConnState,
    /// Encoded response being flushed (`Writing`), already sent up to
    /// `out_pos`.
    out: Vec<u8>,
    out_pos: usize,
    /// Close once `out` is flushed (protocol errors, illegal message
    /// types, shutdown).
    close_after_flush: bool,
    /// The stream lost framing: keep reading but discard the bytes, so
    /// our final error reply outruns an RST.
    discard_input: bool,
    /// An edge-triggered readable notification arrived while the state
    /// machine could not read; honored at the next `Reading` entry.
    read_ready: bool,
    /// The delta-dedup state; `None` exactly while it travels inside
    /// a dispatched job.
    delivered: Option<Delivered>,
    /// Last observed socket progress, the base for every deadline.
    last_activity: Instant,
    /// Earliest armed wheel entry for this connection, if any.
    timer_deadline: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, max_payload: usize, now: Instant) -> Conn {
        Conn {
            stream,
            asm: FrameAssembler::new(max_payload),
            state: ConnState::Reading,
            out: Vec::new(),
            out_pos: 0,
            close_after_flush: false,
            discard_input: false,
            // Readiness present before registration still gets an edge
            // at ADD time, but starting latched costs one WouldBlock
            // and removes any reliance on that.
            read_ready: true,
            delivered: Some(Delivered::new()),
            last_activity: now,
            timer_deadline: None,
        }
    }
}

/// One admitted request on its way to the worker pool.
struct Job {
    key: u64,
    msg: Message,
    delivered: Delivered,
    permit: Option<PermitGuard>,
}

/// A served request on its way back to the loop.
struct Completion {
    key: u64,
    /// The fully encoded response frame.
    bytes: Vec<u8>,
    close: bool,
    delivered: Delivered,
}

/// Starts the reactor: one loop thread plus `config.workers` compute
/// workers.
pub(crate) fn spawn(shared: Arc<Shared>, listener: TcpListener) -> io::Result<ReactorHandle> {
    let poller = Poller::new()?;
    let (waker, wake_rx) = wake_pair()?;
    let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<Completion>();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let worker_handles: Vec<JoinHandle<()>> = (0..shared.config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let waker = waker.clone();
            std::thread::spawn(move || worker_loop(&shared, &job_rx, &done_tx, &waker))
        })
        .collect();

    let loop_handle = std::thread::spawn(move || {
        ReactorLoop::new(shared, listener, poller, wake_rx, job_tx, done_rx).run();
    });

    Ok(ReactorHandle {
        loop_handle: Some(loop_handle),
        worker_handles,
        waker,
    })
}

/// Computes replies for dispatched jobs. Sockets never appear here: the
/// worker encodes the response into a buffer and hands it back.
fn worker_loop(
    shared: &Shared,
    job_rx: &Arc<Mutex<Receiver<Job>>>,
    done_tx: &Sender<Completion>,
    waker: &Waker,
) {
    loop {
        // Hold the lock only for the dequeue, never while serving.
        let job = job_rx.lock().expect("job queue lock poisoned").recv();
        let Ok(Job {
            key,
            msg,
            mut delivered,
            permit,
        }) = job
        else {
            return; // loop thread gone, channel closed
        };
        let (reply, close) = handle_admitted(shared, msg, &mut delivered, permit);
        let bytes = frame_bytes(&reply);
        let n = bytes.len() as u64;
        let c = &shared.counters;
        c.bytes_out.add(n);
        if let Message::SearchBatchDeltaResponse { slices, .. } = &reply {
            c.bytes_out_search.add(n);
            // The sample payload, 2 bytes per `i16` sample: `emap stats`
            // shows how much of the downlink is slice data versus framing.
            c.bytes_out_slice
                .add((slices.len() * emap_mdb::SIGNAL_SET_LEN * 2) as u64);
        }
        if done_tx
            .send(Completion {
                key,
                bytes,
                close,
                delivered,
            })
            .is_err()
        {
            return;
        }
        waker.wake();
    }
}

struct ReactorLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    poller: Poller,
    wake_rx: WakeReceiver,
    job_tx: Sender<Job>,
    done_rx: Receiver<Completion>,
    conns: Slab<Conn>,
    wheel: TimerWheel,
    metrics: Metrics,
    /// Jobs handed to the pool whose completions are still outstanding.
    dispatched: usize,
    /// Shutdown observed: listener retired, idle sessions closed.
    draining: bool,
}

impl ReactorLoop {
    fn new(
        shared: Arc<Shared>,
        listener: TcpListener,
        poller: Poller,
        wake_rx: WakeReceiver,
        job_tx: Sender<Job>,
        done_rx: Receiver<Completion>,
    ) -> ReactorLoop {
        let metrics = Metrics::register(&shared);
        ReactorLoop {
            shared,
            listener,
            poller,
            wake_rx,
            job_tx,
            done_rx,
            conns: Slab::new(),
            wheel: TimerWheel::new(TIMER_TICK, TIMER_SLOTS),
            metrics,
            dispatched: 0,
            draining: false,
        }
    }

    fn run(mut self) {
        if self
            .poller
            .register(
                self.listener.as_raw_fd(),
                LISTENER_TOKEN,
                Interest::READABLE,
            )
            .is_err()
        {
            return;
        }
        if self
            .poller
            .register(self.wake_rx.fd(), WAKE_TOKEN, Interest::READABLE)
            .is_err()
        {
            return;
        }

        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<u64> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
                if self.conns.is_empty() && self.dispatched == 0 {
                    break;
                }
            }
            let timeout = self.wheel.next_timeout(Instant::now());
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            self.metrics.wakeups.inc();

            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.wake_rx.drain(),
                    _ => self.conn_event(ev),
                }
            }

            let now = Instant::now();
            fired.clear();
            self.wheel.expired(now, &mut fired);
            for &raw in &fired {
                self.deadline_fired(Key::from_u64(raw), now);
            }

            let mut completions = 0usize;
            while let Ok(done) = self.done_rx.try_recv() {
                completions += 1;
                self.complete(done);
            }

            if events.is_empty() && fired.is_empty() && completions == 0 {
                self.metrics.spurious_wakeups.inc();
            }
        }
        // Dropping self closes every remaining socket and the job
        // channel; workers drain out on the closed channel.
    }

    /// Accepts until `WouldBlock`, shedding load past `max_sessions`
    /// with a best-effort `Busy`.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.draining {
                        drop(stream);
                        continue;
                    }
                    self.shared.counters.connections.inc();
                    if self.conns.len() >= self.shared.config.max_sessions.max(1) {
                        self.shared.counters.busy_rejections.inc();
                        // Best effort into the fresh socket's empty send
                        // buffer; a peer that can't take even that just
                        // sees the close.
                        let bytes = frame_bytes(&Message::Busy);
                        let _ = stream.set_nonblocking(true);
                        let _ = (&stream).write(&bytes);
                        self.shared.counters.bytes_out.add(bytes.len() as u64);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let now = Instant::now();
                    let key =
                        self.conns
                            .insert(Conn::new(stream, self.shared.config.max_payload, now));
                    let fd = self
                        .conns
                        .get(key)
                        .expect("freshly inserted connection")
                        .stream
                        .as_raw_fd();
                    // Edge-triggered: both directions armed once, for
                    // the connection's whole life.
                    if self
                        .poller
                        .register(fd, Token(key.as_u64()), Interest::BOTH)
                        .is_err()
                    {
                        self.conns.remove(key);
                        continue;
                    }
                    self.metrics.conns_reading.inc();
                    self.pump(key);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (ECONNABORTED, EMFILE):
                // give up this edge; the next arrival re-arms it.
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, ev: Event) {
        let key = Key::from_u64(ev.token.0);
        let Some(conn) = self.conns.get_mut(key) else {
            return; // stale event for a recycled slot
        };
        if ev.readable || ev.closed {
            conn.read_ready = true;
        }
        if ev.writable && conn.state == ConnState::Writing {
            self.flush(key);
        }
        self.pump(key);
    }

    /// Drives a connection's `Reading` state: ingest whatever the
    /// socket has, then either dispatch a completed frame, report a
    /// framing error, or arm the appropriate deadline and go back to
    /// sleep. No-op in other states (the readable edge stays latched).
    fn pump(&mut self, key: Key) {
        loop {
            let Some(conn) = self.conns.get_mut(key) else {
                return;
            };
            match conn.state {
                ConnState::Dispatched => return,
                ConnState::Writing => {
                    // While a post-error reply flushes, keep the input
                    // draining so the close is a FIN, not an RST.
                    if conn.read_ready && conn.discard_input {
                        conn.read_ready = false;
                        let _ = self.ingest(key);
                    }
                    return;
                }
                ConnState::Reading => {}
            }
            if conn.read_ready {
                conn.read_ready = false;
                if !self.ingest(key) {
                    return; // connection closed underneath us
                }
            }
            let Some(conn) = self.conns.get_mut(key) else {
                return;
            };
            match conn.asm.next_frame() {
                Ok(Some(msg)) => {
                    self.dispatch(key, msg);
                    // State is now Dispatched (or Writing for an inline
                    // Busy); the loop re-checks and returns.
                }
                Ok(None) => {
                    self.ensure_timer(key);
                    return;
                }
                Err(e) => {
                    self.shared.counters.protocol_errors.inc();
                    let detail = format!("malformed frame: {e}");
                    let Some(conn) = self.conns.get_mut(key) else {
                        return;
                    };
                    conn.discard_input = true;
                    self.enqueue_reply(
                        key,
                        &Message::ErrorReply {
                            code: error_code::BAD_REQUEST,
                            detail,
                        },
                        true,
                    );
                    return;
                }
            }
        }
    }

    /// Reads until `WouldBlock`, feeding the assembler (or the void,
    /// after a framing error). Returns false if the connection was
    /// closed (EOF or error).
    fn ingest(&mut self, key: Key) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(key) else {
                return false;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed. Anything short of a complete frame
                    // is abandoned.
                    self.close(key);
                    return false;
                }
                Ok(n) => {
                    self.shared.counters.bytes_in.add(n as u64);
                    conn.last_activity = Instant::now();
                    if !conn.discard_input {
                        conn.asm.feed(&chunk[..n]);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(key);
                    return false;
                }
            }
        }
    }

    /// Admits one decoded request: grants take their permit *here*, on
    /// the loop thread, and ride to the pool; exhausted permits answer
    /// `Busy` inline without touching a worker.
    fn dispatch(&mut self, key: Key, msg: Message) {
        match admit(&self.shared, &msg) {
            Admission::Busy => {
                // A Busy outcome is an arrival too: count and time it.
                let timer = self.shared.counters.request(&msg).map(|m| m.observe());
                drop(timer);
                self.enqueue_reply(key, &Message::Busy, false);
            }
            Admission::Granted(permit) => {
                let Some(conn) = self.conns.get_mut(key) else {
                    return;
                };
                let delivered = conn.delivered.take().unwrap_or_default();
                self.set_state(key, ConnState::Dispatched);
                self.dispatched += 1;
                if self
                    .job_tx
                    .send(Job {
                        key: key.as_u64(),
                        msg,
                        delivered,
                        permit,
                    })
                    .is_err()
                {
                    // No workers left (they only exit on shutdown).
                    self.dispatched -= 1;
                    self.close(key);
                }
            }
        }
    }

    /// Installs a served reply on its connection and starts flushing.
    fn complete(&mut self, done: Completion) {
        self.dispatched = self.dispatched.saturating_sub(1);
        let key = Key::from_u64(done.key);
        let Some(conn) = self.conns.get_mut(key) else {
            return; // connection force-closed during drain
        };
        conn.delivered = Some(done.delivered);
        conn.out = done.bytes;
        conn.out_pos = 0;
        conn.close_after_flush = done.close || self.draining;
        conn.last_activity = Instant::now();
        self.set_state(key, ConnState::Writing);
        self.flush(key);
    }

    /// Encodes and installs a loop-built reply (Busy, protocol error).
    fn enqueue_reply(&mut self, key: Key, msg: &Message, close_after: bool) {
        let bytes = frame_bytes(msg);
        self.shared.counters.bytes_out.add(bytes.len() as u64);
        let Some(conn) = self.conns.get_mut(key) else {
            return;
        };
        conn.out = bytes;
        conn.out_pos = 0;
        conn.close_after_flush = close_after || conn.close_after_flush;
        conn.last_activity = Instant::now();
        self.set_state(key, ConnState::Writing);
        self.flush(key);
    }

    /// Writes until done or `WouldBlock`. On completion the connection
    /// either closes (if so marked) or returns to `Reading` and
    /// immediately tries the next pipelined frame.
    fn flush(&mut self, key: Key) {
        loop {
            let Some(conn) = self.conns.get_mut(key) else {
                return;
            };
            debug_assert_eq!(conn.state, ConnState::Writing);
            if conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        self.close(key);
                        return;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_activity = Instant::now();
                        continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if conn.out_pos > 0 {
                            // Parked mid-frame on a full socket: this write
                            // was partial and resumes on a later writable
                            // edge.
                            self.metrics.partial_writes.inc();
                        }
                        self.ensure_timer(key);
                        return;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(key);
                        return;
                    }
                }
            }
            // Fully flushed.
            conn.out = Vec::new();
            conn.out_pos = 0;
            if conn.close_after_flush {
                self.close(key);
                return;
            }
            self.set_state(key, ConnState::Reading);
            self.pump(key);
            return;
        }
    }

    /// Re-validates a fired wheel entry against the connection's live
    /// state: evict if the state's budget truly elapsed, otherwise
    /// re-arm at the real due time. Lazy cancellation means most fired
    /// entries land here stale and simply re-arm or vanish.
    fn deadline_fired(&mut self, key: Key, now: Instant) {
        let Some(conn) = self.conns.get_mut(key) else {
            return; // connection already gone
        };
        conn.timer_deadline = None;
        let budget = match conn.state {
            ConnState::Dispatched => None, // workers own the clock here
            ConnState::Reading if !conn.asm.mid_frame() => Some(self.shared.config.idle_timeout),
            ConnState::Reading => Some(self.shared.config.read_timeout),
            ConnState::Writing => Some(self.shared.config.write_timeout),
        };
        let Some(budget) = budget else { return };
        let due = conn.last_activity + budget;
        if due > now {
            self.arm_timer(key, due);
            return;
        }
        match conn.state {
            ConnState::Reading if !conn.asm.mid_frame() => {
                // A silent session past its idle budget: close it
                // without ever having consumed a worker or a permit.
                self.metrics.evicted_idle.inc();
                self.close(key);
            }
            ConnState::Reading => {
                // Mid-frame stall: the peer gets the same typed error
                // as for any other frame that never became whole.
                self.shared.counters.protocol_errors.inc();
                let Some(conn) = self.conns.get_mut(key) else {
                    return;
                };
                conn.discard_input = true;
                self.enqueue_reply(
                    key,
                    &Message::ErrorReply {
                        code: error_code::BAD_REQUEST,
                        detail: "malformed frame: read timed out mid-frame".into(),
                    },
                    true,
                );
            }
            ConnState::Writing => self.close(key), // peer not draining us
            ConnState::Dispatched => unreachable!("no budget while dispatched"),
        }
    }

    /// Arms the wheel for `key` at `due` if no earlier entry is already
    /// outstanding — keeping at most one live entry per connection.
    fn arm_timer(&mut self, key: Key, due: Instant) {
        let Some(conn) = self.conns.get_mut(key) else {
            return;
        };
        match conn.timer_deadline {
            Some(existing) if existing <= due => {}
            _ => {
                conn.timer_deadline = Some(due);
                self.wheel.arm(due, key.as_u64());
            }
        }
    }

    /// Ensures the state-appropriate deadline is armed.
    fn ensure_timer(&mut self, key: Key) {
        let Some(conn) = self.conns.get_mut(key) else {
            return;
        };
        let budget = match conn.state {
            ConnState::Dispatched => return,
            ConnState::Reading if !conn.asm.mid_frame() => self.shared.config.idle_timeout,
            ConnState::Reading => self.shared.config.read_timeout,
            ConnState::Writing => self.shared.config.write_timeout,
        };
        let due = conn.last_activity + budget;
        self.arm_timer(key, due);
    }

    fn set_state(&mut self, key: Key, next: ConnState) {
        let Some(conn) = self.conns.get_mut(key) else {
            return;
        };
        if conn.state == next {
            return;
        }
        self.metrics.state_gauge(conn.state).dec();
        self.metrics.state_gauge(next).inc();
        conn.state = next;
    }

    fn close(&mut self, key: Key) {
        let Some(conn) = self.conns.remove(key) else {
            return;
        };
        self.metrics.state_gauge(conn.state).dec();
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        // Dropping `conn` closes the socket.
    }

    /// First-observation shutdown work: retire the listener, close
    /// every session that is merely waiting for its next frame, and
    /// mark in-flight ones to close after their reply flushes.
    fn begin_drain(&mut self) {
        if !self.draining {
            self.draining = true;
            let _ = self.poller.deregister(self.listener.as_raw_fd());
        }
        let waiting: Vec<Key> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Reading)
            .map(|(k, _)| k)
            .collect();
        for key in waiting {
            self.close(key);
        }
        let flushing: Vec<Key> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Writing)
            .map(|(k, _)| k)
            .collect();
        for key in flushing {
            if let Some(conn) = self.conns.get_mut(key) {
                conn.close_after_flush = true;
            }
        }
    }
}
