//! OS readiness multiplexing: edge-triggered epoll behind a small
//! safe interface.
//!
//! Each fd is armed *edge-triggered* with `RDHUP`. The caller must drain
//! reads and writes to `WouldBlock` after each event — which the
//! reactor's state machines do anyway — and typically registers
//! connections with [`Interest::BOTH`] once, never touching interest
//! again: edge-triggering means an always-writable socket produces no
//! repeat events.
//!
//! Tokens are opaque `u64` cookies chosen by the caller (the reactor
//! packs a slab slot + generation into them) and are returned verbatim
//! with each [`Event`] — the poller never interprets them.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

use crate::sys;

/// Caller-chosen cookie identifying a registered fd. The poller returns
/// it verbatim in every [`Event`] for that fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// Which readiness directions an fd is registered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Interest in read readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Interest in write readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Interest in both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Whether read readiness is requested.
    #[must_use]
    pub fn is_readable(self) -> bool {
        self.readable
    }

    /// Whether write readiness is requested.
    #[must_use]
    pub fn is_writable(self) -> bool {
        self.writable
    }
}

/// One readiness notification for a registered fd.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: Token,
    /// The fd is readable (or has readable data before EOF).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The fd is in an error state, or the peer closed. Callers should
    /// attempt the pending read (to surface the real `io::Error` / EOF)
    /// and then tear the connection down.
    pub closed: bool,
}

fn epoll_bits(interest: Interest) -> u32 {
    let mut bits = sys::EPOLLRDHUP | sys::EPOLLET;
    if interest.is_readable() {
        bits |= sys::EPOLLIN;
    }
    if interest.is_writable() {
        bits |= sys::EPOLLOUT;
    }
    bits
}

/// Readiness multiplexer over many fds. See the module docs for the
/// edge-triggered contract.
pub struct Poller {
    epfd: RawFd,
    scratch: Vec<sys::EpollEvent>,
}

const SCRATCH_EVENTS: usize = 1024;

impl Poller {
    /// Opens an epoll instance.
    ///
    /// # Errors
    ///
    /// The `epoll_create1(2)` failure (fd or memory exhaustion).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::epoll_create()?,
            scratch: vec![sys::EpollEvent { events: 0, data: 0 }; SCRATCH_EVENTS],
        })
    }

    /// Registers `fd` under `token` with `interest`.
    ///
    /// The fd is armed edge-triggered (plus peer-close); note that
    /// registration itself delivers an edge for any direction that is
    /// already ready — a writable socket registered with
    /// [`Interest::BOTH`] reports writable on the next wait.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl(2)` failure.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_control(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            epoll_bits(interest),
            token.0,
        )
    }

    /// Removes `fd` from the interest set.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl(2)` failure. Deregistering an unknown
    /// fd is not an error: close paths converge here from several
    /// states and idempotence keeps them simple.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match sys::epoll_control(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` blocks indefinitely), appending notifications to
    /// `events`. Returns normally with no events on timeout or signal
    /// interruption.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_wait(2)` failure.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms = match timeout {
            None => -1,
            // Ceiling, so a 100µs deadline sleeps 1ms instead of busy-looping.
            Some(t) => {
                let ms = t.as_millis() + u128::from(t.subsec_nanos() % 1_000_000 != 0);
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        };
        let n = sys::epoll_wait_events(self.epfd, &mut self.scratch, timeout_ms)?;
        for ev in &self.scratch[..n] {
            // Copy packed fields out by value; references into a
            // packed struct are not allowed.
            let bits = ev.events;
            let data = ev.data;
            events.push(Event {
                token: Token(data),
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("epfd", &self.epfd).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn nonblocking_pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readiness_roundtrip() {
        let mut poller = Poller::new().unwrap();
        let (mut a, mut b) = nonblocking_pair();
        poller
            .register(a.as_raw_fd(), Token(7), Interest::READABLE)
            .unwrap();

        // Nothing written yet: a short wait must time out eventless.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(
            events.iter().all(|e| !e.readable),
            "spurious readable before any write"
        );

        b.write_all(b"ping").unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        let ev = events
            .iter()
            .find(|e| e.token == Token(7))
            .expect("readable event after peer write");
        assert!(ev.readable);

        let mut buf = [0u8; 8];
        assert_eq!(a.read(&mut buf).unwrap(), 4);

        // Peer close must surface as closed-or-readable so the state
        // machine attempts the read and observes EOF.
        drop(b);
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        let ev = events
            .iter()
            .find(|e| e.token == Token(7))
            .expect("event after peer close");
        assert!(ev.closed || ev.readable);

        poller.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn deregister_is_idempotent() {
        let mut poller = Poller::new().unwrap();
        let (a, _b) = nonblocking_pair();
        poller
            .register(a.as_raw_fd(), Token(3), Interest::BOTH)
            .unwrap();
        poller.deregister(a.as_raw_fd()).unwrap();
        poller.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn empty_wait_times_out() {
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }
}
