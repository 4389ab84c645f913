//! Raw readiness syscalls: `epoll(7)`, declared directly against the C
//! library.
//!
//! The build is registry-less (no `libc` crate available), so the tiny
//! slice of the C ABI the poller needs is declared here by hand. This is
//! the **only** module in the workspace that contains `unsafe`; every
//! declaration is a straight transcription of the Linux man pages, and
//! each wrapper converts the `-1`/`errno` convention into
//! [`io::Result`] at the boundary so callers never see a raw return
//! code.
//!
//! Everything takes borrowed, caller-owned buffers; no pointer outlives
//! its call. `epoll_wait` writes into a `&mut [..]` whose length is
//! passed alongside, so the kernel can never write past what Rust
//! allocated.

#![allow(non_camel_case_types)]

use std::io;
use std::os::unix::io::RawFd;

type c_int = i32;

/// `struct epoll_event` — packed on x86-64, natural layout elsewhere,
/// matching the kernel ABI (`epoll_ctl(2)` NOTES).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// `EPOLL*` readiness bits.
    pub events: u32,
    /// Caller-chosen cookie returned verbatim with each event.
    pub data: u64,
}

/// Close the epoll fd on `exec`.
pub const EPOLL_CLOEXEC: c_int = 0o2000000;
/// `epoll_ctl` op: add an fd to the interest list.
pub const EPOLL_CTL_ADD: c_int = 1;
/// `epoll_ctl` op: remove an fd from the interest list.
pub const EPOLL_CTL_DEL: c_int = 2;

/// Readable (data, or EOF, available).
pub const EPOLLIN: u32 = 0x001;
/// Writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd.
pub const EPOLLERR: u32 = 0x008;
/// Hangup: both halves closed.
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half (half-close detection).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub const EPOLLET: u32 = 1 << 31;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Creates an epoll instance with `CLOEXEC` set.
///
/// # Errors
///
/// The `epoll_create1(2)` failure, as an [`io::Error`].
pub fn epoll_create() -> io::Result<RawFd> {
    // SAFETY: no pointers; the kernel allocates and returns a new fd.
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// Adds or removes `fd` in the interest list of `epfd`.
///
/// # Errors
///
/// The `epoll_ctl(2)` failure, as an [`io::Error`].
pub fn epoll_control(epfd: RawFd, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    // SAFETY: `ev` is a live stack value for the duration of the call;
    // the kernel only reads it (and ignores it entirely for DEL).
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

/// Waits for readiness on `epfd`, filling `events` from the front.
/// Returns the number of events written; `0` on timeout or `EINTR`.
///
/// # Errors
///
/// Any `epoll_wait(2)` failure other than `EINTR`.
pub fn epoll_wait_events(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout_ms: c_int,
) -> io::Result<usize> {
    debug_assert!(!events.is_empty());
    // SAFETY: the out-pointer and capacity describe one live mutable
    // slice; the kernel writes at most `len` entries into it.
    let ret = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms) };
    match cvt(ret) {
        Ok(n) => Ok(n as usize),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        Err(e) => Err(e),
    }
}

/// Closes a descriptor this crate opened (the epoll fd). Errors are
/// ignored — close-on-drop has nobody to report to, and the fd is gone
/// either way.
pub fn close_fd(fd: RawFd) {
    // SAFETY: only ever called on an fd this crate created and owns.
    let _ = unsafe { close(fd) };
}
