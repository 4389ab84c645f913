//! # emap-reactor — readiness-driven event-loop primitives for EMAP
//!
//! The paper's cloud tier serves *many mostly-idle edge sessions*: a
//! wearable uploads one second of EEG, waits for the verdict, and sits
//! silent until the next window. A thread-per-connection server pays a
//! full stack and a parked thread for every silent wearable, capping a
//! node at a few hundred sessions. This crate supplies the four
//! primitives a single-threaded readiness loop needs to hold 10k+ such
//! sessions instead:
//!
//! * [`Poller`] — OS readiness multiplexing: edge-triggered `epoll(7)`
//!   over raw syscalls (the build is registry-less; there is no `libc`
//!   crate).
//! * [`TimerWheel`] — per-connection idle/read/write deadlines with
//!   O(1) arm and lazy cancellation, so 10k timers cost one coarse
//!   wheel, not a sorted heap churned on every frame.
//! * [`Slab`] — dense token ↔ connection-state storage with generation
//!   tags, so a recycled slot never aliases a stale readiness event.
//! * [`Waker`] — a socketpair-based cross-thread wakeup, letting worker
//!   threads hand completed responses back to the loop without the loop
//!   ever blocking on a channel.
//!
//! `unsafe` is confined to the [`sys`] FFI module; every other module —
//! and every crate built on top of this one — keeps the workspace-wide
//! `forbid(unsafe_code)` discipline. `emap-cloud` composes these into
//! its reactor server core.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod poller;
pub mod slab;
#[allow(unsafe_code)]
pub mod sys;
pub mod timer;
pub mod wake;

pub use poller::{Event, Interest, Poller, Token};
pub use slab::{Key, Slab};
pub use timer::TimerWheel;
pub use wake::{wake_pair, WakeReceiver, Waker};
