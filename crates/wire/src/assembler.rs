//! Incremental frame reassembly for readiness-driven transports.
//!
//! A nonblocking event loop reads whatever the socket has — half a
//! header, three frames and a torn fourth, one byte — and cannot use the
//! blocking [`crate::read_frame`] loop, which demands exact counts from
//! the stream. [`FrameAssembler`] inverts the flow: the caller *feeds*
//! bytes as they arrive and *drains* complete messages as they become
//! decodable. Three contracts make it safe under readiness semantics:
//!
//! * **Never blocks.** `feed` only appends; [`FrameAssembler::next_frame`]
//!   either yields a fully validated message, reports how many more bytes
//!   it needs, or returns the same typed [`WireError`] the blocking reader
//!   would — as soon as the error is knowable. A bad magic, an unsupported
//!   version, or an oversized length is rejected from the 16 header bytes
//!   alone, without waiting for (or allocating) the declared payload.
//! * **Copies each byte at most once.** Fed bytes land in one internal
//!   buffer; header parsing and payload decoding borrow from it in place.
//!   Consumed frames are compacted out lazily, so pipelined frames in a
//!   single read cost one copy total, not one per frame.
//! * **Errors are sticky.** After a malformed frame the stream cannot be
//!   resynced (the length prefix is gone), so every later call returns
//!   the same class of failure instead of misparsing garbage as frames —
//!   mirroring how the blocking path tears the connection down.
//!
//! The blocking [`crate::read_frame`] is itself built on this
//! assembler, so the server's event loop and the edge client share one
//! validation and decode path byte for byte.

use crate::crc::crc32_pair;
use crate::frame::{check_header, HEADER_LEN};
use crate::{Message, WireError};

/// How many buffered-but-consumed bytes may accumulate before the
/// assembler compacts its buffer. Keeps amortized cost at one move per
/// byte without memmoving after every small frame.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// An incremental, nonblocking reassembler of wire frames.
///
/// Feed it byte chunks in arrival order; drain messages with
/// [`FrameAssembler::next_frame`]. See the module docs for the
/// contracts.
///
/// # Example
///
/// ```
/// use emap_wire::{frame_bytes, FrameAssembler, Message, DEFAULT_MAX_PAYLOAD};
///
/// let bytes = frame_bytes(&Message::Ping);
/// let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
/// // Bytes arrive one at a time; the frame appears exactly when complete.
/// for (i, b) in bytes.iter().enumerate() {
///     asm.feed(std::slice::from_ref(b));
///     let frame = asm.next_frame()?;
///     if i + 1 < bytes.len() {
///         assert!(frame.is_none());
///     } else {
///         assert_eq!(frame, Some(Message::Ping));
///     }
/// }
/// # Ok::<(), emap_wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct FrameAssembler {
    max_payload: usize,
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    start: usize,
    /// Set when a frame failed validation: the stream has lost framing
    /// and every subsequent call reports the failure.
    poisoned: bool,
}

impl FrameAssembler {
    /// Creates an assembler enforcing `max_payload` (see
    /// [`crate::DEFAULT_MAX_PAYLOAD`]) before any payload allocation.
    #[must_use]
    pub fn new(max_payload: usize) -> Self {
        FrameAssembler {
            max_payload,
            buf: Vec::new(),
            start: 0,
            poisoned: false,
        }
    }

    /// Appends newly arrived bytes. This is the single copy each byte
    /// pays; decoding borrows from the internal buffer in place.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.poisoned {
            // The stream is already condemned; retaining more input would
            // only grow a buffer nobody will parse.
            return;
        }
        if self.start >= COMPACT_THRESHOLD {
            self.compact();
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes fed but not yet consumed by a yielded frame.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether a frame has *started* (at least one unconsumed byte is
    /// buffered) but not yet completed. Event loops arm the mid-frame
    /// read deadline exactly while this is true.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        !self.poisoned && self.pending() > 0
    }

    /// Whether a previous frame poisoned the stream. Once true, no call
    /// will ever yield another frame.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The minimum number of additional bytes that must be fed before
    /// [`FrameAssembler::next_frame`] could yield the frame currently
    /// being assembled: the rest of the header, or the rest of the
    /// declared payload. Returns 0 when a frame (or an error) is already
    /// available without further input.
    ///
    /// Blocking callers use this to read *exactly* one frame from a
    /// stream — never consuming bytes that belong to the next frame.
    #[must_use]
    pub fn needed(&self) -> usize {
        if self.poisoned {
            return 0;
        }
        let pending = self.pending();
        if pending < HEADER_LEN {
            return HEADER_LEN - pending;
        }
        let header = &self.buf[self.start..self.start + HEADER_LEN];
        let declared =
            u32::from_le_bytes(header[8..12].try_into().expect("4 header bytes")) as usize;
        if check_header(
            header.try_into().expect("HEADER_LEN bytes"),
            declared,
            self.max_payload,
        )
        .is_err()
        {
            // The error is already reportable without more input.
            return 0;
        }
        (HEADER_LEN + declared).saturating_sub(pending)
    }

    /// Yields the next complete frame, `Ok(None)` if more bytes are
    /// needed, or the typed decode error — reported as early as the
    /// buffered prefix makes it knowable, and sticky thereafter.
    ///
    /// # Errors
    ///
    /// The same [`WireError`] family as [`crate::read_frame`]:
    /// [`WireError::BadMagic`], [`WireError::UnsupportedVersion`],
    /// [`WireError::Oversized`] from the header alone;
    /// [`WireError::BadCrc`], [`WireError::UnknownType`], and
    /// [`WireError::BadPayload`] once the payload is present.
    pub fn next_frame(&mut self) -> Result<Option<Message>, WireError> {
        if self.poisoned {
            return Err(WireError::BadPayload {
                detail: "stream poisoned by an earlier malformed frame".into(),
            });
        }
        if self.pending() < HEADER_LEN {
            return Ok(None);
        }
        let header: [u8; HEADER_LEN] = self.buf[self.start..self.start + HEADER_LEN]
            .try_into()
            .expect("HEADER_LEN bytes");
        let declared_len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        let declared_crc = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        if let Err(e) = check_header(&header, declared_len, self.max_payload) {
            self.poisoned = true;
            return Err(e);
        }
        if self.pending() < HEADER_LEN + declared_len {
            return Ok(None);
        }
        let payload_at = self.start + HEADER_LEN;
        let payload = &self.buf[payload_at..payload_at + declared_len];
        let computed = crc32_pair(&header[..12], payload);
        if computed != declared_crc {
            self.poisoned = true;
            return Err(WireError::BadCrc {
                declared: declared_crc,
                computed,
            });
        }
        let msg = match Message::decode_payload(header[5], payload) {
            Ok(msg) => msg,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        self.start += HEADER_LEN + declared_len;
        if self.start == self.buf.len() {
            // Everything consumed: reset without memmove.
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(msg))
    }

    fn compact(&mut self) {
        self.buf.drain(..self.start);
        self.start = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frame_bytes, DEFAULT_MAX_PAYLOAD};

    #[test]
    fn pipelined_frames_in_one_feed() {
        let mut bytes = frame_bytes(&Message::Ping);
        bytes.extend(frame_bytes(&Message::Pong { total_sets: 7 }));
        bytes.extend(frame_bytes(&Message::Busy));
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        asm.feed(&bytes);
        assert_eq!(asm.next_frame().unwrap(), Some(Message::Ping));
        assert_eq!(
            asm.next_frame().unwrap(),
            Some(Message::Pong { total_sets: 7 })
        );
        assert_eq!(asm.next_frame().unwrap(), Some(Message::Busy));
        assert_eq!(asm.next_frame().unwrap(), None);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn header_errors_surface_before_the_payload_arrives() {
        // An oversized length must be rejected from the header alone —
        // the declared 4 GiB payload never arrives, and must not need to.
        let mut frame = frame_bytes(&Message::Ping);
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        asm.feed(&frame[..HEADER_LEN]);
        assert!(matches!(asm.next_frame(), Err(WireError::Oversized { .. })));
        assert_eq!(asm.needed(), 0);
        // And the failure is sticky.
        assert!(asm.next_frame().is_err());
        assert!(asm.is_poisoned());
    }

    #[test]
    fn needed_counts_down_exactly() {
        let frame = frame_bytes(&Message::Pong { total_sets: 3 });
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        assert_eq!(asm.needed(), HEADER_LEN);
        asm.feed(&frame[..5]);
        assert_eq!(asm.needed(), HEADER_LEN - 5);
        asm.feed(&frame[5..HEADER_LEN]);
        assert_eq!(asm.needed(), frame.len() - HEADER_LEN);
        asm.feed(&frame[HEADER_LEN..]);
        assert_eq!(asm.needed(), 0);
        assert!(asm.next_frame().unwrap().is_some());
        assert_eq!(asm.needed(), HEADER_LEN);
    }

    #[test]
    fn mid_frame_tracks_partial_state() {
        let frame = frame_bytes(&Message::Ping);
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        assert!(!asm.mid_frame());
        asm.feed(&frame[..3]);
        assert!(asm.mid_frame());
        asm.feed(&frame[3..]);
        assert!(asm.next_frame().unwrap().is_some());
        assert!(!asm.mid_frame());
    }
}
