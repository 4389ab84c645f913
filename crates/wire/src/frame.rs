//! Frame layer: a fixed 16-byte header in front of every message payload.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "EMW1"
//! 4       1     protocol version (exactly 5; anything else is rejected)
//! 5       1     message type byte
//! 6       2     reserved (written 0, ignored on read)
//! 8       4     payload length, u32 LE
//! 12      4     CRC-32 (IEEE) of header bytes 0..12 + payload, u32 LE
//! 16      len   payload
//! ```
//!
//! There is one protocol version, [`VERSION`]. A frame stamped with any
//! other version byte is rejected from the header alone with
//! [`WireError::UnsupportedVersion`] — before its payload is read — so a
//! peer built against another message set (version 4 still had the
//! single-query search exchanges) gets a typed error on its first frame
//! instead of an unknown type mid-session. The CRC covers the header prefix as well as the
//! payload: a link flip in the type byte cannot transmute a message into
//! a *different valid* one (`IngestAck` ↔ `Pong` share a payload shape).
//!
//! The length field is validated against a caller-supplied cap *before*
//! any payload allocation, so a corrupt or hostile length can neither
//! panic nor exhaust memory; the CRC is validated before the payload is
//! parsed, so a flipped link bit — header prefix or payload — surfaces as
//! [`WireError::BadCrc`].

use std::io::{Read, Write};

use crate::crc::crc32_pair;
use crate::{Message, WireError};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"EMW1";

/// The one protocol version: stamped into every frame written and
/// required of every frame read.
pub const VERSION: u8 = 5;

/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 16;

/// Default cap on payload length (32 MiB) — comfortably above the largest
/// legitimate message (a 64-query batch response of top-100 slice
/// downloads is ≈ 27 MiB; a one-query top-100 response is ≈ 400 KiB),
/// far below anything that could exhaust memory.
pub const DEFAULT_MAX_PAYLOAD: usize = 32 << 20;

/// Encodes `msg` as a complete frame (header + payload).
#[must_use]
pub fn frame_bytes(msg: &Message) -> Vec<u8> {
    let payload = msg.encode_payload();
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(msg.type_byte());
    frame.extend_from_slice(&[0, 0]);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32_pair(&frame[..12], &payload);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Writes `msg` as one frame, returning the bytes put on the wire.
///
/// # Errors
///
/// Returns [`WireError::Io`] on stream failure (including a write
/// deadline expiring).
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> Result<usize, WireError> {
    let frame = frame_bytes(msg);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Reads exactly one frame and decodes its message.
///
/// Built on [`crate::FrameAssembler`], so the blocking client path and
/// the nonblocking server event loop validate and decode identically.
/// The assembler's byte accounting keeps this an *exact* read: the
/// header, then precisely the declared payload — bytes of a pipelined
/// successor frame are never consumed.
///
/// # Errors
///
/// Returns [`WireError::Io`] on stream failure or EOF, and the typed
/// decode errors ([`WireError::BadMagic`], [`WireError::UnsupportedVersion`],
/// [`WireError::Oversized`], [`WireError::BadCrc`], …) on malformed
/// frames. Never panics and never allocates beyond `max_payload`.
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> Result<Message, WireError> {
    let mut asm = crate::FrameAssembler::new(max_payload);
    let mut chunk = Vec::new();
    loop {
        if let Some(msg) = asm.next_frame()? {
            return Ok(msg);
        }
        let need = asm.needed();
        debug_assert!(need > 0, "no frame, no error, but nothing needed");
        // One exact read per assembler request: the 16-byte header, then
        // the complete declared payload in a single call.
        chunk.resize(need, 0);
        r.read_exact(&mut chunk)?;
        asm.feed(&chunk);
    }
}

/// Validates everything the header states before any payload I/O.
pub(crate) fn check_header(
    header: &[u8; HEADER_LEN],
    len: usize,
    max_payload: usize,
) -> Result<(), WireError> {
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic {
            found: header[0..4].try_into().unwrap(),
        });
    }
    if header[4] != VERSION {
        return Err(WireError::UnsupportedVersion { found: header[4] });
    }
    if len > max_payload {
        return Err(WireError::Oversized {
            len: len as u64,
            max: max_payload as u64,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeltaQuery;
    use std::io::Cursor;

    fn ping_frame() -> Vec<u8> {
        frame_bytes(&Message::Ping)
    }

    #[test]
    fn roundtrip_through_a_stream() {
        let msg = Message::SearchBatchDeltaRequest {
            queries: vec![DeltaQuery {
                second: (0..256).map(|i| i as f32 * 0.01).collect(),
                tracked: vec![],
            }],
        };
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, &msg).unwrap();
        assert_eq!(n, buf.len());
        let back = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn pipelined_frames_read_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Ping).unwrap();
        write_frame(&mut buf, &Message::Pong { total_sets: 5 }).unwrap();
        write_frame(&mut buf, &Message::Busy).unwrap();
        let mut cursor = Cursor::new(&buf);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).unwrap(),
            Message::Ping
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).unwrap(),
            Message::Pong { total_sets: 5 }
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).unwrap(),
            Message::Busy
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = ping_frame();
        frame[0..4].copy_from_slice(b"HTTP");
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadMagic { found }) if &found == b"HTTP"
        ));
    }

    #[test]
    fn version_mismatch_rejected() {
        for bad in [0u8, 1, 2, 3, 4, VERSION + 1, 0x7f] {
            let mut frame = ping_frame();
            frame[4] = bad;
            assert!(
                matches!(
                    read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_PAYLOAD),
                    Err(WireError::UnsupportedVersion { found }) if found == bad
                ),
                "version {bad} was not rejected"
            );
        }
    }

    #[test]
    fn corrupt_type_byte_fails_crc() {
        // IngestAck and Pong share a payload shape and differ by one type
        // bit; the header-covering CRC keeps a link flip from transmuting
        // one into the other.
        let mut frame = frame_bytes(&Message::Pong { total_sets: 9 });
        frame[5] ^= 0x02;
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = ping_frame();
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_PAYLOAD),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let msg = Message::ErrorReply {
            code: 7,
            detail: "something".into(),
        };
        let mut frame = frame_bytes(&msg);
        *frame.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let frame = frame_bytes(&Message::Pong { total_sets: 3 });
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 2] {
            let err = read_frame(&mut Cursor::new(&frame[..cut]), DEFAULT_MAX_PAYLOAD).unwrap_err();
            assert!(err.is_io(), "cut {cut}: {err}");
        }
    }

    #[test]
    fn reserved_bytes_are_crc_covered() {
        // The parser never reads the reserved bytes, but the CRC covers
        // them: a frame mutated in transit is rejected wholesale rather
        // than trusted piecemeal.
        let mut frame = ping_frame();
        frame[6] = 0xaa;
        frame[7] = 0x55;
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn per_connection_cap_is_enforced() {
        let frame = frame_bytes(&Message::SearchBatchDeltaRequest {
            queries: vec![DeltaQuery {
                second: vec![0.0; 256],
                tracked: vec![],
            }],
        });
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), 64),
            Err(WireError::Oversized { len: _, max: 64 })
        ));
    }
}
