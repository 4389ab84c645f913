//! Little-endian payload (de)serialization helpers.
//!
//! [`PayloadWriter`] appends typed fields to a byte buffer;
//! [`PayloadReader`] consumes them back, returning
//! [`WireError::BadPayload`] on any shortfall instead of panicking.
//! Floating-point values travel as raw IEEE-754 bit patterns, so a value
//! round-trips bit-exactly — the loopback pipeline's decision-equality
//! guarantee depends on that.

use crate::WireError;

/// Longest string field accepted on the wire (labels, provenance ids).
pub const MAX_STRING_LEN: usize = 4096;

/// Appends little-endian fields to a growing payload buffer.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Creates an empty writer with some capacity preallocated.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        PayloadWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Finishes, returning the payload bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string (`u32` length + bytes).
    pub fn put_str(&mut self, s: &str) {
        debug_assert!(s.len() <= MAX_STRING_LEN, "string field exceeds wire cap");
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `f32` slice (`u32` count + bit patterns).
    ///
    /// Writes through a pre-sized window instead of growing byte-by-byte:
    /// slice tables put hundreds of kilobytes through this per response,
    /// and the fixed-size chunk copies vectorize.
    pub fn put_f32_slice(&mut self, samples: &[f32]) {
        self.put_u32(samples.len() as u32);
        let start = self.buf.len();
        self.buf.resize(start + samples.len() * 4, 0);
        for (dst, s) in self.buf[start..].chunks_exact_mut(4).zip(samples) {
            dst.copy_from_slice(&s.to_le_bytes());
        }
    }

    /// Appends a `u64` as an LEB128 varint (1 byte for values < 128, at
    /// most [`MAX_VARINT_LEN`] bytes). Signal-set IDs are small sequential
    /// integers in practice, so this is the 1–2-byte encoding the delta
    /// frames use wherever an ID travels per hit.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends raw `i16` sample words with **no** count prefix —
    /// quantized slices have a protocol-fixed length, so the count would
    /// be dead weight on every table entry.
    pub fn put_i16_samples(&mut self, samples: &[i16]) {
        let start = self.buf.len();
        self.buf.resize(start + samples.len() * 2, 0);
        for (dst, s) in self.buf[start..].chunks_exact_mut(2).zip(samples) {
            dst.copy_from_slice(&s.to_le_bytes());
        }
    }
}

/// Longest accepted LEB128 varint (a full `u64` needs ten 7-bit groups).
pub const MAX_VARINT_LEN: usize = 10;

/// Consumes little-endian fields from a payload slice.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Starts reading at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every payload byte was consumed — trailing garbage is
    /// as malformed as a shortfall.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] when bytes remain.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::BadPayload {
                detail: format!("{} trailing bytes after message", self.remaining()),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::BadPayload {
                detail: format!(
                    "payload truncated reading {what}: need {n} bytes, {} left",
                    self.remaining()
                ),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] on shortfall.
    pub fn get_u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] on shortfall.
    pub fn get_u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] on shortfall.
    pub fn get_u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] on shortfall.
    pub fn get_u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] on shortfall.
    pub fn get_f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string, enforcing [`MAX_STRING_LEN`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] on shortfall, an oversized length
    /// prefix, or invalid UTF-8.
    pub fn get_str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.get_u32(what)? as usize;
        if len > MAX_STRING_LEN {
            return Err(WireError::BadPayload {
                detail: format!("string field {what} declares {len} bytes (cap {MAX_STRING_LEN})"),
            });
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadPayload {
            detail: format!("string field {what} is not valid UTF-8"),
        })
    }

    /// Reads a length-prefixed `f32` slice whose count must equal
    /// `expected`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] on shortfall or a count mismatch.
    pub fn get_f32_slice(&mut self, expected: usize, what: &str) -> Result<Vec<f32>, WireError> {
        let n = self.get_u32(what)? as usize;
        if n != expected {
            return Err(WireError::BadPayload {
                detail: format!("{what} declares {n} samples, expected {expected}"),
            });
        }
        let bytes = self.take(n * 4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads a length-prefixed `f32` slice of *any* declared count up to
    /// `cap` — for fields whose length the application layer validates
    /// (e.g. ingest samples, where a wrong-length vector must reach the
    /// server so it can answer with a typed error instead of the decoder
    /// killing the frame). The cap only bounds the allocation a hostile
    /// length prefix can demand; `take` still verifies the bytes are
    /// actually present before allocating the vector.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] on shortfall or a count above
    /// `cap`.
    pub fn get_f32_slice_capped(&mut self, cap: usize, what: &str) -> Result<Vec<f32>, WireError> {
        let n = self.get_u32(what)? as usize;
        if n > cap {
            return Err(WireError::BadPayload {
                detail: format!("{what} declares {n} samples (cap {cap})"),
            });
        }
        let bytes = self.take(n * 4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads an LEB128 varint written by [`PayloadWriter::put_varint`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] on shortfall, on a varint longer
    /// than [`MAX_VARINT_LEN`] bytes, or on one that overflows `u64`.
    pub fn get_varint(&mut self, what: &str) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for i in 0..MAX_VARINT_LEN {
            let byte = self.get_u8(what)?;
            let group = u64::from(byte & 0x7f);
            // The tenth group may only carry the single remaining bit.
            if i == MAX_VARINT_LEN - 1 && group > 1 {
                return Err(WireError::BadPayload {
                    detail: format!("varint field {what} overflows u64"),
                });
            }
            v |= group << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::BadPayload {
            detail: format!("varint field {what} exceeds {MAX_VARINT_LEN} bytes"),
        })
    }

    /// Reads exactly `expected` raw `i16` sample words (no count prefix),
    /// mirroring [`PayloadWriter::put_i16_samples`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] on shortfall.
    pub fn get_i16_samples(&mut self, expected: usize, what: &str) -> Result<Vec<i16>, WireError> {
        let bytes = self.take(expected * 2, what)?;
        Ok(bytes
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = PayloadWriter::default();
        w.put_u8(7);
        w.put_u16(513);
        w.put_u32(1 << 20);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.125);
        w.put_str("emap");
        w.put_f32_slice(&[1.5, -2.25, f32::MIN_POSITIVE]);
        let bytes = w.into_bytes();

        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u16("b").unwrap(), 513);
        assert_eq!(r.get_u32("c").unwrap(), 1 << 20);
        assert_eq!(r.get_u64("d").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64("e").unwrap(), -0.125);
        assert_eq!(r.get_str("f").unwrap(), "emap");
        assert_eq!(
            r.get_f32_slice(3, "g").unwrap(),
            vec![1.5, -2.25, f32::MIN_POSITIVE]
        );
        r.finish().unwrap();
    }

    #[test]
    fn shortfall_is_typed() {
        let mut r = PayloadReader::new(&[1, 2]);
        assert!(matches!(
            r.get_u32("field"),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let r = PayloadReader::new(&[0]);
        assert!(matches!(r.finish(), Err(WireError::BadPayload { .. })));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = PayloadWriter::default();
        w.put_u32(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(r.get_str("s"), Err(WireError::BadPayload { .. })));
    }

    #[test]
    fn huge_string_length_rejected_without_allocation() {
        let mut w = PayloadWriter::default();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(r.get_str("s"), Err(WireError::BadPayload { .. })));
    }

    #[test]
    fn sample_count_mismatch_rejected() {
        let mut w = PayloadWriter::default();
        w.put_f32_slice(&[0.0; 4]);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(
            r.get_f32_slice(5, "samples"),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn varint_roundtrip_across_group_boundaries() {
        let values = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut w = PayloadWriter::default();
        for &v in &values {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_varint("v").unwrap(), v);
        }
        r.finish().unwrap();
        // Small IDs really are one byte — the delta-frame size math counts on it.
        let mut w = PayloadWriter::default();
        w.put_varint(42);
        assert_eq!(w.into_bytes().len(), 1);
    }

    #[test]
    fn overlong_and_overflowing_varints_rejected() {
        // Eleven continuation bytes can never be a valid u64 varint.
        let mut r = PayloadReader::new(&[0x80; 11]);
        assert!(matches!(
            r.get_varint("v"),
            Err(WireError::BadPayload { .. })
        ));
        // Ten bytes whose top group carries more than u64's last bit.
        let mut overflow = vec![0xff; 9];
        overflow.push(0x02);
        let mut r = PayloadReader::new(&overflow);
        assert!(matches!(
            r.get_varint("v"),
            Err(WireError::BadPayload { .. })
        ));
        // Truncated mid-varint is a shortfall, not a panic.
        let mut r = PayloadReader::new(&[0x80]);
        assert!(matches!(
            r.get_varint("v"),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn i16_samples_roundtrip() {
        let mut w = PayloadWriter::default();
        w.put_i16_samples(&[i16::MIN, -1, 0, 1, i16::MAX]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 5 * 2);
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(
            r.get_i16_samples(5, "q").unwrap(),
            vec![i16::MIN, -1, 0, 1, i16::MAX]
        );
        r.finish().unwrap();
        // A shortfall is typed.
        let mut r = PayloadReader::new(&[0, 1, 2]);
        assert!(matches!(
            r.get_i16_samples(2, "q"),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn nan_and_infinity_round_trip_bit_exactly() {
        let mut w = PayloadWriter::default();
        w.put_f64(f64::NAN);
        w.put_f32_slice(&[f32::INFINITY, f32::NEG_INFINITY]);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert!(r.get_f64("nan").unwrap().is_nan());
        let s = r.get_f32_slice(2, "inf").unwrap();
        assert_eq!(s, vec![f32::INFINITY, f32::NEG_INFINITY]);
    }
}
