//! Offline stand-in for `bytes`: the little-endian `Buf`/`BufMut` accessors
//! the EDF codec and the MDB snapshot format use, with `BytesMut` as a
//! `Vec<u8>`. Like the published crate, a `get_*` past the end panics.

use std::ops::{Deref, DerefMut};

pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, n: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_i16_le(&mut self) -> i16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        i16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i16_le(&mut self, v: i16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut(Vec::with_capacity(capacity))
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::{Buf, BufMut, BytesMut};

    #[test]
    fn little_endian_roundtrip() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(7);
        b.put_i16_le(-2);
        b.put_u16_le(513);
        b.put_u64_le(u64::MAX - 1);
        b.put_f32_le(1.5);
        b.put_f64_le(-0.25);
        b.put_slice(b"xy");
        let mut r = &b[..];
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_i16_le(), -2);
        assert_eq!(r.get_u16_le(), 513);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_f64_le(), -0.25);
        assert_eq!(r.remaining(), 2);
    }
}
