//! Binary snapshot persistence for [`Mdb`] — the stand-in for the paper's
//! MongoDB store.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      8 bytes  "EMAPMDB2"
//! n_sets     u64
//! per set:
//!   class    u8       0=normal 1=seizure 2=encephalopathy 3=stroke
//!   offset   u64
//!   dataset_id, recording_id, channel: u16 length + utf-8 bytes each
//!   samples  SIGNAL_SET_LEN × i16
//! ```
//!
//! A set holds whole 16-bit counts (see [`SignalSet::new`]), so its
//! samples are written as stored, two bytes each; the sign of a zero is
//! not a count and does not travel. The `EMAPMDB1` layout, which wrote
//! each sample as an `f32`, has no reader: its magic is a
//! [`MdbError::BadMagic`].

use std::io::{Read, Write};

use emap_datasets::SignalClass;

use crate::{Mdb, MdbError, Provenance, SignalSet, SIGNAL_SET_LEN};

/// Magic bytes identifying a snapshot stream.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"EMAPMDB2";

/// Generous ceiling on the declared set count, to reject corrupt headers
/// before attempting huge allocations.
const MAX_SETS: u64 = 1 << 32;

fn class_code(class: SignalClass) -> u8 {
    match class {
        SignalClass::Normal => 0,
        SignalClass::Seizure => 1,
        SignalClass::Encephalopathy => 2,
        SignalClass::Stroke => 3,
    }
}

fn class_from_code(code: u8) -> Result<SignalClass, MdbError> {
    Ok(match code {
        0 => SignalClass::Normal,
        1 => SignalClass::Seizure,
        2 => SignalClass::Encephalopathy,
        3 => SignalClass::Stroke,
        other => {
            return Err(MdbError::CorruptSnapshot {
                detail: format!("unknown class code {other}"),
            })
        }
    })
}

fn put_string(buf: &mut Vec<u8>, s: &str) -> Result<(), MdbError> {
    let bytes = s.as_bytes();
    if bytes.len() > usize::from(u16::MAX) {
        return Err(MdbError::CorruptSnapshot {
            detail: format!(
                "string of {} bytes exceeds the u16 length prefix",
                bytes.len()
            ),
        });
    }
    buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    buf.extend_from_slice(bytes);
    Ok(())
}

fn read_string<R: Read>(r: &mut R) -> Result<String, MdbError> {
    let mut len_raw = [0u8; 2];
    r.read_exact(&mut len_raw)?;
    let len = usize::from(u16::from_le_bytes(len_raw));
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes).map_err(|_| MdbError::CorruptSnapshot {
        detail: "string field is not utf-8".into(),
    })
}

pub(crate) fn write<W: Write>(mdb: &Mdb, mut w: W) -> Result<(), MdbError> {
    w.write_all(SNAPSHOT_MAGIC)?;
    w.write_all(&(mdb.len() as u64).to_le_bytes())?;
    for set in mdb.iter() {
        let p = set.provenance();
        let mut buf = Vec::with_capacity(
            16 + p.dataset_id.len() + p.recording_id.len() + p.channel.len() + SIGNAL_SET_LEN * 2,
        );
        buf.push(class_code(set.class()));
        buf.extend_from_slice(&p.offset.to_le_bytes());
        put_string(&mut buf, &p.dataset_id)?;
        put_string(&mut buf, &p.recording_id)?;
        put_string(&mut buf, &p.channel)?;
        for count in crate::counts(set.samples()) {
            buf.extend_from_slice(&count.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

pub(crate) fn read<R: Read>(mut r: R) -> Result<Mdb, MdbError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != SNAPSHOT_MAGIC {
        return Err(MdbError::BadMagic { found: magic });
    }
    let mut count_raw = [0u8; 8];
    r.read_exact(&mut count_raw)?;
    let n = u64::from_le_bytes(count_raw);
    if n > MAX_SETS {
        return Err(MdbError::CorruptSnapshot {
            detail: format!("declared {n} sets exceeds the sanity limit"),
        });
    }
    let mut mdb = Mdb::new();
    for _ in 0..n {
        let mut head = [0u8; 9];
        r.read_exact(&mut head)?;
        let class = class_from_code(head[0])?;
        let offset = u64::from_le_bytes(head[1..].try_into().expect("8 of 9 bytes"));
        let dataset_id = read_string(&mut r)?;
        let recording_id = read_string(&mut r)?;
        let channel = read_string(&mut r)?;
        let mut raw = vec![0u8; SIGNAL_SET_LEN * 2];
        r.read_exact(&mut raw)?;
        let samples = raw
            .chunks_exact(2)
            .map(|word| f32::from(i16::from_le_bytes([word[0], word[1]])))
            .collect();
        mdb.insert(SignalSet::new(
            samples,
            class,
            Provenance {
                dataset_id,
                recording_id,
                channel,
                offset,
            },
        )?);
    }
    Ok(mdb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(class: SignalClass, offset: u64) -> SignalSet {
        SignalSet::new(
            (0..SIGNAL_SET_LEN)
                .map(|i| (i as f32 * 0.01).sin())
                .collect(),
            class,
            Provenance {
                dataset_id: "dataset-α".into(), // non-ascii ok: utf-8 strings
                recording_id: "rec".into(),
                channel: "EEG C3".into(),
                offset,
            },
        )
        .unwrap()
    }

    fn sample() -> Mdb {
        let mut m = Mdb::new();
        m.insert(set(SignalClass::Normal, 0));
        m.insert(set(SignalClass::Seizure, 1000));
        m.insert(set(SignalClass::Encephalopathy, 2000));
        m.insert(set(SignalClass::Stroke, 3000));
        m
    }

    #[test]
    fn roundtrip_exact() {
        let mdb = sample();
        let mut buf = Vec::new();
        mdb.write_snapshot(&mut buf).unwrap();
        let back = Mdb::read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(back.len(), mdb.len());
        for (a, b) in mdb.iter().zip(back.iter()) {
            assert_eq!(a, b);
        }
    }

    /// Whatever `SignalSet::new` stores reads back equal: half counts it
    /// rounded, both ends of the 16-bit range and both zeros (equal in
    /// value; the sign of a zero does not travel), at two bytes a sample.
    #[test]
    fn every_store_built_through_signal_set_new_reads_back_equal() {
        let edges = [
            -0.0f32, 0.0, -32768.0, 32767.0, -32768.4, 32767.4, 2.5, -2.5,
        ];
        let samples: Vec<f32> = (0..SIGNAL_SET_LEN)
            .map(|i| {
                edges
                    .get(i)
                    .copied()
                    .unwrap_or((i as f32 * 0.37).sin() * 900.7)
            })
            .collect();
        let mut mdb = sample();
        mdb.insert(
            SignalSet::new(
                samples,
                SignalClass::Seizure,
                set(SignalClass::Seizure, 9).provenance().clone(),
            )
            .unwrap(),
        );
        let mut buf = Vec::new();
        mdb.write_snapshot(&mut buf).unwrap();
        let strings: usize = mdb
            .iter()
            .map(|s| {
                let p = s.provenance();
                6 + p.dataset_id.len() + p.recording_id.len() + p.channel.len()
            })
            .sum();
        assert_eq!(
            buf.len(),
            16 + mdb.len() * (9 + 2 * SIGNAL_SET_LEN) + strings
        );
        let back = Mdb::read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(back.len(), mdb.len());
        for (a, b) in mdb.iter().zip(back.iter()) {
            assert_eq!(a, b);
        }
        let last = back.get(crate::SetId(4)).unwrap().samples();
        assert_eq!(
            &last[..8],
            [0.0, 0.0, -32768.0, 32767.0, -32768.0, 32767.0, 3.0, -3.0]
        );
    }

    /// The `f32` layout has no reader: its magic is not this one.
    #[test]
    fn an_f32_snapshot_is_bad_magic() {
        let mut buf = Vec::new();
        sample().write_snapshot(&mut buf).unwrap();
        buf[..8].copy_from_slice(b"EMAPMDB1");
        assert!(matches!(
            Mdb::read_snapshot(&mut buf.as_slice()),
            Err(MdbError::BadMagic { found }) if &found == b"EMAPMDB1"
        ));
    }

    #[test]
    fn empty_mdb_roundtrips() {
        let mut buf = Vec::new();
        Mdb::new().write_snapshot(&mut buf).unwrap();
        assert_eq!(Mdb::read_snapshot(&mut buf.as_slice()).unwrap().len(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        sample().write_snapshot(&mut buf).unwrap();
        buf[3] ^= 0xFF;
        assert!(matches!(
            Mdb::read_snapshot(&mut buf.as_slice()),
            Err(MdbError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        sample().write_snapshot(&mut buf).unwrap();
        for cut in [4usize, 16, 100, buf.len() - 1] {
            assert!(Mdb::read_snapshot(&mut buf[..cut].as_ref()).is_err());
        }
    }

    #[test]
    fn absurd_count_rejected() {
        let mut buf = Vec::new();
        sample().write_snapshot(&mut buf).unwrap();
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Mdb::read_snapshot(&mut buf.as_slice()),
            Err(MdbError::CorruptSnapshot { .. })
        ));
    }

    #[test]
    fn unknown_class_code_rejected() {
        let mut buf = Vec::new();
        sample().write_snapshot(&mut buf).unwrap();
        buf[16] = 77; // first set's class byte
        assert!(matches!(
            Mdb::read_snapshot(&mut buf.as_slice()),
            Err(MdbError::CorruptSnapshot { .. })
        ));
    }
}
