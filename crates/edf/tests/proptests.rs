//! Property-based tests for the EDF-style codec: arbitrary recordings must
//! round-trip structurally, and sample values must round-trip within one
//! quantization step.

use emap_dsp::SampleRate;
use emap_edf::{Annotation, Channel, Recording, StartTime};
use emap_testkit::prelude::*;

fn arb_start_time() -> impl Strategy<Value = StartTime> {
    (1990u16..2100, 1u8..=12, 1u8..=28, 0u8..24, 0u8..60, 0u8..60)
        .prop_map(|(y, mo, d, h, mi, s)| StartTime::new(y, mo, d, h, mi, s).unwrap())
}

fn arb_channel() -> impl Strategy<Value = Channel> {
    (
        // EDF-style space padding cannot represent leading/trailing spaces,
        // so labels are generated pre-trimmed.
        "[a-zA-Z0-9][a-zA-Z0-9 ]{0,13}[a-zA-Z0-9]",
        prop::collection::vec(-480.0f32..480.0, 1..600),
        prop_oneof![
            Just(128.0f64),
            Just(173.61),
            Just(200.0),
            Just(256.0),
            Just(512.0)
        ],
    )
        .prop_map(|(label, samples, rate_hz)| {
            Channel::new(label, SampleRate::new(rate_hz).unwrap(), samples).unwrap()
        })
}

fn arb_annotation() -> impl Strategy<Value = Annotation> {
    (0.0f64..3600.0, 0.0f64..600.0, "[a-z-]{0,24}")
        .prop_map(|(onset, dur, label)| Annotation::new(onset, dur, label).unwrap())
}

fn arb_recording() -> impl Strategy<Value = Recording> {
    (
        "[a-zA-Z0-9-]{0,40}",
        "[a-zA-Z0-9-]{0,40}",
        arb_start_time(),
        prop::collection::vec(arb_channel(), 1..5),
        prop::collection::vec(arb_annotation(), 0..6),
    )
        .prop_map(|(pid, rid, t, channels, annotations)| {
            let mut b = Recording::builder(pid, rid)
                .start_time(t)
                .channels(channels);
            for a in annotations {
                b = b.annotation(a);
            }
            b.build().unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_structure(rec in arb_recording()) {
        let mut buf = Vec::new();
        rec.write_to(&mut buf).unwrap();
        let back = Recording::read_from(&mut buf.as_slice()).unwrap();

        prop_assert_eq!(back.patient_id(), rec.patient_id());
        prop_assert_eq!(back.recording_id(), rec.recording_id());
        prop_assert_eq!(back.start_time(), rec.start_time());
        prop_assert_eq!(back.channels().len(), rec.channels().len());
        prop_assert_eq!(back.annotations().len(), rec.annotations().len());
        for (a, b) in rec.channels().iter().zip(back.channels()) {
            prop_assert_eq!(a.label(), b.label());
            prop_assert_eq!(a.len(), b.len());
            prop_assert_eq!(a.rate().hz(), b.rate().hz());
        }
        for (a, b) in rec.annotations().iter().zip(back.annotations()) {
            prop_assert_eq!(a.label(), b.label());
            prop_assert!((a.onset_s() - b.onset_s()).abs() < 1e-12);
            prop_assert!((a.duration_s() - b.duration_s()).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_samples_within_one_step(rec in arb_recording()) {
        let mut buf = Vec::new();
        rec.write_to(&mut buf).unwrap();
        let back = Recording::read_from(&mut buf.as_slice()).unwrap();
        for (orig, dec) in rec.channels().iter().zip(back.channels()) {
            let step = orig.quantization_step() as f32;
            for (x, y) in orig.samples().iter().zip(dec.samples()) {
                prop_assert!((x - y).abs() <= step, "{} vs {}", x, y);
            }
        }
    }

    #[test]
    fn encode_is_deterministic(rec in arb_recording()) {
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        rec.write_to(&mut b1).unwrap();
        rec.write_to(&mut b2).unwrap();
        prop_assert_eq!(b1, b2);
    }

    /// Decoding must never panic on arbitrary byte soup — it either errors
    /// or (astronomically unlikely) parses.
    #[test]
    fn decode_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Recording::read_from(&mut bytes.as_slice());
    }

    /// Decoding must never panic on a corrupted valid stream.
    #[test]
    fn decode_total_on_bitflips(rec in arb_recording(), flips in prop::collection::vec((0usize..4096, 0u8..8), 1..8)) {
        let mut buf = Vec::new();
        rec.write_to(&mut buf).unwrap();
        for (pos, bit) in flips {
            let p = pos % buf.len();
            buf[p] ^= 1 << bit;
        }
        let _ = Recording::read_from(&mut buf.as_slice());
    }
}
