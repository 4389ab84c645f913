//! Property-based tests for the wire codec: every message type round-trips
//! bit-exactly through a frame, and *no* byte stream — truncated, bit-flipped,
//! or fully random — can make the decoder panic.

use emap_datasets::SignalClass;
use emap_mdb::{Provenance, SetId, SIGNAL_SET_LEN};
use emap_search::SearchWork;
use emap_testkit::prelude::*;
use emap_wire::{
    frame_bytes, read_frame, DeltaHit, DeltaQuery, DeltaSearchResult, FrameAssembler, Message,
    QuantizedSlice, WireError, DEFAULT_MAX_PAYLOAD, MAGIC, VERSION,
};

fn arb_class() -> impl Strategy<Value = SignalClass> {
    prop_oneof![
        Just(SignalClass::Normal),
        Just(SignalClass::Seizure),
        Just(SignalClass::Encephalopathy),
        Just(SignalClass::Stroke),
    ]
}

fn arb_provenance() -> impl Strategy<Value = Provenance> {
    (
        "[a-z-]{1,16}",
        "[a-z0-9/]{1,16}",
        "[A-Z0-9 ]{1,8}",
        0u64..1 << 40,
    )
        .prop_map(|(dataset_id, recording_id, channel, offset)| Provenance {
            dataset_id,
            recording_id,
            channel,
            offset,
        })
}

/// Arbitrary stored samples: whole 16-bit counts.
fn arb_samples() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-32768i32..32768, SIGNAL_SET_LEN)
        .prop_map(|v| v.into_iter().map(|x| x as f32).collect())
}

fn arb_quantized_slice() -> impl Strategy<Value = QuantizedSlice> {
    (0u64..1 << 48, arb_class(), arb_samples())
        .prop_map(|(id, class, samples)| QuantizedSlice::quantize(SetId(id), class, &samples))
}

fn arb_work() -> impl Strategy<Value = SearchWork> {
    (
        0u64..1 << 40,
        0u64..1 << 20,
        0u64..1 << 20,
        0u64..1 << 20,
        0u64..1 << 21,
    )
        .prop_map(
            |(correlations, sets_scanned, matches, hosts_pruned, bound_evaluations)| SearchWork {
                correlations,
                sets_scanned,
                matches,
                hosts_pruned,
                bound_evaluations,
            },
        )
}

/// A delta result whose `New` hits stay inside a `table_len`-entry table.
fn arb_delta_result(table_len: usize) -> impl Strategy<Value = DeltaSearchResult> {
    let hit = (
        any::<bool>(),
        0..table_len.max(1) as u16,
        0u64..1 << 48,
        -1.0f64..=1.0,
        0usize..SIGNAL_SET_LEN,
    )
        .prop_map(move |(known, slice, id, omega, beta)| {
            if known || table_len == 0 {
                DeltaHit::Known {
                    set_id: SetId(id),
                    omega,
                    beta,
                }
            } else {
                DeltaHit::New { slice, omega, beta }
            }
        });
    (
        arb_work(),
        prop::collection::vec(hit, 0..6),
        prop::collection::vec((0u64..1 << 48).prop_map(SetId), 0..4),
    )
        .prop_map(|(work, hits, evicted)| DeltaSearchResult {
            work,
            hits,
            evicted,
        })
}

fn arb_delta_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        prop::collection::vec(
            (
                prop::collection::vec(-100.0f32..100.0, 256),
                prop::collection::vec((0u64..1 << 48).prop_map(SetId), 0..8),
            )
                .prop_map(|(second, tracked)| DeltaQuery { second, tracked }),
            0..3
        )
        .prop_map(|queries| Message::SearchBatchDeltaRequest { queries }),
        prop::collection::vec(arb_quantized_slice(), 0..3).prop_flat_map(|slices| {
            let n = slices.len();
            prop::collection::vec(arb_delta_result(n), 0..3).prop_map(move |results| {
                Message::SearchBatchDeltaResponse {
                    slices: slices.clone(),
                    results,
                }
            })
        }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            arb_class(),
            arb_provenance(),
            prop::collection::vec(-500.0f32..500.0, SIGNAL_SET_LEN),
        )
            .prop_map(|(class, provenance, samples)| Message::Ingest {
                class,
                provenance,
                samples,
            }),
        any::<u64>().prop_map(|total_sets| Message::IngestAck { total_sets }),
        Just(Message::Ping),
        any::<u64>().prop_map(|total_sets| Message::Pong { total_sets }),
        Just(Message::Busy),
        (any::<u16>(), "[ -~]{0,64}")
            .prop_map(|(code, detail)| Message::ErrorReply { code, detail }),
        arb_delta_message(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frame encode → decode is the identity for every message type.
    #[test]
    fn frame_roundtrip_is_identity(msg in arb_message()) {
        let bytes = frame_bytes(&msg);
        let back = read_frame(&mut &bytes[..], DEFAULT_MAX_PAYLOAD).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Every strict prefix of a valid frame yields a typed error, not a
    /// panic — the truncation can land in the header or the payload.
    #[test]
    fn any_truncation_is_a_typed_error(msg in arb_message(), frac in 0.0f64..1.0) {
        let bytes = frame_bytes(&msg);
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(read_frame(&mut &bytes[..cut], DEFAULT_MAX_PAYLOAD).is_err());
    }

    /// Flipping any single bit of a frame yields a typed error — the CRC
    /// covers the header prefix (version, type, reserved, length) as well
    /// as the payload, so no flip anywhere can decode, and in particular a
    /// type-byte flip cannot transmute a message into a different valid
    /// one. Flips the header validators don't claim first are always
    /// caught as [`WireError::BadCrc`].
    #[test]
    fn any_bit_flip_is_caught(msg in arb_message(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = frame_bytes(&msg);
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        match read_frame(&mut &bytes[..], DEFAULT_MAX_PAYLOAD) {
            Ok(back) => {
                return Err(TestCaseError::fail(format!(
                    "flip at byte {i} bit {bit} decoded to {back:?}"
                )));
            }
            Err(e) => {
                // Type and reserved bytes, the CRC field itself, and the
                // payload have exactly one failure mode.
                if (5..8).contains(&i) || (12..16).contains(&i) || i >= emap_wire::HEADER_LEN {
                    prop_assert!(
                        matches!(e, WireError::BadCrc { .. }),
                        "byte {i} bit {bit}: {e}"
                    );
                }
            }
        }
    }

    /// The work-flags byte is reserved: it is written 0, and a response
    /// from a server that still set a bit (bit 0 once flagged a
    /// budget-truncated search) decodes to the same `SearchWork` as with
    /// it clear.
    #[test]
    fn reserved_work_flag_bit_is_ignored(work in arb_work()) {
        let msg = Message::SearchBatchDeltaResponse {
            slices: Vec::new(),
            results: vec![DeltaSearchResult { work, hits: Vec::new(), evicted: Vec::new() }],
        };
        let mut payload = msg.encode_payload();
        // Table and result counts, three u64 counters, then the flags byte.
        let flags = 2 + 2 + 24;
        prop_assert_eq!(payload[flags], 0);
        payload[flags] |= 0x01;
        let back = Message::decode_payload(msg.type_byte(), &payload).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Fully random byte soup never panics the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_frame(&mut &bytes[..], DEFAULT_MAX_PAYLOAD);
    }

    /// Random bytes behind a *valid* header (correct magic/version/length/
    /// CRC) still decode without panicking: the payload parser itself is
    /// total.
    #[test]
    fn random_payload_behind_valid_header_never_panics(
        type_byte in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = Message::decode_payload(type_byte, &payload);
    }

    /// A stored set's samples (whole counts in the i16 range) cross the
    /// wire as stored: the roundtrip is the identity on them.
    #[test]
    fn native_16bit_slices_roundtrip_bit_exactly(
        id in 0u64..1 << 48,
        class in arb_class(),
        samples in arb_samples(),
    ) {
        let quantized = QuantizedSlice::quantize(SetId(id), class, &samples);
        let msg = Message::SearchBatchDeltaResponse {
            slices: vec![quantized],
            results: vec![],
        };
        let bytes = frame_bytes(&msg);
        let back = read_frame(&mut &bytes[..], DEFAULT_MAX_PAYLOAD).unwrap();
        let Message::SearchBatchDeltaResponse { slices, .. } = back else {
            return Err(TestCaseError::fail("wrong message type back"));
        };
        prop_assert_eq!(slices[0].dequantize(), samples);
    }

    /// Truncating a delta response anywhere inside its quantized slice
    /// table (or after it) yields a typed error, never a panic.
    #[test]
    fn truncated_quantized_table_never_panics(
        slices in prop::collection::vec(arb_quantized_slice(), 1..3),
        frac in 0.0f64..1.0,
    ) {
        let n = slices.len();
        let msg = Message::SearchBatchDeltaResponse {
            slices,
            results: vec![arb_delta_result_value(n)],
        };
        let payload = msg.encode_payload();
        let cut = ((payload.len() as f64) * frac) as usize;
        prop_assume!(cut < payload.len());
        prop_assert!(Message::decode_payload(0x12, &payload[..cut]).is_err());
    }

    /// The type bytes of the single-query exchanges retired with version 5,
    /// and of the `f32` batch search pair retired after them, stay dead: under a frame that is valid in every other respect —
    /// magic, version, length, CRC — whatever the payload, each decodes to
    /// the typed unknown-type error, never panics, and poisons the stream
    /// rather than resynchronising on the valid frame behind it.
    #[test]
    fn retired_type_bytes_stay_retired(
        retired in prop_oneof![
            Just(0x01u8),
            Just(0x02u8),
            Just(0x09u8),
            Just(0x0au8),
            Just(0x0fu8),
            Just(0x10u8),
        ],
        payload in prop::collection::vec(any::<u8>(), 0..1100),
    ) {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&[VERSION, retired, 0, 0]);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = emap_wire::crc::crc32_pair(&frame, &payload);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&frame_bytes(&Message::Ping));

        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        asm.feed(&frame);
        prop_assert!(matches!(
            asm.next_frame(),
            Err(WireError::UnknownType { found }) if found == retired
        ));
        prop_assert!(asm.is_poisoned());
        prop_assert!(asm.next_frame().is_err(), "the Ping behind it must not decode");
        prop_assert!(matches!(
            read_frame(&mut &frame[..], DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownType { found }) if found == retired
        ));
    }
}

/// A deterministic [`DeltaSearchResult`] for the truncation proptest —
/// the interesting structure lives in the slice table being cut.
fn arb_delta_result_value(table_len: usize) -> DeltaSearchResult {
    DeltaSearchResult {
        work: SearchWork::default(),
        hits: (0..table_len as u16)
            .map(|i| DeltaHit::New {
                slice: i,
                omega: 0.9,
                beta: 11,
            })
            .chain([DeltaHit::Known {
                set_id: SetId(77),
                omega: 0.4,
                beta: 3,
            }])
            .collect(),
        evicted: vec![SetId(5)],
    }
}
