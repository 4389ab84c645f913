//! Adversarial property tests for [`FrameAssembler`]: however a frame
//! stream is torn into chunks — one byte at a time, split at every
//! boundary, random fragmentation — the drained messages are exactly the
//! whole-frame decodes, a frame is never yielded early, and the
//! assembler never consumes bytes beyond the frame it reports. Garbage
//! after a CRC-valid prefix poisons the stream *after* every valid frame
//! has been delivered, and the poison is sticky even when pristine
//! frames follow.

use emap_mdb::{SetId, SIGNAL_SET_LEN};
use emap_search::SearchWork;
use emap_testkit::prelude::*;
use emap_wire::{
    frame_bytes, read_frame, DeltaHit, DeltaQuery, DeltaSearchResult, FrameAssembler, Message,
    QuantizedSlice, WireError, DEFAULT_MAX_PAYLOAD, HEADER_LEN, VERSION,
};

/// Wire messages spanning the interesting shapes: empty payloads, short
/// scalar payloads, variable-length strings, and multi-kilobyte sample
/// tables.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        Just(Message::Ping),
        Just(Message::Busy),
        any::<u64>().prop_map(|total_sets| Message::Pong { total_sets }),
        (any::<u16>(), "[ -~]{0,32}")
            .prop_map(|(code, detail)| Message::ErrorReply { code, detail }),
        (
            prop::collection::vec(-100.0f32..100.0, 256),
            prop::collection::vec((0u64..1 << 48).prop_map(SetId), 0..4),
        )
            .prop_map(|(second, tracked)| Message::SearchBatchDeltaRequest {
                queries: vec![DeltaQuery { second, tracked }],
            }),
        (
            0u64..1 << 48,
            prop::collection::vec((-500i16..500).prop_map(f32::from), SIGNAL_SET_LEN)
        )
            .prop_map(|(id, samples)| Message::SearchBatchDeltaResponse {
                slices: vec![QuantizedSlice::quantize(
                    SetId(id),
                    emap_datasets::SignalClass::Seizure,
                    &samples,
                )],
                results: vec![DeltaSearchResult {
                    work: SearchWork::default(),
                    hits: vec![DeltaHit::New {
                        slice: 0,
                        omega: 0.5,
                        beta: 7,
                    }],
                    evicted: vec![],
                }],
            }),
    ]
}

fn arb_stream() -> impl Strategy<Value = Vec<Message>> {
    prop::collection::vec(arb_message(), 1..5)
}

/// Drains every currently decodable frame.
fn drain(asm: &mut FrameAssembler) -> Vec<Message> {
    let mut out = Vec::new();
    while let Ok(Some(msg)) = asm.next_frame() {
        out.push(msg);
    }
    out
}

/// Decodes the concatenated frames with the blocking whole-frame reader —
/// the oracle every chunking below must reproduce.
fn whole_frame_decode(mut bytes: &[u8]) -> Vec<Message> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        out.push(read_frame(&mut bytes, DEFAULT_MAX_PAYLOAD).expect("oracle decode"));
    }
    out
}

fn encode_stream(msgs: &[Message]) -> Vec<u8> {
    msgs.iter().flat_map(frame_bytes).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One byte at a time: the drained sequence equals the whole-frame
    /// decode, and no frame surfaces before its final byte — after every
    /// single-byte feed, at most the frames whose bytes have fully
    /// arrived are available.
    #[test]
    fn one_byte_feeds_match_whole_frame_decode(msgs in arb_stream()) {
        let bytes = encode_stream(&msgs);
        let boundaries: Vec<usize> = msgs
            .iter()
            .scan(0usize, |acc, m| {
                *acc += frame_bytes(m).len();
                Some(*acc)
            })
            .collect();
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        let mut got = Vec::new();
        for (i, b) in bytes.iter().enumerate() {
            asm.feed(std::slice::from_ref(b));
            got.extend(drain(&mut asm));
            let complete = boundaries.iter().filter(|&&end| end <= i + 1).count();
            prop_assert_eq!(
                got.len(),
                complete,
                "after byte {} exactly {} frames are complete",
                i,
                complete
            );
        }
        prop_assert_eq!(got, whole_frame_decode(&bytes));
        prop_assert_eq!(asm.pending(), 0);
        prop_assert!(!asm.is_poisoned());
    }

    /// Random fragmentation: any partition of the byte stream into chunks
    /// drains to the same messages as the whole-frame decode.
    #[test]
    fn arbitrary_chunking_matches_whole_frame_decode(
        msgs in arb_stream(),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..12),
    ) {
        let bytes = encode_stream(&msgs);
        let mut splits: Vec<usize> = cuts.iter().map(|ix| ix.index(bytes.len() + 1)).collect();
        splits.push(0);
        splits.push(bytes.len());
        splits.sort_unstable();
        splits.dedup();
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        let mut got = Vec::new();
        for pair in splits.windows(2) {
            asm.feed(&bytes[pair[0]..pair[1]]);
            got.extend(drain(&mut asm));
        }
        prop_assert_eq!(got, whole_frame_decode(&bytes));
        prop_assert_eq!(asm.pending(), 0);
    }

    /// Split a two-frame stream at one exact position: the first frame is
    /// available iff the split sits at or past its last byte, and the
    /// remainder completes both. Together with the exhaustive small-frame
    /// test below, this pins every boundary for large frames too.
    #[test]
    fn split_anywhere_is_seamless(
        first in arb_message(),
        second in arb_message(),
        at in any::<prop::sample::Index>(),
    ) {
        let head = frame_bytes(&first);
        let mut bytes = head.clone();
        bytes.extend(frame_bytes(&second));
        let at = at.index(bytes.len() + 1);
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        asm.feed(&bytes[..at]);
        let early = drain(&mut asm);
        let complete = usize::from(at >= head.len()) + usize::from(at >= bytes.len());
        prop_assert_eq!(early.len(), complete, "split at {}", at);
        asm.feed(&bytes[at..]);
        let mut got = early;
        got.extend(drain(&mut asm));
        prop_assert_eq!(got, vec![first, second]);
    }

    /// Garbage appended to a CRC-valid prefix: every valid frame drains
    /// out intact first, then the stream poisons (or waits for bytes that
    /// spell a full bogus header) — it never invents a frame from the
    /// garbage and never retroactively corrupts the delivered ones.
    #[test]
    fn garbage_after_valid_prefix_poisons_after_delivery(
        msgs in arb_stream(),
        garbage in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let bytes = encode_stream(&msgs);
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        asm.feed(&bytes);
        asm.feed(&garbage);
        let mut got = Vec::new();
        let verdict = loop {
            match asm.next_frame() {
                Ok(Some(msg)) => got.push(msg),
                other => break other,
            }
        };
        prop_assert_eq!(got, whole_frame_decode(&bytes), "valid prefix survives");
        match verdict {
            Err(_) => {
                prop_assert!(asm.is_poisoned());
                // Sticky: even a pristine frame after the poison never
                // decodes.
                asm.feed(&frame_bytes(&Message::Ping));
                prop_assert!(asm.next_frame().is_err());
            }
            Ok(Some(_)) => prop_assert!(false, "decoded a frame out of garbage"),
            Ok(None) => {
                // The garbage is still a plausible header prefix; it must
                // be strictly shorter than one and nothing was consumed.
                prop_assert!(asm.pending() < HEADER_LEN);
                prop_assert_eq!(asm.pending(), garbage.len());
            }
        }
    }

    /// The never-over-read contract blocking callers rely on: feeding
    /// exactly [`FrameAssembler::needed`] bytes at a time consumes each
    /// frame with byte precision — when a frame yields, not one byte of
    /// the next frame has been requested.
    #[test]
    fn needed_never_requests_past_the_current_frame(msgs in arb_stream()) {
        let bytes = encode_stream(&msgs);
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        let mut cursor = 0usize;
        let mut boundary = 0usize;
        for expected in whole_frame_decode(&bytes) {
            boundary += {
                let msg_len = loop {
                    if let Some(msg) = asm.next_frame().unwrap() {
                        prop_assert_eq!(&msg, &expected);
                        break frame_bytes(&msg).len();
                    }
                    let n = asm.needed();
                    prop_assert!(n > 0, "no frame and no bytes requested");
                    asm.feed(&bytes[cursor..cursor + n]);
                    cursor += n;
                };
                msg_len
            };
            prop_assert_eq!(cursor, boundary, "read past the frame it reported");
            prop_assert_eq!(asm.pending(), 0);
        }
        prop_assert_eq!(cursor, bytes.len());
    }

    /// A CRC-corrupted frame mid-stream: frames before it decode, the
    /// corruption reports as an error, and the untouched frames after it
    /// are unreachable — the assembler refuses to resync onto garbage.
    #[test]
    fn corruption_mid_stream_never_resyncs(
        msgs in prop::collection::vec(arb_message(), 2..4),
        victim in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let frames: Vec<Vec<u8>> = msgs.iter().map(frame_bytes).collect();
        let victim = victim.index(frames.len().saturating_sub(1)).min(frames.len() - 2);
        let mut bytes = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            let mut f = f.clone();
            if i == victim {
                // Flip a payload bit when there is one, else the CRC field.
                let at = if f.len() > HEADER_LEN { HEADER_LEN } else { 12 };
                f[at] ^= 1 << bit;
            }
            bytes.extend(f);
        }
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        asm.feed(&bytes);
        let got = drain(&mut asm);
        prop_assert_eq!(got.len(), victim, "frames before the corruption decode");
        prop_assert!(asm.next_frame().is_err());
        prop_assert!(asm.is_poisoned());
        // The valid trailing frames are gone for good: poison is sticky.
        prop_assert!(asm.next_frame().is_err());
    }

    /// Exactly one version is spoken: a header whose version byte is not
    /// [`VERSION`] is rejected from its 16 bytes alone — before a single
    /// payload byte has been fed, and without asking for any.
    #[test]
    fn foreign_version_is_rejected_from_the_header_alone(
        msg in arb_message(),
        version in any::<u8>(),
    ) {
        prop_assume!(version != VERSION);
        let mut frame = frame_bytes(&msg);
        frame[4] = version;
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        asm.feed(&frame[..HEADER_LEN - 1]);
        prop_assert!(matches!(asm.next_frame(), Ok(None)));
        asm.feed(&frame[HEADER_LEN - 1..HEADER_LEN]);
        prop_assert_eq!(asm.needed(), 0, "the verdict needs no payload byte");
        prop_assert!(matches!(
            asm.next_frame(),
            Err(WireError::UnsupportedVersion { found }) if found == version
        ));
        prop_assert!(asm.is_poisoned());
    }
}

/// Exhaustive boundary sweep on a mixed small-frame stream: for *every*
/// split position, feeding the two halves yields exactly the oracle
/// decode, and the count available after the first half equals the count
/// of frames wholly inside it.
#[test]
fn every_split_boundary_of_a_small_stream() {
    let msgs = vec![
        Message::Ping,
        Message::Pong { total_sets: 9 },
        Message::ErrorReply {
            code: 429,
            detail: "busy".into(),
        },
        Message::SearchBatchDeltaRequest {
            queries: vec![DeltaQuery {
                second: vec![0.25; 256],
                tracked: vec![SetId(3)],
            }],
        },
        Message::Busy,
    ];
    let bytes = encode_stream(&msgs);
    let boundaries: Vec<usize> = msgs
        .iter()
        .scan(0usize, |acc, m| {
            *acc += frame_bytes(m).len();
            Some(*acc)
        })
        .collect();
    let oracle = whole_frame_decode(&bytes);
    for at in 0..=bytes.len() {
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        asm.feed(&bytes[..at]);
        let early = drain(&mut asm);
        let complete = boundaries.iter().filter(|&&end| end <= at).count();
        assert_eq!(early.len(), complete, "split at {at}");
        asm.feed(&bytes[at..]);
        let mut got = early;
        got.extend(drain(&mut asm));
        assert_eq!(got, oracle, "split at {at}");
        assert_eq!(asm.pending(), 0, "split at {at}");
        assert!(!asm.is_poisoned(), "split at {at}");
    }
}
