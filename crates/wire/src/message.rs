//! The EMAP conversations as typed messages.
//!
//! | direction | request | response |
//! |---|---|---|
//! | edge → cloud | [`Message::SearchBatchDeltaRequest`] | [`Message::SearchBatchDeltaResponse`] / [`Message::Busy`] / [`Message::ErrorReply`] |
//! | edge → cloud | [`Message::Ingest`] | [`Message::IngestAck`] / [`Message::Busy`] / [`Message::ErrorReply`] |
//! | edge → cloud | [`Message::Ping`] | [`Message::Pong`] |
//! | edge → cloud | [`Message::StatsRequest`] | [`Message::StatsResponse`] |
//! | edge → cloud | [`Message::HealthRequest`] | [`Message::HealthResponse`] |
//!
//! There is one search exchange, and its shape is a batch. A one-patient
//! wearable sends a delta frame with one entry; a gateway serving a fleet
//! sends several sessions' seconds in one frame and gets back one result
//! per query, in query order — one round-trip, and on the server one
//! shared sweep, per scheduling window. The request declares the sets
//! each session already tracks; the response ships only slices this
//! connection has never received, quantized to 16 bits, and the edge
//! tracker installs them by reference (`EdgeTracker::load_shared` in
//! `emap-edge`).
//!
//! Type bytes `0x01`, `0x02`, `0x0f` and `0x10` belonged to single-query
//! exchanges retired with protocol version 5, and `0x09` / `0x0a` to the
//! `f32` batch search exchange retired after it; none is ever reused, and
//! each decodes to [`WireError::UnknownType`]. Error code 3 is retired
//! the same way (see [`error_code`]).
//!
//! # The slice table
//!
//! Queries in one tick search the same store, so their top-K hits overlap
//! heavily — shipping every hit's 1000-sample slice per query would resend
//! the same sets over and over. A [`Message::SearchBatchDeltaResponse`]
//! therefore carries a *slice table*: each distinct slice the edge lacks
//! travels once as a [`QuantizedSlice`], and each query's hits are
//! [`DeltaHit`]s — the per-query `ω` and `β` next to either a table index
//! ([`DeltaHit::New`]) or the ID of a set the edge already holds
//! ([`DeltaHit::Known`]). The receiver shares each table entry across
//! every query (and tracker) that references it.

use emap_dsp::SAMPLES_PER_SECOND;
use emap_mdb::{class_from_label, Provenance, SetId, SIGNAL_SET_LEN};
use emap_search::SearchWork;

use crate::codec::{PayloadReader, PayloadWriter};
use crate::quant::{class_code, class_from_code, QuantizedSlice};
use crate::WireError;

/// Application error codes carried by [`Message::ErrorReply`].
///
/// Code 3 meant "shutting down", which no server sends: it is retired,
/// never reused, and a client treats it as any other remote error.
pub mod error_code {
    /// The request was understood but invalid (bad query, bad slice).
    pub const BAD_REQUEST: u16 = 1;
    /// The server failed while executing a valid request.
    pub const INTERNAL: u16 = 2;
    /// The ingest quality gate classified the slice as an artifact; it
    /// was quarantined, not stored. The detail names the archetype.
    pub const REJECTED_ARTIFACT: u16 = 4;
}

/// Cap on samples per [`Message::Ingest`] accepted at decode: the wire
/// layer deliberately does *not* pin the exact [`SIGNAL_SET_LEN`] —
/// length validation is the server's job, so a wrong-length vector
/// travels and earns a typed [`Message::ErrorReply`] instead of a dead
/// connection. The cap (4× a signal-set) only bounds the allocation a
/// hostile length prefix can demand.
pub const MAX_INGEST_SAMPLES: usize = SIGNAL_SET_LEN * 4;

/// Cap on queries per [`Message::SearchBatchDeltaRequest`], enforced at
/// decode.
///
/// Bounds the decoded allocation and keeps a worst-case delta response
/// (≈ 12 MiB when top-100 hit sets never overlap between queries) under
/// the default payload cap; with the usual hit overlap the slice table
/// keeps real frames far smaller.
pub const MAX_BATCH_QUERIES: usize = 64;

/// Cap on metric entries per [`Message::StatsResponse`], enforced at
/// decode. A server registry holds a few dozen instruments; the cap only
/// bounds the allocation a malicious frame can demand.
pub const MAX_STATS_METRICS: usize = 512;

/// Cap on tracked-ID declarations per delta query (and on evictions per
/// delta result), enforced at decode. An edge tracker holds at most the
/// paper's top-K ≈ 100 sets; the cap only bounds hostile allocations.
pub const MAX_TRACKED_IDS: usize = 1024;

/// One named metric reading inside a [`Message::StatsResponse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsMetric {
    /// The registered metric name (e.g. `cloud_sweeps_total`).
    pub name: String,
    /// The reading at snapshot time.
    pub value: StatsValue,
}

/// The value part of a [`StatsMetric`], mirroring the three telemetry
/// instrument kinds. Histograms travel as pre-computed summaries — count,
/// sum, and the three headline percentiles in whole nanoseconds — rather
/// than raw buckets, so the frame stays small and the client needs no
/// knowledge of the server's bucket layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsValue {
    /// A monotone event total.
    Counter(u64),
    /// An instantaneous signed level.
    Gauge(i64),
    /// A latency-histogram summary (nanosecond units).
    Summary {
        /// Number of observations.
        count: u64,
        /// Sum of all observations in nanoseconds.
        sum_nanos: u64,
        /// Median estimate in nanoseconds.
        p50_nanos: u64,
        /// 90th-percentile estimate in nanoseconds.
        p90_nanos: u64,
        /// 99th-percentile estimate in nanoseconds.
        p99_nanos: u64,
    },
}

/// One query of a [`Message::SearchBatchDeltaRequest`]: the second to
/// search plus the signal-set IDs this session
/// already holds, so the server can answer with membership changes only.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaQuery {
    /// The query window `I_N`, exactly [`SAMPLES_PER_SECOND`] samples.
    pub second: Vec<f32>,
    /// Signal-sets the session's tracker currently holds; at most
    /// [`MAX_TRACKED_IDS`] entries.
    pub tracked: Vec<SetId>,
}

/// One hit of a delta search result.
///
/// Hits arrive in descending-ω order exactly like a full refresh; only
/// the *slice bytes* are elided for sets the edge already holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaHit {
    /// A set the edge does not hold yet: its slice travels in the
    /// response's quantized table.
    New {
        /// Index into the response's slice table. Decode rejects indices
        /// outside the table; encode packs this into 15 bits, so a table
        /// holds at most `0x7fff` entries (a 64-query batch of top-100
        /// hits needs ≤ 6400).
        slice: u16,
        /// The correlation the search reported for this query.
        omega: f64,
        /// Best-match offset for this query (< [`SIGNAL_SET_LEN`], so it
        /// travels as a `u16`).
        beta: usize,
    },
    /// A set the edge already holds — declared tracked by the query or
    /// delivered earlier on this connection. No slice bytes travel; the
    /// edge re-tags its existing copy with the fresh `ω`/`β`.
    Known {
        /// Which signal-set to retain.
        set_id: SetId,
        /// The correlation the search reported for this query.
        omega: f64,
        /// Best-match offset for this query (< [`SIGNAL_SET_LEN`]).
        beta: usize,
    },
}

/// One query's outcome within a delta response: the
/// full top-K membership as [`DeltaHit`]s plus the explicit evictions —
/// declared-tracked sets that fell out of the top-K this refresh.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSearchResult {
    /// Work counters of this query's share of the sweep.
    pub work: SearchWork,
    /// The hits in descending-ω order; `New` hits reference the
    /// response's quantized slice table.
    pub hits: Vec<DeltaHit>,
    /// Declared-tracked sets absent from `hits`; at most
    /// [`MAX_TRACKED_IDS`] entries.
    pub evicted: Vec<SetId>,
}

/// One message of the EMAP wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A new 1000-sample signal-set for the growing MDB.
    Ingest {
        /// The class label of the slice (validated at decode).
        class: emap_datasets::SignalClass,
        /// Where the slice came from.
        provenance: Provenance,
        /// Nominally [`SIGNAL_SET_LEN`] samples. The decoder accepts any
        /// count up to [`MAX_INGEST_SAMPLES`]; the *server* validates the
        /// exact length so a malformed sender gets a typed error reply
        /// rather than a closed connection.
        samples: Vec<f32>,
    },
    /// Ingest acknowledged; reports the store size after insertion.
    IngestAck {
        /// Signal-sets now in the MDB.
        total_sets: u64,
    },
    /// Health probe.
    Ping,
    /// Health answer.
    Pong {
        /// Signal-sets currently in the MDB.
        total_sets: u64,
    },
    /// Typed backpressure: the server is at its in-flight limit and sheds
    /// this request instead of queueing it unboundedly. Retry later —
    /// clients treat this as a retryable condition under backoff, not a
    /// failure.
    Busy,
    /// Typed application failure (see [`error_code`]).
    ErrorReply {
        /// Machine-readable code.
        code: u16,
        /// Human-readable description.
        detail: String,
    },
    /// Asks the server for a full telemetry snapshot.
    StatsRequest,
    /// The server's registry snapshot: every instrument's current reading,
    /// sorted by name (validated decode — entry cap
    /// and kind bytes are enforced like the batch frames).
    StatsResponse {
        /// Whole seconds since the server started.
        uptime_seconds: u64,
        /// One entry per registered instrument; at most
        /// [`MAX_STATS_METRICS`] entries.
        metrics: Vec<StatsMetric>,
    },
    /// Extended health probe: [`Message::Ping`] answers with the store
    /// size alone, this pair adds live figures.
    HealthRequest,
    /// Extended health answer: live uptime, load, and store figures pulled
    /// from the server's telemetry registry.
    HealthResponse {
        /// Whole seconds since the server started.
        uptime_seconds: u64,
        /// Requests currently holding an in-flight permit.
        in_flight: u64,
        /// Signal-set slices currently hosted by the MDB store.
        store_sets: u64,
        /// Slices ingested over the wire since the server started.
        ingested: u64,
    },
    /// One or several sessions' seconds to search in one shared sweep,
    /// each with the sets its session already tracks. An empty `tracked`
    /// list asks for a full — but still quantized — refresh.
    SearchBatchDeltaRequest {
        /// One delta query per session; at most [`MAX_BATCH_QUERIES`]
        /// entries.
        queries: Vec<DeltaQuery>,
    },
    /// One result per delta query, in query order: only slices the edge
    /// lacks travel, quantized to 16 bits; retained hits are ID
    /// references, evictions are IDs. The quantized slice table is shared
    /// across queries *and* across rounds: a slice already delivered on
    /// this connection never ships again (see the server's delivery
    /// state).
    SearchBatchDeltaResponse {
        /// The distinct quantized slices any query's `New` hits need.
        slices: Vec<QuantizedSlice>,
        /// Per-query work counters, hits, and evictions.
        results: Vec<DeltaSearchResult>,
    },
}

impl Message {
    /// The message-type byte written into the frame header.
    #[must_use]
    pub fn type_byte(&self) -> u8 {
        match self {
            Message::Ingest { .. } => 0x03,
            Message::IngestAck { .. } => 0x04,
            Message::Ping => 0x05,
            Message::Pong { .. } => 0x06,
            Message::Busy => 0x07,
            Message::ErrorReply { .. } => 0x08,
            Message::StatsRequest => 0x0b,
            Message::StatsResponse { .. } => 0x0c,
            Message::HealthRequest => 0x0d,
            Message::HealthResponse { .. } => 0x0e,
            Message::SearchBatchDeltaRequest { .. } => 0x11,
            Message::SearchBatchDeltaResponse { .. } => 0x12,
        }
    }

    /// The variant's name, for error details: says which message arrived
    /// without formatting its payload.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Message::Ingest { .. } => "Ingest",
            Message::IngestAck { .. } => "IngestAck",
            Message::Ping => "Ping",
            Message::Pong { .. } => "Pong",
            Message::Busy => "Busy",
            Message::ErrorReply { .. } => "ErrorReply",
            Message::StatsRequest => "StatsRequest",
            Message::StatsResponse { .. } => "StatsResponse",
            Message::HealthRequest => "HealthRequest",
            Message::HealthResponse { .. } => "HealthResponse",
            Message::SearchBatchDeltaRequest { .. } => "SearchBatchDeltaRequest",
            Message::SearchBatchDeltaResponse { .. } => "SearchBatchDeltaResponse",
        }
    }

    /// Serializes the payload (everything after the frame header).
    #[must_use]
    pub fn encode_payload(&self) -> Vec<u8> {
        match self {
            Message::Ingest {
                class,
                provenance,
                samples,
            } => {
                let mut w = PayloadWriter::with_capacity(64 + samples.len() * 4);
                w.put_str(class.label());
                w.put_str(&provenance.dataset_id);
                w.put_str(&provenance.recording_id);
                w.put_str(&provenance.channel);
                w.put_u64(provenance.offset);
                w.put_f32_slice(samples);
                w.into_bytes()
            }
            Message::IngestAck { total_sets } | Message::Pong { total_sets } => {
                let mut w = PayloadWriter::with_capacity(8);
                w.put_u64(*total_sets);
                w.into_bytes()
            }
            Message::Ping | Message::Busy | Message::StatsRequest | Message::HealthRequest => {
                Vec::new()
            }
            Message::ErrorReply { code, detail } => {
                let mut w = PayloadWriter::with_capacity(8 + detail.len());
                w.put_u16(*code);
                w.put_str(detail);
                w.into_bytes()
            }
            Message::StatsResponse {
                uptime_seconds,
                metrics,
            } => {
                let mut w = PayloadWriter::with_capacity(16 + metrics.len() * 72);
                w.put_u64(*uptime_seconds);
                w.put_u32(metrics.len() as u32);
                for m in metrics {
                    w.put_str(&m.name);
                    match m.value {
                        StatsValue::Counter(v) => {
                            w.put_u8(0);
                            w.put_u64(v);
                        }
                        StatsValue::Gauge(v) => {
                            w.put_u8(1);
                            w.put_u64(v as u64);
                        }
                        StatsValue::Summary {
                            count,
                            sum_nanos,
                            p50_nanos,
                            p90_nanos,
                            p99_nanos,
                        } => {
                            w.put_u8(2);
                            w.put_u64(count);
                            w.put_u64(sum_nanos);
                            w.put_u64(p50_nanos);
                            w.put_u64(p90_nanos);
                            w.put_u64(p99_nanos);
                        }
                    }
                }
                w.into_bytes()
            }
            Message::HealthResponse {
                uptime_seconds,
                in_flight,
                store_sets,
                ingested,
            } => {
                let mut w = PayloadWriter::with_capacity(32);
                w.put_u64(*uptime_seconds);
                w.put_u64(*in_flight);
                w.put_u64(*store_sets);
                w.put_u64(*ingested);
                w.into_bytes()
            }
            Message::SearchBatchDeltaRequest { queries } => {
                let mut w =
                    PayloadWriter::with_capacity(4 + queries.len() * (8 + SAMPLES_PER_SECOND * 4));
                w.put_u16(queries.len() as u16);
                for query in queries {
                    w.put_f32_slice(&query.second);
                    encode_set_ids(&mut w, &query.tracked);
                }
                w.into_bytes()
            }
            Message::SearchBatchDeltaResponse { slices, results } => {
                let mut w = PayloadWriter::with_capacity(
                    8 + slices.len() * (8 + 2 * SIGNAL_SET_LEN) + results.len() * 64,
                );
                encode_quantized_table(&mut w, slices);
                w.put_u16(results.len() as u16);
                for result in results {
                    encode_delta_result(&mut w, result);
                }
                w.into_bytes()
            }
        }
    }

    /// Deserializes a payload for the given type byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnknownType`] for unassigned and retired type
    /// bytes, and [`WireError::BadPayload`] / [`WireError::UnknownClass`]
    /// for malformed contents. Never panics.
    pub fn decode_payload(type_byte: u8, payload: &[u8]) -> Result<Message, WireError> {
        let mut r = PayloadReader::new(payload);
        let msg = match type_byte {
            0x03 => {
                let label = r.get_str("ingest.class")?;
                let class =
                    class_from_label(&label).map_err(|_| WireError::UnknownClass { label })?;
                let provenance = Provenance {
                    dataset_id: r.get_str("ingest.dataset_id")?,
                    recording_id: r.get_str("ingest.recording_id")?,
                    channel: r.get_str("ingest.channel")?,
                    offset: r.get_u64("ingest.offset")?,
                };
                let samples = r.get_f32_slice_capped(MAX_INGEST_SAMPLES, "ingest.samples")?;
                Message::Ingest {
                    class,
                    provenance,
                    samples,
                }
            }
            0x04 => Message::IngestAck {
                total_sets: r.get_u64("ack.total_sets")?,
            },
            0x05 => Message::Ping,
            0x06 => Message::Pong {
                total_sets: r.get_u64("pong.total_sets")?,
            },
            0x07 => Message::Busy,
            0x08 => Message::ErrorReply {
                code: r.get_u16("error.code")?,
                detail: r.get_str("error.detail")?,
            },
            0x0b => Message::StatsRequest,
            0x0c => {
                let uptime_seconds = r.get_u64("stats.uptime")?;
                let n = r.get_u32("stats metric count")? as usize;
                if n > MAX_STATS_METRICS {
                    return Err(WireError::BadPayload {
                        detail: format!(
                            "stats response with {n} metrics exceeds the cap of {MAX_STATS_METRICS}"
                        ),
                    });
                }
                let mut metrics = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.get_str("metric.name")?;
                    let value = match r.get_u8("metric.kind")? {
                        0 => StatsValue::Counter(r.get_u64("metric.counter")?),
                        1 => StatsValue::Gauge(r.get_u64("metric.gauge")? as i64),
                        2 => StatsValue::Summary {
                            count: r.get_u64("metric.count")?,
                            sum_nanos: r.get_u64("metric.sum")?,
                            p50_nanos: r.get_u64("metric.p50")?,
                            p90_nanos: r.get_u64("metric.p90")?,
                            p99_nanos: r.get_u64("metric.p99")?,
                        },
                        kind => {
                            return Err(WireError::BadPayload {
                                detail: format!("unknown metric kind byte {kind:#04x}"),
                            })
                        }
                    };
                    metrics.push(StatsMetric { name, value });
                }
                Message::StatsResponse {
                    uptime_seconds,
                    metrics,
                }
            }
            0x0d => Message::HealthRequest,
            0x0e => Message::HealthResponse {
                uptime_seconds: r.get_u64("health.uptime")?,
                in_flight: r.get_u64("health.in_flight")?,
                store_sets: r.get_u64("health.store_sets")?,
                ingested: r.get_u64("health.ingested")?,
            },
            0x11 => {
                let n = r.get_u16("delta batch query count")? as usize;
                if n > MAX_BATCH_QUERIES {
                    return Err(WireError::BadPayload {
                        detail: format!(
                            "delta batch of {n} queries exceeds the cap of {MAX_BATCH_QUERIES}"
                        ),
                    });
                }
                let mut queries = Vec::new();
                for _ in 0..n {
                    let second = r.get_f32_slice(SAMPLES_PER_SECOND, "delta batch second")?;
                    let tracked = decode_set_ids(&mut r, "delta batch tracked")?;
                    queries.push(DeltaQuery { second, tracked });
                }
                Message::SearchBatchDeltaRequest { queries }
            }
            0x12 => {
                let slices = decode_quantized_table(&mut r)?;
                let n = r.get_u16("delta batch result count")? as usize;
                if n > MAX_BATCH_QUERIES {
                    return Err(WireError::BadPayload {
                        detail: format!(
                            "delta batch of {n} results exceeds the cap of {MAX_BATCH_QUERIES}"
                        ),
                    });
                }
                let mut results = Vec::new();
                for _ in 0..n {
                    results.push(decode_delta_result(&mut r, slices.len())?);
                }
                Message::SearchBatchDeltaResponse { slices, results }
            }
            found => return Err(WireError::UnknownType { found }),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// The `u16` hit-reference bit marking a [`DeltaHit::New`] (low 15 bits
/// are the table index); a clear bit introduces a [`DeltaHit::Known`]
/// whose set ID follows as a varint.
const NEW_HIT_BIT: u16 = 0x8000;

/// Writes a tracked/evicted set-ID list: `u16` count + varint IDs. The
/// [`MAX_TRACKED_IDS`] cap is enforced at decode (so oversized lists are
/// testable), not here.
fn encode_set_ids(w: &mut PayloadWriter, ids: &[SetId]) {
    w.put_u16(ids.len() as u16);
    for id in ids {
        w.put_varint(id.0);
    }
}

/// Reads a set-ID list written by [`encode_set_ids`], enforcing
/// [`MAX_TRACKED_IDS`].
fn decode_set_ids(r: &mut PayloadReader<'_>, what: &str) -> Result<Vec<SetId>, WireError> {
    let n = r.get_u16(what)? as usize;
    if n > MAX_TRACKED_IDS {
        return Err(WireError::BadPayload {
            detail: format!("{what} declares {n} IDs (cap {MAX_TRACKED_IDS})"),
        });
    }
    let mut ids = Vec::new();
    for _ in 0..n {
        ids.push(SetId(r.get_varint(what)?));
    }
    Ok(ids)
}

/// Writes a quantized slice table: `u16` count, then per entry a varint
/// set ID, a flags byte (class code + scaled bit), `scale`/`offset` only
/// on the scaled path, and the raw `i16` sample words.
fn encode_quantized_table(w: &mut PayloadWriter, slices: &[QuantizedSlice]) {
    debug_assert!(
        slices.len() <= NEW_HIT_BIT as usize,
        "quantized table exceeds the 15-bit hit index space"
    );
    w.put_u16(slices.len() as u16);
    for s in slices {
        w.put_varint(s.set_id.0);
        let scaled = !s.is_exact();
        w.put_u8(class_code(s.class) | u8::from(scaled) << 2);
        if scaled {
            w.put_f32(s.scale);
            w.put_f32(s.offset);
        }
        w.put_i16_samples(&s.q);
    }
}

/// Reads a quantized slice table written by [`encode_quantized_table`].
fn decode_quantized_table(r: &mut PayloadReader<'_>) -> Result<Vec<QuantizedSlice>, WireError> {
    let n = r.get_u16("quantized table size")? as usize;
    let mut slices = Vec::new();
    for _ in 0..n {
        let set_id = SetId(r.get_varint("table.set_id")?);
        let flags = r.get_u8("table.flags")?;
        if flags & !0x07 != 0 {
            return Err(WireError::BadPayload {
                detail: format!("quantized slice flags {flags:#04x} set reserved bits"),
            });
        }
        let class = class_from_code(flags & 0x03).ok_or_else(|| WireError::BadPayload {
            detail: format!("unknown class code {}", flags & 0x03),
        })?;
        let (scale, offset) = if flags & 0x04 != 0 {
            (r.get_f32("table.scale")?, r.get_f32("table.offset")?)
        } else {
            (1.0, -32768.0)
        };
        let q = r.get_i16_samples(SIGNAL_SET_LEN, "table.samples")?;
        slices.push(QuantizedSlice {
            set_id,
            class,
            scale,
            offset,
            q,
        });
    }
    Ok(slices)
}

/// Writes one delta search result (work + hits + evictions).
fn encode_delta_result(w: &mut PayloadWriter, result: &DeltaSearchResult) {
    encode_work(w, &result.work);
    w.put_u16(result.hits.len() as u16);
    for hit in &result.hits {
        match *hit {
            DeltaHit::New { slice, omega, beta } => {
                debug_assert!(slice < NEW_HIT_BIT, "table index exceeds 15 bits");
                w.put_u16(NEW_HIT_BIT | slice);
                w.put_f64(omega);
                debug_assert!(
                    beta < usize::from(u16::MAX),
                    "beta exceeds the u16 wire field"
                );
                w.put_u16(beta as u16);
            }
            DeltaHit::Known {
                set_id,
                omega,
                beta,
            } => {
                w.put_u16(0);
                w.put_varint(set_id.0);
                w.put_f64(omega);
                debug_assert!(
                    beta < usize::from(u16::MAX),
                    "beta exceeds the u16 wire field"
                );
                w.put_u16(beta as u16);
            }
        }
    }
    encode_set_ids(w, &result.evicted);
}

/// Reads one delta search result written by [`encode_delta_result`],
/// validating every `New` hit's table index against `table_len`.
fn decode_delta_result(
    r: &mut PayloadReader<'_>,
    table_len: usize,
) -> Result<DeltaSearchResult, WireError> {
    let work = decode_work(r)?;
    let n_hits = r.get_u16("delta hit count")?;
    let mut hits = Vec::new();
    for _ in 0..n_hits {
        let hit_ref = r.get_u16("hit.ref")?;
        let hit = if hit_ref & NEW_HIT_BIT != 0 {
            let slice = hit_ref & !NEW_HIT_BIT;
            if usize::from(slice) >= table_len {
                return Err(WireError::BadPayload {
                    detail: format!(
                        "hit references slice {slice} outside the {table_len}-entry table"
                    ),
                });
            }
            let omega = r.get_f64("hit.omega")?;
            let beta = usize::from(r.get_u16("hit.beta")?);
            DeltaHit::New { slice, omega, beta }
        } else {
            if hit_ref != 0 {
                return Err(WireError::BadPayload {
                    detail: format!("known-hit reference {hit_ref:#06x} sets reserved bits"),
                });
            }
            let set_id = SetId(r.get_varint("hit.set_id")?);
            let omega = r.get_f64("hit.omega")?;
            let beta = usize::from(r.get_u16("hit.beta")?);
            DeltaHit::Known {
                set_id,
                omega,
                beta,
            }
        };
        hits.push(hit);
    }
    let evicted = decode_set_ids(r, "delta evicted")?;
    Ok(DeltaSearchResult {
        work,
        hits,
        evicted,
    })
}

/// Writes the work counters shared by every search-result encoding. The
/// flags byte is reserved — written 0, ignored on read (bit 0 once
/// flagged a budget-truncated search, bit 1 a partial-coverage answer) —
/// so the payload layout never moved.
fn encode_work(w: &mut PayloadWriter, work: &SearchWork) {
    w.put_u64(work.correlations);
    w.put_u64(work.sets_scanned);
    w.put_u64(work.matches);
    w.put_u8(0);
    w.put_u64(work.hosts_pruned);
    w.put_u64(work.bound_evaluations);
}

/// Reads the work counters written by [`encode_work`].
fn decode_work(r: &mut PayloadReader<'_>) -> Result<SearchWork, WireError> {
    let correlations = r.get_u64("work.correlations")?;
    let sets_scanned = r.get_u64("work.sets_scanned")?;
    let matches = r.get_u64("work.matches")?;
    r.get_u8("work.flags")?;
    Ok(SearchWork {
        correlations,
        sets_scanned,
        matches,
        hosts_pruned: r.get_u64("work.hosts_pruned")?,
        bound_evaluations: r.get_u64("work.bound_evaluations")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_datasets::SignalClass;

    fn prov() -> Provenance {
        Provenance {
            dataset_id: "live".into(),
            recording_id: "p-7".into(),
            channel: "C3".into(),
            offset: 4000,
        }
    }

    fn roundtrip(msg: &Message) -> Message {
        Message::decode_payload(msg.type_byte(), &msg.encode_payload()).unwrap()
    }

    #[test]
    fn every_message_round_trips() {
        let messages = vec![
            Message::Ingest {
                class: SignalClass::Stroke,
                provenance: prov(),
                samples: vec![0.25; 1000],
            },
            Message::IngestAck { total_sets: 99 },
            Message::Ping,
            Message::Pong { total_sets: 1234 },
            Message::Busy,
            Message::ErrorReply {
                code: error_code::BAD_REQUEST,
                detail: "bad query".into(),
            },
        ];
        for msg in &messages {
            assert_eq!(&roundtrip(msg), msg, "{:#04x}", msg.type_byte());
        }
    }

    #[test]
    fn type_bytes_are_distinct() {
        let bytes = [
            0x03u8, 0x04, 0x05, 0x06, 0x07, 0x08, 0x0b, 0x0c, 0x0d, 0x0e, 0x11, 0x12,
        ];
        let mut sorted = bytes.to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), bytes.len());
    }

    #[test]
    fn stats_and_health_round_trip() {
        let messages = vec![
            Message::StatsRequest,
            Message::StatsResponse {
                uptime_seconds: 0,
                metrics: vec![],
            },
            Message::StatsResponse {
                uptime_seconds: 3600,
                metrics: vec![
                    StatsMetric {
                        name: "cloud_served_total".into(),
                        value: StatsValue::Counter(42),
                    },
                    StatsMetric {
                        name: "cloud_inflight".into(),
                        value: StatsValue::Gauge(-3),
                    },
                    StatsMetric {
                        name: "cloud_search_request_nanos".into(),
                        value: StatsValue::Summary {
                            count: 100,
                            sum_nanos: 5_000_000,
                            p50_nanos: 40_000,
                            p90_nanos: 90_000,
                            p99_nanos: 400_000,
                        },
                    },
                ],
            },
            Message::HealthRequest,
            Message::HealthResponse {
                uptime_seconds: 77,
                in_flight: 4,
                store_sets: 96,
                ingested: 12,
            },
        ];
        for msg in &messages {
            assert_eq!(&roundtrip(msg), msg, "{:#04x}", msg.type_byte());
        }
    }

    #[test]
    fn oversized_stats_response_rejected_at_decode() {
        let metric = StatsMetric {
            name: "m".into(),
            value: StatsValue::Counter(1),
        };
        let over = Message::StatsResponse {
            uptime_seconds: 1,
            metrics: vec![metric.clone(); MAX_STATS_METRICS + 1],
        };
        assert!(matches!(
            Message::decode_payload(0x0c, &over.encode_payload()),
            Err(WireError::BadPayload { .. })
        ));
        let at_cap = Message::StatsResponse {
            uptime_seconds: 1,
            metrics: vec![metric; MAX_STATS_METRICS],
        };
        assert!(Message::decode_payload(0x0c, &at_cap.encode_payload()).is_ok());
    }

    #[test]
    fn unknown_metric_kind_byte_rejected() {
        let mut w = crate::codec::PayloadWriter::with_capacity(32);
        w.put_u64(10); // uptime
        w.put_u32(1); // one metric
        w.put_str("bad_kind");
        w.put_u8(9); // kinds are 0/1/2
        w.put_u64(5);
        assert!(matches!(
            Message::decode_payload(0x0c, &w.into_bytes()),
            Err(WireError::BadPayload { .. })
        ));
    }

    fn exact_slice(set: u64) -> QuantizedSlice {
        QuantizedSlice::quantize(
            SetId(set),
            SignalClass::Seizure,
            &(0..1000)
                .map(|i| ((i as i64 * 37 + set as i64 * 11) % 4001 - 2000) as f32)
                .collect::<Vec<f32>>(),
        )
    }

    fn scaled_slice(set: u64) -> QuantizedSlice {
        QuantizedSlice::quantize(
            SetId(set),
            SignalClass::Normal,
            &(0..1000)
                .map(|i| (i as f32 * 0.13 + set as f32).sin() * 250.5)
                .collect::<Vec<f32>>(),
        )
    }

    fn delta_result(table_len: u16) -> DeltaSearchResult {
        DeltaSearchResult {
            work: SearchWork {
                correlations: 9000,
                sets_scanned: 64,
                matches: 5,
                hosts_pruned: 12,
                bound_evaluations: 99,
            },
            hits: (0..table_len)
                .map(|i| DeltaHit::New {
                    slice: i,
                    omega: 0.99 - f64::from(i) * 0.01,
                    beta: usize::from(i) * 7 % SIGNAL_SET_LEN,
                })
                .chain([
                    DeltaHit::Known {
                        set_id: SetId(300),
                        omega: 0.5,
                        beta: 977,
                    },
                    DeltaHit::Known {
                        set_id: SetId(1),
                        omega: 0.25,
                        beta: 0,
                    },
                ])
                .collect(),
            evicted: vec![SetId(400), SetId(12)],
        }
    }

    #[test]
    fn delta_messages_round_trip() {
        let messages = vec![
            Message::SearchBatchDeltaRequest {
                queries: (0..3)
                    .map(|q| DeltaQuery {
                        second: (0..256)
                            .map(|i| ((q * 256 + i) as f32 * 0.07).sin())
                            .collect(),
                        tracked: (0..q as u64).map(SetId).chain([SetId(u64::MAX)]).collect(),
                    })
                    .collect(),
            },
            Message::SearchBatchDeltaRequest { queries: vec![] },
            Message::SearchBatchDeltaResponse {
                slices: vec![scaled_slice(9), exact_slice(10), exact_slice(11)],
                results: vec![delta_result(3), delta_result(0)],
            },
            Message::SearchBatchDeltaResponse {
                slices: vec![],
                results: vec![],
            },
        ];
        for msg in &messages {
            assert_eq!(&roundtrip(msg), msg, "{:#04x}", msg.type_byte());
        }
    }

    #[test]
    fn quantized_response_is_half_its_f32_samples() {
        // A top-100 exact-path delta response costs two bytes a sample:
        // half the bare `f32` bytes of the samples it carries, plus under
        // 1 % for ids, flags, hits and counts.
        let slices: Vec<QuantizedSlice> = (0..100).map(exact_slice).collect();
        let f32_samples = slices.len() * SIGNAL_SET_LEN * 4;
        let i16_frame = Message::SearchBatchDeltaResponse {
            slices,
            results: vec![DeltaSearchResult {
                work: SearchWork::default(),
                hits: (0..100u16)
                    .map(|i| DeltaHit::New {
                        slice: i,
                        omega: 0.99 - f64::from(i) * 0.001,
                        beta: usize::from(i) * 9 % SIGNAL_SET_LEN,
                    })
                    .collect(),
                evicted: vec![],
            }],
        }
        .encode_payload();
        assert!(
            i16_frame.len() * 2 < f32_samples * 101 / 100,
            "quantization did not halve the frame: {} B quantized vs {f32_samples} B of f32 samples",
            i16_frame.len(),
        );
    }

    #[test]
    fn delta_response_ships_shared_slices_once() {
        // Four queries all hitting the same two sets: the batched frame
        // carries the two slices once, not eight times.
        let table = vec![exact_slice(1), exact_slice(2)];
        let results: Vec<DeltaSearchResult> = (0..4u32)
            .map(|q| DeltaSearchResult {
                work: SearchWork {
                    correlations: u64::from(q),
                    ..SearchWork::default()
                },
                hits: vec![
                    DeltaHit::New {
                        slice: 0,
                        omega: 0.95,
                        beta: 12,
                    },
                    DeltaHit::New {
                        slice: 1,
                        omega: 0.91 - f64::from(q) * 0.01,
                        beta: 12,
                    },
                ],
                evicted: vec![],
            })
            .collect();
        let batched = Message::SearchBatchDeltaResponse {
            slices: table.clone(),
            results: results.clone(),
        };
        // Naive: one frame per query, each with its own copy of the table.
        let naive: usize = results
            .iter()
            .map(|r| {
                Message::SearchBatchDeltaResponse {
                    slices: table.clone(),
                    results: vec![r.clone()],
                }
                .encode_payload()
                .len()
            })
            .sum();
        let encoded = batched.encode_payload();
        assert!(
            encoded.len() * 3 < naive,
            "table did not shrink the frame: {} B batched vs {naive} B naive",
            encoded.len()
        );
        assert_eq!(roundtrip(&batched), batched);
    }

    #[test]
    fn delta_query_with_wrong_length_rejected() {
        let query = |len: usize| DeltaQuery {
            second: vec![0.0; len],
            tracked: vec![],
        };
        let msg = Message::SearchBatchDeltaRequest {
            queries: vec![query(256), query(100)],
        };
        assert!(matches!(
            Message::decode_payload(0x11, &msg.encode_payload()),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn delta_hit_referencing_missing_table_entry_rejected() {
        // Hand-built payload: empty quantized table, one New hit at index 0.
        let mut w = crate::codec::PayloadWriter::with_capacity(64);
        w.put_u16(0); // empty table
        w.put_u16(1); // one result
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(0);
        w.put_u8(0);
        w.put_u64(0);
        w.put_u64(0); // work counters
        w.put_u16(1); // one hit
        w.put_u16(NEW_HIT_BIT); // New, slice index 0 — out of table
        w.put_f64(0.9);
        w.put_u16(3);
        w.put_u16(0); // no evictions
        assert!(matches!(
            Message::decode_payload(0x12, &w.into_bytes()),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn known_hit_with_reserved_bits_rejected() {
        let mut w = crate::codec::PayloadWriter::with_capacity(64);
        w.put_u16(0); // empty table
        w.put_u16(1); // one result
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(0);
        w.put_u8(0);
        w.put_u64(0);
        w.put_u64(0); // work counters
        w.put_u16(1); // one hit
        w.put_u16(0x0005); // Known marker must be exactly zero
        assert!(matches!(
            Message::decode_payload(0x12, &w.into_bytes()),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn quantized_flags_reserved_bits_rejected() {
        // All four 2-bit class codes are assigned, so the only illegal
        // flag bytes are ones with reserved bits set.
        for flags in [0x08u8, 0x10, 0x80, 0xff] {
            let mut w = crate::codec::PayloadWriter::with_capacity(16);
            w.put_u16(1); // one table entry
            w.put_varint(5);
            w.put_u8(flags);
            let result = Message::decode_payload(0x12, &w.into_bytes());
            assert!(result.is_err(), "flags {flags:#04x} must not decode");
        }
    }

    #[test]
    fn oversized_tracked_list_rejected_at_decode() {
        let declaring = |n: u64| Message::SearchBatchDeltaRequest {
            queries: vec![DeltaQuery {
                second: vec![0.0; 256],
                tracked: (0..n).map(SetId).collect(),
            }],
        };
        let over = declaring(MAX_TRACKED_IDS as u64 + 1);
        assert!(matches!(
            Message::decode_payload(0x11, &over.encode_payload()),
            Err(WireError::BadPayload { .. })
        ));
        let at_cap = declaring(MAX_TRACKED_IDS as u64);
        assert!(Message::decode_payload(0x11, &at_cap.encode_payload()).is_ok());
    }

    #[test]
    fn oversized_delta_batch_rejected_at_decode() {
        let query = DeltaQuery {
            second: vec![0.0; 256],
            tracked: vec![],
        };
        let over = Message::SearchBatchDeltaRequest {
            queries: vec![query.clone(); MAX_BATCH_QUERIES + 1],
        };
        assert!(matches!(
            Message::decode_payload(0x11, &over.encode_payload()),
            Err(WireError::BadPayload { .. })
        ));
        let at_cap = Message::SearchBatchDeltaRequest {
            queries: vec![query; MAX_BATCH_QUERIES],
        };
        assert!(Message::decode_payload(0x11, &at_cap.encode_payload()).is_ok());
    }

    #[test]
    fn truncated_delta_response_rejected_at_every_cut() {
        let msg = Message::SearchBatchDeltaResponse {
            slices: vec![exact_slice(3), scaled_slice(4)],
            results: vec![delta_result(2)],
        };
        let payload = msg.encode_payload();
        for cut in 0..payload.len() {
            assert!(
                Message::decode_payload(0x12, &payload[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn unknown_type_is_typed() {
        assert!(matches!(
            Message::decode_payload(0x7f, &[]),
            Err(WireError::UnknownType { found: 0x7f })
        ));
    }

    #[test]
    fn retired_type_bytes_are_unknown() {
        // The single-query exchanges of versions ≤ 4 and the `f32` batch
        // search pair: never reassigned.
        for retired in [0x01u8, 0x02, 0x09, 0x0a, 0x0f, 0x10] {
            assert!(matches!(
                Message::decode_payload(retired, &[]),
                Err(WireError::UnknownType { found }) if found == retired
            ));
        }
    }

    #[test]
    fn name_is_the_variant_and_costs_no_payload_formatting() {
        // A misrouted top-100 reply: 100 × 1000 samples that an error
        // path must not render just to say which message this was.
        let big = Message::SearchBatchDeltaResponse {
            slices: (0..100).map(exact_slice).collect(),
            results: vec![],
        };
        assert_eq!(big.name(), "SearchBatchDeltaResponse");
        assert_eq!(Message::Ping.name(), "Ping");
        assert_eq!(
            Message::SearchBatchDeltaRequest { queries: vec![] }.name(),
            "SearchBatchDeltaRequest"
        );
    }

    #[test]
    fn unknown_class_label_rejected() {
        let msg = Message::Ingest {
            class: SignalClass::Seizure,
            provenance: prov(),
            samples: vec![0.0; 1000],
        };
        let mut payload = msg.encode_payload();
        // The label "seizure" starts after its u32 length prefix; corrupt it.
        payload[4] = b'x';
        assert!(matches!(
            Message::decode_payload(0x03, &payload),
            Err(WireError::UnknownClass { .. })
        ));
    }

    #[test]
    fn truncated_payload_rejected_at_every_cut() {
        let msg = Message::Ingest {
            class: SignalClass::Normal,
            provenance: prov(),
            samples: vec![0.0; 1000],
        };
        let payload = msg.encode_payload();
        // Inside the label, every provenance field, the sample count and
        // the samples themselves.
        for cut in 0..payload.len() {
            assert!(
                Message::decode_payload(0x03, &payload[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Message::Ping.encode_payload();
        payload.push(0);
        assert!(matches!(
            Message::decode_payload(0x05, &payload),
            Err(WireError::BadPayload { .. })
        ));
    }
}
