//! Seeing inside a remote refresh without touching the program.
//!
//! [`Timed`] is the timing `CloudEndpoint` wrapper: it stamps every call the
//! fleet makes to the cloud. [`ReplayCloud`] is an in-process endpoint that
//! performs a refresh the way client and server do together (encode the
//! delta request, decode it, search, plan the delta against the connection's
//! delivered set, quantize, encode the response, decode it, apply it) using
//! only the crates' public functions, and times each stage. A traced run
//! replays the cycle through it once; the k-th remote refresh of a traced
//! cycle is then attributed with the k-th replayed refresh's stages, and
//! what they do not explain is the transport.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

use emap_cloud::{apply_delta, Delivered, DeltaPlanner};
use emap_core::{CloudEndpoint, CloudService, EmapError};
use emap_edge::{EdgeTracker, SharedSlice, TrackedSignal};
use emap_mdb::SetId;
use emap_search::{Query, SearchWork};
use emap_wire::{
    frame_bytes, read_frame, DeltaHit, DeltaQuery, Message, QuantizedSlice, DEFAULT_MAX_PAYLOAD,
    MAX_TRACKED_IDS,
};

use crate::content::FeedItem;
use crate::fleet::IngestResult;

/// Stamps every refresh an inner endpoint serves.
pub struct Timed<'a> {
    inner: &'a dyn CloudEndpoint,
    /// Round trip of each `refresh_batch` (µs), in call order.
    pub rtt_us: RefCell<Vec<f64>>,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a dyn CloudEndpoint) -> Self {
        Timed {
            inner,
            rtt_us: RefCell::new(Vec::new()),
        }
    }
}

impl CloudEndpoint for Timed<'_> {
    fn refresh(&self, query: &Query, tracker: &mut EdgeTracker) -> Result<(), EmapError> {
        self.refresh_batch(std::slice::from_ref(query), &mut [tracker])
            .pop()
            .expect("one outcome per query")
    }

    fn refresh_batch(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
    ) -> Vec<Result<(), EmapError>> {
        let started = Instant::now();
        let out = self.inner.refresh_batch(queries, trackers);
        self.rtt_us
            .borrow_mut()
            .push(started.elapsed().as_secs_f64() * 1e6);
        out
    }
}

/// One replayed refresh, stage by stage (durations in ns).
#[derive(Debug, Clone, Default)]
pub struct Stages {
    pub queries: usize,
    pub encode_request: u64,
    pub decode_request: u64,
    pub search: u64,
    pub plan: u64,
    pub encode_response: u64,
    pub decode_response: u64,
    pub apply: u64,
    pub bytes_up: usize,
    pub bytes_down: usize,
    pub hits: usize,
    pub known: usize,
    pub work: SearchWork,
}

impl Stages {
    /// The stages as child spans of the remote call, in the order they
    /// happen on the wire.
    pub fn as_spans(&self) -> [(&'static str, u64); 7] {
        [
            ("wire.encode", self.encode_request),
            ("wire.decode", self.decode_request),
            ("search.sweep", self.search),
            ("cloud.plan", self.plan),
            ("wire.encode", self.encode_response),
            ("wire.decode", self.decode_response),
            ("edge.apply", self.apply),
        ]
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn transport(detail: impl std::fmt::Display) -> EmapError {
    EmapError::Transport {
        detail: detail.to_string(),
    }
}

pub struct ReplayCloud {
    service: CloudService,
    /// What the server would hold for this connection.
    delivered: RefCell<Delivered>,
    /// What the client would hold for this connection.
    cache: RefCell<HashMap<SetId, SharedSlice>>,
    pub refreshes: RefCell<Vec<Stages>>,
    /// Duration of each `CloudService::ingest_live`, in ns.
    pub ingest_ns: RefCell<Vec<u64>>,
}

impl ReplayCloud {
    pub fn new(service: CloudService) -> Self {
        ReplayCloud {
            service,
            delivered: RefCell::new(Delivered::new()),
            cache: RefCell::new(HashMap::new()),
            refreshes: RefCell::new(Vec::new()),
            ingest_ns: RefCell::new(Vec::new()),
        }
    }

    pub fn service(&self) -> &CloudService {
        &self.service
    }

    pub fn ingest(&self, item: &FeedItem) -> IngestResult {
        let set = item.to_set();
        let started = Instant::now();
        let outcome = self.service.ingest_live(set);
        self.ingest_ns.borrow_mut().push(ns_since(started));
        outcome.into()
    }

    fn refresh_all(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
    ) -> Result<(), EmapError> {
        let mut st = Stages {
            queries: queries.len(),
            ..Stages::default()
        };

        // Client: declare each session's tracked set, encode the request.
        let t = Instant::now();
        let request = Message::SearchBatchDeltaRequest {
            queries: queries
                .iter()
                .zip(trackers.iter())
                .map(|(q, tracker)| {
                    let mut tracked = tracker.tracked_ids();
                    tracked.truncate(MAX_TRACKED_IDS);
                    DeltaQuery {
                        second: q.samples().to_vec(),
                        tracked,
                    }
                })
                .collect(),
        };
        let up = frame_bytes(&request);
        st.encode_request = ns_since(t);
        st.bytes_up = up.len();

        // Server: decode, search, plan the delta, quantize, encode.
        let t = Instant::now();
        let decoded = read_frame(&mut &up[..], DEFAULT_MAX_PAYLOAD).map_err(transport)?;
        st.decode_request = ns_since(t);
        let Message::SearchBatchDeltaRequest { queries: asked } = decoded else {
            return Err(transport("request decoded to another message"));
        };

        let t = Instant::now();
        let server_queries = asked
            .iter()
            .map(|q| Query::new(&q.second))
            .collect::<Result<Vec<_>, _>>()?;
        let sets = self.service.search_batch(&server_queries)?;
        st.search = ns_since(t);
        for set in &sets {
            st.work.merge(set.work());
        }

        let t = Instant::now();
        let response = self.service.mdb().with_read(|mdb| {
            let mut delivered = self.delivered.borrow_mut();
            let generation_of = |id: SetId| mdb.slot_generation(id).unwrap_or(0);
            let (results, slices, shipped) = {
                let mut planner = DeltaPlanner::new(&delivered, &generation_of);
                let results: Vec<_> = sets
                    .iter()
                    .zip(&asked)
                    .map(|(set, q)| planner.plan(set.hits(), &q.tracked, set.work()))
                    .collect();
                let slices = planner
                    .shipped_ids()
                    .iter()
                    .map(|&id| {
                        let s = mdb.try_get(id)?;
                        Ok(QuantizedSlice::quantize(id, s.class(), s.samples()))
                    })
                    .collect::<Result<Vec<_>, emap_mdb::MdbError>>();
                (results, slices, planner.shipped().to_vec())
            };
            delivered.record_all(shipped);
            slices.map(|slices| Message::SearchBatchDeltaResponse { slices, results })
        });
        let response = response.map_err(transport)?;
        st.plan = ns_since(t);

        let t = Instant::now();
        let down = frame_bytes(&response);
        st.encode_response = ns_since(t);
        st.bytes_down = down.len();

        // Client: decode, rebuild the slice table, resolve references,
        // install.
        let t = Instant::now();
        let decoded = read_frame(&mut &down[..], DEFAULT_MAX_PAYLOAD).map_err(transport)?;
        st.decode_response = ns_since(t);
        let Message::SearchBatchDeltaResponse { slices, results } = decoded else {
            return Err(transport("response decoded to another message"));
        };

        let t = Instant::now();
        let table = slices
            .into_iter()
            .map(|q| SharedSlice::new(q.set_id, q.class, q.dequantize()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(EmapError::Edge)?;
        let mut cache = self.cache.borrow_mut();
        let mut staged = Vec::with_capacity(results.len());
        for (result, tracker) in results.iter().zip(trackers.iter()) {
            st.hits += result.hits.len();
            st.known += result
                .hits
                .iter()
                .filter(|h| matches!(h, DeltaHit::Known { .. }))
                .count();
            let downloads = apply_delta(&table, &result.hits, |id| {
                cache.get(&id).cloned().or_else(|| {
                    tracker
                        .tracked()
                        .iter()
                        .find(|w| w.set_id == id)
                        .map(TrackedSignal::to_shared_slice)
                })
            });
            staged.push(downloads.ok_or_else(|| transport("unresolvable delta reference"))?);
        }
        for s in &table {
            cache.insert(s.set_id(), s.clone());
        }
        for (tracker, downloads) in trackers.iter_mut().zip(staged) {
            tracker.load_shared(downloads);
        }
        st.apply = ns_since(t);

        self.refreshes.borrow_mut().push(st);
        Ok(())
    }
}

impl CloudEndpoint for ReplayCloud {
    fn refresh(&self, query: &Query, tracker: &mut EdgeTracker) -> Result<(), EmapError> {
        self.refresh_all(std::slice::from_ref(query), &mut [tracker])
    }

    fn refresh_batch(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
    ) -> Vec<Result<(), EmapError>> {
        let outcome = self.refresh_all(queries, trackers);
        queries
            .iter()
            .map(|_| match &outcome {
                Ok(()) => Ok(()),
                Err(e) => Err(transport(e)),
            })
            .collect()
    }
}
