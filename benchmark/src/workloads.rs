//! The four workloads: set-up, reference run, warm-up, measured cycles, and
//! — in a traced run — the per-layer table.

use std::collections::BTreeMap;
use std::time::Instant;

use emap_cloud::{
    ClientError, CloudServer, RefreshMode, RemoteCloud, RemoteCloudConfig, ServerConfig, ServerCore,
};
use emap_core::{CloudEndpoint, CloudService, IngestPolicy};
use emap_mdb::Mdb;
use emap_search::{CorrelationSet, Query, SearchConfig, SearchWork};
use emap_telemetry::Registry;
use emap_wire::error_code;

use crate::content::{self, timed, Arrangement, FeedItem, Tier, POOL, SESSIONS, TICKS};
use crate::fleet::{span_us, CycleLog, IngestResult, Refresh, Rig, Script, TracedRig};
use crate::replay::{ReplayCloud, Stages, Timed};
use crate::stats::{self, Digest};
use crate::trace::{self, Recorder};

/// Design rule 3: closed loop, one generator thread, one connection.
pub const GENERATOR_THREADS: usize = 1;
pub const CONNECTIONS: usize = 1;

/// Spans a traced run may record; beyond this they are dropped and counted.
const SPAN_CAPACITY: usize = 1 << 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EdgeOnly,
    CloudSearch,
    FleetRemote,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EdgeOnly,
        Workload::CloudSearch,
        Workload::FleetRemote,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeOnly => "edge_only",
            Workload::CloudSearch => "cloud_search",
            Workload::FleetRemote => "fleet_remote",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn tier(self) -> Tier {
        match self {
            Workload::EdgeOnly | Workload::IngestMixed => Tier::S,
            Workload::FleetRemote => Tier::M,
            Workload::CloudSearch => Tier::L,
        }
    }

    pub fn ops_per_cycle(self) -> usize {
        match self {
            Workload::CloudSearch => POOL,
            _ => TICKS,
        }
    }
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics; a layer that does no work on a workload reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("dsp.fir_us_per_second", "us"),
    ("quality.gate_us_per_second", "us"),
    ("quality.masked_share", "share"),
    ("edge.step_us_p50", "us"),
    ("edge.step_us_p90", "us"),
    ("edge.windows_evaluated_per_step", "count"),
    ("edge.windows_pruned_share", "share"),
    ("edge.tracked_mean", "count"),
    ("edge.apply_us_per_refresh", "us"),
    ("core.tick_us_p50", "us"),
    ("core.refresh_ms_p50", "ms"),
    ("core.refresh_tick_share", "share"),
    ("core.degraded_ticks", "count"),
    ("search.us_per_query_p50", "us"),
    ("search.us_per_query_p90", "us"),
    ("search.ns_per_correlation", "ns"),
    ("search.correlations_per_query", "count"),
    ("search.sets_scanned_per_query", "count"),
    ("search.hosts_pruned_share", "share"),
    ("search.batch8_us_per_query", "us"),
    ("mdb.sets", "count"),
    ("mdb.build_s", "s"),
    ("mdb.rss_kib_per_set", "KiB"),
    ("mdb.insert_us_p50", "us"),
    ("mdb.replacements", "count"),
    ("wire.encode_us_per_refresh", "us"),
    ("wire.decode_us_per_refresh", "us"),
    ("wire.bytes_up_per_refresh", "B"),
    ("wire.bytes_down_per_refresh", "B"),
    ("wire.bytes_per_op", "B"),
    ("wire.known_share", "share"),
    ("cloud.refresh_rtt_us_p50", "us"),
    ("cloud.refresh_rtt_us_p90", "us"),
    ("cloud.transport_us_p50", "us"),
    ("cloud.ingest_rtt_us_p50", "us"),
    ("cloud.ping_rtt_us_p50", "us"),
    ("cloud.busy_total", "count"),
    ("cloud.rejected_total", "count"),
    ("reactor.wakeups_per_request", "count"),
    ("reactor.partial_writes_total", "count"),
    ("trace.overhead_share", "share"),
    ("trace.accounted_share", "share"),
    ("trace.spans", "count"),
];

/// What one run reports.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub digest: u64,
    pub cycles: usize,
    /// Threads alive in this process once the workload is warm.
    pub live_threads: usize,
    pub setup_s: f64,
    pub reference_s: f64,
    pub tier_sets: usize,
    /// Samples beyond their cycle's p90, over all measured cycles.
    pub beyond_p90: usize,
    /// Why `correct` is false, if it is.
    pub faults: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Spans of a traced run, to be written at exit.
    pub recorder: Option<Recorder>,
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    match args.workload {
        Workload::CloudSearch => run_search(args),
        _ => run_fleet(args),
    }
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// A numeric field of `/proc/self/status` (KiB for the memory fields).
fn proc_status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

fn live_threads() -> usize {
    proc_status_kib("Threads:") as usize
}

/// Runs cycles until `seconds` have elapsed and the one in progress is done.
fn measure<C>(
    seconds: f64,
    mut cycle: impl FnMut() -> Result<C, String>,
) -> Result<Vec<C>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(cycle()?);
        if started.elapsed().as_secs_f64() >= seconds {
            return Ok(out);
        }
    }
}

/// Ops per second of one cycle: its ops over the wall time of its timed
/// regions (the harness's own hashing between ops is not the program's).
fn ops_per_s(op_ns: &[u64]) -> f64 {
    op_ns.len() as f64 / (op_ns.iter().sum::<u64>() as f64 / 1e9)
}

/// The five end-to-end metrics from the measured cycles' op times. Every
/// cycle runs the same ops in the same order, so each op is first reduced to
/// its fastest time over the cycles, and the three timing metrics are taken
/// over those: a busy neighbour only ever adds time, and it rarely adds it to
/// the same op in every cycle. Also returns how many raw samples lie beyond
/// the p90 op in all.
fn end_to_end(setup_s: f64, cycles: &[&[u64]]) -> (Vec<(&'static str, f64, &'static str)>, usize) {
    let fastest = stats::fastest_per_op(cycles);
    let ms = stats::sorted(fastest.iter().map(|&ns| ns as f64 / 1e6).collect());
    let values = [
        setup_s,
        ops_per_s(&fastest),
        stats::percentile(&ms, 0.5),
        stats::percentile(&ms, 0.9),
        proc_status_kib("VmHWM:") / 1024.0,
    ];
    (
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        stats::samples_beyond(fastest.len(), 0.9) * cycles.len(),
    )
}

/// The per-layer table, zero where a layer did nothing.
fn per_layer(values: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn p50(values: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(values.to_vec()), 0.5)
}

fn p90(values: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(values.to_vec()), 0.9)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Search-layer rows from per-query sweep times (µs) and the work done.
fn search_rows(
    table: &mut BTreeMap<&'static str, f64>,
    per_query_us: &[f64],
    work: SearchWork,
    queries: usize,
) {
    let q = queries as f64;
    table.insert("search.us_per_query_p50", p50(per_query_us));
    table.insert("search.us_per_query_p90", p90(per_query_us));
    table.insert(
        "search.ns_per_correlation",
        ratio(
            per_query_us.iter().sum::<f64>() * 1e3,
            work.correlations as f64,
        ),
    );
    table.insert(
        "search.correlations_per_query",
        ratio(work.correlations as f64, q),
    );
    table.insert(
        "search.sets_scanned_per_query",
        ratio(work.sets_scanned as f64, q),
    );
    table.insert(
        "search.hosts_pruned_share",
        ratio(
            work.hosts_pruned as f64,
            (work.hosts_pruned + work.sets_scanned) as f64,
        ),
    );
}

// ---------------------------------------------------------------------------
// cloud_search
// ---------------------------------------------------------------------------

fn hash_hits(set: &CorrelationSet) -> u64 {
    let mut d = Digest::new();
    for hit in set.hits() {
        d.word(hit.set_id.0);
        d.word(hit.omega.to_bits());
    }
    d.value()
}

struct SearchCycle {
    op_ns: Vec<u64>,
    failed: usize,
    digest: u64,
    work: SearchWork,
}

fn search_cycle(
    service: &CloudService,
    pool: &[Query],
    order: &[usize],
    expected: &[u64],
    mut rec: Option<(&mut Recorder, u32)>,
) -> SearchCycle {
    let mut out = SearchCycle {
        op_ns: Vec::with_capacity(order.len()),
        failed: 0,
        digest: 0,
        work: SearchWork::default(),
    };
    let mut digest = Digest::new();
    for (i, &q) in order.iter().enumerate() {
        let started = Instant::now();
        let result = match &mut rec {
            Some((rec, first_op)) => {
                let op_id = *first_op + i as u32;
                let op = rec.begin("op", trace::NO_PARENT, op_id);
                let r = rec.span("search.search", op, op_id, || service.search(&pool[q]));
                rec.end(op);
                r
            }
            None => service.search(&pool[q]),
        };
        out.op_ns.push(started.elapsed().as_nanos() as u64);
        match result {
            Ok(set) => {
                let d = hash_hits(&set);
                digest.word(d);
                out.failed += usize::from(d != expected[q]);
                out.work.merge(set.work());
            }
            Err(_) => out.failed += 1,
        }
    }
    out.digest = digest.value();
    out
}

fn run_search(args: &RunArgs) -> Result<Report, String> {
    let arrangement = Arrangement::from_seed(args.seed);
    let order = &arrangement.query_order;

    // Set-up: content, the L-tier store with its caches, the first search.
    let setup_started = Instant::now();
    let pool = content::query_pool();
    let rss_before = proc_status_kib("VmRSS:");
    let (store, build_s) = timed(|| content::build_tier(Tier::L));
    let rss_after = proc_status_kib("VmRSS:");
    let sets = store.len();
    let service = CloudService::new(SearchConfig::paper(), store.into_shared(), 1);
    service.search(&pool[0]).map_err(|e| e.to_string())?;
    let setup_s = setup_started.elapsed().as_secs_f64();

    // Reference: the same pool through the shared sweep, eight queries at a
    // time. A single search must return exactly these hit lists. The pass
    // asks every query of the pool of the same store, so it is also the
    // unrecorded warm-up cycle.
    let reference_started = Instant::now();
    let mut expected = Vec::with_capacity(POOL);
    let mut batch_us_per_query = Vec::new();
    for group in pool.chunks(8) {
        let (sets, secs) = timed(|| service.search_batch(group));
        batch_us_per_query.push(secs * 1e6 / group.len() as f64);
        expected.extend(sets.map_err(|e| e.to_string())?.iter().map(hash_hits));
    }
    let reference_s = reference_started.elapsed().as_secs_f64();
    let mut expected_digest = Digest::new();
    for &q in order {
        expected_digest.word(expected[q]);
    }
    let expected_digest = expected_digest.value();
    let live_threads = live_threads();

    let mut faults = Vec::new();
    let mut recorder = args.trace.then(|| Recorder::with_capacity(SPAN_CAPACITY));
    let mut traced_cycles = Vec::new();
    let mut next_op = 0u32;
    let cycles = measure(args.seconds, || {
        let plain = search_cycle(&service, &pool, order, &expected, None);
        if let Some(rec) = recorder.as_mut() {
            traced_cycles.push(search_cycle(
                &service,
                &pool,
                order,
                &expected,
                Some((rec, next_op)),
            ));
            next_op += POOL as u32;
        }
        Ok(plain)
    })?;

    let all = || cycles.iter().chain(&traced_cycles);
    let attempted = all().map(|c| c.op_ns.len()).sum::<usize>() as u64;
    let failed = all().map(|c| c.failed).sum::<usize>() as u64;
    if all().any(|c| c.digest != expected_digest) {
        faults.push("a cycle's digest differs from the batched sweep's".into());
    }

    let op_times: Vec<&[u64]> = cycles.iter().map(|c| &c.op_ns[..]).collect();
    let (e2e, beyond_p90) = end_to_end(setup_s, &op_times);
    let metrics = match &recorder {
        None => e2e,
        Some(rec) => {
            let mut t = BTreeMap::new();
            let work = traced_cycles
                .iter()
                .fold(SearchWork::default(), |mut w, c| {
                    w.merge(c.work);
                    w
                });
            search_rows(
                &mut t,
                &span_us(rec.spans(), "search.search"),
                work,
                traced_cycles.len() * POOL,
            );
            t.insert(
                "search.batch8_us_per_query",
                stats::median(&batch_us_per_query),
            );
            t.insert("mdb.sets", sets as f64);
            t.insert("mdb.build_s", build_s);
            t.insert(
                "mdb.rss_kib_per_set",
                ratio(rss_after - rss_before, sets as f64),
            );
            let untraced: Vec<f64> = cycles.iter().map(|c| ops_per_s(&c.op_ns)).collect();
            let traced: Vec<f64> = traced_cycles.iter().map(|c| ops_per_s(&c.op_ns)).collect();
            t.insert(
                "trace.overhead_share",
                ratio(stats::median(&untraced), stats::median(&traced)) - 1.0,
            );
            t.insert("trace.accounted_share", trace::accounted_share(rec.spans()));
            t.insert("trace.spans", rec.spans().len() as f64);
            per_layer(&t)
        }
    };

    Ok(Report {
        attempted,
        failed,
        correct: failed == 0 && faults.is_empty(),
        digest: expected_digest,
        live_threads,
        cycles: cycles.len(),
        setup_s,
        reference_s,
        tier_sets: sets,
        beyond_p90,
        faults,
        metrics,
        recorder,
    })
}

// ---------------------------------------------------------------------------
// edge_only, fleet_remote, ingest_mixed
// ---------------------------------------------------------------------------

/// A reactor-core server on loopback and the one client connected to it.
struct Backend {
    client: RemoteCloud,
    server: CloudServer,
}

impl Backend {
    fn bind(service: CloudService) -> Result<Backend, String> {
        // Design rule 3: one worker, no coalescing — with one closed-loop
        // client there is never a second request to coalesce with.
        let config = ServerConfig {
            core: ServerCore::Reactor,
            workers: 1,
            max_batch: 1,
            ..ServerConfig::default()
        };
        let server = CloudServer::bind("127.0.0.1:0", service, config)
            .map_err(|e| format!("bind loopback server: {e}"))?;
        // One attempt per request: a `Busy` or a dropped connection must
        // surface as a degraded tick and be counted, not be retried away.
        let client = RemoteCloud::new(
            server.local_addr().to_string(),
            RemoteCloudConfig {
                attempts: 1,
                refresh: RefreshMode::Delta,
                ..RemoteCloudConfig::default()
            },
        );
        Ok(Backend { client, server })
    }

    fn ingest(&self, item: &FeedItem) -> IngestResult {
        match self
            .client
            .ingest(item.class, item.provenance.clone(), item.samples.clone())
        {
            Ok(_) => IngestResult::Stored,
            Err(ClientError::Remote { code, .. }) if code == error_code::REJECTED_ARTIFACT => {
                IngestResult::Rejected
            }
            Err(_) => IngestResult::Failed,
        }
    }
}

/// The server counters the per-layer table reads.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    bytes: u64,
    wakeups: u64,
    partial_writes: u64,
    busy: u64,
    rejected: u64,
}

impl ServerCounters {
    fn read(registry: &Registry) -> Self {
        let c = |name: &str| registry.counter(name).get();
        ServerCounters {
            bytes: c("cloud_bytes_in_total") + c("cloud_bytes_out_total"),
            wakeups: c("reactor_wakeups_total"),
            partial_writes: c("reactor_partial_writes_total"),
            busy: c("cloud_busy_total"),
            rejected: c("ingest_rejected_total"),
        }
    }

    fn since(self, earlier: ServerCounters) -> Self {
        ServerCounters {
            bytes: self.bytes - earlier.bytes,
            wakeups: self.wakeups - earlier.wakeups,
            partial_writes: self.partial_writes - earlier.partial_writes,
            busy: self.busy - earlier.busy,
            rejected: self.rejected - earlier.rejected,
        }
    }
}

/// One measured cycle plus what the traced run reads off its server.
struct FleetCycle {
    log: CycleLog,
    counters: ServerCounters,
    /// Refresh round trips (µs), in call order.
    rtt_us: Vec<f64>,
    /// Span ids of the refresh calls of a traced cycle.
    refresh_spans: Vec<u32>,
}

struct FleetBench {
    workload: Workload,
    script: Script,
    pristine: Mdb,
    /// `fleet_remote`: the one server and connection of the whole run.
    backend: Option<Backend>,
    /// The in-process run every other cycle must decide like.
    reference: CycleLog,
    rig: Rig,
    traced_rig: TracedRig,
    next_op: u32,
    /// A traced run: stamp the refreshes and read the server's counters.
    /// An untraced run puts nothing between the fleet and its cloud.
    traced: bool,
}

impl FleetBench {
    /// A service over a fresh copy of the tier. `ingest_mixed` bounds the
    /// store at its initial size and gates what enters it.
    fn service(workload: Workload, pristine: &Mdb) -> CloudService {
        let service = CloudService::new(SearchConfig::paper(), pristine.clone().into_shared(), 1);
        if workload == Workload::IngestMixed {
            service.with_ingest_policy(IngestPolicy::gated(pristine.len()))
        } else {
            service
        }
    }

    /// One cycle from the initial state. With `rec`, the cycle is driven
    /// layer by layer and recorded; otherwise through `EdgeFleet`.
    fn cycle(&mut self, rec: Option<&mut Recorder>) -> Result<FleetCycle, String> {
        // `ingest_mixed` mutates its store, so each cycle gets a fresh one
        // behind a fresh server, bound outside the timed region.
        let fresh = match self.workload {
            Workload::IngestMixed => {
                Some(Backend::bind(Self::service(self.workload, &self.pristine))?)
            }
            _ => None,
        };
        let backend = fresh.as_ref().or(self.backend.as_ref());
        if let Some(b) = backend {
            // Every cycle starts cold: both sides forget what was delivered.
            b.client.disconnect();
        }
        let observed = backend.filter(|_| self.traced);
        let before = observed.map(|b| ServerCounters::read(b.server.telemetry()));
        let timed_endpoint = observed.map(|b| Timed::new(&b.client));
        let refresh = match (&timed_endpoint, backend) {
            (Some(t), _) => Refresh::Endpoint(t),
            (None, Some(b)) => Refresh::Endpoint(&b.client),
            (None, None) => Refresh::Restore(&self.reference.saved),
        };
        let ingest_fn = |item: &FeedItem| backend.expect("ingest has a backend").ingest(item);
        let ingest = (self.workload == Workload::IngestMixed)
            .then_some(&ingest_fn as &dyn Fn(&FeedItem) -> IngestResult);

        let (log, refresh_spans) = match rec {
            None => {
                self.rig.reset(&self.script);
                let log = self
                    .rig
                    .run_cycle(&self.script, &refresh, ingest, false)
                    .map_err(|e| e.to_string())?;
                (log, Vec::new())
            }
            Some(rec) => {
                self.traced_rig.reset(&self.script);
                let (log, refresh_spans) = self
                    .traced_rig
                    .run_cycle(&self.script, &refresh, ingest, rec, self.next_op)
                    .map_err(|e| e.to_string())?;
                self.next_op += TICKS as u32;
                (log, refresh_spans)
            }
        };
        Ok(FleetCycle {
            log,
            counters: match (observed, before) {
                (Some(b), Some(before)) => ServerCounters::read(b.server.telemetry()).since(before),
                _ => ServerCounters::default(),
            },
            rtt_us: timed_endpoint
                .map(|t| t.rtt_us.into_inner())
                .unwrap_or_default(),
            refresh_spans,
        })
    }
}

fn run_fleet(args: &RunArgs) -> Result<Report, String> {
    let workload = args.workload;
    let ingesting = workload == Workload::IngestMixed;
    let arrangement = Arrangement::from_seed(args.seed);

    // Set-up: content, the tier's store with its caches, the server, and
    // the first tracked-set load of all eight sessions.
    let setup_started = Instant::now();
    let patients = content::patients();
    let feed = if ingesting {
        content::ingest_feed()
    } else {
        Vec::new()
    };
    let script = Script::new(&patients, feed, &arrangement);
    let rss_before = proc_status_kib("VmRSS:");
    let (pristine, build_s) = timed(|| content::build_tier(workload.tier()));
    let rss_after = proc_status_kib("VmRSS:");
    let sets = pristine.len();
    let in_process = FleetBench::service(workload, &pristine);
    let backend = match workload {
        Workload::EdgeOnly => None,
        // `fleet_remote` serves the store the reference run reads;
        // `ingest_mixed` binds this one for the first load only.
        _ => Some(Backend::bind(in_process.clone())?),
    };
    let mut rig = Rig::new(&script);
    let first: &dyn CloudEndpoint = match &backend {
        Some(b) => &b.client,
        None => &in_process,
    };
    let loaded = rig.first_load(&script, first).map_err(|e| e.to_string())?;
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut faults = Vec::new();
    if loaded != SESSIONS {
        faults.push(format!(
            "first load refreshed {loaded} of {SESSIONS} sessions"
        ));
    }

    // Reference: the same script, in process, against `CloudService`.
    let reference_started = Instant::now();
    let reference_service = if ingesting {
        FleetBench::service(workload, &pristine)
    } else {
        in_process.clone()
    };
    let reference_ingest =
        |item: &FeedItem| IngestResult::from(reference_service.ingest_live(item.to_set()));
    rig.reset(&script);
    let reference = rig
        .run_cycle(
            &script,
            &Refresh::Endpoint(&reference_service),
            ingesting.then_some(&reference_ingest as &dyn Fn(&FeedItem) -> IngestResult),
            workload == Workload::EdgeOnly,
        )
        .map_err(|e| e.to_string())?;
    let reference_s = reference_started.elapsed().as_secs_f64();
    check_reference(&reference, &script, &mut faults);

    let mut bench = FleetBench {
        workload,
        traced_rig: TracedRig::new(&script),
        script,
        pristine,
        backend: if ingesting { None } else { backend },
        reference,
        rig,
        next_op: 0,
        traced: args.trace,
    };

    // Traced runs replay the cycle through the stage-timed endpoint first.
    let replay = match (args.trace, workload) {
        (true, Workload::FleetRemote | Workload::IngestMixed) => {
            let cloud = ReplayCloud::new(FleetBench::service(workload, &bench.pristine));
            let ingest = |item: &FeedItem| cloud.ingest(item);
            bench.rig.reset(&bench.script);
            let log = bench
                .rig
                .run_cycle(
                    &bench.script,
                    &Refresh::Endpoint(&cloud),
                    ingesting.then_some(&ingest as &dyn Fn(&FeedItem) -> IngestResult),
                    false,
                )
                .map_err(|e| e.to_string())?;
            if log.failed_against(&bench.reference) > 0 {
                faults.push("the replayed cycle decides differently from the reference".into());
            }
            Some(cloud)
        }
        _ => None,
    };

    let warm = bench.cycle(None)?;
    let warm_failed = warm.log.failed_against(&bench.reference);
    if warm_failed > 0 {
        faults.push(format!(
            "warm-up: {warm_failed} ops differ from the reference"
        ));
    }
    let live_threads = live_threads();

    let mut recorder = args.trace.then(|| Recorder::with_capacity(SPAN_CAPACITY));
    let mut traced_cycles = Vec::new();
    let cycles = measure(args.seconds, || {
        let plain = bench.cycle(None)?;
        if let Some(rec) = recorder.as_mut() {
            traced_cycles.push(bench.cycle(Some(rec))?);
        }
        Ok(plain)
    })?;

    let all = || cycles.iter().chain(&traced_cycles);
    let attempted = (all().count() * TICKS) as u64;
    let failed = all()
        .map(|c| c.log.failed_against(&bench.reference))
        .sum::<usize>() as u64;
    let degraded: usize = all().map(|c| c.log.degraded_ticks).sum();
    if degraded > 0 {
        faults.push(format!("{degraded} degraded ticks"));
    }

    let op_times: Vec<&[u64]> = cycles.iter().map(|c| &c.log.op_ns[..]).collect();
    let (e2e, beyond_p90) = end_to_end(setup_s, &op_times);
    let metrics = match recorder.as_mut() {
        None => e2e,
        Some(rec) => {
            let mut t = BTreeMap::new();
            t.insert("mdb.sets", sets as f64);
            t.insert("mdb.build_s", build_s);
            t.insert(
                "mdb.rss_kib_per_set",
                ratio(rss_after - rss_before, sets as f64),
            );
            fleet_rows(
                &mut t,
                &bench,
                &cycles,
                &traced_cycles,
                replay.as_ref(),
                rec,
            )?;
            per_layer(&t)
        }
    };

    Ok(Report {
        attempted,
        failed,
        correct: failed == 0 && faults.is_empty(),
        digest: bench.reference.digest(),
        live_threads,
        cycles: cycles.len(),
        setup_s,
        reference_s,
        tier_sets: sets,
        beyond_p90,
        faults,
        metrics,
        recorder,
    })
}

/// The reference run must itself be right: the three anomalous patients
/// alarm and the five normal ones never, the edge gate masks exactly the
/// scheduled seconds, and the cloud gate rejects exactly the flatlines.
fn check_reference(reference: &CycleLog, script: &Script, faults: &mut Vec<String>) {
    for (s, patient) in script.patients.iter().enumerate() {
        if reference.alarms[s] != patient.class.is_anomaly() {
            faults.push(format!(
                "session {s} ({}): alarm {} but the patient is {}",
                patient.class,
                reference.alarms[s],
                if patient.class.is_anomaly() {
                    "anomalous"
                } else {
                    "normal"
                },
            ));
        }
    }
    if reference.gate_wrong > 0 || reference.masked as usize != script.scheduled_artifacts() {
        faults.push(format!(
            "edge gate masked {} seconds, {} were scheduled",
            reference.masked,
            script.scheduled_artifacts()
        ));
    }
    let flatlines = script.feed.iter().filter(|i| i.flatline).count();
    if reference.ingest_wrong > 0 || reference.ingest_rejected != flatlines {
        faults.push(format!(
            "cloud gate rejected {} slices, {flatlines} flatlines were injected",
            reference.ingest_rejected
        ));
    }
    if reference.degraded_ticks > 0 {
        faults.push("the in-process reference degraded".into());
    }
}

/// Fills the per-layer table of a traced fleet run.
fn fleet_rows(
    t: &mut BTreeMap<&'static str, f64>,
    bench: &FleetBench,
    cycles: &[FleetCycle],
    traced: &[FleetCycle],
    replay: Option<&ReplayCloud>,
    rec: &mut Recorder,
) -> Result<(), String> {
    let reference = &bench.reference;

    // dsp, quality, edge: spans of the traced cycles, counts of the script.
    t.insert(
        "dsp.fir_us_per_second",
        stats::mean(&span_us(rec.spans(), "dsp.process_second")),
    );
    t.insert(
        "quality.gate_us_per_second",
        stats::mean(&span_us(rec.spans(), "quality.assess_second")),
    );
    t.insert(
        "quality.masked_share",
        ratio(reference.masked as f64, (TICKS * SESSIONS) as f64),
    );
    let steps = span_us(rec.spans(), "edge.step");
    t.insert("edge.step_us_p50", p50(&steps));
    t.insert("edge.step_us_p90", p90(&steps));
    t.insert(
        "edge.windows_evaluated_per_step",
        ratio(reference.windows_evaluated as f64, reference.steps as f64),
    );
    t.insert(
        "edge.windows_pruned_share",
        ratio(
            reference.windows_pruned as f64,
            (reference.windows_pruned + reference.windows_evaluated) as f64,
        ),
    );
    t.insert(
        "edge.tracked_mean",
        ratio(reference.tracked_sum as f64, (TICKS * SESSIONS) as f64),
    );

    // core: the untraced cycles, which run through `EdgeFleet`.
    let (mut quiet_us, mut refresh_ms) = (Vec::new(), Vec::new());
    for c in cycles {
        for (&ns, &refreshed) in c.log.op_ns.iter().zip(&c.log.refreshed) {
            // `edge_only` restores outside the op: no tick carries a refresh.
            if refreshed > 0 && bench.workload != Workload::EdgeOnly {
                refresh_ms.push(ns as f64 / 1e6);
            } else {
                quiet_us.push(ns as f64 / 1e3);
            }
        }
    }
    t.insert("core.tick_us_p50", p50(&quiet_us));
    t.insert("core.refresh_ms_p50", p50(&refresh_ms));
    t.insert(
        "core.refresh_tick_share",
        ratio(
            refresh_ms.len() as f64,
            (refresh_ms.len() + quiet_us.len()) as f64,
        ),
    );
    t.insert(
        "core.degraded_ticks",
        cycles
            .iter()
            .chain(traced)
            .map(|c| c.log.degraded_ticks)
            .sum::<usize>() as f64,
    );

    let untraced_rate: Vec<f64> = cycles.iter().map(|c| ops_per_s(&c.log.op_ns)).collect();
    let traced_rate: Vec<f64> = traced.iter().map(|c| ops_per_s(&c.log.op_ns)).collect();
    t.insert(
        "trace.overhead_share",
        ratio(stats::median(&untraced_rate), stats::median(&traced_rate)) - 1.0,
    );

    if let Some(replay) = replay {
        let stages = replay.refreshes.borrow();
        remote_rows(t, bench, cycles, traced, &stages, replay, rec)?;
    }

    t.insert("trace.accounted_share", trace::accounted_share(rec.spans()));
    t.insert("trace.spans", rec.spans().len() as f64);
    Ok(())
}

/// Rows that exist only when a cloud is in the loop.
fn remote_rows(
    t: &mut BTreeMap<&'static str, f64>,
    bench: &FleetBench,
    cycles: &[FleetCycle],
    traced: &[FleetCycle],
    stages: &[Stages],
    replay: &ReplayCloud,
    rec: &mut Recorder,
) -> Result<(), String> {
    // search, wire, apply: the replayed refreshes.
    let n = stages.len() as f64;
    let per_query_us: Vec<f64> = stages
        .iter()
        .flat_map(|s| std::iter::repeat_n(s.search as f64 / 1e3 / s.queries as f64, s.queries))
        .collect();
    let work = stages.iter().fold(SearchWork::default(), |mut w, s| {
        w.merge(s.work);
        w
    });
    search_rows(t, &per_query_us, work, per_query_us.len());
    // The cold refresh of tick 0 is the one batch of eight.
    t.insert(
        "search.batch8_us_per_query",
        stages
            .iter()
            .find(|s| s.queries == SESSIONS)
            .map_or(0.0, |s| s.search as f64 / 1e3 / SESSIONS as f64),
    );
    let sum = |f: fn(&Stages) -> u64| stages.iter().map(f).sum::<u64>() as f64;
    t.insert(
        "wire.encode_us_per_refresh",
        ratio(sum(|s| s.encode_request + s.encode_response) / 1e3, n),
    );
    t.insert(
        "wire.decode_us_per_refresh",
        ratio(sum(|s| s.decode_request + s.decode_response) / 1e3, n),
    );
    t.insert(
        "wire.bytes_up_per_refresh",
        ratio(sum(|s| s.bytes_up as u64), n),
    );
    t.insert(
        "wire.bytes_down_per_refresh",
        ratio(sum(|s| s.bytes_down as u64), n),
    );
    t.insert(
        "wire.known_share",
        ratio(sum(|s| s.known as u64), sum(|s| s.hits as u64)),
    );
    t.insert(
        "edge.apply_us_per_refresh",
        ratio(sum(|s| s.apply) / 1e3, n),
    );
    let inserts: Vec<f64> = replay
        .ingest_ns
        .borrow()
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    t.insert("mdb.insert_us_p50", p50(&inserts));
    t.insert(
        "mdb.replacements",
        replay.service().mdb().with_read(|m| m.replacements()) as f64,
    );

    // cloud: the timing wrapper's round trips, and what the replayed search
    // does not explain of them.
    let rtts: Vec<f64> = cycles
        .iter()
        .chain(traced)
        .flat_map(|c| c.rtt_us.iter().copied())
        .collect();
    t.insert("cloud.refresh_rtt_us_p50", p50(&rtts));
    t.insert("cloud.refresh_rtt_us_p90", p90(&rtts));
    let mut transport = Vec::new();
    for c in cycles.iter().chain(traced) {
        if c.rtt_us.len() == stages.len() {
            transport.extend(
                c.rtt_us
                    .iter()
                    .zip(stages)
                    .map(|(rtt, s)| rtt - s.search as f64 / 1e3),
            );
        }
    }
    t.insert("cloud.transport_us_p50", p50(&transport));
    t.insert(
        "cloud.ingest_rtt_us_p50",
        p50(&span_us(rec.spans(), "cloud.ingest")),
    );

    // Attribute the inside of each traced remote call with the replay.
    for c in traced {
        if c.refresh_spans.len() == stages.len() {
            for (&span, s) in c.refresh_spans.iter().zip(stages) {
                rec.push_replayed(span, &s.as_spans());
            }
        }
    }

    // Pings, on a live connection, outside any cycle.
    let fresh;
    let backend = match &bench.backend {
        Some(b) => b,
        None => {
            fresh = Backend::bind(FleetBench::service(bench.workload, &bench.pristine))?;
            &fresh
        }
    };
    let mut pings = Vec::with_capacity(32);
    for _ in 0..32 {
        let (pong, secs) = timed(|| backend.client.ping());
        pong.map_err(|e| format!("ping: {e}"))?;
        pings.push(secs * 1e6);
    }
    t.insert("cloud.ping_rtt_us_p50", p50(&pings));

    // Server and reactor counters, per cycle.
    let all = || cycles.iter().chain(traced);
    let bytes_per_op: Vec<f64> = all()
        .map(|c| c.counters.bytes as f64 / TICKS as f64)
        .collect();
    t.insert("wire.bytes_per_op", stats::median(&bytes_per_op));
    let wakeups_per_request: Vec<f64> = all()
        .map(|c| {
            let requests = c.rtt_us.len() + bench.script.feed.len();
            ratio(c.counters.wakeups as f64, requests as f64)
        })
        .collect();
    t.insert(
        "reactor.wakeups_per_request",
        stats::median(&wakeups_per_request),
    );
    t.insert(
        "reactor.partial_writes_total",
        all().map(|c| c.counters.partial_writes).sum::<u64>() as f64,
    );
    t.insert(
        "cloud.busy_total",
        all().map(|c| c.counters.busy).sum::<u64>() as f64,
    );
    t.insert(
        "cloud.rejected_total",
        all().map(|c| c.counters.rejected).sum::<u64>() as f64,
    );
    Ok(())
}
