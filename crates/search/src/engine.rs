//! The **kernel → bound → wave → scan → select** engine: the cloud
//! search itself.
//!
//! The cloud exists to serve *many* wearables against one mega-database
//! (§V-B slices the MDB precisely so searches can run in parallel).
//! [`BatchExecutor::sweep`] is the one way a query meets the store:
//!
//! 1. **kernel** — the active [`ScanKernel`] fixes the trajectory a scan
//!    follows through a host: every offset, or Algorithm 1's exponential
//!    skip at the configuration's `α`;
//! 2. **bound** — every host is ranked by an O(1) admissible upper bound
//!    on the best `ω` it can produce, read from the mega-database's
//!    precomputed envelope index (`emap_dsp::spectra`, prewarmed per
//!    signal-set like the prefix statistics) against the query's spectrum
//!    ([`crate::QueryIndex`]);
//! 3. **wave** — hosts are taken best-bound-first in fixed-size waves. A
//!    running top-K floor ([`crate::index`]) rises as candidates
//!    accumulate; a host whose bound falls below the floor snapshot taken
//!    at its wave's boundary (or at/below `δ`) is skipped without touching
//!    its samples, and the sweep ends outright once the best remaining
//!    bound cannot displace the floor;
//! 4. **scan** — a wave's surviving hosts are scanned along the kernel's
//!    trajectory by up to [`BatchExecutor::workers`] threads;
//! 5. **select** — candidates are stably re-sorted into set-id order and
//!    the per-query top-K is taken ([`CorrelationSet::from_candidates`]).
//!
//! Queries of a batch are served independently over one consistent
//! snapshot of the store: per-query host ordering is what makes the early
//! exit possible.
//!
//! Two invariants are load-bearing, and the crate's property tests pin
//! both against reference implementations kept in the test tree:
//!
//! - because the bound is admissible and the prune test strict, the hits
//!   are **those of a scan of every host in set-id order, tie order
//!   included** — pruning only moves the work counters
//!   ([`SearchWork::hosts_pruned`], [`SearchWork::bound_evaluations`]);
//! - prune decisions bind to floor snapshots taken at wave boundaries, and
//!   within a wave each host's candidates stay together while counters are
//!   commutative sums, so hits *and* every [`SearchWork`] field are the
//!   same for any worker count.
//!
//! Both kernels drive the one `(query, host)` scan, `HostScan`, one window
//! per `HostScan::step`. It moves on a window's certified bracket
//! (`emap_dsp::kernel::HostKernel::at`, an f32 dot product in place of the
//! f64 one, inlined into the step) when it settles everything the exact
//! `ω` would — the skip, the side of `δ`, whether the window could be its
//! host's best — and resolves exactly whatever it cannot, so trajectory,
//! hits and [`SearchWork`] are those of a scan that evaluates every window
//! exactly.
//!
//! With telemetry attached, the sweep also sums the wall time of its
//! stages — plan, fine bounds, scan and select — from clocks read once per
//! query or wave, never per window ([`SweepTelemetry`]).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use emap_dsp::kernel::{HostKernel, Omega};
use emap_mdb::{Mdb, SetId, SignalSet};

use crate::index::{QueryIndex, TopKFloor};
use crate::skip::SkipTable;
use crate::telemetry::StageNanos;
use crate::{
    CorrelationSet, Query, SearchConfig, SearchError, SearchHit, SearchWork, SweepTelemetry,
};

/// Hosts per wave of the sweep: the floor snapshot is refreshed at
/// every wave boundary, so a smaller wave prunes more aggressively while a
/// larger one exposes more parallel scan work per barrier. 64 hosts ≈ a few
/// milliseconds of scan work — enough to feed a worker pool, small enough
/// that the floor stays fresh.
const INDEX_WAVE: usize = 64;

/// The trajectory a scan follows through a host — the "score" stage of
/// the engine. A plain value: the skip law's `α` is read from the
/// executor's [`SearchConfig`], never from the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanKernel {
    /// Stride-1 evaluation of every offset (the Fig. 5 baseline).
    Exhaustive,
    /// Algorithm 1: after evaluating `ω` at an offset, skip
    /// `β = α^(ω−1)` samples (the exponential sliding window of Fig. 6),
    /// with `α` = [`SearchConfig::alpha`].
    Sliding,
}

/// One host's windows as a scan reads them: the certified bracket or the
/// exact `ω` at an offset. The sweep reads [`HostKernel`]; the engine's
/// tests read the reference front half (`emap-dsp`'s
/// `tests/oracle/bracket.rs`) through the same scan.
trait Windows {
    fn last_offset(&self) -> usize;
    fn at(&mut self, beta: usize) -> Omega;
    fn exact_at(&mut self, beta: usize) -> f64;
}

impl Windows for HostKernel<'_> {
    fn last_offset(&self) -> usize {
        HostKernel::last_offset(self)
    }

    #[inline(always)]
    fn at(&mut self, beta: usize) -> Omega {
        HostKernel::at(self, beta)
    }

    fn exact_at(&mut self, beta: usize) -> f64 {
        HostKernel::exact_at(self, beta)
    }
}

/// How a sweep binds its query to one host's [`Windows`].
trait Bind: Sync {
    type Host<'a>: Windows;

    fn bind<'a>(&self, query: &'a Query, set: &'a SignalSet)
        -> Result<Self::Host<'a>, SearchError>;
}

/// The served binding: the query's kernel on the set's samples and
/// statistics.
struct Served;

impl Bind for Served {
    type Host<'a> = HostKernel<'a>;

    fn bind<'a>(
        &self,
        query: &'a Query,
        set: &'a SignalSet,
    ) -> Result<HostKernel<'a>, SearchError> {
        Ok(query.kernel().on_host(set.samples(), set.stats())?)
    }
}

/// One `(query, host)` scan in progress: the single home of the
/// match → best / candidates logic, driven by either kernel's trajectory.
///
/// A window is evaluated only as far as the scan needs it. The kernel hands
/// back a certified bracket `lo ≤ ω ≤ hi` ([`HostKernel::at`]); a window
/// advances on it when the bracket settles everything the exact `ω` would
/// have: the trajectory's decision (the skip), the side of
/// `δ`, and — under per-set dedup, where only the host's best window is
/// ever reported — whether it could be that best. Whatever the bracket
/// cannot settle is resolved with the exact `ω`, so decisions, hits and
/// counters are those of a scan that evaluates every window exactly.
/// Without dedup it is that scan: brackets are not consulted.
struct HostScan<'a, W> {
    kernel: W,
    delta: f64,
    dedup: bool,
    id: SetId,
    state: &'a mut QueryState,
    /// Dedup: the largest lower end among this host's matches so far. Some
    /// match's exact `ω` is at least this, so a match whose upper end is
    /// below it is strictly beaten and cannot be the host's best.
    floor: f64,
    /// Dedup: the matches that could still be the best when visited, as
    /// `(β, lo, hi)` in visit order (`lo == hi`: already exact).
    parked: Vec<(usize, f64, f64)>,
}

impl<W: Windows> HostScan<'_, W> {
    /// Visits the window at `beta` and returns the trajectory's step from
    /// it: the skip law's for `skips`, 1 without one. The window is
    /// evaluated as far as its decisions need — the side of `δ` and the
    /// skip, which every `ω` of a bracket must share — then booked: a
    /// match is counted, and kept as a candidate or parked for
    /// [`HostScan::finish`].
    #[inline(always)]
    fn step(&mut self, beta: usize, skips: Option<&SkipTable>) -> usize {
        self.state.work.correlations += 1;
        let delta = self.delta;
        // Without dedup every match is a candidate and needs its exact ω;
        // where most windows match, a bracket first would be paid on top.
        let seen = if self.dedup {
            self.kernel.at(beta)
        } else {
            Omega::Exact(self.kernel.exact_at(beta))
        };
        let settled = match seen {
            Omega::Bracket { lo, hi } if !(lo < hi && (lo > delta) != (hi > delta)) => {
                match skips {
                    Some(skips) => skips.skip_between(lo, hi).map(|skip| (skip, lo, hi)),
                    None => Some((1, lo, hi)),
                }
            }
            _ => None,
        };
        let (skip, lo, hi) = settled.unwrap_or_else(|| {
            let omega = match seen {
                Omega::Exact(omega) => omega,
                Omega::Bracket { .. } => self.kernel.exact_at(beta),
            };
            self.state.exact += 1;
            (skips.map_or(1, |skips| skips.skip(omega)), omega, omega)
        });
        if lo > delta {
            self.state.work.matches += 1;
            if !self.dedup {
                self.state.candidates.push(SearchHit {
                    set_id: self.id,
                    omega: lo,
                    beta,
                });
            } else if hi >= self.floor {
                self.parked.push((beta, lo, hi));
                self.floor = self.floor.max(lo);
            }
        }
        skip
    }

    /// Dedup: the host's best match — the first, in visit order, to hold
    /// the largest exact `ω` (the strict `>` of a scan that compares every
    /// match as it goes). Only parked windows whose upper end reaches the
    /// final floor can hold it; those are resolved exactly, in order.
    fn finish(mut self) -> Option<SearchHit> {
        let mut best: Option<SearchHit> = None;
        for (beta, lo, hi) in self.parked {
            if hi < self.floor {
                continue;
            }
            let omega = if lo == hi {
                lo
            } else {
                self.state.exact += 1;
                self.kernel.exact_at(beta)
            };
            if best.is_none_or(|b| omega > b.omega) {
                best = Some(SearchHit {
                    set_id: self.id,
                    omega,
                    beta,
                });
            }
        }
        best
    }
}

/// A clock for the sweep's stage sums: each lap is the time since the
/// last, read only when telemetry times the stages — otherwise every lap
/// is 0 and no clock is read.
struct Stopwatch(Option<Instant>);

impl Stopwatch {
    fn new(on: bool) -> Self {
        Stopwatch(on.then(Instant::now))
    }

    fn lap(&mut self) -> u64 {
        self.0.as_mut().map_or(0, |since| {
            let now = Instant::now();
            let nanos = now.duration_since(*since).as_nanos();
            *since = now;
            u64::try_from(nanos).unwrap_or(u64::MAX)
        })
    }
}

/// Per-query accumulation state of one sweep: the candidate list and the
/// work counters.
#[derive(Debug, Clone, Default)]
struct QueryState {
    candidates: Vec<SearchHit>,
    work: SearchWork,
    /// Windows whose exact `ω` the scan consumed — as deterministic as
    /// `work`, but kept beside it: [`SearchWork`] is a wire payload.
    exact: u64,
    /// Wall time per stage, summed only when telemetry times them.
    stages: StageNanos,
}

impl QueryState {
    /// Appends what another worker or wave accumulated.
    fn absorb(&mut self, other: QueryState) {
        self.candidates.extend(other.candidates);
        self.work.merge(other.work);
        self.exact += other.exact;
    }
}

/// The batch executor — the one way a query meets the store: one
/// [`ScanKernel`] swept over the store for every in-flight query (see the
/// module docs for the stages; the crate docs show it serving a query).
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    kernel: ScanKernel,
    config: SearchConfig,
    /// The skip law for `config.alpha()`, consulted by the sliding kernel.
    skips: SkipTable,
    workers: usize,
    telemetry: Option<SweepTelemetry>,
}

impl BatchExecutor {
    /// Creates an executor scanning with `kernel` under `config` on the
    /// calling thread.
    #[must_use]
    pub fn new(kernel: ScanKernel, config: SearchConfig) -> Self {
        BatchExecutor {
            kernel,
            config,
            skips: SkipTable::new(config.alpha()),
            workers: 1,
            telemetry: None,
        }
    }

    /// Scans each wave's surviving hosts with up to `workers` threads
    /// (clamped to ≥ 1). Hits and work counters do not depend on it.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Number of scan threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Attaches sweep telemetry: per-sweep latency plus hosts-scanned /
    /// windows-evaluated / skip-jump totals, recorded once per sweep after
    /// the select stage. The scan loops are untouched, so an instrumented
    /// executor returns bitwise-identical results.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: SweepTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The active kernel.
    #[must_use]
    pub fn kernel(&self) -> ScanKernel {
        self.kernel
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Finds the correlation set `T` for one query: a batch of one.
    ///
    /// # Errors
    ///
    /// Any [`SearchError`] the scan raises.
    pub fn search(&self, query: &Query, mdb: &Mdb) -> Result<CorrelationSet, SearchError> {
        let mut out = self.sweep(std::slice::from_ref(query), mdb)?;
        Ok(out.pop().expect("one result per query"))
    }

    /// Runs the sweep for each query over one snapshot of `mdb` and returns
    /// one [`CorrelationSet`] per query, in query order. An empty batch
    /// returns at once and records no sweep.
    ///
    /// # Errors
    ///
    /// The first [`SearchError`] any scan raises.
    pub fn sweep(&self, queries: &[Query], mdb: &Mdb) -> Result<Vec<CorrelationSet>, SearchError> {
        self.sweep_with(queries, mdb, &Served)
    }

    /// [`BatchExecutor::sweep`] reading each host's windows through `bind`.
    fn sweep_with<B: Bind>(
        &self,
        queries: &[Query],
        mdb: &Mdb,
        bind: &B,
    ) -> Result<Vec<CorrelationSet>, SearchError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let timer = self.telemetry.as_ref().map(SweepTelemetry::start_sweep);
        let hosts: Vec<(SetId, &SignalSet)> = mdb.iter_with_ids().collect();
        let states = queries
            .iter()
            .map(|q| self.query_state(q, &hosts, bind))
            .collect::<Result<Vec<QueryState>, SearchError>>()?;

        // The "select" stage — per-query stable top-K over the accumulated
        // candidates — and the one place a sweep is recorded.
        let mut clock = self.stopwatch();
        let (mut exact, mut stages) = (0, StageNanos::default());
        let out: Vec<CorrelationSet> = states
            .into_iter()
            .map(|s| {
                exact += s.exact;
                stages.merge(s.stages);
                CorrelationSet::from_candidates(s.candidates, self.config.top_k(), s.work)
            })
            .collect();
        stages.select += clock.lap();
        if let Some(t) = &self.telemetry {
            drop(timer);
            t.record_sweep(self.kernel, &out, exact, &stages);
        }
        Ok(out)
    }

    /// The stage clock: running only when telemetry is attached and its
    /// registry times.
    fn stopwatch(&self) -> Stopwatch {
        Stopwatch::new(
            self.telemetry
                .as_ref()
                .is_some_and(SweepTelemetry::times_stages),
        )
    }

    /// The sweep body for one query over `hosts` (in set-id order): rank by
    /// coarse bound, then wave-by-wave prune → fine-refine → scan, with the
    /// floor snapshot frozen per wave so every worker count takes identical
    /// decisions.
    fn query_state<B: Bind>(
        &self,
        query: &Query,
        hosts: &[(SetId, &SignalSet)],
        bind: &B,
    ) -> Result<QueryState, SearchError> {
        let mut state = QueryState::default();
        if hosts.is_empty() {
            return Ok(state);
        }
        let mut clock = self.stopwatch();
        let index = QueryIndex::new(query);

        // Rank hosts best-coarse-bound-first; ties resolve to the lower
        // set id so the order — and everything downstream — is
        // deterministic.
        let mut order: Vec<(f64, usize)> = hosts
            .iter()
            .enumerate()
            .map(|(i, (_, set))| (index.coarse_bound(set), i))
            .collect();
        state.work.bound_evaluations += hosts.len() as u64;
        order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        state.stages.plan += clock.lap();

        let delta = self.config.delta();
        let mut floor = TopKFloor::new(self.config.top_k());
        let mut pos = 0usize;
        while pos < order.len() {
            let wave = &order[pos..(pos + INDEX_WAVE).min(order.len())];
            let snapshot = floor.floor();
            // A host is prunable when no window of it can clear `δ` or
            // displace (even tie into) the current top-K.
            let below = |bound: f64| bound <= delta || snapshot.is_some_and(|f| bound < f);

            // The wave's first host carries the best remaining coarse
            // bound: if even that is prunable, so is everything after it —
            // the sweep terminates.
            if below(wave[0].0) {
                state.work.hosts_pruned += (order.len() - pos) as u64;
                state.stages.fine += clock.lap();
                break;
            }

            let mut survivors: Vec<(usize, Option<Vec<Range<usize>>>)> = Vec::new();
            for &(coarse, idx) in wave {
                if below(coarse) {
                    state.work.hosts_pruned += 1;
                    continue;
                }
                // Fine refinement: one pass over the host's fine envelope
                // groups. For the exhaustive kernel the pass doubles as the
                // per-group skip list — only offsets inside groups that can
                // still matter get scanned, and the host is prunable when
                // none is left. The sliding kernel's trajectory must see
                // the host whole, so it only asks whether some group can
                // still matter — `below` only turns false as a bound grows,
                // so the pass stops at the first that can, and skips every
                // coarse group whose own bound is already below.
                state.work.bound_evaluations += 1;
                let matters = |bound: f64| !below(bound);
                let mut surviving = hosts[idx]
                    .1
                    .spectra()
                    .fine_bounds(index.spectrum(), matters)
                    .filter(|&(_, bound)| matters(bound));
                let (prunable, ranges) = match self.kernel {
                    ScanKernel::Exhaustive => {
                        let mut ranges: Vec<Range<usize>> = Vec::new();
                        for (r, _) in surviving {
                            match ranges.last_mut() {
                                Some(last) if last.end == r.start => last.end = r.end,
                                _ => ranges.push(r),
                            }
                        }
                        (ranges.is_empty(), Some(ranges))
                    }
                    ScanKernel::Sliding => (surviving.next().is_none(), None),
                };
                if prunable {
                    state.work.hosts_pruned += 1;
                } else {
                    survivors.push((idx, ranges));
                }
            }

            state.stages.fine += clock.lap();
            let scanned = self.scan_survivors(query, hosts, &survivors, bind)?;
            for hit in &scanned.candidates {
                floor.push(hit.omega);
            }
            state.absorb(scanned);
            state.stages.scan += clock.lap();
            pos += wave.len();
        }

        // Hosts were scanned in bound order, each one's candidates kept
        // together in visit order: a stable sort by set id hands the top-K
        // sort exactly the candidate order of a scan in set-id order (minus
        // candidates the bound proved irrelevant).
        state.candidates.sort_by_key(|hit| hit.set_id);
        state.stages.select += clock.lap();
        Ok(state)
    }

    /// Scans one `(query, host)` pair along the kernel's trajectory,
    /// appending the host's candidates to `state` and charging its
    /// counters. `ranges` confines the exhaustive kernel to the offsets
    /// whose fine envelope groups survived the bound test (the sliding
    /// kernel must see a host whole and is never given any): with per-set
    /// dedup the pushed best may then differ from the whole-host best only
    /// when both fall below the wave's floor — in which case neither can
    /// reach the final top-K.
    fn scan_host<B: Bind>(
        &self,
        query: &Query,
        (id, set): (SetId, &SignalSet),
        ranges: Option<&[Range<usize>]>,
        state: &mut QueryState,
        bind: &B,
    ) -> Result<(), SearchError> {
        state.work.sets_scanned += 1;
        if set.samples().len() < query.kernel().window_len() {
            return Ok(());
        }
        let mut scan = HostScan {
            kernel: bind.bind(query, set)?,
            delta: self.config.delta(),
            dedup: self.config.dedup_per_set(),
            id,
            state,
            floor: f64::NEG_INFINITY,
            parked: Vec::new(),
        };
        let last = scan.kernel.last_offset();
        match self.kernel {
            ScanKernel::Exhaustive => {
                let whole = 0..last + 1;
                for range in ranges.unwrap_or(std::slice::from_ref(&whole)) {
                    for beta in range.start..range.end.min(last + 1) {
                        scan.step(beta, None);
                    }
                }
            }
            ScanKernel::Sliding => {
                // Algorithm 1 line 4: while β < Length(S) − Length(I_N). We
                // include the final aligned offset as well (`<=`), so an
                // embedding at the very end of a set is not missed.
                //
                // Nineteen skips in twenty are 2 or 3 (ω ≈ 0.8–0.9). Taken
                // as branches — `black_box` keeps the compiler from folding
                // them back into `beta + skip` — the next offset is a
                // prediction the CPU runs ahead on, not a sum that waits
                // for this window's ω. The offsets are the same.
                let mut beta = 0usize;
                while beta <= last {
                    beta += match scan.step(beta, Some(&self.skips)) {
                        2 => std::hint::black_box(2),
                        3 => std::hint::black_box(3),
                        skip => skip,
                    };
                }
            }
        }
        let best = scan.finish();
        state.candidates.extend(best);
        Ok(())
    }

    /// Scans one wave's surviving hosts, sequentially or via a worker
    /// pool, into one accumulator. Scan order within the wave cannot
    /// influence the result: each host's candidates stay together and are
    /// re-sorted by host before selection, counters are commutative sums.
    fn scan_survivors<B: Bind>(
        &self,
        query: &Query,
        hosts: &[(SetId, &SignalSet)],
        survivors: &[(usize, Option<Vec<Range<usize>>>)],
        bind: &B,
    ) -> Result<QueryState, SearchError> {
        let scan_into = |state: &mut QueryState, (idx, ranges): &(usize, Option<Vec<_>>)| {
            self.scan_host(query, hosts[*idx], ranges.as_deref(), state, bind)
        };

        let mut merged = QueryState::default();
        let workers = self.workers.min(survivors.len());
        if workers <= 1 {
            for survivor in survivors {
                scan_into(&mut merged, survivor)?;
            }
            return Ok(merged);
        }

        let next = AtomicUsize::new(0);
        let results: Vec<Result<QueryState, SearchError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (next, scan_into) = (&next, &scan_into);
                    scope.spawn(move || {
                        let mut state = QueryState::default();
                        loop {
                            let t = next.fetch_add(1, Ordering::Relaxed);
                            if t >= survivors.len() {
                                break;
                            }
                            scan_into(&mut state, &survivors[t])?;
                        }
                        Ok(state)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });

        for r in results {
            merged.absorb(r?);
        }
        Ok(merged)
    }
}

/// The scalar `ω` the reference front half settles short and hazardous
/// windows with.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../dsp/tests/oracle/omega.rs"]
mod oracle;

/// The reference front half the kernel's straight-line path is pinned to.
#[cfg(test)]
#[path = "../../dsp/tests/oracle/bracket.rs"]
mod bracket_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use emap_datasets::{RecordingFactory, SignalClass};
    use emap_mdb::{MdbBuilder, Provenance, SIGNAL_SET_LEN};

    use super::bracket_oracle::Bracketer;

    impl Windows for Bracketer<'_> {
        fn last_offset(&self) -> usize {
            Bracketer::last_offset(self)
        }

        fn at(&mut self, beta: usize) -> Omega {
            Bracketer::at(self, beta)
        }

        fn exact_at(&mut self, beta: usize) -> f64 {
            self.exact(beta)
        }
    }

    /// The sweep reading every host through the reference front half.
    struct Reference;

    impl Bind for Reference {
        type Host<'a> = Bracketer<'a>;

        fn bind<'a>(
            &self,
            query: &'a Query,
            set: &'a SignalSet,
        ) -> Result<Bracketer<'a>, SearchError> {
            Ok(Bracketer::new(query.kernel(), set.samples(), set.stats()))
        }
    }

    const KERNELS: [ScanKernel; 2] = [ScanKernel::Exhaustive, ScanKernel::Sliding];

    fn mdb() -> Mdb {
        let factory = RecordingFactory::new(29);
        let mut b = MdbBuilder::new();
        for i in 0..3 {
            b.add_recording("d", &factory.normal_recording(&format!("n{i}"), 24.0))
                .unwrap();
            b.add_recording(
                "d",
                &factory.anomaly_recording(SignalClass::Seizure, &format!("s{i}"), 24.0),
            )
            .unwrap();
        }
        b.build()
    }

    fn queries(n: usize) -> Vec<Query> {
        let factory = RecordingFactory::new(29);
        (0..n)
            .map(|i| {
                let rec = factory.normal_recording(&format!("q{i}"), 8.0);
                let filtered = emap_dsp::emap_bandpass().filter(rec.channels()[0].samples());
                Query::new(&filtered[1024..1280]).unwrap()
            })
            .collect()
    }

    #[test]
    fn batched_sweep_equals_query_at_a_time() {
        let mdb = mdb();
        let queries = queries(4);
        for kernel in KERNELS {
            let exec = BatchExecutor::new(kernel, SearchConfig::paper());
            let batched = exec.sweep(&queries, &mdb).unwrap();
            for (q, b) in queries.iter().zip(&batched) {
                assert_eq!(b, &exec.search(q, &mdb).unwrap());
            }
        }
    }

    #[test]
    fn worker_count_never_changes_the_result() {
        let mdb = mdb();
        let queries = queries(3);
        let exec = BatchExecutor::new(ScanKernel::Sliding, SearchConfig::paper());
        let sequential = exec.sweep(&queries, &mdb).unwrap();
        for workers in [0usize, 2, 4, 16] {
            let exec = exec.clone().with_workers(workers);
            assert_eq!(exec.workers(), workers.max(1));
            let parallel = exec.sweep(&queries, &mdb).unwrap();
            assert_eq!(parallel, sequential, "workers = {workers}");
        }
    }

    #[test]
    fn telemetry_counters_partition_the_store() {
        // Every host lands in exactly one of `search_hosts_scanned_total` /
        // `search_hosts_pruned_total`, per query, for every kernel — and a
        // parallel sweep charges the registry identically to a sequential
        // one.
        let mdb = mdb();
        let queries = queries(2);
        let per_sweep = (mdb.len() * queries.len()) as u64;
        for kernel in KERNELS {
            let registry = emap_telemetry::Registry::new();
            let exec = BatchExecutor::new(kernel, SearchConfig::paper())
                .with_telemetry(SweepTelemetry::register(&registry));
            exec.sweep(&queries, &mdb).unwrap();
            let scanned = registry.counter("search_hosts_scanned_total").get();
            let pruned = registry.counter("search_hosts_pruned_total").get();
            assert_eq!(
                scanned + pruned,
                per_sweep,
                "scanned {scanned} + pruned {pruned} != hosts x queries"
            );
            // At least one coarse evaluation per host per query.
            assert!(registry.counter("search_bound_evaluations_total").get() >= per_sweep);
        }
        let sequential = emap_telemetry::Registry::new();
        let parallel = emap_telemetry::Registry::new();
        let kernel = ScanKernel::Sliding;
        BatchExecutor::new(kernel, SearchConfig::paper())
            .with_telemetry(SweepTelemetry::register(&sequential))
            .sweep(&queries, &mdb)
            .unwrap();
        BatchExecutor::new(kernel, SearchConfig::paper())
            .with_workers(4)
            .with_telemetry(SweepTelemetry::register(&parallel))
            .sweep(&queries, &mdb)
            .unwrap();
        for name in [
            "search_hosts_scanned_total",
            "search_hosts_pruned_total",
            "search_bound_evaluations_total",
            "search_windows_evaluated_total",
            "search_exact_resolutions_total",
        ] {
            assert_eq!(
                sequential.counter(name).get(),
                parallel.counter(name).get(),
                "{name} diverged between sequential and parallel sweeps"
            );
        }
    }

    /// Runs one sweep under telemetry and returns
    /// `(exact resolutions, windows evaluated, matches)`.
    fn resolution_counts(
        kernel: ScanKernel,
        config: SearchConfig,
        queries: &[Query],
        mdb: &Mdb,
    ) -> (u64, u64, u64) {
        let registry = emap_telemetry::Registry::new();
        BatchExecutor::new(kernel, config)
            .with_telemetry(SweepTelemetry::register(&registry))
            .sweep(queries, mdb)
            .unwrap();
        (
            registry.counter("search_exact_resolutions_total").get(),
            registry.counter("search_windows_evaluated_total").get(),
            registry.counter("search_matches_total").get(),
        )
    }

    #[test]
    fn brackets_settle_all_but_a_few_windows() {
        // The gain, pinned by a count that repeats exactly: under per-set
        // dedup at most one window in twenty needs its exact ω; without it
        // every match is a candidate, most windows match, and all of them
        // are evaluated exactly.
        let mdb = mdb();
        let queries = queries(4);
        for kernel in KERNELS {
            let (exact, windows, matches) =
                resolution_counts(kernel, SearchConfig::paper(), &queries, &mdb);
            assert!(windows > 1000 && matches > 0, "{kernel:?}: vacuous");
            assert!(
                exact * 20 <= windows,
                "{kernel:?}: {exact} of {windows} windows resolved exactly"
            );
            let every_match = SearchConfig::paper().with_dedup_per_set(false);
            let (exact, windows, _) = resolution_counts(kernel, every_match, &queries, &mdb);
            assert_eq!(
                exact, windows,
                "{kernel:?}: a bracket was used without dedup"
            );
        }
    }

    /// Hits (their bits), every [`SearchWork`] field and the exact
    /// resolutions of a sweep are those of the same sweep reading its
    /// windows through the reference front half, for both kernels, with
    /// and without per-set dedup, on one worker and on four — over a store
    /// that adds a set with a constant run and a quiet stretch. The
    /// reference sweep's exact resolutions and windows are pinned to what
    /// the scan counted before its evaluate / visit / settle steps became
    /// one step: `(kernel, dedup, exact resolutions, windows)`.
    #[test]
    fn sweep_reads_windows_as_the_reference_front_half_does() {
        let mut store = mdb();
        let template = store.iter().next().unwrap().clone();
        let mut samples = template.samples().to_vec();
        samples[100..400].fill(7.0);
        for x in &mut samples[500..900] {
            *x *= 1e-5;
        }
        store.insert(
            SignalSet::new(samples, template.class(), template.provenance().clone()).unwrap(),
        );
        let queries = queries(3);
        let bits = |sets: &[CorrelationSet]| -> Vec<Vec<(SetId, u64, usize)>> {
            let hits = |set: &CorrelationSet| {
                let hit = |h: &SearchHit| (h.set_id, h.omega.to_bits(), h.beta);
                set.hits().iter().map(hit).collect()
            };
            sets.iter().map(hits).collect()
        };
        let counted = [
            (ScanKernel::Exhaustive, true, 546, 82_539),
            (ScanKernel::Exhaustive, false, 82_539, 82_539),
            (ScanKernel::Sliding, true, 419, 37_006),
            (ScanKernel::Sliding, false, 37_006, 37_006),
        ];
        for (kernel, dedup, counted_exact, counted_windows) in counted {
            let config = SearchConfig::paper().with_dedup_per_set(dedup);
            let sweep = |workers: usize, reference: bool| {
                let registry = emap_telemetry::Registry::new();
                let exec = BatchExecutor::new(kernel, config)
                    .with_workers(workers)
                    .with_telemetry(SweepTelemetry::register(&registry));
                let out = if reference {
                    exec.sweep_with(&queries, &store, &Reference)
                } else {
                    exec.sweep(&queries, &store)
                };
                let exact = registry.counter("search_exact_resolutions_total").get();
                (out.unwrap(), exact)
            };
            let (expected, expected_exact) = sweep(1, true);
            assert!(
                expected.iter().any(|set| !set.is_empty()),
                "{kernel:?}: no hits"
            );
            let windows: u64 = expected.iter().map(|set| set.work().correlations).sum();
            assert_eq!(
                (expected_exact, windows),
                (counted_exact, counted_windows),
                "{kernel:?}, dedup {dedup}: the counts before the fused step"
            );
            for workers in [1, 4] {
                let (out, exact) = sweep(workers, false);
                let case = format!("{kernel:?}, dedup {dedup}, {workers} workers");
                assert_eq!(bits(&out), bits(&expected), "{case}: hits");
                let works = |sets: &[CorrelationSet]| {
                    sets.iter().map(CorrelationSet::work).collect::<Vec<_>>()
                };
                assert_eq!(works(&out), works(&expected), "{case}: work");
                assert_eq!(exact, expected_exact, "{case}: exact resolutions");
            }
        }
    }

    #[test]
    fn near_tie_resolves_both_windows_and_keeps_the_first_greater() {
        // One host holding the same second twice: the two windows' brackets
        // overlap, so both are parked and both resolved, and the winner is
        // the one a scan comparing exact ω with strict `>` would keep.
        let query = &queries(1)[0];
        let mut samples = mdb().iter().next().unwrap().samples().to_vec();
        let second = query.samples().to_vec();
        samples[100..356].copy_from_slice(&second);
        samples[500..756].copy_from_slice(&second);
        let mut store = Mdb::new();
        let template = mdb().iter().next().unwrap().clone();
        store.insert(
            SignalSet::new(samples, template.class(), template.provenance().clone()).unwrap(),
        );
        let set = store.iter().next().unwrap();
        let mut expected: Option<(usize, f64)> = None;
        for beta in 0..=744 {
            let omega = query
                .kernel()
                .correlation_at(set.samples(), set.stats(), beta)
                .unwrap();
            if omega > 0.8 && expected.is_none_or(|(_, best)| omega > best) {
                expected = Some((beta, omega));
            }
        }
        let (beta, omega) = expected.unwrap();
        assert!(beta == 100 || beta == 500, "best at {beta}");

        for kernel in KERNELS {
            let exec = BatchExecutor::new(kernel, SearchConfig::paper());
            let out = &exec.sweep(std::slice::from_ref(query), &store).unwrap()[0];
            assert_eq!(out.hits().len(), 1);
            assert_eq!(out.hits()[0].beta, beta);
            assert_eq!(out.hits()[0].omega.to_bits(), omega.to_bits());
            let (exact, ..) = resolution_counts(
                kernel,
                SearchConfig::paper(),
                std::slice::from_ref(query),
                &store,
            );
            assert!(exact >= 2, "only {exact} windows resolved");
        }
    }

    #[test]
    fn empty_batch_returns_before_the_sweep_is_recorded() {
        let registry = emap_telemetry::Registry::new();
        let exec = BatchExecutor::new(ScanKernel::Sliding, SearchConfig::paper())
            .with_workers(4)
            .with_telemetry(SweepTelemetry::register(&registry));
        assert!(exec.sweep(&[], &mdb()).unwrap().is_empty());
        assert_eq!(registry.counter("search_sweeps_total").get(), 0);
        assert_eq!(
            registry.histogram("search_sweep_nanos").snapshot().count(),
            0
        );

        let out = exec.sweep(&queries(2), &Mdb::new()).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(CorrelationSet::is_empty));
        assert_eq!(registry.counter("search_sweeps_total").get(), 1);
    }

    fn set_of(samples: Vec<f32>, class: SignalClass) -> SignalSet {
        let provenance = Provenance {
            dataset_id: "d".into(),
            recording_id: "r".into(),
            channel: "c".into(),
            offset: 0,
        };
        SignalSet::new(samples, class, provenance).unwrap()
    }

    /// Documented limitation: an isolated broadband transient embedded in
    /// dissimilar background can be leapt over by the exponential skip —
    /// the source of the rare low-correlation outliers the paper shows in
    /// Fig. 11. The stride-1 scan always finds it; the sliding scan does
    /// strictly less work, and either outcome of its trajectory is legal.
    #[test]
    fn sliding_does_less_work_where_exhaustive_finds_an_isolated_embedding() {
        let q: Vec<f32> = (0..256).map(|n| ((n as f32) * 0.3).sin()).collect();
        let mut host: Vec<f32> = (0..SIGNAL_SET_LEN)
            .map(|i| ((i as f32) * 0.23).sin() * 0.3)
            .collect();
        host[400..656].copy_from_slice(&q);
        let mut store = Mdb::new();
        store.insert(set_of(host, SignalClass::Seizure));
        let query = Query::new(&q).unwrap();
        let [ex, sl] = KERNELS.map(|kernel| {
            BatchExecutor::new(kernel, SearchConfig::paper())
                .search(&query, &store)
                .unwrap()
        });
        assert_eq!(ex.hits()[0].beta, 400);
        assert!(ex.hits()[0].omega > 0.999);
        assert!(ex.work().correlations <= 745);
        assert!(sl.work().correlations < ex.work().correlations);
    }

    #[test]
    fn unbounded_top_k_returns_every_qualifying_hit() {
        // `top_k = usize::MAX` is a valid configuration: the floor never
        // forms, so only `δ` prunes and every window over it is a hit.
        let mdb = mdb();
        let query = &queries(1)[0];
        let all = SearchConfig::paper()
            .with_top_k(usize::MAX)
            .unwrap()
            .with_dedup_per_set(false);
        let mut qualifying = 0;
        for set in mdb.iter() {
            for beta in 0..=SIGNAL_SET_LEN - 256 {
                let omega = query
                    .kernel()
                    .correlation_at(set.samples(), set.stats(), beta)
                    .unwrap();
                qualifying += usize::from(omega > all.delta());
            }
        }
        assert!(qualifying > 100, "only {qualifying} windows qualify");
        for kernel in KERNELS {
            let t = BatchExecutor::new(kernel, all)
                .with_workers(2)
                .sweep(std::slice::from_ref(query), &mdb);
            let t = &t.unwrap()[0];
            assert_eq!(t.len() as u64, t.work().matches, "{kernel:?}");
            if kernel == ScanKernel::Exhaustive {
                assert_eq!(t.len(), qualifying);
            }
        }
    }
}
