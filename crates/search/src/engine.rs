//! The staged **plan → sweep → score → select** engine behind every search
//! algorithm.
//!
//! The cloud exists to serve *many* wearables against one mega-database
//! (§V-B slices the MDB precisely so searches can run in parallel), and
//! server throughput is dominated by memory traffic over the store, not by
//! per-query arithmetic. The engine therefore inverts the classic
//! per-query loop:
//!
//! 1. **plan** — [`ScanPlan::build`] partitions the MDB snapshot into
//!    contiguous host chunks, once per sweep;
//! 2. **sweep** — [`BatchExecutor::sweep`] walks each host's cached
//!    statistics and prefix tables **once** while evaluating *all*
//!    in-flight queries against it (per-query skip state, per-query
//!    candidate lists), so memory traffic is amortized across the batch;
//! 3. **score** — the per-offset correlation and threshold test of the
//!    active [`ScanKernel`];
//! 4. **select** — the per-query top-K selection of
//!    [`CorrelationSet::from_candidates`].
//!
//! [`BatchExecutor::sweep_parallel`] fans the same sweep across worker
//! threads by partitioning **hosts** (not queries): every worker evaluates
//! the whole batch against its chunks, and per-query candidates are merged
//! back in chunk order.
//!
//! The load-bearing invariant, pinned by the crate's property tests: for
//! every kernel and every batch size, a batched sweep is **bitwise
//! identical** to running the queries sequentially — batching moves bytes
//! and cache lines, never decisions. Three rules enforce it:
//!
//! - hosts are visited in set-id order and per-query candidates accumulate
//!   in that order, so the stable top-K sort breaks ties exactly like the
//!   sequential scan;
//! - the work budget is checked per query *before* each set (the
//!   sequential set-granularity rule), and an exhausted query simply skips
//!   the remaining hosts of the sweep;
//! - every kernel drives the one `(query, host)` scan, `HostScan`. It moves
//!   on a window's certified bracket (`emap_dsp::kernel::HostKernel::at`,
//!   an f32 dot product in place of the f64 one) when it settles everything
//!   the exact `ω` would — the skip, the side of `δ`, whether the window
//!   could be its host's best — and resolves exactly whatever it cannot, so
//!   trajectory, hits and [`SearchWork`] are those of a scan that evaluates
//!   every window exactly (the crate's proptests keep that scan as their
//!   oracle).
//!
//! # The indexed sweep
//!
//! [`BatchExecutor::sweep_indexed`] replaces the linear host walk with a
//! best-bound-first sweep over the mega-database's precomputed envelope
//! index (`emap_dsp::spectra`, prewarmed per signal-set like the prefix
//! statistics): hosts are ranked by an O(1)-per-host admissible upper bound
//! on the best `ω` they can produce, a running top-K floor
//! ([`crate::index`]) rises as candidates accumulate, hosts whose bound
//! falls below the floor (or `δ`) are skipped without touching their
//! samples, and the sweep terminates outright once the best remaining
//! bound cannot displace the floor. Because the bound is admissible and
//! the prune test strict, the returned hits are **identical to the
//! unindexed sweep, tie order included** — only the work changes
//! ([`SearchWork::hosts_pruned`], [`SearchWork::bound_evaluations`]).
//!
//! Determinism across execution shapes is kept wave-synchronous: hosts are
//! processed in fixed-size waves against a floor snapshot taken at the
//! wave boundary, so [`BatchExecutor::sweep_indexed_parallel`] makes
//! exactly the same prune decisions as the sequential indexed sweep no
//! matter how workers interleave, and candidates are stably re-sorted
//! into set-id order before selection. Work budgets
//! ([`SearchConfig::max_correlations`]) are inherently order-dependent, so
//! a budgeted sweep falls back to the linear path unchanged.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use emap_dsp::kernel::{HostKernel, Omega};
use emap_mdb::{Mdb, SetId, SignalSet};
use emap_telemetry::Timer;

use crate::index::{QueryIndex, TopKFloor};
use crate::{
    CorrelationSet, Query, SearchConfig, SearchError, SearchHit, SearchWork, SkipTable,
    SweepTelemetry,
};

/// Hosts per wave of the indexed sweep: the floor snapshot is refreshed at
/// every wave boundary, so a smaller wave prunes more aggressively while a
/// larger one exposes more parallel scan work per barrier. 64 hosts ≈ a few
/// milliseconds of scan work — enough to feed a worker pool, small enough
/// that the floor stays fresh.
const INDEX_WAVE: usize = 64;

/// The per-(query, host) scan strategy — the "score" stage of the engine.
///
/// Each variant holds exactly the state its scan needs, so one kernel can
/// be shared across every query of a sweep.
#[derive(Debug, Clone)]
pub enum ScanKernel {
    /// Stride-1 evaluation of every offset (the Fig. 5 baseline). Ignores
    /// the work budget, like the sequential baseline always has.
    Exhaustive,
    /// Algorithm 1: after evaluating `ω` at an offset, skip
    /// `β = α^(ω−1)` samples (the exponential sliding window of Fig. 6).
    Sliding(
        /// Precomputed `ω → skip` table for the configured `α`.
        SkipTable,
    ),
    /// Coarse prescan at a fixed stride, then dense exponential refinement
    /// inside the neighborhoods that cleared the prescreen threshold.
    TwoStage {
        /// Precomputed `ω → skip` table for the stage-2 refinement.
        skips: SkipTable,
        /// Stage-1 stride in samples.
        coarse_stride: usize,
        /// Stage-1 threshold is `δ − margin` (clamped to `[0, 1]`).
        prescreen_margin: f64,
    },
}

impl ScanKernel {
    /// The exhaustive stride-1 kernel.
    #[must_use]
    pub fn exhaustive() -> Self {
        ScanKernel::Exhaustive
    }

    /// The Algorithm 1 kernel for the given `α`.
    #[must_use]
    pub fn sliding(alpha: f64) -> Self {
        ScanKernel::Sliding(SkipTable::new(alpha))
    }

    /// The two-stage kernel for the given `α` and stage-1 parameters.
    #[must_use]
    pub fn two_stage(alpha: f64, coarse_stride: usize, prescreen_margin: f64) -> Self {
        ScanKernel::TwoStage {
            skips: SkipTable::new(alpha),
            coarse_stride,
            prescreen_margin,
        }
    }

    /// Whether this kernel honors [`SearchConfig::max_correlations`].
    ///
    /// Only Algorithm 1 enforces the budget — the exhaustive baseline
    /// deliberately measures the full-scan cost and the two-stage prescan
    /// bounds its own work structurally, exactly as their sequential
    /// implementations always behaved.
    #[must_use]
    pub fn enforces_budget(&self) -> bool {
        matches!(self, ScanKernel::Sliding(_))
    }

    /// Scans one `(query, host)` pair along this kernel's trajectory,
    /// appending the host's candidates to `state` and charging its
    /// counters. `ranges` confines the exhaustive kernel to the offsets
    /// whose fine envelope groups survived the bound test (the other
    /// kernels must see a host whole and are never given any): with per-set
    /// dedup the pushed best may then differ from the whole-host best only
    /// when both fall below the wave's floor — in which case neither can
    /// reach the final top-K.
    fn scan_host(
        &self,
        query: &Query,
        config: &SearchConfig,
        (id, set): (SetId, &SignalSet),
        ranges: Option<&[Range<usize>]>,
        state: &mut QueryState,
    ) -> Result<(), SearchError> {
        state.work.sets_scanned += 1;
        let kernel = query.kernel();
        if set.samples().len() < kernel.window_len() {
            return Ok(());
        }
        let mut scan = HostScan {
            kernel: kernel.on_host(set.samples(), set.stats())?,
            delta: config.delta(),
            dedup: config.dedup_per_set(),
            id,
            state,
            floor: f64::NEG_INFINITY,
            parked: Vec::new(),
        };
        let last = scan.kernel.last_offset();
        match self {
            ScanKernel::Exhaustive => {
                let whole = 0..last + 1;
                for range in ranges.unwrap_or(std::slice::from_ref(&whole)) {
                    for beta in range.start..range.end.min(last + 1) {
                        scan.visit(beta, |_, _| Some(()));
                    }
                }
            }
            ScanKernel::Sliding(skips) => {
                // Algorithm 1 line 4: while β < Length(S) − Length(I_N). We
                // include the final aligned offset as well (`<=`), so an
                // embedding at the very end of a set is not missed.
                let mut beta = 0usize;
                while beta <= last {
                    beta += scan.visit(beta, |lo, hi| skips.skip_between(lo, hi));
                }
            }
            ScanKernel::TwoStage {
                skips,
                coarse_stride,
                prescreen_margin,
            } => {
                let prescreen = (config.delta() - prescreen_margin).clamp(0.0, 1.0);

                // Stage 1: coarse scan.
                let mut seeds = Vec::new();
                let mut beta = 0usize;
                while beta <= last {
                    let (passes, ..) = scan.evaluate(beta, |lo, hi| {
                        ((lo >= prescreen) == (hi >= prescreen)).then_some(lo >= prescreen)
                    });
                    if passes {
                        seeds.push(beta);
                    }
                    beta += coarse_stride;
                }

                // Stage 2: dense exponential scan inside each seed
                // neighborhood, deduplicating overlapping neighborhoods.
                let mut scanned_until = 0usize;
                for seed in seeds {
                    let lo = seed.saturating_sub(*coarse_stride).max(scanned_until);
                    let hi = (seed + coarse_stride).min(last);
                    let mut beta = lo;
                    while beta <= hi {
                        beta += scan.visit(beta, |lo, hi| skips.skip_between(lo, hi));
                    }
                    scanned_until = hi + 1;
                }
            }
        }
        let best = scan.finish();
        state.candidates.extend(best);
        Ok(())
    }
}

/// One `(query, host)` scan in progress: the single home of the
/// match → best / candidates logic, driven by every kernel's trajectory.
///
/// A window is evaluated only as far as the scan needs it. The kernel hands
/// back a certified bracket `lo ≤ ω ≤ hi` ([`HostKernel::at`]); a window
/// advances on it when the bracket settles everything the exact `ω` would
/// have: the trajectory's decision (the skip, the prescreen), the side of
/// `δ`, and — under per-set dedup, where only the host's best window is
/// ever reported — whether it could be that best. Whatever the bracket
/// cannot settle is resolved with the exact `ω`, so decisions, hits and
/// counters are those of a scan that evaluates every window exactly.
/// Without dedup it is that scan: brackets are not consulted.
struct HostScan<'a> {
    kernel: HostKernel<'a>,
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

impl HostScan<'_> {
    /// Evaluates the window at `beta` as far as `settle` needs. `settle`
    /// returns the decision every `ω` in `[lo, hi]` shares, or `None` when
    /// they differ; it must settle every point, NaN included. Returns the
    /// decision with the interval it was taken on — the bracket, or the
    /// exact `ω` twice.
    fn evaluate<D>(
        &mut self,
        beta: usize,
        settle: impl Fn(f64, f64) -> Option<D>,
    ) -> (D, f64, f64) {
        self.state.work.correlations += 1;
        // Without dedup every match is a candidate and needs its exact ω;
        // where most windows match, a bracket first would be paid on top.
        let seen = if self.dedup {
            self.kernel.at(beta)
        } else {
            Omega::Exact(self.kernel.exact_at(beta))
        };
        let omega = match seen {
            Omega::Bracket { lo, hi } => match settle(lo, hi) {
                Some(decision) => return (decision, lo, hi),
                None => self.kernel.exact_at(beta),
            },
            Omega::Exact(omega) => omega,
        };
        self.state.exact += 1;
        let decision = settle(omega, omega).expect("an exact ω settles every decision");
        (decision, omega, omega)
    }

    /// [`HostScan::evaluate`] for a window that can match: `δ` joins the
    /// decisions to settle and the match is booked.
    fn visit<D>(&mut self, beta: usize, settle: impl Fn(f64, f64) -> Option<D>) -> D {
        let delta = self.delta;
        let (decision, lo, hi) = self.evaluate(beta, |lo, hi| {
            if lo < hi && (lo > delta) != (hi > delta) {
                None
            } else {
                settle(lo, hi)
            }
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
        decision
    }

    /// Dedup: the host's best match — the first, in visit order, to hold
    /// the largest exact `ω` (the strict `>` of a scan that compares every
    /// match as it goes). Only parked windows whose upper end reaches the
    /// final floor can hold it; those are resolved exactly, in order.
    fn finish(self) -> Option<SearchHit> {
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

/// The partitioned view of one MDB snapshot a sweep runs over — the "plan"
/// stage of the engine.
///
/// Built once per sweep from [`Mdb::chunks`]: contiguous, near-equal host
/// chunks in set-id order. A plan with one partition is the sequential
/// scan order; a plan with many partitions is the unit of work
/// distribution for [`BatchExecutor::sweep_parallel`].
#[derive(Debug, Clone)]
pub struct ScanPlan<'a> {
    chunks: Vec<(SetId, &'a [SignalSet])>,
}

impl<'a> ScanPlan<'a> {
    /// Partitions `mdb` into at most `partitions` contiguous host chunks
    /// (`partitions` is clamped to ≥ 1; an empty store yields no chunks).
    #[must_use]
    pub fn build(mdb: &'a Mdb, partitions: usize) -> Self {
        ScanPlan {
            chunks: mdb.chunks(partitions.max(1)),
        }
    }

    /// The host chunks, contiguous and in set-id order.
    #[must_use]
    pub fn chunks(&self) -> &[(SetId, &'a [SignalSet])] {
        &self.chunks
    }

    /// Number of partitions actually produced.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.chunks.len()
    }

    /// Total signal-sets covered by the plan.
    #[must_use]
    pub fn total_sets(&self) -> usize {
        self.chunks.iter().map(|(_, sets)| sets.len()).sum()
    }

    /// Whether the plan covers no hosts (empty store).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// The hosts of one chunk with their set ids.
fn chunk_hosts(start: SetId, sets: &[SignalSet]) -> impl Iterator<Item = (SetId, &SignalSet)> {
    (start.0..).map(SetId).zip(sets)
}

/// Per-query accumulation state of one sweep: the candidate list, the work
/// counters, and whether the query's budget ran out.
#[derive(Debug, Clone, Default)]
struct QueryState {
    candidates: Vec<SearchHit>,
    work: SearchWork,
    /// Windows whose exact `ω` the scan consumed — as deterministic as
    /// `work`, but kept beside it: [`SearchWork`] is a wire payload.
    exact: u64,
    exhausted: bool,
}

impl QueryState {
    /// Appends what another worker, chunk or wave accumulated.
    fn absorb(&mut self, other: QueryState) {
        self.candidates.extend(other.candidates);
        self.work.merge(other.work);
        self.exact += other.exact;
    }
}

/// The batch executor: one [`ScanKernel`] applied to all in-flight queries
/// while each host is walked exactly once — the "sweep" and "select"
/// stages of the engine.
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    kernel: ScanKernel,
    config: SearchConfig,
    telemetry: Option<SweepTelemetry>,
}

impl BatchExecutor {
    /// Creates an executor scanning with `kernel` under `config`.
    #[must_use]
    pub fn new(kernel: ScanKernel, config: SearchConfig) -> Self {
        BatchExecutor {
            kernel,
            config,
            telemetry: None,
        }
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
    pub fn kernel(&self) -> &ScanKernel {
        &self.kernel
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The per-query correlation budget this executor enforces, if any
    /// (see [`ScanKernel::enforces_budget`]).
    fn budget(&self) -> Option<u64> {
        if self.kernel.enforces_budget() {
            self.config.max_correlations()
        } else {
            None
        }
    }

    /// Starts the sweep latency timer, when telemetry is attached.
    fn start_sweep(&self) -> Option<Timer> {
        self.telemetry.as_ref().map(SweepTelemetry::start_sweep)
    }

    /// The "select" stage — per-query stable top-K over the accumulated
    /// candidates — and the one place a sweep is recorded.
    fn finish_sweep(&self, timer: Option<Timer>, states: Vec<QueryState>) -> Vec<CorrelationSet> {
        let exact = states.iter().map(|s| s.exact).sum();
        let out: Vec<CorrelationSet> = states
            .into_iter()
            .map(|s| CorrelationSet::from_candidates(s.candidates, self.config.top_k(), s.work))
            .collect();
        if let Some(t) = &self.telemetry {
            drop(timer);
            t.record_sweep(&self.kernel, &out, exact);
        }
        out
    }

    /// Runs one shared sweep on the calling thread: hosts in set-id order,
    /// every query evaluated against each host before moving on.
    ///
    /// Returns one [`CorrelationSet`] per query, in query order — bitwise
    /// identical to scanning each query sequentially on its own.
    ///
    /// # Errors
    ///
    /// The first [`SearchError`] any scan raises.
    pub fn sweep(
        &self,
        queries: &[Query],
        plan: &ScanPlan<'_>,
    ) -> Result<Vec<CorrelationSet>, SearchError> {
        let timer = self.start_sweep();
        let budget = self.budget();
        let mut states: Vec<QueryState> = vec![QueryState::default(); queries.len()];
        for &(start, sets) in plan.chunks() {
            for host in chunk_hosts(start, sets) {
                for (query, state) in queries.iter().zip(states.iter_mut()) {
                    if state.exhausted {
                        continue;
                    }
                    if let Some(limit) = budget {
                        // The sequential set-granularity rule: the budget is
                        // checked before each set, so truncation can only be
                        // observed when a further set actually existed.
                        if state.work.correlations >= limit {
                            state.work.truncated = true;
                            state.exhausted = true;
                            continue;
                        }
                    }
                    self.kernel
                        .scan_host(query, &self.config, host, None, state)?;
                }
            }
        }
        Ok(self.finish_sweep(timer, states))
    }

    /// Runs one shared sweep with the plan's host chunks distributed
    /// across up to `workers` threads through a shared work queue —
    /// **hosts** are partitioned, not queries, so every worker amortizes
    /// its chunk's memory traffic over the whole batch.
    ///
    /// Per-query budgets are charged through shared atomic counters (the
    /// same set-granularity overshoot bound as the sequential rule, one
    /// in-flight set per worker). Candidates are merged per query in chunk
    /// order, which restores the exact sequential candidate order.
    ///
    /// # Errors
    ///
    /// The first [`SearchError`] any worker raises.
    pub fn sweep_parallel(
        &self,
        queries: &[Query],
        plan: &ScanPlan<'_>,
        workers: usize,
    ) -> Result<Vec<CorrelationSet>, SearchError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let workers = workers.max(1).min(plan.partitions());
        if workers <= 1 || plan.partitions() <= 1 {
            return self.sweep(queries, plan);
        }
        let timer = self.start_sweep();
        let limit = self.budget().unwrap_or(u64::MAX);
        let spent: Vec<AtomicU64> = (0..queries.len()).map(|_| AtomicU64::new(0)).collect();
        let next = AtomicUsize::new(0);

        type TaggedResult = Result<Vec<(usize, Vec<QueryState>)>, SearchError>;
        let results: Vec<TaggedResult> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (spent, next) = (&spent, &next);
                    scope.spawn(move |_| {
                        let mut done = Vec::new();
                        loop {
                            let t = next.fetch_add(1, Ordering::Relaxed);
                            if t >= plan.partitions() {
                                break;
                            }
                            let (start, sets) = plan.chunks()[t];
                            done.push((t, self.scan_chunk(queries, start, sets, spent, limit)?));
                        }
                        Ok(done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
        .expect("crossbeam scope panicked");

        let mut tagged = Vec::new();
        for r in results {
            tagged.extend(r?);
        }
        // Chunks are contiguous in id order, so merging in chunk order
        // reproduces the sequential candidate order exactly — ties in the
        // final stable top-K sort break identically.
        tagged.sort_unstable_by_key(|&(t, _)| t);
        let mut merged: Vec<QueryState> = vec![QueryState::default(); queries.len()];
        for (_, chunk_states) in tagged {
            for (into, from) in merged.iter_mut().zip(chunk_states) {
                into.absorb(from);
            }
        }
        Ok(self.finish_sweep(timer, merged))
    }

    /// Scans one host chunk for the whole batch, charging each query's
    /// correlations to its shared budget counter. The budget is checked
    /// *before* each set, so a worker never starts a set for a query whose
    /// global count has reached the limit.
    fn scan_chunk(
        &self,
        queries: &[Query],
        start: SetId,
        sets: &[SignalSet],
        spent: &[AtomicU64],
        limit: u64,
    ) -> Result<Vec<QueryState>, SearchError> {
        let mut states: Vec<QueryState> = vec![QueryState::default(); queries.len()];
        for host in chunk_hosts(start, sets) {
            for ((query, state), spent_q) in queries.iter().zip(states.iter_mut()).zip(spent) {
                // The shared counter only grows, so a tripped query stays
                // tripped — `exhausted` just skips the redundant loads.
                if state.exhausted {
                    continue;
                }
                if spent_q.load(Ordering::Relaxed) >= limit {
                    state.work.truncated = true;
                    state.exhausted = true;
                    continue;
                }
                let before = state.work.correlations;
                self.kernel
                    .scan_host(query, &self.config, host, None, state)?;
                let delta = state.work.correlations - before;
                if delta > 0 {
                    spent_q.fetch_add(delta, Ordering::Relaxed);
                }
            }
        }
        Ok(states)
    }

    /// [`BatchExecutor::sweep`] for exactly one query.
    pub(crate) fn sweep_one(
        &self,
        query: &Query,
        plan: &ScanPlan<'_>,
    ) -> Result<CorrelationSet, SearchError> {
        let mut out = self.sweep(std::slice::from_ref(query), plan)?;
        Ok(out.pop().expect("sweep returns one result per query"))
    }

    /// Runs the best-bound-first indexed sweep for each query (see the
    /// module docs): identical hits to [`BatchExecutor::sweep`], typically
    /// a fraction of the scan work. Queries are served independently — the
    /// index already spares most of the memory traffic the shared linear
    /// sweep amortizes, and per-query host ordering is what makes the
    /// early exit possible.
    ///
    /// Falls back to the linear sweep when the active kernel enforces a
    /// work budget (budget truncation is defined in set-id scan order).
    ///
    /// # Errors
    ///
    /// The first [`SearchError`] any scan raises.
    pub fn sweep_indexed(
        &self,
        queries: &[Query],
        plan: &ScanPlan<'_>,
    ) -> Result<Vec<CorrelationSet>, SearchError> {
        self.sweep_indexed_parallel(queries, plan, 1)
    }

    /// [`BatchExecutor::sweep_indexed`] with each wave's surviving hosts
    /// scanned by up to `workers` threads. Prune decisions bind to floor
    /// snapshots taken at wave boundaries, so the result — hits *and* work
    /// counters — is bitwise identical to the sequential indexed sweep for
    /// any worker count.
    ///
    /// # Errors
    ///
    /// The first [`SearchError`] any worker raises.
    pub fn sweep_indexed_parallel(
        &self,
        queries: &[Query],
        plan: &ScanPlan<'_>,
        workers: usize,
    ) -> Result<Vec<CorrelationSet>, SearchError> {
        if self.budget().is_some() {
            return self.sweep_parallel(queries, plan, workers);
        }
        let timer = self.start_sweep();
        let hosts: Vec<(SetId, &SignalSet)> = plan
            .chunks()
            .iter()
            .flat_map(|&(start, sets)| chunk_hosts(start, sets))
            .collect();
        let states = queries
            .iter()
            .map(|q| self.indexed_state(q, &hosts, workers.max(1)))
            .collect::<Result<Vec<QueryState>, SearchError>>()?;
        Ok(self.finish_sweep(timer, states))
    }

    /// [`BatchExecutor::sweep_indexed`] for exactly one query.
    pub(crate) fn sweep_one_indexed(
        &self,
        query: &Query,
        plan: &ScanPlan<'_>,
    ) -> Result<CorrelationSet, SearchError> {
        let mut out = self.sweep_indexed(std::slice::from_ref(query), plan)?;
        Ok(out.pop().expect("sweep returns one result per query"))
    }

    /// The indexed sweep body for one query over the plan's `hosts` (in
    /// set-id order): rank by coarse bound, then wave-by-wave
    /// prune → fine-refine → scan, with the floor snapshot frozen per wave
    /// so sequential and parallel execution take identical decisions.
    fn indexed_state(
        &self,
        query: &Query,
        hosts: &[(SetId, &SignalSet)],
        workers: usize,
    ) -> Result<QueryState, SearchError> {
        let mut state = QueryState::default();
        if hosts.is_empty() {
            return Ok(state);
        }
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
                break;
            }

            let mut survivors: Vec<(usize, Option<Vec<Range<usize>>>)> = Vec::new();
            for &(coarse, idx) in wave {
                if below(coarse) {
                    state.work.hosts_pruned += 1;
                    continue;
                }
                // Fine refinement: one pass over the host's fine envelope
                // groups. For the exhaustive kernel the same pass doubles
                // as the per-group skip list — only offsets inside groups
                // that can still matter get scanned. Trajectory-dependent
                // kernels (sliding, two-stage) must see the host whole, so
                // they only ask whether the host-level maximum is
                // prunable — `below` only turns false as a bound grows, so
                // the pass stops at the first group that is not.
                state.work.bound_evaluations += 1;
                let spectra = hosts[idx].1.spectra();
                let ranges = match &self.kernel {
                    ScanKernel::Exhaustive => {
                        let mut ranges: Vec<Range<usize>> = Vec::new();
                        for g in 0..spectra.fine_groups() {
                            if below(spectra.fine_group_bound(g, index.spectrum())) {
                                continue;
                            }
                            let r = spectra.fine_group_offsets(g);
                            match ranges.last_mut() {
                                Some(last) if last.end == r.start => last.end = r.end,
                                _ => ranges.push(r),
                            }
                        }
                        Some(ranges)
                    }
                    _ => None,
                };
                let prunable = match &ranges {
                    // Every group is prunable ⇔ the host-level fine bound
                    // is prunable.
                    Some(ranges) => ranges.is_empty(),
                    None => !spectra.fine_reaches(index.spectrum(), |bound| !below(bound)),
                };
                if prunable {
                    state.work.hosts_pruned += 1;
                } else {
                    survivors.push((idx, ranges));
                }
            }

            let scanned = self.scan_survivors(query, hosts, &survivors, workers)?;
            for hit in &scanned.candidates {
                floor.push(hit.omega);
            }
            state.absorb(scanned);
            pos += wave.len();
        }

        // Hosts were scanned in bound order, each one's candidates kept
        // together in visit order: a stable sort by set id hands the top-K
        // sort exactly the unindexed candidate order (minus candidates the
        // bound proved irrelevant).
        state.candidates.sort_by_key(|hit| hit.set_id);
        Ok(state)
    }

    /// Scans one wave's surviving hosts, sequentially or via a worker
    /// pool, into one accumulator. Scan order within the wave cannot
    /// influence the result: each host's candidates stay together and are
    /// re-sorted by host before selection, counters are commutative sums.
    fn scan_survivors(
        &self,
        query: &Query,
        hosts: &[(SetId, &SignalSet)],
        survivors: &[(usize, Option<Vec<Range<usize>>>)],
        workers: usize,
    ) -> Result<QueryState, SearchError> {
        let scan_into = |state: &mut QueryState, (idx, ranges): &(usize, Option<Vec<_>>)| {
            self.kernel
                .scan_host(query, &self.config, hosts[*idx], ranges.as_deref(), state)
        };

        let mut merged = QueryState::default();
        let workers = workers.min(survivors.len());
        if workers <= 1 {
            for survivor in survivors {
                scan_into(&mut merged, survivor)?;
            }
            return Ok(merged);
        }

        let next = AtomicUsize::new(0);
        let results: Vec<Result<QueryState, SearchError>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (next, scan_into) = (&next, &scan_into);
                    scope.spawn(move |_| {
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
                .map(|h| h.join().expect("indexed sweep worker panicked"))
                .collect()
        })
        .expect("crossbeam scope panicked");

        for r in results {
            merged.absorb(r?);
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_datasets::{RecordingFactory, SignalClass};
    use emap_mdb::MdbBuilder;

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
    fn plan_partitions_cover_the_store() {
        let mdb = mdb();
        for partitions in [1usize, 2, 5, 100] {
            let plan = ScanPlan::build(&mdb, partitions);
            assert_eq!(plan.total_sets(), mdb.len(), "partitions = {partitions}");
            assert!(plan.partitions() <= partitions.max(1));
            // Chunks are contiguous in id order.
            let mut expect = 0u64;
            for (start, sets) in plan.chunks() {
                assert_eq!(start.0, expect);
                expect += sets.len() as u64;
            }
        }
        assert!(ScanPlan::build(&Mdb::new(), 4).is_empty());
    }

    #[test]
    fn batched_sweep_equals_query_at_a_time() {
        let mdb = mdb();
        let queries = queries(4);
        for kernel in [
            ScanKernel::exhaustive(),
            ScanKernel::sliding(0.004),
            ScanKernel::two_stage(0.004, 32, -0.05),
        ] {
            let exec = BatchExecutor::new(kernel, SearchConfig::paper());
            let plan = ScanPlan::build(&mdb, 1);
            let batched = exec.sweep(&queries, &plan).unwrap();
            for (q, b) in queries.iter().zip(&batched) {
                let solo = exec.sweep_one(q, &plan).unwrap();
                assert_eq!(b, &solo);
            }
        }
    }

    #[test]
    fn parallel_sweep_equals_sequential_sweep() {
        let mdb = mdb();
        let queries = queries(3);
        let exec = BatchExecutor::new(ScanKernel::sliding(0.004), SearchConfig::paper());
        let sequential = exec.sweep(&queries, &ScanPlan::build(&mdb, 1)).unwrap();
        for workers in [2usize, 4, 16] {
            let plan = ScanPlan::build(&mdb, workers * 4);
            let parallel = exec.sweep_parallel(&queries, &plan, workers).unwrap();
            assert_eq!(parallel, sequential, "workers = {workers}");
        }
    }

    #[test]
    fn budget_exhausts_queries_independently() {
        let mdb = mdb();
        let queries = queries(2);
        let probe = BatchExecutor::new(ScanKernel::sliding(0.004), SearchConfig::paper());
        let plan = ScanPlan::build(&mdb, 1);
        let full = probe.sweep_one(&queries[0], &plan).unwrap();
        let budget = full.work().correlations / 3;
        let cfg = SearchConfig::paper().with_max_correlations(budget).unwrap();
        let exec = BatchExecutor::new(ScanKernel::sliding(0.004), cfg);
        let batched = exec.sweep(&queries, &plan).unwrap();
        for (q, b) in queries.iter().zip(&batched) {
            assert!(b.work().truncated);
            let solo = exec.sweep_one(q, &plan).unwrap();
            assert_eq!(b, &solo, "budgeted batch diverged from solo scan");
        }
    }

    #[test]
    fn exhaustive_kernel_ignores_the_budget() {
        let mdb = mdb();
        let cfg = SearchConfig::paper().with_max_correlations(1).unwrap();
        let exec = BatchExecutor::new(ScanKernel::exhaustive(), cfg);
        let out = exec.sweep(&queries(1), &ScanPlan::build(&mdb, 1)).unwrap();
        assert!(!out[0].work().truncated);
        assert_eq!(out[0].work().sets_scanned, mdb.len() as u64);
    }

    #[test]
    fn telemetry_counters_partition_the_plan() {
        // Satellite invariant for the indexed sweeps: every host of the
        // plan lands in exactly one of `search_hosts_scanned_total` /
        // `search_hosts_pruned_total`, per query, for every kernel — and
        // the parallel sweep charges the registry identically to the
        // sequential one.
        let mdb = mdb();
        let queries = queries(2);
        let per_sweep = (mdb.len() * queries.len()) as u64;
        for kernel in [
            ScanKernel::exhaustive(),
            ScanKernel::sliding(0.004),
            ScanKernel::two_stage(0.004, 32, -0.05),
        ] {
            let registry = emap_telemetry::Registry::new();
            let exec = BatchExecutor::new(kernel, SearchConfig::paper())
                .with_telemetry(SweepTelemetry::register(&registry));
            exec.sweep_indexed(&queries, &ScanPlan::build(&mdb, 1))
                .unwrap();
            let scanned = registry.counter("search_hosts_scanned_total").get();
            let pruned = registry.counter("search_hosts_pruned_total").get();
            assert_eq!(
                scanned + pruned,
                per_sweep,
                "scanned {scanned} + pruned {pruned} != plan hosts x queries"
            );
            // At least one coarse evaluation per host per query.
            assert!(registry.counter("search_bound_evaluations_total").get() >= per_sweep);
        }
        let sequential = emap_telemetry::Registry::new();
        let parallel = emap_telemetry::Registry::new();
        let kernel = ScanKernel::sliding(0.004);
        BatchExecutor::new(kernel.clone(), SearchConfig::paper())
            .with_telemetry(SweepTelemetry::register(&sequential))
            .sweep_indexed(&queries, &ScanPlan::build(&mdb, 1))
            .unwrap();
        BatchExecutor::new(kernel, SearchConfig::paper())
            .with_telemetry(SweepTelemetry::register(&parallel))
            .sweep_indexed_parallel(&queries, &ScanPlan::build(&mdb, 16), 4)
            .unwrap();
        for name in [
            "search_hosts_scanned_total",
            "search_hosts_pruned_total",
            "search_bound_evaluations_total",
            "search_windows_evaluated_total",
        ] {
            assert_eq!(
                sequential.counter(name).get(),
                parallel.counter(name).get(),
                "{name} diverged between sequential and parallel sweeps"
            );
        }
        assert_eq!(
            parallel.counter("search_hosts_scanned_total").get()
                + parallel.counter("search_hosts_pruned_total").get(),
            per_sweep
        );
    }

    /// Runs one linear sweep under telemetry and returns
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
            .sweep(queries, &ScanPlan::build(mdb, 1))
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
        for (name, kernel) in [
            ("exhaustive", ScanKernel::exhaustive()),
            ("sliding", ScanKernel::sliding(0.004)),
            ("two-stage", ScanKernel::two_stage(0.004, 32, -0.05)),
        ] {
            let (exact, windows, matches) =
                resolution_counts(kernel.clone(), SearchConfig::paper(), &queries, &mdb);
            assert!(windows > 1000 && matches > 0, "{name}: vacuous");
            assert!(
                exact * 20 <= windows,
                "{name}: {exact} of {windows} windows resolved exactly"
            );
            let every_match = SearchConfig::paper().with_dedup_per_set(false);
            let (exact, windows, _) = resolution_counts(kernel, every_match, &queries, &mdb);
            assert_eq!(exact, windows, "{name}: a bracket was used without dedup");
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

        for kernel in [ScanKernel::exhaustive(), ScanKernel::sliding(0.004)] {
            let exec = BatchExecutor::new(kernel.clone(), SearchConfig::paper());
            let out = exec.sweep_one(query, &ScanPlan::build(&store, 1)).unwrap();
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
    fn empty_batch_and_empty_store_are_fine() {
        let exec = BatchExecutor::new(ScanKernel::sliding(0.004), SearchConfig::paper());
        assert!(exec
            .sweep(&[], &ScanPlan::build(&mdb(), 1))
            .unwrap()
            .is_empty());
        let empty = Mdb::new();
        let out = exec
            .sweep_parallel(&queries(2), &ScanPlan::build(&empty, 8), 4)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(CorrelationSet::is_empty));
    }
}
