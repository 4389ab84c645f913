//! Property-based tests for the cloud search: result invariants that must
//! hold for arbitrary signal content and configurations.

use emap_datasets::SignalClass;
use emap_mdb::{Mdb, Provenance, SignalSet, SIGNAL_SET_LEN};
use emap_search::{
    skip_for_omega, BatchExecutor, CorrelationSet, ExhaustiveSearch, ParallelSearch, Query,
    ScanKernel, ScanPlan, Search, SearchConfig, SlidingSearch, TwoStageSearch,
};
use proptest::prelude::*;

/// The reference the engine's bracket-first scan is pinned to: the scan as
/// it stood before brackets — `correlation_at` at every visited offset,
/// every match compared as it goes — kept verbatim, plus the two sweeps
/// around it. It lives here, not in the serving path.
mod oracle {
    use std::ops::Range;

    use emap_mdb::{Mdb, SetId, SignalSet};
    use emap_search::{
        CorrelationSet, Query, QueryIndex, ScanKernel, SearchConfig, SearchHit, SearchWork,
    };

    /// One `(query, host)` pair; `ranges` confines the exhaustive kernel
    /// the way the indexed sweep does.
    fn scan_set(
        kernel: &ScanKernel,
        query: &Query,
        config: &SearchConfig,
        (id, set): (SetId, &SignalSet),
        ranges: Option<&[Range<usize>]>,
        candidates: &mut Vec<SearchHit>,
        work: &mut SearchWork,
    ) {
        let correlator = query.kernel();
        let host = set.samples();
        let stats = set.stats();
        let window = correlator.window_len();
        work.sets_scanned += 1;
        if host.len() < window {
            return;
        }
        let last = host.len() - window;
        let mut best: Option<SearchHit> = None;
        let mut on_match = |omega: f64, beta: usize, work: &mut SearchWork| {
            if omega > config.delta() {
                work.matches += 1;
                let hit = SearchHit {
                    set_id: id,
                    omega,
                    beta,
                };
                if config.dedup_per_set() {
                    if best.is_none_or(|b| omega > b.omega) {
                        best = Some(hit);
                    }
                } else {
                    candidates.push(hit);
                }
            }
        };
        match kernel {
            ScanKernel::Exhaustive => {
                let whole = 0..last + 1;
                for range in ranges.unwrap_or(std::slice::from_ref(&whole)) {
                    for beta in range.clone() {
                        if beta > last {
                            break;
                        }
                        let omega = correlator.correlation_at(host, stats, beta).unwrap();
                        work.correlations += 1;
                        on_match(omega, beta, work);
                    }
                }
            }
            ScanKernel::Sliding(skips) => {
                let mut beta = 0usize;
                while beta <= last {
                    let omega = correlator.correlation_at(host, stats, beta).unwrap();
                    work.correlations += 1;
                    on_match(omega, beta, work);
                    beta += skips.skip(omega);
                }
            }
            ScanKernel::TwoStage {
                skips,
                coarse_stride,
                prescreen_margin,
            } => {
                let prescreen = (config.delta() - prescreen_margin).clamp(0.0, 1.0);
                let mut seeds = Vec::new();
                let mut beta = 0usize;
                while beta <= last {
                    let omega = correlator.correlation_at(host, stats, beta).unwrap();
                    work.correlations += 1;
                    if omega >= prescreen {
                        seeds.push(beta);
                    }
                    beta += coarse_stride;
                }
                let mut scanned_until = 0usize;
                for seed in seeds {
                    let lo = seed.saturating_sub(*coarse_stride).max(scanned_until);
                    let hi = (seed + coarse_stride).min(last);
                    let mut beta = lo;
                    while beta <= hi {
                        let omega = correlator.correlation_at(host, stats, beta).unwrap();
                        work.correlations += 1;
                        on_match(omega, beta, work);
                        beta += skips.skip(omega);
                    }
                    scanned_until = hi + 1;
                }
            }
        }
        if let Some(b) = best {
            candidates.push(b);
        }
    }

    /// The linear sweep: every host, in set-id order.
    pub fn linear(
        kernel: &ScanKernel,
        query: &Query,
        config: &SearchConfig,
        mdb: &Mdb,
    ) -> CorrelationSet {
        let mut candidates = Vec::new();
        let mut work = SearchWork::default();
        for host in mdb.iter_with_ids() {
            scan_set(
                kernel,
                query,
                config,
                host,
                None,
                &mut candidates,
                &mut work,
            );
        }
        CorrelationSet::from_candidates(candidates, config.top_k(), work)
    }

    /// The indexed sweep over a store that fits one wave (≤ 64 hosts): the
    /// top-K floor is still empty when the only wave starts, so a bound is
    /// prunable exactly when it is `≤ δ`, and scan order cannot matter.
    pub fn indexed_single_wave(
        kernel: &ScanKernel,
        query: &Query,
        config: &SearchConfig,
        mdb: &Mdb,
    ) -> CorrelationSet {
        assert!(mdb.len() <= 64, "one wave only");
        let index = QueryIndex::new(query);
        let spectrum = emap_dsp::spectra::QuerySpectrum::from_normalized(
            query.correlator().normalized_query(),
        );
        let below = |bound: f64| bound <= config.delta();
        let mut candidates = Vec::new();
        let mut work = SearchWork::default();
        work.bound_evaluations += mdb.len() as u64;
        let best_coarse = mdb
            .iter()
            .map(|set| index.coarse_bound(set))
            .fold(f64::NEG_INFINITY, f64::max);
        if mdb.is_empty() || below(best_coarse) {
            work.hosts_pruned += mdb.len() as u64;
            return CorrelationSet::from_candidates(candidates, config.top_k(), work);
        }
        for (id, set) in mdb.iter_with_ids() {
            if below(index.coarse_bound(set)) {
                work.hosts_pruned += 1;
                continue;
            }
            work.bound_evaluations += 1;
            let ranges = match kernel {
                ScanKernel::Exhaustive => {
                    let spectra = set.spectra();
                    let mut ranges: Vec<Range<usize>> = Vec::new();
                    for g in 0..spectra.fine_groups() {
                        if below(spectra.fine_group_bound(g, &spectrum)) {
                            continue;
                        }
                        let r = spectra.fine_group_offsets(g);
                        match ranges.last_mut() {
                            Some(last) if last.end == r.start => last.end = r.end,
                            _ => ranges.push(r),
                        }
                    }
                    (!ranges.is_empty()).then_some(Some(ranges))
                }
                _ => (!below(index.fine_bound(set))).then_some(None),
            };
            match ranges {
                Some(ranges) => scan_set(
                    kernel,
                    query,
                    config,
                    (id, set),
                    ranges.as_deref(),
                    &mut candidates,
                    &mut work,
                ),
                None => work.hosts_pruned += 1,
            }
        }
        CorrelationSet::from_candidates(candidates, config.top_k(), work)
    }
}

/// Every sweep shape of one kernel against the oracle: hits **and** every
/// [`emap_search::SearchWork`] field.
fn assert_matches_oracle(
    kernel: &ScanKernel,
    cfg: SearchConfig,
    queries: &[Query],
    mdb: &Mdb,
) -> Result<(), TestCaseError> {
    let exec = BatchExecutor::new(kernel.clone(), cfg);
    let one = ScanPlan::build(mdb, 1);
    let many = ScanPlan::build(mdb, 5);
    let linear: Vec<CorrelationSet> = queries
        .iter()
        .map(|q| oracle::linear(kernel, q, &cfg, mdb))
        .collect();
    let indexed: Vec<CorrelationSet> = queries
        .iter()
        .map(|q| oracle::indexed_single_wave(kernel, q, &cfg, mdb))
        .collect();
    prop_assert_eq!(&exec.sweep(queries, &one).expect("sweep"), &linear);
    prop_assert_eq!(
        &exec
            .sweep_parallel(queries, &many, 3)
            .expect("parallel sweep"),
        &linear
    );
    prop_assert_eq!(
        &exec.sweep_indexed(queries, &one).expect("indexed sweep"),
        &indexed
    );
    prop_assert_eq!(
        &exec
            .sweep_indexed_parallel(queries, &many, 3)
            .expect("indexed parallel sweep"),
        &indexed
    );
    for (l, i) in linear.iter().zip(&indexed) {
        prop_assert_eq!(l.hits(), i.hits());
    }
    Ok(())
}

fn kernels(alpha: f64) -> [ScanKernel; 3] {
    [
        ScanKernel::exhaustive(),
        ScanKernel::sliding(alpha),
        ScanKernel::two_stage(
            alpha,
            TwoStageSearch::DEFAULT_STRIDE,
            TwoStageSearch::DEFAULT_MARGIN,
        ),
    ]
}

fn set_of(samples: Vec<f32>, i: usize) -> SignalSet {
    SignalSet::new(
        samples,
        SignalClass::Normal,
        Provenance {
            dataset_id: "prop".into(),
            recording_id: format!("r{i}"),
            channel: "c".into(),
            offset: i as u64 * 1000,
        },
    )
    .expect("slice length fixed")
}

fn arb_signal(len: usize) -> impl Strategy<Value = Vec<f32>> {
    // Mix of a rhythm and noise, scaled like filtered EEG.
    (
        0.05f32..0.6,
        0.0f32..std::f32::consts::TAU,
        prop::collection::vec(-10.0f32..10.0, len),
    )
        .prop_map(move |(freq, phase, noise)| {
            noise
                .into_iter()
                .enumerate()
                .map(|(i, n)| (freq * i as f32 + phase).sin() * 30.0 + n)
                .collect()
        })
}

fn arb_mdb(sets: usize) -> impl Strategy<Value = Mdb> {
    prop::collection::vec((arb_signal(SIGNAL_SET_LEN), prop::bool::ANY), 1..=sets).prop_map(
        |entries| {
            let mut mdb = Mdb::new();
            for (i, (samples, anomalous)) in entries.into_iter().enumerate() {
                let class = if anomalous {
                    SignalClass::Seizure
                } else {
                    SignalClass::Normal
                };
                mdb.insert(
                    SignalSet::new(
                        samples,
                        class,
                        Provenance {
                            dataset_id: "prop".into(),
                            recording_id: format!("r{i}"),
                            channel: "c".into(),
                            offset: i as u64 * 1000,
                        },
                    )
                    .expect("slice length fixed"),
                );
            }
            mdb
        },
    )
}

fn arb_config() -> impl Strategy<Value = SearchConfig> {
    (0.001f64..0.05, 0.0f64..0.95, 1usize..150, prop::bool::ANY).prop_map(
        |(alpha, delta, top_k, dedup)| {
            SearchConfig::paper()
                .with_alpha(alpha)
                .expect("valid alpha")
                .with_delta(delta)
                .expect("valid delta")
                .with_top_k(top_k)
                .expect("valid top_k")
                .with_dedup_per_set(dedup)
        },
    )
}

/// A store whose first host holds the query's source window twice: once
/// verbatim and once, `gap` samples on, with a perturbation of relative
/// size `jitter` (0 = an exact copy). The two windows' `ω` against the
/// query then sit within ~`jitter` of each other — inside each other's
/// brackets — which is the case the parked-window tie rule exists for:
/// the first strictly greater exact `ω` wins.
fn arb_near_tie() -> impl Strategy<Value = (Mdb, Vec<f32>)> {
    (
        arb_signal(SIGNAL_SET_LEN),
        arb_signal(SIGNAL_SET_LEN),
        0usize..200,
        257usize..500,
        prop::sample::select(vec![0.0f32, 1e-8, 1e-7, 1e-6]),
        prop::collection::vec(-1.0f32..1.0, 256),
    )
        .prop_map(|(mut host, other, at, gap, jitter, noise)| {
            let source: Vec<f32> = host[at..at + 256].to_vec();
            for (i, (&s, n)) in source.iter().zip(&noise).enumerate() {
                host[at + gap + i] = s + s.abs().max(1.0) * jitter * n;
            }
            // The query is the source window, lightly disturbed so neither
            // copy is a perfect match.
            let query: Vec<f32> = source
                .iter()
                .zip(noise.iter().rev())
                .map(|(&s, n)| s + 0.3 * n)
                .collect();
            let mut mdb = Mdb::new();
            mdb.insert(set_of(host, 0));
            mdb.insert(set_of(other, 1));
            (mdb, query)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The bracket-first scan against its oracle: for all three kernels,
    /// both `dedup_per_set` values (`arb_config` draws it) and linear,
    /// parallel, indexed and indexed-parallel sweeps, hits and every
    /// `SearchWork` field are bitwise the oracle's.
    #[test]
    fn every_sweep_shape_is_bitwise_equal_to_the_oracle(
        mdb in arb_mdb(8),
        queries in prop::collection::vec(arb_signal(256), 1..=3),
        cfg in arb_config(),
    ) {
        let qs: Vec<Query> = queries
            .iter()
            .map(|s| Query::new(s).expect("window length 256"))
            .collect();
        for kernel in kernels(cfg.alpha()) {
            assert_matches_oracle(&kernel, cfg, &qs, &mdb)?;
        }
    }

    /// The same equality where two windows of one host correlate within
    /// 1e-7 of each other, under the paper's `δ` and a low one.
    #[test]
    fn near_ties_within_one_host_resolve_like_the_oracle(
        (mdb, query) in arb_near_tie(),
        dedup in prop::bool::ANY,
        delta in prop::sample::select(vec![0.8f64, 0.3]),
    ) {
        let cfg = SearchConfig::paper()
            .with_delta(delta)
            .expect("valid delta")
            .with_dedup_per_set(dedup);
        let qs = [Query::new(&query).expect("window length 256")];
        for kernel in kernels(cfg.alpha()) {
            assert_matches_oracle(&kernel, cfg, &qs, &mdb)?;
        }
        // The planted pair is found: the first host's best clears 0.9.
        let t = oracle::linear(&ScanKernel::exhaustive(), &qs[0], &cfg, &mdb);
        prop_assert!(t.hits().iter().any(|h| h.set_id.0 == 0 && h.omega > 0.9));
    }

    /// Every search respects its invariants: sorted-descending hits, ω in
    /// (δ, 1], at most top_k results, β within bounds.
    #[test]
    fn result_invariants(mdb in arb_mdb(6), query in arb_signal(256), cfg in arb_config()) {
        let q = Query::new(&query).expect("window length 256");
        for search in [
            Box::new(ExhaustiveSearch::new(cfg)) as Box<dyn Search>,
            Box::new(SlidingSearch::new(cfg)),
            Box::new(TwoStageSearch::new(cfg)),
        ] {
            let t = search.search(&q, &mdb).expect("search succeeds");
            prop_assert!(t.len() <= cfg.top_k());
            let mut prev = f64::INFINITY;
            for h in t.hits() {
                prop_assert!(h.omega <= prev, "{}: not sorted", search.name());
                prop_assert!(h.omega > cfg.delta(), "{}: below delta", search.name());
                prop_assert!(h.omega <= 1.0 + 1e-9);
                prop_assert!(h.beta <= SIGNAL_SET_LEN - 256);
                prev = h.omega;
            }
            if cfg.dedup_per_set() {
                let mut ids: Vec<_> = t.hits().iter().map(|h| h.set_id).collect();
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), t.len(), "{}: dup sets", search.name());
            }
        }
    }

    /// The exhaustive search dominates: its best hit is at least as good as
    /// any other algorithm's best hit, and its work is an upper bound. A
    /// raw-kernel work claim, so the envelope index is off — indexed, the
    /// exhaustive kernel skips pruned offset groups and its correlation
    /// count is no longer an upper bound on anything.
    #[test]
    fn exhaustive_dominates(mdb in arb_mdb(4), query in arb_signal(256)) {
        let cfg = SearchConfig::paper();
        let q = Query::new(&query).expect("window length 256");
        let ex = ExhaustiveSearch::new(cfg)
            .with_index(false)
            .search(&q, &mdb)
            .expect("search");
        for other in [
            Box::new(SlidingSearch::new(cfg).with_index(false)) as Box<dyn Search>,
            Box::new(TwoStageSearch::new(cfg).with_index(false)),
        ] {
            let t = other.search(&q, &mdb).expect("search");
            prop_assert!(t.work().correlations <= ex.work().correlations);
            if let (Some(e), Some(o)) = (ex.hits().first(), t.hits().first()) {
                prop_assert!(e.omega >= o.omega - 1e-9, "{} beat exhaustive", other.name());
            }
            // Anything another algorithm found, exhaustive found too (it
            // cannot return empty when others have hits).
            if !t.is_empty() {
                prop_assert!(!ex.is_empty());
            }
        }
    }

    /// Search results are deterministic.
    #[test]
    fn search_is_deterministic(mdb in arb_mdb(4), query in arb_signal(256)) {
        let cfg = SearchConfig::paper();
        let q = Query::new(&query).expect("window length 256");
        let a = SlidingSearch::new(cfg).search(&q, &mdb).expect("search");
        let b = SlidingSearch::new(cfg).search(&q, &mdb).expect("search");
        prop_assert_eq!(a, b);
    }

    /// The load-bearing batching invariant: for every algorithm and every
    /// batch size, `search_batch` returns **bitwise identical** hits and
    /// work counters to calling `search` once per query. The whole
    /// plan/executor engine — and the cloud's micro-batcher above it —
    /// rests on this equality.
    #[test]
    fn batched_search_is_bitwise_equal_to_sequential(
        mdb in arb_mdb(6),
        queries in prop::collection::vec(arb_signal(256), 1..=8),
        cfg in arb_config(),
    ) {
        let qs: Vec<Query> = queries
            .iter()
            .map(|s| Query::new(s).expect("window length 256"))
            .collect();
        for search in [
            Box::new(ExhaustiveSearch::new(cfg)) as Box<dyn Search>,
            Box::new(SlidingSearch::new(cfg)),
            Box::new(TwoStageSearch::new(cfg)),
            Box::new(ParallelSearch::new(cfg, 3)),
        ] {
            let batched = search.search_batch(&qs, &mdb).expect("batch succeeds");
            prop_assert_eq!(batched.len(), qs.len());
            for (q, b) in qs.iter().zip(&batched) {
                let single = search.search(q, &mdb).expect("search succeeds");
                prop_assert_eq!(
                    &single, b,
                    "{}: batched result diverged from per-query search",
                    search.name()
                );
            }
        }
    }

    /// The same equality under a correlation budget: per-query exhaustion
    /// is independent inside a batch, so truncated work counters match the
    /// sequential path exactly too.
    #[test]
    fn batched_search_matches_sequential_under_budget(
        mdb in arb_mdb(5),
        queries in prop::collection::vec(arb_signal(256), 1..=6),
        budget in 100u64..3000,
    ) {
        let cfg = SearchConfig::paper()
            .with_max_correlations(budget)
            .expect("valid budget");
        let qs: Vec<Query> = queries
            .iter()
            .map(|s| Query::new(s).expect("window length 256"))
            .collect();
        let sliding = SlidingSearch::new(cfg);
        let batched = sliding.search_batch(&qs, &mdb).expect("batch succeeds");
        for (q, b) in qs.iter().zip(&batched) {
            let single = sliding.search(q, &mdb).expect("search succeeds");
            prop_assert_eq!(&single, b);
            prop_assert_eq!(single.work().truncated, b.work().truncated);
        }
    }

    /// The tentpole equality: for every algorithm, single and batched, the
    /// envelope-indexed sweep returns **bitwise identical** hits to the
    /// linear sweep — same `ω`, same `β`, same tie order. The index may
    /// only move the work counters.
    #[test]
    fn indexed_search_is_bitwise_equal_to_linear(
        mdb in arb_mdb(8),
        queries in prop::collection::vec(arb_signal(256), 1..=4),
        cfg in arb_config(),
    ) {
        let qs: Vec<Query> = queries
            .iter()
            .map(|s| Query::new(s).expect("window length 256"))
            .collect();
        let pairs: [(Box<dyn Search>, Box<dyn Search>); 4] = [
            (
                Box::new(ExhaustiveSearch::new(cfg)),
                Box::new(ExhaustiveSearch::new(cfg).with_index(false)),
            ),
            (
                Box::new(SlidingSearch::new(cfg)),
                Box::new(SlidingSearch::new(cfg).with_index(false)),
            ),
            (
                Box::new(TwoStageSearch::new(cfg)),
                Box::new(TwoStageSearch::new(cfg).with_index(false)),
            ),
            (
                Box::new(ParallelSearch::new(cfg, 3)),
                Box::new(ParallelSearch::new(cfg, 3).with_index(false)),
            ),
        ];
        for (indexed, linear) in &pairs {
            for q in &qs {
                let with = indexed.search(q, &mdb).expect("search succeeds");
                let without = linear.search(q, &mdb).expect("search succeeds");
                prop_assert_eq!(
                    with.hits(),
                    without.hits(),
                    "{}: indexed hits diverged from linear",
                    indexed.name()
                );
            }
            let with = indexed.search_batch(&qs, &mdb).expect("batch succeeds");
            let without = linear.search_batch(&qs, &mdb).expect("batch succeeds");
            for (w, wo) in with.iter().zip(&without) {
                prop_assert_eq!(
                    w.hits(),
                    wo.hits(),
                    "{}: indexed batch hits diverged from linear",
                    indexed.name()
                );
            }
        }
    }

    /// Counter consistency on indexed sweeps: every host of the plan is
    /// either scanned or pruned — never both, never neither — sequentially
    /// and across parallel workers, and every pruning decision is backed by
    /// bound evaluations.
    #[test]
    fn indexed_counters_partition_the_plan(
        mdb in arb_mdb(8),
        query in arb_signal(256),
        cfg in arb_config(),
        workers in 1usize..5,
    ) {
        let q = Query::new(&query).expect("window length 256");
        let hosts = mdb.len() as u64;
        for search in [
            Box::new(ExhaustiveSearch::new(cfg)) as Box<dyn Search>,
            Box::new(SlidingSearch::new(cfg)),
            Box::new(TwoStageSearch::new(cfg)),
            Box::new(ParallelSearch::new(cfg, workers)),
        ] {
            let t = search.search(&q, &mdb).expect("search succeeds");
            let work = t.work();
            prop_assert_eq!(
                work.sets_scanned + work.hosts_pruned,
                hosts,
                "{}: scanned {} + pruned {} != plan hosts {}",
                search.name(),
                work.sets_scanned,
                work.hosts_pruned,
                hosts
            );
            // One coarse evaluation per host, plus one fine pass per
            // surviving host at most.
            prop_assert!(work.bound_evaluations >= hosts, "{}", search.name());
            prop_assert!(work.bound_evaluations <= 2 * hosts, "{}", search.name());
        }
    }

    /// The skip law is total, bounded, and monotone for any α in range.
    #[test]
    fn skip_law_properties(omega in -2.0f64..2.0, alpha in 0.0005f64..0.5) {
        let s = skip_for_omega(omega, alpha);
        prop_assert!(s >= 1);
        prop_assert!(s <= (1.0 / alpha).ceil() as usize + 1);
        // Monotone: higher ω never skips farther.
        let s2 = skip_for_omega((omega + 0.1).min(2.0), alpha);
        prop_assert!(s2 <= s);
    }
}

/// Hosts the bracket must refuse — a NaN, ±∞, samples near `f32::MAX`, a
/// 1e-3 ripple on a baseline of 5, constant stretches — beside healthy
/// ones: every sweep shape still equals the oracle, which calls
/// `correlation_at` at every visited offset.
#[test]
fn hostile_hosts_sweep_like_the_oracle() {
    let wave = |seed: f32| -> Vec<f32> {
        (0..SIGNAL_SET_LEN)
            .map(|i| (0.21 * i as f32 + seed).sin() * 30.0 + (0.057 * i as f32).cos() * 9.0)
            .collect()
    };
    let mut hosts: Vec<Vec<f32>> = vec![wave(0.0), wave(1.0)];
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut host = wave(2.0);
        host[0] = poison;
        hosts.push(host.clone());
        host[0] = 0.0;
        host[500] = poison;
        hosts.push(host);
    }
    hosts.push(wave(3.0).iter().map(|x| 2e38 + x * 1e36).collect());
    hosts.push(wave(3.5).iter().map(|x| x * 1e30).collect());
    hosts.push(
        (0..SIGNAL_SET_LEN)
            .map(|i| 5.0 + (0.37 * i as f32).sin() * 1e-3)
            .collect(),
    );
    let mut flat = wave(4.0);
    flat[100..700].fill(3.25);
    hosts.push(flat);
    hosts.push(vec![0.0; SIGNAL_SET_LEN]);

    let mut mdb = Mdb::new();
    for (i, host) in hosts.into_iter().enumerate() {
        mdb.insert(set_of(host, i));
    }
    let qs: Vec<Query> = [0.0f32, 2.0, 3.0]
        .iter()
        .map(|&seed| Query::new(&wave(seed)[300..556]).expect("window length 256"))
        .collect();
    for dedup in [true, false] {
        for delta in [0.8, 0.0] {
            let cfg = SearchConfig::paper()
                .with_delta(delta)
                .expect("valid delta")
                .with_dedup_per_set(dedup);
            for kernel in kernels(cfg.alpha()) {
                assert_matches_oracle(&kernel, cfg, &qs, &mdb)
                    .unwrap_or_else(|e| panic!("dedup {dedup}, δ {delta}: {e:?}"));
            }
        }
    }
}
