//! Property-based tests for the cloud search: result invariants that must
//! hold for arbitrary signal content and configurations.

use std::ops::RangeInclusive;

use emap_datasets::{RecordingFactory, SignalClass};
use emap_mdb::{Mdb, MdbBuilder, Provenance, SignalSet, SIGNAL_SET_LEN};
use emap_search::{skip_for_omega, BatchExecutor, CorrelationSet, Query, ScanKernel, SearchConfig};
use emap_testkit::prelude::*;

/// The references the engine is pinned to, kept here and not in the serving
/// path: the `(query, host)` scan as it stood before brackets —
/// `correlation_at` at every visited offset, every match compared as it
/// goes — with the two sweeps around it: `linear`, every host in set-id
/// order (what the hits must equal), and `indexed`, the wave-synchronous
/// best-bound-first sweep written out plainly (what every work counter must
/// equal).
mod oracle {
    use std::ops::Range;

    use emap_mdb::{Mdb, SetId, SignalSet};
    use emap_search::{
        skip_for_omega, CorrelationSet, Query, QueryIndex, ScanKernel, SearchConfig, SearchHit,
        SearchWork,
    };

    /// One `(query, host)` pair; `ranges` confines the exhaustive kernel
    /// the way the indexed sweep does, and the sliding kernel steps by the
    /// skip law at the configuration's `α`.
    fn scan_set(
        kernel: ScanKernel,
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
            ScanKernel::Sliding => {
                let mut beta = 0usize;
                while beta <= last {
                    let omega = correlator.correlation_at(host, stats, beta).unwrap();
                    work.correlations += 1;
                    on_match(omega, beta, work);
                    beta += skip_for_omega(omega, config.alpha());
                }
            }
        }
        if let Some(b) = best {
            candidates.push(b);
        }
    }

    /// The linear sweep: every host, in set-id order.
    pub fn linear(
        kernel: ScanKernel,
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

    /// The served sweep, plainly: hosts ranked best-coarse-bound-first (ties
    /// to the lower set id) and taken in waves of 64. At each wave boundary
    /// the floor is the K-th best candidate `ω` so far, if K exist; a bound
    /// is prunable when it is `≤ δ` or strictly below that floor. A wave
    /// whose first host is prunable ends the sweep; otherwise each host is
    /// tested on its coarse bound, then on its fine bound (one bound
    /// evaluation), then scanned.
    pub fn indexed(
        kernel: ScanKernel,
        query: &Query,
        config: &SearchConfig,
        mdb: &Mdb,
    ) -> CorrelationSet {
        const WAVE: usize = 64;
        let index = QueryIndex::new(query);
        let spectrum = emap_dsp::spectra::QuerySpectrum::new(query.kernel());
        let hosts: Vec<(SetId, &SignalSet)> = mdb.iter_with_ids().collect();
        let mut order: Vec<(f64, usize)> = hosts
            .iter()
            .enumerate()
            .map(|(i, (_, set))| (index.coarse_bound(set), i))
            .collect();
        order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut candidates: Vec<SearchHit> = Vec::new();
        let mut work = SearchWork {
            bound_evaluations: hosts.len() as u64,
            ..SearchWork::default()
        };
        for (w, wave) in order.chunks(WAVE).enumerate() {
            let mut omegas: Vec<f64> = candidates.iter().map(|hit| hit.omega).collect();
            omegas.sort_by(|a, b| b.total_cmp(a));
            let floor = omegas.get(config.top_k() - 1).copied();
            let below = |bound: f64| bound <= config.delta() || floor.is_some_and(|f| bound < f);
            if below(wave[0].0) {
                work.hosts_pruned += (order.len() - w * WAVE) as u64;
                break;
            }
            for &(coarse, idx) in wave {
                if below(coarse) {
                    work.hosts_pruned += 1;
                    continue;
                }
                work.bound_evaluations += 1;
                let (id, set) = hosts[idx];
                let ranges = match kernel {
                    ScanKernel::Exhaustive => {
                        let mut ranges: Vec<Range<usize>> = Vec::new();
                        for (r, bound) in set.spectra().fine_bounds(&spectrum, |_| true) {
                            if below(bound) {
                                continue;
                            }
                            match ranges.last_mut() {
                                Some(last) if last.end == r.start => last.end = r.end,
                                _ => ranges.push(r),
                            }
                        }
                        (!ranges.is_empty()).then_some(Some(ranges))
                    }
                    ScanKernel::Sliding => (!below(index.fine_bound(set))).then_some(None),
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
        }
        // Each host's candidates are contiguous and in visit order; a stable
        // sort by set id is the order `linear` produces them in.
        candidates.sort_by_key(|hit| hit.set_id);
        CorrelationSet::from_candidates(candidates, config.top_k(), work)
    }
}

/// Worker counts every equality is run under.
const WORKERS: [usize; 4] = [1, 2, 3, 8];

/// One kernel's sweep against the oracles, under every worker count: hits
/// bit for bit those of `oracle::linear`, hits **and** every
/// [`emap_search::SearchWork`] field those of `oracle::indexed`.
fn assert_matches_oracle(
    kernel: ScanKernel,
    cfg: SearchConfig,
    queries: &[Query],
    mdb: &Mdb,
) -> Result<(), TestCaseError> {
    let indexed: Vec<CorrelationSet> = queries
        .iter()
        .map(|q| oracle::indexed(kernel, q, &cfg, mdb))
        .collect();
    for (q, i) in queries.iter().zip(&indexed) {
        let linear = oracle::linear(kernel, q, &cfg, mdb);
        prop_assert_eq!(linear.hits(), i.hits());
    }
    for workers in WORKERS {
        let exec = BatchExecutor::new(kernel, cfg).with_workers(workers);
        prop_assert_eq!(
            &exec.sweep(queries, mdb).expect("sweep"),
            &indexed,
            "workers = {}",
            workers
        );
    }
    Ok(())
}

/// Both kernels; each reads `α` from the configuration it runs under.
const KERNELS: [ScanKernel; 2] = [ScanKernel::Exhaustive, ScanKernel::Sliding];

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

fn arb_mdb(sets: RangeInclusive<usize>) -> impl Strategy<Value = Mdb> {
    prop::collection::vec((arb_signal(SIGNAL_SET_LEN), prop::bool::ANY), sets).prop_map(|entries| {
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
    })
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sweep against its oracles on stores of more than one wave, where
    /// the floor snapshot of a wave boundary decides who is scanned: both
    /// kernels, both `dedup_per_set` values and `top_k` on either
    /// side of a wave (`arb_config` draws them), every worker count.
    #[test]
    fn sweep_across_waves_is_bitwise_equal_to_the_oracles(
        mdb in arb_mdb(65..=90),
        queries in prop::collection::vec(arb_signal(256), 1..=2),
        cfg in arb_config(),
    ) {
        let qs: Vec<Query> = queries
            .iter()
            .map(|s| Query::new(s).expect("window length 256"))
            .collect();
        for kernel in KERNELS {
            assert_matches_oracle(kernel, cfg, &qs, &mdb)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same equalities on stores that fit one wave, where the floor is
    /// still empty when the only wave starts.
    #[test]
    fn sweep_within_one_wave_is_bitwise_equal_to_the_oracles(
        mdb in arb_mdb(1..=8),
        queries in prop::collection::vec(arb_signal(256), 1..=3),
        cfg in arb_config(),
    ) {
        let qs: Vec<Query> = queries
            .iter()
            .map(|s| Query::new(s).expect("window length 256"))
            .collect();
        for kernel in KERNELS {
            assert_matches_oracle(kernel, cfg, &qs, &mdb)?;
        }
    }

    /// The same equalities where two windows of one host correlate within
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
        for kernel in KERNELS {
            assert_matches_oracle(kernel, cfg, &qs, &mdb)?;
        }
        // The planted pair is found: the first host's best clears 0.9.
        let t = oracle::linear(ScanKernel::Exhaustive, &qs[0], &cfg, &mdb);
        prop_assert!(t.hits().iter().any(|h| h.set_id.0 == 0 && h.omega > 0.9));
    }

    /// Every search respects its invariants: sorted-descending hits, ω in
    /// (δ, 1], at most top_k results, β within bounds.
    #[test]
    fn result_invariants(mdb in arb_mdb(1..=6), query in arb_signal(256), cfg in arb_config()) {
        let q = Query::new(&query).expect("window length 256");
        for kernel in KERNELS {
            let t = BatchExecutor::new(kernel, cfg).search(&q, &mdb).expect("search succeeds");
            prop_assert!(t.len() <= cfg.top_k());
            let mut prev = f64::INFINITY;
            for h in t.hits() {
                prop_assert!(h.omega <= prev, "{:?}: not sorted", kernel);
                prop_assert!(h.omega > cfg.delta(), "{:?}: below delta", kernel);
                prop_assert!(h.omega <= 1.0 + 1e-9);
                prop_assert!(h.beta <= SIGNAL_SET_LEN - 256);
                prev = h.omega;
            }
            if cfg.dedup_per_set() {
                let mut ids: Vec<_> = t.hits().iter().map(|h| h.set_id).collect();
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), t.len(), "{:?}: dup sets", kernel);
            }
        }
    }

    /// The raw kernels' work claims, on the reference scan of every host:
    /// the exhaustive kernel evaluates all 745 offsets of every set, its
    /// work is an upper bound on the sliding kernel's, and its best hit is
    /// at least as good.
    #[test]
    fn exhaustive_dominates(mdb in arb_mdb(1..=4), query in arb_signal(256)) {
        let cfg = SearchConfig::paper();
        let q = Query::new(&query).expect("window length 256");
        let [ex, sl] = KERNELS.map(|kernel| oracle::linear(kernel, &q, &cfg, &mdb));
        prop_assert_eq!(ex.work().correlations, 745 * mdb.len() as u64);
        prop_assert_eq!(ex.work().sets_scanned, mdb.len() as u64);
        prop_assert_eq!((ex.work().hosts_pruned, ex.work().bound_evaluations), (0, 0));
        prop_assert!(sl.work().correlations <= ex.work().correlations);
        if let (Some(e), Some(o)) = (ex.hits().first(), sl.hits().first()) {
            prop_assert!(e.omega >= o.omega - 1e-9, "the skipping kernel beat exhaustive");
        }
        // Anything the sliding kernel found, exhaustive found too (it
        // cannot return empty when sliding has hits).
        if !sl.is_empty() {
            prop_assert!(!ex.is_empty());
        }
    }

    /// Search results are deterministic.
    #[test]
    fn search_is_deterministic(mdb in arb_mdb(1..=4), query in arb_signal(256)) {
        let cfg = SearchConfig::paper();
        let q = Query::new(&query).expect("window length 256");
        let a = BatchExecutor::new(ScanKernel::Sliding, cfg).search(&q, &mdb).expect("search");
        let b = BatchExecutor::new(ScanKernel::Sliding, cfg).search(&q, &mdb).expect("search");
        prop_assert_eq!(a, b);
    }

    /// The batching invariant the cloud's request coalescer rests on: for
    /// both kernels and every batch size, `sweep` returns **bitwise
    /// identical** hits and work counters to calling `search` once per
    /// query.
    #[test]
    fn batched_search_is_bitwise_equal_to_sequential(
        mdb in arb_mdb(1..=6),
        queries in prop::collection::vec(arb_signal(256), 1..=8),
        cfg in arb_config(),
    ) {
        let qs: Vec<Query> = queries
            .iter()
            .map(|s| Query::new(s).expect("window length 256"))
            .collect();
        for search in [
            BatchExecutor::new(ScanKernel::Exhaustive, cfg),
            BatchExecutor::new(ScanKernel::Sliding, cfg),
            BatchExecutor::new(ScanKernel::Sliding, cfg).with_workers(3),
        ] {
            let batched = search.sweep(&qs, &mdb).expect("batch succeeds");
            prop_assert_eq!(batched.len(), qs.len());
            for (q, b) in qs.iter().zip(&batched) {
                let single = search.search(q, &mdb).expect("search succeeds");
                prop_assert_eq!(
                    &single, b,
                    "{:?}: batched result diverged from per-query search",
                    search.kernel()
                );
            }
        }
    }

    /// Counter consistency: every host of the store is either scanned or
    /// pruned — never both, never neither — sequentially and across
    /// parallel workers, and every pruning decision is backed by bound
    /// evaluations.
    #[test]
    fn counters_partition_the_store(
        mdb in arb_mdb(1..=8),
        query in arb_signal(256),
        cfg in arb_config(),
        workers in 1usize..5,
    ) {
        let q = Query::new(&query).expect("window length 256");
        let hosts = mdb.len() as u64;
        for search in [
            BatchExecutor::new(ScanKernel::Exhaustive, cfg),
            BatchExecutor::new(ScanKernel::Sliding, cfg),
            BatchExecutor::new(ScanKernel::Sliding, cfg).with_workers(workers),
        ] {
            let t = search.search(&q, &mdb).expect("search succeeds");
            let work = t.work();
            let kernel = search.kernel();
            prop_assert_eq!(
                work.sets_scanned + work.hosts_pruned,
                hosts,
                "{:?}: scanned {} + pruned {} != store hosts {}",
                kernel,
                work.sets_scanned,
                work.hosts_pruned,
                hosts
            );
            // One coarse evaluation per host, plus one fine pass per
            // surviving host at most.
            prop_assert!(work.bound_evaluations >= hosts, "{:?}", kernel);
            prop_assert!(work.bound_evaluations <= 2 * hosts, "{:?}", kernel);
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
/// ones: the sweep still equals the oracles, which call `correlation_at`
/// at every visited offset.
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
            for kernel in KERNELS {
                assert_matches_oracle(kernel, cfg, &qs, &mdb)
                    .unwrap_or_else(|e| panic!("dedup {dedup}, δ {delta}: {e:?}"));
            }
        }
    }
}

/// A realistic corpus of more than one wave, searched for fewer hits than a
/// wave holds: the floor prunes hosts (the index is engaged, not merely
/// correct) and the hits are still those of the scan of every host. Under
/// the paper's top-100 the same corpus is too small for the floor to form
/// before the last wave; the equalities hold there too. On the same corpus
/// the raw scans keep the paper's ordering of work: the stride-1 scan
/// evaluates all 745 offsets of every set, Algorithm 1 under half of that.
#[test]
fn realistic_corpus_prunes_hosts_and_keeps_the_hits() {
    let factory = RecordingFactory::new(47);
    let mut builder = MdbBuilder::new();
    for i in 0..7 {
        builder
            .add_recording("d", &factory.normal_recording(&format!("n{i}"), 24.0))
            .expect("ingest");
        builder
            .add_recording(
                "d",
                &factory.anomaly_recording(SignalClass::Seizure, &format!("s{i}"), 24.0),
            )
            .expect("ingest");
    }
    let mdb = builder.build();
    assert!(mdb.len() > 64, "{} sets fit one wave", mdb.len());
    let qs: Vec<Query> = [
        factory.normal_recording("q-normal", 8.0),
        factory.anomaly_recording(SignalClass::Seizure, "q-seizure", 8.0),
    ]
    .iter()
    .map(|rec| {
        let filtered = emap_dsp::emap_bandpass().filter(rec.channels()[0].samples());
        Query::new(&filtered[1024..1280]).expect("window length 256")
    })
    .collect();

    let paper = SearchConfig::paper();
    let [ex, sl] = KERNELS.map(|kernel| -> u64 {
        qs.iter()
            .map(|q| oracle::linear(kernel, q, &paper, &mdb).work().correlations)
            .sum()
    });
    assert_eq!(ex, 745 * (mdb.len() * qs.len()) as u64);
    assert!(sl * 2 < ex, "sliding {sl} vs exhaustive {ex} correlations");

    let few = paper.with_top_k(10).expect("valid top_k");
    for kernel in KERNELS {
        let pruned: u64 = BatchExecutor::new(kernel, few)
            .sweep(&qs, &mdb)
            .expect("sweep")
            .iter()
            .map(|t| t.work().hosts_pruned)
            .sum();
        assert!(pruned > 0, "{kernel:?}: the bound pruned nothing");
        for cfg in [paper, few] {
            assert_matches_oracle(kernel, cfg, &qs, &mdb)
                .unwrap_or_else(|e| panic!("{kernel:?}, top_k {}: {e}", cfg.top_k()));
        }
    }
}
