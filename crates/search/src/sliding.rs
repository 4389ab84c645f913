use emap_mdb::Mdb;

use crate::{BatchExecutor, CorrelationSet, Query, ScanKernel, Search, SearchConfig, SearchError};

/// Computes the skip window `β = α^(ω−1)` of Algorithm 1, in samples.
///
/// `ω` is clamped to `[0, 1]` first (Algorithm 1 lines 9–11 clamp negative
/// correlations to zero before computing the step), and the step is at
/// least one sample so the scan always advances. With the paper's
/// `α = 0.004`: `ω = 1 → 1`, `ω = 0.8 → ≈3`, `ω = 0 → 250`.
///
/// # Example
///
/// ```
/// use emap_search::skip_for_omega;
///
/// assert_eq!(skip_for_omega(1.0, 0.004), 1);
/// assert_eq!(skip_for_omega(0.0, 0.004), 250);
/// assert!(skip_for_omega(0.5, 0.004) > skip_for_omega(0.9, 0.004));
/// ```
#[must_use]
pub fn skip_for_omega(omega: f64, alpha: f64) -> usize {
    let omega = omega.clamp(0.0, 1.0);
    let step = alpha.powf(omega - 1.0);
    (step.round() as usize).max(1)
}

/// Algorithm 1: the signal cross-correlation search with an exponential
/// sliding window.
///
/// Instead of the exhaustive stride-1 scan, the offset advances by
/// [`skip_for_omega`] after each evaluation: dissimilar regions are skipped
/// in ~250-sample leaps while promising regions are examined densely
/// (Fig. 6). On the paper's workload this cuts exploration time ~6.8×
/// (Fig. 7b) at negligible loss in the quality of the returned top-100
/// (Fig. 11).
///
/// Built on the [`BatchExecutor`] engine with the [`ScanKernel::Sliding`]
/// kernel: the sweep runs against the store's envelope index, so hosts
/// whose bound certifies they cannot reach the top-K are skipped whole,
/// hits unchanged. [`SlidingSearch::with_workers`] fans each wave's scans
/// across threads (the paper's parallel MDB scan); hits and work counters
/// are the same for any worker count.
///
/// # Example
///
/// ```
/// use emap_search::{Search, SearchConfig, SlidingSearch};
///
/// let s = SlidingSearch::new(SearchConfig::paper());
/// assert_eq!(s.name(), "algorithm1-sliding");
/// ```
#[derive(Debug, Clone)]
pub struct SlidingSearch {
    engine: BatchExecutor,
}

impl SlidingSearch {
    /// Creates the search with the given configuration.
    #[must_use]
    pub fn new(config: SearchConfig) -> Self {
        SlidingSearch {
            engine: BatchExecutor::new(ScanKernel::sliding(config.alpha()), config),
        }
    }

    /// Scans with up to `workers` threads (clamped to ≥ 1; see
    /// [`BatchExecutor::with_workers`]).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.engine = self.engine.with_workers(workers);
        self
    }

    /// Attaches sweep telemetry to the underlying [`BatchExecutor`]
    /// (see [`BatchExecutor::with_telemetry`]); results are unchanged.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: crate::SweepTelemetry) -> Self {
        self.engine = self.engine.with_telemetry(telemetry);
        self
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        self.engine.config()
    }
}

impl Search for SlidingSearch {
    fn name(&self) -> &'static str {
        "algorithm1-sliding"
    }

    fn search_batch(
        &self,
        queries: &[Query],
        mdb: &Mdb,
    ) -> Result<Vec<CorrelationSet>, SearchError> {
        self.engine.sweep(queries, mdb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExhaustiveSearch;
    use emap_datasets::RecordingFactory;
    use emap_datasets::{synth, PatternLibrary, SignalClass};
    use emap_mdb::{MdbBuilder, Provenance, SignalSet, SIGNAL_SET_LEN};

    #[test]
    fn skip_window_extremes() {
        assert_eq!(skip_for_omega(1.0, 0.004), 1);
        assert_eq!(skip_for_omega(0.0, 0.004), 250);
        assert_eq!(skip_for_omega(-5.0, 0.004), 250); // clamped
        assert_eq!(skip_for_omega(2.0, 0.004), 1); // clamped
    }

    #[test]
    fn skip_window_monotone_decreasing_in_omega() {
        let mut prev = usize::MAX;
        for i in 0..=20 {
            let omega = i as f64 / 20.0;
            let s = skip_for_omega(omega, 0.004);
            assert!(s <= prev, "skip not monotone at ω = {omega}");
            prev = s;
        }
    }

    #[test]
    fn skip_window_grows_with_smaller_alpha() {
        assert!(skip_for_omega(0.5, 0.001) > skip_for_omega(0.5, 0.01));
    }

    #[test]
    fn paper_value_at_threshold() {
        // δ = 0.8 → step = 0.004^(−0.2) ≈ 3.
        assert_eq!(skip_for_omega(0.8, 0.004), 3);
    }

    /// On rhythmic EEG-like content (the workload the algorithm is designed
    /// for) the sliding search finds strong matches for a window cut from a
    /// recording that is in the MDB.
    #[test]
    fn finds_match_in_realistic_mdb() {
        let factory = RecordingFactory::new(19);
        let rec = factory.anomaly_recording(SignalClass::Seizure, "s0", 24.0);
        let mut b = MdbBuilder::new();
        b.add_recording("d", &rec).unwrap();
        let mdb = b.build();

        let filtered = emap_dsp::emap_bandpass().filter(rec.channels()[0].samples());
        let query = Query::new(&filtered[2000..2256]).unwrap();
        let t = SlidingSearch::new(SearchConfig::paper())
            .search(&query, &mdb)
            .unwrap();
        assert!(!t.is_empty(), "sliding search found nothing");
        assert!(t.hits()[0].omega > 0.95, "ω = {}", t.hits()[0].omega);
    }

    /// Documented limitation: an isolated broadband transient embedded in
    /// dissimilar background can be leapt over by the exponential skip —
    /// this is the source of the rare low-correlation outliers the paper
    /// shows in Fig. 11. The exhaustive baseline always finds it.
    #[test]
    fn isolated_embedding_can_be_missed_but_exhaustive_finds_it() {
        let query: Vec<f32> = (0..256).map(|n| ((n as f32) * 0.3).sin()).collect();
        let mut host: Vec<f32> = (0..SIGNAL_SET_LEN)
            .map(|i| ((i as f32) * 0.23).sin() * 0.3)
            .collect();
        host[400..400 + 256].copy_from_slice(&query);
        let mut mdb = Mdb::new();
        mdb.insert(
            SignalSet::new(
                host,
                SignalClass::Seizure,
                Provenance {
                    dataset_id: "d".into(),
                    recording_id: "r".into(),
                    channel: "c".into(),
                    offset: 0,
                },
            )
            .unwrap(),
        );
        let q = Query::new(&query).unwrap();
        let ex = ExhaustiveSearch::new(SearchConfig::paper())
            .search(&q, &mdb)
            .unwrap();
        assert_eq!(ex.hits()[0].beta, 400);
        assert!(ex.hits()[0].omega > 0.999);
        // The sliding search does strictly less work; whether it lands on
        // the embedding depends on the skip trajectory — both outcomes are
        // legal, the invariant is the work reduction.
        let sl = SlidingSearch::new(SearchConfig::paper())
            .search(&q, &mdb)
            .unwrap();
        assert!(sl.work().correlations < ex.work().correlations);
    }

    #[test]
    fn does_less_work_than_exhaustive_on_realistic_mdb() {
        let factory = RecordingFactory::new(11);
        let mut b = MdbBuilder::new();
        for i in 0..4 {
            b.add_recording("d", &factory.normal_recording(&format!("n{i}"), 24.0))
                .unwrap();
            b.add_recording(
                "d",
                &factory.anomaly_recording(SignalClass::Seizure, &format!("s{i}"), 24.0),
            )
            .unwrap();
        }
        let mdb = b.build();

        let lib = PatternLibrary::new(SignalClass::Seizure, 11);
        let raw = synth::synthesize(
            lib.pattern(0),
            synth::SynthParams {
                rate_hz: 256.0,
                t0_s: 2.0,
                n_samples: 256,
                noise_fraction: 0.1,
                gain: 1.0,
            },
            3,
        );
        let filtered = emap_dsp::emap_bandpass().filter(&raw);
        let query = Query::new(&filtered).unwrap();

        // Both sides as served (what `fig07b_search_scaling` measures); the
        // raw stride-1 scan is held to the same claim in the proptests.
        let ex = ExhaustiveSearch::new(SearchConfig::paper())
            .search(&query, &mdb)
            .unwrap();
        let sl = SlidingSearch::new(SearchConfig::paper())
            .search(&query, &mdb)
            .unwrap();

        assert!(
            sl.work().correlations * 2 < ex.work().correlations,
            "sliding {} vs exhaustive {} correlations",
            sl.work().correlations,
            ex.work().correlations
        );
    }

    /// The quality claim of Fig. 11: Algorithm 1's top-K mean correlation is
    /// close to the exhaustive one.
    #[test]
    fn quality_close_to_exhaustive() {
        let factory = RecordingFactory::new(13);
        let mut b = MdbBuilder::new();
        for i in 0..6 {
            b.add_recording(
                "d",
                &factory.anomaly_recording(SignalClass::Seizure, &format!("s{i}"), 24.0),
            )
            .unwrap();
        }
        let mdb = b.build();

        let lib = PatternLibrary::new(SignalClass::Seizure, 13);
        let raw = synth::synthesize(
            lib.pattern(1),
            synth::SynthParams {
                rate_hz: 256.0,
                t0_s: 5.0,
                n_samples: 256,
                noise_fraction: 0.1,
                gain: 1.0,
            },
            4,
        );
        let filtered = emap_dsp::emap_bandpass().filter(&raw);
        let query = Query::new(&filtered).unwrap();

        let cfg = SearchConfig::paper().with_top_k(10).unwrap();
        let ex = ExhaustiveSearch::new(cfg).search(&query, &mdb).unwrap();
        let sl = SlidingSearch::new(cfg).search(&query, &mdb).unwrap();
        if ex.is_empty() {
            // Pattern 1 recordings may not match this query strongly; the
            // comparison is exercised end-to-end by the Fig. 11 harness.
            return;
        }
        assert!(
            ex.mean_omega() - sl.mean_omega() < 0.05,
            "exhaustive {} vs sliding {}",
            ex.mean_omega(),
            sl.mean_omega()
        );
    }

    #[test]
    fn batch_matches_per_query_search() {
        let factory = RecordingFactory::new(37);
        let mut b = MdbBuilder::new();
        for i in 0..3 {
            b.add_recording("d", &factory.normal_recording(&format!("n{i}"), 24.0))
                .unwrap();
        }
        let mdb = b.build();
        let search = SlidingSearch::new(SearchConfig::paper());
        let queries: Vec<Query> = (0..3)
            .map(|i| {
                let rec = factory.normal_recording(&format!("n{i}"), 24.0);
                let filtered = emap_dsp::emap_bandpass().filter(rec.channels()[0].samples());
                Query::new(&filtered[1024..1280]).unwrap()
            })
            .collect();
        let batch = search.search_batch(&queries, &mdb).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(b, &search.search(q, &mdb).unwrap());
        }
    }

    #[test]
    fn empty_mdb_ok() {
        let query: Vec<f32> = (0..256).map(|n| n as f32).collect();
        let t = SlidingSearch::new(SearchConfig::paper())
            .search(&Query::new(&query).unwrap(), &Mdb::new())
            .unwrap();
        assert!(t.is_empty());
    }
}
