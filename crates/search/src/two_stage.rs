use emap_mdb::Mdb;

use crate::{BatchExecutor, CorrelationSet, Query, ScanKernel, Search, SearchConfig, SearchError};

/// An extension beyond the paper: a two-stage coarse-to-fine search.
///
/// Stage 1 scans every signal-set at a fixed coarse stride and records
/// offsets whose correlation clears a *prescreen* threshold (lower than
/// `δ`). Stage 2 re-scans only the neighborhoods of those offsets with the
/// exponential sliding window of Algorithm 1.
///
/// On rhythmic EEG the correlation landscape around a true match is wide
/// (the match envelope spans tens of samples), so a coarse stride rarely
/// steps over an entire envelope — stage 1 finds the neighborhoods at a
/// fraction of Algorithm 1's cost, and stage 2's dense work is confined to
/// them. The `ablation_two_stage` bench quantifies the trade-off.
///
/// Built on the [`BatchExecutor`] engine with the [`ScanKernel::TwoStage`]
/// kernel.
///
/// # Example
///
/// ```
/// use emap_search::{SearchConfig, TwoStageSearch, Search};
///
/// let s = TwoStageSearch::new(SearchConfig::paper());
/// assert_eq!(s.name(), "two-stage");
/// assert_eq!(s.coarse_stride(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct TwoStageSearch {
    engine: BatchExecutor,
    coarse_stride: usize,
    prescreen_margin: f64,
}

impl TwoStageSearch {
    /// Default coarse stride in samples.
    pub const DEFAULT_STRIDE: usize = 32;

    /// Default prescreen margin below `δ`. Negative: on corpora with a high
    /// correlation baseline the prescreen must sit *above* `δ` to be
    /// selective — a true match's envelope still clears it within one
    /// coarse stride of the peak.
    pub const DEFAULT_MARGIN: f64 = -0.05;

    /// Creates the search with default stage-1 parameters.
    #[must_use]
    pub fn new(config: SearchConfig) -> Self {
        Self::build(config, Self::DEFAULT_STRIDE, Self::DEFAULT_MARGIN)
    }

    fn build(config: SearchConfig, coarse_stride: usize, prescreen_margin: f64) -> Self {
        TwoStageSearch {
            engine: BatchExecutor::new(
                ScanKernel::two_stage(config.alpha(), coarse_stride, prescreen_margin),
                config,
            ),
            coarse_stride,
            prescreen_margin,
        }
    }

    /// Overrides the coarse stride.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::BadConfig`] if `stride == 0`.
    pub fn with_coarse_stride(self, stride: usize) -> Result<Self, SearchError> {
        if stride == 0 {
            return Err(SearchError::BadConfig {
                parameter: "coarse_stride",
                value: 0.0,
            });
        }
        Ok(Self::build(
            *self.engine.config(),
            stride,
            self.prescreen_margin,
        ))
    }

    /// Overrides the prescreen margin (stage-1 threshold is `δ − margin`;
    /// negative margins place the prescreen above `δ`).
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::BadConfig`] if the margin is non-finite or
    /// its magnitude is 0.5 or more (the prescreen would leave `[0, 1]`
    /// for every sensible `δ`).
    pub fn with_prescreen_margin(self, margin: f64) -> Result<Self, SearchError> {
        if !(margin.is_finite() && margin.abs() < 0.5) {
            return Err(SearchError::BadConfig {
                parameter: "prescreen_margin",
                value: margin,
            });
        }
        Ok(Self::build(
            *self.engine.config(),
            self.coarse_stride,
            margin,
        ))
    }

    /// The stage-1 stride.
    #[must_use]
    pub fn coarse_stride(&self) -> usize {
        self.coarse_stride
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        self.engine.config()
    }
}

impl Search for TwoStageSearch {
    fn name(&self) -> &'static str {
        "two-stage"
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
    use crate::SlidingSearch;
    use emap_datasets::{RecordingFactory, SignalClass};
    use emap_mdb::MdbBuilder;

    fn setup() -> (Mdb, Query) {
        let factory = RecordingFactory::new(23);
        let mut b = MdbBuilder::new();
        for i in 0..4 {
            b.add_recording("d", &factory.normal_recording(&format!("n{i}"), 24.0))
                .expect("ingest");
            b.add_recording(
                "d",
                &factory.anomaly_recording(SignalClass::Seizure, &format!("s{i}"), 24.0),
            )
            .expect("ingest");
        }
        let mdb = b.build();
        let rec = factory.anomaly_recording(SignalClass::Seizure, "s0", 24.0);
        let filtered = emap_dsp::emap_bandpass().filter(rec.channels()[0].samples());
        (
            mdb,
            Query::new(&filtered[2048..2304]).expect("window length 256"),
        )
    }

    #[test]
    fn parameter_validation() {
        assert!(TwoStageSearch::new(SearchConfig::paper())
            .with_coarse_stride(0)
            .is_err());
        assert!(TwoStageSearch::new(SearchConfig::paper())
            .with_prescreen_margin(0.6)
            .is_err());
        assert!(TwoStageSearch::new(SearchConfig::paper())
            .with_prescreen_margin(-0.1)
            .is_ok());
        assert!(TwoStageSearch::new(SearchConfig::paper())
            .with_prescreen_margin(f64::NAN)
            .is_err());
        let s = TwoStageSearch::new(SearchConfig::paper())
            .with_coarse_stride(32)
            .expect("valid")
            .with_prescreen_margin(0.1)
            .expect("valid");
        assert_eq!(s.coarse_stride(), 32);
    }

    #[test]
    fn finds_the_same_strong_matches_as_algorithm1() {
        let (mdb, query) = setup();
        let two = TwoStageSearch::new(SearchConfig::paper())
            .search(&query, &mdb)
            .expect("search succeeds");
        let one = SlidingSearch::new(SearchConfig::paper())
            .search(&query, &mdb)
            .expect("search succeeds");
        assert!(!two.is_empty());
        let best_two = two.hits()[0].omega;
        let best_one = one.hits()[0].omega;
        assert!(
            (best_two - best_one).abs() < 0.02,
            "best ω: two-stage {best_two} vs algorithm1 {best_one}"
        );
    }

    #[test]
    fn does_less_work_than_algorithm1() {
        let (mdb, query) = setup();
        let two = TwoStageSearch::new(SearchConfig::paper())
            .search(&query, &mdb)
            .expect("search succeeds");
        let one = SlidingSearch::new(SearchConfig::paper())
            .search(&query, &mdb)
            .expect("search succeeds");
        assert!(
            two.work().correlations < one.work().correlations,
            "two-stage {} vs algorithm1 {}",
            two.work().correlations,
            one.work().correlations
        );
    }

    #[test]
    fn batch_matches_per_query_search() {
        let (mdb, query) = setup();
        let search = TwoStageSearch::new(SearchConfig::paper());
        let queries = vec![query; 4];
        let batch = search.search_batch(&queries, &mdb).expect("batch succeeds");
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(b, &search.search(q, &mdb).expect("search succeeds"));
        }
    }

    #[test]
    fn empty_mdb_ok() {
        let (_, query) = setup();
        let t = TwoStageSearch::new(SearchConfig::paper())
            .search(&query, &Mdb::new())
            .expect("search succeeds");
        assert!(t.is_empty());
    }
}
