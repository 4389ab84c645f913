use emap_mdb::Mdb;

use crate::{BatchExecutor, CorrelationSet, Query, ScanKernel, Search, SearchConfig, SearchError};

/// The exhaustive baseline: evaluates the correlation at **every** offset of
/// every signal-set (stride 1 — the 744-slices-per-set explosion of
/// Fig. 5), keeping offsets with `ω > δ`.
///
/// This is the comparison baseline for Figs. 7b and 11. Built on the
/// [`BatchExecutor`] engine with the [`ScanKernel::Exhaustive`] kernel: the
/// sweep runs against the store's envelope index, so hosts — and, for this
/// kernel, individual offset neighborhoods — that provably cannot reach the
/// top-K are skipped, returning the hits of the full stride-1 scan for a
/// fraction of its correlation work.
///
/// # Example
///
/// See [`crate::SlidingSearch`] — both implement [`Search`] identically
/// from the caller's perspective.
#[derive(Debug, Clone)]
pub struct ExhaustiveSearch {
    engine: BatchExecutor,
}

impl ExhaustiveSearch {
    /// Creates the baseline with the given thresholds (`α` is unused).
    #[must_use]
    pub fn new(config: SearchConfig) -> Self {
        ExhaustiveSearch {
            engine: BatchExecutor::new(ScanKernel::exhaustive(), config),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        self.engine.config()
    }
}

impl Search for ExhaustiveSearch {
    fn name(&self) -> &'static str {
        "exhaustive"
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
    use emap_datasets::SignalClass;
    use emap_mdb::{Provenance, SetId, SignalSet, SIGNAL_SET_LEN};

    fn prov(offset: u64) -> Provenance {
        Provenance {
            dataset_id: "d".into(),
            recording_id: "r".into(),
            channel: "c".into(),
            offset,
        }
    }

    /// An MDB with one set embedding the query at offset 300 and one set of
    /// unrelated content.
    fn tiny_mdb(query: &[f32]) -> Mdb {
        let mut host = vec![0.0f32; SIGNAL_SET_LEN];
        for (i, v) in host.iter_mut().enumerate() {
            *v = ((i as f32) * 0.21).sin() * 0.2;
        }
        host[300..300 + 256].copy_from_slice(query);
        let mut other = vec![0.0f32; SIGNAL_SET_LEN];
        for (i, v) in other.iter_mut().enumerate() {
            // Same band, different phase structure.
            *v = ((i as f32) * 0.37 + 1.0).cos();
        }
        let mut mdb = Mdb::new();
        mdb.insert(SignalSet::new(host, SignalClass::Seizure, prov(0)).unwrap());
        mdb.insert(SignalSet::new(other, SignalClass::Normal, prov(1000)).unwrap());
        mdb
    }

    fn query() -> Vec<f32> {
        (0..256).map(|n| ((n as f32) * 0.3).sin()).collect()
    }

    #[test]
    fn finds_embedded_window_at_exact_offset() {
        let q = query();
        let mdb = tiny_mdb(&q);
        let search = ExhaustiveSearch::new(SearchConfig::paper());
        let t = search.search(&Query::new(&q).unwrap(), &mdb).unwrap();
        assert!(!t.is_empty());
        let best = t.hits()[0];
        assert_eq!(best.set_id, SetId(0));
        assert_eq!(best.beta, 300);
        assert!(best.omega > 0.999);
    }

    #[test]
    fn work_is_bounded_by_all_offsets() {
        let q = query();
        let mdb = tiny_mdb(&q);
        let t = ExhaustiveSearch::new(SearchConfig::paper())
            .search(&Query::new(&q).unwrap(), &mdb)
            .unwrap();
        // At most 745 offsets per 1000-sample set × 2 sets; offset groups
        // the envelope bound rules out are not evaluated.
        let work = t.work();
        assert!(work.correlations > 0 && work.correlations <= 2 * 745);
        assert!(work.bound_evaluations >= 2);
        assert_eq!(work.sets_scanned + work.hosts_pruned, 2);
    }

    #[test]
    fn dedup_keeps_one_hit_per_set() {
        let q = query();
        let mdb = tiny_mdb(&q);
        let cfg = SearchConfig::paper().with_delta(0.0).unwrap();
        let t = ExhaustiveSearch::new(cfg)
            .search(&Query::new(&q).unwrap(), &mdb)
            .unwrap();
        // δ = 0 admits many offsets, but dedup caps hits at one per set.
        assert!(t.len() <= 2);
    }

    #[test]
    fn no_dedup_returns_many_offsets() {
        let q = query();
        let mdb = tiny_mdb(&q);
        let cfg = SearchConfig::paper()
            .with_delta(0.0)
            .unwrap()
            .with_dedup_per_set(false)
            .with_top_k(1000)
            .unwrap();
        let t = ExhaustiveSearch::new(cfg)
            .search(&Query::new(&q).unwrap(), &mdb)
            .unwrap();
        assert!(t.len() > 2);
    }

    #[test]
    fn high_threshold_yields_empty_set() {
        let q = query();
        let mdb = tiny_mdb(&q);
        let cfg = SearchConfig::paper().with_delta(0.9999).unwrap();
        let t = ExhaustiveSearch::new(cfg)
            .search(&Query::new(&q).unwrap(), &mdb)
            .unwrap();
        // Only the exact embedding (ω ≈ 1) can clear 0.9999.
        assert!(t.len() <= 1);
    }

    #[test]
    fn empty_mdb_gives_empty_result() {
        let q = query();
        let t = ExhaustiveSearch::new(SearchConfig::paper())
            .search(&Query::new(&q).unwrap(), &Mdb::new())
            .unwrap();
        assert!(t.is_empty());
        assert_eq!(t.work().sets_scanned, 0);
    }

    #[test]
    fn batch_matches_per_query_search() {
        let q = query();
        let mdb = tiny_mdb(&q);
        let search = ExhaustiveSearch::new(SearchConfig::paper());
        let queries = vec![Query::new(&q).unwrap(); 3];
        let batch = search.search_batch(&queries, &mdb).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(b, &search.search(q, &mdb).unwrap());
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(
            ExhaustiveSearch::new(SearchConfig::paper()).name(),
            "exhaustive"
        );
    }
}
