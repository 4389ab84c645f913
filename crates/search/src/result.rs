use emap_mdb::SetId;

/// One entry `W = [S, ω, β]` of the correlation set: which signal-set, how
/// strongly it correlates, and at which offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matched signal-set.
    pub set_id: SetId,
    /// Normalized cross-correlation at the matched offset.
    pub omega: f64,
    /// Offset of the match within the signal-set, in samples.
    pub beta: usize,
}

/// Work counters of one search run, used by the device timing model to
/// reproduce the exploration-time curves of Figs. 7–8 without depending on
/// the host machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchWork {
    /// Number of 256-sample correlation evaluations performed.
    pub correlations: u64,
    /// Number of signal-sets visited.
    pub sets_scanned: u64,
    /// Number of offsets that cleared the threshold `δ` (the paper's
    /// "number of matches").
    pub matches: u64,
    /// Number of signal-sets skipped entirely because their envelope bound
    /// certified they cannot contribute to the top-K (the sweep's host-level
    /// prune); `sets_scanned + hosts_pruned` equals the store's host count.
    pub hosts_pruned: u64,
    /// Number of envelope bound evaluations charged by the sweep —
    /// one per host-level coarse bound and one per host-level fine pass
    /// (a fine pass covers all of a host's fine groups).
    pub bound_evaluations: u64,
}

impl SearchWork {
    /// Merges counters from a parallel worker.
    pub fn merge(&mut self, other: SearchWork) {
        self.correlations += other.correlations;
        self.sets_scanned += other.sets_scanned;
        self.matches += other.matches;
        self.hosts_pruned += other.hosts_pruned;
        self.bound_evaluations += other.bound_evaluations;
    }
}

/// The result `T` of a cloud search: up to `top_k` hits sorted by
/// descending correlation, plus the work counters.
///
/// # Example
///
/// ```
/// use emap_mdb::SetId;
/// use emap_search::{CorrelationSet, SearchHit, SearchWork};
///
/// let t = CorrelationSet::from_candidates(
///     vec![
///         SearchHit { set_id: SetId(0), omega: 0.85, beta: 10 },
///         SearchHit { set_id: SetId(1), omega: 0.99, beta: 0 },
///     ],
///     1,
///     SearchWork::default(),
/// );
/// assert_eq!(t.hits().len(), 1);
/// assert_eq!(t.hits()[0].set_id, SetId(1)); // best kept
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationSet {
    hits: Vec<SearchHit>,
    work: SearchWork,
}

impl CorrelationSet {
    /// Sorts candidates by descending `ω` and keeps the best `top_k`.
    ///
    /// (Algorithm 1 line 15 says *ascending* sort followed by taking
    /// entries 0–99; taking the **top** 100 requires descending order — we
    /// treat the printed direction as a typo, as `DESIGN.md` §3 notes.)
    #[must_use]
    pub fn from_candidates(mut candidates: Vec<SearchHit>, top_k: usize, work: SearchWork) -> Self {
        candidates.sort_by(|a, b| b.omega.total_cmp(&a.omega));
        candidates.truncate(top_k);
        CorrelationSet {
            hits: candidates,
            work,
        }
    }

    /// The hits, best first.
    #[must_use]
    pub fn hits(&self) -> &[SearchHit] {
        &self.hits
    }

    /// Consumes the set, returning the hits.
    #[must_use]
    pub fn into_hits(self) -> Vec<SearchHit> {
        self.hits
    }

    /// The work counters.
    #[must_use]
    pub fn work(&self) -> SearchWork {
        self.work
    }

    /// Number of hits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether no candidate cleared the threshold.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// Mean `ω` over the hits (the quantity plotted in Figs. 7a and 11);
    /// `0.0` when empty.
    #[must_use]
    pub fn mean_omega(&self) -> f64 {
        if self.hits.is_empty() {
            return 0.0;
        }
        self.hits.iter().map(|h| h.omega).sum::<f64>() / self.hits.len() as f64
    }

    /// Smallest `ω` among the hits (Fig. 11 plots occasional low-ω
    /// outliers); `0.0` when empty.
    #[must_use]
    pub fn min_omega(&self) -> f64 {
        self.hits
            .iter()
            .map(|h| h.omega)
            .fold(f64::NAN, f64::min)
            .min(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: u64, omega: f64) -> SearchHit {
        SearchHit {
            set_id: SetId(id),
            omega,
            beta: 0,
        }
    }

    #[test]
    fn sorted_descending_and_truncated() {
        let t = CorrelationSet::from_candidates(
            vec![hit(0, 0.81), hit(1, 0.99), hit(2, 0.90), hit(3, 0.85)],
            3,
            SearchWork::default(),
        );
        let omegas: Vec<f64> = t.hits().iter().map(|h| h.omega).collect();
        assert_eq!(omegas, vec![0.99, 0.90, 0.85]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn empty_candidates_give_empty_set() {
        let t = CorrelationSet::from_candidates(Vec::new(), 100, SearchWork::default());
        assert!(t.is_empty());
        assert_eq!(t.mean_omega(), 0.0);
    }

    #[test]
    fn mean_and_min_omega() {
        let t = CorrelationSet::from_candidates(
            vec![hit(0, 0.8), hit(1, 1.0)],
            10,
            SearchWork::default(),
        );
        assert!((t.mean_omega() - 0.9).abs() < 1e-12);
        assert!((t.min_omega() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn min_omega_of_empty_is_zero_like() {
        let t = CorrelationSet::from_candidates(Vec::new(), 10, SearchWork::default());
        assert!(t.min_omega().is_infinite() || t.min_omega() == 0.0);
    }

    #[test]
    fn work_merge_adds() {
        let mut a = SearchWork {
            correlations: 10,
            sets_scanned: 2,
            matches: 1,
            hosts_pruned: 3,
            bound_evaluations: 7,
        };
        a.merge(SearchWork {
            correlations: 5,
            sets_scanned: 1,
            matches: 4,
            hosts_pruned: 2,
            bound_evaluations: 4,
        });
        assert_eq!(a.correlations, 15);
        assert_eq!(a.sets_scanned, 3);
        assert_eq!(a.matches, 5);
        assert_eq!(a.hosts_pruned, 5);
        assert_eq!(a.bound_evaluations, 11);
    }

    #[test]
    fn into_hits_returns_sorted() {
        let t = CorrelationSet::from_candidates(
            vec![hit(0, 0.5), hit(1, 0.7)],
            10,
            SearchWork::default(),
        );
        let hits = t.into_hits();
        assert_eq!(hits[0].omega, 0.7);
    }
}
