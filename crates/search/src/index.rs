//! The query-side half of the envelope lower-bound index.
//!
//! The mega-database precomputes per-host spectral envelopes at two
//! resolutions (`emap_dsp::spectra::HostSpectra`, prewarmed alongside the
//! prefix-statistics tables on every store construction path). This module
//! holds what a single sweep adds on top of them:
//!
//! - [`QueryIndex`] — the query's DFT magnitude profile, built once per
//!   sweep, evaluated against any host's envelopes in O(groups · bins) to
//!   produce an **admissible** upper bound on the best `ω` any window of
//!   that host can achieve;
//! - [`TopKFloor`] — the running K-th-best candidate correlation, the
//!   threshold a host's bound must clear to be worth scanning at all.
//!
//! Admissibility is the load-bearing property: a bound is never below any
//! true `ω` of the host (`emap_dsp::spectra` carries the proof sketch, and
//! DESIGN.md §12 the derivation), so skipping a host whose bound falls
//! strictly below the floor — or at/below `δ` — can never change the final
//! top-K, tie order included. The engine's sweep
//! ([`crate::BatchExecutor::sweep`]) is built on exactly that contract and
//! pins it with equivalence proptests.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use emap_dsp::spectra::QuerySpectrum;
use emap_mdb::SignalSet;

use crate::Query;

/// A query's precomputed spectral profile, ready to bound any host.
///
/// Built from the same min–max + unit-energy normalized query the
/// correlation kernel evaluates, so the bound and the kernel talk about the
/// identical `ω`.
///
/// # Example
///
/// ```
/// use emap_search::{Query, QueryIndex};
///
/// # fn main() -> Result<(), emap_search::SearchError> {
/// let second: Vec<f32> = (0..256).map(|n| (n as f32 * 0.3).sin()).collect();
/// let index = QueryIndex::new(&Query::new(&second)?);
/// assert!(!index.is_degenerate());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QueryIndex {
    spectrum: QuerySpectrum,
}

impl QueryIndex {
    /// Builds the index half for `query` (one DFT over the normalized
    /// query; microseconds, amortized over the whole sweep).
    #[must_use]
    pub fn new(query: &Query) -> Self {
        QueryIndex {
            spectrum: QuerySpectrum::new(query.kernel()),
        }
    }

    /// Whether the query has no usable energy; every bound is then `1.0`
    /// (unprunable) and the sweep degrades to a plain scan in bound-order.
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.spectrum.is_degenerate()
    }

    /// The coarse-resolution admissible bound for `set`: no window of the
    /// host scores above this. O(⌈offsets/64⌉ · bins) — sub-microsecond
    /// for a 1000-sample host.
    #[must_use]
    pub fn coarse_bound(&self, set: &SignalSet) -> f64 {
        set.spectra().coarse_bound(&self.spectrum)
    }

    /// The fine-resolution admissible bound for `set` — tighter than (never
    /// above) [`QueryIndex::coarse_bound`], at ⌈offsets/2⌉ groups per
    /// evaluation.
    #[must_use]
    pub fn fine_bound(&self, set: &SignalSet) -> f64 {
        set.spectra().fine_bound(&self.spectrum)
    }

    /// The underlying spectrum, for per-group evaluation against a host's
    /// `HostSpectra` tables.
    pub(crate) fn spectrum(&self) -> &QuerySpectrum {
        &self.spectrum
    }
}

/// Total-order wrapper so candidate correlations can live in a heap with
/// exactly the comparison the select stage sorts by (`f64::total_cmp`).
#[derive(Debug, Clone, Copy)]
struct TotalF64(f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The running top-K floor: the K-th best candidate `ω` seen so far, or
/// `None` until K candidates exist.
///
/// Every candidate the sweep pushes is a true correlation of a real offset,
/// so the floor only ever *under*-estimates the final K-th best — a host
/// whose admissible bound falls strictly below it can never displace an
/// entry of the final top-K, nor tie into it (the select stage's stable
/// sort resolves equal `ω` in favor of the earlier candidate, and the
/// pruned host's candidates would sort after the K that established the
/// floor).
#[derive(Debug, Clone)]
pub(crate) struct TopKFloor {
    k: usize,
    /// Min-heap of the K best candidate correlations.
    heap: BinaryHeap<Reverse<TotalF64>>,
}

impl TopKFloor {
    /// An empty floor for a top-`k` selection. The heap grows with the
    /// candidates that arrive: any `k` is valid, `usize::MAX` included.
    pub(crate) fn new(k: usize) -> Self {
        TopKFloor {
            k,
            heap: BinaryHeap::new(),
        }
    }

    /// Offers one candidate correlation.
    pub(crate) fn push(&mut self, omega: f64) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Reverse(TotalF64(omega)));
        } else if let Some(&Reverse(min)) = self.heap.peek() {
            if TotalF64(omega) > min {
                self.heap.pop();
                self.heap.push(Reverse(TotalF64(omega)));
            }
        }
    }

    /// The current K-th best `ω`, once K candidates have been seen.
    pub(crate) fn floor(&self) -> Option<f64> {
        if self.k > 0 && self.heap.len() == self.k {
            self.heap.peek().map(|&Reverse(TotalF64(v))| v)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_datasets::SignalClass;
    use emap_mdb::{Provenance, SIGNAL_SET_LEN};

    fn set(seed: f32) -> SignalSet {
        let samples: Vec<f32> = (0..SIGNAL_SET_LEN)
            .map(|i| ((i as f32) * 0.29 + seed).sin() * 12.0 + ((i as f32) * 0.61).cos() * 4.0)
            .collect();
        SignalSet::new(
            samples,
            SignalClass::Normal,
            Provenance {
                dataset_id: "d".into(),
                recording_id: "r".into(),
                channel: "c".into(),
                offset: 0,
            },
        )
        .unwrap()
    }

    fn query(seed: f32) -> Query {
        let s: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.29 + seed).sin()).collect();
        Query::new(&s).unwrap()
    }

    #[test]
    fn bounds_dominate_the_true_best_omega() {
        let host = set(0.4);
        let q = query(1.1);
        let index = QueryIndex::new(&q);
        let kernel = q.kernel();
        let stats = host.stats();
        let best = (0..=host.samples().len() - 256)
            .map(|beta| kernel.correlation_at(host.samples(), stats, beta).unwrap())
            .fold(0.0f64, f64::max);
        assert!(index.fine_bound(&host) >= best);
        assert!(index.coarse_bound(&host) >= index.fine_bound(&host));
    }

    #[test]
    fn floor_undefined_until_k_candidates() {
        let mut f = TopKFloor::new(3);
        f.push(0.9);
        f.push(0.8);
        assert_eq!(f.floor(), None);
        f.push(0.95);
        assert_eq!(f.floor(), Some(0.8));
    }

    #[test]
    fn floor_tracks_the_kth_best() {
        let mut f = TopKFloor::new(2);
        for omega in [0.1, 0.5, 0.3, 0.9, 0.7] {
            f.push(omega);
        }
        // Best two are 0.9 and 0.7.
        assert_eq!(f.floor(), Some(0.7));
    }

    #[test]
    fn zero_k_floor_never_defined() {
        let mut f = TopKFloor::new(0);
        f.push(0.5);
        assert_eq!(f.floor(), None);
    }

    #[test]
    fn duplicate_omegas_fill_distinct_slots() {
        let mut f = TopKFloor::new(3);
        f.push(0.8);
        f.push(0.8);
        f.push(0.8);
        assert_eq!(f.floor(), Some(0.8));
    }
}
