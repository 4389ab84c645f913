//! Property-based equivalence tests for the bound-pruned area kernel: over
//! random signals the pruned scan must return *exactly* the `(β, area)`
//! argmin of the full scan in `oracle` — same offset, bitwise-same area —
//! because pruning only ever skips offsets whose admissible lower bound
//! already exceeds the running best.

#[path = "oracle/area.rs"]
mod oracle;

use emap_dsp::area::{abs_diff_sum, BoundedAreaScan, ScanCounters, AREA_BLOCK};
use emap_dsp::kernel::HostStats;
use emap_testkit::prelude::*;
use oracle::naive_best_area;

fn signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-8.0f32..8.0, len)
}

/// Integer-valued signals: every abs-diff term and every prefix sum is
/// exact in f64, so ties between offsets are real ties, not ULP artifacts.
fn integer_signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-6i8..=6, len).prop_map(|v| v.into_iter().map(f32::from).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With no threshold, the pruned scan's `(β, area)` equals the full
    /// scan's argmin exactly — same offset, bitwise-identical area.
    #[test]
    fn pruned_scan_matches_naive_argmin(
        host in signal(64..600),
        query in signal(8..64),
        seed in 0usize..1000,
    ) {
        prop_assume!(query.len() <= host.len());
        let scan = BoundedAreaScan::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let last = host.len() - query.len();
        let lo = seed % (last + 1);
        let hi = last.min(lo + seed % 97);
        let mut counters = ScanCounters::default();
        let fast = scan.best_below(&host, &stats, lo, hi, f64::INFINITY, &mut counters).unwrap();
        let slow = naive_best_area(&query, &host, lo, hi);
        prop_assert_eq!(fast.0, slow.0, "argmin offset diverged");
        prop_assert_eq!(fast.1.to_bits(), slow.1.to_bits(), "area diverged: {} vs {}", fast.1, slow.1);
        prop_assert_eq!(counters.total(), (hi - lo + 1) as u64);
    }

    /// The tracker's shape — window 256 on hosts up to slice length and a
    /// little past — over ranges that end at the last fitting offset (the
    /// final batch's dead lanes read past the prefix table) or anywhere
    /// before it (a length that is no multiple of the batch).
    #[test]
    fn pruned_scan_matches_naive_at_tracker_window(
        host in signal(256..1100),
        query in signal(256..257),
        seed in 0usize..10_000,
        to_the_end in prop::bool::ANY,
    ) {
        let scan = BoundedAreaScan::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let last = host.len() - query.len();
        let lo = seed % (last + 1);
        let hi = if to_the_end { last } else { lo + (seed / 7) % (last - lo + 1) };
        let mut counters = ScanCounters::default();
        let fast = scan.best_below(&host, &stats, lo, hi, f64::INFINITY, &mut counters).unwrap();
        let slow = naive_best_area(&query, &host, lo, hi);
        prop_assert_eq!(fast.0, slow.0, "argmin offset diverged over {}..={}", lo, hi);
        prop_assert_eq!(fast.1.to_bits(), slow.1.to_bits(), "area diverged: {} vs {}", fast.1, slow.1);
        prop_assert_eq!(counters.scored + counters.pruned, (hi - lo + 1) as u64);
        prop_assert!(counters.blocks >= counters.scored);
        prop_assert!(counters.blocks <= counters.scored * (256 / AREA_BLOCK) as u64);
    }

    /// `best_below`'s contract under a random threshold: the bitwise naive
    /// argmin when the true minimum is within the threshold, the rejection
    /// certificate `(lo, ∞)` otherwise; every offset is accounted for
    /// either way.
    #[test]
    fn thresholded_scan_is_exact_or_a_certificate(
        host in signal(64..700),
        query in signal(8..300),
        seed in 0usize..10_000,
        threshold_frac in 0.0f64..2.0,
    ) {
        prop_assume!(query.len() <= host.len());
        let scan = BoundedAreaScan::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let last = host.len() - query.len();
        let lo = seed % (last + 1);
        let hi = lo + (seed / 3) % (last - lo + 1);
        let slow = naive_best_area(&query, &host, lo, hi);
        // Around the true minimum, and exactly on it one case in eight.
        let threshold = if seed % 8 == 0 { slow.1 } else { slow.1 * threshold_frac };
        let mut counters = ScanCounters::default();
        let fast = scan.best_below(&host, &stats, lo, hi, threshold, &mut counters).unwrap();
        if slow.1 <= threshold {
            prop_assert_eq!(fast.0, slow.0);
            prop_assert_eq!(fast.1.to_bits(), slow.1.to_bits());
        } else {
            prop_assert_eq!(fast, (lo, f64::INFINITY));
        }
        prop_assert_eq!(counters.scored + counters.pruned, (hi - lo + 1) as u64);
    }

    /// What makes the residual exit lossless, in floating point: at every
    /// block boundary the partial sum plus the residual bound on the rest
    /// never exceeds the full sum as `abs_diff_sum` computes it.
    #[test]
    fn partial_plus_residual_never_exceeds_the_full_sum(
        host in signal(64..700),
        query in signal(8..300),
        seed in 0usize..10_000,
    ) {
        prop_assume!(query.len() <= host.len());
        let scan = BoundedAreaScan::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let last = host.len() - query.len();
        for offset in [0, last, seed % (last + 1)] {
            let window = &host[offset..offset + query.len()];
            let full = abs_diff_sum(&query, window);
            let residuals = scan.residual_bounds(&host, &stats, offset);
            prop_assert_eq!(residuals.len(), query.len() / AREA_BLOCK + 1);
            prop_assert!(residuals[0] <= scan.lower_bound(&host, &stats, offset));
            for (k, residual) in residuals.iter().enumerate() {
                // The partial sum over the first `k` blocks is the full
                // sum's own lane pattern cut short, so bitwise what the
                // scan holds at that boundary.
                let end = k * AREA_BLOCK;
                let partial = abs_diff_sum(&query[..end], &window[..end]);
                prop_assert!(
                    partial + residual <= full,
                    "offset {offset}, block {k}: {partial} + {residual} > {full}"
                );
            }
        }
    }

    /// Ties are real with integer samples; both scans must keep the
    /// earliest tied offset.
    #[test]
    fn ties_keep_earliest_offset(
        pattern in integer_signal(8..24),
        repeats in 3usize..8,
        lo_frac in 0usize..1000,
    ) {
        let mut host = Vec::new();
        for _ in 0..repeats {
            host.extend_from_slice(&pattern); // periodic → exact repeated areas
        }
        let query = pattern.clone();
        let last = host.len() - query.len();
        let lo = (lo_frac * last) / 1000;
        let scan = BoundedAreaScan::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let mut counters = ScanCounters::default();
        let fast = scan.best_below(&host, &stats, lo, last, f64::INFINITY, &mut counters).unwrap();
        let slow = naive_best_area(&query, &host, lo, last);
        prop_assert_eq!(fast.0, slow.0);
        prop_assert_eq!(fast.1.to_bits(), slow.1.to_bits());
        // An exact periodic match exists at the first aligned offset ≥ lo,
        // so the minimum is exactly zero and must be found no later than
        // there (earlier if the pattern has an internal period).
        let aligned = lo.div_ceil(pattern.len()) * pattern.len();
        if aligned <= last {
            prop_assert_eq!(fast.1, 0.0);
            prop_assert!(fast.0 <= aligned);
        }
    }

    /// Empty ranges (`lo > hi`) return the sentinel from both scans.
    #[test]
    fn empty_range_is_identity(
        host in signal(300..301),
        query in signal(16..32),
        lo in 270usize..500,
    ) {
        let scan = BoundedAreaScan::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let mut counters = ScanCounters::default();
        let fast = scan.best_below(&host, &stats, lo, 0, f64::INFINITY, &mut counters).unwrap();
        let slow = naive_best_area(&query, &host, lo, 0);
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fast, (lo, f64::INFINITY));
        prop_assert_eq!(counters.total(), 0);
    }

    /// Admissibility: the O(1) lower bound never exceeds the exact area at
    /// any offset (this is what makes pruning lossless).
    #[test]
    fn lower_bound_is_admissible(
        host in signal(64..400),
        query in signal(8..64),
        seed in 0usize..10_000,
    ) {
        prop_assume!(query.len() <= host.len());
        let scan = BoundedAreaScan::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let last = host.len() - query.len();
        for offset in [0, last, seed % (last + 1), (seed * 13) % (last + 1)] {
            let bound = scan.lower_bound(&host, &stats, offset);
            let area = abs_diff_sum(&query, &host[offset..offset + query.len()]);
            prop_assert!(
                bound <= area + 1e-9,
                "offset {offset}: bound {bound} exceeds area {area}"
            );
        }
    }
}
