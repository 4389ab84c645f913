//! Property-based equivalence tests for the bound-pruned area kernel: over
//! random signals the pruned first-fit scan must return *exactly* the
//! `(β, area)` of the full scan in `oracle` — same offset, bitwise-same
//! area — or `None` exactly when it does, because pruning only ever skips
//! offsets whose admissible lower bound already exceeds the threshold.

#[path = "oracle/area.rs"]
mod oracle;

use emap_dsp::area::{abs_diff_sum, BoundedAreaScan, ScanCounters, AREA_BLOCK};
use emap_dsp::rng::SeededRng;
use emap_testkit::prelude::*;
use oracle::{naive_areas, naive_first_within};

fn signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-8.0f32..8.0, len)
}

/// Integer-valued signals: every abs-diff term and every prefix sum is
/// exact in f64, so ties between offsets are real ties, not ULP artifacts.
fn integer_signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-6i8..=6, len).prop_map(|v| v.into_iter().map(f32::from).collect())
}

/// A threshold below, on or above the least area of `areas`, by `pick`:
/// one case in three each, so the scan certifies `None`, stops at the
/// first minimum, or stops wherever an earlier area fits.
fn threshold_around(areas: &[f64], pick: usize, frac: f64) -> f64 {
    let least = areas.iter().copied().fold(f64::INFINITY, f64::min);
    match pick % 3 {
        0 => least * (1.0 - frac) - 1e-9,
        1 => least,
        _ => least * (1.0 + 2.0 * frac),
    }
}

/// `first_within` against the oracle: bitwise the same answer, and one
/// offset counted per offset visited.
fn assert_first_fit(query: &[f32], host: &[f32], threshold: f64) -> Result<(), TestCaseError> {
    let scan = BoundedAreaScan::new(query).unwrap();
    let mut counters = ScanCounters::default();
    let fast = scan.first_within(host, threshold, &mut counters).unwrap();
    let slow = naive_first_within(query, host, threshold);
    let bits = |found: Option<(usize, f64)>| found.map(|(beta, area)| (beta, area.to_bits()));
    prop_assert_eq!(
        bits(fast),
        bits(slow),
        "threshold {}: {:?} vs {:?}",
        threshold,
        fast,
        slow
    );
    let visited = slow.map_or(host.len() - query.len() + 1, |(beta, _)| beta + 1);
    prop_assert_eq!(counters.total(), visited as u64);
    // Every scored window reads a grid block, or — one holding a sample
    // off the grid's range — goes to `f64` without one.
    prop_assert!(counters.blocks + counters.resolved >= counters.scored);
    prop_assert!(counters.resolved <= counters.scored);
    prop_assert!(counters.blocks <= counters.scored * query.len().div_ceil(AREA_BLOCK) as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Below, on and above each host's least area, the pruned scan's
    /// answer equals the full scan's exactly.
    #[test]
    fn first_fit_matches_naive(
        host in signal(64..600),
        query in signal(8..64),
        pick in 0usize..3,
        frac in 0.0f64..0.5,
    ) {
        prop_assume!(query.len() <= host.len());
        let threshold = threshold_around(&naive_areas(&query, &host), pick, frac);
        assert_first_fit(&query, &host, threshold)?;
    }

    /// The tracker's shape — window 256 on hosts up to slice length and a
    /// little past, the last batch's dead lanes reading the padding past
    /// the last prefix when no window qualifies.
    #[test]
    fn first_fit_matches_naive_at_tracker_window(
        host in signal(256..1100),
        query in signal(256..257),
        pick in 0usize..3,
        frac in 0.0f64..0.5,
    ) {
        let threshold = threshold_around(&naive_areas(&query, &host), pick, frac);
        assert_first_fit(&query, &host, threshold)?;
    }

    /// The oracle scores with `abs_diff_sum` itself; this pins that sum to
    /// arithmetic of its own. On integer-valued signals every term and
    /// partial sum is exact, so the lanes and their reduction equal one
    /// sample at a time summed serially, bit for bit — a dropped or
    /// repeated sample shows.
    #[test]
    fn abs_diff_sum_is_the_serial_sum_on_integers(
        x in integer_signal(1..1100),
        y in integer_signal(1..1100),
    ) {
        let serial = x
            .iter()
            .zip(&y)
            .fold(0.0f64, |sum, (&a, &b)| sum + (f64::from(a) - f64::from(b)).abs());
        prop_assert_eq!(abs_diff_sum(&x, &y).to_bits(), serial.to_bits());
    }

    /// Under any threshold, from none of the areas to all of them, and on
    /// a query cut from the host: exact or a certificate.
    #[test]
    fn thresholded_scan_is_exact_or_a_certificate(
        host in signal(64..700),
        query_len in 8usize..300,
        seed in 0usize..10_000,
        threshold_frac in 0.0f64..2.0,
    ) {
        prop_assume!(query_len <= host.len());
        let at = seed % (host.len() - query_len + 1);
        let mut query = host[at..at + query_len].to_vec();
        if seed % 2 == 0 {
            query.iter_mut().for_each(|x| *x += 0.5);
        }
        let mut sorted = naive_areas(&query, &host);
        sorted.sort_by(f64::total_cmp);
        // Exactly on one of the areas one case in four.
        let threshold = if seed % 4 == 0 {
            sorted[seed / 4 % sorted.len()]
        } else {
            sorted[sorted.len() / 2] * threshold_frac
        };
        assert_first_fit(&query, &host, threshold)?;
    }

    /// What the certified residuals promise, in floating point: at every
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
        let last = host.len() - query.len();
        for offset in [0, last, seed % (last + 1)] {
            let window = &host[offset..offset + query.len()];
            let full = abs_diff_sum(&query, window);
            let residuals = scan.residual_bounds(&host, offset);
            prop_assert_eq!(residuals.len(), query.len() / AREA_BLOCK + 1);
            prop_assert!(residuals[0] <= scan.lower_bound(&host, offset));
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
        phase in 0usize..24,
    ) {
        let mut host = Vec::new();
        for _ in 0..repeats {
            host.extend_from_slice(&pattern); // periodic → exact repeated areas
        }
        let at = phase % pattern.len();
        let query = host[at..at + pattern.len()].to_vec();
        assert_first_fit(&query, &host, 0.0)?;
        // The exact match at `at` recurs every period, so the area 0 is
        // found no later than there (earlier if the pattern has an
        // internal period).
        let (beta, area) = naive_first_within(&query, &host, 0.0).expect("an exact match exists");
        prop_assert_eq!(area, 0.0);
        prop_assert!(beta <= at);
    }

    /// A host one window long has one offset, and its answer is that
    /// window's area or nothing.
    #[test]
    fn a_window_as_long_as_the_host_has_one_offset(
        host in signal(8..300),
        threshold_frac in 0.0f64..2.0,
    ) {
        let query: Vec<f32> = host.iter().rev().copied().collect();
        let area = abs_diff_sum(&query, &host);
        assert_first_fit(&query, &host, area * threshold_frac)?;
        assert_first_fit(&query, &host, area)?;
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
        let last = host.len() - query.len();
        for offset in [0, last, seed % (last + 1), (seed * 13) % (last + 1)] {
            let bound = scan.lower_bound(&host, offset);
            let area = abs_diff_sum(&query, &host[offset..offset + query.len()]);
            prop_assert!(
                bound <= area + 1e-9,
                "offset {offset}: bound {bound} exceeds area {area}"
            );
        }
    }
}

/// The largest magnitude, in µV, the scan's grid holds for windows of up
/// to 256 samples: `2^22 − 1` steps of 1/16 µV. A sample here is on the
/// grid; one a step further is off its range, as a NaN is.
const GRID_LIMIT: f32 = ((1 << 22) - 1) as f32 / 16.0;

/// Half a step per sample for each of the two sides, in µV: the widest
/// bracket the grid puts around a window's area.
fn widest_bracket(w: usize) -> f64 {
    w as f64 / 16.0
}

/// A sample for the bracket cases: uniform in ±60 µV, or a near-match
/// perturbation of ±1 µV, on the 1/16 µV grid when `on_grid` is set.
fn grid_sample(rng: &mut SeededRng, scale: f64, on_grid: bool) -> f32 {
    let x = rng.range_f64(-scale..scale) as f32;
    if on_grid {
        (x * 16.0).round() / 16.0
    } else {
        x
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The grid's rejections are exact: whatever it rejects, the naive
    /// scan's `abs_diff_sum` rejects too, so `(β, area bits, offsets
    /// visited)` are the naive scan's — on inputs and slices on the grid
    /// and off it, at thresholds inside the bracket of some window's area
    /// (where dropping the bracket turns a fitting window into a reject),
    /// at 0 and at the scale of `δ_A`, with samples at the grid's range
    /// limit and a step past it, and with NaN and `±∞` both where the scan
    /// fills and past its reach.
    #[test]
    fn integer_bracket_decides_as_the_naive_scan(
        seed in any::<u64>(),
        w in prop::sample::select(vec![256usize, 256, 100, 33]),
        on_grid in (any::<bool>(), any::<bool>()),
        hostile in 0usize..5,
        t in -1.0f64..1.0,
        shrink in 0i32..3,
        pick in 0usize..6,
    ) {
        let mut rng = SeededRng::seed_from_u64(seed);
        let n = w + rng.index(900);
        let mut host: Vec<f32> = (0..n).map(|_| grid_sample(&mut rng, 60.0, on_grid.0)).collect();
        let at = rng.index(n - w + 1);
        let mut query: Vec<f32> = if rng.bool(0.5) {
            // A near match at `at`: the first fit sits near there.
            host[at..at + w]
                .iter()
                .map(|&x| x + grid_sample(&mut rng, 1.0, on_grid.1))
                .collect()
        } else {
            (0..w).map(|_| grid_sample(&mut rng, 60.0, on_grid.1)).collect()
        };
        let step = 1.0 / 16.0;
        let limits = [GRID_LIMIT, -GRID_LIMIT, GRID_LIMIT + step, -GRID_LIMIT - step];
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        // Past the fill's reach from a fit at `at`: the batch holding it,
        // one growth step of 64 and a batch more.
        let past = at + w + 88;
        match hostile {
            1 => {
                for _ in 0..1 + rng.index(4) {
                    host[rng.index(n)] = limits[rng.index(4)];
                }
                query[rng.index(w)] = limits[rng.index(2)];
            }
            2 => {
                for _ in 0..1 + rng.index(4) {
                    host[rng.index(n)] = specials[rng.index(3)];
                }
            }
            3 if past < n => {
                for _ in 0..1 + rng.index(4) {
                    host[past + rng.index(n - past)] = specials[rng.index(3)];
                }
            }
            4 => query[rng.index(w)] = [limits[2], specials[rng.index(3)]][rng.index(2)],
            _ => {}
        }
        let areas = naive_areas(&query, &host);
        let least = (0..areas.len()).min_by(|&a, &b| areas[a].total_cmp(&areas[b])).unwrap();
        let bracket = widest_bracket(w) * t / 16f64.powi(shrink);
        let threshold = match pick {
            0 if t > 0.5 => f64::INFINITY,
            0 => 0.0,
            1 => 3800.0 * (1.0 + t),
            2 => areas[rng.index(areas.len())],
            3 => areas[least] + bracket,
            4 => areas[rng.index(areas.len())] + bracket,
            _ => areas[at] + bracket,
        };
        assert_first_fit(&query, &host, threshold)?;
    }
}
