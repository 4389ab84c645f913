//! The unpruned reference for `BoundedAreaScan::best_below`: every offset
//! scored in full, the first strict minimum kept. The pruned scan must
//! return its `(β, area)` bit for bit; it lives here, beside the tests
//! that pin the scan to it, and nowhere in the serving path.

use emap_dsp::area::abs_diff_sum;

/// Minimum of [`abs_diff_sum`] over offsets `lo..=hi` of `host` (`hi`
/// clamped to the last offset where `input` fits), with the earliest
/// offset that reaches it; `(lo, ∞)` for an empty range.
///
/// # Panics
///
/// Panics if `input` is empty or longer than `host`.
pub fn naive_best_area(input: &[f32], host: &[f32], lo: usize, hi: usize) -> (usize, f64) {
    assert!(
        !input.is_empty() && input.len() <= host.len(),
        "the window fits"
    );
    let w = input.len();
    let mut best = (lo, f64::INFINITY);
    for beta in lo..=hi.min(host.len() - w) {
        let area = abs_diff_sum(input, &host[beta..beta + w]);
        if area < best.1 {
            best = (beta, area);
        }
    }
    best
}
