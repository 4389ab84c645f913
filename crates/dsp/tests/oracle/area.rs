//! The unpruned reference for `BoundedAreaScan::first_within`: every
//! offset scored in full, in ascending order, the first within the
//! threshold kept. The pruned scan must return its `(β, area)` bit for
//! bit; it lives here, beside the tests that pin the scan to it, and
//! nowhere in the serving path.

use emap_dsp::area::abs_diff_sum;

/// Every [`abs_diff_sum`] of `input` along `host`, in offset order.
///
/// # Panics
///
/// Panics if `input` is empty or longer than `host`.
pub fn naive_areas(input: &[f32], host: &[f32]) -> Vec<f64> {
    assert!(
        !input.is_empty() && input.len() <= host.len(),
        "the window fits"
    );
    let w = input.len();
    (0..=host.len() - w)
        .map(|beta| abs_diff_sum(input, &host[beta..beta + w]))
        .collect()
}

/// The first offset whose area is `≤ threshold`, with that area; `None`
/// when every area is above it or NaN.
pub fn naive_first_within(input: &[f32], host: &[f32], threshold: f64) -> Option<(usize, f64)> {
    naive_areas(input, host)
        .into_iter()
        .enumerate()
        .find(|&(_, area)| area <= threshold)
}
