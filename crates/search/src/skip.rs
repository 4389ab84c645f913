//! Algorithm 1's skip law and its quantized lookup table.
//!
//! [`skip_for_omega`] calls `alpha.powf` — dozens of nanoseconds —
//! on every offset of every scanned set. The skip is an *integer*, and over
//! the whole `ω ∈ [0, 1]` range the paper's `α = 0.004` produces only ~250
//! distinct values, so almost every fine bin of a quantized table maps to a
//! single integer. The table answers those bins with one array load; the
//! rare bin whose interval straddles a rounding boundary (or comes within
//! 1e-9 of one) is left unresolved and falls back to the exact `powf` path.
//! The result is therefore **exactly** [`skip_for_omega`] for every
//! input, including out-of-range and NaN `ω`.
//!
//! Bin indexing is exact: the bin count is a power of two, so
//! `ω · 2048` is a pure exponent shift with no rounding, and bin `i` covers
//! precisely `[i/2048, (i+1)/2048)`. Within a bin, `powf`'s monotonicity
//! (up to ULP error, absorbed by the 1e-9 margin) pins every interior value
//! to the same rounded integer as the two edges.

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

/// Number of quantization bins; must be a power of two so the `ω · BINS`
/// indexing multiply is exact in binary floating point.
const BINS: usize = 2048;

/// Margin (in step units) an edge value must keep from the nearest rounding
/// boundary for its bin to be resolved by the table. Far larger than
/// `powf`'s ULP-level error, far smaller than any observable step change.
const EDGE_MARGIN: f64 = 1e-9;

/// Precomputed, exactness-preserving quantization of the skip law
/// `β = α^(ω−1)` for one fixed `α`.
///
/// Built once per executor from its configuration's `α`, consulted once
/// per offset. Every lookup returns exactly what [`skip_for_omega`] would.
#[derive(Debug, Clone)]
pub(crate) struct SkipTable {
    alpha: f64,
    /// `bins[i]` is the skip for every `ω` in bin `i`, or `0` (never a
    /// legal skip) when the bin is unresolved and must use the exact path.
    /// The final entry serves the single point `ω = 1`.
    bins: Vec<usize>,
}

impl SkipTable {
    /// Builds the table for one `α` (as validated by
    /// [`crate::SearchConfig::with_alpha`]: finite, in `(0, 1)`).
    pub(crate) fn new(alpha: f64) -> Self {
        let mut bins = vec![0usize; BINS + 1];
        for (i, slot) in bins.iter_mut().enumerate() {
            if i == BINS {
                *slot = skip_for_omega(1.0, alpha);
                continue;
            }
            let lo = i as f64 / BINS as f64;
            let hi = (i + 1) as f64 / BINS as f64;
            let step_lo = alpha.powf(lo - 1.0);
            let step_hi = alpha.powf(hi - 1.0);
            let clears_boundary = |s: f64| (s - s.round()).abs() < 0.5 - EDGE_MARGIN;
            if step_lo.round() == step_hi.round()
                && clears_boundary(step_lo)
                && clears_boundary(step_hi)
            {
                *slot = skip_for_omega(lo, alpha);
            }
        }
        SkipTable { alpha, bins }
    }

    /// The skip in samples for `omega` — exactly
    /// [`skip_for_omega`]`(omega, α)`, computed with one array load on the
    /// hot path.
    pub(crate) fn skip(&self, omega: f64) -> usize {
        if omega.is_nan() {
            // `(NaN * BINS) as usize` saturates to 0, which is the wrong
            // bin; the exact path handles NaN (clamp and round keep it NaN,
            // the cast gives 0, `.max(1)` gives 1).
            return skip_for_omega(omega, self.alpha);
        }
        match self.bins[bin(omega)] {
            0 => skip_for_omega(omega, self.alpha),
            skip => skip,
        }
    }

    /// The skip every `ω` in `[lo, hi]` takes, when the table alone settles
    /// it: both ends in resolved bins holding the same skip. No `ω` between
    /// two such bins can differ — the law is monotone and a resolved bin's
    /// edges sit [`EDGE_MARGIN`] inside their rounding interval — so the
    /// answer is [`SkipTable::skip`]'s for the whole interval. A point
    /// (`lo == hi`, or NaN) always settles, through `skip` itself.
    #[inline]
    pub(crate) fn skip_between(&self, lo: f64, hi: f64) -> Option<usize> {
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(lo < hi) {
            return Some(self.skip(lo));
        }
        let skip = self.bins[bin(lo)];
        (skip != 0 && skip == self.bins[bin(hi)]).then_some(skip)
    }
}

/// The bin holding a non-NaN `ω` (clamped to `[0, 1]`).
#[inline]
fn bin(omega: f64) -> usize {
    ((omega.clamp(0.0, 1.0) * BINS as f64) as usize).min(BINS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_law_values() {
        assert_eq!(skip_for_omega(1.0, 0.004), 1);
        // δ = 0.8 → step = 0.004^(−0.2) ≈ 3.
        assert_eq!(skip_for_omega(0.8, 0.004), 3);
        assert_eq!(skip_for_omega(0.0, 0.004), 250);
        assert_eq!(skip_for_omega(-5.0, 0.004), 250); // clamped
        assert_eq!(skip_for_omega(2.0, 0.004), 1); // clamped
        assert!(skip_for_omega(0.5, 0.001) > skip_for_omega(0.5, 0.01));
    }

    #[test]
    fn skip_between_agrees_with_skip_on_the_whole_interval() {
        let table = SkipTable::new(0.004);
        let mut settled = 0usize;
        for i in 0..=20_000u32 {
            let lo = f64::from(i) / 20_000.0;
            for width in [1e-7, 2e-6, 3e-4, 2e-3] {
                let hi = (lo + width).min(1.0);
                if let Some(skip) = table.skip_between(lo, hi) {
                    settled += 1;
                    for t in 0..=8 {
                        let omega = lo + (hi - lo) * f64::from(t) / 8.0;
                        assert_eq!(table.skip(omega), skip, "ω = {omega} in [{lo}, {hi}]");
                    }
                }
            }
            // A point always settles, unresolved bins and NaN included.
            assert_eq!(table.skip_between(lo, lo), Some(table.skip(lo)));
        }
        assert!(settled > 40_000, "only {settled} intervals settled");
        assert_eq!(table.skip_between(f64::NAN, f64::NAN), Some(1));
    }

    #[test]
    fn matches_exact_path_on_dense_grid() {
        for alpha in [0.004, 0.001, 0.01, 0.05, 0.37] {
            let table = SkipTable::new(alpha);
            for i in 0..=200_000u32 {
                // Sweep ω over [-0.5, 1.5] to cover both clamp branches.
                let omega = f64::from(i) / 100_000.0 - 0.5;
                assert_eq!(
                    table.skip(omega),
                    skip_for_omega(omega, alpha),
                    "α = {alpha}, ω = {omega}"
                );
            }
        }
    }

    #[test]
    fn matches_exact_path_at_bin_edges() {
        let alpha = 0.004;
        let table = SkipTable::new(alpha);
        for i in 0..=BINS {
            let omega = i as f64 / BINS as f64;
            assert_eq!(table.skip(omega), skip_for_omega(omega, alpha));
            // Nudge just inside the neighboring bins too.
            for nudged in [omega - 1e-12, omega + 1e-12] {
                assert_eq!(table.skip(nudged), skip_for_omega(nudged, alpha));
            }
        }
    }

    #[test]
    fn paper_values() {
        let table = SkipTable::new(0.004);
        assert_eq!(table.skip(1.0), 1);
        assert_eq!(table.skip(0.8), 3);
        assert_eq!(table.skip(0.0), 250);
        assert_eq!(table.skip(-5.0), 250);
        assert_eq!(table.skip(2.0), 1);
    }

    #[test]
    fn nan_omega_matches_exact_path() {
        let table = SkipTable::new(0.004);
        assert_eq!(table.skip(f64::NAN), skip_for_omega(f64::NAN, 0.004));
        assert_eq!(table.skip(f64::NAN), 1);
    }

    #[test]
    fn most_bins_are_resolved() {
        // The table only pays off if the fallback is rare.
        let table = SkipTable::new(0.004);
        let unresolved = table.bins.iter().filter(|&&b| b == 0).count();
        assert!(
            unresolved * 4 < table.bins.len(),
            "{unresolved} of {} bins unresolved",
            table.bins.len()
        );
    }
}
