//! The two signal-similarity metrics of the EMAP paper.
//!
//! - **Cross-correlation** (Eq. 2): `ω(A, B) = Σ_{n} A_n · B_n`, the sliding
//!   dot product. The paper's quantitative claims (δ = 0.8, skip behaviour,
//!   the `[0.82, 1.0]` correlation axes of Figs. 7a/11) only line up if `ω`
//!   is computed on **min–max normalized** (`[0, 1]`-range), unit-energy
//!   windows — see [`range_normalized_correlation`] and [`RangeCorrelator`],
//!   which is what the search uses. The raw dot product
//!   ([`raw_cross_correlation`]) and the textbook zero-mean normalized
//!   cross-correlation ([`normalized_cross_correlation`],
//!   [`SlidingDotProduct`]) are provided as well (the latter powers the
//!   ablation comparing the two normalizations).
//! - **Area between curves** (Eq. 3): `A(A, B) = Σ_n |A_n − B_n|`, the cheap
//!   metric the edge tracker uses instead of re-evaluating correlations.

use crate::stats::{energy, mean, normalize_energy};
use crate::DspError;

/// Raw cross-correlation at zero lag: `Σ A_n · B_n` (paper Eq. 2).
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if the slices differ in length, or
/// [`DspError::EmptySignal`] if they are empty.
///
/// # Example
///
/// ```
/// use emap_dsp::similarity::raw_cross_correlation;
///
/// # fn main() -> Result<(), emap_dsp::DspError> {
/// let omega = raw_cross_correlation(&[1.0, 2.0], &[3.0, 4.0])?;
/// assert_eq!(omega, 11.0);
/// # Ok(())
/// # }
/// ```
pub fn raw_cross_correlation(a: &[f32], b: &[f32]) -> Result<f64, DspError> {
    check_pair(a, b)?;
    Ok(dot(a, b))
}

/// Normalized cross-correlation at zero lag, in `[-1, 1]`.
///
/// Both windows are mean-removed and scaled to unit energy before the dot
/// product, making the result amplitude- and offset-invariant — the form the
/// paper's `δ = 0.8` threshold and Figs. 7/11 imply. If either window has
/// zero variance the correlation is defined as `0.0`.
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if the slices differ in length, or
/// [`DspError::EmptySignal`] if they are empty.
pub fn normalized_cross_correlation(a: &[f32], b: &[f32]) -> Result<f64, DspError> {
    check_pair(a, b)?;
    let na = normalize_energy(a);
    let nb = normalize_energy(b);
    Ok(dot(&na, &nb).clamp(-1.0, 1.0))
}

/// Area between curves: `Σ |A_n − B_n|` (paper Eq. 3).
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if the slices differ in length, or
/// [`DspError::EmptySignal`] if they are empty.
///
/// # Example
///
/// ```
/// use emap_dsp::similarity::area_between_curves;
///
/// # fn main() -> Result<(), emap_dsp::DspError> {
/// let area = area_between_curves(&[1.0, 5.0], &[2.0, 3.0])?;
/// assert_eq!(area, 3.0);
/// # Ok(())
/// # }
/// ```
pub fn area_between_curves(a: &[f32], b: &[f32]) -> Result<f64, DspError> {
    check_pair(a, b)?;
    Ok(a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| f64::from(x - y).abs())
        .sum())
}

fn check_pair(a: &[f32], b: &[f32]) -> Result<(), DspError> {
    if a.len() != b.len() {
        return Err(DspError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(DspError::EmptySignal);
    }
    Ok(())
}

fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| f64::from(x) * f64::from(y))
        .sum()
}

/// Evaluates the normalized cross-correlation of one fixed *query* window
/// against many offsets of a longer *host* signal.
///
/// This is the inner loop of both the exhaustive search and Algorithm 1: the
/// query (the patient's one-second input) is normalized **once**, and each
/// host window is normalized on the fly using running mean/energy identities,
/// so an offset evaluation costs one dot product plus O(window) for the
/// local statistics.
///
/// # Example
///
/// A query embedded verbatim inside a host correlates perfectly at its
/// embedding offset:
///
/// ```
/// use emap_dsp::similarity::SlidingDotProduct;
///
/// # fn main() -> Result<(), emap_dsp::DspError> {
/// let query: Vec<f32> = (0..64).map(|n| (n as f32 * 0.37).sin()).collect();
/// let mut host = vec![0.25f32; 300];
/// host[100..164].copy_from_slice(&query);
///
/// let sdp = SlidingDotProduct::new(&query)?;
/// let at_match = sdp.correlation_at(&host, 100)?;
/// let elsewhere = sdp.correlation_at(&host, 0)?;
/// assert!(at_match > 0.999);
/// assert!(elsewhere < at_match);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SlidingDotProduct {
    query: Vec<f32>,
    /// Query-constant `Σq̂`, hoisted out of the per-offset loop.
    qsum: f64,
}

impl SlidingDotProduct {
    /// Normalizes and stores the query window.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptySignal`] if the query is empty.
    pub fn new(query: &[f32]) -> Result<Self, DspError> {
        if query.is_empty() {
            return Err(DspError::EmptySignal);
        }
        let query = normalize_energy(query);
        let qsum = query.iter().map(|&q| f64::from(q)).sum();
        Ok(SlidingDotProduct { query, qsum })
    }

    /// Length of the query window in samples.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.query.len()
    }

    /// The normalized (zero-mean, unit-energy) query samples.
    #[must_use]
    pub fn normalized_query(&self) -> &[f32] {
        &self.query
    }

    /// The query-constant `Σq̂` used by the correlation finisher.
    #[must_use]
    pub fn query_sum(&self) -> f64 {
        self.qsum
    }

    /// Normalized cross-correlation of the query against
    /// `host[offset .. offset + window_len]`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::WindowOutOfBounds`] if the window does not fit in
    /// `host` at `offset`.
    pub fn correlation_at(&self, host: &[f32], offset: usize) -> Result<f64, DspError> {
        let w = self.query.len();
        if offset.checked_add(w).is_none_or(|end| end > host.len()) {
            return Err(DspError::WindowOutOfBounds {
                offset,
                window: w,
                len: host.len(),
            });
        }
        let win = &host[offset..offset + w];
        let m = mean(win);
        let e = energy(win);
        // Degenerate (constant) windows short-circuit before the dot.
        if e - (w as f64) * m * m <= f64::EPSILON {
            return Ok(0.0);
        }
        // dot(query_normalized, (win - m)/||win - m||); the query is
        // zero-mean so the `m` term contributes Σq · m = 0 exactly in math,
        // but we keep it for numeric faithfulness.
        let mut acc = 0.0f64;
        for (q, &x) in self.query.iter().zip(win.iter()) {
            acc += f64::from(*q) * f64::from(x);
        }
        Ok(ncc_from_stats(w, m, e, self.qsum, acc))
    }

    /// Like [`SlidingDotProduct::correlation_at`], but sources the window
    /// mean and energy from precomputed [`crate::kernel::HostStats`] prefix
    /// sums (O(1) instead of O(window)), leaving only the dot product as
    /// per-offset work. Agrees with the naive path to within ~1e-9 (the
    /// prefix-sum accumulation order differs by ULPs).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `stats` was built for a host
    /// of a different length, or [`DspError::WindowOutOfBounds`] if the
    /// window does not fit in `host` at `offset`.
    pub fn correlation_at_cached(
        &self,
        host: &[f32],
        stats: &crate::kernel::HostStats,
        offset: usize,
    ) -> Result<f64, DspError> {
        let w = self.query.len();
        if stats.len() != host.len() {
            return Err(DspError::LengthMismatch {
                left: stats.len(),
                right: host.len(),
            });
        }
        if offset.checked_add(w).is_none_or(|end| end > host.len()) {
            return Err(DspError::WindowOutOfBounds {
                offset,
                window: w,
                len: host.len(),
            });
        }
        let win = &host[offset..offset + w];
        let m = stats.window_sum(offset, w) / w as f64;
        let e = stats.window_energy(offset, w);
        if e - (w as f64) * m * m <= f64::EPSILON {
            return Ok(0.0);
        }
        let acc = crate::kernel::dot8(&self.query, win);
        Ok(ncc_from_stats(w, m, e, self.qsum, acc))
    }
}

/// Rescales a window to the `[0, 1]` range (min–max normalization). A
/// constant window maps to all zeros.
///
/// §V-A describes the acquisition stage producing a "uniform piece-wise
/// linear curve"; min–max normalization is the reading under which every
/// quantitative claim of the paper's search lines up (see
/// [`RangeCorrelator`]).
///
/// # Example
///
/// ```
/// let n = emap_dsp::similarity::minmax_normalize(&[2.0, 6.0, 4.0]);
/// assert_eq!(n, vec![0.0, 1.0, 0.5]);
/// ```
#[must_use]
pub fn minmax_normalize(signal: &[f32]) -> Vec<f32> {
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in signal {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    if span <= 0.0 || !span.is_finite() {
        return vec![0.0; signal.len()];
    }
    signal.iter().map(|&v| (v - lo) / span).collect()
}

/// Correlation of two windows after min–max normalization to `[0, 1]` and
/// unit-energy scaling (no mean removal).
///
/// Because both normalized windows are non-negative, the result lies in
/// `[0, 1]`, with 1 for identical shapes. Two *unrelated* EEG windows
/// typically score ~0.6–0.8 (their baselines overlap), which is exactly the
/// regime the paper's numbers imply: the exponential skip `β = α^(ω−1)`
/// averages ~5–9 samples (the ~6.8× exploration-time reduction of Fig. 7b,
/// rather than the ~200× a zero-mean ω would give), `δ = 0.8` sits between
/// unrelated and matching windows, and the top-100 averages of Figs. 7a/11
/// land in `[0.96, 0.99]`.
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] or [`DspError::EmptySignal`] like
/// the other pairwise metrics.
pub fn range_normalized_correlation(a: &[f32], b: &[f32]) -> Result<f64, DspError> {
    check_pair(a, b)?;
    let na = minmax_normalize(a);
    let nb = minmax_normalize(b);
    let ea = energy(&na).sqrt();
    let eb = energy(&nb).sqrt();
    if ea <= f64::EPSILON || eb <= f64::EPSILON {
        return Ok(0.0);
    }
    Ok((dot(&na, &nb) / (ea * eb)).clamp(0.0, 1.0))
}

/// Evaluates the range-normalized correlation (the paper's `ω`) of one
/// fixed query window against many offsets of a longer host signal — the
/// inner loop of the EMAP cloud search.
///
/// The query is min–max normalized and unit-energy scaled once; each host
/// window's statistics (`min`, `max`, `Σw`, `Σw²`) are computed on the fly
/// so an offset evaluation stays O(window).
///
/// # Example
///
/// ```
/// use emap_dsp::similarity::RangeCorrelator;
///
/// # fn main() -> Result<(), emap_dsp::DspError> {
/// let query: Vec<f32> = (0..64).map(|n| (n as f32 * 0.31).sin()).collect();
/// let mut host = vec![0.0f32; 400];
/// for (i, v) in host.iter_mut().enumerate() {
///     *v = ((i as f32) * 0.17).cos();
/// }
/// host[100..164].copy_from_slice(&query);
///
/// let rc = RangeCorrelator::new(&query)?;
/// let at_match = rc.correlation_at(&host, 100)?;
/// assert!(at_match > 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RangeCorrelator {
    /// Min–max normalized, unit-energy query.
    query: Vec<f32>,
    /// Query-constant `Σq̂`, hoisted out of the per-offset loop.
    qsum: f64,
}

impl RangeCorrelator {
    /// Normalizes and stores the query window.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptySignal`] if the query is empty.
    pub fn new(query: &[f32]) -> Result<Self, DspError> {
        if query.is_empty() {
            return Err(DspError::EmptySignal);
        }
        let mm = minmax_normalize(query);
        let e = energy(&mm).sqrt();
        let query: Vec<f32> = if e <= f64::EPSILON {
            mm
        } else {
            mm.iter().map(|&v| (f64::from(v) / e) as f32).collect()
        };
        let qsum = query.iter().map(|&q| f64::from(q)).sum();
        Ok(RangeCorrelator { query, qsum })
    }

    /// Length of the query window in samples.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.query.len()
    }

    /// The normalized (`[0, 1]`-range, unit-energy) query samples.
    #[must_use]
    pub fn normalized_query(&self) -> &[f32] {
        &self.query
    }

    /// The query-constant `Σq̂` used by the correlation finisher.
    #[must_use]
    pub fn query_sum(&self) -> f64 {
        self.qsum
    }

    /// The paper's `ω` for the query against
    /// `host[offset .. offset + window_len]`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::WindowOutOfBounds`] if the window does not fit.
    pub fn correlation_at(&self, host: &[f32], offset: usize) -> Result<f64, DspError> {
        let w = self.query.len();
        if offset.checked_add(w).is_none_or(|end| end > host.len()) {
            return Err(DspError::WindowOutOfBounds {
                offset,
                window: w,
                len: host.len(),
            });
        }
        let win = &host[offset..offset + w];
        Ok(range_window_omega(&self.query, self.qsum, win))
    }
}

/// The scalar (naive) range-correlation of one window: a single pass over
/// the window gathering `min`/`max`/`Σw`/`Σw²`/`Σq̂·w`, then the shared
/// finisher. This is the reference path the O(1)-statistics kernel
/// ([`crate::kernel::KernelCorrelator`]) must agree with, and the fallback
/// it uses for small or numerically hazardous windows.
///
/// `query` and `win` must have equal lengths; `qsum` must be `Σ query`.
pub(crate) fn range_window_omega(query: &[f32], qsum: f64, win: &[f32]) -> f64 {
    let w = query.len();
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    let mut sum = 0.0f64;
    let mut sumsq = 0.0f64;
    let mut qdot = 0.0f64;
    for (&q, &x) in query.iter().zip(win) {
        lo = lo.min(x);
        hi = hi.max(x);
        let xf = f64::from(x);
        sum += xf;
        sumsq += xf * xf;
        qdot += f64::from(q) * xf;
    }
    range_omega_from_stats(w, lo, hi, sum, sumsq, qsum, qdot)
}

/// The range-correlation finisher: turns window statistics (however they
/// were obtained — scalar loop or prefix sums/RMQ) into the paper's `ω`.
/// Keeping this in one place guarantees the kernel and the naive path run
/// bit-identical final arithmetic.
pub(crate) fn range_omega_from_stats(
    w: usize,
    lo: f32,
    hi: f32,
    sum: f64,
    sumsq: f64,
    qsum: f64,
    qdot: f64,
) -> f64 {
    let span = f64::from(hi) - f64::from(lo);
    if span <= 0.0 || !span.is_finite() {
        return 0.0;
    }
    // ||(w − lo)/span||² = (Σw² − 2·lo·Σw + n·lo²)/span².
    let lo = f64::from(lo);
    let norm_sq = (sumsq - 2.0 * lo * sum + w as f64 * lo * lo) / (span * span);
    if norm_sq <= f64::EPSILON {
        return 0.0;
    }
    // dot(q̂, (w − lo)/span) = (dot(q̂, w) − lo·Σq̂)/span.
    let num = (qdot - lo * qsum) / span;
    (num / norm_sq.sqrt()).clamp(0.0, 1.0)
}

/// The zero-mean NCC finisher shared by [`SlidingDotProduct`]'s naive and
/// prefix-stat paths. `m` is the window mean, `e` its raw energy `Σw²`.
pub(crate) fn ncc_from_stats(w: usize, m: f64, e: f64, qsum: f64, qdot: f64) -> f64 {
    let centered_energy = e - (w as f64) * m * m;
    if centered_energy <= f64::EPSILON {
        return 0.0;
    }
    let inv_norm = centered_energy.sqrt().recip();
    ((qdot - qsum * m) * inv_norm).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_xcorr_is_dot_product() {
        let omega = raw_cross_correlation(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(omega, 32.0);
    }

    #[test]
    fn length_mismatch_rejected_by_all_metrics() {
        let a = [1.0f32, 2.0];
        let b = [1.0f32];
        assert!(raw_cross_correlation(&a, &b).is_err());
        assert!(normalized_cross_correlation(&a, &b).is_err());
        assert!(area_between_curves(&a, &b).is_err());
    }

    #[test]
    fn empty_signals_rejected() {
        let e: [f32; 0] = [];
        assert_eq!(raw_cross_correlation(&e, &e), Err(DspError::EmptySignal));
        assert_eq!(area_between_curves(&e, &e), Err(DspError::EmptySignal));
    }

    #[test]
    fn self_correlation_is_one() {
        let s: Vec<f32> = (0..256).map(|n| (n as f32 * 0.1).sin()).collect();
        let c = normalized_cross_correlation(&s, &s).unwrap();
        assert!((c - 1.0).abs() < 1e-6);
    }

    #[test]
    fn negated_signal_correlates_minus_one() {
        let s: Vec<f32> = (0..128).map(|n| (n as f32 * 0.2).cos()).collect();
        let neg: Vec<f32> = s.iter().map(|&v| -v).collect();
        let c = normalized_cross_correlation(&s, &neg).unwrap();
        assert!((c + 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalized_xcorr_is_amplitude_invariant() {
        let s: Vec<f32> = (0..100).map(|n| (n as f32 * 0.3).sin()).collect();
        let scaled: Vec<f32> = s.iter().map(|&v| 7.5 * v + 3.0).collect();
        let c = normalized_cross_correlation(&s, &scaled).unwrap();
        assert!((c - 1.0).abs() < 1e-5);
    }

    #[test]
    fn constant_signal_has_zero_correlation() {
        let flat = vec![2.0f32; 64];
        let s: Vec<f32> = (0..64).map(|n| (n as f32 * 0.3).sin()).collect();
        assert_eq!(normalized_cross_correlation(&flat, &s).unwrap(), 0.0);
        assert_eq!(normalized_cross_correlation(&s, &flat).unwrap(), 0.0);
    }

    #[test]
    fn orthogonal_sines_near_zero() {
        // One full period each of sin and sin(2x) over the window.
        let a: Vec<f32> = (0..256)
            .map(|n| (std::f32::consts::TAU * n as f32 / 256.0).sin())
            .collect();
        let b: Vec<f32> = (0..256)
            .map(|n| (2.0 * std::f32::consts::TAU * n as f32 / 256.0).sin())
            .collect();
        let c = normalized_cross_correlation(&a, &b).unwrap();
        assert!(c.abs() < 1e-3, "got {c}");
    }

    #[test]
    fn area_between_identical_is_zero() {
        let s = vec![1.0f32, -3.0, 5.5];
        assert_eq!(area_between_curves(&s, &s).unwrap(), 0.0);
    }

    #[test]
    fn area_is_symmetric_and_nonnegative() {
        let a = [1.0f32, 2.0, -4.0];
        let b = [0.0f32, 5.0, 2.0];
        let ab = area_between_curves(&a, &b).unwrap();
        let ba = area_between_curves(&b, &a).unwrap();
        assert_eq!(ab, ba);
        assert!(ab >= 0.0);
        assert_eq!(ab, 1.0 + 3.0 + 6.0);
    }

    #[test]
    fn area_satisfies_triangle_inequality() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [2.0f32, 0.0, 1.0];
        let c = [5.0f32, -1.0, 0.0];
        let ab = area_between_curves(&a, &b).unwrap();
        let bc = area_between_curves(&b, &c).unwrap();
        let ac = area_between_curves(&a, &c).unwrap();
        assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn sliding_finds_embedded_query() {
        let query: Vec<f32> = (0..64).map(|n| (n as f32 * 0.37).sin()).collect();
        let mut host = vec![0.1f32; 512];
        // Embed with gain + offset: normalized correlation must still be ~1.
        for (i, &q) in query.iter().enumerate() {
            host[200 + i] = 3.0 * q - 0.7;
        }
        let sdp = SlidingDotProduct::new(&query).unwrap();
        let (best_off, best_corr) = (0..=host.len() - 64)
            .map(|offset| (offset, sdp.correlation_at(&host, offset).unwrap()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(best_off, 200);
        assert!(best_corr > 0.999, "best {best_corr}");
    }

    #[test]
    fn sliding_offsets_of_a_signal_set() {
        // Fig. 5 of the paper: a 256-sample query against a 1000-sample set
        // has 745 valid offsets (0..=744).
        let sdp = SlidingDotProduct::new(&[1.0f32; 256]).unwrap();
        let host = vec![0.0f32; 1000];
        assert!(sdp.correlation_at(&host, 744).is_ok());
        assert!(sdp.correlation_at(&host, 745).is_err());
    }

    #[test]
    fn sliding_out_of_bounds_rejected() {
        let sdp = SlidingDotProduct::new(&[1.0, 2.0, 3.0]).unwrap();
        let host = [0.0f32; 5];
        assert!(sdp.correlation_at(&host, 3).is_err());
        assert!(sdp.correlation_at(&host, usize::MAX).is_err());
        assert!(sdp.correlation_at(&host, 2).is_ok());
    }

    #[test]
    fn sliding_matches_direct_normalized_xcorr() {
        let query: Vec<f32> = (0..32).map(|n| ((n * n) as f32 * 0.01).sin()).collect();
        let host: Vec<f32> = (0..200)
            .map(|n| (n as f32 * 0.13).cos() * 2.0 + 0.5)
            .collect();
        let sdp = SlidingDotProduct::new(&query).unwrap();
        for offset in [0usize, 17, 99, 168] {
            let fast = sdp.correlation_at(&host, offset).unwrap();
            let direct = normalized_cross_correlation(&query, &host[offset..offset + 32]).unwrap();
            assert!(
                (fast - direct).abs() < 1e-6,
                "offset {offset}: {fast} vs {direct}"
            );
        }
    }

    #[test]
    fn minmax_maps_to_unit_range() {
        let n = minmax_normalize(&[-10.0, 0.0, 30.0]);
        assert_eq!(n, vec![0.0, 0.25, 1.0]);
        assert_eq!(minmax_normalize(&[5.0; 4]), vec![0.0; 4]);
        assert_eq!(minmax_normalize(&[]), Vec::<f32>::new());
    }

    #[test]
    fn range_corr_of_identical_is_one() {
        let s: Vec<f32> = (0..256).map(|n| (n as f32 * 0.2).sin()).collect();
        let c = range_normalized_correlation(&s, &s).unwrap();
        assert!((c - 1.0).abs() < 1e-6);
    }

    #[test]
    fn range_corr_is_affine_invariant() {
        let s: Vec<f32> = (0..128).map(|n| (n as f32 * 0.3).sin()).collect();
        let scaled: Vec<f32> = s.iter().map(|&v| 4.0 * v - 7.0).collect();
        let c = range_normalized_correlation(&s, &scaled).unwrap();
        assert!((c - 1.0).abs() < 1e-5);
    }

    #[test]
    fn range_corr_of_unrelated_windows_is_moderate() {
        // The property the paper's skip window relies on: unrelated EEG-band
        // windows correlate moderately (baseline overlap), not near zero.
        let a: Vec<f32> = (0..256).map(|n| (n as f32 * 0.31).sin()).collect();
        let b: Vec<f32> = (0..256).map(|n| (n as f32 * 0.47 + 1.3).sin()).collect();
        let c = range_normalized_correlation(&a, &b).unwrap();
        assert!((0.4..0.95).contains(&c), "got {c}");
    }

    #[test]
    fn range_corr_constant_window_is_zero() {
        let flat = vec![3.0f32; 64];
        let s: Vec<f32> = (0..64).map(|n| (n as f32 * 0.3).sin()).collect();
        assert_eq!(range_normalized_correlation(&flat, &s).unwrap(), 0.0);
    }

    #[test]
    fn range_correlator_matches_direct_form() {
        let query: Vec<f32> = (0..32).map(|n| ((n * 3) as f32 * 0.11).sin()).collect();
        let host: Vec<f32> = (0..300)
            .map(|n| (n as f32 * 0.23).cos() * 3.0 - 1.0)
            .collect();
        let rc = RangeCorrelator::new(&query).unwrap();
        for offset in [0usize, 13, 100, 268] {
            let fast = rc.correlation_at(&host, offset).unwrap();
            let direct = range_normalized_correlation(&query, &host[offset..offset + 32]).unwrap();
            assert!(
                (fast - direct).abs() < 1e-6,
                "offset {offset}: {fast} vs {direct}"
            );
        }
    }

    #[test]
    fn range_correlator_finds_embedding() {
        let query: Vec<f32> = (0..64).map(|n| (n as f32 * 0.31).sin()).collect();
        let mut host: Vec<f32> = (0..400).map(|n| (n as f32 * 0.17).cos()).collect();
        for (i, &q) in query.iter().enumerate() {
            host[150 + i] = 2.0 * q + 5.0; // affine copy
        }
        let rc = RangeCorrelator::new(&query).unwrap();
        let (best_off, best) = (0..=host.len() - 64)
            .map(|offset| (offset, rc.correlation_at(&host, offset).unwrap()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(best_off, 150);
        assert!(best > 0.999);
    }

    #[test]
    fn range_correlator_bounds_checked() {
        let rc = RangeCorrelator::new(&[1.0, 2.0]).unwrap();
        assert!(rc.correlation_at(&[0.0; 3], 2).is_err());
        assert!(rc.correlation_at(&[0.0; 3], usize::MAX).is_err());
        assert!(RangeCorrelator::new(&[]).is_err());
    }
}
