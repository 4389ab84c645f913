//! The two signal-similarity metrics of the EMAP paper, pairwise.
//!
//! - **Cross-correlation** (Eq. 2): `ω(A, B) = Σ_{n} A_n · B_n`, the sliding
//!   dot product. The paper's quantitative claims (δ = 0.8, skip behaviour,
//!   the `[0.82, 1.0]` correlation axes of Figs. 7a/11) only line up if `ω`
//!   is computed on **min–max normalized** (`[0, 1]`-range), unit-energy
//!   windows — the form [`crate::kernel::KernelCorrelator`] evaluates, and
//!   the only one the search and the tracker use (`DESIGN.md` §3). The raw
//!   dot product ([`raw_cross_correlation`]) and the textbook zero-mean
//!   normalized cross-correlation ([`normalized_cross_correlation`], which
//!   powers the ablation comparing the two normalizations) are here as
//!   pairwise functions of two equal-length windows.
//! - **Area between curves** (Eq. 3): `A(A, B) = Σ_n |A_n − B_n|`, the cheap
//!   metric the edge tracker uses instead of re-evaluating correlations.
//!   [`area_between_curves`] is [`crate::area::abs_diff_sum`], the tracker's
//!   own arithmetic, behind a length check.

use crate::area::abs_diff_sum;
use crate::stats::normalize_energy;
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

/// Area between curves: `Σ |A_n − B_n|` (paper Eq. 3), each difference
/// taken in `f64` — [`abs_diff_sum`], bit for bit what the edge tracker
/// scores.
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
    Ok(abs_diff_sum(a, b))
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
}
