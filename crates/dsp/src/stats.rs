//! Small numeric helpers shared across the DSP modules.
//!
//! Everything here operates on `&[f32]` sample slices and accumulates in
//! `f64` to keep long-window sums accurate.

/// Arithmetic mean of a slice; `0.0` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(emap_dsp::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// assert_eq!(emap_dsp::stats::mean(&[]), 0.0);
/// ```
#[must_use]
pub fn mean(signal: &[f32]) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    signal.iter().map(|&v| f64::from(v)).sum::<f64>() / signal.len() as f64
}

/// Population variance of a slice; `0.0` for slices shorter than 2.
#[must_use]
pub fn variance(signal: &[f32]) -> f64 {
    if signal.len() < 2 {
        return 0.0;
    }
    let m = mean(signal);
    signal
        .iter()
        .map(|&v| {
            let d = f64::from(v) - m;
            d * d
        })
        .sum::<f64>()
        / signal.len() as f64
}

/// Signal energy: `Σ x²`.
#[must_use]
pub fn energy(signal: &[f32]) -> f64 {
    signal.iter().map(|&v| f64::from(v) * f64::from(v)).sum()
}

/// Root-mean-square amplitude; `0.0` for an empty slice.
#[must_use]
pub fn rms(signal: &[f32]) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    (energy(signal) / signal.len() as f64).sqrt()
}

/// Largest absolute sample value; `0.0` for an empty slice.
#[must_use]
pub fn peak(signal: &[f32]) -> f32 {
    signal.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()))
}

/// Returns a zero-mean copy of the signal.
fn remove_mean(signal: &[f32]) -> Vec<f32> {
    let m = mean(signal) as f32;
    signal.iter().map(|&v| v - m).collect()
}

/// Returns a zero-mean, unit-energy copy of the signal (the normalization
/// used by the normalized cross-correlation in
/// [`crate::similarity::normalized_cross_correlation`]).
///
/// A constant (zero-variance) signal normalizes to all-zeros.
#[must_use]
pub fn normalize_energy(signal: &[f32]) -> Vec<f32> {
    let centered = remove_mean(signal);
    let e = energy(&centered).sqrt();
    if e <= f64::EPSILON {
        return vec![0.0; signal.len()];
    }
    centered
        .iter()
        .map(|&v| (f64::from(v) / e) as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constant() {
        assert_eq!(mean(&[4.0; 10]), 4.0);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[3.0; 16]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn variance_known_value() {
        // Population variance of [1,2,3,4] is 1.25.
        assert!((variance(&[1.0, 2.0, 3.0, 4.0]) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn energy_and_rms() {
        assert_eq!(energy(&[3.0, 4.0]), 25.0);
        assert!((rms(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(rms(&[]), 0.0);
    }

    #[test]
    fn peak_ignores_sign() {
        assert_eq!(peak(&[-5.0, 2.0, 4.5]), 5.0);
        assert_eq!(peak(&[]), 0.0);
    }

    #[test]
    fn remove_mean_centers() {
        let c = remove_mean(&[1.0, 2.0, 3.0]);
        assert!(mean(&c).abs() < 1e-7);
    }

    #[test]
    fn normalize_energy_gives_unit_energy() {
        let n = normalize_energy(&[1.0, -2.0, 3.0, 0.5]);
        assert!((energy(&n) - 1.0).abs() < 1e-6);
        assert!(mean(&n).abs() < 1e-7);
    }

    #[test]
    fn normalize_energy_of_constant_is_zero() {
        let n = normalize_energy(&[7.0; 8]);
        assert!(n.iter().all(|&v| v == 0.0));
        assert_eq!(n.len(), 8);
    }
}
