//! Spectral window functions.
//!
//! Windows shape the truncated ideal impulse response in the windowed-sinc
//! FIR design implemented by [`crate::fir::FirFilter`]. The paper's 100-tap
//! bandpass (§III, Eq. 1) is designed with a [`Window::Hamming`] window, the
//! same default `scipy.signal.firwin` would have used in the original
//! implementation.

/// The supported window shapes.
///
/// # Example
///
/// ```
/// use emap_dsp::window::Window;
///
/// let w = Window::Hamming.coefficients(5);
/// assert_eq!(w.len(), 5);
/// // Hamming is symmetric and peaks in the middle.
/// assert!((w[0] - w[4]).abs() < 1e-12);
/// assert!(w[2] > w[0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Window {
    /// No shaping; equivalent to plain truncation of the ideal response.
    Rectangular,
    /// Hamming window (`0.54 - 0.46 cos`), ~53 dB stop-band attenuation.
    /// Default, matching `scipy.signal.firwin`.
    #[default]
    Hamming,
    /// Hann window (`0.5 - 0.5 cos`), ~44 dB stop-band attenuation.
    Hann,
    /// Blackman window, ~74 dB stop-band attenuation at the cost of a wider
    /// transition band.
    Blackman,
    /// Bartlett (triangular) window.
    Bartlett,
    /// Kaiser window with shape parameter β ≈ 8.6 (~90 dB design point);
    /// the adjustable-attenuation family `scipy.signal.kaiserord` designs
    /// against.
    Kaiser,
}

impl Window {
    /// Evaluates the window at position `n` of an `len`-point window.
    ///
    /// Uses the *symmetric* convention (`denominator = len - 1`), matching
    /// `scipy.signal.get_window(..., fftbins=False)` which is what FIR design
    /// requires. For `len == 1` every window is the single coefficient `1.0`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= len` (debug assertion) — callers iterate `0..len`.
    #[must_use]
    pub fn value(self, n: usize, len: usize) -> f64 {
        debug_assert!(n < len, "window index {n} out of range for length {len}");
        if len <= 1 {
            return 1.0;
        }
        let x = n as f64 / (len - 1) as f64; // in [0, 1]
        let tau = std::f64::consts::TAU;
        match self {
            Window::Rectangular => 1.0,
            Window::Hamming => 0.54 - 0.46 * (tau * x).cos(),
            Window::Hann => 0.5 - 0.5 * (tau * x).cos(),
            Window::Blackman => 0.42 - 0.5 * (tau * x).cos() + 0.08 * (2.0 * tau * x).cos(),
            Window::Bartlett => 1.0 - (2.0 * x - 1.0).abs(),
            Window::Kaiser => {
                const BETA: f64 = 8.6;
                let t = 2.0 * x - 1.0; // in [-1, 1]
                bessel_i0(BETA * (1.0 - t * t).max(0.0).sqrt()) / bessel_i0(BETA)
            }
        }
    }

    /// Returns the full coefficient vector of an `len`-point window.
    ///
    /// # Example
    ///
    /// ```
    /// use emap_dsp::window::Window;
    ///
    /// let rect = Window::Rectangular.coefficients(8);
    /// assert!(rect.iter().all(|&c| c == 1.0));
    /// ```
    #[must_use]
    pub fn coefficients(self, len: usize) -> Vec<f64> {
        (0..len).map(|n| self.value(n, len)).collect()
    }
}

/// Modified Bessel function of the first kind, order zero (power series —
/// converges quickly for the argument range windows use).
fn bessel_i0(x: f64) -> f64 {
    let mut sum = 1.0f64;
    let mut term = 1.0f64;
    let half_x2 = (x / 2.0) * (x / 2.0);
    for k in 1..64 {
        term *= half_x2 / ((k * k) as f64);
        sum += term;
        if term < sum * 1e-16 {
            break;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Window; 6] = [
        Window::Rectangular,
        Window::Hamming,
        Window::Hann,
        Window::Blackman,
        Window::Bartlett,
        Window::Kaiser,
    ];

    #[test]
    fn single_point_window_is_unity() {
        for w in ALL {
            assert_eq!(w.coefficients(1), vec![1.0]);
        }
    }

    #[test]
    fn windows_are_symmetric() {
        for w in ALL {
            for len in [2usize, 5, 16, 99, 100] {
                let c = w.coefficients(len);
                for i in 0..len {
                    assert!(
                        (c[i] - c[len - 1 - i]).abs() < 1e-12,
                        "{w:?} asymmetric at {i}/{len}"
                    );
                }
            }
        }
    }

    #[test]
    fn windows_are_bounded_by_one() {
        for w in ALL {
            for &c in &w.coefficients(64) {
                assert!(
                    (-1e-12..=1.0 + 1e-12).contains(&c),
                    "{w:?} out of range: {c}"
                );
            }
        }
    }

    #[test]
    fn hamming_endpoints_are_0_08() {
        let c = Window::Hamming.coefficients(100);
        assert!((c[0] - 0.08).abs() < 1e-12);
        assert!((c[99] - 0.08).abs() < 1e-12);
    }

    #[test]
    fn hann_endpoints_are_zero() {
        let c = Window::Hann.coefficients(64);
        assert!(c[0].abs() < 1e-12);
        assert!(c[63].abs() < 1e-12);
    }

    #[test]
    fn kaiser_design_beats_hamming_attenuation() {
        use crate::fir::FirFilter;
        use crate::SampleRate;
        let fs = SampleRate::EEG_BASE;
        let hamming = FirFilter::lowpass_with_window(129, 30.0, fs, Window::Hamming).unwrap();
        let kaiser = FirFilter::lowpass_with_window(129, 30.0, fs, Window::Kaiser).unwrap();
        // Deep in the stop band the Kaiser design is markedly quieter.
        let h = hamming.magnitude_at(70.0, fs);
        let k = kaiser.magnitude_at(70.0, fs);
        assert!(k < h / 3.0, "kaiser {k} vs hamming {h}");
    }

    #[test]
    fn odd_length_windows_peak_at_center() {
        for w in [
            Window::Hamming,
            Window::Hann,
            Window::Blackman,
            Window::Bartlett,
            Window::Kaiser,
        ] {
            let c = w.coefficients(65);
            let peak = c[32];
            assert!((peak - 1.0).abs() < 1e-12, "{w:?} center {peak}");
        }
    }

    #[test]
    fn default_is_hamming() {
        assert_eq!(Window::default(), Window::Hamming);
    }
}
