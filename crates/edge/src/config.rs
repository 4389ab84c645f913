use crate::EdgeError;

/// Configuration of the edge tracker: the area threshold `δ_A` of
/// Algorithm 2 and the cloud-call threshold `H`.
///
/// # Example
///
/// ```
/// use emap_edge::EdgeConfig;
///
/// # fn main() -> Result<(), emap_edge::EdgeError> {
/// let cfg = EdgeConfig::default().with_h(20)?.with_delta_a(900.0)?;
/// assert_eq!(cfg.h(), 20);
/// assert_eq!(cfg.delta_a(), 900.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeConfig {
    delta_a: f64,
    h: usize,
}

impl EdgeConfig {
    /// The signal-tracking threshold `H`: when fewer signals remain
    /// tracked, the edge requests a fresh cloud search.
    #[must_use]
    pub fn h(&self) -> usize {
        self.h
    }

    /// The pruning threshold `δ_A` of the area between curves (Eq. 3), in
    /// summed absolute physical units (µV·samples): a tracked signal with
    /// no window whose area is within it is pruned. The paper derives ~900
    /// for its corpus (Fig. 8a); the equivalent for the synthetic corpus is
    /// derived by the same experiment and set in [`EdgeConfig::default`].
    #[must_use]
    pub fn delta_a(&self) -> f64 {
        self.delta_a
    }

    /// Replaces the cloud-call threshold `H`.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::BadConfig`] if `h == 0` (the tracker could then
    /// never request a refresh).
    pub fn with_h(mut self, h: usize) -> Result<Self, EdgeError> {
        if h == 0 {
            return Err(EdgeError::BadConfig {
                parameter: "h",
                value: 0.0,
            });
        }
        self.h = h;
        Ok(self)
    }

    /// Replaces the area threshold `δ_A`.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::BadConfig`] unless `delta_a` is finite and
    /// positive.
    pub fn with_delta_a(mut self, delta_a: f64) -> Result<Self, EdgeError> {
        if !(delta_a.is_finite() && delta_a > 0.0) {
            return Err(EdgeError::BadConfig {
                parameter: "delta_a",
                value: delta_a,
            });
        }
        self.delta_a = delta_a;
        Ok(self)
    }
}

impl Default for EdgeConfig {
    /// The δ_A equivalent to the `δ = 0.8` search threshold for the
    /// synthetic corpus (derived by the Fig. 8a threshold-equivalence
    /// experiment, see `EXPERIMENTS.md`), and the cloud-call threshold
    /// `H = 25` (a quarter of the top-100, which makes the re-search cadence
    /// land near the paper's "every five iterations").
    fn default() -> Self {
        EdgeConfig {
            delta_a: 3800.0,
            h: 25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_area_metric() {
        let c = EdgeConfig::default();
        assert_eq!(c.delta_a(), 3800.0);
        assert!(c.h() > 0);
    }

    #[test]
    fn h_validation() {
        assert!(EdgeConfig::default().with_h(0).is_err());
        assert_eq!(EdgeConfig::default().with_h(7).unwrap().h(), 7);
    }

    #[test]
    fn delta_a_validation() {
        let c = EdgeConfig::default();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    c.with_delta_a(bad),
                    Err(EdgeError::BadConfig {
                        parameter: "delta_a",
                        ..
                    })
                ),
                "δ_A = {bad} accepted"
            );
        }
        assert_eq!(c.with_delta_a(3800.0).unwrap().delta_a(), 3800.0);
    }
}
