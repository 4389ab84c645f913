use crate::EdgeError;

/// Which similarity metric the tracker uses (Fig. 8 compares the two; the
/// paper deploys the area metric on the edge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeMetric {
    /// Area between curves (Eq. 3) with acceptance threshold `δ_A`
    /// (signals with no window whose area is within it are pruned).
    AreaBetweenCurves {
        /// The pruning threshold in summed absolute physical units
        /// (µV·samples). The paper derives ~900 for its corpus (Fig. 8a);
        /// the equivalent for the synthetic corpus is derived by the same
        /// experiment and set in [`EdgeConfig::default`].
        delta_a: f64,
    },
    /// Normalized cross-correlation with acceptance threshold `δ`
    /// (signals whose best window correlation falls below it are pruned).
    CrossCorrelation {
        /// The pruning threshold in `[0, 1)`.
        delta: f64,
    },
}

/// Configuration of the edge tracker.
///
/// # Example
///
/// ```
/// use emap_edge::{EdgeConfig, EdgeMetric};
///
/// # fn main() -> Result<(), emap_edge::EdgeError> {
/// let cfg = EdgeConfig::default().with_h(20)?;
/// assert_eq!(cfg.h(), 20);
/// assert!(matches!(cfg.metric(), EdgeMetric::AreaBetweenCurves { .. }));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeConfig {
    metric: EdgeMetric,
    h: usize,
}

impl EdgeConfig {
    /// The signal-tracking threshold `H`: when fewer signals remain
    /// tracked, the edge requests a fresh cloud search.
    #[must_use]
    pub fn h(&self) -> usize {
        self.h
    }

    /// The tracking metric and its threshold.
    #[must_use]
    pub fn metric(&self) -> EdgeMetric {
        self.metric
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

    /// Replaces the tracking metric.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::BadConfig`] if the threshold inside `metric` is
    /// negative, non-finite, or (for correlation) outside `[0, 1)`.
    pub fn with_metric(mut self, metric: EdgeMetric) -> Result<Self, EdgeError> {
        match metric {
            EdgeMetric::AreaBetweenCurves { delta_a } => {
                if !(delta_a.is_finite() && delta_a > 0.0) {
                    return Err(EdgeError::BadConfig {
                        parameter: "delta_a",
                        value: delta_a,
                    });
                }
            }
            EdgeMetric::CrossCorrelation { delta } => {
                if !(delta.is_finite() && (0.0..1.0).contains(&delta)) {
                    return Err(EdgeError::BadConfig {
                        parameter: "delta",
                        value: delta,
                    });
                }
            }
        }
        self.metric = metric;
        Ok(self)
    }
}

impl Default for EdgeConfig {
    /// Area-between-curves tracking with the δ_A equivalent to the `δ = 0.8`
    /// search threshold for the synthetic corpus (derived by the Fig. 8a
    /// threshold-equivalence experiment, see `EXPERIMENTS.md`), and the
    /// cloud-call threshold `H = 25` (a quarter of the top-100, which makes
    /// the re-search cadence land near the paper's "every five iterations").
    fn default() -> Self {
        EdgeConfig {
            metric: EdgeMetric::AreaBetweenCurves { delta_a: 3800.0 },
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
        assert!(matches!(c.metric(), EdgeMetric::AreaBetweenCurves { .. }));
        assert!(c.h() > 0);
    }

    #[test]
    fn h_validation() {
        assert!(EdgeConfig::default().with_h(0).is_err());
        assert_eq!(EdgeConfig::default().with_h(7).unwrap().h(), 7);
    }

    #[test]
    fn metric_validation() {
        let c = EdgeConfig::default();
        assert!(c
            .with_metric(EdgeMetric::AreaBetweenCurves { delta_a: -1.0 })
            .is_err());
        assert!(c
            .with_metric(EdgeMetric::AreaBetweenCurves { delta_a: f64::NAN })
            .is_err());
        assert!(c
            .with_metric(EdgeMetric::CrossCorrelation { delta: 1.5 })
            .is_err());
        assert!(c
            .with_metric(EdgeMetric::CrossCorrelation { delta: 0.8 })
            .is_ok());
    }
}
