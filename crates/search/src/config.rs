use crate::SearchError;

/// Tunable parameters of the cloud search.
///
/// The paper fixes `α = 0.004` (Fig. 7a saturation point), `δ = 0.8`
/// (§V-B), and `top_k = 100`; [`SearchConfig::paper`] returns exactly that.
/// The parameter sweeps of Figs. 7a/8a vary these through the builder
/// methods.
///
/// # Example
///
/// ```
/// use emap_search::SearchConfig;
///
/// # fn main() -> Result<(), emap_search::SearchError> {
/// let cfg = SearchConfig::paper();
/// assert_eq!(cfg.alpha(), 0.004);
/// assert_eq!(cfg.delta(), 0.8);
/// assert_eq!(cfg.top_k(), 100);
///
/// let sweep = SearchConfig::paper().with_alpha(0.01)?.with_delta(0.9)?;
/// assert_eq!(sweep.alpha(), 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    alpha: f64,
    delta: f64,
    top_k: usize,
    dedup_per_set: bool,
}

impl SearchConfig {
    /// The paper's configuration: `α = 0.004`, `δ = 0.8`, top-100,
    /// per-set deduplication on.
    #[must_use]
    pub fn paper() -> Self {
        SearchConfig {
            alpha: 0.004,
            delta: 0.8,
            top_k: 100,
            dedup_per_set: true,
        }
    }

    /// Step-size base `α` of the exponential skip window `β = α^(ω−1)`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Cross-correlation acceptance threshold `δ`.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Size of the correlation set `T` transmitted to the edge.
    #[must_use]
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Whether at most one (the best) offset per signal-set enters `T`.
    ///
    /// Algorithm 1 as printed appends every qualifying `[S, ω, β]`, which
    /// can fill `T` with 100 offsets of a single set; deduplication keeps
    /// `T` diverse, which is what the edge tracker needs. The ablation bench
    /// `ablation_dedup` quantifies the difference.
    #[must_use]
    pub fn dedup_per_set(&self) -> bool {
        self.dedup_per_set
    }

    /// Replaces `α`.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::BadConfig`] unless `0 < α < 1`.
    pub fn with_alpha(mut self, alpha: f64) -> Result<Self, SearchError> {
        if !(alpha.is_finite() && alpha > 0.0 && alpha < 1.0) {
            return Err(SearchError::BadConfig {
                parameter: "alpha",
                value: alpha,
            });
        }
        self.alpha = alpha;
        Ok(self)
    }

    /// Replaces `δ`.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::BadConfig`] unless `0 ≤ δ < 1`.
    pub fn with_delta(mut self, delta: f64) -> Result<Self, SearchError> {
        if !(delta.is_finite() && (0.0..1.0).contains(&delta)) {
            return Err(SearchError::BadConfig {
                parameter: "delta",
                value: delta,
            });
        }
        self.delta = delta;
        Ok(self)
    }

    /// Replaces `top_k`.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::BadConfig`] if `top_k == 0`.
    pub fn with_top_k(mut self, top_k: usize) -> Result<Self, SearchError> {
        if top_k == 0 {
            return Err(SearchError::BadConfig {
                parameter: "top_k",
                value: 0.0,
            });
        }
        self.top_k = top_k;
        Ok(self)
    }

    /// Enables or disables per-set deduplication.
    #[must_use]
    pub fn with_dedup_per_set(mut self, dedup: bool) -> Self {
        self.dedup_per_set = dedup;
        self
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let c = SearchConfig::paper();
        assert_eq!(c.alpha(), 0.004);
        assert_eq!(c.delta(), 0.8);
        assert_eq!(c.top_k(), 100);
        assert!(c.dedup_per_set());
        assert_eq!(SearchConfig::default(), c);
    }

    #[test]
    fn alpha_validation() {
        assert!(SearchConfig::paper().with_alpha(0.0).is_err());
        assert!(SearchConfig::paper().with_alpha(1.0).is_err());
        assert!(SearchConfig::paper().with_alpha(-0.5).is_err());
        assert!(SearchConfig::paper().with_alpha(f64::NAN).is_err());
        assert!(SearchConfig::paper().with_alpha(0.015).is_ok());
    }

    #[test]
    fn delta_validation() {
        assert!(SearchConfig::paper().with_delta(-0.1).is_err());
        assert!(SearchConfig::paper().with_delta(1.0).is_err());
        assert!(SearchConfig::paper().with_delta(0.0).is_ok());
        assert!(SearchConfig::paper().with_delta(0.97).is_ok());
    }

    #[test]
    fn top_k_validation() {
        assert!(SearchConfig::paper().with_top_k(0).is_err());
        assert_eq!(SearchConfig::paper().with_top_k(25).unwrap().top_k(), 25);
    }

    #[test]
    fn dedup_toggle() {
        assert!(!SearchConfig::paper()
            .with_dedup_per_set(false)
            .dedup_per_set());
    }
}
