/// The anomaly-probability series `P_A` across tracking iterations
/// (Eq. 5, visualized in Fig. 2).
///
/// # Example
///
/// ```
/// use emap_edge::PaHistory;
///
/// let mut h = PaHistory::new();
/// for p in [0.22, 0.29, 0.38, 0.60, 0.55, 0.66] {
///     h.push(p);
/// }
/// assert_eq!(h.len(), 6);
/// assert!(h.rise() > 0.4); // 0.66 − 0.22
/// assert!(h.rising_fraction() > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PaHistory {
    values: Vec<f64>,
}

impl PaHistory {
    /// Creates an empty history.
    #[must_use]
    pub fn new() -> Self {
        PaHistory::default()
    }

    /// Appends one iteration's probability, clamped to `[0, 1]`.
    pub fn push(&mut self, pa: f64) {
        self.values.push(pa.clamp(0.0, 1.0));
    }

    /// The recorded values, oldest first.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of recorded iterations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no iterations are recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The most recent probability, or `0.0` when empty.
    #[must_use]
    pub fn last(&self) -> f64 {
        self.values.last().copied().unwrap_or(0.0)
    }

    /// Total rise: last − first (`0.0` with fewer than two points).
    #[must_use]
    pub fn rise(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        self.values[self.values.len() - 1] - self.values[0]
    }

    /// Fraction of consecutive steps that are strictly increasing
    /// (`0.0` with fewer than two points).
    #[must_use]
    pub fn rising_fraction(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let rising = self.values.windows(2).filter(|w| w[1] > w[0]).count();
        rising as f64 / (self.values.len() - 1) as f64
    }

    /// Rise over only the most recent `window` points (total rise if fewer
    /// are recorded).
    #[must_use]
    pub fn recent_rise(&self, window: usize) -> f64 {
        if self.values.len() < 2 || window < 2 {
            return 0.0;
        }
        let tail = &self.values[self.values.len().saturating_sub(window)..];
        tail[tail.len() - 1] - tail[0]
    }

    /// Returns a moving-average-smoothed copy of the series (`window ≥ 1`;
    /// each point averages the up-to-`window` most recent values ending at
    /// it). Cloud refreshes make the raw series jumpy; classifying the
    /// smoothed series trades a little latency for stability.
    #[must_use]
    pub fn smoothed(&self, window: usize) -> PaHistory {
        let window = window.max(1);
        let mut out = Vec::with_capacity(self.values.len());
        for i in 0..self.values.len() {
            let lo = (i + 1).saturating_sub(window);
            let slice = &self.values[lo..=i];
            out.push(slice.iter().sum::<f64>() / slice.len() as f64);
        }
        PaHistory { values: out }
    }

    /// Clears the history (called after a cloud refresh resets `T`).
    pub fn clear(&mut self) {
        self.values.clear();
    }
}

impl Extend<f64> for PaHistory {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for PaHistory {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut h = PaHistory::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_defaults() {
        let h = PaHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.last(), 0.0);
        assert_eq!(h.rise(), 0.0);
        assert_eq!(h.rising_fraction(), 0.0);
        assert_eq!(h.recent_rise(5), 0.0);
    }

    #[test]
    fn push_clamps() {
        let mut h = PaHistory::new();
        h.push(-0.5);
        h.push(1.5);
        assert_eq!(h.values(), &[0.0, 1.0]);
    }

    #[test]
    fn fig2_series_statistics() {
        // The exact series of Fig. 2.
        let h: PaHistory = [0.22, 0.29, 0.38, 0.60, 0.55, 0.66].into_iter().collect();
        assert!((h.rise() - 0.44).abs() < 1e-12);
        assert!((h.rising_fraction() - 0.8).abs() < 1e-12); // 4 of 5 steps up
        assert_eq!(h.last(), 0.66);
    }

    #[test]
    fn recent_rise_windows() {
        let h: PaHistory = [0.1, 0.9, 0.2, 0.3, 0.4].into_iter().collect();
        assert!((h.recent_rise(3) - 0.2).abs() < 1e-12); // 0.4 − 0.2
        assert!((h.recent_rise(100) - 0.3).abs() < 1e-12); // whole series
        assert_eq!(h.recent_rise(1), 0.0);
    }

    #[test]
    fn flat_series_has_zero_rising_fraction() {
        let h: PaHistory = [0.5, 0.5, 0.5].into_iter().collect();
        assert_eq!(h.rising_fraction(), 0.0);
        assert_eq!(h.rise(), 0.0);
    }

    #[test]
    fn smoothing_reduces_jumpiness_but_keeps_the_trend() {
        let h: PaHistory = [0.2, 0.9, 0.1, 0.8, 0.2, 0.9].into_iter().collect();
        let s = h.smoothed(3);
        assert_eq!(s.len(), h.len());
        // Smoothed series has a smaller max step.
        let max_step = |x: &PaHistory| {
            x.values()
                .windows(2)
                .map(|w| (w[1] - w[0]).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(max_step(&s) < max_step(&h));
        // A rising series still rises after smoothing.
        let rising: PaHistory = [0.1, 0.2, 0.4, 0.5, 0.7, 0.9].into_iter().collect();
        assert!(rising.smoothed(3).rise() > 0.3);
    }

    #[test]
    fn smoothing_edge_cases() {
        let empty = PaHistory::new();
        assert!(empty.smoothed(5).is_empty());
        let h: PaHistory = [0.4, 0.6].into_iter().collect();
        // window 1 is the identity; window 0 clamps to 1.
        assert_eq!(h.smoothed(1).values(), h.values());
        assert_eq!(h.smoothed(0).values(), h.values());
        // A huge window converges to the running mean.
        let s = h.smoothed(100);
        assert!((s.values()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clear_resets() {
        let mut h: PaHistory = [0.1, 0.2].into_iter().collect();
        h.clear();
        assert!(h.is_empty());
    }
}
