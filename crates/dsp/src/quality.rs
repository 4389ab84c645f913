//! Signal-quality assessment for acquisition windows.
//!
//! A wearable's electrodes detach, rail, and saturate; feeding those
//! seconds to the cloud wastes a call and can poison the tracked set. This
//! module classifies one-second windows so the acquisition stage can gate
//! them (see `EmapConfig`'s quality gating in `emap-core`).

/// Verdict for one acquisition window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalQuality {
    /// Plausible EEG.
    Ok,
    /// Effectively constant — a detached or shorted electrode.
    Flatline,
    /// A run of samples pinned at the extremes — amplifier saturation.
    Clipped,
    /// Contains NaN or infinite values — upstream arithmetic fault.
    NonFinite,
}

impl SignalQuality {
    /// Whether the window is usable.
    #[must_use]
    pub fn is_usable(self) -> bool {
        matches!(self, SignalQuality::Ok)
    }
}

/// Thresholds for [`assess`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityConfig {
    /// Minimum peak-to-peak swing (physical units) below which the window
    /// counts as flatlined.
    pub min_peak_to_peak: f64,
    /// Rail level: samples with `|x| ≥ rail` count as clipped.
    pub rail_level: f64,
    /// Fraction of railed samples above which the window counts as clipped.
    pub max_clipped_fraction: f64,
}

impl Default for QualityConfig {
    /// Defaults for the ±500 µV calibration the EDF channels use: flatline
    /// below 1 µV peak-to-peak; clipped when ≥ 5 % of samples sit at ≥
    /// 495 µV.
    fn default() -> Self {
        QualityConfig {
            min_peak_to_peak: 1.0,
            rail_level: 495.0,
            max_clipped_fraction: 0.05,
        }
    }
}

/// Classifies one acquisition window.
///
/// # Example
///
/// ```
/// use emap_dsp::quality::{assess, QualityConfig, SignalQuality};
///
/// let cfg = QualityConfig::default();
/// let eeg: Vec<f32> = (0..256).map(|n| (n as f32 * 0.3).sin() * 30.0).collect();
/// assert_eq!(assess(&eeg, &cfg), SignalQuality::Ok);
/// assert_eq!(assess(&[0.0; 256], &cfg), SignalQuality::Flatline);
/// ```
#[must_use]
pub fn assess(window: &[f32], config: &QualityConfig) -> SignalQuality {
    if window.iter().any(|v| !v.is_finite()) {
        return SignalQuality::NonFinite;
    }
    if window.is_empty() {
        return SignalQuality::Flatline;
    }
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    let mut railed = 0usize;
    for &v in window {
        lo = lo.min(v);
        hi = hi.max(v);
        if f64::from(v.abs()) >= config.rail_level {
            railed += 1;
        }
    }
    if f64::from(hi - lo) < config.min_peak_to_peak {
        return SignalQuality::Flatline;
    }
    if railed as f64 / window.len() as f64 > config.max_clipped_fraction {
        return SignalQuality::Clipped;
    }
    SignalQuality::Ok
}

/// Fraction of usable one-second windows in a longer stream — a cheap
/// recording-level quality score.
#[must_use]
pub fn usable_fraction(signal: &[f32], config: &QualityConfig) -> f64 {
    let windows: Vec<_> = signal.chunks_exact(crate::SAMPLES_PER_SECOND).collect();
    if windows.is_empty() {
        return 0.0;
    }
    let ok = windows
        .iter()
        .filter(|w| assess(w, config).is_usable())
        .count();
    ok as f64 / windows.len() as f64
}

/// Convenience wrapper keeping a config plus running counts.
#[derive(Debug, Clone, Default)]
pub struct QualityMonitor {
    config: QualityConfig,
    seen: u64,
    rejected: u64,
}

impl QualityMonitor {
    /// Creates a monitor with the given thresholds.
    #[must_use]
    pub fn new(config: QualityConfig) -> Self {
        QualityMonitor {
            config,
            seen: 0,
            rejected: 0,
        }
    }

    /// Assesses a window and updates the running counts.
    pub fn check(&mut self, window: &[f32]) -> SignalQuality {
        self.seen += 1;
        let q = assess(window, &self.config);
        if !q.is_usable() {
            self.rejected += 1;
        }
        q
    }

    /// Windows seen so far.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Windows rejected so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eeg() -> Vec<f32> {
        (0..256).map(|n| (n as f32 * 0.3).sin() * 40.0).collect()
    }

    #[test]
    fn healthy_eeg_is_ok() {
        assert_eq!(assess(&eeg(), &QualityConfig::default()), SignalQuality::Ok);
        assert!(SignalQuality::Ok.is_usable());
    }

    #[test]
    fn flatline_detected() {
        let cfg = QualityConfig::default();
        assert_eq!(assess(&[7.0; 256], &cfg), SignalQuality::Flatline);
        assert_eq!(assess(&[], &cfg), SignalQuality::Flatline);
        // Tiny dither below the threshold still counts as flat.
        let dither: Vec<f32> = (0..256).map(|n| 0.3 * (n % 2) as f32).collect();
        assert_eq!(assess(&dither, &cfg), SignalQuality::Flatline);
    }

    #[test]
    fn clipping_detected() {
        let cfg = QualityConfig::default();
        let mut s = eeg();
        for v in s.iter_mut().take(40) {
            *v = 499.0; // 40/256 ≈ 16 % railed
        }
        assert_eq!(assess(&s, &cfg), SignalQuality::Clipped);
        // A brief touch of the rail is tolerated.
        let mut s = eeg();
        for v in s.iter_mut().take(5) {
            *v = 499.0;
        }
        assert_eq!(assess(&s, &cfg), SignalQuality::Ok);
    }

    #[test]
    fn non_finite_detected_first() {
        let cfg = QualityConfig::default();
        let mut s = vec![499.0f32; 256];
        s[0] = f32::NAN;
        assert_eq!(assess(&s, &cfg), SignalQuality::NonFinite);
    }

    #[test]
    fn usable_fraction_counts_windows() {
        let cfg = QualityConfig::default();
        let mut signal = eeg();
        signal.extend_from_slice(&[0.0; 256]); // one flat second
        signal.extend(eeg());
        let frac = usable_fraction(&signal, &cfg);
        assert!((frac - 2.0 / 3.0).abs() < 1e-12, "{frac}");
        assert_eq!(usable_fraction(&[], &cfg), 0.0);
    }

    #[test]
    fn monitor_tracks_counts() {
        let mut m = QualityMonitor::new(QualityConfig::default());
        assert_eq!(m.check(&eeg()), SignalQuality::Ok);
        assert_eq!(m.check(&[0.0; 256]), SignalQuality::Flatline);
        assert_eq!(m.seen(), 2);
        assert_eq!(m.rejected(), 1);
    }
}
