//! Edge-device energy model.
//!
//! §I motivates the hybrid split with resource-constrained edge devices;
//! this module quantifies it. Three deployment strategies are compared:
//!
//! - **Hybrid (EMAP)** — edge tracking every second, one-second uploads and
//!   top-100 downloads only at the cloud-call cadence.
//! - **Cloud streaming** — every sample is transmitted; no edge compute.
//! - **Edge only** — the full MDB search runs locally every few seconds.
//!
//! The constants model a Raspberry-Pi-class wearable with an LTE radio;
//! they set the *scale*, while the strategy comparison is driven by the
//! measured operation counts.

use std::time::Duration;

use crate::{CommTech, Device, TrackingMetric, BITS_PER_SAMPLE};

/// Energy accounting for one monitoring strategy, in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBudget {
    /// Edge compute energy.
    pub compute_mj: f64,
    /// Radio transmit energy.
    pub tx_mj: f64,
    /// Radio receive energy.
    pub rx_mj: f64,
}

impl EnergyBudget {
    /// Total energy.
    #[must_use]
    pub fn total_mj(&self) -> f64 {
        self.compute_mj + self.tx_mj + self.rx_mj
    }

    /// Battery life in hours for a battery of `capacity_mwh` milliwatt
    /// hours, if this budget covers `window` of monitoring.
    ///
    /// Returns `f64::INFINITY` for a zero budget.
    #[must_use]
    pub fn battery_life_hours(&self, capacity_mwh: f64, window: Duration) -> f64 {
        let mj = self.total_mj();
        if mj <= 0.0 {
            return f64::INFINITY;
        }
        // capacity in mJ = mWh × 3600.
        let capacity_mj = capacity_mwh * 3600.0;
        capacity_mj / mj * window.as_secs_f64() / 3600.0
    }
}

/// Energy model of the edge node's radio and processor.
///
/// # Example
///
/// ```
/// use emap_net::energy::EnergyModel;
/// use emap_net::{CommTech, TrackingMetric};
/// use std::time::Duration;
///
/// let model = EnergyModel::rpi_wearable(CommTech::Lte);
/// let hybrid = model.hybrid_budget(Duration::from_secs(3600), 100, 5.0, TrackingMetric::AreaBetweenCurves);
/// let streaming = model.streaming_budget(Duration::from_secs(3600));
/// // The hybrid split radios far less than continuous streaming…
/// assert!(hybrid.tx_mj < streaming.tx_mj);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    comm: CommTech,
    /// Active radio transmit power in milliwatts.
    tx_power_mw: f64,
    /// Active radio receive power in milliwatts.
    rx_power_mw: f64,
    /// Radio connected-mode (RRC-connected idle) power in milliwatts —
    /// what continuous streaming pays even between packets.
    connected_power_mw: f64,
    /// Connected-mode tail the radio lingers in after each transfer burst,
    /// in seconds.
    radio_tail_s: f64,
    /// Edge processor active power in milliwatts.
    cpu_power_mw: f64,
}

impl EnergyModel {
    /// A Raspberry-Pi-class wearable with the given radio: ~1.2 W LTE TX,
    /// ~0.8 W RX, ~0.9 W connected-mode drain with a 200 ms tail, ~2.2 W
    /// active CPU.
    #[must_use]
    pub fn rpi_wearable(comm: CommTech) -> Self {
        EnergyModel {
            comm,
            tx_power_mw: 1200.0,
            rx_power_mw: 800.0,
            connected_power_mw: 900.0,
            radio_tail_s: 0.2,
            cpu_power_mw: 2200.0,
        }
    }

    /// The radio technology this model assumes.
    #[must_use]
    pub fn comm(&self) -> CommTech {
        self.comm
    }

    /// Energy to transmit `samples` EEG samples.
    #[must_use]
    pub fn tx_energy_mj(&self, samples: u64) -> f64 {
        self.tx_power_mw * self.comm.upload_time(samples).as_secs_f64()
    }

    /// Energy to receive `signals` correlation-set entries.
    #[must_use]
    pub fn rx_energy_mj(&self, signals: u64) -> f64 {
        self.rx_power_mw * self.comm.download_time(signals).as_secs_f64()
    }

    /// Energy of one edge-tracking iteration over `tracked` signals.
    #[must_use]
    pub fn tracking_energy_mj(&self, tracked: u64, metric: TrackingMetric) -> f64 {
        self.cpu_power_mw * Device::EdgeRpi.tracking_time(tracked, metric).as_secs_f64()
    }

    /// Budget for the EMAP hybrid over `window`: one tracking iteration per
    /// second plus a cloud call (1 s upload + `top_k` download) every
    /// `call_period_s` seconds. The radio duty-cycles: it pays the
    /// connected-mode tail only around each call.
    #[must_use]
    pub fn hybrid_budget(
        &self,
        window: Duration,
        top_k: u64,
        call_period_s: f64,
        metric: TrackingMetric,
    ) -> EnergyBudget {
        let seconds = window.as_secs_f64();
        let calls = (seconds / call_period_s.max(1.0)).ceil();
        let tail_mj = self.connected_power_mw * self.radio_tail_s;
        EnergyBudget {
            compute_mj: seconds * self.tracking_energy_mj(top_k, metric),
            tx_mj: calls * (self.tx_energy_mj(256) + tail_mj),
            rx_mj: calls * self.rx_energy_mj(top_k),
        }
    }

    /// Budget for continuous cloud streaming over `window`: every second
    /// is transmitted and the radio never leaves connected mode; no edge
    /// compute beyond acquisition.
    #[must_use]
    pub fn streaming_budget(&self, window: Duration) -> EnergyBudget {
        let seconds = window.as_secs_f64();
        // Per monitored second: one 256-sample burst plus a full second of
        // connected-mode drain (mW × 1 s = mJ).
        EnergyBudget {
            compute_mj: 0.0,
            tx_mj: seconds * (self.tx_energy_mj(256) + self.connected_power_mw),
            rx_mj: 0.0,
        }
    }

    /// Budget for an edge-only deployment over `window`: the full MDB
    /// search (costing `search_correlations` window evaluations) runs
    /// locally every `call_period_s` seconds, plus per-second tracking; the
    /// radio stays off.
    #[must_use]
    pub fn edge_only_budget(
        &self,
        window: Duration,
        top_k: u64,
        call_period_s: f64,
        search_correlations: u64,
        metric: TrackingMetric,
    ) -> EnergyBudget {
        let seconds = window.as_secs_f64();
        let calls = (seconds / call_period_s.max(1.0)).ceil();
        let search_mj = self.cpu_power_mw
            * Device::EdgeRpi
                .search_time(search_correlations)
                .as_secs_f64();
        EnergyBudget {
            compute_mj: seconds * self.tracking_energy_mj(top_k, metric) + calls * search_mj,
            tx_mj: 0.0,
            rx_mj: 0.0,
        }
    }
}

/// Fraction of the monitored signal that left the device — the paper's §I
/// privacy argument ("the third party cannot retrieve the complete signal
/// information with incomplete data").
///
/// # Example
///
/// ```
/// use emap_net::energy::DataExposure;
///
/// // One second uploaded every five seconds of monitoring.
/// let e = DataExposure::new(12.0, 60.0);
/// assert!((e.fraction() - 0.2).abs() < 1e-12);
/// assert_eq!(DataExposure::new(60.0, 60.0).fraction(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataExposure {
    seconds_transmitted: f64,
    seconds_monitored: f64,
}

impl DataExposure {
    /// Creates an exposure record (both values clamped non-negative).
    #[must_use]
    pub fn new(seconds_transmitted: f64, seconds_monitored: f64) -> Self {
        DataExposure {
            seconds_transmitted: seconds_transmitted.max(0.0),
            seconds_monitored: seconds_monitored.max(0.0),
        }
    }

    /// Seconds of signal transmitted to the cloud.
    #[must_use]
    pub fn seconds_transmitted(&self) -> f64 {
        self.seconds_transmitted
    }

    /// Fraction of the monitored signal exposed, clamped to `[0, 1]`;
    /// `0.0` when nothing was monitored.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.seconds_monitored <= 0.0 {
            return 0.0;
        }
        (self.seconds_transmitted / self.seconds_monitored).clamp(0.0, 1.0)
    }

    /// Raw bits transmitted (16-bit samples at 256 Hz).
    #[must_use]
    pub fn bits_transmitted(&self) -> u64 {
        (self.seconds_transmitted * 256.0) as u64 * BITS_PER_SAMPLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::rpi_wearable(CommTech::Lte)
    }

    #[test]
    fn hybrid_radios_less_than_streaming() {
        let window = Duration::from_secs(3600);
        let hybrid = model().hybrid_budget(window, 100, 5.0, TrackingMetric::AreaBetweenCurves);
        let streaming = model().streaming_budget(window);
        assert!(hybrid.tx_mj < streaming.tx_mj / 2.0);
    }

    #[test]
    fn edge_only_burns_more_compute_than_hybrid() {
        let window = Duration::from_secs(3600);
        // A paper-scale search is ~1.4M correlation windows.
        let edge_only = model().edge_only_budget(
            window,
            100,
            5.0,
            1_400_000,
            TrackingMetric::AreaBetweenCurves,
        );
        let hybrid = model().hybrid_budget(window, 100, 5.0, TrackingMetric::AreaBetweenCurves);
        assert!(edge_only.compute_mj > 5.0 * hybrid.compute_mj);
        assert_eq!(edge_only.tx_mj, 0.0);
    }

    #[test]
    fn budget_total_is_sum() {
        let b = EnergyBudget {
            compute_mj: 1.0,
            tx_mj: 2.0,
            rx_mj: 3.0,
        };
        assert_eq!(b.total_mj(), 6.0);
    }

    #[test]
    fn battery_life_scales_inversely_with_energy() {
        let window = Duration::from_secs(3600);
        let small = EnergyBudget {
            compute_mj: 1000.0,
            ..EnergyBudget::default()
        };
        let big = EnergyBudget {
            compute_mj: 2000.0,
            ..EnergyBudget::default()
        };
        let cap = 5000.0;
        assert!(
            (small.battery_life_hours(cap, window) / big.battery_life_hours(cap, window) - 2.0)
                .abs()
                < 1e-9
        );
        assert!(EnergyBudget::default()
            .battery_life_hours(cap, window)
            .is_infinite());
    }

    #[test]
    fn exposure_fraction_bounds() {
        assert_eq!(DataExposure::new(0.0, 100.0).fraction(), 0.0);
        assert_eq!(DataExposure::new(100.0, 100.0).fraction(), 1.0);
        assert_eq!(DataExposure::new(200.0, 100.0).fraction(), 1.0);
        assert_eq!(DataExposure::new(5.0, 0.0).fraction(), 0.0);
        assert_eq!(DataExposure::new(-3.0, 100.0).fraction(), 0.0);
    }

    #[test]
    fn exposure_bits() {
        let e = DataExposure::new(2.0, 10.0);
        assert_eq!(e.bits_transmitted(), 2 * 256 * 16);
    }
}
