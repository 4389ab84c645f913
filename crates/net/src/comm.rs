use std::fmt;
use std::time::Duration;

use crate::{BITS_PER_SAMPLE, SAMPLES_PER_SIGNAL, SIGNAL_METADATA_BITS};

/// The six link technologies of Fig. 4, with era-appropriate effective
/// throughputs (refs \[19\] Steer, "Beyond 3G" and \[20\] Parkvall et al.,
/// LTE-Advanced) and a per-message setup latency.
///
/// Effective rates are deliberately below marketing peak rates — they model
/// the sustained application-level goodput the paper's curves imply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommTech {
    /// HSPA (3.5G).
    Hspa,
    /// Evolved HSPA (HSPA+).
    HspaPlus,
    /// LTE.
    Lte,
    /// LTE-Advanced.
    LteAdvanced,
    /// Mobile WiMAX release 1 (802.16e).
    WimaxR1,
    /// WiMAX release 2 (802.16m).
    WimaxR2,
}

impl CommTech {
    /// All technologies in Fig. 4's legend order.
    pub const ALL: [CommTech; 6] = [
        CommTech::Hspa,
        CommTech::HspaPlus,
        CommTech::Lte,
        CommTech::LteAdvanced,
        CommTech::WimaxR1,
        CommTech::WimaxR2,
    ];

    /// Uplink goodput in Mbit/s.
    #[must_use]
    pub fn uplink_mbps(self) -> f64 {
        match self {
            CommTech::Hspa => 2.9,
            CommTech::HspaPlus => 11.5,
            CommTech::Lte => 50.0,
            CommTech::LteAdvanced => 250.0,
            CommTech::WimaxR1 => 35.0,
            CommTech::WimaxR2 => 140.0,
        }
    }

    /// Downlink goodput in Mbit/s.
    #[must_use]
    pub fn downlink_mbps(self) -> f64 {
        match self {
            CommTech::Hspa => 14.4,
            CommTech::HspaPlus => 42.0,
            CommTech::Lte => 100.0,
            CommTech::LteAdvanced => 450.0,
            CommTech::WimaxR1 => 64.0,
            CommTech::WimaxR2 => 280.0,
        }
    }

    /// Per-message setup latency in microseconds (scheduling grant,
    /// framing).
    #[must_use]
    pub fn setup_us(self) -> f64 {
        match self {
            CommTech::Hspa => 350.0,
            CommTech::HspaPlus => 220.0,
            CommTech::Lte => 90.0,
            CommTech::LteAdvanced => 45.0,
            CommTech::WimaxR1 => 180.0,
            CommTech::WimaxR2 => 70.0,
        }
    }

    /// Time to upload `samples` 16-bit EEG samples (Fig. 4a, edge → cloud,
    /// Δ_EC of Eq. 4).
    #[must_use]
    pub fn upload_time(self, samples: u64) -> Duration {
        let bits = samples * BITS_PER_SAMPLE;
        let us = self.setup_us() + bits as f64 / self.uplink_mbps();
        Duration::from_nanos((us * 1e3).round() as u64)
    }

    /// Time to download `signals` signal-sets of the correlation set
    /// (Fig. 4b, cloud → edge, Δ_CE of Eq. 4). Each signal carries
    /// [`SAMPLES_PER_SIGNAL`] 16-bit samples plus its `[S, ω, β]` metadata.
    #[must_use]
    pub fn download_time(self, signals: u64) -> Duration {
        let bits = signals * (SAMPLES_PER_SIGNAL * BITS_PER_SAMPLE + SIGNAL_METADATA_BITS);
        let us = self.setup_us() + bits as f64 / self.downlink_mbps();
        Duration::from_nanos((us * 1e3).round() as u64)
    }

    /// Time to download an arbitrary `bytes`-sized payload (cloud → edge).
    ///
    /// [`CommTech::download_time`] models the paper's idealised Fig. 4b
    /// payload (16-bit samples plus `[S, ω, β]` metadata); this variant
    /// takes measured wire-frame sizes instead, so the same link model can
    /// price the v3 f32 transport, the v4 quantized transport, and a
    /// steady-state delta refresh as they actually travel.
    #[must_use]
    pub fn download_time_bytes(self, bytes: u64) -> Duration {
        let bits = bytes * 8;
        let us = self.setup_us() + bits as f64 / self.downlink_mbps();
        Duration::from_nanos((us * 1e3).round() as u64)
    }

    /// The minimum downlink goodput (Mbit/s) that delivers `bytes` within
    /// `budget` — the viability threshold a link class must clear for a
    /// given transport mode. Returns `f64::INFINITY` when the budget is
    /// unmeetable at any rate (i.e. it does not even cover this
    /// technology's setup latency).
    #[must_use]
    pub fn required_downlink_mbps(self, bytes: u64, budget: Duration) -> f64 {
        let budget_us = budget.as_secs_f64() * 1e6 - self.setup_us();
        if budget_us <= 0.0 {
            return f64::INFINITY;
        }
        (bytes * 8) as f64 / budget_us
    }

    /// Short display label matching the figure legend.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CommTech::Hspa => "HSPA",
            CommTech::HspaPlus => "HSPA+",
            CommTech::Lte => "LTE",
            CommTech::LteAdvanced => "LTE-A",
            CommTech::WimaxR1 => "WiMax R1",
            CommTech::WimaxR2 => "WiMax R2",
        }
    }
}

impl fmt::Display for CommTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_time_is_monotone_in_samples() {
        for tech in CommTech::ALL {
            let mut prev = Duration::ZERO;
            for n in [20u64, 40, 60, 100, 200, 300, 400] {
                let t = tech.upload_time(n);
                assert!(t > prev, "{tech} not monotone at {n}");
                prev = t;
            }
        }
    }

    #[test]
    fn download_time_is_monotone_in_signals() {
        for tech in CommTech::ALL {
            let mut prev = Duration::ZERO;
            for n in [20u64, 50, 100, 200, 400] {
                let t = tech.download_time(n);
                assert!(t > prev, "{tech} not monotone at {n}");
                prev = t;
            }
        }
    }

    /// The paper's headline real-time constraints (§V-A, §V-C): one second
    /// of samples uploads in < 1 ms and 100 signals download in < 200 ms on
    /// 4G-class links.
    #[test]
    fn four_g_meets_realtime_budgets() {
        for tech in [CommTech::Lte, CommTech::LteAdvanced, CommTech::WimaxR2] {
            assert!(
                tech.upload_time(256) < Duration::from_millis(1),
                "{tech} upload {:?}",
                tech.upload_time(256)
            );
            assert!(
                tech.download_time(100) < Duration::from_millis(200),
                "{tech} download {:?}",
                tech.download_time(100)
            );
        }
    }

    /// Fig. 4's qualitative ordering: newer technologies are faster.
    #[test]
    fn technology_ordering() {
        assert!(CommTech::Hspa.upload_time(256) > CommTech::HspaPlus.upload_time(256));
        assert!(CommTech::HspaPlus.upload_time(256) > CommTech::Lte.upload_time(256));
        assert!(CommTech::Lte.upload_time(256) > CommTech::LteAdvanced.upload_time(256));
        assert!(CommTech::WimaxR1.download_time(100) > CommTech::WimaxR2.download_time(100));
    }

    /// Fig. 4a's slowest-technology ceiling: 400 samples stay in the
    /// low-millisecond range on HSPA.
    #[test]
    fn hspa_400_samples_within_figure_range() {
        let t = CommTech::Hspa.upload_time(400);
        assert!(
            t > Duration::from_micros(1500) && t < Duration::from_micros(3500),
            "{t:?}"
        );
    }

    /// `download_time_bytes` agrees with the Fig. 4b model when handed the
    /// exact bit count that model computes.
    #[test]
    fn byte_model_matches_signal_model_on_same_payload() {
        for tech in CommTech::ALL {
            let signals = 100u64;
            let bits = signals * (SAMPLES_PER_SIGNAL * BITS_PER_SAMPLE + SIGNAL_METADATA_BITS);
            assert_eq!(bits % 8, 0);
            let a = tech.download_time(signals);
            let b = tech.download_time_bytes(bits / 8);
            let diff = a.abs_diff(b);
            assert!(diff < Duration::from_micros(1), "{tech}: {a:?} vs {b:?}");
        }
    }

    /// A link at exactly the required rate lands on the budget; anything
    /// slower misses it.
    #[test]
    fn required_rate_is_the_viability_threshold() {
        let tech = CommTech::Hspa;
        let bytes = 400_000u64;
        let budget = Duration::from_millis(200);
        let need = tech.required_downlink_mbps(bytes, budget);
        assert!(need > 0.0 && need.is_finite());
        // At the threshold rate the transfer takes exactly the budget.
        let us_at_need = tech.setup_us() + (bytes * 8) as f64 / need;
        assert!((us_at_need - budget.as_secs_f64() * 1e6).abs() < 1.0);
        // A budget smaller than the setup latency is unmeetable.
        assert!(tech
            .required_downlink_mbps(1, Duration::from_micros(1))
            .is_infinite());
    }

    #[test]
    fn zero_payload_costs_setup_only() {
        for tech in CommTech::ALL {
            let t = tech.upload_time(0);
            assert_eq!(t, Duration::from_nanos((tech.setup_us() * 1e3) as u64));
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = CommTech::ALL.iter().map(|t| t.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }
}
