//! Property-based tests for the timing and energy models.

use std::time::Duration;

use emap_net::energy::{DataExposure, EnergyModel};
use emap_net::{CommTech, Device, InitialLatency, TrackingMetric};
use emap_testkit::prelude::*;

fn arb_tech() -> impl Strategy<Value = CommTech> {
    prop::sample::select(CommTech::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transfer times are monotone in payload for every technology.
    #[test]
    fn transfer_times_monotone(tech in arb_tech(), a in 0u64..100_000, b in 0u64..100_000) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(tech.upload_time(lo) <= tech.upload_time(hi));
        prop_assert!(tech.download_time(lo) <= tech.download_time(hi));
    }

    /// Transfer time decomposes: setup + payload/rate, so time(a+b) + setup
    /// == time(a) + time(b) exactly (one extra setup on the split path).
    #[test]
    fn upload_time_is_affine(tech in arb_tech(), a in 1u64..50_000, b in 1u64..50_000) {
        let setup = tech.upload_time(0);
        let split = tech.upload_time(a) + tech.upload_time(b);
        let joint = tech.upload_time(a + b) + setup;
        let diff = split.abs_diff(joint);
        prop_assert!(diff <= Duration::from_nanos(4), "diff {diff:?}");
    }

    /// Device times are monotone and zero at zero work.
    #[test]
    fn device_times_monotone(a in 0u64..10_000_000, b in 0u64..10_000_000) {
        let (lo, hi) = (a.min(b), a.max(b));
        for device in [Device::CloudServer, Device::EdgeRpi] {
            prop_assert!(device.search_time(lo) <= device.search_time(hi));
            for metric in [TrackingMetric::AreaBetweenCurves, TrackingMetric::CrossCorrelation] {
                prop_assert!(
                    device.tracking_time(lo.min(10_000), metric)
                        <= device.tracking_time(hi.min(10_000), metric)
                );
            }
        }
        prop_assert_eq!(Device::CloudServer.search_time(0), Duration::ZERO);
    }

    /// The latency decomposition always sums and is monotone in search work.
    #[test]
    fn latency_decomposition(tech in arb_tech(), work in 0u64..5_000_000, k in 1u64..500) {
        let lat = InitialLatency::compute(tech, Device::CloudServer, work, k);
        prop_assert_eq!(lat.total(), lat.upload + lat.search + lat.download);
        let more = InitialLatency::compute(tech, Device::CloudServer, work + 1000, k);
        prop_assert!(more.total() >= lat.total());
    }

    /// Energy budgets are non-negative, additive in the window, and the
    /// hybrid's radio energy is monotone in call frequency.
    #[test]
    fn energy_budget_properties(
        tech in arb_tech(),
        hours in 1u64..72,
        period in 2.0f64..120.0,
        top_k in 10u64..400,
    ) {
        let model = EnergyModel::rpi_wearable(tech);
        let window = Duration::from_secs(hours * 3600);
        let metric = TrackingMetric::AreaBetweenCurves;
        let budget = model.hybrid_budget(window, top_k, period, metric);
        prop_assert!(budget.compute_mj >= 0.0 && budget.tx_mj >= 0.0 && budget.rx_mj >= 0.0);
        prop_assert!((budget.total_mj()
            - (budget.compute_mj + budget.tx_mj + budget.rx_mj)).abs() < 1e-9);

        // More frequent calls ⇒ more radio energy.
        let busier = model.hybrid_budget(window, top_k, period / 2.0, metric);
        prop_assert!(busier.tx_mj >= budget.tx_mj);
        prop_assert!(busier.rx_mj >= budget.rx_mj);

        // Battery life is positive and decreases with energy.
        let life = budget.battery_life_hours(4440.0, window);
        prop_assert!(life > 0.0);
    }

    /// Data exposure is always a fraction in [0, 1].
    #[test]
    fn exposure_bounded(tx in -10.0f64..1e6, total in -10.0f64..1e6) {
        let e = DataExposure::new(tx, total);
        prop_assert!((0.0..=1.0).contains(&e.fraction()));
    }
}
