use std::time::Duration;

use crate::{CommTech, Device};

/// The initial latency decomposition of Eq. 4:
/// `Δ_initial = Δ_EC + Δ_CS + Δ_CE`.
///
/// `Δ_EC` is the edge→cloud upload of one second of samples, `Δ_CS` the
/// cloud search, and `Δ_CE` the cloud→edge download of the correlation set.
/// §V-B fixes `α = 0.004` precisely to keep `Δ_initial ≈ 3 s`.
///
/// # Example
///
/// ```
/// use emap_net::{CommTech, Device, InitialLatency};
///
/// // A search that evaluated 1.4M correlation windows over the MDB.
/// let d = InitialLatency::compute(CommTech::Lte, Device::CloudServer, 1_400_000, 100);
/// let total = d.total();
/// assert!(total.as_secs_f64() > 2.0 && total.as_secs_f64() < 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitialLatency {
    /// Δ_EC: upload of the 256-sample input window.
    pub upload: Duration,
    /// Δ_CS: the cloud-side search.
    pub search: Duration,
    /// Δ_CE: download of the top-K correlation set.
    pub download: Duration,
}

impl InitialLatency {
    /// Computes the decomposition for a search that evaluated
    /// `correlations` windows and returned `top_k` signals.
    #[must_use]
    pub fn compute(comm: CommTech, cloud: Device, correlations: u64, top_k: u64) -> Self {
        InitialLatency {
            upload: comm.upload_time(emap_samples_per_second()),
            search: cloud.search_time(correlations),
            download: comm.download_time(top_k),
        }
    }

    /// The total `Δ_initial`.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.upload + self.search + self.download
    }

    /// Whether the decomposition satisfies the paper's per-stage real-time
    /// budgets: upload < 1 ms and download < 200 ms.
    #[must_use]
    pub fn meets_comm_budgets(&self) -> bool {
        self.upload < Duration::from_millis(1) && self.download < Duration::from_millis(200)
    }
}

const fn emap_samples_per_second() -> u64 {
    256
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_sum_of_parts() {
        let d = InitialLatency::compute(CommTech::LteAdvanced, Device::CloudServer, 100_000, 100);
        assert_eq!(d.total(), d.upload + d.search + d.download);
    }

    /// §V-B: with α = 0.004 the initial overhead lands around 3 s. A
    /// sliding search over a paper-scale MDB evaluates ~1.4M windows.
    #[test]
    fn paper_scale_initial_latency_near_3s() {
        let d = InitialLatency::compute(CommTech::Lte, Device::CloudServer, 1_400_000, 100);
        let s = d.total().as_secs_f64();
        assert!((2.0..4.5).contains(&s), "Δ_initial = {s}");
        assert!(d.meets_comm_budgets());
    }

    #[test]
    fn search_dominates_on_fast_links() {
        let d = InitialLatency::compute(CommTech::LteAdvanced, Device::CloudServer, 1_400_000, 100);
        assert!(d.search > d.upload + d.download);
    }

    #[test]
    fn slow_link_fails_budget() {
        // A hypothetical very large correlation set blows the download
        // budget even on HSPA's 14.4 Mbit/s downlink.
        let d = InitialLatency::compute(CommTech::Hspa, Device::CloudServer, 0, 400);
        assert!(!d.meets_comm_budgets());
    }
}
