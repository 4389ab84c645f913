use emap_edge::{EdgeConfig, PredictorConfig};
use emap_net::{CommTech, Device};
use emap_quality::QualityGate;
use emap_search::SearchConfig;

/// End-to-end configuration of the EMAP framework: the cloud search, the
/// edge tracker, the prediction rule, and the timing models.
///
/// The default is the paper's deployment: `α = 0.004`, `δ = 0.8`, top-100,
/// area-between-curves tracking, LTE link, i7 cloud, Raspberry Pi edge,
/// and a modeled cloud-search latency of 3 iterations (the ~3 s initial
/// overhead of Fig. 9).
///
/// # Example
///
/// ```
/// use emap_core::EmapConfig;
/// use emap_net::CommTech;
///
/// let cfg = EmapConfig::default().with_comm(CommTech::LteAdvanced);
/// assert_eq!(cfg.comm(), CommTech::LteAdvanced);
/// assert_eq!(cfg.search().top_k(), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmapConfig {
    search: SearchConfig,
    edge: EdgeConfig,
    predictor: PredictorConfig,
    comm: CommTech,
    cloud_device: Device,
    edge_device: Device,
    cloud_latency_iterations: usize,
    quality_gate: Option<QualityGate>,
}

impl EmapConfig {
    /// The cloud-search configuration.
    #[must_use]
    pub fn search(&self) -> SearchConfig {
        self.search
    }

    /// The edge-tracker configuration.
    #[must_use]
    pub fn edge(&self) -> EdgeConfig {
        self.edge
    }

    /// The prediction-rule thresholds.
    #[must_use]
    pub fn predictor(&self) -> PredictorConfig {
        self.predictor
    }

    /// The link technology used for the timing models.
    #[must_use]
    pub fn comm(&self) -> CommTech {
        self.comm
    }

    /// The cloud device model.
    #[must_use]
    pub fn cloud_device(&self) -> Device {
        self.cloud_device
    }

    /// The edge device model.
    #[must_use]
    pub fn edge_device(&self) -> Device {
        self.edge_device
    }

    /// How many one-second iterations a background cloud call takes before
    /// its correlation set is installed (Fig. 9's ~3 s search latency).
    #[must_use]
    pub fn cloud_latency_iterations(&self) -> usize {
        self.cloud_latency_iterations
    }

    /// Replaces the search configuration.
    #[must_use]
    pub fn with_search(mut self, search: SearchConfig) -> Self {
        self.search = search;
        self
    }

    /// Replaces the edge configuration.
    #[must_use]
    pub fn with_edge(mut self, edge: EdgeConfig) -> Self {
        self.edge = edge;
        self
    }

    /// Replaces the link technology.
    #[must_use]
    pub fn with_comm(mut self, comm: CommTech) -> Self {
        self.comm = comm;
        self
    }

    /// Replaces the modeled cloud-call latency in iterations.
    #[must_use]
    pub fn with_cloud_latency_iterations(mut self, iterations: usize) -> Self {
        self.cloud_latency_iterations = iterations;
        self
    }

    /// The per-second signal-quality gate, if enabled: a second it
    /// classifies as artifact is masked in [`crate::EdgeFleet::tick`] —
    /// the tracker is frozen, `P_A` is not updated and no cloud call is
    /// made — instead of poisoning the tracked set.
    #[must_use]
    pub fn quality_gate(&self) -> Option<QualityGate> {
        self.quality_gate
    }

    /// Enables quality gating with the given gate (off by default — the
    /// paper's pipeline has no such stage).
    #[must_use]
    pub fn with_quality_gate(mut self, gate: QualityGate) -> Self {
        self.quality_gate = Some(gate);
        self
    }
}

impl Default for EmapConfig {
    fn default() -> Self {
        EmapConfig {
            search: SearchConfig::paper(),
            edge: EdgeConfig::default(),
            predictor: PredictorConfig::default(),
            comm: CommTech::Lte,
            cloud_device: Device::CloudServer,
            edge_device: Device::EdgeRpi,
            cloud_latency_iterations: 3,
            quality_gate: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EmapConfig::default();
        assert_eq!(c.search().alpha(), 0.004);
        assert_eq!(c.search().delta(), 0.8);
        assert_eq!(c.search().top_k(), 100);
        assert_eq!(c.comm(), CommTech::Lte);
        assert_eq!(c.cloud_device(), Device::CloudServer);
        assert_eq!(c.edge_device(), Device::EdgeRpi);
        assert_eq!(c.cloud_latency_iterations(), 3);
    }

    #[test]
    fn quality_gate_toggles() {
        let c = EmapConfig::default();
        assert!(c.quality_gate().is_none());
        let gated = c.with_quality_gate(QualityGate::default());
        assert_eq!(gated.quality_gate(), Some(QualityGate::default()));
    }

    #[test]
    fn builders_replace_fields() {
        let c = EmapConfig::default()
            .with_comm(CommTech::WimaxR2)
            .with_cloud_latency_iterations(5);
        assert_eq!(c.comm(), CommTech::WimaxR2);
        assert_eq!(c.cloud_latency_iterations(), 5);
    }
}
