//! The scalar reference for `EdgeTracker::step`: the seed's per-sample
//! loops, with none of the kernel machinery (no area lower bound, no
//! cached window statistics, no library correlator; `ω` is `emap-dsp`'s
//! scalar test oracle). It lives here, beside the tests that pin the
//! kernel engine to it, and nowhere in the serving path.

#[path = "../../../dsp/tests/oracle/omega.rs"]
mod omega;

use emap_dsp::SAMPLES_PER_SECOND;
use emap_edge::{EdgeConfig, EdgeMetric, EdgeTracker, StepReport, TrackedSignal};

/// Algorithm 2 on per-sample scalar loops, over the tracked entries'
/// public fields (`β`, last score) and slice samples.
#[derive(Debug, Clone)]
pub struct ScalarTracker {
    config: EdgeConfig,
    tracked: Vec<TrackedSignal>,
}

impl ScalarTracker {
    /// A reference session starting from `tracker`'s configuration and
    /// tracked set.
    pub fn of(tracker: &EdgeTracker) -> Self {
        ScalarTracker {
            config: *tracker.config(),
            tracked: tracker.tracked().to_vec(),
        }
    }

    pub fn tracked(&self) -> &[TrackedSignal] {
        &self.tracked
    }

    /// One tracking iteration: the same semantics as `EdgeTracker::step`
    /// (degenerate-input guard, windowed range, prune rule, report), with
    /// `windows_pruned` and `area_blocks` always zero.
    pub fn step(&mut self, input: &[f32]) -> StepReport {
        assert_eq!(input.len(), SAMPLES_PER_SECOND, "one second of input");
        let before = self.tracked.len();
        let mut scored = 0u64;
        let degenerate =
            !input.iter().all(|x| x.is_finite()) || input.iter().all(|&x| x == input[0]);
        if !degenerate {
            let window = self.config.search_window();
            let range_for = |beta: usize, host_len: usize| {
                let last = host_len - SAMPLES_PER_SECOND;
                match window {
                    None => Some((0, last)),
                    Some(w) => {
                        let center = beta + SAMPLES_PER_SECOND;
                        (center <= last + w)
                            .then(|| (center.saturating_sub(w), (center + w).min(last)))
                    }
                }
            };
            match self.config.metric() {
                EdgeMetric::AreaBetweenCurves { delta_a } => {
                    for w in &mut self.tracked {
                        match range_for(w.beta, w.samples().len()) {
                            Some((lo, hi)) => {
                                let (beta, area) =
                                    best_area(input, w.samples(), lo, hi, &mut scored);
                                w.beta = beta;
                                w.last_score = area;
                            }
                            None => w.last_score = f64::INFINITY,
                        }
                    }
                    self.tracked.retain(|w| w.last_score <= delta_a);
                }
                EdgeMetric::CrossCorrelation { delta } => {
                    let qhat = omega::normalize(input);
                    for w in &mut self.tracked {
                        match range_for(w.beta, w.samples().len()) {
                            Some((lo, hi)) => {
                                let (beta, omega) =
                                    best_correlation(&qhat, w.samples(), lo, hi, &mut scored);
                                w.beta = beta;
                                w.last_score = omega;
                            }
                            None => w.last_score = f64::NEG_INFINITY,
                        }
                    }
                    self.tracked.retain(|w| w.last_score >= delta);
                }
            }
        }
        let tracked = self.tracked.len();
        let anomalous = self.tracked.iter().filter(|w| w.class.is_anomaly()).count();
        StepReport {
            probability: if tracked == 0 {
                0.0
            } else {
                anomalous as f64 / tracked as f64
            },
            tracked,
            anomalous,
            removed: before - tracked,
            needs_cloud_call: tracked < self.config.h(),
            windows_evaluated: scored,
            windows_pruned: 0,
            area_blocks: 0,
        }
    }
}

/// Minimum area between curves over offsets `lo..=hi` of `host`, with the
/// argmin, exiting an offset early once it cannot beat the best.
fn best_area(input: &[f32], host: &[f32], lo: usize, hi: usize, scored: &mut u64) -> (usize, f64) {
    let w = input.len();
    let mut best = (lo, f64::INFINITY);
    for beta in lo..=hi.min(host.len() - w) {
        *scored += 1;
        let mut area = 0.0f64;
        for (x, y) in input.iter().zip(&host[beta..beta + w]) {
            area += f64::from(x - y).abs();
            if area >= best.1 {
                break;
            }
        }
        if area < best.1 {
            best = (beta, area);
        }
    }
    best
}

/// Maximum `ω` over offsets `lo..=hi` of `host`, with the argmax, one
/// scalar pass per offset.
fn best_correlation(
    qhat: &[f32],
    host: &[f32],
    lo: usize,
    hi: usize,
    scored: &mut u64,
) -> (usize, f64) {
    let w = qhat.len();
    let mut best = (lo, f64::NEG_INFINITY);
    for beta in lo..=hi.min(host.len() - w) {
        *scored += 1;
        let omega = omega::omega(qhat, &host[beta..beta + w]);
        if omega > best.1 {
            best = (beta, omega);
        }
    }
    best
}
