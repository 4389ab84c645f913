//! The scalar references for `EdgeTracker::step`: the seed's per-sample
//! loops, with none of the kernel machinery (no area lower bound, no
//! early exit, no cached window statistics). The first-fit rule sums each
//! area one sample at a time, apart from the kernel's lanes; the argmin
//! rule takes `emap-dsp`'s `abs_diff_sum`, so that on float slices it
//! rounds as the kernel does and decisions on a threshold set at a least
//! area compare exactly. They live here, beside the tests that pin the
//! kernel engine to them, and nowhere in the serving path.

// The first-fit rule sums its own areas; only the argmin rule's are used.
#[allow(dead_code)]
#[path = "../../../dsp/tests/oracle/area.rs"]
pub mod area;

use emap_dsp::SAMPLES_PER_SECOND;
use emap_edge::{EdgeConfig, EdgeTracker, StepReport, TrackedSignal};

/// Which window of a slice the tracker settles on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AreaRule {
    /// The first window whose area, summed one sample at a time, is within
    /// `δ_A`, as the tracker does: the reference for its `β` and last
    /// score, bit for bit wherever the sums are exact (integer slices).
    FirstFit,
    /// The first strict minimum over every window, kept iff it is within
    /// `δ_A`, areas as `abs_diff_sum` rounds them: the argmin tracker the
    /// first fit replaced, the reference for decisions only.
    Argmin,
}

/// Algorithm 2 on per-offset scalar loops, over the tracked entries'
/// public fields (`β`, last score) and slice samples.
#[derive(Debug, Clone)]
pub struct ScalarTracker {
    config: EdgeConfig,
    rule: AreaRule,
    tracked: Vec<TrackedSignal>,
}

impl ScalarTracker {
    /// A reference session starting from `tracker`'s configuration and
    /// tracked set, scanning areas by `rule`.
    pub fn of(tracker: &EdgeTracker, rule: AreaRule) -> Self {
        ScalarTracker {
            config: *tracker.config(),
            rule,
            tracked: tracker.tracked().to_vec(),
        }
    }

    pub fn tracked(&self) -> &[TrackedSignal] {
        &self.tracked
    }

    /// One tracking iteration: the same semantics as `EdgeTracker::step`
    /// (degenerate-input guard, prune rule, report), with
    /// `windows_evaluated` the offsets visited and `windows_pruned`,
    /// `area_blocks` and `area_resolved` always zero.
    pub fn step(&mut self, input: &[f32]) -> StepReport {
        assert_eq!(input.len(), SAMPLES_PER_SECOND, "one second of input");
        let before = self.tracked.len();
        let mut scored = 0u64;
        let degenerate =
            !input.iter().all(|x| x.is_finite()) || input.iter().all(|&x| x == input[0]);
        if !degenerate {
            let delta_a = self.config.delta_a();
            for w in &mut self.tracked {
                let found = match self.rule {
                    AreaRule::FirstFit => {
                        first_area_within(input, w.samples(), delta_a, &mut scored)
                    }
                    AreaRule::Argmin => {
                        let areas = area::naive_areas(input, w.samples());
                        scored += areas.len() as u64;
                        Some(best_area(&areas)).filter(|&(_, area)| area <= delta_a)
                    }
                };
                match found {
                    Some((beta, area)) => {
                        w.beta = beta;
                        w.last_score = area;
                    }
                    None => w.last_score = f64::INFINITY,
                }
            }
            self.tracked.retain(|w| w.last_score <= delta_a);
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
            area_resolved: 0,
        }
    }
}

/// The first offset of `host` whose area between curves, summed one
/// sample at a time, is within `threshold`, with that area; `None` when
/// every area is above it or NaN.
fn first_area_within(
    input: &[f32],
    host: &[f32],
    threshold: f64,
    scored: &mut u64,
) -> Option<(usize, f64)> {
    let w = input.len();
    (0..=host.len() - w).find_map(|beta| {
        *scored += 1;
        let mut area = 0.0f64;
        for (&x, &y) in input.iter().zip(&host[beta..beta + w]) {
            area += (f64::from(x) - f64::from(y)).abs();
        }
        (area <= threshold).then_some((beta, area))
    })
}

/// The first strict minimum of `areas`, with its offset; `(0, ∞)` when
/// every area is NaN.
fn best_area(areas: &[f64]) -> (usize, f64) {
    let mut best = (0, f64::INFINITY);
    for (beta, &area) in areas.iter().enumerate() {
        if area < best.1 {
            best = (beta, area);
        }
    }
    best
}
