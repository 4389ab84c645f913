//! Property-based tests for the edge tracker and predictor.

mod oracle;

use emap_datasets::SignalClass;
use emap_dsp::SAMPLES_PER_SECOND;
use emap_edge::{AnomalyPredictor, EdgeConfig, EdgeTracker, PaHistory, Prediction};
use emap_mdb::{Mdb, Provenance, SignalSet, SIGNAL_SET_LEN};
use emap_search::{CorrelationSet, SearchHit, SearchWork};
use emap_testkit::prelude::*;
use oracle::AreaRule;

fn arb_signal(len: usize) -> impl Strategy<Value = Vec<f32>> {
    (0.05f32..0.6, prop::collection::vec(-5.0f32..5.0, len)).prop_map(move |(freq, noise)| {
        noise
            .into_iter()
            .enumerate()
            .map(|(i, n)| (freq * i as f32).sin() * 25.0 + n)
            .collect()
    })
}

/// Integer-valued signals (magnitudes small enough that every f32
/// subtraction and every f64 sum is exact): on these, the area metric's
/// kernel and scalar paths must agree *bitwise*, because reassociating a
/// sum of exactly-representable integers cannot change its value.
fn arb_integer_signal(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-30i8..=30, len).prop_map(|v| v.into_iter().map(f32::from).collect())
}

fn build_mdb_and_set(entries: Vec<(Vec<f32>, bool)>) -> (Mdb, CorrelationSet) {
    let mut mdb = Mdb::new();
    let mut hits = Vec::new();
    for (i, (samples, anomalous)) in entries.into_iter().enumerate() {
        let class = if anomalous {
            SignalClass::Stroke
        } else {
            SignalClass::Normal
        };
        let id = mdb.insert(
            SignalSet::new(
                samples,
                class,
                Provenance {
                    dataset_id: "prop".into(),
                    recording_id: format!("r{i}"),
                    channel: "c".into(),
                    offset: 0,
                },
            )
            .expect("fixed length"),
        );
        hits.push(SearchHit {
            set_id: id,
            omega: 0.9,
            beta: (i * 97) % 700,
        });
    }
    let set = CorrelationSet::from_candidates(hits, 200, SearchWork::default());
    (mdb, set)
}

fn arb_mdb_and_set(max_sets: usize) -> impl Strategy<Value = (Mdb, CorrelationSet)> {
    prop::collection::vec((arb_signal(SIGNAL_SET_LEN), prop::bool::ANY), 1..=max_sets)
        .prop_map(build_mdb_and_set)
}

fn arb_integer_mdb_and_set(max_sets: usize) -> impl Strategy<Value = (Mdb, CorrelationSet)> {
    prop::collection::vec(
        (arb_integer_signal(SIGNAL_SET_LEN), prop::bool::ANY),
        1..=max_sets,
    )
    .prop_map(build_mdb_and_set)
}

/// One input second of a decisions session, by `kind`: a railed flat line
/// (0), a cut holding a NaN (1), a cut at a slice's last offset (2–4) or
/// at `at` (5–7). A cut is one second of the slice picked by `slice` plus
/// `noise` (rounded for integer slices).
#[derive(Debug, Clone)]
struct Second {
    kind: usize,
    slice: prop::sample::Index,
    at: usize,
    noise: Vec<f32>,
}

impl Second {
    fn input(&self, slices: &[&[f32]], integer: bool) -> Vec<f32> {
        if self.kind == 0 {
            return vec![3.3; SAMPLES_PER_SECOND];
        }
        let host = slices[self.slice.index(slices.len())];
        let last = host.len() - SAMPLES_PER_SECOND;
        let at = if (2..=4).contains(&self.kind) {
            last
        } else {
            self.at % (last + 1)
        };
        let mut input: Vec<f32> = host[at..at + SAMPLES_PER_SECOND]
            .iter()
            .zip(&self.noise)
            .map(|(&x, &n)| x + if integer { n.round() } else { n })
            .collect();
        if self.kind == 1 {
            input[self.at % SAMPLES_PER_SECOND] = f32::NAN;
        }
        input
    }
}

fn arb_second() -> impl Strategy<Value = Second> {
    (
        0usize..8,
        any::<prop::sample::Index>(),
        0usize..SIGNAL_SET_LEN,
        prop::collection::vec(-2.0f32..2.0, SAMPLES_PER_SECOND),
    )
        .prop_map(|(kind, slice, at, noise)| Second {
            kind,
            slice,
            at,
            noise,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A tracking step never increases the tracked count, reports a
    /// probability in [0, 1], consistent counts, and β within bounds.
    #[test]
    fn step_invariants(
        (mdb, set) in arb_mdb_and_set(8),
        input in arb_signal(256),
        delta_a in 100.0f64..20_000.0,
    ) {
        let cfg = EdgeConfig::default()
            .with_delta_a(delta_a)
            .expect("valid")
            .with_h(1)
            .expect("valid");
        let mut tracker = EdgeTracker::new(cfg);
        tracker.load(&set, &mdb).expect("hits resolve");
        let before = tracker.len();
        let report = tracker.step(&input).expect("step succeeds");
        prop_assert!(report.tracked <= before);
        prop_assert_eq!(report.tracked + report.removed, before);
        prop_assert!((0.0..=1.0).contains(&report.probability));
        prop_assert!(report.anomalous <= report.tracked);
        for w in tracker.tracked() {
            prop_assert!(w.beta <= SIGNAL_SET_LEN - 256);
            prop_assert!(w.last_score <= delta_a);
        }
    }

    /// Tightening δ_A can only shrink the surviving set (monotonicity).
    #[test]
    fn pruning_is_monotone_in_delta_a(
        (mdb, set) in arb_mdb_and_set(6),
        input in arb_signal(256),
    ) {
        let survivors = |delta_a: f64| {
            let cfg = EdgeConfig::default()
                .with_delta_a(delta_a)
                .expect("valid")
                .with_h(1)
                .expect("valid");
            let mut t = EdgeTracker::new(cfg);
            t.load(&set, &mdb).expect("hits resolve");
            t.step(&input).expect("step succeeds").tracked
        };
        let loose = survivors(10_000.0);
        let tight = survivors(2_000.0);
        let tighter = survivors(500.0);
        prop_assert!(tight <= loose);
        prop_assert!(tighter <= tight);
    }

    /// Multi-iteration area sessions: the bound-pruned kernel engine and
    /// the scalar first-fit oracle produce *bitwise-identical* reports and
    /// tracked sets (`β` and area included) on integer-valued signals,
    /// where every sum is exact and so reassociation cannot hide behind
    /// ULP noise. Only the work split may differ (the kernel scores fewer
    /// windows); both visit the same offsets.
    #[test]
    fn kernel_area_session_is_bitwise_scalar_session(
        (mdb, set) in arb_integer_mdb_and_set(6),
        inputs in prop::collection::vec(arb_integer_signal(256), 1..4),
        delta_a in 500.0f64..20_000.0,
    ) {
        let cfg = EdgeConfig::default()
            .with_delta_a(delta_a)
            .expect("valid")
            .with_h(1)
            .expect("valid");
        let mut kernel = EdgeTracker::new(cfg);
        kernel.load(&set, &mdb).expect("hits resolve");
        let mut scalar = oracle::ScalarTracker::of(&kernel, AreaRule::FirstFit);
        for (second, input) in inputs.iter().enumerate() {
            let rk = kernel.step(input).expect("kernel step");
            let rs = scalar.step(input);
            prop_assert_eq!(rk.tracked, rs.tracked, "second {}", second);
            prop_assert_eq!(rk.removed, rs.removed);
            prop_assert_eq!(rk.anomalous, rs.anomalous);
            prop_assert_eq!(rk.probability.to_bits(), rs.probability.to_bits());
            prop_assert_eq!(rk.needs_cloud_call, rs.needs_cloud_call);
            prop_assert!(rk.windows_evaluated <= rs.windows_evaluated);
            prop_assert_eq!(
                rk.windows_evaluated + rk.windows_pruned,
                rs.windows_evaluated + rs.windows_pruned
            );
            for (wk, ws) in kernel.tracked().iter().zip(scalar.tracked()) {
                prop_assert_eq!(wk.set_id, ws.set_id);
                prop_assert_eq!(wk.beta, ws.beta, "β diverged on {}", wk.set_id);
                prop_assert_eq!(
                    wk.last_score.to_bits(),
                    ws.last_score.to_bits(),
                    "area diverged on {}: {} vs {}", wk.set_id, wk.last_score, ws.last_score
                );
            }
        }
    }

    /// Algorithm 2 as a decision: the first-fit tracker keeps, prunes,
    /// counts and calls exactly as the argmin tracker it replaced, second
    /// after second, on float and integer slices, through railed and NaN
    /// seconds, with `δ_A` drawn across the slices' own area range —
    /// exactly on the least area of the slice the first input was cut
    /// from one case in two.
    #[test]
    fn first_fit_decides_as_the_argmin_tracker(
        (mdb, set, integer) in prop_oneof![
            arb_mdb_and_set(6).prop_map(|(mdb, set)| (mdb, set, false)),
            arb_integer_mdb_and_set(6).prop_map(|(mdb, set)| (mdb, set, true)),
        ],
        seconds in prop::collection::vec(arb_second(), 2..7),
        on_least in prop::bool::ANY,
        across in 0.0f64..1.0,
        h in 1usize..6,
    ) {
        let slices: Vec<&[f32]> = set
            .hits()
            .iter()
            .map(|hit| mdb.try_get(hit.set_id).unwrap().samples())
            .collect();
        let inputs: Vec<Vec<f32>> = seconds.iter().map(|s| s.input(&slices, integer)).collect();
        let Some(first) = seconds.iter().position(|s| s.kind >= 2) else {
            return Ok(());
        };
        let least: Vec<f64> = slices
            .iter()
            .map(|host| {
                oracle::area::naive_areas(&inputs[first], host)
                    .into_iter()
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let (lo, hi) = least.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &m| (lo.min(m), hi.max(m)));
        let delta_a = if on_least {
            least[seconds[first].slice.index(slices.len())]
        } else {
            lo * 0.5 + (hi * 1.5 - lo * 0.5) * across
        };
        prop_assume!(delta_a.is_finite() && delta_a > 0.0);
        let cfg = EdgeConfig::default()
            .with_delta_a(delta_a)
            .expect("valid")
            .with_h(h)
            .expect("valid");
        let mut first_fit = EdgeTracker::new(cfg);
        first_fit.load(&set, &mdb).expect("hits resolve");
        let mut argmin = oracle::ScalarTracker::of(&first_fit, AreaRule::Argmin);
        for (second, input) in inputs.iter().enumerate() {
            let rf = first_fit.step(input).expect("step succeeds");
            let ra = argmin.step(input);
            let ids: Vec<_> = argmin.tracked().iter().map(|w| w.set_id).collect();
            prop_assert_eq!(first_fit.tracked_ids(), ids, "retained set, second {}", second);
            prop_assert_eq!(rf.probability.to_bits(), ra.probability.to_bits(), "P_A, second {}", second);
            prop_assert_eq!(rf.anomalous, ra.anomalous, "N(AS), second {}", second);
            prop_assert_eq!(rf.tracked, ra.tracked, "N(F), second {}", second);
            prop_assert_eq!(rf.removed, ra.removed, "removed, second {}", second);
            prop_assert_eq!(rf.needs_cloud_call, ra.needs_cloud_call, "cloud call, second {}", second);
        }
    }

    /// The predictor is total and consistent on arbitrary histories.
    #[test]
    fn predictor_total(values in prop::collection::vec(0.0f64..1.0, 0..40)) {
        let h: PaHistory = values.iter().copied().collect();
        let p = AnomalyPredictor::default();
        let verdict = p.classify(&h);
        if h.len() < 2 {
            prop_assert_eq!(verdict, Prediction::Normal);
        }
        if h.last() >= p.config().high_probability && h.len() >= 2 {
            prop_assert_eq!(verdict, Prediction::Anomaly);
        }
        // Deterministic.
        prop_assert_eq!(verdict, p.classify(&h));
    }
}

/// A fixed multi-second session, degenerate seconds (a railed flat line, a
/// NaN) included: the kernel engine makes the oracle's decisions — the
/// same pruning, β trajectories and probabilities, and the session left
/// untouched wherever the oracle leaves it.
#[test]
fn kernel_engine_matches_scalar_reference_decisions() {
    let rhythm = |freq: f32, phase: f32| -> Vec<f32> {
        (0..SIGNAL_SET_LEN)
            .map(|k| (freq * k as f32 + phase).sin() * 20.0)
            .collect()
    };
    let follow = rhythm(0.37, 0.0);
    let (mdb, set) = build_mdb_and_set(vec![
        (follow.clone(), true),
        (rhythm(0.52, 0.4), false),
        (rhythm(0.37, 0.05), true),
    ]);
    let railed = [3.3f32; 256];
    let mut nan = follow[256..512].to_vec();
    nan[100] = f32::NAN;
    let inputs: [&[f32]; 5] = [
        &follow[0..256],
        &railed,
        &follow[256..512],
        &nan,
        &follow[512..768],
    ];
    let cfg = EdgeConfig::default().with_delta_a(3800.0).unwrap();
    let mut kernel = EdgeTracker::new(cfg);
    kernel.load(&set, &mdb).unwrap();
    let mut scalar = oracle::ScalarTracker::of(&kernel, AreaRule::FirstFit);
    for (second, input) in inputs.iter().enumerate() {
        let rk = kernel.step(input).unwrap();
        let rs = scalar.step(input);
        let decisions = |r: &emap_edge::StepReport| {
            (
                r.probability,
                r.tracked,
                r.anomalous,
                r.removed,
                r.needs_cloud_call,
            )
        };
        assert_eq!(decisions(&rk), decisions(&rs), "s{second}");
        assert!(rk.windows_evaluated <= rs.windows_evaluated);
        let betas_k: Vec<_> = kernel
            .tracked()
            .iter()
            .map(|w| (w.set_id, w.beta))
            .collect();
        let betas_s: Vec<_> = scalar
            .tracked()
            .iter()
            .map(|w| (w.set_id, w.beta))
            .collect();
        assert_eq!(betas_k, betas_s, "s{second}");
    }
}
