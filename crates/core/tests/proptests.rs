//! Property-based tests for the pipeline: structural invariants that must
//! hold for any corpus composition, input class, and latency/threshold
//! configuration.

use emap_core::{EmapConfig, EmapPipeline};
use emap_datasets::{RecordingFactory, SignalClass};
use emap_edge::EdgeConfig;
use emap_mdb::{Mdb, MdbBuilder};
use emap_testkit::prelude::*;

fn arb_class() -> impl Strategy<Value = SignalClass> {
    prop::sample::select(SignalClass::ALL.to_vec())
}

fn build_corpus(seed: u64, normals: usize, anomalies: usize) -> Mdb {
    let factory = RecordingFactory::new(seed);
    let mut builder = MdbBuilder::new();
    for i in 0..normals {
        builder
            .add_recording("d", &factory.normal_recording(&format!("n{i}"), 24.0))
            .expect("ingest");
    }
    for i in 0..anomalies {
        builder
            .add_recording(
                "d",
                &factory.anomaly_recording(SignalClass::Seizure, &format!("s{i}"), 24.0),
            )
            .expect("ingest");
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Per-iteration structural invariants of any run.
    #[test]
    fn iteration_invariants(
        seed in 0u64..50,
        input_class in arb_class(),
        normals in 0usize..3,
        anomalies in 0usize..3,
        latency in 1usize..4,
        h in 1usize..30,
        seconds in 4u32..10,
    ) {
        let mdb = build_corpus(seed, normals, anomalies);
        let config = EmapConfig::default()
            .with_cloud_latency_iterations(latency)
            .with_edge(EdgeConfig::default().with_h(h).expect("H > 0"));
        let factory = RecordingFactory::new(seed);
        let rec = match input_class {
            SignalClass::Normal => factory.normal_recording("prop-in", f64::from(seconds)),
            c => factory.anomaly_recording(c, "prop-in", f64::from(seconds)),
        };
        let mut pipeline = EmapPipeline::new(config, mdb);
        let trace = pipeline
            .run_on_samples(rec.channels()[0].samples())
            .expect("pipeline runs");

        // One outcome per second, numbered densely.
        prop_assert_eq!(trace.iterations.len(), seconds as usize);
        for (i, o) in trace.iterations.iter().enumerate() {
            prop_assert_eq!(o.iteration, i);
            prop_assert!(o.anomalous <= o.tracked);
            if let Some(p) = o.probability {
                prop_assert!((0.0..=1.0).contains(&p));
            }
            // An in-process cloud is never unreachable.
            prop_assert!(!o.degraded);
        }

        // Bookkeeping: the counters agree with the flags.
        let issued = trace.iterations.iter().filter(|o| o.cloud_call_issued).count();
        prop_assert_eq!(trace.cloud_calls, issued);
        let tracked_iters = trace
            .iterations
            .iter()
            .filter(|o| o.probability.is_some())
            .count();
        prop_assert_eq!(trace.pa_history.len(), tracked_iters);

        // A refresh can only land `latency` iterations after some issue.
        for (i, o) in trace.iterations.iter().enumerate() {
            if o.refresh_applied {
                prop_assert!(i >= latency);
                prop_assert!(
                    trace.iterations[..=i - latency]
                        .iter()
                        .any(|p| p.cloud_call_issued),
                    "refresh at {i} without an issue ≥ {latency} iterations earlier"
                );
            }
        }

        // The first iteration always reaches for the cloud (nothing is
        // tracked yet).
        prop_assert!(trace.iterations[0].cloud_call_issued);
    }

    /// Determinism: identical configuration ⇒ identical trace, independent
    /// of how the stream is chunked through `process_second`.
    #[test]
    fn runs_are_deterministic(seed in 0u64..50, seconds in 4u32..8) {
        let factory = RecordingFactory::new(seed);
        let rec = factory.anomaly_recording(SignalClass::Stroke, "det", f64::from(seconds));
        let samples = rec.channels()[0].samples();
        let config = EmapConfig::default().with_cloud_latency_iterations(1);

        let mut a = EmapPipeline::new(config, build_corpus(seed, 1, 1));
        let trace_a = a.run_on_samples(samples).expect("runs");

        let mut b = EmapPipeline::new(config, build_corpus(seed, 1, 1));
        let mut outcomes = Vec::new();
        for second in samples.chunks_exact(256) {
            outcomes.push(b.process_second(second).expect("runs"));
        }
        prop_assert_eq!(trace_a.iterations, outcomes);
    }
}
