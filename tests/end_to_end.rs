//! End-to-end integration: the full EMAP flow from dataset generation
//! through prediction, spanning every crate in the workspace.

use emap::core::eval::EvalHarness;
use emap::prelude::*;

fn small_config() -> EmapConfig {
    EmapConfig::default()
        .with_edge(EdgeConfig::default().with_h(5).expect("H > 0"))
        .with_cloud_latency_iterations(2)
}

fn small_mdb(seed: u64) -> Mdb {
    let mut builder = MdbBuilder::new();
    for spec in standard_registry(1) {
        builder
            .add_dataset(&spec.generate(seed))
            .expect("registry generates valid recordings");
    }
    builder.build()
}

#[test]
fn full_flow_normal_input_is_not_flagged() {
    let seed = 42;
    let mdb = small_mdb(seed);
    let factory = RecordingFactory::new(seed);
    let patient = factory.normal_recording("it-normal", 12.0);

    let mut pipeline = EmapPipeline::new(small_config(), mdb);
    let trace = pipeline
        .run_on_samples(patient.channels()[0].samples())
        .expect("pipeline accepts generated signals");
    let verdict = AnomalyPredictor::default().classify(&trace.pa_history);
    assert_eq!(verdict, Prediction::Normal);
}

#[test]
fn full_flow_seizure_input_is_flagged() {
    let seed = 42;
    let mdb = small_mdb(seed);
    let factory = RecordingFactory::new(seed);
    let patient = factory.anomaly_recording(SignalClass::Seizure, "it-seizure", 12.0);

    let mut pipeline = EmapPipeline::new(small_config(), mdb);
    let trace = pipeline
        .run_on_samples(patient.channels()[0].samples())
        .expect("pipeline accepts generated signals");
    let verdict = AnomalyPredictor::default().classify(&trace.pa_history);
    assert_eq!(verdict, Prediction::Anomaly);
}

#[test]
fn full_flow_is_deterministic_across_pipelines() {
    let seed = 7;
    let factory = RecordingFactory::new(seed);
    let patient = factory.anomaly_recording(SignalClass::Stroke, "it-det", 10.0);

    let run = || {
        let mut pipeline = EmapPipeline::new(small_config(), small_mdb(seed));
        pipeline
            .run_on_samples(patient.channels()[0].samples())
            .expect("pipeline accepts generated signals")
    };
    assert_eq!(run(), run());
}

#[test]
fn eval_harness_separates_anomalous_from_normal() {
    let mut harness = EvalHarness::from_registry(small_config(), 42, 1);
    harness.set_window_s(10.0);

    let seizure = harness
        .evaluate_anomaly_batch(SignalClass::Seizure, "it", 3, 20.0)
        .expect("evaluation succeeds");
    let normal = harness
        .evaluate_normal_batch("it", 3)
        .expect("evaluation succeeds");

    let hits = seizure
        .cases
        .iter()
        .filter(|c| c.prediction.is_anomaly())
        .count();
    let false_alarms = normal
        .cases
        .iter()
        .filter(|c| c.prediction.is_anomaly())
        .count();
    assert!(hits >= 2, "seizure hits {hits}/3");
    assert!(false_alarms <= 1, "false alarms {false_alarms}/3");
}

#[test]
fn pipeline_issues_background_refreshes() {
    let seed = 42;
    let mdb = small_mdb(seed);
    let factory = RecordingFactory::new(seed);
    // A class switch mid-signal forces the tracked set to decay and the
    // pipeline to call the cloud again.
    let normal = factory.normal_recording("it-switch-n", 8.0);
    let seizure = factory.anomaly_recording(SignalClass::Seizure, "it-switch-s", 8.0);
    let mut samples = normal.channels()[0].samples().to_vec();
    samples.extend_from_slice(seizure.channels()[0].samples());

    let mut pipeline = EmapPipeline::new(small_config(), mdb);
    let trace = pipeline
        .run_on_samples(&samples)
        .expect("pipeline accepts generated signals");
    assert!(
        trace.cloud_calls >= 2,
        "expected a re-search after the signal changed; calls = {}",
        trace.cloud_calls
    );
    let refreshes = trace
        .iterations
        .iter()
        .filter(|o| o.refresh_applied)
        .count();
    assert!(refreshes >= 2, "refreshes = {refreshes}");
}

#[test]
fn timeline_from_end_to_end_trace_is_consistent() {
    use emap::core::timeline::{MeteredCloud, Timeline};
    let seed = 42;
    let config = small_config();
    let cloud = CloudService::new(config.search(), small_mdb(seed).into_shared(), 1);
    let mut pipeline = EmapPipeline::with_cloud(config, MeteredCloud::new(cloud));
    let factory = RecordingFactory::new(seed);
    let rec = factory.anomaly_recording(SignalClass::Encephalopathy, "it-tl", 12.0);
    let trace = pipeline
        .run_on_samples(rec.channels()[0].samples())
        .expect("pipeline accepts generated signals");

    let timeline = Timeline::from_trace(&config, &trace, &pipeline.cloud().searches.borrow());
    assert!(timeline.initial_latency().is_some());
    assert!(timeline.tracking_is_realtime());
    assert_eq!(timeline.cloud_call_iterations().len(), trace.cloud_calls);
}
