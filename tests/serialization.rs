//! Serialization contracts: the result records that downstream tooling
//! (dashboards, experiment archives) depends on must round-trip through
//! JSON exactly.

use emap::core::timeline::Timeline;
use emap::core::RunTrace;
use emap::prelude::*;

fn sample_trace() -> (EmapConfig, RunTrace) {
    let factory = RecordingFactory::new(12);
    let mut builder = MdbBuilder::new();
    for i in 0..2 {
        builder
            .add_recording("d", &factory.normal_recording(&format!("n{i}"), 24.0))
            .expect("ingest");
        builder
            .add_recording(
                "d",
                &factory.anomaly_recording(SignalClass::Stroke, &format!("a{i}"), 24.0),
            )
            .expect("ingest");
    }
    let config = EmapConfig::default()
        .with_edge(EdgeConfig::default().with_h(3).expect("H > 0"))
        .with_cloud_latency_iterations(1);
    let mut pipeline = EmapPipeline::new(config, builder.build());
    let rec = factory.anomaly_recording(SignalClass::Stroke, "a0", 10.0);
    let trace = pipeline
        .run_on_samples(rec.channels()[0].samples())
        .expect("pipeline runs");
    (config, trace)
}

#[test]
fn run_trace_roundtrips_through_json() {
    let (_, trace) = sample_trace();
    let json = serde_json::to_string(&trace).expect("serializes");
    let back: RunTrace = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, trace);
}

#[test]
fn timeline_roundtrips_through_json() {
    let (config, trace) = sample_trace();
    let timeline = Timeline::from_trace(&config, &trace);
    let json = serde_json::to_string(&timeline).expect("serializes");
    let back: Timeline = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, timeline);
    assert_eq!(back.initial_latency(), timeline.initial_latency());
}

#[test]
fn pa_history_roundtrips_and_preserves_statistics() {
    let (_, trace) = sample_trace();
    let json = serde_json::to_string(&trace.pa_history).expect("serializes");
    let back: PaHistory = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, trace.pa_history);
    assert_eq!(back.rise(), trace.pa_history.rise());
    assert_eq!(back.rising_fraction(), trace.pa_history.rising_fraction());
}

#[test]
fn full_config_json_is_humanly_editable() {
    // The config file a deployment would ship: every paper constant visible
    // and editable.
    let json = serde_json::to_string_pretty(&EmapConfig::default()).expect("serializes");
    for needle in ["alpha", "0.004", "delta", "0.8", "top_k", "100", "Lte"] {
        assert!(
            json.contains(needle),
            "config JSON lacks `{needle}`:\n{json}"
        );
    }
    let back: EmapConfig = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, EmapConfig::default());

    // A config written by an earlier version carries search options that
    // have since been dropped; unknown fields are ignored, so it still loads.
    let older = json.replacen("\"alpha\"", "\"dropped_option\": null,\n    \"alpha\"", 1);
    assert_ne!(older, json);
    let back: EmapConfig = serde_json::from_str(&older).expect("older config loads");
    assert_eq!(back, EmapConfig::default());
}

#[test]
fn search_results_serialize_for_the_wire() {
    // The cloud → edge transfer of `T` is a serialization boundary in a
    // real deployment.
    let factory = RecordingFactory::new(12);
    let mut builder = MdbBuilder::new();
    builder
        .add_recording("d", &factory.normal_recording("r", 24.0))
        .expect("ingest");
    let mdb = builder.build();
    let filtered =
        emap_bandpass().filter(factory.normal_recording("r", 24.0).channels()[0].samples());
    let t = SlidingSearch::new(SearchConfig::paper())
        .search(&Query::new(&filtered[1024..1280]).expect("window"), &mdb)
        .expect("search");
    let json = serde_json::to_string(&t).expect("serializes");
    let back: emap::search::CorrelationSet = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, t);
}
