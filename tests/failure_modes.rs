//! Failure injection: the framework must degrade loudly and predictably,
//! not silently, when its inputs or substrate misbehave.

use emap::prelude::*;

fn normal_samples(seed: u64, seconds: f64) -> Vec<f32> {
    RecordingFactory::new(seed)
        .normal_recording("failure-patient", seconds)
        .channels()[0]
        .samples()
        .to_vec()
}

/// An empty mega-database: every cloud call returns an empty correlation
/// set; the pipeline keeps running, reports nothing tracked, and keeps
/// asking the cloud — it must not panic or fabricate probabilities.
#[test]
fn pipeline_survives_an_empty_mdb() {
    let mut pipeline = EmapPipeline::new(
        EmapConfig::default().with_cloud_latency_iterations(1),
        Mdb::new(),
    );
    let trace = pipeline
        .run_on_samples(&normal_samples(1, 8.0))
        .expect("pipeline must not fail on an empty corpus");
    for o in &trace.iterations {
        assert_eq!(o.tracked, 0);
        assert!(o.probability.is_none() || o.probability == Some(0.0));
    }
    assert!(trace.cloud_calls >= 1, "it kept trying the cloud");
    // And the verdict stays conservative.
    assert_eq!(
        AnomalyPredictor::default().classify(&trace.pa_history),
        Prediction::Normal
    );
}

/// A disconnected electrode (NaN samples) is rejected at the query
/// boundary with a precise error, not propagated into correlations.
#[test]
fn nan_input_is_rejected_with_position() {
    let mut samples = vec![0.1f32; 256];
    samples[17] = f32::NAN;
    let err = Query::new(&samples).unwrap_err();
    assert!(err.to_string().contains("17"));
}

/// A flat-lined (all-constant) input produces zero correlations everywhere
/// — the search returns an empty set rather than arbitrary matches.
#[test]
fn flatline_input_matches_nothing() {
    let mut builder = MdbBuilder::new();
    builder
        .add_recording("d", &RecordingFactory::new(2).normal_recording("r", 24.0))
        .expect("ingest succeeds");
    let mdb = builder.build();
    let flat = Query::new(&[5.0f32; 256]).expect("constant input is structurally valid");
    let t = BatchExecutor::new(ScanKernel::Sliding, SearchConfig::paper())
        .search(&flat, &mdb)
        .expect("search runs");
    assert!(t.is_empty(), "a flatline must not match EEG content");
}

/// A truncated mega-database snapshot is reported as an error, never a
/// partial store.
#[test]
fn truncated_snapshot_is_detected() {
    let mut builder = MdbBuilder::new();
    builder
        .add_recording("d", &RecordingFactory::new(3).normal_recording("r", 24.0))
        .expect("ingest succeeds");
    let mdb = builder.build();
    let mut snapshot = Vec::new();
    mdb.write_snapshot(&mut snapshot).expect("snapshot writes");
    for keep in [16usize, snapshot.len() / 2, snapshot.len() - 1] {
        assert!(
            Mdb::read_snapshot(&mut snapshot[..keep].as_ref()).is_err(),
            "truncation at {keep} must be detected"
        );
    }
}

/// A correlation set referencing ids outside the MDB (e.g. a stale cache
/// after a store rebuild) fails loading the tracker, leaving it empty.
#[test]
fn stale_correlation_set_fails_closed() {
    use emap::mdb::SetId;
    use emap::search::{SearchHit, SearchWork};
    let stale = emap::search::CorrelationSet::from_candidates(
        vec![SearchHit {
            set_id: SetId(999),
            omega: 0.99,
            beta: 0,
        }],
        10,
        SearchWork::default(),
    );
    let mut tracker = EdgeTracker::new(EdgeConfig::default());
    assert!(tracker.load(&stale, &Mdb::new()).is_err());
    assert!(
        tracker.is_empty(),
        "failed load must not leave partial state"
    );
}

/// Out-of-calibration-range samples survive the EDF round trip by clamping
/// (the codec's documented lossy behavior), never by wrapping or panicking.
#[test]
fn edf_clamps_out_of_range_samples() {
    let rate = SampleRate::new(256.0).expect("valid rate");
    let rec = Recording::builder("p", "r")
        .channel(
            Channel::new("C3", rate, vec![10_000.0, -10_000.0, 0.0, 499.9])
                .expect("non-empty channel"),
        )
        .build()
        .expect("one channel");
    let mut buf = Vec::new();
    rec.write_to(&mut buf).expect("encodes");
    let back = Recording::read_from(&mut buf.as_slice()).expect("decodes");
    let s = back.channels()[0].samples();
    assert!((s[0] - 500.0).abs() < 0.1, "clamped high: {}", s[0]);
    assert!((s[1] + 500.0).abs() < 0.1, "clamped low: {}", s[1]);
    assert!(s[2].abs() < 0.1);
}

/// The streaming monitor propagates pipeline failures without corrupting
/// its buffer: after an error the caller can keep pushing.
#[test]
fn monitor_buffer_survives_rejected_input() {
    use emap::core::StreamingMonitor;
    let mut builder = MdbBuilder::new();
    builder
        .add_recording("d", &RecordingFactory::new(4).normal_recording("r", 24.0))
        .expect("ingest succeeds");
    let mut monitor =
        StreamingMonitor::new(EmapConfig::default(), builder.build()).expect("valid config");

    // 200 good samples buffered…
    monitor.push(&[0.0; 200]).expect("partial push");
    assert_eq!(monitor.buffered(), 200);
    // …then a burst that completes the second: processed normally even
    // though the values are extreme (they are finite).
    let events = monitor
        .push(&[1e30f32; 56])
        .expect("finite extremes are processed");
    assert_eq!(events.len(), 1);
}
