//! Cross-crate storage interop: recordings survive the EDF-style codec and
//! mega-databases survive snapshotting, with identical downstream search
//! behavior.

use emap::prelude::*;

#[test]
fn edf_roundtripped_recording_yields_equivalent_searches() {
    let factory = RecordingFactory::new(11);
    let rec = factory.anomaly_recording(SignalClass::Seizure, "interop-a", 24.0);

    // Round-trip the recording through the binary container.
    let mut buf = Vec::new();
    rec.write_to(&mut buf).expect("recording encodes");
    let decoded = Recording::read_from(&mut buf.as_slice()).expect("recording decodes");

    // Build one MDB from each version.
    let mut b1 = MdbBuilder::new();
    b1.add_recording("d", &rec).expect("ingest original");
    let mdb_orig = b1.build();
    let mut b2 = MdbBuilder::new();
    b2.add_recording("d", &decoded).expect("ingest decoded");
    let mdb_dec = b2.build();
    assert_eq!(mdb_orig.len(), mdb_dec.len());
    assert_eq!(mdb_orig.stats(), mdb_dec.stats());

    // The same query must find essentially the same best match in both:
    // 16-bit quantization may perturb ω only marginally.
    let filtered = emap_bandpass().filter(rec.channels()[0].samples());
    let query = Query::new(&filtered[2048..2304]).expect("window is 256 samples");
    let search = BatchExecutor::new(ScanKernel::Sliding, SearchConfig::paper());
    let orig = search.search(&query, &mdb_orig).expect("search original");
    let dec = search.search(&query, &mdb_dec).expect("search decoded");
    assert!(!orig.is_empty() && !dec.is_empty());
    assert!(
        (orig.hits()[0].omega - dec.hits()[0].omega).abs() < 0.01,
        "ω drifted: {} vs {}",
        orig.hits()[0].omega,
        dec.hits()[0].omega
    );
    assert_eq!(orig.hits()[0].set_id, dec.hits()[0].set_id);
}

#[test]
fn snapshotted_mdb_searches_identically() {
    let factory = RecordingFactory::new(13);
    let mut builder = MdbBuilder::new();
    for i in 0..4 {
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
    let mdb = builder.build();

    let mut snapshot = Vec::new();
    mdb.write_snapshot(&mut snapshot).expect("snapshot writes");
    let restored = Mdb::read_snapshot(&mut snapshot.as_slice()).expect("snapshot reads");
    assert_eq!(mdb.len(), restored.len());

    let rec = factory.anomaly_recording(SignalClass::Stroke, "a0", 24.0);
    let filtered = emap_bandpass().filter(rec.channels()[0].samples());
    let query = Query::new(&filtered[1024..1280]).expect("window is 256 samples");
    let search = BatchExecutor::new(ScanKernel::Sliding, SearchConfig::paper());
    let before = search.search(&query, &mdb).expect("search original");
    let after = search.search(&query, &restored).expect("search restored");
    assert_eq!(before.hits(), after.hits());
    assert_eq!(before.work(), after.work());
}

#[test]
fn shared_mdb_serves_concurrent_searches() {
    use std::thread;

    let factory = RecordingFactory::new(17);
    let mut builder = MdbBuilder::new();
    for i in 0..3 {
        builder
            .add_recording("d", &factory.normal_recording(&format!("n{i}"), 24.0))
            .expect("ingest");
    }
    let shared = builder.build().into_shared();

    let queries: Vec<Query> = (0..4)
        .map(|i| {
            let rec = factory.normal_recording(&format!("q{i}"), 8.0);
            let filtered = emap_bandpass().filter(rec.channels()[0].samples());
            Query::new(&filtered[512..768]).expect("window is 256 samples")
        })
        .collect();

    thread::scope(|scope| {
        for q in &queries {
            let shared = shared.clone();
            scope.spawn(move || {
                let result = shared.with_read(|mdb| {
                    BatchExecutor::new(ScanKernel::Sliding, SearchConfig::paper())
                        .search(q, mdb)
                        .expect("search succeeds")
                });
                assert!(result.work().sets_scanned > 0);
            });
        }
    });
}
