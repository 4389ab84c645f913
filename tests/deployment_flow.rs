//! Capstone integration: the full deployment path a real installation
//! would take, end to end — corpora exported to disk, a mega-database
//! built from those files and snapshotted, a quality-gated pipeline
//! monitoring a seizure patient, and a session report with alarm lead
//! time against the annotated onset.

use std::fs;

use emap::core::SessionReport;
use emap::prelude::*;
use emap_quality::QualityGate;

#[test]
fn hospital_deployment_flow() {
    let seed = 42;
    let base = std::env::temp_dir().join(format!("emap-deploy-{}", std::process::id()));
    fs::remove_dir_all(&base).ok();
    fs::create_dir_all(&base).expect("temp dir");

    // 1. The "hospital archive": corpora exported as .emapedf directories.
    let mut dirs = Vec::new();
    for spec in standard_registry(1) {
        let dir = base.join(spec.id());
        emap::datasets::export::write_dataset_dir(&spec.generate(seed), &dir)
            .expect("export succeeds");
        dirs.push(dir);
    }

    // 2. The cloud ingests the archive and persists a snapshot.
    let mut builder = MdbBuilder::new();
    for dir in &dirs {
        builder.add_edf_dir(dir).expect("ingest succeeds");
    }
    let mdb = builder.build();
    let snapshot_path = base.join("mdb.bin");
    mdb.write_snapshot(std::io::BufWriter::new(
        fs::File::create(&snapshot_path).expect("create snapshot"),
    ))
    .expect("snapshot writes");

    // 3. The service restarts from the snapshot (cold start).
    let mdb = Mdb::read_snapshot(std::io::BufReader::new(
        fs::File::open(&snapshot_path).expect("open snapshot"),
    ))
    .expect("snapshot reads");
    assert!(mdb.len() > 200, "corpus materialized: {} sets", mdb.len());

    // 4. A patient with an annotated seizure onset, recorded to disk and
    //    read back like a device upload would be.
    let factory = RecordingFactory::new(seed);
    let onset_s = 30.0;
    let patient = factory.seizure_recording("ward-7-bed-3", onset_s, 10.0);
    let patient_path = base.join("patient.emapedf");
    patient
        .write_to(std::io::BufWriter::new(
            fs::File::create(&patient_path).expect("create patient file"),
        ))
        .expect("patient file writes");
    let patient = Recording::read_from(std::io::BufReader::new(
        fs::File::open(&patient_path).expect("open patient file"),
    ))
    .expect("patient file reads");
    let onset = patient
        .annotations_labeled(SignalClass::Seizure.label())
        .next()
        .expect("onset annotated");
    assert_eq!(onset.onset_s(), onset_s);

    // 5. Quality-gated monitoring of the full recording.
    let config = EmapConfig::default()
        .with_quality_gate(QualityGate::default())
        .with_edge(EdgeConfig::default().with_h(5).expect("H > 0"))
        .with_cloud_latency_iterations(2);
    let mut pipeline = EmapPipeline::new(config, mdb);
    let trace = pipeline
        .run_on_samples(patient.channels()[0].samples())
        .expect("pipeline runs");

    // 6. The session report: anomalous verdict with positive lead time.
    let report = SessionReport::from_trace(&config, &trace).expect("valid config");
    assert_eq!(report.verdict, Prediction::Anomaly);
    assert_eq!(report.monitored_seconds, 40);
    let lead = report
        .lead_time_s(onset.onset_s() as usize)
        .expect("alarm fired before the onset");
    assert!(
        lead > 0.0,
        "the whole point of EMAP: predict before the event (lead {lead} s)"
    );
    assert!(
        report.data_exposure < 0.5,
        "most of the signal stayed private"
    );

    fs::remove_dir_all(&base).ok();
}
