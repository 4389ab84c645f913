//! Internal calibration probe: prints the similarity-score distributions
//! that the default thresholds are derived from. Not part of the public
//! example set (see the repository-root `examples/` for those).

use emap_core::{EmapConfig, EmapPipeline};
use emap_datasets::{RecordingFactory, SignalClass};
use emap_mdb::MdbBuilder;
use emap_search::{BatchExecutor, Query, ScanKernel, SearchConfig};

fn main() {
    let seed = 42;
    let mut builder = MdbBuilder::new();
    for spec in emap_datasets::registry::standard_registry(3) {
        builder.add_dataset(&spec.generate(seed)).unwrap();
    }
    let mdb = builder.build();
    let stats = mdb.stats();
    println!(
        "MDB: {} sets ({} normal / {} anomalous)",
        stats.total, stats.normal, stats.anomalous
    );

    let factory = RecordingFactory::new(seed);
    let filter = emap_dsp::emap_bandpass();

    // --- Search score distributions per input class ---
    for class in SignalClass::ALL {
        let rec = match class {
            SignalClass::Normal => factory.normal_recording("probe-n", 16.0),
            c => factory.anomaly_recording(c, "probe-a", 16.0),
        };
        let filtered = filter.filter(rec.channels()[0].samples());
        let query = Query::new(&filtered[2048..2304]).unwrap();
        let cfg = SearchConfig::paper().with_delta(0.5).unwrap();
        let t = BatchExecutor::new(ScanKernel::Sliding, cfg)
            .search(&query, &mdb)
            .unwrap();
        let n_anom = t
            .hits()
            .iter()
            .filter(|h| mdb.get(h.set_id).unwrap().is_anomalous())
            .count();
        println!(
            "{class:>16}: hits={} mean_omega={:.3} max={:.3} anomalous_in_top={}",
            t.len(),
            t.mean_omega(),
            t.hits().first().map(|h| h.omega).unwrap_or(0.0),
            n_anom
        );
    }

    // --- ABC distributions: matched vs mismatched ---
    use emap_dsp::area::abs_diff_sum;
    let rec = factory.anomaly_recording(SignalClass::Seizure, "probe-a", 16.0);
    let filtered = filter.filter(rec.channels()[0].samples());
    let query = Query::new(&filtered[2048..2304]).unwrap();
    let t = BatchExecutor::new(
        ScanKernel::Sliding,
        SearchConfig::paper().with_delta(0.5).unwrap(),
    )
    .search(&query, &mdb)
    .unwrap();
    let mut matched = Vec::new();
    for h in t.hits().iter().take(30) {
        let s = mdb.get(h.set_id).unwrap();
        let a = abs_diff_sum(query.samples(), &s.samples()[h.beta..h.beta + 256]);
        matched.push(a);
    }
    matched.sort_by(f64::total_cmp);
    println!(
        "matched ABC: min={:.0} median={:.0} max={:.0}",
        matched.first().unwrap_or(&0.0),
        matched.get(matched.len() / 2).unwrap_or(&0.0),
        matched.last().unwrap_or(&0.0)
    );
    // Random (mismatched) windows:
    let mut mism = Vec::new();
    for (i, s) in mdb.iter().enumerate().step_by(7).take(30) {
        let beta = (i * 37) % 700;
        let a = abs_diff_sum(query.samples(), &s.samples()[beta..beta + 256]);
        mism.push(a);
    }
    mism.sort_by(f64::total_cmp);
    println!(
        "mismatched ABC: min={:.0} median={:.0} max={:.0}",
        mism.first().unwrap_or(&0.0),
        mism.get(mism.len() / 2).unwrap_or(&0.0),
        mism.last().unwrap_or(&0.0)
    );

    // --- P_A trajectories ---
    let config = EmapConfig::default()
        .with_edge(emap_edge::EdgeConfig::default().with_h(10).unwrap())
        .with_cloud_latency_iterations(2);
    let mut pipeline = EmapPipeline::new(config, mdb);
    for class in SignalClass::ALL {
        let raw: Vec<f32> = match class {
            SignalClass::Normal => factory.normal_recording("traj-n", 14.0).channels()[0]
                .samples()
                .to_vec(),
            SignalClass::Seizure => {
                let rec = factory.seizure_recording("traj-s", 200.0, 10.0);
                let end = (200.0 - 15.0) * 256.0;
                rec.channels()[0].samples()[(end as usize - 14 * 256)..end as usize].to_vec()
            }
            c => factory.anomaly_recording(c, "traj-a", 14.0).channels()[0]
                .samples()
                .to_vec(),
        };
        pipeline.reset();
        let trace = pipeline.run_on_samples(&raw).unwrap();
        let pas: Vec<String> = trace
            .iterations
            .iter()
            .map(|o| match o.probability {
                Some(p) => format!("{p:.2}({})", o.tracked),
                None => "-".into(),
            })
            .collect();
        println!(
            "{class:>16}: PA = [{}] calls={}",
            pas.join(" "),
            trace.cloud_calls
        );
    }
}
