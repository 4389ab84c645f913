//! Real-time budget analysis: can the cloud-edge split actually meet the
//! paper's timing constraints on a given link technology and edge device?
//!
//! Reproduces the reasoning of §V-A/§V-C and Fig. 9: upload < 1 ms,
//! download < 200 ms, per-iteration tracking < 1 s, and the ~3 s initial
//! overhead, across all six link technologies of Fig. 4.
//!
//! ```sh
//! cargo run --release --example edge_budget
//! ```

use emap::core::timeline::{MeteredCloud, Timeline};
use emap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build a realistic MDB and capture one pipeline trace so the timing
    // models work from *measured* operation counts, not guesses.
    let seed = 42;
    let mut builder = MdbBuilder::new();
    for spec in standard_registry(2) {
        builder.add_dataset(&spec.generate(seed))?;
    }
    let mdb = builder.build().into_shared();
    let factory = RecordingFactory::new(seed);
    let patient = factory.seizure_recording("budget-patient", 40.0, 10.0);

    println!("link      upload(256 samp)  download(100 sets)  Δ_initial   budgets met");
    for comm in CommTech::ALL {
        let config = EmapConfig::default().with_comm(comm);
        let cloud = CloudService::new(config.search(), mdb.clone(), 1);
        let mut pipeline = EmapPipeline::with_cloud(config, MeteredCloud::new(cloud));
        let trace = pipeline.run_on_samples(patient.channels()[0].samples())?;
        let timeline = Timeline::from_trace(&config, &trace, &pipeline.cloud().searches.borrow());
        let latency = timeline
            .initial_latency()
            .expect("the run performs at least one cloud call");
        println!(
            "{:<9} {:>12.3} ms {:>15.1} ms {:>9.2} s   {}",
            comm.label(),
            comm.upload_time(256).as_secs_f64() * 1e3,
            comm.download_time(100).as_secs_f64() * 1e3,
            latency.total().as_secs_f64(),
            if latency.meets_comm_budgets() {
                "yes"
            } else {
                "NO"
            },
        );
    }

    // Edge tracking budget (Fig. 8b): both metrics, growing tracked sets.
    println!("\ntracked signals   area-between-curves   cross-correlation   ratio");
    for n in [50u64, 100, 200, 400] {
        let abc = Device::EdgeRpi.tracking_time(n, TrackingMetric::AreaBetweenCurves);
        let xc = Device::EdgeRpi.tracking_time(n, TrackingMetric::CrossCorrelation);
        println!(
            "{n:>15} {:>18.0} ms {:>17.0} ms {:>7.1}x",
            abc.as_secs_f64() * 1e3,
            xc.as_secs_f64() * 1e3,
            xc.as_secs_f64() / abc.as_secs_f64()
        );
    }
    println!(
        "\nThe paper's deployment point — 100 tracked signals with the area metric —\n\
         is the only configuration that stays inside the one-second iteration budget\n\
         on the Raspberry Pi class edge device."
    );
    Ok(())
}
