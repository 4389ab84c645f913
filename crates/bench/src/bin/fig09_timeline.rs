//! Fig. 9: timing analysis of the full framework — the ~3 s initial
//! overhead, one-second tracking iterations inside the real-time budget,
//! and background cloud re-searches that complete while tracking continues.

use emap_bench::{banner, build_mdb, fmt_duration, input_factory, scaled};
use emap_core::timeline::{MeteredCloud, Timeline, TimelineEvent};
use emap_core::{CloudService, EmapConfig, EmapPipeline};

fn main() {
    banner(
        "Fig. 9 — timing analysis of the EMAP framework",
        "Δ_initial ≈ 3 s; tracking < 1 s per iteration; cloud re-search every ~5 iterations",
    );
    // Δ_CS scales with the MDB; the paper's ~3 s corresponds to its full
    // mega-database, so this figure runs at a paper-scale corpus.
    let mdb = build_mdb(scaled(25, 1));

    let factory = input_factory();
    let patient = factory.seizure_recording("fig9-patient", 25.0, 8.0);

    let config = EmapConfig::default();
    let cloud = MeteredCloud::new(CloudService::new(config.search(), mdb.into_shared(), 1));
    let mut pipeline = EmapPipeline::with_cloud(config, cloud);
    let trace = pipeline
        .run_on_samples(patient.channels()[0].samples())
        .expect("pipeline run succeeds");
    let timeline = Timeline::from_trace(&config, &trace, &pipeline.cloud().searches.borrow());

    println!("\nt [s]  event");
    for event in &timeline.events {
        match event {
            TimelineEvent::SamplingComplete { iteration } => {
                println!(
                    "{:>5}  sampling window t{} complete",
                    iteration + 1,
                    iteration
                );
            }
            TimelineEvent::CloudCallIssued { iteration, upload } => {
                println!(
                    "{:>5}  ↑ second transmitted to cloud (Δ_EC = {})",
                    iteration + 1,
                    fmt_duration(*upload)
                );
            }
            TimelineEvent::CorrelationSetInstalled { iteration, latency } => {
                println!(
                    "{:>5}  ↓ correlation set installed (Δ_EC {} + Δ_CS {} + Δ_CE {} = {})",
                    iteration + 1,
                    fmt_duration(latency.upload),
                    fmt_duration(latency.search),
                    fmt_duration(latency.download),
                    fmt_duration(latency.total())
                );
            }
            TimelineEvent::TrackingComplete {
                iteration,
                probability,
                tracked,
                duration,
            } => {
                println!(
                    "{:>5}  tracking iteration I{} — P_A {:.2}, {} tracked, {} on the edge",
                    iteration + 1,
                    iteration,
                    probability,
                    tracked,
                    fmt_duration(*duration)
                );
            }
        }
    }

    println!("\nsummary:");
    if let Some(lat) = timeline.initial_latency() {
        println!(
            "  Δ_initial = {} (paper: ~3 s) — comm budgets met: {}",
            fmt_duration(lat.total()),
            lat.meets_comm_budgets()
        );
    }
    println!(
        "  tracking within 1 s real-time budget: {}",
        timeline.tracking_is_realtime()
    );
    let calls = timeline.cloud_call_iterations();
    let cadence: Vec<usize> = calls.windows(2).map(|w| w[1] - w[0]).collect();
    println!("  cloud calls at iterations {calls:?} (cadence {cadence:?}, paper: ~every 5)");
}
