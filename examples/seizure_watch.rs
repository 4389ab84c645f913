//! Seizure watch: the paper's motivating scenario (§I) — a patient prone to
//! seizures is monitored continuously; the framework must raise the alarm
//! *before* the seizure, with as much lead time as possible.
//!
//! This example sweeps the prediction horizon like Fig. 10: for each
//! horizon, the pipeline only sees the signal up to `horizon` seconds
//! before the annotated onset, and we check whether it already predicts.
//!
//! ```sh
//! cargo run --release --example seizure_watch
//! ```

use emap::core::eval::EvalHarness;
use emap::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 42;
    let mut harness = EvalHarness::from_registry(EmapConfig::default(), seed, 2);
    println!(
        "mega-database: {} signal-sets; window per decision: {:.0} s\n",
        harness.cloud().mdb().len(),
        harness.window_s()
    );

    println!("horizon  prediction for 6 at-risk patients        hit-rate");
    for horizon_s in [15.0, 30.0, 45.0, 60.0, 120.0] {
        let batch = harness.evaluate_anomaly_batch(
            SignalClass::Seizure,
            &format!("watch-{horizon_s}"),
            6,
            horizon_s,
        )?;
        let marks: String = batch
            .cases
            .iter()
            .map(|c| if c.prediction.is_anomaly() { '!' } else { '.' })
            .collect();
        println!(
            "{horizon_s:>5.0} s  [{marks}]  final P_A: {:?}   {:>5.1} %",
            batch
                .cases
                .iter()
                .map(|c| (c.final_pa * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            batch.accuracy() * 100.0
        );
    }

    // A healthy control group: nobody should trip the alarm.
    let control = harness.evaluate_normal_batch("watch-control", 6)?;
    let false_alarms = control
        .cases
        .iter()
        .filter(|c| c.prediction.is_anomaly())
        .count();
    println!(
        "\ncontrol group: {false_alarms}/6 false alarms (paper reports ~15 % false positives)"
    );
    Ok(())
}
