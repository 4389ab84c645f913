//! Shared harness utilities for the per-figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §5 for the full index) and prints the measured series
//! next to the paper's reference values. Set `EMAP_BENCH_QUICK=1` to shrink
//! the workloads for a fast smoke run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use emap_datasets::{registry::standard_registry, RecordingFactory, SignalClass};
use emap_mdb::{Mdb, MdbBuilder};
use emap_search::Query;

/// The seed every reproduction binary uses, so their outputs agree with
/// each other and with `EXPERIMENTS.md`.
pub const BENCH_SEED: u64 = 42;

/// Whether quick mode is active (`EMAP_BENCH_QUICK=1`).
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("EMAP_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Scales a workload count down in quick mode.
#[must_use]
pub fn scaled(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// Builds the standard registry mega-database at `scale` under
/// [`BENCH_SEED`].
///
/// # Panics
///
/// Panics only if the built-in registry specs are invalid (they are tested
/// not to be).
#[must_use]
pub fn build_mdb(scale: usize) -> Mdb {
    let mut builder = MdbBuilder::new();
    for spec in standard_registry(scale) {
        builder
            .add_dataset(&spec.generate(BENCH_SEED))
            .expect("registry datasets are valid");
    }
    builder.build()
}

/// The input factory sharing pattern libraries with [`build_mdb`].
#[must_use]
pub fn input_factory() -> RecordingFactory {
    RecordingFactory::new(BENCH_SEED)
}

/// Builds a filtered one-second query from a recording of `class`,
/// `index` distinct inputs apart, cut `offset_s` seconds into the signal.
///
/// # Panics
///
/// Panics if the recording is too short for the requested offset (callers
/// pass compatible constants).
#[must_use]
pub fn query_for(
    factory: &RecordingFactory,
    class: SignalClass,
    index: usize,
    offset_s: f64,
) -> Query {
    let seconds = offset_s + 4.0;
    let id = format!("bench-input/{}/{index}", class.label());
    let rec = match class {
        SignalClass::Normal => factory.normal_recording(&id, seconds),
        c => factory.anomaly_recording(c, &id, seconds),
    };
    let filtered = emap_dsp::emap_bandpass().filter(rec.channels()[0].samples());
    let start = (offset_s * 256.0) as usize;
    Query::new(&filtered[start..start + 256]).expect("window length is 256 by construction")
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("================================================================");
    println!("{id}");
    println!("paper: {claim}");
    if quick_mode() {
        println!("(EMAP_BENCH_QUICK=1 — reduced workload, expect noisier numbers)");
    }
    println!("================================================================");
}

/// Formats a `Duration` as engineering-friendly text.
#[must_use]
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_mdb_is_deterministic() {
        let a = build_mdb(1);
        let b = build_mdb(1);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn query_builder_produces_valid_queries() {
        let f = input_factory();
        for class in SignalClass::ALL {
            let q = query_for(&f, class, 0, 8.0);
            assert_eq!(q.samples().len(), 256);
        }
    }

    #[test]
    fn scaled_respects_quick_mode_flag() {
        // Cannot mutate the environment safely in tests; just check the
        // pass-through arithmetic for the current mode.
        let v = scaled(100, 5);
        assert!(v == 100 || v == 5);
    }

    #[test]
    fn fmt_duration_ranges() {
        use std::time::Duration;
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with(" ms"));
        assert!(fmt_duration(Duration::from_micros(7)).ends_with(" µs"));
    }
}
