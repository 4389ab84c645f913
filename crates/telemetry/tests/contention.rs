//! Registry behaviour under heavy multi-threaded contention.
//!
//! The record path is pure relaxed atomics, so two properties must hold no
//! matter how threads interleave: (1) nothing is lost — after joining, the
//! totals are exact; (2) snapshots taken *while* writers run are monotone —
//! a later snapshot never shows a smaller count than an earlier one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use emap_telemetry::{MetricValue, Registry};

const THREADS: usize = 8;
const ITERS: u64 = 20_000;

#[test]
fn exact_totals_from_eight_threads() {
    let registry = Registry::new();
    let counter = registry.counter("hammer_total");
    let gauge = registry.gauge("hammer_level");
    let hist = registry.histogram("hammer_nanos");

    thread::scope(|s| {
        for t in 0..THREADS {
            let counter = counter.clone();
            let gauge = gauge.clone();
            let hist = hist.clone();
            s.spawn(move || {
                for i in 0..ITERS {
                    counter.inc();
                    gauge.inc();
                    // Spread observations across several buckets.
                    hist.observe(1 + (t as u64 * ITERS + i) % 1_000_000);
                    if i % 2 == 0 {
                        gauge.dec();
                    }
                }
            });
        }
    });

    assert_eq!(counter.get(), THREADS as u64 * ITERS);
    // Each thread nets ITERS - ITERS/2 increments (every even i is undone).
    assert_eq!(gauge.get(), (THREADS as u64 * (ITERS - ITERS / 2)) as i64);
    let snap = hist.snapshot();
    assert_eq!(snap.count(), THREADS as u64 * ITERS);
    assert!(snap.p50() > 0.0 && snap.p50() <= snap.p99());
}

#[test]
fn snapshots_are_monotone_while_writers_run() {
    let registry = Registry::new();
    let counter = registry.counter("mono_total");
    let hist = registry.histogram("mono_nanos");
    let stop = Arc::new(AtomicBool::new(false));

    thread::scope(|s| {
        for _ in 0..THREADS {
            let counter = counter.clone();
            let hist = hist.clone();
            s.spawn(move || {
                for i in 0..ITERS {
                    counter.inc();
                    hist.observe(i + 1);
                }
            });
        }

        // Reader thread: successive snapshots must never go backwards.
        let reader = {
            let registry = registry.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut last_counter = 0u64;
                let mut last_hist = 0u64;
                let mut rounds = 0u64;
                // At least one round even if the writers finish before
                // this thread is first scheduled.
                while rounds == 0 || !stop.load(Ordering::Relaxed) {
                    for m in registry.snapshot() {
                        match (m.name.as_str(), &m.value) {
                            ("mono_total", MetricValue::Counter(v)) => {
                                assert!(*v >= last_counter, "counter went backwards");
                                last_counter = *v;
                            }
                            ("mono_nanos", MetricValue::Histogram(h)) => {
                                assert!(h.count() >= last_hist, "histogram went backwards");
                                last_hist = h.count();
                            }
                            _ => {}
                        }
                    }
                    rounds += 1;
                }
                rounds
            })
        };

        // Writers finish when the scope would join them; signal the reader
        // once a final exact snapshot is guaranteed observable.
        while counter.get() < THREADS as u64 * ITERS {
            thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let rounds = reader.join().expect("reader panicked");
        assert!(rounds > 0, "reader never snapshotted");
    });

    assert_eq!(counter.get(), THREADS as u64 * ITERS);
    assert_eq!(hist.snapshot().count(), THREADS as u64 * ITERS);
}
