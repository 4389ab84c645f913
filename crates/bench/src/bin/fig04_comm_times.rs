//! Fig. 4: transmission times across communication platforms.
//!
//! (a) upload time (µs) for 20–400 samples — 256 samples must take ≲ 1 ms
//!     on 4G-class links;
//! (b) download time (ms) for 20–400 signal-sets — 100 signals must take
//!     ≲ 200 ms;
//! (c) the same link model priced with *measured* wire frames — the
//!     frames a one-patient wearable really receives, delta responses of
//!     one: the 16-bit quantized full refresh (a cold connection, every
//!     hit ships) and a steady-state delta refresh (top-100 membership
//!     unchanged).
//!
//! Section (c) is the wire-diet re-run: Fig. 4b assumes 16-bit samples,
//! and the quantized delta frames ship exactly that on the real wire;
//! the delta steady state shrinks a refresh far enough that sub-Mbit
//! links clear the budget.

use std::time::Duration;

use emap_bench::banner;
use emap_datasets::SignalClass;
use emap_mdb::{SetId, SIGNAL_SET_LEN};
use emap_net::CommTech;
use emap_search::SearchWork;
use emap_wire::{frame_bytes, DeltaHit, DeltaSearchResult, Message, QuantizedSlice};

const TOP_K: usize = 100;
const REALTIME_BUDGET: Duration = Duration::from_millis(200);

/// Encoded frame sizes for one session's top-100 refresh, cold and in
/// steady state, measured by building and framing the actual wire
/// messages: one-query delta responses.
fn refresh_frame_bytes() -> [(&'static str, u64); 2] {
    // Integer-valued samples: native 16-bit EEG, as the store holds it.
    let samples: Vec<f32> = (0..SIGNAL_SET_LEN)
        .map(|i| (i as f32 % 977.0) - 488.0)
        .collect();

    let quantized: Vec<QuantizedSlice> = (0..TOP_K)
        .map(|i| QuantizedSlice::quantize(SetId(i as u64), SignalClass::Seizure, &samples))
        .collect();
    assert!(quantized.iter().all(|q| q.dequantize() == samples));
    let full16 = Message::SearchBatchDeltaResponse {
        slices: quantized,
        results: vec![DeltaSearchResult {
            work: SearchWork::default(),
            hits: (0..TOP_K)
                .map(|i| DeltaHit::New {
                    slice: i as u16,
                    omega: 0.9,
                    beta: i,
                })
                .collect(),
            evicted: Vec::new(),
        }],
    };

    // Steady state: the whole top-100 is retained, nothing ships.
    let delta_steady = Message::SearchBatchDeltaResponse {
        slices: Vec::new(),
        results: vec![DeltaSearchResult {
            work: SearchWork::default(),
            hits: (0..TOP_K)
                .map(|i| DeltaHit::Known {
                    set_id: SetId(i as u64),
                    omega: 0.9,
                    beta: i,
                })
                .collect(),
            evicted: Vec::new(),
        }],
    };

    [
        ("i16 full", frame_bytes(&full16).len() as u64),
        ("i16 delta steady", frame_bytes(&delta_steady).len() as u64),
    ]
}

fn main() {
    banner(
        "Fig. 4 — transmission time across communication platforms",
        "256 samples upload < 1 ms; 100 signals download < 200 ms (4G era)",
    );

    println!("\n(a) upload time (µs) vs number of samples");
    print!("{:>10}", "samples");
    for t in CommTech::ALL {
        print!("{:>10}", t.label());
    }
    println!();
    for n in [20u64, 40, 60, 100, 200, 256, 300, 400] {
        print!("{n:>10}");
        for t in CommTech::ALL {
            print!("{:>10.0}", t.upload_time(n).as_secs_f64() * 1e6);
        }
        if n == 256 {
            print!("   <- one EEG second");
        }
        println!();
    }

    println!("\n(b) download time (ms) vs number of signals");
    print!("{:>10}", "signals");
    for t in CommTech::ALL {
        print!("{:>10}", t.label());
    }
    println!();
    for n in [20u64, 40, 60, 100, 150, 200, 300, 400] {
        print!("{n:>10}");
        for t in CommTech::ALL {
            print!("{:>10.1}", t.download_time(n).as_secs_f64() * 1e3);
        }
        if n == 100 {
            print!("   <- top-100 set");
        }
        println!();
    }

    println!("\nreal-time check at the paper's operating point:");
    for t in CommTech::ALL {
        let up_ok = t.upload_time(256).as_micros() < 1000;
        let down_ok = t.download_time(100).as_millis() < 200;
        println!(
            "  {:<9} upload<1ms: {:<5} download<200ms: {}",
            t.label(),
            up_ok,
            down_ok
        );
    }

    let modes = refresh_frame_bytes();
    println!("\n(c) wire diet — measured frames for one top-100 refresh, download time (ms)");
    print!("{:>22}{:>10}", "mode", "bytes");
    for t in CommTech::ALL {
        print!("{:>10}", t.label());
    }
    println!();
    for (name, bytes) in modes {
        print!("{name:>22}{bytes:>10}");
        for t in CommTech::ALL {
            print!("{:>10.2}", t.download_time_bytes(bytes).as_secs_f64() * 1e3);
        }
        println!();
    }

    println!("\nreal-time viability (refresh download < 200 ms) by transport mode:");
    for (name, bytes) in modes {
        let viable: Vec<&str> = CommTech::ALL
            .iter()
            .filter(|t| t.download_time_bytes(bytes) < REALTIME_BUDGET)
            .map(|t| t.label())
            .collect();
        let need = CommTech::Hspa.required_downlink_mbps(bytes, REALTIME_BUDGET);
        println!(
            "  {:<22} needs >= {:6.2} Mbit/s down; viable: {}",
            name,
            need,
            if viable.len() == CommTech::ALL.len() {
                "all six".to_string()
            } else {
                viable.join(", ")
            }
        );
    }
}
