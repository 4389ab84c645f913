//! Fig. 7a: step-size (α) sweep — number of matches, exploration time, and
//! average top-100 cross-correlation.
//!
//! Paper: correlation saturates beyond α = 0.004 (only +0.02 %–1.12 %
//! beyond it), which is why the framework pins α = 0.004 to bound the
//! initial overhead.

use std::time::Instant;

use emap_bench::{banner, build_mdb, fmt_duration, input_factory, scaled};
use emap_datasets::SignalClass;
use emap_net::Device;
use emap_search::{BatchExecutor, ScanKernel, SearchConfig};

fn main() {
    banner(
        "Fig. 7a — α sweep: matches, exploration time, avg top-100 ω",
        "avg correlation saturates at α = 0.004 (+1.12 % to 0.004, +0.02 % beyond)",
    );
    let mdb = build_mdb(scaled(3, 1));
    let factory = input_factory();
    let n_queries = scaled(12, 3);
    let queries: Vec<_> = (0..n_queries)
        .map(|i| {
            let class = SignalClass::ALL[i % 4];
            emap_bench::query_for(&factory, class, i, 6.0)
        })
        .collect();

    println!(
        "\n{:>8} {:>10} {:>14} {:>14} {:>12}",
        "alpha", "matches", "correlations", "expl. time*", "avg top-100 ω"
    );
    let mut prev_omega: Option<f64> = None;
    for alpha in [0.0008, 0.001, 0.002, 0.004, 0.007, 0.01, 0.015] {
        let cfg = SearchConfig::paper()
            .with_alpha(alpha)
            .expect("sweep values are valid");
        let search = BatchExecutor::new(ScanKernel::Sliding, cfg);
        let mut matches = 0u64;
        let mut correlations = 0u64;
        let mut omega_sum = 0.0;
        let started = Instant::now();
        for q in &queries {
            let t = search.search(q, &mdb).expect("search succeeds");
            matches += t.work().matches;
            correlations += t.work().correlations;
            omega_sum += t.mean_omega();
        }
        let wall = started.elapsed() / n_queries as u32;
        let avg_omega = omega_sum / n_queries as f64;
        let modeled = Device::CloudServer.search_time(correlations / n_queries as u64);
        let delta = prev_omega.map(|p| format!("{:+.2} %", (avg_omega - p) / p * 100.0));
        println!(
            "{:>8} {:>10} {:>14} {:>7} ({:>6}) {:>12.4} {}",
            alpha,
            matches / n_queries as u64,
            correlations / n_queries as u64,
            fmt_duration(modeled),
            fmt_duration(wall),
            avg_omega,
            delta.unwrap_or_default()
        );
        prev_omega = Some(avg_omega);
    }
    println!("\n* modeled on the paper's cloud device; wall-clock on this host in parentheses");
    println!("expected shape: matches and time grow with α; ω gains shrink past 0.004");
}
