//! Fig. 7b: exploration time of the exhaustive search vs Algorithm 1 for a
//! growing number of signal-sets.
//!
//! Paper: ~6.8× average reduction in exploration time; both scale linearly
//! in the number of signal-sets. Both searches are measured here *as
//! served* — behind the same envelope bound and rising top-K floor (DESIGN
//! §12) — and the bound spares the exhaustive kernel more the larger the
//! store: Algorithm 1 is ~1.4× cheaper at 1000 sets and *dearer* (~0.85×)
//! at 8000, so neither side is linear and there is no one winner. The
//! verdict is therefore printed per store size, never as an average; the
//! paper's claim on the raw scans is held by `crates/search/tests` and
//! `tests/paper_claims.rs` (see EXPERIMENTS.md "Fig. 7b"). The last column
//! is what the store keeps resident at that size.

use std::time::Instant;

use emap_bench::{banner, build_mdb, fmt_duration, input_factory, scaled};
use emap_datasets::SignalClass;
use emap_mdb::Mdb;
use emap_net::Device;
use emap_search::{BatchExecutor, ScanKernel, SearchConfig};

fn main() {
    banner(
        "Fig. 7b — exploration time: exhaustive vs Algorithm 1",
        "~6.8× average reduction, linear scaling over 1000–8000 signal-sets",
    );
    // Build the largest MDB once, then evaluate growing prefixes.
    let full = build_mdb(scaled(33, 4));
    println!("full corpus: {} signal-sets", full.len());
    let factory = input_factory();
    let queries: Vec<_> = (0..scaled(6, 2))
        .map(|i| emap_bench::query_for(&factory, SignalClass::ALL[i % 4], i, 6.0))
        .collect();

    let sizes: Vec<usize> = [1000usize, 2000, 4000, 8000]
        .iter()
        .copied()
        .filter(|&n| n <= full.len())
        .collect();

    println!(
        "\n{:>8} {:>22} {:>22} {:>10} {:>12} {:>9}",
        "sets",
        "exhaustive (model/wall)",
        "algorithm1 (model/wall)",
        "reduction",
        "cheaper",
        "resident"
    );
    for &n in &sizes {
        let mdb: Mdb = full.iter().take(n).cloned().collect();
        let cfg = SearchConfig::paper();

        let mut ex_corr = 0u64;
        let started = Instant::now();
        for q in &queries {
            ex_corr += BatchExecutor::new(ScanKernel::Exhaustive, cfg)
                .search(q, &mdb)
                .expect("search succeeds")
                .work()
                .correlations;
        }
        let ex_wall = started.elapsed() / queries.len() as u32;

        let mut sl_corr = 0u64;
        let started = Instant::now();
        for q in &queries {
            sl_corr += BatchExecutor::new(ScanKernel::Sliding, cfg)
                .search(q, &mdb)
                .expect("search succeeds")
                .work()
                .correlations;
        }
        let sl_wall = started.elapsed() / queries.len() as u32;

        let ex_model = Device::CloudServer.search_time(ex_corr / queries.len() as u64);
        let sl_model = Device::CloudServer.search_time(sl_corr / queries.len() as u64);
        let reduction = ex_corr as f64 / sl_corr as f64;
        println!(
            "{:>8} {:>11} /{:>9} {:>11} /{:>9} {:>9.2}x {:>12} {:>5.0} MiB",
            n,
            fmt_duration(ex_model),
            fmt_duration(ex_wall),
            fmt_duration(sl_model),
            fmt_duration(sl_wall),
            reduction,
            if reduction > 1.0 {
                "Algorithm 1"
            } else {
                "exhaustive"
            },
            mdb.stats().resident_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    println!("\nreduction = exhaustive / Algorithm 1 correlation evaluations, both as served");
    println!(
        "paper: ~6.8x at every size — EXPERIMENTS.md \"Fig. 7b\" has why it differs and falls"
    );
}
