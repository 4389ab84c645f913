//! Ablation: the ω normalization. `DESIGN.md` §3 argues the paper's numbers
//! only line up if ω is computed on min–max normalized windows; this
//! ablation runs the same search with the textbook zero-mean NCC instead
//! and shows why that reading fails (the skip window overshoots and recall
//! collapses).

use emap_bench::{banner, build_mdb, input_factory, scaled};
use emap_datasets::SignalClass;
use emap_dsp::similarity::normalized_cross_correlation;
use emap_search::{skip_for_omega, BatchExecutor, Query, ScanKernel, SearchConfig};

fn main() {
    banner(
        "Ablation — ω normalization: min–max (ours) vs zero-mean NCC",
        "zero-mean ω ≈ 0 off-match → 250-sample skips → matches leapt over",
    );
    let mdb = build_mdb(scaled(3, 1));
    let factory = input_factory();
    let queries: Vec<Query> = (0..scaled(12, 4))
        .map(|i| emap_bench::query_for(&factory, SignalClass::ALL[i % 4], i, 6.0))
        .collect();
    let delta = 0.8;

    // Min–max normalization: the shipped sliding kernel.
    let search = BatchExecutor::new(ScanKernel::Sliding, SearchConfig::paper());
    let mut mm_corr = 0u64;
    let mut mm_found = 0usize;
    let mut mm_best = 0.0f64;
    for q in &queries {
        let t = search.search(q, &mdb).expect("search succeeds");
        mm_corr += t.work().correlations;
        if !t.is_empty() {
            mm_found += 1;
            mm_best += t.hits()[0].omega;
        }
    }

    // Zero-mean NCC with the identical skip law.
    let mut zm_corr = 0u64;
    let mut zm_found = 0usize;
    let mut zm_best = 0.0f64;
    for q in &queries {
        let mut best = f64::MIN;
        let mut any = false;
        for set in mdb.iter() {
            let host = set.samples();
            let mut beta = 0usize;
            while beta + 256 <= host.len() {
                let omega = normalized_cross_correlation(q.samples(), &host[beta..beta + 256])
                    .expect("one second against one second");
                zm_corr += 1;
                if omega > delta {
                    any = true;
                }
                best = best.max(omega);
                beta += skip_for_omega(omega, 0.004);
            }
        }
        if any {
            zm_found += 1;
            zm_best += best;
        }
    }

    let n = queries.len();
    println!(
        "\n{:<22} {:>14} {:>18} {:>14}",
        "normalization", "correlations", "queries w/ match", "avg best ω"
    );
    println!(
        "{:<22} {:>14} {:>15}/{n} {:>14.4}",
        "min–max (paper-read)",
        mm_corr / n as u64,
        mm_found,
        mm_best / mm_found.max(1) as f64
    );
    println!(
        "{:<22} {:>14} {:>15}/{n} {:>14.4}",
        "zero-mean NCC",
        zm_corr / n as u64,
        zm_found,
        zm_best / zm_found.max(1) as f64
    );
    println!(
        "\nreading: zero-mean ω does far fewer correlations (huge skips) but loses\n\
         matches — inconsistent with the paper's 6.8× + no-quality-loss claims,\n\
         which is the evidence for the min–max reading (DESIGN.md §3)."
    );
}
