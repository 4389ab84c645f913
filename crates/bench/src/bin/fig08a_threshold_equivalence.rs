//! Fig. 8a: number of matches obtained under the cross-correlation
//! threshold `δ` vs the area-between-curves threshold `δ_A`.
//!
//! Paper: matches under δ_A ≈ 900 sq. units roughly equal matches under
//! δ = 0.8, establishing the edge tracker's threshold. The synthetic
//! corpus has its own amplitude scale, so the *equivalent* δ_A differs in
//! absolute value; this binary derives it the same way the paper does and
//! the derived value is what `EdgeConfig::default` ships.

use emap_bench::{banner, build_mdb, input_factory, scaled};
use emap_datasets::SignalClass;
use emap_dsp::area::abs_diff_sum;
use emap_search::{BatchExecutor, ScanKernel, SearchConfig};

fn main() {
    banner(
        "Fig. 8a — matches under δ (cross-correlation) vs δ_A (area)",
        "δ_A ≈ 900 sq. units is equivalent to δ = 0.8 on the paper's corpus",
    );
    let mdb = build_mdb(scaled(2, 1));
    let factory = input_factory();
    let queries: Vec<_> = (0..scaled(8, 2))
        .map(|i| emap_bench::query_for(&factory, SignalClass::ALL[i % 4], i, 6.0))
        .collect();

    // Count matches under each correlation threshold (exhaustive scan so
    // thresholds are comparable) …
    println!("\ncross-correlation threshold sweep:");
    println!("{:>8} {:>14}", "delta", "avg matches");
    let mut matches_at_08 = 0.0;
    for delta in [0.7, 0.8, 0.9, 0.95, 0.97] {
        let cfg = SearchConfig::paper()
            .with_delta(delta)
            .expect("sweep values valid")
            .with_dedup_per_set(false);
        let mut total = 0u64;
        for q in &queries {
            total += BatchExecutor::new(ScanKernel::Exhaustive, cfg)
                .search(q, &mdb)
                .expect("search succeeds")
                .work()
                .matches;
        }
        let avg = total as f64 / queries.len() as f64;
        if (delta - 0.8).abs() < 1e-9 {
            matches_at_08 = avg;
        }
        println!("{delta:>8} {avg:>14.0}");
    }

    // … then count windows under each area threshold.
    println!("\narea-between-curves threshold sweep:");
    println!("{:>8} {:>14}", "delta_A", "avg matches");
    let mut best: Option<(f64, f64)> = None;
    for delta_a in [1000.0, 2000.0, 3000.0, 3800.0, 5000.0, 6500.0, 8000.0] {
        let mut total = 0u64;
        for q in &queries {
            for set in mdb.iter() {
                let host = set.samples();
                for beta in 0..=(host.len() - 256) {
                    let area = abs_diff_sum(q.samples(), &host[beta..beta + 256]);
                    if area < delta_a {
                        total += 1;
                    }
                }
            }
        }
        let avg = total as f64 / queries.len() as f64;
        let dist = (avg - matches_at_08).abs();
        if best.is_none_or(|(_, d)| dist < d) {
            best = Some((delta_a, dist));
        }
        println!("{delta_a:>8} {avg:>14.0}");
    }

    if let Some((delta_a, _)) = best {
        println!(
            "\nmatch-count parity (the paper's Fig. 8a criterion): δ_A ≈ {delta_a:.0} yields the\n\
             count closest to δ = 0.8 ({matches_at_08:.0} matches) — the paper's corpus lands at ≈ 900."
        );
        println!(
            "EdgeConfig::default ships δ_A = 3800, derived from the stricter *retention*\n\
             criterion (keep same-pattern matches, prune cross-pattern ones; see\n\
             EXPERIMENTS.md) — both derivations and their gap are reported there."
        );
    }
}
