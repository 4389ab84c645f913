//! Ablation: the exponential skip law `β = α^(ω−1)` vs simpler alternatives
//! (constant stride, linear-in-ω stride). This is the design choice §V-B
//! motivates with Fig. 6 — the ablation quantifies what the exponential
//! shape actually buys.

use emap_bench::{banner, build_mdb, input_factory, scaled};
use emap_datasets::SignalClass;
use emap_search::{skip_for_omega, Query};

#[derive(Clone, Copy, Debug)]
enum SkipLaw {
    /// The paper's `max(1, α^(ω−1))`.
    Exponential,
    /// Fixed stride of the given size.
    Constant(usize),
    /// Linear interpolation: 1 sample at ω = 1 up to 250 at ω = 0.
    Linear,
}

impl SkipLaw {
    fn step(self, omega: f64) -> usize {
        match self {
            SkipLaw::Exponential => skip_for_omega(omega, 0.004),
            SkipLaw::Constant(s) => s,
            SkipLaw::Linear => {
                let w = omega.clamp(0.0, 1.0);
                (((1.0 - w) * 249.0).round() as usize) + 1
            }
        }
    }
}

fn main() {
    banner(
        "Ablation — skip law: exponential vs constant vs linear",
        "the exponential window balances exploration cost against match recall",
    );
    let mdb = build_mdb(scaled(3, 1));
    let factory = input_factory();
    let queries: Vec<Query> = (0..scaled(12, 4))
        .map(|i| emap_bench::query_for(&factory, SignalClass::ALL[i % 4], i, 6.0))
        .collect();
    let delta = 0.8;

    println!(
        "\n{:<16} {:>14} {:>12} {:>14} {:>12}",
        "law", "correlations", "matches", "best ω (avg)", "vs exhaustive"
    );
    let exhaustive_corr: u64 = queries.len() as u64
        * mdb
            .iter()
            .map(|s| (s.samples().len() - 255) as u64)
            .sum::<u64>();

    for law in [
        SkipLaw::Exponential,
        SkipLaw::Constant(3),
        SkipLaw::Constant(50),
        SkipLaw::Constant(250),
        SkipLaw::Linear,
    ] {
        let mut correlations = 0u64;
        let mut matches = 0u64;
        let mut best_sum = 0.0;
        for q in &queries {
            let kernel = q.kernel();
            let mut best = 0.0f64;
            for set in mdb.iter() {
                let host = set.samples();
                let mut beta = 0usize;
                while beta + 256 <= host.len() {
                    let omega = kernel
                        .correlation_at(host, set.stats(), beta)
                        .expect("offset in bounds by loop guard");
                    correlations += 1;
                    if omega > delta {
                        matches += 1;
                    }
                    best = best.max(omega);
                    beta += law.step(omega);
                }
            }
            best_sum += best;
        }
        println!(
            "{:<16} {:>14} {:>12} {:>14.4} {:>11.1}x",
            format!("{law:?}"),
            correlations / queries.len() as u64,
            matches / queries.len() as u64,
            best_sum / queries.len() as f64,
            exhaustive_corr as f64 / correlations as f64
        );
    }
    println!(
        "\nreading: Constant(3) matches the exponential law's recall but costs more;\n\
         Constant(250)/Linear are cheap but miss matches (low best-ω). The\n\
         exponential law is the knee of the cost/recall curve — the paper's point."
    );
}
