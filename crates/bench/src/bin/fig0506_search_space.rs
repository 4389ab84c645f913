//! Figs. 5 & 6: the search-space explosion of exhaustive correlation and
//! the sliding-window walk that tames it.
//!
//! Fig. 5: one 256-sample input against one 1000-sample signal-set needs
//! 744 (with the inclusive final offset: 745) evaluations at stride 1, and
//! the MDB multiplies that by its set count. Fig. 6 illustrates the
//! exponential skip: low ω ⇒ long jumps, high ω ⇒ fine steps. This binary
//! prints both, with the actual offset walk of Algorithm 1 over one
//! signal-set.

use emap_bench::{banner, build_mdb, input_factory, scaled};
use emap_datasets::SignalClass;
use emap_mdb::SignalSet;
use emap_search::skip_for_omega;

fn main() {
    banner(
        "Figs. 5 & 6 — search-space explosion and the sliding-window walk",
        "745 offsets per signal-set exhaustively; β = α^(ω−1) visits far fewer",
    );

    // --- Fig. 5: the explosion -------------------------------------------
    println!("\nFig. 5 — exhaustive offsets per corpus size:");
    println!(
        "{:>12} {:>18} {:>22}",
        "signal-sets", "offsets/set", "total correlations"
    );
    for sets in [1usize, 100, 1000, 8000, 100_000] {
        let per_set = 1000 - 256 + 1;
        println!(
            "{sets:>12} {per_set:>18} {:>22}",
            sets as u64 * per_set as u64
        );
    }

    // --- Fig. 6: one actual walk ------------------------------------------
    let mdb = build_mdb(scaled(1, 1));
    let factory = input_factory();
    let query = emap_bench::query_for(&factory, SignalClass::Seizure, 0, 6.0);
    // The exact ω the sweep resolves, from the set's cached statistics.
    let kernel = query.kernel();
    let omega_at = |s: &SignalSet, beta: usize| {
        let omega = kernel.correlation_at(s.samples(), s.stats(), beta);
        omega.expect("in bounds")
    };

    // Pick the signal-set with the best match so the walk shows both modes.
    let (best_set, _) = mdb
        .iter_with_ids()
        .map(|(id, s)| {
            let best = (0..=(s.samples().len() - 256))
                .step_by(8)
                .map(|o| omega_at(s, o))
                .fold(0.0f64, f64::max);
            (id, best)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty corpus");
    let set = mdb.get(best_set).expect("id from iteration");
    let host = set.samples();

    println!("\nFig. 6 — Algorithm 1 walk over signal-set {best_set} (α = 0.004):");
    println!("{:>8} {:>8} {:>8}  note", "offset", "ω", "skip");
    let mut beta = 0usize;
    let mut visited = 0usize;
    while beta <= host.len() - 256 {
        let omega = omega_at(set, beta);
        let skip = skip_for_omega(omega, 0.004);
        visited += 1;
        let note = if skip <= 2 {
            "<- fine step (high correlation)"
        } else if skip >= 100 {
            "<- long jump (dissimilar)"
        } else {
            ""
        };
        if visited <= 25 || skip <= 2 {
            println!("{beta:>8} {omega:>8.3} {skip:>8}  {note}");
        } else if visited == 26 {
            println!("     ... (walk continues)");
        }
        beta += skip;
    }
    println!(
        "\nvisited {visited} of 745 offsets ({:.1}% of the exhaustive scan)",
        visited as f64 / 745.0 * 100.0
    );
    println!("low ω ⇒ jumps up to 250 samples; near a match the walk slows to single steps");
}
