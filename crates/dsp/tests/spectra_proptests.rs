//! Property-based admissibility tests for the envelope lower-bound index.
//!
//! The indexed sweep in `emap-search` skips hosts whose envelope bound
//! falls below the running top-K floor; that is only sound if **no** true
//! window correlation of the host ever exceeds the bound. These tests pin
//! admissibility over the awkward shapes a real corpus produces: hosts
//! shorter than a single envelope block (or shorter than the query), flat
//! constant hosts, and query lengths that land exactly on group boundaries.

use emap_dsp::kernel::{HostStats, KernelCorrelator};
use emap_dsp::spectra::{HostSpectra, QuerySpectrum, COARSE_GROUP, FINE_GROUP};
use emap_testkit::prelude::*;

fn signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-40.0f32..40.0, len)
}

fn spectra_of(host: &[f32], window: usize) -> HostSpectra {
    HostSpectra::new(host, &HostStats::new(host), window)
}

fn spectrum_of(query: &[f32]) -> QuerySpectrum {
    QuerySpectrum::new(&KernelCorrelator::new(query).expect("non-empty query"))
}

/// Checks every offset of `host` against both bound resolutions and the
/// per-group fine bounds, using the same kernel `ω` the search scans with.
fn assert_admissible(host: &[f32], query: &[f32]) -> Result<(), TestCaseError> {
    let kernel = KernelCorrelator::new(query).expect("non-empty query");
    let spectrum = QuerySpectrum::new(&kernel);
    let spectra = spectra_of(host, query.len());
    let fine = spectra.fine_bound(&spectrum);
    let coarse = spectra.coarse_bound(&spectrum);
    prop_assert!(
        fine <= coarse,
        "fine bound {fine} above coarse bound {coarse}"
    );
    if host.len() < query.len() {
        // No window exists: both bounds are exactly the always-prunable 0.
        prop_assert_eq!(coarse, 0.0);
        prop_assert_eq!(fine, 0.0);
        return Ok(());
    }
    let stats = HostStats::new(host);
    for (group, (offsets, group_bound)) in spectra.fine_bounds(&spectrum, |_| true).enumerate() {
        prop_assert!(
            group_bound <= fine,
            "group {group}: bound {group_bound} above host fine bound {fine}"
        );
        for beta in offsets {
            let omega = kernel
                .correlation_at(host, &stats, beta)
                .expect("offset in range");
            prop_assert!(
                omega <= group_bound,
                "β {beta}: ω {omega} above group bound {group_bound}"
            );
            prop_assert!(omega <= fine, "β {beta}: ω {omega} above fine bound {fine}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary hosts and query lengths: the bound dominates every true
    /// window correlation at both resolutions.
    #[test]
    fn bound_is_admissible_for_arbitrary_hosts(
        host in signal(1..300),
        query in signal(4..48),
    ) {
        assert_admissible(&host, &query)?;
    }

    /// The windows the store and the figure binaries build envelopes for —
    /// 16 to 256 samples, powers of two or not — read their extrema from
    /// whichever `HostStats` level holds them, and stay admissible.
    #[test]
    fn bound_is_admissible_for_windows_up_to_a_second(
        host in signal(16..700),
        window in 16usize..=256,
        seed in 0.0f32..10.0,
    ) {
        let query: Vec<f32> = (0..window)
            .map(|i| (i as f32 * 0.29 + seed).sin() * 14.0 + (i as f32 * 0.61).cos() * 6.0)
            .collect();
        assert_admissible(&host, &query)?;
    }

    /// Hosts shorter than the query — including hosts shorter than a
    /// single envelope block — have no windows, and both bounds collapse
    /// to the always-prunable exact 0.
    #[test]
    fn short_hosts_bound_to_zero(host in signal(1..32), extra in 1usize..64) {
        let query: Vec<f32> = (0..host.len() + extra)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        assert_admissible(&host, &query)?;
    }

    /// Flat-line hosts: every window is degenerate (zero variance), no
    /// window can correlate, and the envelopes say so with an exact 0 —
    /// while staying admissible against the kernel's answer.
    #[test]
    fn flat_hosts_are_prunable_and_admissible(
        level in -100.0f32..100.0,
        len in 16usize..200,
        query in signal(4..16),
    ) {
        let host = vec![level; len];
        assert_admissible(&host, &query)?;
        if host.len() >= query.len() {
            let spectrum = spectrum_of(&query);
            let spectra = spectra_of(&host, query.len());
            prop_assert_eq!(spectra.fine_bound(&spectrum), 0.0);
            prop_assert_eq!(spectra.coarse_bound(&spectrum), 0.0);
        }
    }

    /// Query lengths placed so the offset count lands exactly on, one
    /// below, and one above the fine and coarse group boundaries — the
    /// partial trailing group must stay admissible too.
    #[test]
    fn group_boundary_offset_counts_stay_admissible(
        query in signal(8..24),
        around in prop::sample::select(vec![FINE_GROUP, COARSE_GROUP, 2 * COARSE_GROUP]),
        delta in 0usize..3,
        seed in 0.0f32..10.0,
    ) {
        // offsets = around - 1 + delta ∈ {around-1, around, around+1}.
        let offsets = around + delta - 1;
        let host: Vec<f32> = (0..query.len() + offsets - 1)
            .map(|i| ((i as f32 * 0.23 + seed).sin() * 25.0) + (i as f32 * 0.71).cos() * 5.0)
            .collect();
        let spectra = spectra_of(&host, query.len());
        prop_assert_eq!(spectra.offsets(), offsets);
        assert_admissible(&host, &query)?;
    }

    /// Energy only where the envelopes keep no bin: a 0.5–6 Hz drift on a
    /// DC offset, or a 50–60 Hz tone, at 256 Hz — as the host, the query,
    /// or both, beside a passband (11–40 Hz) signal. Such a bound rests on
    /// the DC and residual slots alone, and must still dominate every `ω`.
    #[test]
    fn bound_is_admissible_where_only_folded_bins_carry_energy(
        host_kind in 0usize..3,
        query_kind in 0usize..3,
        hz in (0.5f32..6.0, 50.0f32..60.0, 11.0f32..40.0),
        offset in -200.0f32..200.0,
        phase in 0.0f32..6.3,
        len in 256usize..700,
    ) {
        let (drift, tone, passband) = hz;
        let wave = |kind: usize, n: usize, phase: f32| -> Vec<f32> {
            let at = |f: f32, i: usize| (std::f32::consts::TAU * f * i as f32 / 256.0 + phase).sin();
            (0..n)
                .map(|i| match kind {
                    0 => offset + 30.0 * at(drift, i),
                    1 => 20.0 * at(tone, i),
                    _ => 15.0 * at(passband, i) + 5.0 * at(passband * 0.7 + 3.0, i),
                })
                .collect()
        };
        let host = wave(host_kind, len, phase);
        let query = wave(query_kind, 256, phase * 0.5 + 1.0);
        assert_admissible(&host, &query)?;
    }

    /// A degenerate (constant) query makes every bound the unprunable 1.0,
    /// regardless of host shape.
    #[test]
    fn degenerate_queries_are_unprunable(
        host in signal(20..200),
        level in -50.0f32..50.0,
    ) {
        let query = vec![level; 16];
        let spectrum = spectrum_of(&query);
        prop_assert!(spectrum.is_degenerate());
        let spectra = spectra_of(&host, query.len());
        if spectra.offsets() > 0 {
            prop_assert_eq!(spectra.coarse_bound(&spectrum), 1.0);
            prop_assert_eq!(spectra.fine_bound(&spectrum), 1.0);
        }
    }
}
