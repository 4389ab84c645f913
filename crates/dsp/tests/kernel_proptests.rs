//! Property-based equivalence tests for the O(1)-statistics correlation
//! kernel against the scalar `ω` of `oracle`: the normalized query bit for
//! bit, and every window's `ω` bit for bit where the kernel makes a scalar
//! pass (short windows, constant spans, the cancellation guard tripped)
//! and within 1e-9 elsewhere — over random signals, random offsets, and
//! degenerate windows. The replayed window sums are pinned to the dense
//! sequential tables of `prefix_oracle`, bit for bit, and the handle's
//! straight-line bracket path to the front half of `bracket_oracle`, bit
//! for bit, on the integer grid and off it.

#[path = "oracle/omega.rs"]
mod oracle;

#[path = "oracle/prefix.rs"]
mod prefix_oracle;

#[path = "oracle/bracket.rs"]
mod bracket_oracle;

use emap_dsp::kernel::{HostStats, KernelCorrelator, Omega, MAX_SPAN};
use emap_dsp::rng::SeededRng;
use emap_testkit::prelude::*;

fn signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-8.0f32..8.0, len)
}

/// Hosts of up to 1 100 samples across nine decades of amplitude, sitting
/// up to two amplitudes off zero, as ADC-like whole counts or fractional.
fn scaled_host() -> impl Strategy<Value = Vec<f32>> {
    (
        prop::collection::vec(-1.0f32..1.0, 16..1100),
        prop::sample::select(vec![1e-3f32, 0.7, 30.0, 2e3, 1e6]),
        -2.0f32..2.0,
        prop::bool::ANY,
    )
        .prop_map(|(unit, amplitude, offset, whole)| {
            unit.iter()
                .map(|u| {
                    let x = (u + offset) * amplitude;
                    if whole {
                        x.round()
                    } else {
                        x
                    }
                })
                .collect()
        })
}

/// Short hosts thick with the values min/max treat specially: infinities,
/// runs of both zeros and NaNs.
fn hostile_host() -> impl Strategy<Value = Vec<f32>> {
    let nan = f32::NAN;
    let special = vec![
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        -0.0,
        0.0,
        nan,
        nan,
        nan,
    ];
    prop::collection::vec(
        prop_oneof![-8.0f32..8.0, prop::sample::select(special)],
        1..72,
    )
}

/// The oracle for the lazily built levels: every row of the sparse table,
/// as `HostStats` held them before it kept one.
fn eager_sparse_table(host: &[f32]) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let (mut mins, mut maxs) = (vec![host.to_vec()], vec![host.to_vec()]);
    for k in 0.. {
        let half = 1usize << k;
        if 2 * half > host.len() {
            break;
        }
        let rows = host.len() - 2 * half + 1;
        let row_min = (0..rows)
            .map(|i| mins[k][i].min(mins[k][i + half]))
            .collect();
        let row_max = (0..rows)
            .map(|i| maxs[k][i].max(maxs[k][i + half]))
            .collect();
        mins.push(row_min);
        maxs.push(row_max);
    }
    (mins, maxs)
}

/// One second shaped like filtered EEG: a rhythm plus noise, zero-centred.
fn eeg_scaled(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    (
        0.05f32..0.6,
        0.0f32..std::f32::consts::TAU,
        prop::collection::vec(-10.0f32..10.0, len),
    )
        .prop_map(|(freq, phase, noise)| {
            noise
                .into_iter()
                .enumerate()
                .map(|(i, n)| (freq * i as f32 + phase).sin() * 30.0 + n)
                .collect()
        })
}

/// The largest `|x|` the integer grid takes for windows of `w` samples:
/// `w·2¹⁴·|x| < 2³¹`.
fn grid_limit(w: usize) -> f32 {
    (i32::MAX as usize / (w << 14)) as f32
}

/// What a whole-count host carries, at the edges of the grid: its peak
/// `|x|` one below the limit, at it or one past it; or, peaking at the
/// limit, one half-count sample, one NaN, or a run of one level with
/// single counts above it, which trips the cancellation guard.
#[derive(Debug, Clone)]
struct WholeCountCase {
    unit: Vec<f32>,
    kind: usize,
    at: prop::sample::Index,
    run: usize,
}

fn whole_count_case() -> impl Strategy<Value = WholeCountCase> {
    (
        prop::collection::vec(-1.0f32..1.0, 256..1100),
        0usize..6,
        any::<prop::sample::Index>(),
        16usize..600,
    )
        .prop_map(|(unit, kind, at, run)| WholeCountCase {
            unit,
            kind,
            at,
            run,
        })
}

/// `case`'s host for windows of `w` samples.
fn whole_count_host(case: &WholeCountCase, w: usize) -> Vec<f32> {
    let limit = grid_limit(w);
    let peak = match case.kind {
        0 => limit - 1.0,
        2 => limit + 1.0,
        _ => limit,
    };
    let mut host: Vec<f32> = case.unit.iter().map(|u| (u * peak).round()).collect();
    let n = host.len();
    let at = case.at.index(n);
    host[at] = peak;
    match case.kind {
        3 => host[(at + 1) % n] = 0.5,
        4 => host[(at + 1) % n] = f32::NAN,
        5 => {
            let run = (at..(at + case.run).min(n)).filter(|&i| i != at);
            for (k, i) in run.enumerate() {
                host[i] = (limit - 2.0) + f32::from(u8::from(k % 97 == 0));
            }
        }
        _ => {}
    }
    host
}

/// `correlation_at` against the oracle at `offset`: the same bits where
/// the kernel makes a scalar pass, within 1e-9 elsewhere. Returns whether
/// the window took the scalar pass.
///
/// The route is the exact path's own, as the reference front half takes
/// it: every window finished without prefix statistics (below
/// `SMALL_WINDOW_FALLBACK`, a constant or non-finite span, the
/// cancellation guard tripped) — on a host of whole counts too, where
/// `HostKernel::at` brackets a tripped guard's window rather than
/// reporting it exact.
fn pin_to_oracle(
    kc: &KernelCorrelator,
    qhat: &[f32],
    host: &[f32],
    stats: &HostStats,
    offset: usize,
) -> Result<bool, TestCaseError> {
    let w = qhat.len();
    let fast = kc.correlation_at(host, stats, offset).unwrap();
    let slow = oracle::omega(qhat, &host[offset..offset + w]);
    let scalar = bracket_oracle::Bracketer::new(kc, host, stats).settles(offset);
    if scalar {
        prop_assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "offset {}: {} vs {}",
            offset,
            fast,
            slow
        );
    } else {
        prop_assert!(
            (fast - slow).abs() < 1e-9,
            "offset {offset}: kernel {fast} vs oracle {slow}"
        );
    }
    Ok(scalar)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The normalized query is the oracle's min–max and unit-energy
    /// normalization, bit for bit — constant and near-constant queries,
    /// nine decades of amplitude and off-zero baselines included.
    #[test]
    fn normalized_query_is_the_oracle_bit_for_bit(
        query in prop_oneof![
            signal(1..300),
            scaled_host(),
            (1usize..300, -1e6f32..1e6).prop_map(|(n, level)| vec![level; n]),
        ],
    ) {
        let kc = KernelCorrelator::new(&query).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(kc.normalized_query()), bits(&oracle::normalize(&query)));
        let qsum: f64 = kc.normalized_query().iter().map(|&q| f64::from(q)).sum();
        prop_assert_eq!(kc.query_sum().to_bits(), qsum.to_bits());
    }

    /// `correlation_at` is the oracle's `ω` at every offset: bit for bit
    /// on the windows the kernel scores by a scalar pass, within 1e-9 on
    /// the rest — windows 8–96 over hosts across nine decades of
    /// amplitude, where both kinds occur.
    #[test]
    fn correlation_at_is_the_oracle_omega(
        host in scaled_host(),
        query in signal(8..97),
    ) {
        prop_assume!(query.len() <= host.len());
        let kc = KernelCorrelator::new(&query).unwrap();
        let qhat = oracle::normalize(&query);
        let stats = HostStats::new(&host);
        for offset in 0..=host.len() - query.len() {
            pin_to_oracle(&kc, &qhat, &host, &stats, offset)?;
        }
    }

    /// The certificate: at every offset the handle reports either the bits
    /// of `correlation_at` or a bracket that contains them — for windows
    /// 16–256, any amplitude, any baseline, and, beside each such host, a
    /// host of whole counts at the edges of the integer grid's range (see
    /// `whole_count_host`).
    #[test]
    fn every_bracket_contains_the_exact_omega(
        host in scaled_host(),
        whole in whole_count_case(),
        query in signal(16..257),
    ) {
        prop_assume!(query.len() <= host.len());
        let kc = KernelCorrelator::new(&query).unwrap();
        let whole = whole_count_host(&whole, query.len());
        for host in [host, whole] {
            let stats = HostStats::new(&host);
            let mut hk = kc.on_host(&host, &stats).unwrap();
            for offset in 0..=hk.last_offset() {
                let exact = kc.correlation_at(&host, &stats, offset).unwrap();
                prop_assert_eq!(hk.exact_at(offset).to_bits(), exact.to_bits());
                match hk.at(offset) {
                    Omega::Exact(omega) => prop_assert_eq!(omega.to_bits(), exact.to_bits()),
                    Omega::Bracket { lo, hi } => prop_assert!(
                        lo <= exact && exact <= hi,
                        "offset {offset}: {exact} outside [{lo}, {hi}]"
                    ),
                }
            }
        }
    }

    /// Admissible is not enough — the bracket has to stay useful: on
    /// EEG-scaled content every window is bracketed, to a half-width under
    /// 1e-4 (a fifth of a `SkipTable` bin).
    #[test]
    fn brackets_stay_tight_on_eeg_scaled_input(
        host in eeg_scaled(300..1100),
        query in eeg_scaled(16..257),
    ) {
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let mut hk = kc.on_host(&host, &stats).unwrap();
        for offset in 0..=hk.last_offset() {
            match hk.at(offset) {
                Omega::Bracket { lo, hi } => prop_assert!(
                    (hi - lo) / 2.0 < 1e-4,
                    "offset {offset}: half-width {}",
                    (hi - lo) / 2.0
                ),
                Omega::Exact(omega) => prop_assert!(false, "offset {offset}: exact {omega}"),
            }
        }
    }

    /// The same half-width on the integer grid: EEG-scaled hosts of whole
    /// counts, every window bracketed to under 1e-4.
    #[test]
    fn brackets_stay_tight_on_whole_count_eeg(
        host in eeg_scaled(300..1100),
        query in eeg_scaled(16..257),
    ) {
        let host: Vec<f32> = host.iter().map(|x| x.round()).collect();
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let mut hk = kc.on_host(&host, &stats).unwrap();
        for offset in 0..=hk.last_offset() {
            match hk.at(offset) {
                Omega::Bracket { lo, hi } => prop_assert!(
                    (hi - lo) / 2.0 < 1e-4,
                    "offset {offset}: half-width {}",
                    (hi - lo) / 2.0
                ),
                Omega::Exact(omega) => prop_assert!(false, "offset {offset}: exact {omega}"),
            }
        }
    }

    /// The paper-sized case: 256-sample query against 1000-sample hosts.
    #[test]
    fn kernel_matches_the_oracle_at_paper_sizes(
        host in signal(1000..1001),
        seed in 0usize..745,
    ) {
        let query = &host[seed % 700..seed % 700 + 256];
        let kc = KernelCorrelator::new(query).unwrap();
        let qhat = oracle::normalize(query);
        let stats = HostStats::new(&host);
        for offset in [0usize, seed, 744] {
            pin_to_oracle(&kc, &qhat, &host, &stats, offset)?;
        }
    }

    /// Lazily built min/max levels answer every (offset, width) with the
    /// bits of the full sparse table the kernel used to hold, whatever order
    /// the levels are first asked for in — and, where the window holds no
    /// NaN (an all-NaN block is where the pairwise table and a fold part
    /// ways), with the sequential fold's value, infinities and runs of
    /// signed zeros included (a `±0.0` tie may differ in sign, never in
    /// value).
    #[test]
    fn lazy_levels_are_the_eager_table_bit_for_bit(
        host in hostile_host(),
        descending in prop::bool::ANY,
    ) {
        let stats = HostStats::new(&host);
        let (mins, maxs) = eager_sparse_table(&host);
        let mut widths: Vec<usize> = (1..=host.len()).collect();
        if descending {
            widths.reverse();
        }
        for w in widths {
            let k = w.ilog2() as usize;
            let second = w - (1 << k);
            for offset in 0..=host.len() - w {
                let (lo, hi) = (stats.window_min(&host, offset, w), stats.window_max(&host, offset, w));
                let table_lo = mins[k][offset].min(mins[k][offset + second]);
                let table_hi = maxs[k][offset].max(maxs[k][offset + second]);
                prop_assert_eq!(lo.to_bits(), table_lo.to_bits());
                prop_assert_eq!(hi.to_bits(), table_hi.to_bits());
                let win = &host[offset..offset + w];
                if !win.iter().any(|x| x.is_nan()) {
                    prop_assert_eq!(lo, win.iter().copied().fold(f32::INFINITY, f32::min));
                    prop_assert_eq!(hi, win.iter().copied().fold(f32::NEG_INFINITY, f32::max));
                }
            }
        }
        // Every length was asked for, so every level now exists.
        let top = host.len().ilog2() as usize;
        prop_assert_eq!(stats.built_levels().collect::<Vec<_>>(), (1..=top).collect::<Vec<_>>());
    }

    /// Prefix-difference window sums agree with direct accumulation.
    #[test]
    fn prefix_sums_are_accurate(host in signal(1..300), seed in 0usize..10_000) {
        let stats = HostStats::new(&host);
        let n = host.len();
        let w = 1 + seed % n;
        let offset = (seed / n) % (n - w + 1);
        let win = &host[offset..offset + w];
        let sum: f64 = win.iter().map(|&x| f64::from(x)).sum();
        let energy: f64 = win.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        // Absolute prefix error is bounded by n·ε·(running magnitude); with
        // |x| ≤ 8 and n < 300 that is far below 1e-7.
        prop_assert!((stats.window_sum(&host, offset, w) - sum).abs() < 1e-7);
        prop_assert!((stats.window_energy(&host, offset, w) - energy).abs() < 1e-7);
    }

    /// Degenerate host: every window constant. Kernel and oracle return
    /// exactly 0.
    #[test]
    fn constant_windows_give_zero(level in -1000.0f32..1000.0, query in signal(16..64)) {
        let host = vec![level; 200];
        let kc = KernelCorrelator::new(&query).unwrap();
        let qhat = oracle::normalize(&query);
        let stats = HostStats::new(&host);
        for offset in [0usize, 50, 200 - query.len()] {
            prop_assert!(pin_to_oracle(&kc, &qhat, &host, &stats, offset)?);
            prop_assert_eq!(kc.correlation_at(&host, &stats, offset).unwrap(), 0.0);
        }
    }

    /// Degenerate window: the query spans the whole host.
    #[test]
    fn window_equals_host(host in signal(32..200)) {
        let kc = KernelCorrelator::new(&host).unwrap();
        let stats = HostStats::new(&host);
        pin_to_oracle(&kc, &oracle::normalize(&host), &host, &stats, 0)?;
        let fast = kc.correlation_at(&host, &stats, 0).unwrap();
        // A self-match is a perfect correlation unless the host is constant.
        if fast != 0.0 {
            prop_assert!(fast > 1.0 - 1e-6);
        }
    }

    /// NaN-free extremes: huge spikes next to tiny values must not break
    /// the 1e-9 equivalence (the cancellation guard falls back where the
    /// prefix identities lose precision).
    #[test]
    fn extreme_dynamic_range(
        spike in prop::sample::select(vec![1e10f32, -1e10, 3e7, -3e7]),
        query in signal(16..64),
        pos in 0usize..200,
    ) {
        let mut host: Vec<f32> = (0..260).map(|i| ((i as f32) * 0.13).sin() * 1e-3).collect();
        host[pos] = spike;
        let kc = KernelCorrelator::new(&query).unwrap();
        let qhat = oracle::normalize(&query);
        let stats = HostStats::new(&host);
        for offset in [0usize, pos.min(260 - query.len()), 260 - query.len()] {
            pin_to_oracle(&kc, &qhat, &host, &stats, offset)?;
        }
    }
}

/// A 1e-3 ripple on a baseline of 5 trips the cancellation guard in every
/// window, and each one is then the oracle's bits.
/// Hosts past two of the widest level's spans: few distinct values, so
/// ties are everywhere, both zeros among them, and one NaN.
fn tied_host_with_one_nan() -> impl Strategy<Value = Vec<f32>> {
    let value = prop_oneof![
        (-3i32..=3).prop_map(|v| v as f32),
        prop::sample::select(vec![0.0f32, -0.0]),
    ];
    (
        prop::collection::vec(value, 2 * MAX_SPAN..2 * MAX_SPAN + 200),
        any::<prop::sample::Index>(),
    )
        .prop_map(|(mut host, at)| {
            let at = at.index(host.len());
            host[at] = f32::NAN;
            host
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `window_min` / `window_max` are the sequential `f32::min` /
    /// `f32::max` fold over the window's samples — a NaN dropped unless it
    /// is all the window holds, a `±0.0` tie equal in value — at every
    /// offset and every width up to the whole host, past two spans of the
    /// widest level included.
    #[test]
    fn min_max_are_the_sequential_fold_at_every_width(host in tied_host_with_one_nan()) {
        let stats = HostStats::new(&host);
        let same = |a: f32, b: f32| a == b || (a.is_nan() && b.is_nan());
        for offset in 0..host.len() {
            let (mut lo, mut hi) = (host[offset], host[offset]);
            for w in 1..=host.len() - offset {
                lo = lo.min(host[offset + w - 1]);
                hi = hi.max(host[offset + w - 1]);
                let (min, max) = (stats.window_min(&host, offset, w), stats.window_max(&host, offset, w));
                prop_assert!(same(min, lo), "min at ({}, {}): {} vs {}", offset, w, min, lo);
                prop_assert!(same(max, hi), "max at ({}, {}): {} vs {}", offset, w, max, hi);
            }
        }
        prop_assert_eq!(stats.built_levels().collect::<Vec<_>>(), (1..=8).collect::<Vec<_>>());
    }
}

/// Hosts for the prefix replay: up to 1 100 samples, often at or either
/// side of a multiple of the 32-sample checkpoint interval, with a few
/// NaNs, `±∞`, subnormals or `±1e30` among ordinary samples.
fn replay_host() -> impl Strategy<Value = Vec<f32>> {
    let special = prop::sample::select(vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        -3e-42,
        1e30,
        -1e30,
    ]);
    let len = prop_oneof![
        0usize..1101,
        (0usize..35, 0usize..3).prop_map(|(k, d)| (32 * k + d).saturating_sub(1).min(1100)),
    ];
    (
        len,
        prop::collection::vec(-8.0f32..8.0, 1100),
        prop::collection::vec((any::<prop::sample::Index>(), special), 0..6),
    )
        .prop_map(|(n, mut host, specials)| {
            host.truncate(n);
            if n > 0 {
                for (at, value) in specials {
                    host[at.index(n)] = value;
                }
            }
            host
        })
}

/// The offsets `0..=n` ascending with random skips, descending, or shuffled.
fn access_order(n: usize, order: usize, seed: u64) -> Vec<usize> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut offsets: Vec<usize> = (0..=n).collect();
    match order {
        0 => offsets.retain(|_| rng.bool(0.6)),
        1 => offsets.reverse(),
        _ => {
            for i in (1..offsets.len()).rev() {
                offsets.swap(i, rng.index(i + 1));
            }
        }
    }
    offsets
}

/// A value's bits, every NaN as one: Rust leaves a NaN's sign and payload
/// to code generation, so only its NaN-ness is the replay's to keep.
fn bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn pair_bits((sum, energy): (f64, f64)) -> (u64, u64) {
    (bits(sum), bits(energy))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replayed window sums and energies are the dense sequential tables'
    /// bits (a NaN where they hold a NaN): `window_sum(0, i)` is the
    /// oracle's `P[i]` and every window a difference of two entries, in any
    /// access order.
    #[test]
    fn replayed_prefixes_are_the_dense_oracle_bit_for_bit(
        host in replay_host(),
        order in 0usize..3,
        seed in any::<u64>(),
    ) {
        let n = host.len();
        let table = prefix_oracle::prefixes(&host);
        let stats = HostStats::new(&host);
        let window = |offset: usize, w: usize| {
            (stats.window_sum(&host, offset, w), stats.window_energy(&host, offset, w))
        };
        let mut rng = SeededRng::seed_from_u64(seed);
        for i in access_order(n, order, seed) {
            prop_assert_eq!(pair_bits(window(0, i)), pair_bits(table[i]), "prefix {} of {}", i, n);
            let w = rng.index(n - i + 1);
            let (lo, hi) = (table[i], table[i + w]);
            prop_assert_eq!(pair_bits(window(i, w)), pair_bits((hi.0 - lo.0, hi.1 - lo.1)), "window ({}, {})", i, w);
        }
    }

    /// The handle's prefix cursors carry nothing into a result:
    /// `exact_at` and `at` called in a shuffled order, or descending, on
    /// one handle give the bits of the same calls in ascending order on
    /// another (a NaN where they give a NaN) — and `exact_at` those of
    /// `correlation_at`, which binds a fresh handle per call.
    #[test]
    fn the_handle_answers_alike_in_any_call_order(
        host in prop_oneof![scaled_host(), replay_host()],
        query in signal(16..257),
        order in 1usize..3,
        seed in any::<u64>(),
    ) {
        prop_assume!(query.len() <= host.len());
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let mut ascending = kc.on_host(&host, &stats).unwrap();
        let last = ascending.last_offset();
        let expected: Vec<(u64, Omega)> = (0..=last)
            .map(|offset| (bits(ascending.exact_at(offset)), ascending.at(offset)))
            .collect();
        let mut shuffled = kc.on_host(&host, &stats).unwrap();
        for offset in access_order(last, order, seed) {
            let bracket = shuffled.at(offset);
            let exact = bits(shuffled.exact_at(offset));
            let (want_exact, want_bracket) = expected[offset];
            prop_assert_eq!(exact, want_exact, "offset {}", offset);
            prop_assert_eq!(
                format!("{bracket:?}"),
                format!("{want_bracket:?}"),
                "offset {}",
                offset
            );
            let fresh = kc.correlation_at(&host, &stats, offset).unwrap();
            prop_assert_eq!(exact, bits(fresh), "offset {}", offset);
        }
    }
}

/// Hosts of 600–1 100 samples for the bracket pin: an EEG-shaped rhythm
/// at one of three loudnesses, with or without a stretch 1e-5 as loud
/// (quiet windows in a loud host), a constant run, and a few NaN, `±∞`,
/// subnormal or `±1e30` samples.
fn hostile_bracket_host() -> impl Strategy<Value = Vec<f32>> {
    let special = prop::sample::select(vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        -3e-42,
        1e30,
        -1e30,
    ]);
    (
        eeg_scaled(600..1100),
        prop::sample::select(vec![1e-3f32, 1.0, 1e3]),
        prop::option::of((any::<prop::sample::Index>(), 16usize..400)),
        prop::option::of((any::<prop::sample::Index>(), 1usize..400, -50.0f32..50.0)),
        prop::collection::vec((any::<prop::sample::Index>(), special), 0..4),
    )
        .prop_map(|(mut host, loudness, quiet, run, specials)| {
            let n = host.len();
            for x in &mut host {
                *x *= loudness;
            }
            if let Some((at, len)) = quiet {
                let start = at.index(n);
                for x in &mut host[start..(start + len).min(n)] {
                    *x *= 1e-5;
                }
            }
            if let Some((at, len, level)) = run {
                let start = at.index(n);
                host[start..(start + len).min(n)].fill(level * loudness);
            }
            for (at, value) in specials {
                host[at.index(n)] = value;
            }
            host
        })
}

/// An `Omega`'s variant and bits, every NaN as one.
fn omega_bits(omega: Omega) -> (bool, u64, u64) {
    match omega {
        Omega::Exact(x) => (false, bits(x), bits(x)),
        Omega::Bracket { lo, hi } => (true, bits(lo), bits(hi)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The straight-line bracket path is the reference front half's, bit
    /// for bit: at every offset `at` gives the oracle's `Omega` — exact
    /// or bracketed, and the same bits — and `exact_at` its exact `ω`,
    /// on hostile hosts and on their twins of whole counts — rounded, with
    /// each NaN, `±∞` or `±1e30` sample zeroed: the integer grid's
    /// wherever the loudness is within its range — for windows either
    /// side of the small-window cut, a span and two spans, with the
    /// offsets taken forward with skips, backward and shuffled.
    #[test]
    fn the_bracket_path_is_the_reference_front_half_bit_for_bit(
        host in hostile_bracket_host(),
        query in eeg_scaled(600..601),
        order in 0usize..3,
        seed in any::<u64>(),
    ) {
        let whole: Vec<f32> = host
            .iter()
            .map(|x| if x.abs() < 1e30 { x.round() } else { 0.0 })
            .collect();
        for host in [host, whole] {
            let stats = HostStats::new(&host);
            for w in [15usize, 16, 255, 256, 257, 511, 512, 600] {
                let kc = KernelCorrelator::new(&query[..w]).unwrap();
                let reference = bracket_oracle::Bracketer::new(&kc, &host, &stats);
                let mut hk = kc.on_host(&host, &stats).unwrap();
                prop_assert_eq!(hk.last_offset(), reference.last_offset());
                for offset in access_order(hk.last_offset(), order, seed) {
                    prop_assert_eq!(
                        omega_bits(hk.at(offset)),
                        omega_bits(reference.at(offset)),
                        "w = {}, offset {}",
                        w,
                        offset
                    );
                    prop_assert_eq!(
                        bits(hk.exact_at(offset)),
                        bits(reference.exact(offset)),
                        "w = {}, offset {}",
                        w,
                        offset
                    );
                }
            }
        }
    }
}

#[test]
fn ripple_windows_take_the_scalar_pass_and_match_the_oracle() {
    let host: Vec<f32> = (0..600)
        .map(|i| 5.0 + ((i as f32) * 0.37).sin() * 1e-3)
        .collect();
    let query: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.31).sin()).collect();
    let kc = KernelCorrelator::new(&query).unwrap();
    let qhat = oracle::normalize(&query);
    let stats = HostStats::new(&host);
    for offset in 0..=host.len() - query.len() {
        assert!(pin_to_oracle(&kc, &qhat, &host, &stats, offset).unwrap());
    }
}
