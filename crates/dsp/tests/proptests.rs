//! Property-based tests for the DSP substrate.

use emap_dsp::fir::FirFilter;
use emap_dsp::similarity::{
    area_between_curves, normalized_cross_correlation, raw_cross_correlation,
};
use emap_dsp::stats;
use emap_dsp::{emap_bandpass, SampleRate};
use emap_testkit::prelude::*;

fn signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Normalized cross-correlation is always in [-1, 1].
    #[test]
    fn ncc_bounded(a in signal(1..300), b in signal(1..300)) {
        let n = a.len().min(b.len());
        let c = normalized_cross_correlation(&a[..n], &b[..n]).unwrap();
        prop_assert!((-1.0..=1.0).contains(&c));
    }

    /// Normalized cross-correlation is symmetric.
    #[test]
    fn ncc_symmetric(a in signal(2..200), b in signal(2..200)) {
        let n = a.len().min(b.len());
        let ab = normalized_cross_correlation(&a[..n], &b[..n]).unwrap();
        let ba = normalized_cross_correlation(&b[..n], &a[..n]).unwrap();
        prop_assert!((ab - ba).abs() < 1e-6);
    }

    /// NCC is invariant under affine transforms with positive gain.
    #[test]
    fn ncc_affine_invariant(
        a in signal(4..200),
        b in signal(4..200),
        gain in 0.01f32..50.0,
        offset in -100.0f32..100.0,
    ) {
        let n = a.len().min(b.len());
        let scaled: Vec<f32> = b[..n].iter().map(|&v| gain * v + offset).collect();
        let c1 = normalized_cross_correlation(&a[..n], &b[..n]).unwrap();
        let c2 = normalized_cross_correlation(&a[..n], &scaled).unwrap();
        prop_assert!((c1 - c2).abs() < 1e-3, "{} vs {}", c1, c2);
    }

    /// Raw cross-correlation is bilinear in its first argument.
    #[test]
    fn raw_xcorr_linear(a in signal(1..100), b in signal(1..100), k in -10.0f32..10.0) {
        let n = a.len().min(b.len());
        let scaled: Vec<f32> = a[..n].iter().map(|&v| k * v).collect();
        let c1 = raw_cross_correlation(&a[..n], &b[..n]).unwrap();
        let c2 = raw_cross_correlation(&scaled, &b[..n]).unwrap();
        prop_assert!((c2 - f64::from(k) * c1).abs() < 1e-2 * (1.0 + c1.abs()));
    }

    /// Area between curves is a metric: identity, symmetry, triangle.
    #[test]
    fn abc_is_metric(a in signal(1..150), b in signal(1..150), c in signal(1..150)) {
        let n = a.len().min(b.len()).min(c.len());
        let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
        prop_assert_eq!(area_between_curves(a, a).unwrap(), 0.0);
        let ab = area_between_curves(a, b).unwrap();
        let ba = area_between_curves(b, a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-9);
        let bc = area_between_curves(b, c).unwrap();
        let ac = area_between_curves(a, c).unwrap();
        // The f64 sum of |differences| rounds, so allow relative slack.
        prop_assert!(ac <= ab + bc + 1e-4 * (1.0 + ab + bc));
    }

    /// Filtering never changes the length and never produces NaN.
    #[test]
    fn filter_total(input in signal(0..600)) {
        let f = emap_bandpass();
        let out = f.filter(&input);
        prop_assert_eq!(out.len(), input.len());
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    /// Filtering is homogeneous: filter(k·x) == k·filter(x).
    #[test]
    fn filter_homogeneous(input in signal(1..300), k in -5.0f32..5.0) {
        let f = emap_bandpass();
        let fx = f.filter(&input);
        let scaled: Vec<f32> = input.iter().map(|&v| k * v).collect();
        let fkx = f.filter(&scaled);
        for (y1, y2) in fx.iter().zip(&fkx) {
            prop_assert!((k * y1 - y2).abs() < 1e-2 + 1e-3 * y2.abs());
        }
    }

    /// Streaming filter state matches batch filtering for arbitrary block
    /// partitions of the input.
    #[test]
    fn streaming_matches_batch_any_split(input in signal(2..400), split in 1usize..399) {
        let f = emap_bandpass();
        let split = split % input.len();
        let batch = f.filter(&input);
        let mut s = f.stream();
        let mut streamed = s.push_block(&input[..split]);
        streamed.extend(s.push_block(&input[split..]));
        prop_assert_eq!(batch, streamed);
    }

    /// normalize_energy yields unit energy (or all-zero for flat inputs).
    #[test]
    fn normalize_energy_unit(input in signal(2..300)) {
        let n = stats::normalize_energy(&input);
        let e = stats::energy(&n);
        prop_assert!(e < 1e-6 || (e - 1.0).abs() < 1e-4, "energy {}", e);
    }

    /// Resampler preserves duration within one output sample.
    #[test]
    fn resample_duration(input in signal(32..512), rate_hz in 100.0f64..512.0) {
        let from = SampleRate::new(rate_hz).unwrap();
        let y = emap_dsp::resample::to_base_rate(&input, from).unwrap();
        let in_s = input.len() as f64 / rate_hz;
        let out_s = y.len() as f64 / 256.0;
        prop_assert!((in_s - out_s).abs() <= 1.0 / 256.0 + 1e-9);
        prop_assert!(y.iter().all(|v| v.is_finite()));
    }

    /// FIR design always produces symmetric (linear-phase) taps.
    #[test]
    fn bandpass_taps_symmetric(taps in 2usize..128, low in 1.0f64..50.0, width in 1.0f64..60.0) {
        let high = (low + width).min(127.0);
        prop_assume!(high > low);
        let f = FirFilter::bandpass(taps, low, high, SampleRate::EEG_BASE).unwrap();
        let t = f.taps();
        for i in 0..t.len() {
            prop_assert!((t[i] - t[t.len() - 1 - i]).abs() < 1e-9);
        }
    }
}
