//! The ingest path's fast paths against their reference loops, bit for bit:
//! the fractional resampler (tabulated window, per-phase tap weights for
//! dyadic steps) against a per-tap windowed sinc, and the four-output FIR
//! kernel — batch and streaming — against the serial convolution and the
//! ring-buffer stream (`oracle`).

#[path = "oracle/ingest.rs"]
mod oracle;

use emap_dsp::emap_bandpass;
use emap_dsp::fir::FirFilter;
use emap_dsp::resample::Resampler;
use emap_dsp::SampleRate;
use emap_testkit::prelude::*;
use prop::sample::Index;

/// Samples in `-100..100` with up to three special values planted: NaN,
/// ±∞, signed zeros, huge and subnormal.
fn signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    let special = prop::sample::select(vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1e30,
        -1e30,
        1e-40,
    ]);
    (
        prop::collection::vec(-100.0f32..100.0, len),
        prop::collection::vec((any::<Index>(), special), 0..3),
    )
        .prop_map(|(mut x, specials)| {
            if !x.is_empty() {
                for (at, v) in specials {
                    let i = at.index(x.len());
                    x[i] = v;
                }
            }
            x
        })
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every fractional registry rate (173.61 Hz: not dyadic, per-tap
    /// kernel; 200 and 250 Hz: dyadic, cached per phase), two more dyadic
    /// rates either side of the base rate, and 200.25 Hz — a dyadic step
    /// with a 1 024-output period, cached only once an output is that long —
    /// give the per-tap reference's bits at every length up to 3 000.
    #[test]
    fn fractional_resampler_is_the_per_tap_kernel_bit_for_bit(
        rate in prop::sample::select(vec![173.61, 200.0, 250.0, 300.0, 500.0, 200.25]),
        input in prop_oneof![signal(0..40), signal(0..3000)],
    ) {
        let (from, to) = (SampleRate::new(rate).unwrap(), SampleRate::EEG_BASE);
        let resampler = Resampler::new(from, to).unwrap();
        prop_assert!(!resampler.is_integer_ratio());
        prop_assert_eq!(
            bits(&resampler.resample(&input)),
            bits(&oracle::resample_per_tap(&input, from, to))
        );
    }

    /// Batch filtering, block streaming at any cut points and sample-wise
    /// streaming all give the serial loop's bits (and the ring buffer's):
    /// the paper's 100-tap bandpass and short filters of 1–9 taps, at
    /// lengths 0, 1, taps − 1, taps, taps + 1 … taps + 3 and 4k + r.
    #[test]
    fn fir_kernel_is_the_serial_loop_bit_for_bit(
        taps in prop_oneof![
            Just(emap_bandpass().into_taps()),
            prop::collection::vec(-2.0f64..2.0, 1..10),
        ],
        shape in 0usize..8,
        k in 0usize..200,
        r in 0usize..4,
        samples in signal(810..811),
        cuts in prop::collection::vec(any::<Index>(), 0..4),
    ) {
        let n = taps.len();
        let len = [0, 1, n - 1, n, n + 1, n + 2, n + 3, 4 * k + r][shape];
        let input = &samples[..len];
        let filter = FirFilter::from_taps(taps.clone()).unwrap();
        let reference = bits(&oracle::fir_serial(&taps, input));

        prop_assert_eq!(bits(&filter.filter(input)), reference.clone());

        let mut ring = oracle::RingFir::new(&taps);
        let ringed: Vec<f32> = input.iter().map(|&s| ring.push(s)).collect();
        prop_assert_eq!(bits(&ringed), reference.clone());

        let mut stream = filter.stream();
        let pushed: Vec<f32> = input.iter().map(|&s| stream.push(s)).collect();
        prop_assert_eq!(bits(&pushed), reference.clone());

        let mut bounds: Vec<usize> = cuts.iter().map(|c| c.index(len + 1)).collect();
        bounds.push(len);
        bounds.sort_unstable();
        let mut stream = filter.stream();
        let mut blocked = Vec::with_capacity(len);
        let mut start = 0;
        for end in bounds {
            blocked.extend(stream.push_block(&input[start..end]));
            start = end;
        }
        prop_assert_eq!(bits(&blocked), reference);
    }
}
