//! 16-bit quantized slice transport, the sample format of the delta
//! refresh frames.
//!
//! EEG acquisition hardware digitizes at 16 bits (the paper's §1 device
//! chain), but the store and the search responses carry slices as `f32` —
//! twice the bytes the signal ever held. A [`QuantizedSlice`] ships the
//! same 1000 samples as `i16` words under an affine `scale`/`offset`
//! map, halving the dominant payload of every search response.
//!
//! Two encoding paths:
//!
//! * **exact** — when every sample is a finite integer in
//!   `[-32768, 32767]` (i.e. raw 16-bit ADC counts), the words *are* the
//!   samples (`scale = 1`, `offset = -32768`, neither shipped) and decode
//!   reconstructs the original `f32`s bit-for-bit. Native 16-bit EEG
//!   always takes this path, which is what makes quantized transport
//!   decision-equal to the f32 full-refresh path.
//! * **scaled** — arbitrary `f32` slices are mapped onto the 65536-step
//!   grid spanning their own `[lo, hi]` range. The reconstruction error
//!   is bounded by [`QuantizedSlice::error_bound`] — half a grid step
//!   plus the `f32` rounding of the decoded magnitude — and pinned by
//!   proptest in `tests/proptests.rs`.
//!
//! Non-finite samples cannot ride a 16-bit grid: a NaN or infinity in a
//! scaled slice collapses to the range floor (`q = -32768`). MDB slices
//! are always finite, so this only matters for adversarial input.

use emap_datasets::SignalClass;
use emap_mdb::SetId;

/// The `q` word every non-finite or degenerate sample collapses to: raw
/// grid position 0, which decodes to `offset` (the range floor).
const FLOOR: i16 = i16::MIN;

/// One slice of MDB samples quantized to `i16` for the wire.
///
/// Decode reconstructs sample `i` as
/// `offset + (q[i] + 32768) * scale`, computed in `f64` and rounded to
/// `f32` once — see [`QuantizedSlice::dequantize`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedSlice {
    /// Which signal-set this is.
    pub set_id: SetId,
    /// Class label of the slice.
    pub class: SignalClass,
    /// Grid step in signal units; `1.0` on the exact path.
    pub scale: f32,
    /// Signal value of raw grid position 0; `-32768.0` on the exact path.
    pub offset: f32,
    /// The quantized sample words, exactly
    /// [`emap_mdb::SIGNAL_SET_LEN`] of them (enforced at decode).
    pub q: Vec<i16>,
}

impl QuantizedSlice {
    /// Quantizes `samples` (any length — the wire enforces
    /// [`emap_mdb::SIGNAL_SET_LEN`] at decode, not here).
    #[must_use]
    pub fn quantize(set_id: SetId, class: SignalClass, samples: &[f32]) -> QuantizedSlice {
        if samples
            .iter()
            .all(|&x| x.is_finite() && x.fract() == 0.0 && (-32768.0..=32767.0).contains(&x))
        {
            return QuantizedSlice {
                set_id,
                class,
                scale: 1.0,
                offset: -32768.0,
                q: samples.iter().map(|&x| x as i16).collect(),
            };
        }

        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &x in samples {
            if x.is_finite() {
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        if !lo.is_finite() {
            // No finite sample at all: everything collapses to 0.0.
            return QuantizedSlice {
                set_id,
                class,
                scale: 0.0,
                offset: 0.0,
                q: vec![FLOOR; samples.len()],
            };
        }
        let scale = ((f64::from(hi) - f64::from(lo)) / 65535.0) as f32;
        if scale <= 0.0 || !scale.is_finite() {
            // Constant (or sub-resolution) slice: one grid point suffices.
            return QuantizedSlice {
                set_id,
                class,
                scale: 0.0,
                offset: lo,
                q: vec![FLOOR; samples.len()],
            };
        }
        let s = f64::from(scale);
        let floor = f64::from(lo);
        let q = samples
            .iter()
            .map(|&x| {
                if !x.is_finite() {
                    return FLOOR;
                }
                let raw = ((f64::from(x) - floor) / s).round().clamp(0.0, 65535.0);
                (raw as i32 - 32768) as i16
            })
            .collect();
        QuantizedSlice {
            set_id,
            class,
            scale,
            offset: lo,
            q,
        }
    }

    /// Reconstructs the `f32` samples this slice was quantized from —
    /// bit-exact on the exact path, within [`QuantizedSlice::error_bound`]
    /// on the scaled path.
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        let s = f64::from(self.scale);
        let offset = f64::from(self.offset);
        self.q
            .iter()
            .map(|&q| (offset + (f64::from(q) + 32768.0) * s) as f32)
            .collect()
    }

    /// Whether this slice rides the bit-exact path (raw 16-bit ADC
    /// counts; neither `scale` nor `offset` travels on the wire).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.scale == 1.0 && self.offset == -32768.0
    }

    /// Worst-case `|dequantized − original|` for a slice produced by
    /// [`QuantizedSlice::quantize`] from finite samples: half a grid step
    /// plus the `f32` rounding of the decoded magnitude. Zero-error paths
    /// (exact, constant) still report the cast slop term, which is ≤ one
    /// ulp of the values involved.
    #[must_use]
    pub fn error_bound(&self) -> f64 {
        let s = f64::from(self.scale).abs();
        let lo = f64::from(self.offset);
        let hi = lo + 65535.0 * f64::from(self.scale);
        let magnitude = lo.abs().max(hi.abs());
        s * 0.5 + magnitude * f64::from(f32::EPSILON) + f64::from(f32::MIN_POSITIVE)
    }
}

/// The wire code for a [`SignalClass`] — one byte instead of the
/// length-prefixed label string the `f32` slice messages carry.
#[must_use]
pub fn class_code(class: SignalClass) -> u8 {
    match class {
        SignalClass::Normal => 0,
        SignalClass::Seizure => 1,
        SignalClass::Encephalopathy => 2,
        SignalClass::Stroke => 3,
    }
}

/// Decodes a wire class code written by [`class_code`].
#[must_use]
pub fn class_from_code(code: u8) -> Option<SignalClass> {
    match code {
        0 => Some(SignalClass::Normal),
        1 => Some(SignalClass::Seizure),
        2 => Some(SignalClass::Encephalopathy),
        3 => Some(SignalClass::Stroke),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(samples: &[f32]) -> QuantizedSlice {
        QuantizedSlice::quantize(SetId(7), SignalClass::Seizure, samples)
    }

    #[test]
    fn native_16bit_samples_roundtrip_bit_exactly() {
        let samples: Vec<f32> = (-32768..32768).step_by(97).map(|v| v as f32).collect();
        let quantized = q(&samples);
        assert!(quantized.is_exact());
        assert_eq!(quantized.dequantize(), samples);
    }

    #[test]
    fn extreme_exact_values_roundtrip() {
        let samples = [-32768.0f32, 32767.0, 0.0, -0.0, 1.0, -1.0];
        let quantized = q(&samples);
        assert!(quantized.is_exact());
        let back = quantized.dequantize();
        for (a, b) in back.iter().zip(&samples) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn scaled_path_stays_within_error_bound() {
        let samples: Vec<f32> = (0..1000)
            .map(|i| (i as f32 * 0.071).sin() * 137.25)
            .collect();
        let quantized = q(&samples);
        assert!(!quantized.is_exact());
        let bound = quantized.error_bound();
        for (orig, back) in samples.iter().zip(quantized.dequantize()) {
            let err = (f64::from(*orig) - f64::from(back)).abs();
            assert!(err <= bound, "error {err} exceeds bound {bound}");
        }
    }

    #[test]
    fn constant_slice_is_error_free() {
        let samples = [41.5f32; 32];
        let quantized = q(&samples);
        assert_eq!(quantized.scale, 0.0);
        assert_eq!(quantized.dequantize(), samples);
    }

    #[test]
    fn non_finite_samples_collapse_without_panicking() {
        let samples = [f32::NAN, f32::INFINITY, 3.25, f32::NEG_INFINITY, -7.5];
        let quantized = q(&samples);
        let back = quantized.dequantize();
        assert_eq!(back.len(), samples.len());
        // Finite samples still land within the bound; non-finite ones
        // collapsed to the range floor.
        let bound = quantized.error_bound();
        assert!((f64::from(back[2]) - 3.25).abs() <= bound);
        assert!((f64::from(back[4]) + 7.5).abs() <= bound);
        assert_eq!(back[0], back[4].min(back[2]).min(back[0]));
        // All-NaN input decodes to zeros, not a panic.
        let all_nan = q(&[f32::NAN; 4]);
        assert_eq!(all_nan.dequantize(), vec![0.0; 4]);
    }

    #[test]
    fn class_codes_roundtrip_and_reject_unknown() {
        for class in [
            SignalClass::Normal,
            SignalClass::Seizure,
            SignalClass::Encephalopathy,
            SignalClass::Stroke,
        ] {
            assert_eq!(class_from_code(class_code(class)), Some(class));
        }
        assert_eq!(class_from_code(4), None);
        assert_eq!(class_from_code(0xff), None);
    }
}
