//! 16-bit slice transport, the sample format of the delta refresh frames.
//!
//! A signal-set holds whole 16-bit counts — `emap_mdb::SignalSet::new`
//! rounds every sample and refuses one outside `[-32768, 32767]` — so a
//! slice crosses the wire as it is stored: a [`QuantizedSlice`] ships its
//! 1000 samples as `i16` words, half the bytes of their `f32` form, and
//! decodes to the store's `f32`s (the sign of a zero aside, which is no
//! count). [`QuantizedSlice::quantize`] reads the counts with
//! [`emap_mdb::counts`], the one reading of the store's format.

use emap_datasets::SignalClass;
use emap_mdb::SetId;

/// One slice of MDB samples as 16-bit counts for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedSlice {
    /// Which signal-set this is.
    pub set_id: SetId,
    /// Class label of the slice.
    pub class: SignalClass,
    /// The sample counts, exactly [`emap_mdb::SIGNAL_SET_LEN`] of them
    /// (enforced at decode).
    pub q: Vec<i16>,
}

impl QuantizedSlice {
    /// A stored set's `samples` (whole 16-bit counts, see
    /// [`emap_mdb::counts`]) as the wire carries them. Any length: the
    /// wire enforces [`emap_mdb::SIGNAL_SET_LEN`] at decode, not here.
    #[must_use]
    pub fn quantize(set_id: SetId, class: SignalClass, samples: &[f32]) -> QuantizedSlice {
        QuantizedSlice {
            set_id,
            class,
            q: emap_mdb::counts(samples).collect(),
        }
    }

    /// The `f32` samples the counts stand for: a stored set's own.
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        self.q.iter().map(|&q| f32::from(q)).collect()
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
        assert_eq!(q(&samples).dequantize(), samples);
    }

    #[test]
    fn extreme_exact_values_roundtrip() {
        let samples = [-32768.0f32, 32767.0, 0.0, -0.0, 1.0, -1.0];
        assert_eq!(q(&samples).dequantize(), samples);
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
