use emap_dsp::SampleRate;

use crate::EdfError;

/// One signal channel of a [`crate::Recording`]: samples in physical units
/// plus the calibration metadata EDF stores per channel.
///
/// Samples are held as `f32` *physical* values (e.g. microvolts). When the
/// channel is written to a stream they are quantized to 16-bit digital codes
/// through the calibration mapping, exactly as an EDF writer would — the
/// paper's acquisition stage likewise assumes 16-bit resolution (§V-A).
///
/// # Example
///
/// ```
/// use emap_edf::Channel;
/// use emap_dsp::SampleRate;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ch = Channel::new("EEG C3", SampleRate::new(256.0)?, vec![1.0, -1.0, 0.5])?;
/// assert_eq!(ch.len(), 3);
/// assert_eq!(ch.label(), "EEG C3");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    label: String,
    physical_dimension: String,
    physical_min: f64,
    physical_max: f64,
    digital_min: i32,
    digital_max: i32,
    prefiltering: String,
    rate: SampleRate,
    samples: Vec<f32>,
}

impl Channel {
    /// Creates a channel with default EEG calibration: ±500 µV physical
    /// range over the full signed 16-bit digital range.
    ///
    /// # Errors
    ///
    /// Returns [`EdfError::EmptyChannel`] if `samples` is empty.
    pub fn new(
        label: impl Into<String>,
        rate: SampleRate,
        samples: Vec<f32>,
    ) -> Result<Self, EdfError> {
        Self::with_calibration(label, rate, samples, -500.0, 500.0, "uV")
    }

    /// Creates a channel with explicit physical calibration range and unit.
    ///
    /// # Errors
    ///
    /// Returns [`EdfError::EmptyChannel`] if `samples` is empty, or
    /// [`EdfError::BadCalibration`] if `physical_min >= physical_max`.
    pub fn with_calibration(
        label: impl Into<String>,
        rate: SampleRate,
        samples: Vec<f32>,
        physical_min: f64,
        physical_max: f64,
        physical_dimension: impl Into<String>,
    ) -> Result<Self, EdfError> {
        let label = label.into();
        if samples.is_empty() {
            return Err(EdfError::EmptyChannel { label });
        }
        if physical_min >= physical_max || !physical_min.is_finite() || !physical_max.is_finite() {
            return Err(EdfError::BadCalibration { label });
        }
        Ok(Channel {
            label,
            physical_dimension: physical_dimension.into(),
            physical_min,
            physical_max,
            digital_min: i32::from(i16::MIN),
            digital_max: i32::from(i16::MAX),
            prefiltering: String::new(),
            rate,
            samples,
        })
    }

    /// The channel label (EDF: 16-char electrode name slot).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Physical unit string, e.g. `"uV"`.
    #[must_use]
    pub fn physical_dimension(&self) -> &str {
        &self.physical_dimension
    }

    /// Lower bound of the physical calibration range.
    #[must_use]
    pub fn physical_min(&self) -> f64 {
        self.physical_min
    }

    /// Upper bound of the physical calibration range.
    #[must_use]
    pub fn physical_max(&self) -> f64 {
        self.physical_max
    }

    /// Free-text description of analog prefiltering applied at acquisition.
    #[must_use]
    pub fn prefiltering(&self) -> &str {
        &self.prefiltering
    }

    /// Sets the prefiltering description (builder-style).
    #[must_use]
    pub fn with_prefiltering(mut self, text: impl Into<String>) -> Self {
        self.prefiltering = text.into();
        self
    }

    /// The channel's sampling rate.
    #[must_use]
    pub fn rate(&self) -> SampleRate {
        self.rate
    }

    /// The samples in physical units.
    #[must_use]
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// Consumes the channel, returning its samples.
    #[must_use]
    pub fn into_samples(self) -> Vec<f32> {
        self.samples
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the channel holds no samples (never true for a constructed
    /// channel, kept for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration of the channel in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.rate.duration_of(self.samples.len())
    }

    /// Quantizes one physical value to its 16-bit digital code, clamping to
    /// the calibration range (this is the lossy step of the codec).
    #[must_use]
    pub fn physical_to_digital(&self, physical: f32) -> i16 {
        let p = f64::from(physical).clamp(self.physical_min, self.physical_max);
        let frac = (p - self.physical_min) / (self.physical_max - self.physical_min);
        let d = f64::from(self.digital_min)
            + frac * (f64::from(self.digital_max) - f64::from(self.digital_min));
        d.round().clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
    }

    /// Converts a 16-bit digital code back to a physical value.
    #[must_use]
    pub fn digital_to_physical(&self, digital: i16) -> f32 {
        let frac = (f64::from(digital) - f64::from(self.digital_min))
            / (f64::from(self.digital_max) - f64::from(self.digital_min));
        (self.physical_min + frac * (self.physical_max - self.physical_min)) as f32
    }

    /// Quantization step in physical units (the worst-case round-trip error
    /// is half of this).
    #[must_use]
    pub fn quantization_step(&self) -> f64 {
        (self.physical_max - self.physical_min)
            / (f64::from(self.digital_max) - f64::from(self.digital_min))
    }

    pub(crate) fn digital_bounds(&self) -> (i32, i32) {
        (self.digital_min, self.digital_max)
    }

    #[allow(clippy::too_many_arguments)] // mirrors the codec field order
    pub(crate) fn from_codec_parts(
        label: String,
        physical_dimension: String,
        physical_min: f64,
        physical_max: f64,
        digital_min: i32,
        digital_max: i32,
        prefiltering: String,
        rate: SampleRate,
        samples: Vec<f32>,
    ) -> Result<Self, EdfError> {
        if samples.is_empty() {
            return Err(EdfError::EmptyChannel { label });
        }
        if physical_min >= physical_max || digital_min >= digital_max {
            return Err(EdfError::BadCalibration { label });
        }
        Ok(Channel {
            label,
            physical_dimension,
            physical_min,
            physical_max,
            digital_min,
            digital_max,
            prefiltering,
            rate,
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate() -> SampleRate {
        SampleRate::new(256.0).unwrap()
    }

    #[test]
    fn empty_samples_rejected() {
        assert!(matches!(
            Channel::new("X", rate(), Vec::new()),
            Err(EdfError::EmptyChannel { .. })
        ));
    }

    #[test]
    fn degenerate_calibration_rejected() {
        assert!(Channel::with_calibration("X", rate(), vec![0.0], 5.0, 5.0, "uV").is_err());
        assert!(Channel::with_calibration("X", rate(), vec![0.0], 10.0, -10.0, "uV").is_err());
        assert!(Channel::with_calibration("X", rate(), vec![0.0], f64::NAN, 10.0, "uV").is_err());
    }

    #[test]
    fn quantization_roundtrip_within_half_step() {
        let ch = Channel::new("X", rate(), vec![0.0]).unwrap();
        let step = ch.quantization_step();
        for p in [-499.9f32, -123.4, 0.0, 0.01, 250.5, 499.9] {
            let d = ch.physical_to_digital(p);
            let back = ch.digital_to_physical(d);
            assert!(
                (f64::from(back) - f64::from(p)).abs() <= step / 2.0 + 1e-9,
                "{p} -> {d} -> {back}"
            );
        }
    }

    #[test]
    fn out_of_range_values_clamp() {
        let ch = Channel::new("X", rate(), vec![0.0]).unwrap();
        assert_eq!(ch.physical_to_digital(10_000.0), i16::MAX);
        assert_eq!(ch.physical_to_digital(-10_000.0), i16::MIN);
    }

    #[test]
    fn calibration_endpoints_map_to_digital_extremes() {
        let ch = Channel::new("X", rate(), vec![0.0]).unwrap();
        assert_eq!(ch.physical_to_digital(-500.0), i16::MIN);
        assert_eq!(ch.physical_to_digital(500.0), i16::MAX);
        assert!((ch.digital_to_physical(i16::MIN) - -500.0).abs() < 1e-3);
        assert!((ch.digital_to_physical(i16::MAX) - 500.0).abs() < 1e-3);
    }

    #[test]
    fn duration_uses_rate() {
        let ch = Channel::new("X", rate(), vec![0.0; 512]).unwrap();
        assert!((ch.duration_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prefiltering_builder() {
        let ch = Channel::new("X", rate(), vec![0.0])
            .unwrap()
            .with_prefiltering("HP:0.1Hz LP:75Hz");
        assert_eq!(ch.prefiltering(), "HP:0.1Hz LP:75Hz");
    }

    #[test]
    fn into_samples_returns_data() {
        let ch = Channel::new("X", rate(), vec![1.0, 2.0]).unwrap();
        assert_eq!(ch.into_samples(), vec![1.0, 2.0]);
    }
}
