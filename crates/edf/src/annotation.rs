use crate::EdfError;

/// A timestamped event label attached to a [`crate::Recording`].
///
/// Annotations carry the ground truth the EMAP evaluation depends on: where
/// the seizure (or other anomaly) begins, how long it lasts, and — for the
/// anomalies without richly annotated datasets (encephalopathy, stroke) —
/// whole-recording labels (§VI-B: "we have annotated the complete signal as
/// an anomaly").
///
/// # Example
///
/// ```
/// use emap_edf::Annotation;
///
/// # fn main() -> Result<(), emap_edf::EdfError> {
/// let a = Annotation::new(12.5, 30.0, "seizure")?;
/// assert_eq!(a.onset_s(), 12.5);
/// assert_eq!(a.end_s(), 42.5);
/// assert!(a.overlaps(40.0, 45.0));
/// assert!(!a.overlaps(42.5, 50.0)); // half-open interval
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    onset_s: f64,
    duration_s: f64,
    label: String,
}

impl Annotation {
    /// Creates an annotation starting `onset_s` seconds into the recording
    /// and lasting `duration_s` seconds.
    ///
    /// # Errors
    ///
    /// Returns [`EdfError::BadAnnotation`] if onset or duration is negative
    /// or non-finite.
    pub fn new(onset_s: f64, duration_s: f64, label: impl Into<String>) -> Result<Self, EdfError> {
        if !onset_s.is_finite() || !duration_s.is_finite() || onset_s < 0.0 || duration_s < 0.0 {
            return Err(EdfError::BadAnnotation {
                onset_s,
                duration_s,
            });
        }
        Ok(Annotation {
            onset_s,
            duration_s,
            label: label.into(),
        })
    }

    /// Onset in seconds from the recording start.
    #[must_use]
    pub fn onset_s(&self) -> f64 {
        self.onset_s
    }

    /// Duration in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// End time in seconds (`onset + duration`).
    #[must_use]
    pub fn end_s(&self) -> f64 {
        self.onset_s + self.duration_s
    }

    /// The event label text.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether this annotation overlaps the half-open interval
    /// `[from_s, to_s)`.
    #[must_use]
    pub fn overlaps(&self, from_s: f64, to_s: f64) -> bool {
        self.onset_s < to_s && from_s < self.end_s()
    }

    /// Whether the instant `t_s` falls inside this annotation.
    #[must_use]
    pub fn contains(&self, t_s: f64) -> bool {
        t_s >= self.onset_s && t_s < self.end_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_negative_values() {
        assert!(Annotation::new(-1.0, 5.0, "x").is_err());
        assert!(Annotation::new(1.0, -5.0, "x").is_err());
        assert!(Annotation::new(f64::NAN, 5.0, "x").is_err());
        assert!(Annotation::new(1.0, f64::INFINITY, "x").is_err());
    }

    #[test]
    fn zero_duration_is_instantaneous_marker() {
        let a = Annotation::new(10.0, 0.0, "marker").unwrap();
        assert_eq!(a.end_s(), 10.0);
        // The half-open interval is empty, so no instant is contained…
        assert!(!a.contains(10.0));
        // …but a marker strictly inside a window still registers as overlap.
        assert!(a.overlaps(5.0, 20.0));
        assert!(!a.overlaps(10.0, 20.0));
    }

    #[test]
    fn overlap_edges_are_half_open() {
        let a = Annotation::new(10.0, 5.0, "sz").unwrap();
        assert!(a.overlaps(14.9, 16.0));
        assert!(!a.overlaps(15.0, 16.0));
        assert!(a.overlaps(9.0, 10.1));
        assert!(!a.overlaps(9.0, 10.0));
    }

    #[test]
    fn contains_interior_not_end() {
        let a = Annotation::new(2.0, 3.0, "sz").unwrap();
        assert!(a.contains(2.0));
        assert!(a.contains(4.999));
        assert!(!a.contains(5.0));
        assert!(!a.contains(1.999));
    }

    #[test]
    fn label_preserved() {
        let a = Annotation::new(0.0, 1.0, String::from("encephalopathy")).unwrap();
        assert_eq!(a.label(), "encephalopathy");
    }
}
