use std::fmt;

/// The four signal classes of the EMAP evaluation: normal background EEG and
/// the three anomalies of Table I.
///
/// # Example
///
/// ```
/// use emap_datasets::SignalClass;
///
/// assert!(SignalClass::Seizure.is_anomaly());
/// assert!(!SignalClass::Normal.is_anomaly());
/// assert_eq!(SignalClass::Stroke.label(), "stroke");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SignalClass {
    /// Healthy background EEG (alpha/beta mixture).
    Normal,
    /// Epileptic seizure: stereotyped ~3 Hz spike-and-wave discharges
    /// (Anomaly 1, the richly annotated case — Fig. 10).
    Seizure,
    /// Encephalopathy: diffuse slowing with triphasic waves (Anomaly 2).
    Encephalopathy,
    /// Stroke: focal attenuation with polymorphic slow activity (Anomaly 3).
    Stroke,
}

impl SignalClass {
    /// All classes, in evaluation order.
    pub const ALL: [SignalClass; 4] = [
        SignalClass::Normal,
        SignalClass::Seizure,
        SignalClass::Encephalopathy,
        SignalClass::Stroke,
    ];

    /// The three anomaly classes of Table I, in the paper's row order.
    pub const ANOMALIES: [SignalClass; 3] = [
        SignalClass::Seizure,
        SignalClass::Encephalopathy,
        SignalClass::Stroke,
    ];

    /// Whether this class counts as anomalous for the probability estimate
    /// `P_A = N(AS)/N(F)` (Eq. 5).
    #[must_use]
    pub fn is_anomaly(self) -> bool {
        !matches!(self, SignalClass::Normal)
    }

    /// The annotation label used in recordings of this class.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SignalClass::Normal => "normal",
            SignalClass::Seizure => "seizure",
            SignalClass::Encephalopathy => "encephalopathy",
            SignalClass::Stroke => "stroke",
        }
    }

    /// Parses a label produced by [`SignalClass::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<SignalClass> {
        SignalClass::ALL.into_iter().find(|c| c.label() == label)
    }

    /// A small per-class constant used to decorrelate the pattern libraries
    /// of different classes under the same global seed.
    pub(crate) fn seed_tag(self) -> u64 {
        match self {
            SignalClass::Normal => 0x4e4f524d,
            SignalClass::Seizure => 0x53455a55,
            SignalClass::Encephalopathy => 0x454e4350,
            SignalClass::Stroke => 0x5354524b,
        }
    }
}

impl fmt::Display for SignalClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anomaly_flags() {
        assert!(!SignalClass::Normal.is_anomaly());
        for c in SignalClass::ANOMALIES {
            assert!(c.is_anomaly());
        }
    }

    #[test]
    fn label_roundtrip() {
        for c in SignalClass::ALL {
            assert_eq!(SignalClass::from_label(c.label()), Some(c));
        }
        assert_eq!(SignalClass::from_label("bogus"), None);
    }

    #[test]
    fn display_matches_label() {
        for c in SignalClass::ALL {
            assert_eq!(c.to_string(), c.label());
        }
    }

    #[test]
    fn seed_tags_are_distinct() {
        let mut tags: Vec<u64> = SignalClass::ALL.iter().map(|c| c.seed_tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 4);
    }
}
