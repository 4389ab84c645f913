use std::fmt;

/// Errors from the edge tracker.
#[derive(Debug)]
#[non_exhaustive]
pub enum EdgeError {
    /// The input window has the wrong length (must be 256 samples).
    BadInputLength {
        /// The supplied length.
        got: usize,
    },
    /// A configuration parameter is out of range.
    BadConfig {
        /// Which parameter.
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A correlation-set hit references a signal-set missing from the MDB.
    MissingSet(emap_mdb::MdbError),
    /// A downloaded slice does not hold exactly
    /// [`emap_mdb::SIGNAL_SET_LEN`] samples. Carries the offending
    /// signal-set's ID so degraded-mode logs can name the host.
    BadSliceLength {
        /// Which signal-set shipped the malformed slice.
        set_id: emap_mdb::SetId,
        /// The supplied length.
        got: usize,
    },
    /// An underlying DSP primitive failed.
    Dsp(emap_dsp::DspError),
}

impl fmt::Display for EdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeError::BadInputLength { got } => {
                write!(f, "input window must hold 256 samples, got {got}")
            }
            EdgeError::BadConfig { parameter, value } => {
                write!(f, "edge parameter `{parameter}` has invalid value {value}")
            }
            EdgeError::MissingSet(e) => write!(f, "correlation set references missing data: {e}"),
            EdgeError::BadSliceLength { set_id, got } => write!(
                f,
                "downloaded slice for signal-set {} must hold {} samples, got {got}",
                set_id.0,
                emap_mdb::SIGNAL_SET_LEN
            ),
            EdgeError::Dsp(e) => write!(f, "dsp failure: {e}"),
        }
    }
}

impl std::error::Error for EdgeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeError::MissingSet(e) => Some(e),
            EdgeError::Dsp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<emap_mdb::MdbError> for EdgeError {
    fn from(e: emap_mdb::MdbError) -> Self {
        EdgeError::MissingSet(e)
    }
}

impl From<emap_dsp::DspError> for EdgeError {
    fn from(e: emap_dsp::DspError) -> Self {
        EdgeError::Dsp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs: Vec<EdgeError> = vec![
            EdgeError::BadInputLength { got: 1 },
            EdgeError::BadConfig {
                parameter: "delta_a",
                value: -1.0,
            },
            EdgeError::MissingSet(emap_mdb::MdbError::UnknownSet { id: 5 }),
            EdgeError::BadSliceLength {
                set_id: emap_mdb::SetId(7),
                got: 999,
            },
            EdgeError::Dsp(emap_dsp::DspError::EmptySignal),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync + 'static>() {}
        check::<EdgeError>();
    }
}
