use std::fmt;
use std::io;

/// Errors from mega-database construction, access, and persistence.
#[derive(Debug)]
#[non_exhaustive]
pub enum MdbError {
    /// Underlying I/O failure while persisting or loading a snapshot.
    Io(io::Error),
    /// A DSP stage of the ingestion pipeline failed.
    Dsp(emap_dsp::DspError),
    /// A snapshot stream does not start with the expected magic bytes.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 8],
    },
    /// A snapshot stream declares impossible sizes or contains malformed
    /// payloads.
    CorruptSnapshot {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A signal-set was constructed with the wrong number of samples.
    WrongSliceLength {
        /// The number of samples supplied.
        got: usize,
    },
    /// A sample is non-finite or rounds outside the 16-bit count range
    /// `[-32768, 32767]`, so it is no count a signal-set can hold.
    SampleOutOfRange {
        /// Where in the slice the sample sits.
        index: usize,
        /// The sample as supplied.
        value: f32,
    },
    /// A recording channel is not in microvolts, the unit of a
    /// signal-set's counts, so its samples would round to zeros or
    /// overflow 16 bits.
    NotMicrovolts {
        /// The channel's label.
        channel: String,
        /// The channel's physical dimension.
        unit: String,
    },
    /// A set id is not present in the store.
    UnknownSet {
        /// The requested id.
        id: u64,
    },
    /// A recording or ingest request carries a class label no
    /// [`emap_datasets::SignalClass`] uses — a malformed label must surface
    /// as a typed error to an ingesting server, never as a panic.
    UnknownClassLabel {
        /// The offending label.
        label: String,
    },
}

impl fmt::Display for MdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdbError::Io(e) => write!(f, "i/o failure: {e}"),
            MdbError::Dsp(e) => write!(f, "dsp failure: {e}"),
            MdbError::BadMagic { found } => {
                write!(f, "bad magic bytes {found:?}, not an MDB snapshot")
            }
            MdbError::CorruptSnapshot { detail } => write!(f, "corrupt snapshot: {detail}"),
            MdbError::WrongSliceLength { got } => write!(
                f,
                "signal-set must hold exactly {} samples, got {got}",
                crate::SIGNAL_SET_LEN
            ),
            MdbError::SampleOutOfRange { index, value } => write!(
                f,
                "sample {index} is {value}, not a 16-bit count in [-32768, 32767]"
            ),
            MdbError::NotMicrovolts { channel, unit } => write!(
                f,
                "channel `{channel}` is in `{unit}`, not in the microvolts a signal-set counts"
            ),
            MdbError::UnknownSet { id } => write!(f, "unknown signal-set id {id}"),
            MdbError::UnknownClassLabel { label } => {
                write!(f, "unknown signal-class label `{label}`")
            }
        }
    }
}

impl std::error::Error for MdbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MdbError::Io(e) => Some(e),
            MdbError::Dsp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for MdbError {
    fn from(e: io::Error) -> Self {
        MdbError::Io(e)
    }
}

impl From<emap_dsp::DspError> for MdbError {
    fn from(e: emap_dsp::DspError) -> Self {
        MdbError::Dsp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs: Vec<MdbError> = vec![
            MdbError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "eof")),
            MdbError::Dsp(emap_dsp::DspError::EmptySignal),
            MdbError::BadMagic {
                found: *b"12345678",
            },
            MdbError::CorruptSnapshot { detail: "x".into() },
            MdbError::WrongSliceLength { got: 3 },
            MdbError::SampleOutOfRange {
                index: 3,
                value: f32::NAN,
            },
            MdbError::NotMicrovolts {
                channel: "C3".into(),
                unit: "mV".into(),
            },
            MdbError::UnknownSet { id: 7 },
            MdbError::UnknownClassLabel { label: "sz".into() },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync + 'static>() {}
        check::<MdbError>();
    }
}
