use emap_dsp::kernel::KernelCorrelator;
use emap_dsp::SAMPLES_PER_SECOND;

use crate::SearchError;

/// The patient's one-second input window `I_N`, held as the raw samples
/// and as the [`KernelCorrelator`] that normalizes them once (min–max to
/// `[0, 1]`, then unit energy — the paper's `ω` convention) and evaluates
/// `ω` against every host window the search scans.
///
/// The acquisition stage transmits exactly 256 bandpass-filtered samples
/// per time-step (§V-A); construct the query from those.
///
/// # Example
///
/// ```
/// use emap_search::Query;
///
/// # fn main() -> Result<(), emap_search::SearchError> {
/// let second: Vec<f32> = (0..256).map(|n| (n as f32 * 0.3).sin()).collect();
/// let q = Query::new(&second)?;
/// assert_eq!(q.samples().len(), 256);
/// assert_eq!(q.kernel().window_len(), 256);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    samples: Vec<f32>,
    kernel: KernelCorrelator,
}

impl Query {
    /// Creates a query from one second of filtered samples.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::BadQueryLength`] unless exactly
    /// [`SAMPLES_PER_SECOND`] samples are supplied, and
    /// [`SearchError::NonFiniteSample`] if any sample is NaN or infinite
    /// (a disconnected electrode would otherwise poison every correlation).
    pub fn new(samples: &[f32]) -> Result<Self, SearchError> {
        if samples.len() != SAMPLES_PER_SECOND {
            return Err(SearchError::BadQueryLength { got: samples.len() });
        }
        if let Some(pos) = samples.iter().position(|v| !v.is_finite()) {
            return Err(SearchError::NonFiniteSample { position: pos });
        }
        Ok(Query {
            samples: samples.to_vec(),
            kernel: KernelCorrelator::new(samples)?,
        })
    }

    /// The raw query samples.
    #[must_use]
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// The correlator every search evaluates `ω` with.
    #[must_use]
    pub fn kernel(&self) -> &KernelCorrelator {
        &self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_length_rejected() {
        assert_eq!(
            Query::new(&[0.0; 255]).unwrap_err(),
            SearchError::BadQueryLength { got: 255 }
        );
        assert!(Query::new(&[0.0; 256]).is_ok());
    }

    #[test]
    fn non_finite_samples_rejected() {
        let mut s = vec![0.5f32; 256];
        s[100] = f32::NAN;
        assert!(matches!(
            Query::new(&s),
            Err(SearchError::NonFiniteSample { position: 100 })
        ));
        s[100] = f32::INFINITY;
        assert!(Query::new(&s).is_err());
    }

    #[test]
    fn exposes_samples_and_kernel() {
        let s: Vec<f32> = (0..256).map(|n| n as f32).collect();
        let q = Query::new(&s).unwrap();
        assert_eq!(q.samples(), &s[..]);
        assert_eq!(q.kernel().window_len(), 256);
    }
}
