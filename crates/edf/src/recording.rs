use std::io::{Read, Write};

use crate::{codec, Annotation, Channel, EdfError};

/// A calendar start timestamp (EDF stores `dd.mm.yy` / `hh.mm.ss`; we keep a
/// four-digit year internally).
///
/// # Example
///
/// ```
/// use emap_edf::StartTime;
///
/// # fn main() -> Result<(), emap_edf::EdfError> {
/// let t = StartTime::new(2020, 4, 22, 9, 15, 0)?;
/// assert_eq!(t.year(), 2020);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StartTime {
    year: u16,
    month: u8,
    day: u8,
    hour: u8,
    minute: u8,
    second: u8,
}

impl StartTime {
    /// Creates a validated timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`EdfError::BadStartTime`] if any component is out of its
    /// calendar range (month 1–12, day 1–31, hour 0–23, minute/second 0–59).
    pub fn new(
        year: u16,
        month: u8,
        day: u8,
        hour: u8,
        minute: u8,
        second: u8,
    ) -> Result<Self, EdfError> {
        if !(1..=12).contains(&month)
            || !(1..=31).contains(&day)
            || hour > 23
            || minute > 59
            || second > 59
        {
            return Err(EdfError::BadStartTime);
        }
        Ok(StartTime {
            year,
            month,
            day,
            hour,
            minute,
            second,
        })
    }

    /// Four-digit year.
    #[must_use]
    pub fn year(self) -> u16 {
        self.year
    }
    /// Month (1–12).
    #[must_use]
    pub fn month(self) -> u8 {
        self.month
    }
    /// Day of month (1–31).
    #[must_use]
    pub fn day(self) -> u8 {
        self.day
    }
    /// Hour (0–23).
    #[must_use]
    pub fn hour(self) -> u8 {
        self.hour
    }
    /// Minute (0–59).
    #[must_use]
    pub fn minute(self) -> u8 {
        self.minute
    }
    /// Second (0–59).
    #[must_use]
    pub fn second(self) -> u8 {
        self.second
    }
}

impl Default for StartTime {
    /// Midnight on 2020-01-01 — an arbitrary but valid epoch for synthetic
    /// recordings.
    fn default() -> Self {
        StartTime {
            year: 2020,
            month: 1,
            day: 1,
            hour: 0,
            minute: 0,
            second: 0,
        }
    }
}

/// A multi-channel EEG recording with annotations.
///
/// Construct with [`Recording::builder`]; serialize with
/// [`Recording::write_to`] and [`Recording::read_from`]. See the crate docs
/// for a complete round-trip example.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    patient_id: String,
    recording_id: String,
    start_time: StartTime,
    channels: Vec<Channel>,
    annotations: Vec<Annotation>,
}

impl Recording {
    /// Starts building a recording with the two EDF identity fields.
    #[must_use]
    pub fn builder(
        patient_id: impl Into<String>,
        recording_id: impl Into<String>,
    ) -> RecordingBuilder {
        RecordingBuilder {
            patient_id: patient_id.into(),
            recording_id: recording_id.into(),
            start_time: StartTime::default(),
            channels: Vec::new(),
            annotations: Vec::new(),
        }
    }

    /// EDF "local patient identification" field.
    #[must_use]
    pub fn patient_id(&self) -> &str {
        &self.patient_id
    }

    /// EDF "local recording identification" field.
    #[must_use]
    pub fn recording_id(&self) -> &str {
        &self.recording_id
    }

    /// Recording start timestamp.
    #[must_use]
    pub fn start_time(&self) -> StartTime {
        self.start_time
    }

    /// The signal channels.
    #[must_use]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Finds a channel by its label.
    #[must_use]
    pub fn channel(&self, label: &str) -> Option<&Channel> {
        self.channels.iter().find(|c| c.label() == label)
    }

    /// The event annotations, in insertion order.
    #[must_use]
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// Appends an annotation.
    pub fn push_annotation(&mut self, annotation: Annotation) {
        self.annotations.push(annotation);
    }

    /// Annotations whose label equals `label`.
    pub fn annotations_labeled<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = &'a Annotation> + 'a {
        self.annotations.iter().filter(move |a| a.label() == label)
    }

    /// Duration of the longest channel, in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.channels
            .iter()
            .map(Channel::duration_s)
            .fold(0.0, f64::max)
    }

    /// Serializes the recording to `writer` in the EMAP-EDF binary format.
    ///
    /// Note that a plain `&mut Vec<u8>` or `&mut W` works here because
    /// `Write` is implemented for mutable references.
    ///
    /// # Errors
    ///
    /// Returns [`EdfError::Io`] on write failures and
    /// [`EdfError::FieldTooLong`]/[`EdfError::MalformedHeader`] if metadata
    /// does not fit the fixed-width header slots.
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), EdfError> {
        codec::write_recording(self, writer)
    }

    /// Deserializes a recording previously written with
    /// [`Recording::write_to`]. A `&mut &[u8]` works as the reader.
    ///
    /// # Errors
    ///
    /// Returns [`EdfError::BadMagic`] for foreign streams,
    /// [`EdfError::CorruptStream`]/[`EdfError::MalformedHeader`] for
    /// inconsistent headers, and [`EdfError::Io`] for truncated data.
    pub fn read_from<R: Read>(reader: R) -> Result<Self, EdfError> {
        codec::read_recording(reader)
    }

    /// Reads only the headers of a stream, returning a cheap description of
    /// its contents without materializing any sample data — useful for
    /// inventorying large archives before deciding what to load.
    ///
    /// # Errors
    ///
    /// Same header-related errors as [`Recording::read_from`]; truncated
    /// *sample* payloads do not affect it.
    pub fn peek<R: Read>(reader: R) -> Result<codec::RecordingInfo, EdfError> {
        codec::peek_info(reader)
    }

    pub(crate) fn from_codec_parts(
        patient_id: String,
        recording_id: String,
        start_time: StartTime,
        channels: Vec<Channel>,
        annotations: Vec<Annotation>,
    ) -> Result<Self, EdfError> {
        if channels.is_empty() {
            return Err(EdfError::NoChannels);
        }
        Ok(Recording {
            patient_id,
            recording_id,
            start_time,
            channels,
            annotations,
        })
    }
}

/// Incremental builder for [`Recording`] (see [`Recording::builder`]).
#[derive(Debug, Clone)]
pub struct RecordingBuilder {
    patient_id: String,
    recording_id: String,
    start_time: StartTime,
    channels: Vec<Channel>,
    annotations: Vec<Annotation>,
}

impl RecordingBuilder {
    /// Sets the start timestamp.
    #[must_use]
    pub fn start_time(mut self, t: StartTime) -> Self {
        self.start_time = t;
        self
    }

    /// Adds one channel.
    #[must_use]
    pub fn channel(mut self, channel: Channel) -> Self {
        self.channels.push(channel);
        self
    }

    /// Adds many channels.
    #[must_use]
    pub fn channels(mut self, channels: impl IntoIterator<Item = Channel>) -> Self {
        self.channels.extend(channels);
        self
    }

    /// Adds one annotation.
    #[must_use]
    pub fn annotation(mut self, annotation: Annotation) -> Self {
        self.annotations.push(annotation);
        self
    }

    /// Finalizes the recording.
    ///
    /// # Errors
    ///
    /// Returns [`EdfError::NoChannels`] if no channel was added.
    pub fn build(self) -> Result<Recording, EdfError> {
        Recording::from_codec_parts(
            self.patient_id,
            self.recording_id,
            self.start_time,
            self.channels,
            self.annotations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_dsp::SampleRate;

    fn rate() -> SampleRate {
        SampleRate::new(256.0).unwrap()
    }

    fn channel(label: &str, n: usize) -> Channel {
        Channel::new(label, rate(), vec![1.0; n]).unwrap()
    }

    #[test]
    fn builder_requires_channels() {
        assert!(matches!(
            Recording::builder("p", "r").build(),
            Err(EdfError::NoChannels)
        ));
    }

    #[test]
    fn builder_collects_everything() {
        let rec = Recording::builder("p1", "r1")
            .start_time(StartTime::new(2021, 6, 1, 8, 0, 0).unwrap())
            .channel(channel("C3", 256))
            .channels([channel("C4", 256), channel("O1", 512)])
            .annotation(Annotation::new(0.5, 1.0, "seizure").unwrap())
            .build()
            .unwrap();
        assert_eq!(rec.patient_id(), "p1");
        assert_eq!(rec.channels().len(), 3);
        assert_eq!(rec.annotations().len(), 1);
        assert_eq!(rec.start_time().year(), 2021);
        assert!((rec.duration_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn channel_lookup_by_label() {
        let rec = Recording::builder("p", "r")
            .channel(channel("C3", 10))
            .channel(channel("C4", 10))
            .build()
            .unwrap();
        assert!(rec.channel("C4").is_some());
        assert!(rec.channel("Cz").is_none());
    }

    #[test]
    fn labeled_annotation_filter() {
        let mut rec = Recording::builder("p", "r")
            .channel(channel("C3", 10))
            .build()
            .unwrap();
        rec.push_annotation(Annotation::new(0.0, 1.0, "seizure").unwrap());
        rec.push_annotation(Annotation::new(2.0, 1.0, "artifact").unwrap());
        rec.push_annotation(Annotation::new(5.0, 1.0, "seizure").unwrap());
        assert_eq!(rec.annotations_labeled("seizure").count(), 2);
        assert_eq!(rec.annotations_labeled("artifact").count(), 1);
        assert_eq!(rec.annotations_labeled("none").count(), 0);
    }

    #[test]
    fn start_time_validation() {
        assert!(StartTime::new(2020, 0, 1, 0, 0, 0).is_err());
        assert!(StartTime::new(2020, 13, 1, 0, 0, 0).is_err());
        assert!(StartTime::new(2020, 1, 0, 0, 0, 0).is_err());
        assert!(StartTime::new(2020, 1, 32, 0, 0, 0).is_err());
        assert!(StartTime::new(2020, 1, 1, 24, 0, 0).is_err());
        assert!(StartTime::new(2020, 1, 1, 0, 60, 0).is_err());
        assert!(StartTime::new(2020, 1, 1, 0, 0, 60).is_err());
        assert!(StartTime::new(2020, 12, 31, 23, 59, 59).is_ok());
    }

    #[test]
    fn default_start_time_is_valid() {
        let t = StartTime::default();
        assert!(StartTime::new(
            t.year(),
            t.month(),
            t.day(),
            t.hour(),
            t.minute(),
            t.second()
        )
        .is_ok());
    }
}
