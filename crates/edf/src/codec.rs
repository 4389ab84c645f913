//! Binary encoder/decoder for [`Recording`].
//!
//! Layout (all header fields fixed-width space-padded ASCII, as in EDF):
//!
//! ```text
//! magic                8 bytes  "EMAPEDF1"
//! patient_id          80
//! recording_id        80
//! start date          10       dd.mm.yyyy
//! start time           8       hh.mm.ss
//! n_channels           8       integer
//! n_annotations        8       integer
//! per channel:
//!   label             16
//!   physical_dim       8
//!   physical_min      12       float
//!   physical_max      12       float
//!   digital_min        8       integer
//!   digital_max        8       integer
//!   prefiltering      40
//!   rate_hz           12       float
//!   n_samples         12       integer
//! samples: per channel, n_samples × i16 little-endian digital codes
//! annotations: per annotation,
//!   onset f64 LE, duration f64 LE, label_len u16 LE, label utf-8 bytes
//! ```
//!
//! Divergence from stock EDF (documented in `DESIGN.md`): samples are stored
//! channel-major rather than interleaved into one-second records, and
//! annotations use the binary block above rather than an EDF+ TAL channel.
//! The quantization semantics (16-bit digital codes through the per-channel
//! calibration) are identical.

use std::io::{Read, Write};

use emap_dsp::SampleRate;

use crate::header::{read_float, read_int, read_str, write_float, write_int, write_str};
use crate::{Annotation, Channel, EdfError, Recording, StartTime, MAGIC};

const W_PATIENT: usize = 80;
const W_RECORDING: usize = 80;
const W_DATE: usize = 10;
const W_TIME: usize = 8;
const W_COUNT: usize = 8;
const W_LABEL: usize = 16;
const W_DIM: usize = 8;
const W_FLOAT: usize = 12;
const W_PREFILTER: usize = 40;

/// Upper bound on declared counts, to fail fast on corrupt headers instead
/// of attempting enormous allocations.
const MAX_DECLARED: i64 = 1 << 40;

pub(crate) fn write_recording<W: Write>(rec: &Recording, mut w: W) -> Result<(), EdfError> {
    w.write_all(MAGIC)?;
    write_str(&mut w, "patient_id", rec.patient_id(), W_PATIENT)?;
    write_str(&mut w, "recording_id", rec.recording_id(), W_RECORDING)?;
    let t = rec.start_time();
    write_str(
        &mut w,
        "start_date",
        &format!("{:02}.{:02}.{:04}", t.day(), t.month(), t.year()),
        W_DATE,
    )?;
    write_str(
        &mut w,
        "start_time",
        &format!("{:02}.{:02}.{:02}", t.hour(), t.minute(), t.second()),
        W_TIME,
    )?;
    write_int(&mut w, "n_channels", rec.channels().len() as i64, W_COUNT)?;
    write_int(
        &mut w,
        "n_annotations",
        rec.annotations().len() as i64,
        W_COUNT,
    )?;

    for ch in rec.channels() {
        let (dmin, dmax) = ch.digital_bounds();
        write_str(&mut w, "label", ch.label(), W_LABEL)?;
        write_str(&mut w, "physical_dim", ch.physical_dimension(), W_DIM)?;
        write_float(&mut w, "physical_min", ch.physical_min(), W_FLOAT)?;
        write_float(&mut w, "physical_max", ch.physical_max(), W_FLOAT)?;
        write_int(&mut w, "digital_min", i64::from(dmin), W_COUNT)?;
        write_int(&mut w, "digital_max", i64::from(dmax), W_COUNT)?;
        write_str(&mut w, "prefiltering", ch.prefiltering(), W_PREFILTER)?;
        write_float(&mut w, "rate_hz", ch.rate().hz(), W_FLOAT)?;
        write_int(&mut w, "n_samples", ch.len() as i64, W_FLOAT)?;
    }

    for ch in rec.channels() {
        let mut buf = Vec::with_capacity(ch.len() * 2);
        for &s in ch.samples() {
            buf.extend_from_slice(&ch.physical_to_digital(s).to_le_bytes());
        }
        w.write_all(&buf)?;
    }

    for ann in rec.annotations() {
        let mut buf = Vec::with_capacity(18 + ann.label().len());
        buf.extend_from_slice(&ann.onset_s().to_le_bytes());
        buf.extend_from_slice(&ann.duration_s().to_le_bytes());
        let label = ann.label().as_bytes();
        if label.len() > usize::from(u16::MAX) {
            return Err(EdfError::FieldTooLong {
                field: "annotation_label",
                max: usize::from(u16::MAX),
                len: label.len(),
            });
        }
        buf.extend_from_slice(&(label.len() as u16).to_le_bytes());
        buf.extend_from_slice(label);
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Lightweight description of a stream's contents, read from the headers
/// only — no sample data is materialized. Use to inspect large files
/// cheaply before deciding to load them.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingInfo {
    /// EDF "local patient identification" field.
    pub patient_id: String,
    /// EDF "local recording identification" field.
    pub recording_id: String,
    /// Recording start timestamp.
    pub start_time: StartTime,
    /// `(label, rate_hz, n_samples)` per channel.
    pub channels: Vec<(String, f64, usize)>,
    /// Number of annotations in the trailing block.
    pub n_annotations: usize,
}

impl RecordingInfo {
    /// Total duration in seconds (longest channel).
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.channels
            .iter()
            .map(|(_, rate, n)| *n as f64 / rate)
            .fold(0.0, f64::max)
    }
}

pub(crate) fn peek_info<R: Read>(mut r: R) -> Result<RecordingInfo, EdfError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(EdfError::BadMagic { found: magic });
    }
    let patient_id = read_str(&mut r, "patient_id", W_PATIENT)?;
    let recording_id = read_str(&mut r, "recording_id", W_RECORDING)?;
    let date = read_str(&mut r, "start_date", W_DATE)?;
    let time = read_str(&mut r, "start_time", W_TIME)?;
    let start_time = parse_start(&date, &time)?;
    let n_channels = read_count(&mut r, "n_channels")?;
    let n_annotations = read_count(&mut r, "n_annotations")?;
    if n_channels == 0 {
        return Err(EdfError::NoChannels);
    }
    let mut channels = Vec::with_capacity(n_channels);
    for _ in 0..n_channels {
        let label = read_str(&mut r, "label", W_LABEL)?;
        let _dim = read_str(&mut r, "physical_dim", W_DIM)?;
        let _pmin = read_float(&mut r, "physical_min", W_FLOAT)?;
        let _pmax = read_float(&mut r, "physical_max", W_FLOAT)?;
        let _dmin = read_int(&mut r, "digital_min", W_COUNT)?;
        let _dmax = read_int(&mut r, "digital_max", W_COUNT)?;
        let _pre = read_str(&mut r, "prefiltering", W_PREFILTER)?;
        let rate_hz = read_float(&mut r, "rate_hz", W_FLOAT)?;
        let n_samples = read_int(&mut r, "n_samples", W_FLOAT)?;
        if !(0..=MAX_DECLARED).contains(&n_samples) {
            return Err(EdfError::CorruptStream {
                detail: format!("declared sample count {n_samples} out of range"),
            });
        }
        channels.push((label, rate_hz, n_samples as usize));
    }
    Ok(RecordingInfo {
        patient_id,
        recording_id,
        start_time,
        channels,
        n_annotations,
    })
}

struct ChannelHeader {
    label: String,
    physical_dimension: String,
    physical_min: f64,
    physical_max: f64,
    digital_min: i32,
    digital_max: i32,
    prefiltering: String,
    rate: SampleRate,
    n_samples: usize,
}

pub(crate) fn read_recording<R: Read>(mut r: R) -> Result<Recording, EdfError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(EdfError::BadMagic { found: magic });
    }

    let patient_id = read_str(&mut r, "patient_id", W_PATIENT)?;
    let recording_id = read_str(&mut r, "recording_id", W_RECORDING)?;
    let date = read_str(&mut r, "start_date", W_DATE)?;
    let time = read_str(&mut r, "start_time", W_TIME)?;
    let start_time = parse_start(&date, &time)?;

    let n_channels = read_count(&mut r, "n_channels")?;
    let n_annotations = read_count(&mut r, "n_annotations")?;
    if n_channels == 0 {
        return Err(EdfError::NoChannels);
    }

    let mut headers = Vec::with_capacity(n_channels);
    for _ in 0..n_channels {
        let label = read_str(&mut r, "label", W_LABEL)?;
        let physical_dimension = read_str(&mut r, "physical_dim", W_DIM)?;
        let physical_min = read_float(&mut r, "physical_min", W_FLOAT)?;
        let physical_max = read_float(&mut r, "physical_max", W_FLOAT)?;
        let digital_min = read_int(&mut r, "digital_min", W_COUNT)?;
        let digital_max = read_int(&mut r, "digital_max", W_COUNT)?;
        let prefiltering = read_str(&mut r, "prefiltering", W_PREFILTER)?;
        let rate_hz = read_float(&mut r, "rate_hz", W_FLOAT)?;
        let n_samples = read_int(&mut r, "n_samples", W_FLOAT)?;
        if !(0..=MAX_DECLARED).contains(&n_samples) {
            return Err(EdfError::CorruptStream {
                detail: format!("declared sample count {n_samples} out of range"),
            });
        }
        let digital_min = i32::try_from(digital_min).map_err(|_| EdfError::CorruptStream {
            detail: "digital_min outside i32".into(),
        })?;
        let digital_max = i32::try_from(digital_max).map_err(|_| EdfError::CorruptStream {
            detail: "digital_max outside i32".into(),
        })?;
        headers.push(ChannelHeader {
            label,
            physical_dimension,
            physical_min,
            physical_max,
            digital_min,
            digital_max,
            prefiltering,
            rate: SampleRate::new(rate_hz)?,
            n_samples: n_samples as usize,
        });
    }

    let mut channels = Vec::with_capacity(n_channels);
    for h in headers {
        let mut raw = vec![0u8; h.n_samples * 2];
        r.read_exact(&mut raw)?;
        // Decode through a throwaway channel carrying the calibration, then
        // rebuild with the decoded physical samples.
        let calib = Channel::from_codec_parts(
            h.label.clone(),
            h.physical_dimension.clone(),
            h.physical_min,
            h.physical_max,
            h.digital_min,
            h.digital_max,
            h.prefiltering.clone(),
            h.rate,
            vec![0.0],
        )?;
        let samples = raw
            .chunks_exact(2)
            .map(|code| calib.digital_to_physical(i16::from_le_bytes([code[0], code[1]])))
            .collect();
        channels.push(Channel::from_codec_parts(
            h.label,
            h.physical_dimension,
            h.physical_min,
            h.physical_max,
            h.digital_min,
            h.digital_max,
            h.prefiltering,
            h.rate,
            samples,
        )?);
    }

    let mut annotations = Vec::with_capacity(n_annotations);
    for _ in 0..n_annotations {
        let mut fixed = [0u8; 18];
        r.read_exact(&mut fixed)?;
        let field = |at: usize| fixed[at..at + 8].try_into().expect("8 of 18 bytes");
        let onset = f64::from_le_bytes(field(0));
        let duration = f64::from_le_bytes(field(8));
        let label_len = usize::from(u16::from_le_bytes([fixed[16], fixed[17]]));
        let mut label_bytes = vec![0u8; label_len];
        r.read_exact(&mut label_bytes)?;
        let label = String::from_utf8(label_bytes).map_err(|_| EdfError::CorruptStream {
            detail: "annotation label is not utf-8".into(),
        })?;
        annotations.push(Annotation::new(onset, duration, label)?);
    }

    Recording::from_codec_parts(patient_id, recording_id, start_time, channels, annotations)
}

fn read_count<R: Read>(r: &mut R, field: &'static str) -> Result<usize, EdfError> {
    let v = read_int(r, field, W_COUNT)?;
    if !(0..=MAX_DECLARED).contains(&v) {
        return Err(EdfError::CorruptStream {
            detail: format!("declared {field} = {v} out of range"),
        });
    }
    Ok(v as usize)
}

fn parse_start(date: &str, time: &str) -> Result<StartTime, EdfError> {
    let dp: Vec<&str> = date.split('.').collect();
    let tp: Vec<&str> = time.split('.').collect();
    if dp.len() != 3 || tp.len() != 3 {
        return Err(EdfError::MalformedHeader { field: "start" });
    }
    let parse = |s: &str| -> Result<u16, EdfError> {
        s.parse()
            .map_err(|_| EdfError::MalformedHeader { field: "start" })
    };
    StartTime::new(
        parse(dp[2])?,
        parse(dp[1])? as u8,
        parse(dp[0])? as u8,
        parse(tp[0])? as u8,
        parse(tp[1])? as u8,
        parse(tp[2])? as u8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate() -> SampleRate {
        SampleRate::new(256.0).unwrap()
    }

    fn sample_recording() -> Recording {
        let c1 = Channel::new(
            "EEG Fp1",
            rate(),
            (0..512)
                .map(|n| ((n as f32) * 0.11).sin() * 120.0)
                .collect(),
        )
        .unwrap()
        .with_prefiltering("HP:0.5Hz");
        let c2 = Channel::with_calibration(
            "EEG O2",
            SampleRate::new(512.0).unwrap(),
            (0..1024)
                .map(|n| ((n as f32) * 0.07).cos() * 80.0)
                .collect(),
            -200.0,
            200.0,
            "uV",
        )
        .unwrap();
        Recording::builder("patient X", "session 7")
            .start_time(StartTime::new(2020, 4, 22, 14, 5, 59).unwrap())
            .channel(c1)
            .channel(c2)
            .annotation(Annotation::new(0.25, 1.5, "seizure").unwrap())
            .annotation(Annotation::new(1.75, 0.0, "marker").unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn peek_reads_headers_without_samples() {
        let rec = sample_recording();
        let mut buf = Vec::new();
        rec.write_to(&mut buf).unwrap();
        let info = crate::Recording::peek(&mut buf.as_slice()).unwrap();
        assert_eq!(info.patient_id, "patient X");
        assert_eq!(info.recording_id, "session 7");
        assert_eq!(info.start_time, rec.start_time());
        assert_eq!(info.n_annotations, 2);
        assert_eq!(info.channels.len(), 2);
        assert_eq!(info.channels[0], ("EEG Fp1".to_string(), 256.0, 512));
        assert_eq!(info.channels[1].1, 512.0);
        assert!((info.duration_s() - 2.0).abs() < 1e-9);
        // Peek succeeds even when the sample payload is truncated.
        let header_len =
            8 + 80 + 80 + 10 + 8 + 8 + 8 + 2 * (16 + 8 + 12 + 12 + 8 + 8 + 40 + 12 + 12);
        assert!(crate::Recording::peek(&mut buf[..header_len].as_ref()).is_ok());
        assert!(crate::Recording::read_from(&mut buf[..header_len].as_ref()).is_err());
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let rec = sample_recording();
        let mut buf = Vec::new();
        rec.write_to(&mut buf).unwrap();
        let back = Recording::read_from(&mut buf.as_slice()).unwrap();

        assert_eq!(back.patient_id(), "patient X");
        assert_eq!(back.recording_id(), "session 7");
        assert_eq!(back.start_time(), rec.start_time());
        assert_eq!(back.channels().len(), 2);
        assert_eq!(back.annotations(), rec.annotations());
        assert_eq!(back.channels()[0].label(), "EEG Fp1");
        assert_eq!(back.channels()[0].prefiltering(), "HP:0.5Hz");
        assert_eq!(back.channels()[1].rate().hz(), 512.0);
    }

    #[test]
    fn roundtrip_samples_within_quantization() {
        let rec = sample_recording();
        let mut buf = Vec::new();
        rec.write_to(&mut buf).unwrap();
        let back = Recording::read_from(&mut buf.as_slice()).unwrap();
        for (orig, dec) in rec.channels().iter().zip(back.channels()) {
            let step = orig.quantization_step() as f32;
            for (a, b) in orig.samples().iter().zip(dec.samples()) {
                assert!((a - b).abs() <= step, "{a} vs {b} (step {step})");
            }
        }
    }

    #[test]
    fn double_roundtrip_is_lossless() {
        // Quantization is idempotent: decode(encode(decode(encode(x)))) ==
        // decode(encode(x)).
        let rec = sample_recording();
        let mut b1 = Vec::new();
        rec.write_to(&mut b1).unwrap();
        let once = Recording::read_from(&mut b1.as_slice()).unwrap();
        let mut b2 = Vec::new();
        once.write_to(&mut b2).unwrap();
        let twice = Recording::read_from(&mut b2.as_slice()).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = Vec::new();
        sample_recording().write_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            Recording::read_from(&mut buf.as_slice()),
            Err(EdfError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut buf = Vec::new();
        sample_recording().write_to(&mut buf).unwrap();
        for cut in [10usize, 100, 200, buf.len() - 3] {
            let r = Recording::read_from(&mut buf[..cut].as_ref());
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupt_channel_count_detected() {
        let mut buf = Vec::new();
        sample_recording().write_to(&mut buf).unwrap();
        // n_channels field begins at 8 + 80 + 80 + 10 + 8 = 186.
        buf[186..194].copy_from_slice(b"-3      ");
        assert!(Recording::read_from(&mut buf.as_slice()).is_err());
        buf[186..194].copy_from_slice(b"0       ");
        assert!(matches!(
            Recording::read_from(&mut buf.as_slice()),
            Err(EdfError::NoChannels)
        ));
    }

    #[test]
    fn huge_declared_counts_rejected_without_allocation() {
        let mut buf = Vec::new();
        sample_recording().write_to(&mut buf).unwrap();
        buf[186..194].copy_from_slice(b"99999999");
        // Must error (not OOM) quickly.
        assert!(Recording::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn very_long_patient_id_rejected_on_write() {
        let rec = Recording::builder("x".repeat(100), "r")
            .channel(Channel::new("C3", rate(), vec![0.0]).unwrap())
            .build()
            .unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            rec.write_to(&mut buf),
            Err(EdfError::FieldTooLong { .. })
        ));
    }

    #[test]
    fn empty_annotations_ok() {
        let rec = Recording::builder("p", "r")
            .channel(Channel::new("C3", rate(), vec![1.0, 2.0]).unwrap())
            .build()
            .unwrap();
        let mut buf = Vec::new();
        rec.write_to(&mut buf).unwrap();
        let back = Recording::read_from(&mut buf.as_slice()).unwrap();
        assert!(back.annotations().is_empty());
    }

    #[test]
    fn unicode_annotation_label_roundtrips() {
        let mut rec = Recording::builder("p", "r")
            .channel(Channel::new("C3", rate(), vec![1.0]).unwrap())
            .build()
            .unwrap();
        rec.push_annotation(Annotation::new(0.0, 1.0, "épilepsie ☂").unwrap());
        let mut buf = Vec::new();
        rec.write_to(&mut buf).unwrap();
        let back = Recording::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.annotations()[0].label(), "épilepsie ☂");
    }
}
