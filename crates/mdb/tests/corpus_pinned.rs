//! The corpus, pinned bit for bit.
//!
//! One recording per registry rate — 173.61 Hz (fractional resampler, a
//! step that is no dyadic rational), 200 and 250 Hz (fractional, dyadic
//! steps), 256 Hz (identity) and 512 Hz (integer decimation) — goes
//! through [`MdbBuilder`]: resample, bandpass, slice, label, and the
//! spectral envelopes the store prewarms. Two FNV-1a digests per dataset
//! are compared against constants: a sample digest over every sample's
//! bits and every class and provenance field, and an envelope digest over
//! every stored byte of the envelope tables. A change to the ingest
//! arithmetic that moves a single bit of the corpus fails the first, by
//! name, before any search digest can drift; a change to how envelopes are
//! built or stored fails only the second.

use emap_datasets::registry::standard_registry;
use emap_mdb::MdbBuilder;

/// Content seed of the pinned recordings.
const SEED: u64 = 7;

/// `(dataset id, native rate, slices, sample digest, envelope digest)` of
/// each pinned recording.
const PINNED: [(&str, f64, usize, u64, u64); 5] = [
    (
        "physionet-mirror",
        256.0,
        6,
        0x0aeb_ba1c_0444_f9fa,
        0x2c65_6831_258b_ffb5,
    ),
    (
        "tuh-mirror",
        250.0,
        6,
        0xcdd7_7631_9dad_1e0a,
        0x2e89_1f8b_b72e_c2b7,
    ),
    (
        "uci-mirror",
        173.61,
        5,
        0xc8fc_05c6_eac4_3e77,
        0x2b2e_32c3_270c_1d5f,
    ),
    (
        "bnci-mirror",
        512.0,
        6,
        0xcc96_383b_b676_e42c,
        0x25ed_2ff8_a8c3_b9d3,
    ),
    (
        "zwolinski-mirror",
        200.0,
        6,
        0xc304_f2bb_f05c_40ab,
        0x1899_9948_b1bd_b937,
    ),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }
}

#[test]
fn one_recording_per_registry_rate_is_pinned_bit_for_bit() {
    let mut seen = Vec::new();
    for spec in standard_registry(1) {
        let dataset = spec.generate(SEED);
        // The last recording: an anomaly one wherever the dataset has any.
        let labeled = dataset
            .recordings()
            .last()
            .expect("registry datasets hold recordings");
        let mut builder = MdbBuilder::new();
        builder
            .add_recording(spec.id(), &labeled.recording)
            .expect("registry recordings are valid");
        let mdb = builder.build();

        let mut samples = Fnv::new();
        let mut envelopes = Fnv::new();
        for set in mdb.iter() {
            for &v in set.samples() {
                samples.bytes(&v.to_bits().to_le_bytes());
            }
            samples.str(set.class().label());
            let p = set.provenance();
            samples.str(&p.dataset_id);
            samples.str(&p.recording_id);
            samples.str(&p.channel);
            samples.bytes(&p.offset.to_le_bytes());
            let spectra = set.spectra();
            envelopes.bytes(&(spectra.offsets() as u64).to_le_bytes());
            envelopes.bytes(&spectra.stored_bytes().collect::<Vec<u8>>());
        }
        let rate = labeled.recording.channels()[0].rate().hz();
        seen.push((
            spec.id().to_string(),
            rate,
            mdb.len(),
            samples.0,
            envelopes.0,
        ));
    }

    assert_eq!(seen.len(), PINNED.len(), "one recording per registry rate");
    for ((id, rate, slices, sample_digest, envelope_digest), &pinned) in seen.iter().zip(&PINNED) {
        assert_eq!(
            (id.as_str(), *rate, *slices),
            (pinned.0, pinned.1, pinned.2)
        );
        assert_eq!(
            *sample_digest, pinned.3,
            "{id} at {rate} Hz: the ingest arithmetic moved a corpus bit \
             (sample digest {sample_digest:#018x}, pinned {:#018x})",
            pinned.3
        );
        assert_eq!(
            *envelope_digest, pinned.4,
            "{id} at {rate} Hz: an envelope table moved \
             (envelope digest {envelope_digest:#018x}, pinned {:#018x})",
            pinned.4
        );
    }
}
