//! The corpus, pinned bit for bit.
//!
//! One recording per registry rate — 173.61 Hz (fractional resampler, a
//! step that is no dyadic rational), 200 and 250 Hz (fractional, dyadic
//! steps), 256 Hz (identity) and 512 Hz (integer decimation) — goes
//! through [`MdbBuilder`]: resample, bandpass, slice, label, and the
//! spectral envelopes the store prewarms. Every sample's bits, every class
//! and provenance field and every envelope code are folded into one FNV-1a
//! digest per dataset and compared against constants. A change to the
//! ingest arithmetic that moves a single bit of the corpus fails here, by
//! name, before any search digest can drift.

use emap_datasets::registry::standard_registry;
use emap_mdb::MdbBuilder;

/// Content seed of the pinned recordings.
const SEED: u64 = 7;

/// `(dataset id, native rate, slices, digest)` of each pinned recording.
const PINNED: [(&str, f64, usize, u64); 5] = [
    ("physionet-mirror", 256.0, 6, 0x59c2_63af_6660_df9d),
    ("tuh-mirror", 250.0, 6, 0x94e5_a159_8e9e_aa66),
    ("uci-mirror", 173.61, 5, 0xf915_8de0_a0fb_e82d),
    ("bnci-mirror", 512.0, 6, 0xe1e8_af8f_708a_1c42),
    ("zwolinski-mirror", 200.0, 6, 0xe59a_5d44_ac4d_e2d6),
];

struct Fnv(u64);

impl Fnv {
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

        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for set in mdb.iter() {
            for &v in set.samples() {
                h.bytes(&v.to_bits().to_le_bytes());
            }
            h.str(set.class().label());
            let p = set.provenance();
            h.str(&p.dataset_id);
            h.str(&p.recording_id);
            h.str(&p.channel);
            h.bytes(&p.offset.to_le_bytes());
            let spectra = set.spectra();
            h.bytes(&(spectra.offsets() as u64).to_le_bytes());
            for code in spectra.codes() {
                h.bytes(&code.to_le_bytes());
            }
        }
        let rate = labeled.recording.channels()[0].rate().hz();
        seen.push((spec.id().to_string(), rate, mdb.len(), h.0));
    }

    assert_eq!(seen.len(), PINNED.len(), "one recording per registry rate");
    for ((id, rate, slices, digest), &pinned) in seen.iter().zip(&PINNED) {
        assert_eq!(
            (id.as_str(), *rate, *slices),
            (pinned.0, pinned.1, pinned.2)
        );
        assert_eq!(
            *digest, pinned.3,
            "{id} at {rate} Hz: the ingest arithmetic moved a corpus bit \
             (digest {digest:#018x}, pinned {:#018x})",
            pinned.3
        );
    }
}
