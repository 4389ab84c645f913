//! The corpus, pinned bit for bit.
//!
//! One recording per registry rate — 173.61 Hz (fractional resampler, a
//! step that is no dyadic rational), 200 and 250 Hz (fractional, dyadic
//! steps), 256 Hz (identity) and 512 Hz (integer decimation) — goes
//! through [`MdbBuilder`]: resample, bandpass, slice, label, and the
//! spectral envelopes the store prewarms. Three FNV-1a digests per dataset
//! are compared against constants: a sample digest over every sample's
//! bits and every class and provenance field, an envelope digest over
//! every stored byte of the envelope tables, and a prefix digest over the
//! bits of `(Σx, Σx²)` at every index of every set, read through the
//! replay from the prefix checkpoints. A change to the ingest arithmetic
//! that moves a single bit of the corpus fails the first, by name, before
//! any search digest can drift; a change to how envelopes are built or
//! stored fails only the second; a replay that drifts by one bit from the
//! sequential prefix tables fails only the third.

use emap_datasets::registry::standard_registry;
use emap_mdb::MdbBuilder;

/// Content seed of the pinned recordings.
const SEED: u64 = 7;

/// `(dataset id, native rate, slices, sample digest, envelope digest,
/// prefix digest)` of each pinned recording. All three digests were taken
/// once the store rounded every sample to a whole 16-bit count (the
/// sample digest moved with the rounding, and the envelope and prefix
/// digests with the samples they are built from); every prefix of such a
/// set is an exact integer in `f64`, whatever the order of its additions.
const PINNED: [(&str, f64, usize, u64, u64, u64); 5] = [
    (
        "physionet-mirror",
        256.0,
        6,
        0x345d_6237_2bf6_d211,
        0xe757_62b1_9ab5_7267,
        0x1dc7_bf00_8841_c87c,
    ),
    (
        "tuh-mirror",
        250.0,
        6,
        0x5418_f89e_f1a0_fb67,
        0x0275_fb6b_3301_5442,
        0xd74a_1da1_c8a0_66f1,
    ),
    (
        "uci-mirror",
        173.61,
        5,
        0xc63b_cba6_7c4e_627d,
        0x7566_ceda_12d0_deb1,
        0x58d6_b6c4_a9d9_ba13,
    ),
    (
        "bnci-mirror",
        512.0,
        6,
        0xe80f_9f00_f256_a376,
        0xcd75_3fdc_7510_99ef,
        0xd101_2a72_e338_9ed3,
    ),
    (
        "zwolinski-mirror",
        200.0,
        6,
        0x3318_16bf_7bc8_4541,
        0x6356_d57c_b874_2212,
        0x0b9b_37b7_9a97_c4f3,
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
        let mut prefixes = Fnv::new();
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
            let (host, stats) = (set.samples(), set.stats());
            for i in 0..=host.len() {
                prefixes.bytes(&stats.window_sum(host, 0, i).to_bits().to_le_bytes());
                prefixes.bytes(&stats.window_energy(host, 0, i).to_bits().to_le_bytes());
            }
        }
        let rate = labeled.recording.channels()[0].rate().hz();
        seen.push((
            spec.id().to_string(),
            rate,
            mdb.len(),
            samples.0,
            envelopes.0,
            prefixes.0,
        ));
    }

    assert_eq!(seen.len(), PINNED.len(), "one recording per registry rate");
    for ((id, rate, slices, sample_digest, envelope_digest, prefix_digest), &pinned) in
        seen.iter().zip(&PINNED)
    {
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
        assert_eq!(
            *prefix_digest, pinned.5,
            "{id} at {rate} Hz: a replayed prefix moved \
             (prefix digest {prefix_digest:#018x}, pinned {:#018x})",
            pinned.5
        );
    }
}
