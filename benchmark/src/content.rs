//! The fixed content every run measures, and the arrangement `--seed` makes
//! of it.
//!
//! Design rule 1: corpus, patient waveforms, query seconds and the ingest
//! feed are generated from one constant. `--seed` only permutes which
//! patient sits in which session, the order of the query pool and which
//! artifact archetype lands on each scheduled artifact second, so every
//! arrangement costs the same work.

use std::time::Instant;

use emap_core::Acquisition;
use emap_datasets::registry::standard_registry;
use emap_datasets::{RecordingFactory, SignalClass};
use emap_dsp::SAMPLES_PER_SECOND;
use emap_mdb::{Mdb, MdbBuilder, Provenance, SignalSet, SIGNAL_SET_LEN};
use emap_search::Query;

use crate::stats::SplitMix64;

/// The one constant all content derives from ("EMAP").
pub const CONTENT_SEED: u64 = 0x454d_4150;

/// Fleet-seconds in one cycle of the three fleet workloads.
pub const TICKS: usize = 32;
/// Seconds filtered before tick 0 so the FIR state is warm at cycle start.
pub const LEAD_IN: usize = 4;
/// Patient sessions in the fleet.
pub const SESSIONS: usize = 8;
/// Query seconds in the `cloud_search` pool, sixteen per class.
pub const POOL: usize = 64;
/// Live-ingest slices per fleet-second of `ingest_mixed`.
pub const INGESTS_PER_TICK: usize = 4;
/// Every this-many-th feed slice is a flatline the cloud gate must reject.
pub const FLATLINE_EVERY: usize = 23;

/// The corpus tiers: `standard_registry(scale)` under [`CONTENT_SEED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    S,
    M,
    L,
}

impl Tier {
    pub fn scale(self) -> usize {
        match self {
            Tier::S => 1,
            Tier::M => 2,
            Tier::L => 4,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Tier::S => "S",
            Tier::M => "M",
            Tier::L => "L",
        }
    }
}

/// Builds one corpus tier through the repository's ingestion pipeline, then
/// stores every sample as a whole ADC count (1 µV per count).
///
/// Wire v4 ships 16-bit words; only a store of whole counts rides its exact
/// path, which is what lets the correctness gate demand that a remote fleet
/// decide bit-for-bit what an in-process one decides.
pub fn build_tier(tier: Tier) -> Mdb {
    let mut sets = Vec::new();
    for spec in standard_registry(tier.scale()) {
        let dataset = spec.generate(CONTENT_SEED);
        // One recording at a time, so the float copy the pipeline builds
        // never coexists with more than its own whole-count copy.
        for labeled in dataset.recordings() {
            let mut builder = MdbBuilder::new();
            builder
                .add_recording(spec.id(), &labeled.recording)
                .expect("registry recordings are valid");
            sets.extend(builder.build().iter().map(|s| {
                SignalSet::new(
                    s.samples().iter().map(|v| v.round()).collect(),
                    s.class(),
                    s.provenance().clone(),
                )
                .expect("slice length is preserved")
            }));
        }
    }
    Mdb::from_sets(sets)
}

/// The eight patients, chosen from the factory's output because under the
/// stand-in `rand` the five normal ones never raise the default predictor's
/// alarm on the S and M tiers and the three anomalous ones always do (the
/// correctness gate re-checks this on every run).
const PATIENTS: [(SignalClass, &str); SESSIONS] = [
    (SignalClass::Normal, "bench-patient/normal/0"),
    (SignalClass::Normal, "bench-patient/normal/1"),
    (SignalClass::Normal, "bench-patient/normal/4"),
    (SignalClass::Normal, "bench-patient/normal/5"),
    (SignalClass::Normal, "bench-patient/normal/6"),
    (SignalClass::Seizure, "bench-patient/seizure/0"),
    (
        SignalClass::Encephalopathy,
        "bench-patient/encephalopathy/3",
    ),
    (SignalClass::Stroke, "bench-patient/stroke/9"),
];

#[derive(Debug, Clone)]
pub struct Patient {
    pub class: SignalClass,
    /// `TICKS` raw seconds, the lead-in already consumed.
    pub raw: Vec<f32>,
    /// The acquisition stage as it stands after the lead-in.
    pub acquisition: Acquisition,
    /// Which ticks of the cycle carry an artifact second.
    pub artifact_ticks: Vec<usize>,
}

pub fn patients() -> Vec<Patient> {
    let factory = RecordingFactory::new(CONTENT_SEED);
    PATIENTS
        .iter()
        .enumerate()
        .map(|(p, &(class, id))| {
            let seconds = (LEAD_IN + TICKS) as f64;
            let rec = match class {
                SignalClass::Normal => factory.normal_recording(id, seconds),
                c => factory.anomaly_recording(c, id, seconds),
            };
            let samples = rec.channels()[0].samples();
            let (lead, raw) = samples.split_at(LEAD_IN * SAMPLES_PER_SECOND);
            let mut acquisition = Acquisition::new();
            for second in lead.chunks_exact(SAMPLES_PER_SECOND) {
                let _ = acquisition.process_second(second);
            }
            Patient {
                class,
                raw: raw[..TICKS * SAMPLES_PER_SECOND].to_vec(),
                acquisition,
                // About three artifact seconds per patient per cycle,
                // staggered so no tick masks more than two sessions.
                artifact_ticks: (0..TICKS).filter(|t| (t + 5 * p) % 11 == 7).collect(),
            }
        })
        .collect()
}

/// The three artifact seconds the edge gate must mask, as `perf_soak`
/// builds them: a rail-to-rail square (saturation), a dropped electrode
/// (flatline) and electrode pops (spike train). They replace the filtered
/// second, because `EdgeFleet` gates what the tracker would be fed.
pub fn artifact_seconds() -> [Vec<f32>; 3] {
    let rail = (0..SAMPLES_PER_SECOND)
        .map(|i| if (i / 64) % 2 == 0 { 500.0 } else { -500.0 })
        .collect();
    let flat = vec![0.0; SAMPLES_PER_SECOND];
    let spikes = (0..SAMPLES_PER_SECOND)
        .map(|i| {
            if i % 32 == 7 {
                if (i / 32) % 2 == 0 {
                    450.0
                } else {
                    -450.0
                }
            } else {
                2.0 * ((i as f32) * 0.7).sin()
            }
        })
        .collect();
    [rail, flat, spikes]
}

/// The `cloud_search` query pool: one filtered second from each of
/// [`POOL`] recordings, cycling through the four classes.
pub fn query_pool() -> Vec<Query> {
    let factory = RecordingFactory::new(CONTENT_SEED);
    let filter = emap_dsp::emap_bandpass();
    (0..POOL)
        .map(|i| {
            let class = SignalClass::ALL[i % SignalClass::ALL.len()];
            let id = format!(
                "bench-query/{}/{}",
                class.label(),
                i / SignalClass::ALL.len()
            );
            let rec = match class {
                SignalClass::Normal => factory.normal_recording(&id, 8.0),
                c => factory.anomaly_recording(c, &id, 8.0),
            };
            let filtered = filter.filter(rec.channels()[0].samples());
            let start = 5 * SAMPLES_PER_SECOND;
            Query::new(&filtered[start..start + SAMPLES_PER_SECOND])
                .expect("window length is one second by construction")
        })
        .collect()
}

/// One slice of the live-ingest feed.
#[derive(Debug, Clone)]
pub struct FeedItem {
    pub class: SignalClass,
    pub provenance: Provenance,
    pub samples: Vec<f32>,
    /// A flatline the cloud's quality gate must reject.
    pub flatline: bool,
}

impl FeedItem {
    pub fn to_set(&self) -> SignalSet {
        SignalSet::new(self.samples.clone(), self.class, self.provenance.clone())
            .expect("feed slices hold SIGNAL_SET_LEN samples")
    }
}

/// The `ingest_mixed` feed for one cycle: whole-count normal EEG slices,
/// every [`FLATLINE_EVERY`]-th one a flatline.
pub fn ingest_feed() -> Vec<FeedItem> {
    const SLICES_PER_RECORDING: usize = 6; // 24 s at 256 Hz is six full slices
    let factory = RecordingFactory::new(CONTENT_SEED);
    let filter = emap_dsp::emap_bandpass();
    let n = TICKS * INGESTS_PER_TICK;
    let recordings: Vec<Vec<f32>> = (0..n.div_ceil(SLICES_PER_RECORDING))
        .map(|r| {
            let rec = factory.normal_recording(&format!("bench-feed/{r}"), 24.0);
            filter.filter(rec.channels()[0].samples())
        })
        .collect();
    (0..n)
        .map(|j| {
            let flatline = j % FLATLINE_EVERY == FLATLINE_EVERY / 2;
            let samples = if flatline {
                vec![0.0; SIGNAL_SET_LEN]
            } else {
                let start = (j % SLICES_PER_RECORDING) * SIGNAL_SET_LEN;
                recordings[j / SLICES_PER_RECORDING][start..start + SIGNAL_SET_LEN]
                    .iter()
                    .map(|v| v.round())
                    .collect()
            };
            FeedItem {
                class: SignalClass::Normal,
                provenance: Provenance {
                    dataset_id: "bench-live".into(),
                    recording_id: format!("feed-{}", j / SLICES_PER_RECORDING),
                    channel: "c0".into(),
                    offset: (j * SIGNAL_SET_LEN) as u64,
                },
                samples,
                flatline,
            }
        })
        .collect()
}

/// What `--seed` decides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrangement {
    /// `sessions[i]` is the patient tracked by fleet session `i`.
    pub sessions: Vec<usize>,
    /// The order in which a `cloud_search` cycle asks the pool.
    pub query_order: Vec<usize>,
    /// Rotates which artifact archetype lands on each scheduled second.
    pub artifact_phase: usize,
}

impl Arrangement {
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Arrangement {
            sessions: rng.permutation(SESSIONS),
            query_order: rng.permutation(POOL),
            artifact_phase: rng.below(3),
        }
    }

    /// Index into [`artifact_seconds`] for `patient` at `tick`, if that
    /// second is scheduled as an artifact.
    pub fn artifact(&self, patient: usize, artifact_ticks: &[usize], tick: usize) -> Option<usize> {
        artifact_ticks
            .contains(&tick)
            .then(|| (tick + patient + self.artifact_phase) % 3)
    }
}

/// Times `f`, returning its value and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two seeds arrange the same multiset of work: the same patients over
    /// the sessions, the same queries, the same artifact seconds.
    #[test]
    fn a_seed_only_permutes() {
        let (a, b) = (Arrangement::from_seed(3), Arrangement::from_seed(4));
        assert_ne!(a, b);
        assert_eq!(a, Arrangement::from_seed(3));
        for arr in [&a, &b] {
            let mut s = arr.sessions.clone();
            s.sort_unstable();
            assert_eq!(s, (0..SESSIONS).collect::<Vec<_>>());
            let mut q = arr.query_order.clone();
            q.sort_unstable();
            assert_eq!(q, (0..POOL).collect::<Vec<_>>());
            assert!(arr.artifact_phase < 3);
        }
        // The masked (patient, tick) pairs do not depend on the seed; only
        // the archetype does, and the tracker treats all three alike.
        let ticks = [7usize, 18, 29];
        for t in 0..TICKS {
            assert_eq!(
                a.artifact(2, &ticks, t).is_some(),
                b.artifact(2, &ticks, t).is_some()
            );
        }
    }

    #[test]
    fn artifact_schedule_is_sparse_and_skips_the_cold_tick() {
        for p in 0..SESSIONS {
            let ticks: Vec<usize> = (0..TICKS).filter(|t| (t + 5 * p) % 11 == 7).collect();
            assert!((2..=3).contains(&ticks.len()), "patient {p}: {ticks:?}");
            assert!(!ticks.contains(&0));
        }
    }

    #[test]
    fn feed_has_the_scheduled_flatlines() {
        let feed = ingest_feed();
        assert_eq!(feed.len(), TICKS * INGESTS_PER_TICK);
        let flat: Vec<usize> = (0..feed.len()).filter(|&j| feed[j].flatline).collect();
        assert_eq!(flat, vec![11, 34, 57, 80, 103, 126]);
        for item in &feed {
            assert_eq!(item.samples.len(), SIGNAL_SET_LEN);
            assert!(item.samples.iter().all(|v| v.fract() == 0.0));
            assert_eq!(item.flatline, item.samples.iter().all(|&v| v == 0.0));
        }
    }
}
