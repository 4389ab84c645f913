//! The reference loops of the ingest path: the fractional resampler that
//! evaluates every tap's windowed sinc (a `sin` and two `cos` per tap), and
//! the FIR filter summed one output at a time — batch with zero history,
//! streaming over a ring buffer. The library's fast paths must reproduce
//! them bit for bit; they live here, beside the tests that pin the library
//! to them, and nowhere in the serving path.

use emap_dsp::resample::DEFAULT_KERNEL_HALF_WIDTH;
use emap_dsp::window::Window;
use emap_dsp::SampleRate;

/// Windowed-sinc fractional resampling of `input` from `from` to `to`,
/// every kernel weight evaluated from scratch.
pub fn resample_per_tap(input: &[f32], from: SampleRate, to: SampleRate) -> Vec<f32> {
    let ratio = to.hz() / from.hz();
    let cutoff = if ratio < 1.0 { ratio * 0.92 } else { 0.92 };
    let step = from.hz() / to.hz();
    let out_len = if input.is_empty() {
        0
    } else {
        ((input.len() as f64) / step).round() as usize
    };
    let support = (DEFAULT_KERNEL_HALF_WIDTH as f64 / cutoff).ceil() as i64;
    let mut out = Vec::with_capacity(out_len);
    for m in 0..out_len {
        let t = m as f64 * step;
        let k0 = t.floor() as i64 - support + 1;
        let k1 = t.floor() as i64 + support;
        let mut acc = 0.0f64;
        let mut wsum = 0.0f64;
        for k in k0..=k1 {
            let d = t - k as f64;
            let w = kernel(cutoff, d, support as f64);
            wsum += w;
            if (0..input.len() as i64).contains(&k) {
                acc += w * f64::from(input[k as usize]);
            }
        }
        out.push(if wsum.abs() > f64::EPSILON {
            (acc / wsum) as f32
        } else {
            0.0
        });
    }
    out
}

fn kernel(cutoff: f64, d: f64, support: f64) -> f64 {
    if d.abs() >= support {
        return 0.0;
    }
    let x = std::f64::consts::PI * cutoff * d;
    let sinc = if x.abs() < 1e-12 { 1.0 } else { x.sin() / x };
    let pos = (d + support) / (2.0 * support);
    let len = 4097usize;
    let idx = ((pos * (len - 1) as f64).round() as usize).min(len - 1);
    sinc * Window::Blackman.value(idx, len)
}

/// `B(k) = Σ_{i ≤ k} H_i · I(k − i)`, one output at a time.
pub fn fir_serial(taps: &[f64], input: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(input.len());
    for k in 0..input.len() {
        let mut acc = 0.0f64;
        for i in 0..taps.len().min(k + 1) {
            acc += taps[i] * f64::from(input[k - i]);
        }
        out.push(acc as f32);
    }
    out
}

/// Streaming FIR over a ring buffer of the last `taps` inputs (silence
/// before the first), summed over every tap.
pub struct RingFir {
    taps: Vec<f64>,
    history: Vec<f64>,
    pos: usize,
}

impl RingFir {
    pub fn new(taps: &[f64]) -> Self {
        RingFir {
            taps: taps.to_vec(),
            history: vec![0.0; taps.len()],
            pos: 0,
        }
    }

    pub fn push(&mut self, sample: f32) -> f32 {
        self.history[self.pos] = f64::from(sample);
        let n = self.taps.len();
        let mut acc = 0.0f64;
        let mut idx = self.pos;
        for &t in &self.taps {
            acc += t * self.history[idx];
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % n;
        acc as f32
    }
}
