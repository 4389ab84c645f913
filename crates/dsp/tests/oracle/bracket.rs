//! The reference for `HostKernel::at` and `HostKernel::exact_at`: the
//! front half the kernel ran before its straight-line path, over the
//! public tables, with the bracket's arithmetic written out beside it.
//!
//! Per window it asks `window_min` / `window_max` (the general row walk),
//! `window_sum` / `window_energy` (prefixes replayed afresh per call) and
//! the whole-host scales, routes the window exactly as the kernel did —
//! a scalar pass below `SMALL_WINDOW_FALLBACK` or when the cancellation
//! guard trips, 0 for a constant or non-finite span — and brackets the
//! rest from a 32-lane f32 dot product reduced by the halving loop. The
//! kernel must give its `Omega`s, variant and bits, and its exact `ω`s,
//! bit for bit. The scalar pass is `oracle::omega`: include `omega.rs`
//! beside this file as `oracle`. It lives here, beside the tests that pin
//! the kernel to it, and nowhere in the serving path.

use emap_dsp::kernel::{HostStats, KernelCorrelator, Omega, SMALL_WINDOW_FALLBACK};

/// Relative cancellation guard of the centered-energy identity.
const CANCELLATION_GUARD: f64 = 1e-4;

/// Lanes of the bracket's f32 dot product.
const DOT_LANES: usize = 32;

/// The most a product that underflows in f32 can lose.
const F32_SUBNORMAL: f64 = 1.5e-45;

/// What the front half makes of one window.
enum Front {
    /// The exact `ω`, finished without the prefix statistics.
    Settled(f64),
    /// `(lo, hi, Σw, Σw²)` for the finisher.
    Stats(f32, f32, f64, f64),
}

/// One query bound to one host, answering as the kernel did.
pub struct Bracketer<'a> {
    qhat: &'a [f32],
    qsum: f64,
    host: &'a [f32],
    stats: &'a HostStats,
    /// `Σ host²`, the last prefix energy.
    energy_scale: f64,
    /// `γ·Σq̂` for the query's window length.
    slack: f64,
}

impl<'a> Bracketer<'a> {
    /// Binds `kc` to `host` and the tables `stats` built from it; the
    /// host must hold at least one window.
    pub fn new(kc: &'a KernelCorrelator, host: &'a [f32], stats: &'a HostStats) -> Self {
        let w = kc.window_len();
        assert!(w <= host.len(), "a window must fit the host");
        let roundings = 1 + w.div_ceil(DOT_LANES) + DOT_LANES.ilog2() as usize + 2;
        let gamma = roundings as f64 * f64::from(f32::EPSILON) / 2.0;
        Bracketer {
            qhat: kc.normalized_query(),
            qsum: kc.query_sum(),
            host,
            stats,
            energy_scale: stats.window_energy(host, 0, host.len()),
            slack: gamma * kc.query_sum(),
        }
    }

    /// The last offset at which the window fits.
    pub fn last_offset(&self) -> usize {
        self.host.len() - self.qhat.len()
    }

    /// The exact `ω` at `offset`.
    pub fn exact(&self, offset: usize) -> f64 {
        match self.front(offset) {
            Front::Settled(omega) => omega,
            Front::Stats(lo, hi, sum, sumsq) => {
                self.finish(lo, hi, sum, sumsq, dot8(self.qhat, self.window(offset)))
            }
        }
    }

    /// The certified bracket at `offset`, or the exact `ω` where the
    /// kernel certified none.
    pub fn at(&self, offset: usize) -> Omega {
        let (lo, hi, sum, sumsq) = match self.front(offset) {
            Front::Settled(omega) => return Omega::Exact(omega),
            Front::Stats(lo, hi, sum, sumsq) => (lo, hi, sum, sumsq),
        };
        let w = self.qhat.len();
        let qdot = f64::from(dot32(self.qhat, self.window(offset)));
        let reach = f64::from(lo.abs().max(hi.abs()));
        let e = self.slack * reach + w as f64 * F32_SUBNORMAL;
        let low = self.finish(lo, hi, sum, sumsq, qdot - e);
        let high = self.finish(lo, hi, sum, sumsq, qdot + e);
        if qdot.is_finite() && low <= high {
            Omega::Bracket { lo: low, hi: high }
        } else {
            Omega::Exact(self.exact(offset))
        }
    }

    fn window(&self, offset: usize) -> &[f32] {
        &self.host[offset..offset + self.qhat.len()]
    }

    fn front(&self, offset: usize) -> Front {
        let (host, stats, w) = (self.host, self.stats, self.qhat.len());
        if w < SMALL_WINDOW_FALLBACK {
            return Front::Settled(super::oracle::omega(self.qhat, self.window(offset)));
        }
        let lo = stats.window_min(host, offset, w);
        let hi = stats.window_max(host, offset, w);
        let span = f64::from(hi) - f64::from(lo);
        if span <= 0.0 || !span.is_finite() {
            return Front::Settled(0.0);
        }
        let sum = stats.window_sum(host, offset, w);
        let sumsq = stats.window_energy(host, offset, w);
        let lo_f = f64::from(lo);
        let centered = sumsq - 2.0 * lo_f * sum + w as f64 * lo_f * lo_f;
        let scale = sumsq
            .abs()
            .max((2.0 * lo_f * sum).abs())
            .max(w as f64 * lo_f * lo_f)
            .max(self.energy_scale + 2.0 * lo_f.abs() * stats.sum_scale());
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(centered > CANCELLATION_GUARD * scale) {
            return Front::Settled(super::oracle::omega(self.qhat, self.window(offset)));
        }
        Front::Stats(lo, hi, sum, sumsq)
    }

    /// `ω` from one window's statistics and the query dot product `qdot`.
    fn finish(&self, lo: f32, hi: f32, sum: f64, sumsq: f64, qdot: f64) -> f64 {
        let span = f64::from(hi) - f64::from(lo);
        if span <= 0.0 || !span.is_finite() {
            return 0.0;
        }
        let lo = f64::from(lo);
        let w = self.qhat.len() as f64;
        let norm_sq = (sumsq - 2.0 * lo * sum + w * lo * lo) / (span * span);
        if norm_sq <= f64::EPSILON {
            return 0.0;
        }
        let num = (qdot - lo * self.qsum) / span;
        (num / norm_sq.sqrt()).clamp(0.0, 1.0)
    }
}

/// `Σ aᵢ·bᵢ` in eight f64 lanes, the tail in the low lanes, reduced in
/// pairs.
fn dot8(a: &[f32], b: &[f32]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let (ac, bc) = (a.chunks_exact(8), b.chunks_exact(8));
    let (ar, br) = (ac.remainder(), bc.remainder());
    for (xs, ys) in ac.zip(bc) {
        for i in 0..8 {
            lanes[i] += f64::from(xs[i]) * f64::from(ys[i]);
        }
    }
    for (i, (&x, &y)) in ar.iter().zip(br).enumerate() {
        lanes[i] += f64::from(x) * f64::from(y);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
}

/// `Σ aᵢ·bᵢ` in 32 f32 lanes, the tail in the low lanes, reduced by
/// halving: lane `i` takes in lane `i + h` for h = 16, 8, 4, 2, 1.
fn dot32(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; DOT_LANES];
    let (ac, bc) = (a.chunks_exact(DOT_LANES), b.chunks_exact(DOT_LANES));
    let (ar, br) = (ac.remainder(), bc.remainder());
    for (xs, ys) in ac.zip(bc) {
        for i in 0..DOT_LANES {
            lanes[i] += xs[i] * ys[i];
        }
    }
    for (i, (&x, &y)) in ar.iter().zip(br).enumerate() {
        lanes[i] += x * y;
    }
    let mut half = DOT_LANES / 2;
    while half > 0 {
        for i in 0..half {
            lanes[i] += lanes[i + half];
        }
        half /= 2;
    }
    lanes[0]
}
