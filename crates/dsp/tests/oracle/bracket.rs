//! The reference for `HostKernel::at` and `HostKernel::exact_at`: the
//! front half the kernel ran before its straight-line path, over the
//! public tables, with the bracket's arithmetic written out beside it.
//!
//! Per window it asks `window_min` / `window_max` (the general row walk),
//! `window_sum` / `window_energy` (prefixes replayed afresh per call) and
//! the whole-host scales, routes the window exactly as the kernel did —
//! a scalar pass below `SMALL_WINDOW_FALLBACK` or when the cancellation
//! guard trips, 0 for a constant or non-finite span — and brackets the
//! rest from a 32-lane f32 dot product reduced by the halving loop. On a
//! host of whole counts within the grid's range it brackets instead from
//! the grid arithmetic, written out: the query's steps from `q̂` and its
//! scale, each window's counts summed afresh in `i64`, a sequential
//! integer dot product, and no guard. The kernel must give its `Omega`s,
//! variant and bits, and its exact `ω`s, bit for bit. The scalar pass is
//! `oracle::omega`: include `omega.rs` beside this file as `oracle`. It
//! lives here, beside the tests that pin the kernel to it, and nowhere in
//! the serving path.

use emap_dsp::kernel::{HostStats, KernelCorrelator, Omega, SMALL_WINDOW_FALLBACK};

/// Relative cancellation guard of the centered-energy identity.
const CANCELLATION_GUARD: f64 = 1e-4;

/// Lanes of the bracket's f32 dot product.
const DOT_LANES: usize = 32;

/// The most a product that underflows in f32 can lose.
const F32_SUBNORMAL: f64 = 1.5e-45;

/// The query grid's largest step.
const QUERY_STEPS: f64 = 16384.0;

/// The query on its grid: `gᵢ = round(q̂ᵢ·S)` and the bracket's slack
/// per unit of `max(|lo|, |hi|)`.
struct Grid {
    steps: Vec<i64>,
    scale: f64,
    slack: f64,
}

impl Grid {
    /// The grid of `q̂`: `S` the largest power of two with `S·max q̂ ≤ 2¹⁴`
    /// (2¹⁴ when `q̂` is all zero); `qerr = Σ|q̂ᵢ − gᵢ/S|`, each partial
    /// sum rounded up to the next `f64`; `None` for a query that is not
    /// finite or where `qerr > Σq̂`.
    fn of(qhat: &[f32], qsum: f64) -> Option<Self> {
        if qhat.iter().any(|q| !q.is_finite()) {
            return None;
        }
        let top = qhat.iter().map(|&q| f64::from(q)).fold(0.0, f64::max);
        let mut scale = QUERY_STEPS;
        while top > 0.0 && top * (2.0 * scale) <= QUERY_STEPS {
            scale *= 2.0;
        }
        let steps: Vec<i64> = qhat
            .iter()
            .map(|&q| (f64::from(q) * scale).round() as i64)
            .collect();
        assert!(steps.iter().all(|&g| (0..=1 << 14).contains(&g)));
        let mut qerr = 0.0f64;
        for (&q, &g) in qhat.iter().zip(&steps) {
            qerr = (qerr + (f64::from(q) - g as f64 / scale).abs()).next_up();
        }
        let w = qhat.len() as f64;
        (qerr <= qsum).then(|| Grid {
            steps,
            scale,
            slack: qerr + (w + 8.0) * 2f64.powi(-53) * qsum,
        })
    }

    /// Whether `host` is the grid's for windows of `w` samples: every
    /// sample a whole count with `w·2¹⁴·|x| < 2³¹`, and `Σx² < 2⁵³`.
    fn holds(host: &[f32], w: usize, energy: f64) -> bool {
        let limit = (i64::from(i32::MAX) / (w as i64 * (1 << 14))) as f32;
        energy < 2f64.powi(53) && host.iter().all(|&x| x.fract() == 0.0 && x.abs() <= limit)
    }
}

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
    /// The query's grid, where the host is whole counts within its range.
    grid: Option<Grid>,
}

impl<'a> Bracketer<'a> {
    /// Binds `kc` to `host` and the tables `stats` built from it; the
    /// host must hold at least one window.
    pub fn new(kc: &'a KernelCorrelator, host: &'a [f32], stats: &'a HostStats) -> Self {
        let w = kc.window_len();
        assert!(w <= host.len(), "a window must fit the host");
        let roundings = 1 + w.div_ceil(DOT_LANES) + DOT_LANES.ilog2() as usize + 2;
        let gamma = roundings as f64 * f64::from(f32::EPSILON) / 2.0;
        let energy_scale = stats.window_energy(host, 0, host.len());
        let on_grid = w >= SMALL_WINDOW_FALLBACK && Grid::holds(host, w, energy_scale);
        Bracketer {
            qhat: kc.normalized_query(),
            qsum: kc.query_sum(),
            host,
            stats,
            energy_scale,
            slack: gamma * kc.query_sum(),
            grid: Grid::of(kc.normalized_query(), kc.query_sum()).filter(|_| on_grid),
        }
    }

    /// Whether the exact `ω` at `offset` is settled without the prefix
    /// statistics: by the scalar pass, or 0 for a constant or non-finite
    /// span.
    #[allow(dead_code)]
    pub fn settles(&self, offset: usize) -> bool {
        matches!(self.front(offset), Front::Settled(_))
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
        if let Some(grid) = &self.grid {
            return self.on_grid(grid, offset);
        }
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

    /// The grid's bracket at `offset`: exact sums and an exact integer dot
    /// product, so no guard; 0 for a constant span.
    fn on_grid(&self, grid: &Grid, offset: usize) -> Omega {
        let (host, stats, w) = (self.host, self.stats, self.qhat.len());
        let lo = stats.window_min(host, offset, w);
        let hi = stats.window_max(host, offset, w);
        if hi == lo {
            return Omega::Exact(0.0);
        }
        let counts: Vec<i64> = self.window(offset).iter().map(|&x| x as i64).collect();
        let sum = counts.iter().sum::<i64>() as f64;
        let sumsq = counts.iter().map(|c| c * c).sum::<i64>() as f64;
        let idot: i64 = grid.steps.iter().zip(&counts).map(|(g, c)| g * c).sum();
        let qdot = idot as f64 / grid.scale;
        let e = grid.slack * f64::from(lo.abs().max(hi.abs()));
        Omega::Bracket {
            lo: self.finish(lo, hi, sum, sumsq, qdot - e),
            hi: self.finish(lo, hi, sum, sumsq, qdot + e),
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
