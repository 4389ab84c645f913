//! The scalar reference for `KernelCorrelator`: the query normalized by
//! plain loops, and the paper's `ω` of one window by one serial pass over
//! it — no prefix sums, no sparse table, no routing between the two. The
//! library's kernel must reproduce its normalization bit for bit, and its
//! `ω` bit for bit wherever the kernel itself makes a scalar pass and to
//! 1e-9 elsewhere. It lives here, beside the tests that pin the kernel to
//! it (`emap-edge`'s scalar tracker includes it too), and nowhere in the
//! serving path.

/// `q̂`: `query` min–max normalized to `[0, 1]` (all zeros when its span
/// is zero or not finite), then divided by its f64 L2 norm unless that is
/// within `f64::EPSILON` of zero.
pub fn normalize(query: &[f32]) -> Vec<f32> {
    let lo = query.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = query.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let span = hi - lo;
    let unit: Vec<f32> = if span <= 0.0 || !span.is_finite() {
        vec![0.0; query.len()]
    } else {
        query.iter().map(|&v| (v - lo) / span).collect()
    };
    let norm = unit
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum::<f64>()
        .sqrt();
    if norm <= f64::EPSILON {
        return unit;
    }
    unit.iter().map(|&v| (f64::from(v) / norm) as f32).collect()
}

/// `ω` of the normalized query `qhat` against `win`, a window of its
/// length: `min`, `max`, `Σw`, `Σw²` and `Σq̂·w` in one serial loop, then
/// `q̂ · (w − min)/‖w − min‖` clamped to `[0, 1]` (0 for a constant
/// window).
pub fn omega(qhat: &[f32], win: &[f32]) -> f64 {
    assert_eq!(qhat.len(), win.len(), "one window of the query's length");
    let w = qhat.len() as f64;
    let qsum: f64 = qhat.iter().map(|&q| f64::from(q)).sum();
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    let (mut sum, mut sumsq, mut qdot) = (0.0f64, 0.0f64, 0.0f64);
    for (&q, &x) in qhat.iter().zip(win) {
        lo = lo.min(x);
        hi = hi.max(x);
        let xf = f64::from(x);
        sum += xf;
        sumsq += xf * xf;
        qdot += f64::from(q) * xf;
    }
    let span = f64::from(hi) - f64::from(lo);
    if span <= 0.0 || !span.is_finite() {
        return 0.0;
    }
    let lo = f64::from(lo);
    let norm_sq = (sumsq - 2.0 * lo * sum + w * lo * lo) / (span * span);
    if norm_sq <= f64::EPSILON {
        return 0.0;
    }
    let num = (qdot - lo * qsum) / span;
    (num / norm_sq.sqrt()).clamp(0.0, 1.0)
}
