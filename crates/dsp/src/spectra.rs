//! Multi-resolution spectral envelopes: O(1) admissible upper bounds on the
//! best range-correlation `ω` any window of a host can achieve against a
//! query.
//!
//! The cloud search scores `ω(q, β) = q̂ · v̂(β)` at hundreds of offsets `β`
//! per host, where `q̂` is the min–max normalized, unit-energy query and
//! `v(β) = w(β) − lo(β)·𝟙` is the host window minus its minimum (see
//! [`crate::kernel::KernelCorrelator`]). Even the O(1)-statistics kernel
//! pays one dot product per offset, so search cost grows linearly with the
//! store. This module precomputes, **once per host**, enough spectral
//! structure to bound the *best achievable* `ω` over whole offset ranges —
//! letting a top-K search skip entire hosts whose bound cannot beat the
//! running K-th best (a UCR-suite-style cascade, in the same certified-bound
//! family as the area legs of [`crate::area`]; DESIGN.md §12).
//!
//! # The bound
//!
//! For a window length `w`, write the DFT `V_k(β) = Σ_i v_i(β) e^{-j2πki/w}`.
//! Parseval gives `‖v‖² = (1/w)·(|V_0|² + 2·Σ_{0<k<w/2}|V_k|² + |V_{w/2}|²)`,
//! so the *normalized magnitude coefficients*
//!
//! ```text
//! a_k = c_k·|Q_k| / (√w·‖q̂‖),   b_k(β) = c_k·|V_k(β)| / (√w·‖v(β)‖)
//! ```
//!
//! (`c_0 = 1`, `c_k = √2` otherwise) are unit vectors: `Σ_k a_k² = 1`.
//! Expanding the correlation in the frequency domain and bounding each term
//! by its magnitude (`Re(Q_k·V̄_k) ≤ |Q_k||V_k|`, with bin 0 *exact* because
//! both `q̂` and `v` are non-negative so `Q_0, V_0 ≥ 0`):
//!
//! ```text
//! ω(β) ≤ Σ_{k ≤ K} a_k·b_k(β) + a_res·ρ(β)
//! ```
//!
//! where only the `K+1` lowest bins are kept explicitly (the EMAP bandpass
//! confines content below ~48 cycles/window) and the tails
//! `a_res = √(1 − Σa_k²)`, `ρ(β) = √(1 − Σb_k(β)²)` absorb everything above
//! `K` by Cauchy–Schwarz. Subtracting `lo·𝟙` changes only bin 0, so all
//! `b_k, k ≥ 1` come from a sliding DFT of the raw samples, and
//! `V_0(β) = Σw − w·lo ≥ 0` comes from prefix sums.
//!
//! The per-offset coefficients are then collapsed into **per-group
//! envelopes** at two resolutions ([`COARSE_GROUP`] and [`FINE_GROUP`]
//! offsets per group): each group stores the per-bin maxima
//! `B_k(g) = max_{β∈g} b_k(β)` and `ρ(g) = max_{β∈g} ρ(β)`, so
//!
//! ```text
//! max_{β∈g} ω(β) ≤ Σ_k a_k·B_k(g) + a_res·ρ(g)
//! ```
//!
//! and the host bound is the maximum over groups — an O(groups·bins)
//! evaluation, independent of the host length. Magnitudes are phase-blind,
//! which is exactly why the group maxima stay tight: shifting a window
//! rotates the phases of its DFT but barely moves the magnitudes, so the
//! heavily-overlapping windows of a fine group have near-identical `b`
//! vectors. Envelope values are coded as 16-bit fixed point of step 2⁻¹⁵
//! rounded **toward +∞** (every value is a component of a unit vector, so
//! `[0, 1]` is the whole range and a float's exponent would be wasted):
//! narrowing never shrinks a bound below its `f64` value, and raises it by
//! less than `2⁻¹⁵·(Σ_k a_k + a_res) ≤ 2⁻¹⁵·√(K + 2) ≈ 2·10⁻⁴`.
//!
//! # Stored layout
//!
//! The coarse table keeps those 16-bit codes. A fine group's code `C_f` is
//! never above its coarse group's `C_c` (its offsets are among the coarse
//! group's, and the rounding is the same), and the 32 fine groups under one
//! coarse group sit close below it, so each fine slot is stored as one
//! byte: the step count `d = (C_c − C_f) >> s`, with one shift `s` per
//! coarse group and slot — the smallest that fits that slot's widest gap
//! into eight bits. The decoded code `C_c − (d << s)` is at least `C_f` and
//! less than `2^s` above it, so every fine bound stays admissible. A fine
//! group is evaluated as its coarse group's raw dot product minus
//! `Σ_k (a_k·2^{s_k})·d_k`, the weights computed once per coarse group.
//! A 1000-sample host keeps 17 996 bytes: 1 056 of coarse codes, 528 of
//! shifts and 16 412 of steps — half the 16-bit fine table, for about one
//! more surviving host in 360 on the benchmark corpus.
//!
//! # Admissibility in floating point
//!
//! Offsets whose window is constant (`span ≤ 0`) have `ω = 0.0` exactly (the
//! kernel short-circuits) and contribute nothing to the envelopes. Offsets
//! where the centered-energy identity `Σw² − 2·lo·Σw + w·lo²` is numerically
//! hazardous — the same guard as
//! [`crate::kernel::KernelCorrelator::correlation_at`] — or whose statistics
//! are non-finite mark their coarse group *wild* (a reserved code in the
//! group's DC slot), and with it every fine group under it: the group bound
//! becomes 1.0 and the host is simply never pruned via that group.
//! Everything else carries relative error ≲1e-9 from prefix/sliding-DFT
//! rounding, and the final bound is padded with [`BOUND_MARGIN`] (1e-6)
//! before use — a >100× safety factor over every rounding path, including
//! the kernel's own scalar-fallback discrepancies. The fixed-point codes and
//! the fine steps ask nothing of that margin: they only ever round up. The
//! subtract form asks next to nothing: both of its terms are below
//! `√(K + 2)·2¹⁵ ≈ 2·10⁵` code units, so its rounding differs from a plain
//! dot product over the decoded codes by well under 10⁻⁹ code units, or
//! 3·10⁻¹⁴ in the bound. A bound of exactly `0.0` is produced only when every
//! offset of a coarse group is degenerate (all `ω` exactly 0) — `0.0`
//! encodes to code 0 and nothing else does — so the zero bound is
//! admissible without margin; a fine group is reported as `0.0` only under
//! such a coarse group.
//!
//! # Example
//!
//! ```
//! use emap_dsp::spectra::{HostSpectra, QuerySpectrum};
//! use emap_dsp::kernel::{HostStats, KernelCorrelator};
//!
//! # fn main() -> Result<(), emap_dsp::DspError> {
//! let host: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.29).sin() * 20.0).collect();
//! let query = host[300..556].to_vec(); // embedded verbatim at β = 300
//!
//! let stats = HostStats::new(&host);
//! let spectra = HostSpectra::new(&host, &stats, query.len());
//! let kc = KernelCorrelator::new(&query)?;
//! let qs = QuerySpectrum::new(&kc);
//! // The bound dominates the true best correlation (which is ~1 here).
//! assert!(spectra.fine_bound(&qs) > 0.999);
//!
//! // And it dominates ω at every offset, not just the best one.
//! let bound = spectra.coarse_bound(&qs);
//! for beta in (0..=744).step_by(31) {
//!     assert!(kc.correlation_at(&host, &stats, beta)? <= bound);
//! }
//! # Ok(())
//! # }
//! ```

use std::f64::consts::{PI, SQRT_2};
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use crate::kernel::{HostStats, KernelCorrelator};

/// Highest DFT bin kept explicitly (inclusive). The EMAP bandpass passes
/// 11–40 Hz at 256 Hz, i.e. bins 11–40 of a 256-sample window; 42 leaves
/// margin for filter roll-off, and everything above is absorbed by the
/// Cauchy–Schwarz residual term (measured: raising the cap to 100 does not
/// tighten the bound on bandpassed corpora).
pub const SPECTRA_BINS: usize = 42;

/// Offsets per fine-resolution envelope group. Adjacent windows overlap by
/// `w − 1` samples, so their magnitude spectra nearly coincide and the
/// pairwise maxima stay tight; widening the groups trades bound tightness
/// for memory (8-offset groups cost ~5 points of host prune fraction on the
/// bench corpus).
pub const FINE_GROUP: usize = 2;

/// Offsets per coarse-resolution envelope group — the cheap first cascade
/// stage evaluated for every host of a sweep.
pub const COARSE_GROUP: usize = 64;

/// Safety margin added to every nonzero bound, covering all floating-point
/// discrepancies between the bound arithmetic and the kernel's `ω` (both
/// ≲1e-9; see the module docs).
pub const BOUND_MARGIN: f64 = 1e-6;

/// Sliding-DFT re-anchor interval: accumulated recurrence rounding is reset
/// by a direct evaluation every this many offsets.
const ANCHOR_INTERVAL: usize = 64;

/// Relative cancellation guard for the centered window energy — the same
/// threshold [`crate::kernel`] uses to abandon the prefix-sum identity.
const NORM_GUARD: f64 = 1e-4;

/// Slack added under the square root of the residual terms so rounding in
/// `Σ b_k²` can never shrink the tail below its true value.
const TAIL_SLACK: f64 = 1e-9;

/// The raw bound of a wild group: far past 1.0, so it clamps.
const WILD: f64 = 1e6;

/// One envelope code is this much: `2⁻¹⁵`, so a code decodes exactly and
/// every value an envelope can hold (a component of a unit vector, ≤ 1 up
/// to rounding) fits a `u16` with a bit to spare.
const STEP: f64 = 1.0 / 32768.0;

/// The code in a wild group's DC slot: one past the largest an envelope
/// value is given.
const WILD_CODE: u16 = u16::MAX;

/// The smallest code whose value is ≥ `v` (`0.0 → 0` exactly): rounding
/// toward +∞, so the stored envelope never undercuts the `f64` one. By a
/// truncating cast and a compare — `f64::ceil` is a libm call on baseline
/// x86-64, 17 000 of them per host.
fn encode(v: f64) -> u16 {
    let scaled = v / STEP;
    let floor = scaled as u16;
    floor.saturating_add(u16::from(f64::from(floor) < scaled))
}

/// The value of a code — exact, a power-of-two scaling of an integer.
fn decode(code: u16) -> f64 {
    f64::from(code) * STEP
}

/// Encodes a table of `f64` group envelopes. A group flagged wild — or
/// holding a value no code below [`WILD_CODE`] dominates, which a unit
/// vector's component never is — becomes `[WILD_CODE, 0, …]`.
fn encode_groups(table: &[f64], wild: &[bool], stride: usize) -> Vec<u16> {
    let mut codes = Vec::with_capacity(table.len());
    for (group, &wild) in table.chunks_exact(stride).zip(wild) {
        // `!(v <= max)` so a NaN is wild too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if wild || group.iter().any(|&v| !(v <= decode(WILD_CODE - 1))) {
            codes.push(WILD_CODE);
            codes.resize(codes.len() + stride - 1, 0);
        } else {
            codes.extend(group.iter().map(|&v| encode(v)));
        }
    }
    codes
}

/// `e^{-j2πm/w}` for `m = 0..w`, as `(re, im)` pairs.
fn twiddles(w: usize) -> Vec<(f64, f64)> {
    (0..w)
        .map(|m| {
            let phi = -2.0 * PI * m as f64 / w as f64;
            (phi.cos(), phi.sin())
        })
        .collect()
}

/// The kept rows of the DFT matrix of a length-`w` window, sample-major:
/// `re[i·bins + k − 1] + j·im[i·bins + k − 1] = e^{-j2πki/w}` for
/// `k = 1..=bins` — each entry the twiddle `twiddles(w)[(k·i) mod w]`,
/// copied, so no index arithmetic is left in the transform and its inner
/// loop runs across bins.
struct DftRows {
    window: usize,
    bins: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl DftRows {
    /// The table for window `w`. The last one built is kept for the next
    /// caller, which nearly always asks for the same window (a store builds
    /// every set's envelopes at one window): rebuilding ~170 KB of fresh
    /// table per host cost as much as the host's own transform.
    fn shared(w: usize) -> Arc<DftRows> {
        static LAST: Mutex<Option<Arc<DftRows>>> = Mutex::new(None);
        // The only update is one assignment, so a poisoned lock still
        // holds a whole table or none.
        let mut last = LAST.lock().unwrap_or_else(PoisonError::into_inner);
        match &*last {
            Some(rows) if rows.window == w => Arc::clone(rows),
            _ => {
                let rows = Arc::new(DftRows::new(w));
                *last = Some(Arc::clone(&rows));
                rows
            }
        }
    }

    fn new(w: usize) -> Self {
        let bins = bins_for(w);
        let twid = twiddles(w);
        let (mut re, mut im) = (Vec::with_capacity(w * bins), Vec::with_capacity(w * bins));
        for i in 0..w {
            // `m = (k·i) mod w`, stepped by `i < w` without a division.
            let mut m = 0;
            for _ in 1..=bins {
                m += i;
                if m >= w {
                    m -= w;
                }
                let (tr, ti) = twid[m];
                re.push(tr);
                im.push(ti);
            }
        }
        DftRows {
            window: w,
            bins,
            re,
            im,
        }
    }

    /// Bins `1..=bins` of the DFT of `x` (one value per row) into `re` and
    /// `im` (index `k − 1`). Every bin is summed over `i` in ascending
    /// order, exactly as a bin-at-a-time direct DFT sums it; only the
    /// bins' independent chains run side by side.
    fn transform(&self, x: impl IntoIterator<Item = f64>, re: &mut [f64], im: &mut [f64]) {
        let (re, im) = (&mut re[..self.bins], &mut im[..self.bins]);
        re.fill(0.0);
        im.fill(0.0);
        if self.bins == 0 {
            return;
        }
        let rows = self
            .re
            .chunks_exact(self.bins)
            .zip(self.im.chunks_exact(self.bins));
        for (xf, (tr, ti)) in x.into_iter().zip(rows) {
            for (acc, &t) in re.iter_mut().zip(tr) {
                *acc += xf * t;
            }
            for (acc, &t) in im.iter_mut().zip(ti) {
                *acc += xf * t;
            }
        }
    }
}

/// Number of explicit bins for a window of length `w`: every kept bin `k`
/// satisfies `1 ≤ k < w/2` (strictly inside the spectrum, so `c_k = √2`
/// uniformly), capped at [`SPECTRA_BINS`].
fn bins_for(w: usize) -> usize {
    SPECTRA_BINS.min(w.saturating_sub(1) / 2)
}

/// The query-side half of the envelope bound: normalized magnitude
/// coefficients `a_k` of the min–max normalized, unit-energy query, plus the
/// Cauchy–Schwarz residual `a_res`.
///
/// Build it once per query (one direct DFT over the kept bins) and evaluate
/// against any number of [`HostSpectra`].
#[derive(Debug, Clone)]
pub struct QuerySpectrum {
    window: usize,
    /// `a_k` for `k = 0..=bins`.
    mags: Vec<f64>,
    /// `a_res`: upper bound on the L2 mass above the kept bins.
    residual: f64,
    /// Degenerate (zero-energy) normalized query: every bound is 1.0.
    degenerate: bool,
}

impl QuerySpectrum {
    /// Builds the spectrum of the `q̂` `kernel` correlates with, so the
    /// bound and the `ω` it bounds refer to the same query bits.
    #[must_use]
    pub fn new(kernel: &KernelCorrelator) -> Self {
        let normalized = kernel.normalized_query();
        let w = normalized.len();
        let energy: f64 = normalized
            .iter()
            .map(|&q| f64::from(q) * f64::from(q))
            .sum();
        if !energy.is_finite() || energy.sqrt() <= f64::EPSILON {
            return QuerySpectrum {
                window: w,
                mags: Vec::new(),
                residual: 0.0,
                degenerate: true,
            };
        }
        let kb = bins_for(w);
        let norm = energy.sqrt();
        let scale = 1.0 / ((w as f64).sqrt() * norm);
        let mut mags = Vec::with_capacity(kb + 1);
        let qsum: f64 = normalized.iter().map(|&q| f64::from(q)).sum();
        // Bin 0: q̂ is non-negative, so Q_0 = Σq̂ ≥ 0 is the magnitude.
        mags.push(qsum.max(0.0) * scale);
        let (mut re, mut im) = (vec![0.0f64; kb], vec![0.0f64; kb]);
        DftRows::shared(w).transform(normalized.iter().map(|&q| f64::from(q)), &mut re, &mut im);
        for (&r, &i) in re.iter().zip(&im) {
            mags.push(SQRT_2 * (r * r + i * i).sqrt() * scale);
        }
        let sumsq: f64 = mags.iter().map(|a| a * a).sum();
        let residual = ((1.0 - sumsq).max(0.0) + TAIL_SLACK).sqrt();
        QuerySpectrum {
            window: w,
            mags,
            residual,
            degenerate: false,
        }
    }

    /// Window length the spectrum was built for.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Whether the normalized query was degenerate (constant raw window):
    /// every bound evaluates to the unprunable 1.0.
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.degenerate
    }
}

/// The host-side half of the envelope bound: per-group spectral envelopes at
/// two resolutions, built once per host (the mega-database prewarms one per
/// signal-set, like the [`crate::kernel::HostStats`] tables).
///
/// Memory: `⌈offsets/64⌉ × (bins + 2)` 16-bit coarse codes and as many
/// one-byte shifts, plus `⌈offsets/2⌉ × (bins + 2)` one-byte fine steps —
/// 17 996 bytes for a 1000-sample host at the default parameters, reported
/// exactly by [`HostSpectra::memory_bytes`].
#[derive(Debug, Clone)]
pub struct HostSpectra {
    window: usize,
    /// Values per group: `bins + 1` magnitude maxima plus the residual.
    stride: usize,
    offsets: usize,
    /// Flattened coarse groups: `[B_0, …, B_kb, ρ]` × groups, each value
    /// a fixed-point code of step 2⁻¹⁵, rounded toward +∞.
    coarse: Vec<u16>,
    /// One shift `s` per coarse group and slot, same layout as `coarse`:
    /// the smallest that fits the slot's widest fine gap below the coarse
    /// code into eight bits.
    shifts: Vec<u8>,
    /// Flattened fine groups, same layout: each slot holds
    /// `(C_coarse − C_fine) >> s`, so it decodes to
    /// `C_coarse − (step << s)`, never below the fine code `C_fine` and
    /// less than `2^s` above it. The fine groups of a wild coarse group
    /// are wild and hold zeros.
    steps: Vec<u8>,
}

impl HostSpectra {
    /// Builds the envelopes for every length-`window` window of `host`
    /// from the host's own `stats`: window sums, energies and extrema are
    /// the ones the kernel will read (this builds, if nothing has, the
    /// min/max level of `window`).
    ///
    /// A host shorter than the window has no windows at all: the envelopes
    /// are empty and every bound is exactly `0.0` (no offset can produce a
    /// hit, so skipping such a host is always sound).
    ///
    /// # Panics
    ///
    /// Panics if `stats` was built for a host of another length.
    #[must_use]
    pub fn new(host: &[f32], stats: &HostStats, window: usize) -> Self {
        assert_eq!(host.len(), stats.len(), "not the host `stats` describes");
        let kb = bins_for(window);
        let stride = kb + 2;
        if window == 0 || host.len() < window {
            return HostSpectra {
                window,
                stride,
                offsets: 0,
                coarse: Vec::new(),
                shifts: Vec::new(),
                steps: Vec::new(),
            };
        }
        let w = window;
        let wf = w as f64;
        let offsets = host.len() - w + 1;
        let n_fine = offsets.div_ceil(FINE_GROUP);
        let n_coarse = offsets.div_ceil(COARSE_GROUP);
        let mut fine = vec![0.0f64; n_fine * stride];
        let mut coarse = vec![0.0f64; n_coarse * stride];
        // A fine group's offsets are its coarse group's, so one flag serves
        // both.
        let mut coarse_wild = vec![false; n_coarse];

        let extrema = stats.extrema(host, w);
        let (sum_scale, energy_scale) = (stats.sum_scale(), stats.energy_scale());
        let dft = DftRows::shared(w);
        // Rotation factors e^{+j2πk/w}, k = 1..=kb, for the sliding
        // recurrence V_k(β+1) = (V_k(β) − x[β] + x[β+w]) · e^{+j2πk/w}:
        // row 1 of the DFT matrix, conjugated.
        let rot_re = &dft.re[kb..2 * kb];
        let rot_im: Vec<f64> = dft.im[kb..2 * kb].iter().map(|&t| -t).collect();
        // `re`/`im` hold V_k for k = 1..=kb at index k − 1; `bmag` holds
        // b_k for k = 0..=kb at index k.
        let mut re = vec![0.0f64; kb];
        let mut im = vec![0.0f64; kb];
        let mut bmag = vec![0.0f64; kb + 1];

        for beta in 0..offsets {
            if beta % ANCHOR_INTERVAL == 0 {
                let window = host[beta..beta + w].iter().map(|&v| f64::from(v));
                dft.transform(window, &mut re, &mut im);
            }

            let gf = beta / FINE_GROUP;
            let gc = beta / COARSE_GROUP;
            let lof = f64::from(extrema.min_at(beta));
            let span = f64::from(extrema.max_at(beta)) - lof;
            let s = stats.window_sum(beta, w);
            let e = stats.window_energy(beta, w);

            let degenerate = span <= 0.0; // constant window ⇒ ω = 0.0 exactly
            let finite = span.is_finite() && s.is_finite() && e.is_finite();
            if !finite {
                coarse_wild[gc] = true;
            } else if !degenerate {
                let norm_sq = e - 2.0 * lof * s + wf * lof * lof;
                let scale = e
                    .abs()
                    .max((2.0 * lof * s).abs())
                    .max(wf * lof * lof)
                    .max(energy_scale + 2.0 * lof.abs() * sum_scale);
                // `!(a > b)` so NaN also lands on the conservative path.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(norm_sq > NORM_GUARD * scale) {
                    // Same hazard the kernel detects: the prefix identity
                    // cancelled. The kernel falls back to an exact scalar ω;
                    // we cannot bound it from prefix data, so the group
                    // becomes unprunable.
                    coarse_wild[gc] = true;
                } else {
                    let inv = 1.0 / ((wf).sqrt() * norm_sq.sqrt());
                    bmag[0] = (s - wf * lof).max(0.0) * inv;
                    for ((b, &r), &i2) in bmag[1..].iter_mut().zip(&re).zip(&im) {
                        *b = SQRT_2 * (r * r + i2 * i2).sqrt() * inv;
                    }
                    // Σ b_k² in ascending k: one serial chain.
                    let sumsq = bmag[1..]
                        .iter()
                        .fold(bmag[0] * bmag[0], |acc, &b| acc + b * b);
                    let rho = ((1.0 - sumsq).max(0.0) + TAIL_SLACK).sqrt();
                    let f = &mut fine[gf * stride..(gf + 1) * stride];
                    let c = &mut coarse[gc * stride..(gc + 1) * stride];
                    for ((fk, ck), &b) in f.iter_mut().zip(c.iter_mut()).zip(&bmag) {
                        *fk = fk.max(b);
                        *ck = ck.max(b);
                    }
                    f[kb + 1] = f[kb + 1].max(rho);
                    c[kb + 1] = c[kb + 1].max(rho);
                }
            }

            if beta + 1 < offsets && (beta + 1) % ANCHOR_INTERVAL != 0 {
                let delta = f64::from(host[beta + w]) - f64::from(host[beta]);
                let rot = rot_re.iter().zip(&rot_im);
                for ((rk, ik), (&cr, &ci)) in re.iter_mut().zip(im.iter_mut()).zip(rot) {
                    let r = *rk + delta;
                    let i2 = *ik;
                    *rk = r * cr - i2 * ci;
                    *ik = r * ci + i2 * cr;
                }
            }
        }

        let coarse = encode_groups(&coarse, &coarse_wild, stride);
        let (shifts, steps) = pack_fine(&coarse, &fine, stride);
        HostSpectra {
            window,
            stride,
            offsets,
            coarse,
            shifts,
            steps,
        }
    }

    /// Window length the envelopes were built for.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of window offsets the envelopes cover (0 for a host shorter
    /// than the window).
    #[must_use]
    pub fn offsets(&self) -> usize {
        self.offsets
    }

    /// Exact heap footprint of the envelope tables in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.coarse)
            + std::mem::size_of_val(&*self.shifts)
            + std::mem::size_of_val(&*self.steps)
    }

    /// Every stored byte of the envelope tables — the coarse codes
    /// (little-endian), the shifts, then the fine steps: what two builds
    /// of the same host must agree on, bit for bit.
    pub fn stored_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        let coarse = self.coarse.iter().flat_map(|c| c.to_le_bytes());
        coarse
            .chain(self.shifts.iter().copied())
            .chain(self.steps.iter().copied())
    }

    /// The coarse-resolution admissible bound: `max_β ω(q, β) ≤` this, for
    /// every offset `β` of the host. O(⌈offsets/[`COARSE_GROUP`]⌉ · bins).
    ///
    /// Returns `1.0` (unprunable) for a degenerate query or a window-length
    /// mismatch, and exactly `0.0` when no offset can score above zero.
    #[must_use]
    pub fn coarse_bound(&self, query: &QuerySpectrum) -> f64 {
        if let Some(bound) = self.tableless_bound(query) {
            return bound;
        }
        let best = self
            .coarse
            .chunks_exact(self.stride)
            .map(|g| code_dot(g, query))
            .fold(0.0f64, f64::max);
        finish_bound(best * STEP)
    }

    /// The fine-resolution admissible bound — tighter than (never above)
    /// [`HostSpectra::coarse_bound`], at O(⌈offsets/[`FINE_GROUP`]⌉ · bins)
    /// per evaluation: the largest bound [`HostSpectra::fine_bounds`]
    /// yields. Same guarantees.
    #[must_use]
    pub fn fine_bound(&self, query: &QuerySpectrum) -> f64 {
        match self.tableless_bound(query) {
            Some(bound) => bound,
            None => self
                .fine_bounds(query)
                .fold(0.0f64, |best, (_, bound)| best.max(bound)),
        }
    }

    /// One pass over the fine table: every fine group in offset order, as
    /// the offsets it covers and an admissible bound on `ω(q, β)` for each
    /// `β` among them. The groups tile `0..offsets`, and the largest bound
    /// is [`HostSpectra::fine_bound`]; a caller that only asks whether some
    /// group clears a threshold can stop at the first that does.
    ///
    /// Each group is its coarse group's raw dot product minus its weighted
    /// steps, `Σ_k (a_k·2^{s_k})·d_k`, with the weights computed once per
    /// coarse group. Every group answers `1.0` for a degenerate query or a
    /// window-length mismatch (the unprunable fallback of the host-level
    /// bounds) and exactly `0.0` under a coarse group whose bound is zero.
    pub fn fine_bounds<'a>(
        &'a self,
        query: &'a QuerySpectrum,
    ) -> impl Iterator<Item = (Range<usize>, f64)> + 'a {
        let unprunable = query.degenerate || query.window != self.window;
        let stride = self.stride;
        let groups = self
            .coarse
            .chunks_exact(stride)
            .zip(self.shifts.chunks_exact(stride))
            .zip(self.steps.chunks(FINE_PER_COARSE * stride));
        groups
            .enumerate()
            .flat_map(move |(gc, ((coarse, shifts), steps))| {
                let eval = CoarseEval::new(coarse, shifts, query, unprunable);
                let first = gc * FINE_PER_COARSE;
                steps
                    .chunks_exact(stride)
                    .enumerate()
                    .map(move |(i, steps)| {
                        let start = (first + i) * FINE_GROUP;
                        let offsets = start..(start + FINE_GROUP).min(self.offsets);
                        (offsets, eval.bound(steps))
                    })
            })
    }

    /// The host bound when it does not depend on the tables: `1.0` for a
    /// degenerate query or a window mismatch, `0.0` for a host too short
    /// to hold a window.
    fn tableless_bound(&self, query: &QuerySpectrum) -> Option<f64> {
        if query.degenerate || query.window != self.window {
            Some(1.0)
        } else if self.offsets == 0 {
            Some(0.0)
        } else {
            None
        }
    }
}

/// Every step as an `f64`, `STEPS_F64[d] = d`: a load per step where the
/// conversion compiles, on baseline x86-64, to a chain of shuffles that
/// made the fine pass slower than the 16-bit one it replaces.
static STEPS_F64: [f64; 256] = {
    let mut table = [0.0; 256];
    let mut d = 0;
    while d < 256 {
        table[d] = d as f64;
        d += 1;
    }
    table
};

/// Fine groups under one coarse group.
const FINE_PER_COARSE: usize = COARSE_GROUP / FINE_GROUP;

/// The smallest shift that fits `gap >> shift` into eight bits.
fn shift_for(gap: u16) -> u8 {
    (u16::BITS - gap.leading_zeros()).saturating_sub(8) as u8
}

/// Packs the `f64` fine envelopes under their encoded coarse groups: per
/// coarse group and slot the shift that fits the widest gap, then each
/// fine group's steps. Every fine group's offsets lie in its coarse
/// group's, so its values are no higher and its codes (the same rounding
/// up) never exceed the coarse codes; and any value that makes a fine
/// group wild made its coarse group wild, whose fine groups are all wild.
fn pack_fine(coarse: &[u16], fine: &[f64], stride: usize) -> (Vec<u8>, Vec<u8>) {
    let mut shifts = vec![0u8; coarse.len()];
    let mut steps = vec![0u8; fine.len()];
    let span = FINE_PER_COARSE * stride;
    let groups = coarse
        .chunks_exact(stride)
        .zip(shifts.chunks_exact_mut(stride));
    for ((top, shift), (fine, steps)) in groups.zip(fine.chunks(span).zip(steps.chunks_mut(span))) {
        if top[0] == WILD_CODE {
            continue;
        }
        let codes: Vec<u16> = fine.iter().map(|&v| encode(v)).collect();
        for (k, (&top, shift)) in top.iter().zip(shift.iter_mut()).enumerate() {
            let widest = codes[k..].iter().step_by(stride).map(|&c| top - c).max();
            *shift = shift_for(widest.unwrap_or(0));
        }
        for (codes, steps) in codes
            .chunks_exact(stride)
            .zip(steps.chunks_exact_mut(stride))
        {
            for (((d, &c), &top), &s) in steps.iter_mut().zip(codes).zip(top).zip(&*shift) {
                // At most 255 by the choice of `s`.
                *d = ((top - c) >> s) as u8;
            }
        }
    }
    (shifts, steps)
}

/// One coarse group's part of every fine bound under it: its raw dot
/// product in code units and the weights `a_k·2^{s_k}` of the fine steps.
struct CoarseEval {
    raw: f64,
    weights: [f64; SPECTRA_BINS + 2],
}

impl CoarseEval {
    fn new(coarse: &[u16], shifts: &[u8], query: &QuerySpectrum, unprunable: bool) -> Self {
        let mut weights = [0.0f64; SPECTRA_BINS + 2];
        if unprunable || coarse[0] == WILD_CODE {
            return CoarseEval {
                raw: WILD / STEP,
                weights,
            };
        }
        let a = query.mags.iter().chain(std::iter::once(&query.residual));
        for ((w, &a), &s) in weights.iter_mut().zip(a).zip(shifts) {
            *w = a * f64::from(1u16 << s);
        }
        CoarseEval {
            raw: code_dot(coarse, query),
            weights,
        }
    }

    /// The raw dot product of one fine group in code units: the coarse
    /// one minus `Σ_k weight_k·step_k`, summed over four lanes.
    fn fine_raw(&self, steps: &[u8]) -> f64 {
        let mut lanes = [0.0f64; 4];
        let ws = self.weights[..steps.len()].chunks_exact(4);
        let ds = steps.chunks_exact(4);
        let (wr, dr) = (ws.remainder(), ds.remainder());
        for (w, d) in ws.zip(ds) {
            for i in 0..4 {
                lanes[i] += w[i] * STEPS_F64[usize::from(d[i])];
            }
        }
        for (i, (&w, &d)) in wr.iter().zip(dr).enumerate() {
            lanes[i] += w * STEPS_F64[usize::from(d)];
        }
        self.raw - ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
    }

    /// The finished bound of one fine group. The difference is never taken
    /// for a zero coarse dot product — every code under it is zero too, so
    /// zero is exact — and nothing else is reported as zero: a difference
    /// that rounds to zero still bounds content the margin must cover.
    fn bound(&self, steps: &[u8]) -> f64 {
        if self.raw == 0.0 {
            0.0
        } else {
            (self.fine_raw(steps) * STEP + BOUND_MARGIN).min(1.0)
        }
    }
}

/// The raw envelope dot product `Σ a_k·C_k + a_res·C_ρ` of one group in code
/// units: scaled by [`STEP`] it is the sum over the decoded values bit for
/// bit (a power-of-two factor commutes with every rounding). A wild group
/// answers [`WILD`] (scaled) for any query.
fn code_dot(group: &[u16], query: &QuerySpectrum) -> f64 {
    if group[0] == WILD_CODE {
        return WILD / STEP;
    }
    let mut acc = 0.0f64;
    for (a, &b) in query.mags.iter().zip(group) {
        acc += a * f64::from(b);
    }
    acc + query.residual * f64::from(group[group.len() - 1])
}

/// Applies the safety margin and the `[0, 1]` clamp to a raw envelope dot
/// product. A raw value of exactly `0.0` only arises from all-degenerate
/// (constant-window) content whose `ω` is exactly `0.0`, so no margin is
/// needed there.
fn finish_bound(raw: f64) -> f64 {
    if raw == 0.0 {
        0.0
    } else {
        (raw + BOUND_MARGIN).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_testkit::prelude::*;

    /// The spectrum of a raw query window.
    fn spectrum(query: &[f32]) -> QuerySpectrum {
        QuerySpectrum::new(&KernelCorrelator::new(query).unwrap())
    }

    fn eeg_like(n: usize, seed: f32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let t = i as f32;
                (t * 0.29 + seed).sin() * 14.0
                    + (t * 0.61 + seed * 2.0).sin() * 6.0
                    + (t * 0.097 + seed * 3.0).cos() * 3.0
            })
            .collect()
    }

    fn spectra_of(host: &[f32], window: usize) -> HostSpectra {
        HostSpectra::new(host, &HostStats::new(host), window)
    }

    /// The fine codes the packed tables decode to, group by group:
    /// `C_coarse − (step << s)` per slot, `None` for a wild group.
    fn decoded_fine(spectra: &HostSpectra) -> Vec<Option<Vec<u16>>> {
        let stride = spectra.stride;
        (0..spectra.steps.len() / stride)
            .map(|gf| {
                let gc = gf / FINE_PER_COARSE;
                let top = &spectra.coarse[gc * stride..(gc + 1) * stride];
                let shifts = &spectra.shifts[gc * stride..(gc + 1) * stride];
                let steps = &spectra.steps[gf * stride..(gf + 1) * stride];
                (top[0] != WILD_CODE).then(|| {
                    let slots = top.iter().zip(shifts).zip(steps);
                    slots
                        .map(|((&c, &s), &d)| c - (u16::from(d) << s))
                        .collect()
                })
            })
            .collect()
    }

    /// The reference builds: every DFT bin summed on its own, one
    /// `twid[(k·i) mod w]` look-up per multiply-add, and the per-offset
    /// updates one bin at a time. [`HostSpectra::new`] and
    /// [`QuerySpectrum::new`] must reproduce them bit for bit.
    mod direct {
        use super::super::*;

        /// `(re, im)` of bins `1..=kb` of `x`, bin at a time.
        fn dft(x: &[f32], twid: &[(f64, f64)], kb: usize) -> Vec<(f64, f64)> {
            let w = twid.len();
            (1..=kb)
                .map(|k| {
                    let (mut re, mut im) = (0.0f64, 0.0f64);
                    for (i, &v) in x.iter().enumerate() {
                        let (tr, ti) = twid[(k * i) % w];
                        re += f64::from(v) * tr;
                        im += f64::from(v) * ti;
                    }
                    (re, im)
                })
                .collect()
        }

        /// `(mags, residual)` of a non-degenerate normalized query.
        pub fn query(normalized: &[f32]) -> (Vec<f64>, f64) {
            let w = normalized.len();
            let energy: f64 = normalized
                .iter()
                .map(|&q| f64::from(q) * f64::from(q))
                .sum();
            let scale = 1.0 / ((w as f64).sqrt() * energy.sqrt());
            let qsum: f64 = normalized.iter().map(|&q| f64::from(q)).sum();
            let mut mags = vec![qsum.max(0.0) * scale];
            for (re, im) in dft(normalized, &twiddles(w), bins_for(w)) {
                mags.push(SQRT_2 * (re * re + im * im).sqrt() * scale);
            }
            let sumsq: f64 = mags.iter().map(|a| a * a).sum();
            let residual = ((1.0 - sumsq).max(0.0) + TAIL_SLACK).sqrt();
            (mags, residual)
        }

        /// `(offsets, coarse codes, fine codes)` of `host` at window `w`.
        pub fn host(host: &[f32], stats: &HostStats, w: usize) -> (usize, Vec<u16>, Vec<u16>) {
            let kb = bins_for(w);
            let stride = kb + 2;
            if w == 0 || host.len() < w {
                return (0, Vec::new(), Vec::new());
            }
            let wf = w as f64;
            let offsets = host.len() - w + 1;
            let (n_fine, n_coarse) = (offsets.div_ceil(FINE_GROUP), offsets.div_ceil(COARSE_GROUP));
            let mut fine = vec![0.0f64; n_fine * stride];
            let mut coarse = vec![0.0f64; n_coarse * stride];
            let mut fine_wild = vec![false; n_fine];
            let mut coarse_wild = vec![false; n_coarse];
            let extrema = stats.extrema(host, w);
            let (sum_scale, energy_scale) = (stats.sum_scale(), stats.energy_scale());
            let twid = twiddles(w);
            let rot: Vec<(f64, f64)> = (0..=kb).map(|k| (twid[k].0, -twid[k].1)).collect();
            let mut spectrum = vec![(0.0f64, 0.0f64); kb + 1];
            let mut bmag = vec![0.0f64; kb + 1];
            for beta in 0..offsets {
                if beta % ANCHOR_INTERVAL == 0 {
                    spectrum[1..].copy_from_slice(&dft(&host[beta..beta + w], &twid, kb));
                }
                let (gf, gc) = (beta / FINE_GROUP, beta / COARSE_GROUP);
                let lof = f64::from(extrema.min_at(beta));
                let span = f64::from(extrema.max_at(beta)) - lof;
                let s = stats.window_sum(beta, w);
                let e = stats.window_energy(beta, w);
                if !(span.is_finite() && s.is_finite() && e.is_finite()) {
                    fine_wild[gf] = true;
                    coarse_wild[gc] = true;
                } else if span > 0.0 {
                    let norm_sq = e - 2.0 * lof * s + wf * lof * lof;
                    let scale = e
                        .abs()
                        .max((2.0 * lof * s).abs())
                        .max(wf * lof * lof)
                        .max(energy_scale + 2.0 * lof.abs() * sum_scale);
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    if !(norm_sq > NORM_GUARD * scale) {
                        fine_wild[gf] = true;
                        coarse_wild[gc] = true;
                    } else {
                        let inv = 1.0 / (wf.sqrt() * norm_sq.sqrt());
                        let b0 = (s - wf * lof).max(0.0) * inv;
                        bmag[0] = b0;
                        let mut sumsq = b0 * b0;
                        for k in 1..=kb {
                            let (re, im) = spectrum[k];
                            let bk = SQRT_2 * (re * re + im * im).sqrt() * inv;
                            bmag[k] = bk;
                            sumsq += bk * bk;
                        }
                        let rho = ((1.0 - sumsq).max(0.0) + TAIL_SLACK).sqrt();
                        for (table, g) in [(&mut fine, gf), (&mut coarse, gc)] {
                            let group = &mut table[g * stride..(g + 1) * stride];
                            for k in 0..=kb {
                                group[k] = group[k].max(bmag[k]);
                            }
                            group[kb + 1] = group[kb + 1].max(rho);
                        }
                    }
                }
                if beta + 1 < offsets && (beta + 1) % ANCHOR_INTERVAL != 0 {
                    let delta = f64::from(host[beta + w]) - f64::from(host[beta]);
                    for k in 1..=kb {
                        let (re, im) = spectrum[k];
                        let r = re + delta;
                        spectrum[k] = (r * rot[k].0 - im * rot[k].1, r * rot[k].1 + im * rot[k].0);
                    }
                }
            }
            (
                offsets,
                encode_groups(&coarse, &coarse_wild, stride),
                encode_groups(&fine, &fine_wild, stride),
            )
        }
    }

    fn max_omega(query: &[f32], host: &[f32]) -> f64 {
        let kc = KernelCorrelator::new(query).unwrap();
        let stats = HostStats::new(host);
        (0..=host.len() - query.len())
            .map(|beta| kc.correlation_at(host, &stats, beta).unwrap())
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn bounds_dominate_every_offset_on_realistic_content() {
        let host = eeg_like(1000, 0.0);
        for seed in [0.5f32, 1.7, 4.2] {
            let query = eeg_like(256, seed);
            let qs = spectrum(&query);
            let spectra = spectra_of(&host, 256);
            let best = max_omega(&query, &host);
            assert!(
                spectra.fine_bound(&qs) >= best,
                "seed {seed}: fine {} < best {best}",
                spectra.fine_bound(&qs)
            );
            assert!(
                spectra.coarse_bound(&qs) >= spectra.fine_bound(&qs),
                "seed {seed}: coarse below fine"
            );
        }
    }

    #[test]
    fn embedded_match_pushes_the_bound_to_one() {
        let host = eeg_like(1000, 2.0);
        let query = host[417..673].to_vec();
        let qs = spectrum(&query);
        let spectra = spectra_of(&host, 256);
        assert!(spectra.fine_bound(&qs) > 0.999);
        assert!(spectra.coarse_bound(&qs) > 0.999);
    }

    #[test]
    fn short_host_bounds_are_zero() {
        let host = eeg_like(100, 0.0);
        let query = eeg_like(256, 1.0);
        let qs = spectrum(&query);
        let spectra = spectra_of(&host, 256);
        assert_eq!(spectra.offsets(), 0);
        assert_eq!(spectra.fine_bound(&qs), 0.0);
        assert_eq!(spectra.coarse_bound(&qs), 0.0);
    }

    #[test]
    fn flat_host_bounds_are_exactly_zero() {
        let host = vec![3.25f32; 1000];
        let query = eeg_like(256, 1.0);
        let qs = spectrum(&query);
        let spectra = spectra_of(&host, 256);
        // Every window is constant ⇒ ω = 0.0 exactly at every offset, and
        // the bound certifies it without a margin.
        assert_eq!(spectra.fine_bound(&qs), 0.0);
        assert_eq!(spectra.coarse_bound(&qs), 0.0);
    }

    #[test]
    fn degenerate_query_is_unprunable() {
        let qs = spectrum(&[5.0f32; 256]);
        assert!(qs.is_degenerate());
        let spectra = spectra_of(&eeg_like(1000, 0.0), 256);
        assert_eq!(spectra.fine_bound(&qs), 1.0);
        assert_eq!(spectra.coarse_bound(&qs), 1.0);
    }

    #[test]
    fn window_mismatch_is_unprunable() {
        let qs = spectrum(&eeg_like(128, 0.0));
        let spectra = spectra_of(&eeg_like(1000, 0.0), 256);
        assert_eq!(spectra.fine_bound(&qs), 1.0);
    }

    #[test]
    fn hazardous_hosts_stay_admissible_via_wild_groups() {
        // Amplitude 1e-3 around a baseline of 5: the centered-energy
        // identity cancels (the kernel's scalar-fallback regime), so the
        // bound must refuse to prune rather than risk underestimating.
        let host: Vec<f32> = (0..1000)
            .map(|i| 5.0 + ((i as f32) * 0.37).sin() * 1e-3)
            .collect();
        let query = eeg_like(256, 0.3);
        let qs = spectrum(&query);
        let spectra = spectra_of(&host, 256);
        let best = max_omega(&query, &host);
        assert!(spectra.fine_bound(&qs) >= best);
        assert!(spectra.coarse_bound(&qs) >= best);
        // Every group is wild, and a wild group saturates.
        assert!(decoded_fine(&spectra).iter().all(Option::is_none));
        assert_eq!(spectra.fine_bound(&qs), 1.0);
        assert!(spectra.fine_bounds(&qs).all(|(_, bound)| bound == 1.0));
    }

    #[test]
    fn non_finite_samples_poison_conservatively() {
        let mut host = eeg_like(1000, 0.0);
        host[500] = f32::NAN;
        let query = eeg_like(256, 1.0);
        let qs = spectrum(&query);
        let spectra = spectra_of(&host, 256);
        // Offsets before the NaN are still bounded normally; offsets
        // touching it go wild. Either way the host bound is ≥ any finite ω.
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let bound = spectra.fine_bound(&qs);
        for beta in 0..=200 {
            let omega = kc.correlation_at(&host, &stats, beta).unwrap();
            assert!(omega <= bound, "β = {beta}");
        }
    }

    #[test]
    fn small_and_odd_windows_stay_admissible() {
        let host = eeg_like(80, 0.0);
        for w in [1usize, 2, 3, 7, 8, 15, 16, 17, 31, 63, 64, 65] {
            let query = eeg_like(w, 0.9);
            let qs = spectrum(&query);
            let spectra = spectra_of(&host, w);
            if qs.is_degenerate() {
                continue;
            }
            let best = max_omega(&query, &host);
            assert!(
                spectra.fine_bound(&qs) >= best,
                "w = {w}: {} < {best}",
                spectra.fine_bound(&qs)
            );
        }
    }

    #[test]
    fn fine_bounds_tile_the_host_and_max_to_the_fine_bound() {
        let host = eeg_like(1000, 0.7);
        let query = eeg_like(256, 1.3);
        let qs = spectrum(&query);
        let spectra = spectra_of(&host, 256);
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);

        let mut covered = 0usize;
        let mut max_group = 0.0f64;
        for (g, (range, bound)) in spectra.fine_bounds(&qs).enumerate() {
            assert_eq!(range.start, covered, "group {g} not contiguous");
            assert_eq!(range.len(), FINE_GROUP.min(745 - covered));
            covered = range.end;
            max_group = max_group.max(bound);
            // Per-group admissibility: the group bound dominates every ω
            // at the offsets it covers.
            for beta in range {
                let omega = kc.correlation_at(&host, &stats, beta).unwrap();
                assert!(omega <= bound, "group {g}, β = {beta}");
            }
        }
        assert_eq!(covered, spectra.offsets());
        assert_eq!(max_group, spectra.fine_bound(&qs));
        assert!(max_group <= spectra.coarse_bound(&qs));
    }

    /// The sliding kernel's early exit — does any group clear a threshold?
    /// — answers what the host-level fine bound does, on every host that
    /// holds a window; a host that holds none has no group to clear.
    #[test]
    fn any_fine_group_reaching_is_the_fine_bound_reaching() {
        let hosts = [
            eeg_like(1000, 0.7),
            vec![3.25f32; 1000],
            eeg_like(100, 0.0),
            (0..1000)
                .map(|i| 5.0 + ((i as f32) * 0.37).sin() * 1e-3)
                .collect(),
        ];
        let queries = [eeg_like(256, 1.3), eeg_like(128, 0.2), vec![5.0f32; 256]];
        for host in &hosts {
            let spectra = spectra_of(host, 256);
            for query in &queries {
                let qs = spectrum(query);
                if spectra.offsets() == 0 {
                    assert_eq!(spectra.fine_bounds(&qs).count(), 0);
                    continue;
                }
                let bound = spectra.fine_bound(&qs);
                for threshold in [0.0, 0.5, bound - 1e-9, bound, bound + 1e-9, 1.0] {
                    let mut pass = spectra.fine_bounds(&qs);
                    assert_eq!(pass.any(|(_, b)| b > threshold), bound > threshold);
                    let mut pass = spectra.fine_bounds(&qs);
                    assert_eq!(pass.any(|(_, b)| b >= threshold), bound >= threshold);
                }
            }
        }
    }

    #[test]
    fn fine_bounds_of_a_mismatched_or_degenerate_query_are_unprunable() {
        let spectra = spectra_of(&eeg_like(1000, 0.0), 256);
        for qs in [spectrum(&[5.0f32; 256]), spectrum(&eeg_like(128, 0.0))] {
            assert_eq!(spectra.fine_bounds(&qs).count(), 373);
            assert!(spectra.fine_bounds(&qs).all(|(_, bound)| bound == 1.0));
        }
    }

    /// 12 coarse groups of 44 two-byte codes and one-byte shifts, and 373
    /// fine groups of 44 one-byte steps.
    #[test]
    fn memory_footprint_is_reported() {
        let spectra = spectra_of(&eeg_like(1000, 0.0), 256);
        let (coarse, fine) = (
            745usize.div_ceil(COARSE_GROUP),
            745usize.div_ceil(FINE_GROUP),
        );
        assert_eq!((coarse, fine), (12, 373));
        assert_eq!(
            spectra.memory_bytes(),
            coarse * (SPECTRA_BINS + 2) * 3 + fine * (SPECTRA_BINS + 2)
        );
        assert_eq!(spectra.memory_bytes(), 17_996);
        assert_eq!(spectra.stored_bytes().count(), 17_996);
        assert_eq!(spectra_of(&[], 256).memory_bytes(), 0);
    }

    #[test]
    fn the_spectra_build_reads_the_level_the_search_will() {
        let host = eeg_like(1000, 0.0);
        let stats = HostStats::new(&host);
        let _ = HostSpectra::new(&host, &stats, 256);
        assert_eq!(stats.built_levels().collect::<Vec<_>>(), [8]);
    }

    #[test]
    #[should_panic(expected = "not the host")]
    fn stats_of_another_host_are_rejected() {
        let host = eeg_like(1000, 0.0);
        let _ = HostSpectra::new(&host, &HostStats::new(&host[..900]), 256);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fixed point rounds up, by less than one step, and decodes
        /// exactly: `v ≤ decode(encode(v)) < v + 2⁻¹⁵` over everything an
        /// envelope holds.
        #[test]
        fn codes_round_up_by_less_than_a_step(v in 0.0f64..=1.0 + 1e-9, exp in 0i32..40) {
            for v in [v, v * 0.5f64.powi(exp), 1.0 - v * 0.5f64.powi(exp)] {
                let back = decode(encode(v));
                prop_assert!(back >= v, "{v} decoded to {back}");
                prop_assert!(back < v + STEP, "{v} decoded to {back}");
                prop_assert!(encode(v) < WILD_CODE);
                prop_assert_eq!(encode(back), encode(v));
            }
        }

        /// A wild group survives the encoder and answers 1.0 to every query
        /// with energy, whatever else its envelope held.
        #[test]
        fn wild_groups_saturate_every_query(
            query in prop::collection::vec(-40.0f32..40.0, 16..64),
            envelope in 0.0f64..1.0,
            overflow in prop::bool::ANY,
        ) {
            let qs = spectrum(&query);
            prop_assume!(!qs.is_degenerate());
            let stride = qs.mags.len() + 1;
            let mut group = vec![envelope; stride];
            if overflow {
                group[stride - 1] = 2.0; // past what any code below WILD dominates
            }
            let codes = encode_groups(&group, &[!overflow], stride);
            prop_assert_eq!(codes[0], WILD_CODE);
            prop_assert_eq!(codes.len(), stride);
            prop_assert_eq!(finish_bound(code_dot(&codes, &qs) * STEP), 1.0);
            // And so does every fine group under it, whatever its steps.
            let eval = CoarseEval::new(&codes, &vec![0; stride], &qs, false);
            prop_assert_eq!(eval.bound(&vec![255; stride]), 1.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Coarse codes equal the direct build's, and every fine code the
        /// packed steps decode to is at or above the direct build's and
        /// less than `2^s` above it, on ordinary, noise, wild (the
        /// centered-energy guard trips everywhere), NaN-poisoned, flat and
        /// shorter-than-the-window hosts — most with a partial last coarse
        /// group — at windows from 1 sample to a second.
        #[test]
        fn coarse_codes_are_the_direct_build_and_fine_steps_round_up_from_it(
            kind in 0usize..6,
            len in 0usize..1200,
            window in prop::sample::select(vec![1usize, 2, 3, 5, 16, 63, 64, 65, 255, 256]),
            seed in 0.0f32..10.0,
            noise in prop::collection::vec(-40.0f32..40.0, 1200),
            at in any::<prop::sample::Index>(),
        ) {
            let host: Vec<f32> = match kind {
                0 => eeg_like(len, seed),
                1 => noise[..len].to_vec(),
                2 => (0..len).map(|i| 5.0 + (i as f32 * 0.37 + seed).sin() * 1e-3).collect(),
                3 => {
                    let mut host = eeg_like(len, seed);
                    if len > 0 {
                        host[at.index(len)] = f32::NAN;
                    }
                    host
                }
                4 => vec![seed; len],
                _ => eeg_like(len % window, seed),
            };
            let stats = HostStats::new(&host);
            let spectra = HostSpectra::new(&host, &stats, window);
            let (offsets, coarse, fine) = direct::host(&host, &stats, window);
            prop_assert_eq!(spectra.offsets(), offsets);
            prop_assert_eq!(&spectra.coarse, &coarse);
            let stride = spectra.stride;
            let decoded = decoded_fine(&spectra);
            prop_assert_eq!(decoded.len() * stride, fine.len());
            for (gf, (codes, direct)) in decoded.iter().zip(fine.chunks_exact(stride)).enumerate() {
                let gc = gf / FINE_PER_COARSE;
                let Some(codes) = codes else {
                    // Wild exactly when the coarse group is, which a wild
                    // fine group always makes it.
                    prop_assert_eq!(coarse[gc * stride], WILD_CODE);
                    continue;
                };
                prop_assert!(direct[0] != WILD_CODE, "fine group {} is wild", gf);
                let shifts = &spectra.shifts[gc * stride..(gc + 1) * stride];
                for ((&code, &reference), &s) in codes.iter().zip(direct).zip(shifts) {
                    prop_assert!(code >= reference, "group {}: {} < {}", gf, code, reference);
                    prop_assert!(u32::from(code) < u32::from(reference) + (1 << s), "group {}: {} ≥ {} + 2^{}", gf, code, reference, s);
                }
            }
        }

        /// The lane-summed subtract form of each fine group is the plain
        /// dot product over its decoded codes, to within 1e-12.
        #[test]
        fn fine_bounds_are_the_plain_dot_over_the_decoded_codes(
            kind in 0usize..3,
            len in 256usize..1200,
            seed in 0.0f32..10.0,
            noise in prop::collection::vec(-40.0f32..40.0, 1200),
            query in prop::collection::vec(-40.0f32..40.0, 256),
        ) {
            let host: Vec<f32> = match kind {
                0 => eeg_like(len, seed),
                1 => noise[..len].to_vec(),
                _ => eeg_like(len, seed).iter().zip(&noise).map(|(x, n)| x + n * 0.1).collect(),
            };
            let spectra = spectra_of(&host, 256);
            let qs = spectrum(&query);
            prop_assume!(!qs.is_degenerate());
            let stride = spectra.stride;
            let coarse = spectra.coarse.chunks_exact(stride).zip(spectra.shifts.chunks_exact(stride));
            let evals: Vec<CoarseEval> = coarse.map(|(c, s)| CoarseEval::new(c, s, &qs, false)).collect();
            let pass: Vec<f64> = spectra.fine_bounds(&qs).map(|(_, bound)| bound).collect();
            for (gf, codes) in decoded_fine(&spectra).iter().enumerate() {
                let codes = codes.as_ref().expect("no wild group in finite, loud content");
                let eval = &evals[gf / FINE_PER_COARSE];
                let lanes = eval.fine_raw(&spectra.steps[gf * stride..(gf + 1) * stride]) * STEP;
                let plain = code_dot(codes, &qs) * STEP;
                prop_assert!((lanes - plain).abs() <= 1e-12, "group {}: {} vs {}", gf, lanes, plain);
                prop_assert_eq!(pass[gf], eval.bound(&spectra.steps[gf * stride..(gf + 1) * stride]));
            }
        }

        /// A query's magnitude coefficients and residual equal the direct
        /// DFT's, bit for bit.
        #[test]
        fn query_magnitudes_are_the_direct_dft_bit_for_bit(
            query in prop::collection::vec(-40.0f32..40.0, 1..300),
        ) {
            let kc = KernelCorrelator::new(&query).unwrap();
            let qs = QuerySpectrum::new(&kc);
            prop_assume!(!qs.is_degenerate());
            let (mags, residual) = direct::query(kc.normalized_query());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&qs.mags), bits(&mags));
            prop_assert_eq!(qs.residual.to_bits(), residual.to_bits());
        }
    }

    #[test]
    fn zero_and_only_zero_encodes_to_zero() {
        assert_eq!(encode(0.0), 0);
        assert_eq!(decode(0), 0.0);
        assert_eq!(encode(f64::MIN_POSITIVE), 1);
        assert_eq!(encode(STEP), 1);
        assert_eq!(encode(1.0), 1 << 15);
        assert_eq!(decode(1 << 15), 1.0);
        // A group of zeros stays margin-free through the whole bound.
        let qs = spectrum(&eeg_like(256, 0.2));
        let zeros = encode_groups(&vec![0.0; SPECTRA_BINS + 2], &[false], SPECTRA_BINS + 2);
        assert_eq!(finish_bound(code_dot(&zeros, &qs) * STEP), 0.0);
        // And so does every fine group under a zero coarse group.
        let eval = CoarseEval::new(&zeros, &[0; SPECTRA_BINS + 2], &qs, false);
        assert_eq!(eval.bound(&[0; SPECTRA_BINS + 2]), 0.0);
    }

    #[test]
    fn query_spectrum_shapes() {
        let qs = spectrum(&eeg_like(256, 0.2));
        assert_eq!(qs.window(), 256);
        assert!(!qs.is_degenerate());
    }
}
