//! The bound-pruned area-between-curves kernel.
//!
//! The edge tracker re-scores every tracked slice against each one-second
//! input window (Algorithm 2), and under the area metric (Eq. 3) that means
//! evaluating `Σ |x_i − y_{β+i}|` at hundreds of offsets `β` per slice per
//! second. The naive scan touches every sample of every window. This module
//! rejects most windows without touching any sample at all, and abandons
//! the rest about twice as early as their partial sums alone would:
//!
//! - **An admissible lower bound, four legs.** For any offset `β`, the
//!   triangle inequality gives
//!   `Σ |x_i − y_{β+i}|  ≥  |Σ (x_i − y_{β+i})|  =  |Σx − Σy[β..β+w]|`,
//!   and with the per-host prefix sums of [`HostStats`] the right-hand side
//!   costs two subtractions. The sum leg is blind on bandpassed EEG (every
//!   window sums to ≈0), so three more legs cover it. An **energy leg**:
//!   with `d = x − y[β..]`,
//!   `Σ |d_i| = ‖d‖₁ ≥ ‖d‖₂ ≥ |‖x‖₂ − ‖y[β..]‖₂|` (norm monotonicity, then
//!   the reverse triangle inequality), and the window norm is O(1) from the
//!   prefix *energies*. Two **blockwise sum legs** partition the window
//!   into blocks of [`AREA_SUM_BLOCK_COARSE`] and [`AREA_SUM_BLOCK_FINE`]
//!   samples and apply the triangle inequality per block:
//!   `Σ |d_i| ≥ Σ_j |Σ_{i∈block j} d_i|`. Zero-mean signals cancel over a
//!   whole window but not over a 64- or 8-sample block, so misaligned
//!   oscillatory content produces bounds on the scale of the area itself.
//!   The largest leg wins.
//! - **Eight offsets per pass (`lane = offset`).** The legs are evaluated
//!   for eight consecutive offsets at once, so every prefix read is one
//!   contiguous eight-entry load and the arithmetic auto-vectorizes. The
//!   cascade runs cheapest leg first and stops once all eight lanes exceed
//!   the cutoff the batch started with; a surviving lane is re-checked
//!   against the live cutoff before any sample is touched.
//! - **A residual-bound early exit.** The fine leg's terms are kept as
//!   suffix sums per [`AREA_BLOCK`]: `residual_k` bounds from below the
//!   area still to come from sample `32k` on. A surviving window is summed
//!   32 samples at a time and abandoned at block `k` once `partial_k +
//!   residual_{k+1}` passes the cutoff — not merely `partial_k` — so the
//!   average scored window reads three of its eight blocks, not six.
//! - **A best-first scan.** [`BoundedAreaScan::best_below`] threads the
//!   current best through both mechanisms and returns the exact argmin a
//!   full scan of [`abs_diff_sum`] over every offset would: every reject is
//!   on a *strict* violation of an admissible bound and ties keep the
//!   earliest offset, decision for decision (the scalar scan it is pinned
//!   to lives in `crates/dsp/tests/oracle/area.rs`).
//!
//! [`abs_diff_sum`] is the workspace's one Eq. 3 arithmetic
//! ([`crate::similarity::area_between_curves`] is it behind a length
//! check). It subtracts in `f64`, so each term is exact for same-scale
//! inputs — the bound and the sum then live on the same error scale and
//! the bound stays admissible in floating point, not just on paper. See
//! `DESIGN.md` §10.
//!
//! On an x86-64 CPU with AVX2, [`BoundedAreaScan::best_below`] runs the
//! scan compiled for AVX2, chosen at run time: the same source, the same
//! operations in the same order, so the same bits.
//!
//! # Example
//!
//! ```
//! use emap_dsp::area::{BoundedAreaScan, ScanCounters};
//! use emap_dsp::kernel::HostStats;
//!
//! # fn main() -> Result<(), emap_dsp::DspError> {
//! let host: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.37).sin() * 20.0).collect();
//! let input = &host[300..556]; // an exact match at β = 300
//!
//! let scan = BoundedAreaScan::new(input)?;
//! let stats = HostStats::new(&host);
//! let mut counters = ScanCounters::default();
//! let (beta, area) = scan.best_below(&host, &stats, 0, 744, f64::INFINITY, &mut counters)?;
//! assert_eq!(beta, 300);
//! assert_eq!(area, 0.0);
//! // Once the exact match is found, the bound rejects offsets wholesale.
//! assert!(counters.pruned > 0);
//! assert_eq!(counters.scored + counters.pruned, 745);
//! # Ok(())
//! # }
//! ```

use std::cell::RefCell;
use std::ops::Range;

use crate::kernel::HostStats;
use crate::DspError;

/// Samples per early-exit block of the window sum: the running total is
/// compared against the cutoff only at block boundaries, keeping the check
/// cost negligible next to the accumulation itself.
pub const AREA_BLOCK: usize = 32;

/// Block length of the coarse blockwise sum leg of
/// [`BoundedAreaScan::lower_bound`] — cheap (5 prefix loads at the
/// tracker's 256-sample window) and already sensitive to misaligned
/// oscillations slower than ~2 cycles per window.
pub const AREA_SUM_BLOCK_COARSE: usize = 64;

/// Block length of the fine blockwise sum leg — 8 samples is a third of a
/// cycle at the low edge of the EMAP passband (11–40 Hz at 256 Hz) and
/// about one at the high edge, so most in-band content no longer cancels
/// within a block and the leg tracks the area closely on bandpassed EEG. It divides [`AREA_BLOCK`], so the leg's
/// terms regroup into the per-block residuals of the early exit.
pub const AREA_SUM_BLOCK_FINE: usize = 8;

/// Relative slack, in units of the combined query/host sum scale, deducted
/// from every blockwise-leg term so prefix-difference rounding can never
/// push a computed bound above the true area. Prefix sums carry ≲`n·ε`
/// (≈1e-13) relative error at MDB slice lengths; 1e-9 is a >1000× safety
/// factor, and also covers the rounding of the window sum the residual
/// exit is compared against (`DESIGN.md` §10).
const BLOCK_SLACK_REL: f64 = 1e-9;

/// Offsets evaluated per pass of the bound cascade.
const LANES: usize = 8;

/// One value per offset of a batch.
type Lanes = [f64; LANES];

/// Tally of how [`BoundedAreaScan::best_below`] spent its offsets:
/// `scored` windows had samples touched (possibly abandoned mid-window by
/// the early exit), `pruned` windows were rejected by the O(1) bound alone,
/// and `blocks` is the sample work the scored ones cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Offsets whose window was actually scored against the input.
    pub scored: u64,
    /// Offsets rejected by the prefix-sum lower bound without touching
    /// samples.
    pub pruned: u64,
    /// [`AREA_BLOCK`]-sample blocks accumulated over the scored windows (a
    /// trailing partial block counts as one): how early the exits fire.
    pub blocks: u64,
}

impl ScanCounters {
    /// Total offsets considered, scored and pruned alike.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.scored + self.pruned
    }
}

/// Pairwise lane reduction shared by the partial and final sums, so the
/// early-exit check sees exactly the value the full sum would return.
#[inline(always)]
fn reduce(lanes: &[f64; 8]) -> f64 {
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
}

/// Eight-lane area between curves: `Σ |x_i − y_i|` with the subtraction in
/// `f64`, over the samples the two slices share (the first
/// `min(x.len(), y.len())`).
///
/// Splitting the accumulation across independent lanes breaks the serial
/// dependency chain so the loop pipelines (and auto-vectorizes); the lanes
/// are reduced pairwise at the end.
///
/// # Example
///
/// ```
/// let a = [1.0f32, 5.0, -2.0];
/// let b = [2.0f32, 3.0, -2.0];
/// assert_eq!(emap_dsp::area::abs_diff_sum(&a, &b), 3.0);
/// ```
#[must_use]
pub fn abs_diff_sum(x: &[f32], y: &[f32]) -> f64 {
    let n = x.len().min(y.len());
    bounded_abs_diff_sum(&x[..n], &y[..n], f64::INFINITY)
        .expect("an infinite cutoff never exits early")
}

/// [`abs_diff_sum`] of two slices of equal length with a block-level early
/// exit: returns `None` as soon as a partial sum *strictly* exceeds
/// `cutoff`, which proves the full sum would too (the terms are
/// non-negative, so the running total is monotone under IEEE-754
/// addition), and likewise when the full sum itself does.
///
/// When it completes, the result is bit-identical to [`abs_diff_sum`] —
/// both run the same lane pattern and the same pairwise reduction — so
/// threading a current-best cutoff through a scan cannot change which
/// offset wins, only how fast losers are abandoned.
fn bounded_abs_diff_sum(x: &[f32], y: &[f32], cutoff: f64) -> Option<f64> {
    debug_assert_eq!(x.len(), y.len(), "equal lengths");
    sum_with_exit(x, y, cutoff, |_| 0.0, &mut 0, accumulate)
}

/// The one window sum: after block `k` it exits when the partial sum plus
/// `residual(k + 1)` — a lower bound on what samples `32(k+1)..` still add
/// — strictly exceeds `cutoff`. `blocks` counts the blocks accumulated, and
/// `accumulate` is [`accumulate`] compiled for the caller's instruction set.
#[inline(always)]
fn sum_with_exit(
    x: &[f32],
    y: &[f32],
    cutoff: f64,
    residual: impl Fn(usize) -> f64,
    blocks: &mut u64,
    accumulate: impl Fn(&mut [f64; 8], &[f32], &[f32]),
) -> Option<f64> {
    let mut lanes = [0.0f64; 8];
    let xb = x.chunks_exact(AREA_BLOCK);
    let yb = y.chunks_exact(AREA_BLOCK);
    let (xr, yr) = (xb.remainder(), yb.remainder());
    for (k, (xs, ys)) in xb.zip(yb).enumerate() {
        accumulate(&mut lanes, xs, ys);
        *blocks += 1;
        if reduce(&lanes) + residual(k + 1) > cutoff {
            return None;
        }
    }
    if !xr.is_empty() && !yr.is_empty() {
        accumulate(&mut lanes, xr, yr);
        *blocks += 1;
    }
    // A trailing partial block has no boundary of its own: hold the total
    // to the cutoff too, or a window could complete above it.
    let total = reduce(&lanes);
    if total > cutoff {
        return None;
    }
    Some(total)
}

/// Adds `|x_i − y_i|` to lane `i mod 8`. Out of line on purpose: inlined
/// beside [`reduce`], the vectorizer packs the lanes to suit the reduction
/// tree and then gathers the samples one at a time; on its own this loop
/// compiles to contiguous loads.
#[inline(never)]
fn accumulate(lanes: &mut [f64; 8], x: &[f32], y: &[f32]) {
    accumulate_body(lanes, x, y);
}

/// [`accumulate`] for AVX2 CPUs, just as far out of line.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn accumulate_avx2(lanes: &mut [f64; 8], x: &[f32], y: &[f32]) {
    accumulate_body(lanes, x, y);
}

/// The one source of both [`accumulate`] clones.
#[inline(always)]
fn accumulate_body(lanes: &mut [f64; 8], x: &[f32], y: &[f32]) {
    let xc = x.chunks_exact(8);
    let yc = y.chunks_exact(8);
    let (xt, yt) = (xc.remainder(), yc.remainder());
    for (cx, cy) in xc.zip(yc) {
        for i in 0..8 {
            lanes[i] += (f64::from(cx[i]) - f64::from(cy[i])).abs();
        }
    }
    for (i, (&a, &b)) in xt.iter().zip(yt).enumerate() {
        lanes[i] += (f64::from(a) - f64::from(b)).abs();
    }
}

/// The run of a host's prefix tables a scan reads, as the bound reads it:
/// the prefixes at `first..`, then [`LANES`] copies of the last so a masked
/// tail batch reads in bounds, and the scales their rounding is certified
/// against. Each scan replays them from the host's checkpoints into its
/// thread's one copy, kept across scans: a thread allocates only when a
/// scan reads more prefixes than any before it.
#[derive(Debug, Default)]
struct Prefixes {
    /// The host index of `sums[0]` and `energies[0]`.
    first: usize,
    sums: Vec<f64>,
    energies: Vec<f64>,
    /// [`HostStats::sum_scale`].
    sum_scale: f64,
    /// The host's total energy.
    energy_scale: f64,
}

thread_local! {
    static PREFIXES: RefCell<Prefixes> = RefCell::default();
}

impl Prefixes {
    /// `read` of this thread's tables, filled with the prefixes of `host`
    /// at `indices`.
    fn with<R>(
        stats: &HostStats,
        host: &[f32],
        indices: Range<usize>,
        read: impl FnOnce(&Prefixes) -> R,
    ) -> R {
        PREFIXES.with_borrow_mut(|prefixes| {
            prefixes.fill(stats, host, indices);
            read(prefixes)
        })
    }

    /// Replays the prefixes of `host` at `indices`, a non-empty run, from
    /// `stats`' checkpoints, and pads them.
    fn fill(&mut self, stats: &HostStats, host: &[f32], indices: Range<usize>) {
        self.first = indices.start;
        stats.replay_prefixes(host, indices, &mut self.sums, &mut self.energies);
        let padded = self.sums.len() + LANES;
        self.sums.resize(padded, self.sums[padded - LANES - 1]);
        self.energies
            .resize(padded, self.energies[padded - LANES - 1]);
        (self.sum_scale, self.energy_scale) = (stats.sum_scale(), stats.energy_scale());
    }
}

/// Raises each lane of `bound` to `leg` where that is larger.
#[inline(always)]
fn raise(bound: &mut Lanes, leg: &Lanes) {
    for l in 0..LANES {
        bound[l] = bound[l].max(leg[l]);
    }
}

/// `span[at..at + 8]`, one entry per lane.
#[inline(always)]
fn load(span: &[f64], at: usize) -> Lanes {
    span[at..at + LANES].try_into().expect("a LANES-long slice")
}

/// The bound-pruned argmin scan for the area metric: holds the input window
/// and its precomputed sums, and finds the offset of a host slice with the
/// minimal area between curves while rejecting hopeless offsets in O(1)
/// via [`HostStats`] prefix sums.
///
/// # Example
///
/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct BoundedAreaScan {
    query: Vec<f32>,
    /// `Σx` over the input window, hoisted out of the per-offset bound.
    qsum: f64,
    /// `‖x‖₂` over the input window, for the energy leg of the bound.
    qnorm: f64,
    /// Per-block `Σx` at [`AREA_SUM_BLOCK_COARSE`] granularity (the last
    /// block may be partial), hoisted out of the coarse blockwise leg.
    qblocks_coarse: Vec<f64>,
    /// Per-block `Σx` at [`AREA_SUM_BLOCK_FINE`] granularity.
    qblocks_fine: Vec<f64>,
    /// Largest `|prefix sum|` of the query — its half of the rounding scale
    /// the blockwise legs certify against.
    qsum_scale: f64,
}

/// Per-block sums of `input` at granularity `block` (trailing partial block
/// included).
fn block_sums(input: &[f32], block: usize) -> Vec<f64> {
    input
        .chunks(block)
        .map(|c| c.iter().map(|&x| f64::from(x)).sum())
        .collect()
}

impl BoundedAreaScan {
    /// Stores the input window and precomputes its sum, L2 norm, and
    /// per-block sums for the blockwise bound legs.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptySignal`] if `input` is empty.
    pub fn new(input: &[f32]) -> Result<Self, DspError> {
        if input.is_empty() {
            return Err(DspError::EmptySignal);
        }
        let qsum = input.iter().map(|&x| f64::from(x)).sum();
        let qenergy: f64 = input.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        let mut qsum_scale = 0.0f64;
        let mut acc = 0.0f64;
        for &x in input {
            acc += f64::from(x);
            qsum_scale = qsum_scale.max(acc.abs());
        }
        Ok(BoundedAreaScan {
            query: input.to_vec(),
            qsum,
            qnorm: qenergy.sqrt(),
            qblocks_coarse: block_sums(input, AREA_SUM_BLOCK_COARSE),
            qblocks_fine: block_sums(input, AREA_SUM_BLOCK_FINE),
            qsum_scale,
        })
    }

    /// Length of the input window in samples.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.query.len()
    }

    /// The precomputed `Σx` over the input window.
    #[must_use]
    pub fn query_sum(&self) -> f64 {
        self.qsum
    }

    /// The lower bound on the area at `offset`: the largest of the sum leg
    /// `|Σx − Σy[offset..offset+w]|`, the energy leg
    /// `|‖x‖₂ − ‖y[offset..offset+w]‖₂|`, and the two blockwise sum legs
    /// `Σ_j |Σ_block x − Σ_block y|` at [`AREA_SUM_BLOCK_COARSE`] and
    /// [`AREA_SUM_BLOCK_FINE`] granularity — a one-lane view of the batch
    /// the scan evaluates.
    ///
    /// Every leg is *certified*: prefix-difference window sums and energies
    /// carry cancellation error, so each is padded by a slack covering the
    /// worst-case rounding of the prefix tables before it contributes. The
    /// returned value therefore never exceeds the true area, in floating
    /// point and not just on paper.
    ///
    /// Each call replays the prefixes the window reads from `stats`'
    /// checkpoints into this thread's scan buffers, so `host` must be the
    /// signal `stats` describes; nothing is added to `stats`.
    ///
    /// # Panics
    ///
    /// Panics if `host.len() != stats.len()` or the window does not fit in
    /// the host.
    #[must_use]
    pub fn lower_bound(&self, host: &[f32], stats: &HostStats, offset: usize) -> f64 {
        let rows = &mut self.residual_rows();
        let indices = offset..offset + self.query.len() + 1;
        Prefixes::with(stats, host, indices, |prefixes| {
            self.bound_batch(prefixes, offset, 1, f64::INFINITY, rows)[0]
        })
    }

    /// The residual bounds of the early exit at `offset`: entry `k` is the
    /// fine blockwise leg over samples `32k..` of the window only, a
    /// certified lower bound on the area they contribute (0 for none).
    ///
    /// # Panics
    ///
    /// As [`BoundedAreaScan::lower_bound`].
    #[must_use]
    pub fn residual_bounds(&self, host: &[f32], stats: &HostStats, offset: usize) -> Vec<f64> {
        let mut rows = self.residual_rows();
        let indices = offset..offset + self.query.len() + 1;
        Prefixes::with(stats, host, indices, |prefixes| {
            self.bound_batch(prefixes, offset, 1, f64::INFINITY, &mut rows)
        });
        rows.iter().map(|row| row[0]).collect()
    }

    /// Scratch for one scan: a residual row per [`AREA_BLOCK`] boundary of
    /// the window, the end included (that row stays 0).
    fn residual_rows(&self) -> Vec<Lanes> {
        vec![[0.0; LANES]; self.query.len() / AREA_BLOCK + 1]
    }

    /// The four legs for the `valid` offsets `beta0..`, one per lane, read
    /// from the host's `prefixes`, cheapest first: each lane of the result
    /// is the largest leg evaluated for that offset. The cascade stops once
    /// every valid lane strictly exceeds `cutoff`; if it runs to the end,
    /// every lane holds its full [`BoundedAreaScan::lower_bound`] and
    /// `residual[k]` the fine leg's suffix sum from sample `32k` on. Lanes
    /// past `valid` hold garbage.
    #[inline(always)]
    fn bound_batch(
        &self,
        prefixes: &Prefixes,
        beta0: usize,
        valid: usize,
        cutoff: f64,
        residual: &mut [Lanes],
    ) -> Lanes {
        let w = self.query.len();
        let at = beta0 - prefixes.first;
        assert!(
            at + valid + w + LANES <= prefixes.sums.len(),
            "window past the filled prefixes"
        );
        let all_exceed = |bound: &Lanes| bound[..valid].iter().all(|&b| b > cutoff);
        let sums = &prefixes.sums[at..at + w + LANES];

        // The sum leg is the blockwise leg with the window as its one block.
        let slack = (prefixes.sum_scale + self.qsum_scale) * BLOCK_SLACK_REL + 1e-12;
        let whole = (w, std::slice::from_ref(&self.qsum));
        let mut bound = self.block_leg(sums, slack, whole, |_, _| {});
        if all_exceed(&bound) {
            return bound;
        }

        // Worst-case prefix rounding is ~len·ε relative to the *total*
        // energy (cancellation can make it large relative to one window's);
        // 1e-9 of the total is a >1000× safety factor at MDB slice lengths.
        let energy_slack = prefixes.energy_scale * 1e-9 + 1e-12;
        let hi = load(&prefixes.energies, at + w);
        let lo = load(&prefixes.energies, at);
        let gap: Lanes = std::array::from_fn(|l| {
            let ew = hi[l] - lo[l];
            let below = self.qnorm - (ew + energy_slack).max(0.0).sqrt();
            let above = (ew - energy_slack).max(0.0).sqrt() - self.qnorm;
            below.max(above)
        });
        raise(&mut bound, &gap);
        if all_exceed(&bound) {
            return bound;
        }

        let coarse = (AREA_SUM_BLOCK_COARSE, &self.qblocks_coarse[..]);
        raise(&mut bound, &self.block_leg(sums, slack, coarse, |_, _| {}));
        if all_exceed(&bound) {
            return bound;
        }

        let fine = (AREA_SUM_BLOCK_FINE, &self.qblocks_fine[..]);
        let keep_residual = |start: usize, suffix: &Lanes| {
            if start.is_multiple_of(AREA_BLOCK) {
                residual[start / AREA_BLOCK] = *suffix;
            }
        };
        raise(
            &mut bound,
            &self.block_leg(sums, slack, fine, keep_residual),
        );
        bound
    }

    /// One blockwise sum leg for eight offsets:
    /// `Σ_j max(0, |Σ_block x − Σ_block y| − slack)` over the blocks
    /// `(block length, their Σ_block x)` of the batch's span of prefix
    /// `sums`, last block first, reporting the running suffix sum to
    /// `suffix(block start, sum)` after each. Each term is an admissible
    /// lower bound on that block's `Σ |d_i|` by the triangle inequality,
    /// and the slack absorbs the rounding of both prefix-difference sums,
    /// so no suffix sum exceeds the true area of the samples it covers.
    #[inline(always)]
    fn block_leg(
        &self,
        sums: &[f64],
        slack: f64,
        (block, qblocks): (usize, &[f64]),
        mut suffix: impl FnMut(usize, &Lanes),
    ) -> Lanes {
        let mut acc = [0.0; LANES];
        let mut hi = load(sums, self.query.len());
        for (j, &qb) in qblocks.iter().enumerate().rev() {
            let lo = load(sums, j * block);
            for l in 0..LANES {
                acc[l] += ((qb - (hi[l] - lo[l])).abs() - slack).max(0.0);
            }
            hi = lo;
            suffix(j * block, &acc);
        }
        acc
    }

    /// Minimum area between curves over offsets `lo..=hi` of `host`, with
    /// the argmin — the first strict minimum of [`abs_diff_sum`] in offset
    /// order — found while skipping offsets whose lower bound already
    /// exceeds the cutoff and abandoning windows that provably end above
    /// it. The cutoff is `min(threshold, best so far)`: callers that will
    /// *discard* any result above `threshold` (the tracker's δ_A retention
    /// rule) let the scan abandon hopeless hosts against `threshold`
    /// instead of against the running best, which on a host with no
    /// acceptable window means every offset exits within a block or two;
    /// `f64::INFINITY` asks for the plain argmin.
    ///
    /// The contract is exact where it matters: if the true minimum over
    /// `lo..=hi` is `≤ threshold`, the returned `(β, area)` is bitwise the
    /// full scan's. Every reject is strict: an offset is pruned only when
    /// `bound > cutoff` (an admissible bound, so its true area cannot win
    /// and cannot tie-break an earlier equal offset), a window is abandoned
    /// only when its monotone partial sum plus an admissible bound on the
    /// rest exceeds the cutoff, the cutoff never drops below the final
    /// best, and offsets are scored in order, so ties keep the earliest
    /// `β`. If the true minimum exceeds `threshold`, no offset can complete
    /// its sum under the cutoff, and the scan returns `(lo, f64::INFINITY)`
    /// — a certificate of rejection, not an estimate of the minimum. An
    /// empty range (`lo > hi` after clamping `hi` to the last fitting
    /// offset) returns the same.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `stats` was built for a host
    /// of a different length, or [`DspError::WindowOutOfBounds`] if the
    /// window does not fit in `host` at all.
    #[allow(unsafe_code)]
    pub fn best_below(
        &self,
        host: &[f32],
        stats: &HostStats,
        lo: usize,
        hi: usize,
        threshold: f64,
        counters: &mut ScanCounters,
    ) -> Result<(usize, f64), DspError> {
        let w = self.query.len();
        if stats.len() != host.len() {
            return Err(DspError::LengthMismatch {
                left: stats.len(),
                right: host.len(),
            });
        }
        if w > host.len() {
            return Err(DspError::WindowOutOfBounds {
                offset: lo,
                window: w,
                len: host.len(),
            });
        }
        let hi = hi.min(host.len() - w);
        if lo > hi {
            return Ok((lo, f64::INFINITY));
        }
        // The fill runs here, outside the AVX2 body, which gets the filled
        // tables and keeps the code generation it has without them.
        Prefixes::with(stats, host, lo..hi + w + 1, |prefixes| {
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: `scan_avx2` enables AVX2 and nothing else, and
                // `is_x86_feature_detected!("avx2")` has just seen this CPU run it.
                return Ok(unsafe { self.scan_avx2(host, prefixes, lo, hi, threshold, counters) });
            }
            Ok(self.scan(host, prefixes, lo, hi, threshold, counters, accumulate))
        })
    }

    /// [`BoundedAreaScan::scan`] with the whole bound cascade compiled for
    /// AVX2. The source and the order of every operation are the portable
    /// scan's, and no `fma` is enabled, so every bit is the same too.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn scan_avx2(
        &self,
        host: &[f32],
        prefixes: &Prefixes,
        lo: usize,
        hi: usize,
        threshold: f64,
        counters: &mut ScanCounters,
    ) -> (usize, f64) {
        let accumulate = |lanes: &mut [f64; 8], x: &[f32], y: &[f32]| accumulate_avx2(lanes, x, y);
        self.scan(host, prefixes, lo, hi, threshold, counters, accumulate)
    }

    /// The scan of [`BoundedAreaScan::best_below`] over a validated range,
    /// `hi` already clamped, with `prefixes` filled for `host`: one body,
    /// inlined into each instruction set's entry point with the
    /// [`accumulate`] clone built for it.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn scan(
        &self,
        host: &[f32],
        prefixes: &Prefixes,
        lo: usize,
        hi: usize,
        threshold: f64,
        counters: &mut ScanCounters,
        accumulate: impl Fn(&mut [f64; 8], &[f32], &[f32]) + Copy,
    ) -> (usize, f64) {
        let w = self.query.len();
        let mut best = (lo, f64::INFINITY);
        let mut residual = self.residual_rows();
        for beta0 in (lo..=hi).step_by(LANES) {
            let valid = LANES.min(hi - beta0 + 1);
            // The batch is bounded against the cutoff as it stands now. A
            // best found inside it only lowers the cutoff, so a stale one
            // keeps lanes it could have dropped, never the reverse; each
            // survivor then meets the live cutoff, lane by lane.
            let frozen = threshold.min(best.1);
            let bound = self.bound_batch(prefixes, beta0, valid, frozen, &mut residual);
            for (l, beta) in (beta0..beta0 + valid).enumerate() {
                let cutoff = threshold.min(best.1);
                if bound[l] > cutoff {
                    counters.pruned += 1;
                    continue;
                }
                counters.scored += 1;
                let window = &host[beta..beta + w];
                let rest = |k: usize| residual[k][l];
                let blocks = &mut counters.blocks;
                let area = sum_with_exit(&self.query, window, cutoff, rest, blocks, accumulate);
                if let Some(area) = area {
                    if area < best.1 {
                        best = (beta, area);
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn wave(n: usize, freq: f32, amp: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * freq).sin() * amp).collect()
    }

    /// Integer-valued samples: every sum below is exact in f64, so the
    /// bound relation and tie behavior hold exactly, not just within ULPs.
    fn int_wave(n: usize, step: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * step % 17) as f32) - 8.0).collect()
    }

    /// Slices of unequal length are summed over every sample they share,
    /// whichever of the two has a remainder past the last 8- or 32-sample
    /// chunk.
    #[test]
    fn abs_diff_sum_reads_every_shared_sample() {
        assert_eq!(abs_diff_sum(&[1.0; 40], &[0.0; 64]), 40.0);
        assert_eq!(abs_diff_sum(&[0.0; 64], &[1.0; 40]), 40.0);
        for (m, n) in [
            (0usize, 5usize),
            (3, 8),
            (9, 16),
            (33, 64),
            (100, 256),
            (255, 256),
        ] {
            let x = wave(m, 0.31, 2.0);
            let y = wave(n, 0.17, 1.5);
            let shared = abs_diff_sum(&x, &y[..m]);
            assert_eq!(
                abs_diff_sum(&x, &y).to_bits(),
                shared.to_bits(),
                "{m} vs {n}"
            );
            assert_eq!(
                abs_diff_sum(&y, &x).to_bits(),
                shared.to_bits(),
                "{n} vs {m}"
            );
        }
    }

    /// The cutoff only ever ends a sum early: where it completes, its bits
    /// are the full sum's; where it exits, the full sum is over the cutoff.
    #[test]
    fn bounded_sum_is_exact_or_truly_over() {
        let mut rng = SeededRng::seed_from_u64(0x0b0d_5e70);
        for _ in 0..200 {
            let n = 1 + rng.index(300);
            let x: Vec<f32> = (0..n).map(|_| rng.range_f64(-8.0..8.0) as f32).collect();
            let y: Vec<f32> = x.iter().rev().copied().collect();
            let full = abs_diff_sum(&x, &y);
            let cutoff = full * rng.range_f64(0.0..2.0);
            match bounded_abs_diff_sum(&x, &y, cutoff) {
                Some(sum) => assert_eq!(sum.to_bits(), full.to_bits()),
                None => assert!(full > cutoff, "cut off below cutoff: {full} <= {cutoff}"),
            }
        }
    }

    #[test]
    fn bounded_sum_is_bit_identical_when_it_completes() {
        for n in [1usize, 9, 32, 100, 256] {
            let a = wave(n, 0.23, 3.0);
            let b = wave(n, 0.41, 2.0);
            let full = abs_diff_sum(&a, &b);
            assert_eq!(bounded_abs_diff_sum(&a, &b, full), Some(full), "n = {n}");
            assert_eq!(
                bounded_abs_diff_sum(&a, &b, f64::INFINITY),
                Some(full),
                "n = {n}"
            );
        }
    }

    #[test]
    fn bounded_sum_exits_early_only_on_strict_violation() {
        let x = [0.0f32; 64];
        let y = [1.0f32; 64];
        // Total is 64; a cutoff at the first block's partial (32) must not
        // abort that block (strict >), one just below must.
        assert_eq!(bounded_abs_diff_sum(&x, &y, 64.0), Some(64.0));
        assert_eq!(bounded_abs_diff_sum(&x, &y, 32.0), None);
        assert_eq!(bounded_abs_diff_sum(&x, &y, 31.5), None);
    }

    #[test]
    fn lower_bound_is_admissible_on_exact_sums() {
        let host = int_wave(500, 3);
        let input = int_wave(64, 5);
        let scan = BoundedAreaScan::new(&input).unwrap();
        let stats = HostStats::new(&host);
        for beta in 0..=host.len() - input.len() {
            let bound = scan.lower_bound(&host, &stats, beta);
            let area = abs_diff_sum(&input, &host[beta..beta + input.len()]);
            assert!(bound <= area, "β = {beta}: bound {bound} > area {area}");
        }
    }

    /// The plain argmin: `best_below` with no threshold.
    fn best(
        scan: &BoundedAreaScan,
        host: &[f32],
        lo: usize,
        hi: usize,
        counters: &mut ScanCounters,
    ) -> Result<(usize, f64), DspError> {
        scan.best_below(host, &HostStats::new(host), lo, hi, f64::INFINITY, counters)
    }

    #[test]
    fn the_exact_match_is_found_and_the_rest_pruned() {
        let host = wave(1000, 0.29, 10.0);
        let input = host[600..856].to_vec(); // a perfect match at β = 600 only
        let scan = BoundedAreaScan::new(&input).unwrap();
        let mut counters = ScanCounters::default();
        assert_eq!(
            best(&scan, &host, 0, 744, &mut counters).unwrap(),
            (600, 0.0)
        );
        assert!(counters.pruned > 0, "{counters:?}");
        assert_eq!(counters.total(), 745);
    }

    #[test]
    fn ties_keep_the_earliest_offset() {
        // A periodic integer host: the input window recurs exactly, so the
        // minimum area (0) is tied at several offsets.
        let host = int_wave(500, 1);
        let input = host[17 + 2 * 17..17 + 2 * 17 + 34].to_vec(); // period 17
        let scan = BoundedAreaScan::new(&input).unwrap();
        let mut counters = ScanCounters::default();
        let last = host.len() - input.len();
        let fast = best(&scan, &host, 0, last, &mut counters).unwrap();
        assert_eq!(fast, (0, 0.0), "earliest of the tied zero-area offsets");
    }

    #[test]
    fn empty_range_returns_lo_and_infinity() {
        let host = wave(300, 0.3, 1.0);
        let input = wave(256, 0.3, 1.0);
        let scan = BoundedAreaScan::new(&input).unwrap();
        let mut counters = ScanCounters::default();
        // lo beyond the last fitting offset (44) → empty scan.
        let out = best(&scan, &host, 100, 200, &mut counters).unwrap();
        assert_eq!(out, (100, f64::INFINITY));
        assert_eq!(counters, ScanCounters::default());
    }

    #[test]
    fn errors_are_reported() {
        let input = wave(64, 0.2, 1.0);
        let host = wave(32, 0.2, 1.0);
        assert!(matches!(
            BoundedAreaScan::new(&[]),
            Err(DspError::EmptySignal)
        ));
        let scan = BoundedAreaScan::new(&input).unwrap();
        let mut counters = ScanCounters::default();
        assert!(matches!(
            best(&scan, &host, 0, 10, &mut counters),
            Err(DspError::WindowOutOfBounds { .. })
        ));
        let stats = HostStats::new(&input);
        assert!(matches!(
            scan.best_below(&host, &stats, 0, 10, f64::INFINITY, &mut counters),
            Err(DspError::LengthMismatch { .. })
        ));
    }

    /// Zero-mean oscillatory content like the bandpassed EEG the tracker
    /// actually scans: whole-window sums cancel, block sums must not.
    fn bandpassed_like(n: usize, phase: f32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let t = i as f32;
                (t * 0.45 + phase).sin() * 30.0 + (t * 0.83 + phase * 2.0).sin() * 12.0
            })
            .collect()
    }

    #[test]
    fn block_legs_stay_admissible_on_zero_mean_content() {
        let host = bandpassed_like(1000, 0.0);
        let stats = HostStats::new(&host);
        for phase in [0.3f32, 1.1, 2.9] {
            let input = bandpassed_like(256, phase);
            let scan = BoundedAreaScan::new(&input).unwrap();
            for beta in 0..=host.len() - input.len() {
                let bound = scan.lower_bound(&host, &stats, beta);
                let area = abs_diff_sum(&input, &host[beta..beta + input.len()]);
                assert!(
                    bound <= area,
                    "phase {phase}, β = {beta}: bound {bound} > area {area}"
                );
            }
        }
    }

    #[test]
    fn block_legs_are_admissible_with_partial_trailing_blocks() {
        // Window lengths that are not multiples of either block size.
        let host = bandpassed_like(700, 0.7);
        let stats = HostStats::new(&host);
        for w in [5usize, 9, 63, 65, 100, 250] {
            let input = bandpassed_like(w, 1.9);
            let scan = BoundedAreaScan::new(&input).unwrap();
            for beta in (0..=host.len() - w).step_by(13) {
                let bound = scan.lower_bound(&host, &stats, beta);
                let area = abs_diff_sum(&input, &host[beta..beta + w]);
                assert!(bound <= area, "w = {w}, β = {beta}");
            }
        }
    }

    #[test]
    fn bound_fires_on_zero_mean_content_under_retention_threshold() {
        // Regression for the dormant δ_A bound: before the blockwise legs,
        // `kernel_windows_pruned` stayed at 0 on bandpassed corpora because
        // both the whole-window sum (≈0 − ≈0) and the energy gap (similar
        // RMS everywhere) sat far below the tracker's retention threshold.
        let host = bandpassed_like(1000, 0.0);
        let input = bandpassed_like(256, 2.2); // misaligned, same amplitude
        let scan = BoundedAreaScan::new(&input).unwrap();
        let stats = HostStats::new(&host);
        let mut counters = ScanCounters::default();
        // δ_A from EdgeConfig::default() — areas on this content sit in the
        // thousands, and the blockwise legs must now certify that.
        let (_, area) = scan
            .best_below(&host, &stats, 0, 744, 3800.0, &mut counters)
            .unwrap();
        assert!(
            counters.pruned > counters.scored,
            "blockwise legs should reject most offsets outright: {counters:?} (best {area})"
        );
        assert_eq!(counters.total(), 745);
    }

    /// A fill holds the replayed prefixes of its run, then [`LANES`]
    /// copies of the last, whatever longer run its buffers held before.
    #[test]
    fn a_fill_is_its_run_of_prefixes_then_the_padding() {
        let long = bandpassed_like(1000, 0.4);
        let host = bandpassed_like(600, 1.1);
        let stats = HostStats::new(&host);
        let (mut sums, mut energies) = (Vec::new(), Vec::new());
        stats.replay_prefixes(&host, 0..601, &mut sums, &mut energies);
        let mut prefixes = Prefixes::default();
        prefixes.fill(&HostStats::new(&long), &long, 0..1001);
        for indices in [0..601, 37..300, 256..257, 600..601] {
            prefixes.fill(&stats, &host, indices.clone());
            assert_eq!(prefixes.first, indices.start);
            assert_eq!(prefixes.sums.len(), indices.len() + LANES);
            assert_eq!(prefixes.energies.len(), indices.len() + LANES);
            let filled = prefixes.sums.iter().zip(&prefixes.energies);
            for (j, (sum, energy)) in filled.enumerate() {
                let i = (indices.start + j).min(indices.end - 1);
                assert_eq!(sum.to_bits(), sums[i].to_bits(), "{indices:?}, entry {j}");
                assert_eq!(
                    energy.to_bits(),
                    energies[i].to_bits(),
                    "{indices:?}, entry {j}"
                );
            }
            assert_eq!(prefixes.sum_scale, stats.sum_scale());
            assert_eq!(prefixes.energy_scale, stats.energy_scale());
        }
    }

    #[test]
    fn batch_lanes_match_the_one_lane_view_and_stop_only_when_all_exceed() {
        let host = bandpassed_like(800, 0.4);
        let stats = HostStats::new(&host);
        // 256 is the tracker's window; 100 leaves partial trailing blocks.
        for w in [256usize, 100] {
            let scan = BoundedAreaScan::new(&bandpassed_like(w, 1.3)).unwrap();
            let last = host.len() - w;
            let mut prefixes = Prefixes::default();
            prefixes.fill(&stats, &host, 0..host.len() + 1);
            let mut rows = scan.residual_rows();
            // The final batch is a masked tail whose dead lanes read the
            // padding past the host's last prefix.
            for beta0 in (0..=last).step_by(LANES) {
                let valid = LANES.min(last - beta0 + 1);
                let full = scan.bound_batch(&prefixes, beta0, valid, f64::INFINITY, &mut rows);
                for l in 0..valid {
                    let one = scan.lower_bound(&host, &stats, beta0 + l);
                    assert_eq!(full[l].to_bits(), one.to_bits(), "w {w}, β {}", beta0 + l);
                    let residuals = scan.residual_bounds(&host, &stats, beta0 + l);
                    assert_eq!(residuals.len(), rows.len());
                    for (k, row) in rows.iter().enumerate() {
                        assert_eq!(row[l].to_bits(), residuals[k].to_bits());
                    }
                    // Suffix sums of non-negative terms: non-increasing.
                    assert!(residuals.windows(2).all(|p| p[0] >= p[1]));
                }
                // A cascade cut short leaves every lane above the cutoff,
                // and no lane above its full bound.
                let least = full[..valid].iter().copied().fold(f64::INFINITY, f64::min);
                for cutoff in [least * 0.25, least * 0.99] {
                    let cut = scan.bound_batch(&prefixes, beta0, valid, cutoff, &mut rows);
                    for l in 0..valid {
                        assert!(cut[l] > cutoff && cut[l] <= full[l], "w {w}, β0 {beta0}");
                    }
                }
            }
        }
    }

    #[test]
    fn residual_exit_touches_fewer_blocks_and_keeps_the_argmin() {
        let host = bandpassed_like(1000, 0.0);
        let input = bandpassed_like(256, 2.2);
        let scan = BoundedAreaScan::new(&input).unwrap();
        let mut counters = ScanCounters::default();
        let (beta, area) = best(&scan, &host, 0, 744, &mut counters).unwrap();
        // The unpruned scan: the first strict minimum over every offset.
        let mut full = (0, f64::INFINITY);
        for b in 0..=744 {
            let a = abs_diff_sum(&input, &host[b..b + 256]);
            if a < full.1 {
                full = (b, a);
            }
        }
        assert_eq!((beta, area.to_bits()), (full.0, full.1.to_bits()));
        // Eight blocks per window without any exit at all.
        assert!(counters.blocks >= counters.scored);
        assert!(
            counters.blocks < counters.scored * 4,
            "the residual exit should end most windows early: {counters:?}"
        );
    }

    /// A seeded host (or query) of `n` samples, bandpassed-like noise with
    /// hostile values sprinkled in when `hostile` is set.
    fn random_signal(rng: &mut SeededRng, n: usize, hostile: bool) -> Vec<f32> {
        const HOSTILE: [f32; 8] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 8.0, // subnormal
            -f32::MIN_POSITIVE / 3.0,
            1e30,
            -1e30,
            0.0,
        ];
        let phase = rng.range_f64(0.0..6.0) as f32;
        let mut signal = bandpassed_like(n, phase);
        for x in &mut signal {
            *x += rng.range_f64(-5.0..5.0) as f32;
            if hostile && rng.bool(0.02) {
                *x = HOSTILE[rng.index(HOSTILE.len())];
            }
        }
        signal
    }

    #[test]
    fn avx2_clone_matches_the_portable_body_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            eprintln!("no AVX2 on this CPU: the clone side was skipped, not passed");
            return;
        }
        let mut rng = SeededRng::seed_from_u64(0x0a5a_2c10);
        let mut compared = 0;
        for case in 0..96 {
            let hostile = case % 3 == 0;
            let n = 300 + rng.index(700);
            let host = random_signal(&mut rng, n, hostile);
            // Windows off the 32-sample block and the 8-offset batch grid.
            let w = [256, 250, 100, 33, 5][case % 5];
            let query = if rng.bool(0.5) {
                let at = rng.index(n - w + 1);
                host[at..at + w].to_vec()
            } else {
                random_signal(&mut rng, w, hostile)
            };
            let scan = BoundedAreaScan::new(&query).unwrap();
            let stats = HostStats::new(&host);
            let last = n - w;
            let lo = rng.index(last / 2 + 1);
            // Most ranges end at (or are clamped to) the last offset, where
            // the final batch reads the padding past the last prefix.
            let hi = [last, last + 9, lo + rng.index(last - lo + 1)][case % 3];
            for threshold in [f64::INFINITY, 40.0 * w as f64, 0.0] {
                let mut clone = ScanCounters::default();
                let mut portable = ScanCounters::default();
                // `best_below` took the AVX2 entry point: AVX2 is detected.
                let fast = scan
                    .best_below(&host, &stats, lo, hi, threshold, &mut clone)
                    .unwrap();
                let mut prefixes = Prefixes::default();
                prefixes.fill(&stats, &host, 0..host.len() + 1);
                let body = scan.scan(
                    &host,
                    &prefixes,
                    lo,
                    hi.min(last),
                    threshold,
                    &mut portable,
                    accumulate,
                );
                assert_eq!(
                    (fast.0, fast.1.to_bits()),
                    (body.0, body.1.to_bits()),
                    "case {case}, w {w}, {lo}..={hi}, threshold {threshold}"
                );
                assert_eq!(clone, portable, "case {case}, threshold {threshold}");
                compared += 1;
            }
        }
        eprintln!("AVX2 clone matched the portable body on {compared} scans");
    }

    #[test]
    fn pruning_rejects_most_offsets_after_a_match() {
        let host = int_wave(1000, 7);
        let input = host[512..768].to_vec();
        let scan = BoundedAreaScan::new(&input).unwrap();
        let mut counters = ScanCounters::default();
        let (beta, area) = best(&scan, &host, 0, 744, &mut counters).unwrap();
        // Period 17: the match at 512 first recurs at 512 mod 17.
        assert_eq!((beta, area), (512 % 17, 0.0));
        // After the zero-area match every non-tied later offset is pruned
        // by the bound alone.
        assert!(
            counters.pruned as usize > (744 - beta) / 2,
            "β = {beta}, {counters:?}"
        );
    }
}
