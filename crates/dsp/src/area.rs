//! The bound-pruned area-between-curves kernel.
//!
//! The edge tracker re-scores every tracked slice against each one-second
//! input window (Algorithm 2), and under the area metric (Eq. 3) that means
//! evaluating `Σ |x_i − y_{β+i}|` at hundreds of offsets `β` per slice per
//! second. The naive scan touches every sample of every window. This module
//! rejects most windows without touching any sample at all, and abandons
//! the rest about twice as early as their partial sums alone would:
//!
//! - **An admissible lower bound, one leg.** Cut the window into blocks of
//!   [`AREA_SUM_BLOCK`] samples and apply the triangle inequality per
//!   block: `Σ |d_i| ≥ Σ_j |Σ_{i∈block j} d_i|` with `d = x − y[β..]`.
//!   Each block's `Σy` is two prefix sums of the host apart, replayed from
//!   the [`HostStats`] checkpoints. Bandpassed EEG is zero-mean, so it
//!   cancels over a whole window but not over 8 samples, and misaligned
//!   oscillatory content gets a bound on the scale of the area itself.
//!   The leg stands alone. A whole-window sum leg `|Σx − Σy|` and a
//!   64-sample blockwise leg cut the window into unions of its blocks, so
//!   by the triangle inequality neither exceeds it by more than its extra
//!   slack (at most 32 per-block slacks). An energy leg
//!   `|‖x‖₂ − ‖y[β..]‖₂|` is not dominated in theory, but over ~200 M
//!   lanes of the benchmark's `edge_only`, `fleet_remote` and
//!   `ingest_mixed` workloads the three of them stopped 0 batches before
//!   this leg ran and pruned 0 lanes it kept, so they are gone.
//! - **Eight offsets per pass (`lane = offset`).** The leg is evaluated
//!   for eight consecutive offsets at once, so every prefix read is one
//!   contiguous eight-entry load and the arithmetic auto-vectorizes.
//! - **A residual-bound early exit.** The leg's terms are kept as suffix
//!   sums per [`AREA_BLOCK`]: `residual_k` bounds from below the area
//!   still to come from sample `32k` on. A surviving window is summed 32
//!   samples at a time and abandoned at block `k` once `partial_k +
//!   residual_{k+1}` passes the threshold — not merely `partial_k` — so a
//!   scored window reads at most about two thirds of the blocks its
//!   partial sums alone would (the tests pin it by counts).
//! - **A first-fit scan.** [`BoundedAreaScan::first_within`] answers the
//!   one question Algorithm 2 asks of a slice — does some window's area
//!   lie within the threshold? — with the threshold as the cutoff of both
//!   mechanisms, and returns the first offset, in ascending order, whose
//!   [`abs_diff_sum`] is within it, with that sum bit for bit. Every reject
//!   is on a *strict* violation of an admissible bound, so `None` certifies
//!   that every area is above the threshold or NaN (the scalar scan it is
//!   pinned to lives in `crates/dsp/tests/oracle/area.rs`). It replays
//!   only the prefixes it reads: as far as the batch holding its first fit,
//!   all `n + 1` of them only when nothing fits.
//!
//! [`abs_diff_sum`] is the workspace's one Eq. 3 arithmetic
//! ([`crate::similarity::area_between_curves`] is it behind a length
//! check). It subtracts in `f64`, so each term is exact for same-scale
//! inputs — the bound and the sum then live on the same error scale and
//! the bound stays admissible in floating point, not just on paper. See
//! `DESIGN.md` §10.
//!
//! On an x86-64 CPU with AVX2, [`BoundedAreaScan::first_within`] runs the
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
//! // Threshold 0: only an exact match qualifies, and the scan stops there.
//! assert_eq!(scan.first_within(&host, &stats, 0.0, &mut counters)?, Some((300, 0.0)));
//! // On the way, the bound rejects offsets wholesale.
//! assert!(counters.pruned > 0);
//! assert_eq!(counters.scored + counters.pruned, 301);
//! # Ok(())
//! # }
//! ```

use std::cell::RefCell;

use crate::kernel::HostStats;
use crate::DspError;

/// Samples per early-exit block of the window sum: the running total is
/// compared against the cutoff only at block boundaries, keeping the check
/// cost negligible next to the accumulation itself.
pub const AREA_BLOCK: usize = 32;

/// Block length of the bound — 8 samples is a third of a cycle at the low
/// edge of the EMAP passband (11–40 Hz at 256 Hz) and about one at the high
/// edge, so most in-band content no longer cancels within a block and the
/// bound tracks the area closely on bandpassed EEG. It divides
/// [`AREA_BLOCK`], so the bound's terms regroup into the per-block
/// residuals of the early exit.
pub const AREA_SUM_BLOCK: usize = 8;

/// Relative slack, in units of the combined query/host sum scale, deducted
/// from every term of the bound so prefix-difference rounding can never
/// push a computed bound above the true area. Prefix sums carry ≲`n·ε`
/// (≈1e-13) relative error at MDB slice lengths; 1e-9 is a >1000× safety
/// factor, and also covers the rounding of the window sum the residual
/// exit is compared against (`DESIGN.md` §10).
const BLOCK_SLACK_REL: f64 = 1e-9;

/// Offsets evaluated per pass of the bound.
const LANES: usize = 8;

/// Prefixes a scan's buffer grows by past what its next batch reads: eight
/// batches' worth, so a scan replays its prefixes in a few runs and one
/// that stops in its first batches rarely replays more than it reads.
const FILL_STEP: usize = 8 * LANES;

/// One value per offset of a batch.
type Lanes = [f64; LANES];

/// Tally of how [`BoundedAreaScan::first_within`] spent its offsets:
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
/// threading a cutoff through a scan cannot change which offset qualifies,
/// only how fast the others are abandoned.
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

/// The run of a host's prefix sums a scan has read so far, from host index
/// `first` on: replayed from the host's checkpoints into its thread's one
/// buffer as the scan advances, and — once the host's last prefix is in —
/// followed by [`LANES`] copies of it, so a masked tail batch reads in
/// bounds. The buffer is kept across scans: a thread allocates only when a
/// scan reads more prefixes than any before it.
#[derive(Debug, Default)]
struct Prefixes {
    /// The host index of `sums[0]`.
    first: usize,
    sums: Vec<f64>,
    /// [`HostStats::sum_scale`], the scale the bound's rounding is
    /// certified against.
    sum_scale: f64,
}

thread_local! {
    static PREFIXES: RefCell<Prefixes> = RefCell::default();
}

impl Prefixes {
    /// `read` of this thread's buffer, emptied for a run of the prefixes
    /// of the host `stats` describes from index `first` on.
    fn with<R>(stats: &HostStats, first: usize, read: impl FnOnce(&mut Prefixes) -> R) -> R {
        PREFIXES.with_borrow_mut(|prefixes| {
            prefixes.first = first;
            prefixes.sums.clear();
            prefixes.sum_scale = stats.sum_scale();
            read(prefixes)
        })
    }

    /// Makes `sums` at least `len` entries long.
    #[inline(always)]
    fn reach(&mut self, stats: &HostStats, host: &[f32], len: usize) {
        if self.sums.len() < len {
            self.grow(stats, host, len);
        }
    }

    /// The one fill: replays on from the last entry held to [`FILL_STEP`]
    /// entries past `len`, or to the host's last prefix and the padding
    /// after it. Out of line, so the scan bodies keep the code generation
    /// they have without it.
    #[inline(never)]
    fn grow(&mut self, stats: &HostStats, host: &[f32], len: usize) {
        let end = (self.first + len + FILL_STEP).min(host.len() + 1);
        stats.replay_prefixes(host, self.first..end, &mut self.sums);
        if end == host.len() + 1 {
            let last = self.sums[self.sums.len() - 1];
            self.sums.resize(self.sums.len() + LANES, last);
        }
    }
}

/// `span[at..at + 8]`, one entry per lane.
#[inline(always)]
fn load(span: &[f64], at: usize) -> Lanes {
    span[at..at + LANES].try_into().expect("a LANES-long slice")
}

/// The bound-pruned first-fit scan for the area metric: holds the input
/// window and its precomputed block sums, and finds the first offset of a
/// host slice whose area between curves is within a threshold while
/// rejecting hopeless offsets in O(1) via [`HostStats`] prefix sums.
///
/// # Example
///
/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct BoundedAreaScan {
    query: Vec<f32>,
    /// Per-block `Σx` at [`AREA_SUM_BLOCK`] granularity (the last block may
    /// be partial), hoisted out of the bound.
    qblocks: Vec<f64>,
    /// Largest `|prefix sum|` of the query — its half of the rounding scale
    /// the bound certifies against.
    qsum_scale: f64,
}

impl BoundedAreaScan {
    /// Stores the input window and precomputes its per-block sums and sum
    /// scale for the bound.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptySignal`] if `input` is empty.
    pub fn new(input: &[f32]) -> Result<Self, DspError> {
        if input.is_empty() {
            return Err(DspError::EmptySignal);
        }
        let mut qsum_scale = 0.0f64;
        let mut acc = 0.0f64;
        for &x in input {
            acc += f64::from(x);
            qsum_scale = qsum_scale.max(acc.abs());
        }
        let qblocks = input
            .chunks(AREA_SUM_BLOCK)
            .map(|c| c.iter().map(|&x| f64::from(x)).sum())
            .collect();
        Ok(BoundedAreaScan {
            query: input.to_vec(),
            qblocks,
            qsum_scale,
        })
    }

    /// Length of the input window in samples.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.query.len()
    }

    /// The lower bound on the area at `offset`,
    /// `Σ_j |Σ_block x − Σ_block y|` over the [`AREA_SUM_BLOCK`]-sample
    /// blocks of the window — a one-lane view of the batch the scan
    /// evaluates.
    ///
    /// It is *certified*: prefix-difference block sums carry cancellation
    /// error, so each term is reduced by a slack covering the worst-case
    /// rounding of the prefixes before it contributes. The returned value
    /// therefore never exceeds the true area, in floating point and not
    /// just on paper.
    ///
    /// Each call replays the prefixes the window reads from `stats`'
    /// checkpoints into this thread's scan buffer, so `host` must be the
    /// signal `stats` describes; nothing is added to `stats`.
    ///
    /// # Panics
    ///
    /// Panics if `host.len() != stats.len()` or the window does not fit in
    /// the host.
    #[must_use]
    pub fn lower_bound(&self, host: &[f32], stats: &HostStats, offset: usize) -> f64 {
        self.residual_bounds(host, stats, offset)[0]
    }

    /// The residual bounds of the early exit at `offset`: entry `k` is the
    /// bound over samples `32k..` of the window only, a certified lower
    /// bound on the area they contribute (0 for none). Entry 0 is
    /// [`BoundedAreaScan::lower_bound`].
    ///
    /// # Panics
    ///
    /// As [`BoundedAreaScan::lower_bound`].
    #[must_use]
    pub fn residual_bounds(&self, host: &[f32], stats: &HostStats, offset: usize) -> Vec<f64> {
        assert!(
            offset + self.query.len() <= host.len(),
            "window past the host"
        );
        let mut rows = self.residual_rows();
        Prefixes::with(stats, offset, |prefixes| {
            self.bound_batch(prefixes, stats, host, offset, &mut rows)
        });
        rows.iter().map(|row| row[0]).collect()
    }

    /// Scratch for one scan: a residual row per [`AREA_BLOCK`] boundary of
    /// the window, the end included (that row stays 0).
    fn residual_rows(&self) -> Vec<Lanes> {
        vec![[0.0; LANES]; self.query.len() / AREA_BLOCK + 1]
    }

    /// The bound for the offsets `beta0..beta0 + 8`, one per lane, read from
    /// `prefixes` after growing them as far as the batch reads: each lane
    /// of the result is its offset's [`BoundedAreaScan::lower_bound`], and
    /// `residual[k]` the bound's suffix sum from sample `32k` on. Lanes
    /// past the host's last offset hold garbage.
    #[inline(always)]
    fn bound_batch(
        &self,
        prefixes: &mut Prefixes,
        stats: &HostStats,
        host: &[f32],
        beta0: usize,
        residual: &mut [Lanes],
    ) -> Lanes {
        let w = self.query.len();
        let at = beta0 - prefixes.first;
        prefixes.reach(stats, host, at + w + LANES);
        let sums = &prefixes.sums[at..at + w + LANES];
        let slack = (prefixes.sum_scale + self.qsum_scale) * BLOCK_SLACK_REL + 1e-12;
        self.block_leg(sums, slack, |start, suffix| {
            if start.is_multiple_of(AREA_BLOCK) {
                residual[start / AREA_BLOCK] = *suffix;
            }
        })
    }

    /// The bound for eight offsets:
    /// `Σ_j max(0, |Σ_block x − Σ_block y| − slack)` over the blocks of the
    /// batch's span of prefix `sums`, last block first, reporting the
    /// running suffix sum to `suffix(block start, sum)` after each. Each
    /// term is an admissible lower bound on that block's `Σ |d_i|` by the
    /// triangle inequality, and the slack absorbs the rounding of both
    /// prefix-difference sums, so no suffix sum exceeds the true area of
    /// the samples it covers.
    #[inline(always)]
    fn block_leg(&self, sums: &[f64], slack: f64, mut suffix: impl FnMut(usize, &Lanes)) -> Lanes {
        let mut acc = [0.0; LANES];
        let mut hi = load(sums, self.query.len());
        for (j, &qb) in self.qblocks.iter().enumerate().rev() {
            let lo = load(sums, j * AREA_SUM_BLOCK);
            for l in 0..LANES {
                acc[l] += ((qb - (hi[l] - lo[l])).abs() - slack).max(0.0);
            }
            hi = lo;
            suffix(j * AREA_SUM_BLOCK, &acc);
        }
        acc
    }

    /// The first offset of `host`, in ascending order, whose area between
    /// curves is within `threshold`, with that area — found while skipping
    /// offsets whose lower bound already exceeds the threshold and
    /// abandoning windows that provably end above it.
    ///
    /// The contract is exact: `Some((β, area))` is bitwise the first offset
    /// where [`abs_diff_sum`] is `≤ threshold`, and its sum. Every reject is
    /// strict: an offset is pruned only when `bound > threshold` (an
    /// admissible bound, so its true area is above the threshold too), a
    /// window is abandoned only when its monotone partial sum plus an
    /// admissible bound on the rest exceeds the threshold, and offsets are
    /// visited in order. `None` is a certificate, not an estimate: every
    /// area is above the threshold or NaN (a NaN area never qualifies).
    /// `f64::INFINITY` asks for the first offset with a non-NaN area.
    ///
    /// `counters` gains one offset per offset visited: through `β` on
    /// `Some`, every offset on `None`. The prefixes are replayed as the
    /// batches advance, so a scan reads no host sample past the batch
    /// holding `β` and a few batches' worth of prefixes.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `stats` was built for a host
    /// of a different length, or [`DspError::WindowOutOfBounds`] if the
    /// window does not fit in `host` at all.
    #[allow(unsafe_code)]
    pub fn first_within(
        &self,
        host: &[f32],
        stats: &HostStats,
        threshold: f64,
        counters: &mut ScanCounters,
    ) -> Result<Option<(usize, f64)>, DspError> {
        let w = self.query.len();
        if stats.len() != host.len() {
            return Err(DspError::LengthMismatch {
                left: stats.len(),
                right: host.len(),
            });
        }
        if w > host.len() {
            return Err(DspError::WindowOutOfBounds {
                offset: 0,
                window: w,
                len: host.len(),
            });
        }
        Prefixes::with(stats, 0, |prefixes| {
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: `scan_avx2` enables AVX2 and nothing else, and
                // `is_x86_feature_detected!("avx2")` has just seen this CPU run it.
                return Ok(unsafe { self.scan_avx2(host, stats, prefixes, threshold, counters) });
            }
            Ok(self.scan(host, stats, prefixes, threshold, counters, accumulate))
        })
    }

    /// [`BoundedAreaScan::scan`] with the whole bound compiled for AVX2.
    /// The source and the order of every operation are the portable scan's,
    /// and no `fma` is enabled, so every bit is the same too.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn scan_avx2(
        &self,
        host: &[f32],
        stats: &HostStats,
        prefixes: &mut Prefixes,
        threshold: f64,
        counters: &mut ScanCounters,
    ) -> Option<(usize, f64)> {
        let accumulate = |lanes: &mut [f64; 8], x: &[f32], y: &[f32]| accumulate_avx2(lanes, x, y);
        self.scan(host, stats, prefixes, threshold, counters, accumulate)
    }

    /// The scan of [`BoundedAreaScan::first_within`] over a validated host,
    /// with `prefixes` an empty run from index 0: one body, inlined into
    /// each instruction set's entry point with the [`accumulate`] clone
    /// built for it.
    #[inline(always)]
    fn scan(
        &self,
        host: &[f32],
        stats: &HostStats,
        prefixes: &mut Prefixes,
        threshold: f64,
        counters: &mut ScanCounters,
        accumulate: impl Fn(&mut [f64; 8], &[f32], &[f32]) + Copy,
    ) -> Option<(usize, f64)> {
        let w = self.query.len();
        let last = host.len() - w;
        let mut residual = self.residual_rows();
        for beta0 in (0..=last).step_by(LANES) {
            let valid = LANES.min(last - beta0 + 1);
            let bound = self.bound_batch(prefixes, stats, host, beta0, &mut residual);
            for (l, beta) in (beta0..beta0 + valid).enumerate() {
                if bound[l] > threshold {
                    counters.pruned += 1;
                    continue;
                }
                counters.scored += 1;
                let window = &host[beta..beta + w];
                let rest = |k: usize| residual[k][l];
                let blocks = &mut counters.blocks;
                let area = sum_with_exit(&self.query, window, threshold, rest, blocks, accumulate);
                // A completed sum is within the threshold or NaN.
                if let Some(area) = area.filter(|&area| area <= threshold) {
                    return Some((beta, area));
                }
            }
        }
        None
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

    /// `first_within` on a host whose statistics are built here.
    fn first(
        scan: &BoundedAreaScan,
        host: &[f32],
        threshold: f64,
        counters: &mut ScanCounters,
    ) -> Result<Option<(usize, f64)>, DspError> {
        scan.first_within(host, &HostStats::new(host), threshold, counters)
    }

    /// Every area of `input` along `host`, in offset order.
    fn areas(input: &[f32], host: &[f32]) -> Vec<f64> {
        let w = input.len();
        (0..=host.len() - w)
            .map(|beta| abs_diff_sum(input, &host[beta..beta + w]))
            .collect()
    }

    #[test]
    fn the_exact_match_is_found_and_the_rest_pruned() {
        let host = wave(1000, 0.29, 10.0);
        let input = host[600..856].to_vec(); // a perfect match at β = 600 only
        let scan = BoundedAreaScan::new(&input).unwrap();
        let mut counters = ScanCounters::default();
        // Threshold 0: only the exact match qualifies.
        assert_eq!(
            first(&scan, &host, 0.0, &mut counters).unwrap(),
            Some((600, 0.0))
        );
        assert!(counters.pruned > 0, "{counters:?}");
        assert_eq!(counters.total(), 601);
    }

    #[test]
    fn ties_keep_the_earliest_offset() {
        // A periodic integer host: the input window recurs exactly, so the
        // area 0 is tied at several offsets.
        let host = int_wave(500, 1);
        let input = host[17 + 2 * 17..17 + 2 * 17 + 34].to_vec(); // period 17
        let scan = BoundedAreaScan::new(&input).unwrap();
        let mut counters = ScanCounters::default();
        let fast = first(&scan, &host, 0.0, &mut counters).unwrap();
        assert_eq!(
            fast,
            Some((0, 0.0)),
            "earliest of the tied zero-area offsets"
        );
    }

    #[test]
    fn none_certifies_every_area_above_the_threshold() {
        let host = wave(1000, 0.3, 1.0);
        let input = wave(256, 0.71, 1.0);
        let scan = BoundedAreaScan::new(&input).unwrap();
        let least = areas(&input, &host)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let mut counters = ScanCounters::default();
        // Just under the least area: no offset qualifies, and every offset
        // is visited to say so.
        let below = least * (1.0 - 1e-12);
        assert_eq!(first(&scan, &host, below, &mut counters).unwrap(), None);
        assert_eq!(counters.total(), 745);
        // On it, the first offset that attains it.
        let on = first(&scan, &host, least, &mut ScanCounters::default()).unwrap();
        assert_eq!(on.map(|(_, area)| area.to_bits()), Some(least.to_bits()));
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
            first(&scan, &host, f64::INFINITY, &mut counters),
            Err(DspError::WindowOutOfBounds { .. })
        ));
        let stats = HostStats::new(&input);
        assert!(matches!(
            scan.first_within(&host, &stats, f64::INFINITY, &mut counters),
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
        // Regression for the dormant δ_A bound: before the blockwise leg,
        // `kernel_windows_pruned` stayed at 0 on bandpassed corpora because
        // both the whole-window sum (≈0 − ≈0) and the energy gap (similar
        // RMS everywhere) sat far below the tracker's retention threshold.
        let host = bandpassed_like(1000, 0.0);
        let input = bandpassed_like(256, 2.2); // misaligned, same amplitude
        let scan = BoundedAreaScan::new(&input).unwrap();
        let stats = HostStats::new(&host);
        // Misaligned windows of this content have areas in the thousands,
        // the scale of EdgeConfig::default()'s δ_A = 3 800, and the
        // blockwise leg must certify that. Just under the least area no
        // window qualifies, so every offset is visited.
        let least = areas(&input, &host)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let mut counters = ScanCounters::default();
        let found = scan
            .first_within(&host, &stats, least * (1.0 - 1e-9), &mut counters)
            .unwrap();
        assert_eq!(found, None);
        assert!(
            counters.pruned > counters.scored,
            "the blockwise leg should reject most offsets outright: {counters:?}"
        );
        assert_eq!(counters.total(), 745);
    }

    /// An empty run of the prefixes of the host `stats` describes, from
    /// index `first` on, outside this thread's buffer.
    fn run(stats: &HostStats, first: usize) -> Prefixes {
        Prefixes {
            first,
            sums: Vec::new(),
            sum_scale: stats.sum_scale(),
        }
    }

    /// However a run is grown, it holds the replayed prefixes of the host
    /// from its first index on, [`FILL_STEP`] past each reach that grew it,
    /// and once the host's last prefix is in, [`LANES`] copies of it.
    #[test]
    fn a_run_grows_to_its_reach_then_pads_the_last_prefix() {
        let host = bandpassed_like(600, 1.1);
        let stats = HostStats::new(&host);
        let mut sums = Vec::new();
        stats.replay_prefixes(&host, 0..601, &mut sums);
        for first in [0, 37, 256, 600] {
            let mut prefixes = run(&stats, first);
            let mut len = 0;
            while first + prefixes.sums.len() < 601 + LANES {
                len = (len + 1 + (len * 7 + first) % 90).min(601 + LANES - first);
                let before = prefixes.sums.len();
                prefixes.reach(&stats, &host, len);
                let held = prefixes.sums.len();
                if before < len {
                    let end = (first + len + FILL_STEP).min(601);
                    let padding = if end == 601 { LANES } else { 0 };
                    assert_eq!(held, end - first + padding, "first {first}, reach {len}");
                } else {
                    assert_eq!(held, before, "first {first}, reach {len}");
                }
                for (j, sum) in prefixes.sums.iter().enumerate() {
                    let i = (first + j).min(600);
                    assert_eq!(sum.to_bits(), sums[i].to_bits(), "first {first}, entry {j}");
                }
            }
        }
    }

    /// What a scan leaves in its thread's buffer: the prefixes through the
    /// batch holding its first fit and at most one growth step past them,
    /// or, when nothing fits, all `n + 1` and the padding.
    #[test]
    fn a_scan_replays_only_the_prefixes_it_reads() {
        let mut rng = SeededRng::seed_from_u64(0x1a2f_0b11);
        let held = || PREFIXES.with_borrow(|prefixes| prefixes.sums.len());
        for (n, w) in [(1000usize, 256usize), (1000, 100), (600, 33), (300, 256)] {
            let host = random_signal(&mut rng, n, false);
            let stats = HostStats::new(&host);
            for beta in [0, 1, 7, 8, 24, 100, 300, 511, 744].map(|b: usize| b.min(n - w)) {
                let scan = BoundedAreaScan::new(&host[beta..beta + w]).unwrap();
                let mut counters = ScanCounters::default();
                let found = scan.first_within(&host, &stats, 0.0, &mut counters);
                assert_eq!(found.unwrap(), Some((beta, 0.0)), "n {n}, w {w}");
                assert!(held() > beta + w, "n {n}, w {w}, β {beta}: {}", held());
                assert!(
                    held() <= beta + w + 2 * LANES + FILL_STEP,
                    "n {n}, w {w}, β {beta}: {} prefixes held",
                    held()
                );
            }
            let scan = BoundedAreaScan::new(&random_signal(&mut rng, w, false)).unwrap();
            let mut counters = ScanCounters::default();
            let found = scan.first_within(&host, &stats, 0.0, &mut counters);
            assert_eq!(found.unwrap(), None);
            assert_eq!(held(), n + 1 + LANES, "n {n}, w {w}");
        }
    }

    /// Samples past the window of the first fit change nothing: NaN and
    /// `±∞` from `β + w` on leave the first fit at `β` (or an earlier
    /// offset, clean too) with the bits of the areas scored in full, and
    /// past the prefixes the scan reads — the batch holding `β` and one
    /// growth step — they are never replayed: every prefix it held then is
    /// finite.
    #[test]
    fn hostile_samples_past_the_first_fit_are_never_read() {
        const HOSTILE: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut rng = SeededRng::seed_from_u64(0x0f17_5a11);
        for case in 0..48 {
            let w = [256, 100, 33][case % 3];
            let mut host = random_signal(&mut rng, 1000, false);
            let beta = rng.index(1000 - w - 2 * LANES - FILL_STEP);
            let mut query = host[beta..beta + w].to_vec();
            for x in &mut query {
                *x += rng.range_f64(-0.5..0.5) as f32;
            }
            let from = beta + w + [0, 2 * LANES + FILL_STEP][case % 2];
            for x in &mut host[from..] {
                if rng.bool(0.3) {
                    *x = HOSTILE[rng.index(HOSTILE.len())];
                }
            }
            let threshold = abs_diff_sum(&query, &host[beta..beta + w]);
            let expected = (0..=beta)
                .map(|b| (b, abs_diff_sum(&query, &host[b..b + w])))
                .find(|&(_, area)| area <= threshold)
                .map(|(b, area)| (b, area.to_bits()));
            let scan = BoundedAreaScan::new(&query).unwrap();
            let mut counters = ScanCounters::default();
            let found = scan
                .first_within(&host, &HostStats::new(&host), threshold, &mut counters)
                .unwrap();
            let bits = found.map(|(b, area)| (b, area.to_bits()));
            assert_eq!(bits, expected, "case {case}");
            PREFIXES.with_borrow(|prefixes| {
                let held = prefixes.sums.len();
                assert!(
                    held <= beta + w + 2 * LANES + FILL_STEP,
                    "case {case}: {held}"
                );
                // The prefix at `i` sums the samples before `i`.
                let clean = &prefixes.sums[..held.min(from + 1)];
                assert!(clean.iter().all(|sum| sum.is_finite()), "case {case}");
            });
        }
    }

    #[test]
    fn batch_lanes_match_the_one_lane_view() {
        let host = bandpassed_like(800, 0.4);
        let stats = HostStats::new(&host);
        // 256 is the tracker's window; 100 leaves partial trailing blocks.
        for w in [256usize, 100] {
            let scan = BoundedAreaScan::new(&bandpassed_like(w, 1.3)).unwrap();
            let last = host.len() - w;
            let mut prefixes = run(&stats, 0);
            let mut rows = scan.residual_rows();
            // The final batch is a masked tail whose dead lanes read the
            // padding past the host's last prefix.
            for beta0 in (0..=last).step_by(LANES) {
                let valid = LANES.min(last - beta0 + 1);
                let full = scan.bound_batch(&mut prefixes, &stats, &host, beta0, &mut rows);
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
            }
        }
    }

    #[test]
    fn residual_exit_touches_fewer_blocks_and_keeps_the_argmin() {
        let mut rng = SeededRng::seed_from_u64(0x2e51_d0a1);
        let host = random_signal(&mut rng, 1000, false);
        let input = random_signal(&mut rng, 256, false);
        let scan = BoundedAreaScan::new(&input).unwrap();
        // The unpruned scan: the first strict minimum over every offset.
        let mut full = (0, f64::INFINITY);
        for (b, a) in areas(&input, &host).into_iter().enumerate() {
            if a < full.1 {
                full = (b, a);
            }
        }
        // With the minimum as the threshold, the first fit is the argmin.
        let mut counters = ScanCounters::default();
        let found = scan.first_within(&host, &HostStats::new(&host), full.1, &mut counters);
        let (beta, area) = found.unwrap().unwrap();
        assert_eq!((beta, area.to_bits()), (full.0, full.1.to_bits()));
        // Just under it nothing qualifies: every offset is visited, and
        // the scored windows read at most two thirds of the blocks their
        // partial sums alone would (0.65 here).
        let mut counters = ScanCounters::default();
        let below = full.1 * (1.0 - 1e-9);
        assert_eq!(first(&scan, &host, below, &mut counters).unwrap(), None);
        assert_eq!(counters.total(), 745);
        // The same windows abandoned on their partial sums alone.
        let stats = HostStats::new(&host);
        let mut alone = 0u64;
        for beta in 0..=744 {
            if scan.lower_bound(&host, &stats, beta) > below {
                continue;
            }
            let window = &host[beta..beta + 256];
            let ends = (AREA_BLOCK..=256).step_by(AREA_BLOCK);
            alone += ends
                .map(|end| abs_diff_sum(&input[..end], &window[..end]))
                .position(|partial| partial > below)
                .map_or(256 / AREA_BLOCK, |k| k + 1) as u64;
        }
        assert!(counters.blocks >= counters.scored);
        assert!(
            counters.blocks * 3 <= alone * 2,
            "the residual exit should end most windows early: {counters:?}, {alone} on partial sums alone"
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
            // From every offset at once down to none (a 0 threshold runs to
            // the last offset, where the final batch reads the padding past
            // the last prefix, unless the query is cut from the host).
            for threshold in [f64::INFINITY, 40.0 * w as f64, 16.0 * w as f64, 0.0] {
                let mut clone = ScanCounters::default();
                let mut portable = ScanCounters::default();
                // `first_within` took the AVX2 entry point: AVX2 is detected.
                let fast = scan
                    .first_within(&host, &stats, threshold, &mut clone)
                    .unwrap();
                let mut prefixes = run(&stats, 0);
                let body = scan.scan(
                    &host,
                    &stats,
                    &mut prefixes,
                    threshold,
                    &mut portable,
                    accumulate,
                );
                let bits = |found: Option<(usize, f64)>| found.map(|(b, a)| (b, a.to_bits()));
                assert_eq!(
                    bits(fast),
                    bits(body),
                    "case {case}, w {w}, threshold {threshold}"
                );
                assert_eq!(clone, portable, "case {case}, threshold {threshold}");
                compared += 1;
            }
        }
        eprintln!("AVX2 clone matched the portable body on {compared} scans");
    }

    #[test]
    fn pruning_rejects_most_offsets_beside_a_near_match() {
        let host = int_wave(1000, 7);
        let mut input = host[512..768].to_vec();
        // Period 17: the window recurs at every offset ≡ 512 (mod 17), each
        // time one unit away from this input.
        input[100] += 1.0;
        let scan = BoundedAreaScan::new(&input).unwrap();
        let mut counters = ScanCounters::default();
        assert_eq!(
            first(&scan, &host, 1.0, &mut counters).unwrap(),
            Some((512 % 17, 1.0))
        );
        // Under that one unit nothing qualifies, and every offset is
        // rejected by the bound alone, the near matches included.
        let mut counters = ScanCounters::default();
        assert_eq!(first(&scan, &host, 0.5, &mut counters).unwrap(), None);
        assert_eq!(counters.total(), 745);
        assert!(counters.pruned as usize > 744 / 2, "{counters:?}");
    }
}
