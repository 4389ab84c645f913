//! The bound-pruned area-between-curves kernel.
//!
//! The edge tracker re-scores every tracked slice against each one-second
//! input window (Algorithm 2), and under the area metric (Eq. 3) that means
//! evaluating `Σ |x_i − y_{β+i}|` at hundreds of offsets `β` per slice per
//! second. The naive scan touches every sample of every window. This module
//! rejects most windows without touching any sample at all, and abandons
//! the rest about twice as early as their partial sums alone would — in
//! exact integers, on a grid, with `f64` only for the windows the grid
//! cannot decide:
//!
//! - **A grid.** The input and, as the scan advances, the slice are rounded
//!   to multiples of 1/16 µV (16 grid steps per unit) and
//!   held as `i32`. Each rounded sample is at most half a step off, so a
//!   window's grid area `V` is within the bracket `E` of 16 times its true
//!   area: `E` is half a step per sample for each rounded side and 0 for a
//!   side that is exactly on the grid — 256 steps (16 µV, 0.4 % of the
//!   tracker's `δ_A`) for two rounded 256-sample windows. A window is
//!   rejected only when `V − E` still exceeds the threshold (with a
//!   margin for the rounding of [`abs_diff_sum`] itself); every other one
//!   — the window that fits, the few inside the bracket, and any that
//!   touches a non-finite or out-of-range sample — is decided by
//!   [`abs_diff_sum`], exactly as the naive scan decides it.
//! - **An admissible lower bound, one leg.** Cut the window into blocks of
//!   [`AREA_SUM_BLOCK`] samples and apply the triangle inequality per
//!   block: `Σ |d_i| ≥ Σ_j |Σ_{i∈block j} d_i|` with `d = x − y[β..]`.
//!   Each block's `Σy` is one entry of a sliding 8-sample sum of the grid,
//!   filled once per host index. Bandpassed EEG is zero-mean, so it
//!   cancels over a whole window but not over 8 samples, and misaligned
//!   oscillatory content gets a bound on the scale of the area itself.
//!   On the grid the bound is exact integer arithmetic: it needs no slack,
//!   and its terms can be added in any order.
//! - **Eight offsets per pass (`lane = offset`).** The leg is evaluated
//!   for eight consecutive offsets at once, so every block-sum read is one
//!   contiguous eight-entry load and the arithmetic auto-vectorizes.
//! - **A residual-bound early exit.** The leg's terms are kept as suffix
//!   sums per [`AREA_BLOCK`]: `residual_k` bounds from below the grid area
//!   still to come from sample `32k` on. A surviving window is summed 32
//!   samples at a time and abandoned at block `k` once `partial_k +
//!   residual_{k+1}` passes the cutoff — not merely `partial_k` — so a
//!   scored window reads at most about two thirds of the blocks its
//!   partial sums alone would (the tests pin it by counts).
//! - **A first-fit scan.** [`BoundedAreaScan::first_within`] answers the
//!   one question Algorithm 2 asks of a slice — does some window's area
//!   lie within the threshold? — and returns the first offset, in
//!   ascending order, whose [`abs_diff_sum`] is within it, with that sum
//!   bit for bit. Every reject is on a *strict* violation of an admissible
//!   bound, so `None` certifies that every area is above the threshold or
//!   NaN (the scalar scan it is pinned to lives in
//!   `crates/dsp/tests/oracle/area.rs`). It puts only what it reads on the
//!   grid: as far as the batch holding its first fit, the whole slice only
//!   when nothing fits.
//!
//! [`abs_diff_sum`] is the workspace's one Eq. 3 arithmetic
//! ([`crate::similarity::area_between_curves`] is it behind a length
//! check). It subtracts in `f64`, so each term is exact for same-scale
//! inputs. See `DESIGN.md` §10 for why the grid's rejections are exact.
//!
//! On an x86-64 CPU with AVX2, [`BoundedAreaScan::first_within`] runs the
//! scan compiled for AVX2, chosen at run time: the same source and the
//! same integer operations, which are exact, so the same answer.
//!
//! # Example
//!
//! ```
//! use emap_dsp::area::{BoundedAreaScan, ScanCounters};
//!
//! # fn main() -> Result<(), emap_dsp::DspError> {
//! let host: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.37).sin() * 20.0).collect();
//! let input = &host[300..556]; // an exact match at β = 300
//!
//! let scan = BoundedAreaScan::new(input)?;
//! let mut counters = ScanCounters::default();
//! // Threshold 0: only an exact match qualifies, and the scan stops there.
//! assert_eq!(scan.first_within(&host, 0.0, &mut counters)?, Some((300, 0.0)));
//! // On the way, the bound rejects offsets wholesale.
//! assert!(counters.pruned > 0);
//! assert_eq!(counters.scored + counters.pruned, 301);
//! # Ok(())
//! # }
//! ```

use std::cell::RefCell;

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

/// Grid steps per unit of the samples: the scan rounds to 1/16 µV. Any
/// step keeps every answer (the bracket only widens as the step grows);
/// this one keeps the bracket of two rounded 256-sample windows at 16 µV,
/// 0.4 % of the tracker's `δ_A`, and the range at ±262 143 µV.
const GRID_STEPS_PER_UNIT: f32 = 16.0;

/// The largest grid magnitude a sample may have, in steps, for windows of
/// up to 256 samples: `2^22 − 1`, where [`ROUNDER`] still rounds exactly.
/// Longer windows get less (see [`grid_range`]).
const GRID_RANGE: usize = (1 << 22) - 1;

/// `1.5 · 2^23`: adding it to an `f32` `v` of magnitude at most `2^22`
/// rounds `v` to the nearest integer (ties to even) and leaves that
/// integer in the low bits, `bits(v + ROUNDER) − bits(ROUNDER)`: a
/// rounding and a conversion in two baseline SSE2 instructions.
const ROUNDER: f32 = 12_582_912.0;

/// Offsets evaluated per pass of the bound.
const LANES: usize = 8;

/// Samples a scan's grid grows by past what its next batch reads: eight
/// batches' worth, so a scan fills in a few runs and one that stops in its
/// first batches rarely fills more than it reads.
const FILL_STEP: usize = 8 * LANES;

/// One value per offset of a batch.
type Lanes = [i32; LANES];

/// Tally of how [`BoundedAreaScan::first_within`] spent its offsets:
/// `scored` windows had samples touched (possibly abandoned mid-window by
/// the early exit), `pruned` windows were rejected by the O(1) bound alone,
/// `blocks` is the grid work the scored ones cost, and `resolved` counts
/// the scored windows the grid left to [`abs_diff_sum`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Offsets whose window was actually scored against the input.
    pub scored: u64,
    /// Offsets rejected by the block-sum lower bound without touching
    /// samples.
    pub pruned: u64,
    /// [`AREA_BLOCK`]-sample blocks accumulated on the grid over the scored
    /// windows (a trailing partial block counts as one): how early the
    /// exits fire.
    pub blocks: u64,
    /// Scored windows summed in `f64` by [`abs_diff_sum`]: the one that
    /// fits, those whose grid area lies within the bracket of the cutoff,
    /// and those touching a sample off the grid's range.
    pub resolved: u64,
}

impl ScanCounters {
    /// Total offsets considered, scored and pruned alike.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.scored + self.pruned
    }
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
    let mut lanes = [0.0f64; 8];
    accumulate(&mut lanes, &x[..n], &y[..n]);
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
}

/// Adds `|x_i − y_i|` to lane `i mod 8`. Out of line on purpose: inlined
/// beside the reduction, the vectorizer packs the lanes to suit the
/// reduction tree and then gathers the samples one at a time; on its own
/// this loop compiles to contiguous loads.
#[inline(never)]
fn accumulate(lanes: &mut [f64; 8], x: &[f32], y: &[f32]) {
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

/// The grid range for windows of `w` samples, in steps: [`GRID_RANGE`], or
/// less where `2w` samples of that magnitude would overflow an `i32` —
/// so no window sum, bound or cutoff comparison on the grid ever does.
fn grid_range(w: usize) -> f32 {
    // At most `2^22 − 1`, so the conversion is exact.
    (i32::MAX as usize / (2 * w)).min(GRID_RANGE) as f32
}

/// `x` on the grid: `(steps, in range, exact)` — its nearest step when
/// `|x|` is within `range` steps, and 0 past it and for a NaN or `±∞`;
/// whether it is within the range; and whether it lay on the grid exactly
/// (an off-range sample counts as exact: the bracket never covers it).
/// Scaling by a power of two is exact, and so is the rounding. Branch-free,
/// so the fill vectorizes.
#[inline(always)]
fn to_grid(x: f32, range: f32) -> (i32, bool, bool) {
    let v = x * GRID_STEPS_PER_UNIT;
    let rounded = v + ROUNDER;
    let in_range = v.abs() <= range;
    let steps = (rounded.to_bits() as i32).wrapping_sub(ROUNDER.to_bits() as i32);
    let exact = !in_range || rounded - ROUNDER == v;
    (if in_range { steps } else { 0 }, in_range, exact)
}

/// `Σ |x_i − y_i|` on the grid, exact, over windows of equal length, with
/// the residual exit: after block `k` it exits when the partial sum plus
/// `residual(k + 1)` — a lower bound on what samples `32(k+1)..` still add
/// — strictly exceeds `cutoff`, and likewise when the full sum does.
/// `blocks` counts the blocks accumulated.
#[inline(always)]
fn grid_sum_with_exit(
    x: &[i32],
    y: &[i32],
    cutoff: i32,
    residual: impl Fn(usize) -> i32,
    blocks: &mut u64,
) -> Option<i32> {
    let (xb, xr) = x.as_chunks::<AREA_BLOCK>();
    let (yb, yr) = y.as_chunks::<AREA_BLOCK>();
    let mut total = 0;
    for (k, (xs, ys)) in xb.iter().zip(yb).enumerate() {
        total += grid_block(xs, ys);
        *blocks += 1;
        if total + residual(k + 1) > cutoff {
            return None;
        }
    }
    if !xr.is_empty() {
        total += grid_block(xr, yr);
        *blocks += 1;
    }
    (total <= cutoff).then_some(total)
}

/// `Σ |x_i − y_i|` of one block on the grid. Integer sums are exact, so
/// the order is the vectorizer's to choose.
#[inline(always)]
fn grid_block(x: &[i32], y: &[i32]) -> i32 {
    x.iter().zip(y).map(|(&a, &b)| (a - b).abs()).sum()
}

/// The run of a host a scan has put on the grid so far, from index 0:
/// filled into its thread's one buffer as the scan advances. The buffer is
/// kept across scans: a thread allocates only when a scan reads further
/// than any before it.
#[derive(Debug, Default)]
struct HostGrid {
    /// `samples[i]`: host sample `i` in grid steps, 0 where it is off the
    /// range or not finite — and, once the host's last sample is in,
    /// [`LANES`] zeros after it, so a masked tail batch reads in bounds.
    samples: Vec<i32>,
    /// `blocks[i] = Σ samples[i .. i + 8]`, for every `i` the samples
    /// reach: one sliding sum, one addition and one subtraction an entry.
    blocks: Vec<i32>,
    /// Host indices, ascending, of the samples filled so far that are off
    /// the range or not finite: a window holding one is not the grid's to
    /// decide.
    off_range: Vec<usize>,
    /// Whether every in-range sample filled so far lies on the grid
    /// exactly, so rounding added nothing to the bracket on this side.
    exact: bool,
    /// The scan's range, in grid steps ([`grid_range`]).
    range: f32,
}

thread_local! {
    static GRID: RefCell<HostGrid> = RefCell::default();
}

impl HostGrid {
    /// `read` of this thread's buffer, emptied for a scan with windows of
    /// `w` samples.
    fn with<R>(w: usize, read: impl FnOnce(&mut HostGrid) -> R) -> R {
        GRID.with_borrow_mut(|grid| {
            grid.samples.clear();
            grid.blocks.clear();
            grid.off_range.clear();
            grid.exact = true;
            grid.range = grid_range(w);
            read(grid)
        })
    }

    /// Makes `samples` at least `len` entries long (which, past the host's
    /// last sample, they always are).
    #[inline(always)]
    fn reach(&mut self, host: &[f32], len: usize) {
        if self.samples.len() < len {
            self.grow(host, len);
        }
    }

    /// The one fill: puts the host on the grid from the last sample held
    /// to [`FILL_STEP`] samples past `len`, or to its end and the padding
    /// after it, and slides the block sums along. Out of line, so the scan
    /// bodies keep the code generation they have without it.
    #[inline(never)]
    fn grow(&mut self, host: &[f32], len: usize) {
        let from = self.samples.len();
        let end = (len + FILL_STEP).min(host.len());
        let range = self.range;
        let (mut exact, mut in_range) = (true, true);
        self.samples.resize(end, 0);
        for (steps, &x) in self.samples[from..].iter_mut().zip(&host[from..end]) {
            let (on_grid, within, on_step) = to_grid(x, range);
            *steps = on_grid;
            in_range &= within;
            exact &= on_step;
        }
        self.exact &= exact;
        if !in_range {
            let off = (from..end).filter(|&i| !to_grid(host[i], range).1);
            self.off_range.extend(off);
        }
        if end == host.len() {
            self.samples.resize(end + LANES, 0);
        }
        let s = &self.samples;
        let start = self.blocks.len();
        let reach = s.len() + 1 - AREA_SUM_BLOCK;
        let mut sum = match self.blocks.last() {
            Some(&sum) => sum,
            None => {
                let first = s[..AREA_SUM_BLOCK].iter().sum();
                self.blocks.push(first);
                first
            }
        };
        let next = start.max(1);
        let entering = &s[next + AREA_SUM_BLOCK - 1..reach + AREA_SUM_BLOCK - 1];
        let leaving = &s[next - 1..reach - 1];
        self.blocks
            .extend(entering.iter().zip(leaving).map(|(&enter, &leave)| {
                sum += enter - leave;
                sum
            }));
    }

    /// Whether the window of `w` samples at `beta` holds a sample off the
    /// range, moving `next` — an index into `off_range` at or below the
    /// first such sample at or after `beta` — up to it.
    #[inline(always)]
    fn off_range_in(&self, next: &mut usize, beta: usize, w: usize) -> bool {
        while self.off_range.get(*next).is_some_and(|&i| i < beta) {
            *next += 1;
        }
        self.off_range.get(*next).is_some_and(|&i| i < beta + w)
    }
}

/// `span[at..at + 8]`, one entry per lane.
#[inline(always)]
fn load(span: &[i32], at: usize) -> Lanes {
    span[at..at + LANES].try_into().expect("a LANES-long slice")
}

/// The bound-pruned first-fit scan for the area metric: holds the input
/// window on the grid and its block sums, and finds the first offset of a
/// host slice whose area between curves is within a threshold while
/// rejecting hopeless offsets in O(1) per offset.
///
/// # Example
///
/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct BoundedAreaScan {
    query: Vec<f32>,
    /// The query in grid steps, 0 where it is off the range.
    grid: Vec<i32>,
    /// Per-block `Σ` of `grid` over the whole [`AREA_SUM_BLOCK`]-sample
    /// blocks, hoisted out of the bound (a partial trailing block has no
    /// term: leaving a term out keeps the bound admissible).
    qblocks: Vec<i32>,
    /// Whether every query sample lies on the grid exactly.
    exact: bool,
    /// Whether every query sample is within the range: if not, no window
    /// is the grid's to decide.
    in_range: bool,
}

impl BoundedAreaScan {
    /// Stores the input window and puts it on the grid, with its per-block
    /// sums for the bound.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptySignal`] if `input` is empty.
    pub fn new(input: &[f32]) -> Result<Self, DspError> {
        if input.is_empty() {
            return Err(DspError::EmptySignal);
        }
        let range = grid_range(input.len());
        let (mut exact, mut in_range) = (true, true);
        let grid: Vec<i32> = input
            .iter()
            .map(|&x| {
                let (steps, within, on_step) = to_grid(x, range);
                in_range &= within;
                exact &= on_step;
                steps
            })
            .collect();
        let qblocks = grid
            .as_chunks::<AREA_SUM_BLOCK>()
            .0
            .iter()
            .map(|block| block.iter().sum())
            .collect();
        Ok(BoundedAreaScan {
            query: input.to_vec(),
            grid,
            qblocks,
            exact,
            in_range,
        })
    }

    /// Length of the input window in samples.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.query.len()
    }

    /// The bracket `E`, in grid steps: half a step per sample for each
    /// side that was rounded, rounded up. `|V − 16·A| ≤ E` for a window's
    /// grid area `V` and true area `A` whenever both sides are in range.
    fn bracket(&self, host_exact: bool) -> i32 {
        let rounded = usize::from(!self.exact) + usize::from(!host_exact);
        i32::try_from((self.query.len() * rounded).div_ceil(2)).unwrap_or(i32::MAX)
    }

    /// Margin, relative, for the rounding of [`abs_diff_sum`]: its `w`
    /// `f64` terms and their sum lose at most `(w + 1)·2⁻⁵³` of the true
    /// area, and the cutoff's own two roundings a little more.
    fn rounding_margin(&self) -> f64 {
        (self.query.len() + 4) as f64 * f64::EPSILON
    }

    /// The grid cutoff for `threshold`: a window whose grid area (or bound)
    /// exceeds it has a true area — and an [`abs_diff_sum`] — above
    /// `threshold`. That is `V − E > 16·threshold·(1 + margin)`, which for
    /// an integer `V − E` is `V > E + ⌊16·threshold·(1 + margin)⌋`. A
    /// negative or NaN threshold admits nothing, so it rejects every
    /// window; one past the grid's reach rejects none.
    fn cutoff(&self, threshold: f64, host_exact: bool) -> i32 {
        if threshold.is_nan() || threshold < 0.0 {
            return -1;
        }
        let scaled = threshold * f64::from(GRID_STEPS_PER_UNIT) * (1.0 + self.rounding_margin());
        let cutoff = scaled.floor() + f64::from(self.bracket(host_exact));
        if cutoff < f64::from(i32::MAX) {
            cutoff as i32
        } else {
            i32::MAX
        }
    }

    /// The lower bound on the area at `offset`,
    /// `Σ_j |Σ_block x − Σ_block y|` over the whole [`AREA_SUM_BLOCK`]-sample
    /// blocks of the window on the grid, less the bracket, in the samples'
    /// units — a one-lane view of the batch the scan evaluates: the scan
    /// prunes `offset` when this exceeds its threshold.
    ///
    /// It is *certified*: the grid sums are exact, the bracket covers the
    /// rounding onto the grid, and a relative margin the rounding of
    /// [`abs_diff_sum`], so the returned value never exceeds the area
    /// [`abs_diff_sum`] computes. A window holding a sample off the grid's
    /// range, or any non-finite one, gets 0.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit in the host.
    #[must_use]
    pub fn lower_bound(&self, host: &[f32], offset: usize) -> f64 {
        self.residual_bounds(host, offset)[0]
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
    pub fn residual_bounds(&self, host: &[f32], offset: usize) -> Vec<f64> {
        let w = self.query.len();
        assert!(offset + w <= host.len(), "window past the host");
        let mut rows = self.residual_rows();
        let (bracket, off_range) = HostGrid::with(w, |grid| {
            self.bound_batch(grid, host, offset, &mut rows);
            let off_range = !self.in_range || grid.off_range_in(&mut 0, offset, w);
            (self.bracket(grid.exact), off_range)
        });
        rows.iter()
            .map(|row| match off_range {
                true => 0.0,
                false => self.certified(row[0], bracket),
            })
            .collect()
    }

    /// A grid bound of `steps` as a certified bound in the samples' units:
    /// less the bracket, at least 0, and shrunk by the rounding margin.
    fn certified(&self, steps: i32, bracket: i32) -> f64 {
        let steps = f64::from((steps - bracket).max(0));
        steps * (1.0 - self.rounding_margin()) / f64::from(GRID_STEPS_PER_UNIT)
    }

    /// Scratch for one scan: a residual row per [`AREA_BLOCK`] boundary of
    /// the window, the end included (that row stays 0, and so does any row
    /// past the last whole [`AREA_SUM_BLOCK`]-sample block).
    fn residual_rows(&self) -> Vec<Lanes> {
        vec![[0; LANES]; self.query.len() / AREA_BLOCK + 1]
    }

    /// The bound for the offsets `beta0..beta0 + 8`, one per lane, read from
    /// the block sums after growing the grid as far as the batch reads:
    /// `residual[k]` is the bound's suffix sum from sample `32k` on. Lanes
    /// past the host's last offset, or whose window holds a sample off the
    /// range, hold garbage.
    #[inline(always)]
    fn bound_batch(
        &self,
        grid: &mut HostGrid,
        host: &[f32],
        beta0: usize,
        residual: &mut [Lanes],
    ) -> Lanes {
        grid.reach(host, beta0 + self.query.len() + LANES - 1);
        self.block_leg(&grid.blocks[beta0..], |start, suffix| {
            if start.is_multiple_of(AREA_BLOCK) {
                residual[start / AREA_BLOCK] = *suffix;
            }
        })
    }

    /// The bound for eight offsets: `Σ_j |Σ_block x − Σ_block y|` over the
    /// blocks of the batch's span of block sums, last block first,
    /// reporting the running suffix sum to `suffix(block start, sum)` after
    /// each. Each term is an admissible lower bound on that block's grid
    /// `Σ |d_i|` by the triangle inequality, in exact integers.
    #[inline(always)]
    fn block_leg(&self, blocks: &[i32], mut suffix: impl FnMut(usize, &Lanes)) -> Lanes {
        let mut acc = [0; LANES];
        for (j, &qb) in self.qblocks.iter().enumerate().rev() {
            let hb = load(blocks, j * AREA_SUM_BLOCK);
            for l in 0..LANES {
                acc[l] += (qb - hb[l]).abs();
            }
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
    /// strict: an offset is pruned only when its grid bound less the
    /// bracket exceeds the threshold (so its true area does too, and its
    /// [`abs_diff_sum`]), a window is abandoned only when its exact grid
    /// partial sum plus an admissible bound on the rest does, and offsets
    /// are visited in order. Every window the grid does not reject is
    /// summed by [`abs_diff_sum`] and kept iff that sum is within the
    /// threshold. `None` is a certificate, not an estimate: every area is
    /// above the threshold or NaN (a NaN area never qualifies).
    /// `f64::INFINITY` asks for the first offset with a non-NaN area.
    ///
    /// `counters` gains one offset per offset visited: through `β` on
    /// `Some`, every offset on `None`. The host is put on the grid as the
    /// batches advance, so a scan reads no host sample past the batch
    /// holding `β` and a few batches' worth more.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::WindowOutOfBounds`] if the window does not fit
    /// in `host` at all.
    #[allow(unsafe_code)]
    pub fn first_within(
        &self,
        host: &[f32],
        threshold: f64,
        counters: &mut ScanCounters,
    ) -> Result<Option<(usize, f64)>, DspError> {
        let w = self.query.len();
        if w > host.len() {
            return Err(DspError::WindowOutOfBounds {
                offset: 0,
                window: w,
                len: host.len(),
            });
        }
        HostGrid::with(w, |grid| {
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: `scan_avx2` enables AVX2 and nothing else, and
                // `is_x86_feature_detected!("avx2")` has just seen this CPU run it.
                return Ok(unsafe { self.scan_avx2(host, grid, threshold, counters) });
            }
            Ok(self.scan(host, grid, threshold, counters))
        })
    }

    /// [`BoundedAreaScan::scan`] with the whole bound and the grid sums
    /// compiled for AVX2: eight `i32` lanes per register. Integer
    /// arithmetic is exact, so the two clones agree by construction.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn scan_avx2(
        &self,
        host: &[f32],
        grid: &mut HostGrid,
        threshold: f64,
        counters: &mut ScanCounters,
    ) -> Option<(usize, f64)> {
        self.scan(host, grid, threshold, counters)
    }

    /// The scan of [`BoundedAreaScan::first_within`] over a validated host,
    /// with `grid` emptied for it: one body, inlined into each instruction
    /// set's entry point.
    #[inline(always)]
    fn scan(
        &self,
        host: &[f32],
        grid: &mut HostGrid,
        threshold: f64,
        counters: &mut ScanCounters,
    ) -> Option<(usize, f64)> {
        let w = self.query.len();
        let last = host.len() - w;
        let mut residual = self.residual_rows();
        let cutoffs = [false, true].map(|host_exact| self.cutoff(threshold, host_exact));
        let mut next_off_range = 0;
        for beta0 in (0..=last).step_by(LANES) {
            let valid = LANES.min(last - beta0 + 1);
            let bound = self.bound_batch(grid, host, beta0, &mut residual);
            let cutoff = cutoffs[usize::from(grid.exact)];
            for (l, beta) in (beta0..beta0 + valid).enumerate() {
                let off_range = !self.in_range || grid.off_range_in(&mut next_off_range, beta, w);
                if !off_range && bound[l] > cutoff {
                    counters.pruned += 1;
                    continue;
                }
                counters.scored += 1;
                if !off_range {
                    let window = &grid.samples[beta..beta + w];
                    let rest = |k: usize| residual[k][l];
                    let blocks = &mut counters.blocks;
                    if grid_sum_with_exit(&self.grid, window, cutoff, rest, blocks).is_none() {
                        continue;
                    }
                }
                counters.resolved += 1;
                let area = abs_diff_sum(&self.query, &host[beta..beta + w]);
                // Within the threshold, or above it or NaN.
                if area <= threshold {
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

    /// Integer-valued samples: every sum below is exact in f64, and every
    /// sample lies on the grid, so the bound relation and tie behavior hold
    /// exactly, not just within ULPs.
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

    /// `x` on the grid, off-range samples as 0.
    fn on_grid(x: &[f32], w: usize) -> Vec<i32> {
        x.iter().map(|&x| to_grid(x, grid_range(w)).0).collect()
    }

    /// The grid area, summed one sample at a time in `i64`.
    fn grid_area(x: &[i32], y: &[i32]) -> i64 {
        x.iter()
            .zip(y)
            .map(|(&a, &b)| (i64::from(a) - i64::from(b)).abs())
            .sum()
    }

    /// Rounding onto the grid is to the nearest step, at most half a step
    /// off, exact for a sample on the grid, and refuses what lies past the
    /// range or is not finite.
    #[test]
    fn the_grid_rounds_to_the_nearest_step_within_its_range() {
        let range = grid_range(256);
        assert_eq!(range, 4_194_303.0);
        assert_eq!(grid_range(1 << 20), 1023.0);
        let limit = range / GRID_STEPS_PER_UNIT;
        for (x, steps, exact) in [
            (0.0f32, 0, true),
            (-0.0, 0, true),
            (1.0, 16, true),
            (-2.5, -40, true),
            (0.03125, 0, false), // half a step: ties to even
            (0.09375, 2, false),
            (0.1, 2, false),
            (-0.1, -2, false),
            (f32::MIN_POSITIVE / 8.0, 0, false),
            (limit, 4_194_303, true),
            (-limit, -4_194_303, true),
        ] {
            assert_eq!(to_grid(x, range), (steps, true, exact), "{x}");
            let off = (f64::from(x) * 16.0 - f64::from(steps)).abs();
            assert!(off <= 0.5, "{x}: {off}");
        }
        let past = limit + 1.0 / GRID_STEPS_PER_UNIT;
        for x in [
            past,
            -past,
            1e30,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ] {
            assert_eq!(to_grid(x, range), (0, false, true), "{x}");
        }
    }

    /// The cutoff only ever ends a grid sum early: where it completes, it
    /// is the full sum; where it exits, the full sum is over the cutoff.
    #[test]
    fn grid_sum_is_exact_or_truly_over() {
        let mut rng = SeededRng::seed_from_u64(0x0b0d_5e70);
        for _ in 0..200 {
            let n = 1 + rng.index(300);
            let x: Vec<i32> = (0..n).map(|_| rng.index(257) as i32 - 128).collect();
            let y: Vec<i32> = x.iter().rev().copied().collect();
            let full = grid_area(&x, &y);
            let cutoff = (full as f64 * rng.range_f64(0.0..2.0)) as i32;
            match grid_sum_with_exit(&x, &y, cutoff, |_| 0, &mut 0) {
                Some(sum) => assert_eq!(i64::from(sum), full),
                None => assert!(full > i64::from(cutoff), "{full} <= {cutoff}"),
            }
        }
    }

    #[test]
    fn grid_sum_completes_with_the_full_sum() {
        for n in [1usize, 9, 32, 100, 256] {
            let a = on_grid(&wave(n, 0.23, 3.0), n);
            let b = on_grid(&wave(n, 0.41, 2.0), n);
            let full = grid_area(&a, &b) as i32;
            let mut blocks = 0;
            assert_eq!(
                grid_sum_with_exit(&a, &b, full, |_| 0, &mut blocks),
                Some(full)
            );
            assert_eq!(blocks as usize, n.div_ceil(AREA_BLOCK), "n = {n}");
            let all = grid_sum_with_exit(&a, &b, i32::MAX, |_| 0, &mut 0);
            assert_eq!(all, Some(full), "n = {n}");
        }
    }

    #[test]
    fn grid_sum_exits_early_only_on_strict_violation() {
        let x = [0i32; 64];
        let y = [1i32; 64];
        // Total is 64; a cutoff at the first block's partial (32) must not
        // abort that block (strict >), one just below must.
        assert_eq!(grid_sum_with_exit(&x, &y, 64, |_| 0, &mut 0), Some(64));
        let mut blocks = 0;
        assert_eq!(grid_sum_with_exit(&x, &y, 32, |_| 0, &mut blocks), None);
        assert_eq!(blocks, 2);
        let mut blocks = 0;
        assert_eq!(grid_sum_with_exit(&x, &y, 31, |_| 0, &mut blocks), None);
        assert_eq!(blocks, 1);
        // A residual of the whole rest ends it after the first block.
        let mut blocks = 0;
        let rest = |k: usize| if k == 1 { 32 } else { 0 };
        assert_eq!(grid_sum_with_exit(&x, &y, 63, rest, &mut blocks), None);
        assert_eq!(blocks, 1);
    }

    /// The cutoff is the bracket plus `⌊16·threshold·(1 + margin)⌋`, and
    /// rejects everything below a zero threshold.
    #[test]
    fn the_cutoff_holds_the_bracket_of_each_rounded_side() {
        let rounded = BoundedAreaScan::new(&wave(256, 0.3, 5.0)).unwrap();
        let exact = BoundedAreaScan::new(&int_wave(256, 3)).unwrap();
        assert!(!rounded.exact && exact.exact);
        assert_eq!(rounded.bracket(false), 256);
        assert_eq!(rounded.bracket(true), 128);
        assert_eq!(exact.bracket(false), 128);
        assert_eq!(exact.bracket(true), 0);
        // An odd window rounds half a step per side up.
        let odd = BoundedAreaScan::new(&wave(33, 0.3, 5.0)).unwrap();
        assert_eq!(odd.bracket(true), 17);
        assert_eq!(exact.cutoff(3800.0, true), 60_800);
        assert_eq!(rounded.cutoff(3800.0, false), 60_800 + 256);
        assert_eq!(exact.cutoff(0.0, true), 0);
        assert_eq!(exact.cutoff(1.0 / 32.0, true), 0);
        for threshold in [-1.0, -0.0, f64::NAN] {
            let expected = if threshold == 0.0 { 0 } else { -1 };
            assert_eq!(exact.cutoff(threshold, true), expected, "{threshold}");
        }
        assert_eq!(rounded.cutoff(f64::INFINITY, false), i32::MAX);
        assert_eq!(rounded.cutoff(1e300, false), i32::MAX);
    }

    #[test]
    fn lower_bound_is_admissible_on_exact_sums() {
        let host = int_wave(500, 3);
        let input = int_wave(64, 5);
        let scan = BoundedAreaScan::new(&input).unwrap();
        for beta in 0..=host.len() - input.len() {
            let bound = scan.lower_bound(&host, beta);
            let area = abs_diff_sum(&input, &host[beta..beta + input.len()]);
            assert!(bound <= area, "β = {beta}: bound {bound} > area {area}");
        }
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
            scan.first_within(&host, 0.0, &mut counters).unwrap(),
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
        let fast = scan.first_within(&host, 0.0, &mut counters).unwrap();
        assert_eq!(
            fast,
            Some((0, 0.0)),
            "earliest of the tied zero-area offsets"
        );
        // On the grid exactly, the bracket is 0: only the kept window goes
        // to `f64`.
        assert_eq!(counters.resolved, 1);
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
        assert_eq!(
            scan.first_within(&host, below, &mut counters).unwrap(),
            None
        );
        assert_eq!(counters.total(), 745);
        // On it, the first offset that attains it.
        let on = scan
            .first_within(&host, least, &mut ScanCounters::default())
            .unwrap();
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
            scan.first_within(&host, f64::INFINITY, &mut counters),
            Err(DspError::WindowOutOfBounds { .. })
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
        for phase in [0.3f32, 1.1, 2.9] {
            let input = bandpassed_like(256, phase);
            let scan = BoundedAreaScan::new(&input).unwrap();
            for beta in 0..=host.len() - input.len() {
                let bound = scan.lower_bound(&host, beta);
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
        for w in [5usize, 9, 63, 65, 100, 250] {
            let input = bandpassed_like(w, 1.9);
            let scan = BoundedAreaScan::new(&input).unwrap();
            for beta in (0..=host.len() - w).step_by(13) {
                let bound = scan.lower_bound(&host, beta);
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
        // Misaligned windows of this content have areas in the thousands,
        // the scale of EdgeConfig::default()'s δ_A = 3 800, and the
        // blockwise leg must certify that. Just under the least area no
        // window qualifies, so every offset is visited.
        let least = areas(&input, &host)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let mut counters = ScanCounters::default();
        let found = scan
            .first_within(&host, least * (1.0 - 1e-9), &mut counters)
            .unwrap();
        assert_eq!(found, None);
        assert!(
            counters.pruned > counters.scored,
            "the blockwise leg should reject most offsets outright: {counters:?}"
        );
        assert_eq!(counters.total(), 745);
    }

    /// An empty grid for a host scanned with windows of `w` samples,
    /// outside this thread's buffer.
    fn empty_grid(w: usize) -> HostGrid {
        HostGrid {
            exact: true,
            range: grid_range(w),
            ..HostGrid::default()
        }
    }

    /// However a grid is grown, it holds the host on the grid from index 0
    /// to [`FILL_STEP`] past each reach that grew it, and once the host's
    /// last sample is in, [`LANES`] zeros; every block sum is its eight
    /// samples' sum, and every off-range sample filled is listed.
    #[test]
    fn a_grid_grows_to_its_reach_then_pads_with_zeros() {
        let mut rng = SeededRng::seed_from_u64(0x6a1d_0b11);
        for (n, w) in [(600usize, 256usize), (600, 33), (5, 5), (70, 9)] {
            let host = random_signal(&mut rng, n, true);
            let steps = on_grid(&host, w);
            let mut grid = empty_grid(w);
            let mut len = 0;
            while grid.samples.len() < n + LANES {
                len = (len + 1 + (len * 7 + n) % 90).min(n + LANES);
                let before = grid.samples.len();
                grid.reach(&host, len);
                let held = grid.samples.len();
                if before < len {
                    let end = (len + FILL_STEP).min(n);
                    let padding = if end == n { LANES } else { 0 };
                    assert_eq!(held, end + padding, "n {n}, reach {len}");
                } else {
                    assert_eq!(held, before, "n {n}, reach {len}");
                }
                let filled = held.min(n);
                assert_eq!(grid.samples[..filled], steps[..filled]);
                assert!(grid.samples[filled..].iter().all(|&s| s == 0));
                assert_eq!(grid.blocks.len(), held + 1 - AREA_SUM_BLOCK);
                for (i, &block) in grid.blocks.iter().enumerate() {
                    let sum: i32 = grid.samples[i..i + AREA_SUM_BLOCK].iter().sum();
                    assert_eq!(block, sum, "n {n}, block {i}");
                }
                let off: Vec<usize> = (0..filled)
                    .filter(|&i| !to_grid(host[i], grid.range).1)
                    .collect();
                assert_eq!(grid.off_range, off, "n {n}");
                let exact = (0..filled).all(|i| to_grid(host[i], grid.range).2);
                assert_eq!(grid.exact, exact);
            }
        }
    }

    /// What a scan leaves in its thread's grid: the samples through the
    /// batch holding its first fit and at most one growth step past them,
    /// or, when nothing fits, all `n` and the padding.
    #[test]
    fn a_scan_fills_only_the_grid_it_reads() {
        let mut rng = SeededRng::seed_from_u64(0x1a2f_0b11);
        let held = || GRID.with_borrow(|grid| grid.samples.len());
        for (n, w) in [(1000usize, 256usize), (1000, 100), (600, 33), (300, 256)] {
            let host = random_signal(&mut rng, n, false);
            for beta in [0, 1, 7, 8, 24, 100, 300, 511, 744].map(|b: usize| b.min(n - w)) {
                let scan = BoundedAreaScan::new(&host[beta..beta + w]).unwrap();
                let mut counters = ScanCounters::default();
                let found = scan.first_within(&host, 0.0, &mut counters);
                assert_eq!(found.unwrap(), Some((beta, 0.0)), "n {n}, w {w}");
                assert!(held() >= beta + w, "n {n}, w {w}, β {beta}: {}", held());
                assert!(
                    held() <= beta + w + 2 * LANES + FILL_STEP,
                    "n {n}, w {w}, β {beta}: {} samples held",
                    held()
                );
            }
            let scan = BoundedAreaScan::new(&random_signal(&mut rng, w, false)).unwrap();
            let mut counters = ScanCounters::default();
            let found = scan.first_within(&host, 0.0, &mut counters);
            assert_eq!(found.unwrap(), None);
            assert_eq!(held(), n + LANES, "n {n}, w {w}");
        }
    }

    /// Samples past the window of the first fit change nothing: NaN and
    /// `±∞` from `β + w` on leave the first fit at `β` (or an earlier
    /// offset, clean too) with the bits of the areas scored in full, and
    /// past the samples the scan reads — the batch holding `β` and one
    /// growth step — they are never filled.
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
            let found = scan.first_within(&host, threshold, &mut counters).unwrap();
            let bits = found.map(|(b, area)| (b, area.to_bits()));
            assert_eq!(bits, expected, "case {case}");
            GRID.with_borrow(|grid| {
                let held = grid.samples.len();
                assert!(
                    held <= beta + w + 2 * LANES + FILL_STEP,
                    "case {case}: {held}"
                );
                // Whatever hostile sample was filled is listed, and none
                // sits before `from`.
                let held = held.min(host.len());
                assert!(grid.off_range.iter().all(|&i| (from..held).contains(&i)));
                let listed = (from..held).filter(|&i| !host[i].is_finite()).count();
                assert_eq!(grid.off_range.len(), listed, "case {case}");
            });
        }
    }

    #[test]
    fn batch_lanes_match_the_one_lane_view() {
        let host = bandpassed_like(800, 0.4);
        // 256 is the tracker's window; 100 leaves partial trailing blocks.
        for w in [256usize, 100] {
            let scan = BoundedAreaScan::new(&bandpassed_like(w, 1.3)).unwrap();
            let last = host.len() - w;
            let mut grid = empty_grid(w);
            let mut rows = scan.residual_rows();
            let steps = on_grid(&host, w);
            // The final batch is a masked tail whose dead lanes read the
            // padding past the host's last sample.
            for beta0 in (0..=last).step_by(LANES) {
                let valid = LANES.min(last - beta0 + 1);
                let full = scan.bound_batch(&mut grid, &host, beta0, &mut rows);
                let bracket = scan.bracket(grid.exact);
                for l in 0..valid {
                    let beta = beta0 + l;
                    // The bound in steps, block by block.
                    let direct: i32 = scan
                        .qblocks
                        .iter()
                        .enumerate()
                        .map(|(j, &qb)| {
                            let at = beta + j * AREA_SUM_BLOCK;
                            (qb - steps[at..at + AREA_SUM_BLOCK].iter().sum::<i32>()).abs()
                        })
                        .sum();
                    assert_eq!(full[l], direct, "w {w}, β {beta}");
                    let one = scan.lower_bound(&host, beta);
                    let certified = scan.certified(full[l], bracket);
                    assert_eq!(certified.to_bits(), one.to_bits(), "w {w}, β {beta}");
                    let residuals = scan.residual_bounds(&host, beta);
                    assert_eq!(residuals.len(), rows.len());
                    for (k, row) in rows.iter().enumerate() {
                        let certified = scan.certified(row[l], bracket);
                        assert_eq!(certified.to_bits(), residuals[k].to_bits());
                    }
                    // Suffix sums of non-negative terms: non-increasing.
                    assert!(rows.windows(2).all(|p| p[0][l] >= p[1][l]));
                }
            }
        }
    }

    /// The residual exit on the grid, counted: with the least area as the
    /// threshold the first fit is the argmin, and just under it the scored
    /// windows read at most two thirds of the blocks the same grid sums
    /// abandoned on their partial sums alone would.
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
        let found = scan.first_within(&host, full.1, &mut counters);
        let (beta, area) = found.unwrap().unwrap();
        assert_eq!((beta, area.to_bits()), (full.0, full.1.to_bits()));
        // Just under it nothing qualifies: every offset is visited, and
        // the scored windows read at most two thirds of the blocks their
        // partial sums alone would (0.63 here).
        let mut counters = ScanCounters::default();
        let below = full.1 * (1.0 - 1e-9);
        assert_eq!(
            scan.first_within(&host, below, &mut counters).unwrap(),
            None
        );
        assert_eq!(counters.total(), 745);
        // The same windows abandoned on their grid partial sums alone,
        // against the same cutoff.
        let cutoff = scan.cutoff(below, false);
        let steps = on_grid(&host, 256);
        let mut alone = 0u64;
        for beta in 0..=744 {
            if scan.lower_bound(&host, beta) > below {
                continue;
            }
            let window = &steps[beta..beta + 256];
            let ends = (AREA_BLOCK..=256).step_by(AREA_BLOCK);
            alone += ends
                .map(|end| grid_area(&scan.grid[..end], &window[..end]))
                .position(|partial| partial > i64::from(cutoff))
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
            // From every offset at once down to none (a 0 threshold runs to
            // the last offset, where the final batch reads the padding past
            // the last sample, unless the query is cut from the host).
            for threshold in [f64::INFINITY, 40.0 * w as f64, 16.0 * w as f64, 0.0] {
                let mut clone = ScanCounters::default();
                let mut portable = ScanCounters::default();
                // `first_within` took the AVX2 entry point: AVX2 is detected.
                let fast = scan.first_within(&host, threshold, &mut clone).unwrap();
                let body =
                    HostGrid::with(w, |grid| scan.scan(&host, grid, threshold, &mut portable));
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
            scan.first_within(&host, 1.0, &mut counters).unwrap(),
            Some((512 % 17, 1.0))
        );
        // Under that one unit nothing qualifies, and every offset is
        // rejected by the bound alone, the near matches included: both
        // sides lie on the grid, so the bracket is 0.
        let mut counters = ScanCounters::default();
        assert_eq!(scan.first_within(&host, 0.5, &mut counters).unwrap(), None);
        assert_eq!(counters.total(), 745);
        assert_eq!(counters.resolved, 0, "{counters:?}");
        assert!(counters.pruned as usize > 744 / 2, "{counters:?}");
    }
}
