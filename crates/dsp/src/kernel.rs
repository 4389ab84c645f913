//! The paper's `ω` (Eq. 2, min–max form) and the O(1)-statistics kernel
//! that evaluates it.
//!
//! [`KernelCorrelator`] is the workspace's one `ω`: the query is min–max
//! normalized to `[0, 1]` and scaled to unit energy once (`q̂`), and every
//! host window `x` scores `ω = q̂ · (x − min x)/‖x − min x‖`, clamped to
//! `[0, 1]` (`DESIGN.md` §3). The cloud search evaluates it at many offsets
//! of the same 1000-sample host, and a scalar pass over each window would
//! spend O(window) gathering `min`, `max`, `Σw` and `Σw²` before the one
//! O(window) operation that involves the query, the dot product. This
//! module precomputes host-side statistics **once** so every later offset
//! pays O(1) for all four:
//!
//! - **Prefix sums** over the host give any window's `Σw` and `Σw²` as two
//!   subtractions. A host keeps the prefix pair at every 32nd index and
//!   replays the rest from there by the additions that built them, so a
//!   replayed entry is the stored table's bits; a scan moving forward
//!   replays from where it last stood, a few additions per window.
//! - A **sparse-table RMQ** level (the row of the largest power-of-two
//!   span inside the window, at most [`MAX_SPAN`]) gives any window's
//!   `min`/`max` as two comparisons — `⌈w/256⌉` past 511 samples. A
//!   row stores where its extremum sits, as a `u8` offset into its span,
//!   and the value is read from the host. The exponential skip of
//!   Algorithm 1 lands on *arbitrary* offsets, so a monotone-deque sliding
//!   minimum (which requires uniform strides) does not apply. A scan reads
//!   one level, so one level is all a host keeps: built on the first query
//!   of its window length.
//! - The query-constant `Σq̂` is hoisted into the correlator constructor.
//!
//! Equivalence with a scalar pass over the window (the oracle in
//! `crates/dsp/tests/oracle/omega.rs`):
//!
//! - `min`/`max` from the sparse table are **bit-identical** to the
//!   sequential fold for NaN-free hosts (`f32::min`/`f32::max` are
//!   associative and commutative on ordered values; `±0.0` ties can differ
//!   in sign but never in value).
//! - `Σw`/`Σw²` from prefix differences agree with in-window accumulation
//!   to within a few ULPs of the *prefix* magnitude. For healthy windows
//!   this keeps `ω` within ~1e-9 of the scalar value; for windows where
//!   the identity `Σw² − 2·lo·Σw + n·lo²` would catastrophically cancel
//!   (nearly constant windows far from zero, or quiet windows inside loud
//!   hosts) the kernel detects the hazard and falls back to a scalar pass,
//!   bit for bit the oracle's.
//! - Both routes end in one finisher, so identical statistics produce
//!   bit-identical `ω`.
//!
//! A scan that only needs to know which side of a threshold (or which skip
//! bin) most windows fall on can ask for less: [`HostKernel::at`] runs the
//! dot product in f32 and returns a certified bracket of the exact `ω`,
//! through the same finisher. It is one straight line, inlined into the
//! scan that calls it; every window it does not bracket takes
//! [`HostKernel::exact_at`]. Its reference, the front half it replaced,
//! is `crates/dsp/tests/oracle/bracket.rs`, which it must match bit for
//! bit.
//!
//! On a host of whole counts the bracket runs on an integer grid instead.
//! [`KernelCorrelator::new`] puts `q̂` on a power-of-two grid, `gᵢ =
//! round(q̂ᵢ·S)` with every `gᵢ ≤ 2¹⁴`, and keeps `qerr = Σ|q̂ᵢ − gᵢ/S|`,
//! rounded up. [`KernelCorrelator::on_host`] puts a host whose every sample
//! is a whole count with `w·2¹⁴·max|x| < 2³¹` (and `Σx² < 2⁵³`) into its
//! thread's buffer as `i16`, with `i32` prefixes of `Σx` and `Σx²`: no
//! per-set table and, past a thread's first host, no allocation. There:
//!
//! - a window's sums are two integer differences. Every `f64` prefix of
//!   such a host is an exact integer below 2⁵³, so they are the bits the
//!   `f64` cursor reads — `exact_at` reads them there too, so it never
//!   replays a prefix from a checkpoint — and the centred energy cannot
//!   cancel: the cancellation guard only picks which exact route
//!   `exact_at` takes;
//! - the dot product is `idot(g, x)/S`, an exact `i16×i16→i32` sum (no
//!   partial sum reaches 2³¹) scaled by a power of two, and it is within
//!   `qerr·M` of `Σq̂ᵢxᵢ`, with `M = max(|lo|, |hi|)`;
//! - the bracket's half-width is `E = (qerr + (w + 8)·2⁻⁵³·Σq̂)·M`. The
//!   second term covers the exact route's own dot product, `dot8` or the
//!   scalar pass (at most `w − 1` additions at 2⁻⁵³ over exact products),
//!   with nine roundings to spare for `E`'s own arithmetic and `qdot ∓ E`
//!   — enough while `qerr ≤ Σq̂`, which the grid is kept only for (any
//!   query up to 2¹⁴ samples: `qerr ≤ w/(2S)` and `Σq̂ ≥ max q̂ > 2¹³/S`).
//!
//! Every other host keeps the `f32` route above unchanged. The route is
//! chosen from what the host holds, nothing else.
//!
//! # Example
//!
//! ```
//! use emap_dsp::kernel::{HostStats, KernelCorrelator};
//!
//! # fn main() -> Result<(), emap_dsp::DspError> {
//! let query: Vec<f32> = (0..64).map(|n| (n as f32 * 0.31).sin()).collect();
//! let host: Vec<f32> = (0..400).map(|n| (n as f32 * 0.17).cos() * 3.0 + 1.0).collect();
//!
//! let kernel = KernelCorrelator::new(&query)?;
//! let stats = HostStats::new(&host);
//! for offset in [0, 37, 200, 336] {
//!     let omega = kernel.correlation_at(&host, &stats, offset)?;
//!     assert!((0.0..=1.0).contains(&omega));
//! }
//! // ω is affine-invariant: a scaled, shifted copy of the query scores 1.
//! let copy: Vec<f32> = query.iter().map(|q| 2.5 * q - 4.0).collect();
//! let omega = kernel.correlation_at(&copy, &HostStats::new(&copy), 0)?;
//! assert!(omega > 1.0 - 1e-6);
//! # Ok(())
//! # }
//! ```

use std::cell::Cell;
use std::sync::OnceLock;

use crate::area::ROUNDER;
use crate::stats::energy;
use crate::DspError;

/// Below this window length the kernel always takes the scalar pass: the
/// O(1)-statistics machinery saves nothing on tiny windows.
pub const SMALL_WINDOW_FALLBACK: usize = 16;

/// The widest span a min/max level covers: its rows' offsets must fit a
/// `u8`. A wider window reads several rows of this level.
pub const MAX_SPAN: usize = 256;

/// Relative cancellation guard: when the centered-energy identity retains
/// less than this fraction of the magnitudes feeding it, prefix-sum ULP
/// noise could be amplified past ~1e-9 in `ω`, so the kernel falls back to
/// the scalar path for that window.
const CANCELLATION_GUARD: f64 = 1e-4;

/// Prefix pairs are kept at every this-many-th index; any other entry is
/// at most this many additions from one.
const CHECKPOINT: usize = 32;

/// `(Σx, Σx²)` over a prefix of a host.
type Prefix = (f64, f64);

/// The prefixes after each of `samples` in turn, starting from `from`: the
/// one loop every prefix entry comes from — built, checkpointed or
/// replayed. Each step is `fl(Σ + x)` and `fl(Σx² + x·x)`, so replaying
/// from a stored entry gives what a full pass from zero gives at every
/// index: the same bits wherever the entry is a number or `±∞`, and a NaN
/// wherever it is a NaN. (Rust leaves a NaN's sign and payload to code
/// generation, which may commute an addition, so two NaNs made by the same
/// steps need not share bits. Every reader tests a NaN for what it is,
/// never for its bits.)
fn replay(from: Prefix, samples: &[f32]) -> impl Iterator<Item = Prefix> + '_ {
    samples.iter().scan(from, |at, &x| {
        let xf = f64::from(x);
        *at = (at.0 + xf, at.1 + xf * xf);
        Some(*at)
    })
}

/// Precomputed per-host statistics: prefix sums for O(1) window sum and
/// energy, and sparse-table RMQ levels for O(1) window min/max at arbitrary
/// offsets.
///
/// Built once per host (the mega-database caches one per signal-set at
/// insert time — the store is append-only, so the cost is amortized over
/// every query that ever scans the set). Only the prefix checkpoints are
/// kept: the pair `(Σx, Σx²)` at every 32nd index, 512 bytes for a
/// 1000-sample host. Any other prefix is replayed from the checkpoint at or
/// below it (or, for a scan moving forward, from where it last read) by the
/// additions that built the checkpoint, so it has the bits a full table
/// would hold.
///
/// A window of length `w` reads one level, `min(⌊log₂ w⌋, 8)`, built on
/// the first min/max query of such a window and kept: two `u8` offsets per
/// row, 1 490 bytes for the 256-sample window every search uses. A host
/// whose windows are only ever summed — an edge tracker under the area
/// metric — never holds one. Level 0 is the host itself: the min/max
/// queries take it.
///
/// # Example
///
/// ```
/// use emap_dsp::kernel::HostStats;
///
/// let host = vec![3.0f32, -1.0, 4.0, 1.0, -5.0, 9.0];
/// let stats = HostStats::new(&host);
/// assert_eq!(stats.len(), 6);
/// assert_eq!(stats.window_sum(&host, 1, 3), -1.0 + 4.0 + 1.0);
/// assert_eq!(stats.built_levels().count(), 0);
/// assert_eq!(stats.window_min(&host, 2, 4), -5.0);
/// assert_eq!(stats.window_max(&host, 0, 5), 4.0);
/// assert_eq!(stats.built_levels().collect::<Vec<_>>(), [2]);
/// ```
#[derive(Debug, Clone)]
pub struct HostStats {
    /// Length of the host.
    len: usize,
    /// `checkpoints[k]` = `(Σ host[..32k], Σ host[..32k]²)`, for every
    /// `32k ≤ n`.
    checkpoints: Box<[Prefix]>,
    /// `levels[k - 1]`: the sparse-table rows of span `2^k`, for every
    /// `1 ≤ k ≤ min(⌊log₂ n⌋, 8)`, each built on first use.
    levels: Box<[OnceLock<Level>]>,
    /// Largest `|Σ host[..i]|` — scale for ULP-error bounds.
    sum_scale: f64,
    /// Largest prefix energy (the final entry) — scale for ULP-error bounds.
    energy_scale: f64,
}

/// Where a reader of one host's prefixes stands: the prefix over
/// `host[..index]`.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    index: usize,
    at: Prefix,
}

impl Cursor {
    /// The prefix over `host[..i]`, replayed from here or from the
    /// checkpoint at or below `i`, whichever is fewer additions away; the
    /// cursor moves to `i`. Either way the bits are the stored table's.
    #[inline]
    fn seek(&mut self, stats: &HostStats, host: &[f32], i: usize) -> Prefix {
        let base = i - i % CHECKPOINT;
        if self.index > i || self.index < base {
            *self = Cursor {
                index: base,
                at: stats.checkpoints[base / CHECKPOINT],
            };
        }
        // `replay`'s additions, as a plain loop.
        let mut at = self.at;
        for &x in &host[self.index..i] {
            let xf = f64::from(x);
            at = (at.0 + xf, at.1 + xf * xf);
        }
        *self = Cursor { index: i, at };
        at
    }
}

/// A reader of window sums and energies: one prefix cursor at the window's
/// start, one at its end. A scan whose offsets move forward pays the
/// samples it moved past; any other move, at most a checkpoint's worth.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WindowCursor {
    start: Cursor,
    end: Cursor,
}

impl WindowCursor {
    /// `(Σw, Σw²)` over `host[offset .. offset + w]` — the difference of
    /// the two prefixes, bit for bit a full table's. `host` must be the
    /// signal `stats` describes; panics past its end. A window less than a
    /// checkpoint interval ahead of the last one of its length — each
    /// step of a scan — moves both cursors the same way, so one loop
    /// replays both.
    #[inline]
    pub(crate) fn window(
        &mut self,
        stats: &HostStats,
        host: &[f32],
        offset: usize,
        w: usize,
    ) -> (f64, f64) {
        let (start, end) = (self.start.index, self.end.index);
        if end == start + w && (start..start + CHECKPOINT).contains(&offset) {
            let (mut at0, mut at1) = (self.start.at, self.end.at);
            for (&x0, &x1) in host[start..offset].iter().zip(&host[end..offset + w]) {
                let (xf0, xf1) = (f64::from(x0), f64::from(x1));
                at0 = (at0.0 + xf0, at0.1 + xf0 * xf0);
                at1 = (at1.0 + xf1, at1.1 + xf1 * xf1);
            }
            self.start = Cursor {
                index: offset,
                at: at0,
            };
            self.end = Cursor {
                index: offset + w,
                at: at1,
            };
            return (at1.0 - at0.0, at1.1 - at0.1);
        }
        let (sum0, energy0) = self.start.seek(stats, host, offset);
        let (sum1, energy1) = self.end.seek(stats, host, offset + w);
        (sum1 - sum0, energy1 - energy0)
    }
}

/// One sparse-table level: the minimum of `host[i .. i + 2^k]` is
/// `host[i + mins[i]]`, its maximum `host[i + maxs[i]]`.
#[derive(Debug, Clone)]
struct Level {
    mins: Box<[u8]>,
    maxs: Box<[u8]>,
}

impl Level {
    /// The rows of span `2^k` (`1 ≤ k ≤ 8`, `2^k ≤ host.len()`) by the
    /// sparse table's own doubling — row `j + 1` is row `j` min/max-ed with
    /// itself `2^j` further on — run over a copy of the values, each row
    /// keeping the offset of whichever sample `f32::min` / `f32::max`
    /// returned: a full `f32` table's values, bit for bit.
    fn build(host: &[f32], k: usize) -> Self {
        Level {
            mins: Self::offsets(host, k, f32::min),
            maxs: Self::offsets(host, k, f32::max),
        }
    }

    fn offsets(host: &[f32], k: usize, pick: impl Fn(f32, f32) -> f32) -> Box<[u8]> {
        // Four-byte offsets while building, like the values beside them, so
        // each doubling is one vector loop from one pair of rows into the
        // other; narrowed to one byte at the end.
        let (mut values, mut offsets) = (host.to_vec(), vec![0u32; host.len()]);
        let (mut next_values, mut next_offsets) = (values.clone(), offsets.clone());
        for j in 0..k {
            let half = 1usize << j;
            let rows = values.len() - half;
            next_values.truncate(rows);
            next_offsets.truncate(rows);
            let pairs = values.iter().zip(&values[half..]);
            let sides = offsets.iter().zip(&offsets[half..]);
            let next = next_values.iter_mut().zip(next_offsets.iter_mut());
            for ((value, offset), ((&a, &b), (&at_a, &at_b))) in next.zip(pairs.zip(sides)) {
                let picked = pick(a, b);
                *value = picked;
                *offset = if picked.to_bits() == a.to_bits() {
                    at_a
                } else {
                    at_b + half as u32
                };
            }
            std::mem::swap(&mut values, &mut next_values);
            std::mem::swap(&mut offsets, &mut next_offsets);
        }
        // Every offset is below the span, `2^k ≤ MAX_SPAN`.
        offsets.iter().map(|&o| o as u8).collect()
    }
}

/// The rows that answer every min/max query of one window length on one
/// host: resolved once, then read with no further synchronization.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extrema<'a> {
    host: &'a [f32],
    /// The level's offsets; empty for one-sample windows, whose rows are
    /// the samples themselves.
    mins: &'a [u8],
    maxs: &'a [u8],
    /// The level's span `2^k`.
    span: usize,
    /// `w − 2^k`: where the last of the overlapping blocks starts.
    gap: usize,
}

impl Extrema<'_> {
    #[inline]
    pub(crate) fn min_at(&self, offset: usize) -> f32 {
        self.extremum(offset, self.mins, f32::min)
    }

    #[inline]
    pub(crate) fn max_at(&self, offset: usize) -> f32 {
        self.extremum(offset, self.maxs, f32::max)
    }

    /// `pick` over the rows at `offset + span·j` below the last block, then
    /// the last block's row at `offset + gap`: two rows whenever the window
    /// is under two spans, which is every window below `2·`[`MAX_SPAN`].
    #[inline]
    fn extremum(&self, offset: usize, offsets: &[u8], pick: impl Fn(f32, f32) -> f32) -> f32 {
        // Level 0 keeps no offsets: each row is its own sample.
        let at = |row: usize| self.host[row + offsets.get(row).map_or(0, |&o| usize::from(o))];
        let last = offset + self.gap;
        let mut acc = at(offset);
        let mut row = offset + self.span;
        while row < last {
            acc = pick(acc, at(row));
            row += self.span;
        }
        pick(acc, at(last))
    }

    /// `(min, max)` of the window at `offset`, for windows of two samples
    /// or more (level 1 up): [`Extrema::extremum`]'s rows in its order, both
    /// extrema in one walk. Under two spans the walk is the first row and
    /// the last — two reads per extremum; wider windows add the rows
    /// between.
    #[inline(always)]
    fn bounds(&self, offset: usize) -> (f32, f32) {
        let (host, mins, maxs) = (self.host, self.mins, self.maxs);
        let row = |at: usize| {
            (
                host[at + usize::from(mins[at])],
                host[at + usize::from(maxs[at])],
            )
        };
        let last = offset + self.gap;
        let (mut lo, mut hi) = row(offset);
        let mut at = offset + self.span;
        while at < last {
            let (l, h) = row(at);
            (lo, hi) = (lo.min(l), hi.max(h));
            at += self.span;
        }
        let (l, h) = row(last);
        (lo.min(l), hi.max(h))
    }
}

impl HostStats {
    /// Builds the prefix checkpoints for `host` in O(n) time.
    #[must_use]
    pub fn new(host: &[f32]) -> Self {
        let n = host.len();
        let mut checkpoints = Vec::with_capacity(n / CHECKPOINT + 1);
        checkpoints.push((0.0, 0.0));
        let (mut last, mut sum_scale) = ((0.0, 0.0), 0.0f64);
        for (i, at) in (1..).zip(replay(last, host)) {
            sum_scale = sum_scale.max(at.0.abs());
            if i % CHECKPOINT == 0 {
                checkpoints.push(at);
            }
            last = at;
        }
        let top = n.checked_ilog2().unwrap_or(0).min(MAX_SPAN.ilog2());
        HostStats {
            len: n,
            checkpoints: checkpoints.into_boxed_slice(),
            levels: (0..top).map(|_| OnceLock::new()).collect(),
            sum_scale,
            energy_scale: last.1,
        }
    }

    /// Length of the host signal the tables were built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the host was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Σ host[offset .. offset + w]`: the difference of two prefixes, each
    /// replayed from its checkpoint in at most 31 additions. `host` must be
    /// the signal the tables were built for; only its length is checked.
    ///
    /// # Panics
    ///
    /// Panics if `offset + w > len()` or `host.len() != len()`.
    #[must_use]
    pub fn window_sum(&self, host: &[f32], offset: usize, w: usize) -> f64 {
        self.window(host, offset, w).0
    }

    /// `Σ host[offset .. offset + w]²`: [`HostStats::window_sum`]'s twin,
    /// panics included.
    #[must_use]
    pub fn window_energy(&self, host: &[f32], offset: usize, w: usize) -> f64 {
        self.window(host, offset, w).1
    }

    fn window(&self, host: &[f32], offset: usize, w: usize) -> (f64, f64) {
        assert_eq!(host.len(), self.len(), "not the host these tables describe");
        WindowCursor::default().window(self, host, offset, w)
    }

    /// `min(host[offset .. offset + w])` in O(1) via two overlapping
    /// power-of-two blocks (`⌈w/256⌉` blocks of 256 past 511 samples)
    /// — after the one O(n log w) build of the level `w` reads, if this is
    /// its first use. `host` must be the signal the
    /// tables were built for: only its length is checked, and a level built
    /// from another signal of that length stays cached, in every clone and
    /// `Arc` of these tables.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`, `offset + w > len()` or `host.len() != len()`.
    #[must_use]
    pub fn window_min(&self, host: &[f32], offset: usize, w: usize) -> f32 {
        self.extrema(host, w).min_at(offset)
    }

    /// `max(host[offset .. offset + w])`: [`HostStats::window_min`]'s twin,
    /// panics included.
    #[must_use]
    pub fn window_max(&self, host: &[f32], offset: usize, w: usize) -> f32 {
        self.extrema(host, w).max_at(offset)
    }

    /// The rows windows of length `w` read, building their level on first
    /// use.
    pub(crate) fn extrema<'a>(&'a self, host: &'a [f32], w: usize) -> Extrema<'a> {
        assert_eq!(host.len(), self.len(), "not the host these tables describe");
        let k = w.ilog2().min(MAX_SPAN.ilog2()) as usize;
        let (mins, maxs): (&[u8], &[u8]) = match k.checked_sub(1) {
            None => (&[], &[]),
            Some(slot) => {
                let level = self.levels[slot].get_or_init(|| Level::build(host, k));
                (&level.mins, &level.maxs)
            }
        };
        let span = 1usize << k;
        Extrema {
            host,
            mins,
            maxs,
            span,
            gap: w - span,
        }
    }

    /// The sparse-table levels built so far, ascending: level `k < 8`
    /// answers windows of `2^k ..= 2^(k+1) − 1` samples, level 8 every
    /// window of 256 or more.
    pub fn built_levels(&self) -> impl Iterator<Item = usize> + '_ {
        (1..)
            .zip(self.levels.iter())
            .filter_map(|(k, level)| level.get().map(|_| k))
    }

    /// Heap footprint of the tables in bytes: the prefix checkpoints, the
    /// level slots and every level built so far.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let built = self.levels.iter().filter_map(OnceLock::get);
        let rows: usize = built.map(|l| l.mins.len() + l.maxs.len()).sum();
        std::mem::size_of_val(&*self.checkpoints)
            + std::mem::size_of_val(&*self.levels)
            + rows * std::mem::size_of::<u8>()
    }

    /// Total energy of the host — the scale on which every
    /// [`HostStats::window_energy`] carries rounding error.
    pub(crate) fn energy_scale(&self) -> f64 {
        self.energy_scale
    }

    /// Largest `|prefix sum|` over the host — the scale on which every
    /// [`HostStats::window_sum`] carries rounding error. Bound kernels that
    /// certify admissibility in floating point (the spectral envelopes)
    /// derive their slack from this.
    #[must_use]
    pub fn sum_scale(&self) -> f64 {
        self.sum_scale
    }
}

/// Eight-lane multi-accumulator dot product in f64, of two slices of
/// equal length.
///
/// Splitting the accumulation across independent lanes breaks the serial
/// dependency chain of a single accumulator, letting the CPU pipeline (and
/// auto-vectorize) the multiply-adds. The lanes are reduced pairwise at the
/// end, and trailing elements past the last multiple of 8 are folded into
/// the low lanes. The result differs from a single sequential accumulator
/// only by ULP-level reassociation.
fn dot8(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot8 takes slices of equal length");
    let mut lanes = [0.0f64; 8];
    let ac = a.chunks_exact(8);
    let bc = b.chunks_exact(8);
    let ar = ac.remainder();
    let br = bc.remainder();
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

/// Lanes of [`dot32`]: eight SSE registers of independent accumulators, and
/// the reason its error bound is small — no product sits under more than
/// `⌈w/32⌉ + 5` additions.
const DOT_LANES: usize = 32;

/// Spacing of the f32 subnormals (2⁻¹⁴⁹, rounded up): the most a product
/// that underflows can lose.
const F32_SUBNORMAL: f64 = 1.5e-45;

/// The bracket's dot product: 32 independent f32 lanes, reduced pairwise.
/// Slices of equal length (callers pass the query and one window).
#[inline]
fn dot32(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; DOT_LANES];
    accumulate32(&mut lanes, a, b);
    let mut half = DOT_LANES / 2;
    while half > 0 {
        for i in 0..half {
            lanes[i] += lanes[i + half];
        }
        half /= 2;
    }
    lanes[0]
}

/// Adds `aᵢ·bᵢ` to lane `i mod 32`. Out of line for the reason
/// `area::accumulate` is: inlined beside the reduction the vectorizer keeps
/// the lanes in memory; on its own this loop holds them in eight registers
/// and is bound by its loads.
#[inline(never)]
fn accumulate32(lanes: &mut [f32; DOT_LANES], a: &[f32], b: &[f32]) {
    let ac = a.chunks_exact(DOT_LANES);
    let bc = b.chunks_exact(DOT_LANES);
    let (ar, br) = (ac.remainder(), bc.remainder());
    for (xs, ys) in ac.zip(bc) {
        for i in 0..DOT_LANES {
            lanes[i] += xs[i] * ys[i];
        }
    }
    for (i, (&x, &y)) in ar.iter().zip(br).enumerate() {
        lanes[i] += x * y;
    }
}

/// `γ` with `|dot32(q̂, x) − dot8(q̂, x)| ≤ γ·Σq̂ᵢ|xᵢ|` for windows of length
/// `w`, underflow and overflow aside (the caller handles both).
///
/// An f32 product rounds once, then passes through at most `⌈w/32⌉` lane
/// additions and `log₂ 32` reduction levels: `k` roundings of `u = 2⁻²⁴`,
/// so `dot32` is within `k·u/(1 − k·u)·Σ|q̂ᵢxᵢ|` of the true sum. Two more
/// roundings of headroom cover that denominator and [`dot8`] (products
/// exact in f64, `⌈w/8⌉ + 3` additions at `2⁻⁵³`) thousands of times over.
fn dot_slack(w: usize) -> f64 {
    let roundings = 1 + w.div_ceil(DOT_LANES) + DOT_LANES.ilog2() as usize + 2;
    roundings as f64 * f64::from(f32::EPSILON) / 2.0
}

/// The largest step of the query grid: every `gᵢ ≤ 2¹⁴`.
const QUERY_STEPS: usize = 1 << 14;

/// 2⁵³: every integer below it is an `f64`.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// Lanes of [`idot`]: four SSE registers of `i32`.
const IDOT_LANES: usize = 16;

/// `Σ aᵢ·bᵢ` in `i32`, exact wherever `Σ|aᵢ·bᵢ| < 2³¹` (so the order is
/// the compiler's to choose; baseline x86-64 gets `pmaddwd`). Slices of
/// equal length. The tail is added after the lanes are: folded into
/// them, it keeps the loop from vectorizing.
#[inline]
fn idot(a: &[i16], b: &[i16]) -> i32 {
    let mut lanes = [0i32; IDOT_LANES];
    let (ac, bc) = (a.chunks_exact(IDOT_LANES), b.chunks_exact(IDOT_LANES));
    let (ar, br) = (ac.remainder(), bc.remainder());
    for (xs, ys) in ac.zip(bc) {
        for i in 0..IDOT_LANES {
            lanes[i] += i32::from(xs[i]) * i32::from(ys[i]);
        }
    }
    let tail: i32 = ar
        .iter()
        .zip(br)
        .map(|(&x, &y)| i32::from(x) * i32::from(y))
        .sum();
    lanes.iter().sum::<i32>() + tail
}

/// `q̂` on its power-of-two grid, for hosts of whole counts (see the
/// module docs).
#[derive(Debug, Clone)]
struct QueryGrid {
    /// `gᵢ = round(q̂ᵢ·S)`, each at most [`QUERY_STEPS`].
    steps: Vec<i16>,
    /// `1/S`, a power of two: `idot·(1/S)` is exact.
    step: f64,
    /// `qerr + (w + 8)·2⁻⁵³·Σq̂`: the bracket's half-width per unit of
    /// `M = max(|lo|, |hi|)`.
    slack: f64,
}

impl QueryGrid {
    /// The grid of `q̂` with `Σq̂ = qsum`: `S` the largest power of two with
    /// `S·max q̂ ≤ 2¹⁴` — at least 2¹⁴, as normalization keeps every `q̂ᵢ`
    /// in `[0, 1]`, and 2¹⁴ for a zero query. `None` for a query that is
    /// not finite, and where `qerr > Σq̂`, which the bracket's spare
    /// roundings do not cover.
    fn new(qhat: &[f32], qsum: f64) -> Option<Self> {
        if !qsum.is_finite() {
            return None;
        }
        let top = f64::from(qhat.iter().fold(0.0f32, |m, &q| m.max(q)));
        let largest = QUERY_STEPS as f64;
        let mut scale = largest;
        while top > 0.0 && top * scale * 2.0 <= largest {
            scale *= 2.0;
        }
        let grid: Vec<i16> = qhat
            .iter()
            .map(|&q| (f64::from(q) * scale).round() as i16)
            .collect();
        let step = 1.0 / scale;
        // Each term is exact; rounding every partial sum up bounds the sum.
        let qerr = qhat.iter().zip(&grid).fold(0.0f64, |acc, (&q, &g)| {
            (acc + (f64::from(q) - f64::from(g) * step).abs()).next_up()
        });
        let w = qhat.len();
        (qerr <= qsum).then(|| QueryGrid {
            steps: grid,
            step,
            slack: qerr + (w + 8) as f64 * (f64::EPSILON / 2.0) * qsum,
        })
    }
}

/// A host of whole counts, held in its thread's buffer while a
/// [`HostKernel`] scans it: the samples as `i16` and the prefixes of `Σx`
/// and `Σx²` as `i32`. The prefixes wrap; a window's differences do not,
/// since `w·max|x|² < 2³⁰`.
#[derive(Debug, Clone, Default)]
struct HostGrid {
    samples: Vec<i16>,
    /// `prefixes[i] = [Σ x[..i], Σ x[..i]²]`, modulo 2³².
    prefixes: Vec<[i32; 2]>,
}

thread_local! {
    static HOST_GRID: Cell<HostGrid> = Cell::default();
}

impl HostGrid {
    /// This thread's buffer holding `host` on the grid for windows of `w`
    /// samples, or `None` (the buffer left in place) unless every sample
    /// is a whole count with `w·2¹⁴·|x| < 2³¹` and `Σx² < 2⁵³`, so that
    /// every `f64` prefix is exact.
    fn bind(host: &[f32], stats: &HostStats, w: usize) -> Option<Self> {
        // A NaN or ±∞ sample leaves a NaN or infinite energy.
        let energy = stats.energy_scale();
        if energy.is_nan() || energy >= EXACT_INTEGERS {
            return None;
        }
        // At most 8 191 (`w ≥ 16`), so exact as an `f32`.
        let limit = (i32::MAX as usize / (w * QUERY_STEPS)) as f32;
        let mut grid = HOST_GRID.take();
        grid.samples.resize(host.len(), 0);
        let mut whole = true;
        for (count, &x) in grid.samples.iter_mut().zip(host) {
            // `area`'s rounding: exact below 2²², branch-free, and no libm
            // call (`f32::round` is one, and costs the grid its gain). A NaN
            // or `±∞` fails the range test.
            let rounded = x + ROUNDER;
            whole &= rounded - ROUNDER == x && x.abs() <= limit;
            *count = (rounded.to_bits() as i32).wrapping_sub(ROUNDER.to_bits() as i32) as i16;
        }
        if !whole {
            HOST_GRID.set(grid);
            return None;
        }
        grid.prefixes.resize(host.len() + 1, [0, 0]);
        let mut at = [0i32; 2];
        for (prefix, &c) in grid.prefixes[1..].iter_mut().zip(&grid.samples) {
            let c = i32::from(c);
            at = [at[0].wrapping_add(c), at[1].wrapping_add(c * c)];
            *prefix = at;
        }
        Some(grid)
    }

    /// `(Σw, Σw²)` over `samples[offset .. offset + w]`, exact.
    #[inline(always)]
    fn window(&self, offset: usize, w: usize) -> (f64, f64) {
        let ([s0, e0], [s1, e1]) = (self.prefixes[offset], self.prefixes[offset + w]);
        (
            f64::from(s1.wrapping_sub(s0)),
            f64::from(e1.wrapping_sub(e0)),
        )
    }
}

/// The paper's `ω` for one query, evaluated against host windows through
/// [`HostStats`]: per offset, `min`/`max`/`Σw`/`Σw²` cost O(1) and only the
/// dot product remains O(window).
///
/// Windows shorter than [`SMALL_WINDOW_FALLBACK`] and numerically
/// hazardous windows take a scalar pass over the window instead, through
/// the same finisher.
///
/// # Example
///
/// ```
/// use emap_dsp::kernel::{HostStats, KernelCorrelator};
///
/// # fn main() -> Result<(), emap_dsp::DspError> {
/// let query: Vec<f32> = (0..64).map(|n| (n as f32 * 0.31).sin()).collect();
/// let mut host = vec![0.0f32; 400];
/// for (i, v) in host.iter_mut().enumerate() {
///     *v = ((i as f32) * 0.17).cos();
/// }
/// host[100..164].copy_from_slice(&query);
///
/// let kc = KernelCorrelator::new(&query)?;
/// let stats = HostStats::new(&host);
/// assert!(kc.correlation_at(&host, &stats, 100)? > 0.999);
/// // q̂ is non-negative and has unit energy.
/// let q = kc.normalized_query();
/// assert!(q.iter().all(|&v| v >= 0.0));
/// let energy: f64 = q.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
/// assert!((energy - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KernelCorrelator {
    /// Min–max normalized, unit-energy query `q̂`.
    query: Vec<f32>,
    /// Query-constant `Σq̂`, hoisted out of the per-offset loop.
    qsum: f64,
    /// `q̂` on its integer grid, for hosts of whole counts.
    grid: Option<QueryGrid>,
}

impl KernelCorrelator {
    /// Normalizes and stores the query window: min–max to `[0, 1]` (a
    /// constant window maps to all zeros), then divided by its f64 L2 norm
    /// unless that is within `f64::EPSILON` of zero.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptySignal`] if the query is empty.
    pub fn new(query: &[f32]) -> Result<Self, DspError> {
        if query.is_empty() {
            return Err(DspError::EmptySignal);
        }
        let mm = minmax_normalize(query);
        let e = energy(&mm).sqrt();
        let query: Vec<f32> = if e <= f64::EPSILON {
            mm
        } else {
            mm.iter().map(|&v| (f64::from(v) / e) as f32).collect()
        };
        let qsum = query.iter().map(|&q| f64::from(q)).sum();
        let grid = QueryGrid::new(&query, qsum);
        Ok(KernelCorrelator { query, qsum, grid })
    }

    /// The normalized query `q̂` every window is correlated with.
    #[must_use]
    pub fn normalized_query(&self) -> &[f32] {
        &self.query
    }

    /// Length of the query window in samples.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.query.len()
    }

    /// The query-constant `Σq̂`.
    #[must_use]
    pub fn query_sum(&self) -> f64 {
        self.qsum
    }

    /// The paper's `ω` for the query against
    /// `host[offset .. offset + window_len]`, using `stats` for O(1) window
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `stats` was built for a host
    /// of a different length, or [`DspError::WindowOutOfBounds`] if the
    /// window does not fit in `host` at `offset`.
    pub fn correlation_at(
        &self,
        host: &[f32],
        stats: &HostStats,
        offset: usize,
    ) -> Result<f64, DspError> {
        self.check_fit(host, stats, offset)?;
        Ok(self.bind(host, stats).exact_at(offset))
    }

    /// Binds the kernel to one host for a scan: validates once what
    /// [`KernelCorrelator::correlation_at`] validates per offset, and gives
    /// access to the certified bracket ([`HostKernel::at`]) — on the
    /// integer grid when the host is whole counts (see the module docs),
    /// which costs one pass over the host.
    ///
    /// # Errors
    ///
    /// The errors of [`KernelCorrelator::correlation_at`] at offset 0.
    pub fn on_host<'a>(
        &'a self,
        host: &'a [f32],
        stats: &'a HostStats,
    ) -> Result<HostKernel<'a>, DspError> {
        self.check_fit(host, stats, 0)?;
        let mut kernel = self.bind(host, stats);
        if kernel.extrema.is_some() && self.grid.is_some() {
            kernel.grid = HostGrid::bind(host, stats, self.query.len());
        }
        Ok(kernel)
    }

    /// The scan handle for a host [`KernelCorrelator::check_fit`] accepted,
    /// off the grid. Windows below [`SMALL_WINDOW_FALLBACK`] never read a
    /// min/max, so they resolve (and build) no level.
    fn bind<'a>(&'a self, host: &'a [f32], stats: &'a HostStats) -> HostKernel<'a> {
        let w = self.query.len();
        HostKernel {
            kernel: self,
            host,
            stats,
            extrema: (w >= SMALL_WINDOW_FALLBACK).then(|| stats.extrema(host, w)),
            cursor: WindowCursor::default(),
            slack: dot_slack(w) * self.qsum,
            grid: None,
        }
    }

    fn check_fit(&self, host: &[f32], stats: &HostStats, offset: usize) -> Result<(), DspError> {
        let w = self.query.len();
        if stats.len() != host.len() {
            return Err(DspError::LengthMismatch {
                left: stats.len(),
                right: host.len(),
            });
        }
        if offset.checked_add(w).is_none_or(|end| end > host.len()) {
            return Err(DspError::WindowOutOfBounds {
                offset,
                window: w,
                len: host.len(),
            });
        }
        Ok(())
    }

    /// `ω` against one window of the query's length by a scalar pass:
    /// `min`/`max`/`Σw`/`Σw²`/`Σq̂·w` in one serial loop, then the
    /// finisher.
    fn scalar_omega(&self, win: &[f32]) -> f64 {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        let (mut sum, mut sumsq, mut qdot) = (0.0f64, 0.0f64, 0.0f64);
        for (&q, &x) in self.query.iter().zip(win) {
            lo = lo.min(x);
            hi = hi.max(x);
            let xf = f64::from(x);
            sum += xf;
            sumsq += xf * xf;
            qdot += f64::from(q) * xf;
        }
        WindowStats { lo, hi, sum, sumsq }.omega(self.query.len(), self.qsum, qdot)
    }
}

/// One window's statistics, however they were gathered (prefix sums and
/// the sparse table, or a scalar pass), as the finisher consumes them.
struct WindowStats {
    lo: f32,
    hi: f32,
    sum: f64,
    sumsq: f64,
}

impl WindowStats {
    /// The finisher: `ω` for the query dot product `qdot` — non-decreasing
    /// in `qdot` in floating point too: each step that involves it
    /// (subtract a constant, divide by two positives, clamp) is monotone
    /// under round-to-nearest.
    #[inline]
    fn omega(&self, w: usize, qsum: f64, qdot: f64) -> f64 {
        let span = f64::from(self.hi) - f64::from(self.lo);
        if span <= 0.0 || !span.is_finite() {
            return 0.0;
        }
        // ||(w − lo)/span||² = (Σw² − 2·lo·Σw + n·lo²)/span².
        let lo = f64::from(self.lo);
        let norm_sq = (self.sumsq - 2.0 * lo * self.sum + w as f64 * lo * lo) / (span * span);
        if norm_sq <= f64::EPSILON {
            return 0.0;
        }
        // dot(q̂, (w − lo)/span) = (dot(q̂, w) − lo·Σq̂)/span.
        let num = (qdot - lo * qsum) / span;
        (num / norm_sq.sqrt()).clamp(0.0, 1.0)
    }
}

/// Rescales a window to the `[0, 1]` range; a constant (or non-finite
/// span) window maps to all zeros.
fn minmax_normalize(signal: &[f32]) -> Vec<f32> {
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in signal {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    if span <= 0.0 || !span.is_finite() {
        return vec![0.0; signal.len()];
    }
    signal.iter().map(|&v| (v - lo) / span).collect()
}

/// What [`HostKernel::at`] reports for one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Omega {
    /// The exact `ω`: the bits of [`KernelCorrelator::correlation_at`].
    Exact(f64),
    /// `lo ≤ ω ≤ hi` for the exact `ω`; both ends finite, in `[0, 1]`.
    Bracket {
        /// Certified lower end.
        lo: f64,
        /// Certified upper end.
        hi: f64,
    },
}

/// A [`KernelCorrelator`] bound to one host by
/// [`KernelCorrelator::on_host`]: the per-(query, host) scan handle.
///
/// [`HostKernel::at`] swaps the f64 dot product for a cheaper one and
/// certifies the result: on a host of whole counts an exact integer dot
/// product on the query's grid (see the module docs), on any other an f32
/// one at well under half the cost. With `x` the window and
/// `M = max(|lo|, |hi|) ≥ |xᵢ|`,
///
/// ```text
/// |dot32 − dot8| ≤ γ·Σq̂ᵢ|xᵢ| ≤ γ·Σq̂·M =: E
/// ```
///
/// — the second step because `q̂ ≥ 0`, which turns the sum of magnitudes
/// into the `Σq̂` the correlator already holds (`γ`: `dot_slack`; one
/// subnormal per product is added for underflow, and overflow leaves
/// `dot32` non-finite and is caught). The finisher is monotone in the dot
/// product, so its values at `dot32 ∓ E` enclose its value at `dot8` — the
/// exact `ω` — with no further slack. Every window the exact path finishes
/// without the prefix-sum statistics (constant, short, cancellation guard
/// tripped, anything non-finite) is reported exact, never bracketed —
/// except, on the grid, a tripped guard: there the statistics are exact,
/// and the bracket covers the scalar pass's dot product too.
///
/// The handle reads window sums through prefix cursors that remember
/// where the last window stood, so a scan whose offsets move forward pays
/// a few additions a window. Calls in any order return the same bits.
#[derive(Debug, Clone)]
pub struct HostKernel<'a> {
    kernel: &'a KernelCorrelator,
    host: &'a [f32],
    stats: &'a HostStats,
    /// The min/max rows of the query's window length, resolved once per
    /// host; `None` below [`SMALL_WINDOW_FALLBACK`], where the scalar path
    /// answers every window.
    extrema: Option<Extrema<'a>>,
    /// Where the last window's sums were read.
    cursor: WindowCursor,
    /// `γ·Σq̂`; NaN for a query that is not finite, which voids every bracket.
    slack: f64,
    /// The host on the query's grid, held until the handle drops: `Some`
    /// only for a host of whole counts within the grid's range.
    grid: Option<HostGrid>,
}

impl Drop for HostKernel<'_> {
    /// Hands the grid buffer back to its thread for the next host.
    fn drop(&mut self) {
        if let Some(grid) = self.grid.take() {
            // Past the thread's teardown there is no next host.
            let _ = HOST_GRID.try_with(|buffer| buffer.set(grid));
        }
    }
}

impl HostKernel<'_> {
    /// The last offset at which the window fits.
    #[must_use]
    pub fn last_offset(&self) -> usize {
        self.host.len() - self.kernel.query.len()
    }

    /// The exact `ω` at `offset`; panics past [`HostKernel::last_offset`].
    #[must_use]
    pub fn exact_at(&mut self, offset: usize) -> f64 {
        let k = self.kernel;
        match self.front(offset) {
            Some(s) => {
                let win = &self.host[offset..offset + k.query.len()];
                s.omega(k.query.len(), k.qsum, dot8(&k.query, win))
            }
            None => self.settle(offset),
        }
    }

    /// A certified bracket of the exact `ω` at `offset`, or the exact `ω`
    /// itself where none is certified; panics past
    /// [`HostKernel::last_offset`].
    ///
    /// One straight line for every window the prefix statistics serve:
    /// two row reads per extremum, then, on the grid, the integer window
    /// sums and dot product; off it, the prefix replay, the guard and the
    /// f32 dot product; then the finisher at both ends, in place.
    /// Whatever leaves it — a window below [`SMALL_WINDOW_FALLBACK`], a
    /// constant or non-finite span, the guard tripped off the grid, the
    /// dot product not finite, a NaN end — takes [`HostKernel::exact_at`],
    /// which answers each the way the bracket route would have.
    #[must_use]
    #[inline(always)]
    pub fn at(&mut self, offset: usize) -> Omega {
        let k = self.kernel;
        let w = k.query.len();
        let mut front = None;
        if let (Some(host), Some(query), Some(extrema)) = (&self.grid, &k.grid, self.extrema) {
            let (lo, hi) = extrema.bounds(offset);
            // Whole counts: the span is finite, and 0 or at least 1.
            if hi > lo {
                let (sum, sumsq) = host.window(offset, w);
                let x = &host.samples[offset..offset + w];
                let qdot = f64::from(idot(&query.steps, x)) * query.step;
                let reach = f64::from(lo.abs().max(hi.abs()));
                front = Some((
                    WindowStats { lo, hi, sum, sumsq },
                    qdot,
                    query.slack * reach,
                ));
            }
        } else if let Some(s) = self.front(offset) {
            let qdot = f64::from(dot32(&k.query, &self.host[offset..offset + w]));
            let reach = f64::from(s.lo.abs().max(s.hi.abs()));
            front = Some((s, qdot, self.slack * reach + w as f64 * F32_SUBNORMAL));
        }
        if let Some((s, qdot, e)) = front {
            let lo = s.omega(w, k.qsum, qdot - e);
            let hi = s.omega(w, k.qsum, qdot + e);
            // A non-finite `dot32` overflowed; a NaN end fails `<=`.
            if qdot.is_finite() && lo <= hi {
                return Omega::Bracket { lo, hi };
            }
        }
        Omega::Exact(self.exact_at(offset))
    }

    /// The O(1) front half of one evaluation: the window's statistics from
    /// two row reads per extremum and the prefix cursors (on the grid, its
    /// integer prefixes), or `None` for a
    /// window they do not serve — below [`SMALL_WINDOW_FALLBACK`], a
    /// constant or non-finite span, or a centered energy the guard does not
    /// trust. Those are [`HostKernel::settle`]'s.
    #[inline(always)]
    fn front(&mut self, offset: usize) -> Option<WindowStats> {
        let (lo, hi) = self.extrema?.bounds(offset);
        let span = f64::from(hi) - f64::from(lo);
        if span <= 0.0 || !span.is_finite() {
            return None;
        }
        let (stats, w) = (self.stats, self.kernel.query.len());
        // On the grid every prefix is an exact integer below 2⁵³, so the
        // grid's integer differences are the cursor's bits, without its
        // replay from a checkpoint (`at` on the grid never moves it).
        let (sum, sumsq) = match &self.grid {
            Some(grid) => grid.window(offset, w),
            None => self.cursor.window(stats, self.host, offset, w),
        };
        let lo_f = f64::from(lo);
        let centered = sumsq - 2.0 * lo_f * sum + w as f64 * lo_f * lo_f;
        // Cancellation hazard: the identity above subtracts quantities whose
        // magnitude can dwarf the result (nearly constant windows far from
        // zero), and the prefix differences carry ULP noise proportional to
        // the *whole-host* scale (quiet windows inside loud hosts). Either
        // way precision is gone — take the scalar pass.
        //
        // The test is `centered > 1e-4 · max(magnitudes)`, asked of each
        // magnitude in turn (rounding the product is monotone, so the
        // answer is the same). A NaN centered energy fails every
        // comparison (the first three magnitudes are NaN only when it is);
        // a NaN host scale drops out, as `f64::max` drops it.
        let trusted = |magnitude: f64| centered > CANCELLATION_GUARD * magnitude;
        let host_scale = stats.energy_scale + 2.0 * lo_f.abs() * stats.sum_scale;
        if !(trusted(sumsq.abs())
            && trusted((2.0 * lo_f * sum).abs())
            && trusted(w as f64 * lo_f * lo_f)
            && (host_scale.is_nan() || trusted(host_scale)))
        {
            return None;
        }
        Some(WindowStats { lo, hi, sum, sumsq })
    }

    /// The exact `ω` of a window [`HostKernel::front`] declines: 0 for a
    /// constant or non-finite span (no dot product), the scalar pass for
    /// the rest.
    #[cold]
    #[inline(never)]
    fn settle(&self, offset: usize) -> f64 {
        if let Some(extrema) = self.extrema {
            let (lo, hi) = extrema.bounds(offset);
            let span = f64::from(hi) - f64::from(lo);
            if span <= 0.0 || !span.is_finite() {
                return 0.0;
            }
        }
        let k = self.kernel;
        k.scalar_omega(&self.host[offset..offset + k.query.len()])
    }
}

/// The sequential prefix oracle the integration tests pin the replay to,
/// shared with this module's tests of the crate-private cursor.
#[cfg(test)]
#[path = "../tests/oracle/prefix.rs"]
mod prefix_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn wave_host(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.23).sin() * 2.0 + ((i as f32) * 0.071).cos() * 0.7)
            .collect()
    }

    fn wave_query(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.31).sin()).collect()
    }

    /// The scalar pass over the window at `offset`: the route short and
    /// hazardous windows take.
    fn naive(kc: &KernelCorrelator, host: &[f32], offset: usize) -> f64 {
        kc.scalar_omega(&host[offset..offset + kc.window_len()])
    }

    #[test]
    fn prefix_sums_match_direct_loops() {
        let host = wave_host(257);
        let stats = HostStats::new(&host);
        for &(off, w) in &[(0usize, 257usize), (0, 1), (256, 1), (13, 100), (200, 57)] {
            let direct_sum: f64 = host[off..off + w].iter().map(|&x| f64::from(x)).sum();
            let direct_energy: f64 = host[off..off + w]
                .iter()
                .map(|&x| f64::from(x) * f64::from(x))
                .sum();
            assert!((stats.window_sum(&host, off, w) - direct_sum).abs() < 1e-9);
            assert!((stats.window_energy(&host, off, w) - direct_energy).abs() < 1e-9);
        }
    }

    #[test]
    fn rmq_matches_sequential_fold_exactly() {
        let host = wave_host(300);
        let stats = HostStats::new(&host);
        for w in 1..=host.len() {
            for off in 0..=host.len() - w {
                let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                for &x in &host[off..off + w] {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
                assert_eq!(stats.window_min(&host, off, w), lo, "min at ({off}, {w})");
                assert_eq!(stats.window_max(&host, off, w), hi, "max at ({off}, {w})");
            }
        }
        // Every length was asked for, so every level now exists.
        assert_eq!(
            stats.built_levels().collect::<Vec<_>>(),
            (1..=8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn levels_are_built_only_when_a_window_asks() {
        let host = wave_host(1000);
        let stats = HostStats::new(&host);
        let prefixes = stats.memory_bytes();
        // 32 checkpoints of two f64s and eight empty level slots, spans 2
        // to 256.
        assert_eq!(
            prefixes,
            32 * 2 * 8 + 8 * std::mem::size_of::<OnceLock<Level>>()
        );
        // Sums and energies never touch a level, nor does a one-sample
        // window, nor a kernel bound to a window the scalar path answers.
        let _ = stats.window_sum(&host, 3, 256) + stats.window_energy(&host, 3, 256);
        let _ = stats.window_min(&host, 999, 1);
        let short = KernelCorrelator::new(&wave_query(SMALL_WINDOW_FALLBACK - 1)).unwrap();
        let _ = short.correlation_at(&host, &stats, 5).unwrap();
        assert_eq!(stats.built_levels().count(), 0);
        assert_eq!(stats.memory_bytes(), prefixes);

        let kc = KernelCorrelator::new(&wave_query(256)).unwrap();
        let _ = kc.on_host(&host, &stats).unwrap();
        assert_eq!(stats.built_levels().collect::<Vec<_>>(), [8]);
        // Two one-byte offsets per row: 1 490 bytes.
        assert_eq!(stats.memory_bytes(), prefixes + 2 * (1000 - 256 + 1));
        // 300 reads the same level, and so does every longer window.
        let _ = stats.window_max(&host, 0, 300);
        let _ = stats.window_min(&host, 0, 1000);
        assert_eq!(stats.built_levels().collect::<Vec<_>>(), [8]);
        // A clone carries what was built.
        assert_eq!(stats.clone().memory_bytes(), stats.memory_bytes());
    }

    /// Hosts thick with what a replay must carry bit for bit: NaN, `±∞`,
    /// subnormals and `±1e30` among ordinary samples — or none of them.
    fn hostile_prefix_host(rng: &mut SeededRng, n: usize) -> Vec<f32> {
        let rare = rng.bool(0.5);
        (0..n)
            .map(|_| match rng.index(if rare { 400 } else { 40 }) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3..=6 => 1e-40 * (rng.f64() as f32 - 0.5),
                7 | 8 => 1e30,
                9 | 10 => -1e30,
                _ => rng.range_f64(-8.0..8.0) as f32,
            })
            .collect()
    }

    /// A prefix's bits, every NaN as one: a NaN's sign and payload are
    /// not the replay's to keep (see [`replay`]).
    fn bits((sum, energy): Prefix) -> (u64, u64) {
        let bits = |v: f64| {
            if v.is_nan() {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            }
        };
        (bits(sum), bits(energy))
    }

    /// The prefix cursor, moved ascending with random skips, descending or
    /// at random, gives the sequential oracle's bits at every index (a NaN
    /// where it holds a NaN), on lengths around every multiple of the
    /// checkpoint interval up to 1 100.
    #[test]
    fn the_prefix_cursor_is_the_oracle_bit_for_bit() {
        let mut rng = SeededRng::seed_from_u64(0x9e91_a7c0);
        let lengths = (0..=1100 / CHECKPOINT).flat_map(|k| {
            [
                k * CHECKPOINT,
                k * CHECKPOINT + 1,
                (k * CHECKPOINT).max(1) - 1,
            ]
        });
        for n in lengths.chain([0, 1, 1000, 1099, 1100]) {
            let host = hostile_prefix_host(&mut rng, n);
            let table = prefix_oracle::prefixes(&host);
            let stats = HostStats::new(&host);
            assert_eq!(stats.checkpoints.len(), n / CHECKPOINT + 1);

            let ascending: Vec<usize> = (0..=n).filter(|_| rng.bool(0.7)).collect();
            let descending: Vec<usize> = (0..=n).rev().collect();
            let random: Vec<usize> = (0..2 * n + 1).map(|_| rng.index(n + 1)).collect();
            for order in [ascending, descending, random] {
                let mut cursor = Cursor::default();
                for &i in &order {
                    let at = cursor.seek(&stats, &host, i);
                    assert_eq!(bits(at), bits(table[i]), "n = {n}, index {i}");
                }
                let mut windows = WindowCursor::default();
                for &i in &order {
                    let w = rng.index(n - i + 1);
                    let (sum, energy) = windows.window(&stats, &host, i, w);
                    let (lo, hi) = (table[i], table[i + w]);
                    assert_eq!(bits((sum, energy)), bits((hi.0 - lo.0, hi.1 - lo.1)));
                }
                // One width throughout, as a scan reads it: ascending, the
                // two cursors step together in one loop.
                let w = rng.index(n + 1);
                let mut windows = WindowCursor::default();
                for &i in order.iter().filter(|&&i| i + w <= n) {
                    let (sum, energy) = windows.window(&stats, &host, i, w);
                    let (lo, hi) = (table[i], table[i + w]);
                    assert_eq!(bits((sum, energy)), bits((hi.0 - lo.0, hi.1 - lo.1)));
                }
            }
            assert_eq!(
                stats.memory_bytes(),
                (n / CHECKPOINT + 1) * 16
                    + stats.levels.len() * std::mem::size_of::<OnceLock<Level>>()
            );
            assert_eq!(
                stats.sum_scale(),
                table.iter().fold(0.0f64, |m, p| m.max(p.0.abs()))
            );
            assert_eq!(bits((0.0, stats.energy_scale())), bits((0.0, table[n].1)));
        }
    }

    #[test]
    fn racing_first_queries_observe_one_table() {
        let host = wave_host(1000);
        for _ in 0..32 {
            let stats = std::sync::Arc::new(HostStats::new(&host));
            let barrier = std::sync::Barrier::new(2);
            let race = || {
                barrier.wait();
                let lo = stats.window_min(&host, 17, 256);
                (
                    stats.extrema(&host, 256).mins.as_ptr() as usize,
                    lo.to_bits(),
                )
            };
            let (a, b) = std::thread::scope(|s| {
                let (a, b) = (s.spawn(race), s.spawn(race));
                (a.join().unwrap(), b.join().unwrap())
            });
            assert_eq!(a, b);
            assert_eq!(stats.built_levels().collect::<Vec<_>>(), [8]);
        }
    }

    #[test]
    #[should_panic(expected = "not the host")]
    fn min_max_reject_a_host_of_another_length() {
        let host = wave_host(300);
        let _ = HostStats::new(&host).window_min(&host[..200], 0, 64);
    }

    #[test]
    fn dot8_matches_sequential_dot() {
        for n in [0usize, 1, 7, 8, 9, 16, 255, 256] {
            let a = wave_host(n);
            let b = wave_query(n);
            let seq: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| f64::from(x) * f64::from(y))
                .sum();
            assert!(
                (dot8(&a, &b) - seq).abs() < 1e-12,
                "n = {n}: {} vs {seq}",
                dot8(&a, &b)
            );
        }
    }

    #[test]
    fn kernel_matches_naive_on_realistic_content() {
        let host = wave_host(1000);
        let query = wave_query(256);
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        for offset in (0..=744).step_by(7) {
            let fast = kc.correlation_at(&host, &stats, offset).unwrap();
            let slow = naive(&kc, &host, offset);
            assert!(
                (fast - slow).abs() < 1e-9,
                "offset {offset}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn minmax_maps_to_unit_range() {
        assert_eq!(minmax_normalize(&[-10.0, 0.0, 30.0]), [0.0, 0.25, 1.0]);
        assert_eq!(minmax_normalize(&[5.0; 4]), [0.0; 4]);
        assert!(minmax_normalize(&[]).is_empty());
    }

    /// The properties the paper's numbers rest on (`DESIGN.md` §3): a
    /// scaled, shifted copy of the query scores 1 and is found where it
    /// sits, and an unrelated rhythm scores moderately, not near zero.
    #[test]
    fn omega_is_affine_invariant_and_moderate_off_match() {
        let query = wave_query(64);
        let mut host: Vec<f32> = (0..400).map(|n| (n as f32 * 0.17).cos()).collect();
        for (i, &q) in query.iter().enumerate() {
            host[150 + i] = 2.0 * q + 5.0;
        }
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let (best_off, best) = (0..=host.len() - 64)
            .map(|offset| (offset, kc.correlation_at(&host, &stats, offset).unwrap()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(best_off, 150);
        assert!(best > 1.0 - 1e-5, "best {best}");

        let a: Vec<f32> = (0..256).map(|n| (n as f32 * 0.31).sin()).collect();
        let b: Vec<f32> = (0..256).map(|n| (n as f32 * 0.47 + 1.3).sin()).collect();
        let kc = KernelCorrelator::new(&a).unwrap();
        let omega = kc.correlation_at(&b, &HostStats::new(&b), 0).unwrap();
        assert!((0.4..0.95).contains(&omega), "got {omega}");
    }

    #[test]
    fn constant_window_is_exactly_zero_on_both_paths() {
        let mut host = wave_host(400);
        for v in &mut host[100..200] {
            *v = 3.25;
        }
        let query = wave_query(64);
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        assert_eq!(kc.correlation_at(&host, &stats, 118).unwrap(), 0.0);
        assert_eq!(naive(&kc, &host, 118), 0.0);
    }

    #[test]
    fn nearly_constant_window_falls_back_and_agrees_exactly() {
        // Amplitude 1e-3 around a baseline of 5: the centered-energy
        // identity cancels catastrophically, which must trigger the scalar
        // fallback — the two paths then agree bit for bit.
        let host: Vec<f32> = (0..600)
            .map(|i| 5.0 + ((i as f32) * 0.37).sin() * 1e-3)
            .collect();
        let query = wave_query(256);
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        for offset in [0usize, 100, 344] {
            let fast = kc.correlation_at(&host, &stats, offset).unwrap();
            let slow = naive(&kc, &host, offset);
            assert_eq!(fast, slow, "offset {offset}");
        }
    }

    #[test]
    fn quiet_window_inside_loud_host_agrees() {
        let mut host = wave_host(1000);
        for (i, v) in host[300..700].iter_mut().enumerate() {
            *v = ((i as f32) * 0.29).sin() * 1e-5;
        }
        let query = wave_query(256);
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        for offset in [350usize, 400, 444] {
            let fast = kc.correlation_at(&host, &stats, offset).unwrap();
            let slow = naive(&kc, &host, offset);
            assert!(
                (fast - slow).abs() < 1e-9,
                "offset {offset}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn window_equal_to_host_length() {
        let host = wave_host(256);
        let query = wave_query(256);
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        let fast = kc.correlation_at(&host, &stats, 0).unwrap();
        let slow = naive(&kc, &host, 0);
        assert!((fast - slow).abs() < 1e-9);
        assert!(kc.correlation_at(&host, &stats, 1).is_err());
    }

    #[test]
    fn small_windows_take_the_exact_scalar_path() {
        let host = wave_host(100);
        let query = wave_query(SMALL_WINDOW_FALLBACK - 1);
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        for offset in 0..=(host.len() - query.len()) {
            assert_eq!(
                kc.correlation_at(&host, &stats, offset).unwrap(),
                naive(&kc, &host, offset),
                "offset {offset}"
            );
        }
    }

    #[test]
    fn mismatched_stats_rejected() {
        let host = wave_host(300);
        let query = wave_query(64);
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host[..200]);
        assert!(matches!(
            kc.correlation_at(&host, &stats, 0),
            Err(DspError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn bounds_checked() {
        let host = wave_host(100);
        let query = wave_query(64);
        let kc = KernelCorrelator::new(&query).unwrap();
        let stats = HostStats::new(&host);
        assert!(kc.correlation_at(&host, &stats, 37).is_err());
        assert!(kc.correlation_at(&host, &stats, usize::MAX).is_err());
        assert!(kc.correlation_at(&host, &stats, 36).is_ok());
        assert!(KernelCorrelator::new(&[]).is_err());
    }

    /// Every offset of `host` through the handle: an exact report must be
    /// `correlation_at`'s bits, a bracket must contain them. Returns how
    /// many offsets were reported exact.
    fn exact_reports(kc: &KernelCorrelator, host: &[f32]) -> usize {
        let stats = HostStats::new(host);
        let mut hk = kc.on_host(host, &stats).unwrap();
        assert_eq!(hk.last_offset(), host.len() - kc.window_len());
        let mut exact = 0;
        for offset in 0..=hk.last_offset() {
            let oracle = kc.correlation_at(host, &stats, offset).unwrap();
            assert_eq!(hk.exact_at(offset).to_bits(), oracle.to_bits());
            match hk.at(offset) {
                Omega::Exact(omega) => {
                    assert_eq!(omega.to_bits(), oracle.to_bits(), "offset {offset}");
                    exact += 1;
                }
                Omega::Bracket { lo, hi } => {
                    assert!(lo <= oracle && oracle <= hi, "offset {offset}");
                    assert!((0.0..=1.0).contains(&lo) && hi <= 1.0, "offset {offset}");
                }
            }
        }
        exact
    }

    #[test]
    fn healthy_windows_get_tight_brackets() {
        let host = wave_host(1000);
        let kc = KernelCorrelator::new(&wave_query(256)).unwrap();
        assert_eq!(exact_reports(&kc, &host), 0);
        let stats = HostStats::new(&host);
        let mut hk = kc.on_host(&host, &stats).unwrap();
        for offset in 0..=hk.last_offset() {
            let Omega::Bracket { lo, hi } = hk.at(offset) else {
                unreachable!()
            };
            assert!(hi - lo < 1e-5, "offset {offset}: width {}", hi - lo);
        }
    }

    #[test]
    fn hostile_numerics_are_reported_exact_never_bracketed() {
        let kc = KernelCorrelator::new(&wave_query(256)).unwrap();
        let all = 1000 - 256 + 1;

        // One NaN (or ±∞) poisons every prefix after it: with the sample at
        // index 0 that is every window.
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut host = wave_host(1000);
            host[0] = poison;
            assert_eq!(exact_reports(&kc, &host), all, "{poison}");
        }
        // Mid-host, only the windows before it can still be bracketed.
        let mut host = wave_host(1000);
        host[600] = f32::NAN;
        assert_eq!(exact_reports(&kc, &host), all - (600 - 256 + 1));

        // Near f32::MAX the lane sums overflow and dot32 is not finite.
        let huge: Vec<f32> = wave_host(1000).iter().map(|x| 2e38 + x * 3e37).collect();
        assert_eq!(exact_reports(&kc, &huge), all);

        // A 1e-3 ripple on a baseline of 5 trips the cancellation guard.
        let ripple: Vec<f32> = (0..1000)
            .map(|i| 5.0 + ((i as f32) * 0.37).sin() * 1e-3)
            .collect();
        assert_eq!(exact_reports(&kc, &ripple), all);

        // Constant windows are exactly zero.
        let mut flat = wave_host(1000);
        flat[200..800].fill(3.25);
        let stats = HostStats::new(&flat);
        let mut hk = kc.on_host(&flat, &stats).unwrap();
        assert_eq!(hk.at(300), Omega::Exact(0.0));
        assert!(exact_reports(&kc, &flat) > 800 - 200 - 256);

        // Below SMALL_WINDOW_FALLBACK the scalar path answers.
        let short = KernelCorrelator::new(&wave_query(SMALL_WINDOW_FALLBACK - 1)).unwrap();
        let host = wave_host(100);
        assert_eq!(exact_reports(&short, &host), 100 - 15 + 1);

        // A query that is not finite voids every bracket.
        let mut query = wave_query(256);
        query[7] = f32::NAN;
        let nan_query = KernelCorrelator::new(&query).unwrap();
        assert_eq!(exact_reports(&nan_query, &wave_host(1000)), all);
    }

    #[test]
    fn large_but_finite_amplitudes_keep_valid_brackets() {
        // ω is scale-invariant and q̂ ≤ 1, so 1e30-scaled samples neither
        // overflow the f32 products nor widen the bracket.
        let kc = KernelCorrelator::new(&wave_query(256)).unwrap();
        let host: Vec<f32> = wave_host(1000).iter().map(|x| x * 1e30).collect();
        assert_eq!(exact_reports(&kc, &host), 0);
        // At the other end products underflow and the bracket says so.
        let tiny: Vec<f32> = wave_host(1000).iter().map(|x| x * 1e-42).collect();
        exact_reports(&kc, &tiny);
    }

    /// A host of whole counts within the grid's range is bracketed on the
    /// grid, from its thread's one buffer; a half count, a NaN, a count
    /// past the range or a short window keeps the f32 route. On the grid a
    /// window that trips the cancellation guard is bracketed, and its
    /// bracket holds the scalar pass's `ω`.
    #[test]
    fn whole_count_hosts_take_the_grid_from_one_buffer() {
        let kc = KernelCorrelator::new(&wave_query(256)).unwrap();
        let whole: Vec<f32> = wave_host(1000)
            .iter()
            .map(|x| (x * 100.0).round())
            .collect();
        let stats = HostStats::new(&whole);
        let first = kc.on_host(&whole, &stats).unwrap();
        let buffer = first.grid.as_ref().map(|grid| grid.samples.as_ptr());
        assert!(buffer.is_some());
        drop(first);
        let again = kc.on_host(&whole, &stats).unwrap();
        assert_eq!(again.grid.as_ref().map(|g| g.samples.as_ptr()), buffer);
        assert_eq!(exact_reports(&kc, &whole), 0);

        // 511 is the largest count windows of 256 take: 256·2¹⁴·512 = 2³¹.
        for (at, value, on_grid) in [(7, 511.0, true), (7, 512.0, false), (9, 0.5, false)] {
            let mut host = whole.clone();
            host[at] = value;
            let stats = HostStats::new(&host);
            let hk = kc.on_host(&host, &stats).unwrap();
            assert_eq!(hk.grid.is_some(), on_grid, "{value}");
        }
        let mut nan = whole.clone();
        nan[600] = f32::NAN;
        assert!(kc
            .on_host(&nan, &HostStats::new(&nan))
            .unwrap()
            .grid
            .is_none());
        let short = KernelCorrelator::new(&wave_query(SMALL_WINDOW_FALLBACK - 1)).unwrap();
        assert!(short.on_host(&whole, &stats).unwrap().grid.is_none());

        // Counts of 400 and, every 50th, 401: the guard trips everywhere.
        let ripple: Vec<f32> = (0..1000)
            .map(|i| if i % 50 == 0 { 401.0 } else { 400.0 })
            .collect();
        let stats = HostStats::new(&ripple);
        let mut hk = kc.on_host(&ripple, &stats).unwrap();
        assert!(hk.grid.is_some());
        for offset in 0..=hk.last_offset() {
            assert!(hk.front(offset).is_none(), "offset {offset}: guard held");
            let exact = naive(&kc, &ripple, offset);
            assert_eq!(hk.exact_at(offset).to_bits(), exact.to_bits());
            let Omega::Bracket { lo, hi } = hk.at(offset) else {
                panic!("offset {offset}: not bracketed")
            };
            assert!(lo <= exact && exact <= hi, "offset {offset}");
        }
    }

    #[test]
    fn on_host_validates_what_correlation_at_validates() {
        let host = wave_host(300);
        let kc = KernelCorrelator::new(&wave_query(64)).unwrap();
        assert!(matches!(
            kc.on_host(&host, &HostStats::new(&host[..200])),
            Err(DspError::LengthMismatch { .. })
        ));
        assert!(matches!(
            kc.on_host(&host[..63], &HostStats::new(&host[..63])),
            Err(DspError::WindowOutOfBounds { .. })
        ));
        assert!(kc
            .on_host(&host[..64], &HostStats::new(&host[..64]))
            .is_ok());
    }

    #[test]
    fn empty_host_stats() {
        let stats = HostStats::new(&[]);
        assert!(stats.is_empty());
        assert_eq!(stats.len(), 0);
    }
}
