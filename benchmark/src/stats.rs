//! The harness's own arithmetic: percentiles, medians, the decision digest
//! and the seed → arrangement generator.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median; the mean of the middle two for an even count, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Each op's fastest time over the cycles. Every cycle runs the same ops in
/// the same order, so index `i` is the same op in each of them.
pub fn fastest_per_op(cycles: &[&[u64]]) -> Vec<u64> {
    let ops = cycles.first().map_or(0, |c| c.len());
    (0..ops)
        .map(|i| cycles.iter().map(|c| c[i]).min().unwrap_or(0))
        .collect()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a over 64-bit words: the decision digest. Order-sensitive, so two
/// runs agree only if they made the same decisions in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// splitmix64: turns `--seed` into the arrangement. The program under test
/// never sees this generator or the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// A Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples is the 90th: exactly ten lie beyond it, the
        // fewest the choosing-metrics rule accepts; one sample fewer and
        // p90 no longer qualifies.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        // One 32-op cycle leaves three beyond its p90; six cycles, eighteen.
        assert_eq!(samples_beyond(32, 0.9), 3);
        assert_eq!(samples_beyond(64, 0.9), 6);
        assert_eq!(samples_beyond(10, 0.5), 5);
        assert_eq!(samples_beyond(1, 0.9), 0);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn median_over_cycles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow cycle (a busy neighbour) does not move the median.
        assert_eq!(median(&[10.0, 10.1, 9.9, 10.0, 3.0]), 10.0);
    }

    #[test]
    fn fastest_per_op_over_cycles() {
        assert!(fastest_per_op(&[]).is_empty());
        assert_eq!(fastest_per_op(&[&[5, 7, 9]]), vec![5, 7, 9]);
        // A neighbour's burst over the second half of one cycle and the
        // first op of another leaves every op one undisturbed sample.
        let cycles: [&[u64]; 3] = [&[50, 80, 95, 60], &[10, 20, 30, 40], &[11, 19, 31, 90]];
        assert_eq!(fastest_per_op(&cycles), vec![10, 19, 30, 40]);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        for w in [1u64, 2, 3] {
            a.word(w);
            b.word(w);
        }
        assert_eq!(a, b);
        // Pinned: a changed digest function would make every digest a run
        // has ever printed incomparable.
        assert_eq!(a.value(), 0xda2b_fb22_5e0d_1f05);
        let mut c = Digest::new();
        for w in [1u64, 3, 2] {
            c.word(w);
        }
        assert_ne!(a, c);
        assert_ne!(Digest::new().value(), a.value());
    }

    #[test]
    fn permutation_is_a_permutation_and_depends_on_seed() {
        let p1 = SplitMix64::new(1).permutation(64);
        let p2 = SplitMix64::new(2).permutation(64);
        assert_ne!(p1, p2);
        assert_eq!(p1, SplitMix64::new(1).permutation(64));
        for p in [p1, p2] {
            let mut s = p.clone();
            s.sort_unstable();
            assert_eq!(s, (0..64).collect::<Vec<_>>());
        }
    }
}
