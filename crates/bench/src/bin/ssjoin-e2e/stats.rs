//! Sample statistics, output digests, and the seeded op-stream generator.

/// Median of `xs` (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Samples that must lie beyond a reported tail percentile, so the tail
/// rests on more than a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly above its rank.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// A measured value with the sample count and range it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub n: usize,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// The median of `xs` with their count and range; `None` for no samples.
    pub fn median_of(xs: &[f64]) -> Option<Self> {
        Self::with_value(xs, median(xs)?)
    }

    /// `value` (a statistic of `xs`) with the count and range of `xs`.
    pub fn with_value(xs: &[f64], value: f64) -> Option<Self> {
        let min = xs.iter().copied().reduce(f64::min)?;
        let max = xs.iter().copied().reduce(f64::max)?;
        Some(Self {
            value,
            n: xs.len(),
            min,
            max,
        })
    }

    /// A single derived value (a ratio of other measurements).
    pub fn single(value: f64) -> Self {
        Self {
            value,
            n: 1,
            min: value,
            max: value,
        }
    }
}

/// 64-bit FNV-1a over `bytes`, continuing from `state` (start from
/// [`FNV_OFFSET`]).
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// FNV-1a initial state.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Order-independent digest of join output: the `(r, s)` pairs are sorted
/// before hashing, so two runs that emit the same pairs in different orders
/// agree.
pub fn pair_digest(pairs: &mut [(u32, u32)]) -> u64 {
    pairs.sort_unstable();
    pairs.iter().fold(FNV_OFFSET, |h, &(r, s)| {
        fnv1a(fnv1a(h, &r.to_le_bytes()), &s.to_le_bytes())
    })
}

/// The splitmix64 generator: a tiny, fully specified stream, so a seed maps
/// to the same requests on every platform and in every version of this
/// repository.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough value in `0..n` (modulo bias is irrelevant at the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// `count` distinct values in `0..n`, in draw order.
    pub fn distinct_below(&mut self, n: usize, count: usize) -> Vec<usize> {
        let count = count.min(n);
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let v = self.below(n);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 leaves exactly 10 samples above it.
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&xs, 50.0), Some(500.0));
        // p99.9 would rest on one sample; refused.
        assert_eq!(tail_percentile(&xs, 99.9), None);
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(tail_percentile(&xs[..999], 99.0), None);
        assert_eq!(tail_percentile(&xs[..5], 50.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn summary_keeps_count_and_range() {
        let s = Summary::median_of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.value, s.n, s.min, s.max), (3.0, 3, 1.0, 5.0));
        assert!(Summary::median_of(&[]).is_none());
    }

    #[test]
    fn splitmix64_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut g = SplitMix64::new(seed);
            (0..64).map(|_| g.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // The published first output of splitmix64 seeded with 0.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
        let mut g = SplitMix64::new(3);
        let picks = g.distinct_below(100, 64);
        let unique: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(unique.len(), 64);
        assert!(picks.iter().all(|&p| p < 100));
    }

    #[test]
    fn pair_digest_ignores_order_but_not_content() {
        let mut a = vec![(1, 2), (0, 5), (3, 3)];
        let mut b = vec![(3, 3), (1, 2), (0, 5)];
        assert_eq!(pair_digest(&mut a), pair_digest(&mut b));
        let mut c = vec![(3, 3), (1, 2), (0, 6)];
        assert_ne!(pair_digest(&mut a), pair_digest(&mut c));
        let mut d = vec![(2, 1), (0, 5), (3, 3)];
        assert_ne!(
            pair_digest(&mut a),
            pair_digest(&mut d),
            "(r, s) is ordered"
        );
        assert_eq!(pair_digest(&mut []), FNV_OFFSET);
    }
}
