//! Order statistics over raw samples. Every percentile the benchmark
//! reports is read off a sorted sample vector (nearest rank), never off
//! the program's log₂ histogram buckets, which are 2× wide and cannot
//! resolve a bound tighter than that.

/// Nearest-rank percentile of `values` (`pct` in `[0, 100]`), or `None`
/// for an empty sample.
#[must_use]
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest-rank 50th percentile).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// SplitMix64: the benchmark's own deterministic generator, so every
/// input it derives from `--seed` (request keys and order) is
/// reproducible without depending on the program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 99.0), Some(99.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = (0..4).scan(SplitMix::new(7), |g, _| Some(g.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(SplitMix::new(7), |g, _| Some(g.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }
}
