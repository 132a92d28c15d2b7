//! Order statistics and digests for the benchmark's reports.

/// FNV-1a (64-bit) over `bytes`: the digest recorded for each workload's
/// deterministic run-report bytes. The same function the sweep engine
/// uses to fingerprint plans, so a digest is reproducible with nothing
/// but the report text.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Percentiles the benchmark is willing to report, highest first, in
/// tenths of a percent (integer, so ranks are exact).
const CANDIDATE_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank index of the `permille`/10 percentile in a sorted
/// sample of `n`: `ceil(permille * n / 1000) - 1`, clamped into range.
fn rank(permille: u64, n: usize) -> usize {
    let r = (permille * n as u64).div_ceil(1000) as usize;
    r.clamp(1, n.max(1)) - 1
}

/// [`rank`] for a percentile given as a float (rounded to a tenth).
fn rank_pct(p: f64, n: usize) -> usize {
    rank((p * 10.0).round() as u64, n)
}

/// The highest candidate percentile that still has at least
/// [`TAIL_SAMPLES`] samples strictly beyond its nearest-rank position in
/// a sample of `n`; `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    CANDIDATE_PERMILLE
        .into_iter()
        .find(|&p| n > 0 && n - 1 - rank(p, n) >= TAIL_SAMPLES)
        .map(|p| p as f64 / 10.0)
}

/// Nearest-rank percentile `p` of `values` (need not be sorted). Zero
/// for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank_pct(p, sorted.len())]
}

/// The median of `values`, averaging the two middle samples of an even
/// count. Zero for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// [`median`] of an iterator's values.
pub fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_one_hundred_samples() {
        // 100 samples: rank(90) = 89, ten samples (90..=99) beyond it.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        // 99 samples: rank(90) = 89, only nine beyond — fall back to p75.
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tiny_samples_support_no_percentile() {
        assert_eq!(highest_supported_percentile(0), None);
        // 19 samples: the median's rank is 9, only nine beyond it.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
    }

    #[test]
    fn every_supported_percentile_leaves_ten_samples_beyond() {
        for n in 1..2_000 {
            if let Some(p) = highest_supported_percentile(n) {
                assert!(n - 1 - rank_pct(p, n) >= TAIL_SAMPLES, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
