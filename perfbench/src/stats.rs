//! Order statistics, digests, seeds and metric-name rules.

/// FNV-1a over `bytes`: a 64-bit digest of a run's deterministic output.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finaliser: derives the `index`-th simulator seed from the
/// workload seed, so the simulator only ever sees generated inputs.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A percentile as an exact fraction `num / den` (p99 = 99/100), so that
/// ranks are computed in integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct {
    pub num: u64,
    pub den: u64,
}

impl Pct {
    pub const P50: Pct = Pct { num: 1, den: 2 };
    pub const P99: Pct = Pct { num: 99, den: 100 };

    /// Percentiles tried, lowest first, when looking for the highest one
    /// that still has enough samples beyond it.
    pub const LADDER: [Pct; 6] = [
        Pct::P50,
        Pct { num: 9, den: 10 },
        Pct::P99,
        Pct {
            num: 999,
            den: 1000,
        },
        Pct {
            num: 9999,
            den: 10_000,
        },
        Pct {
            num: 99_999,
            den: 100_000,
        },
    ];

    /// 1-based nearest rank of this percentile among `n` samples.
    pub fn rank(self, n: usize) -> usize {
        let n = n as u64;
        (self.num * n).div_ceil(self.den).clamp(1, n.max(1)) as usize
    }

    /// Samples ranked after this percentile's sample.
    pub fn beyond(self, n: usize) -> usize {
        n - self.rank(n).min(n)
    }

    /// The percentile as a number out of 100 (for display).
    pub fn as_percent(self) -> f64 {
        100.0 * self.num as f64 / self.den as f64
    }
}

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[u64], p: Pct) -> u64 {
    sorted[p.rank(sorted.len()) - 1]
}

/// The highest percentile of [`Pct::LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it among `n`, or `None` when even the median has fewer.
pub fn tail_pct(n: usize) -> Option<Pct> {
    Pct::LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| p.beyond(n) >= MIN_BEYOND)
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(Pct::P99.beyond(1000), 10);
        assert_eq!(Pct::P99.beyond(999), 9);
        assert_eq!(Pct::P99.rank(1000), 990);
        assert_eq!(Pct::P50.rank(1), 1);
        assert_eq!(Pct::P50.rank(4), 2);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_pct(5), None);
        assert_eq!(tail_pct(20), Some(Pct::P50));
        assert_eq!(tail_pct(99), Some(Pct::P50));
        assert_eq!(tail_pct(100), Some(Pct { num: 9, den: 10 }));
        assert_eq!(tail_pct(1000), Some(Pct::P99));
        assert_eq!(tail_pct(9_999), Some(Pct::P99));
        assert_eq!(
            tail_pct(10_000),
            Some(Pct {
                num: 999,
                den: 1000
            })
        );
        assert_eq!(
            tail_pct(100_000_000),
            Some(Pct {
                num: 99_999,
                den: 100_000
            })
        );
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, Pct::P50), 500);
        assert_eq!(percentile(&v, Pct::P99), 990);
        assert_eq!(percentile(&[7], Pct::P99), 7);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["setup_s", "core.step_us", "sim.io_wait_s", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "µs",
            "a/b",
            "a:b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }
}
