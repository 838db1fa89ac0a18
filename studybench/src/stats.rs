//! Sample statistics and the results digest.

use dangling_core::StudyResults;

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples; `None`
/// for an empty set. Every percentile the benchmark prints comes from its
/// own samples through this function.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Nearest-rank median; 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// FNV-1a 64, the hash the repository's golden results digests use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Byte length plus FNV-1a 64 of a run's serialized [`StudyResults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: usize,
    pub fnv: u64,
}

impl Digest {
    pub fn of(results: &StudyResults) -> Digest {
        let json = serde_json::to_string(results).expect("StudyResults serialize");
        Digest {
            len: json.len(),
            fnv: fnv1a(json.as_bytes()),
        }
    }

    /// `"<len> <fnv hex>"`, the format of the committed golden digests.
    pub fn render(&self) -> String {
        format!("{} {:016x}", self.len, self.fnv)
    }

    pub fn parse(text: &str) -> Option<Digest> {
        let mut parts = text.split_whitespace();
        let len = parts.next()?.parse().ok()?;
        let fnv = u64::from_str_radix(parts.next()?, 16).ok()?;
        Some(Digest { len, fnv })
    }

    /// `Ok` when `self` reproduces the reference recording.
    pub fn check(&self, reference: &Digest) -> Result<(), String> {
        if self == reference {
            Ok(())
        } else {
            Err(format!(
                "StudyResults digest {} differs from the reference recording {}",
                self.render(),
                reference.render()
            ))
        }
    }
}

/// SplitMix64: the benchmark's own seeded stream for choosing query inputs,
/// independent of the simulation's RNG tree.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), Some(50.0));
        assert_eq!(percentile(&samples, 0.90), Some(90.0));
        assert_eq!(percentile(&samples, 0.99), Some(99.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.001), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.5], 0.99), Some(7.5));
        // Even counts take the lower middle sample.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_of_182_round_samples_leaves_18_above() {
        let samples: Vec<f64> = (0..182).map(f64::from).collect();
        let p90 = percentile(&samples, 0.90).unwrap();
        assert_eq!(samples.iter().filter(|&&s| s > p90).count(), 18);
    }

    #[test]
    fn digest_round_trips_and_rejects_mismatch() {
        let d = Digest {
            len: 1234,
            fnv: fnv1a(b"results"),
        };
        assert_eq!(Digest::parse(&d.render()), Some(d));
        assert!(d.check(&d).is_ok());
        let other = Digest {
            len: 1234,
            fnv: d.fnv ^ 1,
        };
        assert!(d.check(&other).is_err());
        assert!(Digest::parse("not a digest").is_none());
    }

    #[test]
    fn splitmix_is_seeded() {
        let (mut a, mut b) = (SplitMix(5), SplitMix(5));
        for _ in 0..4 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut v: Vec<u32> = (0..50).collect();
        SplitMix(9).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
