//! The workspace's one seeded generator.
//!
//! Seeded cluster timelines (independent node churn, correlated rack
//! outages) and spot-price walks all draw from [`SplitMix64`].
//! Independent streams come from distinct seeds, never from copies of the
//! generator: each call site derives its own per-entity seed and hands it
//! to [`SplitMix64::new`].

/// SplitMix64 (Steele et al.): a tiny, well-mixed, dependency-free
/// generator — exactly what a seeded schedule needs (statistical
/// perfection is not the point; platform-independent reproducibility is).
#[derive(Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `(0, 1]` (never 0, so `ln` is always finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential draw with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_reference_outputs() {
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
        assert_eq!(rng.next_u64(), 9_817_491_932_198_370_423);
    }

    #[test]
    fn unit_stays_in_half_open_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!(u > 0.0 && u <= 1.0, "unit draw {u}");
        }
    }
}
