//! Sample statistics and the fingerprint hash.

/// Samples a p90 needs: at least ten of them must lie beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank 90th percentile. Refuses fewer than
/// [`P90_MIN_SAMPLES`] samples, where fewer than ten would lie beyond it.
pub fn p90(xs: &[f64]) -> Result<f64, String> {
    if xs.len() < P90_MIN_SAMPLES {
        return Err(format!(
            "p90 needs at least {P90_MIN_SAMPLES} samples, got {}",
            xs.len()
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (0.9 * v.len() as f64).ceil() as usize;
    Ok(v[rank - 1])
}

/// FNV-1a over a sequence of 64-bit words (little-endian bytes).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p90_refuses_fewer_than_100_samples() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(p90(&few).is_err());
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&enough).unwrap(), 90.0);
    }

    #[test]
    fn fnv_depends_on_order() {
        let a = Fnv::default().word(1).word(2).finish();
        let b = Fnv::default().word(2).word(1).finish();
        assert_ne!(a, b);
    }
}
