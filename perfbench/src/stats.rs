//! Sample sets and the percentile rule every timing in the report follows.

/// Host-clock samples of one call site, in the site's unit (ns or us).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    /// Sum of every sample, kept even past the storage cap.
    total: f64,
    count: u64,
}

/// Samples kept per call site; past this only `count` and `total` grow.
const STORED_MAX: usize = 1 << 22;

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.total += value;
        if self.values.len() < STORED_MAX {
            self.values.push(value);
        }
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: Samples) {
        self.count += other.count;
        self.total += other.total;
        let room = STORED_MAX.saturating_sub(self.values.len());
        self.values.extend(other.values.into_iter().take(room));
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples recorded.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Median of the stored samples (0 when empty).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Nearest-rank percentile `pct` of the stored samples (0 when empty).
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank(sorted.len(), pct) - 1]
    }

    /// The tail figure the report prints: the highest percentile of the
    /// ladder that still has at least ten samples beyond it, as
    /// `(percentile, value)`.
    pub fn tail(&self) -> (f64, f64) {
        let pct = tail_percentile(self.values.len());
        (pct, self.percentile(pct))
    }
}

/// Nearest rank (1-based) of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps 99.9% of 10 000 at rank 9990 despite float error.
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of 50, 90, 99, 99.9, … that has at least ten of
/// `n` samples strictly beyond its nearest rank. Falls back to the median
/// when even that has fewer than ten beyond it (n < 20).
pub fn tail_percentile(n: usize) -> f64 {
    let mut best = 50.0;
    let mut nines = 1;
    loop {
        let pct = 100.0 - 100.0 / 10f64.powi(nines);
        if n < 10 || n - rank(n, pct) < 10 {
            return best;
        }
        best = pct;
        nines += 1;
    }
}

/// Median of a slice (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        let p = tail_percentile(10_000);
        assert!((p - 99.9).abs() < 1e-9, "{p}");
    }

    #[test]
    fn tail_leaves_exactly_the_slow_samples_beyond_it() {
        // 990 fast samples and 10 slow ones: p99 is the last fast sample
        // and exactly ten lie beyond it.
        let mut s = Samples::default();
        for _ in 0..990 {
            s.push(1.0);
        }
        for _ in 0..10 {
            s.push(100.0);
        }
        assert_eq!(s.tail(), (99.0, 1.0));
        assert_eq!(s.median(), 1.0);
        assert_eq!(s.count(), 1000);
    }
}
