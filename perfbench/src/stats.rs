//! Order statistics and a fixed-size latency histogram.

/// Buckets per natural-log unit: bucket width is ~0.5% of the value.
const PER_LN: f64 = 200.0;
/// Values up to e^25 ns (~20 h) fit.
const BUCKETS: usize = 25 * PER_LN as usize;

/// A log-bucketed histogram of nanosecond samples. Fixed size, so
/// recording allocates nothing while a phase runs.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

impl LogHist {
    pub fn record_n(&mut self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = ((ns.max(1) as f64).ln() * PER_LN) as usize;
        self.counts[idx.min(BUCKETS - 1)] += n;
        self.total += n;
        self.max = self.max.max(ns);
    }

    pub fn record(&mut self, ns: u64) {
        self.record_n(ns, 1);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile in ns (bucket midpoint), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(((i as f64 + 0.5) / PER_LN).exp());
            }
        }
        None
    }

    /// Samples strictly above the `q`-quantile.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - ((q * self.total as f64).ceil() as u64).min(self.total)
    }
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `q`-quantile of exact samples (nearest rank); NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_hist_quantiles_are_within_half_a_percent() {
        let mut h = LogHist::default();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.005, "{p50}");
        assert!((p99 / 9_900_000.0 - 1.0).abs() < 0.005, "{p99}");
        assert_eq!(h.beyond(0.99), 100);
    }

    #[test]
    fn median_and_quantile_of_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.25), 1.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 1.0), 4.0);
    }
}
