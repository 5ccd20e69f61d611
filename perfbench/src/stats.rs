//! Sample statistics of the benchmark: medians, geometric means and exact
//! latency quantiles.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    })
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of a sample of positive values, so that a given relative
/// change of any one value moves it by the same amount; `None` for an empty
/// sample.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Exact distribution of integer microsecond latencies: one count per
/// microsecond value up to a cap, and the raw values beyond it. Quantiles
/// are therefore those of the full sample, not of bucket floors, while
/// memory stays bounded however many responses a run records.
pub struct ExactLatencies {
    counts: Vec<u64>,
    overflow: Vec<u64>,
    total: u64,
}

impl ExactLatencies {
    /// Values below `cap_us` are counted in place; larger ones kept raw.
    pub fn new(cap_us: usize) -> Self {
        Self {
            counts: vec![0; cap_us],
            overflow: Vec::new(),
            total: 0,
        }
    }

    /// Record one latency.
    pub fn record(&mut self, us: u64) {
        match self.counts.get_mut(us as usize) {
            Some(slot) => *slot += 1,
            None => self.overflow.push(us),
        }
        self.total += 1;
    }

    /// Number of recorded latencies.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile: the smallest recorded value with at least
    /// `q · n` values at or below it. `None` when nothing was recorded.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (us, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(us as u64);
            }
        }
        self.overflow.sort_unstable();
        Some(self.overflow[(rank - seen - 1) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn geomean_weighs_relative_changes_alike() {
        assert_eq!(geomean(&[]), None);
        let g = geomean(&[2.0, 8.0]).expect("non-empty");
        assert!((g - 4.0).abs() < 1e-12);
        let faster = geomean(&[4.0, 8.0]).expect("non-empty");
        assert!((faster / g - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn exact_quantiles_cover_the_overflow() {
        let mut lat = ExactLatencies::new(10);
        for us in [1, 2, 3, 4, 50, 60, 70, 80, 90, 100] {
            lat.record(us);
        }
        assert_eq!(lat.count(), 10);
        assert_eq!(lat.quantile(0.5), Some(50));
        assert_eq!(lat.quantile(0.4), Some(4));
        assert_eq!(lat.quantile(0.99), Some(100));
        assert_eq!(lat.quantile(0.0), Some(1));
    }
}
