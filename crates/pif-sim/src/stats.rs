//! Statistics: fetch/miss counters, prefetch accounting, and the log2
//! histogram used by the paper's distance/length figures.

/// Instruction-fetch statistics collected by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Correct-path demand fetch accesses (block granularity).
    pub demand_accesses: u64,
    /// Wrong-path fetch accesses injected by mispredictions.
    pub wrong_path_accesses: u64,
    /// Correct-path demand misses (block absent and not in flight).
    pub demand_misses: u64,
    /// Wrong-path misses (fill the cache but stall nothing).
    pub wrong_path_misses: u64,
    /// Correct-path demand accesses whose block was found only because a
    /// prefetch installed it (first use of a prefetched line).
    pub covered_by_prefetch: u64,
    /// Correct-path demand accesses that hit a block still in flight from a
    /// prefetch (late prefetch: partial stall).
    pub partial_covered: u64,
}

impl FetchStats {
    /// Misses the baseline (no-prefetch) configuration would have seen:
    /// remaining misses plus everything a prefetch absorbed.
    pub fn baseline_equivalent_misses(&self) -> u64 {
        self.demand_misses + self.covered_by_prefetch + self.partial_covered
    }

    /// Fraction of would-be misses eliminated or partially hidden by
    /// prefetching (the paper's Fig. 10 "L1 miss coverage").
    pub fn miss_coverage(&self) -> f64 {
        let base = self.baseline_equivalent_misses();
        if base == 0 {
            return 0.0;
        }
        (self.covered_by_prefetch + self.partial_covered) as f64 / base as f64
    }

    /// L1-I hit rate over correct-path demand accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            return 1.0;
        }
        1.0 - self.demand_misses as f64 / self.demand_accesses as f64
    }
}

/// Prefetch-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetch requests issued by the prefetcher (after the cache probe).
    pub issued: u64,
    /// Requests dropped because the block was already resident or already
    /// in flight.
    pub dropped_resident: u64,
    /// Prefetched blocks that were demanded before eviction (useful).
    pub useful: u64,
    /// Prefetched blocks evicted without ever being demanded (pollution).
    pub unused_evicted: u64,
}

impl PrefetchStats {
    /// Fraction of issued prefetches that proved useful.
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.useful as f64 / self.issued as f64
    }
}

/// Branch/front-end statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Retired instructions processed.
    pub instructions: u64,
    /// Retired branch instructions.
    pub branches: u64,
    /// Mispredicted branches (direction or target).
    pub mispredicts: u64,
    /// Wrong-path fetch accesses injected.
    pub wrong_path_accesses: u64,
}

impl FrontendStats {
    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            return 0.0;
        }
        self.mispredicts as f64 / self.branches as f64
    }
}

/// A histogram over log2-spaced buckets, as used by the paper's jump
/// distance (Fig. 7) and stream length (Fig. 9 left) plots.
///
/// Bucket `i` counts samples whose value `v` satisfies
/// `floor(log2(max(v,1))) == i`.
///
/// # Example
///
/// ```
/// use pif_sim::Log2Histogram;
///
/// let mut h = Log2Histogram::new(8);
/// h.record(1);   // bucket 0
/// h.record(5);   // bucket 2
/// h.record_weighted(1024, 10); // bucket 7 (clamped to the last bucket)
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.bucket_count(2), 1);
/// assert_eq!(h.bucket_count(7), 10);
/// assert_eq!(h.total(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
}

impl Log2Histogram {
    /// Creates a histogram with `buckets` log2 buckets; values past the
    /// last bucket are clamped into it.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        Log2Histogram {
            buckets: vec![0; buckets],
        }
    }

    fn bucket_for(&self, value: u64) -> usize {
        let b = 63 - value.max(1).leading_zeros() as usize;
        b.min(self.buckets.len() - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_weighted(value, 1);
    }

    /// Records a sample with a weight (e.g. "jumps weighted by coverage").
    pub fn record_weighted(&mut self, value: u64, weight: u64) {
        let b = self.bucket_for(value);
        self.buckets[b] += weight;
    }

    /// Count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Total weight recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Cumulative distribution: fraction of weight in buckets `0..=i`,
    /// as plotted in Figures 7 and 9 (left).
    pub fn cdf(&self) -> Vec<f64> {
        let total = self.total().max(1) as f64;
        let mut acc = 0u64;
        self.buckets
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / total
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_stats_coverage() {
        let s = FetchStats {
            demand_accesses: 100,
            demand_misses: 5,
            covered_by_prefetch: 90,
            partial_covered: 5,
            ..Default::default()
        };
        assert_eq!(s.baseline_equivalent_misses(), 100);
        assert!((s.miss_coverage() - 0.95).abs() < 1e-9);
        assert!((s.hit_rate() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn coverage_zero_without_misses() {
        assert_eq!(FetchStats::default().miss_coverage(), 0.0);
        assert_eq!(FetchStats::default().hit_rate(), 1.0);
    }

    #[test]
    fn prefetch_accuracy() {
        let p = PrefetchStats {
            issued: 10,
            useful: 7,
            ..Default::default()
        };
        assert!((p.accuracy() - 0.7).abs() < 1e-9);
        assert_eq!(PrefetchStats::default().accuracy(), 0.0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Log2Histogram::new(6);
        for v in [1, 2, 3, 4, 7, 8, 15, 16, 31, 32] {
            h.record(v);
        }
        assert_eq!(h.bucket_count(0), 1); // 1
        assert_eq!(h.bucket_count(1), 2); // 2,3
        assert_eq!(h.bucket_count(2), 2); // 4,7
        assert_eq!(h.bucket_count(3), 2); // 8,15
        assert_eq!(h.bucket_count(4), 2); // 16,31
        assert_eq!(h.bucket_count(5), 1); // 32
    }

    #[test]
    fn histogram_clamps_to_last_bucket() {
        let mut h = Log2Histogram::new(3);
        h.record(1_000_000);
        assert_eq!(h.bucket_count(2), 1);
    }

    #[test]
    fn histogram_zero_treated_as_one() {
        let mut h = Log2Histogram::new(3);
        h.record(0);
        assert_eq!(h.bucket_count(0), 1);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Log2Histogram::new(5);
        for v in [1, 2, 4, 8, 16, 16, 2] {
            h.record(v);
        }
        let cdf = h.cdf();
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mispredict_rate() {
        let f = FrontendStats {
            branches: 200,
            mispredicts: 10,
            ..Default::default()
        };
        assert!((f.mispredict_rate() - 0.05).abs() < 1e-9);
    }
}
