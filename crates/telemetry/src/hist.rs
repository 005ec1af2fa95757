//! A log-bucketed latency histogram (promoted from eb-bench's
//! tail-latency harness; `loadgen` records into it).
//!
//! Values 0..32 are recorded exactly; above that, each power-of-two
//! octave is split into 32 sub-buckets, so any recorded value is
//! reconstructed within ~3% relative error while the whole `u64` range
//! fits in under 2k buckets. Unit-agnostic — the serving stack and the
//! load generator both feed it microseconds.

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;
const SUBS: u64 = 1 << SUB_BITS;

/// Buckets needed to cover the full `u64` range — the fixed size of the
/// atomic [`Histogram`](crate::Histogram)'s bucket array.
pub(crate) const MAX_BUCKETS: usize = bucket_index(u64::MAX) + 1;

/// Fixed-memory histogram with bounded relative error (see module
/// docs). Buckets grow lazily up to ~1.9k entries for full `u64` range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

/// Bucket index for `v`: identity below `SUBS`, log-bucketed above.
pub(crate) const fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // v in [2^exp, 2^exp+1), exp >= SUB_BITS
    let sub = (v >> (exp - SUB_BITS)) & (SUBS - 1);
    (((exp as u64 - SUB_BITS as u64) * SUBS) + SUBS + sub) as usize
}

/// Midpoint of bucket `index` — the value quantiles report.
fn bucket_value(index: usize) -> u64 {
    let index = index as u64;
    if index < SUBS {
        return index;
    }
    let b = index - SUBS;
    let exp = (b / SUBS) as u32 + SUB_BITS;
    let sub = b % SUBS;
    let width = 1u64 << (exp - SUB_BITS);
    (1u64 << exp) + sub * width + width / 2
}

/// Smallest value landing in bucket `index`.
fn bucket_lower(index: usize) -> u64 {
    let index = index as u64;
    if index < SUBS {
        return index;
    }
    let b = index - SUBS;
    let exp = (b / SUBS) as u32 + SUB_BITS;
    let sub = b % SUBS;
    let width = 1u64 << (exp - SUB_BITS);
    (1u64 << exp) + sub * width
}

/// Largest value landing in bucket `index` (inclusive).
fn bucket_upper(index: usize) -> u64 {
    if index + 1 >= MAX_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1) - 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles a snapshot from raw bucket counts (the atomic
    /// [`Histogram`](crate::Histogram)'s read path). The total is
    /// derived from the counts so the snapshot is internally consistent
    /// even when writers raced the reads.
    pub(crate) fn from_parts(counts: Vec<u64>, min: u64, max: u64, sum: u128) -> Self {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Self::default();
        }
        let mut h = Self {
            counts,
            total,
            min: if min == u64::MAX { 0 } else { min },
            max,
            sum,
        };
        while h.counts.last() == Some(&0) {
            h.counts.pop();
        }
        h
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.total == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.total += 1;
        self.sum += u128::from(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (exact), or 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (exact), or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean of recorded values (exact sum), or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Number of recorded values whose *bucket* lies entirely at or
    /// below `bound` — the cumulative count a Prometheus
    /// `_bucket{le="bound"}` series reports. Monotone nondecreasing in
    /// `bound` by construction; values in the bucket straddling `bound`
    /// are excluded (an under-count of at most one bucket's ~3% width).
    pub fn count_le(&self, bound: u64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .take_while(|(idx, _)| bucket_upper(*idx) <= bound)
            .map(|(_, &count)| count)
            .sum()
    }

    /// Value at quantile `q` in `[0, 1]` — the recorded value whose rank
    /// is `ceil(q * count)`, reconstructed from its bucket (≲3% relative
    /// error above 32, exact below; clamped into `[min, max]`). Returns
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        if other.total == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (idx, &count) in other.counts.iter().enumerate() {
            self.counts[idx] += count;
        }
        if self.total == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_continuous() {
        // Index must be nondecreasing in v, and exact below 32.
        let mut prev = 0;
        for v in 0..10_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index regressed at {v}");
            prev = idx;
            if v < 32 {
                assert_eq!(idx, v as usize);
                assert_eq!(bucket_value(idx), v);
            } else {
                // The midpoint stays within the bucket's ~3% width.
                let mid = bucket_value(idx) as f64;
                let err = (mid - v as f64).abs() / v as f64;
                assert!(err <= 1.0 / 32.0, "value {v} → midpoint {mid}");
            }
        }
    }

    #[test]
    fn bucket_edges_tile_the_u64_range() {
        assert_eq!(bucket_index(u64::MAX) + 1, MAX_BUCKETS);
        for idx in 0..MAX_BUCKETS {
            let lo = bucket_lower(idx);
            let hi = bucket_upper(idx);
            assert!(lo <= hi, "bucket {idx} inverted");
            assert_eq!(bucket_index(lo), idx, "lower edge of {idx}");
            assert_eq!(bucket_index(hi), idx, "upper edge of {idx}");
            if idx + 1 < MAX_BUCKETS {
                assert_eq!(bucket_lower(idx + 1), hi + 1, "gap after {idx}");
            }
        }
    }

    #[test]
    fn count_le_is_monotone_and_exact_at_edges() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        // Exact region: every bound below 32 is an exact cutoff.
        assert_eq!(h.count_le(0), 0);
        assert_eq!(h.count_le(31), 31);
        // A bucket upper edge is exact by definition.
        let edge = bucket_upper(bucket_index(5_000));
        assert_eq!(h.count_le(edge), edge.min(10_000));
        let mut prev = 0;
        for bound in (0..12_000u64).step_by(97) {
            let c = h.count_le(bound);
            assert!(c >= prev, "count_le regressed at {bound}");
            assert!(c <= h.count());
            prev = c;
        }
        assert_eq!(h.count_le(u64::MAX), h.count());
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        for (q, want) in [
            (0.5, 5_000.0),
            (0.9, 9_000.0),
            (0.99, 9_900.0),
            (0.999, 9_990.0),
        ] {
            let got = h.quantile(q) as f64;
            assert!(
                (got - want).abs() / want <= 0.05,
                "q{q}: got {got}, want ~{want}"
            );
        }
        assert!((h.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn small_exact_region_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 5, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for v in 0..500u64 {
            let v = v * v % 7919;
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(1.0) >= u64::MAX / 33 * 32);
    }
}
