//! The metrics registry's one histogram: HDR-style sub-buckets with
//! quantiles.
//!
//! Every distribution a simulation records — DTU ring occupancy, run-queue
//! depths and slice lengths, fig8's read latency, the serving tier's
//! request latency (Figure 9) — goes through [`Histogram`]:
//!
//! - **Exact below 2^12**: values below 4096 get one bucket per value —
//!   occupancies, queue depths and syscall-scale latencies are recorded
//!   with zero error.
//! - **Sub-bucketed above it**: each power-of-two range `[2^e, 2^(e+1))` is
//!   split into 2^7 equal sub-buckets, bounding the relative error of any
//!   reported quantile by 1/128 (< 0.8 %). A plain power-of-two bucket
//!   would span a 2× range, so a p99 of 600k cycles and one of 1M would
//!   read the same.
//! - **Exact edges**: `min`, `max`, `count`, and `sum` are tracked exactly,
//!   and `quantile(0.0)` / `quantile(1.0)` return them, so figure pins on
//!   extremes stay bit-exact.
//! - **Mergeable**: per-PE recordings merge into a system-wide
//!   distribution without losing precision (every histogram has the same
//!   bucket geometry).
//!
//! Everything is deterministic: buckets live in a `Vec` indexed by bucket,
//! as long as the highest bucket observed (occupancies and queue depths
//! need a handful, a million-cycle latency about 5,000 of the ~10k
//! possible), so an observe is one index, and no float ever decides which
//! bucket a value lands in.

/// Sub-buckets per power-of-two range = `2^SUB_BITS`, bounding quantile
/// relative error by `1/128`.
const SUB_BITS: u32 = 7;

/// Values below `2^EXACT_BITS = 4096` are counted exactly. At least
/// [`SUB_BITS`], so sub-bucket widths are whole numbers.
const EXACT_BITS: u32 = 12;

/// The first bucket index above the exact range.
const EXACT_LIMIT: u64 = 1 << EXACT_BITS;

/// An HDR-style histogram: exact low range, bounded-error tail, exact
/// count/sum/min/max, quantiles, and lossless merges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Observation count per bucket index, up to the highest one observed
    /// and never longer, so equal distributions compare equal.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    /// `sum` overflowed and was clamped; `mean()` would under-report.
    saturated: bool,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            saturated: false,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The relative error bound of any quantile: `2^-7`.
    pub fn error_bound(&self) -> f64 {
        1.0 / (1u64 << SUB_BITS) as f64
    }

    /// Bucket index of `value`.
    fn bucket_of(value: u64) -> usize {
        if value < EXACT_LIMIT {
            return value as usize;
        }
        // Power-of-two range [2^e, 2^(e+1)), split into 2^SUB_BITS equal
        // sub-buckets of width 2^(e - SUB_BITS).
        let e = 63 - value.leading_zeros();
        let sub = ((value - (1u64 << e)) >> (e - SUB_BITS)) as usize;
        let range = (e - EXACT_BITS) as usize;
        EXACT_LIMIT as usize + (range << SUB_BITS) + sub
    }

    /// Largest value that lands in bucket `idx` — what [`Self::quantile`]
    /// reports for observations in that bucket.
    fn bucket_upper(idx: usize) -> u64 {
        if (idx as u64) < EXACT_LIMIT {
            return idx as u64;
        }
        let off = idx - EXACT_LIMIT as usize;
        let e = EXACT_BITS + (off >> SUB_BITS) as u32;
        let sub = (off & ((1 << SUB_BITS) - 1)) as u128;
        // The last sub-bucket of the top range (e = 63) would overflow u64;
        // compute in u128 and clamp.
        let upper = (1u128 << e) + ((sub + 1) << (e - SUB_BITS)) - 1;
        upper.min(u128::from(u64::MAX)) as u64
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = Self::bucket_of(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.add_sum(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds `n` to the sum, clamping and flagging on overflow.
    fn add_sum(&mut self, n: u64) {
        let (sum, overflow) = self.sum.overflowing_add(n);
        if overflow {
            self.sum = u64::MAX;
            self.saturated = true;
        } else {
            self.sum = sum;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations; clamped to `u64::MAX` on overflow, in
    /// which case [`Self::saturated`] reports it.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether the sum overflowed — [`Self::mean`] under-reports when set.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Smallest observation (exact); `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (exact); `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation; `None` when empty. A lower bound of the true mean
    /// when [`Self::saturated`].
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): the smallest recorded bucket upper
    /// bound `v` such that at least `ceil(q * count)` observations are
    /// `<= v`. Exact for values below 2^12 and at the extremes (`q = 0`
    /// returns the exact min, `q = 1` the exact max); elsewhere the
    /// relative error is bounded by [`Self::error_bound`].
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without going through floats for the common edges.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let one_bucket = Self::bucket_of(self.min) == Self::bucket_of(self.max);
        if rank == 1 && one_bucket || q == 0.0 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Clamp to the exact extremes: the first/last bucket's
                // upper bound may overshoot the true min/max.
                return Some(Self::bucket_upper(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges `other` into `self` without precision loss.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += n;
        }
        self.count += other.count;
        self.add_sum(other.sum);
        self.saturated |= other.saturated;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(upper_bound_inclusive, count)` pairs, in
    /// ascending value order (for exports and debugging).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (Self::bucket_upper(idx), n))
            .collect()
    }

    /// One-line rendering used by metric dumps:
    /// `n=… min=… mean=… p50=… p99=… p999=… max=…`, with `-` for every
    /// statistic of an empty histogram and a trailing `(saturated)` marker
    /// when the sum overflowed.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "n=0 min=- mean=- p50=- p99=- p999=- max=-".to_string();
        }
        let mut out = format!(
            "n={} min={} mean={:.1} p50={} p99={} p999={} max={}",
            self.count,
            self.min,
            self.mean().unwrap_or(0.0),
            self.quantile(0.50).unwrap_or(0),
            self.quantile(0.99).unwrap_or(0),
            self.quantile(0.999).unwrap_or(0),
            self.max,
        );
        if self.saturated {
            out.push_str(" (saturated)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_explicit() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert!(!h.saturated());
        assert_eq!(h.summary(), "n=0 min=- mean=- p50=- p99=- p999=- max=-");
    }

    #[test]
    fn single_observation_is_every_quantile() {
        let mut h = Histogram::new();
        h.observe(123_456);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Some(123_456), "q={q}");
        }
        assert_eq!(h.min(), Some(123_456));
        assert_eq!(h.max(), Some(123_456));
        assert_eq!(h.mean(), Some(123_456.0));
    }

    #[test]
    fn exact_below_threshold() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] {
            h.observe(v);
        }
        // Below 2^12 every value has its own bucket: quantiles are exact.
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(0.1), Some(0));
        assert_eq!(h.quantile(1.0), Some(9));
        assert_eq!(h.nonzero_buckets().len(), 10);
    }

    #[test]
    fn tail_quantiles_distinguish_within_a_power_of_two() {
        // The motivating bug: 600k and 1.1M share a power-of-two bucket
        // (2^19..2^20 and 2^20..2^21 are adjacent, but 600k vs 900k do
        // share 2^19..2^20). The sub-bucketed histogram must tell them
        // apart within < 1% relative error.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.observe(600_000);
        }
        h.observe(900_000);
        let p50 = h.quantile(0.5).unwrap();
        let err = (p50 as f64 - 600_000.0).abs() / 600_000.0;
        assert!(err <= h.error_bound(), "p50={p50} err={err}");
        assert_eq!(h.quantile(1.0), Some(900_000));
        let p99 = h.quantile(0.99).unwrap();
        let err = (p99 as f64 - 600_000.0).abs() / 600_000.0;
        assert!(err <= h.error_bound(), "p99={p99} err={err}");
    }

    #[test]
    fn saturation_is_flagged_not_silent() {
        let mut h = Histogram::new();
        h.observe(u64::MAX - 10);
        assert!(!h.saturated());
        h.observe(u64::MAX - 10);
        assert!(h.saturated());
        assert_eq!(h.sum(), u64::MAX);
        assert!(h.summary().contains("(saturated)"), "{}", h.summary());
    }

    #[test]
    fn merge_equals_observing_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [3u64, 700, 4_100, 88_000, 600_000] {
            a.observe(v);
            both.observe(v);
        }
        for v in [9u64, 4_100, 1_100_000] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.count(), 8);
        assert_eq!(a.max(), Some(1_100_000));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.observe(42);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn bucket_upper_inverts_bucket_of() {
        let h = Histogram::new();
        for v in [
            0,
            1,
            4_095,
            4_096,
            4_097,
            65_535,
            600_000,
            1_100_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = Histogram::bucket_of(v);
            let upper = Histogram::bucket_upper(idx);
            assert!(upper >= v, "upper({idx})={upper} < v={v}");
            if v >= 4096 {
                // Bounded relative error.
                let err = (upper - v) as f64 / v as f64;
                assert!(err <= h.error_bound(), "v={v} upper={upper} err={err}");
            } else {
                assert_eq!(upper, v, "exact range must be exact");
            }
        }
    }
}
