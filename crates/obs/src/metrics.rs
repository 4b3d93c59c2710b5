//! Fixed-bucket histograms with deterministic quantile estimates.
//!
//! Bucket assignment follows the workspace R6 NaN policy: a sample must
//! never silently vanish, so NaN and ±inf samples are counted — but in a
//! dedicated `invalid` counter, *separate* from the `overflow` bucket that
//! holds finite samples above the last bound. `total` therefore always
//! equals the number of `record` calls, and quantiles over merged
//! histograms can distinguish "slow" (overflow) from "invalid" (NaN/±inf).

/// Default bucket upper bounds for latency histograms, in milliseconds:
/// 1µs … 10s in decade steps.
pub(crate) const DEFAULT_LATENCY_BOUNDS_MS: &[f64] =
    &[0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0];

/// Number of buckets in the [`Histogram::log2`] layout: powers of two from
/// 2^0 ns up to 2^63 ns (≈292 years), covering nanoseconds → minutes with
/// one bucket per doubling.
pub(crate) const LOG2_BUCKETS: usize = 64;

/// A fixed-bucket histogram with explicit overflow and invalid counters.
///
/// Bucket `i` counts samples `v` with `v <= bounds[i]` (and
/// `v > bounds[i-1]` for `i > 0`). Finite samples above the last bound are
/// counted in [`Histogram::overflow`]; NaN and ±inf are counted in
/// [`Histogram::invalid`].
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
    invalid: u64,
    total: u64,
    sum_finite: f64,
}

impl Histogram {
    /// A histogram over ascending upper `bounds`. Bounds are sorted and
    /// non-finite entries removed, so construction cannot produce a
    /// malformed bucket layout.
    pub fn new(bounds: &[f64]) -> Histogram {
        let mut clean: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        clean.sort_by(f64::total_cmp);
        clean.dedup_by(|a, b| a.total_cmp(b).is_eq());
        let n = clean.len();
        Histogram { bounds: clean, counts: vec![0; n], overflow: 0, invalid: 0, total: 0, sum_finite: 0.0 }
    }

    /// The log2 duration layout: 64 buckets whose upper bounds are exact
    /// powers of two in nanoseconds (`2^0 … 2^63`). This is the layout
    /// span durations are auto-recorded into, and the one the serving
    /// engine's latency quantiles will reuse: every histogram built here
    /// has an identical layout, so cross-thread merges are always
    /// elementwise and quantiles are exact regardless of merge order.
    pub fn log2() -> Histogram {
        // Powers of two are exact in f64 up to well beyond 2^63.
        let bounds: Vec<f64> = (0..LOG2_BUCKETS).map(|i| {
            // i < 64, so the cast to i32 is lossless.
            2f64.powi(i as i32)
        }).collect();
        let n = bounds.len();
        Histogram { bounds, counts: vec![0; n], overflow: 0, invalid: 0, total: 0, sum_finite: 0.0 }
    }

    /// Index of the bucket `v` falls into, or `None` when `v` belongs in
    /// the overflow bucket (finite, above the last bound) or the invalid
    /// counter (NaN, ±inf).
    pub(crate) fn bucket_index(&self, v: f64) -> Option<usize> {
        if !v.is_finite() {
            return None;
        }
        self.bounds.iter().position(|&b| v <= b)
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.total += 1;
        if v.is_finite() {
            self.sum_finite += v;
            match self.bucket_index(v) {
                Some(i) => self.counts[i] += 1,
                None => self.overflow += 1,
            }
        } else {
            self.invalid += 1;
        }
    }

    /// Folds another histogram into this one. When the bucket layouts
    /// match, counts merge elementwise; otherwise the other histogram's
    /// bucketed samples are preserved in this one's overflow bucket (the
    /// totals stay exact, only the placement degrades). Invalid counts
    /// always merge into `invalid`. Merging is commutative and associative
    /// on matching layouts, so quantiles of the merged histogram do not
    /// depend on the order sinks were merged in.
    pub fn merge(&mut self, other: &Histogram) {
        self.total += other.total;
        self.sum_finite += other.sum_finite;
        self.invalid += other.invalid;
        if self.bounds == other.bounds {
            for (c, o) in self.counts.iter_mut().zip(&other.counts) {
                *c += o;
            }
            self.overflow += other.overflow;
        } else {
            let bucketed: u64 = other.counts.iter().sum();
            self.overflow += bucketed + other.overflow;
        }
    }

    /// Deterministic upper-bound quantile estimate.
    ///
    /// Convention: the rank is `ceil(q * finite)` clamped to
    /// `[1, finite]`, where `finite = total - invalid` is the number of
    /// finite samples; the estimate is the upper bound of the bucket
    /// containing that rank. A rank that lands in the overflow bucket
    /// returns `+inf` (rendered as JSON `null`), and a histogram with no
    /// finite samples returns NaN. Because the estimate is a pure function
    /// of the summed bucket counts, it is exact under bucket-wise merge
    /// regardless of thread-sink merge order.
    pub fn quantile(&self, q: f64) -> f64 {
        let finite = self.total - self.invalid;
        if finite == 0 {
            return f64::NAN;
        }
        // ceil(q * finite), clamped to [1, finite]; q is a small constant
        // like 0.99 so the f64 product is exact enough at any real count.
        let rank = (q * finite as f64).ceil().max(1.0).min(finite as f64) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds[i];
            }
        }
        f64::INFINITY
    }

    /// Bucket upper bounds, ascending.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket sample counts, aligned with [`Histogram::bounds`].
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Finite samples above the last bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Non-finite samples (NaN, ±inf) — counted, never bucketed.
    // lint: allow(dead-pub) — accessor paired with `overflow`; the metrics.json renderer and external schema consumers read it
    pub fn invalid(&self) -> u64 {
        self.invalid
    }

    /// Total number of recorded samples (bucketed + overflow + invalid).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of the finite samples (non-finite samples are counted but not
    /// summed).
    pub(crate) fn sum_finite(&self) -> f64 {
        self.sum_finite
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_samples_land_in_the_lower_bucket() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.record(1.0); // exactly on a bound → that bucket
        h.record(1.0000001);
        h.record(10.0);
        h.record(100.0);
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn samples_above_last_bound_overflow() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(10.5);
        h.record(1e12);
        assert_eq!(h.counts(), &[0, 0]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.invalid(), 0);
    }

    #[test]
    fn non_finite_samples_are_counted_as_invalid_not_overflow() {
        // R6 policy: NaN must never silently vanish — but it must also not
        // masquerade as a slow sample.
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(0.5);
        h.record(11.0);
        assert_eq!(h.invalid(), 3);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts(), &[1, 0]);
        // Only the finite samples contribute to the sum.
        assert!((h.sum_finite() - 11.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_zero_samples_fall_in_the_first_bucket() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(-5.0);
        h.record(0.0);
        assert_eq!(h.counts(), &[2, 0]);
    }

    #[test]
    fn bucket_index_matches_record() {
        let h = Histogram::new(&[0.5, 5.0]);
        assert_eq!(h.bucket_index(0.1), Some(0));
        assert_eq!(h.bucket_index(0.5), Some(0));
        assert_eq!(h.bucket_index(3.0), Some(1));
        assert_eq!(h.bucket_index(7.0), None);
        assert_eq!(h.bucket_index(f64::NAN), None);
        assert_eq!(h.bucket_index(f64::INFINITY), None);
    }

    #[test]
    fn unsorted_bounds_are_normalized() {
        let h = Histogram::new(&[10.0, 1.0, f64::NAN, 1.0]);
        assert_eq!(h.bounds(), &[1.0, 10.0]);
    }

    #[test]
    fn merge_with_same_layout_is_elementwise() {
        let mut a = Histogram::new(&[1.0, 10.0]);
        let mut b = Histogram::new(&[1.0, 10.0]);
        a.record(0.5);
        b.record(5.0);
        b.record(f64::NAN);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.invalid(), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn merge_with_different_layout_preserves_totals() {
        let mut a = Histogram::new(&[1.0]);
        let mut b = Histogram::new(&[2.0]);
        a.record(0.5);
        b.record(1.5);
        b.record(f64::NAN);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.invalid(), 1);
        assert_eq!(a.counts().iter().sum::<u64>() + a.overflow(), 2);
    }

    #[test]
    fn log2_layout_covers_ns_to_minutes() {
        let h = Histogram::log2();
        assert_eq!(h.bounds().len(), LOG2_BUCKETS);
        assert_eq!(h.bounds()[0], 1.0);
        assert_eq!(h.bounds()[1], 2.0);
        // 2^36 ns ≈ 68.7 s: minute-scale durations stay bucketed.
        assert_eq!(h.bounds()[36], 68_719_476_736.0);
        assert_eq!(h.bounds()[63], 2f64.powi(63));
    }

    #[test]
    fn quantile_returns_bucket_upper_bounds() {
        let mut h = Histogram::log2();
        // 5 ns → bucket bound 8; 7 ns → 8; 25 ns → 32.
        h.record(5.0);
        h.record(7.0);
        h.record(25.0);
        assert_eq!(h.quantile(0.5), 8.0);
        assert_eq!(h.quantile(0.9), 32.0);
        assert_eq!(h.quantile(0.99), 32.0);
        // Lowest rank clamps to 1.
        assert_eq!(h.quantile(0.0001), 8.0);
    }

    #[test]
    fn quantile_ignores_invalid_and_reports_overflow_as_inf() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.record(0.5);
        h.record(f64::NAN); // invalid: excluded from ranks
        h.record(1e9); // overflow: the slow tail
        assert_eq!(h.quantile(0.5), 1.0);
        assert!(h.quantile(0.99).is_infinite());
        let empty = Histogram::log2();
        assert!(empty.quantile(0.5).is_nan());
    }

    #[test]
    fn quantile_is_exact_under_merge() {
        let samples = [3.0, 9.0, 17.0, 100.0, 1.5, 6.0, 40.0, 2.0];
        let mut whole = Histogram::log2();
        for &s in &samples {
            whole.record(s);
        }
        // Split the same samples across three histograms and merge in a
        // different order than they were recorded.
        let mut parts = [Histogram::log2(), Histogram::log2(), Histogram::log2()];
        for (i, &s) in samples.iter().enumerate() {
            parts[i % 3].record(s);
        }
        let mut merged = Histogram::log2();
        merged.merge(&parts[2]);
        merged.merge(&parts[0]);
        merged.merge(&parts[1]);
        for q in [0.5, 0.9, 0.95, 0.99] {
            assert_eq!(whole.quantile(q), merged.quantile(q));
        }
    }
}
