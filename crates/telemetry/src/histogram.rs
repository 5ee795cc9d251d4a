//! Log-bucketed HDR-style histograms with quantile readout.
//!
//! The registry's histograms record latencies and budgets whose dynamic
//! range spans many orders of magnitude (a health-check costs tens of
//! microseconds, a GBRT fit tens of milliseconds). A flat
//! min/max/mean summary hides the tail, and storing raw observations is
//! unbounded; log-bucketed counting gives bounded memory, O(1) insert,
//! and p50/p90/p99/p999 readout with a bounded relative error.
//!
//! Buckets subdivide each power-of-two octave into
//! [`SUBBUCKETS_PER_OCTAVE`] logarithmic sub-buckets, so every recorded
//! value lands in a bucket whose bounds are within ~±1.1% of the value
//! (`2^(1/64) ≈ 1.011`). Values at or below zero (and NaN) land in a
//! dedicated zero bucket — observability code must never panic or emit
//! garbage on degenerate inputs.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Logarithmic sub-buckets per power-of-two octave. 32 sub-buckets give
/// a worst-case relative quantile error of `2^(1/64) - 1 ≈ 1.1%`.
pub const SUBBUCKETS_PER_OCTAVE: i32 = 32;

/// A log-bucketed histogram: sparse bucket counts plus exact
/// count/sum/min/max moments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHistogram {
    /// Sparse bucket index -> observation count. The index is
    /// `floor(log2(value) * SUBBUCKETS_PER_OCTAVE)`, so consecutive
    /// indices cover geometrically growing ranges.
    buckets: BTreeMap<i32, u64>,
    /// Observations at or below zero (or NaN); kept out of the log
    /// buckets, reported as the bottom of the distribution.
    zero_or_less: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Bucket index for a strictly positive finite value.
fn bucket_index(value: f64) -> i32 {
    // log2 of f64::MIN_POSITIVE is ~-1074, of MAX ~1024; the product
    // stays well inside i32.
    (value.log2() * f64::from(SUBBUCKETS_PER_OCTAVE)).floor() as i32
}

/// Representative value for a bucket: the geometric midpoint of its
/// bounds, which bounds the relative quantile error at half a
/// sub-bucket width.
fn bucket_value(index: i32) -> f64 {
    ((f64::from(index) + 0.5) / f64::from(SUBBUCKETS_PER_OCTAVE)).exp2()
}

impl LogHistogram {
    #[must_use]
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Record one observation. Non-finite and non-positive values are
    /// counted in the zero bucket (and excluded from `sum`) rather than
    /// rejected: telemetry must never panic and never lose the fact
    /// that an observation happened.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else if !value.is_nan() {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        if value.is_finite() && value > 0.0 {
            self.sum += value;
            *self.buckets.entry(bucket_index(value)).or_insert(0) += 1;
        } else {
            self.zero_or_less += 1;
        }
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite positive observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0.0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the geometric midpoint of the
    /// bucket holding the `ceil(q * count)`-th observation, clamped to
    /// the observed `[min, max]` so the readout never exceeds reality.
    /// Returns 0.0 for an empty histogram; `q` outside `[0, 1]` clamps.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank <= self.zero_or_less {
            return self.min().min(0.0);
        }
        let mut seen = self.zero_or_less;
        for (&index, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_value(index).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Merge another histogram into this one (same bucket geometry).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.zero_or_less += other.zero_or_less;
        for (&index, &n) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += n;
        }
    }

    /// Freeze into a serializable summary with the standard quantiles.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.5),
            p90: self.quantile(0.9),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

/// Summary statistics for one histogram, including log-bucket quantiles.
///
/// The quantile fields are `serde(default)` so traces written before the
/// quantile readout existed still parse (they report 0.0).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    #[serde(default)]
    pub p50: f64,
    #[serde(default)]
    pub p90: f64,
    #[serde(default)]
    pub p99: f64,
    #[serde(default)]
    pub p999: f64,
}

impl HistogramSummary {
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_value_quantiles_are_exact_within_bucket_error() {
        let mut h = LogHistogram::new();
        h.observe(100.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((v / 100.0 - 1.0).abs() < 0.02, "q{q} -> {v}");
        }
        assert_eq!(h.min(), 100.0);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn quantiles_track_a_wide_distribution() {
        let mut h = LogHistogram::new();
        // 1000 values 1..=1000: p50 ~ 500, p99 ~ 990.
        for i in 1..=1000 {
            h.observe(f64::from(i));
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 / 500.0 - 1.0).abs() < 0.05, "p50={p50}");
        assert!((p99 / 990.0 - 1.0).abs() < 0.05, "p99={p99}");
        assert!(h.quantile(1.0) <= h.max());
        assert!(
            h.quantile(0.0) >= 0.9,
            "bottom clamps to min: {}",
            h.quantile(0.0)
        );
    }

    #[test]
    fn degenerate_observations_never_panic() {
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(-5.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(2.0);
        assert_eq!(h.count(), 5);
        // Only the finite positive value contributes to the sum.
        assert_eq!(h.sum(), 2.0);
        // min tracks the most negative finite value seen.
        assert_eq!(h.min(), -5.0);
        // Low quantiles sit in the zero-or-less mass.
        assert!(h.quantile(0.1) <= 0.0);
        // Quantile output is always finite.
        for q in [0.0, 0.5, 0.9, 0.999, 1.0] {
            assert!(h.quantile(q).is_finite() || h.max.is_infinite());
        }
    }

    #[test]
    fn merge_matches_sequential_observation() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 1..=100 {
            let v = f64::from(i) * 3.7;
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn summary_round_trips_and_defaults_old_format() {
        let mut h = LogHistogram::new();
        for i in 1..=32 {
            h.observe(f64::from(i));
        }
        let s = h.summary();
        let json = serde_json::to_string(&s).expect("serialize");
        let back: HistogramSummary = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, s);
        // A pre-quantile trace summary still parses, quantiles default 0.
        let old = r#"{"count":3,"sum":6.0,"min":1.0,"max":3.0}"#;
        let parsed: HistogramSummary = serde_json::from_str(old).expect("old format");
        assert_eq!(parsed.count, 3);
        assert_eq!(parsed.p99, 0.0);
    }

    #[test]
    fn bucket_error_is_bounded() {
        // Every value's bucket midpoint is within 2^(1/64)-1 of it.
        let bound = (1.0f64 / 64.0).exp2() - 1.0 + 1e-9;
        for v in [1e-6, 0.5, 1.0, 3.0, 1e3, 1e9, 7.77e13] {
            let mid = bucket_value(bucket_index(v));
            assert!((mid / v - 1.0).abs() <= bound, "v={v} mid={mid}");
        }
    }
}
