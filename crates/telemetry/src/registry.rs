//! Label-aware counters and histograms for runtime self-accounting.
//!
//! The registry tracks *how much work* the adaptive machinery does —
//! transitions per kind, fallbacks, span durations — complementing the
//! trace's transitions, which record *what was decided*.
//!
//! Every series is keyed by `(name, labels)`, where labels are a small
//! sorted list of `(key, value)` pairs (`kind`, `span`, `worker`,
//! `reason`). Label cardinality is bounded: past [`MAX_LABELED_SERIES`]
//! distinct labeled series, new label sets collapse into the unlabeled
//! base series and the `telemetry.labels_dropped` counter — the registry
//! never panics and never grows without bound, whatever label values a
//! caller passes.
//! Histograms are log-bucketed ([`crate::histogram::LogHistogram`]) with
//! p50/p90/p99/p999 readout.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub use crate::histogram::HistogramSummary;
use crate::histogram::LogHistogram;

/// Maximum distinct labeled series (counters + histograms) before new
/// label sets are dropped to their base series. Unlabeled series are
/// code-controlled and exempt, so the registry always makes progress.
pub const MAX_LABELED_SERIES: usize = 512;

/// Counter name under which dropped label sets are counted.
pub const LABELS_DROPPED: &str = "telemetry.labels_dropped";

/// Sorted `(key, value)` label pairs.
pub type OwnedLabels = Vec<(String, String)>;

/// Identity of one series: metric name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SeriesKey {
    pub name: String,
    pub labels: OwnedLabels,
}

impl SeriesKey {
    /// Build a key from unordered borrowed labels: pairs are sorted by
    /// key; on duplicate keys the last value wins.
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut owned: OwnedLabels = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        owned.sort_by(|a, b| a.0.cmp(&b.0));
        owned.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                // `dedup_by` keeps `earlier`; move the later value in.
                earlier.1 = std::mem::take(&mut later.1);
                true
            } else {
                false
            }
        });
        SeriesKey {
            name: name.to_string(),
            labels: owned,
        }
    }

    /// The value of label `key`, if the series carries it.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Canonical rendering: `name` or `name{k="v",k2="v2"}` with `\`, `"`
    /// and newlines in values escaped.
    #[must_use]
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = String::with_capacity(self.name.len() + 16 * self.labels.len());
        out.push_str(&self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// Named, labeled counters and histograms. BTreeMaps keep snapshots
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<SeriesKey, u64>,
    histograms: BTreeMap<SeriesKey, LogHistogram>,
    labeled_series: usize,
    labels_dropped: u64,
}

impl Registry {
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Whether a new labeled series may still be admitted; bumps the
    /// dropped counter when not.
    fn admit_labeled(&mut self) -> bool {
        if self.labeled_series < MAX_LABELED_SERIES {
            self.labeled_series += 1;
            true
        } else {
            self.labels_dropped += 1;
            false
        }
    }

    /// Add `delta` to the unlabeled counter `name`, creating it at zero.
    pub fn incr(&mut self, name: &str, delta: u64) {
        self.incr_with(name, &[], delta);
    }

    /// Add `delta` to the counter `(name, labels)`. Past the cardinality
    /// cap, new label sets fall back to the unlabeled `name` series.
    pub fn incr_with(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let mut key = SeriesKey::new(name, labels);
        if !key.labels.is_empty() && !self.counters.contains_key(&key) && !self.admit_labeled() {
            key.labels.clear();
        }
        *self.counters.entry(key).or_insert(0) += delta;
    }

    /// Record one observation into the unlabeled histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.observe_with(name, &[], value);
    }

    /// Record one observation into the histogram `(name, labels)`. Past
    /// the cardinality cap, new label sets fall back to the unlabeled
    /// `name` series.
    pub fn observe_with(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut key = SeriesKey::new(name, labels);
        if !key.labels.is_empty() && !self.histograms.contains_key(&key) && !self.admit_labeled() {
            key.labels.clear();
        }
        self.histograms.entry(key).or_default().observe(value);
    }

    /// Current value of the unlabeled counter (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_with(name, &[])
    }

    /// Current value of the labeled counter (0 if never incremented).
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        if name == LABELS_DROPPED && labels.is_empty() {
            return self.labels_dropped;
        }
        self.counters
            .get(&SeriesKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Summary of the unlabeled histogram, if it has observations.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.histogram_with(name, &[])
    }

    /// Summary of the labeled histogram, if it has observations.
    #[must_use]
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSummary> {
        self.histograms
            .get(&SeriesKey::new(name, labels))
            .map(LogHistogram::summary)
    }

    /// Every counter series with its value, in key order. The
    /// `telemetry.labels_dropped` count is not among them; see
    /// [`Registry::labels_dropped`].
    pub fn counters(&self) -> impl Iterator<Item = (&SeriesKey, u64)> {
        self.counters.iter().map(|(key, value)| (key, *value))
    }

    /// Label sets dropped at the cardinality cap so far.
    #[must_use]
    pub fn labels_dropped(&self) -> u64 {
        self.labels_dropped
    }

    /// Immutable, serializable view of everything recorded so far.
    /// Series names are rendered canonically (`name{k="v"}`); a nonzero
    /// drop count surfaces as the `telemetry.labels_dropped` counter.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.render(), *v))
            .collect();
        if self.labels_dropped > 0 {
            counters.push((LABELS_DROPPED.to_string(), self.labels_dropped));
            counters.sort();
        }
        RegistrySnapshot {
            counters,
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.render(), h.summary()))
                .collect(),
        }
    }
}

/// Serializable registry state, embedded in `Event::MetricsRegistry`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// (rendered series name, value) pairs in key order.
    pub counters: Vec<(String, u64)>,
    /// (rendered series name, summary) pairs in key order.
    pub histograms: Vec<(String, HistogramSummary)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        assert_eq!(r.counter("samples_taken"), 0);
        r.incr("samples_taken", 3);
        r.incr("samples_taken", 4);
        assert_eq!(r.counter("samples_taken"), 7);
    }

    #[test]
    fn labeled_counters_are_distinct_series() {
        let mut r = Registry::new();
        r.incr_with("fit", &[("learner", "gbrt")], 2);
        r.incr_with("fit", &[("learner", "quad-lasso")], 5);
        r.incr("fit", 1);
        assert_eq!(r.counter_with("fit", &[("learner", "gbrt")]), 2);
        assert_eq!(r.counter_with("fit", &[("learner", "quad-lasso")]), 5);
        assert_eq!(r.counter("fit"), 1);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut r = Registry::new();
        r.incr_with("x", &[("b", "2"), ("a", "1")], 1);
        r.incr_with("x", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(r.counter_with("x", &[("b", "2"), ("a", "1")]), 2);
        // Duplicate keys: last value wins.
        let k = SeriesKey::new("y", &[("a", "old"), ("a", "new")]);
        assert_eq!(k.labels, vec![("a".to_string(), "new".to_string())]);
    }

    #[test]
    fn histograms_track_extrema_mean_and_quantiles() {
        let mut r = Registry::new();
        r.observe("lat", 2.0);
        r.observe("lat", 6.0);
        r.observe("lat", 4.0);
        let h = r.histogram("lat").expect("recorded");
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 6.0);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert!(h.p50 > 0.0 && h.p50 <= h.p99);
        assert!(r.histogram("missing").is_none());
    }

    #[test]
    fn cardinality_cap_drops_to_base_series_without_panicking() {
        let mut r = Registry::new();
        // A caller emits unbounded label values.
        for i in 0..(MAX_LABELED_SERIES + 100) {
            let v = format!("id-{i}");
            r.incr_with("requests", &[("id", &v)], 1);
        }
        assert_eq!(r.labels_dropped(), 100);
        // The overflow landed in the unlabeled base series.
        assert_eq!(r.counter("requests"), 100);
        // Existing labeled series still accumulate after the cap.
        r.incr_with("requests", &[("id", "id-0")], 1);
        assert_eq!(r.counter_with("requests", &[("id", "id-0")]), 2);
        assert_eq!(r.labels_dropped(), 100);
        let snap = r.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(name, v)| name == LABELS_DROPPED && *v == 100));
        // The typed view lists the series that were admitted, and no more.
        assert_eq!(r.counters().count(), MAX_LABELED_SERIES + 1);
    }

    #[test]
    fn snapshot_is_deterministic_and_round_trips() {
        let mut r = Registry::new();
        r.incr("b", 2);
        r.incr("a", 1);
        r.incr_with("a", &[("phase", "fit")], 3);
        r.observe("z", 1.0);
        r.observe("y", 5.0);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].0, "a");
        assert_eq!(snap.counters[1].0, "a{phase=\"fit\"}");
        assert_eq!(snap.counters[2].0, "b");
        assert_eq!(snap.histograms[0].0, "y");
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: RegistrySnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn rendered_keys_escape_label_values() {
        let k = SeriesKey::new("m", &[("path", "a\"b\\c\nd")]);
        assert_eq!(k.render(), "m{path=\"a\\\"b\\\\c\\nd\"}");
        // The typed key keeps the raw value.
        assert_eq!(k.label("path"), Some("a\"b\\c\nd"));
        assert_eq!(k.label("missing"), None);
    }
}
