//! Lightweight phase detection (paper Section 5.1).
//!
//! Performance counters report the memory workload (reads + writes) per
//! window of `I` instructions. A two-sided Student's t-test compares the
//! most recent `recent_windows` against the retained history of up to
//! `history_windows`; a t-score above `score_threshold` flags a dramatic
//! phase change, after which the history restarts. Minor fluctuations are
//! absorbed (the paper tolerates them through normalization and
//! fine-grained sampling).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Phase-detector parameters. Paper values: `I` = 1 M instructions,
/// history 1000·I, recent 100·I, threshold 15.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseDetectorConfig {
    /// Window length in instructions (`I`).
    pub window_insts: u64,
    /// History length in windows.
    pub history_windows: usize,
    /// Recent-set length in windows.
    pub recent_windows: usize,
    /// t-score above which a new phase is declared.
    pub score_threshold: f64,
}

impl Default for PhaseDetectorConfig {
    /// Paper parameters scaled to this reproduction's shorter runs:
    /// 100 k-instruction windows, 100-window history, 10-window recent
    /// set. The threshold is 25 rather than the paper's 15: our windows
    /// are 10x shorter than the paper's 1 M instructions, so per-window
    /// workload variance is higher and burst edges would otherwise read
    /// as phases (Section 5.1 wants those tolerated).
    fn default() -> PhaseDetectorConfig {
        PhaseDetectorConfig {
            window_insts: 100_000,
            history_windows: 100,
            recent_windows: 10,
            score_threshold: 25.0,
        }
    }
}

impl PhaseDetectorConfig {
    /// The paper's literal parameters (Figure 6): 1 M-instruction windows,
    /// 1000-window history, 100-window recent set, threshold 15.
    #[must_use]
    pub fn paper() -> PhaseDetectorConfig {
        PhaseDetectorConfig {
            window_insts: 1_000_000,
            history_windows: 1000,
            recent_windows: 100,
            score_threshold: 15.0,
        }
    }
}

/// The t-test phase detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseDetector {
    cfg: PhaseDetectorConfig,
    history: VecDeque<f64>,
    phases_detected: u64,
    last_score: f64,
}

impl PhaseDetector {
    /// A fresh detector.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    #[must_use]
    pub fn new(cfg: PhaseDetectorConfig) -> PhaseDetector {
        assert!(cfg.window_insts > 0, "window must be nonzero");
        assert!(
            cfg.recent_windows >= 2 && cfg.history_windows > cfg.recent_windows,
            "history must exceed the recent set (>= 2)"
        );
        assert!(cfg.score_threshold > 0.0, "threshold must be positive");
        PhaseDetector {
            cfg,
            history: VecDeque::new(),
            phases_detected: 0,
            last_score: 0.0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PhaseDetectorConfig {
        &self.cfg
    }

    /// Feed the memory-workload count for one window of `I` instructions.
    /// Returns `true` when a dramatic phase change is detected (history
    /// restarts automatically, per the paper's "clear off the counters
    /// and restart").
    pub fn observe(&mut self, workload: f64) -> bool {
        self.history.push_back(workload);
        while self.history.len() > self.cfg.history_windows {
            self.history.pop_front();
        }
        // Need a recent set plus at least as much older history.
        if self.history.len() < 2 * self.cfg.recent_windows {
            self.last_score = 0.0;
            return false;
        }
        let n = self.history.len();
        let recent: Vec<f64> = self
            .history
            .iter()
            .skip(n - self.cfg.recent_windows)
            .copied()
            .collect();
        let older: Vec<f64> = self
            .history
            .iter()
            .take(n - self.cfg.recent_windows)
            .copied()
            .collect();
        self.last_score = Self::t_score(&recent, &older);
        if self.last_score > self.cfg.score_threshold {
            self.phases_detected += 1;
            self.history.clear();
            return true;
        }
        false
    }

    /// Welch's two-sample t statistic (absolute value).
    fn t_score(a: &[f64], b: &[f64]) -> f64 {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let var = |v: &[f64], m: f64| {
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() as f64 - 1.0).max(1.0)
        };
        let (ma, mb) = (mean(a), mean(b));
        let (va, vb) = (var(a, ma), var(b, mb));
        let denom = (va / a.len() as f64 + vb / b.len() as f64).sqrt();
        if denom < 1e-12 {
            // Identical variance-free windows: no evidence of change
            // unless the means differ, in which case the evidence is
            // overwhelming.
            return if (ma - mb).abs() < 1e-12 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (ma - mb).abs() / denom
    }

    /// Number of phases detected so far.
    #[must_use]
    pub fn phases_detected(&self) -> u64 {
        self.phases_detected
    }

    /// The most recent t-score (Figure 6's plotted signal).
    #[must_use]
    pub fn last_score(&self) -> f64 {
        self.last_score
    }

    /// Drop all history (e.g. after an external reconfiguration).
    pub fn reset(&mut self) {
        self.history.clear();
        self.last_score = 0.0;
    }
}

/// Coarse signature of a workload phase from its memory accesses per
/// kilo-instruction: the log₂ bucket index at ⅛-octave granularity
/// (~9% per bucket, well inside the fluctuation band the t-test
/// already tolerates). Two segments with equal signatures are "the
/// same phase" for refit-elision purposes — a deliberately blunt
/// instrument, because the cost of a false match is one skipped refit
/// on near-identical data, while the cost of a fine-grained signature
/// is refitting on noise. Non-positive workloads collapse to a `0`
/// sentinel bucket.
#[must_use]
pub fn phase_signature(workload_per_kinst: f64) -> u64 {
    if workload_per_kinst <= 0.0 || !workload_per_kinst.is_finite() {
        return 0;
    }
    // log2 * 8 → ⅛-octave buckets; offset keeps tiny workloads positive
    // and distinct from the sentinel.
    let bucket = (workload_per_kinst.log2() * 8.0).floor() as i64;
    (bucket + 1024) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> PhaseDetector {
        PhaseDetector::new(PhaseDetectorConfig {
            window_insts: 1000,
            history_windows: 100,
            recent_windows: 10,
            score_threshold: 15.0,
        })
    }

    #[test]
    fn stable_workload_no_phase() {
        let mut d = detector();
        for i in 0..200 {
            // Small oscillation around 100.
            let w = 100.0 + f64::from(i % 5);
            assert!(!d.observe(w), "stable stream must not trigger");
        }
        assert_eq!(d.phases_detected(), 0);
    }

    #[test]
    fn dramatic_shift_detected() {
        let mut d = detector();
        for i in 0..100 {
            d.observe(100.0 + f64::from(i % 3));
        }
        let mut hit = false;
        for i in 0..20 {
            if d.observe(1000.0 + f64::from(i % 3)) {
                hit = true;
                break;
            }
        }
        assert!(hit, "10x workload shift must be detected");
        assert_eq!(d.phases_detected(), 1);
    }

    #[test]
    fn history_restarts_after_detection() {
        let mut d = detector();
        for i in 0..100 {
            d.observe(100.0 + f64::from(i % 3));
        }
        for i in 0..30 {
            let _ = d.observe(1000.0 + f64::from(i % 3));
        }
        assert_eq!(d.phases_detected(), 1, "one detection, then re-learn");
        // Continue at the new level: no further detection.
        for i in 0..100 {
            assert!(!d.observe(1000.0 + f64::from(i % 3)));
        }
    }

    #[test]
    fn fine_grained_bursts_tolerated() {
        // Alternating 50/150 every window is fine-grained noise: both the
        // recent set and history see the same mixture.
        let mut d = detector();
        for i in 0..300 {
            let w = if i % 2 == 0 { 50.0 } else { 150.0 };
            assert!(!d.observe(w), "fine-grained alternation must be tolerated");
        }
    }

    #[test]
    fn needs_warm_history_before_scoring() {
        let mut d = detector();
        for _ in 0..19 {
            assert!(!d.observe(5.0));
            assert_eq!(d.last_score(), 0.0);
        }
    }

    #[test]
    fn constant_then_step_with_zero_variance() {
        // Zero-variance history followed by a different constant: the
        // t-score denominator degenerates; detection must still fire.
        let mut d = detector();
        for _ in 0..60 {
            d.observe(10.0);
        }
        let mut hit = false;
        for _ in 0..15 {
            if d.observe(99.0) {
                hit = true;
                break;
            }
        }
        assert!(hit);
    }

    #[test]
    fn phase_signature_buckets_similar_workloads_together() {
        // Within ~4% of each other: same bucket.
        assert_eq!(phase_signature(100.0), phase_signature(102.0));
        // A 2x shift always lands 8 buckets away.
        assert_eq!(phase_signature(200.0), phase_signature(100.0) + 8);
        // Degenerate inputs share the sentinel and never match real ones.
        assert_eq!(phase_signature(0.0), 0);
        assert_eq!(phase_signature(-3.0), 0);
        assert_eq!(phase_signature(f64::NAN), 0);
        assert_ne!(phase_signature(1e-9), 0);
    }

    #[test]
    #[should_panic(expected = "history must exceed")]
    fn bad_config_panics() {
        let _ = PhaseDetector::new(PhaseDetectorConfig {
            window_insts: 1000,
            history_windows: 5,
            recent_windows: 10,
            score_threshold: 15.0,
        });
    }
}
