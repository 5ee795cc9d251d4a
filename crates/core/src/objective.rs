//! User-defined constrained objectives (paper Section 3.2).
//!
//! The paper's canonical objective: *subject to lifetime ≥ t, among
//! configurations whose IPC is within 95% of the maximum, minimize
//! energy.* The same machinery expresses the embedded (energy-capped) and
//! datacenter (performance-floored) variants by permuting which metric is
//! the constraint, the primary goal, and the tiebreak.

use serde::{Deserialize, Serialize};

use mct_sim::stats::Metrics;

use crate::error::MctError;

/// One of the three tradeoff metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Instructions per cycle (higher is better).
    Ipc,
    /// Memory lifetime in years (higher is better).
    Lifetime,
    /// System energy in joules (lower is better).
    Energy,
}

impl Metric {
    /// Extract this metric's value.
    #[must_use]
    pub fn of(self, m: &Metrics) -> f64 {
        match self {
            Metric::Ipc => m.ipc,
            Metric::Lifetime => m.lifetime_years,
            Metric::Energy => m.energy_j,
        }
    }
}

/// A hard constraint over one metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Constraint {
    /// Metric must be at least this value.
    AtLeast(Metric, f64),
    /// Metric must be at most this value.
    AtMost(Metric, f64),
}

impl Constraint {
    /// Whether `m` satisfies the constraint.
    #[must_use]
    pub fn satisfied_by(&self, m: &Metrics) -> bool {
        match *self {
            Constraint::AtLeast(metric, v) => metric.of(m) >= v,
            Constraint::AtMost(metric, v) => metric.of(m) <= v,
        }
    }
}

/// Direction of optimization over one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptimizeTarget {
    /// Maximize the metric.
    Maximize(Metric),
    /// Minimize the metric.
    Minimize(Metric),
}

impl OptimizeTarget {
    /// Score such that larger is always better.
    #[must_use]
    pub fn score(&self, m: &Metrics) -> f64 {
        match *self {
            OptimizeTarget::Maximize(metric) => metric.of(m),
            OptimizeTarget::Minimize(metric) => -metric.of(m),
        }
    }
}

/// A complete constrained objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// Hard filters applied first.
    pub constraints: Vec<Constraint>,
    /// Primary goal among feasible configurations.
    pub primary: OptimizeTarget,
    /// Keep configurations scoring within `slack` of the primary best
    /// (e.g. 0.95 keeps IPC within 95% of max). `1.0` keeps only the best.
    pub slack: f64,
    /// Final selection among the slack set.
    pub tiebreak: OptimizeTarget,
}

impl Objective {
    /// The paper's default objective: lifetime ≥ `target_years`; IPC
    /// within 95% of max; minimize energy.
    #[must_use]
    pub fn paper_default(target_years: f64) -> Objective {
        Objective {
            constraints: vec![Constraint::AtLeast(Metric::Lifetime, target_years)],
            primary: OptimizeTarget::Maximize(Metric::Ipc),
            slack: 0.95,
            tiebreak: OptimizeTarget::Minimize(Metric::Energy),
        }
    }

    /// Embedded-system variant (Section 3.2): energy ≤ `budget_j`;
    /// maximize IPC within 95%; then maximize lifetime.
    #[must_use]
    pub fn embedded(budget_j: f64) -> Objective {
        Objective {
            constraints: vec![Constraint::AtMost(Metric::Energy, budget_j)],
            primary: OptimizeTarget::Maximize(Metric::Ipc),
            slack: 0.95,
            tiebreak: OptimizeTarget::Maximize(Metric::Lifetime),
        }
    }

    /// Datacenter variant (Section 3.2): IPC ≥ `ipc_floor`; maximize
    /// lifetime within 95%; then minimize energy.
    #[must_use]
    pub fn datacenter(ipc_floor: f64) -> Objective {
        Objective {
            constraints: vec![Constraint::AtLeast(Metric::Ipc, ipc_floor)],
            primary: OptimizeTarget::Maximize(Metric::Lifetime),
            slack: 0.95,
            tiebreak: OptimizeTarget::Minimize(Metric::Energy),
        }
    }

    /// Validate structural sanity.
    ///
    /// # Errors
    /// Returns [`MctError::InvalidObjective`] when `slack` is outside
    /// `(0, 1]`.
    pub fn validate(&self) -> Result<(), MctError> {
        if !(self.slack > 0.0 && self.slack <= 1.0) {
            return Err(MctError::InvalidObjective(
                "slack must be in (0, 1]".to_string(),
            ));
        }
        Ok(())
    }

    /// The lifetime floor among the constraints, if any — drives the
    /// wear-quota fixup target.
    #[must_use]
    pub fn lifetime_floor(&self) -> Option<f64> {
        self.constraints.iter().find_map(|c| match *c {
            Constraint::AtLeast(Metric::Lifetime, v) => Some(v),
            _ => None,
        })
    }

    /// Select the optimal index among `candidates` per this objective.
    ///
    /// Returns `None` when no candidate satisfies the hard constraints.
    #[must_use]
    pub fn select(&self, candidates: &[Metrics]) -> Option<usize> {
        let feasible: Vec<usize> = (0..candidates.len())
            .filter(|&i| {
                self.constraints
                    .iter()
                    .all(|c| c.satisfied_by(&candidates[i]))
            })
            .collect();
        if feasible.is_empty() {
            return None;
        }
        let best_primary = feasible
            .iter()
            .map(|&i| self.primary.score(&candidates[i]))
            .fold(f64::NEG_INFINITY, f64::max);
        // The slack window: for positive scores, >= slack * best; for
        // negative (minimization) scores, within best / slack.
        let cutoff = if best_primary >= 0.0 {
            best_primary * self.slack
        } else {
            best_primary / self.slack
        };
        feasible
            .into_iter()
            .filter(|&i| self.primary.score(&candidates[i]) >= cutoff)
            .max_by(|&a, &b| {
                self.tiebreak
                    .score(&candidates[a])
                    .total_cmp(&self.tiebreak.score(&candidates[b]))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(ipc: f64, life: f64, e: f64) -> Metrics {
        Metrics {
            ipc,
            lifetime_years: life,
            energy_j: e,
        }
    }

    #[test]
    fn paper_default_selects_low_energy_within_95pct() {
        let obj = Objective::paper_default(8.0);
        let candidates = vec![
            m(1.00, 9.0, 10.0), // best IPC, high energy
            m(0.97, 9.0, 7.0),  // within 95%, lowest energy -> winner
            m(0.90, 9.0, 5.0),  // below 95% of max
            m(1.10, 4.0, 1.0),  // violates lifetime
        ];
        assert_eq!(obj.select(&candidates), Some(1));
    }

    #[test]
    fn infeasible_returns_none() {
        let obj = Objective::paper_default(8.0);
        assert_eq!(obj.select(&[m(1.0, 3.0, 1.0)]), None);
    }

    #[test]
    fn embedded_variant_caps_energy() {
        let obj = Objective::embedded(5.0);
        let candidates = vec![
            m(1.2, 4.0, 9.0), // over budget
            m(1.0, 4.0, 5.0), // winner: feasible, top IPC
            m(0.6, 9.0, 4.0), // below 95% of IPC
        ];
        assert_eq!(obj.select(&candidates), Some(1));
    }

    #[test]
    fn datacenter_variant_floors_ipc_maximizes_lifetime() {
        let obj = Objective::datacenter(0.8);
        let candidates = vec![
            m(0.7, 20.0, 1.0), // IPC too low
            m(0.9, 10.0, 3.0), // feasible, max lifetime -> in window
            m(0.9, 9.8, 2.0),  // within 95% of lifetime, cheaper -> winner
        ];
        assert_eq!(obj.select(&candidates), Some(2));
    }

    #[test]
    fn slack_one_keeps_only_best_primary() {
        let mut obj = Objective::paper_default(0.0);
        obj.slack = 1.0;
        let candidates = vec![m(1.0, 9.0, 10.0), m(0.999, 9.0, 0.1)];
        assert_eq!(obj.select(&candidates), Some(0));
    }

    #[test]
    fn lifetime_floor_extraction() {
        assert_eq!(Objective::paper_default(6.5).lifetime_floor(), Some(6.5));
        assert_eq!(Objective::embedded(1.0).lifetime_floor(), None);
    }

    #[test]
    fn negative_score_slack_window() {
        // Minimizing energy as primary: scores are negative.
        let obj = Objective {
            constraints: vec![],
            primary: OptimizeTarget::Minimize(Metric::Energy),
            slack: 0.9,
            tiebreak: OptimizeTarget::Maximize(Metric::Ipc),
        };
        let candidates = vec![
            m(0.5, 1.0, 9.0),  // energy 9: best
            m(2.0, 1.0, 9.9),  // within 10% window, higher IPC -> winner
            m(9.0, 1.0, 20.0), // far outside window
        ];
        assert_eq!(obj.select(&candidates), Some(1));
    }

    #[test]
    fn validate_slack() {
        let mut obj = Objective::paper_default(8.0);
        obj.validate().unwrap();
        obj.slack = 0.0;
        assert!(obj.validate().is_err());
        obj.slack = 1.5;
        assert!(obj.validate().is_err());
    }

    #[test]
    fn metric_accessors() {
        let x = m(1.0, 2.0, 3.0);
        assert_eq!(Metric::Ipc.of(&x), 1.0);
        assert_eq!(Metric::Lifetime.of(&x), 2.0);
        assert_eq!(Metric::Energy.of(&x), 3.0);
    }
}
