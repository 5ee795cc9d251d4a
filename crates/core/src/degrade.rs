//! Graceful-degradation ladder for the testing-period health checker.
//!
//! The paper's health check (Section 5.4) is binary: if the chosen
//! configuration underperforms the baseline, revert to the static-safe
//! configuration for the rest of the phase. Under injected faults
//! ([`mct_sim::FaultPlan`]) that is too blunt — a latency-drift window or
//! a burst of measurement noise can make a *good* choice look bad for a
//! few checks, and an immediate revert forfeits the learned configuration
//! for the whole phase.
//!
//! The ladder escalates through three increasingly drastic remedies, one
//! rung per failed health check:
//!
//! 1. **Re-sample** — abandon the testing period and restart the segment
//!    (baseline + cyclic sampling) so the model sees the degraded regime;
//! 2. **Refit** — keep testing but fold the observed testing metrics into
//!    the sample set, refit the predictor, and re-optimize in place;
//! 3. **Revert-to-static** — the paper's fallback: pin the static-safe
//!    baseline for the rest of the run segment.
//!
//! Escalation is monotone within a run: the ladder never walks back to an
//! earlier rung, so a controller that reverted stays reverted (the same
//! stickiness the paper's fallback has). Passing checks simply leave the
//! ladder where it is. Every escalation is reported so the controller can
//! emit a `LadderMoved` transition, which the state store logs and
//! `mct report` renders.

use serde::{Deserialize, Serialize};

/// Where the controller currently sits on the degradation ladder.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DegradationStage {
    /// No sustained health failure observed; the learned choice stands.
    #[default]
    Normal,
    /// First failure: the segment was restarted to re-sample the regime.
    Resample,
    /// Second failure: the predictor was refit with testing observations.
    Refit,
    /// Third failure: pinned to the static-safe baseline (paper fallback).
    RevertToStatic,
}

impl DegradationStage {
    /// Stable lower-case label used in telemetry events and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DegradationStage::Normal => "normal",
            DegradationStage::Resample => "resample",
            DegradationStage::Refit => "refit",
            DegradationStage::RevertToStatic => "revert-to-static",
        }
    }

    fn next(self) -> DegradationStage {
        match self {
            DegradationStage::Normal => DegradationStage::Resample,
            DegradationStage::Resample => DegradationStage::Refit,
            DegradationStage::Refit | DegradationStage::RevertToStatic => {
                DegradationStage::RevertToStatic
            }
        }
    }
}

/// The remedy the controller must apply after a failed health check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationAction {
    /// Check passed (or the ladder is already at the bottom): keep going.
    None,
    /// Break out of the testing period and restart the segment.
    Resample,
    /// Fold testing observations into the sample set and re-optimize.
    Refit,
    /// Pin the static-safe baseline for the rest of the segment.
    RevertToStatic,
}

/// One escalation step, reported so the controller can emit telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationTransition {
    /// Stage before the failed check.
    pub from: DegradationStage,
    /// Stage after the failed check.
    pub to: DegradationStage,
    /// Total failed health checks observed by the ladder so far.
    pub failures: u64,
}

/// Monotone escalation state machine driven by health-check verdicts.
///
/// Lives across segments within one controller run: faults persist across
/// phase boundaries, so a regime bad enough to trigger a re-sample should
/// escalate — not restart from rung one — if the re-sampled model still
/// underperforms.
#[derive(Debug, Clone, Default)]
pub struct DegradationLadder {
    stage: DegradationStage,
    failures: u64,
}

/// Lifetime-floor pressure margin: a testing-period lifetime reading below
/// `floor * FLOOR_PRESSURE_MARGIN` counts as a failed health check even if
/// IPC looks fine, because the Wear Quota fixup is sized for the predicted
/// wear rate and a faulted regime can exceed it.
pub const FLOOR_PRESSURE_MARGIN: f64 = 0.5;

impl DegradationLadder {
    /// A fresh ladder at [`DegradationStage::Normal`].
    #[must_use]
    pub fn new() -> DegradationLadder {
        DegradationLadder::default()
    }

    /// Current rung.
    #[must_use]
    pub fn stage(&self) -> DegradationStage {
        self.stage
    }

    /// Total failed health checks observed.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Whether the ladder has bottomed out at the static-safe baseline.
    #[must_use]
    pub fn reverted(&self) -> bool {
        self.stage == DegradationStage::RevertToStatic
    }

    /// Feed one health-check verdict. A failed check escalates one rung
    /// and returns the transition plus the remedy to apply; a passed
    /// check (or a failure when already reverted) returns no transition.
    pub fn observe(&mut self, failed: bool) -> (DegradationAction, Option<DegradationTransition>) {
        if !failed {
            return (DegradationAction::None, None);
        }
        self.failures += 1;
        let from = self.stage;
        let to = from.next();
        self.stage = to;
        let action = match to {
            DegradationStage::Normal => DegradationAction::None,
            DegradationStage::Resample => DegradationAction::Resample,
            DegradationStage::Refit => DegradationAction::Refit,
            DegradationStage::RevertToStatic => DegradationAction::RevertToStatic,
        };
        let transition = (from != to).then_some(DegradationTransition {
            from,
            to,
            failures: self.failures,
        });
        (action, transition)
    }

    /// Whether a health reading fails: sustained prediction error (testing
    /// IPC below 95% of the accumulated baseline reference, the paper's
    /// Section 5.4 criterion) or lifetime-floor pressure (a finite
    /// lifetime reading below [`FLOOR_PRESSURE_MARGIN`] of the floor).
    /// `checks` gates on at least two accumulated reference windows, as a
    /// single window is burst-biased.
    #[must_use]
    pub fn reading_failed(
        checks: u32,
        testing_ipc: f64,
        baseline_ipc: f64,
        testing_lifetime_years: f64,
        lifetime_floor: Option<f64>,
    ) -> bool {
        if checks < 2 {
            return false;
        }
        let ipc_bad = testing_ipc < baseline_ipc * 0.95;
        let floor_bad = lifetime_floor.is_some_and(|floor| {
            testing_lifetime_years.is_finite()
                && testing_lifetime_years < floor * FLOOR_PRESSURE_MARGIN
        });
        ipc_bad || floor_bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_one_rung_per_failure() {
        let mut ladder = DegradationLadder::new();
        assert_eq!(ladder.stage(), DegradationStage::Normal);

        let (action, tr) = ladder.observe(true);
        assert_eq!(action, DegradationAction::Resample);
        let tr = tr.expect("transition");
        assert_eq!(tr.from, DegradationStage::Normal);
        assert_eq!(tr.to, DegradationStage::Resample);
        assert_eq!(tr.failures, 1);

        let (action, tr) = ladder.observe(true);
        assert_eq!(action, DegradationAction::Refit);
        assert_eq!(tr.expect("transition").to, DegradationStage::Refit);

        let (action, tr) = ladder.observe(true);
        assert_eq!(action, DegradationAction::RevertToStatic);
        assert_eq!(tr.expect("transition").to, DegradationStage::RevertToStatic);
        assert!(ladder.reverted());
    }

    #[test]
    fn passing_checks_do_not_move_the_ladder() {
        let mut ladder = DegradationLadder::new();
        ladder.observe(true);
        let stage = ladder.stage();
        let (action, tr) = ladder.observe(false);
        assert_eq!(action, DegradationAction::None);
        assert!(tr.is_none());
        assert_eq!(ladder.stage(), stage);
    }

    #[test]
    fn bottom_rung_is_sticky_and_silent() {
        let mut ladder = DegradationLadder::new();
        for _ in 0..3 {
            ladder.observe(true);
        }
        let (action, tr) = ladder.observe(true);
        assert_eq!(action, DegradationAction::RevertToStatic);
        assert!(tr.is_none(), "no transition when already at the bottom");
        assert_eq!(ladder.failures(), 4);
    }

    #[test]
    fn reading_failed_matches_paper_ipc_criterion() {
        // Fewer than two reference windows: never fail.
        assert!(!DegradationLadder::reading_failed(
            1,
            0.1,
            1.0,
            8.0,
            Some(8.0)
        ));
        // IPC below 95% of baseline fails.
        assert!(DegradationLadder::reading_failed(
            2,
            0.94,
            1.0,
            8.0,
            Some(8.0)
        ));
        assert!(!DegradationLadder::reading_failed(
            2,
            0.96,
            1.0,
            8.0,
            Some(8.0)
        ));
    }

    #[test]
    fn reading_failed_detects_floor_pressure() {
        // Lifetime below half the floor fails even with healthy IPC.
        assert!(DegradationLadder::reading_failed(
            2,
            1.0,
            1.0,
            3.9,
            Some(8.0)
        ));
        // Infinite lifetime (no wear observed yet) never fails the floor.
        assert!(!DegradationLadder::reading_failed(
            2,
            1.0,
            1.0,
            f64::INFINITY,
            Some(8.0)
        ));
        // No floor objective: only the IPC criterion applies.
        assert!(!DegradationLadder::reading_failed(2, 1.0, 1.0, 0.1, None));
    }
}
