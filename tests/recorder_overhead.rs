//! Observability must not perturb the experiment.
//!
//! Two contracts guard the new span instrumentation:
//!
//! 1. **Bit-identity**: attaching a recorder (spans, histograms, labeled
//!    series and all) changes nothing about the simulated outcome — every
//!    wall-clock probe in the controller is telemetry-gated and never
//!    feeds results. Holds with fault hooks armed on an empty plan too,
//!    the configuration `mct chaos` uses as its control arm.
//! 2. **Zero cost when disabled**: with no recorder attached (the
//!    default), a span open/close pair is a branch each way — cheap enough to sit in
//!    the simulator-facing hot loop. Asserted in release builds only,
//!    where the contract actually matters.

use memory_cocktail_therapy::framework::{
    Controller, ControllerConfig, ModelKind, Objective, Outcome,
};
use memory_cocktail_therapy::sim::FaultPlan;
use memory_cocktail_therapy::telemetry::VecRecorder;
use memory_cocktail_therapy::workloads::Workload;

fn run_once(with_recorder: bool, plan: Option<FaultPlan>) -> Outcome {
    let mut cfg = ControllerConfig::quick_demo();
    cfg.model = ModelKind::QuadraticLasso;
    cfg.fault_plan = plan;
    let mut c = Controller::new(cfg, Objective::paper_default(8.0));
    if with_recorder {
        c = c.with_recorder(VecRecorder::shared());
    }
    c.run(&mut Workload::Stream.source(11))
}

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let untraced = run_once(false, None);
    let traced = run_once(true, None);
    assert_eq!(untraced, traced, "recorder must not perturb the outcome");
}

#[test]
fn armed_empty_fault_run_with_spans_is_bit_identical() {
    let plan = FaultPlan::empty(11);
    let untraced = run_once(false, Some(plan.clone()));
    let traced = run_once(true, Some(plan));
    assert_eq!(
        untraced, traced,
        "fault.arm span must not perturb the armed-empty run"
    );
    // The armed-empty control arm also matches the disarmed run.
    assert_eq!(untraced, run_once(false, None));
}

/// Release builds only: debug-profile timing says nothing about the
/// shipped hot path, and the bound below assumes optimized code.
#[cfg(not(debug_assertions))]
#[test]
fn disabled_span_pair_is_nanoseconds() {
    use memory_cocktail_therapy::telemetry::Telemetry;
    let mut t = Telemetry::disabled();
    let n: u64 = 10_000_000;
    let start = std::time::Instant::now();
    for i in 0..n {
        let s = t.span("hot", i);
        t.close_span(s, i);
    }
    let per_op = start.elapsed().as_nanos() as f64 / n as f64;
    // Measured ~1-2 ns; 50 ns still leaves ample headroom for loaded CI
    // machines while catching an accidental clock read or allocation on
    // the disabled path (~20-60 ns each). Tightened from 100 ns when the
    // controller's window probe was collapsed to a single enabled()
    // gate — the bound now guards both halves of that contract.
    assert!(
        per_op < 50.0,
        "disabled span open/close costs {per_op:.1} ns; contract is branch-only"
    );
}
