//! Differential, reproducibility and golden-trace tests for the
//! deterministic fault-injection layer.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Differential no-op**: arming an *empty* `FaultPlan` leaves a run
//!    bit-identical to an unarmed run — every counter, every metric bit.
//! 2. **Seeded reproducibility**: the same plan + seed produces the same
//!    telemetry trace, record for record (modulo wall-clock timestamps).
//! 3. **Golden degradation ladder**: a committed fixture plan walks the
//!    controller through re-sample → refit → revert-to-static in exactly
//!    the committed order: the trace's `LadderMoved` transitions are
//!    pinned in `tests/fixtures/degradation_golden.jsonl`.
//!    Regenerate with `MCT_BLESS=1 cargo test --test fault_injection`.

use memory_cocktail_therapy::framework::{
    trace_transitions, Controller, ControllerConfig, DegradationStage, ModelKind, NvmConfig,
    Objective, StateRecord,
};
use memory_cocktail_therapy::sim::{
    AccessKind, AccessSource, FaultEvent, FaultPlan, System, SystemConfig, TraceEvent,
};
use memory_cocktail_therapy::telemetry::{Record, RecorderHandle, VecRecorder};
use memory_cocktail_therapy::workloads::Workload;

/// A write-heavy source over a working set far larger than the LLC, so
/// dirty evictions stream to known line addresses (stuck-line tests need
/// writes landing on predictable lines).
struct WideWriter {
    next: u64,
    lines: u64,
}

impl AccessSource for WideWriter {
    fn next_access(&mut self) -> TraceEvent {
        self.next = (self.next + 1) % self.lines;
        TraceEvent {
            gap_insts: 10,
            kind: AccessKind::Write,
            line: self.next,
        }
    }
}

fn wide_writer() -> WideWriter {
    WideWriter {
        next: 0,
        lines: 200_000,
    }
}

fn run_system(plan: Option<&FaultPlan>, insts: u64) -> memory_cocktail_therapy::sim::RunStats {
    let mut sys = System::new(
        SystemConfig::default(),
        NvmConfig::default_config().to_policy(),
    );
    // Warm long enough to fill the 32k-line LLC, so dirty evictions
    // (memory writes) flow during the measured window.
    let mut src = wide_writer();
    sys.warmup(&mut src, 1_000_000);
    if let Some(plan) = plan {
        sys.arm_faults(plan);
    }
    sys.run(&mut src, insts)
}

#[test]
fn armed_empty_plan_is_bit_identical_to_unarmed() {
    let base = run_system(None, 150_000);
    let armed = run_system(Some(&FaultPlan::empty(12345)), 150_000);

    // Whole-struct equality first (instructions, counters, cache stats,
    // energy, stall breakdowns)...
    assert_eq!(base, armed);
    // ...then the floats again at bit precision, since `PartialEq` on
    // f64 would accept 0.0 == -0.0.
    assert_eq!(base.cpu_cycles.to_bits(), armed.cpu_cycles.to_bits());
    assert_eq!(base.wear_units.to_bits(), armed.wear_units.to_bits());
    assert_eq!(
        base.lifetime_years.to_bits(),
        armed.lifetime_years.to_bits()
    );
    assert_eq!(
        base.energy.total().to_bits(),
        armed.energy.total().to_bits()
    );
    assert_eq!(base.mem_counter_snapshot(), armed.mem_counter_snapshot());
    assert_eq!(base.mem.fault_retries, 0);
}

#[test]
fn stuck_lines_force_retries_and_extra_wear() {
    // Lines 0..200k are all written cyclically, so stuck lines land.
    let events: Vec<FaultEvent> = (0..200)
        .map(|i| FaultEvent::StuckLine {
            line: i * 997,
            from_ns: 0.0,
            retries: 6,
        })
        .collect();
    let plan = FaultPlan { seed: 7, events };
    let base = run_system(None, 150_000);
    let faulted = run_system(Some(&plan), 150_000);
    assert!(
        faulted.mem.fault_retries > 0,
        "stuck lines must force retries: {:?}",
        faulted.mem
    );
    assert!(
        faulted.wear_units > base.wear_units,
        "retries charge extra wear: {} vs {}",
        faulted.wear_units,
        base.wear_units
    );
}

#[test]
fn drift_and_outages_slow_the_system_without_deadlock() {
    let plan = FaultPlan {
        seed: 3,
        events: vec![
            FaultEvent::WriteLatencyDrift {
                bank: None,
                start_ns: 0.0,
                end_ns: 1e12,
                factor: 3.0,
                drift_per_ms: 0.0,
            },
            FaultEvent::BankOutage {
                bank: 0,
                start_ns: 0.0,
                end_ns: 500_000.0,
            },
            FaultEvent::BankOutage {
                bank: 5,
                start_ns: 10_000.0,
                end_ns: 400_000.0,
            },
        ],
    };
    let base = run_system(None, 150_000);
    let faulted = run_system(Some(&plan), 150_000);
    let base_m = base.metrics();
    let fault_m = faulted.metrics();
    assert!(fault_m.ipc.is_finite() && fault_m.ipc > 0.0);
    assert!(
        fault_m.ipc < base_m.ipc,
        "3x write latency must cost IPC: {} vs {}",
        fault_m.ipc,
        base_m.ipc
    );
}

/// The controller configuration all trace tests share: small budget,
/// frequent health checks, fixed seed.
fn chaos_controller_cfg(plan: FaultPlan) -> ControllerConfig {
    let mut cfg = ControllerConfig::quick_demo();
    cfg.model = ModelKind::QuadraticLasso;
    cfg.total_insts = 1_200_000;
    cfg.warmup_insts = 100_000;
    cfg.health_check_every_windows = 2;
    cfg.seed = 17;
    cfg.fault_plan = Some(plan);
    cfg
}

/// Run the controller on `workload` under `plan` and capture the trace.
fn traced_run(workload: Workload, plan: FaultPlan) -> Vec<Record> {
    let rec = VecRecorder::shared();
    let handle: RecorderHandle = rec.clone();
    let mut controller = Controller::new(chaos_controller_cfg(plan), Objective::paper_default(8.0))
        .with_recorder(handle);
    let seed = 17;
    controller.run(&mut workload.source(seed));
    let mut guard = rec.lock().expect("recorder lock");
    let mut records = guard.take_records();
    // Host-time noise must not leak into determinism comparisons: zero
    // the wall-clock stamps and drop the registry snapshot, whose
    // `*_wall_us` / throughput histograms measure the host, not the sim.
    records.retain(|r| r.event.kind() != "metrics_registry");
    for r in &mut records {
        r.wall_us = 0;
    }
    records
}

/// The fixture plan: heavy measurement noise plus a global latency
/// drift, tuned so health checks fail repeatedly and the degradation
/// ladder walks every rung.
fn degradation_plan() -> FaultPlan {
    let text = std::fs::read_to_string(fixture_path("degradation_plan.json"))
        .expect("read degradation_plan.json");
    let plan: FaultPlan = serde_json::from_str(&text).expect("parse degradation_plan.json");
    plan.validate().expect("fixture plan must validate");
    plan
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn seeded_plan_reproduces_identical_traces() {
    let a = traced_run(Workload::Stream, degradation_plan());
    let b = traced_run(Workload::Stream, degradation_plan());
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "same plan + seed must reproduce the telemetry trace record for record"
    );
}

#[test]
fn golden_degradation_trace_pins_escalation_order() {
    let records = traced_run(Workload::Stream, degradation_plan());
    let moves: Vec<StateRecord> =
        trace_transitions(&records, &mut std::collections::BTreeMap::new())
            .into_iter()
            .filter(|t| matches!(t, StateRecord::LadderMoved { .. }))
            .collect();

    // The ladder itself, independent of the serialized form: the fixture
    // plan must walk re-sample -> refit -> revert-to-static, in order.
    let stages: Vec<DegradationStage> = moves
        .iter()
        .map(|t| match t {
            StateRecord::LadderMoved { to, .. } => *to,
            _ => unreachable!("filtered on kind"),
        })
        .collect();
    assert_eq!(
        stages,
        vec![
            DegradationStage::Resample,
            DegradationStage::Refit,
            DegradationStage::RevertToStatic
        ],
        "escalation ladder order"
    );

    let rendered: String = moves
        .iter()
        .map(|t| serde_json::to_string(t).expect("serialize transition") + "\n")
        .collect();

    let golden_path = fixture_path("degradation_golden.jsonl");
    if std::env::var_os("MCT_BLESS").is_some() {
        std::fs::write(&golden_path, &rendered).expect("bless degradation_golden.jsonl");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("read degradation_golden.jsonl (regenerate with MCT_BLESS=1)");
    assert_eq!(
        rendered.trim(),
        golden.trim(),
        "degradation trace diverged from the committed golden; \
         regenerate with MCT_BLESS=1 if the change is intentional"
    );
}
