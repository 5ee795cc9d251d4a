//! Golden trace of the controller's span tree, transitions and counters.
//!
//! Two seeded runs are rendered one line per trace record and compared
//! against `tests/fixtures/trace_golden.txt`:
//!
//! 1. ocean under GBRT with a state store attached, on a budget that
//!    crosses ocean's phase boundary — covers `persist.open`,
//!    `persist.snapshot`, phase detection and re-sampling;
//! 2. stream under the committed degradation plan, which walks the
//!    degradation ladder to its `Refit` rung — covers `fault.arm`,
//!    `health_check` and `refit`.
//!
//! A line carries the simulated-instruction clock and either a span edge
//! (name, parent name, labels), a transition (kind and content), or — for
//! the final registry snapshot — one counter. Wall-clock stamps and every
//! histogram measure the host, not the simulation, and are left out, so
//! the fixture pins exactly what a refactor of the control loop could
//! silently move: span nesting and clocks, transition order, counters.
//! Regenerate with `MCT_BLESS=1 cargo test --test trace_golden`.

use std::collections::HashMap;
use std::fmt::Write as _;

use memory_cocktail_therapy::framework::{
    Controller, ControllerConfig, ModelKind, Objective, PersistConfig,
};
use memory_cocktail_therapy::persist::TempDir;
use memory_cocktail_therapy::sim::FaultPlan;
use memory_cocktail_therapy::telemetry::{Event, Record, RecorderHandle, VecRecorder};
use memory_cocktail_therapy::workloads::Workload;

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Run `controller` over `workload` with a recorder attached and return
/// the full trace.
fn trace(controller: Controller, workload: Workload, seed: u64) -> Vec<Record> {
    let rec = VecRecorder::shared();
    let handle: RecorderHandle = rec.clone();
    controller
        .with_recorder(handle)
        .run(&mut workload.source(seed));
    let mut guard = rec.lock().expect("recorder lock");
    guard.take_records()
}

/// One line per record; see the module docs for what is kept.
fn render(title: &str, records: &[Record]) -> String {
    let mut out = format!("# {title}\n");
    let mut names: HashMap<u64, String> = HashMap::new();
    for r in records {
        let at = r.sim_insts;
        match &r.event {
            Event::SpanOpen {
                id,
                parent,
                name,
                labels,
            } => {
                names.insert(id.0, name.clone());
                let parent = names.get(&parent.0).map_or("-", String::as_str);
                let _ = write!(out, "{at} open {name} parent={parent}");
                for (k, v) in labels {
                    let _ = write!(out, " {k}={v}");
                }
                out.push('\n');
            }
            Event::SpanClose { name, .. } => {
                let _ = writeln!(out, "{at} close {name}");
            }
            Event::Transition(content) => {
                let kind = content
                    .as_map()
                    .and_then(|m| m.first())
                    .map_or("?", |(k, _)| k.as_str());
                let body = serde_json::to_string(content).expect("serialize transition");
                let _ = writeln!(out, "{at} transition {kind} {body}");
            }
            Event::MetricsRegistry { snapshot } => {
                for (name, value) in &snapshot.counters {
                    let _ = writeln!(out, "{at} counter {name} {value}");
                }
            }
        }
    }
    out
}

/// Ocean under GBRT, persisted, across ocean's 2M-instruction phase
/// boundary (the budget and phase window of the controller's
/// `ocean_phases_trigger_resampling` unit test).
fn persisted_ocean_gbrt() -> String {
    let dir = TempDir::new("mct-trace-golden");
    let mut cfg = ControllerConfig::quick_demo();
    cfg.model = ModelKind::GradientBoosting;
    cfg.total_insts = 3_000_000;
    cfg.warmup_insts = 200_000;
    cfg.phase.window_insts = 50_000;
    cfg.phase.history_windows = 40;
    cfg.phase.recent_windows = 4;
    cfg.persist = Some(PersistConfig::fresh(dir.path().display().to_string()));
    let controller = Controller::new(cfg, Objective::paper_default(8.0));
    render(
        "ocean, gbrt, persisted",
        &trace(controller, Workload::Ocean, 5),
    )
}

/// Stream under the committed degradation plan (the fault-injection
/// suite's golden run): health checks fail and the ladder escalates.
fn degraded_stream() -> String {
    let text = std::fs::read_to_string(fixture_path("degradation_plan.json"))
        .expect("read degradation_plan.json");
    let plan: FaultPlan = serde_json::from_str(&text).expect("parse degradation_plan.json");
    let mut cfg = ControllerConfig::quick_demo();
    cfg.model = ModelKind::QuadraticLasso;
    cfg.total_insts = 1_200_000;
    cfg.warmup_insts = 100_000;
    cfg.health_check_every_windows = 2;
    cfg.seed = 17;
    cfg.fault_plan = Some(plan);
    let controller = Controller::new(cfg, Objective::paper_default(8.0));
    render(
        "stream, quad-lasso, degradation plan",
        &trace(controller, Workload::Stream, 17),
    )
}

#[test]
fn controller_trace_matches_golden() {
    let rendered = persisted_ocean_gbrt() + &degraded_stream();
    for needle in [
        " open persist.open ",
        " open persist.snapshot ",
        " open fault.arm ",
        " open health_check ",
        " open refit ",
        " transition PhaseDetected ",
    ] {
        assert!(rendered.contains(needle), "trace lacks `{}`", needle.trim());
    }

    let golden_path = fixture_path("trace_golden.txt");
    if std::env::var_os("MCT_BLESS").is_some() {
        std::fs::write(&golden_path, &rendered).expect("bless trace_golden.txt");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("read trace_golden.txt (regenerate with MCT_BLESS=1)");
    if rendered != golden {
        let first = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
        panic!(
            "trace diverged from tests/fixtures/trace_golden.txt at line {}:\n  got:    {}\n  golden: {}\n\
             regenerate with MCT_BLESS=1 if the change is intentional",
            first + 1,
            rendered.lines().nth(first).unwrap_or("<end>"),
            golden.lines().nth(first).unwrap_or("<end>"),
        );
    }
}
