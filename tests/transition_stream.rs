//! The controller's one transition stream, checked end to end.
//!
//! With both a recorder and a state store attached, telemetry and the
//! write-ahead log see the same `StateRecord`s: the durable transitions a
//! trace carries must match the store's decoded records one for one
//! (under `records_match`, since traces carry fits without their model
//! payloads), and routing every transition through one emit path must
//! not add a single WAL append — trace-only records never reach the log.

use std::collections::BTreeMap;

use memory_cocktail_therapy::framework::{
    decode_dir, records_match, trace_transitions, Controller, ControllerConfig, ModelKind,
    Objective, PersistConfig, StateRecord,
};
use memory_cocktail_therapy::persist::TempDir;
use memory_cocktail_therapy::telemetry::{RecorderHandle, VecRecorder};
use memory_cocktail_therapy::workloads::Workload;

/// WAL appends of each run: one per durable record, pinned so a
/// trace-only record leaking into the log (or a durable one going
/// missing) fails here.
const APPENDS: [(Workload, ModelKind, u64); 4] = [
    (Workload::Stream, ModelKind::QuadraticLasso, 27),
    (Workload::Stream, ModelKind::GradientBoosting, 27),
    (Workload::Ocean, ModelKind::QuadraticLasso, 23),
    (Workload::Ocean, ModelKind::GradientBoosting, 24),
];

#[test]
fn trace_and_store_carry_the_same_durable_transitions() {
    for (workload, model, appends) in APPENDS {
        let label = format!("{workload} {}", model.short_label());
        let dir = TempDir::new("mct-transition-stream");
        let mut cfg = ControllerConfig::quick_demo();
        cfg.model = model;
        cfg.seed = 2017;
        cfg.total_insts = 1_500_000;
        cfg.persist = Some(PersistConfig::fresh(dir.path().display().to_string()));
        let rec = VecRecorder::shared();
        let handle: RecorderHandle = rec.clone();
        Controller::new(cfg, Objective::paper_default(8.0))
            .with_recorder(handle)
            .run(&mut workload.source(2017));

        let guard = rec.lock().expect("recorder lock");
        let mut unknown = BTreeMap::new();
        let traced = trace_transitions(guard.records(), &mut unknown);
        assert!(unknown.is_empty(), "{label}: undecodable {unknown:?}");
        assert!(
            traced.iter().any(|t| !t.durable()),
            "{label}: the trace also carries trace-only transitions"
        );
        let durable: Vec<&StateRecord> = traced.iter().filter(|t| t.durable()).collect();
        let stored = decode_dir(dir.path()).expect("store decodes");
        assert_eq!(durable.len(), stored.len(), "{label}: record counts");
        for (i, (t, s)) in durable.iter().zip(&stored).enumerate() {
            assert!(
                records_match(t, s),
                "{label}: record {i} differs\n  traced: {t:?}\n  stored: {s:?}"
            );
        }
        assert_eq!(
            guard.registry().counter("persist.appends"),
            appends,
            "{label}: WAL appends"
        );
    }
}
