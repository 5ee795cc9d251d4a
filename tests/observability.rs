//! End-to-end observability: a seeded traced run must yield a span tree
//! whose root covers the run wall time, a registry whose plain-text
//! rendering carries the span durations, and a report that narrates
//! rather than floods.

use memory_cocktail_therapy::framework::{
    render_timeline, trace_transitions, Controller, ControllerConfig, ModelKind, Objective,
};
use memory_cocktail_therapy::telemetry::{
    parse_jsonl_tolerant, render_collapsed, render_registry, render_report_with_unknown,
    render_tree, Event, JsonlRecorder, SpanProfile,
};
use memory_cocktail_therapy::workloads::Workload;

fn traced_run_to(path: &std::path::Path) {
    let recorder = JsonlRecorder::create(path).expect("trace file");
    let mut cfg = ControllerConfig::quick_demo();
    cfg.model = ModelKind::QuadraticLasso;
    let mut c =
        Controller::new(cfg, Objective::paper_default(8.0)).with_recorder(recorder.handle());
    let outcome = c.run(&mut Workload::Stream.source(3));
    assert!(outcome.final_metrics.ipc > 0.0);
}

#[test]
fn traced_run_profiles_and_exposes() {
    // A per-test unique dir, not a pid-shared temp_dir() path: parallel
    // test binaries (or a same-pid re-run after a crash) must never
    // race on the trace file.
    let dir = memory_cocktail_therapy::persist::TempDir::new("mct-observability");
    let path = dir.join("trace.jsonl");
    traced_run_to(&path);
    let text = std::fs::read_to_string(&path).expect("trace readable");

    let (records, mut unknown) = parse_jsonl_tolerant(&text).expect("trace parses");
    let transitions = trace_transitions(&records, &mut unknown);
    assert!(
        unknown.is_empty(),
        "self-written trace has no unknown kinds: {unknown:?}"
    );

    // --- Span tree: well-formed, covering, and phase-complete. ---
    let profile = SpanProfile::from_records(&records);
    assert!(profile.total_spans > 0);
    assert_eq!(profile.unclosed, 0, "all spans closed by end of run");
    // The root `run` span opens as the first record and closes just
    // before the registry snapshot, so it accounts for (at least) 99% of
    // the trace's wall extent (the acceptance bound is 1%).
    let coverage = profile.coverage();
    assert!(
        coverage >= 0.99,
        "root span coverage {:.4} below 99%",
        coverage
    );
    for name in ["run", "sampling", "fit", "predict", "decide", "testing"] {
        let node = profile
            .find(name)
            .unwrap_or_else(|| panic!("span {name} missing from profile"));
        assert!(node.count >= 1);
        assert!(node.total_us >= node.self_us);
    }
    // Renders are non-empty and mention the key phases.
    let tree = render_tree(&profile);
    for needle in ["span tree:", "run", "sampling", "fit.model", "predict"] {
        assert!(tree.contains(needle), "tree render missing {needle}");
    }
    let collapsed = render_collapsed(&profile);
    assert!(collapsed.lines().any(|l| l.starts_with("run;")));
    for line in collapsed.lines() {
        let (_stack, weight) = line.rsplit_once(' ').expect("stack + weight");
        weight.parse::<u64>().expect("integer self-time weight");
    }

    // --- The registry renders as `mct metrics` prints it. ---
    let snapshot = records
        .iter()
        .rev()
        .find_map(|r| match &r.event {
            Event::MetricsRegistry { snapshot } => Some(snapshot.clone()),
            _ => None,
        })
        .expect("registry snapshot in trace");
    let registry = render_registry(&snapshot);
    let mut lines = registry.lines();
    assert_eq!(lines.next(), Some("--- metrics registry ---"));
    let series = snapshot.counters.len() + snapshot.histograms.len();
    assert!(series > 10, "expected a substantive registry: {registry}");
    assert_eq!(lines.count(), series, "one line per series");
    // Span durations land in the registry as labeled histograms, one
    // observation per closed span.
    for span in ["run", "fit"] {
        let name = format!("span.wall_us{{span=\"{span}\"}}");
        let (_, h) = snapshot
            .histograms
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing from the registry"));
        let closes = records
            .iter()
            .filter(|r| matches!(&r.event, Event::SpanClose { name, .. } if name == span))
            .count();
        assert_eq!(h.count, closes as u64, "{name}");
        let line = registry
            .lines()
            .find(|l| l.trim_start().starts_with(&name))
            .unwrap_or_else(|| panic!("{name} missing from {registry}"));
        assert!(line.contains(&format!(" n={} ", h.count)), "{line}");
    }

    // --- The report (as `mct report` renders it) narrates decisions and
    // summarizes spans in one line instead of per-event. ---
    let timeline = render_timeline(&transitions);
    assert!(timeline.contains("selected "), "{timeline}");
    let report = render_report_with_unknown(&records, &unknown);
    assert!(report.contains("span events in trace"));
    // Spans add a bounded footer (span and fit-span summaries), never a
    // line per span event.
    let without_spans: Vec<_> = records
        .iter()
        .filter(|r| !matches!(r.event, Event::SpanOpen { .. } | Event::SpanClose { .. }))
        .cloned()
        .collect();
    assert!(without_spans.len() < records.len());
    let bare = render_report_with_unknown(&without_spans, &unknown);
    assert!(
        report.lines().count() <= bare.lines().count() + 4,
        "span events flooded the report:\n{report}"
    );
}
