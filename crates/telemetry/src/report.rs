//! Parsing and rendering of trace files: `mct report <trace.jsonl>`.
//!
//! Parses a JSONL trace back into [`Record`]s and renders what this
//! crate owns: the metrics registry (the controller's counters, or the
//! experiment pipeline's) and a span footer. The controller's
//! transitions are mct-core's to render (its decision timeline, which
//! `mct report` prints first). [`render_registry`] is the one rendering
//! of a registry snapshot; `mct metrics` prints it for a trace's last
//! snapshot.

use crate::event::{Event, Record};
use crate::registry::RegistrySnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parse a JSONL trace, tolerating records whose event kind this binary
/// does not know (a trace written by a different `mct` version). Blank
/// lines are skipped. Unknown kinds are skipped and counted; lines that
/// are not valid JSON objects at all abort with their line number — that
/// is corruption, not skew.
///
/// Returns the recognized records plus a kind -> count map of what was
/// skipped, which [`render_report_with_unknown`] surfaces in its footer.
pub fn parse_jsonl_tolerant(text: &str) -> Result<(Vec<Record>, BTreeMap<String, u64>), String> {
    let mut records = Vec::new();
    let mut unknown: BTreeMap<String, u64> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<Record>(line) {
            Ok(record) => records.push(record),
            Err(record_err) => {
                // Fall back to untyped JSON: a well-formed envelope with
                // an unknown event variant is future skew, anything else
                // is a malformed trace.
                let content = serde_json::parse_content(line)
                    .map_err(|_| format!("line {}: {}", i + 1, record_err))?;
                let envelope = content.as_map().unwrap_or(&[]);
                let has_seq = envelope.iter().any(|(k, _)| k == "seq");
                let kind = envelope
                    .iter()
                    .find(|(k, _)| k == "event")
                    .and_then(|(_, e)| e.as_map())
                    .and_then(|m| m.first())
                    .map(|(k, _)| k.clone());
                match kind {
                    Some(kind) if has_seq => {
                        *unknown.entry(kind).or_insert(0) += 1;
                    }
                    _ => return Err(format!("line {}: {}", i + 1, record_err)),
                }
            }
        }
    }
    Ok((records, unknown))
}

/// Render a registry snapshot as plain text: a `--- metrics registry ---`
/// header, then one line per counter (`name{labels} value`) and per
/// histogram (count, mean, extrema and, past one observation, p50/p99),
/// in snapshot order.
#[must_use]
pub fn render_registry(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::from("--- metrics registry ---\n");
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "  {name:<42} {value}");
    }
    for (name, h) in &snapshot.histograms {
        let _ = write!(
            out,
            "  {name:<42} n={} mean={:.1} min={:.1} max={:.1}",
            h.count,
            h.mean(),
            h.min,
            h.max
        );
        if h.count > 1 && h.p50 > 0.0 {
            let _ = write!(out, " p50={:.1} p99={:.1}", h.p50, h.p99);
        }
        out.push('\n');
    }
    out
}

/// Render a trace's registry and span summaries, with a
/// footer reporting events the parser recognized as valid but could not
/// type (from [`parse_jsonl_tolerant`]). Controller transitions are
/// skipped: mct-core's decision timeline renders them.
#[must_use]
pub fn render_report_with_unknown(records: &[Record], unknown: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    let mut span_events = 0u64;
    // Per-learner fit-span accounting for the summary footer: open
    // `fit` spans by id -> (learner label, open wall_us), folded into
    // learner -> (count, total_us) at the matching close.
    let mut open_fits: BTreeMap<u64, (String, u64)> = BTreeMap::new();
    let mut fit_totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let _ = writeln!(out, "MCT trace: {} records", records.len());

    for record in records {
        match &record.event {
            Event::Transition(_) => {}
            Event::MetricsRegistry { snapshot } => {
                out.push('\n');
                out.push_str(&render_registry(snapshot));
            }
            // Spans are profiled, not narrated: the timeline stays a
            // decision log, and `mct profile` owns the timing view. Fit
            // spans are additionally tallied per learner for the footer.
            Event::SpanOpen {
                id, name, labels, ..
            } => {
                span_events += 1;
                if name == "fit" {
                    let learner = labels
                        .iter()
                        .find(|(k, _)| k == "learner")
                        .map_or_else(|| "unlabeled".to_string(), |(_, v)| v.clone());
                    open_fits.insert(id.0, (learner, record.wall_us));
                }
            }
            Event::SpanClose { id, .. } => {
                span_events += 1;
                if let Some((learner, opened)) = open_fits.remove(&id.0) {
                    let entry = fit_totals.entry(learner).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += record.wall_us.saturating_sub(opened);
                }
            }
        }
    }
    if !fit_totals.is_empty() {
        let parts: Vec<String> = fit_totals
            .iter()
            .map(|(learner, (n, us))| format!("{learner} {n} fit(s) {:.1} ms", *us as f64 / 1e3))
            .collect();
        let _ = writeln!(out, "\nfit spans: {}", parts.join(", "));
    }
    if span_events > 0 {
        let _ = writeln!(
            out,
            "\nspans: {span_events} span events in trace (render with `mct profile`)"
        );
    }
    if !unknown.is_empty() {
        let total: u64 = unknown.values().sum();
        let kinds: Vec<String> = unknown
            .iter()
            .map(|(kind, n)| format!("{kind} x{n}"))
            .collect();
        let _ = writeln!(
            out,
            "\nunrecognized events: {total} (kinds: {}) — trace written by a different mct version?",
            kinds.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{RecorderHandle, Telemetry, VecRecorder};
    use serde::Content;

    fn sample_trace() -> Vec<Record> {
        let rec = VecRecorder::shared();
        let handle: RecorderHandle = rec.clone();
        let mut t = Telemetry::attached(handle);
        let run = t.span("run", 0);
        let transition = Content::Map(vec![(
            "SegmentStarted".to_string(),
            Content::Map(vec![("segment".to_string(), Content::U64(0))]),
        )]);
        t.transition(0, "segment_started", transition);
        t.close_span(run, 400_000);
        t.finish(400_000);
        let mut guard = rec.lock().expect("lock");
        guard.take_records()
    }

    #[test]
    fn jsonl_round_trip_and_render() {
        let records = sample_trace();
        let jsonl: String = records
            .iter()
            .map(|r| serde_json::to_string(r).expect("serialize") + "\n")
            .collect();
        let (parsed, unknown) = parse_jsonl_tolerant(&jsonl).expect("parse");
        assert!(unknown.is_empty(), "{unknown:?}");
        assert_eq!(parsed, records);

        let report = render_report_with_unknown(&parsed, &unknown);
        assert!(report.contains("MCT trace: 4 records"), "{report}");
        assert!(report.contains("transitions{kind=\"segment_started\"}"));
        // The report's registry block is `render_registry`'s, verbatim.
        let Some(Event::MetricsRegistry { snapshot }) = parsed.last().map(|r| &r.event) else {
            panic!("trace ends with its registry snapshot");
        };
        let registry = render_registry(snapshot);
        assert!(
            registry.starts_with("--- metrics registry ---\n"),
            "{registry}"
        );
        assert!(report.contains(&format!("\n{registry}")), "{report}");
        // Transitions are mct-core's to narrate.
        assert!(!report.contains("SegmentStarted"), "{report}");
    }

    #[test]
    fn parse_rejects_malformed_lines_with_position() {
        let valid = serde_json::to_string(&sample_trace()[0]).expect("serialize");
        let err = parse_jsonl_tolerant(&format!("{valid}\nnot json\n")).expect_err("must fail");
        assert!(err.starts_with("line 2"), "{err}");
        // An envelope with no event is malformed too, not skew.
        let err = parse_jsonl_tolerant("{\"seq\":0}\n").expect_err("must fail");
        assert!(err.starts_with("line 1"), "{err}");
    }

    #[test]
    fn deeply_nested_line_is_a_typed_error_not_an_abort() {
        // A `Transition` payload nested 100,000 arrays deep used to
        // overflow the parser's stack and abort the process.
        let deep = format!(
            r#"{{"seq":0,"sim_insts":0,"wall_us":0,"event":{{"Transition":{}}}}}"#,
            "[".repeat(100_000)
        );
        let err = parse_jsonl_tolerant(&deep).expect_err("too deep");
        assert!(
            err.starts_with("line 1") && err.contains("recursion limit"),
            "{err}"
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let records = sample_trace();
        let jsonl = format!(
            "\n{}\n\n",
            serde_json::to_string(&records[0]).expect("serialize")
        );
        let (parsed, unknown) = parse_jsonl_tolerant(&jsonl).expect("parse");
        assert_eq!(parsed.len(), 1);
        assert!(unknown.is_empty(), "{unknown:?}");
    }

    #[test]
    fn pipeline_report_renders_workers_fallback() {
        let mut registry = crate::Registry::new();
        registry.incr("pipeline.cache_hits", 4);
        registry.incr_with(
            "pipeline.workers_fallback",
            &[(
                "reason",
                "MCT_WORKERS=\"0\" rejected (must be a positive integer)",
            )],
            1,
        );
        let records = vec![Record {
            seq: 0,
            sim_insts: 0,
            wall_us: 0,
            event: Event::MetricsRegistry {
                snapshot: registry.snapshot(),
            },
        }];
        let report = render_report_with_unknown(&records, &BTreeMap::new());
        assert!(report.contains("--- metrics registry ---"), "{report}");
        assert!(report.contains("pipeline.cache_hits"), "{report}");
        assert!(
            report.contains(r#"pipeline.workers_fallback{reason="MCT_WORKERS=\"0\" rejected"#),
            "{report}"
        );
    }

    #[test]
    fn tolerant_parse_counts_unknown_kinds_and_footer_reports_them() {
        let records = sample_trace();
        let known = serde_json::to_string(&records[0]).expect("serialize");
        let future =
            r#"{"seq":9,"sim_insts":1,"wall_us":2,"event":{"WarpDriveEngaged":{"factor":9}}}"#;
        // A pipeline record written before the pipeline counters moved
        // into the metrics registry, verbatim from an old pipeline trace.
        let old = include_str!("../../../tests/fixtures/pipeline_trace_pre_registry.jsonl");
        let jsonl = format!("{known}\n{future}\n{old}{future}\n");
        // The known record is kept and the rest counted by kind.
        let (parsed, unknown) = parse_jsonl_tolerant(&jsonl).expect("tolerant parse");
        assert_eq!(parsed.len(), 1);
        assert_eq!(unknown.get("WarpDriveEngaged"), Some(&2));
        assert_eq!(unknown.values().sum::<u64>(), 3, "{unknown:?}");
        let report = render_report_with_unknown(&parsed, &unknown);
        assert!(
            report.contains("unrecognized events: 3 (kinds: "),
            "{report}"
        );
        assert!(
            report.contains("WarpDriveEngaged x2) — trace written by a different mct version?"),
            "{report}"
        );
        // Garbage is still a hard error, with its line number.
        let err = parse_jsonl_tolerant("not json\n").expect_err("garbage");
        assert!(err.starts_with("line 1"), "{err}");
        // A JSON line without a Record envelope is also a hard error.
        assert!(parse_jsonl_tolerant("{\"event\":{\"X\":{}}}\n").is_err());
    }

    #[test]
    fn span_events_summarize_instead_of_flooding_the_timeline() {
        let rec = VecRecorder::shared();
        let mut t = Telemetry::attached(rec.clone() as RecorderHandle);
        let run = t.span("run", 0);
        let fit = t.span("fit", 1);
        t.close_span(fit, 2);
        t.close_span(run, 3);
        let records = rec.lock().expect("lock").take_records();
        let report = render_report_with_unknown(&records, &BTreeMap::new());
        assert!(report.contains("spans: 4 span events"), "{report}");
        assert!(!report.contains("span_open"), "no per-span timeline lines");
    }

    #[test]
    fn fit_footer_totals_per_learner() {
        let rec = VecRecorder::shared();
        let mut t = Telemetry::attached(rec.clone() as RecorderHandle);
        let run = t.span("run", 0);
        let fit_a = t.span_with("fit", 1, &[("learner", "qlasso")]);
        t.close_span(fit_a, 2);
        let fit_b = t.span_with("fit", 4, &[("learner", "gbrt")]);
        t.close_span(fit_b, 5);
        t.close_span(run, 6);
        let records = rec.lock().expect("lock").take_records();
        let report = render_report_with_unknown(&records, &BTreeMap::new());
        assert!(report.contains("qlasso 1 fit(s)"), "{report}");
        assert!(report.contains("gbrt 1 fit(s)"), "{report}");
    }
}
