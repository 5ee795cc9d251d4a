//! Recorder sinks and the [`Telemetry`] session handle.
//!
//! The contract is zero-cost-when-disabled: a session with no recorder
//! attached ([`Telemetry::disabled`], the default) answers
//! [`Telemetry::enabled`] with `false`, and instrumented code skips event
//! construction (and any telemetry-only computation, like
//! cross-validation error) entirely.

use crate::event::{Event, Record};
use crate::registry::Registry;
use crate::span::{SpanGuard, SpanStack};
use serde::Content;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Lock a recorder handle, recovering from a poisoned mutex: a panic in
/// one instrumented thread must not cascade into every other telemetry
/// call site, and a recorder's state (append-only records + counters) is
/// valid after any partial update.
fn lock_recorder(handle: &RecorderHandle) -> MutexGuard<'_, dyn Recorder + 'static> {
    handle
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A telemetry sink. Implementations receive fully-formed [`Record`]s and
/// own the counters/histograms [`Registry`].
pub trait Recorder: Send {
    /// Consume one record.
    fn record(&mut self, record: &Record);

    /// The registry backing this sink.
    fn registry_mut(&mut self) -> &mut Registry;

    /// Flush buffered output, if any.
    fn flush(&mut self) {}
}

/// Shared handle to a recorder; cheap to clone, locked per emission.
pub type RecorderHandle = Arc<Mutex<dyn Recorder>>;

/// Keeps records in memory; the sink used by tests.
#[derive(Debug, Default)]
pub struct VecRecorder {
    records: Vec<Record>,
    registry: Registry,
}

impl VecRecorder {
    #[must_use]
    pub fn new() -> Self {
        VecRecorder::default()
    }

    /// A typed shared recorder. Keep the returned `Arc` to read the
    /// captured records after the run; a clone coerces to
    /// [`RecorderHandle`] for attaching to the runtime:
    ///
    /// ```
    /// use mct_telemetry::{RecorderHandle, VecRecorder};
    /// let rec = VecRecorder::shared();
    /// let handle: RecorderHandle = rec.clone();
    /// // ... run instrumented code against `handle` ...
    /// assert!(rec.lock().unwrap().records().is_empty());
    /// ```
    #[must_use]
    pub fn shared() -> Arc<Mutex<VecRecorder>> {
        Arc::new(Mutex::new(VecRecorder::new()))
    }

    /// Wrap into a type-erased shareable handle.
    #[must_use]
    pub fn handle(self) -> RecorderHandle {
        Arc::new(Mutex::new(self))
    }

    #[must_use]
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn take_records(&mut self) -> Vec<Record> {
        std::mem::take(&mut self.records)
    }
}

impl Recorder for VecRecorder {
    fn record(&mut self, record: &Record) {
        self.records.push(record.clone());
    }

    fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }
}

/// Streams one JSON object per line to a file.
pub struct JsonlRecorder {
    writer: std::io::BufWriter<std::fs::File>,
    registry: Registry,
    write_errors: u64,
    errors_reported: u64,
}

impl JsonlRecorder {
    /// Create (truncate) the trace file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlRecorder {
            writer: std::io::BufWriter::new(file),
            registry: Registry::new(),
            write_errors: 0,
            errors_reported: 0,
        })
    }

    /// Wrap into a shareable handle.
    #[must_use]
    pub fn handle(self) -> RecorderHandle {
        Arc::new(Mutex::new(self))
    }
}

impl Recorder for JsonlRecorder {
    fn record(&mut self, record: &Record) {
        match serde_json::to_string(record) {
            Ok(line) => {
                // Trace I/O must never abort a simulation; count failures
                // instead of propagating them.
                if writeln!(self.writer, "{line}").is_err() {
                    self.write_errors += 1;
                }
            }
            Err(_) => self.write_errors += 1,
        }
    }

    fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    fn flush(&mut self) {
        if self.writer.flush().is_err() {
            self.write_errors += 1;
        }
        // Surface accumulated I/O failures as a scrapeable counter; the
        // delta bookkeeping keeps repeated flushes from double counting.
        if self.write_errors > self.errors_reported {
            self.registry.incr(
                "telemetry.write_errors",
                self.write_errors - self.errors_reported,
            );
            self.errors_reported = self.write_errors;
        }
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// The runtime's telemetry session: an optional recorder handle plus the
/// envelope state (sequence counter, wall-clock origin, open spans).
///
/// `Telemetry::default()` has no recorder: it is fully disabled and
/// costs one branch per instrumentation site.
pub struct Telemetry {
    /// The attached sink; `None` is the disabled session.
    handle: Option<RecorderHandle>,
    seq: u64,
    origin: Instant,
    spans: SpanStack,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field("seq", &self.seq)
            .finish()
    }
}

impl Telemetry {
    /// A no-op session: no recorder, nothing allocated.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry {
            handle: None,
            seq: 0,
            origin: Instant::now(),
            spans: SpanStack::default(),
        }
    }

    /// A session that sends every event to `handle`.
    #[must_use]
    pub fn attached(handle: RecorderHandle) -> Self {
        Telemetry {
            handle: Some(handle),
            ..Telemetry::disabled()
        }
    }

    /// Whether a recorder is attached — the gate every instrumentation
    /// site checks.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.handle.is_some()
    }

    /// Run `f` on the attached recorder under its lock; `None` without
    /// calling `f` when disabled.
    fn with_recorder<R>(&self, f: impl FnOnce(&mut dyn Recorder) -> R) -> Option<R> {
        self.handle
            .as_ref()
            .map(|handle| f(&mut *lock_recorder(handle)))
    }

    /// Emit one record with an explicit wall timestamp (so span open and
    /// close records agree exactly with the stack's bookkeeping).
    fn emit_at(&mut self, wall_us: u64, sim_insts: u64, event: Event) {
        let record = Record {
            seq: self.seq,
            sim_insts,
            wall_us,
            event,
        };
        self.seq += 1;
        self.with_recorder(|r| {
            r.registry_mut()
                .incr(&format!("events.{}", record.event.kind()), 1);
            r.record(&record);
        });
    }

    /// Emit one event at simulated-instruction time `sim_insts`.
    pub fn emit(&mut self, sim_insts: u64, event: Event) {
        if !self.enabled() {
            return;
        }
        let wall_us = self.origin.elapsed().as_micros() as u64;
        self.emit_at(wall_us, sim_insts, event);
    }

    /// Enter a named span. When disabled this is a single branch: no
    /// allocation, no clock read, no lock.
    pub fn span(&mut self, name: &'static str, sim_insts: u64) -> SpanGuard {
        self.span_with(name, sim_insts, &[])
    }

    /// Enter a named span with low-cardinality labels (learner, workload,
    /// phase). Labels ride on the `SpanOpen` event only; the duration
    /// histogram is keyed by span name alone.
    pub fn span_with(
        &mut self,
        name: &'static str,
        sim_insts: u64,
        labels: &[(&str, &str)],
    ) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard::disabled(name);
        }
        let wall_us = self.origin.elapsed().as_micros() as u64;
        let (id, parent) = self.spans.open(name, wall_us);
        self.emit_at(
            wall_us,
            sim_insts,
            Event::SpanOpen {
                id,
                parent,
                name: name.to_string(),
                labels: labels
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                    .collect(),
            },
        );
        SpanGuard { id, name }
    }

    /// Exit a span entered with [`Telemetry::span`]. Any children still
    /// open are closed too (innermost first), so a forgotten close on an
    /// early-exit path skews one timing instead of corrupting the tree;
    /// closing an already-closed span is a no-op. Each close also lands
    /// in the `span.wall_us{span="<name>"}` duration histogram. Returns
    /// the closed span's wall duration in microseconds (0 when disabled
    /// or already closed), so callers time a region through its span.
    pub fn close_span(&mut self, guard: SpanGuard, sim_insts: u64) -> u64 {
        if !self.enabled() || !guard.id().is_some() {
            return 0;
        }
        let wall_us = self.origin.elapsed().as_micros() as u64;
        let mut duration_us = 0;
        for span in self.spans.close(guard.id()) {
            duration_us = wall_us.saturating_sub(span.opened_wall_us);
            self.with_recorder(|r| {
                r.registry_mut().observe_with(
                    "span.wall_us",
                    &[("span", span.name)],
                    duration_us as f64,
                );
            });
            self.emit_at(
                wall_us,
                sim_insts,
                Event::SpanClose {
                    id: span.id,
                    name: span.name.to_string(),
                },
            );
        }
        duration_us
    }

    /// Bump a registry counter.
    pub fn incr(&mut self, name: &str, delta: u64) {
        self.with_recorder(|r| r.registry_mut().incr(name, delta));
    }

    /// Bump a labeled registry counter.
    pub fn incr_with(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.with_recorder(|r| r.registry_mut().incr_with(name, labels, delta));
    }

    /// Record a histogram observation.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.with_recorder(|r| r.registry_mut().observe(name, value));
    }

    /// Emit one controller state transition of kind `kind` (already
    /// serialized, see [`Event::Transition`]), counted per kind in the
    /// `transitions{kind="<kind>"}` series.
    pub fn transition(&mut self, sim_insts: u64, kind: &str, transition: Content) {
        if !self.enabled() {
            return;
        }
        self.incr_with("transitions", &[("kind", kind)], 1);
        self.emit(sim_insts, Event::Transition(transition));
    }

    /// Emit the registry snapshot as a `MetricsRegistry` event and flush.
    /// Any spans still open are closed first so every trace is
    /// well-formed.
    pub fn finish(&mut self, sim_insts: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(root) = self.spans.root_id() {
            self.close_span(SpanGuard { id: root, name: "" }, sim_insts);
        }
        // Flush first so pending write errors land in the snapshot.
        let snapshot = self.with_recorder(|r| {
            r.flush();
            r.registry_mut().snapshot()
        });
        if let Some(snapshot) = snapshot {
            self.emit(sim_insts, Event::MetricsRegistry { snapshot });
        }
        self.with_recorder(|r| r.flush());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_transition() -> Content {
        Content::Map(vec![(
            "RunCompleted".to_string(),
            Content::Map(vec![("segments".to_string(), Content::U64(1))]),
        )])
    }

    #[test]
    fn disabled_session_emits_nothing() {
        let mut t = Telemetry::disabled();
        assert!(!t.enabled());
        assert!(t.handle.is_none(), "no recorder allocated");
        t.transition(0, "run_completed", sample_transition());
        t.incr("x", 1);
        t.finish(0);
        assert_eq!(t.seq, 0, "no record was sequenced");
    }

    #[test]
    fn vec_recorder_captures_sequenced_records() {
        let rec = VecRecorder::shared();
        let handle: RecorderHandle = rec.clone();
        let mut t = Telemetry::attached(handle);
        assert!(t.enabled());
        t.transition(10, "run_completed", sample_transition());
        t.transition(20, "run_completed", sample_transition());
        let guard = rec.lock().expect("lock");
        let records = guard.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert_eq!(records[0].sim_insts, 10);
        assert!(records[1].wall_us >= records[0].wall_us);
        assert_eq!(guard.registry().counter("events.transition"), 2);
        assert_eq!(
            guard
                .registry()
                .counter_with("transitions", &[("kind", "run_completed")]),
            2
        );
    }

    #[test]
    fn jsonl_recorder_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("mct-telemetry-test-{}.jsonl", std::process::id()));
        {
            let recorder = JsonlRecorder::create(&path).expect("create trace file");
            let mut t = Telemetry::attached(recorder.handle());
            t.transition(5, "run_completed", sample_transition());
            t.finish(5);
        }
        let text = std::fs::read_to_string(&path).expect("read trace");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "event + registry snapshot");
        let first: Record = serde_json::from_str(lines[0]).expect("line 0 parses");
        assert_eq!(first.seq, 0);
        assert_eq!(first.sim_insts, 5);
        let second: Record = serde_json::from_str(lines[1]).expect("line 1 parses");
        assert!(matches!(second.event, Event::MetricsRegistry { .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spans_emit_paired_events_and_duration_histograms() {
        let rec = VecRecorder::shared();
        let mut t = Telemetry::attached(rec.clone() as RecorderHandle);
        let run = t.span("run", 0);
        let fit = t.span_with("fit", 10, &[("learner", "gbrt")]);
        let fit_us = t.close_span(fit, 20);
        t.close_span(run, 30);
        let guard = rec.lock().expect("lock");
        let records = guard.records();
        assert_eq!(records.len(), 4);
        match &records[0].event {
            Event::SpanOpen {
                id,
                parent,
                name,
                labels,
            } => {
                assert_eq!(name, "run");
                assert!(!parent.is_some());
                assert!(id.is_some());
                assert!(labels.is_empty());
            }
            other => panic!("expected SpanOpen, got {other:?}"),
        }
        match &records[1].event {
            Event::SpanOpen {
                parent,
                name,
                labels,
                ..
            } => {
                assert_eq!(name, "fit");
                assert!(parent.is_some(), "fit nests under run");
                assert_eq!(labels[0].0, "learner");
            }
            other => panic!("expected SpanOpen, got {other:?}"),
        }
        assert!(matches!(&records[2].event, Event::SpanClose { name, .. } if name == "fit"));
        assert!(matches!(&records[3].event, Event::SpanClose { name, .. } if name == "run"));
        let fit_hist = guard
            .registry()
            .histogram_with("span.wall_us", &[("span", "fit")])
            .expect("fit duration recorded");
        assert_eq!(fit_hist.count, 1);
        assert_eq!(
            fit_hist.sum, fit_us as f64,
            "close returns the recorded duration"
        );
    }

    #[test]
    fn disabled_spans_are_inert() {
        let mut t = Telemetry::disabled();
        let g = t.span("run", 0);
        assert!(!g.id().is_some());
        assert_eq!(t.close_span(g, 10), 0, "a disabled span has no duration");
    }

    #[test]
    fn finish_closes_forgotten_spans() {
        let rec = VecRecorder::shared();
        let mut t = Telemetry::attached(rec.clone() as RecorderHandle);
        let _run = t.span("run", 0);
        let _seg = t.span("segment", 5);
        t.finish(10);
        let guard = rec.lock().expect("lock");
        let closes: Vec<String> = guard
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                Event::SpanClose { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(closes, ["segment", "run"], "innermost first");
        assert!(matches!(
            guard.records().last().map(|r| &r.event),
            Some(Event::MetricsRegistry { .. })
        ));
    }
}
