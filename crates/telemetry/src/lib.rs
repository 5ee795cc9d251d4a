//! Structured decision-trace telemetry for the MCT runtime.
//!
//! Five pieces, one contract:
//!
//! - [`event`]: the typed trace — the controller's state transitions
//!   (carried opaquely; mct-core owns their type and renders them), span
//!   edges and registry snapshots, each wrapped in a [`Record`] envelope
//!   with a sequence number and both simulated-instruction and
//!   wall-clock timestamps;
//! - [`span`]: structured spans — nested enter/exit timing of the
//!   control loop (sampling, fit, predict, decide), emitted as paired
//!   `SpanOpen`/`SpanClose` events and reassembled post-hoc by
//!   `mct profile`;
//! - [`registry`]: label-aware counters and log-bucketed histograms
//!   ([`histogram`]) for how much work the adaptive machinery did
//!   (transitions per kind, fallbacks, span durations), with bounded
//!   label cardinality;
//! - [`pipeline`]: the experiment pipeline's one process-wide
//!   [`Registry`] — scheduler grains (executed, per-worker
//!   series), measurement-cache hits and discards, and warm-rig snapshot
//!   reuse — with a typed read view;
//! - [`recorder`]: the sinks — [`JsonlRecorder`] (one JSON event per
//!   line) and [`VecRecorder`] (in-memory, for tests) — behind the
//!   [`Telemetry`] session handle; a session with no sink attached is
//!   disabled, and its `enabled()` check gates every instrumentation
//!   site.
//!
//! [`report`] parses a trace file and renders its non-controller parts
//! (`mct report <trace.jsonl>` prepends mct-core's decision timeline),
//! including the plain-text registry block that `mct metrics` prints on
//! its own; [`profile`] aggregates a span-bearing trace into a profile
//! tree (`mct profile <trace.jsonl>`).

pub mod event;
pub mod histogram;
pub mod pipeline;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod span;

pub use event::{Event, Record};
pub use histogram::{HistogramSummary, LogHistogram};
pub use pipeline::{pipeline_stats, PipelineSnapshot, PipelineStats, WorkerStat};
pub use profile::{render_collapsed, render_tree, SpanProfile};
pub use recorder::{JsonlRecorder, Recorder, RecorderHandle, Telemetry, VecRecorder};
pub use registry::{Registry, RegistrySnapshot, SeriesKey};
pub use report::{parse_jsonl_tolerant, render_registry, render_report_with_unknown};
pub use span::{SpanGuard, SpanId};
