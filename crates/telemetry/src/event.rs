//! Typed trace events emitted by the MCT runtime.
//!
//! Every event is wrapped in a [`Record`] envelope carrying a per-session
//! sequence number, the simulated-instruction clock, and a wall-clock
//! timestamp (microseconds since the recorder was attached). Records
//! serialize to one JSON object per line (JSONL) via `serde_json`.

use crate::span::SpanId;
use serde::{Content, Deserialize, Serialize};

/// One structured telemetry event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// One controller state transition (mct-core's `StateRecord`: the
    /// paper's Section 5 stages from baseline to health checks), carried
    /// as serialized content because this crate sits below the
    /// controller and cannot name its types. mct-core decodes and
    /// renders it (`mct report`).
    Transition(Content),
    /// A timed region of the runtime was entered. Paired with a later
    /// `SpanClose` carrying the same `id`; `parent` links the enclosing
    /// open span ([`SpanId::NONE`] for roots), so `mct profile` can
    /// reassemble the span tree post-hoc.
    SpanOpen {
        /// Session-unique span id (sequential from 1).
        id: SpanId,
        /// Id of the enclosing span, [`SpanId::NONE`] for roots.
        parent: SpanId,
        /// Static span name (e.g. "sampling", "fit").
        name: String,
        /// Optional low-cardinality labels (learner, workload, phase).
        #[serde(default)]
        labels: Vec<(String, String)>,
    },
    /// A timed region was exited. `wall_us` in the envelope gives the
    /// close time; duration is `close.wall_us - open.wall_us`.
    SpanClose {
        /// Id from the matching `SpanOpen`.
        id: SpanId,
        /// Span name, repeated for grep-ability of raw traces.
        name: String,
    },
    /// A snapshot of the counters/histograms registry, emitted once at
    /// the end of a traced run or of an experiment binary's pipeline.
    MetricsRegistry {
        snapshot: crate::registry::RegistrySnapshot,
    },
}

impl Event {
    /// Stable kind label, used for counter names and report grouping.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Transition(_) => "transition",
            Event::SpanOpen { .. } => "span_open",
            Event::SpanClose { .. } => "span_close",
            Event::MetricsRegistry { .. } => "metrics_registry",
        }
    }
}

/// Envelope around an [`Event`]: sequencing and both clocks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Monotonic per-session sequence number, starting at 0.
    pub seq: u64,
    /// Simulated-instruction clock when the event fired (detailed
    /// instructions since measurement started; 0 during warmup).
    pub sim_insts: u64,
    /// Wall-clock microseconds since the recorder session began.
    pub wall_us: u64,
    /// The event payload.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_round_trip_through_json() {
        let transition = serde_json::parse_content(
            r#"{"HealthChecked":{"segment":0,"check":2,"passed":false,"testing_ipc":4607182418800017408}}"#,
        )
        .expect("json");
        let record = Record {
            seq: 7,
            sim_insts: 50_000,
            wall_us: 120,
            event: Event::Transition(transition),
        };
        let line = serde_json::to_string(&record).expect("serialize");
        assert!(
            line.contains(r#""event":{"Transition":{"HealthChecked":"#),
            "{line}"
        );
        let back: Record = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, record);
        assert_eq!(back.event.kind(), "transition");
    }

    #[test]
    fn span_events_round_trip_and_omit_empty_labels() {
        let open = Record {
            seq: 3,
            sim_insts: 77,
            wall_us: 900,
            event: Event::SpanOpen {
                id: SpanId(4),
                parent: SpanId(1),
                name: "fit".into(),
                labels: vec![("learner".into(), "gbrt".into())],
            },
        };
        let close = Record {
            seq: 4,
            sim_insts: 99,
            wall_us: 1500,
            event: Event::SpanClose {
                id: SpanId(4),
                name: "fit".into(),
            },
        };
        for record in [open, close] {
            let line = serde_json::to_string(&record).expect("serialize");
            let back: Record = serde_json::from_str(&line).expect("parse");
            assert_eq!(back, record);
        }
        // Label-free opens written before labels existed still parse
        // (the field is `serde(default)`).
        let old = r#"{"SpanOpen":{"id":1,"parent":0,"name":"run"}}"#;
        let back: Event = serde_json::from_str(old).expect("parse");
        assert_eq!(
            back,
            Event::SpanOpen {
                id: SpanId(1),
                parent: SpanId::NONE,
                name: "run".into(),
                labels: Vec::new(),
            }
        );
    }
}
