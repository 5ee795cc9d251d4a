//! End-of-run pipeline accounting.
//!
//! Every experiment binary calls [`finish`] before exiting: it prints a
//! one-line `pipeline total:` summary to stderr (stable format, grepped
//! by the CI cache-smoke step) and appends the process pipeline registry
//! as an [`Event::MetricsRegistry`] record to the pipeline trace under
//! the data dir. `mct report` renders the counters (scheduler rounds and
//! per-worker series, cache hits and discards, warm-rig accounting) and
//! `mct metrics` prints the last record's registry on its own; the last
//! record is the whole run's picture, since the counters only grow.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use mct_telemetry::{pipeline_stats, Event, Record};

use crate::cache::data_dir;

/// The pipeline trace file (JSONL of [`Record`]s, renderable with
/// `mct report` and `mct metrics`).
#[must_use]
pub fn trace_path() -> PathBuf {
    data_dir().join("pipeline_trace.jsonl")
}

/// Snapshot the process pipeline counters, print the summary line, and
/// append a trace record. No-op for processes that did no pipeline work
/// (e.g. `config_space`, which only enumerates).
pub fn finish() {
    let stats = pipeline_stats();
    let summary = stats.snapshot();
    if summary.grains_total() == 0 && summary.rig_warmups == 0 {
        return;
    }
    eprintln!("pipeline total: {}", summary.summary_line());
    let record = Record {
        seq: 0,
        sim_insts: 0,
        wall_us: 0,
        event: Event::MetricsRegistry {
            snapshot: stats.registry().snapshot(),
        },
    };
    let path = trace_path();
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let line = serde_json::to_string(&record).expect("serialize pipeline record");
        file.write_all(format!("{line}\n").as_bytes())
    };
    if let Err(e) = write() {
        eprintln!(
            "warning: could not append pipeline trace {}: {e}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_path_follows_data_dir() {
        assert!(trace_path().ends_with("pipeline_trace.jsonl"));
    }
}
