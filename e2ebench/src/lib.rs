//! Support code for the `e2e` benchmark binary: the metric catalog that
//! `BENCHMARK.json` mirrors, the summary statistics every timing goes
//! through, the `/proc` readers behind the CPU and memory metrics, and the
//! one-line result object the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt;

/// A benchmark workload and why it is in the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what the workload stresses.
    pub why: &'static str,
}

/// The workloads, in `--all` order. `reproduce_cold` comes before
/// `reproduce_warm` so that one invocation can reuse the cold pass's data
/// directory as the warm pass's fixture.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "reproduce_cold",
        why: "the 14 run_all stages at smoke scale on an empty grain cache, 2 workers: 1700 grains run; work a warm pass skips is ~65% of the pass, figure2 model fits ~32%",
    },
    WorkloadSpec {
        name: "reproduce_warm",
        why: "the same stages over a filled grain cache: no grain runs, the simulator idles and figure2 model fits are over 90% of the pass",
    },
    WorkloadSpec {
        name: "control",
        why: "MCT control loops on phased ocean for GBRT and quad-lasso, no persistence: sampling, fit, predict_all, optimize and health checks",
    },
    WorkloadSpec {
        name: "control_durable",
        why: "persisted GBRT loops on ocean: a fresh logged run, a warm-start resume and a crash recovery by verified replay per seed",
    },
];

/// The benchmark's one clock read: every time it reports is the span
/// between two of these.
#[must_use]
pub fn now() -> std::time::Instant {
    // mct-tidy: allow(D002) -- the benchmark measures time; it never feeds program results
    std::time::Instant::now()
}

/// `--seconds` when absent: the run length `BENCHMARK.json` gives.
pub const RUN_SECONDS: f64 = 15.0;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (hit ratios, elided work, coverage).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric with its regression bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports with tracing off. An
/// *op* is the workload's unit of work: one pass over all stages for
/// `reproduce_*`, one seed's GBRT and quad-lasso loops for `control`, and
/// one seed's fresh, resume and recovery runs for `control_durable`. The
/// op time is a mean: a resume is bimodal (warm start or not), and a median
/// over a few dozen seeds jumps between the modes where a mean moves with
/// their mix. Times are at reference host speed (see [`Reference`]).
///
/// Op and CPU time may worsen by 10% before a change counts as a
/// regression. Set-up time gets the widest bound the format allows: it is a
/// few milliseconds for `reproduce_*`, where 10% is below the jitter of
/// starting a process.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_mean",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Per-layer metrics that do not depend on the stage list: (name, unit,
/// better). Which end-to-end metric each should move is tabled in the
/// README.
const LAYER_METRICS: &[(&str, &str, Better)] = {
    use Better::{Higher, Lower};
    &[
        ("stage.unattributed_s", "s", Lower),
        ("grains.executed", "count", Lower),
        ("grains.cached", "count", Higher),
        ("cache.hit_ratio", "ratio", Higher),
        ("cache.bytes", "bytes", Lower),
        ("cache.load_s", "s", Lower),
        ("rig.warmups", "count", Lower),
        ("rig.warmup_s", "s", Lower),
        ("rig.clones", "count", Lower),
        ("rig.clone_s", "s", Lower),
        ("rig.snapshot_mib", "MiB", Lower),
        ("sched.busy_s", "s", Lower),
        ("sched.idle_s", "s", Lower),
        ("sched.utilization", "ratio", Higher),
        ("sched.stolen", "count", Lower),
        ("workloads.gen_ns_per_event", "ns", Lower),
        ("sim.ns_per_event", "ns", Lower),
        ("sim.llc_ns_per_event", "ns", Lower),
        ("sim.cpu_mem_ns_per_event", "ns", Lower),
        ("sim.rigset8_ns_per_event", "ns", Lower),
        ("sim.warmup_ms", "ms", Lower),
        ("sim.clone_us", "us", Lower),
        ("sim.events", "count", Lower),
        ("sim.minst", "Minst", Lower),
        ("sim.llc_miss_ratio", "ratio", Lower),
        ("sim.mem_reads", "count", Lower),
        ("sim.mem_writes", "count", Lower),
        ("sim.writes_slow", "count", Lower),
        ("sim.cancellations", "count", Lower),
        ("sim.eager_writes", "count", Lower),
        ("span.controller_new_ms", "ms", Lower),
        ("span.run_ms", "ms", Lower),
        ("span.warmup_ms", "ms", Lower),
        ("span.segment_ms", "ms", Lower),
        ("span.baseline_ms", "ms", Lower),
        ("span.sampling_ms", "ms", Lower),
        ("span.sim_window_ms", "ms", Lower),
        ("span.fit_ms", "ms", Lower),
        ("span.fit_features_ms", "ms", Lower),
        ("span.fit_model_ms.gbrt", "ms", Lower),
        ("span.fit_model_ms.qlasso", "ms", Lower),
        ("span.predict_ms.gbrt", "ms", Lower),
        ("span.predict_ms.qlasso", "ms", Lower),
        ("span.decide_ms", "ms", Lower),
        ("span.testing_ms", "ms", Lower),
        ("span.health_check_ms", "ms", Lower),
        ("span.refit_ms", "ms", Lower),
        ("span.persist_open_ms", "ms", Lower),
        ("span.persist_snapshot_ms", "ms", Lower),
        ("span.other_ms", "ms", Lower),
        ("span.unattributed_ms", "ms", Lower),
        ("ctl.segments", "count", Lower),
        ("ctl.fits_elided", "count", Higher),
        ("ctl.health_fallbacks", "count", Lower),
        ("ctl.warm_starts", "count", Higher),
        ("ctl.sampling_minst", "Minst", Lower),
        ("ctl.testing_minst", "Minst", Higher),
        ("persist.wal_bytes", "bytes", Lower),
        ("persist.snap_bytes", "bytes", Lower),
        ("persist.records", "count", Lower),
        ("telemetry.span_coverage", "ratio", Higher),
        ("telemetry.trace_overhead_ratio", "ratio", Lower),
    ]
};

/// The per-layer `span.*` metrics, in catalog order.
#[must_use]
pub fn span_metrics() -> Vec<&'static str> {
    LAYER_METRICS
        .iter()
        .map(|&(name, ..)| name)
        .filter(|name| name.starts_with("span."))
        .collect()
}

/// The per-layer metric for one experiment stage's wall time.
#[must_use]
pub fn stage_metric(stage: &str) -> String {
    format!("stage.{stage}_s")
}

/// Every per-layer metric (name, unit, better) a traced run reports: one
/// `stage.<name>_s` per entry of `stages` (in order), then the fixed list.
/// Metrics a workload does not exercise read 0.
#[must_use]
pub fn per_layer(stages: &[&str]) -> Vec<(String, &'static str, Better)> {
    stages
        .iter()
        .map(|s| (stage_metric(s), "s", Better::Lower))
        .chain(LAYER_METRICS.iter().map(|&(n, u, b)| (n.to_string(), u, b)))
        .collect()
}

/// The `p`-quantile (0 ≤ p ≤ 1) of `values`, interpolating linearly
/// between the two nearest ranks. `None` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let pos = p.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// How many of `n` samples lie strictly beyond the `p`-quantile rank that
/// [`percentile`] interpolates at. The benchmark reports a tail percentile
/// only when this is at least 10.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    match n.checked_sub(1) {
        Some(last) => last - (p.clamp(0.0, 1.0) * last as f64).floor() as usize,
        None => 0,
    }
}

/// A `/proc` file that did not have the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcError {
    /// The field is absent.
    Missing(&'static str),
    /// The field is present but not a number.
    NotANumber(&'static str, String),
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcError::Missing(field) => write!(f, "{field} not found"),
            ProcError::NotANumber(field, raw) => write!(f, "{field} is not a number: {raw:?}"),
        }
    }
}

impl std::error::Error for ProcError {}

/// Peak resident set size in KiB from the text of `/proc/<pid>/status`
/// (the `VmHWM:` line).
///
/// # Errors
/// [`ProcError`] when the line is missing or its value does not parse.
pub fn parse_vm_hwm_kib(status: &str) -> Result<u64, ProcError> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or(ProcError::Missing("VmHWM"))?;
    let raw = line.trim().trim_end_matches("kB").trim();
    raw.parse()
        .map_err(|_| ProcError::NotANumber("VmHWM", raw.to_string()))
}

/// User and system CPU time in clock ticks, `(utime, stime)`, from the
/// text of `/proc/<pid>/stat`. Fields are counted after the last `)`, so
/// a command name holding spaces or parentheses cannot shift them.
///
/// # Errors
/// [`ProcError`] when the fields are missing or do not parse.
pub fn parse_cpu_ticks(stat: &str) -> Result<(u64, u64), ProcError> {
    let rest = stat
        .rsplit_once(')')
        .ok_or(ProcError::Missing("command name"))?
        .1;
    // After the command name: state is field 3, utime 14, stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |idx: usize, name: &'static str| -> Result<u64, ProcError> {
        let raw = fields.get(idx).ok_or(ProcError::Missing(name))?;
        raw.parse()
            .map_err(|_| ProcError::NotANumber(name, (*raw).to_string()))
    };
    Ok((field(11, "utime")?, field(12, "stime")?))
}

/// CPU nanoseconds that threads used between two reads of every thread's
/// running total (`/proc/<pid>/task/<tid>/schedstat`), keyed by thread id.
/// A thread listed in `after` counts by how much it grew, a thread new
/// since `before` in full. A thread listed only in `before` exited in
/// between, and its total went with it, so it is skipped.
#[must_use]
pub fn cpu_ns_between(before: &BTreeMap<u32, u64>, after: &BTreeMap<u32, u64>) -> u64 {
    after
        .iter()
        .map(|(tid, &ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

/// Whether `unit` measures time: the values host-speed scaling applies to.
#[must_use]
pub fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// Milliseconds one [`Reference::sample_ms`] takes at reference host speed:
/// its typical time on the 2-core x86-64 VM the benchmark was sized on.
pub const REFERENCE_MS: f64 = 3.9;

/// How much harder a host slowdown hits the program than the reference.
/// Across 160 runs of the four workloads at host speeds from 0.54 to 1.10
/// of the reference, op time grew as reference time to a power of 1.1 to
/// 1.4 per workload, so linear scaling left slow runs reading high.
pub const HOST_EXPONENT: f64 = 1.25;

/// The factor that brings a time measured next to reference passes of mean
/// `reference_ms` to reference host speed.
#[must_use]
pub fn host_scale(reference_ms: f64) -> f64 {
    (REFERENCE_MS / reference_ms).powf(HOST_EXPONENT)
}

const REFERENCE_SETS: usize = 2048;
const REFERENCE_WAYS: usize = 16;
const REFERENCE_LINES: u64 = 60_000;
const REFERENCE_STEPS: u32 = 150_000;

/// A fixed workload, owned by the benchmark, that tracks how fast the host
/// runs right now.
///
/// On a shared VM the host's speed drifts by tens of percent over minutes,
/// for every process alike: ten runs of one commit spread by up to half
/// their median in raw time. Each child times this reference next to its
/// ops, and the parent scales the child's times by [`host_scale`] of the
/// reference's mean time there. The reference is a true-LRU
/// set-associative cache model fed a pseudo-random line stream, the shape
/// of the simulator's hot loop. It tracked the simulator far better than
/// memory-latency or pure-arithmetic kernels did: over 17 minutes of drift
/// it cut the window-to-window spread of control loops, sweeps and model
/// fits from 10–14% to 1–4%. The benchmark owns its code. Callers run an
/// untimed pass before the timed ones, so those start from the reference's
/// own cache state rather than whatever the work before them left; and a
/// change that loads the host while it runs is caught by the child's check
/// on other threads' CPU time.
#[derive(Debug)]
pub struct Reference {
    sets: Vec<Vec<u64>>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut r = Reference {
            sets: (0..REFERENCE_SETS)
                .map(|_| Vec::with_capacity(REFERENCE_WAYS))
                .collect(),
        };
        // Every set sees more distinct lines per pass than it holds, so
        // after one pass the state, and with it each later pass's work, is
        // the same.
        r.sample_ms();
        r
    }
}

impl Reference {
    /// One pass over the fixed line stream, in milliseconds.
    pub fn sample_ms(&mut self) -> f64 {
        let mut x: u64 = 3;
        let mut hits = 0u64;
        let t0 = now();
        for _ in 0..REFERENCE_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let line = (x >> 40) % REFERENCE_LINES;
            let set = &mut self.sets[line as usize % REFERENCE_SETS];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                let hit = set.remove(pos);
                set.insert(0, hit);
                hits += 1;
            } else {
                if set.len() == REFERENCE_WAYS {
                    set.pop();
                }
                set.insert(0, line);
            }
        }
        std::hint::black_box(hits);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, which the kernel
/// fixes at 100 per second on every architecture it exports to user space.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// The result object the benchmark prints as its last line: whether the
/// outputs checked out, the ops attempted and failed, and each metric with
/// its unit. Values print with every digit Rust's shortest round-trip
/// formatting gives.
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn result_json_has_the_four_keys() {
        let line = result_json(true, 3, 0, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
