//! The work a benchmark child process does. The parent re-executes the
//! binary once per pass or measurement so that process-global state — the
//! warm-rig pool, `pipeline_stats()`, the grain-store pool and peak RSS —
//! starts empty for each.
//!
//! A child reports raw samples over stdout, one record per line: `ready`
//! when set-up is over, `m <name> <value> <unit>` per sample (a name may
//! repeat, once per op or run), and `t <name> <text>` per text value
//! (`t problem ...` for a failed check). The parent owns every statistic.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use mct_core::controller::SegmentReport;
use mct_core::{
    decode_dir, Controller, ControllerConfig, ModelKind, Objective, Outcome, PersistConfig,
    RecoveryReport,
};
use mct_e2e_bench::{cpu_ns_between, now, span_metrics, stage_metric, Reference, REFERENCE_MS};
use mct_experiments::cache::{data_dir, load_or_compute_sweeps, strided_configs, SweepRequest};
use mct_experiments::figures::STAGES;
use mct_experiments::{Scale, EXPERIMENT_SEED};
use mct_persist::{fnv1a64, CrashPoint};
use mct_telemetry::profile::SpanNode;
use mct_telemetry::{pipeline_stats, RecorderHandle, SpanProfile, VecRecorder};
use mct_workloads::Workload;

use crate::procfs;

/// The phased application the control loops run (paper Fig. 6): sampling,
/// fit, refit elision, prediction, optimization, quota fixup and health
/// checks all run on it. One application keeps each learner's loop-time
/// distribution unimodal.
const CONTROL_APP: Workload = Workload::Ocean;

/// Lifetime target of the objective, years (the paper's default).
const TARGET_YEARS: f64 = 8.0;

/// The two learners the paper carries to the end (§6).
const LEARNERS: [(ModelKind, &str); 2] = [
    (ModelKind::GradientBoosting, "gbrt"),
    (ModelKind::QuadraticLasso, "qlasso"),
];

const MIB: f64 = 1024.0 * 1024.0;

fn ready() {
    println!("ready");
    let _ = std::io::stdout().flush();
}

fn metric(name: &str, value: f64, unit: &str) {
    println!("m {name} {value} {unit}");
}

fn text(name: &str, value: &str) {
    println!("t {name} {value}");
}

/// Times the host-speed [`Reference`] next to the measured work and reports
/// each time as a `reference_ms` sample. The parent scales this child's
/// times by the `host_scale` of the mean sample.
struct Host {
    reference: Reference,
}

/// Share of each stretch of measured work's time that the reference runs
/// for right after it. Host speed swings within seconds, so samples spread
/// over the work in proportion to its time estimate the speed the work saw
/// far better than a few samples at its ends: scaled cold passes spread
/// 2.4 times less. A larger share tracked no better.
const REFERENCE_SHARE: f64 = 0.05;

/// Timed reference passes of a set-up probe, which has no work to follow.
const PROBE_PASSES: usize = 5;

impl Host {
    fn new() -> Host {
        Host {
            reference: Reference::default(),
        }
    }

    /// Reference passes right after `work_ms` of measured work, adding up
    /// to about [`REFERENCE_SHARE`] of it and at least one.
    fn sample_after(&mut self, work_ms: f64) -> Result<(), String> {
        let passes = (REFERENCE_SHARE * work_ms / REFERENCE_MS).round().max(1.0);
        self.sample(passes as usize)
    }

    /// One untimed reference pass, so the timed ones start from the
    /// reference's own cache state rather than what the work left, then
    /// `passes` timed ones.
    ///
    /// # Errors
    /// Another thread of this process used CPU while the reference ran:
    /// that would slow the reference and so flatter every scaled time.
    fn sample(&mut self, passes: usize) -> Result<(), String> {
        self.reference.sample_ms();
        for _ in 0..passes {
            let others = procfs::other_threads_cpu_ns()?;
            let ms = self.reference.sample_ms();
            let others_ms = cpu_ns_between(&others, &procfs::other_threads_cpu_ns()?) as f64 / 1e6;
            if others_ms > 0.05 * ms {
                return Err(format!(
                    "other threads used {others_ms:.2} ms of CPU during a {ms:.2} ms host-speed reference pass"
                ));
            }
            metric("reference_ms", ms, "ms");
        }
        Ok(())
    }
}

/// The `run_all` scale of the `reproduce_*` passes. A `Scale::Quick` cold
/// pass takes about 54 s on a 2-core x86-64 VM, beyond one run's time
/// budget; the smoke pass runs every stage with smaller budgets.
pub const SCALE: Scale = Scale::Smoke;

/// One pass over every `run_all` stage at [`SCALE`] against the data dir
/// the parent chose (`MCT_DATA_DIR`), with reference passes after each
/// stage. With `probe` the child stops after set-up; with `trace_load` it
/// first times loading every app's grain store.
///
/// # Errors
/// A stage, an output write or a `/proc` read failing.
pub fn reproduce(trace_load: bool, probe: bool) -> Result<(), String> {
    let out_dir = data_dir().join("out");
    fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    ready();
    let mut host = Host::new();
    if probe {
        return host.sample(PROBE_PASSES);
    }
    if trace_load {
        // The read side of the grain cache on its own, before any stage
        // asks for it.
        let configs = strided_configs(mct_core::ConfigSpace::full(TARGET_YEARS).configs(), SCALE);
        let requests: Vec<SweepRequest> = Workload::all()
            .into_iter()
            .map(|workload| SweepRequest {
                workload,
                configs: configs.clone(),
            })
            .collect();
        let t0 = now();
        std::hint::black_box(load_or_compute_sweeps(&requests, SCALE, EXPERIMENT_SEED));
        metric("cache.load_s", t0.elapsed().as_secs_f64(), "s");
    }
    let before = pipeline_stats().snapshot();
    let (mut pass, mut staged, mut cpu) = (0.0, 0.0, 0.0);
    for (name, stage) in STAGES {
        let cpu0 = procfs::cpu_seconds()?;
        let t = now();
        let mut buf = Vec::new();
        stage(SCALE, &mut buf).map_err(|e| format!("stage {name}: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        let path = out_dir.join(format!("{name}.txt"));
        fs::write(&path, &buf).map_err(|e| format!("write {}: {e}", path.display()))?;
        let step = t.elapsed().as_secs_f64();
        cpu += procfs::cpu_seconds()? - cpu0;
        pass += step;
        staged += secs;
        metric(&stage_metric(name), secs, "s");
        host.sample_after(step * 1e3)?;
    }
    metric("sample.op_ms", pass * 1e3, "ms");
    metric("cpu_ms_per_op", cpu * 1e3, "ms");
    metric("stage.unattributed_s", pass - staged, "s");
    // Grain counts exclude the traced store load; the rig and scheduler
    // counters cover the whole process, which only the stages drive.
    let s = pipeline_stats().snapshot();
    let executed = s.grains_executed - before.grains_executed;
    let cached = s.cache_hits - before.cache_hits;
    metric("grains.executed", executed as f64, "count");
    metric("grains.cached", cached as f64, "count");
    metric(
        "cache.hit_ratio",
        cached as f64 / (executed + cached).max(1) as f64,
        "ratio",
    );
    metric("rig.warmups", s.rig_warmups as f64, "count");
    metric("rig.warmup_s", s.warmup_us as f64 / 1e6, "s");
    metric("rig.clones", s.rig_clones as f64, "count");
    metric("rig.clone_s", s.clone_us as f64 / 1e6, "s");
    metric("rig.snapshot_mib", s.snapshot_bytes as f64 / MIB, "MiB");
    let busy: u64 = s.workers.iter().map(|w| w.busy_us).sum();
    let wall: u64 = s.workers.iter().map(|w| w.wall_us).sum();
    metric("sched.busy_s", busy as f64 / 1e6, "s");
    metric("sched.idle_s", wall.saturating_sub(busy) as f64 / 1e6, "s");
    metric(
        "sched.utilization",
        busy as f64 / wall.max(1) as f64,
        "ratio",
    );
    metric("sched.stolen", s.grains_stolen as f64, "count");
    metric("peak_rss_mib", procfs::peak_rss_mib()?, "MiB");
    Ok(())
}

/// Which control workload a child measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// In-memory loops, both learners.
    Plain,
    /// Persisted GBRT loops: fresh, resume, recover.
    Durable,
}

/// The controller configuration `mct run ocean` uses, at the 8 M
/// instruction budget figure 7 runs at `Scale::Quick`.
fn controller_config(seed: u64, kind: ModelKind) -> ControllerConfig {
    let mut cfg = ControllerConfig::paper_scaled();
    cfg.model = kind;
    cfg.total_insts = Scale::Quick.controller_insts();
    cfg.warmup_insts = CONTROL_APP.warmup_insts();
    cfg.seed = seed;
    cfg
}

/// Every bit of an outcome: `Debug` prints each float in shortest
/// round-trip form, so equal fingerprints mean bit-identical outcomes.
fn fingerprint(o: &Outcome) -> u64 {
    fnv1a64(format!("{o:?}").as_bytes())
}

/// The span self times of one traced run, in ms. Learner-independent spans
/// are reported for every run (0 when absent); `fit.model` and `predict`
/// only under the run's own learner, so their means are per run of that
/// learner. `span.unattributed_ms` is the wall time neither a controller
/// span nor the benchmark's own `controller_new` covers.
fn emit_spans(learner: &str, wall_ms: f64, new_ms: f64, profile: &SpanProfile) {
    fn walk(nodes: &[SpanNode], learner: &str, out: &mut BTreeMap<String, f64>) {
        for node in nodes {
            let name = match node.name.as_str() {
                "sampling" | "sampling.round" => "span.sampling_ms".to_string(),
                "fit.model" => format!("span.fit_model_ms.{learner}"),
                "predict" => format!("span.predict_ms.{learner}"),
                name @ ("run" | "warmup" | "segment" | "baseline" | "fit" | "decide"
                | "testing" | "health_check" | "refit" | "sim.window" | "fit.features"
                | "persist.open" | "persist.snapshot") => {
                    format!("span.{}_ms", name.replace('.', "_"))
                }
                _ => "span.other_ms".to_string(),
            };
            *out.entry(name).or_default() += node.self_us as f64 / 1e3;
            walk(&node.children, learner, out);
        }
    }
    let own = format!(".{learner}");
    let mut self_ms: BTreeMap<String, f64> = span_metrics()
        .into_iter()
        .filter(|name| {
            let per_learner =
                name.starts_with("span.fit_model_ms.") || name.starts_with("span.predict_ms.");
            !per_learner || name.ends_with(&own)
        })
        .map(|name| (name.to_string(), 0.0))
        .collect();
    walk(&profile.roots, learner, &mut self_ms);
    *self_ms
        .entry("span.controller_new_ms".to_string())
        .or_default() += new_ms;
    let attributed: f64 = self_ms.values().sum();
    *self_ms
        .entry("span.unattributed_ms".to_string())
        .or_default() = wall_ms - attributed;
    for (name, ms) in &self_ms {
        metric(name, *ms, "ms");
    }
    metric("telemetry.span_coverage", profile.coverage(), "ratio");
}

/// One timed controller run: construction plus `run`, as `mct run` pays,
/// with the process CPU time it took.
struct Timed {
    outcome: Outcome,
    ms: f64,
    cpu_ms: f64,
}

/// Run the controller for `seed`; with `traced`, attach a recorder and
/// report the run's span self times.
fn timed_run(
    seed: u64,
    (kind, learner): (ModelKind, &str),
    persist: Option<PersistConfig>,
    traced: bool,
) -> Result<Timed, String> {
    let cpu0 = procfs::cpu_seconds()?;
    let t0 = now();
    let mut cfg = controller_config(seed, kind);
    cfg.persist = persist;
    let controller = Controller::new(cfg, Objective::paper_default(TARGET_YEARS));
    let new_ms = t0.elapsed().as_secs_f64() * 1e3;
    let recorder = traced.then(VecRecorder::shared);
    let mut controller = match &recorder {
        Some(rec) => {
            let handle: RecorderHandle = rec.clone();
            controller.with_recorder(handle)
        }
        None => controller,
    };
    let outcome = controller.run(&mut CONTROL_APP.source(seed));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = (procfs::cpu_seconds()? - cpu0) * 1e3;
    if let Some(rec) = recorder {
        let rec = rec
            .lock()
            .expect("recorder lock: the run holding it completed");
        emit_spans(
            learner,
            ms,
            new_ms,
            &SpanProfile::from_records(rec.records()),
        );
    }
    Ok(Timed {
        outcome,
        ms,
        cpu_ms,
    })
}

/// Run `op`, turning a panic into an error.
fn attempt<T>(op: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

fn check_sane(what: &str, o: &Outcome) -> Result<(), String> {
    let ipc = o.final_metrics.ipc;
    if ipc.is_finite() && ipc > 0.0 && !o.segments.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{what}: implausible outcome (ipc {ipc}, {} segments)",
            o.segments.len()
        ))
    }
}

/// One op's timed runs, each under the series it is reported in
/// (`loop_ms.gbrt` reports as `loop_ms_p50.gbrt`, ...), plus the fresh
/// store's sizes for `control_durable`.
struct Op {
    runs: Vec<(&'static str, Timed)>,
    store: Vec<(&'static str, f64, &'static str)>,
}

impl Op {
    fn ms(&self) -> f64 {
        self.runs.iter().map(|(_, t)| t.ms).sum()
    }

    fn fingerprints(&self) -> Vec<u64> {
        self.runs
            .iter()
            .map(|(_, t)| fingerprint(&t.outcome))
            .collect()
    }

    fn emit(&self) {
        metric("sample.op_ms", self.ms(), "ms");
        metric(
            "cpu_ms_per_op",
            self.runs.iter().map(|(_, t)| t.cpu_ms).sum(),
            "ms",
        );
        for (series, t) in &self.runs {
            metric(&format!("sample.{series}"), t.ms, "ms");
            let o = &t.outcome;
            let count =
                |f: fn(&SegmentReport) -> bool| o.segments.iter().filter(|s| f(s)).count() as f64;
            metric("ctl.segments", o.segments.len() as f64, "count");
            metric("ctl.fits_elided", count(|s| s.fit_elided), "count");
            metric(
                "ctl.health_fallbacks",
                count(|s| s.health_fallback),
                "count",
            );
            metric("ctl.warm_starts", count(|s| s.warm_started), "count");
            metric("ctl.sampling_minst", o.sampling_insts as f64 / 1e6, "Minst");
            metric("ctl.testing_minst", o.testing_insts as f64 / 1e6, "Minst");
        }
        for &(name, value, unit) in &self.store {
            metric(name, value, unit);
        }
    }
}

/// One seed of `control`: a loop per learner.
fn control_op(seed: u64, traced: bool) -> Result<Op, String> {
    let mut runs = Vec::new();
    for (learner, series) in LEARNERS.into_iter().zip(["loop_ms.gbrt", "loop_ms.qlasso"]) {
        let t = timed_run(seed, learner, None, traced)?;
        check_sane(&format!("seed {seed} {}", learner.1), &t.outcome)?;
        runs.push((series, t));
    }
    Ok(Op {
        runs,
        store: Vec::new(),
    })
}

fn file_len(path: &Path) -> f64 {
    fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// One seed of `control_durable`, each run checked against its contract:
/// the fresh persisted run is bit-identical to an in-memory run
/// (persistence is inert), the resume warm-starts from the clean store,
/// and the recovery of a store killed halfway re-executes onto the fresh
/// run's outcome. The in-memory reference and the killed run are untimed.
fn durable_op(seed: u64, work: &Path, traced: bool) -> Result<Op, String> {
    let gbrt = LEARNERS[0];
    let fresh_dir = work.join("fresh");
    let crash_dir = work.join("crash");
    for dir in [&fresh_dir, &crash_dir] {
        let _ = fs::remove_dir_all(dir);
    }
    let store = |dir: &Path, resume: bool, crash_point: CrashPoint| PersistConfig {
        dir: dir.display().to_string(),
        resume,
        crash_point,
    };
    let golden = fingerprint(&timed_run(seed, gbrt, None, false)?.outcome);

    let fresh_cfg = store(&fresh_dir, false, CrashPoint::None);
    let fresh = timed_run(seed, gbrt, Some(fresh_cfg), traced)?;
    if fingerprint(&fresh.outcome) != golden {
        return Err(format!(
            "seed {seed}: persisted run differs from the in-memory run"
        ));
    }
    let records = decode_dir(&fresh_dir)
        .map_err(|e| format!("seed {seed}: {e}"))?
        .len();

    let resume_cfg = store(&fresh_dir, true, CrashPoint::None);
    let resume = timed_run(seed, gbrt, Some(resume_cfg), traced)?;
    check_sane(&format!("seed {seed} resume"), &resume.outcome)?;

    let killed_cfg = store(&crash_dir, false, CrashPoint::AfterOp(records as u64 / 2));
    let killed = timed_run(seed, gbrt, Some(killed_cfg), false)?;
    if fingerprint(&killed.outcome) != golden {
        return Err(format!(
            "seed {seed}: run with a dying store differs from the in-memory run"
        ));
    }
    let report = RecoveryReport::from_dir(&crash_dir).map_err(|e| format!("seed {seed}: {e}"))?;
    if report.clean {
        return Err(format!("seed {seed}: the crash point left a clean store"));
    }
    // A clean run compacts its log into the final snapshot, so the WAL
    // worth sizing is the killed store's: what recovery replays.
    let store_sizes = vec![
        ("persist.records", records as f64, "count"),
        (
            "persist.snap_bytes",
            file_len(&fresh_dir.join("snap.bin")),
            "bytes",
        ),
        (
            "persist.wal_bytes",
            file_len(&crash_dir.join("wal.bin")),
            "bytes",
        ),
    ];
    let recover_cfg = store(&crash_dir, true, CrashPoint::None);
    let recover = timed_run(seed, gbrt, Some(recover_cfg), traced)?;
    if fingerprint(&recover.outcome) != golden {
        return Err(format!(
            "seed {seed}: recovered outcome differs from the fresh run"
        ));
    }
    if recover.outcome.segments.iter().any(|s| s.warm_started) {
        return Err(format!(
            "seed {seed}: recovery warm-started instead of re-executing"
        ));
    }
    Ok(Op {
        runs: vec![
            ("loop_ms.gbrt", fresh),
            ("resume_ms", resume),
            ("recover_ms", recover),
        ],
        store: store_sizes,
    })
}

/// A control measurement: one discarded warm-up run (the lazy
/// initialisation every `mct run` process pays), then one op per seed
/// `seed ..= seed + ops - 1`. The warm-up runs the first seed, and the
/// first op must reproduce it bit for bit. With `trace`, each op is
/// repeated with a recorder attached, which must not change a bit of any
/// outcome either.
///
/// # Errors
/// The warm-up run or a `/proc` read failing.
pub fn control(
    which: Control,
    seed: u64,
    ops: u64,
    trace: bool,
    work: &Path,
    probe: bool,
) -> Result<(), String> {
    let run_op = |seed: u64, traced: bool| match which {
        Control::Plain => control_op(seed, traced),
        Control::Durable => durable_op(seed, work, traced),
    };
    let warmup = attempt(|| {
        let persist = (which == Control::Durable)
            .then(|| PersistConfig::fresh(work.join("warmup").display().to_string()));
        let run = timed_run(seed, LEARNERS[0], persist, false)?;
        Ok(fingerprint(&run.outcome))
    })
    .map_err(|e| format!("warm-up run: {e}"))?;
    ready();
    let mut host = Host::new();
    if probe {
        return host.sample(PROBE_PASSES);
    }
    let mut failed = 0u32;
    let mut digest = Vec::new();
    for i in 0..ops {
        let seed = seed + i;
        let result = attempt(|| run_op(seed, false)).and_then(|op| {
            if i == 0 && op.fingerprints()[0] != warmup {
                return Err(format!(
                    "seed {seed}: first run differs from the warm-up run"
                ));
            }
            Ok(op)
        });
        host.sample_after(result.as_ref().map_or(0.0, Op::ms))?;
        let op = match result {
            Ok(op) => op,
            Err(e) => {
                failed += 1;
                text("problem", &e);
                continue;
            }
        };
        if trace {
            match attempt(|| run_op(seed, true)) {
                Ok(traced) if traced.fingerprints() == op.fingerprints() => metric(
                    "telemetry.trace_overhead_ratio",
                    traced.ms() / op.ms() - 1.0,
                    "ratio",
                ),
                Ok(_) => text(
                    "problem",
                    &format!("seed {seed}: traced runs differ from untraced runs"),
                ),
                Err(e) => text("problem", &format!("seed {seed} traced: {e}")),
            }
        }
        op.emit();
        for fp in op.fingerprints() {
            digest.extend_from_slice(&fp.to_le_bytes());
        }
    }
    metric("ops_attempted", ops as f64, "count");
    metric("ops_failed", f64::from(failed), "count");
    metric("peak_rss_mib", procfs::peak_rss_mib()?, "MiB");
    text("output_digest", &format!("{:016x}", fnv1a64(&digest)));
    Ok(())
}
