//! `e2e` — the end-to-end benchmark of the Memory Cocktail Therapy
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin e2e -- \
//!     (--workload NAME | --all | --list) [--seed N] [--seconds T] [--trace [0|1]]
//! ```
//!
//! Each workload runs in child processes, re-executions of this binary, so
//! process-global state (rig pool, pipeline counters, store pools, peak
//! RSS) is per measurement. Load is a closed loop from one process at a
//! time, with at most two worker threads. The workloads, metrics and the
//! A/B protocol are described in `e2ebench/README.md`.
//!
//! Output: a machine line, every metric by name with its unit, the output
//! digest, and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics, or with
//! `--trace` the per-layer ones.

mod child;
mod probe;
mod procfs;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use mct_e2e_bench::{
    host_scale, is_time_unit, median, now, per_layer, percentile, result_json, samples_beyond,
    Reference, WorkloadSpec, END_TO_END, RUN_SECONDS, WORKLOADS,
};
use mct_experiments::figures::STAGES;
use mct_persist::fnv1a64;

use child::Control;

/// Workload seed when `--seed` is absent (the paper's venue year).
const DEFAULT_SEED: u64 = 2017;

/// Extra child processes that only set up, so `setup_s` is a median of
/// several set-ups, not one.
const SETUP_PROBES: usize = 8;

/// Grain-scheduler workers for `reproduce_*`, capped at the machine's
/// parallelism.
const WORKERS: usize = 2;

/// A workload stops its children by this point, so a one-workload
/// invocation ends within three minutes.
const DEADLINE: Duration = Duration::from_secs(170);

const USAGE: &str =
    "usage: e2e (--workload NAME | --all | --list) [--seed N] [--seconds T] [--trace [0|1]]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    List,
    All,
    Workload(&'static WorkloadSpec),
    /// A child process's own work (internal).
    Child(&'static WorkloadSpec),
}

#[derive(Debug, Clone)]
struct Args {
    target: Target,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child only: stop once set up.
    probe: bool,
    /// Child only: scratch directory for persisted stores.
    work: Option<PathBuf>,
    /// Child only: how many control ops to run.
    ops: u64,
}

fn workload(name: &str) -> Result<&'static WorkloadSpec, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of: {})", names.join(", "))
    })
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut target = None;
    let mut args = Args {
        target: Target::List,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        probe: false,
        work: None,
        ops: 1,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => target = Some(Target::List),
            "--all" => target = Some(Target::All),
            "--workload" => target = Some(Target::Workload(workload(value()?)?)),
            "--child" => target = Some(Target::Child(workload(value()?)?)),
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {v:?}"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                args.seconds = secs;
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--probe" => args.probe = true,
            "--work" => args.work = Some(PathBuf::from(value()?)),
            "--ops" => {
                let v = value()?;
                args.ops = v
                    .parse()
                    .map_err(|_| format!("--ops: not a number: {v:?}"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.target = target.ok_or("one of --workload, --all or --list is required")?;
    Ok(args)
}

/// The repository checkout this binary was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(WORKERS))
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `None` outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

fn machine_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "machine nproc={nproc} os={} arch={} cpu={cpu:?} commit={}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        git_commit(&repo_root()).unwrap_or_else(|| "unknown".to_string())
    )
}

/// What one child process reported.
#[derive(Debug, Default)]
struct ChildRun {
    /// Spawn to `ready`.
    setup_s: Option<f64>,
    metrics: Vec<(String, f64, String)>,
    texts: Vec<(String, String)>,
    /// Why the child did not finish cleanly.
    error: Option<String>,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// Run this binary as a child with `args` and collect its report. The
/// child is killed at `deadline`; either way it has exited on return.
fn spawn_child(args: &[String], data_dir: Option<&Path>, deadline: Instant) -> ChildRun {
    let mut run = ChildRun::default();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            run.error = Some(format!("locate own executable: {e}"));
            return run;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .env("MCT_WORKERS", workers().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(dir) = data_dir {
        cmd.env("MCT_DATA_DIR", dir);
    }
    let start = now();
    let mut child = match cmd.spawn() {
        Ok(child) => child,
        Err(e) => {
            run.error = Some(format!("spawn: {e}"));
            return run;
        }
    };
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((now(), line)).is_err() {
                break;
            }
        }
    });
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(now())) {
            Ok((at, line)) => {
                let mut parts = line.splitn(4, ' ');
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some("ready"), None, ..) => run.setup_s = Some((at - start).as_secs_f64()),
                    (Some("m"), Some(name), Some(value), Some(unit)) => match value.parse() {
                        Ok(v) => run.metrics.push((name.to_string(), v, unit.to_string())),
                        Err(_) => run.error = Some(format!("unparsable metric line {line:?}")),
                    },
                    (Some("t"), Some(name), ..) => {
                        let value = line.splitn(3, ' ').nth(2).unwrap_or("");
                        run.texts.push((name.to_string(), value.to_string()));
                    }
                    _ => {}
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                let _ = child.kill();
                run.error = Some("killed at the run deadline".to_string());
                break;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    match child.wait() {
        Ok(status) if !status.success() && run.error.is_none() => {
            run.error = Some(format!("child exited with {status}"));
        }
        Ok(_) => {}
        Err(e) => run.error = Some(format!("wait for child: {e}")),
    }
    let _ = reader.join();
    run
}

/// Samples pooled over one workload's children, times at reference host
/// speed.
#[derive(Debug, Default)]
struct Pool {
    samples: Vec<(String, Vec<f64>, String)>,
    setups: Vec<f64>,
    /// Each child's host-speed scale.
    scales: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digests: Vec<String>,
}

impl Pool {
    fn push(&mut self, name: &str, value: f64, unit: &str) {
        match self.samples.iter_mut().find(|(n, ..)| n == name) {
            Some((_, values, _)) => values.push(value),
            None => self
                .samples
                .push((name.to_string(), vec![value], unit.to_string())),
        }
    }

    fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Pool one child's report, its times scaled by [`host_scale`] of
    /// the mean of its `reference_ms` samples. A measuring child's ops count
    /// as attempted (one op unless it reports `ops_attempted`); one that did
    /// not finish counts as one failed op.
    fn absorb(&mut self, run: ChildRun, measuring: bool) {
        if let Some(e) = run.error {
            if measuring {
                self.fail(e);
            } else {
                self.problems.push(e);
            }
            return;
        }
        let reference: Vec<f64> = run
            .metrics
            .iter()
            .filter(|(name, ..)| name == "reference_ms")
            .map(|&(_, ms, _)| ms)
            .collect();
        let Some(mean) =
            (!reference.is_empty()).then(|| reference.iter().sum::<f64>() / reference.len() as f64)
        else {
            self.problems
                .push("a child reported no host-speed reference".to_string());
            return;
        };
        let scale = host_scale(mean);
        self.scales.push(scale);
        match run.setup_s {
            Some(s) => self.setups.push(s * scale),
            None => self.problems.push("a child never became ready".to_string()),
        }
        let mut attempted = 1;
        for (name, value, unit) in run.metrics {
            match name.as_str() {
                "reference_ms" => {}
                "ops_attempted" => attempted = value as u64,
                "ops_failed" => self.failed += value as u64,
                _ if is_time_unit(&unit) => self.push(&name, value * scale, &unit),
                _ => self.push(&name, value, &unit),
            }
        }
        if measuring {
            self.attempted += attempted;
        }
        for (name, value) in run.texts {
            match name.as_str() {
                "problem" => self.problems.push(value),
                _ => self.digests.push(value),
            }
        }
    }

    /// The workload's metrics: `sample.X` series as p50, p80 (once 50
    /// samples put 10 beyond it) and sample count (plus the mean for
    /// `op_ms`), peak RSS as a median over
    /// children, everything else as a mean over its samples.
    fn summarize(&self) -> Vec<(String, f64, String)> {
        let mut out = Vec::new();
        if let Some(s) = median(&self.setups) {
            out.push(("setup_s".to_string(), s, "s".to_string()));
        }
        for (name, values, unit) in &self.samples {
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let Some(series) = name.strip_prefix("sample.") else {
                let value = match name.as_str() {
                    "peak_rss_mib" => median(values).unwrap_or(mean),
                    _ => mean,
                };
                out.push((name.clone(), value, unit.clone()));
                continue;
            };
            let (base, suffix) = series.split_at(series.find('.').unwrap_or(series.len()));
            if series == "op_ms" {
                out.push(("op_ms_mean".to_string(), mean, unit.clone()));
            }
            for (stat, p) in [("p50", 0.5), ("p80", 0.8)] {
                // A tail percentile needs at least 10 samples beyond it.
                if stat == "p50" || samples_beyond(values.len(), p) >= 10 {
                    if let Some(v) = percentile(values, p) {
                        out.push((format!("{base}_{stat}{suffix}"), v, unit.clone()));
                    }
                }
            }
            out.push((
                format!("{base}_n{suffix}"),
                values.len() as f64,
                "count".to_string(),
            ));
        }
        out
    }
}

/// State shared by the workloads of one invocation.
struct Ctx {
    args: Args,
    work: PathBuf,
    /// When the current workload's children are killed.
    deadline: Instant,
    /// A data dir filled by a cold pass, reusable as the warm fixture.
    fixture: Option<PathBuf>,
}

impl Ctx {
    /// Child arguments for workload `name`.
    fn child_args(&self, name: &str, extra: &[&str]) -> Vec<String> {
        let mut v: Vec<String> = vec![
            "--child".into(),
            name.into(),
            "--seed".into(),
            self.args.seed.to_string(),
            "--work".into(),
            self.work.join(name).display().to_string(),
        ];
        if self.args.trace {
            v.push("--trace".into());
        }
        v.extend(extra.iter().map(|s| (*s).to_string()));
        v
    }

    fn spawn(&self, args: &[String], data_dir: Option<&Path>) -> ChildRun {
        spawn_child(args, data_dir, self.deadline)
    }

    /// `SETUP_PROBES` children that set up and exit.
    fn setup_probes(&self, name: &str, data_dir: Option<&Path>, pool: &mut Pool) {
        for _ in 0..SETUP_PROBES {
            let run = self.spawn(&self.child_args(name, &["--probe"]), data_dir);
            pool.absorb(run, false);
        }
    }
}

/// The stage outputs of a pass, in stage order.
fn read_out(data_dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    STAGES
        .iter()
        .map(|(name, _)| {
            let path = data_dir.join("out").join(format!("{name}.txt"));
            std::fs::read(&path)
                .map(|bytes| ((*name).to_string(), bytes))
                .map_err(|e| format!("read {}: {e}", path.display()))
        })
        .collect()
}

fn digest_out(out: &[(String, Vec<u8>)]) -> u64 {
    let mut bytes = Vec::new();
    for (name, body) in out {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(body);
        bytes.push(0);
    }
    fnv1a64(&bytes)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                _ => e.metadata().map_or(0, |m| m.len()),
            })
            .sum()
    })
}

/// The warm fixture: the data dir this invocation's cold passes filled,
/// or else one untimed cold pass.
fn warm_fixture(ctx: &mut Ctx) -> Result<PathBuf, String> {
    if let Some(dir) = ctx.fixture.take() {
        return Ok(dir);
    }
    let dir = ctx.work.join("fixture");
    let run = ctx.spawn(&ctx.child_args("reproduce_cold", &[]), Some(&dir));
    match run.error {
        Some(e) => Err(format!("cold pass: {e}")),
        None => Ok(dir),
    }
}

/// Passes over every stage — fresh data dirs for `reproduce_cold`, the
/// filled fixture dir for `reproduce_warm` — until `--seconds` have
/// passed. The inputs do not depend on `--seed`, so stopping on the clock
/// changes only how many identical passes are averaged.
fn reproduce(ctx: &mut Ctx, spec: &WorkloadSpec, warm: bool) -> Pool {
    let mut pool = Pool::default();
    let probe_dir = ctx.work.join("probe");
    ctx.setup_probes(spec.name, Some(&probe_dir), &mut pool);
    let (dir, mut expected) = if warm {
        match warm_fixture(ctx).and_then(|dir| read_out(&dir).map(|out| (dir, Some(out)))) {
            Ok(fixture) => fixture,
            Err(e) => {
                pool.fail(format!("warm fixture: {e}"));
                return pool;
            }
        }
    } else {
        (ctx.work.join(spec.name), None)
    };
    let t0 = now();
    while pool.attempted == 0
        || (t0.elapsed().as_secs_f64() < ctx.args.seconds && now() < ctx.deadline)
    {
        let pass = pool.attempted + 1;
        if !warm {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let mut run = ctx.spawn(&ctx.child_args(spec.name, &[]), Some(&dir));
        if run.error.is_some() {
            pool.absorb(run, true);
            continue;
        }
        let checked = read_out(&dir).and_then(|out| match &expected {
            Some(r) if *r != out => Err(format!(
                "out/ differs from {}",
                if warm {
                    "the cold pass"
                } else {
                    "the first pass"
                }
            )),
            Some(_) => Ok(()),
            None => {
                expected = Some(out);
                Ok(())
            }
        });
        let checked = checked.and_then(|()| {
            if warm && run.metric("grains.executed") != Some(0.0) {
                Err("a warm pass executed grains".to_string())
            } else {
                Ok(())
            }
        });
        if let Err(e) = checked {
            pool.fail(format!("pass {pass}: {e}"));
            continue;
        }
        run.metrics
            .push(("cache.bytes".into(), dir_bytes(&dir) as f64, "bytes".into()));
        pool.absorb(run, true);
    }
    if !warm && expected.is_some() {
        ctx.fixture = Some(dir);
    }
    if let Some(out) = &expected {
        pool.digests.push(format!("{:016x}", digest_out(out)));
    }
    if ctx.args.trace && !warm {
        let mut reference = Reference::default();
        let mut passes = |n| (0..n).map(|_| reference.sample_ms()).sum::<f64>();
        let before = passes(5);
        let probe = probe::Probe::run(ctx.args.seed);
        // An untimed pass first, so the timed ones start from the
        // reference's own cache state, not the probe's.
        passes(1);
        let scale = host_scale((before + passes(5)) / 10.0);
        for (name, value, unit) in probe.metrics() {
            let value = if is_time_unit(unit) {
                value * scale
            } else {
                value
            };
            pool.push(name, value, unit);
        }
        for app in &probe.mismatches {
            pool.problems.push(format!(
                "probe {app}: replayed run_events differs from run_window"
            ));
        }
    }
    pool
}

/// Ops per second of `--seconds` each control workload runs: a fixed
/// amount of work sized so a run takes about `--seconds` on a 2-core
/// x86-64 box. Ops cover seeds S, S+1, ..., so both commits of an A/B
/// comparison run exactly the same ops; stopping on the clock instead would
/// let a slow run cover fewer seeds and measure a different mix.
fn ops_per_second(spec: &WorkloadSpec) -> f64 {
    match spec.name {
        "control" => 6.0,
        _ => 2.0,
    }
}

/// A control measurement in one child, plus set-up probes.
fn control(ctx: &Ctx, spec: &WorkloadSpec) -> Pool {
    let mut pool = Pool::default();
    ctx.setup_probes(spec.name, None, &mut pool);
    let ops = (ctx.args.seconds * ops_per_second(spec)).round().max(1.0);
    let run = ctx.spawn(
        &ctx.child_args(spec.name, &["--ops", &ops.to_string()]),
        None,
    );
    pool.absorb(run, true);
    pool
}

fn run_workload(ctx: &mut Ctx, spec: &'static WorkloadSpec) -> bool {
    ctx.deadline = now() + DEADLINE;
    let pool = match spec.name {
        "reproduce_cold" => reproduce(ctx, spec, false),
        "reproduce_warm" => reproduce(ctx, spec, true),
        _ => control(ctx, spec),
    };
    let metrics = pool.summarize();
    let args = &ctx.args;
    println!(
        "== e2e {} (seed {}, scale {}, trace {}, {} workers, {} s) ==",
        spec.name,
        args.seed,
        child::SCALE,
        if args.trace { "on" } else { "off" },
        workers(),
        args.seconds
    );
    let is_e2e = |name: &str| END_TO_END.iter().any(|m| m.name == name);
    let ordered = END_TO_END
        .iter()
        .filter_map(|m| metrics.iter().find(|(n, ..)| n == m.name))
        .chain(metrics.iter().filter(|(n, ..)| !is_e2e(n)));
    for (name, value, unit) in ordered {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let digest = match pool.digests.as_slice() {
        [one] => one.clone(),
        many => format!("{:016x}", fnv1a64(many.join(",").as_bytes())),
    };
    println!("output_digest {digest}");
    println!("setup_n {}", pool.setups.len());
    if let Some(scale) = median(&pool.scales) {
        println!(
            "host_scale {scale:.4} (median over children; times above are raw times x the scale)"
        );
    }
    println!("ops_attempted {}", pool.attempted);
    println!("ops_failed {}", pool.failed);
    for problem in &pool.problems {
        println!("problem: {problem}");
    }

    let stages: Vec<&str> = STAGES.iter().map(|(name, _)| *name).collect();
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer(&stages)
            .into_iter()
            .map(|(name, unit, _)| (name, unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut problems = pool.problems.len();
    let mut out = Vec::new();
    for (name, unit) in &wanted {
        let value = match metrics.iter().find(|(n, ..)| n == name) {
            Some(&(_, v, _)) => v,
            None if args.trace => 0.0,
            None => {
                println!("problem: end-to-end metric {name} was not measured");
                problems += 1;
                continue;
            }
        };
        if !value.is_finite() {
            println!("problem: {name} is not finite");
            problems += 1;
            continue;
        }
        out.push((name.as_str(), value, *unit));
    }
    let correct = problems == 0 && pool.failed == 0;
    println!(
        "{}",
        result_json(correct, pool.attempted.max(1), pool.failed, &out)
    );
    correct
}

/// A scratch directory under the benchmark's own `work/`, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn child_main(spec: &WorkloadSpec, args: &Args) -> Result<(), String> {
    let work = args.work.clone().ok_or("--child needs --work")?;
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let control = |which| child::control(which, args.seed, args.ops, args.trace, &work, args.probe);
    match spec.name {
        "reproduce_cold" => child::reproduce(false, args.probe),
        "reproduce_warm" => child::reproduce(args.trace, args.probe),
        "control" => control(Control::Plain),
        _ => control(Control::Durable),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<&'static WorkloadSpec> = match args.target {
        Target::Child(spec) => {
            return match child_main(spec, &args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("e2e child {}: {e}", spec.name);
                    ExitCode::FAILURE
                }
            };
        }
        Target::List => {
            for w in WORKLOADS {
                println!("workload {} {}", w.name, w.why);
            }
            for m in END_TO_END {
                println!(
                    "end_to_end {} {} {} {}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                );
            }
            let stages: Vec<&str> = STAGES.iter().map(|(name, _)| *name).collect();
            for (name, unit, better) in per_layer(&stages) {
                println!("per_layer {name} {unit} {}", better.as_str());
            }
            return ExitCode::SUCCESS;
        }
        Target::All => WORKLOADS.iter().collect(),
        Target::Workload(spec) => vec![spec],
    };
    let work = WorkDir(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("run-{}", std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("e2e: create {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    println!("{}", machine_line());
    let mut ctx = Ctx {
        deadline: now() + DEADLINE,
        args,
        work: work.0.clone(),
        fixture: None,
    };
    let mut all_correct = true;
    for spec in specs {
        all_correct &= run_workload(&mut ctx, spec);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
