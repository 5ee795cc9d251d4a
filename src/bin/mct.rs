//! `mct` — command-line driver for the Memory Cocktail Therapy
//! reproduction. Run it bare for the usage text; each subcommand's
//! synopsis in [`SPECS`] is also its argv grammar. [`parse`] reads argv
//! once, into a typed [`Command`] or a [`UsageError`] (exit 1), and
//! reads no files; [`execute`] does the work. `run` and `chaos` parse
//! into one [`RunArgs`] and share one executor.
//!
//! `--state-dir` arms crash-safe persistence: state transitions stream
//! to a write-ahead log, compacted into a snapshot at each segment
//! boundary. `mct recover <dir>` inspects what survived; `mct run
//! --state-dir <dir> --resume` verifies an interrupted log against
//! deterministic re-execution, or warm-starts from a clean one.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::process::ExitCode;

use memory_cocktail_therapy::framework::{
    render_timeline, trace_transitions, ConfigSpace, Controller, ControllerConfig, MctError,
    ModelKind, NvmConfig, Objective, PersistConfig, RecoveryReport,
};
use memory_cocktail_therapy::sim::{FaultPlan, System, SystemConfig};
use memory_cocktail_therapy::telemetry::{
    parse_jsonl_tolerant, render_collapsed, render_registry, render_report_with_unknown,
    render_tree, Event, JsonlRecorder, Record, SpanProfile,
};
use memory_cocktail_therapy::workloads::Workload;

/// A parsed `mct` invocation.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Run(RunArgs),
    Report(String),
    Metrics(String),
    Profile {
        trace: String,
        collapsed: Option<String>,
        min_coverage: Option<f64>,
    },
    /// `(workload, configuration, seed)`.
    Measure(Workload, NvmConfig, u64),
    Recover(String),
    Workloads,
    Space,
}

/// One controller run: `mct run`, or `mct chaos` when `plan` is set.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Workload,
    /// Lifetime target in years; finite and > 0.
    target: f64,
    model: ModelKind,
    /// Instruction budget; > 0.
    insts: u64,
    seed: u64,
    trace: Option<String>,
    persist: Option<PersistConfig>,
    quiet: bool,
    /// Fault-plan file, read by the executor.
    plan: Option<String>,
}

/// Why argv was refused; printed before the usage text, exit 1.
#[derive(Debug, Clone, PartialEq)]
enum UsageError {
    NoCommand,
    UnknownCommand(String),
    UnknownFlag(String),
    MissingValue(&'static str),
    DuplicateFlag(&'static str),
    ExtraArgument(String),
    /// The named subcommand lacks its required positional.
    MissingArgument(&'static str),
    UnknownWorkload(String),
    /// `expected` says what the flag takes.
    BadValue {
        flag: &'static str,
        value: String,
        expected: &'static str,
    },
    ResumeWithoutStateDir,
    MissingPlan,
    InvalidConfig(MctError),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use UsageError as E;
        match self {
            E::NoCommand => write!(f, "missing subcommand"),
            E::UnknownCommand(c) => write!(f, "unknown subcommand {c}"),
            E::UnknownFlag(a) => write!(f, "unknown flag {a}"),
            E::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            E::DuplicateFlag(flag) => write!(f, "flag {flag} given more than once"),
            E::ExtraArgument(a) => write!(f, "unexpected argument {a}"),
            E::MissingArgument(cmd) => write!(f, "mct {cmd} is missing its argument"),
            E::UnknownWorkload(_) => write!(f, "unknown workload; try `mct workloads`"),
            E::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "invalid value {value:?} for {flag}: expected {expected}")
            }
            E::ResumeWithoutStateDir => write!(f, "--resume requires --state-dir"),
            E::MissingPlan => write!(f, "mct chaos requires --plan <plan.json>"),
            // The error's own Display already says "invalid configuration".
            E::InvalidConfig(e) => write!(f, "{e}"),
        }
    }
}

/// One subcommand: its synopsis, which is also its argv grammar (see
/// [`grammar`]), and the builder of its [`Command`].
struct Spec {
    name: &'static str,
    synopsis: &'static str,
    build: fn(&Matches<'_>) -> Result<Command, UsageError>,
}

#[rustfmt::skip]
const SPECS: &[Spec] = &[
    Spec { name: "run", build: build_run, synopsis: "<workload> [--target YEARS] [--model gb|ql] \
        [--insts N] [--seed N] [--trace OUT.jsonl] [--state-dir DIR] [--resume] [--quiet]" },
    Spec { name: "chaos", build: build_run, synopsis: "[workload] --plan PLAN.json [--seed N] \
        [--target YEARS] [--insts N] [--trace OUT.jsonl] [--quiet]" },
    Spec { name: "report", build: |m| Ok(Command::Report(m.required()?)), synopsis: "<trace.jsonl>" },
    Spec { name: "metrics", build: |m| Ok(Command::Metrics(m.required()?)), synopsis: "<trace.jsonl>" },
    Spec { name: "profile", build: build_profile,
        synopsis: "<trace.jsonl> [--collapsed OUT.txt] [--min-coverage PCT]" },
    Spec { name: "measure", build: build_measure, synopsis: "<workload> [--fast R] [--slow R] \
        [--bank N] [--eager N] [--quota Y] [--cancel none|slow|both] [--seed N]" },
    Spec { name: "recover", build: |m| Ok(Command::Recover(m.required()?)), synopsis: "<state-dir>" },
    Spec { name: "workloads", build: |_| Ok(Command::Workloads), synopsis: "" },
    Spec { name: "space", build: |_| Ok(Command::Space), synopsis: "" },
];

/// Read a synopsis as a grammar: the number of positionals it allows,
/// and its flags, each with whether it takes a value. A `--flag`
/// followed by a metavariable takes a value, a bracket-closed `--flag]`
/// is a switch, and any other word is a positional.
fn grammar(synopsis: &'static str) -> (usize, Vec<(&'static str, bool)>) {
    let mut positionals = 0;
    let mut flags = Vec::new();
    let mut words = synopsis.split_whitespace();
    while let Some(word) = words.next() {
        let name = word.trim_matches(|c| c == '[' || c == ']');
        if !name.starts_with("--") {
            positionals += 1;
        } else if word.ends_with(']') {
            flags.push((name, false));
        } else {
            words.next(); // the metavariable
            flags.push((name, true));
        }
    }
    (positionals, flags)
}

/// Argv after the subcommand, split by its grammar: positionals in order
/// and each flag at most once (`None` for a switch).
struct Matches<'a> {
    command: &'static str,
    positionals: Vec<&'a str>,
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Matches<'a> {
    fn split(spec: &Spec, args: &'a [String]) -> Result<Self, UsageError> {
        let (max_positionals, grammar) = grammar(spec.synopsis);
        let mut m = Matches {
            command: spec.name,
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if m.positionals.len() == max_positionals {
                    return Err(UsageError::ExtraArgument(arg.to_string()));
                }
                m.positionals.push(arg);
                continue;
            }
            let &(flag, takes_value) = grammar
                .iter()
                .find(|(f, _)| *f == arg)
                .ok_or_else(|| UsageError::UnknownFlag(arg.to_string()))?;
            let value = match takes_value.then(|| args.next()) {
                None => None,
                Some(Some(v)) if !v.starts_with("--") => Some(v),
                Some(_) => return Err(UsageError::MissingValue(flag)),
            };
            if m.has(flag) {
                return Err(UsageError::DuplicateFlag(flag));
            }
            m.flags.push((flag, value));
        }
        Ok(m)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().find(|(f, _)| *f == flag)?.1
    }

    fn string(&self, flag: &str) -> Option<String> {
        self.value(flag).map(str::to_string)
    }

    /// The value of `flag` through `convert`: `None` when the flag is
    /// absent, [`UsageError::BadValue`] when `convert` refuses it.
    fn get<T>(
        &self,
        flag: &'static str,
        expected: &'static str,
        convert: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, UsageError> {
        let bad = |v: &str| UsageError::BadValue {
            flag,
            value: v.to_string(),
            expected,
        };
        self.value(flag)
            .map(|v| convert(v).ok_or_else(|| bad(v)))
            .transpose()
    }

    fn seed(&self) -> Result<u64, UsageError> {
        let seed = self.get("--seed", "an unsigned integer", |v| v.parse().ok())?;
        Ok(seed.unwrap_or(2017))
    }

    /// The first positional, which this subcommand requires.
    fn required(&self) -> Result<String, UsageError> {
        let missing = UsageError::MissingArgument(self.command);
        self.positionals
            .first()
            .map(|p| p.to_string())
            .ok_or(missing)
    }

    fn workload(&self) -> Result<Option<Workload>, UsageError> {
        let unknown = |name: &str| UsageError::UnknownWorkload(name.to_string());
        let first = self.positionals.first();
        first
            .map(|name| Workload::from_name(name).ok_or_else(|| unknown(name)))
            .transpose()
    }
}

/// Parse argv (without the program name) into a [`Command`].
fn parse(args: &[String]) -> Result<Command, UsageError> {
    let (name, rest) = args.split_first().ok_or(UsageError::NoCommand)?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| UsageError::UnknownCommand(name.clone()))?;
    (spec.build)(&Matches::split(spec, rest)?)
}

/// `run` and `chaos`. Chaos requires `--plan`, defaults the workload to
/// the write-heavy `stream` the fixture plans are tuned for, and has no
/// `--model`, `--state-dir` or `--resume` in its grammar.
fn build_run(m: &Matches<'_>) -> Result<Command, UsageError> {
    let chaos = m.command == "chaos";
    let workload = match m.workload()? {
        Some(w) => w,
        None if chaos => Workload::Stream,
        None => return Err(UsageError::MissingArgument(m.command)),
    };
    let plan = m.string("--plan");
    if chaos && plan.is_none() {
        return Err(UsageError::MissingPlan);
    }
    let persist = match (m.value("--state-dir"), m.has("--resume")) {
        (Some(dir), true) => Some(PersistConfig::resume_from(dir)),
        (Some(dir), false) => Some(PersistConfig::fresh(dir)),
        (None, true) => return Err(UsageError::ResumeWithoutStateDir),
        (None, false) => None,
    };
    let target = m.get("--target", "a finite number of years > 0", |v| {
        v.parse().ok().filter(|t: &f64| t.is_finite() && *t > 0.0)
    })?;
    let model = m.get("--model", "gb or ql", |v| match v {
        "gb" => Some(ModelKind::GradientBoosting),
        "ql" => Some(ModelKind::QuadraticLasso),
        _ => None,
    })?;
    let insts = m.get("--insts", "an instruction count > 0", |v| {
        v.parse().ok().filter(|n: &u64| *n > 0)
    })?;
    Ok(Command::Run(RunArgs {
        workload,
        target: target.unwrap_or(8.0),
        model: model.unwrap_or(ModelKind::GradientBoosting),
        insts: insts.unwrap_or(3_000_000),
        seed: m.seed()?,
        trace: m.string("--trace"),
        persist,
        quiet: m.has("--quiet"),
        plan,
    }))
}

fn build_profile(m: &Matches<'_>) -> Result<Command, UsageError> {
    let min_coverage = m.get("--min-coverage", "a percentage in [0, 100]", |v| {
        v.parse().ok().filter(|p| (0.0..=100.0).contains(p))
    })?;
    Ok(Command::Profile {
        trace: m.required()?,
        collapsed: m.string("--collapsed"),
        min_coverage,
    })
}

/// `measure`: the flags edit the default configuration, which must then
/// validate.
fn build_measure(m: &Matches<'_>) -> Result<Command, UsageError> {
    let workload = m.workload()?;
    let workload = workload.ok_or(UsageError::MissingArgument(m.command))?;
    let number = |v: &str| v.parse().ok();
    let mut cfg = NvmConfig::default_config();
    if let Some(v) = m.get("--fast", "a latency ratio", number)? {
        cfg.fast_latency = v;
        cfg.slow_latency = cfg.slow_latency.max(v);
    }
    if let Some(v) = m.get("--slow", "a latency ratio", number)? {
        cfg.slow_latency = v;
    }
    if let Some(v) = m.get("--bank", "an unsigned integer", |v| v.parse().ok())? {
        cfg.bank_aware = true;
        cfg.bank_aware_threshold = v;
    }
    if let Some(v) = m.get("--eager", "an unsigned integer", |v| v.parse().ok())? {
        cfg.eager_writebacks = true;
        cfg.eager_threshold = v;
    }
    if let Some(v) = m.get("--quota", "a number of years", number)? {
        cfg = cfg.with_wear_quota(v);
    }
    let cancel = m.get("--cancel", "none, slow or both", |v| match v {
        "none" => Some((false, false)),
        "slow" => Some((false, true)),
        "both" => Some((true, true)),
        _ => None,
    })?;
    if let Some((fast, slow)) = cancel {
        cfg.fast_cancellation = fast;
        cfg.slow_cancellation = slow;
    }
    cfg.validate().map_err(UsageError::InvalidConfig)?;
    Ok(Command::Measure(workload, cfg, m.seed()?))
}

/// Carry out a parsed command; the error is the message to print.
fn execute(command: Command) -> Result<(), String> {
    match command {
        Command::Run(args) => return run(&args),
        Command::Report(path) => {
            let (records, mut unknown) = load_trace(&path)?;
            let transitions = trace_transitions(&records, &mut unknown);
            print!("{}", render_timeline(&transitions));
            print!("{}", render_report_with_unknown(&records, &unknown));
        }
        Command::Metrics(path) => {
            // The last registry snapshot is the end-of-run state (runs
            // emit one per `Telemetry::finish`; the final one wins).
            let (records, _) = load_trace(&path)?;
            let snapshot = records.iter().rev().find_map(|r| match &r.event {
                Event::MetricsRegistry { snapshot } => Some(snapshot),
                _ => None,
            });
            let snapshot = snapshot.ok_or_else(|| {
                format!("trace {path} has no metrics_registry record (write one with `mct run --trace`)")
            })?;
            print!("{}", render_registry(snapshot));
        }
        Command::Profile {
            trace,
            collapsed,
            min_coverage,
        } => {
            let profile = SpanProfile::from_records(&load_trace(&trace)?.0);
            if profile.total_spans == 0 {
                return Err(format!(
                    "trace {trace} has no spans (write one with `mct run --trace`)"
                ));
            }
            print!("{}", render_tree(&profile));
            if let Some(out) = collapsed {
                std::fs::write(&out, render_collapsed(&profile))
                    .map_err(|e| format!("cannot write collapsed stacks {out}: {e}"))?;
                println!("collapsed stacks written to {out} (feed to flamegraph.pl / inferno)");
            }
            if let Some(min) = min_coverage {
                let pct = profile.coverage() * 100.0;
                if pct < min {
                    return Err(format!("span coverage {pct:.2}% below required {min:.2}%"));
                }
                println!("span coverage {pct:.2}% >= {min:.2}%");
            }
        }
        Command::Measure(workload, cfg, seed) => {
            println!("measuring [{cfg}] on {workload} ...");
            let mut sys = System::new(SystemConfig::default(), cfg.to_policy());
            let mut src = workload.source(seed);
            sys.warmup(&mut src, workload.warmup_insts());
            let stats = sys.run(&mut src, workload.detailed_insts(1.0));
            let m = stats.metrics();
            println!(
                "IPC {:.3} | lifetime {:.1}y | energy {:.3} mJ | reads {} | writes {} (slow {}, quota {}) | cancels {} | eager {}",
                m.ipc,
                m.lifetime_years.min(999.0),
                m.energy_j * 1e3,
                stats.mem.reads_completed,
                stats.mem.writes_completed(),
                stats.mem.writes_slow,
                stats.mem.writes_quota,
                stats.mem.cancellations,
                stats.mem.eager_writes
            );
        }
        Command::Recover(dir) => {
            let report = RecoveryReport::from_dir(Path::new(&dir))
                .map_err(|e| format!("cannot recover state from {dir}: {e}"))?;
            println!("{}", report.render());
        }
        Command::Workloads => {
            for w in Workload::all() {
                println!(
                    "{:<12} ~{:>5.1} LLC accesses/kinst, warmup {} insts",
                    w.name(),
                    w.profile().nominal_accesses_per_kinst(),
                    w.warmup_insts()
                );
            }
        }
        Command::Space => {
            let full = ConfigSpace::full(8.0).len();
            println!("full space: {full} configurations");
            let learnable = ConfigSpace::without_wear_quota().len();
            println!("learnable (no wear quota): {learnable}");
        }
    }
    Ok(())
}

/// Read a trace tolerantly: records whose event kind (or transition
/// kind) this binary does not know — a trace written by a different mct
/// version — are counted by kind instead of failing the load.
fn load_trace(path: &str) -> Result<(Vec<Record>, BTreeMap<String, u64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_jsonl_tolerant(&text).map_err(|e| format!("malformed trace {path}: {e}"))
}

/// Read and validate a fault plan. `seed` overrides the plan's noise
/// seed so one plan file can be swept across seeds; the same seed also
/// drives the workload.
fn load_plan(path: &str, seed: u64) -> Result<FaultPlan, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read plan {path}: {e}"))?;
    let mut plan: FaultPlan =
        serde_json::from_str(&text).map_err(|e| format!("malformed fault plan {path}: {e}"))?;
    plan.seed = seed;
    plan.validate()
        .map_err(|e| format!("invalid fault plan {path}: {e}"))?;
    Ok(plan)
}

/// The one controller executor behind `run` and `chaos`.
fn run(args: &RunArgs) -> Result<(), String> {
    let (workload, seed, insts, target) = (args.workload, args.seed, args.insts, args.target);
    let mut cfg = ControllerConfig::paper_scaled();
    cfg.model = args.model;
    cfg.total_insts = insts;
    cfg.warmup_insts = workload.warmup_insts();
    cfg.seed = seed;
    cfg.persist = args.persist.clone();
    let plan = args.plan.as_deref();
    cfg.fault_plan = plan.map(|path| load_plan(path, seed)).transpose()?;
    let mut controller = Controller::new(cfg, Objective::paper_default(target));
    if let Some(path) = &args.trace {
        let recorder = JsonlRecorder::create(Path::new(path))
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        controller = controller.with_recorder(recorder.handle());
    }
    match plan {
        _ if args.quiet => {}
        None => println!(
            "MCT on {workload}: target {target}y, model {}, {insts} insts, {} samples over {} configs",
            args.model.label(),
            controller.samples().len(),
            controller.space().len()
        ),
        Some(plan) => println!(
            "MCT chaos on {workload}: plan {plan}, seed {seed}, target {target}y, {insts} insts"
        ),
    }
    let outcome = controller.run(&mut workload.source(seed));
    let fallbacks = outcome.segments.iter().filter(|s| s.health_fallback);
    let fallbacks = match plan {
        Some(_) => format!(" | fallbacks {}", fallbacks.count()),
        None => String::new(),
    };
    let m = &outcome.final_metrics;
    println!("chosen: [{}]", outcome.chosen_config);
    println!(
        "metrics: IPC {:.3} | lifetime {:.1}y | energy {:.3} mJ | phases {}{fallbacks}",
        m.ipc,
        m.lifetime_years.min(999.0),
        m.energy_j * 1e3,
        outcome.phases_detected
    );
    if let (Some(path), false) = (&args.trace, args.quiet) {
        let kind = plan.map_or("decision", |_| "degradation");
        println!("{kind} trace written to {path} (render with `mct report {path}`)");
    }
    Ok(())
}

fn main() -> ExitCode {
    // Lossy decoding: a non-UTF-8 argument becomes a refused value or a
    // path that does not exist, never a panic.
    let args: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    let outcome = parse(&args).map_err(|e| {
        let lines = SPECS.iter().map(|s| {
            format!("\n  mct {} {}", s.name, s.synopsis)
                .trim_end()
                .to_string()
        });
        format!("{e}\nusage:{}", lines.collect::<String>())
    });
    match outcome.and_then(execute) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn run_args(workload: Workload) -> RunArgs {
        RunArgs {
            workload,
            target: 8.0,
            model: ModelKind::GradientBoosting,
            insts: 3_000_000,
            seed: 2017,
            trace: None,
            persist: None,
            quiet: false,
            plan: None,
        }
    }

    /// A `BadValue` row; `expected` is prose and not compared.
    fn bad(flag: &'static str, value: &str) -> UsageError {
        UsageError::BadValue {
            flag,
            value: value.to_string(),
            expected: "",
        }
    }

    fn same_outcome(got: &Result<Command, UsageError>, want: &Result<Command, UsageError>) -> bool {
        match (got, want) {
            (
                Err(UsageError::BadValue { flag, value, .. }),
                Err(UsageError::BadValue {
                    flag: want_flag,
                    value: want_value,
                    ..
                }),
            ) => flag == want_flag && value == want_value,
            _ => got == want,
        }
    }

    /// Argv → command or refusal. The refusals cover every bad value the
    /// CLI must neither default, ignore nor panic on; valid rows pin the
    /// parsed defaults.
    #[test]
    fn defect_table() {
        use UsageError::*;
        let fast_5 = NvmConfig {
            fast_latency: 5.0,
            slow_latency: 5.0,
            ..NvmConfig::default_config()
        };
        let chaos = RunArgs {
            plan: Some("p.json".to_string()),
            ..run_args(Workload::Stream)
        };
        let rows: Vec<(&str, Result<Command, UsageError>)> = vec![
            ("run stream --target 0", Err(bad("--target", "0"))),
            ("run stream --target -3", Err(bad("--target", "-3"))),
            ("run stream --target NaN", Err(bad("--target", "NaN"))),
            ("run stream --target inf", Err(bad("--target", "inf"))),
            ("run stream --target abc", Err(bad("--target", "abc"))),
            (
                "chaos --plan p.json --target NaN",
                Err(bad("--target", "NaN")),
            ),
            ("run stream --model xyz", Err(bad("--model", "xyz"))),
            ("run stream --seed nope", Err(bad("--seed", "nope"))),
            ("run stream --insts 0", Err(bad("--insts", "0"))),
            (
                "measure stream --cancel bogus",
                Err(bad("--cancel", "bogus")),
            ),
            ("measure stream --fast abc", Err(bad("--fast", "abc"))),
            ("measure stream --bank -1", Err(bad("--bank", "-1"))),
            (
                "measure stream --fast 5",
                Err(InvalidConfig(fast_5.validate().unwrap_err())),
            ),
            (
                "profile t.jsonl --min-coverage abc",
                Err(bad("--min-coverage", "abc")),
            ),
            (
                "profile t.jsonl --min-coverage 101",
                Err(bad("--min-coverage", "101")),
            ),
            (
                "profile t.jsonl --min-coverage NaN",
                Err(bad("--min-coverage", "NaN")),
            ),
            (
                "report t.jsonl extra",
                Err(ExtraArgument("extra".to_string())),
            ),
            ("run stream ocean", Err(ExtraArgument("ocean".to_string()))),
            ("space now", Err(ExtraArgument("now".to_string()))),
            ("run stream --seed 1 --seed 2", Err(DuplicateFlag("--seed"))),
            ("run stream --quiet --quiet", Err(DuplicateFlag("--quiet"))),
            ("run stream --resume", Err(ResumeWithoutStateDir)),
            ("chaos", Err(MissingPlan)),
            ("chaos ocean --seed 3", Err(MissingPlan)),
            (
                "chaos --plan p.json --model ql",
                Err(UnknownFlag("--model".to_string())),
            ),
            (
                "run stream --plan p.json",
                Err(UnknownFlag("--plan".to_string())),
            ),
            ("run stream --trace", Err(MissingValue("--trace"))),
            ("run stream --trace --quiet", Err(MissingValue("--trace"))),
            ("run nope", Err(UnknownWorkload("nope".to_string()))),
            ("run", Err(MissingArgument("run"))),
            ("recover", Err(MissingArgument("recover"))),
            ("", Err(NoCommand)),
            ("frob", Err(UnknownCommand("frob".to_string()))),
            ("run stream", Ok(Command::Run(run_args(Workload::Stream)))),
            ("chaos --plan p.json", Ok(Command::Run(chaos.clone()))),
            (
                "chaos ocean --plan p.json --seed 5 --quiet",
                Ok(Command::Run(RunArgs {
                    workload: Workload::Ocean,
                    seed: 5,
                    quiet: true,
                    ..chaos
                })),
            ),
            (
                "run stream --model ql --target 6.5 --insts 400000 --state-dir s --resume",
                Ok(Command::Run(RunArgs {
                    model: ModelKind::QuadraticLasso,
                    target: 6.5,
                    insts: 400_000,
                    persist: Some(PersistConfig::resume_from("s")),
                    ..run_args(Workload::Stream)
                })),
            ),
            (
                "measure stream --cancel both --eager 8 --seed 3",
                Ok(Command::Measure(
                    Workload::Stream,
                    NvmConfig {
                        eager_writebacks: true,
                        eager_threshold: 8,
                        fast_cancellation: true,
                        slow_cancellation: true,
                        ..NvmConfig::default_config()
                    },
                    3,
                )),
            ),
            (
                "profile t.jsonl --min-coverage 99",
                Ok(Command::Profile {
                    trace: "t.jsonl".to_string(),
                    collapsed: None,
                    min_coverage: Some(99.0),
                }),
            ),
            ("report t.jsonl", Ok(Command::Report("t.jsonl".to_string()))),
            (
                "run stream --quiet --trace t.jsonl",
                Ok(Command::Run(RunArgs {
                    quiet: true,
                    trace: Some("t.jsonl".to_string()),
                    ..run_args(Workload::Stream)
                })),
            ),
            ("workloads", Ok(Command::Workloads)),
        ];
        for (line, want) in rows {
            let got = parse(&argv(line));
            assert!(
                same_outcome(&got, &want),
                "mct {line}: got {got:?}, want {want:?}"
            );
        }
    }

    /// The synopsis is the grammar: value flags, switches, positionals.
    #[test]
    fn chaos_grammar_comes_from_its_synopsis() {
        let chaos = SPECS.iter().find(|s| s.name == "chaos").unwrap();
        let (positionals, flags) = grammar(chaos.synopsis);
        assert_eq!(positionals, 1);
        let values = ["--plan", "--seed", "--target", "--insts", "--trace"];
        let mut want: Vec<_> = values.iter().map(|f| (*f, true)).collect();
        want.push(("--quiet", false));
        assert_eq!(flags, want);
    }

    /// Hostile flag values.
    const VALUES: [&str; 14] = [
        "", "-", "--", "0", "-3", "NaN", "inf", "1e308", "abc", "gb", "ql", "both", "99", "1.5",
    ];

    /// Parse `args`: either a typed error or a command whose values are
    /// all in range; `Err` names the argv that broke that.
    fn accepted_in_range(args: &[String]) -> Result<(), String> {
        let in_range = match parse(args) {
            Ok(Command::Run(run)) => run.target.is_finite() && run.target > 0.0 && run.insts > 0,
            Ok(Command::Measure(_, cfg, _)) => cfg.validate().is_ok(),
            Ok(Command::Profile {
                min_coverage: Some(pct),
                ..
            }) => (0.0..=100.0).contains(&pct),
            Ok(_) => true,
            Err(e) => !e.to_string().is_empty(),
        };
        in_range.then_some(()).ok_or_else(|| format!("{args:?}"))
    }

    /// Every flag of every subcommand with every hostile value, alone and
    /// after a `--plan` (which `chaos` requires).
    #[test]
    fn every_flag_refuses_hostile_values() {
        for spec in SPECS {
            for (flag, _) in grammar(spec.synopsis).1 {
                for value in VALUES {
                    let args = [spec.name, "stream", flag, value].map(str::to_string);
                    accepted_in_range(&args).unwrap();
                    let planned = [&args[..], &argv("--plan p.json")].concat();
                    accepted_in_range(&planned).unwrap();
                }
            }
        }
    }

    /// Strategy: a word from `pool`.
    fn pick(pool: Vec<&'static str>) -> impl Strategy<Value = String> {
        (0..pool.len()).prop_map(move |i| pool[i].to_string())
    }

    /// Strategy: a hostile flag value, or a random `u64`.
    fn value() -> impl Strategy<Value = String> {
        prop_oneof![
            pick(VALUES.to_vec()),
            any::<u64>().prop_map(|v| v.to_string())
        ]
    }

    /// Strategy: any subcommand, flag, workload name or value.
    fn token() -> impl Strategy<Value = String> {
        let flags = SPECS.iter().flat_map(|s| grammar(s.synopsis).1);
        let mut words: Vec<&'static str> = flags.map(|(flag, _)| flag).collect();
        words.extend(SPECS.iter().map(|s| s.name));
        words.extend(Workload::all().map(Workload::name));
        prop_oneof![pick(words), value()]
    }

    /// Strategy: mostly a subcommand, a workload name and that
    /// subcommand's flags with hostile values, so every builder's value
    /// checks are reached; sometimes stray tokens anywhere.
    fn arb_argv() -> impl Strategy<Value = Vec<String>> {
        let command = (0..SPECS.len()).prop_flat_map(|i| {
            let spec = &SPECS[i];
            let (_, grammar) = grammar(spec.synopsis);
            let flags: Vec<&'static str> = grammar.iter().map(|f| f.0).collect();
            let flag = move || {
                pick(if flags.is_empty() {
                    vec!["--quiet"]
                } else {
                    flags.clone()
                })
            };
            let arg = prop_oneof![
                (flag(), value()).prop_map(|(flag, value)| vec![flag, value]),
                (flag(), value()).prop_map(|(flag, value)| vec![flag, value]),
                flag().prop_map(|flag| vec![flag]),
                token().prop_map(|token| vec![token]),
            ];
            let workload = pick(Workload::all().map(Workload::name).to_vec());
            (workload, proptest::collection::vec(arg, 0..4)).prop_map(move |(first, rest)| {
                [vec![spec.name.to_string(), first], rest.concat()].concat()
            })
        });
        prop_oneof![command, proptest::collection::vec(token(), 0..8)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary argv: `parse` returns a command or a typed error,
        /// never panics, and every accepted value is in range.
        #[test]
        fn parse_never_panics_and_accepts_only_valid_values(args in arb_argv()) {
            prop_assert_eq!(accepted_in_range(&args), Ok(()));
        }
    }
}
