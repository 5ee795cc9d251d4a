//! `mct` — command-line driver for the Memory Cocktail Therapy
//! reproduction.
//!
//! ```text
//! mct run      <workload> [--target <years>] [--model gb|ql] [--insts N]
//!                         [--seed N] [--trace <out.jsonl>] [--quiet]
//!                         [--metrics-out <out.prom>]
//!                         [--state-dir <dir>] [--resume]
//! mct chaos    [workload] --plan <plan.json> [--seed N] [--target <years>]
//!                         [--insts N] [--trace <out.jsonl>] [--quiet]
//!                         [--metrics-out <out.prom>]
//! mct report   <trace.jsonl>
//! mct metrics  <trace.jsonl>
//! mct profile  <trace.jsonl> [--collapsed <out.txt>] [--min-coverage PCT]
//! mct measure  <workload> [--fast R] [--slow R] [--bank N] [--eager N]
//!                         [--quota Y] [--cancel none|slow|both] [--seed N]
//! mct recover  <state-dir>
//! mct workloads
//! mct space
//! ```
//!
//! `--state-dir` arms crash-safe persistence: controller state
//! transitions stream to a write-ahead log under the directory and each
//! segment boundary compacts it into a snapshot. After a crash (or a
//! clean completion), `mct recover <dir>` inspects what survived and
//! `mct run --state-dir <dir> --resume` recovers: an interrupted log is
//! verified against deterministic re-execution record by record; a clean
//! log warm-starts the next run from its fitted models, skipping the
//! sampling periods they cover.

use std::process::ExitCode;

use memory_cocktail_therapy::framework::{
    render_timeline, trace_transitions, ConfigSpace, Controller, ControllerConfig, ModelKind,
    NvmConfig, Objective, PersistConfig, RecoveryReport,
};
use memory_cocktail_therapy::sim::{FaultPlan, System, SystemConfig};
use memory_cocktail_therapy::telemetry::{
    parse_jsonl_tolerant, render_collapsed, render_prometheus, render_report_with_unknown,
    render_tree, Event, JsonlRecorder, RecorderHandle, SpanProfile, Telemetry, VecRecorder,
};
use memory_cocktail_therapy::workloads::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mct run <workload> [--target YEARS] [--model gb|ql] [--insts N] [--seed N] [--trace OUT.jsonl] [--metrics-out OUT.prom] [--state-dir DIR] [--resume] [--quiet]\n  \
         mct chaos [workload] --plan PLAN.json [--seed N] [--target YEARS] [--insts N] [--trace OUT.jsonl] [--metrics-out OUT.prom] [--quiet]\n  \
         mct report <trace.jsonl>\n  \
         mct metrics <trace.jsonl>\n  \
         mct profile <trace.jsonl> [--collapsed OUT.txt] [--min-coverage PCT]\n  \
         mct measure <workload> [--fast R] [--slow R] [--bank N] [--eager N] [--quota Y] [--cancel none|slow|both] [--seed N]\n  \
         mct recover <state-dir>\n  \
         mct workloads\n  mct space"
    );
    ExitCode::FAILURE
}

/// Snapshot the run's metric registry through `handle` and write it as
/// Prometheus text exposition format.
fn write_metrics_prom(handle: RecorderHandle, path: &str, quiet: bool) -> Result<(), String> {
    let snapshot = Telemetry::attached(handle).registry_snapshot();
    let text = render_prometheus(&snapshot);
    std::fs::write(path, text).map_err(|e| format!("cannot write metrics file {path}: {e}"))?;
    if !quiet {
        println!("registry metrics written to {path} (Prometheus text format)");
    }
    Ok(())
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Reject unknown `--flags` and value flags missing their value.
fn check_flags(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            if value_flags.contains(&a.as_str()) {
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => i += 1,
                    _ => return Err(format!("flag {a} needs a value")),
                }
            } else if !bool_flags.contains(&a.as_str()) {
                return Err(format!("unknown flag {a}"));
            }
        }
        i += 1;
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> ExitCode {
    if let Err(e) = check_flags(
        args,
        &[
            "--target",
            "--model",
            "--insts",
            "--seed",
            "--trace",
            "--metrics-out",
            "--state-dir",
        ],
        &["--quiet", "--resume"],
    ) {
        eprintln!("{e}");
        return usage();
    }
    let Some(workload) = args.first().and_then(|n| Workload::from_name(n)) else {
        eprintln!("unknown workload; try `mct workloads`");
        return ExitCode::FAILURE;
    };
    let target: f64 = flag(args, "--target")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8.0);
    let model = match flag(args, "--model").as_deref() {
        Some("ql") => ModelKind::QuadraticLasso,
        _ => ModelKind::GradientBoosting,
    };
    let insts: u64 = flag(args, "--insts")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3_000_000);
    let seed: u64 = flag(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2017);
    let quiet = has_flag(args, "--quiet");

    let mut cfg = ControllerConfig::paper_scaled();
    cfg.model = model;
    cfg.total_insts = insts;
    cfg.warmup_insts = workload.warmup_insts();
    cfg.seed = seed;
    if let Some(dir) = flag(args, "--state-dir") {
        cfg.persist = Some(if has_flag(args, "--resume") {
            PersistConfig::resume_from(&dir)
        } else {
            PersistConfig::fresh(&dir)
        });
    } else if has_flag(args, "--resume") {
        eprintln!("--resume requires --state-dir");
        return usage();
    }
    let mut controller = Controller::new(cfg, Objective::paper_default(target));
    let trace = flag(args, "--trace");
    let metrics_out = flag(args, "--metrics-out");
    // --metrics-out needs a live registry even when no trace file was
    // asked for; an in-memory recorder serves that case.
    let mut handle: Option<RecorderHandle> = None;
    if let Some(path) = &trace {
        match JsonlRecorder::create(std::path::Path::new(path)) {
            Ok(recorder) => {
                let h = recorder.handle();
                controller = controller.with_recorder(h.clone());
                handle = Some(h);
            }
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if metrics_out.is_some() {
        let h: RecorderHandle = VecRecorder::shared();
        controller = controller.with_recorder(h.clone());
        handle = Some(h);
    }
    if !quiet {
        println!(
            "MCT on {workload}: target {target}y, model {}, {insts} insts, {} samples over {} configs",
            model.label(),
            controller.samples().len(),
            controller.space().len()
        );
    }
    let outcome = controller.run(&mut workload.source(seed));
    println!("chosen: [{}]", outcome.chosen_config);
    println!(
        "metrics: IPC {:.3} | lifetime {:.1}y | energy {:.3} mJ | phases {}",
        outcome.final_metrics.ipc,
        outcome.final_metrics.lifetime_years.min(999.0),
        outcome.final_metrics.energy_j * 1e3,
        outcome.phases_detected
    );
    if let Some(path) = &trace {
        if !quiet {
            println!("decision trace written to {path} (render with `mct report {path}`)");
        }
    }
    if let (Some(out), Some(h)) = (&metrics_out, handle) {
        if let Err(e) = write_metrics_prom(h, out, quiet) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_chaos(args: &[String]) -> ExitCode {
    if let Err(e) = check_flags(
        args,
        &[
            "--plan",
            "--seed",
            "--target",
            "--insts",
            "--trace",
            "--metrics-out",
        ],
        &["--quiet"],
    ) {
        eprintln!("{e}");
        return usage();
    }
    // The workload positional is optional; a bare `mct chaos --plan ...`
    // runs the write-heavy default the fixture plans are tuned for.
    let workload = match args.first().filter(|n| !n.starts_with("--")) {
        Some(name) => match Workload::from_name(name) {
            Some(w) => w,
            None => {
                eprintln!("unknown workload; try `mct workloads`");
                return ExitCode::FAILURE;
            }
        },
        None => Workload::Stream,
    };
    let Some(plan_path) = flag(args, "--plan") else {
        eprintln!("mct chaos requires --plan <plan.json>");
        return ExitCode::FAILURE;
    };
    let plan_text = match std::fs::read_to_string(&plan_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read plan {plan_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut plan: FaultPlan = match serde_json::from_str(&plan_text) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("malformed fault plan {plan_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seed: u64 = flag(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2017);
    // --seed overrides the plan's noise seed so a single plan file can be
    // swept across seeds; the same seed also drives the workload.
    plan.seed = seed;
    if let Err(e) = plan.validate() {
        eprintln!("invalid fault plan {plan_path}: {e}");
        return ExitCode::FAILURE;
    }
    let target: f64 = flag(args, "--target")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8.0);
    let insts: u64 = flag(args, "--insts")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3_000_000);
    let quiet = has_flag(args, "--quiet");

    let mut cfg = ControllerConfig::paper_scaled();
    cfg.total_insts = insts;
    cfg.warmup_insts = workload.warmup_insts();
    cfg.seed = seed;
    cfg.fault_plan = Some(plan);
    let mut controller = Controller::new(cfg, Objective::paper_default(target));
    let trace = flag(args, "--trace");
    let metrics_out = flag(args, "--metrics-out");
    let mut handle: Option<RecorderHandle> = None;
    if let Some(path) = &trace {
        match JsonlRecorder::create(std::path::Path::new(path)) {
            Ok(recorder) => {
                let h = recorder.handle();
                controller = controller.with_recorder(h.clone());
                handle = Some(h);
            }
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if metrics_out.is_some() {
        let h: RecorderHandle = VecRecorder::shared();
        controller = controller.with_recorder(h.clone());
        handle = Some(h);
    }
    if !quiet {
        println!(
            "MCT chaos on {workload}: plan {plan_path}, seed {seed}, target {target}y, {insts} insts"
        );
    }
    let outcome = controller.run(&mut workload.source(seed));
    println!("chosen: [{}]", outcome.chosen_config);
    println!(
        "metrics: IPC {:.3} | lifetime {:.1}y | energy {:.3} mJ | phases {} | fallbacks {}",
        outcome.final_metrics.ipc,
        outcome.final_metrics.lifetime_years.min(999.0),
        outcome.final_metrics.energy_j * 1e3,
        outcome.phases_detected,
        outcome
            .segments
            .iter()
            .filter(|s| s.health_fallback)
            .count()
    );
    if let Some(path) = &trace {
        if !quiet {
            println!("degradation trace written to {path} (render with `mct report {path}`)");
        }
    }
    if let (Some(out), Some(h)) = (&metrics_out, handle) {
        if let Err(e) = write_metrics_prom(h, out, quiet) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_report(args: &[String]) -> ExitCode {
    if let Err(e) = check_flags(args, &[], &[]) {
        eprintln!("{e}");
        return usage();
    }
    let Some(path) = args.first() else {
        eprintln!("usage: mct report <trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Tolerant parse: records whose event kind (or transition kind) this
    // binary does not know (a trace written by a newer mct) are counted
    // and surfaced in the report footer instead of failing the render.
    match parse_jsonl_tolerant(&text) {
        Ok((records, mut unknown)) => {
            let transitions = trace_transitions(&records, &mut unknown);
            print!("{}", render_timeline(&transitions));
            print!("{}", render_report_with_unknown(&records, &unknown));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("malformed trace {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Load a trace leniently for the metrics/profile consumers, which only
/// need the record kinds they understand.
fn load_trace(path: &str) -> Result<Vec<memory_cocktail_therapy::telemetry::Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (records, _unknown) =
        parse_jsonl_tolerant(&text).map_err(|e| format!("malformed trace {path}: {e}"))?;
    Ok(records)
}

fn cmd_metrics(args: &[String]) -> ExitCode {
    if let Err(e) = check_flags(args, &[], &[]) {
        eprintln!("{e}");
        return usage();
    }
    let Some(path) = args.first() else {
        eprintln!("usage: mct metrics <trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let records = match load_trace(path) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // The last registry snapshot is the end-of-run state (runs emit one
    // per `Telemetry::finish`; the final one wins).
    let snapshot = records.iter().rev().find_map(|r| match &r.event {
        Event::MetricsRegistry { snapshot } => Some(snapshot),
        _ => None,
    });
    match snapshot {
        Some(snapshot) => {
            print!("{}", render_prometheus(snapshot));
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "trace {path} has no metrics_registry record (write one with `mct run --trace`)"
            );
            ExitCode::FAILURE
        }
    }
}

fn cmd_profile(args: &[String]) -> ExitCode {
    if let Err(e) = check_flags(args, &["--collapsed", "--min-coverage"], &[]) {
        eprintln!("{e}");
        return usage();
    }
    let Some(path) = args.first() else {
        eprintln!("usage: mct profile <trace.jsonl> [--collapsed OUT.txt] [--min-coverage PCT]");
        return ExitCode::FAILURE;
    };
    let records = match load_trace(path) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let profile = SpanProfile::from_records(&records);
    if profile.total_spans == 0 {
        eprintln!("trace {path} has no spans (write one with `mct run --trace`)");
        return ExitCode::FAILURE;
    }
    print!("{}", render_tree(&profile));
    if let Some(out) = flag(args, "--collapsed") {
        let stacks = render_collapsed(&profile);
        if let Err(e) = std::fs::write(&out, stacks) {
            eprintln!("cannot write collapsed stacks {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("collapsed stacks written to {out} (feed to flamegraph.pl / inferno)");
    }
    if let Some(min) = flag(args, "--min-coverage").and_then(|v| v.parse::<f64>().ok()) {
        let pct = profile.coverage() * 100.0;
        if pct < min {
            eprintln!("span coverage {pct:.2}% below required {min:.2}%");
            return ExitCode::FAILURE;
        }
        println!("span coverage {pct:.2}% >= {min:.2}%");
    }
    ExitCode::SUCCESS
}

fn cmd_measure(args: &[String]) -> ExitCode {
    if let Err(e) = check_flags(
        args,
        &[
            "--fast", "--slow", "--bank", "--eager", "--quota", "--cancel", "--seed",
        ],
        &[],
    ) {
        eprintln!("{e}");
        return usage();
    }
    let Some(workload) = args.first().and_then(|n| Workload::from_name(n)) else {
        eprintln!("unknown workload; try `mct workloads`");
        return ExitCode::FAILURE;
    };
    let seed: u64 = flag(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2017);
    let mut cfg = NvmConfig::default_config();
    if let Some(v) = flag(args, "--fast").and_then(|v| v.parse().ok()) {
        cfg.fast_latency = v;
        cfg.slow_latency = cfg.slow_latency.max(v);
    }
    if let Some(v) = flag(args, "--slow").and_then(|v| v.parse().ok()) {
        cfg.slow_latency = v;
    }
    if let Some(v) = flag(args, "--bank").and_then(|v| v.parse().ok()) {
        cfg.bank_aware = true;
        cfg.bank_aware_threshold = v;
    }
    if let Some(v) = flag(args, "--eager").and_then(|v| v.parse().ok()) {
        cfg.eager_writebacks = true;
        cfg.eager_threshold = v;
    }
    if let Some(v) = flag(args, "--quota").and_then(|v| v.parse().ok()) {
        cfg = cfg.with_wear_quota(v);
    }
    match flag(args, "--cancel").as_deref() {
        Some("slow") => cfg.slow_cancellation = true,
        Some("both") => {
            cfg.fast_cancellation = true;
            cfg.slow_cancellation = true;
        }
        _ => {}
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        return ExitCode::FAILURE;
    }
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
    ExitCode::SUCCESS
}

fn cmd_recover(args: &[String]) -> ExitCode {
    if let Err(e) = check_flags(args, &[], &[]) {
        eprintln!("{e}");
        return usage();
    }
    let Some(dir) = args.first() else {
        eprintln!("usage: mct recover <state-dir>");
        return ExitCode::FAILURE;
    };
    match RecoveryReport::from_dir(std::path::Path::new(dir)) {
        Ok(report) => {
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot recover state from {dir}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("measure") => cmd_measure(&args[1..]),
        Some("workloads") => {
            for w in Workload::all() {
                println!(
                    "{:<12} ~{:>5.1} LLC accesses/kinst, warmup {} insts",
                    w.name(),
                    w.profile().nominal_accesses_per_kinst(),
                    w.warmup_insts()
                );
            }
            ExitCode::SUCCESS
        }
        Some("space") => {
            println!(
                "full space: {} configurations",
                ConfigSpace::full(8.0).len()
            );
            println!(
                "learnable (no wear quota): {}",
                ConfigSpace::without_wear_quota().len()
            );
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
