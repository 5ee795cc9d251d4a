//! The `mct` binary's exit codes on refused input: a usage error or a
//! malformed trace exits 1 with a message, never 101 (a panic), never an
//! abort, and never 0 (a silently defaulted value) — a removed flag
//! included. Also the plain-text registry `mct metrics` prints for a
//! traced run.

use std::process::{Command, Output};

use memory_cocktail_therapy::persist::TempDir;

fn mct(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mct"))
        .args(args)
        .output()
        .expect("spawn mct")
}

fn assert_usage_error(out: &Output, args: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "mct {args}: stderr {stderr}");
    assert!(
        stderr.contains("invalid value"),
        "mct {args}: no usage message in stderr {stderr}"
    );
}

#[test]
fn zero_target_is_a_usage_error() {
    let args = [
        "run", "stream", "--insts", "400000", "--target", "0", "--quiet",
    ];
    assert_usage_error(&mct(&args), &args.join(" "));
}

#[test]
fn unparsable_min_coverage_is_a_usage_error() {
    let dir = TempDir::new("mct-cli");
    let trace = dir.join("t.jsonl");
    let trace = trace.to_str().expect("utf-8 temp path");
    let out = mct(&[
        "run", "stream", "--insts", "400000", "--trace", trace, "--quiet",
    ]);
    assert!(out.status.success(), "traced run failed: {out:?}");
    let args = ["profile", trace, "--min-coverage", "abc"];
    assert_usage_error(&mct(&args), &args.join(" "));
}

#[test]
fn deeply_nested_trace_line_exits_with_a_message() {
    let dir = TempDir::new("mct-cli-deep");
    let trace = dir.join("deep.jsonl");
    let line = format!(
        r#"{{"seq":0,"sim_insts":0,"wall_us":0,"event":{{"Transition":{}}}}}"#,
        "[".repeat(100_000)
    );
    std::fs::write(&trace, line + "\n").expect("write trace");
    let trace = trace.to_str().expect("utf-8 temp path");
    for cmd in ["report", "metrics", "profile"] {
        let out = mct(&[cmd, trace]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "mct {cmd}: stderr {stderr}");
        assert!(
            stderr.contains("line 1") && stderr.contains("recursion limit"),
            "mct {cmd}: stderr {stderr}"
        );
    }
}

#[test]
fn removed_flag_is_refused_not_ignored() {
    let dir = TempDir::new("mct-cli-prom");
    let prom = dir.join("x.prom");
    let prom = prom.to_str().expect("utf-8 temp path");
    let args = [
        "run",
        "stream",
        "--insts",
        "400000",
        "--metrics-out",
        prom,
        "--quiet",
    ];
    let out = mct(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr {stderr}");
    assert!(
        stderr.contains("unknown flag --metrics-out") && stderr.contains("usage:"),
        "stderr {stderr}"
    );
    assert!(!std::path::Path::new(prom).exists(), "nothing was run");
}

#[test]
fn metrics_prints_a_traced_runs_registry_as_plain_text() {
    let dir = TempDir::new("mct-cli-metrics");
    let trace = dir.join("t.jsonl");
    let trace = trace.to_str().expect("utf-8 temp path");
    let out = mct(&[
        "run", "stream", "--insts", "400000", "--trace", trace, "--quiet",
    ]);
    assert!(out.status.success(), "traced run failed: {out:?}");
    let out = mct(&["metrics", trace]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "mct metrics failed: {out:?}");
    assert!(stdout.starts_with("--- metrics registry ---\n"), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.trim_start().starts_with(r#"span.wall_us{span="run"} "#)),
        "{stdout}"
    );
}
