//! The benchmark's contract: `BENCHMARK.json` names exactly what `e2e`
//! measures, the result line has the documented shape, and the summary
//! and `/proc` helpers behave at their edges.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use mct_e2e_bench::{
    cpu_ns_between, parse_cpu_ticks, parse_vm_hwm_kib, samples_beyond, ProcError, END_TO_END,
    RUN_SECONDS,
};
use serde::Content;

/// The schema's name rule: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn e2e() -> Command {
    Command::new(env!("CARGO_BIN_EXE_e2e"))
}

fn field<'a>(c: &'a Content, key: &str) -> &'a Content {
    c.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn keys(c: &Content) -> Vec<&str> {
    c.as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text(c: &Content) -> String {
    match c {
        Content::Str(s) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(c: &Content) -> f64 {
    match c {
        Content::U64(v) => *v as f64,
        Content::I64(v) => *v as f64,
        Content::F64(v) => *v,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `e2e --list` as (section, fields) rows.
fn listed() -> Vec<(String, Vec<String>)> {
    let out = e2e().arg("--list").output().expect("run e2e --list");
    assert!(out.status.success(), "e2e --list failed");
    String::from_utf8(out.stdout)
        .expect("utf-8 listing")
        .lines()
        .map(|line| {
            let (section, rest) = line.split_once(' ').expect("section and fields");
            let fields = match section {
                // The reason is free text; only the name is a single token.
                "workload" => {
                    let (name, why) = rest.split_once(' ').expect("name and why");
                    vec![name.to_string(), why.to_string()]
                }
                _ => rest.split(' ').map(str::to_string).collect(),
            };
            (section.to_string(), fields)
        })
        .collect()
}

fn section(rows: &[(String, Vec<String>)], name: &str) -> Vec<Vec<String>> {
    rows.iter()
        .filter(|(s, _)| s == name)
        .map(|(_, f)| f.clone())
        .collect()
}

#[test]
fn benchmark_json_names_exactly_what_e2e_lists() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let json = serde_json::parse_content(&raw).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&json),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let rows = listed();
    let entries = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        field(&json, key)
            .as_seq()
            .expect("a list")
            .iter()
            .map(|e| {
                assert_eq!(keys(e), fields, "{key} entry keys");
                fields
                    .iter()
                    .map(|f| match field(e, f) {
                        Content::Str(s) => s.clone(),
                        n => number(n).to_string(),
                    })
                    .collect()
            })
            .collect()
    };
    assert_eq!(
        entries("workloads", &["name", "why"]),
        section(&rows, "workload")
    );
    assert_eq!(
        entries("end_to_end", &["name", "unit", "better", "bound"]),
        section(&rows, "end_to_end")
    );
    assert_eq!(
        entries("per_layer", &["name", "unit", "better"]),
        section(&rows, "per_layer")
    );
    let mut names: Vec<String> = rows.iter().map(|(_, f)| f[0].clone()).collect();
    for name in &names {
        assert!(valid_name(name), "{name:?} breaks the name charset");
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "names must be unique");
    assert!(!valid_name("_leading") && !valid_name("has space") && !valid_name(&"x".repeat(65)));
    assert_eq!(
        field(&json, "paths")
            .as_seq()
            .map(|p| p.iter().map(text).collect::<Vec<_>>()),
        Some(vec!["e2ebench".to_string()])
    );
    assert_eq!(number(field(&json, "run_seconds")), RUN_SECONDS);
}

#[test]
fn p80_leaves_ten_samples_beyond_it_at_fifty() {
    assert_eq!(samples_beyond(50, 0.8), 10);
    assert!(
        samples_beyond(45, 0.8) < 10,
        "below 50 samples p80 is not reportable"
    );
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(0, 0.8), 0);
}

#[test]
fn vm_hwm_parser_reads_kib_and_rejects_bad_input() {
    let status = "Name:\te2e\nVmPeak:\t   12000 kB\nVmHWM:\t    7360 kB\nVmRSS:\t 7000 kB\n";
    assert_eq!(parse_vm_hwm_kib(status), Ok(7360));
    assert_eq!(
        parse_vm_hwm_kib("Name:\te2e\n"),
        Err(ProcError::Missing("VmHWM"))
    );
    assert!(matches!(
        parse_vm_hwm_kib("VmHWM:\t lots kB\n"),
        Err(ProcError::NotANumber("VmHWM", _))
    ));
}

#[test]
fn cpu_tick_parser_counts_fields_after_the_command_name() {
    let plain = "4242 (e2e) R 1 4242 4242 0 -1 4194560 900 0 0 0 250 40 0 0 20 0 3 0";
    assert_eq!(parse_cpu_ticks(plain), Ok((250, 40)));
    // A command name with spaces and parentheses must not shift fields.
    let odd = "7 (my (odd) cmd) S 1 7 7 0 -1 4194560 100 0 0 0 17 5 0 0 20 0 1 0";
    assert_eq!(parse_cpu_ticks(odd), Ok((17, 5)));
    assert_eq!(
        parse_cpu_ticks("7 (e2e) S 1 7 7"),
        Err(ProcError::Missing("utime"))
    );
    assert_eq!(
        parse_cpu_ticks("no parens"),
        Err(ProcError::Missing("command name"))
    );
    assert!(matches!(
        parse_cpu_ticks("7 (e2e) S 1 7 7 0 -1 4194560 100 0 0 0 x 5"),
        Err(ProcError::NotANumber("utime", _))
    ));
}

#[test]
fn other_thread_cpu_survives_threads_coming_and_going() {
    let before = BTreeMap::from([(11, 5_000_000), (12, 9_000_000), (13, 1_000)]);
    // Thread 12 exited between the reads, taking its big total with it.
    let shrunk = BTreeMap::from([(11, 5_200_000), (13, 1_000)]);
    assert_eq!(cpu_ns_between(&before, &shrunk), 200_000);
    // Thread 14 started in between: all its CPU time is new.
    let grown = BTreeMap::from([(11, 5_000_000), (13, 1_000), (14, 300_000)]);
    assert_eq!(cpu_ns_between(&before, &grown), 300_000);
    // A reused id with a smaller total counts nothing rather than wrapping.
    let reused = BTreeMap::from([(12, 10)]);
    assert_eq!(cpu_ns_between(&before, &reused), 0);
    assert_eq!(cpu_ns_between(&before, &BTreeMap::new()), 0);
}

#[test]
fn proc_parsers_read_this_process() {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("parse /proc/self/stat");
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    assert!(parse_vm_hwm_kib(&status).expect("parse /proc/self/status") > 0);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs real control loops; run with cargo test --release"
)]
fn control_run_prints_a_correct_result_line() {
    let out = e2e()
        .args(["--workload", "control", "--seed", "7", "--seconds", "2"])
        .output()
        .expect("run e2e");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "e2e failed:\n{stdout}");
    let last = stdout.lines().last().expect("some output");
    let result = serde_json::parse_content(last).expect("last line is JSON");
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert!(matches!(field(&result, "correct"), Content::Bool(true)));
    assert!(number(field(&result, "attempted")) >= 1.0);
    assert_eq!(
        number(field(&result, "failed")),
        0.0,
        "fail ratio must be 0"
    );
    let metrics = field(&result, "metrics");
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(keys(metrics), names);
    for spec in END_TO_END {
        let m = field(metrics, spec.name);
        assert_eq!(keys(m), ["value", "unit"]);
        assert_eq!(text(field(m, "unit")), spec.unit);
        let value = number(field(m, "value"));
        assert!(value.is_finite() && value > 0.0, "{} = {value}", spec.name);
    }
}
