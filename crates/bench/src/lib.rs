//! # mct-bench — benchmark support
//!
//! The wall-clock snapshot binaries (`hotpath`, `fitpath`) live in
//! `src/bin/`; this library crate hosts the shared fixtures they use
//! (synthetic sample sets and corpora) so each measures the operation,
//! not fixture construction, and their shared command line and JSON
//! output step.

#![warn(missing_docs)]

use mct_core::{ConfigSpace, NvmConfig};
use mct_sim::stats::Metrics;

/// A smooth synthetic ground-truth used to generate predictor training
/// data of the right shape (mirrors the sweep landscape qualitatively).
#[must_use]
pub fn synthetic_truth(c: &NvmConfig) -> Metrics {
    let slowdown = 0.3 * (c.fast_latency - 1.0) + 0.15 * (c.slow_latency - 1.0);
    let cancel = if c.slow_cancellation { 0.05 } else { 0.0 };
    Metrics {
        ipc: (1.2 - slowdown + cancel).max(0.1),
        lifetime_years: 2.0 * c.slow_latency * c.slow_latency + 0.5 * c.fast_latency,
        energy_j: 5e-3 * (1.0 + slowdown),
    }
}

/// `n` training samples over the quota-free space with synthetic targets.
#[must_use]
pub fn synthetic_samples(n: usize, seed: u64) -> Vec<(NvmConfig, Metrics)> {
    let space = ConfigSpace::without_wear_quota();
    mct_core::sampling::random_samples(&space, n, seed)
        .into_iter()
        .map(|c| (c, synthetic_truth(&c)))
        .collect()
}

/// Per-application corpora for the offline/hierarchical predictors.
#[must_use]
pub fn synthetic_corpus(apps: usize) -> Vec<Vec<(NvmConfig, Metrics)>> {
    let space = ConfigSpace::without_wear_quota();
    (0..apps)
        .map(|a| {
            let f = 0.5 + a as f64 * 0.25;
            space
                .iter()
                .map(|c| {
                    let mut m = synthetic_truth(c);
                    m.ipc *= f;
                    m.lifetime_years *= f;
                    m.energy_j *= f;
                    (*c, m)
                })
                .collect()
        })
        .collect()
}

/// Where a snapshot binary's report goes, parsed from its command line
/// `[--json] [out.json]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotArgs {
    /// `--json`: stdout only, unless a path is also given (the mode CI
    /// and scripts consume).
    pub json_only: bool,
    /// The report file, when given.
    pub out_path: Option<String>,
}

/// Why a snapshot binary's command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotUsageError {
    /// A dash-led argument other than `--json` (a typo such as `--jsn`,
    /// or `--help`), which must not become a file name.
    UnknownFlag(String),
    /// A second output path.
    ExtraPath(String),
}

impl std::fmt::Display for SnapshotUsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotUsageError::UnknownFlag(a) => write!(f, "unknown flag {a}"),
            SnapshotUsageError::ExtraPath(a) => write!(f, "more than one output path ({a})"),
        }
    }
}

/// Parse a snapshot binary's arguments (without the program name).
///
/// # Errors
/// Any dash-led argument but `--json`, and any path after the first.
pub fn parse_snapshot_args<S: AsRef<str>>(args: &[S]) -> Result<SnapshotArgs, SnapshotUsageError> {
    let mut parsed = SnapshotArgs::default();
    for arg in args.iter().map(AsRef::as_ref) {
        if arg == "--json" {
            parsed.json_only = true;
        } else if arg.starts_with('-') {
            return Err(SnapshotUsageError::UnknownFlag(arg.to_string()));
        } else if parsed.out_path.is_some() {
            return Err(SnapshotUsageError::ExtraPath(arg.to_string()));
        } else {
            parsed.out_path = Some(arg.to_string());
        }
    }
    Ok(parsed)
}

/// The process's snapshot arguments; on a usage error, prints it with a
/// usage line to stderr and exits with code 2. Call it first in `main`,
/// before measuring anything.
#[must_use]
pub fn snapshot_args_or_exit() -> SnapshotArgs {
    let mut argv = std::env::args();
    let bin = argv.next().unwrap_or_default();
    let args: Vec<String> = argv.collect();
    parse_snapshot_args(&args).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}\nusage: {bin} [--json] [out.json]");
        std::process::exit(2)
    })
}

/// Report a snapshot binary's measurements: `fields` are `(key, value)`
/// pairs with the value already formatted as a JSON number, written in
/// order after a `machine` block (nproc, OS, arch) that keeps numbers
/// from being compared across different boxes by accident.
///
/// The JSON always goes to stdout. It is also written to
/// `args.out_path`, or with no path to `default_path` unless
/// `args.json_only`.
///
/// # Panics
/// Panics if the report file cannot be written.
pub fn emit_snapshot(default_path: &str, args: &SnapshotArgs, fields: &[(&str, String)]) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut json = format!(
        "{{\n  \"machine\": {{\n    \"nproc\": {nproc},\n    \"os\": \"{}\",\n    \
         \"arch\": \"{}\"\n  }}",
        std::env::consts::OS,
        std::env::consts::ARCH,
    );
    for (key, value) in fields {
        json.push_str(&format!(",\n  \"{key}\": {value}"));
    }
    json.push_str("\n}\n");
    print!("{json}");
    let path = match &args.out_path {
        Some(path) => path.as_str(),
        None if !args.json_only => default_path,
        None => return,
    };
    std::fs::write(path, &json).expect("write bench json");
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_produce_valid_data() {
        let s = synthetic_samples(20, 1);
        assert_eq!(s.len(), 20);
        assert!(s.iter().all(|(_, m)| m.ipc > 0.0 && m.lifetime_years > 0.0));
        assert_eq!(synthetic_corpus(2).len(), 2);
    }

    #[test]
    fn snapshot_argv_table() {
        use SnapshotUsageError::*;
        let args = |json_only: bool, out_path: Option<&str>| {
            Ok(SnapshotArgs {
                json_only,
                out_path: out_path.map(str::to_string),
            })
        };
        let rows: Vec<(&str, Result<SnapshotArgs, SnapshotUsageError>)> = vec![
            ("", args(false, None)),
            ("--json", args(true, None)),
            ("out.json", args(false, Some("out.json"))),
            ("--json out.json", args(true, Some("out.json"))),
            ("out.json --json", args(true, Some("out.json"))),
            ("--jsn", Err(UnknownFlag("--jsn".into()))),
            ("--help", Err(UnknownFlag("--help".into()))),
            ("-h", Err(UnknownFlag("-h".into()))),
            ("out.json --jsn", Err(UnknownFlag("--jsn".into()))),
            ("a.json b.json", Err(ExtraPath("b.json".into()))),
            ("--json a.json b.json", Err(ExtraPath("b.json".into()))),
        ];
        for (line, want) in rows {
            let argv: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parse_snapshot_args(&argv), want, "argv {line:?}");
        }
    }
}
