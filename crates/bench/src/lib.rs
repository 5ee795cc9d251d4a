//! # mct-bench — benchmark support
//!
//! The Criterion benchmarks live in `benches/` and the wall-clock
//! snapshot binaries (`hotpath`, `fitpath`) in `src/bin/`; this library
//! crate hosts the shared fixtures they use (synthetic sample sets,
//! pre-built spaces) so each measures the operation, not fixture
//! construction, and the snapshot binaries' shared JSON output step.

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

/// Report a snapshot binary's measurements: `fields` are `(key, value)`
/// pairs with the value already formatted as a JSON number, written in
/// order after a `machine` block (nproc, OS, arch) that keeps numbers
/// from being compared across different boxes by accident.
///
/// The JSON always goes to stdout. Command line `[--json] [out.json]`:
/// a path writes the report there; with no path it is written to
/// `default_path` unless `--json` asks for stdout only (the mode CI and
/// scripts consume).
///
/// # Panics
/// Panics if the report file cannot be written.
pub fn emit_snapshot(default_path: &str, fields: &[(&str, String)]) {
    let mut json_only = false;
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json_only = true;
        } else {
            out_path = Some(arg);
        }
    }
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
    let path = match out_path {
        Some(path) => path,
        None if !json_only => default_path.to_string(),
        None => return,
    };
    std::fs::write(&path, &json).expect("write bench json");
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
}
