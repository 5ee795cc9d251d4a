//! Emit `BENCH_hotpath.json`: wall-clock numbers for the three hot paths
//! (simulator event loop, sweep grains, batched prediction).
//!
//! Run with `cargo run --release -p mct-bench --bin hotpath [-- [--json] [out.json]]`.
//! With `--json` the report goes to stdout only (progress lines stay on
//! stderr) and no file is written unless a path is also given — the mode
//! CI and scripts consume. Any other flag, or a second path, is a usage
//! error (exit 2) before anything is measured. The same binary measures pre- and
//! post-optimization builds so perf PRs can record a like-for-like
//! trajectory. The sweep is the path every figure runs on a cache miss
//! (a shared warm rig, one `WarmedRig::measure` per grain) spread over
//! `MCT_WORKERS` threads (default: every core).

use std::time::Instant;

use mct_core::{ConfigSpace, MetricsPredictor, ModelKind, NvmConfig};
use mct_experiments::{default_workers, run_grains, shared_rig, Scale, EXPERIMENT_SEED};
use mct_sim::energy::EnergyModel;
use mct_sim::mem::{MemConfig, MemoryController};
use mct_sim::policy::MellowPolicy;
use mct_sim::time::Time;
use mct_sim::wear::WearModel;
use mct_workloads::Workload;

/// Mixed read/write issue loop against a raw controller; returns
/// accesses/sec over `n` reads + `n/3` writes.
fn event_loop_accesses_per_sec(n: u64) -> f64 {
    let mut mem = MemoryController::new(
        MemConfig::default(),
        MellowPolicy::default_fast(),
        WearModel::default(),
        EnergyModel::default(),
    );
    let mut accesses = 0u64;
    let start = Instant::now();
    let mut now = Time::ZERO;
    let mut pending = Vec::new();
    for i in 0..n {
        now += mct_sim::time::Duration(10_000);
        let line = (i * 977) % 65_536;
        loop {
            match mem.issue_read(line, now) {
                Some(id) => {
                    pending.push(id);
                    break;
                }
                None => now = now.max(mem.wait_read_space()),
            }
        }
        accesses += 1;
        if i % 3 == 0 {
            let wline = (i * 1531) % 65_536;
            while !mem.issue_write(wline, now) {
                now = now.max(mem.wait_write_space());
            }
            accesses += 1;
        }
        // Reap once the window grows, like the CPU model does.
        if pending.len() >= 8 {
            let oldest = pending.remove(0);
            now = now.max(mem.wait_read(oldest));
            pending.retain(|&id| mem.take_completed_read(id, now).is_none());
        }
    }
    for id in pending {
        now = now.max(mem.wait_read(id));
    }
    mem.drain_all();
    accesses as f64 / start.elapsed().as_secs_f64()
}

/// Sweep wall time (ms), warmup included, over `n_configs` strided out
/// of the full space.
fn sweep_wall_ms(n_configs: usize) -> (usize, f64) {
    let space = ConfigSpace::without_wear_quota();
    let stride = (space.len() / n_configs).max(1);
    let configs: Vec<NvmConfig> = space.configs().iter().step_by(stride).copied().collect();
    let configs = &configs[..n_configs.min(configs.len())];
    let workload = Workload::Gups;
    let budget = workload.detailed_insts(Scale::Quick.detailed_factor());
    let start = Instant::now();
    let cell = shared_rig(workload, EXPERIMENT_SEED, budget);
    let metrics = run_grains(configs, default_workers(), |c| cell.rig().measure(c));
    assert_eq!(metrics.len(), configs.len());
    // Fold the results into a checksum so the work cannot be elided.
    let checksum: f64 = metrics.iter().map(|m| m.ipc).sum();
    assert!(checksum > 0.0);
    (configs.len(), start.elapsed().as_secs_f64() * 1e3)
}

/// `predict_all` latency (ms, best of `iters`) for one model kind.
fn predict_all_ms(kind: ModelKind, space: &ConfigSpace, iters: usize) -> f64 {
    let samples = mct_bench::synthetic_samples(84, 11);
    let mut p = MetricsPredictor::new(kind);
    p.fit(&samples, None);
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        let out = p.predict_all(space);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(out.len(), space.len());
        best = best.min(ms);
    }
    best
}

fn main() {
    let args = mct_bench::snapshot_args_or_exit();
    eprintln!("measuring event loop...");
    let ev_warm = event_loop_accesses_per_sec(50_000);
    let ev = event_loop_accesses_per_sec(200_000).max(ev_warm);

    eprintln!("measuring sweep...");
    let (n_sweep, sweep_ms) = sweep_wall_ms(64);

    eprintln!("measuring predict_all...");
    let space = ConfigSpace::without_wear_quota();
    let gbrt_ms = predict_all_ms(ModelKind::GradientBoosting, &space, 5);
    let lasso_ms = predict_all_ms(ModelKind::QuadraticLasso, &space, 5);

    mct_bench::emit_snapshot(
        "BENCH_hotpath.json",
        &args,
        &[
            ("event_loop_accesses_per_sec", format!("{ev:.0}")),
            ("sweep_configs", n_sweep.to_string()),
            ("sweep_wall_ms", format!("{sweep_ms:.1}")),
            ("predict_all_configs", space.len().to_string()),
            ("predict_all_gbrt_ms", format!("{gbrt_ms:.3}")),
            ("predict_all_quad_lasso_ms", format!("{lasso_ms:.3}")),
        ],
    );
}
