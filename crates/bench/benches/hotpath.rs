//! The three hot paths this repo's perf work targets: the raw controller
//! event loop, the lock-free sweep engine, and batched whole-space
//! prediction. The `hotpath` binary records the same paths as wall-clock
//! JSON; these Criterion benches track them with proper statistics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mct_core::{ConfigSpace, MetricsPredictor, ModelKind, NvmConfig};
use mct_experiments::{run_grains, sweep_with_threads, Scale, EXPERIMENT_SEED};
use mct_sim::energy::EnergyModel;
use mct_sim::time::{Duration, Time};
use mct_sim::wear::WearModel;
use mct_sim::{MellowPolicy, MemConfig, MemoryController};
use mct_workloads::Workload;

/// Mixed read/write issue loop against a raw controller (the event-loop
/// pattern the CPU model drives).
fn bench_event_loop(c: &mut Criterion) {
    const N: u64 = 20_000;
    let mut group = c.benchmark_group("hotpath_event_loop");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N + N / 3));
    group.bench_function("mixed_reads_writes", |b| {
        b.iter(|| {
            let mut mem = MemoryController::new(
                MemConfig::default(),
                MellowPolicy::default_fast(),
                WearModel::default(),
                EnergyModel::default(),
            );
            let mut now = Time::ZERO;
            let mut pending = Vec::new();
            for i in 0..N {
                now += Duration(10_000);
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
                if i % 3 == 0 {
                    let wline = (i * 1531) % 65_536;
                    while !mem.issue_write(wline, now) {
                        now = now.max(mem.wait_write_space());
                    }
                }
                if pending.len() >= 8 {
                    let oldest = pending.remove(0);
                    now = now.max(mem.wait_read(oldest));
                    pending.retain(|&id| mem.take_completed_read(id, now).is_none());
                }
            }
            std::hint::black_box(mem.drain_all())
        });
    });
    group.finish();
}

/// The lock-free fan-out primitive itself, and a small end-to-end sweep.
fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_sweep");
    group.sample_size(10);
    // Grain-scheduling overhead on trivial work.
    let items: Vec<u64> = (0..4096).collect();
    for threads in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("run_grains_4096_trivial", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    std::hint::black_box(run_grains(&items, threads, |&x| x.wrapping_mul(31)))
                });
            },
        );
    }
    // End-to-end: warm rig + 8 configs through the sweep engine.
    let space = ConfigSpace::without_wear_quota();
    let stride = (space.len() / 8).max(1);
    let configs: Vec<NvmConfig> = space
        .configs()
        .iter()
        .step_by(stride)
        .take(8)
        .copied()
        .collect();
    group.bench_function("sweep_gups_8_configs", |b| {
        b.iter(|| {
            std::hint::black_box(sweep_with_threads(
                Workload::Gups,
                &configs,
                Scale::Quick,
                EXPERIMENT_SEED,
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            ))
        });
    });
    group.finish();
}

/// Batched whole-space prediction (2,030 configurations, three targets).
fn bench_predict_all(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_predict_all");
    group.sample_size(10);
    let space = ConfigSpace::without_wear_quota();
    group.throughput(Throughput::Elements(space.len() as u64));
    let samples = mct_bench::synthetic_samples(84, 11);
    for kind in [ModelKind::GradientBoosting, ModelKind::QuadraticLasso] {
        let mut p = MetricsPredictor::new(kind);
        p.fit(&samples, None);
        let _ = p.predict_all(&space); // warm the space's feature cache
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &p,
            |b, p| {
                b.iter(|| std::hint::black_box(p.predict_all(&space)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_event_loop, bench_sweep, bench_predict_all);
criterion_main!(benches);
