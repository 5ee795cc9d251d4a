//! Pipeline-scale primitives: the work-stealing scheduler's dispatch
//! overhead, grain-key hashing, the grain store's record/reopen round
//! trip over its checksummed log, and the cost of cloning a warmed rig
//! snapshot (what every figure pays per measurement instead of a full
//! re-warm).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mct_core::{fnv1a64, NvmConfig};
use mct_experiments::cache::{grain_key, GrainStore};
use mct_experiments::{run_grains, shared_rig, Scale, EXPERIMENT_SEED};
use mct_workloads::Workload;

/// Scheduler dispatch overhead on trivial grains: what run_grains costs
/// when the work itself is free, at 1 worker (inline path) and 8
/// (deal + steal machinery).
fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_scheduler");
    group.sample_size(10);
    let items: Vec<u64> = (0..4096).collect();
    group.throughput(Throughput::Elements(items.len() as u64));
    for workers in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("run_grains_4096_trivial", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    std::hint::black_box(run_grains(&items, workers, |&x| x.wrapping_mul(31)))
                });
            },
        );
    }
    group.finish();
}

/// Cache-key derivation: raw FNV-1a over 64 bytes, and a full grain key
/// (workload + seed + budget + 7-dim config) — both sit on every cache
/// lookup in the pipeline.
fn bench_keys(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_keys");
    group.sample_size(10);
    let payload = [0xA5u8; 64];
    group.bench_function("fnv1a64_64B", |b| {
        b.iter(|| std::hint::black_box(fnv1a64(std::hint::black_box(&payload))));
    });
    let cfg = NvmConfig::default_config();
    group.bench_function("grain_key", |b| {
        b.iter(|| {
            std::hint::black_box(grain_key(
                Workload::Gups,
                EXPERIMENT_SEED,
                std::hint::black_box(1_000_000),
                &cfg,
            ))
        });
    });
    group.finish();
}

/// GrainStore persistence: appending 256 records (one fsynced frame
/// each) to a fresh shard, and reopening (checksum + decode) a 256-frame
/// shard — the cold-start cost a resumed pipeline pays per shard.
fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_store");
    group.sample_size(10);
    let dir = std::env::temp_dir().join(format!("mct_bench_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    let metrics = mct_sim::stats::Metrics {
        ipc: 1.234_567_890_123,
        lifetime_years: 8.765_432_1,
        energy_j: 0.001_234_5,
    };

    group.throughput(Throughput::Elements(256));
    group.bench_function("record_256", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            let shard = dir.join(format!("record_{round}"));
            let store = GrainStore::open(shard.clone());
            for k in 0..256u64 {
                store.record(k, metrics);
            }
            let _ = std::fs::remove_dir_all(shard);
        });
    });

    let reopen_shard = dir.join("reopen");
    let seed_store = GrainStore::open(reopen_shard.clone());
    for k in 0..256u64 {
        seed_store.record(k, metrics);
    }
    drop(seed_store);
    group.bench_function("reopen_256", |b| {
        b.iter(|| std::hint::black_box(GrainStore::open(reopen_shard.clone()).len()));
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm-snapshot reuse: the per-grain unit cost — clone the warmed
/// system off the shared pool and run one detailed measurement. The
/// one-time warmup the pool amortizes away happens outside the timing
/// loop; clone-only time is tracked separately by the `clone_us`
/// pipeline counter.
fn bench_warm_rig(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_warm_rig");
    group.sample_size(10);
    let budget = Workload::Gups.detailed_insts(Scale::Smoke.detailed_factor());
    let cell = shared_rig(Workload::Gups, EXPERIMENT_SEED, budget);
    let _ = cell.rig(); // force the one-time warmup outside the timing loop
    group.bench_function("measure_from_warm_snapshot_gups_smoke", |b| {
        b.iter(|| {
            let rig = cell.rig();
            std::hint::black_box(rig.measure(&NvmConfig::default_config()))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scheduler,
    bench_keys,
    bench_store,
    bench_warm_rig
);
criterion_main!(benches);
