//! Table 7's "computation overhead" column: per-model cost of fitting on
//! ~80 runtime samples and predicting the whole learnable space.
//!
//! The paper reports (on a 12-core i7): linear ~1 ms, quadratic 3–8 ms,
//! gradient boosting ~112 ms, hierarchical Bayesian ~8,000 ms. Absolute
//! numbers differ on other hardware, and the ordering does not fully hold
//! here either: offline pays for its corpus and hierarchical is far
//! cheaper than the paper's sampler (EXPERIMENTS.md records a run).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mct_bench::{synthetic_corpus, synthetic_samples};
use mct_core::{ConfigSpace, MetricsPredictor, ModelKind};

fn bench_fit_predict(c: &mut Criterion) {
    let samples = synthetic_samples(80, 42);
    let space = ConfigSpace::without_wear_quota();
    let corpus = synthetic_corpus(4);

    let mut group = c.benchmark_group("table7_fit_and_predict_all");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    for kind in ModelKind::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut p = MetricsPredictor::new(kind);
                    if kind.needs_offline_data() {
                        p = p.with_corpus(corpus.clone());
                    }
                    p.fit(&samples, None);
                    std::hint::black_box(p.predict_all(&space));
                });
            },
        );
    }
    group.finish();
}

fn bench_fit_only(c: &mut Criterion) {
    let samples = synthetic_samples(80, 42);
    let corpus = synthetic_corpus(4);

    let mut group = c.benchmark_group("table7_fit_only");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    for kind in [
        ModelKind::Linear,
        ModelKind::LinearLasso,
        ModelKind::Quadratic,
        ModelKind::QuadraticLasso,
        ModelKind::GradientBoosting,
        ModelKind::Hierarchical,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut p = MetricsPredictor::new(kind);
                    if kind.needs_offline_data() {
                        p = p.with_corpus(corpus.clone());
                    }
                    p.fit(&samples, None);
                    std::hint::black_box(&p);
                });
            },
        );
    }
    group.finish();
}

fn bench_convergence_sample_sizes(c: &mut Criterion) {
    // Fit cost vs training-set size for the two finalists (Figure 2's
    // x-axis, cost dimension).
    let mut group = c.benchmark_group("fit_cost_vs_samples");
    group.sample_size(10);
    for n in [20usize, 80, 160] {
        let samples = synthetic_samples(n, 7);
        for kind in [ModelKind::QuadraticLasso, ModelKind::GradientBoosting] {
            group.bench_with_input(BenchmarkId::new(kind.label(), n), &samples, |b, samples| {
                b.iter(|| {
                    let mut p = MetricsPredictor::new(kind);
                    p.fit(samples, None);
                    std::hint::black_box(&p);
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fit_predict,
    bench_fit_only,
    bench_convergence_sample_sizes
);
criterion_main!(benches);
