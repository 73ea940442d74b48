//! Criterion macro-benchmarks: FeMux end-to-end decision latency and
//! training-pipeline stages on a small fleet.

use criterion::{criterion_group, criterion_main, Criterion};
use femux::config::FemuxConfig;
use femux::manager::AppManager;
use femux::model::{label_fleet, train, train_from_labels, ClassifierKind};
use femux_bench::sine_fleet;
use std::hint::black_box;
use std::sync::Arc;

fn bench_femux(c: &mut Criterion) {
    let cfg = FemuxConfig::for_tests();
    let apps = sine_fleet(8, 21);
    c.bench_function("femux_train_8apps", |b| {
        b.iter(|| {
            black_box(train(
                black_box(&apps),
                &cfg,
                ClassifierKind::KMeans,
            ))
        })
    });
    let labelled = label_fleet(&apps, &cfg);
    c.bench_function("femux_classifier_fit_only", |b| {
        b.iter(|| {
            black_box(train_from_labels(
                black_box(&labelled),
                &cfg,
                ClassifierKind::KMeans,
            ))
        })
    });
    let model = Arc::new(
        train(&apps, &cfg, ClassifierKind::KMeans).expect("model"),
    );
    c.bench_function("femux_online_observe_and_forecast", |b| {
        let mut mgr = AppManager::new(model.clone(), 0.5);
        let mut t = 0usize;
        b.iter(|| {
            mgr.observe((2.0 + (t as f64 * 0.2).sin()).max(0.0));
            t += 1;
            black_box(mgr.forecast(1))
        })
    });
}

criterion_group!(benches, bench_femux);
criterion_main!(benches);
