//! Parallel-scaling benchmark: the two dominant offline-pipeline stages
//! (forecast labelling and feature extraction) on a 64-app fleet at
//! 1/2/4/8 worker threads, so the speedup from the `femux-par` substrate
//! is a recorded number rather than prose.
//!
//! Run with `cargo bench --bench parallel_scaling`; each benchmark name
//! carries its thread count (`label_fleet_64apps/t4`).

use criterion::{criterion_group, criterion_main, Criterion};
use femux::config::FemuxConfig;
use femux::model::label_fleet;
use femux_bench::sine_fleet;
use femux_features::{extract_all, split_blocks, Block, FeatureKind};
use femux_stats::rng::Rng;
use std::hint::black_box;

/// Blocks for the feature-extraction benchmark: 504-minute windows from
/// varied synthetic series.
fn blocks(n: usize) -> Vec<Block> {
    let mut rng = Rng::seed_from_u64(65);
    (0..n)
        .flat_map(|i| {
            let series: Vec<f64> = (0..504)
                .map(|t| {
                    (1.0 + (i % 5) as f64
                        + (t as f64 * 0.11).sin().abs()
                        + 0.3 * rng.normal())
                    .max(0.0)
                })
                .collect();
            split_blocks(i, &series, 504, 0.5)
        })
        .collect()
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let apps = sine_fleet(64, 64);
    let cfg = FemuxConfig::for_tests();
    let mut group = c.benchmark_group("label_fleet_64apps");
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("t{threads}"), |b| {
            let _guard = femux_par::override_threads(threads);
            b.iter(|| black_box(label_fleet(black_box(&apps), &cfg)))
        });
    }
    group.finish();

    let blocks = blocks(64);
    let mut group = c.benchmark_group("extract_all_64blocks");
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("t{threads}"), |b| {
            let _guard = femux_par::override_threads(threads);
            b.iter(|| {
                black_box(extract_all(
                    black_box(&blocks),
                    &FeatureKind::DEFAULT,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
