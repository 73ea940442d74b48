//! Criterion smoke-benchmark: telemetry overhead on the labelling
//! stage.
//!
//! The observability layer's contract is "inert by default": with the
//! switches off, every recording call is one relaxed atomic load. This
//! bench runs `label_fleet` three ways — obs off, metrics on, and
//! metrics+events on — so a regression that makes the disabled path
//! allocate (or the enabled path exceed the ~5 % budget) shows up as a
//! ratio between adjacent bench lines rather than needing an absolute
//! threshold on a shared CI machine.

use criterion::{criterion_group, criterion_main, Criterion};
use femux::config::FemuxConfig;
use femux::model::label_fleet;
use femux_bench::sine_fleet;
use std::hint::black_box;

fn bench_obs_overhead(c: &mut Criterion) {
    let cfg = FemuxConfig::for_tests();
    let apps = sine_fleet(8, 33);

    femux_obs::set_enabled(false);
    c.bench_function("label_fleet_obs_off", |b| {
        b.iter(|| black_box(label_fleet(black_box(&apps), &cfg)))
    });

    {
        let _g = femux_obs::scoped(false);
        c.bench_function("label_fleet_obs_metrics", |b| {
            b.iter(|| black_box(label_fleet(black_box(&apps), &cfg)))
        });
    }

    {
        let _g = femux_obs::scoped(true);
        c.bench_function("label_fleet_obs_events", |b| {
            b.iter(|| black_box(label_fleet(black_box(&apps), &cfg)))
        });
        // Periodically drain so event memory stays bounded across iters.
        drop(femux_obs::collect());
    }
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
