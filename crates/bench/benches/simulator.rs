//! Criterion micro-benchmarks: simulator replay throughput.
//!
//! §5.1-scale studies replay hundreds of thousands of invocations per
//! policy; replay throughput (invocations/second) is what bounds
//! experiment turnaround. `keepalive_10min_spans` re-runs
//! `keepalive_10min` with every invocation's lifecycle span sampled, so
//! the ratio of those two adjacent lines is the span layer's worst-case
//! overhead.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use femux_obs::span::SpanConfig;
use femux_sim::{simulate_app, KeepAlivePolicy, KnativeDefaultPolicy, SimConfig};
use femux_trace::synth::ibm::{generate, IbmFleetConfig};
use femux_trace::types::{AppId, AppRecord, Invocation, WorkloadKind};
use std::hint::black_box;

/// A sparse app: one 3-request burst every 6 hours across `days` days.
/// Wall time here is dominated by idle handling, the event-queue
/// engine's headline case.
fn idle_heavy_app(days: u64) -> AppRecord {
    let mut app = AppRecord::new(AppId(0), WorkloadKind::Application);
    app.config.concurrency = 1;
    app.mem_used_mb = 256;
    let mut t = 1_000u64;
    while t < days * 86_400_000 {
        for k in 0..3u64 {
            app.invocations.push(Invocation {
                start_ms: t + k * 500,
                duration_ms: 800,
                delay_ms: 0,
            });
        }
        t += 6 * 3_600_000;
    }
    app
}

/// A bursty app: 400-request same-second bursts every 10 minutes for a
/// day — stresses the arrival path (join/spawn) rather than ticks.
fn burst_heavy_app() -> AppRecord {
    let mut app = AppRecord::new(AppId(1), WorkloadKind::Application);
    app.config.concurrency = 10;
    app.mem_used_mb = 256;
    let mut t = 5_000u64;
    while t < 86_400_000 {
        for k in 0..400u64 {
            app.invocations.push(Invocation {
                start_ms: t + k % 1_000,
                duration_ms: 2_000,
                delay_ms: 0,
            });
        }
        t += 600_000;
    }
    app
}

fn bench_simulator(c: &mut Criterion) {
    let trace = generate(&IbmFleetConfig::small(77));
    let app = trace
        .apps
        .iter()
        .max_by_key(|a| a.invocations.len())
        .expect("non-empty")
        .clone();
    let n = app.invocations.len() as u64;
    let mut group = c.benchmark_group("simulate_app");
    group.throughput(Throughput::Elements(n));
    group.bench_function("knative_default", |b| {
        b.iter(|| {
            let mut policy = KnativeDefaultPolicy;
            black_box(simulate_app(
                black_box(&app),
                &mut policy,
                trace.span_ms,
                &SimConfig::default(),
            ))
        })
    });
    group.bench_function("keepalive_10min", |b| {
        b.iter(|| {
            let mut policy = KeepAlivePolicy::ten_minutes();
            black_box(simulate_app(
                black_box(&app),
                &mut policy,
                trace.span_ms,
                &SimConfig::default(),
            ))
        })
    });
    let spans = SimConfig {
        spans: Some(SpanConfig::all(0x5EED)),
        ..SimConfig::default()
    };
    group.bench_function("keepalive_10min_spans", |b| {
        b.iter(|| {
            let mut policy = KeepAlivePolicy::ten_minutes();
            black_box(simulate_app(
                black_box(&app),
                &mut policy,
                trace.span_ms,
                &spans,
            ))
        })
    });

    let idle = idle_heavy_app(62);
    let idle_span = 62 * 86_400_000;
    group.throughput(Throughput::Elements(idle.invocations.len() as u64));
    group.bench_function("idle_heavy_62d_keepalive", |b| {
        b.iter(|| {
            let mut policy = KeepAlivePolicy::ten_minutes();
            black_box(simulate_app(
                black_box(&idle),
                &mut policy,
                idle_span,
                &SimConfig::default(),
            ))
        })
    });

    let bursty = burst_heavy_app();
    let bursty_span = 86_400_000;
    group.throughput(Throughput::Elements(
        bursty.invocations.len() as u64,
    ));
    group.bench_function("burst_heavy_1d_knative", |b| {
        b.iter(|| {
            let mut policy = KnativeDefaultPolicy;
            black_box(simulate_app(
                black_box(&bursty),
                &mut policy,
                bursty_span,
                &SimConfig::default(),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
