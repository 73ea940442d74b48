//! Determinism contract of the online serving harness.
//!
//! Four guarantees, each an acceptance criterion of the serving PR:
//!
//! 1. **Shard invariance**: same trace + model + seed ⇒ byte-identical
//!    decisions, outcomes, and metrics at 1 vs 8 shards (with and
//!    without an injected fault plan).
//! 2. **Replay ≡ offline**: a `ServedApp` fed an app's sample stream
//!    produces exactly `AppManager::history_of_kinds` — the online path
//!    and the offline pipeline agree decision for decision.
//! 3. **Incremental ≡ batch**: the streaming feature extractor matches
//!    the batch extractor to exact f64 equality at every block boundary
//!    across both synthetic fleets (IBM-like and Azure-like).
//! 4. **Strict ingest**: clamped out-of-order traces serve
//!    deterministically too, and the clamp count is surfaced.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use femux::config::FemuxConfig;
use femux::manager::AppManager;
use femux::model::{train, ClassifierKind, FemuxModel, TrainApp};
use femux_features::{extract, is_idle, Block, IncrementalExtractor};
use femux_serve::harness::{run, ServeConfig};
use femux_serve::{ServedApp, TraceFeed};
use femux_trace::ingest::MonotonePolicy;
use femux_trace::repr::concurrency_per_minute;
use femux_trace::synth::azure::{self, AzureFleetConfig};
use femux_trace::synth::ibm::{generate, IbmFleetConfig};
use femux_trace::{Invocation, Trace};

/// Serializes every test in this file. The obs switches and sink are
/// process globals, so a test serving concurrently with the one that
/// collects metrics would record its `serve.*` counters into that
/// test's report.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`TEST_LOCK`], recovering it if an earlier test panicked while
/// holding it (that test already reports its own failure).
fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn fleet_trace() -> Trace {
    let mut trace = generate(&IbmFleetConfig::small(42));
    // A dozen apps keeps the sweep fast while still crossing several
    // block boundaries per app.
    trace.apps.truncate(12);
    trace
}

fn model() -> Arc<FemuxModel> {
    static MODEL: OnceLock<Arc<FemuxModel>> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let cfg = FemuxConfig::for_tests();
            let trace = fleet_trace();
            let apps: Vec<TrainApp> = trace
                .apps
                .iter()
                .map(|app| TrainApp {
                    concurrency: concurrency_per_minute(
                        &app.invocations,
                        trace.span_ms,
                    ),
                    exec_secs: 0.5,
                    mem_gb: 0.5,
                    pod_concurrency: app.config.concurrency.max(1),
                })
                .collect();
            Arc::new(
                train(&apps, &cfg, ClassifierKind::KMeans)
                    .expect("trainable fleet"),
            )
        })
        .clone()
}

#[test]
fn one_and_eight_shards_serve_byte_identically() {
    let _lock = lock();
    let trace = fleet_trace();
    let model = model();
    let serve = |shards: usize| {
        let _g = femux_obs::scoped(false);
        let report = run(
            &trace,
            model.clone(),
            &ServeConfig {
                shards,
                ..ServeConfig::default()
            },
        )
        .expect("sorted trace");
        let mut obs = femux_obs::collect();
        // femux-par's own dispatch counters legitimately see a
        // different item count (one work item per shard); everything
        // else must merge identically.
        obs.counters.retain(|k, _| !k.starts_with("par."));
        (report, obs.metrics_json())
    };
    let (one, metrics_one) = serve(1);
    let (eight, metrics_eight) = serve(8);
    assert_eq!(one.digest(), eight.digest());
    assert_eq!(one.apps, eight.apps, "full outcomes, not just digests");
    assert_eq!(
        metrics_one, metrics_eight,
        "serve.* metrics must merge identically at any shard count"
    );
    assert!(one.apps.iter().any(|a| a.blocks > 0));
}

#[test]
fn fault_injected_serving_is_shard_invariant() {
    let _lock = lock();
    let trace = fleet_trace();
    let model = model();
    let plan = femux_fault::FaultConfig::uniform(13, 0.05);
    let serve = |shards: usize| {
        run(
            &trace,
            model.clone(),
            &ServeConfig {
                shards,
                faults: Some(plan.clone()),
                ..ServeConfig::default()
            },
        )
        .expect("sorted trace")
    };
    let one = serve(1);
    let eight = serve(8);
    assert_eq!(
        one.digest(),
        eight.digest(),
        "fault streams are keyed by app id, not shard"
    );
    assert_eq!(one.apps, eight.apps);
    assert!(
        one.totals.total() > 0,
        "the plan must actually inject faults"
    );
}

#[test]
fn online_replay_equals_offline_pipeline() {
    let _lock = lock();
    let trace = fleet_trace();
    let model = model();
    let feed = TraceFeed::from_trace(&trace, MonotonePolicy::Reject)
        .expect("generator traces are sorted");
    for app in &feed.apps {
        let mut served = ServedApp::new(
            app.id,
            model.clone(),
            app.exec_secs,
            app.concurrency_limit,
        );
        let mut mgr = AppManager::new(model.clone(), app.exec_secs);
        for t in 0..feed.steps {
            let v = app.samples.get(t).copied().unwrap_or(0.0);
            served.step(t, v, 0.7);
            mgr.observe(v);
            let _ = mgr.forecast(1);
        }
        assert_eq!(
            served.decisions, mgr.history_of_kinds,
            "app {} diverged from the offline manager",
            app.id.0
        );
    }
}

/// Pushes a series through the incremental extractor and asserts exact
/// f64 equality with the batch extractor at every block boundary.
fn assert_parity(series: &[f64], exec_secs: f64, label: &str) {
    let cfg = FemuxConfig::for_tests();
    let mut inc = IncrementalExtractor::new(
        cfg.block_len,
        exec_secs,
        &cfg.features,
    );
    let mut boundaries = 0;
    for (t, &v) in series.iter().enumerate() {
        if let Some(out) = inc.push(v) {
            let block = Block {
                app_index: 0,
                seq: out.seq,
                series: series[t + 1 - cfg.block_len..t + 1].to_vec(),
                exec_secs,
            };
            let batch = extract(&block, &cfg.features);
            for (k, (b, i)) in
                batch.iter().zip(&out.features).enumerate()
            {
                assert_eq!(
                    b.to_bits(),
                    i.to_bits(),
                    "{label}: feature {:?} diverged at block {}: \
                     batch {b} vs incremental {i}",
                    cfg.features[k],
                    out.seq
                );
            }
            assert_eq!(out.idle, is_idle(&block), "{label}: idle bit");
            boundaries += 1;
        }
    }
    assert_eq!(boundaries, series.len() / cfg.block_len, "{label}");
}

#[test]
fn incremental_matches_batch_over_ibm_fleet() {
    let _lock = lock();
    let trace = generate(&IbmFleetConfig::small(17));
    let mut checked = 0;
    for app in trace.apps.iter().take(20) {
        let series =
            concurrency_per_minute(&app.invocations, trace.span_ms);
        if series.len() >= FemuxConfig::for_tests().block_len {
            assert_parity(
                &series,
                0.5,
                &format!("ibm app {}", app.id.0),
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the sweep must cover real apps");
}

#[test]
fn incremental_matches_batch_over_azure_fleet() {
    let _lock = lock();
    let fleet = azure::generate(&AzureFleetConfig::small(23));
    let mut checked = 0;
    for app in fleet.apps.iter().take(20) {
        let series: Vec<f64> = app
            .minute_counts
            .iter()
            .map(|&c| c as f64)
            .collect();
        if series.len() >= FemuxConfig::for_tests().block_len {
            assert_parity(
                &series,
                app.daily_avg_exec_ms.first().copied().unwrap_or(500.0)
                    / 1_000.0,
                &format!("azure app {}", app.id.0),
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the sweep must cover real apps");
}

#[test]
fn clamped_out_of_order_trace_serves_deterministically() {
    let _lock = lock();
    let mut trace = fleet_trace();
    // Corrupt one app's stream with a late timestamp.
    let invs = &mut trace.apps[0].invocations;
    assert!(invs.len() >= 2, "fleet app must have traffic");
    let mid = invs.len() / 2;
    invs[mid] = Invocation {
        start_ms: invs[mid - 1].start_ms.saturating_sub(1),
        ..invs[mid]
    };
    assert!(!trace.apps[0].is_sorted(), "corruption must take");
    let model = model();
    // Reject refuses the corrupted stream outright.
    assert!(run(
        &trace,
        model.clone(),
        &ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        }
    )
    .is_err());
    // Clamp serves it, surfaces the count, and stays shard-invariant.
    let serve = |shards: usize| {
        run(
            &trace,
            model.clone(),
            &ServeConfig {
                shards,
                ingest: MonotonePolicy::Clamp,
                ..ServeConfig::default()
            },
        )
        .expect("clamp policy accepts the trace")
    };
    let one = serve(1);
    let eight = serve(8);
    assert!(one.clamped_timestamps > 0);
    assert_eq!(one.clamped_timestamps, eight.clamped_timestamps);
    assert_eq!(one.digest(), eight.digest());
}
