//! The sharded serving loop.
//!
//! [`run`] splits a trace's apps across worker shards (stable
//! [`crate::shard_of`] assignment), serves every virtual-clock step,
//! and returns a [`ServeReport`] whose [`digest`](ServeReport::digest)
//! is byte-identical for any shard count: sharding only partitions the
//! per-app state — each app's sample stream, fault draws (keyed by app
//! id), and decisions are the same wherever it lives. Wall-clock tick
//! latencies are measured per shard for the repository benchmark
//! (`perfbench`) and `fig14_knative`'s serving-cost panel, and
//! deliberately excluded from the digest.

use std::sync::Arc;

use femux::model::FemuxModel;
use femux_fault::{FaultConfig, FaultStats};
use femux_forecast::ForecasterKind;
use femux_trace::ingest::{IngestError, MonotonePolicy};
use femux_trace::{AppId, Trace};

use crate::app::ServedApp;
use crate::feed::{AppFeed, TraceFeed};
use crate::shard_of;

/// Serving-harness configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards; 0 means `FEMUX_THREADS` (the femux-par pool
    /// size). The digest is shard-count invariant either way.
    pub shards: usize,
    /// Per-pod utilization headroom (Knative default 0.7).
    pub utilization: f64,
    /// What to do with non-monotone trace timestamps at ingest.
    pub ingest: MonotonePolicy,
    /// Injected fault plan (report loss + forecaster faults), if any.
    pub faults: Option<FaultConfig>,
    /// Measure per-tick wall latency (off by default: the numbers are
    /// nondeterministic; `perfbench` and `fig14_knative` read them).
    pub measure_latency: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            utilization: 0.7,
            ingest: MonotonePolicy::Reject,
            faults: None,
            measure_latency: false,
        }
    }
}

/// Deterministic per-app serving outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppOutcome {
    /// The app.
    pub id: AppId,
    /// Forecaster decision log (mirror of
    /// `AppManager::history_of_kinds`).
    pub decisions: Vec<ForecasterKind>,
    /// Completed blocks.
    pub blocks: usize,
    /// Reports lost to injected faults.
    pub reports_lost: u64,
    /// Samples sanitized for being non-finite.
    pub nonfinite_samples: u64,
    /// Sum of per-step pod targets.
    pub target_pod_sum: u64,
    /// Largest single-step pod target.
    pub target_pod_max: usize,
    /// Injected forecaster faults fired.
    pub forecast_faults: u64,
}

/// The result of serving one trace.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Shards used (excluded from the digest).
    pub shards: usize,
    /// Virtual steps served.
    pub steps: usize,
    /// Per-app outcomes, in trace order.
    pub apps: Vec<AppOutcome>,
    /// Invocations clamped at ingest.
    pub clamped_timestamps: usize,
    /// Injected-fault totals across the fleet.
    pub totals: FaultStats,
    /// Per-shard, per-tick wall latencies in µs (empty unless
    /// `measure_latency`; excluded from the digest).
    pub tick_wall_us: Vec<Vec<u64>>,
}

impl ServeReport {
    /// FNV-1a digest over every deterministic field — decisions,
    /// counts, fault totals — excluding shard count and wall-clock
    /// measurements. Equal digests mean byte-identical serving
    /// behavior.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(self.steps as u64).to_le_bytes());
        bytes
            .extend_from_slice(&(self.clamped_timestamps as u64).to_le_bytes());
        bytes.extend_from_slice(&self.totals.total().to_le_bytes());
        for app in &self.apps {
            bytes.extend_from_slice(&app.id.0.to_le_bytes());
            for kind in &app.decisions {
                bytes.extend_from_slice(kind.name().as_bytes());
                bytes.push(b';');
            }
            for v in [
                app.blocks as u64,
                app.reports_lost,
                app.nonfinite_samples,
                app.target_pod_sum,
                app.target_pod_max as u64,
                app.forecast_faults,
            ] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        crate::fnv1a(&bytes)
    }
}

struct ShardResult {
    /// (index into trace order, outcome) pairs.
    outcomes: Vec<(usize, AppOutcome)>,
    stats: FaultStats,
    tick_wall_us: Vec<u64>,
}

/// Serves a whole trace and returns the deterministic report.
///
/// Virtual clock: step `t` is trace minute `t`; every app on every
/// shard sees its minute-`t` sample during step `t`. Shards run in
/// parallel (femux-par), each advancing its own apps step by step, so
/// per-tick wall latency is an honest per-shard measurement.
pub fn run(
    trace: &Trace,
    model: Arc<FemuxModel>,
    cfg: &ServeConfig,
) -> Result<ServeReport, IngestError> {
    let feed = TraceFeed::from_trace(trace, cfg.ingest)?;
    let shards = if cfg.shards == 0 {
        femux_par::thread_count()
    } else {
        cfg.shards
    };
    femux_obs::counter_add("serve.runs", 1);
    femux_obs::counter_add("serve.apps", feed.apps.len() as u64);
    // Partition apps by stable hash, preserving trace order inside each
    // shard.
    let mut groups: Vec<Vec<(usize, &AppFeed)>> = vec![Vec::new(); shards];
    for (idx, app) in feed.apps.iter().enumerate() {
        groups[shard_of(app.id, shards)].push((idx, app));
    }
    let steps = feed.steps;
    let results: Vec<ShardResult> =
        femux_par::par_map(&groups, |_, group| {
            let result = run_shard(group, &model, cfg, steps);
            femux_obs::flush_thread();
            result
        });
    // Reassemble in trace order so downstream consumers never see the
    // shard layout.
    let mut slots: Vec<Option<AppOutcome>> = vec![None; feed.apps.len()];
    let mut totals = FaultStats::default();
    let mut tick_wall_us = Vec::with_capacity(shards);
    for shard in results {
        totals.merge(&shard.stats);
        for (idx, outcome) in shard.outcomes {
            slots[idx] = Some(outcome);
        }
        tick_wall_us.push(shard.tick_wall_us);
    }
    let apps = slots
        .into_iter()
        .map(|s| s.expect("every app is served by exactly one shard"))
        .collect();
    Ok(ServeReport {
        shards,
        steps,
        apps,
        clamped_timestamps: feed.clamped_timestamps,
        totals,
        tick_wall_us,
    })
}

fn run_shard(
    group: &[(usize, &AppFeed)],
    model: &Arc<FemuxModel>,
    cfg: &ServeConfig,
    steps: usize,
) -> ShardResult {
    let mut apps: Vec<(usize, &AppFeed, ServedApp)> = group
        .iter()
        .map(|&(idx, feed)| {
            let mut app = ServedApp::new(
                feed.id,
                Arc::clone(model),
                feed.exec_secs,
                feed.concurrency_limit,
            );
            if let Some(plan) = &cfg.faults {
                app = app.with_faults(
                    plan.forecast_faults(feed.id),
                    plan.engine_faults(feed.id),
                );
            }
            (idx, feed, app)
        })
        .collect();
    let mut tick_wall_us =
        Vec::with_capacity(if cfg.measure_latency { steps } else { 0 });
    for t in 0..steps {
        let t0 = if cfg.measure_latency {
            femux_obs::walltime::monotonic_micros()
        } else {
            0
        };
        for (_, feed, app) in &mut apps {
            let sample = feed.samples.get(t).copied().unwrap_or(0.0);
            app.step(t, sample, cfg.utilization);
        }
        if cfg.measure_latency {
            let now = femux_obs::walltime::monotonic_micros();
            tick_wall_us.push(now.saturating_sub(t0));
            femux_obs::walltime::record_elapsed("wall.serve.tick_us", t0);
        }
    }
    let mut stats = FaultStats::default();
    let outcomes = apps
        .into_iter()
        .map(|(idx, _, app)| {
            let app_stats = app.fault_stats();
            stats.merge(&app_stats);
            (
                idx,
                AppOutcome {
                    id: app.id(),
                    blocks: app.blocks,
                    reports_lost: app.reports_lost,
                    nonfinite_samples: app.nonfinite_samples,
                    target_pod_sum: app.target_pod_sum,
                    target_pod_max: app.target_pod_max,
                    forecast_faults: app_stats.forecast_faults,
                    decisions: app.decisions,
                },
            )
        })
        .collect();
    ShardResult {
        outcomes,
        stats,
        tick_wall_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux::config::FemuxConfig;
    use femux::model::{train, ClassifierKind, TrainApp};
    use femux_trace::synth::ibm::{generate, IbmFleetConfig};

    fn model() -> Arc<FemuxModel> {
        let cfg = FemuxConfig::for_tests();
        let apps: Vec<TrainApp> = (0..4)
            .map(|i| TrainApp {
                concurrency: (0..600)
                    .map(|t| {
                        2.0 + (t as f64 * (0.2 + i as f64 * 0.1)).sin()
                    })
                    .collect(),
                exec_secs: 0.5,
                mem_gb: 0.5,
                pod_concurrency: 1,
            })
            .collect();
        Arc::new(
            train(&apps, &cfg, ClassifierKind::KMeans).expect("model"),
        )
    }

    #[test]
    fn digest_is_shard_count_invariant() {
        let trace = generate(&IbmFleetConfig::small(7));
        let model = model();
        let digests: Vec<u64> = [1usize, 2, 5]
            .iter()
            .map(|&shards| {
                let report = run(
                    &trace,
                    model.clone(),
                    &ServeConfig {
                        shards,
                        ..ServeConfig::default()
                    },
                )
                .unwrap();
                assert_eq!(report.shards, shards);
                report.digest()
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn apps_come_back_in_trace_order() {
        let trace = generate(&IbmFleetConfig::small(8));
        let report = run(
            &trace,
            model(),
            &ServeConfig {
                shards: 3,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let ids: Vec<u32> = report.apps.iter().map(|a| a.id.0).collect();
        let expected: Vec<u32> =
            trace.apps.iter().map(|a| a.id.0).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn latency_measurement_fills_per_shard_ticks() {
        let trace = generate(&IbmFleetConfig::small(9));
        let report = run(
            &trace,
            model(),
            &ServeConfig {
                shards: 2,
                measure_latency: true,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.tick_wall_us.len(), 2);
        for shard in &report.tick_wall_us {
            assert_eq!(shard.len(), report.steps);
        }
    }
}
