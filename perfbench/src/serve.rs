//! The serving phase: `femux_serve::harness::run` on one shard at the
//! paper config, as a closed loop (tick t+1 starts when tick t ends).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use femux::model::FemuxModel;
use femux_features::IncrementalExtractor;
use femux_forecast::{Forecaster, ForecasterKind};
use femux_serve::harness::{run, ServeConfig, ServeReport};
use femux_serve::{ServedApp, TraceFeed};
use femux_trace::ingest::MonotonePolicy;
use femux_trace::Trace;

use crate::fleets::{SERVE_WINDOWS, WINDOW_TICKS};
use crate::measure::{
    median, nanos_since, p50, percentile, secs_since, slow_quartile, timer_overhead_ns, Coverage,
    Metrics, Ops, Phase,
};

/// Knative's default per-pod utilization target, as the harness uses.
const UTILIZATION: f64 = 0.7;
/// Every this many ticks, each served window is also forecast by every
/// probed kind (`forecast.<kind>.us.*`).
const PROBE_EVERY: usize = 8;

/// The six paper forecasters plus the degraded-mode fallback.
pub fn probed_kinds() -> Vec<ForecasterKind> {
    let mut kinds = ForecasterKind::FEMUX_SET.to_vec();
    kinds.push(ForecasterKind::MovingAverage);
    kinds
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        measure_latency: true,
        ..ServeConfig::default()
    }
}

/// One untraced pass: the report and its wall time in seconds.
fn pass(trace: &Trace, model: &Arc<FemuxModel>) -> Result<(ServeReport, f64), String> {
    let t0 = Instant::now();
    let report = run(trace, Arc::clone(model), &serve_config())
        .map_err(|e| format!("serve ingest failed: {e:?}"))?;
    Ok((report, secs_since(t0)))
}

/// Structural checks on a pass report; the digest is compared by the
/// caller.
fn report_ok(report: &ServeReport, trace: &Trace) -> bool {
    report.shards == 1
        && report.steps == WINDOW_TICKS * SERVE_WINDOWS
        && report.apps.len() == trace.apps.len()
        && report.tick_wall_us.len() == 1
        && report.tick_wall_us[0].len() == report.steps
        && report.apps.iter().all(|a| a.blocks == SERVE_WINDOWS)
}

/// The serving phase of an untraced run. Every pass must reproduce the
/// first pass's digest.
///
/// Every pass replays the same ticks, so a tick's latency is taken as
/// its median over the kept passes: a burst of interference that slows
/// one pass's tick cannot reach the tail. `serve_tick_p50_ms`,
/// `serve_tick_p99_ms` and the window maxima are taken over every tick's
/// median, boundary ticks included.
pub struct ServePhase<'a> {
    trace: &'a Trace,
    model: &'a Arc<FemuxModel>,
    digest: Option<u64>,
    rates: Vec<f64>,
    /// Per kept pass, every tick's wall time in µs.
    ticks_us: Vec<Vec<u64>>,
}

impl<'a> ServePhase<'a> {
    pub fn new(trace: &'a Trace, model: &'a Arc<FemuxModel>) -> Self {
        ServePhase {
            trace,
            model,
            digest: None,
            rates: Vec::new(),
            ticks_us: Vec::new(),
        }
    }

    /// Each tick's median (nearest-rank) wall time over the kept
    /// passes, in µs.
    fn tick_medians(&self) -> Vec<u64> {
        let ticks = self.ticks_us.first().map_or(0, Vec::len);
        (0..ticks)
            .map(|t| p50(&mut self.ticks_us.iter().map(|pass| pass[t]).collect::<Vec<_>>()))
            .collect()
    }
}

impl Phase for ServePhase<'_> {
    fn pass(&mut self, ops: &mut Ops, keep: bool) -> Result<f64, String> {
        let (report, wall) = pass(self.trace, self.model)?;
        let first = *self.digest.get_or_insert(report.digest());
        let app_steps = (self.trace.apps.len() * report.steps) as u64;
        let ok = report_ok(&report, self.trace) && report.digest() == first;
        ops.record(app_steps, ok);
        if keep && ok {
            self.rates.push(app_steps as f64 / wall);
            self.ticks_us.extend(report.tick_wall_us);
        }
        Ok(wall)
    }

    fn report(&self, metrics: &mut Metrics) {
        let medians = self.tick_medians();
        let window_max: Vec<f64> = medians
            .chunks_exact(WINDOW_TICKS)
            .map(|w| w.iter().copied().max().unwrap_or(0) as f64)
            .collect();
        let mut sorted = medians.clone();
        sorted.sort_unstable();
        eprintln!(
            "serve: {} apps x {} ticks x {} passes; per pass steps/s {:.0?}; window maxima us {:.0?}",
            self.trace.apps.len(),
            medians.len(),
            self.rates.len(),
            self.rates,
            window_max
        );
        metrics.push(
            "serve_app_steps_per_s",
            slow_quartile(&self.rates, true),
            "1/s",
        );
        metrics.push(
            "serve_tick_p50_ms",
            percentile(&sorted, 0.5) as f64 / 1e3,
            "ms",
        );
        metrics.push(
            "serve_tick_p99_ms",
            percentile(&sorted, 0.99) as f64 / 1e3,
            "ms",
        );
        metrics.push("serve_window_max_ms", median(&window_max) / 1e3, "ms");
    }
}

/// Layer timings of the shadowed steps.
#[derive(Default)]
struct ShadowTimes {
    push_ns: Vec<u64>,
    boundary_push_ns: Vec<u64>,
    select_ns: Vec<u64>,
    forecast_ns: u64,
    blocks: u64,
    idle_blocks: u64,
}

impl ShadowTimes {
    fn total_ns(&self) -> u64 {
        self.push_ns.iter().sum::<u64>()
            + self.boundary_push_ns.iter().sum::<u64>()
            + self.select_ns.iter().sum::<u64>()
            + self.forecast_ns
    }
}

/// One app's shadow of `ServedApp`: the same layer calls on the same
/// samples in the same order, each timed on its own.
struct Shadow {
    extractor: IncrementalExtractor,
    history: VecDeque<f64>,
    kind: ForecasterKind,
    forecaster: Box<dyn Forecaster>,
    decisions: Vec<ForecasterKind>,
}

impl Shadow {
    fn new(model: &FemuxModel, exec_secs: f64) -> Self {
        let cfg = &model.cfg;
        let kind = model.default_forecaster;
        Shadow {
            extractor: IncrementalExtractor::new(cfg.block_len, exec_secs, &cfg.features),
            history: VecDeque::with_capacity(cfg.history),
            kind,
            forecaster: kind.build(),
            decisions: vec![kind],
        }
    }

    /// Mirrors `ServedApp::step` without faults: sanitize, keep the
    /// history window, push the feature extractor, classify at a block
    /// boundary, forecast one step, and size the pods. Returns the pod
    /// target (`usize::MAX` if the forecast was not finite, which the
    /// served app never emits).
    fn step(
        &mut self,
        model: &FemuxModel,
        sample: f64,
        concurrency_limit: u32,
        clock: u64,
        times: &mut ShadowTimes,
    ) -> usize {
        let history = model.cfg.history;
        let value = if sample.is_finite() {
            sample.max(0.0)
        } else {
            0.0
        };
        if self.history.len() == history {
            self.history.pop_front();
        }
        if history > 0 {
            self.history.push_back(value);
        }
        let t0 = Instant::now();
        let block = self.extractor.push(value);
        let ns = nanos_since(t0).saturating_sub(clock);
        if let Some(block) = block {
            times.boundary_push_ns.push(ns);
            let t0 = Instant::now();
            let kind = model.select_from_features(&block.features, block.idle);
            times.select_ns.push(nanos_since(t0).saturating_sub(clock));
            times.blocks += 1;
            times.idle_blocks += u64::from(block.idle);
            if kind != self.kind {
                self.kind = kind;
                self.forecaster = kind.build();
            }
            self.decisions.push(kind);
        } else {
            times.push_ns.push(ns);
        }
        let window = self.history.make_contiguous();
        let t0 = Instant::now();
        let out = self.forecaster.forecast(window, 1);
        times.forecast_ns += nanos_since(t0).saturating_sub(clock);
        let target = out.first().copied().unwrap_or(f64::NAN) / UTILIZATION;
        if !target.is_finite() {
            usize::MAX
        } else if target <= 0.0 {
            0
        } else {
            (target / concurrency_limit.max(1) as f64).ceil() as usize
        }
    }
}

/// The traced serving pass: per-layer metrics and the phase coverage.
///
/// An untraced harness pass comes first, for the decisions and the
/// recording overhead. The traced pass then drives `ServedApp::step`
/// itself with `femux_obs` recording on, timing every step (a step is a
/// boundary step when `blocks` goes up) and reading the `serve.*`
/// counters. Right after each step a shadow replays the same sample
/// through the layers' public calls (`IncrementalExtractor::push`,
/// `FemuxModel::select_from_features`, `Forecaster::forecast`) and
/// times each; interleaving keeps the steps and their parts under the
/// same machine conditions. The shadow's decisions and pod targets must
/// equal the served ones, so its timings are of exactly the work the
/// step did, and what the step spends outside them is unattributed.
pub fn traced(
    trace: &Trace,
    model: &Arc<FemuxModel>,
    metrics: &mut Metrics,
    ops: &mut Ops,
) -> Result<Coverage, String> {
    let (report, untraced_s) = pass(trace, model)?;
    let structure_ok = report_ok(&report, trace);

    let obs = femux_obs::scoped(false);
    let clock = timer_overhead_ns();
    let t0 = Instant::now();
    let feed = TraceFeed::from_trace(trace, MonotonePolicy::Reject)
        .map_err(|e| format!("serve ingest failed: {e:?}"))?;
    let ingest_s = secs_since(t0);
    let mut served: Vec<ServedApp> = feed
        .apps
        .iter()
        .map(|f| ServedApp::new(f.id, Arc::clone(model), f.exec_secs, f.concurrency_limit))
        .collect();
    let mut shadows: Vec<Shadow> = feed
        .apps
        .iter()
        .map(|f| Shadow::new(model, f.exec_secs))
        .collect();
    let kinds = probed_kinds();
    let mut times = ShadowTimes::default();
    let mut step_ns = Vec::with_capacity(feed.steps * served.len());
    let mut boundary_step_ns = Vec::new();
    let mut steps_by_kind = vec![0u64; kinds.len()];
    let mut targets_ok = vec![true; served.len()];
    for t in 0..feed.steps {
        let apps = served
            .iter_mut()
            .zip(&mut shadows)
            .zip(&feed.apps)
            .zip(&mut targets_ok);
        for (((app, shadow), f), target_ok) in apps {
            let sample = f.samples.get(t).copied().unwrap_or(0.0);
            let blocks = app.blocks;
            let s0 = Instant::now();
            let target = app.step(t, sample, UTILIZATION);
            let ns = nanos_since(s0).saturating_sub(clock);
            step_ns.push(ns);
            if app.blocks > blocks {
                boundary_step_ns.push(ns);
            }
            if let Some(k) = kinds.iter().position(|&k| k == app.current()) {
                steps_by_kind[k] += 1;
            }
            *target_ok &=
                shadow.step(model, sample, f.concurrency_limit, clock, &mut times) == target;
        }
    }
    let counters = femux_obs::collect().counters;
    drop(obs);
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let traced_s = ingest_s + step_ns.iter().sum::<u64>() as f64 / 1e9;

    // An app's steps pass when its traced decision log equals the
    // harness's and the shadow reproduced its decisions and targets.
    let apps = served
        .iter()
        .zip(&shadows)
        .zip(&report.apps)
        .zip(targets_ok);
    for (((app, shadow), outcome), target_ok) in apps {
        let ok = structure_ok
            && target_ok
            && shadow.decisions == app.decisions
            && app.decisions == outcome.decisions;
        ops.record(feed.steps as u64, ok);
    }

    let app_steps = step_ns.len() as f64;
    metrics.push("serve.step_us.p50", p50(&mut step_ns) as f64 / 1e3, "us");
    metrics.push(
        "serve.step_us.p99",
        percentile(&step_ns, 0.99) as f64 / 1e3,
        "us",
    );
    metrics.push(
        "serve.boundary_step_us.p50",
        p50(&mut boundary_step_ns) as f64 / 1e3,
        "us",
    );
    metrics.push("serve.ticks", feed.steps as f64, "count");
    metrics.push("serve.app_steps", counter("serve.forecasts"), "count");
    metrics.push(
        "serve.blocks_classified",
        counter("serve.blocks_classified"),
        "count",
    );
    metrics.push("serve.switches", counter("serve.switches"), "count");
    metrics.push(
        "serve.idle_block_share",
        times.idle_blocks as f64 / times.blocks.max(1) as f64,
        "share",
    );
    for (kind, n) in kinds.iter().zip(&steps_by_kind) {
        metrics.push(
            format!("serve.selected.{}", kind.name()),
            *n as f64 / app_steps,
            "share",
        );
    }
    metrics.push("trace.ingest_ms", ingest_s * 1e3, "ms");
    let attributed_s = ingest_s + times.total_ns() as f64 / 1e9;
    metrics.push("features.push_ns.p50", p50(&mut times.push_ns) as f64, "ns");
    metrics.push(
        "features.boundary_push_us.p50",
        p50(&mut times.boundary_push_ns) as f64 / 1e3,
        "us",
    );
    metrics.push(
        "classify.select_us.p50",
        p50(&mut times.select_ns) as f64 / 1e3,
        "us",
    );
    let probe_ns = probe_forecasters(&feed, model.cfg.history, &kinds);
    for (kind, mut samples) in kinds.iter().zip(probe_ns) {
        samples.sort_unstable();
        let name = kind.name();
        metrics.push(
            format!("forecast.{name}.us.p50"),
            percentile(&samples, 0.5) as f64 / 1e3,
            "us",
        );
        metrics.push(
            format!("forecast.{name}.us.p99"),
            percentile(&samples, 0.99) as f64 / 1e3,
            "us",
        );
    }
    Ok(Coverage {
        wall_s: traced_s,
        attributed_s,
        untraced_s,
        traced_s,
    })
}

/// Times every probed kind's `forecast(window, 1)` on the served
/// windows, every `PROBE_EVERY` ticks once the history is full. Each
/// app keeps one instance per kind, as a served app keeps its
/// forecaster.
fn probe_forecasters(feed: &TraceFeed, history: usize, kinds: &[ForecasterKind]) -> Vec<Vec<u64>> {
    let clock = timer_overhead_ns();
    let mut samples = vec![Vec::new(); kinds.len()];
    for f in &feed.apps {
        let mut probes: Vec<Box<dyn Forecaster>> = kinds.iter().map(|k| k.build()).collect();
        let mut window: VecDeque<f64> = VecDeque::with_capacity(history);
        for t in 0..feed.steps {
            let sample = f.samples.get(t).copied().unwrap_or(0.0);
            if window.len() == history {
                window.pop_front();
            }
            window.push_back(if sample.is_finite() {
                sample.max(0.0)
            } else {
                0.0
            });
            if t + 1 < history || t % PROBE_EVERY != 0 {
                continue;
            }
            let w = window.make_contiguous();
            for (probe, out) in probes.iter_mut().zip(&mut samples) {
                let t0 = Instant::now();
                std::hint::black_box(probe.forecast(w, 1));
                out.push(nanos_since(t0).saturating_sub(clock));
            }
        }
    }
    samples
}
