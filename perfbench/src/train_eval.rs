//! The train-and-evaluate phase: the fig11 core at the paper config.
//! Train with `label_fleet` then `train_from_labels`; evaluate by
//! replaying the held-out apps through `run_fleet_auto` under
//! `FemuxPolicy`.

use std::sync::Arc;
use std::time::Instant;

use femux::config::FemuxConfig;
use femux::label::strided_forecast;
use femux::manager::{AppManager, FemuxPolicy};
use femux::model::{
    label_fleet, train_from_labels, ClassifierKind, FemuxModel, LabelledBlocks, TrainApp,
};
use femux_classify::{KMeans, StandardScaler};
use femux_rum::RumSpec;
use femux_sim::{run_fleet_auto, FleetOutcome, KeepAlivePolicy, SimConfig};
use femux_trace::{AppRecord, Trace};

use crate::fleets::Inputs;
use crate::measure::{
    nanos_since, p50, secs_since, slow_quartile, timer_overhead_ns, Coverage, Metrics, Ops, Phase,
};

/// fig11's replay setting: no min-scale floor, 808 ms cold starts.
fn sim_config() -> SimConfig {
    SimConfig {
        respect_min_scale: false,
        ..SimConfig::default()
    }
}

/// An app's execution time as `FemuxPolicy` is given it in fig11.
fn exec_secs(app: &AppRecord) -> f64 {
    app.invocations
        .first()
        .map(|i| i.duration_ms as f64 / 1_000.0)
        .unwrap_or(1.0)
}

/// Trains a model: `label_fleet` then `train_from_labels` (k-means).
pub fn train(apps: &[TrainApp], cfg: &FemuxConfig) -> Result<FemuxModel, String> {
    let labelled = label_fleet(apps, cfg);
    train_from_labels(&labelled, cfg, ClassifierKind::KMeans)
        .ok_or_else(|| "training fleet yielded no blocks".to_string())
}

fn replay_femux(test: &Trace, model: &Arc<FemuxModel>) -> FleetOutcome {
    run_fleet_auto(test, &sim_config(), |_, app| {
        Box::new(FemuxPolicy::new(Arc::clone(model), exec_secs(app)))
    })
}

struct Pass {
    label_s: f64,
    fit_s: f64,
    replay_s: f64,
    invocations: u64,
    rum: f64,
    ok: bool,
    model: Arc<FemuxModel>,
    labelled: LabelledBlocks,
}

fn pass(inputs: &Inputs, cfg: &FemuxConfig) -> Result<Pass, String> {
    let t0 = Instant::now();
    let labelled = label_fleet(&inputs.azure_train, cfg);
    let label_s = secs_since(t0);
    let t1 = Instant::now();
    let model = train_from_labels(&labelled, cfg, ClassifierKind::KMeans)
        .ok_or("training fleet yielded no blocks")?;
    let fit_s = secs_since(t1);
    let model = Arc::new(model);
    let t2 = Instant::now();
    let out = replay_femux(&inputs.azure_test, &model);
    let replay_s = secs_since(t2);
    let rum = RumSpec::default_paper().evaluate_fleet(&out.per_app);
    let ok = rum.is_finite()
        && out.per_app.len() == inputs.azure_test.apps.len()
        && out.total.invocations == inputs.azure_test.total_invocations();
    Ok(Pass {
        label_s,
        fit_s,
        replay_s,
        invocations: out.total.invocations,
        rum,
        ok,
        model,
        labelled,
    })
}

/// The train-and-evaluate phase of an untraced run. The fleet RUM must
/// be finite and bit-identical on every pass.
pub struct TrainEvalPhase<'a> {
    inputs: &'a Inputs,
    cfg: &'a FemuxConfig,
    rum: Option<f64>,
    train_s: Vec<f64>,
    rates: Vec<f64>,
}

impl<'a> TrainEvalPhase<'a> {
    pub fn new(inputs: &'a Inputs, cfg: &'a FemuxConfig) -> Self {
        TrainEvalPhase {
            inputs,
            cfg,
            rum: None,
            train_s: Vec::new(),
            rates: Vec::new(),
        }
    }
}

impl Phase for TrainEvalPhase<'_> {
    fn pass(&mut self, ops: &mut Ops, keep: bool) -> Result<f64, String> {
        let p = pass(self.inputs, self.cfg)?;
        let first = *self.rum.get_or_insert(p.rum);
        ops.record(
            self.inputs.azure_test.apps.len() as u64,
            p.ok && p.rum.to_bits() == first.to_bits(),
        );
        if !keep {
            return Ok(p.label_s + p.fit_s + p.replay_s);
        }
        self.train_s.push(p.label_s + p.fit_s);
        self.rates.push(p.invocations as f64 / p.replay_s);
        Ok(p.label_s + p.fit_s + p.replay_s)
    }

    fn report(&self, metrics: &mut Metrics) {
        eprintln!(
            "train-eval: {} training apps, {} held-out apps, {} passes; per pass: train s {:.3?}, \
             eval inv/s {:.0?}",
            self.inputs.azure_train.len(),
            self.inputs.azure_test.apps.len(),
            self.train_s.len(),
            self.train_s,
            self.rates
        );
        metrics.push("train_s", slow_quartile(&self.train_s, false), "s");
        metrics.push("eval_inv_per_s", slow_quartile(&self.rates, true), "1/s");
        metrics.push("rum", self.rum.unwrap_or(f64::NAN), "rum");
    }
}

/// The traced train-and-evaluate pass.
///
/// The untraced pass gives the wall time to attribute
/// (`core.label_fleet_s` + `train_from_labels` + `sim.femux_replay_s`);
/// `train_from_labels` is then decomposed by calling its stages
/// (`extract_all`, `StandardScaler::fit`, `KMeans::fit`) on the same
/// labelled blocks. `core.strided_forecast_s.<kind>` splits labelling
/// by forecaster, `sim.keepalive_replay_s` is the engine-only cost of
/// the same replay, and `core.manager_step_us.p50` times one
/// `AppManager::observe` + `forecast(1)` on the held-out series.
pub fn traced(
    inputs: &Inputs,
    cfg: &FemuxConfig,
    metrics: &mut Metrics,
    ops: &mut Ops,
) -> Result<Coverage, String> {
    let held_out = inputs.azure_test.apps.len() as u64;
    let untraced = pass(inputs, cfg)?;
    let wall_s = untraced.label_s + untraced.fit_s + untraced.replay_s;

    let obs = femux_obs::scoped(false);
    let traced = pass(inputs, cfg)?;
    drop(obs);
    let traced_s = traced.label_s + traced.fit_s + traced.replay_s;

    let t0 = Instant::now();
    let rows = femux_features::extract_all(&untraced.labelled.blocks, &cfg.features);
    let extract_s = secs_since(t0);
    let t0 = Instant::now();
    let scaler = StandardScaler::fit(&rows);
    let scaler_s = secs_since(t0);
    let scaled = scaler.transform(&rows);
    let t0 = Instant::now();
    let kmeans = KMeans::fit(&scaled, &cfg.kmeans);
    let kmeans_s = secs_since(t0);
    std::hint::black_box(kmeans);

    for &kind in &cfg.forecasters {
        let t0 = Instant::now();
        for app in &inputs.azure_train {
            std::hint::black_box(strided_forecast(
                kind,
                &app.concurrency,
                cfg.history,
                cfg.label_stride,
            ));
        }
        metrics.push(
            format!("core.strided_forecast_s.{}", kind.name()),
            secs_since(t0),
            "s",
        );
    }

    let model = untraced.model;
    let t0 = Instant::now();
    let keepalive = run_fleet_auto(&inputs.azure_test, &sim_config(), |_, _| {
        Box::new(KeepAlivePolicy::ten_minutes())
    });
    let keepalive_s = secs_since(t0);
    ops.record(
        held_out,
        untraced.ok
            && traced.ok
            && untraced.rum.to_bits() == traced.rum.to_bits()
            && keepalive.total.invocations == inputs.azure_test.total_invocations(),
    );

    let clock = timer_overhead_ns();
    let mut step_ns = Vec::new();
    for (series, app) in inputs.azure_test_series.iter().zip(&inputs.azure_test.apps) {
        let mut manager = AppManager::new(Arc::clone(&model), exec_secs(app));
        for &v in series {
            let t0 = Instant::now();
            manager.observe(v);
            std::hint::black_box(manager.forecast(1));
            step_ns.push(nanos_since(t0).saturating_sub(clock));
        }
    }

    metrics.push("core.label_fleet_s", untraced.label_s, "s");
    metrics.push("features.extract_all_ms", extract_s * 1e3, "ms");
    metrics.push("classify.scaler_fit_ms", scaler_s * 1e3, "ms");
    metrics.push("classify.kmeans_fit_ms", kmeans_s * 1e3, "ms");
    metrics.push(
        "core.manager_step_us.p50",
        p50(&mut step_ns) as f64 / 1e3,
        "us",
    );
    metrics.push("sim.femux_replay_s", untraced.replay_s, "s");
    metrics.push("sim.keepalive_replay_s", keepalive_s, "s");
    Ok(Coverage {
        wall_s,
        attributed_s: untraced.label_s + extract_s + scaler_s + kmeans_s + untraced.replay_s,
        untraced_s: wall_s,
        traced_s,
    })
}
