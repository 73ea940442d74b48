//! Seeded benchmark inputs.
//!
//! Each fleet has a fixed *design* — its generator seed, app count and
//! span are constants of the workload — and `--seed` draws the traffic
//! *realization*: every served, held-out and replayed app's timeline is
//! rotated by its own seeded offset (invocations wrap around the span,
//! minute counts rotate). Rotation keeps each app's arrival process,
//! volume and memory, and moves where block boundaries, bursts and idle
//! stretches fall, so two seeds give the controller and the simulator
//! different inputs over the same population. Drawing a fresh population
//! per seed instead makes a heavy-tailed fleet's volume, and with it
//! every per-invocation rate, swing several-fold between seeds.
//!
//! Training fleets are not rotated: like a deployed model, the models
//! are trained once on fixed data and the seed varies the traffic they
//! decide on. A per-seed model would change which forecasters serve,
//! and with them the cost of every step, by more than any code change
//! the benchmark is meant to resolve.

use femux::config::FemuxConfig;
use femux::model::TrainApp;
use femux_serve::TraceFeed;
use femux_trace::ingest::MonotonePolicy;
use femux_trace::split::train_test_split;
use femux_trace::synth::azure::{self, AzureFleetConfig};
use femux_trace::synth::ibm::{self, IbmFleetConfig};
use femux_trace::Trace;

/// Ticks per serving window: one paper block (504 minutes).
pub const WINDOW_TICKS: usize = 504;
/// Serving windows per pass; the synchronized block boundaries land at
/// the last tick of each.
pub const SERVE_WINDOWS: usize = 3;

const MS_PER_MIN: u64 = 60_000;

const SERVE_DESIGN: u64 = 0x5E47E;
const SERVE_TRAIN_DESIGN: u64 = 0x7EA1;
const AZURE_DESIGN: u64 = 0xA2E_5EED;
const AZURE_SPLIT: u64 = 0x5917;
const SIM_DESIGN: u64 = 77;

/// Fleet sizes for one workload: its own phase at full size, the other
/// two at probe size.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Apps served per serving pass.
    pub serve_apps: usize,
    /// Azure-like apps before the 70/30 split.
    pub azure_apps: usize,
    /// IBM-like apps replayed per simulator pass.
    pub sim_apps: usize,
}

/// IBM-like apps the serving model is trained on (two days, so every
/// app yields five paper blocks).
const SERVE_TRAIN_APPS: usize = 12;
const SERVE_TRAIN_DAYS: u64 = 2;
/// Azure-like trace span: five paper blocks per app after the history.
const AZURE_DAYS: usize = 2;
const SIM_DAYS: u64 = 3;

/// splitmix64: independent per-purpose streams from one `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rotates every app's invocations by a seeded whole-minute offset
/// (wrapping at the span) and restores arrival order.
fn rotate_trace(trace: &mut Trace, seed: u64) {
    let minutes = (trace.span_ms / MS_PER_MIN).max(1);
    for (i, app) in trace.apps.iter_mut().enumerate() {
        let shift = (mix(seed, i as u64) % minutes) * MS_PER_MIN;
        for inv in &mut app.invocations {
            inv.start_ms = (inv.start_ms + shift) % trace.span_ms;
        }
        app.sort();
    }
}

/// A dense IBM-like fleet (the `perf_record` / `serve_capacity`
/// density).
fn ibm_fleet(design: u64, n_apps: usize, days: u64) -> Trace {
    ibm::generate(&IbmFleetConfig {
        n_apps,
        span_days: days,
        seed: design,
        max_invocations_per_app: 20_000,
        rate_scale: 0.05,
    })
}

/// Everything a workload runs on, built in set-up.
pub struct Inputs {
    /// Serving fleet, cut to `SERVE_WINDOWS` windows of virtual minutes.
    pub serve: Trace,
    /// The serving model's training apps.
    pub serve_train: Vec<TrainApp>,
    /// Train-and-evaluate training apps (the 70 % side of the split).
    pub azure_train: Vec<TrainApp>,
    /// Held-out apps (the 30 % side) as a millisecond trace.
    pub azure_test: Trace,
    /// Per-minute concurrency of the held-out apps, aligned with
    /// `azure_test.apps`.
    pub azure_test_series: Vec<Vec<f64>>,
    /// Simulator fleet.
    pub sim: Trace,
}

fn azure_train_app(app: &azure::AzureApp) -> TrainApp {
    TrainApp {
        concurrency: app.concurrency_series(),
        exec_secs: app.daily_avg_exec_ms.first().copied().unwrap_or(1_000.0) / 1_000.0,
        mem_gb: app.mem_mb as f64 / 1_024.0,
        pod_concurrency: 1,
    }
}

/// Builds every input of a workload from `seed`.
pub fn synthesize(sizes: &Sizes, seed: u64) -> Result<Inputs, String> {
    let minutes = (WINDOW_TICKS * SERVE_WINDOWS) as u64;
    let mut serve = ibm_fleet(SERVE_DESIGN, sizes.serve_apps, 2);
    rotate_trace(&mut serve, mix(seed, 1));
    let span_ms = minutes * MS_PER_MIN;
    for app in &mut serve.apps {
        app.invocations.retain(|inv| inv.start_ms < span_ms);
    }
    serve.span_ms = span_ms;

    let train_trace = ibm_fleet(SERVE_TRAIN_DESIGN, SERVE_TRAIN_APPS, SERVE_TRAIN_DAYS);
    let feed = TraceFeed::from_trace(&train_trace, MonotonePolicy::Reject)
        .map_err(|e| format!("serving-model fleet ingest: {e:?}"))?;
    let serve_train = feed
        .apps
        .iter()
        .zip(&train_trace.apps)
        .map(|(f, rec)| TrainApp {
            concurrency: f.samples.clone(),
            exec_secs: f.exec_secs,
            mem_gb: rec.mem_used_mb as f64 / 1_024.0,
            pod_concurrency: f.concurrency_limit,
        })
        .collect();

    let mut fleet = azure::generate(&AzureFleetConfig {
        n_apps: sizes.azure_apps,
        days: AZURE_DAYS,
        seed: AZURE_DESIGN,
        rate_scale: 0.5,
    });
    let split = train_test_split(fleet.apps.len(), AZURE_SPLIT);
    let rotation = mix(seed, 3);
    for &i in &split.test {
        let counts = &mut fleet.apps[i].minute_counts;
        let shift = mix(rotation, i as u64) % counts.len().max(1) as u64;
        counts.rotate_right(shift as usize);
    }
    let azure_train = split
        .train
        .iter()
        .chain(&split.validation)
        .map(|&i| azure_train_app(&fleet.apps[i]))
        .collect();
    let full = fleet.to_trace();
    let mut azure_test = Trace::new(full.span_ms);
    let mut azure_test_series = Vec::with_capacity(split.test.len());
    for &i in &split.test {
        azure_test.apps.push(full.apps[i].clone());
        azure_test_series.push(fleet.apps[i].concurrency_series());
    }

    let mut sim = ibm_fleet(SIM_DESIGN, sizes.sim_apps, SIM_DAYS);
    rotate_trace(&mut sim, mix(seed, 4));
    Ok(Inputs {
        serve,
        serve_train,
        azure_train,
        azure_test,
        azure_test_series,
        sim,
    })
}

/// The paper configuration every number here is quoted at: 504-minute
/// blocks, a 120-minute history and the six-forecaster set. Refuses to
/// run at anything else (for example `FemuxConfig::for_tests()`).
pub fn paper_config() -> Result<FemuxConfig, String> {
    let cfg = FemuxConfig::default();
    let six = femux_forecast::ForecasterKind::FEMUX_SET;
    if cfg.block_len != WINDOW_TICKS || cfg.history != 120 || cfg.forecasters != six {
        return Err(format!(
            "FemuxConfig::default() is no longer the paper config: block_len {}, history {}, \
             forecasters {:?}",
            cfg.block_len, cfg.history, cfg.forecasters
        ));
    }
    Ok(cfg)
}

/// One-line description of the configuration, echoed on stderr.
pub fn describe(cfg: &FemuxConfig) -> String {
    let kinds: Vec<&str> = cfg.forecasters.iter().map(|k| k.name()).collect();
    format!(
        "paper config: block_len {} min, history {} min, forecasters [{}], label_stride {}",
        cfg.block_len,
        cfg.history,
        kinds.join(", "),
        cfg.label_stride
    )
}
