//! The repository benchmark: three workloads over the FeMux crates'
//! public functions, one JSON result line per run. See README.md.
//!
//! Usage: `femux-perfbench --workload <serve-paper|train-eval-azure|sim-ibm>
//! --seed <n> --seconds <s> --trace <0|1>`

mod fleets;
mod measure;
mod serve;
mod sim;
mod train_eval;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use femux::config::FemuxConfig;
use femux::model::FemuxModel;

use fleets::{Inputs, Sizes};
use measure::{median, secs_since, Coverage, Metrics, Ops, Phase};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Share of `--seconds` the workload's own phase measures for; the two
/// other phases get `(1 - PRIMARY_SHARE) / 2` each.
const PRIMARY_SHARE: f64 = 0.6;
/// Passes every phase runs at least: one warm-up, whose timings are
/// dropped, then enough for a quartile to have passes on both sides.
const MIN_PASSES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    Serve,
    TrainEval,
    Sim,
}

struct Workload {
    name: &'static str,
    primary: PhaseKind,
    sizes: Sizes,
}

/// Every workload runs all three phases, so every run reports every
/// metric; its own phase runs at full size and gets most of the time.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-paper",
        primary: PhaseKind::Serve,
        sizes: Sizes {
            serve_apps: 50,
            azure_apps: 20,
            sim_apps: 40,
        },
    },
    Workload {
        name: "train-eval-azure",
        primary: PhaseKind::TrainEval,
        sizes: Sizes {
            serve_apps: 24,
            azure_apps: 40,
            sim_apps: 40,
        },
    },
    Workload {
        name: "sim-ibm",
        primary: PhaseKind::Sim,
        sizes: Sizes {
            serve_apps: 24,
            azure_apps: 20,
            sim_apps: 240,
        },
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One set-up: synthesize every fleet, then train the serving model.
struct Setup {
    inputs: Inputs,
    model: Arc<FemuxModel>,
    synth_s: f64,
    train_s: f64,
}

fn setup(sizes: &Sizes, seed: u64, cfg: &FemuxConfig) -> Result<Setup, String> {
    let t0 = Instant::now();
    let inputs = fleets::synthesize(sizes, seed)?;
    let synth_s = secs_since(t0);
    let t1 = Instant::now();
    let model = Arc::new(train_eval::train(&inputs.serve_train, cfg)?);
    Ok(Setup {
        inputs,
        model,
        synth_s,
        train_s: secs_since(t1),
    })
}

/// Everything a model decides with (its training-time wall clocks
/// excluded), printed exactly.
fn model_fingerprint(m: &FemuxModel) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {}",
        m.scaler, m.classifier, m.default_forecaster, m.stats.forecaster_totals, m.stats.n_blocks
    )
}

/// Runs passes until `seconds` are spent and every phase has run
/// `MIN_PASSES`, always picking the phase furthest behind its share of
/// the time. The phases' passes interleave, so a slow or fast stretch
/// of the host lands on all of them rather than on one.
fn interleave(
    phases: &mut [(&mut dyn Phase, f64)],
    seconds: f64,
    ops: &mut Ops,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut spent = vec![0.0f64; phases.len()];
    let mut passes = vec![0usize; phases.len()];
    loop {
        let over = secs_since(t0) >= seconds;
        let next = (0..phases.len())
            .filter(|&i| !over || passes[i] < MIN_PASSES)
            .min_by(|&a, &b| (spent[a] / phases[a].1).total_cmp(&(spent[b] / phases[b].1)));
        let Some(i) = next else { return Ok(()) };
        spent[i] += phases[i].0.pass(ops, passes[i] > 0)?;
        passes[i] += 1;
    }
}

/// The end-to-end metrics of an untraced run.
fn run_untraced(args: &Args, cfg: &FemuxConfig, ops: &mut Ops) -> Result<Metrics, String> {
    let w = args.workload;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let first = setup(&w.sizes, args.seed, cfg)?;
    setup_s.push(first.synth_s + first.train_s);
    let model_repr = model_fingerprint(&first.model);
    let mut deterministic = true;
    for _ in 1..SETUP_REPEATS {
        let again = setup(&w.sizes, args.seed, cfg)?;
        setup_s.push(again.synth_s + again.train_s);
        deterministic &= model_fingerprint(&again.model) == model_repr
            && again.inputs.serve == first.inputs.serve
            && again.inputs.sim == first.inputs.sim
            && again.inputs.azure_test == first.inputs.azure_test;
    }
    eprintln!("setup: {SETUP_REPEATS} set-ups, s {setup_s:.3?}");
    let inputs = &first.inputs;
    let mut serve = serve::ServePhase::new(&inputs.serve, &first.model);
    let mut train_eval = train_eval::TrainEvalPhase::new(inputs, cfg);
    let mut sim = sim::SimPhase::new(&inputs.sim, args.seed);
    let share = |phase: PhaseKind| {
        if phase == w.primary {
            PRIMARY_SHARE
        } else {
            (1.0 - PRIMARY_SHARE) / 2.0
        }
    };
    let mut phases: [(&mut dyn Phase, f64); 3] = [
        (&mut serve, share(PhaseKind::Serve)),
        (&mut train_eval, share(PhaseKind::TrainEval)),
        (&mut sim, share(PhaseKind::Sim)),
    ];
    interleave(&mut phases, args.seconds, ops)?;
    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&setup_s), "s");
    for (phase, _) in &phases {
        phase.report(&mut metrics);
    }
    metrics.push("peak_rss_mb", measure::peak_rss_mb()?, "MB");
    if !deterministic {
        eprintln!("set-up is not deterministic: repeated set-ups differ");
        ops.failed = ops.attempted;
    }
    Ok(metrics)
}

/// The per-layer metrics of a traced run, with the share of its wall
/// time no layer metric accounts for.
fn run_traced(args: &Args, cfg: &FemuxConfig, ops: &mut Ops) -> Result<Metrics, String> {
    let s = setup(&args.workload.sizes, args.seed, cfg)?;
    let mut metrics = Metrics::default();
    metrics.push("trace.synth_s", s.synth_s, "s");
    metrics.push("core.setup_train_s", s.train_s, "s");
    let setup_wall = Coverage {
        wall_s: s.synth_s + s.train_s,
        attributed_s: s.synth_s + s.train_s,
        ..Coverage::default()
    };
    let phases = [
        (
            "serve",
            serve::traced(&s.inputs.serve, &s.model, &mut metrics, ops)?,
        ),
        (
            "train-eval",
            train_eval::traced(&s.inputs, cfg, &mut metrics, ops)?,
        ),
        (
            "sim",
            sim::traced(&s.inputs.sim, args.seed, &mut metrics, ops)?,
        ),
    ];
    let mut wall = setup_wall.wall_s;
    let mut attributed = setup_wall.attributed_s;
    let mut untraced = 0.0;
    let mut traced = 0.0;
    eprintln!("attribution per phase (wall s, attributed s, unattributed share):");
    eprintln!(
        "  setup       {:>9.3} {:>9.3} {:>7.4}",
        setup_wall.wall_s, setup_wall.attributed_s, 0.0
    );
    for (name, c) in &phases {
        eprintln!(
            "  {name:<11} {:>9.3} {:>9.3} {:>7.4}",
            c.wall_s,
            c.attributed_s,
            1.0 - c.attributed_s / c.wall_s
        );
        wall += c.wall_s;
        attributed += c.attributed_s;
        untraced += c.untraced_s;
        traced += c.traced_s;
    }
    let unattributed = 1.0 - attributed / wall;
    eprintln!(
        "  {} unattributed share {:.4} (target < 0.10)",
        args.workload.name, unattributed
    );
    metrics.push("obs.tracing_overhead", traced / untraced, "ratio");
    metrics.push("obs.unattributed_share", unattributed, "share");
    report_forecast_latency(&metrics);
    Ok(metrics)
}

/// Prints per-forecast latency beside §5.2's 7 ms mean / 25 ms p99.
fn report_forecast_latency(metrics: &Metrics) {
    eprintln!("per-forecast latency (paper §5.2: 7 ms mean, 25 ms p99):");
    for kind in serve::probed_kinds() {
        let name = kind.name();
        let p50 = metrics
            .get(&format!("forecast.{name}.us.p50"))
            .unwrap_or(f64::NAN);
        let p99 = metrics
            .get(&format!("forecast.{name}.us.p99"))
            .unwrap_or(f64::NAN);
        eprintln!(
            "  {name:<15} p50 {:>9.3} ms  p99 {:>9.3} ms",
            p50 / 1e3,
            p99 / 1e3
        );
    }
}

fn run() -> Result<(Ops, Metrics), String> {
    let args = parse_args()?;
    let cfg = fleets::paper_config()?;
    eprintln!(
        "workload {} seed {} seconds {} trace {}; {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fleets::describe(&cfg)
    );
    // One thread: load comes from this process alone, and serving runs
    // on a single shard.
    let _threads = femux_par::override_threads(1);
    let mut ops = Ops::default();
    let metrics = if args.trace {
        run_traced(&args, &cfg, &mut ops)?
    } else {
        run_untraced(&args, &cfg, &mut ops)?
    };
    if let Some(m) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    Ok((ops, metrics))
}

fn main() -> ExitCode {
    match run() {
        Ok((ops, metrics)) => {
            println!("{}", measure::result_line(ops, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("femux-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
