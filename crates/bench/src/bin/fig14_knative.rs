//! Fig. 14 — The Knative prototype evaluation (§5.2).
//!
//! Left: the 100-app evaluation subtrace's volume distribution follows
//! the full fleet's. Mid-left: per-app cold-start percentage, FeMux vs
//! Knative's default KPA (paper: >50 % reduction for over 25 % of apps).
//! Mid-right: aggregate RUM (paper: −36 %). Right: the FeMux pod's
//! serving cost (paper: 1,200 apps per 1-vCPU pod at 7 ms mean / 25 ms
//! p99 per forecast), measured with `femux_serve::run` — the full
//! per-app pipeline (ingest, incremental features, block-boundary
//! classification, forecast, pod target) at the paper's config — on 1
//! and 2 shards, one shard per thread ≈ one vCPU. Every tick is timed,
//! boundary ticks included; the implied apps per vCPU is how many apps
//! the costliest shard's worst tick would fit into a 60 s tick.

use std::sync::Arc;

use femux::config::FemuxConfig;
use femux_bench::table::{delta_pct, f1, pct, print_series, print_table};
use femux_bench::{azure_setup, Scale};
use femux_knative::{FemuxKnativePolicy, KpaConfig, KpaPolicy};
use femux_rum::RumSpec;
use femux_serve::{shard_of, ServeConfig};
use femux_sim::{run_fleet_auto, SimConfig};
use femux_stats::desc::Summary;
use femux_trace::ops::clip_window;
use femux_trace::split::representative_sample;
use femux_trace::Trace;

fn main() {
    let _obs = femux_bench::obs::session();
    let scale = Scale::from_env();
    let setup = azure_setup(scale);
    let full = setup.fleet.to_trace();

    // --- Left: representative 100-app subtrace. ---
    let volumes: Vec<u64> = setup
        .fleet
        .apps
        .iter()
        .map(|a| a.total_invocations())
        .collect();
    let k = 100.min(volumes.len());
    let chosen = representative_sample(&volumes, k, 0xF1614);
    let mut sub = Trace::new(full.span_ms);
    for &i in &chosen {
        sub.apps.push(full.apps[i].clone());
    }
    let mut full_sorted: Vec<f64> =
        volumes.iter().map(|&v| v as f64).collect();
    full_sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut sub_sorted: Vec<f64> = chosen
        .iter()
        .map(|&i| volumes[i] as f64)
        .collect();
    sub_sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let deciles: Vec<(f64, f64)> = (1..10)
        .map(|d| {
            let q = d as f64 / 10.0;
            (
                femux_stats::desc::quantile_sorted(&full_sorted, q),
                femux_stats::desc::quantile_sorted(&sub_sorted, q),
            )
        })
        .collect();
    print_series(
        "Fig. 14-Left — volume deciles (x = full fleet, y = subtrace)",
        &deciles,
    );

    // --- Mid panels: FeMux vs KPA on the subtrace at 2 s ticks. ---
    eprintln!("training FeMux...");
    let model = setup.train_femux(&setup.femux_config());
    let sim_cfg = SimConfig {
        interval_ms: 2_000,
        respect_min_scale: false,
        ..SimConfig::default()
    };
    eprintln!("replaying subtrace under KPA...");
    let kpa_out = run_fleet_auto(&sub, &sim_cfg, |_, _| {
        Box::new(KpaPolicy::new(KpaConfig::default()))
    });
    eprintln!("replaying subtrace under FeMux...");
    let femux_out = run_fleet_auto(&sub, &sim_cfg, |_, app| {
        Box::new(FemuxKnativePolicy::new(
            Arc::clone(&model),
            app.invocations
                .first()
                .map(|i| i.duration_ms as f64 / 1_000.0)
                .unwrap_or(1.0),
        ))
    });
    // Per-app cold-start fraction comparison.
    let mut halved = 0usize;
    let mut improved = 0usize;
    let mut active = 0usize;
    let mut cdf_points = Vec::new();
    for (f, k) in femux_out.per_app.iter().zip(&kpa_out.per_app) {
        if k.invocations == 0 {
            continue;
        }
        active += 1;
        let (ff, kf) =
            (f.cold_start_fraction(), k.cold_start_fraction());
        if ff <= kf {
            improved += 1;
        }
        if kf > 0.0 && ff <= 0.5 * kf {
            halved += 1;
        }
        cdf_points.push(if kf > 0.0 { ff / kf } else { 1.0 });
    }
    let ecdf = femux_stats::desc::Ecdf::new(&cdf_points);
    let xs: Vec<f64> = (0..=20).map(|i| i as f64 / 10.0).collect();
    print_series(
        "Fig. 14-MidLeft — CDF of (FeMux CS% / Knative CS%) per app",
        &ecdf.curve(&xs),
    );

    let rum = RumSpec::default_paper();
    let femux_rum = rum.evaluate_fleet(&femux_out.per_app);
    let kpa_rum = rum.evaluate_fleet(&kpa_out.per_app);
    print_table(
        "Fig. 14-Mid — summary (paper: CS% halved for >25% of apps; \
         aggregate RUM -36%)",
        &["metric", "value"],
        &[
            vec![
                "apps with CS% halved".into(),
                pct(halved as f64 / active.max(1) as f64),
            ],
            vec![
                "apps with CS% maintained or improved".into(),
                pct(improved as f64 / active.max(1) as f64),
            ],
            vec!["femux RUM".into(), f1(femux_rum)],
            vec!["knative default RUM".into(), f1(kpa_rum)],
            vec![
                "RUM change".into(),
                delta_pct(femux_rum, kpa_rum),
            ],
            vec![
                "femux cold starts".into(),
                femux_out.total.cold_starts.to_string(),
            ],
            vec![
                "knative cold starts".into(),
                kpa_out.total.cold_starts.to_string(),
            ],
        ],
    );

    // --- Right: FeMux serving cost at the paper config (wall clock). ---
    let paper = FemuxConfig::default();
    // Medium and large scale already train at the paper's config.
    let serve_model = match scale {
        Scale::Small => {
            eprintln!("training FeMux at the paper config...");
            setup.train_femux(&paper)
        }
        _ => Arc::clone(&model),
    };
    // History warm-up plus one full block, so the served window holds
    // a block boundary: every app classifies on the same tick.
    let ticks = paper.history + paper.block_len;
    let live = clip_window(&full, 0, ticks as u64 * 60_000);
    let mut digests = Vec::new();
    let mut rows = Vec::new();
    for shards in [1usize, 2] {
        eprintln!(
            "serving {} apps on {shards} shard(s)...",
            live.apps.len()
        );
        let report = femux_serve::run(
            &live,
            Arc::clone(&serve_model),
            &ServeConfig {
                shards,
                measure_latency: true,
                ..ServeConfig::default()
            },
        )
        .expect("synthetic traces are time-sorted");
        digests.push(report.digest());
        let mut apps_on = vec![0usize; shards];
        for app in &report.apps {
            apps_on[shard_of(app.id, shards)] += 1;
        }
        // The costliest shard's worst tick, per app it serves.
        let worst_us_per_app = report
            .tick_wall_us
            .iter()
            .zip(&apps_on)
            .map(|(shard_ticks, &apps)| {
                shard_ticks.iter().copied().max().unwrap_or(0) as f64
                    / apps.max(1) as f64
            })
            .fold(0.0, f64::max);
        let ticks_ms: Vec<f64> = report
            .tick_wall_us
            .iter()
            .flatten()
            .map(|&us| us as f64 / 1_000.0)
            .collect();
        let tick =
            Summary::of(&ticks_ms).expect("served at least one tick");
        let wall_us: u64 = report.tick_wall_us.iter().flatten().sum();
        let app_steps = report.apps.len() * report.steps;
        rows.push(vec![
            shards.to_string(),
            apps_on.iter().max().copied().unwrap_or(0).to_string(),
            f1(tick.p50),
            f1(tick.p99),
            f1(tick.max),
            f1(wall_us as f64 / app_steps.max(1) as f64),
            format!("{:.0}", 60e6 / worst_us_per_app.max(1e-9)),
            format!("{:016x}", report.digest()),
        ]);
    }
    assert_eq!(
        digests[0], digests[1],
        "serving decisions must not depend on the shard count"
    );
    let kinds: Vec<&str> =
        paper.forecasters.iter().map(|k| k.name()).collect();
    print_table(
        &format!(
            "Fig. 14-Right — FeMux serving cost, femux-serve at the paper \
             config (block {} min, history {} min, forecasters {}; {} apps \
             x {ticks} ticks, every tick timed incl. the block boundary; \
             paper: 1,200 apps per 1-vCPU pod at 7 ms mean / 25 ms p99 per \
             forecast)",
            paper.block_len,
            paper.history,
            kinds.join("/"),
            live.apps.len(),
        ),
        &[
            "shards",
            "apps/shard",
            "tick p50 ms",
            "tick p99 ms",
            "tick max ms",
            "us/app-step",
            "apps/vCPU @ 60 s",
            "digest",
        ],
        &rows,
    );
}
