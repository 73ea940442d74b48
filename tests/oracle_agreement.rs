//! Tier-1 gate: the production engine must agree with the
//! per-millisecond reference oracle on every observable, to exact
//! `f64` equality, across seeded synthetic IBM/Azure apps, the
//! adversarial battery, five policies, and both evaluation intervals —
//! and the sweep's rendered report must be byte-identical at 1 and 8
//! worker threads. One input runs keep-alive behind
//! [`femux_sim::PerTick`], so the engine's idle stretches advance in
//! one-tick runs and that path is checked against the reference too.

use femux_oracle::{
    compare_results, reference_simulate, run_sweep, PolicyKind,
    SweepConfig,
};
use femux_sim::{
    simulate_app_with_stats, PerTick, ScalingPolicy, SimConfig,
};
use femux_trace::synth::ibm::{generate, IbmFleetConfig};

#[test]
fn quick_sweep_reports_exact_agreement() {
    let report = run_sweep(&SweepConfig::quick(0xF30A));
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.cases >= 100, "sweep ran only {} cases", report.cases);
    assert!(
        report.invariant_checks >= 3 * report.cases,
        "only {} invariant checks over {} cases",
        report.invariant_checks,
        report.cases,
    );
}

#[test]
fn sweep_report_is_thread_count_invariant() {
    let cfg = SweepConfig::quick(0xF31B);
    let one = {
        let _guard = femux_par::override_threads(1);
        run_sweep(&cfg).render()
    };
    let eight = {
        let _guard = femux_par::override_threads(8);
        run_sweep(&cfg).render()
    };
    assert_eq!(one, eight, "report differs across thread counts");
}

#[test]
fn seeded_ibm_apps_agree_under_every_policy_and_interval() {
    // Direct agreement outside the sweep harness: first ten non-empty
    // apps of a seeded fleet, five policies plus keep-alive with its
    // idle fast path hidden behind `PerTick`, both intervals.
    let trace = generate(&IbmFleetConfig::small(0xF32C));
    let apps: Vec<_> = trace
        .apps
        .iter()
        .filter(|a| !a.invocations.is_empty())
        .take(10)
        .collect();
    assert!(apps.len() >= 5, "seeded fleet too sparse");
    let span_ms = 125_000;
    let inputs = PolicyKind::ALL
        .iter()
        .map(|&policy| (policy, false))
        .chain([(PolicyKind::KeepAlive, true)]);
    let mut one_tick_idle_runs = 0;
    for app in apps {
        for (policy, per_tick) in inputs.clone() {
            let build = || -> Box<dyn ScalingPolicy> {
                if per_tick {
                    Box::new(PerTick(policy.build()))
                } else {
                    policy.build()
                }
            };
            for interval_ms in [60_000, 10_000] {
                let cfg = SimConfig {
                    interval_ms,
                    record_delays: true,
                    ..SimConfig::default()
                };
                let (engine, stats) = simulate_app_with_stats(
                    app,
                    build().as_mut(),
                    span_ms,
                    &cfg,
                );
                if per_tick {
                    assert_eq!(stats.batched_ticks, 0);
                    one_tick_idle_runs += stats.idle_transitions;
                }
                let oracle = reference_simulate(
                    app,
                    build().as_mut(),
                    span_ms,
                    &cfg,
                );
                if let Some(d) =
                    compare_results(&engine, &oracle, interval_ms)
                {
                    panic!(
                        "app {} policy {}{} interval {interval_ms}ms: {d}",
                        app.id,
                        if per_tick { "per-tick " } else { "" },
                        policy.label(),
                    );
                }
            }
        }
    }
    assert!(
        one_tick_idle_runs > 0,
        "no PerTick case reached the engine's idle path"
    );
}
