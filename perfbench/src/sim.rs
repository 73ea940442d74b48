//! The simulator phase: request-level replay of a dense 3-day IBM-like
//! fleet under `keepalive-10min` and `knative-default`, each unbounded
//! and on `perf_record`'s `event-cluster` configuration (16 nodes of
//! 600 MB, 1 % node crashes per tick).

use std::time::Instant;

use femux_fault::FaultConfig;
use femux_sim::{
    simulate_app, ClusterConfig, ClusterOutcome, KeepAlivePolicy, KnativeDefaultPolicy, NodeConfig,
    ScalingPolicy, SimConfig,
};
use femux_trace::Trace;

use crate::fleets::mix;
use crate::measure::{secs_since, slow_quartile, Coverage, Metrics, Ops, Phase};

/// The replayed policies, by their `perf_record` names.
pub const POLICIES: [&str; 2] = ["keepalive-10min", "knative-default"];

fn policy(name: &str) -> Box<dyn ScalingPolicy> {
    if name == POLICIES[0] {
        Box::new(KeepAlivePolicy::ten_minutes())
    } else {
        Box::new(KnativeDefaultPolicy)
    }
}

fn cluster_config(seed: u64) -> SimConfig {
    SimConfig {
        cluster: Some(ClusterConfig::uniform(
            16,
            NodeConfig {
                cpu_milli: u64::MAX,
                mem_mb: 600,
            },
        )),
        faults: Some(FaultConfig {
            node_crash_rate: 0.01,
            node_recovery_ticks: 2,
            ..FaultConfig::off(mix(seed, 5))
        }),
        ..SimConfig::default()
    }
}

/// One pass of one policy over the fleet.
#[derive(Debug, Default)]
struct Pass {
    secs: f64,
    invocations: u64,
    cold_starts: u64,
    ledger: ClusterOutcome,
    ok: bool,
}

fn pass(trace: &Trace, name: &str, cfg: &SimConfig) -> Pass {
    let t0 = Instant::now();
    let mut out = Pass {
        ok: true,
        ..Pass::default()
    };
    for app in &trace.apps {
        let mut p = policy(name);
        let res = simulate_app(app, p.as_mut(), trace.span_ms, cfg);
        out.invocations += res.costs.invocations;
        out.cold_starts += res.costs.cold_starts;
        match (&res.cluster, cfg.cluster.is_some()) {
            (Some(ledger), true) => {
                out.ok &= ledger.conserved();
                out.ledger.absorb(ledger);
            }
            (None, false) => {}
            _ => out.ok = false,
        }
    }
    out.secs = secs_since(t0);
    out.ok &= out.invocations == trace.total_invocations() && out.ledger.conserved();
    out
}

/// All four passes: (unbounded, cluster) per policy.
fn round(trace: &Trace, seed: u64, ops: &mut Ops) -> Vec<(Pass, Pass)> {
    let unbounded = SimConfig::default();
    let cluster = cluster_config(seed);
    POLICIES
        .iter()
        .map(|name| {
            let u = pass(trace, name, &unbounded);
            let c = pass(trace, name, &cluster);
            ops.record(u.invocations, u.ok);
            ops.record(c.invocations, c.ok);
            (u, c)
        })
        .collect()
}

/// The simulator phase of an untraced run: each pass is a round of all
/// four replays. Every replay must simulate every invocation of the
/// trace and balance its cluster ledger.
pub struct SimPhase<'a> {
    trace: &'a Trace,
    seed: u64,
    rates: Vec<f64>,
}

impl<'a> SimPhase<'a> {
    pub fn new(trace: &'a Trace, seed: u64) -> Self {
        SimPhase {
            trace,
            seed,
            rates: Vec::new(),
        }
    }
}

impl Phase for SimPhase<'_> {
    fn pass(&mut self, ops: &mut Ops, keep: bool) -> Result<f64, String> {
        let passes = round(self.trace, self.seed, ops);
        let inv: u64 = passes
            .iter()
            .map(|(u, c)| u.invocations + c.invocations)
            .sum();
        let secs: f64 = passes.iter().map(|(u, c)| u.secs + c.secs).sum();
        if keep {
            self.rates.push(inv as f64 / secs);
        }
        Ok(secs)
    }

    fn report(&self, metrics: &mut Metrics) {
        eprintln!(
            "sim: {} apps, {} invocations per replay, {} rounds of 4 replays; per round inv/s {:.0?}",
            self.trace.apps.len(),
            self.trace.total_invocations(),
            self.rates.len(),
            self.rates
        );
        metrics.push("sim_inv_per_s", slow_quartile(&self.rates, true), "1/s");
    }
}

/// The traced simulator round: per-pass wall times, the cluster's
/// overhead, and the event counts from `ClusterOutcome` and the cost
/// records.
pub fn traced(
    trace: &Trace,
    seed: u64,
    metrics: &mut Metrics,
    ops: &mut Ops,
) -> Result<Coverage, String> {
    let passes = round(trace, seed, ops);
    let obs = femux_obs::scoped(false);
    let traced = round(trace, seed, ops);
    drop(obs);
    let wall_s: f64 = passes.iter().map(|(u, c)| u.secs + c.secs).sum();
    let traced_s: f64 = traced.iter().map(|(u, c)| u.secs + c.secs).sum();
    let mut unbounded_s = 0.0;
    let mut cluster_s = 0.0;
    let mut invocations = 0;
    let mut cold_starts = 0;
    let mut evictions = 0;
    let mut crashes = 0;
    for (name, (u, c)) in POLICIES.iter().zip(&passes) {
        metrics.push(format!("sim.unbounded_s.{name}"), u.secs, "s");
        metrics.push(format!("sim.cluster_s.{name}"), c.secs, "s");
        unbounded_s += u.secs;
        cluster_s += c.secs;
        invocations += u.invocations + c.invocations;
        cold_starts += u.cold_starts + c.cold_starts;
        evictions += c.ledger.evictions;
        crashes += c.ledger.node_crashes;
    }
    metrics.push("sim.cluster_overhead", cluster_s / unbounded_s, "ratio");
    metrics.push("sim.invocations", invocations as f64, "count");
    metrics.push("sim.cold_starts", cold_starts as f64, "count");
    metrics.push("sim.evictions", evictions as f64, "count");
    metrics.push("sim.node_crashes", crashes as f64, "count");
    Ok(Coverage {
        wall_s,
        attributed_s: wall_s,
        untraced_s: wall_s,
        traced_s,
    })
}
