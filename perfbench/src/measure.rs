//! Timing, order statistics and the result line.

use std::time::Instant;

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Nanoseconds elapsed since `t0` (saturating; a single call never
/// runs for 584 years).
pub fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Median cost of timing an empty region with [`nanos_since`]; timed
/// calls subtract it so per-call figures and their sums measure the
/// call, not the clock.
pub fn timer_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..10_001)
        .map(|_| {
            let t0 = Instant::now();
            nanos_since(std::hint::black_box(t0))
        })
        .collect();
    p50(&mut samples)
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` of the samples at or below it. Every sample is a
/// candidate, so the expensive tail is never skipped by construction.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The slower quartile of per-pass figures: the 75th percentile of a
/// time (`higher_is_better = false`) or the 25th of a rate, linearly
/// interpolated between passes. On a shared host most run-to-run noise
/// is passes that run fast while neighbours idle; the slower quartile is
/// the speed the host sustains, and it moves far less between runs than
/// the median does.
pub fn slow_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = if higher_is_better { 0.25 } else { 0.75 };
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Sorts timing samples and returns the nearest-rank p50, in the
/// samples' unit.
pub fn p50(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    percentile(samples, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("VmHWM missing from /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("unparsable VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Operation accounting: every check that fails marks its operations
/// failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Records `n` operations whose outputs passed (`ok`) or failed a
    /// check.
    pub fn record(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }
}

/// A phase's wall time in a traced run and the part of it the layer
/// metrics account for, plus the pass timed with and without
/// recording.
#[derive(Debug, Default, Clone, Copy)]
pub struct Coverage {
    /// Wall time the layer metrics are attributed against, seconds.
    pub wall_s: f64,
    /// Sum of the disjoint layer costs measured alongside it, seconds.
    pub attributed_s: f64,
    /// The phase's pass with recording off, seconds.
    pub untraced_s: f64,
    /// The same pass with `femux_obs` recording on, seconds.
    pub traced_s: f64,
}

/// One phase of an untraced run: repeated passes over fixed inputs,
/// summarized into end-to-end metrics when the run's time is spent.
pub trait Phase {
    /// Runs one pass, records its output checks in `ops`, and returns
    /// its wall time in seconds. A pass with `keep` false is a warm-up:
    /// its outputs are checked, its timings are dropped.
    fn pass(&mut self, ops: &mut Ops, keep: bool) -> Result<f64, String>;
    /// Pushes the phase's end-to-end metrics.
    fn report(&self, metrics: &mut Metrics);
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`. Values must be finite; they
/// print with every digit Rust's shortest round-trip formatting gives
/// them.
pub fn result_line(ops: Ops, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted,
        ops.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_covers_the_tail() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn slow_quartile_takes_the_slow_side() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(slow_quartile(&v, true), 2.0);
        assert_eq!(slow_quartile(&v, false), 4.0);
        assert_eq!(slow_quartile(&[7.0], false), 7.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
