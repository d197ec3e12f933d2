//! Metric names, units, and the result line the benchmark prints last.

use std::collections::BTreeMap;

/// End-to-end metrics, printed on every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("counts_per_host_s", "1/s"),
    ("modeled_ms.mean", "ms"),
    ("modeled_ms.max", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed on every traced run: (name, unit). A layer
/// a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("gen.host_ms", "ms"),
    ("cpu.forward_host_ms", "ms"),
    ("preprocess.modeled_ms", "ms"),
    ("preprocess.sort_modeled_ms", "ms"),
    ("prepare.host_ms", "ms"),
    ("release.host_ms", "ms"),
    ("schedule.modeled_ms", "ms"),
    ("schedule.heavy_edge_frac", "fraction"),
    ("count.modeled_ms", "ms"),
    ("reduce.modeled_ms", "ms"),
    ("count.host_ms", "ms"),
    ("executor.lane_steps", "count"),
    ("executor.warp_steps", "count"),
    ("executor.lane_steps_per_host_s", "1/s"),
    ("executor.divergent_frac", "fraction"),
    ("executor.issue_stall_cycles", "cycles"),
    ("executor.occupancy", "fraction"),
    ("tex.hit_rate", "fraction"),
    ("l2.hit_rate", "fraction"),
    ("dram.mb", "MB"),
    ("transactions", "count"),
    ("pcie.mb", "MB"),
    ("arena.peak_mb", "MB"),
    ("cluster.partition_modeled_ms", "ms"),
    ("cluster.shard_count_modeled_ms", "ms"),
    ("cluster.merge_modeled_ms", "ms"),
    ("cluster.imbalance", "ratio"),
    ("cluster.prepare_host_ms", "ms"),
    ("cluster.count_host_ms", "ms"),
    ("multi.modeled_ms", "ms"),
    ("multi.host_ms", "ms"),
    ("split.modeled_ms", "ms"),
    ("split.host_ms", "ms"),
    ("engine.cache_hit_ratio", "fraction"),
    ("engine.oneshot_frac", "fraction"),
    ("engine.overhead_ms_per_job", "ms"),
    ("engine.devices_created", "count"),
    ("telemetry.serialize_host_ms", "ms"),
    ("sanitizer.base_host_ms", "ms"),
    ("sanitizer.host_ms", "ms"),
    ("sanitizer.host_factor", "ratio"),
    ("sanitizer.findings", "count"),
    ("verifier.host_ms", "ms"),
    ("verifier.host_factor", "ratio"),
    ("verifier.proven_frac", "fraction"),
    ("verifier.racechecks_skipped", "count"),
    ("verifier.findings", "count"),
    ("trace.overhead_frac", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Correctness bookkeeping for one run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not about one count (modeled pins, phase sums,
    /// determinism). Any entry makes the run incorrect.
    pub violations: Vec<String>,
}

impl Checks {
    /// Record one attempted count; `failure` says why it failed, if it did.
    pub fn count(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failed <= 8 {
                eprintln!("count failed: {why}");
            }
        }
    }

    pub fn violate(&mut self, why: String) {
        if self.violations.len() < 8 {
            eprintln!("check failed: {why}");
        }
        self.violations.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Render the result line: the catalogue `names` in order, each value
/// taken from `values` (0 when the workload did not produce it).
pub fn result_line(
    checks: &Checks,
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            // A non-finite value is a bug in a metric's derivation; JSON
            // cannot carry it, so print 0 and say so.
            let v = if v.is_finite() {
                v
            } else {
                eprintln!("metric {name} is not finite; reporting 0");
                0.0
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct(),
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    )
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
