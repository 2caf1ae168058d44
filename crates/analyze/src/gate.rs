//! The CI regression gate: diff a current report against a committed
//! baseline, exactly.
//!
//! Both documents are [`flatten`]ed to dotted numeric paths
//! (`latency.remote-write.p99_ns`, `stencil_16.events`, …). Every report
//! the suite emits is deterministic, so each baseline metric must come
//! back unchanged, except in the direction its name marks as better:
//!
//! * **lower is better** (`*_us`/`*_ns` latencies, `p50`/`p99`/`p999`
//!   tails, `drops`/`retransmits`/`stall`/`discards` counters, queue
//!   depths) — fail when the current value rises above the baseline; a
//!   fall is an improvement and passes;
//! * **two-sided** (everything else: event counts, bytes moved) — fail
//!   when it moves in either direction.
//!
//! A metric present in the baseline but missing from the current report
//! always fails (a silently vanished metric is how regressions hide).

use crate::report::{flatten, Json};

/// Which way a metric is allowed to move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Smaller values are improvements (latency, loss, stall).
    LowerBetter,
    /// Any drift is suspicious (structural counts).
    TwoSided,
}

/// Infers a metric's direction from its canonical name.
pub fn direction_of(name: &str) -> Direction {
    let leaf = name.rsplit('.').next().unwrap_or(name);
    let lower_markers = [
        "_us",
        "_ns",
        "_ms",
        "p50",
        "p99",
        "p999",
        "drops",
        "dropped",
        "retransmits",
        "stall",
        "discards",
        "latency",
        "high_water",
        "depth",
    ];
    if lower_markers.iter().any(|m| leaf.contains(m)) {
        return Direction::LowerBetter;
    }
    Direction::TwoSided
}

/// One gated metric that moved the wrong way (or vanished).
#[derive(Clone, Debug)]
pub struct GateFailure {
    /// Flattened metric path.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (`None` when the metric disappeared).
    pub current: Option<f64>,
    /// Direction the metric was judged under.
    pub direction: Direction,
}

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.current {
            None => write!(f, "{}: missing (baseline {})", self.metric, self.baseline),
            Some(cur) => write!(
                f,
                "{}: {} -> {} ({:+}, {:?})",
                self.metric,
                self.baseline,
                cur,
                cur - self.baseline,
                self.direction
            ),
        }
    }
}

/// Outcome of gating one current report against one baseline.
#[derive(Clone, Debug, Default)]
pub struct GateResult {
    /// Baseline metrics compared.
    pub checked: usize,
    /// Every metric that regressed.
    pub failures: Vec<GateFailure>,
    /// Metrics in the current report absent from the baseline —
    /// informational (new metrics are fine; the baseline wants
    /// refreshing).
    pub new_metrics: Vec<String>,
}

impl GateResult {
    /// True when nothing regressed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Diffs `current` against `baseline` at zero tolerance.
pub fn gate_reports(baseline: &Json, current: &Json) -> GateResult {
    let base_flat = flatten(baseline);
    let cur_flat = flatten(current);
    let cur_map: std::collections::HashMap<&str, f64> = cur_flat
        .iter()
        .map(|(name, value)| (name.as_str(), *value))
        .collect();

    let mut result = GateResult::default();
    for &(ref name, base) in &base_flat {
        result.checked += 1;
        let direction = direction_of(name);
        let current = cur_map.get(name.as_str()).copied();
        let ok = current.is_some_and(|cur| match direction {
            Direction::LowerBetter => cur <= base,
            Direction::TwoSided => cur == base,
        });
        if !ok {
            result.failures.push(GateFailure {
                metric: name.clone(),
                baseline: base,
                current,
                direction,
            });
        }
    }
    let base_names: std::collections::HashSet<&str> =
        base_flat.iter().map(|(n, _)| n.as_str()).collect();
    for (name, _) in &cur_flat {
        if !base_names.contains(name.as_str()) {
            result.new_metrics.push(name.clone());
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(pairs: &[(&str, f64)]) -> Json {
        let mut o = Json::obj();
        for (k, v) in pairs {
            o.set(k, Json::Num(*v));
        }
        o
    }

    #[test]
    fn directions_are_inferred_from_names() {
        assert_eq!(
            direction_of("latency.remote-write.p99_ns"),
            Direction::LowerBetter
        );
        assert_eq!(
            direction_of("metrics.fabric.retransmits"),
            Direction::LowerBetter
        );
        assert_eq!(
            direction_of("stencil_16.peak_queue_depth"),
            Direction::LowerBetter
        );
        assert_eq!(direction_of("stencil_16.events"), Direction::TwoSided);
        assert_eq!(
            direction_of("metrics.fabric.bytes_total"),
            Direction::TwoSided
        );
    }

    #[test]
    fn tail_latency_regression_fails_and_improvement_passes() {
        let base = doc(&[("latency.send.p99_ns", 800.0)]);
        let r = gate_reports(&base, &doc(&[("latency.send.p99_ns", 801.0)]));
        assert!(!r.passed());
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].metric, "latency.send.p99_ns");
        assert!(gate_reports(&base, &doc(&[("latency.send.p99_ns", 799.0)])).passed());
        assert!(gate_reports(&base, &base).passed());
    }

    #[test]
    fn missing_metrics_fail_and_new_metrics_inform() {
        let base = doc(&[("a.p99_ns", 1.0)]);
        let cur = doc(&[("b.p99_ns", 1.0)]);
        let r = gate_reports(&base, &cur);
        assert!(!r.passed());
        assert!(r.failures[0].current.is_none());
        assert_eq!(r.new_metrics, vec!["b.p99_ns".to_string()]);
    }

    #[test]
    fn zero_baseline_lower_better_rejects_any_increase() {
        let base = doc(&[("metrics.fabric.drops", 0.0)]);
        let cur = doc(&[("metrics.fabric.drops", 1.0)]);
        assert!(!gate_reports(&base, &cur).passed());
    }
}
