//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`, each metric a `{"value", "unit"}` pair.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The outcome of one invocation.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Renders the result line, or says why it cannot be rendered: a bad
    /// name or unit, a repeated name, or a value that is not finite.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !valid_unit(m.unit) {
                return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            // `{}` on f64 prints the shortest string that reads back to the
            // same value, so every measured digit survives.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }

    #[test]
    fn metric_names_follow_the_allowed_characters() {
        for ok in [
            "run_s",
            "sim.ns_per_event",
            "net.events_per_packet",
            "0x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "pct%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn units_follow_the_allowed_characters() {
        for ok in ["s", "ms", "1/s", "%", "count", "MiB", "sim_us"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", "seventeen_chars_x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_the_four_keys_and_every_digit() {
        let o = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                metric("run_s", "s", 0.123456789),
                metric("events_per_run", "count", 855_210.0),
            ],
        };
        assert_eq!(
            o.to_json().expect("valid"),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"run_s\": {\"value\": 0.123456789, \"unit\": \"s\"}, \
             \"events_per_run\": {\"value\": 855210, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn result_line_refuses_bad_metrics() {
        let with = |m: Vec<Metric>| Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: m,
        };
        assert!(with(vec![metric("x y", "s", 1.0)]).to_json().is_err());
        assert!(with(vec![metric("x", "a b", 1.0)]).to_json().is_err());
        assert!(with(vec![metric("x", "s", f64::NAN)]).to_json().is_err());
        assert!(with(vec![metric("x", "s", 1.0), metric("x", "s", 2.0)])
            .to_json()
            .is_err());
    }
}
