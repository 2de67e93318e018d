//! Metrics, correctness gates, and the JSON lines the benchmark prints.

use std::fmt::Write as _;

use crate::stats::quartiles;

/// One named measurement with all of its samples (one per rep, or one for
/// a traced-run reading).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Every sample taken; the reported value is their median.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric over several samples.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric { name: name.into(), unit, samples }
    }

    /// A metric read once.
    #[must_use]
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric::new(name, unit, vec![value])
    }

    /// The median sample.
    #[must_use]
    pub fn value(&self) -> f64 {
        quartiles(&self.samples).1
    }

    /// `{"name", "value", "unit", "n", "q1", "q3"}` on one line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (q1, median, q3) = quartiles(&self.samples);
        format!(
            "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"n\":{},\"q1\":{},\"q3\":{}}}",
            self.name,
            json_number(median),
            self.unit,
            self.samples.len(),
            json_number(q1),
            json_number(q3),
        )
    }
}

/// A finite number as JSON (non-finite readings, which only a broken run
/// produces, print as 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Correctness gates: every check counts as attempted, every failure as
/// failed, and each failure is described on stderr as it happens.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gates {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Gates {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("gate failed: {}", what());
        }
    }

    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failed == 0
    }
}

/// The last line of the benchmark's output: correctness, check counts,
/// and each metric's median with its unit.
#[must_use]
pub fn result_line(gates: &Gates, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        gates.passed(),
        gates.attempted,
        gates.failed,
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_number(m.value()),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut gates = Gates::default();
        gates.check(true, String::new);
        let metrics = [Metric::new("wall_s", "s", vec![2.0, 1.0, 3.0])];
        assert_eq!(
            result_line(&gates, &metrics),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{\"wall_s\":{\"value\":2,\"unit\":\"s\"}}}"
        );
        assert_eq!(
            metrics[0].to_json(),
            "{\"name\":\"wall_s\",\"value\":2,\"unit\":\"s\",\"n\":3,\"q1\":1,\"q3\":3}"
        );
    }

    #[test]
    fn failures_are_counted() {
        let mut gates = Gates::default();
        gates.check(false, || "planted".to_string());
        gates.check(true, String::new);
        assert_eq!((gates.attempted, gates.failed), (2, 1));
        assert!(!gates.passed());
    }
}
