//! Campaign results: violations with replayable schedules, per-scenario
//! exploration statistics (including the DPOR reduction factor), and
//! machine-readable JSON.

use std::fmt;

use pmo_analyzer::ViolationClass;
use pmo_trace::json::{self, Object, Value};

use crate::program::Scenario;
use crate::world::Finding;

/// One violation, anchored to the exact schedule that triggers it:
/// re-running the scenario under [`Violation::schedule`] reproduces the
/// violation deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Scenario that produced the violation.
    pub scenario: String,
    /// Violated invariant's diagnostic class.
    pub class: ViolationClass,
    /// Thread (index) running when the invariant broke.
    pub thread: u32,
    /// 0-based schedule step at which the violation fired.
    pub step: usize,
    /// The full thread-index schedule up to and including `step`.
    pub schedule: Vec<u32>,
    /// What went wrong.
    pub message: String,
}

impl Violation {
    /// Anchors a world [`Finding`] at `step` of `schedule` in `scenario`.
    #[must_use]
    pub fn new(scenario: &str, schedule: Vec<u32>, step: usize, finding: Finding) -> Self {
        Violation {
            scenario: scenario.to_string(),
            class: finding.class,
            thread: finding.thread,
            step,
            schedule,
            message: finding.message,
        }
    }

    /// The repro schedule in CLI form (`"0.1.0.2"`).
    #[must_use]
    pub fn schedule_string(&self) -> String {
        schedule_string(&self.schedule)
    }
}

impl Value for Violation {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("scenario", &self.scenario)
            .field("class", self.class.name())
            .field("thread", self.thread)
            .field("step", self.step)
            .field("schedule", self.schedule_string())
            .field("message", &self.message)
            .end();
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at step {} (thread {}): {} — replay with --replay {}@{}",
            self.scenario,
            self.class,
            self.step,
            self.thread,
            self.message,
            self.scenario,
            self.schedule_string()
        )
    }
}

/// Renders a schedule in CLI form.
#[must_use]
pub fn schedule_string(schedule: &[u32]) -> String {
    schedule.iter().map(u32::to_string).collect::<Vec<_>>().join(".")
}

/// Parses a CLI schedule (`"0.1.0.2"`).
///
/// # Errors
///
/// Returns a description when a component is not a thread index.
pub fn parse_schedule(s: &str) -> Result<Vec<u32>, String> {
    s.split('.')
        .map(|part| part.trim().parse::<u32>().map_err(|_| format!("bad schedule step {part:?}")))
        .collect()
}

/// Exploration statistics and findings for one scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Complete executions explored (each a distinct schedule).
    pub schedules: u64,
    /// Total operations executed across all executions.
    pub steps: u64,
    /// Prefixes pruned because every runnable thread was asleep.
    pub sleep_blocked: u64,
    /// Schedules a reduction-free enumeration would visit (the DPOR
    /// denominator), bounded by the same depth limit.
    pub naive: u128,
    /// Whether a bound (depth or schedule cap) cut the search short.
    pub truncated: bool,
    /// Distinct violations (first occurrence each), most-severe first.
    pub violations: Vec<Violation>,
    /// Total violation occurrences across all schedules.
    pub violation_count: u64,
}

impl ExploreOutcome {
    /// Fresh (all-zero) outcome for a scenario, with the naive-schedule
    /// denominator precomputed for the given depth bound.
    #[must_use]
    pub fn new(scenario: &Scenario, max_depth: usize) -> Self {
        ExploreOutcome {
            scenario: scenario.name.to_string(),
            schedules: 0,
            steps: 0,
            sleep_blocked: 0,
            naive: naive_schedules(&scenario.program.op_counts(), max_depth),
            truncated: false,
            violations: Vec::new(),
            violation_count: 0,
        }
    }

    /// Whether the search was exhaustive (a cut one proves nothing) and
    /// every explored schedule satisfied every invariant.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }
}

impl Value for ExploreOutcome {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("scenario", &self.scenario)
            .field("schedules", self.schedules)
            .field("steps", self.steps)
            .field("sleep_blocked", self.sleep_blocked)
            .field("naive", self.naive)
            .field("truncated", self.truncated)
            .field("violation_count", self.violation_count)
            .field("violations", &self.violations)
            .end();
    }
}

/// A whole campaign: one [`ExploreOutcome`] per explored scenario.
#[derive(Clone, Debug, Default)]
pub struct Campaign {
    /// Per-scenario outcomes, in exploration order.
    pub runs: Vec<ExploreOutcome>,
}

impl Campaign {
    /// Total schedules explored.
    #[must_use]
    pub fn total_schedules(&self) -> u64 {
        self.runs.iter().map(|r| r.schedules).sum()
    }

    /// Total distinct violations.
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.runs.iter().map(|r| r.violations.len()).sum()
    }

    /// Total naive schedules (the reduction denominator).
    #[must_use]
    pub fn total_naive(&self) -> u128 {
        self.runs.iter().map(|r| r.naive).sum()
    }

    /// Whether every scenario passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.runs.iter().all(ExploreOutcome::passed)
    }

    /// JSON document (stable field names).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Value for Campaign {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("total_schedules", self.total_schedules())
            .field("total_naive", self.total_naive())
            .field("total_violations", self.total_violations())
            .field("passed", self.passed())
            .field("scenarios", &self.runs)
            .end();
    }
}

impl fmt::Display for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} {:>10} {:>12} {:>8} {:>10}",
            "scenario", "explored", "naive", "pruned", "violations"
        )?;
        for run in &self.runs {
            let pruned = if run.naive > 0 {
                format!("{:.0}%", 100.0 - 100.0 * run.schedules as f64 / run.naive as f64)
            } else {
                "-".to_string()
            };
            writeln!(
                f,
                "{:<28} {:>10} {:>12} {:>8} {:>10}{}",
                run.scenario,
                run.schedules,
                run.naive,
                pruned,
                run.violations.len(),
                if run.truncated { " (truncated)" } else { "" },
            )?;
        }
        writeln!(
            f,
            "total: {} schedules explored of {} naive interleavings, {} violation(s)",
            self.total_schedules(),
            self.total_naive(),
            self.total_violations()
        )?;
        for v in self.runs.iter().flat_map(|r| &r.violations) {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Number of schedules a reduction-free enumeration would visit: the
/// count of distinct interleavings of per-thread op sequences, truncated
/// at `depth` steps (each maximal-or-bounded sequence counted once, the
/// same counting the explorer uses).
#[must_use]
pub fn naive_schedules(op_counts: &[usize], depth: usize) -> u128 {
    fn rec(rem: &mut [usize], depth: usize) -> u128 {
        if depth == 0 || rem.iter().all(|&r| r == 0) {
            return 1;
        }
        let mut total = 0u128;
        for t in 0..rem.len() {
            if rem[t] > 0 {
                rem[t] -= 1;
                total = total.saturating_add(rec(rem, depth - 1));
                rem[t] += 1;
            }
        }
        total
    }
    rec(&mut op_counts.to_vec(), depth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_counts_are_multinomial_when_unbounded() {
        assert_eq!(naive_schedules(&[2, 2], 24), 6);
        assert_eq!(naive_schedules(&[3, 3], 24), 20);
        assert_eq!(naive_schedules(&[4, 4, 4], 24), 34650);
        assert_eq!(naive_schedules(&[0, 0], 24), 1, "empty program has one (empty) schedule");
    }

    #[test]
    fn naive_counts_respect_depth_bound() {
        // Length-2 prefixes of two 2-op threads: 00, 01, 10, 11.
        assert_eq!(naive_schedules(&[2, 2], 2), 4);
        assert_eq!(naive_schedules(&[2, 2], 1), 2);
    }

    /// The exact `--json` bytes of a campaign whose every list is filled
    /// and whose violation message needs escaping.
    #[test]
    fn campaign_json_bytes_are_pinned() {
        let violation = Violation {
            scenario: "detach-race".to_string(),
            class: ViolationClass::StaleWindowAccess,
            thread: 1,
            step: 2,
            schedule: vec![0, 1, 1],
            message: "a \"q\" \\ b\nc\u{1}".to_string(),
        };
        let run = ExploreOutcome {
            scenario: "detach-race".to_string(),
            schedules: 3,
            steps: 4,
            sleep_blocked: 5,
            naive: u128::from(u64::MAX) + 6,
            truncated: true,
            violations: vec![violation.clone(), violation],
            violation_count: 7,
        };
        let campaign = Campaign { runs: vec![run.clone(), run] };
        assert_eq!(
            campaign.to_json(),
            concat!(
                r#"{"total_schedules":6,"total_naive":36893488147419103242,"#,
                r#""total_violations":4,"passed":false,"scenarios":[{"scenario":"detach-race","#,
                r#""schedules":3,"steps":4,"sleep_blocked":5,"naive":18446744073709551621,"#,
                r#""truncated":true,"violation_count":7,"#,
                r#""violations":[{"scenario":"detach-race","class":"stale-window-access","#,
                r#""thread":1,"step":2,"schedule":"0.1.1","message":"a \"q\" \\ b\nc\u0001"},"#,
                r#"{"scenario":"detach-race","class":"stale-window-access","thread":1,"step":2,"#,
                r#""schedule":"0.1.1","message":"a \"q\" \\ b\nc\u0001"}]},"#,
                r#"{"scenario":"detach-race","schedules":3,"steps":4,"sleep_blocked":5,"#,
                r#""naive":18446744073709551621,"truncated":true,"violation_count":7,"#,
                r#""violations":[{"scenario":"detach-race","class":"stale-window-access","#,
                r#""thread":1,"step":2,"schedule":"0.1.1","message":"a \"q\" \\ b\nc\u0001"},"#,
                r#"{"scenario":"detach-race","class":"stale-window-access","thread":1,"step":2,"#,
                r#""schedule":"0.1.1","message":"a \"q\" \\ b\nc\u0001"}]}]}"#,
            )
        );
    }

    #[test]
    fn schedules_round_trip() {
        let schedule = vec![0, 1, 0, 2, 1];
        assert_eq!(parse_schedule(&schedule_string(&schedule)).unwrap(), schedule);
        assert!(parse_schedule("0.x.1").is_err());
    }
}
