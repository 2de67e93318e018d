//! Deterministic schedule execution and counterexample replay.
//!
//! [`Explorer::schedule_trace`] runs one schedule from an explorer's
//! restored post-setup [`World`](crate::World); it is the executor behind
//! both counterexample replay and the predictive-analysis oracle (which
//! runs it through a tracing explorer, over mpk-virt alone, since it
//! reads only the trace), and [`schedule_trace`] runs it through a fresh
//! checking explorer. A violating
//! schedule reported by [`crate::explore()`] is re-executed verbatim; the
//! world's event stream (the same [`TraceEvent`]s the timing simulator
//! records) is then fed through a [`pmo_analyzer::Analyzer`] carrying a
//! [`ModelCheckPass`], producing positioned [`Diagnostic`]s whose
//! `source` is the `scenario@schedule` repro string. Because the world is deterministic,
//! replaying the schedule reproduces the exact violation — this is the
//! checker's evidence trail.

use pmo_analyzer::{
    AnalysisReport, Analyzer, AnalyzerPass, Diagnostic, EventCtx, Severity, ViolationClass,
};
use pmo_protect::ProtocolBug;
use pmo_trace::{TraceEvent, TraceSink};

use crate::explore::Explorer;
use crate::program::Scenario;
use crate::report::{schedule_string, Violation};

/// An [`AnalyzerPass`] that anchors model-checker findings to trace
/// positions: the replay engine records at which event index each
/// invariant broke, and this pass emits the matching [`Diagnostic`] when
/// the analyzed stream reaches that index. This routes counterexamples
/// through the same diagnostic machinery (`--json`, severity filters,
/// positions) as the trace analyzer's own passes.
#[derive(Debug, Default)]
pub struct ModelCheckPass {
    pending: Vec<(u64, ViolationClass, String)>,
}

impl ModelCheckPass {
    /// A pass that will emit `class`/`message` when the stream reaches
    /// `position`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a finding at a trace position.
    pub fn record(&mut self, position: u64, class: ViolationClass, message: String) {
        self.pending.push((position, class, message));
    }
}

impl AnalyzerPass for ModelCheckPass {
    fn name(&self) -> &'static str {
        "modelcheck"
    }

    fn check(&mut self, ctx: EventCtx, _ev: &TraceEvent, out: &mut Vec<Diagnostic>) {
        for (_, class, message) in self.pending.iter().filter(|(pos, ..)| *pos == ctx.pos) {
            out.push(Diagnostic {
                pass: "modelcheck",
                class: *class,
                severity: Severity::Error,
                thread: ctx.thread,
                position: ctx.pos,
                message: message.clone(),
            });
        }
    }

    fn finish(&mut self, ctx: EventCtx, out: &mut Vec<Diagnostic>) {
        // Findings past the stream end (empty trace edge case) still
        // surface rather than vanish.
        for (pos, class, message) in self.pending.iter().filter(|(pos, ..)| *pos >= ctx.pos) {
            out.push(Diagnostic {
                pass: "modelcheck",
                class: *class,
                severity: Severity::Error,
                thread: ctx.thread,
                position: *pos,
                message: message.clone(),
            });
        }
    }
}

/// One schedule executed through the checker: the raw trace plus every
/// violation the world reported along the way.
#[derive(Debug, PartialEq, Eq)]
pub struct ScheduleRun {
    /// The event stream the analyzer consumes. Events before
    /// `steps[0].0` are scenario setup (attaches by thread 0).
    pub trace: Vec<TraceEvent>,
    /// Per schedule step, the half-open `[start, end)` range of trace
    /// indices that step emitted (lets a consumer map events back onto
    /// operations, e.g. to lift a witness reordering to an op schedule).
    pub steps: Vec<(usize, usize)>,
    /// Every violation in execution order: each step's findings with the
    /// schedule prefix up to that step, then the end-of-execution
    /// noninterference leaks against the whole schedule (empty on clean
    /// worlds).
    pub violations: Vec<Violation>,
}

impl ScheduleRun {
    /// Trace index of the last event emitted up to and including `step`:
    /// where a violation at that step is anchored.
    fn position(&self, step: usize) -> u64 {
        let end = self.steps.get(step).map_or(self.trace.len(), |&(_, end)| end);
        (end as u64).saturating_sub(1)
    }
}

impl Explorer {
    /// Executes `schedule` (a sequence of thread indices) for `scenario`
    /// from the explorer's post-setup state, running every check after
    /// every step and the noninterference pass at the end.
    ///
    /// The schedule may be a prefix of a maximal execution (violation
    /// counterexamples are).
    ///
    /// # Errors
    ///
    /// Returns a description when a schedule step names an out-of-range or
    /// exhausted thread.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` does not share the explorer's configuration
    /// and setup domains.
    pub fn schedule_trace(
        &mut self,
        scenario: &Scenario,
        schedule: &[u32],
    ) -> Result<ScheduleRun, String> {
        self.check_fits(scenario);
        let nthreads = scenario.program.threads.len();
        self.restore(nthreads);
        let mut steps = Vec::with_capacity(schedule.len());
        let mut violations = Vec::new();
        for (step, &t) in schedule.iter().enumerate() {
            let thread = t as usize;
            if thread >= nthreads {
                return Err(format!(
                    "step {step}: thread {t} out of range (program has {nthreads})"
                ));
            }
            let Some(&op) = scenario.program.threads[thread].get(self.consumed[thread]) else {
                return Err(format!("step {step}: thread {t} has no operations left"));
            };
            self.consumed[thread] += 1;
            let start = self.world.trace().len();
            for finding in self.world.step(t, op) {
                violations.push(Violation::new(
                    &scenario.name,
                    schedule[..=step].to_vec(),
                    step,
                    finding,
                ));
            }
            steps.push((start, self.world.trace().len()));
        }
        let last = schedule.len().saturating_sub(1);
        for finding in self.world.end_checks() {
            violations.push(Violation::new(&scenario.name, schedule.to_vec(), last, finding));
        }
        Ok(ScheduleRun { trace: self.world.trace().to_vec(), steps, violations })
    }
}

/// Executes `schedule` for `scenario` through a fresh [`Explorer`]; see
/// [`Explorer::schedule_trace`].
///
/// # Errors
///
/// Returns a description when a schedule step names an out-of-range or
/// exhausted thread.
pub fn schedule_trace(
    scenario: &Scenario,
    bug: Option<ProtocolBug>,
    schedule: &[u32],
) -> Result<ScheduleRun, String> {
    Explorer::new(&scenario.config, &scenario.setup, bug).schedule_trace(scenario, schedule)
}

/// The result of replaying one schedule.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Analyzer report over the replayed trace: one positioned
    /// [`Diagnostic`] per violation, `source` set to the
    /// `scenario@schedule` repro string.
    pub report: AnalysisReport,
    /// The violations in model-checker form (with schedule context).
    pub violations: Vec<Violation>,
}

/// Re-executes `schedule` through [`schedule_trace`] and runs the
/// resulting event stream through the analyzer, each violation anchored
/// at the trace position its step reached.
///
/// # Errors
///
/// Returns a description when a schedule step names an out-of-range or
/// exhausted thread.
pub fn replay_schedule(
    scenario: &Scenario,
    bug: Option<ProtocolBug>,
    schedule: &[u32],
) -> Result<ReplayOutcome, String> {
    let run = schedule_trace(scenario, bug, schedule)?;
    let mut pass = ModelCheckPass::new();
    for v in &run.violations {
        pass.record(run.position(v.step), v.class, v.message.clone());
    }
    let source = format!("{}@{}", scenario.name, schedule_string(schedule));
    let mut analyzer = Analyzer::new(source).with_pass(pass);
    for &ev in &run.trace {
        analyzer.event(ev);
    }
    Ok(ReplayOutcome { report: analyzer.finish(), violations: run.violations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::sample_schedule;
    use crate::scenarios;

    #[test]
    fn clean_replay_produces_clean_report() {
        let scenario = scenarios::find("setperm-vs-access").unwrap();
        // Round-robin over both threads: a complete maximal schedule.
        let out = replay_schedule(&scenario, None, &[0, 1, 0, 1, 0, 1]).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.report.passed());
        assert!(out.report.events > 0, "replay must produce a trace");
    }

    #[test]
    fn schedule_trace_records_events() {
        let scenario = scenarios::find("setperm-vs-access").unwrap();
        let counts: Vec<usize> = scenario.program.threads.iter().map(Vec::len).collect();
        let run = schedule_trace(&scenario, None, &sample_schedule(&scenario.name, &counts))
            .expect("sampled schedule is executable");
        assert!(!run.trace.is_empty());
        assert!(run.violations.is_empty(), "builtin scenario is clean: {:?}", run.violations);
        assert!(schedule_trace(&scenario, None, &[9]).is_err());
    }

    #[test]
    fn replay_rejects_exhausted_threads() {
        let scenario = scenarios::find("setperm-vs-access").unwrap();
        assert!(replay_schedule(&scenario, None, &[0, 0, 0, 0]).is_err());
        assert!(replay_schedule(&scenario, None, &[7]).is_err());
    }
}
