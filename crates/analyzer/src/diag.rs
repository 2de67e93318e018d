//! The shared diagnostics engine: violation classes, severities,
//! positioned diagnostics, the pass trait, and the multi-pass driver.

use std::fmt;

use pmo_trace::json::{self, Object, Value};
use pmo_trace::{ThreadId, TraceEvent, TraceSink};

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A correctness violation: the trace breaks a discipline the paper's
    /// crash-consistency or isolation argument depends on.
    Error,
    /// A performance lint: the trace is correct but wasteful.
    Lint,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Lint => "lint",
        })
    }
}

/// Every violation class any pass can report, unified so reports and
/// machine-readable output share one taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationClass {
    /// A cache line written this transaction was still dirty (never
    /// flushed) when the commit flag was set or cleared.
    UnflushedDirtyAtCommit,
    /// A cache line was flushed but no fence ordered the flush before the
    /// commit flag was set: the log may persist *after* the flag.
    UnfencedFlushAtCommit,
    /// An in-place (home-location) store executed while the commit flag's
    /// line was not yet persisted: write-ahead-log discipline broken.
    StoreWithoutPersistedLog,
    /// A line was flushed although it had no unpersisted store (wasted
    /// `clwb`).
    DuplicateFlush,
    /// A fence with no preceding flush since the last fence (wasted
    /// `sfence`).
    UselessFence,
    /// Two threads accessed the same PMO line without a happens-before
    /// edge, at least one access being a write.
    CrossThreadRace,
    /// An access raced a detach/revoke: it hit a region whose mapping was
    /// torn down without an intervening ranged shootdown (the paper's
    /// stale-translation hazard, §IV.B).
    StaleWindowAccess,
    /// An access outside any permission window (from [`pmo_trace::PermAudit`]).
    UnguardedAccess,
    /// More simultaneously enabled domains than the discipline allows.
    TooManyOpenWindows,
    /// A grant never revoked before the trace ended.
    WindowLeftOpen,
    /// A PMO detached while a thread still held a grant on it.
    DetachedWhileGranted,
    /// A TLB or DTTLB entry still granted access through a protection key
    /// after the key was reassigned to another domain (missing ranged
    /// shootdown, the model checker's §IV.B invariant).
    StaleKeyGrant,
    /// The materialized PKRU register disagreed with the DTT-derived
    /// permission set for the running thread.
    PkruDesync,
    /// A PTLB entry granted a permission the PT (or the revocation that
    /// should have invalidated it) no longer allows.
    PtlbDesync,
    /// The two hardware designs (MPK virtualization and domain
    /// virtualization) disagreed on an allow/deny decision the paper's
    /// three-legality rule fixes uniquely.
    SchemeDivergence,
    /// A crash image allowed by the persistency model recovered into a
    /// state that violates a workload invariant (found by exhaustive
    /// crash-image enumeration, not sampling).
    CrashImageViolation,
    /// A store landed inside an open permission-switch gate: between a
    /// write-revoking `SetPerm` and the shootdown (or re-grant) that
    /// settles it, a store hit the pool — the window ERIM's gate
    /// inspection forbids.
    StoreInSwitchGate,
    /// A concrete protection scheme diverged from the executable
    /// permission-oracle spec under the simulation relation: an allow/deny
    /// verdict differed, the abstraction of its state drifted from the
    /// spec state, or a cached grant was observably ahead of or behind
    /// the spec (refinement checker).
    RefinementDivergence,
    /// A trace-observable information flow from a domain's stores to a
    /// thread that never held any permission on that domain: perturbing
    /// the domain's data changed what the unauthorized thread read
    /// (noninterference checker).
    NoninterferenceLeak,
    /// A WRPKRU/XRSTOR-equivalent key-update byte sequence occurred in an
    /// executable code image outside every registered call gate — ERIM's
    /// binary-inspection property (§4.2). The sequence may start at any
    /// byte offset (unaligned jumps make instruction boundaries
    /// irrelevant), including inside an immediate or displacement.
    UnsafeKeyUpdateSite,
    /// The predictive-reordering pass hit one of its bounded-work caps
    /// (event buffer, candidate budget, or finding budget): the counted
    /// remainder was not explored. A lint, mirroring the diagnostics-log
    /// truncation discipline — bounded, but never silently lossy.
    PredictionTruncated,
}

impl ViolationClass {
    /// Stable machine-readable name (used in JSON output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ViolationClass::UnflushedDirtyAtCommit => "unflushed-dirty-at-commit",
            ViolationClass::UnfencedFlushAtCommit => "unfenced-flush-at-commit",
            ViolationClass::StoreWithoutPersistedLog => "store-without-persisted-log",
            ViolationClass::DuplicateFlush => "duplicate-flush",
            ViolationClass::UselessFence => "useless-fence",
            ViolationClass::CrossThreadRace => "cross-thread-race",
            ViolationClass::StaleWindowAccess => "stale-window-access",
            ViolationClass::UnguardedAccess => "unguarded-access",
            ViolationClass::TooManyOpenWindows => "too-many-open-windows",
            ViolationClass::WindowLeftOpen => "window-left-open",
            ViolationClass::DetachedWhileGranted => "detached-while-granted",
            ViolationClass::StaleKeyGrant => "stale-key-grant",
            ViolationClass::PkruDesync => "pkru-desync",
            ViolationClass::PtlbDesync => "ptlb-desync",
            ViolationClass::SchemeDivergence => "scheme-divergence",
            ViolationClass::CrashImageViolation => "crash-image-violation",
            ViolationClass::StoreInSwitchGate => "store-in-switch-gate",
            ViolationClass::RefinementDivergence => "refinement-divergence",
            ViolationClass::NoninterferenceLeak => "noninterference-leak",
            ViolationClass::UnsafeKeyUpdateSite => "unsafe-key-update-site",
            ViolationClass::PredictionTruncated => "prediction-truncated",
        }
    }
}

impl fmt::Display for ViolationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, anchored to a trace position so it can be reproduced
/// deterministically (same workload + seed, or same trace file, always
/// yields the same position).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which pass produced it.
    pub pass: &'static str,
    /// The violation class.
    pub class: ViolationClass,
    /// Error or lint.
    pub severity: Severity,
    /// The thread executing when the violation fired.
    pub thread: ThreadId,
    /// 0-based index of the offending event in the analyzed stream
    /// (`u64::MAX` at end-of-trace findings is never used; end findings
    /// carry the stream length instead).
    pub position: u64,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at event {} (thread {}): {} ({})",
            self.severity, self.pass, self.position, self.thread, self.message, self.class
        )
    }
}

/// Position + thread context handed to passes with every event.
#[derive(Clone, Copy, Debug)]
pub struct EventCtx {
    /// 0-based index of this event in the analyzed stream.
    pub pos: u64,
    /// The thread executing this event.
    pub thread: ThreadId,
}

/// One analysis pass over the event stream.
pub trait AnalyzerPass {
    /// Short stable pass name (used in diagnostics and JSON).
    fn name(&self) -> &'static str;
    /// Observes one event, appending any diagnostics it triggers.
    fn check(&mut self, ctx: EventCtx, ev: &TraceEvent, out: &mut Vec<Diagnostic>);
    /// Ends the pass (end-of-trace findings go here). `ctx.pos` is the
    /// stream length.
    fn finish(&mut self, ctx: EventCtx, out: &mut Vec<Diagnostic>);
}

/// How many diagnostics a report retains. Like the simulator's fault
/// log, the retained list is bounded so a pathological trace cannot blow
/// up memory — but overflow is *counted* per severity
/// ([`AnalysisReport::errors_dropped`] / [`AnalysisReport::lints_dropped`]),
/// never silently lost: [`AnalysisReport::passed`] still fails on dropped
/// errors and strict consumers refuse any truncated report.
const DIAG_LOG_CAP: usize = 4096;

/// The multi-pass driver: a [`TraceSink`] that feeds every event to each
/// registered pass and collects positioned diagnostics.
///
/// Streamable: it can sit in a [`pmo_trace::TeeSink`] next to the timing
/// simulator, or consume a recorded/on-disk trace.
pub struct Analyzer {
    passes: Vec<Box<dyn AnalyzerPass>>,
    diagnostics: Vec<Diagnostic>,
    errors_dropped: u64,
    lints_dropped: u64,
    source: String,
    pos: u64,
    thread: ThreadId,
}

impl fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Analyzer")
            .field("passes", &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>())
            .field("diagnostics", &self.diagnostics.len())
            .field("pos", &self.pos)
            .finish()
    }
}

impl Analyzer {
    /// Creates an empty driver. `source` describes where the trace comes
    /// from (file path, or `workload@seed`) — it is the repro pointer
    /// printed with every report.
    #[must_use]
    pub fn new(source: impl Into<String>) -> Self {
        Analyzer {
            passes: Vec::new(),
            diagnostics: Vec::new(),
            errors_dropped: 0,
            lints_dropped: 0,
            source: source.into(),
            pos: 0,
            thread: ThreadId::MAIN,
        }
    }

    /// Trims the retained list to [`DIAG_LOG_CAP`], counting overflow per
    /// severity (called after every batch of pass output).
    fn enforce_cap(&mut self) {
        while self.diagnostics.len() > DIAG_LOG_CAP {
            match self.diagnostics.pop().expect("list is over the cap").severity {
                Severity::Error => self.errors_dropped += 1,
                Severity::Lint => self.lints_dropped += 1,
            }
        }
    }

    /// Registers a pass (builder style).
    #[must_use]
    pub fn with_pass(mut self, pass: impl AnalyzerPass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Events analyzed so far.
    #[must_use]
    pub fn events_seen(&self) -> u64 {
        self.pos
    }

    /// Diagnostics collected so far (streaming callers can poll this).
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Ends every pass and produces the report.
    #[must_use]
    pub fn finish(mut self) -> AnalysisReport {
        let ctx = EventCtx { pos: self.pos, thread: self.thread };
        for pass in &mut self.passes {
            pass.finish(ctx, &mut self.diagnostics);
        }
        self.enforce_cap();
        AnalysisReport {
            source: self.source,
            events: self.pos,
            diagnostics: self.diagnostics,
            errors_dropped: self.errors_dropped,
            lints_dropped: self.lints_dropped,
        }
    }
}

impl TraceSink for Analyzer {
    fn event(&mut self, ev: TraceEvent) {
        if let TraceEvent::ThreadSwitch { thread } = ev {
            self.thread = thread;
        }
        let ctx = EventCtx { pos: self.pos, thread: self.thread };
        for pass in &mut self.passes {
            pass.check(ctx, &ev, &mut self.diagnostics);
        }
        self.enforce_cap();
        self.pos += 1;
    }
}

/// The result of analyzing one trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Where the trace came from (the deterministic repro pointer).
    pub source: String,
    /// Number of events analyzed.
    pub events: u64,
    /// Retained findings, in trace order per pass (bounded; overflow is
    /// counted in `errors_dropped` / `lints_dropped`).
    pub diagnostics: Vec<Diagnostic>,
    /// Error diagnostics beyond the retained-log cap: counted, not
    /// silently lost ([`AnalysisReport::passed`] fails on these too).
    pub errors_dropped: u64,
    /// Lint diagnostics beyond the retained-log cap.
    pub lints_dropped: u64,
}

impl AnalysisReport {
    /// Retained error-severity findings (`errors_dropped` more may have
    /// been truncated; see [`AnalysisReport::complete`]).
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Retained lint-severity findings.
    pub fn lints(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Lint)
    }

    /// Whether the trace has no correctness violations, retained *or*
    /// dropped (lints allowed).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.errors_dropped == 0 && self.errors().next().is_none()
    }

    /// Whether the trace produced no diagnostics at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.errors_dropped == 0 && self.lints_dropped == 0
    }

    /// Whether the retained list holds *every* diagnostic the passes
    /// produced. Strict consumers (`pmo-analyzer --strict`, the harness
    /// audits) fail a truncated report rather than reason from a sample.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.errors_dropped == 0 && self.lints_dropped == 0
    }

    /// Total diagnostics dropped beyond the retained-log cap.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.errors_dropped + self.lints_dropped
    }

    /// Machine-readable JSON (stable field names).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Value for AnalysisReport {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("source", &self.source)
            .field("events", self.events)
            .field("errors", self.errors().count())
            .field("lints", self.lints().count())
            .field("errors_dropped", self.errors_dropped)
            .field("lints_dropped", self.lints_dropped)
            .field("diagnostics", &self.diagnostics)
            .end();
    }
}

impl Value for Diagnostic {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("pass", self.pass)
            .field("class", self.class.name())
            .field("severity", self.severity.to_string())
            .field("thread", self.thread.raw())
            .field("position", self.position)
            .field("message", &self.message)
            .end();
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "analyzed {} events from {}: {} error(s), {} lint(s)",
            self.events,
            self.source,
            self.errors().count(),
            self.lints().count()
        )?;
        if !self.complete() {
            write!(f, " ({} dropped from the log)", self.dropped())?;
        }
        writeln!(f)?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountPass {
        seen: u64,
    }

    impl AnalyzerPass for CountPass {
        fn name(&self) -> &'static str {
            "count"
        }
        fn check(&mut self, ctx: EventCtx, _ev: &TraceEvent, out: &mut Vec<Diagnostic>) {
            self.seen += 1;
            if ctx.pos == 1 {
                out.push(Diagnostic {
                    pass: self.name(),
                    class: ViolationClass::UselessFence,
                    severity: Severity::Lint,
                    thread: ctx.thread,
                    position: ctx.pos,
                    message: "second event".into(),
                });
            }
        }
        fn finish(&mut self, ctx: EventCtx, out: &mut Vec<Diagnostic>) {
            out.push(Diagnostic {
                pass: self.name(),
                class: ViolationClass::WindowLeftOpen,
                severity: Severity::Error,
                thread: ctx.thread,
                position: ctx.pos,
                message: format!("saw {}", self.seen),
            });
        }
    }

    #[test]
    fn driver_positions_and_threads() {
        let mut a = Analyzer::new("test").with_pass(CountPass { seen: 0 });
        a.event(TraceEvent::Fence);
        a.event(TraceEvent::ThreadSwitch { thread: ThreadId::new(5) });
        a.event(TraceEvent::Fence);
        let report = a.finish();
        assert_eq!(report.events, 3);
        assert_eq!(report.diagnostics.len(), 2);
        assert_eq!(report.diagnostics[0].position, 1);
        assert_eq!(report.diagnostics[0].thread, ThreadId::new(5), "switch applies to its event");
        assert_eq!(report.diagnostics[1].position, 3, "finish carries stream length");
        assert!(!report.passed());
        assert!(!report.is_clean());
        assert_eq!(report.lints().count(), 1);
    }

    #[test]
    fn empty_report_is_clean() {
        let report = Analyzer::new("empty").finish();
        assert!(report.is_clean());
        assert!(report.passed());
        assert!(report.to_json().contains("\"errors\":0"));
    }

    /// Emits `per_event` error diagnostics on every event.
    struct FloodPass {
        per_event: usize,
    }

    impl AnalyzerPass for FloodPass {
        fn name(&self) -> &'static str {
            "flood"
        }
        fn check(&mut self, ctx: EventCtx, _ev: &TraceEvent, out: &mut Vec<Diagnostic>) {
            for _ in 0..self.per_event {
                out.push(Diagnostic {
                    pass: self.name(),
                    class: ViolationClass::UnguardedAccess,
                    severity: Severity::Error,
                    thread: ctx.thread,
                    position: ctx.pos,
                    message: "flood".into(),
                });
            }
        }
        fn finish(&mut self, _ctx: EventCtx, _out: &mut Vec<Diagnostic>) {}
    }

    #[test]
    fn diagnostics_beyond_the_cap_are_counted_not_lost() {
        let mut a = Analyzer::new("flood").with_pass(FloodPass { per_event: 1000 });
        for _ in 0..5 {
            a.event(TraceEvent::Fence);
        }
        let report = a.finish();
        assert_eq!(report.diagnostics.len(), DIAG_LOG_CAP, "retained list is capped");
        assert_eq!(report.errors_dropped, 5000 - DIAG_LOG_CAP as u64, "overflow is counted");
        assert!(!report.complete());
        assert!(!report.passed(), "dropped errors still fail the trace");
        assert!(report
            .to_json()
            .contains(&format!("\"errors_dropped\":{}", report.errors_dropped)));
        assert!(report.to_string().contains("dropped from the log"));
        // Retained diagnostics are the earliest ones, in trace order.
        assert_eq!(report.diagnostics[0].position, 0);
        assert!(report.diagnostics.windows(2).all(|w| w[0].position <= w[1].position));
    }

    #[test]
    fn reports_under_the_cap_are_complete() {
        let mut a = Analyzer::new("small").with_pass(FloodPass { per_event: 2 });
        a.event(TraceEvent::Fence);
        let report = a.finish();
        assert_eq!(report.diagnostics.len(), 2);
        assert!(report.complete());
        assert_eq!(report.dropped(), 0);
    }

    /// The exact `--json` bytes of a report with an error and a lint,
    /// one message needing escaping.
    #[test]
    fn report_json_bytes_are_pinned() {
        let diagnostic = |severity, message: &str| Diagnostic {
            pass: "persist-order",
            class: ViolationClass::DuplicateFlush,
            severity,
            thread: ThreadId::new(3),
            position: 4,
            message: message.into(),
        };
        let report = AnalysisReport {
            source: "a \"q\" \\ b".into(),
            events: 5,
            errors_dropped: 6,
            lints_dropped: 7,
            diagnostics: vec![
                diagnostic(Severity::Error, "a \"q\" \\ b\nc\u{1}"),
                diagnostic(Severity::Lint, "plain"),
            ],
        };
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"source":"a \"q\" \\ b","events":5,"errors":1,"lints":1,"errors_dropped":6,"#,
                r#""lints_dropped":7,"diagnostics":[{"pass":"persist-order","#,
                r#""class":"duplicate-flush","severity":"error","thread":3,"position":4,"#,
                r#""message":"a \"q\" \\ b\nc\u0001"},{"pass":"persist-order","#,
                r#""class":"duplicate-flush","severity":"lint","thread":3,"position":4,"#,
                r#""message":"plain"}]}"#,
            )
        );
    }

    #[test]
    fn report_display_lists_diagnostics() {
        let report = AnalysisReport {
            source: "s".into(),
            events: 1,
            errors_dropped: 0,
            lints_dropped: 0,
            diagnostics: vec![Diagnostic {
                pass: "p",
                class: ViolationClass::CrossThreadRace,
                severity: Severity::Error,
                thread: ThreadId::MAIN,
                position: 0,
                message: "msg".into(),
            }],
        };
        let text = report.to_string();
        assert!(text.contains("cross-thread-race"));
        assert!(text.contains("1 error(s)"));
    }
}
