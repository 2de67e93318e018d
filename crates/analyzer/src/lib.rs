//! Multi-pass static analysis over PMO traces.
//!
//! The paper's security argument (§VI.D) and its crash-consistency story
//! both rest on disciplines the *program* and *OS* must follow: tight
//! permission windows, store→flush→fence→commit ordering, and TLB
//! shootdowns completed before any reuse of a revoked mapping or evicted
//! key. ERIM proves the analogous WRPKRU property by static binary
//! inspection; fault injection (the `faultsim` campaign) samples crash
//! points probabilistically. This crate checks the underlying ordering
//! rules across *whole* traces instead:
//!
//! * [`PersistOrderPass`] — persist-ordering / crash-consistency checking
//!   in the PMTest/XFDetector mold (write-ahead-log discipline, dirty or
//!   unfenced lines at commit, duplicate-flush / useless-fence lints);
//! * [`RacePass`] — a vector-clock happens-before detector for
//!   cross-thread races on PMO lines and the stale-translation hazard
//!   (access racing a revoke with no intervening ranged shootdown);
//! * [`GatePass`] — ERIM-style switch-gate integrity: no store may land
//!   between a write-revoking `SetPerm` and the shootdown (or re-grant)
//!   that settles it;
//! * [`InspectPass`] — ERIM's *static* half, actually implemented here:
//!   byte-level binary inspection of registered
//!   [`pmo_trace::CodeImage`]s for WRPKRU/XRSTOR key-update sequences at
//!   every byte offset (across instruction boundaries, inside
//!   immediates) outside a registered call gate;
//! * [`PermWindowPass`] — the existing [`pmo_trace::PermAudit`]
//!   permission-window audit, lifted into the framework with positioned
//!   diagnostics;
//! * [`PredictPass`] — predictive reordering analysis: from one observed
//!   schedule it builds a constraint model (program order, fork edges,
//!   shootdown walls) and searches for *feasible reorderings* that would
//!   manifest stale-window or persist-order violations the observed
//!   schedule missed, verifying every candidate by replaying a concrete
//!   witness trace through the manifest passes.
//!
//! Beyond the streaming passes, [`enumerate`] performs exhaustive
//! crash-image enumeration: per fence-delimited window it computes every
//! memory image the persistency model allows a power failure to leave
//! behind, so recovery can be verified against *all* of them
//! ([`verify_images`]) instead of a sampled few.
//!
//! Every checker is self-validated by seeded-bug mutation testing
//! ([`mutate`]): each known-bad pattern is planted into a clean trace and
//! the corresponding pass must catch it.
//!
//! The [`Analyzer`] driver is itself a [`pmo_trace::TraceSink`], so it
//! can analyze a recorded trace, a decoded `.pmob` block-trace file, or
//! stream live next to the timing simulator through a `TeeSink`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod crashenum;
mod diag;
mod gate;
mod inspect;
mod mutate;
mod permwindow;
mod persist;
mod predict;
mod race;

pub use crashenum::{
    enumerate, image_hash, line_contribution, verify_images, CrashEnumerator, CrashImage,
    EnumConfig, EnumResult, LineChoices, LineImage, WindowImages,
};
pub use diag::{
    AnalysisReport, Analyzer, AnalyzerPass, Diagnostic, EventCtx, Severity, ViolationClass,
};
pub use gate::GatePass;
pub use inspect::{
    monitor_image, scan_image, validate_inspection, InspectCase, InspectPass, InspectValidation,
    KeyUpdateKind, KeyUpdateSite, MONITOR_TEXT_BASE, WRPKRU,
};
pub use mutate::{seed_bug, seed_code_bug, SeededBug, SeededCodeBug};
pub use permwindow::PermWindowPass;
pub use persist::PersistOrderPass;
pub use predict::{
    predict, witness_events, PredictPass, PredictedFinding, Prediction, PREDICT_CANDIDATE_CAP,
    PREDICT_EVENT_CAP, PREDICT_FINDING_CAP,
};
pub use race::RacePass;

/// An [`Analyzer`] with all six standard passes: persist ordering,
/// happens-before races, switch-gate integrity, binary inspection of the
/// canonical trusted-monitor image, the given permission-window policy,
/// and predictive reordering analysis.
#[must_use]
pub fn standard_analyzer(source: &str, windows: PermWindowPass) -> Analyzer {
    Analyzer::new(source)
        .with_pass(PersistOrderPass::new())
        .with_pass(RacePass::new())
        .with_pass(GatePass::new())
        .with_pass(InspectPass::standard())
        .with_pass(windows)
        .with_pass(PredictPass::new())
}
