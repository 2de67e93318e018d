//! The pluggable protection schemes the paper evaluates.
//!
//! | Scheme | Paper role |
//! |---|---|
//! | [`Unprotected`] | the no-protection *baseline* of §V |
//! | [`Lowerbound`] | ideal MPK virtualization: WRPKRU cost only |
//! | [`DefaultMpk`] | stock Intel MPK, 16 keys, no virtualization |
//! | [`LibMpk`] | software MPK virtualization (Park et al., ATC'19) |
//! | [`MpkVirt`] | **design 1**: hardware MPK virtualization (DTT+DTTLB) |
//! | [`DomainVirt`] | **design 2**: hardware domain virtualization (DRT+PT+PTLB) |
//! | [`Erim`] | ERIM call gates over raw MPK (Vahldiek-Oberwagner et al.) |
//! | [`Dpti`] | domain page-table isolation, zero keys (Canella et al.) |
//!
//! Every scheme is *functional* (it actually tracks per-thread domain
//! permissions and detects violations) and *timed* (it charges the Table II
//! cycle costs, each to one bucket of its [`CostBreakdown`] ledger).
//!
//! All eight run one MMU front end (the `front` module): TLB lookup, walk
//! and fill on a miss, the permission check, the fault. Each scheme file
//! holds only what its design changes: the miss path, the permission a
//! resident TLB entry grants, and its attach, detach, SETPERM and
//! context-switch mechanism.

mod domain_virt;
mod dpti;
mod erim;
mod front;
mod libmpk;
mod lowerbound;
mod mpk;
mod mpk_virt;
mod unprotected;

pub use domain_virt::DomainVirt;
pub use dpti::Dpti;
pub use erim::Erim;
pub use libmpk::LibMpk;
pub use lowerbound::Lowerbound;
pub use mpk::DefaultMpk;
pub use mpk_virt::MpkVirt;
pub use unprotected::Unprotected;

use std::fmt;

use pmo_simarch::{MemKind, SimConfig, TlbStats};
use pmo_trace::{AccessKind, Perm, PmoId, ThreadId, TraceEvent, Va};

use crate::breakdown::CostBreakdown;
use crate::fault::ProtectionFault;

/// The outcome of one checked memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Translation + protection cycles: the scheme's ledger growth over
    /// the access (cache/memory latency is charged by the replay engine on
    /// top of this).
    pub cycles: u64,
    /// The kind of memory backing the address (drives DRAM vs NVM latency).
    pub mem: MemKind,
    /// A protection violation, if the access was denied.
    pub fault: Option<ProtectionFault>,
    /// The warm verdict: what an immediate repeat of this access to the
    /// same page would compute, which the replay memoizes. `None` only
    /// after a page fault.
    pub warm: Option<FastHint>,
}

impl AccessResult {
    /// Whether the access was permitted.
    #[must_use]
    pub fn allowed(&self) -> bool {
        self.fault.is_none()
    }
}

/// Event counters a scheme accumulates during replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchemeStats {
    /// Permission-switch instructions executed.
    pub set_perms: u64,
    /// Domain → key reassignments (evictions) performed.
    pub key_evictions: u64,
    /// DTTLB misses (DTT walks).
    pub dttlb_misses: u64,
    /// PTLB misses (Permission Table lookups).
    pub ptlb_misses: u64,
    /// Ranged TLB shootdowns issued.
    pub shootdowns: u64,
    /// TLB entries invalidated by shootdowns.
    pub tlb_entries_invalidated: u64,
    /// Protection faults raised.
    pub faults: u64,
    /// Software fault-handler invocations (libmpk guard-key faults).
    pub sw_faults: u64,
    /// Context switches observed.
    pub context_switches: u64,
    /// Domains that could not get a key and fell back to domainless
    /// (default MPK beyond 16 domains — the weakening the paper motivates).
    pub domainless_fallbacks: u64,
}

/// The warm verdict for one page: everything a *warm* (L1-TLB-hit,
/// PTLB-hit) access to it computes — memory backing, the effective
/// permission, and the check's latency; its cycles are the L1 TLB latency
/// plus [`FastHint::access_latency`]. [`ProtectionScheme::access`] returns the one
/// it just reached, and the replay fast path serves consecutive accesses
/// to the page from it, skipping the TLB/DTT/PT machinery. A verdict is
/// only valid while the scheme state is untouched: any
/// attach/detach/set-perm/context-switch/shootdown, or any access to a
/// *different* page, invalidates it. It memoizes the simulator's work,
/// never the simulated costs: replaying through it charges exactly the
/// cycles and produces exactly the fault the slow path would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FastHint {
    /// Memory backing of the page (drives DRAM vs NVM latency).
    pub mem: MemKind,
    /// The effective permission (page ∧ domain) the verdict applies.
    pub effective: Perm,
    /// Cycles per access attributed to `CostBreakdown::access_latency`
    /// (non-zero only under domain virtualization's per-access PTLB read).
    pub access_latency: u64,
    /// Thread the verdict was reached for (reported in faults).
    pub thread: ThreadId,
    /// Permission reported as "held" if the access is denied.
    pub held: Perm,
    /// `Some(pmo)` if a denial is a domain violation against `pmo`;
    /// `None` if it is a plain page-permission fault.
    pub fault_pmo: Option<PmoId>,
}

impl FastHint {
    /// The fault a denied access through this verdict raises — the one
    /// the slow path raises.
    #[must_use]
    pub fn fault(&self, va: Va, attempted: AccessKind) -> ProtectionFault {
        match self.fault_pmo {
            Some(pmo) => ProtectionFault::DomainDenied {
                thread: self.thread,
                pmo,
                attempted,
                held: self.held,
                va,
            },
            None => {
                ProtectionFault::PageDenied { thread: self.thread, attempted, held: self.held, va }
            }
        }
    }
}

/// A protection scheme: the MMU-integrated domain machinery of §IV.
///
/// The replay engine (`pmo-sim`) drives this trait once per trace event.
/// Every scheme implements it through the shared MMU front end (see the
/// module docs). Every cycle a scheme adds to execution time is charged to
/// its [`CostBreakdown`] ledger; the cycles an operation returns are the
/// ledger's growth over it, and settling fast-path hits through
/// [`ProtectionScheme::note_fast_hits`] grows it by exactly what the
/// skipped accesses would have.
pub trait ProtectionScheme {
    /// The scheme's kind tag.
    fn kind(&self) -> SchemeKind;

    /// Handles a PMO attach (system call): registers the region and the
    /// scheme's table entries. Returns cycles.
    ///
    /// # Errors
    ///
    /// Returns [`ProtectionFault::AttachConflict`], counted as a fault
    /// and changing nothing else, if the PMO is already attached or its
    /// granule overlaps an attached region.
    fn attach(
        &mut self,
        pmo: PmoId,
        base: Va,
        size: u64,
        nvm: bool,
    ) -> Result<u64, ProtectionFault>;

    /// Handles a PMO detach. Returns cycles.
    fn detach(&mut self, pmo: PmoId) -> u64;

    /// Executes a permission switch (WRPKRU / `pkey_set` / SETPERM) for the
    /// *current thread*. Returns cycles.
    fn set_perm(&mut self, pmo: PmoId, perm: Perm) -> u64;

    /// Checks and times one memory access by the current thread, and
    /// returns the warm verdict for its page alongside.
    fn access(&mut self, va: Va, kind: AccessKind) -> AccessResult;

    /// Switches the core to another thread (flushing thread-private
    /// structures as the design requires). Returns cycles.
    fn context_switch(&mut self, to: ThreadId) -> u64;

    /// The cycle ledger so far: the Table VII buckets plus software and
    /// translation, summing to every cycle the scheme charged.
    fn breakdown(&self) -> CostBreakdown;

    /// Event counters so far.
    fn stats(&self) -> SchemeStats;

    /// TLB statistics so far.
    fn tlb_stats(&self) -> TlbStats;

    /// Drains protocol-level trace events the scheme emitted internally
    /// since the last drain ([`TraceEvent::Shootdown`] on the key-eviction
    /// paths of MPK virtualization and ERIM, on ERIM's write-revoking gate
    /// exits and on DPTI's write revocations), so the hb-race pass and the
    /// model checker see the same shootdown signal as `pool_close`.
    fn drain_events(&mut self) -> Vec<TraceEvent>;

    /// Settles the accounting for `hits` accesses (of which `denied` were
    /// denied) served through a [`FastHint`] since it was issued: credits
    /// the skipped L1 TLB hits, fault counts, and their L1 TLB and PTLB
    /// latency to the ledger, so stats and cycles match a slow-path replay
    /// exactly.
    fn note_fast_hits(&mut self, hint: &FastHint, hits: u64, denied: u64);

    /// Revalidates a *stored* [`FastHint`] for `va`'s page before the
    /// replay engine re-arms it from its permission-summary table:
    /// returns whether the hint is still exact, and on success touches
    /// exactly the recency state a warm (L1-TLB-hit) access to `va` would
    /// touch — the L1 TLB way, plus the PTLB way under domain
    /// virtualization. No statistics, no promotion, no other effects.
    ///
    /// Returning `false` means the page is no longer warm (the entry was
    /// evicted, shot down, or remapped) and the caller must take the full
    /// [`ProtectionScheme::access`] walk.
    fn fast_revalidate(&mut self, va: Va) -> bool;
}

/// A protocol bug planted into a scheme at construction time, for
/// model-checker self-validation (the state-machine analogue of
/// `pmo-analyzer`'s trace-level `SeededBug` mutations): a checker that
/// cannot catch a planted coherence bug cannot be trusted to prove its
/// absence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolBug {
    /// MPK-virt: skip the ranged TLB shootdown when a key is reassigned
    /// to another domain (the victim's stale key keeps granting).
    SkipEvictionShootdown,
    /// MPK-virt: leave the PKRU register stale after a SETPERM on a
    /// domain that currently holds a key.
    SkipPkruUpdateOnSetPerm,
    /// Domain-virt: skip the PTLB invalidation on detach (a re-attached
    /// domain inherits the stale cached permission).
    SkipPtlbInvalidateOnDetach,
    /// Domain-virt: skip the PTLB flush on a context switch (the incoming
    /// thread inherits the outgoing thread's cached permissions).
    SkipPtlbFlushOnSwitch,
    /// ERIM: the call-gate exit trampoline skips the WRPKRU restore after
    /// a privilege-dropping SETPERM (the thread keeps the monitor's more
    /// permissive PKRU value past the gate).
    SkipGateExitKeyRestore,
    /// DPTI: the kernel skips the CR3 reload on a context switch (the
    /// incoming thread runs on the outgoing thread's page tables).
    StaleCr3OnSwitch,
}

impl ProtocolBug {
    /// Every plantable bug class.
    pub const ALL: [ProtocolBug; 6] = [
        ProtocolBug::SkipEvictionShootdown,
        ProtocolBug::SkipPkruUpdateOnSetPerm,
        ProtocolBug::SkipPtlbInvalidateOnDetach,
        ProtocolBug::SkipPtlbFlushOnSwitch,
        ProtocolBug::SkipGateExitKeyRestore,
        ProtocolBug::StaleCr3OnSwitch,
    ];

    /// Short label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProtocolBug::SkipEvictionShootdown => "skip-eviction-shootdown",
            ProtocolBug::SkipPkruUpdateOnSetPerm => "skip-pkru-update-on-setperm",
            ProtocolBug::SkipPtlbInvalidateOnDetach => "skip-ptlb-invalidate-on-detach",
            ProtocolBug::SkipPtlbFlushOnSwitch => "skip-ptlb-flush-on-switch",
            ProtocolBug::SkipGateExitKeyRestore => "skip-gate-exit-key-restore",
            ProtocolBug::StaleCr3OnSwitch => "stale-cr3-on-switch",
        }
    }
}

impl fmt::Display for ProtocolBug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ProtocolBug {
    type Err = String;

    /// Parses a [`ProtocolBug::label`] back into the bug.
    fn from_str(label: &str) -> Result<Self, String> {
        let known = ProtocolBug::ALL.map(Self::label).join(", ");
        ProtocolBug::ALL.into_iter().find(|b| b.label() == label).ok_or(format!("known: {known}"))
    }
}

/// Identifies a scheme; use [`SchemeKind::build_any`] to construct one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No protection (baseline).
    Unprotected,
    /// Ideal MPK virtualization (WRPKRU cost only).
    Lowerbound,
    /// Stock Intel MPK.
    DefaultMpk,
    /// Software MPK virtualization (libmpk).
    LibMpk,
    /// Hardware MPK virtualization (design 1).
    MpkVirt,
    /// Hardware domain virtualization (design 2).
    DomainVirt,
    /// ERIM call gates over raw MPK.
    Erim,
    /// Domain page-table isolation (zero keys).
    Dpti,
}

impl SchemeKind {
    /// All schemes: the paper's six in the order it discusses them, then
    /// the related-work designs the comparison matrix grew to cover.
    pub const ALL: [SchemeKind; 8] = [
        SchemeKind::Unprotected,
        SchemeKind::Lowerbound,
        SchemeKind::DefaultMpk,
        SchemeKind::LibMpk,
        SchemeKind::MpkVirt,
        SchemeKind::DomainVirt,
        SchemeKind::Erim,
        SchemeKind::Dpti,
    ];

    /// Constructs the scheme as a statically dispatched [`AnyScheme`]
    /// (what the replay engine uses on its hot path).
    #[must_use]
    pub fn build_any(self, config: &SimConfig) -> AnyScheme {
        match self {
            SchemeKind::Unprotected => AnyScheme::Unprotected(Unprotected::new(config)),
            SchemeKind::Lowerbound => AnyScheme::Lowerbound(Lowerbound::new(config)),
            SchemeKind::DefaultMpk => AnyScheme::DefaultMpk(DefaultMpk::new(config)),
            SchemeKind::LibMpk => AnyScheme::LibMpk(LibMpk::new(config)),
            SchemeKind::MpkVirt => AnyScheme::MpkVirt(MpkVirt::new(config)),
            SchemeKind::DomainVirt => AnyScheme::DomainVirt(DomainVirt::new(config)),
            SchemeKind::Erim => AnyScheme::Erim(Erim::new(config)),
            SchemeKind::Dpti => AnyScheme::Dpti(Dpti::new(config)),
        }
    }

    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Unprotected => "baseline",
            SchemeKind::Lowerbound => "lowerbound",
            SchemeKind::DefaultMpk => "mpk",
            SchemeKind::LibMpk => "libmpk",
            SchemeKind::MpkVirt => "mpk-virt",
            SchemeKind::DomainVirt => "domain-virt",
            SchemeKind::Erim => "erim",
            SchemeKind::Dpti => "dpti",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Closed enum over every scheme, for static dispatch on the replay hot
/// path (a `match` the branch predictor resolves per-replay, instead of a
/// `Box<dyn ProtectionScheme>` vtable load per access). Build one with
/// [`SchemeKind::build_any`].
#[allow(clippy::large_enum_variant)] // one scheme per replay; size is irrelevant
#[derive(Debug)]
pub enum AnyScheme {
    /// No protection (baseline).
    Unprotected(Unprotected),
    /// Ideal MPK virtualization.
    Lowerbound(Lowerbound),
    /// Stock Intel MPK.
    DefaultMpk(DefaultMpk),
    /// Software MPK virtualization.
    LibMpk(LibMpk),
    /// Hardware MPK virtualization (design 1).
    MpkVirt(MpkVirt),
    /// Hardware domain virtualization (design 2).
    DomainVirt(DomainVirt),
    /// ERIM call gates over raw MPK.
    Erim(Erim),
    /// Domain page-table isolation.
    Dpti(Dpti),
}

macro_rules! dispatch {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            AnyScheme::Unprotected($s) => $body,
            AnyScheme::Lowerbound($s) => $body,
            AnyScheme::DefaultMpk($s) => $body,
            AnyScheme::LibMpk($s) => $body,
            AnyScheme::MpkVirt($s) => $body,
            AnyScheme::DomainVirt($s) => $body,
            AnyScheme::Erim($s) => $body,
            AnyScheme::Dpti($s) => $body,
        }
    };
}

macro_rules! impl_clone {
    ($($kind:ident),+) => {
        /// Cloning into a scheme of the same kind clones it in place,
        /// reusing the buffers it owns; into another kind, it replaces it.
        impl Clone for AnyScheme {
            fn clone(&self) -> Self {
                match self {
                    $(AnyScheme::$kind(s) => AnyScheme::$kind(s.clone()),)+
                }
            }

            fn clone_from(&mut self, source: &Self) {
                match (self, source) {
                    $((AnyScheme::$kind(s), AnyScheme::$kind(from)) => s.clone_from(from),)+
                    (s, from) => *s = from.clone(),
                }
            }
        }
    };
}

impl_clone!(Unprotected, Lowerbound, DefaultMpk, LibMpk, MpkVirt, DomainVirt, Erim, Dpti);

impl ProtectionScheme for AnyScheme {
    fn kind(&self) -> SchemeKind {
        dispatch!(self, s => s.kind())
    }

    fn attach(
        &mut self,
        pmo: PmoId,
        base: Va,
        size: u64,
        nvm: bool,
    ) -> Result<u64, ProtectionFault> {
        dispatch!(self, s => s.attach(pmo, base, size, nvm))
    }

    fn detach(&mut self, pmo: PmoId) -> u64 {
        dispatch!(self, s => s.detach(pmo))
    }

    fn set_perm(&mut self, pmo: PmoId, perm: Perm) -> u64 {
        dispatch!(self, s => s.set_perm(pmo, perm))
    }

    fn access(&mut self, va: Va, kind: AccessKind) -> AccessResult {
        dispatch!(self, s => s.access(va, kind))
    }

    fn context_switch(&mut self, to: ThreadId) -> u64 {
        dispatch!(self, s => s.context_switch(to))
    }

    fn breakdown(&self) -> CostBreakdown {
        dispatch!(self, s => s.breakdown())
    }

    fn stats(&self) -> SchemeStats {
        dispatch!(self, s => s.stats())
    }

    fn tlb_stats(&self) -> TlbStats {
        dispatch!(self, s => s.tlb_stats())
    }

    fn drain_events(&mut self) -> Vec<TraceEvent> {
        dispatch!(self, s => s.drain_events())
    }

    fn note_fast_hits(&mut self, hint: &FastHint, hits: u64, denied: u64) {
        dispatch!(self, s => s.note_fast_hits(hint, hits, denied));
    }

    fn fast_revalidate(&mut self, va: Va) -> bool {
        dispatch!(self, s => s.fast_revalidate(va))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemes_are_send() {
        // Schemes move across threads in parallel experiment sweeps.
        fn assert_send<T: Send>() {}
        assert_send::<Unprotected>();
        assert_send::<Lowerbound>();
        assert_send::<DefaultMpk>();
        assert_send::<LibMpk>();
        assert_send::<MpkVirt>();
        assert_send::<DomainVirt>();
        assert_send::<Erim>();
        assert_send::<Dpti>();
    }

    #[test]
    fn build_all_schemes() {
        let config = SimConfig::isca2020();
        for kind in SchemeKind::ALL {
            let scheme = kind.build_any(&config);
            assert_eq!(scheme.kind(), kind);
            assert!(!format!("{kind}").is_empty());
            assert_eq!(scheme.stats(), SchemeStats::default());
        }
    }

    #[test]
    fn protocol_bug_labels_parse_back() {
        for bug in ProtocolBug::ALL {
            assert_eq!(bug.label().parse(), Ok(bug));
        }
    }
}
