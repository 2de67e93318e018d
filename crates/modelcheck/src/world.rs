//! The checked state: every verifiable protection machine runs in
//! lockstep against the executable abstract specification
//! ([`SpecMachine`]), and one checker evaluates the whole refinement
//! relation after every operation.
//!
//! The spec is the paper's §IV.A contract reduced to its logical core:
//! a thread may access an attached PMO iff its last SETPERM for that
//! domain allows the access kind; memory outside any attached PMO is
//! ordinary anonymous memory (always accessible). Every scheme must agree
//! with the spec (and hence each other) on every allow/deny decision,
//! and their caches — TLB keys, DTTLB, PKRU, PTLB — must never be
//! observably ahead of or behind that contract.
//!
//! Every step checks three layers, each reported under its own class:
//!
//! * **Verdicts** — every concrete allow/deny decision equals the spec's
//!   (`scheme-divergence`).
//! * **Caches** — the cache-coherence invariants: shootdown completeness,
//!   no stale TLB or DTTLB key, PKRU consistency, PT/PTLB agreement, and
//!   the ERIM-PKRU and DPTI loaded-table sweeps (`stale-key-grant`,
//!   `pkru-desync`, `ptlb-desync`).
//! * **Abstraction** — the abstraction of each concrete machine
//!   ([`crate::refine::alpha_mpk`], [`crate::refine::alpha_dom`],
//!   [`crate::refine::alpha_erim`], [`crate::refine::alpha_dpti`]) equals
//!   the spec state (`refinement-divergence`).
//!
//! Every access is also recorded as an [`AccessObs`], and
//! [`World::end_checks`] runs the perturb-and-compare noninterference
//! pass over those observations at the end of each execution
//! (`noninterference-leak`).

use pmo_analyzer::ViolationClass;
use pmo_protect::scheme::{DomainVirt, Dpti, Erim, MpkVirt, ProtectionScheme};
use pmo_protect::{KeyAllocator, Perm, Pkru, ProtocolBug};
use pmo_simarch::PAGE_BITS;
use pmo_trace::{AccessKind, PmoId, ThreadId, TraceEvent};

use crate::program::{Op, Scenario, POOL_BYTES};
use crate::refine::{
    alpha_dom, alpha_dpti, alpha_erim, alpha_mpk, is_spec_state, noninterference_all, render_abs,
    spec_state, AccessObs,
};
use crate::spec::SpecMachine;

/// One violation found by a check (scenario/schedule context is attached
/// by the explorer, trace position by the replayer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The violated check's diagnostic class.
    pub class: ViolationClass,
    /// Thread (index) that was running when the check failed.
    pub thread: u32,
    /// What went wrong, with the observed vs expected state.
    pub message: String,
}

/// Every concrete machine — the paper's two designs plus the
/// related-work schemes ERIM and DPTI — run in lockstep against the spec
/// machine, advanced one operation at a time.
pub struct World {
    mpk: MpkVirt,
    dom: DomainVirt,
    erim: Erim,
    dpti: Dpti,
    spec: SpecMachine,
    bug: Option<ProtocolBug>,
    /// The trace recorded so far (replayable through `pmo-analyzer`).
    trace: Vec<TraceEvent>,
    /// Access observations recorded for the noninterference pass.
    obs: Vec<AccessObs>,
    current: u32,
    shootdowns_drained: u64,
}

impl World {
    /// Builds the initial state for a scenario, attaching its setup
    /// domains; `bug` plants a [`ProtocolBug`] into whichever scheme the
    /// bug targets (self-validation runs).
    #[must_use]
    pub fn new(scenario: &Scenario, bug: Option<ProtocolBug>) -> Self {
        let mut world = World {
            mpk: MpkVirt::with_bug(&scenario.config, bug),
            dom: DomainVirt::with_bug(&scenario.config, bug),
            erim: Erim::with_bug(&scenario.config, bug),
            dpti: Dpti::with_bug(&scenario.config, bug),
            spec: SpecMachine::new(),
            bug,
            trace: Vec::new(),
            obs: Vec::new(),
            current: 0,
            shootdowns_drained: 0,
        };
        for &pmo in &scenario.setup {
            world.do_attach(pmo);
        }
        world
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The access observations recorded so far.
    #[must_use]
    pub fn observations(&self) -> &[AccessObs] {
        &self.obs
    }

    fn do_attach(&mut self, pmo: PmoId) {
        // EEXIST semantics: attaching an attached domain is a no-op at
        // the World level — the spec refuses, so the schemes (which would
        // refuse a double attach with a counted `AttachConflict` fault, as
        // the real syscall fails) are never called and no trace event is
        // recorded.
        if !self.spec.attach(pmo) {
            return;
        }
        let base = Op::base_of(pmo);
        let attached = [
            self.mpk.attach(pmo, base, POOL_BYTES, true),
            self.dom.attach(pmo, base, POOL_BYTES, true),
            self.erim.attach(pmo, base, POOL_BYTES, true),
            self.dpti.attach(pmo, base, POOL_BYTES, true),
        ];
        debug_assert!(attached.iter().all(Result::is_ok), "the spec admitted the attach");
        self.trace.push(TraceEvent::Attach { pmo, base, size: POOL_BYTES, nvm: true });
    }

    /// Executes one operation by thread index `thread` (context-switching
    /// every scheme if it differs from the running thread) and returns
    /// every violation observable afterwards.
    pub fn step(&mut self, thread: u32, op: Op) -> Vec<Finding> {
        if thread != self.current {
            let tid = ThreadId::new(thread);
            self.mpk.context_switch(tid);
            self.dom.context_switch(tid);
            self.erim.context_switch(tid);
            self.dpti.context_switch(tid);
            self.current = thread;
            self.trace.push(TraceEvent::ThreadSwitch { thread: tid });
        }
        let mut findings = Vec::new();
        match op {
            Op::Attach { pmo } => self.do_attach(pmo),
            Op::Detach { pmo } => {
                // ENOENT semantics, mirroring do_attach.
                if self.spec.detach(pmo) {
                    self.mpk.detach(pmo);
                    self.dom.detach(pmo);
                    self.erim.detach(pmo);
                    self.dpti.detach(pmo);
                    self.trace.push(TraceEvent::Detach { pmo });
                    // The schemes invalidate their cached translations
                    // synchronously inside detach, so the canonical trace
                    // records the revoke as settled. The detach-time
                    // invalidation-skip bug omits exactly this record,
                    // leaving the stale window open at trace level too.
                    if self.bug != Some(ProtocolBug::SkipPtlbInvalidateOnDetach) {
                        self.trace.push(TraceEvent::Shootdown { pmo });
                    }
                }
            }
            Op::SetPerm { pmo, perm } => {
                self.mpk.set_perm(pmo, perm);
                self.dom.set_perm(pmo, perm);
                self.erim.set_perm(pmo, perm);
                self.dpti.set_perm(pmo, perm);
                self.spec.set_perm(thread, pmo, perm);
                self.trace.push(TraceEvent::SetPerm { pmo, perm });
            }
            Op::Access { pmo, offset, kind } => {
                let va = Op::base_of(pmo) + offset;
                let mpk_ok = self.mpk.access(va, kind).allowed();
                let dom_ok = self.dom.access(va, kind).allowed();
                let erim_ok = self.erim.access(va, kind).allowed();
                let dpti_ok = self.dpti.access(va, kind).allowed();
                let expect = self.spec.allows(thread, pmo, kind);
                if mpk_ok != expect || dom_ok != expect || erim_ok != expect || dpti_ok != expect {
                    findings.push(Finding {
                        class: ViolationClass::SchemeDivergence,
                        thread,
                        message: format!(
                            "{op}: spec {} but MpkVirt {} / DomainVirt {} / Erim {} / Dpti {}",
                            verdict(expect),
                            verdict(mpk_ok),
                            verdict(dom_ok),
                            verdict(erim_ok),
                            verdict(dpti_ok),
                        ),
                    });
                }
                self.obs.push(AccessObs {
                    thread,
                    pmo,
                    offset,
                    kind,
                    attached: self.spec.is_attached(pmo),
                    spec_allowed: expect,
                    mpk_allowed: mpk_ok,
                    dom_allowed: dom_ok,
                    erim_allowed: erim_ok,
                    dpti_allowed: dpti_ok,
                });
                // Mirror the replay engine: denied accesses leave no
                // memory event in the trace.
                if expect {
                    self.trace.push(match kind {
                        AccessKind::Read => TraceEvent::Load { va, size: 8 },
                        AccessKind::Write => TraceEvent::Store { va, size: 8 },
                    });
                }
            }
        }
        for ev in self.mpk.drain_events() {
            if matches!(ev, TraceEvent::Shootdown { .. }) {
                self.shootdowns_drained += 1;
            }
            self.trace.push(ev);
        }
        // ERIM and DPTI publish their own gate-exit/revoke settle events.
        // The recorded trace (and the eviction-completeness count, which
        // is MpkVirt's contract) stays canonical against MpkVirt, so
        // these are drained but not re-recorded.
        let _ = self.erim.drain_events();
        let _ = self.dpti.drain_events();
        self.check_invariants(&mut findings);
        self.check_alpha(&mut findings);
        findings
    }

    /// End-of-execution checks: the perturb-and-compare noninterference
    /// pass over every recorded access observation.
    #[must_use]
    pub fn end_checks(&self) -> Vec<Finding> {
        noninterference_all(&self.obs, &self.spec)
            .into_iter()
            .map(|leak| Finding {
                class: ViolationClass::NoninterferenceLeak,
                thread: leak.thread,
                message: leak.message,
            })
            .collect()
    }

    /// Simulation-relation core: the abstraction of each concrete machine
    /// must equal the spec state exactly after every step.
    fn check_alpha(&self, findings: &mut Vec<Finding>) {
        let abstractions = [
            ("alpha-mpk", alpha_mpk(&self.mpk)),
            ("alpha-dom", alpha_dom(&self.dom, self.current)),
            ("alpha-erim", alpha_erim(&self.erim)),
            ("alpha-dpti", alpha_dpti(&self.dpti)),
        ];
        for (name, abs) in abstractions {
            if !is_spec_state(&abs, &self.spec) {
                findings.push(Finding {
                    class: ViolationClass::RefinementDivergence,
                    thread: self.current,
                    message: format!(
                        "{name}: abstraction {} != spec {}",
                        render_abs(&abs),
                        render_abs(&spec_state(&self.spec))
                    ),
                });
            }
        }
    }

    /// Evaluates every state invariant against the current machine state.
    fn check_invariants(&self, findings: &mut Vec<Finding>) {
        self.check_shootdown_completeness(findings);
        self.check_stale_tlb_keys(findings);
        self.check_stale_dttlb_keys(findings);
        self.check_pkru("", self.mpk.pkru(), self.mpk.key_allocator(), findings);
        self.check_ptlb(findings);
        self.check_pkru("ERIM ", self.erim.pkru(), self.erim.key_allocator(), findings);
        self.check_dpti_space(findings);
    }

    /// Every key eviction must have published a ranged shootdown (§IV.B:
    /// reassigning a key without invalidating the victim's translations
    /// leaves the old domain readable through the new domain's grants).
    fn check_shootdown_completeness(&self, findings: &mut Vec<Finding>) {
        let evictions = self.mpk.stats().key_evictions;
        if evictions > self.shootdowns_drained {
            findings.push(Finding {
                class: ViolationClass::StaleKeyGrant,
                thread: self.current,
                message: format!(
                    "{evictions} key eviction(s) but only {} ranged shootdown(s) issued",
                    self.shootdowns_drained
                ),
            });
        }
    }

    /// No TLB entry may carry a protection key whose current owner does
    /// not cover that page: such an entry lets the old domain's pages be
    /// checked against the new domain's PKRU bits.
    fn check_stale_tlb_keys(&self, findings: &mut Vec<Finding>) {
        let keys = self.mpk.key_allocator();
        for (vpn, entry) in self.mpk.mmu().tlb.entries() {
            if entry.tag == 0 {
                continue;
            }
            let va = vpn << PAGE_BITS;
            let owner = keys.owner(entry.tag);
            let covered = owner
                .and_then(|pmo| self.mpk.mmu().region_of(pmo))
                .is_some_and(|region| region.covers(va));
            if !covered {
                findings.push(Finding {
                    class: ViolationClass::StaleKeyGrant,
                    thread: self.current,
                    message: format!(
                        "TLB entry for va {va:#x} still tagged key {} now owned by {}",
                        entry.tag,
                        owner.map_or_else(|| "nobody".into(), |p| format!("P{}", p.raw())),
                    ),
                });
            }
        }
    }

    /// A DTTLB entry caching a key must agree with the key allocator.
    fn check_stale_dttlb_keys(&self, findings: &mut Vec<Finding>) {
        let keys = self.mpk.key_allocator();
        for entry in self.mpk.dttlb().entries() {
            if let Some(key) = entry.key {
                if keys.owner(key) != Some(entry.pmo) {
                    findings.push(Finding {
                        class: ViolationClass::StaleKeyGrant,
                        thread: self.current,
                        message: format!(
                            "DTTLB caches key {key} for P{} but the allocator disagrees",
                            entry.pmo.raw()
                        ),
                    });
                }
            }
        }
    }

    /// A materialized PKRU must grant, for every key its allocator has
    /// assigned, exactly the running thread's logical permission for the
    /// owning domain; `who` names the scheme in the message. For ERIM, a
    /// call gate that skips the restore half of its exit path (the
    /// planted [`ProtocolBug::SkipGateExitKeyRestore`]) leaves a wider
    /// grant in PKRU than the session table records.
    fn check_pkru(&self, who: &str, pkru: Pkru, keys: &KeyAllocator, findings: &mut Vec<Finding>) {
        for (key, pmo) in keys.assignments() {
            let expect = if self.spec.is_attached(pmo) {
                self.spec.perm(self.current, pmo)
            } else {
                Perm::None
            };
            let actual = pkru.perm(key);
            if actual != expect {
                findings.push(Finding {
                    class: ViolationClass::PkruDesync,
                    thread: self.current,
                    message: format!(
                        "{who}PKRU grants {actual:?} via key {key} for P{} but thread {} holds \
                         {expect:?}",
                        pmo.raw(),
                        self.current
                    ),
                });
            }
        }
    }

    /// DPTI's loaded address space must be the running thread's: CR3 must
    /// track every context switch, and the rows of the loaded per-thread
    /// table must hold exactly the running thread's logical permission
    /// for each attached domain. A skipped CR3 write (the planted
    /// [`ProtocolBug::StaleCr3OnSwitch`]) leaves the previous thread's
    /// page tables — and all their grants — live under the new thread.
    fn check_dpti_space(&self, findings: &mut Vec<Finding>) {
        if self.dpti.cr3().raw() != self.current {
            findings.push(Finding {
                class: ViolationClass::PtlbDesync,
                thread: self.current,
                message: format!(
                    "DPTI CR3 still points at thread {}'s address space while thread {} runs",
                    self.dpti.cr3().raw(),
                    self.current
                ),
            });
        }
        let loaded = self.dpti.tables().get(&self.dpti.cr3());
        for &pmo in self.spec.attached() {
            let expect = self.spec.perm(self.current, pmo);
            let actual = loaded.and_then(|rows| rows.get(&pmo)).copied().unwrap_or(Perm::None);
            if actual != expect {
                findings.push(Finding {
                    class: ViolationClass::PtlbDesync,
                    thread: self.current,
                    message: format!(
                        "DPTI loaded tables grant {actual:?} for P{} but thread {} holds \
                         {expect:?}",
                        pmo.raw(),
                        self.current
                    ),
                });
            }
        }
    }

    /// Every PTLB entry for an attached domain must hold exactly the
    /// running thread's logical permission (the PTLB is thread-private
    /// state: a context switch flushes it, a detach invalidates it).
    /// Entries for detached domains are ignored — the DRT no longer maps
    /// any VA to them, so they are unreachable until a re-attach makes
    /// them (checkably) stale.
    fn check_ptlb(&self, findings: &mut Vec<Finding>) {
        for entry in self.dom.ptlb().entries() {
            if !self.spec.is_attached(entry.pmo) {
                continue;
            }
            let expect = self.spec.perm(self.current, entry.pmo);
            if entry.perm != expect {
                findings.push(Finding {
                    class: ViolationClass::PtlbDesync,
                    thread: self.current,
                    message: format!(
                        "PTLB caches {:?} for P{} but thread {} holds {expect:?}",
                        entry.perm,
                        entry.pmo.raw(),
                        self.current
                    ),
                });
            }
        }
    }
}

fn verdict(allowed: bool) -> &'static str {
    if allowed {
        "allows"
    } else {
        "denies"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{model_config, Program};

    fn tiny_scenario() -> Scenario {
        Scenario {
            name: "test".into(),
            about: "",
            setup: vec![PmoId::new(1), PmoId::new(2)],
            program: Program { threads: vec![vec![], vec![]] },
            config: model_config(8, 4, 4),
            key_pressure: false,
        }
    }

    #[test]
    fn clean_steps_produce_no_findings() {
        let scenario = tiny_scenario();
        let mut world = World::new(&scenario, None);
        let p1 = PmoId::new(1);
        let steps = [
            (0, Op::SetPerm { pmo: p1, perm: Perm::ReadWrite }),
            (0, Op::Access { pmo: p1, offset: 0, kind: AccessKind::Write }),
            (1, Op::Access { pmo: p1, offset: 0, kind: AccessKind::Read }),
            (1, Op::SetPerm { pmo: p1, perm: Perm::ReadOnly }),
            (1, Op::Access { pmo: p1, offset: 0, kind: AccessKind::Read }),
            (0, Op::Detach { pmo: p1 }),
            (0, Op::Access { pmo: p1, offset: 0, kind: AccessKind::Read }),
        ];
        for (thread, op) in steps {
            let findings = world.step(thread, op);
            assert!(findings.is_empty(), "unexpected findings at {op}: {findings:?}");
        }
        assert!(world.trace().iter().any(|e| matches!(e, TraceEvent::ThreadSwitch { .. })));
        assert_eq!(world.observations().len(), 4, "one observation per access");
        assert!(world.end_checks().is_empty(), "clean run is noninterferent");
    }

    #[test]
    fn planted_pkru_desync_is_caught() {
        let scenario = tiny_scenario();
        let mut world = World::new(&scenario, Some(ProtocolBug::SkipPkruUpdateOnSetPerm));
        let p1 = PmoId::new(1);
        world.step(0, Op::SetPerm { pmo: p1, perm: Perm::ReadWrite });
        // First access assigns the key (PKRU update at assignment is
        // correct), so the planted bug is still invisible...
        assert!(world
            .step(0, Op::Access { pmo: p1, offset: 0, kind: AccessKind::Write })
            .is_empty());
        // ...until a SETPERM on the key-holding domain skips the update.
        let findings = world.step(0, Op::SetPerm { pmo: p1, perm: Perm::None });
        assert!(
            findings.iter().any(|f| f.class == ViolationClass::PkruDesync),
            "expected pkru-desync, got {findings:?}"
        );
    }

    #[test]
    fn planted_ptlb_flush_skip_fails_every_check_layer() {
        // Thread 0's grant survives in the PTLB across the switch, so
        // thread 1's read is wrongly allowed: the verdict, the PTLB
        // sweep, the abstraction function and the noninterference pass
        // each see the same bug under their own class.
        let scenario = tiny_scenario();
        let mut world = World::new(&scenario, Some(ProtocolBug::SkipPtlbFlushOnSwitch));
        let p1 = PmoId::new(1);
        world.step(0, Op::SetPerm { pmo: p1, perm: Perm::ReadWrite });
        let findings = world.step(1, Op::Access { pmo: p1, offset: 0, kind: AccessKind::Read });
        for class in [
            ViolationClass::SchemeDivergence,
            ViolationClass::PtlbDesync,
            ViolationClass::RefinementDivergence,
        ] {
            assert!(findings.iter().any(|f| f.class == class), "no {class} in {findings:?}");
        }
        assert!(
            findings.iter().any(|f| f.message.starts_with("alpha-dom:")),
            "the abstraction finding names its machine: {findings:?}"
        );
        let leaks = world.end_checks();
        assert!(
            leaks.iter().any(|f| f.class == ViolationClass::NoninterferenceLeak && f.thread == 1),
            "thread 1 never held a grant on P1: {leaks:?}"
        );
    }

    #[test]
    fn double_attach_and_detach_are_noops() {
        let scenario = tiny_scenario();
        let mut world = World::new(&scenario, None);
        let p1 = PmoId::new(1);
        let before = world.trace().len();
        assert!(world.step(0, Op::Attach { pmo: p1 }).is_empty(), "EEXIST attach");
        assert_eq!(world.trace().len(), before, "no-op attach records nothing");
        assert!(world.step(0, Op::Detach { pmo: p1 }).is_empty());
        assert!(world.step(0, Op::Detach { pmo: p1 }).is_empty(), "ENOENT detach");
        assert!(world.step(0, Op::Attach { pmo: p1 }).is_empty(), "re-attach after detach");
    }
}
