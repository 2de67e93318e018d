//! The checked state: every verified protection machine runs in
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
//! The machines form one ordered list, and every step is one loop over it
//! that checks three layers, each reported under its own class. The list
//! is data: a checking world holds every verified machine (mpk-virt,
//! domain-virt, ERIM, DPTI), and a tracing world holds mpk-virt alone,
//! the machine whose drained events the recorded trace keeps, so it
//! records the same trace at a quarter of the machines' cost.
//!
//! * **Verdicts** — every concrete allow/deny decision equals the spec's
//!   (`scheme-divergence`).
//! * **Caches** — shootdown completeness, then each machine's own sweep:
//!   no stale TLB or DTTLB key, PKRU consistency, PT/PTLB agreement, and
//!   the ERIM-PKRU and DPTI loaded-table sweeps (`stale-key-grant`,
//!   `pkru-desync`, `ptlb-desync`).
//! * **Abstraction** — each machine's abstraction function equals the
//!   spec state (`refinement-divergence`).
//!
//! Every access is also recorded as an [`AccessObs`], and
//! [`World::end_checks`] runs the perturb-and-compare noninterference
//! pass over those observations at the end of each execution
//! (`noninterference-leak`).

use pmo_analyzer::ViolationClass;
use pmo_protect::scheme::{AnyScheme, DomainVirt, Dpti, Erim, MpkVirt, ProtectionScheme};
use pmo_protect::ProtocolBug;
use pmo_simarch::SimConfig;
use pmo_trace::{AccessKind, PmoId, ThreadId, TraceEvent};

use crate::machine::verified;
use crate::program::{Op, Scenario, POOL_BYTES};
use crate::refine::{noninterference_all, AbsState, AccessObs};
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

/// A list of verified machines — in a checking world the paper's two
/// designs plus the related-work schemes ERIM and DPTI, in a tracing
/// world mpk-virt alone — run in lockstep against the spec machine,
/// advanced one operation at a time.
///
/// `clone_from` restores a world in place: each machine and the spec are
/// cloned field by field into the ones already there, reusing their TLB,
/// replacement, DTTLB, PTLB and key-allocator buffers, their sorted-vector
/// tables and the page tables' leaves, and the trace and observation
/// buffers keep their capacity. The explorer restores every schedule's
/// world from a post-setup template this way, with no allocator call once
/// the buffers have grown.
pub struct World {
    /// The machines in finding order; the first one's drained events are
    /// the trace's. A vector's `clone_from` clones each entry into the one
    /// already there, so a restore still clones every machine in place.
    machines: Vec<AnyScheme>,
    /// The ranged shootdowns each machine has published so far.
    shootdowns: Vec<u64>,
    spec: SpecMachine,
    bug: Option<ProtocolBug>,
    /// The trace recorded so far (replayable through `pmo-analyzer`).
    trace: Vec<TraceEvent>,
    /// Access observations recorded for the noninterference pass.
    obs: Vec<AccessObs>,
    current: u32,
    /// The buffer every step's abstraction functions write into.
    abs: AbsState,
}

pmo_simarch::impl_clone_in_place!(World {
    machines,
    shootdowns,
    spec,
    bug,
    trace,
    obs,
    current,
    abs
});

impl World {
    /// Builds the initial checking state for a scenario, attaching its
    /// setup domains; `bug` plants a [`ProtocolBug`] into whichever scheme
    /// the bug targets (self-validation runs).
    #[must_use]
    pub fn new(scenario: &Scenario, bug: Option<ProtocolBug>) -> Self {
        World::with_setup(&scenario.config, &scenario.setup, bug, false)
    }

    /// Builds the state every program over `config` starts from once the
    /// `setup` domains are attached: every verified machine in finding
    /// order, or, when `tracing`, mpk-virt alone (the machine the recorded
    /// trace keeps the events of).
    pub(crate) fn with_setup(
        config: &SimConfig,
        setup: &[PmoId],
        bug: Option<ProtocolBug>,
        tracing: bool,
    ) -> Self {
        let mut machines = vec![AnyScheme::MpkVirt(MpkVirt::with_bug(config, bug))];
        if !tracing {
            machines.extend([
                AnyScheme::DomainVirt(DomainVirt::with_bug(config, bug)),
                AnyScheme::Erim(Erim::with_bug(config, bug)),
                AnyScheme::Dpti(Dpti::with_bug(config, bug)),
            ]);
        }
        let mut world = World {
            shootdowns: vec![0; machines.len()],
            machines,
            spec: SpecMachine::new(),
            bug,
            trace: Vec::new(),
            obs: Vec::new(),
            current: 0,
            abs: AbsState::default(),
        };
        for &pmo in setup {
            world.do_attach(pmo);
        }
        world
    }

    /// The verified machines, in the order findings name them.
    #[must_use]
    pub fn machines(&self) -> &[AnyScheme] {
        &self.machines
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
        for machine in &mut self.machines {
            let attached = machine.attach(pmo, base, POOL_BYTES, true);
            debug_assert!(attached.is_ok(), "the spec admitted the attach");
        }
        self.trace.push(TraceEvent::Attach { pmo, base, size: POOL_BYTES, nvm: true });
    }

    /// Executes one operation by thread index `thread` (context-switching
    /// every scheme if it differs from the running thread) and returns
    /// every violation observable afterwards.
    pub fn step(&mut self, thread: u32, op: Op) -> Vec<Finding> {
        if thread != self.current {
            let tid = ThreadId::new(thread);
            for machine in &mut self.machines {
                machine.context_switch(tid);
            }
            self.current = thread;
            self.trace.push(TraceEvent::ThreadSwitch { thread: tid });
        }
        let mut findings = Vec::new();
        match op {
            Op::Attach { pmo } => self.do_attach(pmo),
            Op::Detach { pmo } => {
                // ENOENT semantics, mirroring do_attach.
                if self.spec.detach(pmo) {
                    for machine in &mut self.machines {
                        machine.detach(pmo);
                    }
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
                for machine in &mut self.machines {
                    machine.set_perm(pmo, perm);
                }
                self.spec.set_perm(thread, pmo, perm);
                self.trace.push(TraceEvent::SetPerm { pmo, perm });
            }
            Op::Access { pmo, offset, kind } => {
                let va = Op::base_of(pmo) + offset;
                // Bit `i` is machine `i`'s verdict.
                let mut verdicts = 0u64;
                for (i, machine) in self.machines.iter_mut().enumerate() {
                    verdicts |= u64::from(machine.access(va, kind).allowed()) << i;
                }
                let allowed = |i: usize| verdicts >> i & 1 == 1;
                let expect = self.spec.allows(thread, pmo, kind);
                if (0..self.machines.len()).any(|i| allowed(i) != expect) {
                    let concrete: Vec<String> = self
                        .machines
                        .iter()
                        .enumerate()
                        .map(|(i, machine)| format!("{:?} {}", machine.kind(), verdict(allowed(i))))
                        .collect();
                    findings.push(Finding {
                        class: ViolationClass::SchemeDivergence,
                        thread,
                        message: format!(
                            "{op}: spec {} but {}",
                            verdict(expect),
                            concrete.join(" / ")
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
                    concrete_allowed: verdicts != 0,
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
        // Every machine's protocol events are drained onto the trace, but
        // the recorded trace stays canonical against the first machine:
        // ERIM's and DPTI's own gate-exit/revoke settle events are counted,
        // then cut off again.
        for (i, (machine, shootdowns)) in
            self.machines.iter_mut().zip(&mut self.shootdowns).enumerate()
        {
            let recorded = self.trace.len();
            machine.drain_events_into(&mut self.trace);
            let drained = &self.trace[recorded..];
            *shootdowns +=
                drained.iter().filter(|ev| matches!(ev, TraceEvent::Shootdown { .. })).count()
                    as u64;
            if i > 0 {
                self.trace.truncate(recorded);
            }
        }
        for (machine, &shootdowns) in self.machines.iter().zip(&self.shootdowns) {
            // Every key eviction must have published a ranged shootdown
            // (§IV.B: reassigning a key without invalidating the victim's
            // translations leaves the old domain readable through the new
            // domain's grants).
            let evictions = machine.stats().key_evictions;
            if evictions > shootdowns {
                findings.push(Finding {
                    class: ViolationClass::StaleKeyGrant,
                    thread: self.current,
                    message: format!(
                        "{evictions} key eviction(s) but only {shootdowns} ranged shootdown(s) \
                         issued"
                    ),
                });
            }
            let (_, sweeps) = verified(machine);
            sweeps.check_caches(&self.spec, self.current, &mut findings);
        }
        for machine in &self.machines {
            let (alpha_name, machine) = verified(machine);
            self.abs.clear();
            machine.alpha(self.current, &mut self.abs);
            if !self.abs.matches(&self.spec) {
                findings.push(Finding {
                    class: ViolationClass::RefinementDivergence,
                    thread: self.current,
                    message: format!(
                        "{alpha_name}: abstraction {} != spec {}",
                        self.abs,
                        AbsState::of_spec(&self.spec)
                    ),
                });
            }
        }
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
    use pmo_trace::Perm;

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
    fn a_leak_through_only_the_last_machine_is_still_a_leak() {
        // A stale CR3 leaves thread 1 on thread 0's page tables, so DPTI,
        // the last machine in the list, is the only one that lets thread
        // 1's read through: the verdict check and the noninterference
        // pass must each see a load that any one machine admits.
        let scenario = tiny_scenario();
        let mut world = World::new(&scenario, Some(ProtocolBug::StaleCr3OnSwitch));
        let p1 = PmoId::new(1);
        world.step(0, Op::SetPerm { pmo: p1, perm: Perm::ReadWrite });
        let read = Op::Access { pmo: p1, offset: 0, kind: AccessKind::Read };
        let findings = world.step(1, read);
        let divergence = format!(
            "{read}: spec denies but MpkVirt denies / DomainVirt denies / Erim denies / Dpti allows"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.class == ViolationClass::SchemeDivergence && f.message == divergence),
            "{findings:?}"
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
