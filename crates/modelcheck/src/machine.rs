//! One impl per verified scheme: the abstraction function that maps its
//! concrete state onto the spec, and the sweeps of the caches it derives
//! from that state. [`crate::world::World`] steps an ordered list of
//! these machines, whose order is the order findings name them in, so
//! adding a scheme is one impl and one arm of [`verified`] here, and one
//! entry in that list.

use pmo_analyzer::ViolationClass;
use pmo_protect::scheme::{AnyScheme, DomainVirt, Dpti, Erim, MpkVirt, ProtectionScheme};
use pmo_protect::{KeyAllocator, Pkru};
use pmo_simarch::PAGE_BITS;
use pmo_trace::Perm;

use crate::refine::AbsState;
use crate::spec::SpecMachine;
use crate::world::Finding;

/// A protection scheme the world verifies against the spec.
pub(crate) trait Machine: ProtectionScheme {
    /// The abstraction function: writes the machine's logical permission
    /// state, in the spec's form, into `abs` (which the caller cleared),
    /// while thread `current` runs.
    fn alpha(&self, current: u32, abs: &mut AbsState);

    /// Sweeps the caches the machine derives from its logical state
    /// against the spec, while thread `current` runs.
    fn check_caches(&self, spec: &SpecMachine, current: u32, findings: &mut Vec<Finding>);
}

/// The verified machine in one entry of the world's list, and the name
/// `refinement-divergence` messages give its abstraction function.
pub(crate) fn verified(scheme: &AnyScheme) -> (&'static str, &dyn Machine) {
    match scheme {
        AnyScheme::MpkVirt(machine) => ("alpha-mpk", machine),
        AnyScheme::DomainVirt(machine) => ("alpha-dom", machine),
        AnyScheme::Erim(machine) => ("alpha-erim", machine),
        AnyScheme::Dpti(machine) => ("alpha-dpti", machine),
        other => unreachable!("{} is not a verified machine", other.kind()),
    }
}

/// Design 1 (MPK virtualization).
///
/// The DTT is the authoritative permission store: SETPERM writes it
/// through immediately (invalidating the DTTLB copy), so the abstract
/// perm map is exactly the per-thread rows of every attached domain's
/// DTT entry. Keys, PKRU, DTTLB, and TLB contents are derived caches and
/// do not appear in the abstraction; the sweep checks each of them.
impl Machine for MpkVirt {
    fn alpha(&self, _current: u32, abs: &mut AbsState) {
        let dtt = self.dtt();
        for pmo in dtt.domains() {
            abs.attach(pmo);
            if let Some(entry) = dtt.entry(pmo) {
                for (thread, perm) in entry.thread_perms() {
                    abs.set((thread.raw(), pmo), perm);
                }
            }
        }
    }

    fn check_caches(&self, spec: &SpecMachine, current: u32, findings: &mut Vec<Finding>) {
        // No TLB entry may carry a protection key whose current owner
        // does not cover that page: such an entry lets the old domain's
        // pages be checked against the new domain's PKRU bits.
        let keys = self.key_allocator();
        for (vpn, entry) in self.mmu().tlb.entries() {
            if entry.tag == 0 {
                continue;
            }
            let va = vpn << PAGE_BITS;
            let owner = keys.owner(entry.tag);
            let covered = owner
                .and_then(|pmo| self.mmu().region_of(pmo))
                .is_some_and(|region| region.covers(va));
            if !covered {
                findings.push(Finding {
                    class: ViolationClass::StaleKeyGrant,
                    thread: current,
                    message: format!(
                        "TLB entry for va {va:#x} still tagged key {} now owned by {}",
                        entry.tag,
                        owner.map_or_else(|| "nobody".into(), |p| format!("P{}", p.raw())),
                    ),
                });
            }
        }
        // A DTTLB entry caching a key must agree with the key allocator.
        for entry in self.dttlb().entries() {
            if let Some(key) = entry.key {
                if keys.owner(key) != Some(entry.pmo) {
                    findings.push(Finding {
                        class: ViolationClass::StaleKeyGrant,
                        thread: current,
                        message: format!(
                            "DTTLB caches key {key} for P{} but the allocator disagrees",
                            entry.pmo.raw()
                        ),
                    });
                }
            }
        }
        check_pkru("", self.pkru(), keys, spec, current, findings);
    }
}

/// Design 2 (domain virtualization).
///
/// The PT holds every thread's rows, but the running thread's truth may
/// still live in its PTLB (SETPERM completes there; writeback happens on
/// eviction or context switch). The abstraction is therefore the PT
/// overlaid, for `current` only, with the PTLB's rows for attached
/// domains. PTLB rows for detached domains are unreachable (the DRT no
/// longer maps any VA to them) and are excluded, from the abstraction
/// and from the sweep, until a re-attach makes them (checkably) stale.
impl Machine for DomainVirt {
    fn alpha(&self, current: u32, abs: &mut AbsState) {
        let pt = self.pt();
        for pmo in pt.domain_ids() {
            abs.attach(pmo);
        }
        for ((pmo, thread), perm) in pt.entries() {
            abs.set((thread.raw(), pmo), perm);
        }
        for entry in self.ptlb().entries() {
            if pt.contains(entry.pmo) {
                abs.set((current, entry.pmo), entry.perm);
            }
        }
    }

    /// Every PTLB entry for an attached domain must hold exactly the
    /// running thread's logical permission (the PTLB is thread-private
    /// state: a context switch flushes it, a detach invalidates it).
    fn check_caches(&self, spec: &SpecMachine, current: u32, findings: &mut Vec<Finding>) {
        for entry in self.ptlb().entries() {
            if !spec.is_attached(entry.pmo) {
                continue;
            }
            let expect = spec.perm(current, entry.pmo);
            if entry.perm != expect {
                findings.push(Finding {
                    class: ViolationClass::PtlbDesync,
                    thread: current,
                    message: format!(
                        "PTLB caches {:?} for P{} but thread {current} holds {expect:?}",
                        entry.perm,
                        entry.pmo.raw(),
                    ),
                });
            }
        }
    }
}

/// ERIM (call-gate sessions over raw MPK).
///
/// ERIM's session table *is* its logical permission state: every call
/// gate writes the thread's `(domain, perm)` session through
/// immediately, and the protection-key multiplexing underneath (key
/// assignments, software remaps under pressure, the materialized PKRU)
/// is derived cache only. The abstraction is therefore the attached
/// region set plus the session rows verbatim; the sweep checks the PKRU.
impl Machine for Erim {
    fn alpha(&self, _current: u32, abs: &mut AbsState) {
        for region in self.mmu().regions() {
            abs.attach(region.pmo);
        }
        for (&(thread, pmo), &perm) in self.sessions() {
            abs.set((thread.raw(), pmo), perm);
        }
    }

    /// A call gate that skips the restore half of its exit path (the
    /// planted [`pmo_protect::ProtocolBug::SkipGateExitKeyRestore`])
    /// leaves a wider grant in PKRU than the session table records.
    fn check_caches(&self, spec: &SpecMachine, current: u32, findings: &mut Vec<Finding>) {
        check_pkru("ERIM ", self.pkru(), self.key_allocator(), spec, current, findings);
    }
}

/// DPTI (per-domain page tables).
///
/// DPTI keeps one page-table permission map per thread; the kernel's
/// SETPERM writes the calling thread's map directly (regardless of which
/// root CR3 currently points at), so the abstraction is the union of
/// every thread's rows. The loaded-root selection (CR3) is derived
/// hardware state that the sweep checks, which is exactly where a stale
/// CR3 becomes observable.
impl Machine for Dpti {
    fn alpha(&self, _current: u32, abs: &mut AbsState) {
        for region in self.mmu().regions() {
            abs.attach(region.pmo);
        }
        for (thread, rows) in self.tables() {
            for (&pmo, &perm) in rows {
                abs.set((thread.raw(), pmo), perm);
            }
        }
    }

    /// The loaded address space must be the running thread's: CR3 must
    /// track every context switch, and the rows of the loaded per-thread
    /// table must hold exactly the running thread's logical permission
    /// for each attached domain. A skipped CR3 write (the planted
    /// [`pmo_protect::ProtocolBug::StaleCr3OnSwitch`]) leaves the
    /// previous thread's page tables, and all their grants, live under
    /// the new thread.
    fn check_caches(&self, spec: &SpecMachine, current: u32, findings: &mut Vec<Finding>) {
        if self.cr3().raw() != current {
            findings.push(Finding {
                class: ViolationClass::PtlbDesync,
                thread: current,
                message: format!(
                    "DPTI CR3 still points at thread {}'s address space while thread {current} \
                     runs",
                    self.cr3().raw(),
                ),
            });
        }
        let loaded = self.tables().get(&self.cr3());
        for &pmo in spec.attached() {
            let expect = spec.perm(current, pmo);
            let actual = loaded.and_then(|rows| rows.get(&pmo)).copied().unwrap_or(Perm::None);
            if actual != expect {
                findings.push(Finding {
                    class: ViolationClass::PtlbDesync,
                    thread: current,
                    message: format!(
                        "DPTI loaded tables grant {actual:?} for P{} but thread {current} holds \
                         {expect:?}",
                        pmo.raw(),
                    ),
                });
            }
        }
    }
}

/// A materialized PKRU must grant, for every key its allocator has
/// assigned, exactly the running thread's logical permission for the
/// owning domain; `who` names the scheme in the message.
fn check_pkru(
    who: &str,
    pkru: Pkru,
    keys: &KeyAllocator,
    spec: &SpecMachine,
    current: u32,
    findings: &mut Vec<Finding>,
) {
    for (key, pmo) in keys.assignments() {
        let expect = if spec.is_attached(pmo) { spec.perm(current, pmo) } else { Perm::None };
        let actual = pkru.perm(key);
        if actual != expect {
            findings.push(Finding {
                class: ViolationClass::PkruDesync,
                thread: current,
                message: format!(
                    "{who}PKRU grants {actual:?} via key {key} for P{} but thread {current} \
                     holds {expect:?}",
                    pmo.raw(),
                ),
            });
        }
    }
}
