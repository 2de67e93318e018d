//! The refinement layer: abstraction functions from concrete machine
//! state to [`SpecMachine`] state, and the noninterference pass.
//!
//! # Simulation relation
//!
//! The checker maintains `R(c, s) := alpha(c) == state(s) ∧ caches(c) ⊑ s`
//! for every concrete machine `c` — the paper's two designs plus the
//! related-work schemes ERIM ([`alpha_erim`]: the session table is the
//! logical state, key multiplexing is cache) and DPTI ([`alpha_dpti`]:
//! the union of per-thread page-table rows, CR3 selection checked
//! separately) — after every schedule step:
//!
//! * **Abstraction equality.** [`alpha_mpk`] reads the DTT — the
//!   authoritative store design 1's SETPERM writes through immediately —
//!   and [`alpha_dom`] reads the PT overlaid with the running thread's
//!   PTLB (design 2's SETPERM "completes in the PTLB", so the PTLB *is*
//!   the current thread's authoritative row until writeback). Both must
//!   equal the spec's `(attached set, perm map)` exactly.
//! * **Cache soundness.** The derived caches — TLB protection keys,
//!   DTTLB key copies, the materialized PKRU, PTLB rows for the running
//!   thread — must never be observably ahead of or behind the spec; these
//!   are the cache invariants [`crate::world::World`] sweeps, each
//!   reported under its own class.
//! * **Verdict equality.** Every allow/deny decision of either design
//!   must equal the spec's [`SpecMachine::allows`].
//!
//! # Noninterference
//!
//! Both concrete machines are data-oblivious: no allow/deny verdict, no
//! cache transition, and no cost depends on the *values* loaded or
//! stored. Perturbing a domain's data therefore cannot change the
//! schedule or the verdicts, so the perturb-and-compare run does not need
//! to re-execute the schemes — it only needs to re-run the memory model
//! over the recorded access observations ([`AccessObs`]) with the target
//! domain's contents tagged. A flow exists exactly when a thread that
//! never held a grant on the target domain observes a value that differs
//! between the base and the perturbed run.

use std::collections::BTreeMap;

use pmo_protect::scheme::{DomainVirt, Dpti, Erim, MpkVirt};
use pmo_trace::{AccessKind, Perm, PmoId};

use crate::spec::SpecMachine;

/// The abstract `(attached set, perm map)` pair an abstraction function
/// produces, in the spec's canonical form (no [`Perm::None`] rows).
pub type AbsState = (Vec<PmoId>, BTreeMap<(u32, PmoId), Perm>);

/// Abstraction function for design 1 (MPK virtualization).
///
/// The DTT is the authoritative permission store: SETPERM writes it
/// through immediately (invalidating the DTTLB copy), so the abstract
/// perm map is exactly the per-thread rows of every attached domain's
/// DTT entry. Keys, PKRU, DTTLB, and TLB contents are derived caches and
/// do not appear in the abstraction.
#[must_use]
pub fn alpha_mpk(mpk: &MpkVirt) -> AbsState {
    let dtt = mpk.dtt();
    let attached: Vec<PmoId> = dtt.domains().collect();
    let mut perms = BTreeMap::new();
    for &pmo in &attached {
        if let Some(entry) = dtt.entry(pmo) {
            for (thread, perm) in entry.thread_perms() {
                if perm != Perm::None {
                    perms.insert((thread.raw(), pmo), perm);
                }
            }
        }
    }
    (attached, perms)
}

/// Abstraction function for design 2 (domain virtualization).
///
/// The PT holds every thread's rows, but the running thread's truth may
/// still live in its PTLB (SETPERM completes there; writeback happens on
/// eviction or context switch). The abstraction is therefore the PT
/// overlaid, for `current` only, with the PTLB's rows for attached
/// domains. PTLB rows for detached domains are unreachable (the DRT no
/// longer maps any VA to them) and are excluded — the cache-soundness
/// sweep separately rejects them if they ever become reachable again.
#[must_use]
pub fn alpha_dom(dom: &DomainVirt, current: u32) -> AbsState {
    let pt = dom.pt();
    let attached: Vec<PmoId> = pt.domain_ids().collect();
    let mut perms = BTreeMap::new();
    for ((pmo, thread), perm) in pt.entries() {
        if perm != Perm::None {
            perms.insert((thread.raw(), pmo), perm);
        }
    }
    for entry in dom.ptlb().entries() {
        if !pt.contains(entry.pmo) {
            continue;
        }
        if entry.perm == Perm::None {
            perms.remove(&(current, entry.pmo));
        } else {
            perms.insert((current, entry.pmo), entry.perm);
        }
    }
    (attached, perms)
}

/// Abstraction function for ERIM (call-gate sessions over raw MPK).
///
/// ERIM's session table *is* its logical permission state: every call
/// gate writes the thread's `(domain, perm)` session through
/// immediately, and the protection-key multiplexing underneath (key
/// assignments, software remaps under pressure, the materialized PKRU)
/// is derived cache only. The abstraction is therefore the attached
/// region set plus the session rows verbatim.
#[must_use]
pub fn alpha_erim(erim: &Erim) -> AbsState {
    let mut attached: Vec<PmoId> = erim.mmu().regions().map(|r| r.pmo).collect();
    attached.sort_unstable();
    let mut perms = BTreeMap::new();
    for (&(thread, pmo), &perm) in erim.sessions() {
        if perm != Perm::None {
            perms.insert((thread.raw(), pmo), perm);
        }
    }
    (attached, perms)
}

/// Abstraction function for DPTI (per-domain page tables).
///
/// DPTI keeps one page-table permission map per thread; the kernel's
/// SETPERM writes the calling thread's map directly (regardless of which
/// root CR3 currently points at), so the abstraction is the union of
/// every thread's rows. The loaded-root selection (CR3) is derived
/// hardware state: [`crate::world::World`]'s DPTI sweep checks it
/// separately, which is exactly where a stale CR3 becomes observable.
#[must_use]
pub fn alpha_dpti(dpti: &Dpti) -> AbsState {
    let mut attached: Vec<PmoId> = dpti.mmu().regions().map(|r| r.pmo).collect();
    attached.sort_unstable();
    let mut perms = BTreeMap::new();
    for (thread, rows) in dpti.tables() {
        for (&pmo, &perm) in rows {
            if perm != Perm::None {
                perms.insert((thread.raw(), pmo), perm);
            }
        }
    }
    (attached, perms)
}

/// The spec state in [`AbsState`] form, for equality comparison.
#[must_use]
pub fn spec_state(spec: &SpecMachine) -> AbsState {
    (spec.attached().iter().copied().collect(), spec.perms().clone())
}

/// Whether `state` equals the spec state, compared in place so the
/// per-step check does not copy the spec.
#[must_use]
pub fn is_spec_state(state: &AbsState, spec: &SpecMachine) -> bool {
    state.0.iter().eq(spec.attached()) && state.1 == *spec.perms()
}

/// Renders an [`AbsState`] compactly for divergence messages.
#[must_use]
pub fn render_abs(state: &AbsState) -> String {
    let attached = state.0.iter().map(|p| format!("P{}", p.raw())).collect::<Vec<_>>().join(",");
    let perms = state
        .1
        .iter()
        .map(|(&(t, p), perm)| format!("t{t}/P{}={perm:?}", p.raw()))
        .collect::<Vec<_>>()
        .join(",");
    format!("attached[{attached}] perms[{perms}]")
}

/// One recorded load/store observation, the input to the noninterference
/// replay. Recorded for *every* access the program issues, allowed or
/// not, with each machine's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessObs {
    /// Executing thread index.
    pub thread: u32,
    /// Target domain.
    pub pmo: PmoId,
    /// Byte offset inside the pool.
    pub offset: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Whether the domain was attached (spec view) at access time.
    pub attached: bool,
    /// The spec's verdict.
    pub spec_allowed: bool,
    /// Design 1's verdict.
    pub mpk_allowed: bool,
    /// Design 2's verdict.
    pub dom_allowed: bool,
    /// ERIM's verdict (call-gate sessions over raw MPK).
    pub erim_allowed: bool,
    /// DPTI's verdict (per-domain page tables).
    pub dpti_allowed: bool,
}

impl AccessObs {
    /// Whether any concrete machine admitted the access: a concrete
    /// allow returns data to the program, whatever the spec says, so
    /// this is the noninterference pass's "the load observed" predicate.
    #[must_use]
    pub fn any_concrete_allowed(self) -> bool {
        self.mpk_allowed || self.dom_allowed || self.erim_allowed || self.dpti_allowed
    }
}

/// One noninterference violation: an unauthorized thread observed a
/// value that depends on the target domain's data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NiLeak {
    /// The thread that observed the flow.
    pub thread: u32,
    /// The domain whose data leaked.
    pub target: PmoId,
    /// Index of the observing load in the observation sequence.
    pub obs_index: usize,
    /// What happened.
    pub message: String,
}

/// Initial (pre-perturbation) content of a persistent domain cell: PMO
/// contents exist before the program runs, so they are part of the
/// secret.
fn initial(pmo: PmoId, offset: u64) -> u64 {
    (u64::from(pmo.raw()) << 32) | offset
}

/// The perturbation tag: flips a high bit in every cell of the target
/// domain (initial content and stored values alike).
const TAG: u64 = 1 << 63;

/// Replays the memory model over `obs` twice — base and with `target`'s
/// data perturbed — and reports every load by a thread that never held a
/// grant on `target` whose observed value differs between the runs.
///
/// Memory model: PMO cells persist across detach/re-attach (they are
/// persistent objects); a detached domain's VA range reads/writes
/// ordinary anonymous memory (fresh zero pages, discarded at re-attach),
/// which is never part of any domain's secret. Stores take effect when
/// the spec admits them (authorized data flow defines the secret);
/// loads observe when either concrete design admits them (a concrete
/// allow returns data to the program, whatever the spec says).
///
/// Because both designs are data-oblivious (see module docs), verdicts
/// recorded in `obs` are identical in the perturbed run, and this pure
/// replay is exact — not an approximation of re-executing the machines.
#[must_use]
pub fn noninterference(obs: &[AccessObs], spec: &SpecMachine, target: PmoId) -> Vec<NiLeak> {
    let mut leaks = Vec::new();
    let mut base: BTreeMap<(PmoId, u64), u64> = BTreeMap::new();
    let mut pert: BTreeMap<(PmoId, u64), u64> = BTreeMap::new();
    for (i, o) in obs.iter().enumerate() {
        match o.kind {
            AccessKind::Write => {
                // Stores to a detached range hit anonymous memory, which
                // is identical in both runs and never part of a secret.
                if !o.spec_allowed || !o.attached {
                    continue;
                }
                let value = i as u64 + 1;
                base.insert((o.pmo, o.offset), value);
                let tagged = if o.pmo == target { value | TAG } else { value };
                pert.insert((o.pmo, o.offset), tagged);
            }
            AccessKind::Read => {
                if !o.any_concrete_allowed() {
                    continue;
                }
                if !o.attached {
                    // Anonymous page: same cell in both runs by
                    // construction, never tagged.
                    continue;
                }
                let v_base = base
                    .get(&(o.pmo, o.offset))
                    .copied()
                    .unwrap_or_else(|| initial(o.pmo, o.offset));
                let v_pert = pert.get(&(o.pmo, o.offset)).copied().unwrap_or_else(|| {
                    let v = initial(o.pmo, o.offset);
                    if o.pmo == target {
                        v | TAG
                    } else {
                        v
                    }
                });
                if v_base != v_pert && !spec.ever_granted(o.thread, target) {
                    leaks.push(NiLeak {
                        thread: o.thread,
                        target,
                        obs_index: i,
                        message: format!(
                            "thread {} observes P{} data at +{:#x} (load #{i}) with no grant \
                             ever held on P{}: perturbing P{}'s contents changes the value read",
                            o.thread,
                            target.raw(),
                            o.offset,
                            target.raw(),
                            target.raw(),
                        ),
                    });
                }
            }
        }
    }
    leaks
}

/// Runs [`noninterference`] against every domain that can leak and
/// returns all leaks, in domain order.
///
/// Perturbing a target tags only the target's own cells, so only a load
/// of the target itself can observe the tag: a domain is a candidate
/// only when a thread that never held a grant on it loaded from it while
/// it was attached and some concrete machine allowed the load. Clean
/// executions have no candidate (a concrete allow then implies a spec
/// grant) and cost one scan.
#[must_use]
pub fn noninterference_all(obs: &[AccessObs], spec: &SpecMachine) -> Vec<NiLeak> {
    let mut targets: Vec<PmoId> = obs
        .iter()
        .filter(|o| {
            o.kind == AccessKind::Read
                && o.attached
                && o.any_concrete_allowed()
                && !spec.ever_granted(o.thread, o.pmo)
        })
        .map(|o| o.pmo)
        .collect();
    targets.sort_unstable();
    targets.dedup();
    targets.into_iter().flat_map(|t| noninterference(obs, spec, t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p1() -> PmoId {
        PmoId::new(1)
    }

    fn spec_with_grant(thread: u32) -> SpecMachine {
        let mut s = SpecMachine::new();
        s.attach(p1());
        s.set_perm(thread, p1(), Perm::ReadWrite);
        s
    }

    fn obs(thread: u32, kind: AccessKind, allowed: bool) -> AccessObs {
        AccessObs {
            thread,
            pmo: p1(),
            offset: 0,
            kind,
            attached: true,
            spec_allowed: allowed,
            mpk_allowed: allowed,
            dom_allowed: allowed,
            erim_allowed: allowed,
            dpti_allowed: allowed,
        }
    }

    #[test]
    fn authorized_reader_is_not_a_leak() {
        let spec = spec_with_grant(0);
        let trace = [obs(0, AccessKind::Write, true), obs(0, AccessKind::Read, true)];
        assert!(noninterference(&trace, &spec, p1()).is_empty());
    }

    #[test]
    fn unauthorized_concrete_allowed_read_leaks() {
        // Thread 1 never granted; a (buggy) concrete machine lets its
        // read through while the spec denies it.
        let spec = spec_with_grant(0);
        let mut bad = obs(1, AccessKind::Read, false);
        bad.dom_allowed = true;
        let trace = [obs(0, AccessKind::Write, true), bad];
        let leaks = noninterference(&trace, &spec, p1());
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].thread, 1);
        assert_eq!(leaks[0].obs_index, 1);
    }

    #[test]
    fn initial_contents_are_part_of_the_secret() {
        // No store at all: the leaked value is the PMO's pre-existing
        // content.
        let spec = spec_with_grant(0);
        let mut bad = obs(1, AccessKind::Read, false);
        bad.mpk_allowed = true;
        assert_eq!(noninterference(&[bad], &spec, p1()).len(), 1);
    }

    #[test]
    fn denied_reads_and_anonymous_pages_never_leak() {
        let spec = spec_with_grant(0);
        let denied = obs(1, AccessKind::Read, false);
        let mut anon = obs(1, AccessKind::Read, true);
        anon.attached = false;
        assert!(noninterference(&[denied, anon], &spec, p1()).is_empty());
    }

    #[test]
    fn a_leak_through_only_the_new_schemes_is_still_a_leak() {
        // Only DPTI (then only ERIM) lets the unauthorized read through:
        // the observe predicate must cover all four machines.
        let spec = spec_with_grant(0);
        for scheme in 0..2 {
            let mut bad = obs(1, AccessKind::Read, false);
            if scheme == 0 {
                bad.dpti_allowed = true;
            } else {
                bad.erim_allowed = true;
            }
            assert!(bad.any_concrete_allowed());
            let trace = [obs(0, AccessKind::Write, true), bad];
            assert_eq!(noninterference(&trace, &spec, p1()).len(), 1, "scheme {scheme}");
        }
    }

    #[test]
    fn all_targets_sweep_covers_every_domain() {
        let spec = spec_with_grant(0);
        let mut bad = obs(1, AccessKind::Read, false);
        bad.dom_allowed = true;
        let leaks = noninterference_all(&[obs(0, AccessKind::Write, true), bad], &spec);
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].target, p1());
    }

    #[test]
    fn candidate_filter_keeps_every_leak() {
        // Sweeping only the candidate domains must find exactly the leaks
        // a sweep over every observed domain finds.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bit = |r: u64, i: u32| r >> i & 1 == 1;
        let mut leaks = 0;
        for _ in 0..2000 {
            let mut spec = SpecMachine::new();
            spec.attach(PmoId::new(1));
            spec.attach(PmoId::new(2));
            let mut trace = Vec::new();
            for _ in 0..next() % 6 {
                let r = next();
                let thread = u32::from(bit(r, 1));
                let pmo = PmoId::new(1 + u32::from(bit(r, 2)));
                if bit(r, 0) {
                    spec.set_perm(thread, pmo, Perm::ReadOnly);
                }
                trace.push(AccessObs {
                    thread: u32::from(bit(r, 3)),
                    pmo: PmoId::new(1 + u32::from(bit(r, 4))),
                    offset: u64::from(bit(r, 5)) * 8,
                    kind: if bit(r, 6) { AccessKind::Write } else { AccessKind::Read },
                    attached: !bit(r, 7),
                    spec_allowed: bit(r, 8),
                    mpk_allowed: bit(r, 9) && bit(r, 10),
                    dom_allowed: bit(r, 11) && bit(r, 12),
                    erim_allowed: bit(r, 13) && bit(r, 14),
                    dpti_allowed: bit(r, 15) && bit(r, 16),
                });
            }
            let mut every: Vec<PmoId> = trace.iter().map(|o| o.pmo).collect();
            every.sort_unstable();
            every.dedup();
            let reference: Vec<NiLeak> =
                every.into_iter().flat_map(|t| noninterference(&trace, &spec, t)).collect();
            assert_eq!(noninterference_all(&trace, &spec), reference, "{trace:?}");
            leaks += reference.len();
        }
        assert!(leaks > 0, "the generator must produce leaking traces");
    }
}
