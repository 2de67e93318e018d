//! The refinement layer: the simulation relation between each verified
//! machine and the [`SpecMachine`], and the noninterference pass.
//!
//! # Simulation relation
//!
//! The checker maintains `R(c, s) := alpha(c) == state(s) ∧ caches(c) ⊑ s`
//! for every verified machine `c` (one `Machine` impl each in the
//! `machine` module: the paper's two designs plus the related-work
//! schemes ERIM and DPTI) after every schedule step:
//!
//! * **Abstraction equality.** `Machine::alpha` maps the machine's
//!   authoritative permission store (design 1's DTT, design 2's PT
//!   overlaid with the running thread's PTLB, ERIM's session table,
//!   DPTI's per-thread page tables) onto the spec's `(attached set, perm
//!   map)`, written as sorted rows into an `AbsState` buffer the caller
//!   owns and reuses, which must equal the spec's state exactly.
//! * **Cache soundness.** The derived caches — TLB protection keys,
//!   DTTLB key copies, the materialized PKRU, PTLB rows for the running
//!   thread, DPTI's loaded table — must never be observably ahead of or
//!   behind the spec; `Machine::check_caches` sweeps them, each
//!   reported under its own class.
//! * **Verdict equality.** Every allow/deny decision of every machine
//!   must equal the spec's [`SpecMachine::allows`].
//!
//! # Noninterference
//!
//! Every verified machine is data-oblivious: no allow/deny verdict, no
//! cache transition, and no cost depends on the *values* loaded or
//! stored. Perturbing a domain's data therefore cannot change the
//! schedule or the verdicts, so the perturb-and-compare run does not need
//! to re-execute the schemes — it only needs to re-run the memory model
//! over the recorded access observations ([`AccessObs`]) with the target
//! domain's contents tagged. A flow exists exactly when a thread that
//! never held a grant on the target domain observes a value that differs
//! between the base and the perturbed run.

use std::collections::BTreeMap;
use std::fmt;

use pmo_simarch::{VecMap, VecSet};
use pmo_trace::{AccessKind, Perm, PmoId};

use crate::spec::SpecMachine;

/// The abstract `(attached set, perm map)` pair an abstraction function
/// writes, kept in the spec's canonical form: attached domains ascending,
/// `(thread, domain)` rows ascending, and no [`Perm::None`] row. Both
/// halves are sorted vectors the caller clears and reuses, so checking a
/// step allocates nothing once they have grown.
#[derive(Debug, Default)]
pub(crate) struct AbsState {
    attached: VecSet<PmoId>,
    perms: VecMap<(u32, PmoId), Perm>,
}

pmo_simarch::impl_clone_in_place!(AbsState { attached, perms });

impl AbsState {
    /// Empties both halves, keeping their buffers.
    pub(crate) fn clear(&mut self) {
        self.attached.clear();
        self.perms.clear();
    }

    /// Adds `pmo` to the attached set.
    pub(crate) fn attach(&mut self, pmo: PmoId) {
        self.attached.insert(pmo);
    }

    /// Sets a `(thread, domain)` row: a later write to the same row
    /// replaces it, and [`Perm::None`] removes it.
    pub(crate) fn set(&mut self, row: (u32, PmoId), perm: Perm) {
        if perm == Perm::None {
            self.perms.remove(&row);
        } else {
            self.perms.insert(row, perm);
        }
    }

    /// Whether this is exactly the spec's state.
    pub(crate) fn matches(&self, spec: &SpecMachine) -> bool {
        self.attached == *spec.attached() && self.perms == *spec.perms()
    }

    /// The spec's state in this form (divergence messages print it).
    pub(crate) fn of_spec(spec: &SpecMachine) -> Self {
        AbsState { attached: spec.attached().clone(), perms: spec.perms().clone() }
    }
}

/// Renders compactly for divergence messages.
impl fmt::Display for AbsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let attached = self.attached.iter().map(|p| format!("P{}", p.raw())).collect::<Vec<_>>();
        let perms = self
            .perms
            .iter()
            .map(|(&(t, p), perm)| format!("t{t}/P{}={perm:?}", p.raw()))
            .collect::<Vec<_>>();
        write!(f, "attached[{}] perms[{}]", attached.join(","), perms.join(","))
    }
}

/// One recorded load/store observation, the input to the noninterference
/// replay. Recorded for *every* access the program issues, allowed or
/// not.
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
    /// Whether any verified machine admitted the access: a concrete
    /// allow returns data to the program, whatever the spec says, so
    /// this is the noninterference pass's "the load observed" predicate.
    pub concrete_allowed: bool,
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
/// loads observe when any verified machine admits them (a concrete
/// allow returns data to the program, whatever the spec says).
///
/// Because every machine is data-oblivious (see module docs), verdicts
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
                if !o.concrete_allowed {
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
                && o.concrete_allowed
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
            concrete_allowed: allowed,
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
        bad.concrete_allowed = true;
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
        bad.concrete_allowed = true;
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
    fn all_targets_sweep_covers_every_domain() {
        let spec = spec_with_grant(0);
        let mut bad = obs(1, AccessKind::Read, false);
        bad.concrete_allowed = true;
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
                    concrete_allowed: bit(r, 9),
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
