//! Static permission-window auditing of traces.
//!
//! The paper's security argument (§VI.D) rests on a discipline the
//! *program* must follow: permissions are enabled right before PMO work
//! and disabled right after, so that "at most two PMOs are enabled" at
//! any time and vulnerabilities are confined to the open window. ERIM
//! enforces the analogous property for WRPKRU sites by binary
//! inspection. [`PermAudit`] is the trace-level analogue: it scans an
//! instruction stream and reports every violation of the window
//! discipline, without running a simulator.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound::{Excluded, Unbounded};

use crate::{Perm, PmoId, ThreadId, TraceEvent, TraceSink, Va};

/// A violation of the permission-window discipline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// A thread accessed an attached PMO without holding a sufficient
    /// grant at that point of the trace.
    UnguardedAccess {
        /// The accessing thread.
        thread: ThreadId,
        /// The PMO accessed.
        pmo: PmoId,
        /// The faulting address.
        va: Va,
        /// Whether the access was a write.
        write: bool,
    },
    /// A thread held more than the allowed number of simultaneously
    /// enabled domains (the paper argues for at most two).
    TooManyOpenWindows {
        /// The offending thread.
        thread: ThreadId,
        /// How many domains were enabled after this grant.
        open: usize,
    },
    /// A grant was still open when the trace ended (a missing revoke:
    /// the window never closed).
    WindowLeftOpen {
        /// The thread holding the grant.
        thread: ThreadId,
        /// The domain still enabled.
        pmo: PmoId,
    },
    /// A PMO was detached while some thread still held a grant on it.
    DetachedWhileGranted {
        /// The thread holding the grant.
        thread: ThreadId,
        /// The detached PMO.
        pmo: PmoId,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::UnguardedAccess { thread, pmo, va, write } => write!(
                f,
                "thread {thread} {} pmo {pmo} at {va:#x} outside a permission window",
                if *write { "wrote" } else { "read" }
            ),
            AuditViolation::TooManyOpenWindows { thread, open } => {
                write!(f, "thread {thread} holds {open} simultaneously enabled domains")
            }
            AuditViolation::WindowLeftOpen { thread, pmo } => {
                write!(f, "thread {thread} left pmo {pmo} enabled at end of trace")
            }
            AuditViolation::DetachedWhileGranted { thread, pmo } => {
                write!(f, "pmo {pmo} detached while thread {thread} still held a grant")
            }
        }
    }
}

/// A [`TraceSink`] that audits permission-window hygiene.
///
/// Feed a trace through it (alone, or tee'd with the simulator) and call
/// [`PermAudit::finish`] for the violation list.
///
/// Only Detach scans. A grant checks a per-thread count of open windows,
/// and an access first tries the last resolved region and the last
/// looked-up grant, since accesses run in long same-PMO stretches.
/// Attach and Detach drop the region memo; SetPerm and Detach drop the
/// grant memo.
#[derive(Debug)]
pub struct PermAudit {
    /// Attached regions: base -> (end, pmo).
    regions: BTreeMap<Va, (Va, PmoId)>,
    /// Open grants: (thread, pmo) -> perm.
    grants: BTreeMap<(ThreadId, PmoId), Perm>,
    /// Open grants per thread: the window count a grant is checked against.
    open: BTreeMap<ThreadId, usize>,
    /// The last resolved region as `(lo, hi, pmo)`: every `va` in
    /// `[lo, hi)` resolves to `pmo`. `hi` is the region's end or the next
    /// region's base, whichever comes first, so overlapping regions
    /// resolve exactly as the `regions` lookup does.
    region_memo: Option<(Va, Va, PmoId)>,
    /// The last grant looked up, held or not: `(thread, pmo, perm)`.
    grant_memo: Option<(ThreadId, PmoId, Perm)>,
    current: ThreadId,
    max_open_windows: usize,
    violations: Vec<AuditViolation>,
}

impl Default for PermAudit {
    fn default() -> Self {
        Self::new()
    }
}

impl PermAudit {
    /// Creates an auditor with the paper's "at most two enabled PMOs"
    /// discipline.
    #[must_use]
    pub fn new() -> Self {
        Self::with_max_open_windows(2)
    }

    /// Creates an auditor allowing up to `max` simultaneously enabled
    /// domains per thread.
    #[must_use]
    pub fn with_max_open_windows(max: usize) -> Self {
        PermAudit {
            regions: BTreeMap::new(),
            grants: BTreeMap::new(),
            open: BTreeMap::new(),
            region_memo: None,
            grant_memo: None,
            current: ThreadId::MAIN,
            max_open_windows: max,
            violations: Vec::new(),
        }
    }

    /// The PMO whose region starts last at or below `va`, if `va` lies
    /// inside that region.
    fn pmo_at(&mut self, va: Va) -> Option<PmoId> {
        if let Some((lo, hi, pmo)) = self.region_memo {
            if (lo..hi).contains(&va) {
                return Some(pmo);
            }
        }
        let (&base, &(end, pmo)) = self.regions.range(..=va).next_back()?;
        if va >= end {
            return None;
        }
        let next = self.regions.range((Excluded(base), Unbounded)).next().map_or(Va::MAX, |n| *n.0);
        self.region_memo = Some((base, end.min(next), pmo));
        Some(pmo)
    }

    /// The current thread's grant on `pmo` (`Perm::None` if none).
    fn held(&mut self, pmo: PmoId) -> Perm {
        let thread = self.current;
        if let Some((t, p, perm)) = self.grant_memo {
            if (t, p) == (thread, pmo) {
                return perm;
            }
        }
        let perm = self.grants.get(&(thread, pmo)).copied().unwrap_or(Perm::None);
        self.grant_memo = Some((thread, pmo, perm));
        perm
    }

    /// Closes `thread`'s window on `pmo`, if one is open.
    fn revoke(&mut self, thread: ThreadId, pmo: PmoId) {
        if self.grants.remove(&(thread, pmo)).is_some() {
            *self.open.get_mut(&thread).expect("a held grant is counted") -= 1;
        }
    }

    fn check_access(&mut self, va: Va, write: bool) {
        let Some(pmo) = self.pmo_at(va) else { return };
        let held = self.held(pmo);
        let ok = if write { held.allows_write() } else { held.allows_read() };
        if !ok {
            self.violations.push(AuditViolation::UnguardedAccess {
                thread: self.current,
                pmo,
                va,
                write,
            });
        }
    }

    /// Violations found so far.
    #[must_use]
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Ends the audit: any still-open window is itself a violation.
    #[must_use]
    pub fn finish(mut self) -> Vec<AuditViolation> {
        for &(thread, pmo) in self.grants.keys() {
            self.violations.push(AuditViolation::WindowLeftOpen { thread, pmo });
        }
        self.violations
    }
}

impl TraceSink for PermAudit {
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Attach { pmo, base, size, .. } => {
                self.region_memo = None;
                self.regions.insert(base, (base + size, pmo));
            }
            TraceEvent::Detach { pmo } => {
                self.region_memo = None;
                self.grant_memo = None;
                self.regions.retain(|_, (_, p)| *p != pmo);
                let holders: Vec<ThreadId> =
                    self.grants.keys().filter(|(_, p)| *p == pmo).map(|(t, _)| *t).collect();
                for thread in holders {
                    self.revoke(thread, pmo);
                    self.violations.push(AuditViolation::DetachedWhileGranted { thread, pmo });
                }
            }
            TraceEvent::SetPerm { pmo, perm } => {
                self.grant_memo = None;
                let thread = self.current;
                if perm == Perm::None {
                    self.revoke(thread, pmo);
                } else {
                    let open = self.open.entry(thread).or_default();
                    if self.grants.insert((thread, pmo), perm).is_none() {
                        *open += 1;
                    }
                    if *open > self.max_open_windows {
                        let open = *open;
                        self.violations.push(AuditViolation::TooManyOpenWindows { thread, open });
                    }
                }
            }
            TraceEvent::ThreadSwitch { thread } => self.current = thread,
            TraceEvent::Load { va, .. } => self.check_access(va, false),
            TraceEvent::Store { va, .. } | TraceEvent::StoreData { va, .. } => {
                self.check_access(va, true);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const BASE: Va = 0x1000;

    /// The reference auditor: every access resolves its region and grant
    /// with a fresh map lookup, and every grant recounts the thread's open
    /// windows. [`PermAudit`] must match it violation for violation.
    #[derive(Debug)]
    struct ScanAudit {
        regions: BTreeMap<Va, (Va, PmoId)>,
        grants: BTreeMap<(ThreadId, PmoId), Perm>,
        current: ThreadId,
        max_open_windows: usize,
        violations: Vec<AuditViolation>,
    }

    impl ScanAudit {
        fn with_max_open_windows(max: usize) -> Self {
            ScanAudit {
                regions: BTreeMap::new(),
                grants: BTreeMap::new(),
                current: ThreadId::MAIN,
                max_open_windows: max,
                violations: Vec::new(),
            }
        }

        fn pmo_at(&self, va: Va) -> Option<PmoId> {
            let (_, (end, pmo)) = self.regions.range(..=va).next_back()?;
            (va < *end).then_some(*pmo)
        }

        fn open_windows(&self, thread: ThreadId) -> usize {
            self.grants.keys().filter(|(t, _)| *t == thread).count()
        }

        fn check_access(&mut self, va: Va, write: bool) {
            let Some(pmo) = self.pmo_at(va) else { return };
            let held = self.grants.get(&(self.current, pmo)).copied().unwrap_or(Perm::None);
            let ok = if write { held.allows_write() } else { held.allows_read() };
            if !ok {
                self.violations.push(AuditViolation::UnguardedAccess {
                    thread: self.current,
                    pmo,
                    va,
                    write,
                });
            }
        }

        fn finish(mut self) -> Vec<AuditViolation> {
            let mut open: Vec<(ThreadId, PmoId)> = self.grants.keys().copied().collect();
            open.sort_unstable();
            for (thread, pmo) in open {
                self.violations.push(AuditViolation::WindowLeftOpen { thread, pmo });
            }
            self.violations
        }
    }

    impl TraceSink for ScanAudit {
        fn event(&mut self, ev: TraceEvent) {
            match ev {
                TraceEvent::Attach { pmo, base, size, .. } => {
                    self.regions.insert(base, (base + size, pmo));
                }
                TraceEvent::Detach { pmo } => {
                    self.regions.retain(|_, (_, p)| *p != pmo);
                    let holders: Vec<ThreadId> =
                        self.grants.keys().filter(|(_, p)| *p == pmo).map(|(t, _)| *t).collect();
                    for thread in holders {
                        self.grants.remove(&(thread, pmo));
                        self.violations.push(AuditViolation::DetachedWhileGranted { thread, pmo });
                    }
                }
                TraceEvent::SetPerm { pmo, perm } => {
                    if perm == Perm::None {
                        self.grants.remove(&(self.current, pmo));
                    } else {
                        self.grants.insert((self.current, pmo), perm);
                        let open = self.open_windows(self.current);
                        if open > self.max_open_windows {
                            self.violations.push(AuditViolation::TooManyOpenWindows {
                                thread: self.current,
                                open,
                            });
                        }
                    }
                }
                TraceEvent::ThreadSwitch { thread } => self.current = thread,
                TraceEvent::Load { va, .. } => self.check_access(va, false),
                TraceEvent::Store { va, .. } | TraceEvent::StoreData { va, .. } => {
                    self.check_access(va, true);
                }
                _ => {}
            }
        }
    }

    /// One event of a random audit trace over five PMOs and three
    /// threads. Regions start on 2 KiB steps and span 1–8 KiB, so they
    /// overlap, abut and leave gaps; addresses run past every region.
    fn arb_audit_event() -> impl Strategy<Value = TraceEvent> {
        let pmo = (1u32..6).prop_map(PmoId::new);
        let va = 0u64..0x8000;
        prop_oneof![
            (pmo.clone(), 0u64..12, 1u64..9).prop_map(|(pmo, slot, kib)| TraceEvent::Attach {
                pmo,
                base: slot * 0x800,
                size: kib * 0x400,
                nvm: true,
            }),
            pmo.clone().prop_map(|pmo| TraceEvent::Detach { pmo }),
            (pmo.clone(), 0usize..3).prop_map(|(pmo, p)| TraceEvent::SetPerm {
                pmo,
                perm: [Perm::None, Perm::ReadOnly, Perm::ReadWrite][p],
            }),
            (pmo, 0usize..3).prop_map(|(pmo, p)| TraceEvent::SetPerm {
                pmo,
                perm: [Perm::None, Perm::ReadOnly, Perm::ReadWrite][p],
            }),
            (0u32..3).prop_map(|t| TraceEvent::ThreadSwitch { thread: ThreadId::new(t) }),
            va.clone().prop_map(|va| TraceEvent::Load { va, size: 8 }),
            va.clone().prop_map(|va| TraceEvent::Load { va, size: 8 }),
            va.clone().prop_map(|va| TraceEvent::Store { va, size: 8 }),
            va.prop_map(|va| TraceEvent::StoreData { va, size: 8, data: 0 }),
            Just(TraceEvent::Fence),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn memoized_audit_matches_the_scan_oracle(
            events in prop::collection::vec(arb_audit_event(), 0..400),
            max in prop_oneof![0usize..4, Just(usize::MAX)],
        ) {
            let mut audit = PermAudit::with_max_open_windows(max);
            let mut oracle = ScanAudit::with_max_open_windows(max);
            for (i, ev) in events.iter().enumerate() {
                audit.event(*ev);
                oracle.event(*ev);
                // Violations only ever append, so equal lengths after every
                // event plus equal final lists pin each violation to the
                // event that raised it.
                prop_assert_eq!(
                    audit.violations().len(),
                    oracle.violations.len(),
                    "diverged at event {} ({:?})",
                    i,
                    ev
                );
            }
            prop_assert_eq!(audit.finish(), oracle.finish());
        }
    }

    fn attach(audit: &mut PermAudit, pmo: u32, base: Va) {
        audit.event(TraceEvent::Attach { pmo: PmoId::new(pmo), base, size: 0x1000, nvm: true });
    }

    #[test]
    fn clean_window_passes() {
        let mut audit = PermAudit::new();
        attach(&mut audit, 1, BASE);
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        audit.store(BASE + 8, 8);
        audit.load(BASE + 8, 8);
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::None });
        assert!(audit.finish().is_empty());
    }

    #[test]
    fn detects_unguarded_access() {
        let mut audit = PermAudit::new();
        attach(&mut audit, 1, BASE);
        audit.load(BASE, 8); // no grant at all
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadOnly });
        audit.store(BASE, 8); // read-only grant, write access
        let violations = audit.violations().to_vec();
        assert_eq!(violations.len(), 2);
        assert!(matches!(violations[0], AuditViolation::UnguardedAccess { write: false, .. }));
        assert!(matches!(violations[1], AuditViolation::UnguardedAccess { write: true, .. }));
    }

    #[test]
    fn detects_too_many_open_windows() {
        let mut audit = PermAudit::new(); // max 2
        for i in 1..=3u32 {
            attach(&mut audit, i, BASE * u64::from(i) * 2);
            audit.event(TraceEvent::SetPerm { pmo: PmoId::new(i), perm: Perm::ReadOnly });
        }
        assert!(audit
            .violations()
            .iter()
            .any(|v| matches!(v, AuditViolation::TooManyOpenWindows { open: 3, .. })));
    }

    #[test]
    fn detects_leaked_window_at_end() {
        let mut audit = PermAudit::new();
        attach(&mut audit, 1, BASE);
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        let violations = audit.finish();
        assert_eq!(
            violations,
            vec![AuditViolation::WindowLeftOpen { thread: ThreadId::MAIN, pmo: PmoId::new(1) }]
        );
    }

    #[test]
    fn grants_are_per_thread() {
        let mut audit = PermAudit::new();
        attach(&mut audit, 1, BASE);
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        audit.event(TraceEvent::ThreadSwitch { thread: ThreadId::new(1) });
        audit.load(BASE, 8); // thread 1 never got a grant
        assert_eq!(audit.violations().len(), 1);
        // Back on the granting thread: fine.
        audit.event(TraceEvent::ThreadSwitch { thread: ThreadId::MAIN });
        audit.load(BASE, 8);
        assert_eq!(audit.violations().len(), 1);
    }

    #[test]
    fn detects_detach_with_open_grant() {
        let mut audit = PermAudit::new();
        attach(&mut audit, 1, BASE);
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        audit.event(TraceEvent::Detach { pmo: PmoId::new(1) });
        assert!(matches!(audit.violations()[0], AuditViolation::DetachedWhileGranted { .. }));
        // The grant is gone with the detach; the trace can end cleanly.
        assert_eq!(audit.finish().len(), 1);
    }

    #[test]
    fn violation_display_is_descriptive() {
        let violations = [
            AuditViolation::UnguardedAccess {
                thread: ThreadId::MAIN,
                pmo: PmoId::new(1),
                va: 0x1000,
                write: true,
            },
            AuditViolation::TooManyOpenWindows { thread: ThreadId::MAIN, open: 3 },
            AuditViolation::WindowLeftOpen { thread: ThreadId::MAIN, pmo: PmoId::new(1) },
            AuditViolation::DetachedWhileGranted { thread: ThreadId::MAIN, pmo: PmoId::new(1) },
        ];
        for v in violations {
            assert!(!format!("{v}").is_empty());
        }
    }
}
