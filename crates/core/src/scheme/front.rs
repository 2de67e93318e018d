//! The MMU front end every scheme shares.
//!
//! Both of the paper's designs keep the ordinary MMU pipeline: a TLB
//! lookup, a page walk and fill on a miss, then one permission check
//! (§IV.D–E, Figs 4–5). They differ only in what a TLB entry carries (a
//! protection key or a domain ID) and in where the check reads the
//! thread's permission (PKRU, or PTLB/PT); libmpk and ERIM reuse stock
//! MPK's check and differ only in how keys are reassigned. So the
//! pipeline is written once, here, and every [`ProtectionScheme`] is a
//! [`Mechanism`]: what a scheme supplies on top of it.
//!
//! - Its miss path ([`Mechanism::miss`]): the walk plus key resolution,
//!   the DTT or DRT lookup, or libmpk's guard-key remap.
//! - The permission a resident entry grants ([`Mechanism::grant`]): the
//!   PKRU, the PTLB, the loaded page table, or the lowerbound's ideal map.
//! - Its attach, detach, SETPERM and context-switch mechanism.
//!
//! The front end owns what is common: the MMU, the running thread, the
//! counters, the cycle ledger and the protocol-event queue. It also
//! refuses conflicting attaches before any scheme state changes, and it
//! settles the replay's fast-path accounting. Because the check runs in
//! one place, [`ProtectionScheme::access`] returns the verdict it reached
//! as the warm verdict the replay memoizes, so the slow path and the fast
//! path cannot disagree.
//!
//! The ledger ([`CostBreakdown`]) is the one record of what a scheme
//! costs: every charge, the front end's and each hook's, is one write to
//! one bucket, and no hook returns cycles. The cycles a
//! [`ProtectionScheme`] operation returns are the ledger's growth over
//! it, measured here once.

use pmo_simarch::{vpn, MemKind, SimConfig, TlbStats};
use pmo_trace::{AccessKind, Perm, PmoId, ThreadId, TraceEvent, Va};

use crate::breakdown::CostBreakdown;
use crate::fault::ProtectionFault;
use crate::keys::KeyAllocator;
use crate::mmu::{granule_covering, MmuBase, Region, TlbEntry};
use crate::scheme::{AccessResult, FastHint, ProtectionScheme, SchemeKind, SchemeStats};

/// The state every scheme holds in common.
#[derive(Debug)]
pub(crate) struct Front<T> {
    pub(crate) mmu: MmuBase<T>,
    pub(crate) cfg: SimConfig,
    /// The thread running on the core.
    pub(crate) current: ThreadId,
    pub(crate) stats: SchemeStats,
    /// The cycle ledger: every cycle the scheme charges, by bucket.
    pub(crate) breakdown: CostBreakdown,
    /// Protocol events awaiting [`ProtectionScheme::drain_events_into`].
    pub(crate) events: Vec<TraceEvent>,
}

pmo_simarch::impl_clone_in_place!(Front<T> { mmu, cfg, current, stats, breakdown, events });

impl<T: Copy> Front<T> {
    pub(crate) fn new(config: &SimConfig) -> Self {
        Front {
            mmu: MmuBase::new(config),
            cfg: config.clone(),
            current: ThreadId::MAIN,
            stats: SchemeStats::default(),
            breakdown: CostBreakdown::default(),
            events: Vec::new(),
        }
    }

    /// Charges an attach or detach system call, which costs the same under
    /// every scheme.
    fn attach_syscall(&mut self) {
        self.breakdown.software += self.cfg.attach_kernel_cycles + self.cfg.syscall_cycles;
    }

    /// A ranged TLB shootdown on every core (the `Range_Flush` of §IV.D)
    /// of `region`'s entries, or of none: an invalidation per core, plus
    /// one future refill per entry removed, charged now — the paper counts
    /// "subsequent TLB misses resulting from TLB invalidations" as
    /// invalidation overhead.
    pub(crate) fn shootdown(&mut self, region: Option<&Region>) {
        let removed = region.map_or(0, |r| self.mmu.shootdown(r));
        self.stats.shootdowns += 1;
        self.stats.tlb_entries_invalidated += removed;
        let per_core = self.cfg.tlb_invalidation_cycles * u64::from(self.cfg.threads);
        self.breakdown.tlb_invalidation += per_core + removed * self.cfg.tlb_miss_penalty;
    }
}

/// Runs `op` on `scheme` and returns its result with the cycles it
/// charged: the growth of the scheme's ledger over the call.
fn charged<S: Mechanism, R>(scheme: &mut S, op: impl FnOnce(&mut S) -> R) -> (R, u64) {
    let before = scheme.front().breakdown.total();
    let result = op(scheme);
    (result, scheme.front().breakdown.total() - before)
}

/// The permission a resident TLB entry grants the running thread.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Grant {
    /// What the thread holds for the entry's domain (the page's own
    /// permission where a scheme checks no domain).
    pub(crate) held: Perm,
    /// The domain a denial names; `None` makes it a plain page fault.
    pub(crate) domain: Option<PmoId>,
    /// Cycles every access through the entry adds for the check, charged
    /// to `CostBreakdown::access_latency` (design 2's PTLB lookup).
    pub(crate) latency: u64,
}

impl Grant {
    /// What an MPK-tagged entry grants: key 0 (NULL) leaves the page
    /// domainless, any other key grants what `perm` reads for it, and a
    /// denial names the key's owner.
    pub(crate) fn keyed(key: u8, keys: &KeyAllocator, perm: impl FnOnce(u8) -> Perm) -> Grant {
        let held = if key == 0 { Perm::ReadWrite } else { perm(key) };
        Grant { held, domain: Some(keys.owner(key).unwrap_or(PmoId::NULL)), latency: 0 }
    }
}

/// What a scheme supplies to the front end; every implementor is a
/// [`ProtectionScheme`]. Hooks charge what they cost to the front end's
/// ledger (`Front::breakdown`), one bucket write per charge, and return
/// no cycles.
pub(crate) trait Mechanism {
    /// What the scheme's TLB entries carry.
    type Tag: Copy;
    /// The scheme's kind tag.
    const KIND: SchemeKind;

    fn front(&self) -> &Front<Self::Tag>;

    fn front_mut(&mut self) -> &mut Front<Self::Tag>;

    /// The miss path: walks the page table for `va` (demand-mapping on
    /// first touch) and builds the entry the front end then fills into
    /// the TLB, charging what it costs beyond the walk.
    fn miss(&mut self, va: Va) -> Result<TlbEntry<Self::Tag>, ProtectionFault>;

    /// The permission the resident `entry` for `va` grants the running
    /// thread, charging what this check costs beyond [`Grant::latency`].
    /// The front end memoizes the grant as the warm verdict, so an
    /// immediate repeat of the access must reach the same grant at the
    /// L1 TLB hit plus [`Grant::latency`].
    fn grant(&mut self, va: Va, entry: TlbEntry<Self::Tag>) -> Grant;

    /// Sets up a region the MMU has just attached; `removed` counts the
    /// stale anonymous TLB entries the attach discarded.
    fn on_attach(&mut self, _region: &Region, _removed: u64) {}

    /// Tears down a detached PMO; `removed` counts the TLB entries the
    /// MMU's unmap invalidated.
    fn on_detach(&mut self, _pmo: PmoId, _removed: u64) {}

    /// Executes a permission switch for the running thread.
    fn on_set_perm(&mut self, pmo: PmoId, perm: Perm);

    /// Runs once the front end has made the incoming thread current;
    /// `from` is the outgoing thread.
    fn on_switch(&mut self, _from: ThreadId) {}

    /// Whether a stored warm verdict for the L1-resident `entry` is still
    /// exact, touching the recency state a warm access touches beyond the
    /// L1 TLB (design 2's PTLB way).
    fn rewarm(&mut self, _entry: TlbEntry<Self::Tag>) -> bool {
        true
    }
}

impl<S: Mechanism> ProtectionScheme for S {
    fn kind(&self) -> SchemeKind {
        S::KIND
    }

    fn attach(
        &mut self,
        pmo: PmoId,
        base: Va,
        size: u64,
        nvm: bool,
    ) -> Result<u64, ProtectionFault> {
        let granule = granule_covering(base, size);
        let region = Region { pmo, base, granule, pool_size: size, nvm };
        let removed = match self.front_mut().mmu.attach_region(region) {
            Ok(removed) => removed,
            Err(fault) => {
                self.front_mut().stats.faults += 1;
                return Err(fault);
            }
        };
        Ok(charged(self, |s| {
            s.front_mut().attach_syscall();
            s.on_attach(&region, removed);
        })
        .1)
    }

    fn detach(&mut self, pmo: PmoId) -> u64 {
        charged(self, |s| {
            let removed = s.front_mut().mmu.detach_region(pmo).map_or(0, |(_, removed)| removed);
            s.on_detach(pmo, removed);
            s.front_mut().attach_syscall();
        })
        .1
    }

    fn set_perm(&mut self, pmo: PmoId, perm: Perm) -> u64 {
        charged(self, |s| s.on_set_perm(pmo, perm)).1
    }

    fn access(&mut self, va: Va, kind: AccessKind) -> AccessResult {
        let ((mem, fault, warm), cycles) = charged(self, |s| check(s, va, kind));
        AccessResult { cycles, mem, fault, warm }
    }

    fn context_switch(&mut self, to: ThreadId) -> u64 {
        charged(self, |s| {
            let front = s.front_mut();
            let from = std::mem::replace(&mut front.current, to);
            front.stats.context_switches += 1;
            s.on_switch(from);
        })
        .1
    }

    fn breakdown(&self) -> CostBreakdown {
        self.front().breakdown
    }

    fn stats(&self) -> SchemeStats {
        self.front().stats
    }

    fn tlb_stats(&self) -> TlbStats {
        *self.front().mmu.tlb.stats()
    }

    fn drain_events_into(&mut self, out: &mut Vec<TraceEvent>) {
        out.append(&mut self.front_mut().events);
    }

    fn note_fast_hits(&mut self, hint: &FastHint, hits: u64, denied: u64) {
        let front = self.front_mut();
        front.mmu.tlb.note_l1_hits(hits);
        front.stats.faults += denied;
        front.breakdown.translation += front.mmu.tlb.l1_latency() * hits;
        front.breakdown.access_latency += hint.access_latency * hits;
    }

    fn fast_revalidate(&mut self, va: Va) -> bool {
        match self.front_mut().mmu.tlb.touch_l1(vpn(va)) {
            Some(entry) => self.rewarm(entry),
            None => false,
        }
    }
}

/// The access check: TLB lookup, the scheme's miss path and fill on a
/// miss, then the permission the entry grants. Returns the memory backing,
/// the fault if the access is denied, and the warm verdict (`None` after
/// a page fault).
fn check<S: Mechanism>(
    s: &mut S,
    va: Va,
    kind: AccessKind,
) -> (MemKind, Option<ProtectionFault>, Option<FastHint>) {
    let front = s.front_mut();
    let (hit, _, lookup) = front.mmu.tlb.lookup(vpn(va));
    front.breakdown.translation += lookup;
    let entry = match hit {
        Some(entry) => entry,
        None => match s.miss(va) {
            Ok(entry) => {
                s.front_mut().mmu.tlb.fill(vpn(va), entry);
                entry
            }
            Err(fault) => {
                s.front_mut().stats.faults += 1;
                return (MemKind::Dram, Some(fault), None);
            }
        },
    };
    let grant = s.grant(va, entry);
    let front = s.front_mut();
    front.breakdown.access_latency += grant.latency;
    let warm = FastHint {
        mem: entry.mem,
        effective: grant.held.meet(entry.page_perm),
        access_latency: grant.latency,
        thread: front.current,
        held: grant.held,
        fault_pmo: grant.domain,
    };
    let fault = (!warm.effective.allows(kind)).then(|| warm.fault(va, kind));
    front.stats.faults += u64::from(fault.is_some());
    (entry.mem, fault, Some(warm))
}
