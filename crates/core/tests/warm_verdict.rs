//! The warm-verdict contract the replay's memo relies on, checked at the
//! scheme boundary for all eight schemes under random churn: every access
//! that is not a page fault returns a warm verdict; an immediate repeat
//! to the same page, read or write, reaches exactly that verdict (cycles,
//! allow/deny, memory kind, fault); and settling the repeats through
//! `note_fast_hits` instead leaves the scheme's counters where the slow
//! path leaves them.

use pmo_protect::{AccessResult, AnyScheme, ProtectionFault, ProtectionScheme, SchemeKind};
use pmo_simarch::{SimConfig, PAGE_SIZE};
use pmo_trace::{AccessKind, Perm, PmoId, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GB1: u64 = 1 << 30;

/// Anonymous memory, below every PMO region.
const ANON: u64 = 0x10_0000;

/// Pool bytes of domain `d`: 1 to 4 MiB, so some pools reserve a 2 MiB
/// granule and some a 1 GiB one, and every pool leaves reserved bytes
/// past its backed ones.
fn pool_bytes(d: u32) -> u64 {
    (u64::from(d % 4) + 1) << 20
}

fn random_perm(rng: &mut StdRng) -> Perm {
    [Perm::None, Perm::ReadOnly, Perm::ReadWrite][rng.gen_range(0..3)]
}

fn random_kind(rng: &mut StdRng) -> AccessKind {
    if rng.gen_bool(0.5) {
        AccessKind::Read
    } else {
        AccessKind::Write
    }
}

/// Counters a replay report reads from a scheme.
fn counters(s: &AnyScheme) -> impl PartialEq + std::fmt::Debug {
    (s.stats(), s.breakdown(), s.tlb_stats())
}

/// Drives `slow` and `memo`, two copies of one scheme, through the same
/// churn. After every access that returns a warm verdict, `slow` repeats
/// it twice on the same page (a read and a write) through `access`, and
/// `memo` settles those two hits as the replay would.
fn churn(kind: SchemeKind, domains: u32, seed: u64, steps: usize) {
    let config = SimConfig::isca2020();
    let (mut slow, mut memo) = (kind.build_any(&config), kind.build_any(&config));
    for d in 1..=domains {
        let (pmo, base, size) = (PmoId::new(d), u64::from(d) * GB1, pool_bytes(d));
        assert_eq!(slow.attach(pmo, base, size, true), memo.attach(pmo, base, size, true));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut warm_verdicts, mut page_faults) = (0, 0);
    for step in 0..steps {
        let d = rng.gen_range(1..=domains);
        let pmo = PmoId::new(d);
        let at = format!("{kind} domains {domains} seed {seed} step {step}");
        match rng.gen_range(0..20) {
            // Attaches include conflicting ones (the PMO is still
            // attached), which both copies must refuse alike.
            0 => {
                let (base, size) = (u64::from(d) * GB1, pool_bytes(d));
                let got = slow.attach(pmo, base, size, true);
                assert_eq!(got, memo.attach(pmo, base, size, true), "{at}");
            }
            1 => assert_eq!(slow.detach(pmo), memo.detach(pmo), "{at}"),
            2..=4 => {
                let perm = random_perm(&mut rng);
                assert_eq!(slow.set_perm(pmo, perm), memo.set_perm(pmo, perm), "{at}");
            }
            5 => {
                let to = ThreadId::new(rng.gen_range(0..3));
                assert_eq!(slow.context_switch(to), memo.context_switch(to), "{at}");
            }
            _ => {
                // Anonymous memory, a PMO's backed bytes, or the reserved
                // bytes past them (page faults while the PMO is attached).
                let va = if rng.gen_bool(0.2) {
                    ANON + rng.gen_range(0..64 * PAGE_SIZE)
                } else {
                    u64::from(d) * GB1 + rng.gen_range(0..pool_bytes(d) + (1 << 20))
                };
                let kind_of_access = random_kind(&mut rng);
                let result = slow.access(va, kind_of_access);
                assert_eq!(memo.access(va, kind_of_access), result, "{at}");
                let Some(warm) = result.warm else {
                    assert!(
                        matches!(result.fault, Some(ProtectionFault::PageFault { .. })),
                        "{at}: only a page fault may return no warm verdict: {result:?}"
                    );
                    page_faults += 1;
                    continue;
                };
                assert_eq!(result.mem, warm.mem, "{at}");
                let fault = (!warm.effective.allows(kind_of_access))
                    .then(|| warm.fault(va, kind_of_access));
                assert_eq!(result.fault, fault, "{at}");
                warm_verdicts += 1;
                let page = va & !(PAGE_SIZE - 1);
                let mut denied = 0;
                for repeat in [AccessKind::Read, AccessKind::Write] {
                    let again = page + rng.gen_range(0..PAGE_SIZE);
                    let allowed = warm.effective.allows(repeat);
                    let want = AccessResult {
                        cycles: warm.cycles,
                        mem: warm.mem,
                        fault: (!allowed).then(|| warm.fault(again, repeat)),
                        warm: Some(warm),
                    };
                    assert_eq!(slow.access(again, repeat), want, "{at}: repeated {repeat:?}");
                    denied += u64::from(!allowed);
                }
                memo.note_fast_hits(&warm, 2, denied);
                assert_eq!(counters(&slow), counters(&memo), "{at}: settled counters");
            }
        }
    }
    let at = format!("{kind} domains {domains} seed {seed}");
    assert!(warm_verdicts > steps / 4 && page_faults > 0, "{at}: the churn must reach the check");
    if domains > 15 && matches!(kind, SchemeKind::LibMpk | SchemeKind::MpkVirt | SchemeKind::Erim) {
        assert!(slow.stats().key_evictions > 0, "{at}: the churn must reach key pressure");
    }
}

#[test]
fn warm_verdicts_match_repeated_accesses() {
    // 4 and 12 domains fit every scheme's keys; 80 and 400 keep the
    // key-multiplexing schemes evicting, remapping and shooting down.
    for domains in [4, 12, 80, 400] {
        for kind in SchemeKind::ALL {
            for seed in 0..2 {
                churn(kind, domains, u64::from(domains) * 100 + seed, 1500);
            }
        }
    }
}
