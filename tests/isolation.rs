//! Cross-crate security tests: the paper's Figure 2 semantics (temporal
//! and spatial isolation) must hold under every protective scheme, and
//! the specific guarantees of each design must hold at scale.

use pmo_repro::protect::scheme::{AnyScheme, ProtectionScheme, SchemeKind};
use pmo_repro::simarch::SimConfig;
use pmo_repro::trace::{AccessKind, Perm, PmoId, ThreadId};

const GB1: u64 = 1 << 30;

/// Schemes that enforce domain permissions (everything but the baseline).
const PROTECTIVE: [SchemeKind; 5] = [
    SchemeKind::Lowerbound,
    SchemeKind::DefaultMpk,
    SchemeKind::LibMpk,
    SchemeKind::MpkVirt,
    SchemeKind::DomainVirt,
];

fn scheme_with_domains(kind: SchemeKind, n: u32) -> AnyScheme {
    let config = SimConfig::isca2020();
    let mut scheme = kind.build_any(&config);
    for i in 1..=n {
        scheme.attach(PmoId::new(i), u64::from(i) * GB1, 8 << 20, true).unwrap();
    }
    scheme
}

#[test]
fn figure2a_temporal_isolation_all_schemes() {
    for kind in PROTECTIVE {
        let mut s = scheme_with_domains(kind, 2);
        let pmo = PmoId::new(1);
        // Attach alone grants nothing.
        assert!(!s.access(GB1, AccessKind::Read).allowed(), "{kind}: pre-grant read");
        // +R: ld A permitted, st B denied.
        s.set_perm(pmo, Perm::ReadOnly);
        assert!(s.access(GB1, AccessKind::Read).allowed(), "{kind}: ld A");
        assert!(!s.access(GB1 + 8, AccessKind::Write).allowed(), "{kind}: st B");
        // +W: st C permitted.
        s.set_perm(pmo, Perm::ReadWrite);
        assert!(s.access(GB1 + 16, AccessKind::Write).allowed(), "{kind}: st C");
        // -R -W: ld D denied.
        s.set_perm(pmo, Perm::None);
        assert!(!s.access(GB1 + 24, AccessKind::Read).allowed(), "{kind}: ld D");
    }
}

#[test]
fn figure2b_spatial_isolation_all_schemes() {
    for kind in PROTECTIVE {
        let mut s = scheme_with_domains(kind, 2);
        let pmo = PmoId::new(1);
        // Thread 1 takes read-write; st A is permitted for it...
        s.context_switch(ThreadId::new(1));
        s.set_perm(pmo, Perm::ReadWrite);
        assert!(s.access(GB1, AccessKind::Write).allowed(), "{kind}: t1 st A");
        // ...thread 2 has no grant: both ld A and st B are denied.
        s.context_switch(ThreadId::new(2));
        assert!(!s.access(GB1, AccessKind::Read).allowed(), "{kind}: t2 ld A");
        assert!(!s.access(GB1 + 8, AccessKind::Write).allowed(), "{kind}: t2 st B");
        // Insufficient permission is also denied per-thread.
        s.set_perm(pmo, Perm::ReadOnly);
        assert!(!s.access(GB1 + 8, AccessKind::Write).allowed(), "{kind}: t2 RO st");
        // Thread 1's grant is intact.
        s.context_switch(ThreadId::new(1));
        assert!(s.access(GB1, AccessKind::Write).allowed(), "{kind}: t1 again");
    }
}

#[test]
fn virtualized_schemes_enforce_hundreds_of_domains() {
    // Beyond MPK's 16-key wall: every domain keeps its own permission.
    for kind in [SchemeKind::LibMpk, SchemeKind::MpkVirt, SchemeKind::DomainVirt] {
        let mut s = scheme_with_domains(kind, 200);
        // Grant odd domains only.
        for i in (1..=200u32).step_by(2) {
            s.set_perm(PmoId::new(i), Perm::ReadWrite);
        }
        for i in 1..=200u32 {
            let va = u64::from(i) * GB1;
            let allowed = s.access(va, AccessKind::Write).allowed();
            assert_eq!(allowed, i % 2 == 1, "{kind}: domain {i}");
        }
        assert_eq!(s.stats().domainless_fallbacks, 0, "{kind}: no silent fallback");
    }
}

#[test]
fn default_mpk_weakens_beyond_fifteen_domains() {
    // The motivating failure: stock MPK cannot protect the 16th domain.
    let mut s = scheme_with_domains(SchemeKind::DefaultMpk, 16);
    assert_eq!(s.stats().domainless_fallbacks, 1);
    assert!(
        s.access(16 * GB1, AccessKind::Write).allowed(),
        "16th domain is silently unprotected under stock MPK"
    );
    assert!(!s.access(GB1, AccessKind::Write).allowed(), "keyed domains still protected");
}

#[test]
fn stale_tlb_state_cannot_bypass_revocation() {
    // Hot TLB entries must not outlive a revocation, under any design.
    for kind in [SchemeKind::MpkVirt, SchemeKind::DomainVirt, SchemeKind::LibMpk] {
        let mut s = scheme_with_domains(kind, 20);
        let pmo = PmoId::new(3);
        s.set_perm(pmo, Perm::ReadWrite);
        for p in 0..16u64 {
            assert!(s.access(3 * GB1 + p * 4096, AccessKind::Write).allowed(), "{kind}");
        }
        s.set_perm(pmo, Perm::None);
        for p in 0..16u64 {
            assert!(
                !s.access(3 * GB1 + p * 4096, AccessKind::Read).allowed(),
                "{kind}: page {p} leaked after revocation"
            );
        }
    }
}

#[test]
fn detach_revokes_under_all_schemes() {
    for kind in PROTECTIVE {
        let mut s = scheme_with_domains(kind, 2);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        assert!(s.access(GB1, AccessKind::Write).allowed(), "{kind}");
        s.detach(PmoId::new(1));
        // Re-attach: the old grant must not resurrect.
        s.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        assert!(
            !s.access(GB1, AccessKind::Read).allowed(),
            "{kind}: permission survived detach/attach"
        );
    }
}

#[test]
fn domain_virt_never_shoots_down() {
    let mut s = scheme_with_domains(SchemeKind::DomainVirt, 300);
    for round in 0..3u64 {
        for i in 1..=300u32 {
            s.set_perm(PmoId::new(i), Perm::ReadWrite);
            assert!(s.access(u64::from(i) * GB1 + round * 64, AccessKind::Write).allowed());
            s.set_perm(PmoId::new(i), Perm::None);
        }
    }
    let stats = s.stats();
    assert_eq!(stats.shootdowns, 0);
    assert_eq!(stats.key_evictions, 0);
    assert!(stats.ptlb_misses > 0, "PTLB pressure is real at 300 domains");
}

#[test]
fn mpk_virt_shootdowns_scale_with_domain_count() {
    let evictions = |n: u32| {
        let mut s = scheme_with_domains(SchemeKind::MpkVirt, n);
        for round in 0..2u64 {
            for i in 1..=n {
                s.set_perm(PmoId::new(i), Perm::ReadWrite);
                s.access(u64::from(i) * GB1 + round, AccessKind::Write);
            }
        }
        s.stats().key_evictions
    };
    assert_eq!(evictions(10), 0, "10 domains fit in 15 keys");
    let at_30 = evictions(30);
    let at_120 = evictions(120);
    assert!(at_30 > 0);
    assert!(at_120 > at_30, "eviction pressure grows with domains");
}
