//! Differential testing: every protective scheme must make *identical*
//! allow/deny decisions. The model checker's executable spec
//! (`SpecMachine`, the paper's §IV.A legality rule with no hardware
//! state) is the oracle; the lowerbound, MPK, libmpk, the two hardware
//! designs, ERIM and DPTI are checked against it on pseudo-random
//! operation sequences, including permission churn, thread switches,
//! detach/attach cycles, and key-eviction pressure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pmo_repro::modelcheck::SpecMachine;
use pmo_repro::protect::scheme::{ProtectionScheme, SchemeKind};
use pmo_repro::simarch::SimConfig;
use pmo_repro::trace::{AccessKind, Perm, PmoId, ThreadId};

const GB1: u64 = 1 << 30;

#[derive(Debug, Clone, Copy)]
enum Op {
    SetPerm(u32, Perm),
    Access(u32, u64, AccessKind),
    Switch(u32),
    DetachAttach(u32),
}

fn random_ops(seed: u64, domains: u32, ops: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            let d = rng.gen_range(1..=domains);
            match rng.gen_range(0..10) {
                0..=2 => Op::SetPerm(
                    d,
                    match rng.gen_range(0..3) {
                        0 => Perm::None,
                        1 => Perm::ReadOnly,
                        _ => Perm::ReadWrite,
                    },
                ),
                3..=7 => Op::Access(
                    d,
                    rng.gen_range(0..64u64) * 4096 + rng.gen_range(0..4096),
                    if rng.gen_bool(0.5) { AccessKind::Read } else { AccessKind::Write },
                ),
                8 => Op::Switch(rng.gen_range(0..3)),
                _ => Op::DetachAttach(d),
            }
        })
        .collect()
}

/// Applies the sequence, returning the allow/deny outcome of each access.
fn decisions(kind: SchemeKind, domains: u32, ops: &[Op]) -> Vec<bool> {
    let config = SimConfig::isca2020();
    let mut scheme = kind.build_any(&config);
    for i in 1..=domains {
        scheme.attach(PmoId::new(i), u64::from(i) * GB1, 8 << 20, true).unwrap();
    }
    let mut out = Vec::new();
    for op in ops {
        match *op {
            Op::SetPerm(d, perm) => {
                scheme.set_perm(PmoId::new(d), perm);
            }
            Op::Access(d, off, kind) => {
                out.push(scheme.access(u64::from(d) * GB1 + off, kind).allowed());
            }
            Op::Switch(t) => {
                scheme.context_switch(ThreadId::new(t));
            }
            Op::DetachAttach(d) => {
                scheme.detach(PmoId::new(d));
                scheme.attach(PmoId::new(d), u64::from(d) * GB1, 8 << 20, true).unwrap();
            }
        }
    }
    out
}

/// The spec's decision for each access of the sequence: SETPERM and
/// access act for the running thread, and every domain starts attached.
fn spec_decisions(domains: u32, ops: &[Op]) -> Vec<bool> {
    let mut spec = SpecMachine::new();
    for i in 1..=domains {
        spec.attach(PmoId::new(i));
    }
    let mut thread = ThreadId::MAIN.raw();
    let mut out = Vec::new();
    for op in ops {
        match *op {
            Op::SetPerm(d, perm) => spec.set_perm(thread, PmoId::new(d), perm),
            Op::Access(d, _, kind) => out.push(spec.allows(thread, PmoId::new(d), kind)),
            Op::Switch(t) => thread = t,
            Op::DetachAttach(d) => {
                spec.detach(PmoId::new(d));
                spec.attach(PmoId::new(d));
            }
        }
    }
    out
}

fn check_equivalence(domains: u32, kinds: &[SchemeKind], seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let ops = random_ops(seed, domains, 400);
        let oracle = spec_decisions(domains, &ops);
        for &kind in kinds {
            let got = decisions(kind, domains, &ops);
            assert_eq!(got.len(), oracle.len(), "{kind} seed {seed}: access count mismatch");
            for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    g, o,
                    "{kind} seed {seed}: decision {i} diverged from the oracle \
                     (ops: {:?})",
                    &ops
                );
            }
        }
    }
}

#[test]
fn all_schemes_match_oracle_within_key_capacity() {
    // <= 14 domains: even stock MPK and guarded libmpk have keys for all.
    check_equivalence(
        12,
        &[
            SchemeKind::Lowerbound,
            SchemeKind::DefaultMpk,
            SchemeKind::LibMpk,
            SchemeKind::MpkVirt,
            SchemeKind::DomainVirt,
            SchemeKind::Erim,
            SchemeKind::Dpti,
        ],
        0..6,
    );
}

#[test]
fn virtualized_schemes_match_oracle_under_eviction_pressure() {
    // 80 domains through 14/15 keys: constant evictions, shootdowns,
    // guard faults and monitor remaps — decisions must still be identical.
    check_equivalence(
        80,
        &[
            SchemeKind::Lowerbound,
            SchemeKind::LibMpk,
            SchemeKind::MpkVirt,
            SchemeKind::DomainVirt,
            SchemeKind::Erim,
            SchemeKind::Dpti,
        ],
        10..16,
    );
}

#[test]
fn hardware_designs_match_oracle_at_scale() {
    // 400 domains: the two hardware designs, plus ERIM's monitor remap and
    // DPTI's per-thread tables, the other schemes meant to scale past the
    // 15-key cliff, and the lowerbound's ideal map.
    check_equivalence(
        400,
        &[
            SchemeKind::Lowerbound,
            SchemeKind::MpkVirt,
            SchemeKind::DomainVirt,
            SchemeKind::Erim,
            SchemeKind::Dpti,
        ],
        20..23,
    );
}
