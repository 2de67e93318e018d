//! Reusing exploration state must be invisible. A [`World`] restored
//! with `clone_from` from its post-setup template, after an arbitrary
//! earlier schedule, must behave exactly like one [`World::new`] builds,
//! down to every machine's counters and cycle ledger; and one
//! [`Explorer`] reused across many programs must report exactly what a
//! fresh explorer per program reports. Both quick refine configurations
//! are covered, clean and under every planted [`ProtocolBug`].

use pmo_modelcheck::enumerate::WorldBounds;
use pmo_modelcheck::{
    enumerate_canonical, explore, model_config, sample_schedule, schedule_trace, to_scenario,
    ExploreLimits, Explorer, Op, Program, Scenario, World, POOL_BYTES,
};
use pmo_protect::{AnyScheme, ProtectionScheme, ProtocolBug};
use pmo_simarch::{SimConfig, PAGE_SIZE};
use pmo_trace::{AccessKind, Perm, PmoId};

/// The two quick refine worlds: w1 (8 keys, 4-entry DTTLB and PTLB) and
/// w2 (2 keys, 2-entry DTTLB and PTLB, under key pressure), each with
/// its enumeration bounds.
fn quick_worlds() -> [(&'static str, WorldBounds, SimConfig); 2] {
    [
        ("w1", WorldBounds { ops: 3, threads: 2, domains: 2 }, model_config(8, 4, 4)),
        ("w2", WorldBounds { ops: 4, threads: 2, domains: 2 }, model_config(2, 2, 2)),
    ]
}

/// What a machine has counted and charged: equal only if it took the same
/// TLB, key and shootdown path.
fn counters(machine: &AnyScheme) -> impl PartialEq + std::fmt::Debug {
    (machine.kind(), machine.stats(), machine.breakdown(), machine.tlb_stats())
}

/// No bug, then every plantable one.
fn bugs() -> impl Iterator<Item = Option<ProtocolBug>> {
    std::iter::once(None).chain(ProtocolBug::ALL.map(Some))
}

/// SplitMix64: deterministic op sequences without an RNG dependency.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// A random step by one of three threads over domains P1..P3 (P3 is
    /// never attached at setup), touching every page of a pool so the
    /// tiny TLBs, DTTLB and PTLB evict.
    fn step(&mut self) -> (u32, Op) {
        let thread = self.below(3) as u32;
        let pmo = PmoId::new(1 + self.below(3) as u32);
        let offset = self.below(POOL_BYTES / PAGE_SIZE) * PAGE_SIZE + self.below(8) * 8;
        let op = match self.below(8) {
            0 => Op::Attach { pmo },
            1 => Op::Detach { pmo },
            2 => Op::SetPerm { pmo, perm: Perm::None },
            3 => Op::SetPerm { pmo, perm: Perm::ReadOnly },
            4 => Op::SetPerm { pmo, perm: Perm::ReadWrite },
            5 | 6 => Op::Access { pmo, offset, kind: AccessKind::Read },
            _ => Op::Access { pmo, offset, kind: AccessKind::Write },
        };
        (thread, op)
    }
}

#[test]
fn restored_world_behaves_like_a_fresh_one() {
    let mut findings = 0;
    for (name, bounds, config) in quick_worlds() {
        let scenario = Scenario {
            name: name.into(),
            about: "",
            setup: bounds.domain_ids(),
            program: Program { threads: Vec::new() },
            config,
            key_pressure: false,
        };
        for bug in bugs() {
            let template = World::new(&scenario, bug);
            let mut restored = template.clone();
            for seed in 0..24 {
                let at = format!("{name} {bug:?} seed {seed}");
                let mut mix = Mix(seed);
                // An arbitrary earlier schedule, then the restore.
                for _ in 0..1 + mix.below(24) {
                    let (thread, op) = mix.step();
                    restored.step(thread, op);
                }
                restored.clone_from(&template);
                let mut fresh = World::new(&scenario, bug);
                for step in 0..mix.below(24) {
                    let (thread, op) = mix.step();
                    let found = restored.step(thread, op);
                    assert_eq!(found, fresh.step(thread, op), "{at}: step {step}, {op}");
                    findings += found.len();
                }
                assert_eq!(restored.trace(), fresh.trace(), "{at}: trace");
                assert_eq!(restored.observations(), fresh.observations(), "{at}: observations");
                assert_eq!(restored.end_checks(), fresh.end_checks(), "{at}: end checks");
                let counted =
                    |world: &World| world.machines().iter().map(counters).collect::<Vec<_>>();
                assert_eq!(counted(&restored), counted(&fresh), "{at}: counters");
            }
        }
    }
    assert!(findings > 0, "the planted bugs must surface in the random schedules");
}

#[test]
fn one_explorer_serves_many_programs() {
    let (name, bounds, config) = quick_worlds()[1].clone();
    let programs = enumerate_canonical(&bounds);
    // Every 61st program: short and long ones, one and two threads.
    let slice: Vec<(usize, _)> = programs.iter().enumerate().step_by(61).collect();
    let limits = ExploreLimits::default();
    let mut violations = 0;
    for bug in bugs() {
        let mut explorer = Explorer::new(&config, &bounds.domain_ids(), bug);
        for &(index, codes) in &slice {
            let scenario = to_scenario(name, index, codes, &bounds, config.clone());
            let at = format!("{} {bug:?}", scenario.name);
            let reused = explorer.explore(&scenario, &limits);
            assert_eq!(reused, explore(&scenario, bug, &limits), "{at}: explore");
            violations += reused.violations.len();
            let schedule = sample_schedule(&scenario.name, &scenario.program.op_counts());
            assert_eq!(
                explorer.schedule_trace(&scenario, &schedule),
                schedule_trace(&scenario, bug, &schedule),
                "{at}: schedule_trace"
            );
        }
    }
    assert!(slice.len() > 100, "{} programs", slice.len());
    assert!(violations > 0, "the planted bugs must surface in the slice");
}
