//! The multi-PMO microbenchmarks (Table IV): AVL, RB-tree, B+tree, linked
//! list, string swap — each PMO holding one structure instance, with the
//! paper's per-operation permission protocol:
//!
//! > "we enable the write permissions of a PMO before and after every data
//! > structure operation ... The application has read permission for all
//! > PMOs. ... 90% instructions are insert operations." (§V)
//!
//! Setup (attach + read grants + population) and the measured operation
//! phase are separate [`Workload`] methods so experiments can window their
//! measurements to the operation phase.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pmo_runtime::{Mode, PmRuntime};
use pmo_trace::{OpKind, Perm, PmoId, TraceEvent, TraceSink};

use crate::config::MicroConfig;
use crate::structs::{AnyStructure, StringArray, StructureKind};
use crate::Workload;

/// Which microbenchmark to run (Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MicroBench {
    /// AVL tree insert/delete.
    Avl,
    /// Red-black tree insert/delete.
    Rbt,
    /// B+tree insert/delete.
    BplusTree,
    /// Sorted linked-list insert/delete.
    LinkedList,
    /// Random string swaps in a string array.
    StringSwap,
}

impl MicroBench {
    /// All five benchmarks, in the paper's order.
    pub const ALL: [MicroBench; 5] = [
        MicroBench::Avl,
        MicroBench::Rbt,
        MicroBench::BplusTree,
        MicroBench::LinkedList,
        MicroBench::StringSwap,
    ];

    /// The paper's abbreviation (AVL, RBT, BT, LL, SS).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MicroBench::Avl => "AVL",
            MicroBench::Rbt => "RBT",
            MicroBench::BplusTree => "BT",
            MicroBench::LinkedList => "LL",
            MicroBench::StringSwap => "SS",
        }
    }

    /// The keyed structure each PMO holds (`None`: string swap's array).
    fn structure(self) -> Option<StructureKind> {
        match self {
            MicroBench::Avl => Some(StructureKind::Avl),
            MicroBench::Rbt => Some(StructureKind::Rbt),
            MicroBench::BplusTree => Some(StructureKind::Bplus),
            MicroBench::LinkedList => Some(StructureKind::List),
            MicroBench::StringSwap => None,
        }
    }
}

impl std::fmt::Display for MicroBench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

enum Structures {
    Keyed(Vec<AnyStructure>),
    Strings(Vec<StringArray>),
}

struct State {
    rt: PmRuntime,
    pools: Vec<PmoId>,
    structures: Structures,
    /// Live keys per active PMO (victims for delete operations).
    live_keys: Vec<Vec<u64>>,
    rng: StdRng,
}

/// A runnable microbenchmark instance.
pub struct MicroWorkload {
    bench: MicroBench,
    config: MicroConfig,
    state: Option<State>,
}

impl MicroWorkload {
    /// Creates the workload (nothing runs until [`Workload::setup`]).
    #[must_use]
    pub fn new(bench: MicroBench, config: MicroConfig) -> Self {
        MicroWorkload { bench, config, state: None }
    }

    /// The benchmark variant.
    #[must_use]
    pub fn bench(&self) -> MicroBench {
        self.bench
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MicroConfig {
        &self.config
    }

    fn insert_one(state: &mut State, idx: usize, key: u64, sink: &mut dyn TraceSink) {
        let Structures::Keyed(v) = &mut state.structures else {
            unreachable!("string swap has no insert")
        };
        v[idx].insert(&mut state.rt, key, sink).expect("insert");
        state.live_keys[idx].push(key);
    }

    fn delete_one(state: &mut State, idx: usize, key: u64, sink: &mut dyn TraceSink) -> bool {
        let Structures::Keyed(v) = &mut state.structures else {
            unreachable!("string swap has no delete")
        };
        v[idx].remove(&mut state.rt, key, sink).expect("remove")
    }
}

/// Creates one structure in each of the first `active` pools, each inside
/// its own write window (creation writes metadata).
fn create_all<T>(
    rt: &mut PmRuntime,
    pools: &[PmoId],
    active: usize,
    sink: &mut dyn TraceSink,
    mut create: impl FnMut(&mut PmRuntime, PmoId, &mut dyn TraceSink) -> pmo_runtime::Result<T>,
) -> Vec<T> {
    let mut all = Vec::with_capacity(active);
    for &pool in pools.iter().take(active) {
        sink.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadWrite });
        all.push(create(rt, pool, sink).expect("create"));
        sink.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadOnly });
    }
    all
}

impl Workload for MicroWorkload {
    fn name(&self) -> String {
        format!("{}-{}pmo", self.bench.label(), self.config.active_pmos)
    }

    fn setup(&mut self, sink: &mut dyn TraceSink) {
        let cfg = &self.config;
        let mut rt = PmRuntime::new();
        let rng = StdRng::seed_from_u64(cfg.seed);

        // Attach all PMOs ("1024 consecutive PMOs, each 8MB in size").
        let mut pools = Vec::with_capacity(cfg.pmos as usize);
        for i in 0..cfg.pmos {
            let pool = rt
                .pool_create(&format!("pmo-{i:04}"), cfg.pmo_bytes, Mode::private(), sink)
                .expect("pool creation");
            pools.push(pool);
        }
        // Baseline: read permission for all PMOs.
        for &pool in &pools {
            sink.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadOnly });
        }

        let active = cfg.active_pmos as usize;
        let structures = match self.bench.structure() {
            Some(kind) => {
                Structures::Keyed(create_all(&mut rt, &pools, active, sink, |rt, pool, sink| {
                    AnyStructure::create(kind, rt, pool, cfg.value_bytes, sink)
                }))
            }
            None => {
                let slots = u64::from(cfg.initial_nodes.max(2));
                Structures::Strings(create_all(&mut rt, &pools, active, sink, |rt, pool, sink| {
                    StringArray::create(rt, pool, slots, cfg.value_bytes, sink)
                }))
            }
        };

        let mut state = State { rt, pools, structures, live_keys: vec![Vec::new(); active], rng };

        // Population: each structure starts with `initial_nodes` elements,
        // inserted under the same per-op permission protocol as the
        // measured phase (string arrays were populated at creation).
        if matches!(state.structures, Structures::Keyed(_)) {
            for idx in 0..active {
                let pool = state.pools[idx];
                for _ in 0..cfg.initial_nodes {
                    let key = state.rng.gen::<u64>();
                    sink.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadWrite });
                    Self::insert_one(&mut state, idx, key, sink);
                    sink.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadOnly });
                }
            }
        }
        self.state = Some(state);
    }

    fn run(&mut self, sink: &mut dyn TraceSink) {
        let cfg = self.config.clone();
        let state = self.state.as_mut().expect("setup() must run before run()");
        let active = cfg.active_pmos as usize;
        for _ in 0..cfg.ops {
            let idx = state.rng.gen_range(0..active);
            let pool = state.pools[idx];
            // Enable write permission for the target PMO, operate, revert
            // to the read-only baseline.
            sink.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadWrite });
            sink.event(TraceEvent::Op { kind: OpKind::Begin });
            if let Structures::Strings(arrays) = &mut state.structures {
                let slots = arrays[idx].slots();
                let a = state.rng.gen_range(0..slots);
                let b = state.rng.gen_range(0..slots);
                arrays[idx].swap(&mut state.rt, a, b, sink).expect("swap");
            } else {
                let insert =
                    state.rng.gen_range(0..100) < cfg.insert_pct || state.live_keys[idx].is_empty();
                if insert {
                    let key = state.rng.gen::<u64>();
                    Self::insert_one(state, idx, key, sink);
                } else {
                    let pick = state.rng.gen_range(0..state.live_keys[idx].len());
                    let key = state.live_keys[idx].swap_remove(pick);
                    let removed = Self::delete_one(state, idx, key, sink);
                    debug_assert!(removed, "live key {key:#x} must be present");
                }
            }
            sink.event(TraceEvent::Op { kind: OpKind::End });
            sink.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadOnly });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmo_trace::{CountingSink, RecordedTrace, TraceStats};

    fn tiny(bench: MicroBench) -> MicroWorkload {
        MicroWorkload::new(
            bench,
            MicroConfig {
                pmos: 8,
                active_pmos: 8,
                pmo_bytes: 1 << 20,
                initial_nodes: 8,
                ops: 50,
                insert_pct: 90,
                value_bytes: 64,
                seed: 7,
            },
        )
    }

    #[test]
    fn all_benchmarks_generate_clean_traces() {
        for bench in MicroBench::ALL {
            let mut w = tiny(bench);
            let mut stats = TraceStats::new();
            w.setup(&mut stats);
            w.run(&mut stats);
            let c = stats.counts();
            assert_eq!(c.attaches, 8, "{bench}");
            assert_eq!(c.ops, 50, "{bench}");
            assert!(c.loads > 0 && c.stores > 0, "{bench}");
            // Two SETPERMs per measured op, plus setup grants.
            assert!(c.set_perms >= 100, "{bench}: {}", c.set_perms);
            assert!(stats.pmo_accesses() > 0, "{bench} accesses PMO memory");
            assert_eq!(stats.touched_pmos(), 8, "{bench} touches every active PMO");
        }
    }

    #[test]
    fn traces_are_deterministic() {
        for bench in [MicroBench::Avl, MicroBench::StringSwap] {
            let run = |seed: u64| {
                let mut cfgd = tiny(bench);
                cfgd.config.seed = seed;
                let mut trace = RecordedTrace::new();
                cfgd.setup(&mut trace);
                cfgd.run(&mut trace);
                trace
            };
            assert_eq!(run(7), run(7), "{bench} same seed, same trace");
            assert_ne!(run(7), run(8), "{bench} different seed, different trace");
        }
    }

    #[test]
    fn active_subset_restricts_op_targets() {
        let mut w = tiny(MicroBench::Avl);
        w.config.active_pmos = 2;
        let mut stats = TraceStats::new();
        w.setup(&mut stats);
        w.run(&mut stats);
        // All 8 PMOs are attached (their headers are initialized), but
        // only the first 2 hold structures and receive operations.
        assert_eq!(stats.counts().attaches, 8);
        let active: u64 = (1..=2).map(|i| stats.accesses_for(PmoId::new(i))).sum();
        let idle: u64 = (3..=8).map(|i| stats.accesses_for(PmoId::new(i))).sum();
        assert!(active > idle * 10, "ops concentrate on active PMOs: active={active} idle={idle}");
    }

    #[test]
    fn op_mix_respects_insert_pct() {
        let mut w = tiny(MicroBench::LinkedList);
        w.config.ops = 400;
        w.config.insert_pct = 50;
        let mut counter = CountingSink::new();
        w.setup(&mut counter);
        w.run(&mut counter);
        // Can't observe inserts directly from counts; sanity-check via the
        // structure state: ~50% of 400 ops inserted on top of 8x8 initial.
        let state = w.state.as_ref().unwrap();
        let live: usize = state.live_keys.iter().map(Vec::len).sum();
        let inserted_minus_deleted = live as i64 - 64;
        assert!(
            inserted_minus_deleted.abs() < 120,
            "roughly balanced mix, got {inserted_minus_deleted}"
        );
    }
}
