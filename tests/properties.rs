//! Property-based tests (proptest) over the core data structures and
//! invariants, spanning several crates:
//!
//! - every persistent structure behaves like a `BTreeSet` model under
//!   arbitrary insert/remove/contains sequences;
//! - pool storage's flush/crash model matches a two-copy reference model;
//! - the VA range radix behaves like an interval map;
//! - the permission lattice and PKRU encodings are coherent;
//! - OIDs round-trip through their persistent representation.

use proptest::prelude::*;
use std::collections::BTreeSet;

use pmo_repro::protect::{KeyAllocator, Pkru, RangeRadix};
use pmo_repro::runtime::{Mode, Oid, PmRuntime, PoolStorage};
use pmo_repro::trace::{AccessKind, NullSink, Perm, PmoId};
use pmo_repro::workloads::structs::{
    AvlTree, BplusTree, KeyedStructure, LinkedList, PersistentHashmap, RbTree,
};

#[derive(Debug, Clone, Copy)]
enum SetOp {
    Insert(u64),
    Remove(u64),
    Contains(u64),
}

fn set_ops() -> impl Strategy<Value = Vec<SetOp>> {
    // Keys from a small pool so removes/lookups hit often.
    let key = 0u64..48;
    prop::collection::vec(
        prop_oneof![
            3 => key.clone().prop_map(SetOp::Insert),
            2 => key.clone().prop_map(SetOp::Remove),
            1 => key.prop_map(SetOp::Contains),
        ],
        1..120,
    )
}

fn check_against_model<S: KeyedStructure>(ops: &[SetOp]) {
    let mut rt = PmRuntime::new();
    let mut sink = NullSink::new();
    let pool = rt.pool_create("prop", 8 << 20, Mode::private(), &mut sink).unwrap();
    let mut subject = S::create(&mut rt, pool, 32, &mut sink).unwrap();
    let mut model: BTreeSet<u64> = BTreeSet::new();
    for op in ops {
        match *op {
            SetOp::Insert(k) => {
                subject.insert(&mut rt, k, &mut sink).unwrap();
                model.insert(k);
            }
            SetOp::Remove(k) => {
                let removed = subject.remove(&mut rt, k, &mut sink).unwrap();
                assert_eq!(removed, model.remove(&k), "remove({k})");
            }
            SetOp::Contains(k) => {
                let found = subject.contains(&mut rt, k, &mut sink).unwrap();
                assert_eq!(found, model.contains(&k), "contains({k})");
            }
        }
        assert_eq!(subject.len(), model.len() as u64, "cardinality after {op:?}");
    }
    // Final sweep: total agreement.
    for k in 0u64..48 {
        assert_eq!(
            subject.contains(&mut rt, k, &mut sink).unwrap(),
            model.contains(&k),
            "final contains({k})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn avl_matches_btreeset(ops in set_ops()) {
        check_against_model::<AvlTree>(&ops);
    }

    #[test]
    fn rbtree_matches_btreeset(ops in set_ops()) {
        check_against_model::<RbTree>(&ops);
    }

    #[test]
    fn bplustree_matches_btreeset(ops in set_ops()) {
        check_against_model::<BplusTree>(&ops);
    }

    #[test]
    fn linked_list_matches_btreeset(ops in set_ops()) {
        check_against_model::<LinkedList>(&ops);
    }

    #[test]
    fn hashmap_matches_btreeset(ops in set_ops()) {
        check_against_model::<PersistentHashmap>(&ops);
    }
}

// ---------------------------------------------------------------------
// Storage flush/crash model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum StorageOp {
    Write(u16, Vec<u8>),
    FlushRange(u16, u16),
    Crash,
}

fn storage_ops() -> impl Strategy<Value = Vec<StorageOp>> {
    let write = (0u16..960, prop::collection::vec(any::<u8>(), 1..48))
        .prop_map(|(o, d)| StorageOp::Write(o, d));
    let flush = (0u16..960, 1u16..64).prop_map(|(o, l)| StorageOp::FlushRange(o, l));
    prop::collection::vec(prop_oneof![4 => write, 2 => flush, 1 => Just(StorageOp::Crash)], 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn storage_matches_two_copy_model(ops in storage_ops()) {
        const SIZE: usize = 1024;
        let mut storage = PoolStorage::new(SIZE as u64);
        // Reference model: `current` is what the CPU sees, `persisted`
        // what survives a crash; flush copies line-sized spans across.
        let mut current = vec![0u8; SIZE];
        let mut persisted = vec![0u8; SIZE];
        for op in &ops {
            match op {
                StorageOp::Write(off, data) => {
                    let off = *off as usize;
                    let end = (off + data.len()).min(SIZE);
                    let data = &data[..end - off];
                    storage.write(off as u64, data).unwrap();
                    current[off..end].copy_from_slice(data);
                }
                StorageOp::FlushRange(off, len) => {
                    let off = (*off as usize).min(SIZE - 1);
                    let len = (*len as usize).min(SIZE - off);
                    storage.flush_range(off as u64, len as u64);
                    let first = off / 64 * 64;
                    let last = ((off + len.max(1) - 1) / 64 + 1) * 64;
                    let last = last.min(SIZE);
                    persisted[first..last].copy_from_slice(&current[first..last]);
                }
                StorageOp::Crash => {
                    storage.crash();
                    current.copy_from_slice(&persisted);
                }
            }
            let mut buf = vec![0u8; SIZE];
            storage.read(0, &mut buf).unwrap();
            prop_assert_eq!(&buf, &current, "visible state diverged after {:?}", op);
        }
    }

    // -----------------------------------------------------------------
    // Range radix behaves like an interval map.
    // -----------------------------------------------------------------

    #[test]
    fn radix_matches_interval_model(
        regions in prop::collection::btree_set(0u64..128, 1..40),
        probes in prop::collection::vec((0u64..128, 0u64..(1 << 30)), 64)
    ) {
        const GB1: u64 = 1 << 30;
        let mut radix: RangeRadix<u64> = RangeRadix::new();
        for &slot in &regions {
            radix.insert(slot * GB1, GB1, slot);
        }
        prop_assert_eq!(radix.len(), regions.len());
        for (slot, offset) in probes {
            let hit = radix.lookup(slot * GB1 + offset);
            prop_assert_eq!(hit.map(|h| *h.value), regions.get(&slot).copied());
        }
        // Remove half, re-probe.
        let removed: Vec<u64> = regions.iter().copied().step_by(2).collect();
        for &slot in &removed {
            prop_assert_eq!(radix.remove(slot * GB1), Some(slot));
        }
        for &slot in &removed {
            prop_assert!(radix.lookup(slot * GB1).is_none());
        }
    }

    // The DTT's radix table must agree with a BTreeMap oracle under
    // arbitrary mixed-granule insert/remove/lookup sequences: each slot
    // gets a 1 GiB-aligned base (aligned for every granule) and a granule
    // chosen by slot, so 4 KiB, 2 MiB, and 1 GiB entries coexist at
    // different tree depths and probes exercise both in-region hits and
    // past-the-granule misses.
    #[test]
    fn radix_mixed_granules_match_btreemap_oracle(
        ops in prop::collection::vec((0u64..64, 0u8..3, 0u64..(1u64 << 30)), 1..150)
    ) {
        const GB1: u64 = 1 << 30;
        let granules = [0x1000u64, 0x20_0000, 0x4000_0000];
        let mut radix: RangeRadix<u64> = RangeRadix::new();
        // slot -> (granule, value)
        let mut model: std::collections::BTreeMap<u64, (u64, u64)> =
            std::collections::BTreeMap::new();
        for (i, &(slot, action, offset)) in ops.iter().enumerate() {
            match action {
                0 => {
                    if let std::collections::btree_map::Entry::Vacant(slot_entry) =
                        model.entry(slot)
                    {
                        let granule = granules[(slot % 3) as usize];
                        radix.insert(slot * GB1, granule, i as u64);
                        slot_entry.insert((granule, i as u64));
                    }
                }
                1 => {
                    let expected = model.remove(&slot).map(|(_, v)| v);
                    prop_assert_eq!(radix.remove(slot * GB1), expected);
                }
                _ => {
                    let hit = radix.lookup(slot * GB1 + offset);
                    match model.get(&slot) {
                        Some(&(granule, value)) if offset < granule => {
                            let hit = hit.expect("oracle says mapped");
                            prop_assert_eq!(hit.base, slot * GB1);
                            prop_assert_eq!(hit.granule, granule);
                            prop_assert_eq!(*hit.value, value);
                        }
                        _ => prop_assert!(hit.is_none(), "oracle says unmapped"),
                    }
                }
            }
            prop_assert_eq!(radix.len(), model.len());
            prop_assert_eq!(radix.is_empty(), model.is_empty());
        }
    }

    // -----------------------------------------------------------------
    // Key allocation under pressure.
    // -----------------------------------------------------------------

    // The key allocator must maintain the domain↔key bijection under
    // arbitrary acquire/free/touch sequences with more domains than
    // usable keys, evicting exactly when (and only when) every usable
    // key is taken — the regime the MPK-virt eviction protocol (and the
    // model checker's key-pressure scenarios) depends on.
    #[test]
    fn key_allocator_keeps_bijection_under_pressure(
        ops in prop::collection::vec((1u32..7, 0u8..3), 1..200)
    ) {
        let mut ka = KeyAllocator::new(4); // 3 usable keys, up to 6 domains
        let usable = ka.usable();
        // key -> owning domain
        let mut model: std::collections::BTreeMap<u8, PmoId> =
            std::collections::BTreeMap::new();
        for &(raw, action) in &ops {
            let domain = PmoId::new(raw);
            match action {
                0 => {
                    // Acquire a key, evicting a PLRU victim when full.
                    if ka.key_of(domain).is_none() {
                        let full = model.len() as u32 == usable;
                        match ka.alloc(domain) {
                            Some(key) => {
                                prop_assert!(!full, "alloc must fail only when full");
                                prop_assert!(model.insert(key, domain).is_none());
                            }
                            None => {
                                prop_assert!(full, "alloc must succeed while keys remain");
                                let (key, victim) = ka.evict_and_assign(domain);
                                prop_assert_eq!(model.insert(key, domain), Some(victim));
                                prop_assert!(ka.key_of(victim).is_none());
                            }
                        }
                    }
                }
                1 => {
                    let expected = model
                        .iter()
                        .find(|(_, &d)| d == domain)
                        .map(|(&k, _)| k);
                    prop_assert_eq!(ka.free(domain), expected);
                    if let Some(key) = expected {
                        model.remove(&key);
                    }
                }
                _ => {
                    if let Some(key) = ka.key_of(domain) {
                        ka.touch(key); // PLRU hint: must not change ownership
                    }
                }
            }
            // The assignment view, key_of, and owner must agree exactly.
            prop_assert_eq!(ka.in_use() as usize, model.len());
            let assignments: std::collections::BTreeMap<u8, PmoId> =
                ka.assignments().collect();
            prop_assert_eq!(&assignments, &model);
            for (&key, &d) in &model {
                prop_assert!(key != 0, "NULL key is never assigned");
                prop_assert_eq!(ka.owner(key), Some(d));
                prop_assert_eq!(ka.key_of(d), Some(key));
            }
        }
    }

    // -----------------------------------------------------------------
    // Permission lattice / PKRU coherence.
    // -----------------------------------------------------------------

    #[test]
    fn perm_lattice_is_coherent(a in 0u8..3, b in 0u8..3) {
        let perms = [Perm::None, Perm::ReadOnly, Perm::ReadWrite];
        let (a, b) = (perms[a as usize], perms[b as usize]);
        // meet never allows more than either side; join never less.
        for kind in [AccessKind::Read, AccessKind::Write] {
            prop_assert!(!a.meet(b).allows(kind) || (a.allows(kind) && b.allows(kind)));
            prop_assert!(a.join(b).allows(kind) || (!a.allows(kind) && !b.allows(kind)));
        }
        // 2-bit encoding round-trips.
        prop_assert_eq!(Perm::decode(a.encode()), a);
    }

    #[test]
    fn perm_lattice_laws_hold(a in 0u8..3, b in 0u8..3, c in 0u8..3) {
        let perms = [Perm::None, Perm::ReadOnly, Perm::ReadWrite];
        let (a, b, c) = (perms[a as usize], perms[b as usize], perms[c as usize]);
        // meet and join are commutative, associative, and idempotent.
        prop_assert_eq!(a.meet(b), b.meet(a));
        prop_assert_eq!(a.join(b), b.join(a));
        prop_assert_eq!(a.meet(b).meet(c), a.meet(b.meet(c)));
        prop_assert_eq!(a.join(b).join(c), a.join(b.join(c)));
        prop_assert_eq!(a.meet(a), a);
        prop_assert_eq!(a.join(a), a);
        // Absorption ties the two operations into one lattice.
        prop_assert_eq!(a.meet(a.join(b)), a);
        prop_assert_eq!(a.join(a.meet(b)), a);
        // The lattice order agrees with the derived Ord: meet is the
        // smaller element, join the larger.
        prop_assert_eq!(a.meet(b), a.min(b));
        prop_assert_eq!(a.join(b), a.max(b));
        prop_assert_eq!(a.meet(b) <= a, true);
        prop_assert_eq!(a.join(b) >= a, true);
    }

    #[test]
    fn pkru_updates_are_independent(ops in prop::collection::vec((0u8..16, 0u8..3), 1..40)) {
        let perms = [Perm::None, Perm::ReadOnly, Perm::ReadWrite];
        let mut reg = Pkru::ALL_DENIED;
        let mut model = [Perm::None; 16];
        for (key, p) in ops {
            let perm = perms[p as usize];
            reg = reg.with_perm(key, perm);
            model[key as usize] = perm;
            for k in 0..16u8 {
                prop_assert_eq!(reg.perm(k), model[k as usize], "key {}", k);
            }
        }
        prop_assert_eq!(Pkru::from_raw(reg.raw()), reg);
    }

    #[test]
    fn oid_roundtrips(pool in 1u32.., offset in any::<u32>()) {
        let oid = Oid::new(PmoId::new(pool), offset);
        prop_assert_eq!(Oid::from_raw(oid.to_raw()), oid);
        prop_assert!(!oid.is_null());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // -----------------------------------------------------------------
    // Crash-image enumeration is closed under the persistency model:
    // whatever subset of a window's stores a power failure lets persist
    // (per line: the entry state or the content after any store, lines
    // independent), the resulting image hashes into the enumerated set.
    // -----------------------------------------------------------------

    #[test]
    fn crash_enumeration_contains_every_legal_persist_choice(
        ops in prop::collection::vec(
            (0u64..4, 0u64..8, any::<u64>(), 0u8..6),
            0..12,
        ),
        first_data in any::<u64>(),
        choice_seed in any::<u64>(),
    ) {
        use pmo_repro::analyzer::{enumerate, image_hash, EnumConfig, LineImage};
        use pmo_repro::trace::TraceEvent;

        const LINE: usize = 64;
        const LINES: usize = 4;
        let base = 1u64 << 30;
        let pmo = PmoId::new(1);

        // Build the trace and, in parallel, an independent reference
        // model of each line's reachable persisted states: the zero
        // entry state plus the line content after every store to it.
        let mut events = vec![TraceEvent::Attach {
            pmo,
            base,
            size: (LINES * LINE) as u64,
            nvm: true,
        }];
        let mut current = [[0u8; LINE]; LINES];
        let mut candidates: Vec<Vec<LineImage>> =
            (0..LINES).map(|_| vec![[0u8; LINE]]).collect();
        let mut store = |events: &mut Vec<TraceEvent>, line: u64, word: u64, data: u64| {
            events.push(TraceEvent::StoreData { va: base + line * 64 + word * 8, size: 8, data });
            let (l, w) = (line as usize, word as usize);
            current[l][w * 8..w * 8 + 8].copy_from_slice(&data.to_le_bytes());
            let img = current[l];
            if !candidates[l].contains(&img) {
                candidates[l].push(img);
            }
        };
        store(&mut events, 0, 0, first_data); // ensure the window has activity
        for &(line, word, data, kind) in &ops {
            if kind < 5 {
                store(&mut events, line, word, data);
            } else {
                // A flush changes what settles at the next fence, never
                // what a crash inside this window can leave behind.
                events.push(TraceEvent::Flush { va: base + line * 64 });
            }
        }

        let result = enumerate(&events, EnumConfig {
            max_images_per_window: 1 << 20,
            max_windows: 16,
        });
        prop_assert!(result.exhaustive(), "caps must not truncate this product");
        let hashes = result.pool_hashes(pmo);

        // Pick an arbitrary legal persist choice per line and hash it.
        let mut image: Vec<(u64, LineImage)> = Vec::new();
        for (l, cands) in candidates.iter().enumerate() {
            let pick = ((choice_seed >> (8 * l)) as usize) % cands.len();
            let img = cands[pick];
            if img.iter().any(|&b| b != 0) {
                image.push((l as u64, img));
            }
        }
        let hash = image_hash(&image);
        prop_assert!(
            hashes.contains(&hash),
            "legal image (choice seed {choice_seed:#x}) missing from {} enumerated hashes",
            hashes.len()
        );
    }

    // -----------------------------------------------------------------
    // The static trace audit agrees with the lowerbound oracle: an
    // access is "unguarded" exactly when the scheme would deny it.
    // -----------------------------------------------------------------

    #[test]
    fn audit_matches_lowerbound_denials(
        ops in prop::collection::vec((0u8..8, 1u32..6, 0u64..4096u64), 1..150)
    ) {
        use pmo_repro::protect::scheme::{ProtectionScheme, SchemeKind};
        use pmo_repro::simarch::SimConfig;
        use pmo_repro::trace::{AuditViolation, PermAudit, TraceEvent, TraceSink};

        const GB1: u64 = 1 << 30;
        let config = SimConfig::isca2020();
        let mut scheme = SchemeKind::Lowerbound.build_any(&config);
        let mut audit = PermAudit::with_max_open_windows(usize::MAX);

        // Attach five domains in both views.
        for d in 1..6u32 {
            scheme.attach(PmoId::new(d), u64::from(d) * GB1, 1 << 20, true).unwrap();
            audit.event(TraceEvent::Attach {
                pmo: PmoId::new(d),
                base: u64::from(d) * GB1,
                size: 1 << 20,
                nvm: true,
            });
        }

        let mut denied = 0u64;
        for (op, d, off) in ops {
            let pmo = PmoId::new(d);
            let va = u64::from(d) * GB1 + off;
            match op {
                0..=2 => {
                    let perm = [Perm::None, Perm::ReadOnly, Perm::ReadWrite][(op % 3) as usize];
                    scheme.set_perm(pmo, perm);
                    audit.event(TraceEvent::SetPerm { pmo, perm });
                }
                3..=5 => {
                    let kind = if op == 3 { AccessKind::Write } else { AccessKind::Read };
                    if !scheme.access(va, kind).allowed() {
                        denied += 1;
                    }
                    let ev = if op == 3 {
                        TraceEvent::Store { va, size: 8 }
                    } else {
                        TraceEvent::Load { va, size: 8 }
                    };
                    audit.event(ev);
                }
                _ => {
                    let t = pmo_repro::trace::ThreadId::new(u32::from(op) % 3);
                    scheme.context_switch(t);
                    audit.event(TraceEvent::ThreadSwitch { thread: t });
                }
            }
        }
        let unguarded = audit
            .violations()
            .iter()
            .filter(|v| matches!(v, AuditViolation::UnguardedAccess { .. }))
            .count() as u64;
        prop_assert_eq!(unguarded, denied);
    }
}
