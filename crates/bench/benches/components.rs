//! Microbenchmarks of the paper's new hardware structures in isolation.
//! The campaign code paths (`run_micro`, `run_whisper`, `replay_blocks`)
//! are timed, under gates, by the repository benchmark in `pmobench/`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pmo_protect::{
    Dttlb, DttlbEntry, KeyAllocator, PermissionTable, Pkru, Ptlb, PtlbEntry, RangeRadix,
};
use pmo_simarch::SetState;
use pmo_trace::{Perm, PmoId, ThreadId};

const GB1: u64 = 1 << 30;

fn dttlb_lookup(c: &mut Criterion) {
    let mut dttlb = Dttlb::new(16);
    for i in 0..16u32 {
        dttlb.insert(DttlbEntry {
            base: u64::from(i) * GB1,
            granule: GB1,
            pmo: PmoId::new(i + 1),
            key: Some((i % 15 + 1) as u8),
            perm: Perm::ReadWrite,
            dirty: false,
        });
    }
    c.bench_function("dttlb_lookup_hit", |b| {
        let mut va = 0u64;
        b.iter(|| {
            va = (va + GB1) % (16 * GB1);
            black_box(dttlb.lookup(black_box(va)).is_some())
        });
    });
}

fn ptlb_lookup(c: &mut Criterion) {
    let mut ptlb = Ptlb::new(16);
    for i in 0..16u32 {
        ptlb.insert(PtlbEntry { pmo: PmoId::new(i + 1), perm: Perm::ReadOnly, dirty: false });
    }
    c.bench_function("ptlb_lookup_hit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i % 16 + 1;
            black_box(ptlb.lookup(black_box(PmoId::new(i))).is_some())
        });
    });
}

fn dtt_walk(c: &mut Criterion) {
    // The radix walk behind both the DTT and the DRT: 1024 1GB regions.
    let mut radix: RangeRadix<u32> = RangeRadix::new();
    let base = 0x2000_0000_0000u64;
    for i in 0..1024u64 {
        radix.insert(base + i * GB1, GB1, i as u32);
    }
    c.bench_function("dtt_radix_walk_1024_domains", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 389) % 1024; // co-prime stride
            black_box(radix.lookup(black_box(base + i * GB1 + 0x123)))
        });
    });
}

fn key_allocation(c: &mut Criterion) {
    c.bench_function("key_evict_and_assign", |b| {
        let mut ka = KeyAllocator::new(16);
        for i in 1..=15 {
            ka.alloc(PmoId::new(i)).unwrap();
        }
        let mut next = 100u32;
        b.iter(|| {
            next += 1;
            black_box(ka.evict_and_assign(PmoId::new(next)))
        });
    });
}

fn pkru_update(c: &mut Criterion) {
    c.bench_function("pkru_with_perm", |b| {
        let mut reg = Pkru::ALL_DENIED;
        let mut key = 0u8;
        b.iter(|| {
            key = (key + 1) % 16;
            reg = reg.with_perm(key, Perm::ReadWrite);
            black_box(reg.perm(key))
        });
    });
}

fn permission_table(c: &mut Criterion) {
    let mut pt = PermissionTable::new();
    for i in 1..=1024u32 {
        pt.add_domain(PmoId::new(i));
        pt.set(PmoId::new(i), ThreadId::MAIN, Perm::ReadOnly);
    }
    c.bench_function("permission_table_get_1024_domains", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i % 1024 + 1;
            black_box(pt.get(black_box(PmoId::new(i)), ThreadId::MAIN))
        });
    });
}

fn plru(c: &mut Criterion) {
    c.bench_function("tree_plru_touch_victim_16way", |b| {
        let mut s = SetState::new(16);
        let mut way = 0u8;
        b.iter(|| {
            way = (way + 1) % 16;
            s.touch(way);
            black_box(s.victim())
        });
    });
}

criterion_group!(
    components,
    dttlb_lookup,
    ptlb_lookup,
    dtt_walk,
    key_allocation,
    pkru_update,
    permission_table,
    plru
);
criterion_main!(components);
