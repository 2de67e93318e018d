//! A sparse page table (x86-64 style, 48-bit VA, 4KB pages).
//!
//! The table is functional: it holds real per-page entries whose protection
//! key field is rewritten by `pkey_mprotect` (the expensive operation the
//! libmpk baseline performs on every domain eviction). The walker charges a
//! flat miss penalty per Table II, so the table's host-side layout is free
//! to differ from the four-level radix it models: per-PTE costs (libmpk)
//! are charged arithmetically from the covered-PTE counts the ranged
//! operations return.
//!
//! Only touched pages are stored. Each leaf covers one 2MB span: a 512-bit
//! presence bitmap and the mapped PTEs in page order, so the PTE of page
//! `i` sits at the rank of bit `i`. A sorted [`VecMap`] index maps each
//! span to the slot of its leaf; the leaf bodies live outside it, so a new
//! span shifts small index rows, not whole leaves. A leaf whose last page
//! is unmapped goes back to a spare list with its PTE buffer, for the next
//! span mapped, and restoring a saved table with `clone_from` keeps every
//! leaf the copy already owns the same way. A PMO reserves a 1GB-aligned
//! region but touches a handful of pages at quick scale, where a dense
//! radix spends an 8KB directory and an 8KB leaf on every such region —
//! per scheme, per replay.

use pmo_trace::Perm;

use crate::memory::MemKind;
use crate::tlb::{vpn, PAGE_SIZE};
use crate::vecmap::VecMap;

/// Pages per leaf (one 2MB span).
const LEAF_PAGES: u64 = 512;
const LEAF_BITS: u32 = 9;
const WORDS: usize = LEAF_PAGES as usize / 64;

/// A page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// Physical frame number.
    pub pfn: u64,
    /// Page-level permission (independent of domain permission).
    pub perm: Perm,
    /// MPK protection key (0 = NULL key / domainless page).
    pub pkey: u8,
    /// Kind of backing memory.
    pub mem: MemKind,
}

impl Pte {
    /// A DRAM page with read-write permission and no protection key.
    #[must_use]
    pub fn plain(pfn: u64) -> Self {
        Pte { pfn, perm: Perm::ReadWrite, pkey: 0, mem: MemKind::Dram }
    }
}

/// The mapped pages of one 2MB span, plus lazily-applied whole-leaf
/// attribute overrides. PMO pools are granule-aligned (an 8MB pool
/// reserves a 1GB-aligned region), so every ranged `pkey_mprotect` /
/// `mprotect` covers whole leaves — recording the new key or permission
/// as a pending override makes those rewrites O(1) per leaf instead of a
/// per-PTE scan, which is the difference between libmpk's domain eviction
/// costing nanoseconds or microseconds of *host* time per call (the
/// simulated cost is charged arithmetically either way).
///
/// A leaf the index names always maps at least one page: the table
/// releases a leaf the moment its last page is unmapped, and a released
/// leaf is empty, overrides and all.
#[derive(Debug, Default)]
struct Leaf {
    /// Bit `i` is set iff page `i` of the span is mapped.
    present: [u64; WORDS],
    /// The mapped PTEs, in page order.
    ptes: Vec<Pte>,
    /// Pending whole-leaf protection-key override; merged by `walk` and
    /// materialized into the PTEs before any partial-leaf update.
    pkey: Option<u8>,
    /// Pending whole-leaf permission override (same discipline).
    perm: Option<Perm>,
}

crate::impl_clone_in_place!(Leaf { present, ptes, pkey, perm });

impl Leaf {
    /// Unmaps every page and drops the overrides, keeping the PTE buffer.
    fn clear(&mut self) {
        self.present = [0; WORDS];
        self.ptes.clear();
        self.pkey = None;
        self.perm = None;
    }

    fn has(&self, idx: usize) -> bool {
        self.present[idx / 64] >> (idx % 64) & 1 != 0
    }

    /// Mapped pages below `idx` (`idx` may be [`LEAF_PAGES`]): the index
    /// in `ptes` of page `idx`'s entry.
    fn rank(&self, idx: usize) -> usize {
        let (word, bit) = (idx / 64, idx % 64);
        let below: u32 = self.present[..word].iter().map(|w| w.count_ones()).sum();
        let partial = self.present.get(word).map_or(0, |w| (w & ((1 << bit) - 1)).count_ones());
        (below + partial) as usize
    }

    /// An entry as `walk` sees it: stored fields plus pending overrides.
    fn merged(&self, pte: Pte) -> Pte {
        Pte { pkey: self.pkey.unwrap_or(pte.pkey), perm: self.perm.unwrap_or(pte.perm), ..pte }
    }

    fn get(&self, idx: usize) -> Option<Pte> {
        self.has(idx).then(|| self.merged(self.ptes[self.rank(idx)]))
    }

    /// Applies pending overrides to every mapped PTE and clears them, so
    /// entries can be read or written individually again.
    fn materialize(&mut self) {
        let (pkey, perm) = (self.pkey.take(), self.perm.take());
        if pkey.is_none() && perm.is_none() {
            return;
        }
        for pte in &mut self.ptes {
            pte.pkey = pkey.unwrap_or(pte.pkey);
            pte.perm = perm.unwrap_or(pte.perm);
        }
    }

    /// Maps page `idx`, returning the entry it replaces.
    fn insert(&mut self, idx: usize, pte: Pte) -> Option<Pte> {
        // A fresh entry must not inherit pending whole-leaf overrides.
        self.materialize();
        let rank = self.rank(idx);
        if self.has(idx) {
            return Some(std::mem::replace(&mut self.ptes[rank], pte));
        }
        self.present[idx / 64] |= 1 << (idx % 64);
        self.ptes.insert(rank, pte);
        None
    }

    /// Unmaps page `idx`, returning its merged entry.
    fn remove(&mut self, idx: usize) -> Option<Pte> {
        if !self.has(idx) {
            return None;
        }
        self.present[idx / 64] &= !(1 << (idx % 64));
        let pte = self.ptes.remove(self.rank(idx));
        Some(self.merged(pte))
    }

    /// Applies `op` to the mapped pages in `[lo, hi)` of a leaf the range
    /// covers only partly; returns how many it covered.
    fn apply_partial(&mut self, lo: usize, hi: usize, op: RangeOp) -> u64 {
        self.materialize();
        let (first, last) = (self.rank(lo), self.rank(hi));
        match op {
            RangeOp::Unmap => {
                self.ptes.drain(first..last);
                for idx in lo..hi {
                    self.present[idx / 64] &= !(1 << (idx % 64));
                }
            }
            RangeOp::SetPkey(pkey) => self.ptes[first..last].iter_mut().for_each(|p| p.pkey = pkey),
            RangeOp::SetPerm(perm) => self.ptes[first..last].iter_mut().for_each(|p| p.perm = perm),
        }
        (last - first) as u64
    }
}

/// What a ranged page-table operation does to each covered mapped PTE.
#[derive(Clone, Copy, Debug)]
enum RangeOp {
    Unmap,
    SetPkey(u8),
    SetPerm(Perm),
}

/// Leaf bodies by slot. A slot the index does not name is spare: it holds
/// an empty leaf that keeps its PTE buffer for the next span mapped.
#[derive(Default)]
struct Leaves {
    bodies: Vec<Leaf>,
    spare: Vec<usize>,
}

impl Leaves {
    /// A slot for a new span: a spare one, or else a new one.
    fn take(&mut self) -> usize {
        self.spare.pop().unwrap_or_else(|| {
            self.bodies.push(Leaf::default());
            self.bodies.len() - 1
        })
    }

    /// Empties a slot's leaf and makes the slot spare.
    fn release(&mut self, slot: usize) {
        self.bodies[slot].clear();
        self.spare.push(slot);
    }
}

impl Clone for Leaves {
    fn clone(&self) -> Self {
        Leaves { bodies: self.bodies.clone(), spare: self.spare.clone() }
    }

    /// Copies `source` slot by slot into the leaves already here. A leaf
    /// past `source`'s last slot becomes spare, buffer and all, instead of
    /// being freed, so a restored table maps new spans without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.spare.clone_from(&source.spare);
        let shared = self.bodies.len().min(source.bodies.len());
        for (leaf, from) in self.bodies.iter_mut().zip(&source.bodies) {
            leaf.clone_from(from);
        }
        self.bodies.extend_from_slice(&source.bodies[shared..]);
        for slot in source.bodies.len()..self.bodies.len() {
            self.release(slot);
        }
    }
}

/// The page table of one process.
#[derive(Default)]
pub struct PageTable {
    /// Span number (`vpn >> 9`) → slot of its leaf, for every span with a
    /// mapped page.
    index: VecMap<u64, usize>,
    leaves: Leaves,
    mapped_pages: u64,
}

crate::impl_clone_in_place!(PageTable { index, leaves, mapped_pages });

/// The mapped spans in order, each with its leaf.
impl std::fmt::Debug for PageTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.index.iter().map(|(span, &slot)| (span, &self.leaves.bodies[slot])))
            .finish()
    }
}

fn split(vpn: u64) -> (u64, usize) {
    (vpn >> LEAF_BITS, (vpn % LEAF_PAGES) as usize)
}

impl PageTable {
    /// Creates an empty page table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks the table for `va`; returns the leaf entry if mapped.
    #[must_use]
    pub fn walk(&self, va: u64) -> Option<Pte> {
        let (span, idx) = split(vpn(va));
        self.leaves.bodies[*self.index.get(&span)?].get(idx)
    }

    /// Maps one page. Returns the previous entry, if any.
    pub fn map_page(&mut self, va: u64, pte: Pte) -> Option<Pte> {
        let (span, idx) = split(vpn(va));
        let leaves = &mut self.leaves;
        let slot = *self.index.get_or_insert_with(span, || leaves.take());
        let old = leaves.bodies[slot].insert(idx, pte);
        if old.is_none() {
            self.mapped_pages += 1;
        }
        old
    }

    /// Maps `[va, va + len)` with consecutive PFNs starting at `base_pfn`.
    ///
    /// # Panics
    ///
    /// Panics if `va` or `len` is not page-aligned.
    pub fn map_range(&mut self, va: u64, len: u64, base_pfn: u64, perm: Perm, mem: MemKind) {
        assert_eq!(va % PAGE_SIZE, 0, "va must be page-aligned");
        assert_eq!(len % PAGE_SIZE, 0, "len must be page-aligned");
        for i in 0..len / PAGE_SIZE {
            self.map_page(va + i * PAGE_SIZE, Pte { pfn: base_pfn + i, perm, pkey: 0, mem });
        }
    }

    /// Unmaps one page; returns the removed entry.
    pub fn unmap_page(&mut self, va: u64) -> Option<Pte> {
        let (span, idx) = split(vpn(va));
        let slot = *self.index.get(&span)?;
        let old = self.leaves.bodies[slot].remove(idx)?;
        self.mapped_pages -= 1;
        if self.leaves.bodies[slot].ptes.is_empty() {
            self.index.remove(&span);
            self.leaves.release(slot);
        }
        Some(old)
    }

    /// Applies `op` to every *mapped* page whose VPN lies in `[start,
    /// end)`, visiting only the stored leaves the range touches; returns
    /// the number of mapped PTEs covered. A leaf *fully* inside the range
    /// takes the O(1) path — emptying it outright (unmap) or recording a
    /// pending whole-leaf override (pkey/perm) — while a partially-covered
    /// leaf materializes its overrides and updates the covered entries.
    /// The simulated cost of a range operation is charged arithmetically
    /// by the caller (`pte_write_cycles * pages`), so the host-side work
    /// must not be proportional to the range in pages, only to the
    /// touched leaves.
    fn visit_range(&mut self, start: u64, end: u64, op: RangeOp) -> u64 {
        if start >= end {
            return 0;
        }
        let mut covered = 0;
        let mut emptied = false;
        for (&span, &slot) in self.index.range(start >> LEAF_BITS..=(end - 1) >> LEAF_BITS) {
            let leaf = &mut self.leaves.bodies[slot];
            let base = span << LEAF_BITS;
            if start <= base && end >= base + LEAF_PAGES {
                // Whole leaf covered: O(1), no per-PTE work.
                covered += leaf.ptes.len() as u64;
                match op {
                    RangeOp::Unmap => leaf.clear(),
                    RangeOp::SetPkey(pkey) => leaf.pkey = Some(pkey),
                    RangeOp::SetPerm(perm) => leaf.perm = Some(perm),
                }
            } else {
                let lo = start.saturating_sub(base) as usize;
                let hi = (end - base).min(LEAF_PAGES) as usize;
                covered += leaf.apply_partial(lo, hi, op);
            }
            emptied |= leaf.ptes.is_empty();
        }
        if emptied {
            let leaves = &mut self.leaves;
            self.index.retain(|_, &mut slot| {
                let mapped = !leaves.bodies[slot].ptes.is_empty();
                if !mapped {
                    leaves.release(slot);
                }
                mapped
            });
        }
        covered
    }

    /// Unmaps `[va, va + len)`; returns the number of pages removed.
    pub fn unmap_range(&mut self, va: u64, len: u64) -> u64 {
        assert_eq!(va % PAGE_SIZE, 0, "va must be page-aligned");
        let removed = self.visit_range(vpn(va), vpn(va) + len.div_ceil(PAGE_SIZE), RangeOp::Unmap);
        self.mapped_pages -= removed;
        removed
    }

    /// Rewrites the protection key of every mapped page in `[va, va+len)`;
    /// returns the number of PTEs written (this is what `pkey_mprotect`
    /// pays for, proportional to domain size — §VI.B).
    pub fn set_pkey_range(&mut self, va: u64, len: u64, pkey: u8) -> u64 {
        self.visit_range(vpn(va), vpn(va + len - 1) + 1, RangeOp::SetPkey(pkey))
    }

    /// Rewrites the page permission over a range; returns PTEs written.
    pub fn set_perm_range(&mut self, va: u64, len: u64, perm: Perm) -> u64 {
        self.visit_range(vpn(va), vpn(va + len - 1) + 1, RangeOp::SetPerm(perm))
    }

    /// Total mapped pages.
    #[must_use]
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }
}

/// The four-level radix the sparse table replaced, kept as the oracle
/// the property test checks it against: 512-slot directories and leaves,
/// created on first touch and never freed, with the same whole-leaf
/// override discipline.
#[cfg(test)]
mod dense {
    use super::{vpn, MemKind, Perm, Pte, RangeOp, PAGE_SIZE};

    const FANOUT: usize = 512;
    const LEVELS: u32 = 4;
    const INDEX_BITS: u32 = 9;

    enum Node {
        Dir(Box<[Option<Node>; FANOUT]>),
        Leaf(Box<Leaf>),
    }

    struct Leaf {
        ptes: [Option<Pte>; FANOUT],
        mapped: u32,
        pkey: Option<u8>,
        perm: Option<Perm>,
    }

    impl Leaf {
        fn new() -> Self {
            Leaf { ptes: [None; FANOUT], mapped: 0, pkey: None, perm: None }
        }

        fn materialize(&mut self) {
            for slot in self.ptes.iter_mut().flatten() {
                slot.pkey = self.pkey.unwrap_or(slot.pkey);
                slot.perm = self.perm.unwrap_or(slot.perm);
            }
            self.pkey = None;
            self.perm = None;
        }

        fn get(&self, idx: usize) -> Option<Pte> {
            let pte = self.ptes[idx]?;
            Some(Pte {
                pkey: self.pkey.unwrap_or(pte.pkey),
                perm: self.perm.unwrap_or(pte.perm),
                ..pte
            })
        }
    }

    fn empty_dir() -> Node {
        Node::Dir(Box::new(std::array::from_fn(|_| None)))
    }

    fn index_at(vpn: u64, level: u32) -> usize {
        ((vpn >> ((LEVELS - 1 - level) * INDEX_BITS)) & (FANOUT as u64 - 1)) as usize
    }

    pub struct DenseTable {
        root: Node,
        mapped_pages: u64,
    }

    impl DenseTable {
        pub fn new() -> Self {
            DenseTable { root: empty_dir(), mapped_pages: 0 }
        }

        pub fn walk(&self, va: u64) -> Option<Pte> {
            let vpn = vpn(va);
            let mut node = &self.root;
            for level in 0..LEVELS - 1 {
                match node {
                    Node::Dir(children) => node = children[index_at(vpn, level)].as_ref()?,
                    Node::Leaf(_) => unreachable!("leaf above the last level"),
                }
            }
            match node {
                Node::Leaf(leaf) => leaf.get(index_at(vpn, LEVELS - 1)),
                Node::Dir(_) => None,
            }
        }

        fn leaf_for(&mut self, vpn: u64) -> &mut Leaf {
            let mut node = &mut self.root;
            for level in 0..LEVELS - 1 {
                let next_is_leaf = level == LEVELS - 2;
                match node {
                    Node::Dir(children) => {
                        node = children[index_at(vpn, level)].get_or_insert_with(|| {
                            if next_is_leaf {
                                Node::Leaf(Box::new(Leaf::new()))
                            } else {
                                empty_dir()
                            }
                        });
                    }
                    Node::Leaf(_) => unreachable!("leaf above the last level"),
                }
            }
            match node {
                Node::Leaf(leaf) => leaf,
                Node::Dir(_) => unreachable!("directory at leaf level"),
            }
        }

        pub fn map_page(&mut self, va: u64, pte: Pte) -> Option<Pte> {
            let vpn = vpn(va);
            let leaf = self.leaf_for(vpn);
            leaf.materialize();
            let old = leaf.ptes[index_at(vpn, LEVELS - 1)].replace(pte);
            if old.is_none() {
                leaf.mapped += 1;
                self.mapped_pages += 1;
            }
            old
        }

        pub fn map_range(&mut self, va: u64, len: u64, base_pfn: u64, perm: Perm, mem: MemKind) {
            for i in 0..len / PAGE_SIZE {
                self.map_page(va + i * PAGE_SIZE, Pte { pfn: base_pfn + i, perm, pkey: 0, mem });
            }
        }

        pub fn unmap_page(&mut self, va: u64) -> Option<Pte> {
            let vpn = vpn(va);
            let leaf = self.leaf_for(vpn);
            let old = leaf.get(index_at(vpn, LEVELS - 1));
            if old.is_some() {
                leaf.ptes[index_at(vpn, LEVELS - 1)] = None;
                leaf.mapped -= 1;
                self.mapped_pages -= 1;
            }
            old
        }

        fn visit(node: &mut Node, level: u32, base: u64, start: u64, end: u64, op: RangeOp) -> u64 {
            let shift = (LEVELS - 1 - level) * INDEX_BITS;
            match node {
                Node::Dir(children) => {
                    let lo = (start.saturating_sub(base) >> shift) as usize;
                    let hi = (((end - 1 - base) >> shift) as usize).min(FANOUT - 1);
                    let mut covered = 0;
                    for (idx, child) in children[lo..=hi].iter_mut().enumerate() {
                        if let Some(child) = child {
                            let child_base = base + (((lo + idx) as u64) << shift);
                            covered += Self::visit(child, level + 1, child_base, start, end, op);
                        }
                    }
                    covered
                }
                Node::Leaf(leaf) => {
                    if start <= base && end >= base + FANOUT as u64 {
                        let covered = u64::from(leaf.mapped);
                        match op {
                            RangeOp::Unmap => **leaf = Leaf::new(),
                            RangeOp::SetPkey(pkey) => leaf.pkey = Some(pkey),
                            RangeOp::SetPerm(perm) => leaf.perm = Some(perm),
                        }
                        return covered;
                    }
                    leaf.materialize();
                    let lo = start.saturating_sub(base) as usize;
                    let hi = ((end - base).min(FANOUT as u64)) as usize;
                    let mut covered = 0;
                    for slot in &mut leaf.ptes[lo..hi] {
                        let Some(pte) = slot else { continue };
                        match op {
                            RangeOp::Unmap => {
                                *slot = None;
                                leaf.mapped -= 1;
                            }
                            RangeOp::SetPkey(pkey) => pte.pkey = pkey,
                            RangeOp::SetPerm(perm) => pte.perm = perm,
                        }
                        covered += 1;
                    }
                    covered
                }
            }
        }

        pub fn unmap_range(&mut self, va: u64, len: u64) -> u64 {
            let end = vpn(va) + len.div_ceil(PAGE_SIZE);
            let removed = Self::visit(&mut self.root, 0, 0, vpn(va), end, RangeOp::Unmap);
            self.mapped_pages -= removed;
            removed
        }

        pub fn set_pkey_range(&mut self, va: u64, len: u64, pkey: u8) -> u64 {
            let (start, end) = (vpn(va), vpn(va + len - 1) + 1);
            Self::visit(&mut self.root, 0, 0, start, end, RangeOp::SetPkey(pkey))
        }

        pub fn set_perm_range(&mut self, va: u64, len: u64, perm: Perm) -> u64 {
            let (start, end) = (vpn(va), vpn(va + len - 1) + 1);
            Self::visit(&mut self.root, 0, 0, start, end, RangeOp::SetPerm(perm))
        }

        pub fn mapped_pages(&self) -> u64 {
            self.mapped_pages
        }
    }
}

#[cfg(test)]
mod tests {
    use super::dense::DenseTable;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn map_walk_unmap() {
        let mut pt = PageTable::new();
        assert_eq!(pt.walk(0x1000), None);
        pt.map_page(0x1000, Pte::plain(7));
        let pte = pt.walk(0x1abc).expect("same page");
        assert_eq!(pte.pfn, 7);
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.unmap_page(0x1000).map(|p| p.pfn), Some(7));
        assert_eq!(pt.walk(0x1000), None);
        assert_eq!(pt.mapped_pages(), 0);
        assert!(pt.index.is_empty(), "the emptied leaf is released");
        assert_eq!(pt.leaves.spare, [0], "with its slot kept spare");
    }

    #[test]
    fn map_range_consecutive_pfns() {
        let mut pt = PageTable::new();
        pt.map_range(0x40_0000, 4 * PAGE_SIZE, 100, Perm::ReadWrite, MemKind::Nvm);
        for i in 0..4 {
            let pte = pt.walk(0x40_0000 + i * PAGE_SIZE).unwrap();
            assert_eq!(pte.pfn, 100 + i);
            assert_eq!(pte.mem, MemKind::Nvm);
        }
        assert_eq!(pt.mapped_pages(), 4);
        assert_eq!(pt.unmap_range(0x40_0000, 4 * PAGE_SIZE), 4);
    }

    #[test]
    fn sparse_addresses_do_not_collide() {
        let mut pt = PageTable::new();
        // Far-apart addresses in different spans and radix subtrees.
        let vas = [0x0, 0x1000, 0x7fff_ffff_f000, 0x1234_5678_9000u64 & !0xfff];
        for (i, &va) in vas.iter().enumerate() {
            pt.map_page(va, Pte::plain(i as u64));
        }
        for (i, &va) in vas.iter().enumerate() {
            assert_eq!(pt.walk(va).unwrap().pfn, i as u64, "va {va:#x}");
        }
    }

    #[test]
    fn pkey_rewrite_counts_ptes() {
        let mut pt = PageTable::new();
        pt.map_range(0x10_0000, 8 * PAGE_SIZE, 0, Perm::ReadWrite, MemKind::Nvm);
        let written = pt.set_pkey_range(0x10_0000, 8 * PAGE_SIZE, 5);
        assert_eq!(written, 8);
        assert_eq!(pt.walk(0x10_0000).unwrap().pkey, 5);
        assert_eq!(pt.walk(0x10_7000).unwrap().pkey, 5);
        // Unmapped neighbours are not counted.
        let written = pt.set_pkey_range(0x10_0000, 16 * PAGE_SIZE, 6);
        assert_eq!(written, 8);
    }

    #[test]
    fn perm_rewrite() {
        let mut pt = PageTable::new();
        pt.map_range(0x20_0000, 2 * PAGE_SIZE, 0, Perm::ReadWrite, MemKind::Dram);
        assert_eq!(pt.set_perm_range(0x20_0000, 2 * PAGE_SIZE, Perm::ReadOnly), 2);
        assert_eq!(pt.walk(0x20_0000).unwrap().perm, Perm::ReadOnly);
    }

    #[test]
    fn remap_replaces_entry() {
        let mut pt = PageTable::new();
        pt.map_page(0x3000, Pte::plain(1));
        let old = pt.map_page(0x3000, Pte::plain(2));
        assert_eq!(old.map(|p| p.pfn), Some(1));
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.walk(0x3000).unwrap().pfn, 2);
    }

    /// Base of the 1GB region the property ops play in: three 2MB spans
    /// from its start, so ranges cover, straddle and skip whole leaves.
    const REGION: u64 = 0x40_0000_0000;
    const SPAN: u64 = LEAF_PAGES * PAGE_SIZE;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Map(u64, u64),
        Unmap(u64),
        MapRange(u64, u64),
        UnmapRange(u64, u64),
        SetPkey(u64, u64, u8),
        SetPerm(u64, u64, Perm),
    }

    /// A page in the first three spans of the region, biased toward span
    /// edges so whole-leaf and partial ranges meet.
    fn page() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0u64..3, 0u64..4).prop_map(|(s, p)| s * LEAF_PAGES + p),
            (0u64..3, 508u64..512).prop_map(|(s, p)| s * LEAF_PAGES + p),
            0u64..3 * LEAF_PAGES,
        ]
    }

    /// A page-aligned range: a few pages, exactly one span, or two spans
    /// plus a ragged edge (so the range crosses gaps between leaves).
    fn range() -> impl Strategy<Value = (u64, u64)> {
        prop_oneof![
            (page(), 1u64..24).prop_map(|(p, n)| (REGION + p * PAGE_SIZE, n * PAGE_SIZE)),
            (0u64..3).prop_map(|s| (REGION + s * SPAN, SPAN)),
            (page(), 0u64..8).prop_map(|(p, n)| (REGION + p * PAGE_SIZE, 2 * SPAN + n * PAGE_SIZE)),
            (0u64..2, 1u64..3).prop_map(|(s, n)| (REGION + s * SPAN, n * SPAN)),
        ]
    }

    fn perm() -> impl Strategy<Value = Perm> {
        prop_oneof![Just(Perm::None), Just(Perm::ReadOnly), Just(Perm::ReadWrite)]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (page(), 1u64..1000).prop_map(|(p, pfn)| Op::Map(REGION + p * PAGE_SIZE, pfn)),
            2 => page().prop_map(|p| Op::Unmap(REGION + p * PAGE_SIZE)),
            2 => range().prop_map(|(va, len)| Op::MapRange(va, len.min(40 * PAGE_SIZE))),
            2 => range().prop_map(|(va, len)| Op::UnmapRange(va, len)),
            3 => (range(), 1u8..16).prop_map(|((va, len), k)| Op::SetPkey(va, len, k)),
            3 => (range(), perm()).prop_map(|((va, len), p)| Op::SetPerm(va, len, p)),
        ]
    }

    /// Every page in the first three spans, plus the pages just outside.
    fn probes() -> impl Iterator<Item = u64> {
        (0..3 * LEAF_PAGES + 1).map(|p| REGION + p * PAGE_SIZE).chain([REGION - PAGE_SIZE])
    }

    /// The sparse layout's own invariants: every indexed leaf maps a page
    /// and holds one PTE per presence bit, the leaves add up, every slot is
    /// indexed or spare exactly once, and every spare leaf is empty.
    fn check_layout(pt: &PageTable) -> Result<(), TestCaseError> {
        let mut total = 0;
        let mut uses = vec![0; pt.leaves.bodies.len()];
        for (span, &slot) in pt.index.iter() {
            let leaf = &pt.leaves.bodies[slot];
            let bits: u32 = leaf.present.iter().map(|w| w.count_ones()).sum();
            prop_assert!(!leaf.ptes.is_empty(), "span {span:#x}: empty leaf kept");
            prop_assert_eq!(bits as usize, leaf.ptes.len(), "span {:#x}", span);
            total += leaf.ptes.len() as u64;
            uses[slot] += 1;
        }
        for &slot in &pt.leaves.spare {
            let leaf = &pt.leaves.bodies[slot];
            prop_assert!(leaf.present == [0; WORDS] && leaf.ptes.is_empty(), "spare {slot}");
            prop_assert!(leaf.pkey.is_none() && leaf.perm.is_none(), "spare {slot}");
            uses[slot] += 1;
        }
        prop_assert!(uses.iter().all(|&n| n == 1), "slot uses {:?}", uses);
        prop_assert_eq!(total, pt.mapped_pages());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn sparse_table_matches_dense_radix(ops in prop::collection::vec(op(), 1..40)) {
            let mut sparse = PageTable::new();
            let mut dense = DenseTable::new();
            for (step, op) in ops.iter().enumerate() {
                let (got, want) = match *op {
                    Op::Map(va, pfn) => {
                        let pte = Pte { pfn, perm: Perm::ReadWrite, pkey: 0, mem: MemKind::Nvm };
                        (format!("{:?}", sparse.map_page(va, pte)),
                         format!("{:?}", dense.map_page(va, pte)))
                    }
                    Op::Unmap(va) => (format!("{:?}", sparse.unmap_page(va)),
                                      format!("{:?}", dense.unmap_page(va))),
                    Op::MapRange(va, len) => {
                        sparse.map_range(va, len, 7, Perm::ReadOnly, MemKind::Dram);
                        dense.map_range(va, len, 7, Perm::ReadOnly, MemKind::Dram);
                        (String::new(), String::new())
                    }
                    Op::UnmapRange(va, len) => (sparse.unmap_range(va, len).to_string(),
                                                dense.unmap_range(va, len).to_string()),
                    Op::SetPkey(va, len, k) => (sparse.set_pkey_range(va, len, k).to_string(),
                                                dense.set_pkey_range(va, len, k).to_string()),
                    Op::SetPerm(va, len, p) => (sparse.set_perm_range(va, len, p).to_string(),
                                                dense.set_perm_range(va, len, p).to_string()),
                };
                prop_assert_eq!(got, want, "step {} ({:?}): return values differ", step, op);
                prop_assert_eq!(sparse.mapped_pages(), dense.mapped_pages(), "step {}", step);
                for va in probes() {
                    prop_assert_eq!(sparse.walk(va), dense.walk(va), "step {} ({:?}): walk {:#x}",
                                    step, op, va);
                }
                check_layout(&sparse)?;
            }
        }

        /// A used table restored from another with `clone_from` keeps its
        /// extra leaves as spares, yet reads and then behaves exactly like
        /// a clone of the source.
        #[test]
        fn restored_table_behaves_like_a_clone(
            source_ops in prop::collection::vec(op(), 0..24),
            used_ops in prop::collection::vec(op(), 0..40),
            then in prop::collection::vec(op(), 1..24),
        ) {
            let run = |pt: &mut PageTable, ops: &[Op]| {
                for op in ops {
                    match *op {
                        Op::Map(va, pfn) => {
                            pt.map_page(va, Pte { pfn, perm: Perm::ReadWrite, pkey: 0, mem: MemKind::Nvm });
                        }
                        Op::Unmap(va) => drop(pt.unmap_page(va)),
                        Op::MapRange(va, len) => pt.map_range(va, len, 7, Perm::ReadOnly, MemKind::Dram),
                        Op::UnmapRange(va, len) => drop(pt.unmap_range(va, len)),
                        Op::SetPkey(va, len, k) => drop(pt.set_pkey_range(va, len, k)),
                        Op::SetPerm(va, len, p) => drop(pt.set_perm_range(va, len, p)),
                    }
                }
            };
            let mut source = PageTable::new();
            run(&mut source, &source_ops);
            let mut restored = PageTable::new();
            run(&mut restored, &used_ops);
            restored.clone_from(&source);
            let mut clone = source.clone();
            prop_assert_eq!(format!("{restored:?}"), format!("{clone:?}"));
            check_layout(&restored)?;
            run(&mut restored, &then);
            run(&mut clone, &then);
            prop_assert_eq!(format!("{restored:?}"), format!("{clone:?}"));
            prop_assert_eq!(restored.mapped_pages(), clone.mapped_pages());
            for va in probes() {
                prop_assert_eq!(restored.walk(va), clone.walk(va), "walk {:#x}", va);
            }
            check_layout(&restored)?;
        }
    }

    #[test]
    fn override_then_partial_update_and_map() {
        // The cases the property test draws at random, pinned: a
        // whole-leaf override followed by a partial update, by a fresh
        // map_page in the same leaf, and by unmaps.
        let mut sparse = PageTable::new();
        let mut dense = DenseTable::new();
        let pte = |pfn| Pte { pfn, perm: Perm::ReadWrite, pkey: 0, mem: MemKind::Nvm };
        macro_rules! both {
            ($($call:tt)*) => {{
                let (s, d) = (sparse.$($call)*, dense.$($call)*);
                assert_eq!(format!("{s:?}"), format!("{d:?}"), stringify!($($call)*));
                for va in probes() {
                    assert_eq!(sparse.walk(va), dense.walk(va), "{va:#x} after {}",
                               stringify!($($call)*));
                }
            }};
        }
        both!(map_page(REGION, pte(1)));
        both!(map_page(REGION + 5 * PAGE_SIZE, pte(2)));
        both!(set_pkey_range(REGION, SPAN, 9));
        both!(set_pkey_range(REGION + 5 * PAGE_SIZE, PAGE_SIZE, 3));
        both!(set_perm_range(REGION, SPAN, Perm::ReadOnly));
        both!(map_page(REGION + 7 * PAGE_SIZE, pte(3)));
        both!(set_pkey_range(REGION, 3 * SPAN, 4));
        both!(unmap_page(REGION + 5 * PAGE_SIZE));
        both!(unmap_range(REGION, SPAN));
        both!(map_page(REGION + 7 * PAGE_SIZE, pte(4)));
        both!(mapped_pages());
        assert_eq!(sparse.index.len(), 1, "only the re-touched leaf is stored");
    }
}
