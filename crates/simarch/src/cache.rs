//! Set-associative cache models and the two-level hierarchy.

use crate::config::SetAssocGeometry;
use crate::memory::{MainMemory, MemKind};
use crate::replacement::ReplArray;
use crate::stats::CacheStats;

/// A functional (tags-only) set-associative cache.
///
/// Stores no data — the workloads execute functionally on the PMO runtime's
/// storage; the cache exists to produce hit/miss timing and traffic counts,
/// exactly as in a trace-driven simulator.
#[derive(Clone, Debug)]
pub struct Cache {
    name: &'static str,
    line_bytes: u32,
    ways: usize,
    sets: u64,
    /// `sets - 1` when the set count is a power of two (every shipped
    /// geometry); the set index is then a mask instead of a `%`.
    set_mask: u64,
    pow2_sets: bool,
    /// Flat `[set * ways + way]` tag words: the line address
    /// (`va >> line_bits`) in the low 63 bits with the dirty flag packed
    /// into bit 63 ([`DIRTY`]); [`EMPTY_LINE`] marks a free way. Packing
    /// the dirty bit into the tag word (instead of a parallel
    /// `Vec<bool>`) means an access touches one host cache line of
    /// metadata per set, not two.
    tags: Vec<u64>,
    repl: ReplArray,
    stats: CacheStats,
}

/// Dirty flag, packed into the top bit of each tag word.
const DIRTY: u64 = 1 << 63;

/// Free-way marker in the tag lane (dirty bit clear — an empty way is
/// never dirty). A real line address is `va >> 6` at most (58 bits), so
/// it can never collide.
const EMPTY_LINE: u64 = u64::MAX >> 1;

/// Result of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty line that was evicted to make room, if any.
    pub writeback: Option<u64>,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    #[must_use]
    pub fn new(name: &'static str, geometry: SetAssocGeometry, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        let sets = geometry.sets() as usize;
        let ways = geometry.ways as usize;
        Cache {
            name,
            line_bytes,
            ways,
            sets: sets as u64,
            set_mask: (sets as u64).wrapping_sub(1),
            pow2_sets: sets.is_power_of_two(),
            tags: vec![EMPTY_LINE; sets * ways],
            repl: ReplArray::new(ways as u8, sets),
            stats: CacheStats::default(),
        }
    }

    fn line_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    #[inline]
    fn index(&self, line: u64) -> usize {
        if self.pow2_sets {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets) as usize
        }
    }

    /// The way holding `line` within the set starting at `base`, if any.
    /// Scans every way without early exit: the match position is random,
    /// so a short-circuit scan mispredicts its exit branch almost every
    /// access, while the full scan compiles to straight-line selects.
    /// Compares with the dirty bit masked off.
    #[inline]
    fn way_of(&self, base: usize, line: u64) -> Option<usize> {
        let mut found = usize::MAX;
        for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
            if t & !DIRTY == line {
                found = w;
            }
        }
        (found != usize::MAX).then_some(found)
    }

    /// Accesses address `va`; returns hit/miss and any dirty writeback.
    ///
    /// On a miss the line is allocated (write-allocate for stores).
    #[inline]
    pub fn access(&mut self, va: u64, is_write: bool) -> CacheAccess {
        let line = va >> self.line_bits();
        let set = self.index(line);
        let base = set * self.ways;
        if let Some(way) = self.way_of(base, line) {
            self.repl.touch(set, way as u8);
            if is_write {
                self.tags[base + way] |= DIRTY;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            return CacheAccess { hit: true, writeback: None };
        }
        if is_write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let writeback = self.fill(line, is_write);
        CacheAccess { hit: false, writeback }
    }

    /// Installs `line`, returning any dirty victim's line address.
    fn fill(&mut self, line: u64, dirty: bool) -> Option<u64> {
        let set = self.index(line);
        let base = set * self.ways;
        let way = self.way_of(base, EMPTY_LINE).unwrap_or_else(|| self.repl.victim(set) as usize);
        let mut writeback = None;
        let old = self.tags[base + way];
        if old != EMPTY_LINE {
            if old & DIRTY != 0 {
                self.stats.writebacks += 1;
                writeback = Some(old & !DIRTY);
            }
            self.stats.evictions += 1;
        }
        self.tags[base + way] = line | if dirty { DIRTY } else { 0 };
        self.repl.touch(set, way as u8);
        writeback
    }

    /// Writes back `va`'s line if present, returning whether it was dirty.
    /// The line is *retained* (clean) — `clwb` semantics, unlike `clflush`.
    pub fn writeback_line(&mut self, va: u64) -> Option<bool> {
        let line = va >> self.line_bits();
        let base = self.index(line) * self.ways;
        let way = self.way_of(base, line)?;
        let t = &mut self.tags[base + way];
        let was_dirty = *t & DIRTY != 0;
        *t &= !DIRTY;
        Some(was_dirty)
    }

    /// Removes `va`'s line if present, returning whether it was dirty
    /// (`clflush` semantics).
    pub fn flush_line(&mut self, va: u64) -> Option<bool> {
        let line = va >> self.line_bits();
        let base = self.index(line) * self.ways;
        let way = self.way_of(base, line)?;
        let was_dirty = self.tags[base + way] & DIRTY != 0;
        self.tags[base + way] = EMPTY_LINE;
        Some(was_dirty)
    }

    /// Invalidates the whole cache (does not model writeback traffic).
    pub fn flush_all(&mut self) {
        self.tags.fill(EMPTY_LINE);
    }

    /// Settles `reads + writes` batched repeat accesses to a line that is
    /// still resident: the exact equivalent of calling [`Cache::access`]
    /// that many times while the line stays cached (each would be a pure
    /// hit — the hit counters grow, a write marks the line dirty, and the
    /// replacement state is touched; repeat touches of an already-MRU way
    /// are idempotent, so one touch settles the batch).
    ///
    /// The caller must guarantee residency: the line was accessed and no
    /// cache state changed since (no other access, fill, or flush).
    pub fn note_line_hits(&mut self, va: u64, reads: u64, writes: u64) {
        let line = va >> self.line_bits();
        let set = self.index(line);
        let base = set * self.ways;
        let Some(way) = self.way_of(base, line) else {
            debug_assert!(false, "line-hit batch settled against a non-resident line");
            return;
        };
        self.repl.touch(set, way as u8);
        if writes > 0 {
            self.tags[base + way] |= DIRTY;
        }
        self.stats.read_hits += reads;
        self.stats.write_hits += writes;
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The cache's display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Two-level cache hierarchy backed by main memory.
///
/// Access latency: L1 hit → `l1_latency`; L2 hit → `l1 + l2`; miss →
/// `l1 + l2 + memory(kind)`. Dirty L2 victims are counted as memory writes
/// but add no latency to the requesting access (writebacks are
/// asynchronous).
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
    l1_latency: u64,
    l2_latency: u64,
    /// MLP-scaled miss stall per [`MemKind`] (`[Dram, Nvm]`), precomputed
    /// at construction so the miss path adds a constant instead of
    /// dividing and rounding an `f64` per miss.
    scaled_read: [u64; 2],
    memory: MainMemory,
}

impl CacheHierarchy {
    /// Builds the hierarchy from a [`SimConfig`](crate::SimConfig).
    #[must_use]
    pub fn new(config: &crate::SimConfig) -> Self {
        let mlp = config.mem_level_parallelism.max(1.0);
        let scale = |lat: u64| (lat as f64 / mlp).round() as u64;
        CacheHierarchy {
            l1: Cache::new("L1D", config.l1d, config.line_bytes),
            l2: Cache::new("L2", config.l2, config.line_bytes),
            l1_latency: config.l1d_latency,
            l2_latency: config.l2_latency,
            scaled_read: [scale(config.dram_latency), scale(config.nvm_latency)],
            memory: MainMemory::new(config.dram_latency, config.nvm_latency),
        }
    }

    /// Performs an access; returns the latency in cycles. Main-memory
    /// stalls are scaled down by the configured memory-level parallelism
    /// (the OOO core overlaps misses; see `SimConfig::mem_level_parallelism`).
    pub fn access(&mut self, va: u64, kind: MemKind, is_write: bool) -> u64 {
        let mut cycles = self.l1_latency;
        let l1 = self.l1.access(va, is_write);
        if l1.hit {
            return cycles;
        }
        // L1 victims go to L2 (inclusive-ish accounting: writeback traffic
        // only, no latency on this path).
        if let Some(wb) = l1.writeback {
            let _ = self.l2.access(wb << self.l1.line_bits(), true);
        }
        cycles += self.l2_latency;
        let l2 = self.l2.access(va, false);
        if let Some(wb) = l2.writeback {
            self.memory.write(self.classify(wb << self.l2.line_bits()), kind);
        }
        if l2.hit {
            return cycles;
        }
        let _ = self.memory.read(kind); // traffic counter; stall is pre-scaled
        cycles += self.scaled_read[kind as usize];
        cycles
    }

    fn classify(&self, _va: u64) -> MemKind {
        // Writeback destinations are classified by the caller's map in the
        // full simulator; here we only count traffic, and the caller passes
        // the kind of the *requesting* access, which is the common case.
        MemKind::Dram
    }

    /// Flushes one line to memory (`clwb`): writes it back from both
    /// levels — *retaining* the (now clean) line — and performs a memory
    /// write if it was dirty in either. Returns whether any write reached
    /// memory.
    pub fn flush_line(&mut self, va: u64, kind: MemKind) -> bool {
        let d1 = self.l1.writeback_line(va).unwrap_or(false);
        let d2 = self.l2.writeback_line(va).unwrap_or(false);
        if d1 || d2 {
            self.memory.write(kind, kind);
            true
        } else {
            false
        }
    }

    /// The latency [`CacheHierarchy::access`] charges for an L1 hit.
    #[must_use]
    pub fn l1_hit_latency(&self) -> u64 {
        self.l1_latency
    }

    /// The L1 set index a line address (`va >> line_bits`) maps to — the
    /// key of the replayer's per-set line memo, which mirrors L1 geometry
    /// so a fill can only disturb the memo slot it indexes.
    #[must_use]
    pub fn l1_set_of_line(&self, line: u64) -> usize {
        self.l1.index(line)
    }

    /// Number of L1 sets (the line-memo table size).
    #[must_use]
    pub fn l1_sets(&self) -> usize {
        self.l1.sets as usize
    }

    /// Settles batched repeat hits on a still-resident L1 line — see
    /// [`Cache::note_line_hits`] for the exactness contract.
    pub fn note_line_hits(&mut self, va: u64, reads: u64, writes: u64) {
        if reads + writes > 0 {
            self.l1.note_line_hits(va, reads, writes);
        }
    }

    /// L1 statistics.
    #[must_use]
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    /// L2 statistics.
    #[must_use]
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Main-memory model (traffic counters).
    #[must_use]
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

    fn small_cache() -> Cache {
        Cache::new("test", SetAssocGeometry::new(8, 2), 64)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1038, false).hit, "same 64B line");
        assert!(!c.access(0x1040, false).hit, "next line");
        assert_eq!(c.stats().read_hits, 2);
        assert_eq!(c.stats().read_misses, 2);
    }

    #[test]
    fn eviction_and_writeback() {
        let mut c = small_cache(); // 4 sets x 2 ways
                                   // Three lines mapping to the same set (stride = sets * line = 256B).
        c.access(0x0, true); // dirty
        c.access(0x100, false);
        let res = c.access(0x200, false);
        assert!(!res.hit);
        assert_eq!(res.writeback, Some(0)); // line 0 was dirty LRU victim
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 1);
        // Line 0 is gone now.
        assert!(!c.access(0x0, false).hit);
    }

    #[test]
    fn writeback_retains_the_line() {
        // clwb semantics: the line is written back but stays cached.
        let mut c = small_cache();
        c.access(0x40, true);
        assert_eq!(c.writeback_line(0x40), Some(true));
        assert!(c.access(0x40, false).hit, "line still resident after clwb");
        assert_eq!(c.writeback_line(0x40), Some(false), "now clean");
        assert_eq!(c.writeback_line(0x9000), None, "absent line");
    }

    #[test]
    fn flush_line_reports_dirtiness() {
        let mut c = small_cache();
        c.access(0x40, true);
        assert_eq!(c.flush_line(0x40), Some(true));
        assert_eq!(c.flush_line(0x40), None, "already flushed");
        c.access(0x40, false);
        assert_eq!(c.flush_line(0x7f), Some(false), "clean line, same line addr");
    }

    #[test]
    fn flush_all_empties() {
        let mut c = small_cache();
        c.access(0x0, true);
        c.access(0x40, false);
        c.flush_all();
        assert!(!c.access(0x0, false).hit);
        assert!(!c.access(0x40, false).hit);
    }

    #[test]
    fn hierarchy_latencies() {
        let cfg = SimConfig::isca2020();
        let mut h = CacheHierarchy::new(&cfg);
        let effective = |lat: u64| (lat as f64 / cfg.mem_level_parallelism).round() as u64;
        // Cold miss: L1 + L2 + DRAM (MLP-scaled).
        let cold = h.access(0x1000, MemKind::Dram, false);
        assert_eq!(cold, cfg.l1d_latency + cfg.l2_latency + effective(cfg.dram_latency));
        // Now an L1 hit.
        let hit = h.access(0x1000, MemKind::Dram, false);
        assert_eq!(hit, cfg.l1d_latency);
        // NVM cold miss is slower (3x DRAM before and after scaling).
        let nvm = h.access(0x80_0000_0000, MemKind::Nvm, false);
        assert_eq!(nvm, cfg.l1d_latency + cfg.l2_latency + effective(cfg.nvm_latency));
        assert!(nvm > cold);
    }

    #[test]
    fn hierarchy_l2_hit_path() {
        let cfg = SimConfig::isca2020();
        let mut h = CacheHierarchy::new(&cfg);
        h.access(0x1000, MemKind::Dram, false);
        // Evict from L1 by filling its set: L1 is 512 entries / 8 ways = 64
        // sets, so addresses 0x1000 + k * (64 * 64) map to one set.
        for k in 1..=8 {
            h.access(0x1000 + k * 64 * 64, MemKind::Dram, false);
        }
        let lat = h.access(0x1000, MemKind::Dram, false);
        assert_eq!(lat, cfg.l1d_latency + cfg.l2_latency, "should hit in L2");
    }

    #[test]
    fn clwb_writes_memory_once() {
        let cfg = SimConfig::isca2020();
        let mut h = CacheHierarchy::new(&cfg);
        h.access(0x2000, MemKind::Nvm, true);
        let before = h.memory().nvm_writes();
        assert!(h.flush_line(0x2000, MemKind::Nvm));
        assert_eq!(h.memory().nvm_writes(), before + 1);
        assert!(!h.flush_line(0x2000, MemKind::Nvm), "second flush is a no-op");
    }
}
