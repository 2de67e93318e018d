//! The trace-replay engine: protection-scheme lanes over one memory
//! hierarchy, driven by a stream of trace events.
//!
//! A replay holds the scheme-independent memory side once — the cache
//! hierarchy, the line memo, the compute, fence and `clwb` cycles, the
//! event counts and the op count — and one *lane* per protection scheme:
//! the scheme (which owns its TLBs, page table and cycle ledger), its
//! fast-path entry, its permission-summary table and its fault log.
//! [`Replay::new`] is the one-lane case. [`Replay::with_lanes`] replays
//! one stream under several schemes at once (the paper's one-trace,
//! many-configurations methodology); each lane reports exactly what a
//! one-lane replay of its scheme would.
//!
//! Sharing the hierarchy is exact only while every lane lets the same
//! accesses through to the same memory, since the hierarchy sees exactly
//! the allowed accesses, in order. A permission-clean stream — every
//! access allowed under every scheme, as every campaign workload is by
//! construction — drives it identically under all of them. Where two
//! lanes disagree, [`Replay::finish_lanes`] returns a [`LaneDivergence`]
//! naming the first such access instead of an inexact report.
//!
//! The engine dispatches to each scheme through the closed [`AnyScheme`]
//! enum (no vtable on the hot path) and memoizes consecutive same-page
//! accesses per lane through a one-entry [`FastHint`] cache. A scheme's
//! `access` returns the page's warm verdict beside its result — the
//! verdict its one permission check just reached, as an immediate repeat
//! would see it — so repeated hits skip the TLB/DTT/PT machinery while
//! charging exactly the modeled cycles the slow path would, and the two
//! paths cannot disagree. A conflicting attach is refused by every lane
//! alike and logged as a fault. The fast path memoizes the *simulator's*
//! work, never the *simulated* costs.

use std::{error::Error, fmt, io};

use pmo_protect::{AnyScheme, FastHint, ProtectionFault, ProtectionScheme, SchemeKind};
use pmo_simarch::{vpn, CacheHierarchy, MemKind, SimConfig};
use pmo_trace::{
    block::{tag, DEFAULT_BLOCK_EVENTS},
    AccessKind, BlockReader, BlockTrace, EventBlock, EventCounts, OpKind, ThreadId, TraceEvent,
    TraceSink, TraceSource,
};

use crate::report::{ReplayReport, ReplaySnapshot};

/// Maximum number of individual faults retained in a lane's report;
/// faults beyond the cap are counted in [`ReplayReport::faults_dropped`].
const FAULT_LOG_CAP: usize = 32;

/// Sentinel for [`LineMemo::line`] marking an empty memo slot.
const NO_LINE: u64 = u64::MAX;

/// `log2` of the slots in each lane's direct-mapped permission-summary
/// table. Every SetPerm empties the table, so a generation rarely holds
/// more than a few dozen pages: on the benchmark's `replay` and `table6`
/// workloads 128 slots serve exactly the summary hits 512 did, at a
/// quarter of the memory per lane.
const SUMMARY_BITS: u32 = 7;
const SUMMARY_SLOTS: usize = 1 << SUMMARY_BITS;

/// One row of a lane's permission-summary table: the memoized
/// [`FastHint`] for a page of the current thread, valid only while `gen`
/// matches the replay's current summary generation. Rows carry no thread:
/// every ThreadSwitch bumps the generation, so a live row was filled by
/// the thread now running.
///
/// The table outlives the one-entry [`FastEntry`] memo: where the fast
/// entry dies on every page change, a summary row survives until either a
/// scheme-mutating event (SetPerm/Attach/Detach/ThreadSwitch/Shootdown)
/// bumps the generation, wholesale-invalidating the table, or the row is
/// displaced by another page hashing to the same slot. A row may also go
/// stale because the page's L1 TLB entry was evicted by intervening
/// traffic — that is caught per-hit by `fast_revalidate`, which re-checks
/// L1 residency (and PTLB residency under domain virtualization) before
/// the memoized verdict is served.
#[derive(Clone, Copy)]
struct SummarySlot {
    page: u64,
    hint: FastHint,
    gen: u64,
}

/// The armed fast-path entry: a memoized verdict for one page, plus the
/// accounting (hits served, hits denied) still owed to the scheme.
struct FastEntry {
    page: u64,
    hint: FastHint,
    hits: u64,
    denied: u64,
}

/// One slot of the replay-level line memo, a direct-mapped table that
/// mirrors L1 geometry (one slot per L1 set): `line` is the last line
/// accessed in that set, with `reads`/`writes` repeat hits batched and
/// still owed to the L1 stats. Memoized same-line accesses skip the cache
/// walk entirely and charge the (constant) L1 hit latency.
///
/// ## Exactness
///
/// The memoized line is guaranteed L1-resident: a slot is (re)armed only
/// immediately after an access to its line — which leaves the line filled
/// and MRU — and every later access that could disturb its set indexes
/// the *same* slot, so it either batches onto the memo (touching no cache
/// state) or misses the memo and settles the slot's pending hits *before*
/// performing the fill (there is no L2→L1 back-invalidation in this
/// model, so accesses to other sets can never displace the line, and
/// `clwb` retains lines). Settlement order is exact per set — one line's
/// idempotent Tree-PLRU touches collapse to one — and sets don't share
/// replacement or dirty state, so cross-set settle order is free.
#[derive(Clone, Copy)]
struct LineMemo {
    line: u64,
    reads: u64,
    writes: u64,
}

impl LineMemo {
    const EMPTY: LineMemo = LineMemo { line: NO_LINE, reads: 0, writes: 0 };
}

/// The summary-table slot of `(thread, page)`. Fibonacci hashing over the
/// page number mixed with the thread: PMO bases are GB-aligned, so low
/// page bits alone collide badly.
#[inline]
fn summary_index(page: u64, thread: ThreadId) -> usize {
    let key = page ^ (u64::from(thread.raw()) << 52);
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SUMMARY_BITS)) as usize
}

/// What one lane did with an access: `Some(mem)` if it let the access
/// through to memory of kind `mem`, `None` if it denied it.
type Verdict = Option<MemKind>;

/// One scheme's lane: the scheme and everything the replay keeps per
/// scheme on top of the shared memory side.
struct Lane {
    /// The scheme, whose ledger holds every cycle the lane adds.
    scheme: AnyScheme,
    faults: Vec<ProtectionFault>,
    faults_dropped: u64,
    fast: Option<FastEntry>,
    fast_hits: u64,
    /// Direct-mapped page → [`FastHint`] summaries; rows are valid while
    /// their `gen` matches [`Replay::summary_gen`].
    summary: Vec<Option<SummarySlot>>,
    summary_hits: u64,
}

impl Lane {
    fn new(kind: SchemeKind, config: &SimConfig) -> Self {
        Lane {
            scheme: kind.build_any(config),
            faults: Vec::new(),
            faults_dropped: 0,
            fast: None,
            fast_hits: 0,
            summary: vec![None; SUMMARY_SLOTS],
            summary_hits: 0,
        }
    }

    /// Settles the batched scheme-side fast-path accounting (the hits,
    /// denials and cycles owed to the scheme's counters and ledger) and
    /// disarms the entry. Must run before any scheme-state mutation and
    /// before reading scheme counters or cycles. The line memo is
    /// independent — cache residency does not change when a verdict does —
    /// and stays armed.
    fn flush_fast(&mut self) {
        if let Some(entry) = self.fast.take() {
            if entry.hits > 0 {
                self.scheme.note_fast_hits(&entry.hint, entry.hits, entry.denied);
            }
        }
    }

    fn record_fault(&mut self, fault: ProtectionFault) {
        if self.faults.len() < FAULT_LOG_CAP {
            self.faults.push(fault);
        } else {
            self.faults_dropped += 1;
        }
    }

    /// Checks and times one access under this lane's scheme: from the
    /// armed fast entry if it covers the page, else from a still-valid
    /// summary row, else through the scheme walk (re-arming the entry
    /// with the warm verdict the walk returns).
    #[inline]
    fn access(
        &mut self,
        va: u64,
        kind: AccessKind,
        thread: ThreadId,
        gen: u64,
        fast_enabled: bool,
    ) -> Verdict {
        let page = vpn(va);
        if let Some(entry) = &mut self.fast {
            if entry.page == page {
                let hint = entry.hint;
                entry.hits += 1;
                self.fast_hits += 1;
                if hint.effective.allows(kind) {
                    return Some(hint.mem);
                }
                entry.denied += 1;
                self.record_fault(hint.fault(va, kind));
                return None;
            }
        }
        self.flush_fast();
        let slot = summary_index(page, thread);
        if fast_enabled {
            if let Some(row) = self.summary[slot].filter(|r| r.gen == gen && r.page == page) {
                // The row's verdict is only as good as the structures it
                // summarizes: re-check (and touch, as the memoized hit
                // would) L1 TLB residency — plus PTLB residency under
                // domain virtualization — before serving it.
                if self.scheme.fast_revalidate(va) {
                    let hint = row.hint;
                    self.summary_hits += 1;
                    self.fast_hits += 1;
                    let allowed = hint.effective.allows(kind);
                    if !allowed {
                        self.record_fault(hint.fault(va, kind));
                    }
                    // Re-arm with this access's scheme-side accounting
                    // (one L1 TLB hit and its cycles, one fault if denied)
                    // still owed: `hits: 1` settles it at the next flush.
                    self.fast =
                        Some(FastEntry { page, hint, hits: 1, denied: u64::from(!allowed) });
                    return allowed.then_some(hint.mem);
                }
            }
        }
        let result = self.scheme.access(va, kind);
        if fast_enabled {
            self.fast = result.warm.map(|hint| {
                self.summary[slot] = Some(SummarySlot { page, hint, gen });
                FastEntry { page, hint, hits: 0, denied: 0 }
            });
        }
        match result.fault {
            None => Some(result.mem),
            Some(fault) => {
                self.record_fault(fault);
                None
            }
        }
    }
}

/// Why a multi-lane replay has no exact report: two lanes disagreed on an
/// access, so no single memory hierarchy could serve both. Returned by
/// [`Replay::finish_lanes`] for the first such access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneDivergence {
    /// Position of the access in the replayed stream (0-based, counting
    /// every event).
    pub event: u64,
    /// The accessed address.
    pub va: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// The first lane's scheme and verdict: `Some(mem)` if it let the
    /// access through to `mem`, `None` if it denied it.
    pub first: (SchemeKind, Option<MemKind>),
    /// The first lane that disagreed with it, and its verdict.
    pub other: (SchemeKind, Option<MemKind>),
}

impl fmt::Display for LaneDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = |v: Option<MemKind>| match v {
            Some(MemKind::Dram) => "allowed (DRAM)",
            Some(MemKind::Nvm) => "allowed (NVM)",
            None => "denied",
        };
        write!(
            f,
            "event {}: {} at {:#x} is {} under {} but {} under {}; lanes that disagree on an \
             access cannot share one memory hierarchy",
            self.event,
            if self.kind.is_write() { "store" } else { "load" },
            self.va,
            verdict(self.first.1),
            self.first.0,
            verdict(self.other.1),
            self.other.0,
        )
    }
}

impl Error for LaneDivergence {}

/// A replay in progress. Implements [`TraceSink`], so workload generators
/// can stream events straight into it; call [`Replay::finish`] (one lane)
/// or [`Replay::finish_lanes`] for the reports.
///
/// With the fast path on (the default), every event is simulated inside
/// an [`EventBlock`] by the batched engine of [`Replay::replay_block`],
/// which serves a same-page run once for all lanes. Streamed events are
/// buffered into one reusable block of [`DEFAULT_BLOCK_EVENTS`] events,
/// which runs when it fills. Buffered events must be simulated before
/// anything reads the simulator or feeds it another way, so every such
/// method flushes the partial block first: the readers
/// ([`Replay::cycles`], the hit counters, the snapshots, the finishes and
/// [`Replay::drain_protocol_events`]), [`Replay::set_fast_path`] and the
/// explicit block entry points. Where the blocks are cut never changes a
/// report.
///
/// Walk mode (fast path off) is the reference the engine is checked
/// against, so it shares neither the buffer nor the block loop: it
/// simulates each streamed event as it arrives.
///
/// # Example
///
/// ```
/// use pmo_protect::SchemeKind;
/// use pmo_sim::Replay;
/// use pmo_simarch::SimConfig;
/// use pmo_trace::{Perm, PmoId, TraceEvent, TraceSink};
///
/// let config = SimConfig::isca2020();
/// let mut replay = Replay::new(SchemeKind::DomainVirt, &config);
/// let base = 0x40_0000_0000;
/// replay.event(TraceEvent::Attach { pmo: PmoId::new(1), base, size: 1 << 20, nvm: true });
/// replay.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
/// replay.store(base, 8);
/// let report = replay.finish();
/// assert!(report.cycles > 0);
/// assert!(!report.faulted());
///
/// // The same stream under two schemes at once: one memory hierarchy,
/// // one lane per scheme.
/// let kinds = [SchemeKind::Lowerbound, SchemeKind::DomainVirt];
/// let mut replay = Replay::with_lanes(&kinds, &config);
/// replay.event(TraceEvent::Attach { pmo: PmoId::new(1), base, size: 1 << 20, nvm: true });
/// replay.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
/// replay.store(base, 8);
/// let reports = replay.finish_lanes().expect("both lanes allow the store");
/// assert_eq!(reports[1].cycles, report.cycles);
/// ```
pub struct Replay {
    cfg: SimConfig,
    caches: CacheHierarchy,
    /// Cycles every lane shares: compute, cache and memory latency,
    /// fences and `clwb`s. A lane's total adds its scheme's ledger total.
    cycles: u64,
    cpi_carry: f64,
    counts: EventCounts,
    ops: u64,
    fast_enabled: bool,
    /// Per-L1-set line memo (see [`LineMemo`]); indexed by the L1 set of
    /// the accessed line.
    lines: Vec<LineMemo>,
    /// The generation every lane's summary rows must carry to be live.
    summary_gen: u64,
    current_thread: ThreadId,
    /// `log2(line_bytes)` and the L1 hit latency, copied out of the
    /// config so the hot path doesn't chase through the hierarchy.
    line_shift: u32,
    l1_hit_cycles: u64,
    lanes: Vec<Lane>,
    divergence: Option<LaneDivergence>,
    /// Streamed events not yet simulated: the next block.
    pending: EventBlock,
}

impl Replay {
    /// Creates a replay for one scheme.
    #[must_use]
    pub fn new(kind: SchemeKind, config: &SimConfig) -> Self {
        Self::with_lanes(&[kind], config)
    }

    /// Creates a replay with one lane per scheme in `kinds`, all over one
    /// memory hierarchy. Reports come back in `kinds` order from
    /// [`Replay::finish_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty.
    #[must_use]
    pub fn with_lanes(kinds: &[SchemeKind], config: &SimConfig) -> Self {
        assert!(!kinds.is_empty(), "a replay needs at least one scheme lane");
        let caches = CacheHierarchy::new(config);
        let lines = vec![LineMemo::EMPTY; caches.l1_sets()];
        Replay {
            cfg: config.clone(),
            caches,
            cycles: 0,
            cpi_carry: 0.0,
            counts: EventCounts::default(),
            ops: 0,
            fast_enabled: true,
            lines,
            summary_gen: 1,
            current_thread: ThreadId::MAIN,
            line_shift: config.line_bytes.trailing_zeros(),
            l1_hit_cycles: config.l1d_latency,
            lanes: kinds.iter().map(|kind| Lane::new(*kind, config)).collect(),
            divergence: None,
            pending: EventBlock::with_capacity(DEFAULT_BLOCK_EVENTS),
        }
    }

    /// Simulates the buffered events as one block and empties the buffer,
    /// keeping its allocation.
    fn flush(&mut self) {
        if !self.pending.is_empty() {
            let block = std::mem::take(&mut self.pending);
            self.run_block(&block);
            self.pending = block;
            self.pending.clear();
        }
    }

    /// Events streamed in and not yet simulated. It reads zero right after
    /// a full block has run, so a sink can act between blocks without
    /// forcing a partial one through; reading it flushes nothing.
    #[must_use]
    pub fn buffered_events(&self) -> usize {
        self.pending.len()
    }

    /// Enables or disables the same-page fast path (on by default). The
    /// modeled results are identical either way — this exists so the
    /// equivalence can be asserted and the speedup measured. With it off
    /// (walk mode), streamed events bypass the buffer and the block engine.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.flush();
        if !enabled {
            self.lanes.iter_mut().for_each(Lane::flush_fast);
            self.settle_lines();
            // Walk-mode accesses mutate the caches behind the memo's back,
            // so residency can no longer be assumed if it is re-enabled.
            self.lines.fill(LineMemo::EMPTY);
        }
        self.fast_enabled = enabled;
    }

    /// Accesses served by the memoized fast path so far, summed over
    /// lanes (observability for benchmarks and invalidation tests; not
    /// part of the report). Flushes the buffered events first.
    #[must_use]
    pub fn fast_path_hits(&mut self) -> u64 {
        self.flush();
        self.lanes.iter().map(|lane| lane.fast_hits).sum()
    }

    /// Page-change accesses whose walk was skipped because a still-valid
    /// permission-summary row re-armed the fast entry, summed over lanes
    /// (observability; not part of the report). Flushes the buffered
    /// events first.
    #[must_use]
    pub fn summary_hits(&mut self) -> u64 {
        self.flush();
        self.lanes.iter().map(|lane| lane.summary_hits).sum()
    }

    /// Cycles simulated so far in the first lane. Flushes the buffered
    /// events first.
    #[must_use]
    pub fn cycles(&mut self) -> u64 {
        self.flush();
        let lane = &mut self.lanes[0];
        lane.flush_fast();
        self.cycles + lane.scheme.breakdown().total()
    }

    /// Drains protocol-level events the schemes emitted internally since
    /// the last drain (ranged shootdowns on the key-eviction path), lane
    /// by lane, so audit sinks can fold them into the analyzed stream.
    /// Flushes the buffered events first, so draining after every event
    /// simulates one-event blocks; a sink that drains only while
    /// [`Replay::buffered_events`] is zero keeps the full blocks.
    pub fn drain_protocol_events(&mut self) -> Vec<TraceEvent> {
        self.flush();
        let mut events = Vec::new();
        for lane in &mut self.lanes {
            lane.scheme.drain_events_into(&mut events);
        }
        events
    }

    fn charge_compute(&mut self, instructions: u32) {
        let exact = f64::from(instructions) * self.cfg.base_cpi + self.cpi_carry;
        let whole = exact.floor();
        self.cpi_carry = exact - whole;
        self.cycles += whole as u64;
    }

    /// Settles one memo slot's batched L1 hits, keeping it armed. Sets are
    /// independent (own replacement node, own ways), so settling one slot
    /// never affects another's exactness.
    #[inline]
    fn settle_line_slot(&mut self, set: usize) {
        let m = self.lines[set];
        if m.line != NO_LINE && m.reads + m.writes > 0 {
            self.caches.note_line_hits(m.line << self.line_shift, m.reads, m.writes);
            self.lines[set].reads = 0;
            self.lines[set].writes = 0;
        }
    }

    /// Settles the whole line memo's batched L1 hits, keeping the slots
    /// armed. Must run before the cache counters are read (the final
    /// report) or the memo is torn down.
    fn settle_lines(&mut self) {
        for set in 0..self.lines.len() {
            self.settle_line_slot(set);
        }
    }

    /// Charges one *allowed* data access against the cache hierarchy,
    /// serving it from the line memo when the line is known L1-resident.
    #[inline]
    fn charge_data_access(&mut self, va: u64, mem: MemKind, kind: AccessKind) {
        let is_write = kind.is_write();
        if !self.fast_enabled {
            self.cycles += self.caches.access(va, mem, is_write);
            return;
        }
        let line = va >> self.line_shift;
        let set = self.caches.l1_set_of_line(line);
        let m = &mut self.lines[set];
        if m.line == line {
            if is_write {
                m.writes += 1;
            } else {
                m.reads += 1;
            }
            self.cycles += self.l1_hit_cycles;
            return;
        }
        // New line in this set: land the slot's deferred touches first (so
        // a fill's victim choice sees the true recency, and a pending
        // dirty bit lands before any eviction writes the line back), then
        // access, then re-arm the slot with this line — which the access
        // just left resident and MRU.
        self.settle_line_slot(set);
        self.cycles += self.caches.access(va, mem, is_write);
        self.lines[set] = LineMemo { line, reads: 0, writes: 0 };
    }

    /// One `clwb`: issue cost only; the drain is asynchronous. PMO flushes
    /// target NVM lines. Touches only the caches, so the fast entries stay
    /// armed — but if the flushed line is memoized, its batched hits (a
    /// pending dirty bit in particular) must land before the writeback;
    /// `clwb` *retains* the line, so the memo itself stays valid. Pending
    /// hits on *other* lines don't interact with the writeback (different
    /// dirty bits, and the writeback does not touch replacement state).
    fn flush_line(&mut self, va: u64) {
        let line = va >> self.line_shift;
        let set = self.caches.l1_set_of_line(line);
        if self.lines[set].line == line {
            self.settle_line_slot(set);
        }
        self.cycles += self.cfg.clwb_cycles;
        self.caches.flush_line(va, MemKind::Nvm);
    }

    /// Checks one access in every lane, then charges the shared hierarchy
    /// once with the first lane's verdict. `event` is the access's
    /// position in the stream, for the divergence report.
    #[inline]
    fn memory_access(&mut self, va: u64, size: u8, kind: AccessKind, event: u64) {
        debug_assert!(size > 0 && size <= 64, "access size {size} out of range");
        let (thread, gen, fast) = (self.current_thread, self.summary_gen, self.fast_enabled);
        let (first, rest) = self.lanes.split_first_mut().expect("a replay has a lane");
        let verdict = first.access(va, kind, thread, gen, fast);
        for lane in rest {
            let other = lane.access(va, kind, thread, gen, fast);
            if other != verdict && self.divergence.is_none() {
                self.divergence = Some(LaneDivergence {
                    event,
                    va,
                    kind,
                    first: (first.scheme.kind(), verdict),
                    other: (lane.scheme.kind(), other),
                });
            }
        }
        if let Some(mem) = verdict {
            self.charge_data_access(va, mem, kind);
        }
    }

    /// Settles every lane's batched fast-path accounting, then runs `op`
    /// on each lane's scheme (which charges its own ledger), logging the
    /// fault it refuses with (a conflicting attach). Scheme-mutating
    /// events go through here: they invalidate every summary row (see
    /// [`SummarySlot`]) along with the fast entries.
    fn mutate_schemes(
        &mut self,
        mut op: impl FnMut(&mut AnyScheme) -> Result<u64, ProtectionFault>,
    ) {
        self.summary_gen += 1;
        for lane in &mut self.lanes {
            lane.flush_fast();
            if let Err(fault) = op(&mut lane.scheme) {
                lane.record_fault(fault);
            }
        }
    }

    /// Captures every lane's cumulative state at a phase boundary, in lane
    /// order, so each report can later be windowed to just the measured
    /// phase (e.g. excluding population) via [`ReplayReport::since`].
    /// Flushes the buffered events first.
    #[must_use]
    pub fn snapshot_lanes(&mut self) -> Vec<ReplaySnapshot> {
        self.flush();
        let (cycles, set_perms, ops) = (self.cycles, self.counts.set_perms, self.ops);
        self.lanes
            .iter_mut()
            .map(|lane| {
                lane.flush_fast();
                let breakdown = lane.scheme.breakdown();
                ReplaySnapshot { cycles: cycles + breakdown.total(), breakdown, set_perms, ops }
            })
            .collect()
    }

    /// [`Replay::snapshot_lanes`] for the first (in a one-lane replay,
    /// the only) lane.
    #[must_use]
    pub fn snapshot(&mut self) -> ReplaySnapshot {
        self.snapshot_lanes()[0]
    }

    /// Consumes a one-lane replay, producing its report.
    ///
    /// # Panics
    ///
    /// Panics if the replay has more than one lane: use
    /// [`Replay::finish_lanes`], which reports a divergence.
    #[must_use]
    pub fn finish(self) -> ReplayReport {
        assert_eq!(self.lanes.len(), 1, "finish() is for one lane; use finish_lanes()");
        let mut reports = self.finish_lanes().expect("a single lane cannot diverge");
        reports.swap_remove(0)
    }

    /// Consumes the replay, producing one report per lane in lane order.
    /// Every lane reports the shared cache and NVM statistics, and
    /// `cycles` = the shared memory-side cycles + its scheme's ledger
    /// total.
    ///
    /// # Errors
    ///
    /// Returns the first [`LaneDivergence`] if two lanes disagreed on an
    /// access: the shared hierarchy then matches at most one of them.
    pub fn finish_lanes(mut self) -> Result<Vec<ReplayReport>, LaneDivergence> {
        self.flush();
        if let Some(divergence) = self.divergence {
            return Err(divergence);
        }
        self.settle_lines();
        let (l1d, l2) = (*self.caches.l1_stats(), *self.caches.l2_stats());
        let memory = self.caches.memory();
        let (nvm_reads, nvm_writes) = (memory.nvm_reads(), memory.nvm_writes());
        let (cycles, counts, ops) = (self.cycles, self.counts, self.ops);
        Ok(self
            .lanes
            .into_iter()
            .map(|mut lane| {
                lane.flush_fast();
                let breakdown = lane.scheme.breakdown();
                ReplayReport {
                    scheme: lane.scheme.kind(),
                    cycles: cycles + breakdown.total(),
                    instructions: counts.instructions(),
                    counts: counts.clone(),
                    breakdown,
                    scheme_stats: lane.scheme.stats(),
                    tlb: lane.scheme.tlb_stats(),
                    l1d,
                    l2,
                    nvm_reads,
                    nvm_writes,
                    faults: lane.faults,
                    faults_dropped: lane.faults_dropped,
                    ops,
                    wall_nanos: 0,
                }
            })
            .collect())
    }
}

impl Replay {
    /// Applies one event's simulation effects; `pos` is its position in
    /// the stream. Event counting is the caller's job: walk mode observes
    /// events one by one, the block engine merges whole-block counts up
    /// front.
    fn handle(&mut self, ev: TraceEvent, pos: u64) {
        match ev {
            TraceEvent::Compute { count } => self.charge_compute(count),
            TraceEvent::Load { va, size } => self.memory_access(va, size, AccessKind::Read, pos),
            TraceEvent::Store { va, size } => self.memory_access(va, size, AccessKind::Write, pos),
            // Valued stores cost exactly what plain stores cost; the data
            // payload only matters to persistency-model analyses.
            TraceEvent::StoreData { va, size, .. } => {
                self.memory_access(va, size, AccessKind::Write, pos);
            }
            TraceEvent::SetPerm { pmo, perm } => {
                self.mutate_schemes(|s| Ok(s.set_perm(pmo, perm)));
            }
            TraceEvent::Attach { pmo, base, size, nvm } => {
                self.mutate_schemes(|s| s.attach(pmo, base, size, nvm));
            }
            TraceEvent::Detach { pmo } => self.mutate_schemes(|s| Ok(s.detach(pmo))),
            TraceEvent::ThreadSwitch { thread } => {
                self.current_thread = thread;
                self.mutate_schemes(|s| Ok(s.context_switch(thread)));
            }
            TraceEvent::Flush { va } => self.flush_line(va),
            TraceEvent::Fence => {
                self.cycles += self.cfg.fence_cycles;
            }
            TraceEvent::Op { kind: OpKind::End } => self.ops += 1,
            TraceEvent::Op { kind: OpKind::Begin } => {}
            // Injected-fault markers carry no timing cost; they exist so
            // fault-injection campaigns can replay the exact crash point.
            TraceEvent::Fault { .. } => {}
            // Shootdown completion markers are free: each scheme already
            // charges its shootdown IPIs inside the detach/evict cost
            // model. Conservatively drop the memoized verdicts anyway.
            TraceEvent::Shootdown { .. } => self.mutate_schemes(|_| Ok(0)),
        }
    }

    /// The window the lanes' armed fast entries can serve together, right
    /// after an access: the page every lane is armed on, the memory it
    /// reaches, and whether every lane allows reads and writes to it.
    /// `None` unless every lane is armed. An armed entry always covers
    /// the page just accessed, and lanes that reach different memory have
    /// already diverged, so the first lane's page and memory speak for all.
    #[inline]
    fn armed_window(&self) -> Option<(u64, MemKind, bool, bool)> {
        let (mut reads, mut writes) = (true, true);
        for lane in &self.lanes {
            let effective = lane.fast.as_ref()?.hint.effective;
            reads &= effective.allows(AccessKind::Read);
            writes &= effective.allows(AccessKind::Write);
        }
        let entry = self.lanes[0].fast.as_ref()?;
        Some((entry.page, entry.hint.mem, reads, writes))
    }

    /// Replays one decoded event block through the batched engine, after
    /// the buffered events (so the stream keeps its order).
    pub fn replay_block(&mut self, block: &EventBlock) {
        self.flush();
        self.run_block(block);
    }

    /// The batched engine: simulates one block.
    ///
    /// Counts are merged per block instead of per event, and runs of
    /// same-page accesses every lane allows — interleaved with any
    /// scheme-neutral events (computes, fences, op/fault markers, clwbs) —
    /// are charged to the shared hierarchy in one pass over the
    /// struct-of-arrays lanes and settled into every lane's armed fast
    /// entry as `run` owed hits at the end of the window.
    /// Denied accesses and page/line changes never batch — they fall back
    /// to the per-event path, so fault logging (including the
    /// [`FAULT_LOG_CAP`] truncation discipline) and divergence detection
    /// are byte-identical to the walk.
    fn run_block(&mut self, block: &EventBlock) {
        let base = self.counts.events;
        self.counts.merge(block.counts());
        let tags = block.tags();
        let vas = block.va();
        let sizes = block.size();
        let n = block.len();
        let mut i = 0;
        while i < n {
            let t = tags[i];
            match t {
                tag::LOAD | tag::STORE | tag::STORE_DATA => {
                    let kind = if t == tag::LOAD { AccessKind::Read } else { AccessKind::Write };
                    self.memory_access(vas[i], sizes[i], kind, base + i as u64);
                    i += 1;
                    // Window settlement: while the following accesses stay
                    // on the armed page and every lane allows them, serve
                    // them from the armed hints + line memo without
                    // re-entering the per-event path (the one-entry
                    // same-page fast path, inlined). Events that touch
                    // neither scheme nor summary state (computes, fences,
                    // op markers, fault markers, clwbs) are absorbed inline
                    // so they don't break the window — the armed hints
                    // stay valid across them by construction.
                    let Some((page, mem, reads, writes)) = self.armed_window() else { continue };
                    let mut run = 0u64;
                    'window: while i < n {
                        let is_write = match tags[i] {
                            tag::LOAD => false,
                            tag::STORE | tag::STORE_DATA => true,
                            tag::COMPUTE => {
                                // Compute count rides in the VA lane.
                                self.charge_compute(vas[i] as u32);
                                i += 1;
                                continue 'window;
                            }
                            tag::FENCE => {
                                self.cycles += self.cfg.fence_cycles;
                                i += 1;
                                continue 'window;
                            }
                            tag::OP => {
                                // Size lane is 1 for End, 0 for Begin.
                                self.ops += u64::from(sizes[i]);
                                i += 1;
                                continue 'window;
                            }
                            tag::FAULT => {
                                i += 1;
                                continue 'window;
                            }
                            tag::FLUSH => {
                                self.flush_line(vas[i]);
                                i += 1;
                                continue 'window;
                            }
                            _ => break 'window,
                        };
                        let va = vas[i];
                        if vpn(va) != page || !(if is_write { writes } else { reads }) {
                            break;
                        }
                        debug_assert!(
                            sizes[i] > 0 && sizes[i] <= 64,
                            "access size {} out of range",
                            sizes[i]
                        );
                        let k = if is_write { AccessKind::Write } else { AccessKind::Read };
                        self.charge_data_access(va, mem, k);
                        run += 1;
                        i += 1;
                    }
                    if run > 0 {
                        for lane in &mut self.lanes {
                            let entry = lane.fast.as_mut().expect("window lanes are armed");
                            entry.hits += run;
                            lane.fast_hits += run;
                        }
                    }
                }
                _ => {
                    self.handle(block.event(i), base + i as u64);
                    i += 1;
                }
            }
        }
    }

    /// Replays a decoded block trace through the batched engine, after the
    /// buffered events.
    pub fn replay_blocks(&mut self, trace: &BlockTrace) {
        self.flush();
        for block in trace.blocks() {
            self.run_block(block);
        }
    }

    /// Replays an encoded block-trace image zero-copy, after the buffered
    /// events: lanes are borrowed straight from `bytes` and decoded
    /// block-at-a-time into one scratch [`EventBlock`] that is reused
    /// across the whole trace.
    ///
    /// # Errors
    ///
    /// Fails if the image's header, framing, or any record is invalid
    /// (see [`pmo_trace::LaneView::read_into`]); blocks before the invalid
    /// one have been replayed.
    pub fn replay_encoded(&mut self, bytes: &[u8]) -> io::Result<()> {
        let reader = BlockReader::new(bytes)?;
        self.flush();
        let mut scratch = EventBlock::with_capacity(reader.block_events());
        for lanes in reader.blocks() {
            lanes.read_into(&mut scratch)?;
            self.run_block(&scratch);
        }
        Ok(())
    }
}

impl TraceSink for Replay {
    /// Buffers the event into the next block, which runs when it fills or
    /// at the next flush point; in walk mode, simulates it at once.
    fn event(&mut self, ev: TraceEvent) {
        if self.fast_enabled {
            self.pending.push(&ev);
            if self.pending.len() == DEFAULT_BLOCK_EVENTS as usize {
                self.flush();
            }
        } else {
            let pos = self.counts.events;
            self.counts.observe(&ev);
            self.handle(ev, pos);
        }
    }
}

/// Replays a recorded trace under one scheme.
#[must_use]
pub fn replay_source(
    source: &dyn TraceSource,
    kind: SchemeKind,
    config: &SimConfig,
) -> ReplayReport {
    let mut replay = Replay::new(kind, config);
    source.replay(&mut replay);
    replay.finish()
}

/// Replays a block trace under one scheme through the batched engine.
/// Produces a report byte-identical to [`replay_source`] over the same
/// events.
#[must_use]
pub fn replay_block_trace(
    trace: &BlockTrace,
    kind: SchemeKind,
    config: &SimConfig,
) -> ReplayReport {
    let mut replay = Replay::new(kind, config);
    replay.replay_blocks(trace);
    replay.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmo_trace::{Perm, PmoId, RecordedTrace, ThreadId};
    use proptest::prelude::{any, prop, Strategy};

    const BASE: u64 = 0x40_0000_0000;

    fn legit_trace() -> RecordedTrace {
        let mut t = RecordedTrace::new();
        t.event(TraceEvent::Attach { pmo: PmoId::new(1), base: BASE, size: 8 << 20, nvm: true });
        for i in 0..32u64 {
            t.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
            t.store(BASE + i * 256, 8);
            t.load(BASE + i * 256, 8);
            t.compute(20);
            t.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::None });
            t.event(TraceEvent::Op { kind: OpKind::End });
        }
        t
    }

    /// A trace designed to stress the fast path: many PMOs, long runs of
    /// same-page accesses, denied accesses, thread switches, shootdown
    /// markers, flushes, and page-crossing strides.
    fn stress_trace() -> RecordedTrace {
        let mut t = RecordedTrace::new();
        for i in 1..=20u64 {
            t.event(TraceEvent::Attach {
                pmo: PmoId::new(i as u32),
                base: i * (1 << 30),
                size: 8 << 20,
                nvm: true,
            });
        }
        for round in 0..4u64 {
            for i in 1..=20u64 {
                let base = i * (1 << 30) + round * 4096;
                t.event(TraceEvent::SetPerm { pmo: PmoId::new(i as u32), perm: Perm::ReadWrite });
                // Long same-page run.
                for k in 0..16u64 {
                    t.store(base + k * 64, 8);
                    t.load(base + k * 64, 8);
                }
                t.event(TraceEvent::Flush { va: base });
                t.event(TraceEvent::Fence);
                // Read-only: same-page writes now deny.
                t.event(TraceEvent::SetPerm { pmo: PmoId::new(i as u32), perm: Perm::ReadOnly });
                t.load(base, 8);
                t.store(base + 8, 8); // denied
                t.store(base + 16, 8); // denied, same page (fast-path deny)
                t.event(TraceEvent::SetPerm { pmo: PmoId::new(i as u32), perm: Perm::None });
                t.event(TraceEvent::ThreadSwitch { thread: ThreadId::new((round % 2) as u32) });
                t.event(TraceEvent::Op { kind: OpKind::End });
            }
            t.event(TraceEvent::Shootdown { pmo: PmoId::new(1) });
        }
        t
    }

    fn replay_with_fast(trace: &RecordedTrace, kind: SchemeKind, fast: bool) -> ReplayReport {
        let cfg = SimConfig::isca2020();
        let mut replay = Replay::new(kind, &cfg);
        replay.set_fast_path(fast);
        trace.replay(&mut replay);
        replay.finish()
    }

    #[test]
    fn all_schemes_replay_cleanly() {
        let trace = legit_trace();
        let cfg = SimConfig::isca2020();
        for kind in SchemeKind::ALL {
            let report = replay_source(&trace, kind, &cfg);
            assert!(!report.faulted(), "{kind} must not fault on a legit trace");
            assert!(report.cycles > 0);
            assert_eq!(report.ops, 32);
            assert_eq!(report.counts.stores, 32);
        }
    }

    #[test]
    fn scheme_ordering_on_protected_trace() {
        let trace = legit_trace();
        let mut replay = Replay::with_lanes(&SchemeKind::ALL, &SimConfig::isca2020());
        trace.replay(&mut replay);
        let reports = replay.finish_lanes().expect("every access sits in a read-write window");
        let cycles = |k: SchemeKind| reports.iter().find(|r| r.scheme == k).unwrap().cycles;
        // Baseline is fastest; lowerbound adds only WRPKRU cost.
        assert!(cycles(SchemeKind::Unprotected) < cycles(SchemeKind::Lowerbound));
        assert_eq!(
            cycles(SchemeKind::Lowerbound) - cycles(SchemeKind::Unprotected),
            64 * 27,
            "lowerbound adds exactly one WRPKRU per switch"
        );
        // With a single PMO, both hardware designs stay close to lowerbound.
        for k in [SchemeKind::MpkVirt, SchemeKind::DomainVirt] {
            let over = cycles(k) as f64 / cycles(SchemeKind::Lowerbound) as f64;
            assert!(over < 1.10, "{k} within 10% of lowerbound, got {over}");
        }
    }

    #[test]
    fn fast_path_is_equivalent_across_schemes() {
        // The acceptance bar of the fast lane: every modeled number —
        // cycles, breakdown buckets, scheme stats, TLB stats, cache stats,
        // recorded faults — is byte-identical with the fast path on or
        // off, for every scheme, on a trace that exercises allowed runs,
        // denied runs, invalidation events, and page crossings.
        for trace in [legit_trace(), stress_trace()] {
            for kind in SchemeKind::ALL {
                let slow = replay_with_fast(&trace, kind, false);
                let fast = replay_with_fast(&trace, kind, true);
                assert_eq!(slow, fast, "{kind}: fast path diverged from slow path");
            }
        }
    }

    #[test]
    fn fast_path_actually_engages() {
        let trace = stress_trace();
        let cfg = SimConfig::isca2020();
        let mut replay = Replay::new(SchemeKind::DomainVirt, &cfg);
        trace.replay(&mut replay);
        let hits = replay.fast_path_hits();
        assert!(hits > 1000, "same-page runs must be served fast, got {hits}");
    }

    #[test]
    fn line_memo_settles_dirty_bit_before_clwb() {
        // Batched same-line stores carry a pending dirty bit; a clwb
        // between them must see it (and count the memory write) exactly
        // as the unmemoized replay would. The persist idiom — store run,
        // clwb, fence, store run on the same line — is the worst case.
        let mut t = RecordedTrace::new();
        t.event(TraceEvent::Attach { pmo: PmoId::new(1), base: BASE, size: 8 << 20, nvm: true });
        t.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        for round in 0..8u64 {
            for word in 0..8u64 {
                t.store(BASE + round * 64 + word * 8, 8);
            }
            t.event(TraceEvent::Flush { va: BASE + round * 64 });
            t.event(TraceEvent::Fence);
            // Re-dirty the just-cleaned line, then read it back.
            t.store(BASE + round * 64, 8);
            t.load(BASE + round * 64, 8);
        }
        for kind in SchemeKind::ALL {
            let slow = replay_with_fast(&t, kind, false);
            let fast = replay_with_fast(&t, kind, true);
            assert_eq!(slow, fast, "{kind}: line memo diverged around clwb");
            assert!(fast.nvm_writes >= 8, "{kind}: clwb of dirty lines must reach NVM");
        }
    }

    #[test]
    fn fast_path_invalidated_by_setperm() {
        // Regression: a SetPerm between two same-page accesses must change
        // the verdict — the memoized entry may not outlive the event.
        let cfg = SimConfig::isca2020();
        let mut replay = Replay::new(SchemeKind::DomainVirt, &cfg);
        replay.event(TraceEvent::Attach {
            pmo: PmoId::new(1),
            base: BASE,
            size: 1 << 20,
            nvm: true,
        });
        replay.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        replay.store(BASE, 8);
        replay.store(BASE + 8, 8); // fast hit, allowed
        assert_eq!(replay.fast_path_hits(), 1);
        replay.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::None });
        replay.store(BASE + 16, 8); // slow again: must now be denied
        let report = replay.finish();
        assert_eq!(report.scheme_stats.faults, 1, "revoked permission must deny");
        assert_eq!(report.faults.len(), 1);
        assert!(report.faults[0].is_domain_violation());
    }

    #[test]
    fn fast_path_invalidated_by_shootdown_marker() {
        let cfg = SimConfig::isca2020();
        let mut replay = Replay::new(SchemeKind::MpkVirt, &cfg);
        replay.event(TraceEvent::Attach {
            pmo: PmoId::new(1),
            base: BASE,
            size: 1 << 20,
            nvm: true,
        });
        replay.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        replay.store(BASE, 8);
        replay.event(TraceEvent::Shootdown { pmo: PmoId::new(1) });
        // The entry was dropped: this access re-walks instead of hitting.
        replay.store(BASE + 8, 8);
        assert_eq!(replay.fast_path_hits(), 0, "shootdown must disarm the fast entry");
        replay.store(BASE + 16, 8);
        assert_eq!(replay.fast_path_hits(), 1, "re-armed after the slow access");
        assert!(!replay.finish().faulted());
    }

    #[test]
    fn faults_beyond_cap_are_counted_not_lost() {
        let mut t = RecordedTrace::new();
        t.event(TraceEvent::Attach { pmo: PmoId::new(1), base: BASE, size: 1 << 20, nvm: true });
        for i in 0..40u64 {
            t.store(BASE + i * 8, 8); // no permission granted: all denied
        }
        for fast in [false, true] {
            let report = replay_with_fast(&t, SchemeKind::DomainVirt, fast);
            assert_eq!(report.faults.len(), 32, "log capped at FAULT_LOG_CAP");
            assert_eq!(report.faults_dropped, 8, "overflow is counted (fast={fast})");
            assert_eq!(report.scheme_stats.faults, 40);
        }
    }

    #[test]
    fn faults_are_recorded_not_fatal() {
        let mut t = RecordedTrace::new();
        t.event(TraceEvent::Attach { pmo: PmoId::new(1), base: BASE, size: 1 << 20, nvm: true });
        t.store(BASE, 8); // no permission granted
        let report = replay_source(&t, SchemeKind::DomainVirt, &SimConfig::isca2020());
        assert!(report.faulted());
        assert_eq!(report.faults.len(), 1);
        assert!(report.faults[0].is_domain_violation());
    }

    #[test]
    fn fractional_cpi_accumulates() {
        let cfg = SimConfig::isca2020(); // base CPI 0.25
        let mut replay = Replay::new(SchemeKind::Unprotected, &cfg);
        for _ in 0..4 {
            replay.compute(1);
        }
        assert_eq!(replay.cycles(), 1, "4 instructions at CPI 0.25 = 1 cycle");
        let report = replay.finish();
        assert_eq!(report.instructions, 4);
    }

    #[test]
    fn flush_and_fence_costs() {
        let cfg = SimConfig::isca2020();
        let mut replay = Replay::new(SchemeKind::Unprotected, &cfg);
        replay.event(TraceEvent::Flush { va: 0x1000 });
        replay.event(TraceEvent::Fence);
        assert_eq!(replay.cycles(), cfg.clwb_cycles + cfg.fence_cycles);
    }

    #[test]
    fn snapshot_windows_cycles_and_counters() {
        let cfg = SimConfig::isca2020();
        let mut replay = Replay::new(SchemeKind::Lowerbound, &cfg);
        replay.event(TraceEvent::Attach {
            pmo: PmoId::new(1),
            base: BASE,
            size: 1 << 20,
            nvm: true,
        });
        replay.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        replay.store(BASE, 8);
        let snap = replay.snapshot();
        replay.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadOnly });
        replay.load(BASE, 8);
        replay.event(TraceEvent::Op { kind: OpKind::End });
        let windowed = replay.finish().since(&snap);
        assert_eq!(windowed.counts.set_perms, 1, "only the post-snapshot switch");
        assert_eq!(windowed.ops, 1);
        assert!(windowed.cycles > 0 && windowed.cycles < 100);
        assert_eq!(windowed.breakdown.permission_change, 27);
    }

    #[test]
    fn context_switches_cost_more_under_virtualization() {
        // Thread switches flush per-thread structures in both designs but
        // cost nothing extra in the baseline.
        let cfg = SimConfig::isca2020();
        let run = |kind: SchemeKind| {
            let mut replay = Replay::new(kind, &cfg);
            replay.event(TraceEvent::Attach {
                pmo: PmoId::new(1),
                base: BASE,
                size: 1 << 20,
                nvm: true,
            });
            for t in 0..64u32 {
                replay.event(TraceEvent::ThreadSwitch { thread: pmo_trace::ThreadId::new(t % 2) });
                replay.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
                replay.load(BASE, 8);
            }
            replay.finish().cycles
        };
        let baseline = run(SchemeKind::Unprotected);
        let mpk_virt = run(SchemeKind::MpkVirt);
        let domain_virt = run(SchemeKind::DomainVirt);
        assert!(mpk_virt > baseline);
        assert!(domain_virt > baseline);
        // The paper: "the impact of flushing [the PTLB] on context switch
        // on performance is small" — per-switch cost stays bounded (tens
        // of cycles) in both designs.
        for (name, cycles) in [("mpk-virt", mpk_virt), ("domain-virt", domain_virt)] {
            let per_switch = (cycles - baseline) as f64 / 64.0;
            assert!(per_switch < 200.0, "{name}: {per_switch:.0} cycles per switch is not 'small'");
        }
    }

    #[test]
    fn buffered_stream_matches_explicit_blocks() {
        // A stream buffered into blocks inside the replay, explicit
        // blocks, and the zero-copy encoded image run through one engine:
        // every modeled number must be byte-identical across the three,
        // for every scheme, on both traces.
        for trace in [legit_trace(), stress_trace()] {
            let cfg = SimConfig::isca2020();
            let blocks = pmo_trace::block::block_trace_of(&trace);
            let encoded = blocks.encode();
            for kind in SchemeKind::ALL {
                let buffered = replay_source(&trace, kind, &cfg);
                let batched = replay_block_trace(&blocks, kind, &cfg);
                assert_eq!(buffered, batched, "{kind}: explicit blocks diverged");
                let mut replay = Replay::new(kind, &cfg);
                replay.replay_encoded(&encoded).unwrap();
                assert_eq!(buffered, replay.finish(), "{kind}: encoded replay diverged");
            }
        }
    }

    #[test]
    fn batched_replay_respects_small_blocks() {
        // Runs that span block boundaries must settle per block and
        // re-engage in the next one.
        let trace = stress_trace();
        let cfg = SimConfig::isca2020();
        let blocks = pmo_trace::BlockTrace::with_block_events(7);
        let blocks = {
            let mut b = blocks;
            trace.replay(&mut b);
            b
        };
        for kind in SchemeKind::ALL {
            let streamed = replay_source(&trace, kind, &cfg);
            let batched = replay_block_trace(&blocks, kind, &cfg);
            assert_eq!(streamed, batched, "{kind}: 7-event blocks diverged");
        }
    }

    /// 40 stores to one line of a PMO no thread was granted: denied under
    /// every protective scheme, and libmpk's first one takes the guard-key
    /// fault, remaps the domain and re-walks.
    fn unguarded_stores() -> RecordedTrace {
        let mut t = RecordedTrace::new();
        t.event(TraceEvent::Attach { pmo: PmoId::new(1), base: BASE, size: 1 << 20, nvm: true });
        for i in 0..40u64 {
            t.store(BASE + (i % 8) * 8, 8); // no permission granted
        }
        t
    }

    #[test]
    fn fault_cap_crossed_inside_one_batch() {
        // 40 same-line denied stores land in a single block; the cap is
        // crossed mid-run. Denied accesses never batch, so truncation
        // must match the streamed path exactly: 32 logged, 8 counted.
        let t = unguarded_stores();
        let cfg = SimConfig::isca2020();
        let blocks = pmo_trace::block::block_trace_of(&t);
        assert_eq!(blocks.blocks().len(), 1, "test premise: one block");
        for kind in SchemeKind::ALL {
            let streamed = replay_source(&t, kind, &cfg);
            let batched = replay_block_trace(&blocks, kind, &cfg);
            assert_eq!(streamed, batched, "{kind}: mid-batch fault cap diverged");
        }
        let report = replay_block_trace(&blocks, SchemeKind::DomainVirt, &cfg);
        assert_eq!(report.faults.len(), 32, "log capped at FAULT_LOG_CAP");
        assert_eq!(report.faults_dropped, 8, "overflow counted, not lost");
        assert_eq!(report.scheme_stats.faults, 40);
    }

    /// One scheme's pinned totals: report cycles, then the Table VII
    /// buckets in declaration order (permission change, entry changes,
    /// translation miss, TLB invalidation, access latency, software).
    type Pinned = (SchemeKind, u64, [u64; 6]);

    const STRESS_PINNED: [Pinned; 8] = [
        (SchemeKind::Unprotected, 243_360, [0, 0, 0, 0, 0, 70_000]),
        (SchemeKind::Lowerbound, 249_680, [6_480, 0, 0, 0, 0, 70_000]),
        (SchemeKind::DefaultMpk, 270_600, [4_860, 0, 0, 0, 0, 92_500]),
        (SchemeKind::LibMpk, 1_086_274, [6_480, 0, 0, 41_962, 0, 864_632]),
        (SchemeKind::MpkVirt, 273_265, [6_480, 515, 2_400, 18_510, 0, 72_160]),
        (SchemeKind::DomainVirt, 255_200, [6_480, 320, 2_400, 0, 2_800, 70_000]),
        (SchemeKind::Erim, 699_650, [6_480, 0, 0, 18_510, 0, 501_460]),
        (SchemeKind::Dpti, 1_727_360, [983_040, 0, 0, 32_480, 0, 535_920]),
    ];

    const UNGUARDED_PINNED: [Pinned; 8] = [
        (SchemeKind::Unprotected, 3_742, [0, 0, 0, 0, 0, 3_500]),
        (SchemeKind::Lowerbound, 3_574, [0, 0, 0, 0, 0, 3_500]),
        (SchemeKind::DefaultMpk, 5_074, [0, 0, 0, 0, 0, 5_000]),
        (SchemeKind::LibMpk, 7_462, [0, 0, 0, 346, 0, 7_012]),
        (SchemeKind::MpkVirt, 3_606, [0, 2, 30, 0, 0, 3_500]),
        (SchemeKind::DomainVirt, 3_644, [0, 0, 30, 0, 40, 3_500]),
        (SchemeKind::Erim, 5_586, [0, 0, 0, 0, 0, 5_512]),
        (SchemeKind::Dpti, 4_086, [0, 0, 0, 0, 0, 4_012]),
    ];

    #[test]
    fn cycles_and_buckets_are_pinned() {
        // Every scheme's cycles and buckets on two hand-built traces, held
        // fixed across changes to how they are tallied. The unguarded
        // stores reach libmpk's guard-fault re-walk, which no campaign
        // trace does.
        let cfg = SimConfig::isca2020();
        for (trace, pinned) in
            [(stress_trace(), STRESS_PINNED), (unguarded_stores(), UNGUARDED_PINNED)]
        {
            for (kind, cycles, buckets) in pinned {
                let r = replay_source(&trace, kind, &cfg);
                let b = r.breakdown;
                let got = [
                    b.permission_change,
                    b.entry_changes,
                    b.translation_miss,
                    b.tlb_invalidation,
                    b.access_latency,
                    b.software,
                ];
                assert_eq!((r.cycles, got), (cycles, buckets), "{kind}");
            }
        }
    }

    #[test]
    fn summary_serves_page_revisits() {
        // Alternating between two pages defeats the one-entry fast memo
        // but not the summary table: revisits revalidate and skip the
        // scheme walk.
        let cfg = SimConfig::isca2020();
        let mut replay = Replay::new(SchemeKind::DomainVirt, &cfg);
        for pmo in [1u32, 2] {
            replay.event(TraceEvent::Attach {
                pmo: PmoId::new(pmo),
                base: u64::from(pmo) * (1 << 30),
                size: 1 << 20,
                nvm: true,
            });
            replay.event(TraceEvent::SetPerm { pmo: PmoId::new(pmo), perm: Perm::ReadWrite });
        }
        for round in 0..8u64 {
            replay.store(1 << 30, 8);
            replay.store(2 << 30, 8);
            if round == 0 {
                assert_eq!(replay.summary_hits(), 0, "first visits must walk");
            }
        }
        assert_eq!(replay.summary_hits(), 14, "every revisit must be summary-served");
        assert!(!replay.finish().faulted());
    }

    /// Builds the two-PMO preamble and a first visit to both pages, so
    /// each has a live summary row, then lets the caller inject the
    /// invalidating event and probe the revisit.
    fn summary_armed_replay(kind: SchemeKind) -> Replay {
        let cfg = SimConfig::isca2020();
        let mut replay = Replay::new(kind, &cfg);
        for pmo in [1u32, 2] {
            replay.event(TraceEvent::Attach {
                pmo: PmoId::new(pmo),
                base: u64::from(pmo) * (1 << 30),
                size: 1 << 20,
                nvm: true,
            });
            replay.event(TraceEvent::SetPerm { pmo: PmoId::new(pmo), perm: Perm::ReadWrite });
        }
        replay.store(1 << 30, 8);
        replay.store(2 << 30, 8);
        replay
    }

    #[test]
    fn summary_invalidated_by_setperm_revokes_verdict() {
        // The critical edge: a stale RW summary row served after SetPerm
        // would let a revoked access through.
        let mut replay = summary_armed_replay(SchemeKind::DomainVirt);
        replay.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::None });
        replay.store(1 << 30, 8);
        assert_eq!(replay.summary_hits(), 0, "post-SetPerm revisit must walk");
        let report = replay.finish();
        assert_eq!(report.scheme_stats.faults, 1, "revoked permission must deny");
    }

    #[test]
    fn summary_invalidated_by_attach() {
        let mut replay = summary_armed_replay(SchemeKind::DomainVirt);
        replay.event(TraceEvent::Attach {
            pmo: PmoId::new(3),
            base: 3 << 30,
            size: 1 << 20,
            nvm: true,
        });
        replay.store(1 << 30, 8);
        assert_eq!(replay.summary_hits(), 0, "post-Attach revisit must walk");
        assert!(!replay.finish().faulted());
    }

    #[test]
    fn summary_invalidated_by_detach() {
        let mut replay = summary_armed_replay(SchemeKind::DomainVirt);
        replay.event(TraceEvent::Detach { pmo: PmoId::new(2) });
        replay.store(1 << 30, 8);
        assert_eq!(replay.summary_hits(), 0, "post-Detach revisit must walk");
        assert!(!replay.finish().faulted());
    }

    #[test]
    fn summary_invalidated_by_thread_switch() {
        // Thread 1 never got a grant: serving thread 0's summary row
        // after the switch would leak its permission.
        let mut replay = summary_armed_replay(SchemeKind::DomainVirt);
        replay.event(TraceEvent::ThreadSwitch { thread: ThreadId::new(1) });
        replay.store(1 << 30, 8);
        assert_eq!(replay.summary_hits(), 0, "post-switch revisit must walk");
        let report = replay.finish();
        assert_eq!(report.scheme_stats.faults, 1, "thread 1 has no permission");
    }

    #[test]
    fn summary_invalidated_by_shootdown() {
        let mut replay = summary_armed_replay(SchemeKind::MpkVirt);
        replay.event(TraceEvent::Shootdown { pmo: PmoId::new(1) });
        replay.store(1 << 30, 8);
        assert_eq!(replay.summary_hits(), 0, "post-Shootdown revisit must walk");
        assert!(!replay.finish().faulted());
    }

    #[test]
    fn summary_survives_flush_and_fence() {
        // Flush/Fence touch only the caches: the summary row stays live
        // and the revisit is still summary-served.
        let mut replay = summary_armed_replay(SchemeKind::DomainVirt);
        replay.event(TraceEvent::Flush { va: 1 << 30 });
        replay.event(TraceEvent::Fence);
        replay.store(1 << 30, 8);
        assert_eq!(replay.summary_hits(), 1, "flush/fence must not invalidate");
        assert!(!replay.finish().faulted());
    }

    #[test]
    fn summary_misses_after_l1_eviction() {
        // A summary row can outlive its page's L1 TLB entry; the
        // revalidate step must catch the eviction and fall back to the
        // walk, keeping reports byte-identical. Stride over far more
        // pages than the L1 TLB holds, twice, under every scheme.
        let mut t = RecordedTrace::new();
        t.event(TraceEvent::Attach { pmo: PmoId::new(1), base: BASE, size: 8 << 20, nvm: true });
        t.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        for round in 0..3u64 {
            for page in 0..256u64 {
                t.load(BASE + page * 4096 + round * 8, 8);
            }
        }
        for kind in SchemeKind::ALL {
            let slow = replay_with_fast(&t, kind, false);
            let fast = replay_with_fast(&t, kind, true);
            assert_eq!(slow, fast, "{kind}: revalidate-after-eviction diverged");
            let blocks = pmo_trace::block::block_trace_of(&t);
            let batched = replay_block_trace(&blocks, kind, &SimConfig::isca2020());
            assert_eq!(slow, batched, "{kind}: batched revalidate diverged");
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = legit_trace();
        let cfg = SimConfig::isca2020();
        let a = replay_source(&trace, SchemeKind::MpkVirt, &cfg);
        let b = replay_source(&trace, SchemeKind::MpkVirt, &cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.breakdown, b.breakdown);
    }

    /// How a lane-equivalence run feeds the engine.
    #[derive(Clone, Copy, Debug)]
    enum Mode {
        /// `Replay::event`, fast path on: full buffered blocks.
        Buffered,
        /// `Replay::event` then `drain_protocol_events` after every event,
        /// as pmobench's traced mirror does: a flush forced at every
        /// position, so one-event blocks.
        Drained,
        /// `replay_blocks` over blocks of this many events.
        Batched(u32),
        /// `Replay::event`, fast path off.
        Walk,
    }

    const MODES: [Mode; 5] =
        [Mode::Buffered, Mode::Drained, Mode::Batched(4096), Mode::Batched(7), Mode::Walk];

    type Lanes = Result<Vec<ReplayReport>, LaneDivergence>;

    /// Replays `trace` through one replay with a lane per scheme in
    /// `kinds`, snapshotting every lane after the first `split` events;
    /// returns the windowed reports and the (fast, summary) hit totals.
    fn drive(
        kinds: &[SchemeKind],
        trace: &RecordedTrace,
        split: usize,
        mode: Mode,
    ) -> (Lanes, u64, u64) {
        let mut replay = Replay::with_lanes(kinds, &SimConfig::isca2020());
        replay.set_fast_path(!matches!(mode, Mode::Walk));
        let feed = |replay: &mut Replay, events: &[TraceEvent]| match mode {
            Mode::Buffered | Mode::Walk => events.iter().for_each(|ev| replay.event(*ev)),
            Mode::Drained => events.iter().for_each(|ev| {
                replay.event(*ev);
                let _ = replay.drain_protocol_events();
            }),
            Mode::Batched(block_events) => {
                let mut blocks = BlockTrace::with_block_events(block_events);
                events.iter().for_each(|ev| blocks.event(*ev));
                replay.replay_blocks(&blocks);
            }
        };
        let (setup, run) = trace.events().split_at(split);
        feed(&mut replay, setup);
        let snapshots = replay.snapshot_lanes();
        feed(&mut replay, run);
        let (fast, summary) = (replay.fast_path_hits(), replay.summary_hits());
        let reports = replay.finish_lanes().map(|reports| {
            reports.into_iter().zip(&snapshots).map(|(report, snap)| report.since(snap)).collect()
        });
        (reports, fast, summary)
    }

    /// The lane-equivalence bar: in every mode, each lane of one replay
    /// over `kinds` reports exactly — field for field and in JSON — what
    /// a one-lane replay of its scheme reports, and the lanes' fast-path
    /// and summary hits add up to the one-lane replays' hits. Every mode
    /// also reports exactly what the walk does, wherever its flushes fell,
    /// and the lanes' cycles differ only by their ledgers.
    fn assert_lanes_match_alone(trace: &RecordedTrace, split: usize, kinds: &[SchemeKind]) {
        let walk = drive(kinds, trace, split, Mode::Walk).0;
        let walk = walk.unwrap_or_else(|d| panic!("{kinds:?} walk: {d}"));
        for mode in MODES {
            let (lanes, fast, summary) = drive(kinds, trace, split, mode);
            let lanes = lanes.unwrap_or_else(|d| panic!("{kinds:?} {mode:?}: {d}"));
            assert_eq!(lanes, walk, "{kinds:?} {mode:?}: differs from the walk");
            // What a lane adds beyond its ledger is the memory side every
            // lane shares.
            let shared = |r: &ReplayReport| r.cycles - r.breakdown.total();
            for lane in &lanes {
                let scheme = lane.scheme;
                assert_eq!(
                    shared(lane),
                    shared(&lanes[0]),
                    "{scheme} in {kinds:?}, {mode:?}: ledger"
                );
            }
            let (mut want_fast, mut want_summary) = (0, 0);
            for (kind, lane) in kinds.iter().zip(&lanes) {
                let (alone, f, s) = drive(&[*kind], trace, split, mode);
                let alone = alone.expect("one lane cannot diverge").remove(0);
                assert_eq!(lane, &alone, "{kind} in {kinds:?}, {mode:?}");
                assert_eq!(lane.to_json(), alone.to_json(), "{kind} in {kinds:?}, {mode:?}");
                want_fast += f;
                want_summary += s;
            }
            assert_eq!((fast, summary), (want_fast, want_summary), "{kinds:?} {mode:?}: hits");
        }
    }

    /// One lane each, every pair a fixed stride apart in
    /// [`SchemeKind::ALL`], and all eight at once.
    fn lane_sets() -> Vec<Vec<SchemeKind>> {
        let all = SchemeKind::ALL;
        let singles = all.iter().map(|k| vec![*k]);
        let pairs = (0..all.len()).map(|i| vec![all[i], all[(i + 5) % all.len()]]);
        singles.chain(pairs).chain([all.to_vec()]).collect()
    }

    /// [`stress_trace`] with every access allowed under every scheme: no
    /// stores under read-only grants, and a shootdown marker in the middle
    /// of each same-page run instead of only between rounds.
    fn clean_stress_trace() -> RecordedTrace {
        let mut t = RecordedTrace::new();
        for i in 1..=20u32 {
            let base = u64::from(i) << 30;
            t.event(TraceEvent::Attach { pmo: PmoId::new(i), base, size: 8 << 20, nvm: true });
        }
        for round in 0..4u64 {
            for i in 1..=20u32 {
                let pmo = PmoId::new(i);
                let base = (u64::from(i) << 30) + round * 4096;
                t.event(TraceEvent::SetPerm { pmo, perm: Perm::ReadWrite });
                for k in 0..16u64 {
                    t.store(base + k * 64, 8);
                    t.load(base + k * 64, 8);
                    if k == 8 {
                        t.event(TraceEvent::Shootdown { pmo });
                    }
                }
                t.event(TraceEvent::Flush { va: base });
                t.event(TraceEvent::Fence);
                t.event(TraceEvent::SetPerm { pmo, perm: Perm::ReadOnly });
                t.load(base, 8);
                t.load(base + 8, 8);
                t.load(base + 4096, 8);
                t.event(TraceEvent::SetPerm { pmo, perm: Perm::None });
                t.event(TraceEvent::ThreadSwitch { thread: ThreadId::new((round % 2) as u32) });
                t.event(TraceEvent::Op { kind: OpKind::End });
            }
            t.event(TraceEvent::Shootdown { pmo: PmoId::new(1) });
        }
        t
    }

    #[test]
    fn lanes_match_one_lane_replays() {
        // legit_trace is split right after iteration 10's load, so every
        // lane snapshots with a same-page fast hit still owed.
        let legit = legit_trace();
        let stress = clean_stress_trace();
        let stress_split = stress.len() / 2;
        assert!(matches!(legit.events()[63], TraceEvent::Load { .. }));
        for kinds in lane_sets() {
            assert_lanes_match_alone(&legit, 64, &kinds);
            assert_lanes_match_alone(&stress, stress_split, &kinds);
        }
    }

    #[test]
    fn lanes_that_disagree_name_the_first_divergent_access() {
        let mut t = RecordedTrace::new();
        t.event(TraceEvent::Attach { pmo: PmoId::new(1), base: BASE, size: 1 << 20, nvm: true });
        t.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        t.store(BASE, 8);
        t.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::None });
        t.compute(4);
        // Unguarded: the baseline lets it through, domain-virt denies it.
        t.store(BASE + 64, 8);
        t.store(BASE + 72, 8);
        let want = LaneDivergence {
            event: 5,
            va: BASE + 64,
            kind: AccessKind::Write,
            first: (SchemeKind::Unprotected, Some(MemKind::Nvm)),
            other: (SchemeKind::DomainVirt, None),
        };
        for mode in MODES {
            let kinds = [SchemeKind::Unprotected, SchemeKind::DomainVirt];
            assert_eq!(drive(&kinds, &t, 2, mode).0, Err(want), "{mode:?}");
        }
        let message = want.to_string();
        assert!(message.starts_with("event 5: store at 0x4000000040"), "{message}");
        assert!(message.contains("allowed (NVM) under baseline but denied under domain-virt"));
        // Past the first buffered block the position is still exact.
        let (t, at) = divergent_trace(u64::from(DEFAULT_BLOCK_EVENTS) + 100);
        assert!(at > u64::from(DEFAULT_BLOCK_EVENTS), "test premise: past the first block");
        for mode in MODES {
            let divergence = drive(&[SchemeKind::Unprotected, SchemeKind::DomainVirt], &t, 0, mode);
            let divergence = divergence.0.unwrap_err();
            assert_eq!((divergence.event, divergence.va), (at, BASE + 64), "{mode:?}");
        }
    }

    /// A lane-disagreement trace: a read-write window, then `loads` more
    /// same-window loads, a revoke, and an unguarded store the baseline
    /// lets through and domain-virt denies. Returns it with the store's
    /// position.
    fn divergent_trace(loads: u64) -> (RecordedTrace, u64) {
        let mut t = RecordedTrace::new();
        t.event(TraceEvent::Attach { pmo: PmoId::new(1), base: BASE, size: 1 << 20, nvm: true });
        t.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        for i in 0..loads {
            t.load(BASE + (i % 512) * 8, 8);
        }
        t.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::None });
        t.store(BASE + 64, 8);
        let at = t.len() as u64 - 1;
        (t, at)
    }

    #[test]
    fn replay_block_runs_after_the_buffered_events() {
        // Three events sit in the buffer when an explicit block arrives:
        // they must run first, and count, so the divergent access in the
        // block keeps its stream position.
        let kinds = [SchemeKind::Unprotected, SchemeKind::DomainVirt];
        let (t, at) = divergent_trace(1);
        let (buffered, rest) = t.events().split_at(3);
        let mut replay = Replay::with_lanes(&kinds, &SimConfig::isca2020());
        buffered.iter().for_each(|ev| replay.event(*ev));
        assert_eq!(replay.buffered_events(), 3);
        let mut block = EventBlock::with_capacity(8);
        rest.iter().for_each(|ev| block.push(ev));
        replay.replay_block(&block);
        assert_eq!(replay.buffered_events(), 0);
        let divergence = replay.finish_lanes().unwrap_err();
        assert_eq!((divergence.event, divergence.va), (at, BASE + 64));
        assert_eq!(at, 4);
    }

    #[test]
    fn protocol_events_drain_at_the_event_that_raised_them() {
        // Draining after every event forces a one-event block, so each
        // protocol event comes out after exactly the event that raised
        // it, as in the walk. Twenty PMOs pass the 15-key cliff.
        let trace = clean_stress_trace();
        for kind in [SchemeKind::MpkVirt, SchemeKind::Erim, SchemeKind::Dpti] {
            let drained = |fast: bool| {
                let mut replay = Replay::new(kind, &SimConfig::isca2020());
                replay.set_fast_path(fast);
                let mut out = Vec::new();
                for (i, ev) in trace.iter().enumerate() {
                    replay.event(*ev);
                    out.extend(replay.drain_protocol_events().into_iter().map(|p| (i, p)));
                }
                out
            };
            let walk = drained(false);
            assert!(!walk.is_empty(), "{kind}: evictions must emit protocol events");
            assert_eq!(drained(true), walk, "{kind}");
        }
    }

    #[test]
    fn malformed_records_are_invalid_data_not_panics() {
        // One image per per-record rule the replay relies on: each record
        // follows a clean prefix and must be rejected at decode, so no
        // scheme ever simulates it.
        let attach = |base, size| TraceEvent::Attach { pmo: PmoId::new(2), base, size, nvm: true };
        let cases = [
            TraceEvent::Load { va: BASE, size: 0 },
            TraceEvent::Load { va: BASE, size: 65 },
            TraceEvent::Store { va: BASE, size: 0 },
            TraceEvent::Store { va: BASE, size: 136 },
            TraceEvent::StoreData { va: BASE, size: 0, data: 1 },
            TraceEvent::StoreData { va: BASE, size: 9, data: 1 },
            attach(2 << 30, 0),
            attach(0, (512 << 30) + 1),
            attach((2 << 30) + 4096, 8 << 20),
        ];
        let cfg = SimConfig::isca2020();
        for bad in cases {
            let mut t = legit_trace();
            t.event(bad);
            let image = pmo_trace::block::block_trace_of(&t).encode();
            let err = BlockTrace::decode(&image).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}: {err}");
            for kind in SchemeKind::ALL {
                let err = Replay::new(kind, &cfg).replay_encoded(&image).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{kind} {bad:?}: {err}");
            }
        }
        // The largest legal sizes still decode.
        let mut t = legit_trace();
        t.event(TraceEvent::Load { va: BASE, size: 64 });
        t.event(TraceEvent::StoreData { va: BASE, size: 8, data: 1 });
        let image = pmo_trace::block::block_trace_of(&t).encode();
        assert_eq!(BlockTrace::decode(&image).unwrap().len(), t.len() as u64);
    }

    #[test]
    fn conflicting_attaches_are_faults_not_panics() {
        // Three encoded traces, each a clean prefix and one attach that
        // conflicts with PMO 1: PMO 1 again at its base, PMO 1 at another
        // base, and PMO 2 over PMO 1's region. Every lane must refuse it
        // alike, so a multi-lane replay still has one exact report.
        let (pmo1, pmo2) = (PmoId::new(1), PmoId::new(2));
        let attach = |pmo, base| TraceEvent::Attach { pmo, base, size: 1 << 20, nvm: true };
        let conflicts = [(pmo1, BASE), (pmo1, BASE + (1 << 30)), (pmo2, BASE)];
        let cfg = SimConfig::isca2020();
        let lane_sets =
            SchemeKind::ALL.map(|kind| vec![kind]).into_iter().chain([SchemeKind::ALL.to_vec()]);
        let lane_sets: Vec<Vec<SchemeKind>> = lane_sets.collect();
        for (pmo, base) in conflicts {
            let mut t = RecordedTrace::new();
            t.event(attach(pmo1, BASE));
            t.event(TraceEvent::SetPerm { pmo: pmo1, perm: Perm::ReadWrite });
            t.store(BASE, 8);
            t.event(attach(pmo, base));
            // Still PMO 1's range under PMO 1's grant: had PMO 2 taken it
            // over, every protective lane would deny these.
            t.load(BASE + 64, 8);
            t.store(BASE + 4096, 8);
            let image = pmo_trace::block::block_trace_of(&t).encode();
            let want = ProtectionFault::AttachConflict { pmo, base, attached: pmo1 };
            for kinds in &lane_sets {
                let mut replay = Replay::with_lanes(kinds, &cfg);
                replay.replay_encoded(&image).expect("the image is well formed");
                let reports = replay.finish_lanes().expect("every lane refuses the attach alike");
                for report in reports {
                    let scheme = report.scheme;
                    assert_eq!(report.faults, [want], "{scheme} in {kinds:?}");
                    assert_eq!(report.scheme_stats.faults, 1, "{scheme} in {kinds:?}");
                }
            }
            // Revoking PMO 1 denies its range, naming PMO 1, under every
            // protective scheme.
            t.event(TraceEvent::SetPerm { pmo: pmo1, perm: Perm::None });
            t.load(BASE, 8);
            let image = pmo_trace::block::block_trace_of(&t).encode();
            for kind in &SchemeKind::ALL[1..] {
                let mut replay = Replay::new(*kind, &cfg);
                replay.replay_encoded(&image).expect("the image is well formed");
                let faults = replay.finish().faults;
                assert_eq!(faults.len(), 2, "{kind}");
                assert!(
                    matches!(faults[1], ProtectionFault::DomainDenied { pmo, .. } if pmo == pmo1),
                    "{kind}: {}",
                    faults[1]
                );
            }
        }
    }

    #[test]
    fn a_region_reattached_at_a_larger_granule_replays_cleanly() {
        // PMO 1 takes a 2MB granule and detaches; PMO 2 then takes the 1GB
        // granule around it. Nothing of PMO 1's region may survive in any
        // lane's tables: every lane replays the trace with no fault, and
        // PMO 2's grant covers its whole region.
        let (pmo1, pmo2) = (PmoId::new(1), PmoId::new(2));
        let mut t = RecordedTrace::new();
        t.event(TraceEvent::Attach { pmo: pmo1, base: BASE, size: 2 << 20, nvm: true });
        t.event(TraceEvent::Detach { pmo: pmo1 });
        t.event(TraceEvent::Attach { pmo: pmo2, base: BASE, size: 1 << 30, nvm: true });
        t.event(TraceEvent::SetPerm { pmo: pmo2, perm: Perm::ReadWrite });
        t.store(BASE, 8);
        t.store(BASE + (4 << 20), 8);
        t.load(BASE + (512 << 20), 8);
        let image = pmo_trace::block::block_trace_of(&t).encode();
        let cfg = SimConfig::isca2020();
        let lane_sets = SchemeKind::ALL.map(|kind| vec![kind]).into_iter();
        for kinds in lane_sets.chain([SchemeKind::ALL.to_vec()]) {
            let mut replay = Replay::with_lanes(&kinds, &cfg);
            replay.replay_encoded(&image).expect("the image is well formed");
            for report in replay.finish_lanes().expect("every lane agrees") {
                assert_eq!(report.faults, [], "{} in {kinds:?}", report.scheme);
                assert_eq!(report.scheme_stats.faults, 0, "{} in {kinds:?}", report.scheme);
            }
        }
    }

    #[test]
    #[should_panic(expected = "use finish_lanes")]
    fn finish_is_for_one_lane() {
        let kinds = [SchemeKind::Unprotected, SchemeKind::Lowerbound];
        let _ = Replay::with_lanes(&kinds, &SimConfig::isca2020()).finish();
    }

    /// One permission window of a random clean trace: a thread, a PMO,
    /// whether the grant is writable, and the accesses made under it —
    /// each a pool offset plus a selector for what follows it.
    #[derive(Clone, Debug)]
    struct Window {
        thread: u32,
        pmo: u32,
        writable: bool,
        accesses: Vec<(u64, u8)>,
    }

    /// Twenty PMOs: past the 15-key cliff, so the key-multiplexing
    /// schemes evict, rewrite PTEs and shoot down mid-trace.
    const RANDOM_PMOS: u32 = 20;

    fn window() -> impl Strategy<Value = Window> {
        let access = (0u64..6 * 64, 0u8..16).prop_map(|(line, sel)| (line * 64, sel));
        (0u32..2, 1..=RANDOM_PMOS, any::<bool>(), prop::collection::vec(access, 1..24)).prop_map(
            |(thread, pmo, writable, accesses)| Window { thread, pmo, writable, accesses },
        )
    }

    /// Builds a trace every scheme allows in full: each access sits in a
    /// window its thread opened on its PMO (stores only under read-write
    /// grants), interleaved with computes, clwbs, fences, shootdown
    /// markers and accesses to anonymous DRAM.
    fn clean_trace(windows: &[Window]) -> RecordedTrace {
        let mut t = RecordedTrace::new();
        for i in 1..=RANDOM_PMOS {
            let base = u64::from(i) << 30;
            t.event(TraceEvent::Attach { pmo: PmoId::new(i), base, size: 1 << 20, nvm: true });
        }
        for w in windows {
            let (pmo, base) = (PmoId::new(w.pmo), u64::from(w.pmo) << 30);
            t.event(TraceEvent::ThreadSwitch { thread: ThreadId::new(w.thread) });
            let perm = if w.writable { Perm::ReadWrite } else { Perm::ReadOnly };
            t.event(TraceEvent::SetPerm { pmo, perm });
            for &(offset, sel) in &w.accesses {
                let va = base + offset;
                if w.writable && sel % 2 == 1 {
                    t.store(va, 8);
                } else {
                    t.load(va, 8);
                }
                match sel / 2 {
                    1 => t.compute(u32::from(sel)),
                    2 => t.event(TraceEvent::Flush { va }),
                    3 => t.event(TraceEvent::Fence),
                    4 => t.event(TraceEvent::Shootdown { pmo }),
                    5 => t.load(0x10_0000 + offset, 8),
                    _ => {}
                }
            }
            t.event(TraceEvent::SetPerm { pmo, perm: Perm::None });
            t.event(TraceEvent::Op { kind: OpKind::End });
        }
        t
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn random_clean_traces_replay_identically_in_lanes(
            windows in proptest::collection::vec(window(), 1..48),
            split in 0usize..1000,
        ) {
            let trace = clean_trace(&windows);
            let split = split % (trace.len() + 1);
            assert_lanes_match_alone(&trace, split, &SchemeKind::ALL);
            assert_lanes_match_alone(&trace, split, &[SchemeKind::LibMpk, SchemeKind::DomainVirt]);
        }
    }
}
