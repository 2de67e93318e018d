//! The trace-replay engine: one protection scheme + the memory hierarchy,
//! driven by a stream of trace events.
//!
//! The engine dispatches to the scheme through the closed [`AnyScheme`]
//! enum (no vtable on the hot path) and memoizes consecutive same-page
//! accesses through a one-entry [`FastHint`] cache: translation and
//! permission verdict are reused, so repeated hits skip the TLB/DTT/PT
//! machinery while charging exactly the modeled cycles the slow path
//! would. The fast path memoizes the *simulator's* work, never the
//! *simulated* costs.

use std::io;

use pmo_protect::{AnyScheme, FastHint, ProtectionFault, ProtectionScheme, SchemeKind};
use pmo_simarch::{vpn, CacheHierarchy, MemKind, SimConfig};
use pmo_trace::{
    block::tag, AccessKind, BlockReader, BlockTrace, EventBlock, EventCounts, OpKind, ThreadId,
    TraceEvent, TraceSink, TraceSource,
};

use crate::report::{ReplayReport, ReplaySnapshot};

/// Maximum number of individual faults retained in the report; faults
/// beyond the cap are counted in [`ReplayReport::faults_dropped`].
const FAULT_LOG_CAP: usize = 32;

/// Sentinel for [`LineMemo::line`] marking an empty memo slot.
const NO_LINE: u64 = u64::MAX;

/// Slots in the direct-mapped permission-summary table (power of two).
const SUMMARY_SLOTS: usize = 512;

/// One row of the permission-summary table: the memoized [`FastHint`] for
/// a `(thread, page)` pair, valid only while `gen` matches the replay's
/// current summary generation.
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
    thread: ThreadId,
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

/// A replay in progress. Implements [`TraceSink`], so workload generators
/// can stream events straight into it; call [`Replay::finish`] for the
/// report.
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
/// ```
pub struct Replay {
    cfg: SimConfig,
    scheme: AnyScheme,
    caches: CacheHierarchy,
    cycles: u64,
    cpi_carry: f64,
    counts: EventCounts,
    faults: Vec<ProtectionFault>,
    faults_dropped: u64,
    ops: u64,
    fast_enabled: bool,
    fast: Option<FastEntry>,
    fast_hits_total: u64,
    /// Per-L1-set line memo (see [`LineMemo`]); indexed by the L1 set of
    /// the accessed line.
    lines: Vec<LineMemo>,
    /// Direct-mapped `(thread, page)` → [`FastHint`] summaries; rows are
    /// valid while their `gen` matches [`Replay::summary_gen`].
    summary: Vec<Option<SummarySlot>>,
    summary_gen: u64,
    summary_hits_total: u64,
    current_thread: ThreadId,
    /// `log2(line_bytes)` and the L1 hit latency, copied out of the
    /// config so the hot path doesn't chase through the hierarchy.
    line_shift: u32,
    l1_hit_cycles: u64,
}

impl Replay {
    /// Creates a replay for one scheme.
    #[must_use]
    pub fn new(kind: SchemeKind, config: &SimConfig) -> Self {
        let caches = CacheHierarchy::new(config);
        let lines = vec![LineMemo::EMPTY; caches.l1_sets()];
        Replay {
            cfg: config.clone(),
            scheme: kind.build_any(config),
            caches,
            cycles: 0,
            cpi_carry: 0.0,
            counts: EventCounts::default(),
            faults: Vec::new(),
            faults_dropped: 0,
            ops: 0,
            fast_enabled: true,
            fast: None,
            fast_hits_total: 0,
            lines,
            summary: vec![None; SUMMARY_SLOTS],
            summary_gen: 1,
            summary_hits_total: 0,
            current_thread: ThreadId::MAIN,
            line_shift: config.line_bytes.trailing_zeros(),
            l1_hit_cycles: config.l1d_latency,
        }
    }

    /// Enables or disables the same-page fast path (on by default). The
    /// modeled results are identical either way — this exists so the
    /// equivalence can be asserted and the speedup measured.
    pub fn set_fast_path(&mut self, enabled: bool) {
        if !enabled {
            self.flush_fast();
            self.settle_lines();
            // Walk-mode accesses mutate the caches behind the memo's back,
            // so residency can no longer be assumed if it is re-enabled.
            self.lines.fill(LineMemo::EMPTY);
        }
        self.fast_enabled = enabled;
    }

    /// Accesses served by the memoized fast path so far (observability for
    /// benchmarks and invalidation tests; not part of the report).
    #[must_use]
    pub fn fast_path_hits(&self) -> u64 {
        self.fast_hits_total
    }

    /// Page-change accesses whose walk was skipped because a still-valid
    /// permission-summary row re-armed the fast entry (observability; not
    /// part of the report).
    #[must_use]
    pub fn summary_hits(&self) -> u64 {
        self.summary_hits_total
    }

    #[inline]
    fn summary_index(&self, page: u64) -> usize {
        // Fibonacci hashing over the page number mixed with the thread:
        // PMO bases are GB-aligned, so low page bits alone collide badly.
        let key = page ^ (u64::from(self.current_thread.raw()) << 52);
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 55) as usize & (SUMMARY_SLOTS - 1)
    }

    /// Looks up a still-valid summary row for `(current thread, page)`.
    #[inline]
    fn summary_probe(&self, page: u64) -> Option<FastHint> {
        let slot = self.summary[self.summary_index(page)]?;
        (slot.gen == self.summary_gen && slot.page == page && slot.thread == self.current_thread)
            .then_some(slot.hint)
    }

    #[inline]
    fn summary_fill(&mut self, page: u64, hint: FastHint) {
        let idx = self.summary_index(page);
        self.summary[idx] =
            Some(SummarySlot { thread: self.current_thread, page, hint, gen: self.summary_gen });
    }

    /// Invalidates every summary row. Runs on exactly the events that may
    /// change a memoized verdict without evicting the page from the L1
    /// TLB: SetPerm, Attach, Detach, ThreadSwitch, and Shootdown. All
    /// other scheme-state mutation happens on the access path and always
    /// shoots the affected pages out of the TLB, which `fast_revalidate`
    /// catches row by row.
    #[inline]
    fn summary_invalidate_all(&mut self) {
        self.summary_gen += 1;
    }

    /// Cycles simulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The scheme being driven (for inspection in tests). Scheme-side
    /// counters are settled at [`Replay::snapshot`]/[`Replay::finish`];
    /// between accesses they may lag by the currently batched fast hits.
    #[must_use]
    pub fn scheme(&self) -> &dyn ProtectionScheme {
        &self.scheme
    }

    /// Drains protocol-level events the scheme emitted internally since
    /// the last drain (ranged shootdowns on the key-eviction path), so
    /// audit sinks can fold them into the analyzed stream.
    pub fn drain_protocol_events(&mut self) -> Vec<TraceEvent> {
        self.scheme.drain_events()
    }

    fn charge_compute(&mut self, instructions: u32) {
        let exact = f64::from(instructions) * self.cfg.base_cpi + self.cpi_carry;
        let whole = exact.floor();
        self.cpi_carry = exact - whole;
        self.cycles += whole as u64;
    }

    /// Settles the batched scheme-side fast-path accounting (hit counts
    /// owed to the scheme's TLB stats) and disarms the entry. Must run
    /// before any scheme-state mutation and before reading scheme
    /// counters (snapshot/finish). The line memo is independent — cache
    /// residency does not change when a verdict does — and stays armed.
    fn flush_fast(&mut self) {
        if let Some(entry) = self.fast.take() {
            if entry.hits > 0 {
                self.scheme.note_fast_hits(&entry.hint, entry.hits, entry.denied);
            }
        }
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
    /// target NVM lines. Touches only the caches, so the fast entry stays
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

    fn record_fault(&mut self, fault: ProtectionFault) {
        if self.faults.len() < FAULT_LOG_CAP {
            self.faults.push(fault);
        } else {
            self.faults_dropped += 1;
        }
    }

    fn memory_access(&mut self, va: u64, size: u8, kind: AccessKind) {
        debug_assert!(size > 0 && size <= 64, "access size {size} out of range");
        if let Some(entry) = &mut self.fast {
            if entry.page == vpn(va) {
                let hint = entry.hint;
                entry.hits += 1;
                self.fast_hits_total += 1;
                self.cycles += hint.cycles;
                if hint.effective.allows(kind) {
                    self.charge_data_access(va, hint.mem, kind);
                } else {
                    entry.denied += 1;
                    self.record_fault(hint.fault(va, kind));
                }
                return;
            }
        }
        self.flush_fast();
        let page = vpn(va);
        if self.fast_enabled {
            if let Some(hint) = self.summary_probe(page) {
                // The row's verdict is only as good as the structures it
                // summarizes: re-check (and touch, as the memoized hit
                // would) L1 TLB residency — plus PTLB residency under
                // domain virtualization — before serving it.
                if self.scheme.fast_revalidate(va) {
                    self.summary_hits_total += 1;
                    self.fast_hits_total += 1;
                    self.cycles += hint.cycles;
                    let mut denied = 0;
                    if hint.effective.allows(kind) {
                        self.charge_data_access(va, hint.mem, kind);
                    } else {
                        denied = 1;
                        self.record_fault(hint.fault(va, kind));
                    }
                    // Re-arm with this access's scheme-side accounting
                    // (one L1 TLB stats hit, one fault if denied) still
                    // owed: `hits: 1` settles it at the next flush.
                    self.fast = Some(FastEntry { page, hint, hits: 1, denied });
                    return;
                }
            }
        }
        let result = self.scheme.access(va, kind);
        self.cycles += result.cycles;
        match result.fault {
            None => self.charge_data_access(va, result.mem, kind),
            Some(fault) => self.record_fault(fault),
        }
        if self.fast_enabled {
            self.fast = match self.scheme.fast_hint(va) {
                Some(hint) => {
                    self.summary_fill(page, hint);
                    Some(FastEntry { page, hint, hits: 0, denied: 0 })
                }
                None => None,
            };
        }
    }

    /// Captures the cumulative state at a phase boundary, so the report
    /// can later be windowed to just the measured phase (e.g. excluding
    /// population) via [`ReplayReport::since`].
    #[must_use]
    pub fn snapshot(&mut self) -> ReplaySnapshot {
        self.flush_fast();
        ReplaySnapshot {
            cycles: self.cycles,
            breakdown: self.scheme.breakdown(),
            set_perms: self.counts.set_perms,
            ops: self.ops,
        }
    }

    /// Consumes the replay, producing the report.
    #[must_use]
    pub fn finish(mut self) -> ReplayReport {
        self.flush_fast();
        self.settle_lines();
        let tlb = self.scheme.tlb_stats();
        ReplayReport {
            scheme: self.scheme.kind(),
            cycles: self.cycles,
            instructions: self.counts.instructions(),
            counts: self.counts,
            breakdown: self.scheme.breakdown(),
            scheme_stats: self.scheme.stats(),
            tlb,
            l1d: *self.caches.l1_stats(),
            l2: *self.caches.l2_stats(),
            nvm_reads: self.caches.memory().nvm_reads(),
            nvm_writes: self.caches.memory().nvm_writes(),
            faults: self.faults,
            faults_dropped: self.faults_dropped,
            ops: self.ops,
            wall_nanos: 0,
        }
    }
}

impl Replay {
    /// Applies one event's simulation effects. Event counting is the
    /// caller's job: the streaming sink observes events one by one, the
    /// batched block driver merges whole-block counts up front.
    fn handle(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Compute { count } => self.charge_compute(count),
            TraceEvent::Load { va, size } => self.memory_access(va, size, AccessKind::Read),
            TraceEvent::Store { va, size } => self.memory_access(va, size, AccessKind::Write),
            // Valued stores cost exactly what plain stores cost; the data
            // payload only matters to persistency-model analyses.
            TraceEvent::StoreData { va, size, .. } => {
                self.memory_access(va, size, AccessKind::Write);
            }
            TraceEvent::SetPerm { pmo, perm } => {
                self.flush_fast();
                self.summary_invalidate_all();
                self.cycles += self.scheme.set_perm(pmo, perm);
            }
            TraceEvent::Attach { pmo, base, size, nvm } => {
                self.flush_fast();
                self.summary_invalidate_all();
                self.cycles += self.scheme.attach(pmo, base, size, nvm);
            }
            TraceEvent::Detach { pmo } => {
                self.flush_fast();
                self.summary_invalidate_all();
                self.cycles += self.scheme.detach(pmo);
            }
            TraceEvent::ThreadSwitch { thread } => {
                self.flush_fast();
                self.summary_invalidate_all();
                self.current_thread = thread;
                self.cycles += self.scheme.context_switch(thread);
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
            // model. Conservatively drop the memoized verdict anyway.
            TraceEvent::Shootdown { .. } => {
                self.flush_fast();
                self.summary_invalidate_all();
            }
        }
    }

    /// Replays one decoded event block through the batched engine.
    ///
    /// Counts are merged per block instead of per event, and runs of
    /// same-line allowed accesses — interleaved with any scheme-neutral
    /// events (computes, fences, op/fault markers, clwbs) — are settled
    /// straight into the armed fast entry in one pass over the
    /// struct-of-arrays lanes.
    /// Denied accesses and page/line changes never batch — they fall back
    /// to [`Replay::memory_access`], so fault logging (including the
    /// [`FAULT_LOG_CAP`] truncation discipline) is byte-identical to the
    /// streamed path.
    pub fn replay_block(&mut self, block: &EventBlock) {
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
                    self.memory_access(vas[i], sizes[i], kind);
                    i += 1;
                    // Window settlement: while the following accesses stay
                    // on the armed page and are allowed, serve them from
                    // the armed hint + line memo without re-entering the
                    // per-event path (this is the streamed same-page fast
                    // path, inlined). Events that touch neither scheme nor
                    // summary state (computes, fences, op markers, fault
                    // markers, clwbs) are absorbed inline so they don't
                    // break the window — the armed hint stays valid across
                    // them by construction.
                    let Some(entry) = &self.fast else { continue };
                    let page = entry.page;
                    let hint = entry.hint;
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
                        if vpn(va) != page {
                            break;
                        }
                        let k = if is_write { AccessKind::Write } else { AccessKind::Read };
                        if !hint.effective.allows(k) {
                            break;
                        }
                        debug_assert!(
                            sizes[i] > 0 && sizes[i] <= 64,
                            "access size {} out of range",
                            sizes[i]
                        );
                        self.cycles += hint.cycles;
                        self.charge_data_access(va, hint.mem, k);
                        run += 1;
                        i += 1;
                    }
                    if run > 0 {
                        if let Some(entry) = &mut self.fast {
                            entry.hits += run;
                        }
                        self.fast_hits_total += run;
                    }
                }
                _ => {
                    self.handle(block.event(i));
                    i += 1;
                }
            }
        }
    }

    /// Replays a decoded block trace through the batched engine.
    pub fn replay_blocks(&mut self, trace: &BlockTrace) {
        for block in trace.blocks() {
            self.replay_block(block);
        }
    }

    /// Replays an encoded block-trace image zero-copy: lanes are borrowed
    /// straight from `bytes` and decoded block-at-a-time into one scratch
    /// [`EventBlock`] that is reused across the whole trace.
    ///
    /// # Errors
    ///
    /// Fails if the image's header, framing, or any record is invalid.
    pub fn replay_encoded(&mut self, bytes: &[u8]) -> io::Result<()> {
        let reader = BlockReader::new(bytes)?;
        let mut scratch = EventBlock::with_capacity(reader.block_events());
        for lanes in reader.blocks() {
            lanes.read_into(&mut scratch)?;
            self.replay_block(&scratch);
        }
        Ok(())
    }
}

impl TraceSink for Replay {
    fn event(&mut self, ev: TraceEvent) {
        self.counts.observe(&ev);
        self.handle(ev);
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

/// Replays a recorded trace under several schemes (the paper's single-
/// trace, many-schemes methodology).
#[must_use]
pub fn replay_source_all(
    source: &dyn TraceSource,
    kinds: &[SchemeKind],
    config: &SimConfig,
) -> Vec<ReplayReport> {
    kinds.iter().map(|kind| replay_source(source, *kind, config)).collect()
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
        let cfg = SimConfig::isca2020();
        let reports = replay_source_all(&trace, &SchemeKind::ALL, &cfg);
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
    fn batched_block_replay_matches_streamed_replay() {
        // The batched engine's acceptance bar: per-block count merging,
        // run-length settlement, and the summary table must leave every
        // modeled number byte-identical to the streamed sink, for every
        // scheme, on both traces — and the zero-copy encoded path must
        // agree too.
        for trace in [legit_trace(), stress_trace()] {
            let cfg = SimConfig::isca2020();
            let blocks = pmo_trace::block::block_trace_of(&trace);
            let encoded = blocks.encode();
            for kind in SchemeKind::ALL {
                let streamed = replay_source(&trace, kind, &cfg);
                let batched = replay_block_trace(&blocks, kind, &cfg);
                assert_eq!(streamed, batched, "{kind}: batched replay diverged");
                let mut replay = Replay::new(kind, &cfg);
                replay.replay_encoded(&encoded).unwrap();
                assert_eq!(streamed, replay.finish(), "{kind}: encoded replay diverged");
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

    #[test]
    fn fault_cap_crossed_inside_one_batch() {
        // 40 same-line denied stores land in a single block; the cap is
        // crossed mid-run. Denied accesses never batch, so truncation
        // must match the streamed path exactly: 32 logged, 8 counted.
        let mut t = RecordedTrace::new();
        t.event(TraceEvent::Attach { pmo: PmoId::new(1), base: BASE, size: 1 << 20, nvm: true });
        for i in 0..40u64 {
            t.store(BASE + (i % 8) * 8, 8); // no permission granted
        }
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
}
