//! Struct-of-arrays event blocks ("PMOB"): the repo's one versioned
//! binary trace format, written to disk by trace capture and iterated
//! zero-copy by the batched replay engine.
//!
//! Every event packs into a 22-byte record of five fields, stored as
//! parallel *lanes* — `tags`, `va` (field `a`), `aux` (field `b`), `size`
//! (field `c`), `id` (field `d`) — grouped into fixed-capacity blocks, so a
//! replay inner loop can scan flat arrays (e.g. run-length batching of
//! consecutive same-line accesses over the `va` lane) without constructing
//! an enum value per event.
//!
//! Layout (all little-endian):
//!
//! ```text
//! header:  magic u32 ("PMOB") | version u16 | flags u16 (0) |
//!          block_events u32 | block_count u32 | total_events u64
//! block:   n u32 | tags[n] u8 | size[n] u8 | id[n] u32 |
//!          va[n] u64 | aux[n] u64
//! ```
//!
//! [`BlockReader`] is the mmap-style view: it borrows an encoded byte
//! slice and exposes per-block [`LaneView`]s whose lanes alias the input
//! buffer directly (no copy, no allocation). [`BlockTrace`] is the owned
//! decoded form with per-block [`EventCounts`] precomputed at build time.

use std::io;

use crate::{
    attach_granule, EventCounts, FaultKind, OpKind, Perm, PmoId, RecordedTrace, ThreadId,
    TraceEvent, TraceSink, TraceSource,
};

/// Block-format magic: "PMOB".
pub const BLOCK_MAGIC: u32 = 0x504d_4f42;
/// Current block-format version.
pub const BLOCK_VERSION: u16 = 1;
/// Default events per block: large enough to amortize per-block work,
/// small enough that a block of 22-byte records stays L2-resident.
pub const DEFAULT_BLOCK_EVENTS: u32 = 4096;

const HEADER_BYTES: usize = 24;

/// Record tag codes (the `tags` lane).
pub mod tag {
    /// `TraceEvent::Compute`.
    pub const COMPUTE: u8 = 0;
    /// `TraceEvent::Load`.
    pub const LOAD: u8 = 1;
    /// `TraceEvent::Store`.
    pub const STORE: u8 = 2;
    /// `TraceEvent::SetPerm`.
    pub const SET_PERM: u8 = 3;
    /// `TraceEvent::Attach`.
    pub const ATTACH: u8 = 4;
    /// `TraceEvent::Detach`.
    pub const DETACH: u8 = 5;
    /// `TraceEvent::ThreadSwitch`.
    pub const THREAD_SWITCH: u8 = 6;
    /// `TraceEvent::Flush`.
    pub const FLUSH: u8 = 7;
    /// `TraceEvent::Fence`.
    pub const FENCE: u8 = 8;
    /// `TraceEvent::Op`.
    pub const OP: u8 = 9;
    /// `TraceEvent::Fault`.
    pub const FAULT: u8 = 10;
    /// `TraceEvent::Shootdown`.
    pub const SHOOTDOWN: u8 = 11;
    /// `TraceEvent::StoreData`.
    pub const STORE_DATA: u8 = 12;
    /// Highest valid tag.
    pub const MAX: u8 = STORE_DATA;
}

/// Packs an event into the `(tag, a, b, c, d)` record fields of the lanes.
fn pack_record(ev: &TraceEvent) -> (u8, u64, u64, u8, u32) {
    match *ev {
        TraceEvent::Compute { count } => (tag::COMPUTE, u64::from(count), 0, 0, 0),
        TraceEvent::Load { va, size } => (tag::LOAD, va, 0, size, 0),
        TraceEvent::Store { va, size } => (tag::STORE, va, 0, size, 0),
        TraceEvent::SetPerm { pmo, perm } => (tag::SET_PERM, 0, 0, perm.encode(), pmo.raw()),
        TraceEvent::Attach { pmo, base, size, nvm } => {
            (tag::ATTACH, base, size, u8::from(nvm), pmo.raw())
        }
        TraceEvent::Detach { pmo } => (tag::DETACH, 0, 0, 0, pmo.raw()),
        TraceEvent::ThreadSwitch { thread } => (tag::THREAD_SWITCH, 0, 0, 0, thread.raw()),
        TraceEvent::Flush { va } => (tag::FLUSH, va, 0, 0, 0),
        TraceEvent::Fence => (tag::FENCE, 0, 0, 0, 0),
        TraceEvent::Op { kind } => (tag::OP, 0, 0, u8::from(matches!(kind, OpKind::End)), 0),
        TraceEvent::Fault { pmo, kind } => {
            let code = match kind {
                FaultKind::PowerFailure => 0,
                FaultKind::TornWrite => 1,
                FaultKind::MediaError => 2,
            };
            (tag::FAULT, 0, 0, code, pmo.raw())
        }
        TraceEvent::Shootdown { pmo } => (tag::SHOOTDOWN, 0, 0, 0, pmo.raw()),
        TraceEvent::StoreData { va, size, data } => (tag::STORE_DATA, va, data, size, 0),
    }
}

/// Unpacks the `(tag, a, b, c, d)` record fields into an event; an unknown
/// tag or fault-kind code is an `InvalidData` error.
fn unpack_record(t: u8, a: u64, b: u64, c: u8, d: u32) -> io::Result<TraceEvent> {
    Ok(match t {
        tag::COMPUTE => TraceEvent::Compute { count: a as u32 },
        tag::LOAD => TraceEvent::Load { va: a, size: c },
        tag::STORE => TraceEvent::Store { va: a, size: c },
        tag::SET_PERM => TraceEvent::SetPerm { pmo: PmoId::from_raw(d), perm: Perm::decode(c) },
        tag::ATTACH => {
            TraceEvent::Attach { pmo: PmoId::from_raw(d), base: a, size: b, nvm: c != 0 }
        }
        tag::DETACH => TraceEvent::Detach { pmo: PmoId::from_raw(d) },
        tag::THREAD_SWITCH => TraceEvent::ThreadSwitch { thread: ThreadId::new(d) },
        tag::FLUSH => TraceEvent::Flush { va: a },
        tag::FENCE => TraceEvent::Fence,
        tag::OP => TraceEvent::Op { kind: if c != 0 { OpKind::End } else { OpKind::Begin } },
        tag::FAULT => TraceEvent::Fault {
            pmo: PmoId::from_raw(d),
            kind: match c {
                0 => FaultKind::PowerFailure,
                1 => FaultKind::TornWrite,
                2 => FaultKind::MediaError,
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown fault kind code {other}"),
                    ))
                }
            },
        },
        tag::SHOOTDOWN => TraceEvent::Shootdown { pmo: PmoId::from_raw(d) },
        tag::STORE_DATA => TraceEvent::StoreData { va: a, size: c, data: b },
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown trace record tag {other}"),
            ))
        }
    })
}

/// Decodes one record read from an encoded image: unpacks it, then
/// rejects what the replay cannot simulate (an access size no single
/// instruction moves, or an attach the granule rule cannot place), so a
/// malformed image is an `InvalidData` error, never a panic in a replay.
fn decode_record(t: u8, a: u64, b: u64, c: u8, d: u32) -> io::Result<TraceEvent> {
    let ev = unpack_record(t, a, b, c, d)?;
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    match ev {
        TraceEvent::Load { size, .. } | TraceEvent::Store { size, .. }
            if !(1..=64).contains(&size) =>
        {
            Err(bad(format!("access size {size} outside 1..=64")))
        }
        TraceEvent::StoreData { size, .. } if !(1..=8).contains(&size) => {
            Err(bad(format!("valued store size {size} outside 1..=8")))
        }
        TraceEvent::Attach { base, size, .. } => {
            attach_granule(base, size).map(|_| ev).map_err(|e| bad(e.to_string()))
        }
        _ => Ok(ev),
    }
}

/// One struct-of-arrays block of events.
///
/// Invariant: all five lanes have equal length, every record unpacks
/// cleanly (tags and fault codes validated on construction; a decoded
/// block also passes the per-record checks of the encoded format), and
/// `counts` reflects exactly the events in the lanes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventBlock {
    tags: Vec<u8>,
    va: Vec<u64>,
    aux: Vec<u64>,
    size: Vec<u8>,
    id: Vec<u32>,
    counts: EventCounts,
}

impl EventBlock {
    /// An empty block with capacity for `block_events` events.
    #[must_use]
    pub fn with_capacity(block_events: u32) -> Self {
        let n = block_events as usize;
        EventBlock {
            tags: Vec::with_capacity(n),
            va: Vec::with_capacity(n),
            aux: Vec::with_capacity(n),
            size: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
            counts: EventCounts::new(),
        }
    }

    /// Number of events in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the block holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Appends one event.
    pub fn push(&mut self, ev: &TraceEvent) {
        let (t, a, b, c, d) = pack_record(ev);
        self.tags.push(t);
        self.va.push(a);
        self.aux.push(b);
        self.size.push(c);
        self.id.push(d);
        self.counts.observe(ev);
    }

    /// The tag lane.
    #[must_use]
    pub fn tags(&self) -> &[u8] {
        &self.tags
    }

    /// The `va` lane (record field `a`: address, compute count, attach base).
    #[must_use]
    pub fn va(&self) -> &[u64] {
        &self.va
    }

    /// The `aux` lane (record field `b`: attach size, store payload).
    #[must_use]
    pub fn aux(&self) -> &[u64] {
        &self.aux
    }

    /// The `size` lane (record field `c`: access size, perm/fault codes).
    #[must_use]
    pub fn size(&self) -> &[u8] {
        &self.size
    }

    /// The `id` lane (record field `d`: PMO or thread ID).
    #[must_use]
    pub fn id(&self) -> &[u32] {
        &self.id
    }

    /// Event counts for exactly this block's events.
    #[must_use]
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// Reconstructs event `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds (records themselves are validated
    /// at construction, so unpacking cannot fail).
    #[must_use]
    pub fn event(&self, i: usize) -> TraceEvent {
        unpack_record(self.tags[i], self.va[i], self.aux[i], self.size[i], self.id[i])
            .expect("block records are validated at construction")
    }

    /// Empties the block, keeping its lane allocations.
    pub fn clear(&mut self) {
        self.tags.clear();
        self.va.clear();
        self.aux.clear();
        self.size.clear();
        self.id.clear();
        self.counts = EventCounts::new();
    }
}

/// An owned trace decoded into struct-of-arrays blocks.
///
/// Build one with [`BlockTrace::from_events`], by streaming events into it
/// (it implements [`TraceSink`]), or by decoding an encoded buffer. It
/// replays like any other [`TraceSource`]; the batched replay engine
/// instead iterates [`BlockTrace::blocks`] directly.
#[derive(Clone, Debug, Default)]
pub struct BlockTrace {
    blocks: Vec<EventBlock>,
    block_events: u32,
    total: u64,
}

impl BlockTrace {
    /// An empty trace with the default block size.
    #[must_use]
    pub fn new() -> Self {
        Self::with_block_events(DEFAULT_BLOCK_EVENTS)
    }

    /// An empty trace splitting lanes every `block_events` events.
    ///
    /// # Panics
    ///
    /// Panics if `block_events` is zero.
    #[must_use]
    pub fn with_block_events(block_events: u32) -> Self {
        assert!(block_events > 0, "block size must be nonzero");
        BlockTrace { blocks: Vec::new(), block_events, total: 0 }
    }

    /// Builds a block trace from a recorded event slice.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut out = Self::new();
        for ev in events {
            out.event(*ev);
        }
        out
    }

    /// Total events across all blocks.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The decoded blocks.
    #[must_use]
    pub fn blocks(&self) -> &[EventBlock] {
        &self.blocks
    }

    /// Event counts merged across all blocks.
    #[must_use]
    pub fn counts(&self) -> EventCounts {
        let mut total = EventCounts::new();
        for block in &self.blocks {
            total.merge(block.counts());
        }
        total
    }

    /// Serializes to the versioned binary block format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.total as usize * 22);
        out.extend_from_slice(&BLOCK_MAGIC.to_le_bytes());
        out.extend_from_slice(&BLOCK_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags
        out.extend_from_slice(&self.block_events.to_le_bytes());
        out.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.total.to_le_bytes());
        for block in &self.blocks {
            out.extend_from_slice(&(block.len() as u32).to_le_bytes());
            out.extend_from_slice(&block.tags);
            out.extend_from_slice(&block.size);
            for v in &block.id {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for v in &block.va {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for v in &block.aux {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Decodes an encoded buffer into owned blocks.
    ///
    /// # Errors
    ///
    /// Fails on a bad magic number, an unsupported version or flags, a
    /// framing mismatch, or an invalid record.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        let reader = BlockReader::new(bytes)?;
        let mut out = Self::with_block_events(reader.block_events().max(1));
        let mut scratch = EventBlock::default();
        for view in reader.blocks() {
            view.read_into(&mut scratch)?;
            out.total += scratch.len() as u64;
            out.blocks.push(std::mem::take(&mut scratch));
        }
        Ok(out)
    }
}

impl TraceSink for BlockTrace {
    fn event(&mut self, ev: TraceEvent) {
        let roll = match self.blocks.last() {
            None => true,
            Some(b) => b.len() >= self.block_events as usize,
        };
        if roll {
            self.blocks.push(EventBlock::with_capacity(self.block_events));
        }
        self.blocks.last_mut().expect("block present").push(&ev);
        self.total += 1;
    }
}

impl TraceSource for BlockTrace {
    fn replay(&self, sink: &mut dyn TraceSink) {
        for block in &self.blocks {
            for i in 0..block.len() {
                sink.event(block.event(i));
            }
        }
    }
}

/// A zero-copy view over an encoded block-format buffer.
///
/// Lanes returned by [`BlockReader::blocks`] borrow the input slice
/// directly — the mmap-style path: map (or read) the file once and replay
/// without materializing events.
#[derive(Clone, Copy, Debug)]
pub struct BlockReader<'a> {
    body: &'a [u8],
    block_events: u32,
    block_count: u32,
    total: u64,
}

impl<'a> BlockReader<'a> {
    /// Validates the header and block framing of an encoded buffer.
    ///
    /// # Errors
    ///
    /// Fails on a bad magic number, an unsupported version or flags, or
    /// truncated / oversized framing.
    pub fn new(bytes: &'a [u8]) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if bytes.len() < HEADER_BYTES {
            return Err(bad("block trace shorter than its header".into()));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        if magic != BLOCK_MAGIC {
            return Err(bad("not a PMO block trace".into()));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version != BLOCK_VERSION {
            return Err(bad(format!("unsupported block trace version {version}")));
        }
        let flags = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
        if flags != 0 {
            return Err(bad(format!("unsupported block trace flags {flags:#x}")));
        }
        let block_events = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let block_count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let total = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let body = &bytes[HEADER_BYTES..];

        // Walk the frame once so iteration can't run off the buffer.
        let mut offset = 0usize;
        let mut seen = 0u64;
        for _ in 0..block_count {
            if body.len() < offset + 4 {
                return Err(bad("truncated block header".into()));
            }
            let n =
                u32::from_le_bytes(body[offset..offset + 4].try_into().expect("4 bytes")) as usize;
            offset = offset
                .checked_add(4 + 22 * n)
                .filter(|end| *end <= body.len())
                .ok_or_else(|| bad("truncated block body".into()))?;
            seen += n as u64;
        }
        if offset != body.len() {
            return Err(bad("trailing bytes after final block".into()));
        }
        if seen != total {
            return Err(bad(format!("header claims {total} events, blocks hold {seen}")));
        }
        Ok(BlockReader { body, block_events, block_count, total })
    }

    /// Total events in the buffer.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the buffer holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The writer's configured events-per-block.
    #[must_use]
    pub fn block_events(&self) -> u32 {
        self.block_events
    }

    /// Number of blocks.
    #[must_use]
    pub fn block_count(&self) -> u32 {
        self.block_count
    }

    /// Iterates borrowed lane views, one per block.
    pub fn blocks(&self) -> impl Iterator<Item = LaneView<'a>> + '_ {
        let mut offset = 0usize;
        let body = self.body;
        (0..self.block_count).map(move |_| {
            // Framing was validated in `new`; these slices cannot be out
            // of bounds.
            let n =
                u32::from_le_bytes(body[offset..offset + 4].try_into().expect("4 bytes")) as usize;
            let tags_at = offset + 4;
            let size_at = tags_at + n;
            let id_at = size_at + n;
            let va_at = id_at + 4 * n;
            let aux_at = va_at + 8 * n;
            offset = aux_at + 8 * n;
            LaneView {
                n,
                tags: &body[tags_at..size_at],
                size: &body[size_at..id_at],
                id: &body[id_at..va_at],
                va: &body[va_at..aux_at],
                aux: &body[aux_at..offset],
            }
        })
    }
}

impl TraceSource for BlockReader<'_> {
    /// # Panics
    ///
    /// Panics on a corrupt record (framing is validated when the reader is
    /// built, record contents lazily; use [`BlockTrace::decode`] for fully
    /// fallible decoding).
    fn replay(&self, sink: &mut dyn TraceSink) {
        for view in self.blocks() {
            for i in 0..view.len() {
                sink.event(view.event(i).expect("corrupt block record"));
            }
        }
    }
}

/// Borrowed lanes of one block; all slices alias the encoded buffer.
#[derive(Clone, Copy, Debug)]
pub struct LaneView<'a> {
    n: usize,
    tags: &'a [u8],
    size: &'a [u8],
    id: &'a [u8],
    va: &'a [u8],
    aux: &'a [u8],
}

impl LaneView<'_> {
    /// Number of events in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the block holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The tag lane (one byte per event, borrowed verbatim).
    #[must_use]
    pub fn tags(&self) -> &[u8] {
        self.tags
    }

    /// The size lane (one byte per event, borrowed verbatim).
    #[must_use]
    pub fn size(&self) -> &[u8] {
        self.size
    }

    /// Record field `a` (address lane) of event `i`.
    #[inline]
    #[must_use]
    pub fn va_at(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.va[8 * i..8 * i + 8].try_into().expect("8 bytes"))
    }

    /// Record field `b` (aux lane) of event `i`.
    #[inline]
    #[must_use]
    pub fn aux_at(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.aux[8 * i..8 * i + 8].try_into().expect("8 bytes"))
    }

    /// Record field `d` (ID lane) of event `i`.
    #[inline]
    #[must_use]
    pub fn id_at(&self, i: usize) -> u32 {
        u32::from_le_bytes(self.id[4 * i..4 * i + 4].try_into().expect("4 bytes"))
    }

    /// Reconstructs event `i`.
    ///
    /// # Errors
    ///
    /// Fails on an invalid record.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn event(&self, i: usize) -> io::Result<TraceEvent> {
        assert!(i < self.n, "event index out of bounds");
        decode_record(self.tags[i], self.va_at(i), self.aux_at(i), self.size[i], self.id_at(i))
    }

    /// Decodes this view into an owned block, reusing `block`'s lane
    /// allocations (the streaming replay path decodes every block into one
    /// scratch block — no per-event or per-block heap churn).
    ///
    /// # Errors
    ///
    /// Fails on an invalid record: an unknown tag or fault code, a load or
    /// store size outside 1..=64, a valued-store size outside 1..=8, or an
    /// attach that is empty, larger than 512GB or off its granule.
    pub fn read_into(&self, block: &mut EventBlock) -> io::Result<()> {
        block.clear();
        block.tags.extend_from_slice(self.tags);
        block.size.extend_from_slice(self.size);
        block.id.extend(
            self.id.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))),
        );
        block.va.extend(
            self.va.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
        );
        block.aux.extend(
            self.aux.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
        );
        for i in 0..self.n {
            let (t, a, c) = (block.tags[i], block.va[i], block.size[i]);
            if let Err(err) = decode_record(t, a, block.aux[i], c, block.id[i]) {
                block.clear();
                return Err(err);
            }
            block.counts.observe_packed(t, a, c);
        }
        Ok(())
    }

    /// Decodes this view into a fresh owned block.
    ///
    /// # Errors
    ///
    /// Fails on an invalid record.
    pub fn to_block(&self) -> io::Result<EventBlock> {
        let mut block = EventBlock::default();
        self.read_into(&mut block)?;
        Ok(block)
    }
}

/// Convenience: records a source's events into a [`BlockTrace`].
#[must_use]
pub fn block_trace_of(source: &dyn TraceSource) -> BlockTrace {
    let mut out = BlockTrace::new();
    source.replay(&mut out);
    out
}

/// Convenience: replays a block trace into a [`RecordedTrace`] (tests).
#[must_use]
pub fn to_recorded(trace: &BlockTrace) -> RecordedTrace {
    let mut out = RecordedTrace::new();
    trace.replay(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Attach {
                pmo: PmoId::new(7),
                base: 0x2000_0000_0000,
                size: 8 << 20,
                nvm: true,
            },
            TraceEvent::ThreadSwitch { thread: ThreadId::new(3) },
            TraceEvent::SetPerm { pmo: PmoId::new(7), perm: Perm::ReadWrite },
            TraceEvent::Load { va: 0x2000_0000_0040, size: 8 },
            TraceEvent::Store { va: 0x2000_0000_0048, size: 4 },
            TraceEvent::StoreData { va: 0x2000_0000_0050, size: 8, data: 0xa11c_0c0a_dead_beef },
            TraceEvent::Compute { count: 1234 },
            TraceEvent::Flush { va: 0x2000_0000_0040 },
            TraceEvent::Fence,
            TraceEvent::Op { kind: OpKind::Begin },
            TraceEvent::Op { kind: OpKind::End },
            TraceEvent::Fault { pmo: PmoId::new(7), kind: FaultKind::TornWrite },
            TraceEvent::Shootdown { pmo: PmoId::new(7) },
            TraceEvent::Detach { pmo: PmoId::new(7) },
        ]
    }

    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        prop_oneof![
            (1u32..5000).prop_map(|count| TraceEvent::Compute { count }),
            (any::<u64>(), 1u8..=64).prop_map(|(va, size)| TraceEvent::Load { va, size }),
            (any::<u64>(), 1u8..=64).prop_map(|(va, size)| TraceEvent::Store { va, size }),
            (any::<u64>(), 1u8..=8, any::<u64>())
                .prop_map(|(va, size, data)| TraceEvent::StoreData { va, size, data }),
            (1u32..64, 0u8..4).prop_map(|(pmo, code)| TraceEvent::SetPerm {
                pmo: PmoId::new(pmo),
                perm: Perm::decode(code),
            }),
            // Attach bases sit on their granule, as the format requires.
            (1u32..64, 0u64..1 << 24, 1u64..(1 << 30), any::<bool>()).prop_map(
                |(pmo, slot, size, nvm)| TraceEvent::Attach {
                    pmo: PmoId::new(pmo),
                    base: slot * crate::granule_for(size).expect("size in 1..1GB"),
                    size,
                    nvm,
                }
            ),
            (1u32..64).prop_map(|pmo| TraceEvent::Detach { pmo: PmoId::new(pmo) }),
            (0u32..16).prop_map(|t| TraceEvent::ThreadSwitch { thread: ThreadId::new(t) }),
            any::<u64>().prop_map(|va| TraceEvent::Flush { va }),
            Just(TraceEvent::Fence),
            Just(TraceEvent::Op { kind: OpKind::Begin }),
            Just(TraceEvent::Op { kind: OpKind::End }),
            (1u32..64, 0u8..3).prop_map(|(pmo, code)| TraceEvent::Fault {
                pmo: PmoId::new(pmo),
                kind: match code {
                    0 => FaultKind::PowerFailure,
                    1 => FaultKind::TornWrite,
                    _ => FaultKind::MediaError,
                },
            }),
            (1u32..64).prop_map(|pmo| TraceEvent::Shootdown { pmo: PmoId::new(pmo) }),
        ]
    }

    #[test]
    fn record_packing_roundtrips_every_event_kind() {
        for ev in sample() {
            let (t, a, b, c, d) = pack_record(&ev);
            assert_eq!(unpack_record(t, a, b, c, d).unwrap(), ev, "{ev:?}");
        }
        assert!(unpack_record(tag::MAX + 1, 0, 0, 0, 0).is_err());
        assert!(unpack_record(tag::FAULT, 0, 0, 3, 0).is_err(), "bad fault code");
    }

    #[test]
    fn blocks_split_at_the_configured_size() {
        let mut trace = BlockTrace::with_block_events(4);
        for ev in sample() {
            trace.event(ev);
        }
        assert_eq!(trace.len(), 14);
        assert_eq!(trace.blocks().len(), 4, "14 events over 4-event blocks");
        assert_eq!(trace.blocks()[0].len(), 4);
        assert_eq!(trace.blocks()[3].len(), 2);
        let merged = trace.counts();
        assert_eq!(merged.events, 14);
        assert_eq!(merged.stores, 2, "Store + StoreData");
        assert_eq!(merged.computes, 1234);
    }

    #[test]
    fn per_block_counts_match_a_streamed_count() {
        let trace = BlockTrace::from_events(&sample());
        let mut streamed = EventCounts::new();
        for ev in sample() {
            streamed.observe(&ev);
        }
        assert_eq!(trace.counts(), streamed);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut trace = BlockTrace::with_block_events(5);
        for ev in sample() {
            trace.event(ev);
        }
        let bytes = trace.encode();
        let back = BlockTrace::decode(&bytes).unwrap();
        assert_eq!(back.len(), trace.len());
        assert_eq!(to_recorded(&back).events(), sample().as_slice());
        assert_eq!(back.counts(), trace.counts());
    }

    #[test]
    fn zero_copy_reader_reconstructs_every_event() {
        let trace = BlockTrace::from_events(&sample());
        let bytes = trace.encode();
        let reader = BlockReader::new(&bytes).unwrap();
        assert_eq!(reader.len(), 14);
        assert_eq!(reader.block_events(), DEFAULT_BLOCK_EVENTS);
        let mut replayed = RecordedTrace::new();
        reader.replay(&mut replayed);
        assert_eq!(replayed.events(), sample().as_slice());
        // Lane accessors agree with the reconstructed events.
        let view = reader.blocks().next().unwrap();
        assert_eq!(view.tags()[3], tag::LOAD);
        assert_eq!(view.va_at(3), 0x2000_0000_0040);
        assert_eq!(view.size()[3], 8);
        assert_eq!(view.aux_at(5), 0xa11c_0c0a_dead_beef);
        assert_eq!(view.id_at(0), 7);
    }

    #[test]
    fn rejects_wrong_magic_version_flags_and_framing() {
        let bytes = BlockTrace::from_events(&sample()).encode();

        let mut wrong_magic = bytes.clone();
        wrong_magic[0..4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        assert!(BlockReader::new(&wrong_magic).is_err());

        let mut wrong_version = bytes.clone();
        wrong_version[4..6].copy_from_slice(&(BLOCK_VERSION + 1).to_le_bytes());
        assert!(BlockReader::new(&wrong_version).is_err(), "future version rejected");
        assert!(BlockTrace::decode(&wrong_version).is_err());

        let mut wrong_flags = bytes.clone();
        wrong_flags[6..8].copy_from_slice(&1u16.to_le_bytes());
        assert!(BlockReader::new(&wrong_flags).is_err());

        let truncated = &bytes[..bytes.len() - 1];
        assert!(BlockReader::new(truncated).is_err());

        let mut wrong_total = bytes.clone();
        wrong_total[16..24].copy_from_slice(&999u64.to_le_bytes());
        assert!(BlockReader::new(&wrong_total).is_err());

        assert!(BlockReader::new(b"PMOB").is_err(), "shorter than the header");
    }

    #[test]
    fn decode_rejects_corrupt_records() {
        let trace = BlockTrace::from_events(&sample());
        let mut bytes = trace.encode();
        // First tag byte lives right after the header + block length.
        bytes[HEADER_BYTES + 4] = 250;
        assert!(BlockReader::new(&bytes).is_ok(), "framing is still valid");
        assert!(BlockTrace::decode(&bytes).is_err(), "record validation fails");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = BlockTrace::new();
        let bytes = trace.encode();
        let back = BlockTrace::decode(&bytes).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.counts(), EventCounts::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn roundtrip_is_identity(
            events in prop::collection::vec(arb_event(), 0..400),
            block_events in 1u32..48,
        ) {
            let mut trace = BlockTrace::with_block_events(block_events);
            for ev in &events {
                trace.event(*ev);
            }
            prop_assert_eq!(trace.len(), events.len() as u64);

            // Owned replay reproduces the input exactly.
            let replayed = to_recorded(&trace);
            prop_assert_eq!(replayed.events(), events.as_slice());

            // Encode -> zero-copy reader -> replay is also the identity.
            let bytes = trace.encode();
            let reader = BlockReader::new(&bytes)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let mut via_reader = RecordedTrace::new();
            reader.replay(&mut via_reader);
            prop_assert_eq!(via_reader.events(), events.as_slice());

            // Encode -> owned decode preserves events and merged counts.
            let back = BlockTrace::decode(&bytes)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let back_recorded = to_recorded(&back);
            prop_assert_eq!(back_recorded.events(), events.as_slice());
            let mut streamed = EventCounts::new();
            for ev in &events {
                streamed.observe(ev);
            }
            prop_assert_eq!(back.counts(), streamed);
        }

        #[test]
        fn truncated_buffers_return_typed_errors(
            events in prop::collection::vec(arb_event(), 0..200),
            cut_seed in any::<u64>(),
        ) {
            let bytes = BlockTrace::from_events(&events).encode();
            // Every strict prefix must fail the frame walk: the header's
            // block count and event total cannot be satisfied by fewer
            // bytes. Typed errors, never a panic or out-of-bounds read.
            let cut = (cut_seed % bytes.len() as u64) as usize;
            let prefix = &bytes[..cut];
            let reader_err =
                BlockReader::new(prefix).err().ok_or_else(|| {
                    TestCaseError::fail(format!("prefix of {cut} bytes accepted"))
                })?;
            prop_assert_eq!(reader_err.kind(), io::ErrorKind::InvalidData);
            let decode_err = BlockTrace::decode(prefix).err().ok_or_else(|| {
                TestCaseError::fail(format!("prefix of {cut} bytes decoded"))
            })?;
            prop_assert_eq!(decode_err.kind(), io::ErrorKind::InvalidData);
        }

        #[test]
        fn bit_flips_never_panic_or_read_out_of_bounds(
            events in prop::collection::vec(arb_event(), 0..200),
            pos_seed in any::<u64>(),
            bit in 0u8..8,
        ) {
            let mut bytes = BlockTrace::from_events(&events).encode();
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << bit;
            // Corruption anywhere — magic, framing, lanes — surfaces as
            // a typed error or a clean decode of the altered contents;
            // never a panic or a read past the buffer.
            match BlockTrace::decode(&bytes) {
                Ok(back) => {
                    let replayed = to_recorded(&back);
                    prop_assert_eq!(replayed.events().len() as u64, back.len());
                }
                Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            }
        }
    }

    #[test]
    fn zero_event_blocks_frame_cleanly_and_lying_totals_error() {
        // A hand-built buffer of three zero-event blocks: a writer never
        // emits one, but the reader must frame it gracefully.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BLOCK_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&BLOCK_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes()); // flags
        bytes.extend_from_slice(&8u32.to_le_bytes()); // block_events
        bytes.extend_from_slice(&3u32.to_le_bytes()); // block_count
        bytes.extend_from_slice(&0u64.to_le_bytes()); // total
        for _ in 0..3 {
            bytes.extend_from_slice(&0u32.to_le_bytes()); // n = 0
        }
        let reader = BlockReader::new(&bytes).unwrap();
        assert!(reader.is_empty());
        assert_eq!(reader.block_count(), 3);
        assert_eq!(reader.blocks().count(), 3);
        let back = BlockTrace::decode(&bytes).unwrap();
        assert!(back.is_empty());

        // The same frame with a header claiming events no block holds is
        // a typed error, not a crash during iteration.
        bytes[16..24].copy_from_slice(&5u64.to_le_bytes());
        let err = BlockReader::new(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(BlockTrace::decode(&bytes).is_err());
    }
}
