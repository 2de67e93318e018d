//! The per-process PMO runtime: Table I API, attach/detach, accessors.

use std::collections::BTreeMap;

use pmo_trace::{Perm, PmoId, TraceEvent, TraceSink, Va};

use crate::addrspace::AddressSpace;
use crate::error::{Result, RuntimeError};
use crate::layout::{
    hdr, heap_base_for, log_bytes_for, slot_size, ALLOC_HEADER, ALLOC_MAGIC, FREED_MAGIC,
    HEADER_SIZE, POOL_MAGIC,
};
use crate::namespace::{AttachIntent, Mode, Namespace, PmoTable, PoolHealth, Uid};
use crate::oid::Oid;
use crate::storage::{FaultPlan, LINE};

/// Description of one live attachment.
#[derive(Clone, Debug)]
pub struct Attachment {
    /// PMO / domain ID.
    pub id: PmoId,
    /// Pool name.
    pub name: String,
    /// Base virtual address of the reserved region.
    pub base: Va,
    /// Reserved region size (page-table granule covering the pool).
    pub region: u64,
    /// Actual pool size in bytes.
    pub size: u64,
    /// Declared intent.
    pub intent: AttachIntent,
}

/// Report of a redo-log recovery performed during attach.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log entries replayed to their home locations.
    pub entries_replayed: u64,
    /// Bytes of payload replayed.
    pub bytes_replayed: u64,
    /// Log entries discarded because the log's tail was torn (bounds or
    /// checksum check failed past the last valid record).
    pub truncated_entries: u64,
}

/// Report of a pool scrub (maintenance wipe + reformat).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Poisoned media lines the scrub remapped.
    pub poisoned_cleared: u64,
    /// The quarantine reason the scrub lifted, if the pool had been
    /// quarantined.
    pub quarantine_released: Option<&'static str>,
}

/// The runtime's open durable transaction: writes against its pool are
/// staged here instead of hitting storage, and applied atomically (via
/// the redo log) at commit.
#[derive(Debug)]
struct ActiveTxn {
    pool: PmoId,
    /// Staged writes: (pool offset, bytes), in program order.
    writes: Vec<(u32, Vec<u8>)>,
    /// Frees staged by [`PmRuntime::pfree`]: (alloc-header offset, slot
    /// size). Pushed onto the volatile free lists only at commit, so a
    /// discarded transaction never recycles memory it failed to unlink.
    frees: Vec<(u32, u64)>,
}

/// The per-process PMO runtime.
///
/// Owns the simulated OS namespace and the process address space, and
/// implements the pool API of Table I (`pool_create`, `pool_open`,
/// `pool_close`, `pool_root`, `pmalloc`, `pfree`, `oid_direct`) plus typed
/// accessors that perform *functional* reads/writes against the simulated
/// NVM while emitting trace events for the timing simulator.
///
/// # Example
///
/// ```
/// use pmo_runtime::{Mode, PmRuntime};
/// use pmo_trace::NullSink;
///
/// # fn main() -> Result<(), pmo_runtime::RuntimeError> {
/// let mut rt = PmRuntime::new();
/// let mut sink = NullSink::new();
/// let pool = rt.pool_create("accounts", 1 << 20, Mode::private(), &mut sink)?;
/// let obj = rt.pmalloc(pool, 64, &mut sink)?;
/// rt.write_u64(obj, 0, 42, &mut sink)?;
/// assert_eq!(rt.read_u64(obj, 0, &mut sink)?, 42);
/// rt.pool_close(pool, &mut sink)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PmRuntime {
    ns: Namespace,
    aspace: AddressSpace,
    attached: PmoTable<Attachment>,
    free_lists: BTreeMap<PmoId, BTreeMap<u64, Vec<u32>>>,
    uid: Uid,
    last_recovery: Option<RecoveryReport>,
    txn: Option<ActiveTxn>,
}

impl Default for PmRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl PmRuntime {
    /// Creates a runtime with an empty namespace, running as uid 0.
    #[must_use]
    pub fn new() -> Self {
        PmRuntime {
            ns: Namespace::new(),
            aspace: AddressSpace::new(),
            attached: PmoTable::default(),
            free_lists: BTreeMap::new(),
            uid: 0,
            last_recovery: None,
            txn: None,
        }
    }

    /// Changes the calling user (for namespace permission tests).
    pub fn set_uid(&mut self, uid: Uid) {
        self.uid = uid;
    }

    /// Enables MERR-style randomized attach placement: subsequent
    /// attaches land at unpredictable granule-aligned addresses, making
    /// PMO locations differ across sessions. Relocatable OIDs keep
    /// resolving regardless of placement.
    pub fn enable_aslr(&mut self, seed: u64) {
        self.aspace.randomize(seed);
    }

    /// The calling user.
    #[must_use]
    pub fn uid(&self) -> Uid {
        self.uid
    }

    /// The OS namespace (inspection / direct manipulation in tests).
    #[must_use]
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// Mutable access to the namespace (e.g. to set attach keys).
    pub fn namespace_mut(&mut self) -> &mut Namespace {
        &mut self.ns
    }

    /// The recovery report of the most recent attach, if that attach
    /// replayed a committed redo log.
    #[must_use]
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        self.last_recovery
    }

    // ---------------------------------------------------------------
    // Table I API
    // ---------------------------------------------------------------

    /// `pool_create(name, size, mode)`: creates a pool and attaches it
    /// read-write. The calling user becomes the owner.
    ///
    /// # Errors
    ///
    /// Fails if the name is taken, the size is zero, or the VA arena is
    /// exhausted.
    pub fn pool_create(
        &mut self,
        name: &str,
        size: u64,
        mode: Mode,
        sink: &mut dyn TraceSink,
    ) -> Result<PmoId> {
        let id = self.ns.create(name, size, mode, self.uid)?;
        // Initialize the persistent header.
        let entry = self.ns.entry_mut(id).expect("just created");
        format_header(&mut entry.storage, size);
        let id = self.attach_named(name, AttachIntent::ReadWrite, None, sink)?;
        // Re-emit the header formatting as valued stores, then trace the
        // header persist (clwb + fence), now that the attach event
        // established the pool's address range: a trace recorded from
        // pool birth thus carries the complete byte image of the pool,
        // which crash-image enumeration depends on, and analyzer
        // coverage matches what the fault model actually reverts.
        let base = self.attachment(id)?.base;
        // The formatting stores are sanctioned: open a write window around
        // them so raw (unguarded) traces still pass the permission audit.
        // Guarded sinks wrap each store in its own window too; SetPerm is
        // idempotent under the audit, so the nesting is harmless.
        sink.event(TraceEvent::SetPerm { pmo: id, perm: Perm::ReadWrite });
        for (field, value) in [
            (hdr::MAGIC, POOL_MAGIC),
            (hdr::HEAP_TOP, heap_base_for(size)),
            (hdr::ROOT_OID, 0),
            (hdr::ROOT_SIZE, 0),
            (hdr::COMMIT_FLAG, 0),
            (hdr::LOG_BASE, HEADER_SIZE),
            (hdr::LOG_SIZE, log_bytes_for(size)),
        ] {
            sink.store_valued(base + field, 8, value);
        }
        sink.event(TraceEvent::SetPerm { pmo: id, perm: Perm::None });
        self.persist_header(id, sink)?;
        Ok(id)
    }

    /// `pool_open(name, mode)`: attaches an existing pool with the given
    /// intent, running crash recovery if a committed redo log is pending.
    ///
    /// # Errors
    ///
    /// Fails if the pool does not exist, the mode/attach-key check fails,
    /// or the single-writer policy is violated.
    pub fn pool_open(
        &mut self,
        name: &str,
        intent: AttachIntent,
        sink: &mut dyn TraceSink,
    ) -> Result<PmoId> {
        self.attach_named(name, intent, None, sink)
    }

    /// Like [`PmRuntime::pool_open`], presenting an attach key.
    pub fn pool_open_with_key(
        &mut self,
        name: &str,
        intent: AttachIntent,
        key: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<PmoId> {
        self.attach_named(name, intent, Some(key), sink)
    }

    fn attach_named(
        &mut self,
        name: &str,
        intent: AttachIntent,
        key: Option<u64>,
        sink: &mut dyn TraceSink,
    ) -> Result<PmoId> {
        let id = self.ns.acquire(name, self.uid, intent, key)?;
        if self.attached.get(id).is_some() {
            self.ns.release(id, intent)?;
            return Err(RuntimeError::AlreadyAttached(id));
        }
        let size = self.ns.entry(id)?.storage.size();
        let Some((base, region)) = self.aspace.reserve(size) else {
            self.ns.release(id, intent)?;
            return Err(RuntimeError::OutOfMemory { pmo: id, requested: size });
        };
        self.attached
            .insert(id, Attachment { id, name: name.to_string(), base, region, size, intent });
        sink.event(TraceEvent::Attach { pmo: id, base, size, nvm: true });
        match self.recover(id, sink) {
            Ok(report) => {
                self.last_recovery = report;
                Ok(id)
            }
            Err(e) => {
                // Recovery refused the pool (quarantine, media damage, ...):
                // roll the attach back completely so no half-attached state
                // lingers — release the VA reservation and the namespace
                // lock, and undo the trace event.
                let att = self.attached.remove(id).expect("inserted above");
                self.aspace.release(att.base, att.region);
                self.ns.release(id, intent)?;
                sink.event(TraceEvent::Detach { pmo: id });
                sink.event(TraceEvent::Shootdown { pmo: id });
                Err(e)
            }
        }
    }

    /// `pool_close(pool)`: detaches the pool from the address space.
    ///
    /// # Errors
    ///
    /// Fails if the pool is not attached.
    pub fn pool_close(&mut self, id: PmoId, sink: &mut dyn TraceSink) -> Result<()> {
        let att = self.attached.remove(id).ok_or(RuntimeError::NotAttached(id))?;
        self.aspace.release(att.base, att.region);
        self.free_lists.remove(&id);
        self.ns.release(id, att.intent)?;
        sink.event(TraceEvent::Detach { pmo: id });
        // The detach system call completes its ranged shootdown before
        // returning (§IV.B); record that ordering in the trace.
        sink.event(TraceEvent::Shootdown { pmo: id });
        Ok(())
    }

    /// `pool_delete(name)`: destroys a pool and its data. The pool must
    /// not be attached (detach it first) and the caller must own it.
    ///
    /// # Errors
    ///
    /// Fails if the pool does not exist, is attached, or is owned by
    /// another user.
    pub fn pool_delete(&mut self, name: &str) -> Result<()> {
        self.ns.destroy(name, self.uid)
    }

    /// `pool_scrub(name)`: wipes a pool's media back to zero, reformats
    /// a fresh header, and releases any sticky quarantine, making the
    /// pool attachable again. Contents are lost by design — this is the
    /// operator's recovery path for a quarantined pool, trading data for
    /// availability once forensics are done. A repeat media error after
    /// the scrub quarantines again exactly like the first: scrubbing
    /// clears the flag, never the mechanism.
    ///
    /// # Errors
    ///
    /// Fails if the pool does not exist, the caller does not own it, or
    /// anyone (including the caller) has it attached.
    pub fn pool_scrub(&mut self, name: &str) -> Result<ScrubReport> {
        let uid = self.uid;
        let entry = self.ns.entry_mut_by_name(name)?;
        if entry.owner != uid {
            return Err(RuntimeError::PermissionDenied {
                name: name.to_string(),
                reason: "only the owner may scrub a pool",
            });
        }
        if entry.readers > 0 || entry.writers > 0 {
            return Err(RuntimeError::ExclusivelyHeld(name.to_string()));
        }
        let poisoned_cleared = entry.storage.scrub();
        let size = entry.storage.size();
        format_header(&mut entry.storage, size);
        let quarantine_released = entry.release_quarantine()?;
        Ok(ScrubReport { poisoned_cleared, quarantine_released })
    }

    /// Materializes a pool from an enumerated crash image: registers a
    /// fresh, *unformatted* pool of `size` bytes and installs each
    /// `(line, bytes)` pair directly onto media as persisted state. No
    /// trace events are emitted (this is kernel context, like recovery
    /// itself). A subsequent [`PmRuntime::pool_open`] runs the real
    /// recovery path against exactly this image — which is the point:
    /// crash-image enumeration hands every image it derives from a trace
    /// to the same recovery code a genuine power failure would exercise.
    ///
    /// # Errors
    ///
    /// Fails if the name is taken, the size is zero, or a line lies
    /// outside the pool.
    pub fn materialize_pool(
        &mut self,
        name: &str,
        size: u64,
        mode: Mode,
        lines: &[(u64, [u8; LINE as usize])],
    ) -> Result<PmoId> {
        for &(line, _) in lines {
            if line * LINE >= size {
                return Err(RuntimeError::InvalidOid {
                    oid: line * LINE,
                    reason: "crash-image line lies outside the pool",
                });
            }
        }
        let id = self.ns.create(name, size, mode, self.uid)?;
        let entry = self.ns.entry_mut(id).expect("just created");
        for (line, img) in lines {
            entry.storage.install_line(*line, img);
        }
        Ok(id)
    }

    /// `pool_root(pool, size)`: returns the root object, allocating it on
    /// first use. The root is the programmer-designed directory of the
    /// pool's contents.
    ///
    /// # Errors
    ///
    /// Fails if the pool is not attached or the allocation fails.
    pub fn pool_root(&mut self, id: PmoId, size: u64, sink: &mut dyn TraceSink) -> Result<Oid> {
        let existing = self.header_u64(id, hdr::ROOT_OID, sink)?;
        if existing != 0 {
            return Ok(Oid::from_raw(existing));
        }
        if size == 0 {
            return Err(RuntimeError::InvalidSize(0));
        }
        let root = self.pmalloc(id, size, sink)?;
        self.write_header_u64(id, hdr::ROOT_OID, root.to_raw(), sink)?;
        self.write_header_u64(id, hdr::ROOT_SIZE, size, sink)?;
        self.persist_header(id, sink)?;
        Ok(root)
    }

    /// `pmalloc(pool, size)`: allocates persistent bytes; returns the OID
    /// of the first usable byte.
    ///
    /// # Errors
    ///
    /// Fails if the pool is not attached (or attached read-only), the size
    /// is zero, or the heap is exhausted.
    pub fn pmalloc(&mut self, id: PmoId, size: u64, sink: &mut dyn TraceSink) -> Result<Oid> {
        if size == 0 {
            return Err(RuntimeError::InvalidSize(0));
        }
        let att = self.attachment(id)?;
        if !att.intent.writes() {
            return Err(RuntimeError::AccessViolation {
                pmo: id,
                offset: 0,
                reason: "pmalloc through a read-only attachment",
            });
        }
        let pool_size = att.size;
        let slot = slot_size(size);
        // First try the (volatile) free list for this slot size.
        if let Some(off) =
            self.free_lists.get_mut(&id).and_then(|lists| lists.get_mut(&slot)).and_then(Vec::pop)
        {
            self.write_alloc_header(id, off, size as u32, ALLOC_MAGIC, sink)?;
            sink.compute(10);
            return Ok(Oid::new(id, off + ALLOC_HEADER as u32));
        }
        // Bump allocation: heap_top lives in the persistent header.
        let top = self.header_u64(id, hdr::HEAP_TOP, sink)?;
        if top + slot > pool_size {
            return Err(RuntimeError::OutOfMemory { pmo: id, requested: size });
        }
        self.write_header_u64(id, hdr::HEAP_TOP, top + slot, sink)?;
        self.flush_header_line(id, hdr::HEAP_TOP, sink)?;
        self.write_alloc_header(id, top as u32, size as u32, ALLOC_MAGIC, sink)?;
        sink.compute(20);
        Ok(Oid::new(id, top as u32 + ALLOC_HEADER as u32))
    }

    /// `pfree(oid)`: frees a persistent allocation.
    ///
    /// Inside an open transaction the free is as failure-atomic as the
    /// caller's unlink writes: the allocation-header flip is staged with
    /// them and the (volatile) free-list push is deferred to commit. A
    /// discarded or crashed transaction therefore leaves the allocation
    /// live — it is still reachable from the structure the unlink never
    /// reached.
    ///
    /// # Errors
    ///
    /// Fails if the OID does not reference a live allocation.
    pub fn pfree(&mut self, oid: Oid, sink: &mut dyn TraceSink) -> Result<()> {
        let id = oid.pool();
        let hdr_off = oid
            .offset()
            .checked_sub(ALLOC_HEADER as u32)
            .ok_or(RuntimeError::InvalidOid { oid: oid.to_raw(), reason: "offset before heap" })?;
        let (size, magic) = self.read_alloc_header(id, hdr_off, sink)?;
        if magic != ALLOC_MAGIC {
            return Err(RuntimeError::InvalidOid {
                oid: oid.to_raw(),
                reason: "not a live allocation",
            });
        }
        let slot = slot_size(u64::from(size));
        if self.txn.as_ref().is_some_and(|t| t.pool == id) {
            let mut buf = [0u8; 8];
            buf[..4].copy_from_slice(&size.to_le_bytes());
            buf[4..].copy_from_slice(&FREED_MAGIC.to_le_bytes());
            self.write_bytes(Oid::new(id, hdr_off), 0, &buf, sink)?;
            if let Some(txn) = &mut self.txn {
                txn.frees.push((hdr_off, slot));
            }
            sink.compute(10);
            return Ok(());
        }
        self.write_alloc_header(id, hdr_off, size, FREED_MAGIC, sink)?;
        self.free_lists.entry(id).or_default().entry(slot).or_default().push(hdr_off);
        sink.compute(10);
        Ok(())
    }

    /// `oid_direct(oid)`: translates an OID to its current virtual address.
    ///
    /// # Errors
    ///
    /// Fails if the OID's pool is not attached or the offset is outside it.
    pub fn oid_direct(&self, oid: Oid) -> Result<Va> {
        let att = self.attachment(oid.pool())?;
        if u64::from(oid.offset()) >= att.size {
            return Err(RuntimeError::InvalidOid {
                oid: oid.to_raw(),
                reason: "offset beyond pool size",
            });
        }
        Ok(att.base + u64::from(oid.offset()))
    }

    // ---------------------------------------------------------------
    // Typed accessors (functional + trace emission)
    // ---------------------------------------------------------------

    /// Reads `buf.len()` bytes starting `delta` bytes past `oid`.
    ///
    /// # Errors
    ///
    /// Fails if the pool is not attached or the range is out of bounds.
    pub fn read_bytes(
        &mut self,
        oid: Oid,
        delta: u32,
        buf: &mut [u8],
        sink: &mut dyn TraceSink,
    ) -> Result<()> {
        let oid = oid.add(delta);
        let va = self.oid_direct(oid)?;
        let entry = self.ns.entry(oid.pool())?;
        entry.storage.read(u64::from(oid.offset()), buf)?;
        // Read-your-writes: overlay the open transaction's staged data,
        // newest staged write last.
        if let Some(txn) = &self.txn {
            if txn.pool == oid.pool() {
                let start = u64::from(oid.offset());
                let end = start + buf.len() as u64;
                for (w_off, data) in &txn.writes {
                    let w_start = u64::from(*w_off);
                    let w_end = w_start + data.len() as u64;
                    let lo = start.max(w_start);
                    let hi = end.min(w_end);
                    if lo < hi {
                        buf[(lo - start) as usize..(hi - start) as usize].copy_from_slice(
                            &data[(lo - w_start) as usize..(hi - w_start) as usize],
                        );
                    }
                }
            }
        }
        emit_chunked_load(sink, va, buf.len() as u64);
        Ok(())
    }

    /// Writes `bytes` starting `delta` bytes past `oid`.
    ///
    /// # Errors
    ///
    /// Fails if the pool is not attached, attached read-only, or the range
    /// is out of bounds.
    pub fn write_bytes(
        &mut self,
        oid: Oid,
        delta: u32,
        bytes: &[u8],
        sink: &mut dyn TraceSink,
    ) -> Result<()> {
        let oid = oid.add(delta);
        let va = self.oid_direct(oid)?;
        let att = self.attachment(oid.pool())?;
        if !att.intent.writes() {
            return Err(RuntimeError::AccessViolation {
                pmo: oid.pool(),
                offset: u64::from(oid.offset()),
                reason: "write through read-only attachment",
            });
        }
        let att_size = att.size;
        // An open transaction intercepts writes to its pool: they are
        // staged in volatile memory and reach storage atomically at
        // commit. Writes to any other pool are refused — atomicity
        // cannot span pools.
        if let Some(txn) = &mut self.txn {
            if txn.pool != oid.pool() {
                return Err(RuntimeError::InvalidOid {
                    oid: oid.to_raw(),
                    reason: "write outside the transaction's pool",
                });
            }
            if u64::from(oid.offset()) + bytes.len() as u64 > att_size {
                return Err(RuntimeError::InvalidOid {
                    oid: oid.to_raw(),
                    reason: "write beyond pool size",
                });
            }
            txn.writes.push((oid.offset(), bytes.to_vec()));
            // Staging costs a few instructions but no persistent traffic.
            sink.compute(4);
            return Ok(());
        }
        let entry = self.ns.entry_mut(oid.pool())?;
        entry.storage.write(u64::from(oid.offset()), bytes)?;
        emit_chunked_store(sink, va, bytes);
        Ok(())
    }

    /// Reads a `u64` at `oid + delta`.
    pub fn read_u64(&mut self, oid: Oid, delta: u32, sink: &mut dyn TraceSink) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.read_bytes(oid, delta, &mut buf, sink)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a `u64` at `oid + delta`.
    pub fn write_u64(
        &mut self,
        oid: Oid,
        delta: u32,
        value: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<()> {
        self.write_bytes(oid, delta, &value.to_le_bytes(), sink)
    }

    /// Reads a `u32` at `oid + delta`.
    pub fn read_u32(&mut self, oid: Oid, delta: u32, sink: &mut dyn TraceSink) -> Result<u32> {
        let mut buf = [0u8; 4];
        self.read_bytes(oid, delta, &mut buf, sink)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Writes a `u32` at `oid + delta`.
    pub fn write_u32(
        &mut self,
        oid: Oid,
        delta: u32,
        value: u32,
        sink: &mut dyn TraceSink,
    ) -> Result<()> {
        self.write_bytes(oid, delta, &value.to_le_bytes(), sink)
    }

    /// Reads a persistent pointer (OID) at `oid + delta`.
    pub fn read_oid(&mut self, oid: Oid, delta: u32, sink: &mut dyn TraceSink) -> Result<Oid> {
        Ok(Oid::from_raw(self.read_u64(oid, delta, sink)?))
    }

    /// Writes a persistent pointer (OID) at `oid + delta`.
    pub fn write_oid(
        &mut self,
        oid: Oid,
        delta: u32,
        value: Oid,
        sink: &mut dyn TraceSink,
    ) -> Result<()> {
        self.write_u64(oid, delta, value.to_raw(), sink)
    }

    /// Persists `[oid + delta, oid + delta + len)`: flushes each dirty line
    /// (`clwb`) and issues a fence.
    ///
    /// # Errors
    ///
    /// Fails if the pool is not attached.
    pub fn persist(
        &mut self,
        oid: Oid,
        delta: u32,
        len: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<()> {
        let oid = oid.add(delta);
        let va = self.oid_direct(oid)?;
        let entry = self.ns.entry_mut(oid.pool())?;
        entry.storage.flush_range(u64::from(oid.offset()), len);
        let mut line = va & !(LINE - 1);
        while line < va + len.max(1) {
            sink.event(TraceEvent::Flush { va: line });
            line += LINE;
        }
        sink.event(TraceEvent::Fence);
        Ok(())
    }

    // ---------------------------------------------------------------
    // Durable transactions (runtime-scoped staging)
    // ---------------------------------------------------------------

    /// Opens a durable transaction on `pool`. Until [`PmRuntime::txn_commit`]
    /// (or [`PmRuntime::txn_discard`]), every `write_*` against the pool is
    /// staged in volatile memory instead of reaching storage, and reads
    /// overlay the staged data (read-your-writes). Whole data-structure
    /// operations driven through the runtime between begin and commit thus
    /// become failure-atomic as a unit.
    ///
    /// [`PmRuntime::begin_txn`](crate::Transaction) wraps this in an RAII
    /// guard that discards the staging on drop.
    ///
    /// # Errors
    ///
    /// Fails if the pool is not attached, is attached read-only, or a
    /// transaction is already open (transactions do not nest).
    pub fn txn_begin(&mut self, pool: PmoId) -> Result<()> {
        if let Some(txn) = &self.txn {
            return Err(RuntimeError::TxnInProgress(txn.pool));
        }
        let att = self.attachment(pool)?;
        if !att.intent.writes() {
            return Err(RuntimeError::AccessViolation {
                pmo: pool,
                offset: 0,
                reason: "transaction on read-only attachment",
            });
        }
        self.txn = Some(ActiveTxn { pool, writes: Vec::new(), frees: Vec::new() });
        Ok(())
    }

    /// Pool of the currently open transaction, if any.
    #[must_use]
    pub fn txn_active(&self) -> Option<PmoId> {
        self.txn.as_ref().map(|t| t.pool)
    }

    /// Number of writes staged in the open transaction (0 when none).
    #[must_use]
    pub fn txn_staged(&self) -> usize {
        self.txn.as_ref().map_or(0, |t| t.writes.len())
    }

    /// Aborts the open transaction: every staged write is discarded and
    /// storage is untouched. A no-op when no transaction is open.
    pub fn txn_discard(&mut self) {
        self.txn = None;
    }

    /// Commits the open transaction: writes the redo log, sets the commit
    /// flag, applies the staged writes home, clears the flag — atomic with
    /// respect to crashes at any store. A no-op when no transaction is
    /// open or nothing was staged.
    ///
    /// # Errors
    ///
    /// Fails if the staged writes exceed the pool's log area, or with
    /// [`RuntimeError::PowerFailure`] when an armed fault fires mid-
    /// protocol (the staging is consumed either way; recover by crashing
    /// and re-attaching).
    pub fn txn_commit(&mut self, sink: &mut dyn TraceSink) -> Result<()> {
        let Some(ActiveTxn { pool, writes, frees }) = self.txn.take() else {
            return Ok(());
        };
        if writes.is_empty() {
            return Ok(());
        }
        let log_base = self.header_u64(pool, hdr::LOG_BASE, sink)?;
        let log_size = self.header_u64(pool, hdr::LOG_SIZE, sink)?;
        let needed: u64 = writes
            .iter()
            .map(|(_, d)| crate::txn::ENTRY_HEADER + crate::txn::padded(d.len() as u64))
            .sum::<u64>()
            + crate::txn::ENTRY_HEADER;
        if needed > log_size {
            return Err(RuntimeError::LogFull(pool));
        }
        // (1) Append entries + terminator.
        let mut cursor = log_base;
        for (target, data) in &writes {
            let mut head = [0u8; crate::txn::ENTRY_HEADER as usize];
            head[0..4].copy_from_slice(&target.to_le_bytes());
            head[4..8].copy_from_slice(&(data.len() as u32).to_le_bytes());
            head[8..12].copy_from_slice(&crate::txn::checksum(*target, data).to_le_bytes());
            let at = Oid::new(pool, cursor as u32);
            self.write_bytes(at, 0, &head, sink)?;
            self.write_bytes(at, crate::txn::ENTRY_HEADER as u32, data, sink)?;
            cursor += crate::txn::ENTRY_HEADER + crate::txn::padded(data.len() as u64);
        }
        let terminator = [0u8; crate::txn::ENTRY_HEADER as usize];
        self.write_bytes(Oid::new(pool, cursor as u32), 0, &terminator, sink)?;
        cursor += crate::txn::ENTRY_HEADER;
        // Flush the whole log span (persist issues the fence of step 2).
        self.persist(Oid::new(pool, log_base as u32), 0, cursor - log_base, sink)?;
        // (2) Commit point.
        self.write_header_u64(pool, hdr::COMMIT_FLAG, 1, sink)?;
        self.flush_header_line(pool, hdr::COMMIT_FLAG, sink)?;
        // (3) Apply home.
        for (target, data) in &writes {
            self.write_bytes(Oid::new(pool, *target), 0, data, sink)?;
            self.persist(Oid::new(pool, *target), 0, data.len() as u64, sink)?;
        }
        // (4) Clear the flag.
        self.write_header_u64(pool, hdr::COMMIT_FLAG, 0, sink)?;
        self.flush_header_line(pool, hdr::COMMIT_FLAG, sink)?;
        // The transaction is durable: its staged frees may now recycle.
        for (hdr_off, slot) in frees {
            self.free_lists.entry(pool).or_default().entry(slot).or_default().push(hdr_off);
        }
        Ok(())
    }

    /// Simulates machine power loss: unflushed lines revert (or tear, per
    /// any armed [`FaultPlan`]), every attachment disappears, staged
    /// transaction writes evaporate, the VA arena resets. Pools survive in
    /// the namespace and can be re-opened (running recovery).
    pub fn crash(&mut self) -> u64 {
        let lost = self.ns.crash_all();
        self.attached.clear();
        self.free_lists.clear();
        self.aspace.reset();
        self.last_recovery = None;
        self.txn = None;
        lost
    }

    /// Simulates a fatal fault confined to *one* attached pool — the
    /// fault-domain primitive the multi-tenant server builds on. The
    /// pool's unflushed lines revert (or tear / poison, per any armed
    /// [`FaultPlan`]), its attachment is torn down (emitting Detach +
    /// Shootdown trace events, like the detach system call), and a
    /// transaction staged against it evaporates. Every other pool,
    /// attachment, and open transaction is untouched. Returns the number
    /// of lines lost.
    ///
    /// # Errors
    ///
    /// Fails if the pool is not attached.
    pub fn crash_pool(&mut self, id: PmoId, sink: &mut dyn TraceSink) -> Result<u64> {
        let att = self.attached.remove(id).ok_or(RuntimeError::NotAttached(id))?;
        if self.txn.as_ref().is_some_and(|t| t.pool == id) {
            self.txn = None;
        }
        self.aspace.release(att.base, att.region);
        self.free_lists.remove(&id);
        self.ns.release(id, att.intent)?;
        let lost = self.ns.entry_mut(id)?.storage.crash();
        sink.event(TraceEvent::Detach { pmo: id });
        sink.event(TraceEvent::Shootdown { pmo: id });
        Ok(lost)
    }

    /// Info about one attachment.
    pub fn attachment(&self, id: PmoId) -> Result<&Attachment> {
        self.attached.get(id).ok_or(RuntimeError::NotAttached(id))
    }

    /// Iterates over all current attachments.
    pub fn attachments(&self) -> impl Iterator<Item = &Attachment> {
        self.attached.values()
    }

    // ---------------------------------------------------------------
    // Header helpers and recovery (pub(crate) for the txn module)
    // ---------------------------------------------------------------

    pub(crate) fn header_u64(
        &mut self,
        id: PmoId,
        field: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<u64> {
        let base = self.attachment(id)?.base;
        let entry = self.ns.entry(id)?;
        let mut buf = [0u8; 8];
        entry.storage.read(field, &mut buf)?;
        sink.load(base + field, 8);
        Ok(u64::from_le_bytes(buf))
    }

    pub(crate) fn write_header_u64(
        &mut self,
        id: PmoId,
        field: u64,
        value: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<()> {
        let base = self.attachment(id)?.base;
        let entry = self.ns.entry_mut(id)?;
        entry.storage.write(field, &value.to_le_bytes())?;
        sink.store_valued(base + field, 8, value);
        Ok(())
    }

    pub(crate) fn flush_header_line(
        &mut self,
        id: PmoId,
        field: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<()> {
        let base = self.attachment(id)?.base;
        let entry = self.ns.entry_mut(id)?;
        entry.storage.flush_line(field);
        sink.event(TraceEvent::Flush { va: (base + field) & !(LINE - 1) });
        sink.event(TraceEvent::Fence);
        Ok(())
    }

    fn persist_header(&mut self, id: PmoId, sink: &mut dyn TraceSink) -> Result<()> {
        let base = self.attachment(id)?.base;
        let entry = self.ns.entry_mut(id)?;
        entry.storage.flush_range(0, HEADER_SIZE);
        sink.event(TraceEvent::Flush { va: base });
        sink.event(TraceEvent::Fence);
        Ok(())
    }

    fn write_alloc_header(
        &mut self,
        id: PmoId,
        off: u32,
        size: u32,
        magic: u32,
        sink: &mut dyn TraceSink,
    ) -> Result<()> {
        let base = self.attachment(id)?.base;
        let entry = self.ns.entry_mut(id)?;
        let mut buf = [0u8; 8];
        buf[..4].copy_from_slice(&size.to_le_bytes());
        buf[4..].copy_from_slice(&magic.to_le_bytes());
        entry.storage.write(u64::from(off), &buf)?;
        sink.store_valued(base + u64::from(off), 8, u64::from_le_bytes(buf));
        Ok(())
    }

    fn read_alloc_header(
        &mut self,
        id: PmoId,
        off: u32,
        sink: &mut dyn TraceSink,
    ) -> Result<(u32, u32)> {
        let base = self.attachment(id)?.base;
        let entry = self.ns.entry(id)?;
        let mut buf = [0u8; 8];
        entry.storage.read(u64::from(off), &mut buf)?;
        // Read-your-writes: a header flip staged by an in-transaction
        // pfree must be visible (it is how a double free inside the
        // same transaction is caught).
        if let Some(txn) = &self.txn {
            if txn.pool == id {
                let start = u64::from(off);
                for (w_off, data) in &txn.writes {
                    let w_start = u64::from(*w_off);
                    let w_end = w_start + data.len() as u64;
                    let lo = start.max(w_start);
                    let hi = (start + 8).min(w_end);
                    if lo < hi {
                        buf[(lo - start) as usize..(hi - start) as usize].copy_from_slice(
                            &data[(lo - w_start) as usize..(hi - w_start) as usize],
                        );
                    }
                }
            }
        }
        sink.load(base + u64::from(off), 8);
        Ok((
            u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")),
            u32::from_le_bytes(buf[4..].try_into().expect("4 bytes")),
        ))
    }

    /// Direct (uninstrumented) access to a pool's backing storage, for
    /// tests and tooling that inspect persistence state.
    pub fn storage(&self, id: PmoId) -> Result<&crate::storage::PoolStorage> {
        Ok(&self.ns.entry(id)?.storage)
    }

    /// Arms power-failure injection on one pool: after `stores` more
    /// successful persistent writes, writes fail with
    /// [`RuntimeError::PowerFailure`] until [`PmRuntime::crash`] runs —
    /// for testing failure atomicity at arbitrary points of the redo-log
    /// protocol.
    ///
    /// # Errors
    ///
    /// Fails with [`RuntimeError::NotAttached`] for a PMO ID that is
    /// unknown or not currently attached: arming a fault is an operation
    /// on the *live* attachment, so a stale or bogus ID is a caller bug
    /// surfaced as a typed error instead of silently arming a detached
    /// pool.
    pub fn inject_power_failure_after(&mut self, id: PmoId, stores: u64) -> Result<()> {
        self.inject_fault(id, FaultPlan::power_failure(stores))
    }

    /// Arms an arbitrary deterministic [`FaultPlan`] (power failure, torn
    /// write, or media error) on one attached pool.
    ///
    /// # Errors
    ///
    /// Fails with [`RuntimeError::NotAttached`] for unknown or detached
    /// PMO IDs, like [`PmRuntime::inject_power_failure_after`].
    pub fn inject_fault(&mut self, id: PmoId, plan: FaultPlan) -> Result<()> {
        self.attachment(id)?;
        self.ns.entry_mut(id)?.storage.inject_fault(plan);
        Ok(())
    }

    /// The health of a pool as judged by storage state and the last
    /// recovery: healthy, degraded (unreadable data lines), or
    /// quarantined (damaged recovery metadata; refuses attach).
    ///
    /// # Errors
    ///
    /// Fails if no pool with this name exists.
    pub fn pool_health(&self, name: &str) -> Result<PoolHealth> {
        self.ns.health(name)
    }

    /// Replays a committed redo log, if one is pending. Called on attach.
    /// Recovery runs in kernel context during the attach system call, so
    /// its storage traffic is *not* emitted as user-level trace events
    /// (domain checks do not apply to the kernel); its cost is part of the
    /// scheme's attach accounting.
    ///
    /// Hardened against damaged media: an unreadable or invalid pool
    /// header, commit flag, or redo log quarantines the pool (sticky;
    /// see [`PoolHealth::Quarantined`]) and fails the attach with
    /// [`RuntimeError::PoolQuarantined`] instead of panicking or applying
    /// garbage.
    fn recover(&mut self, id: PmoId, _sink: &mut dyn TraceSink) -> Result<Option<RecoveryReport>> {
        let entry = self.ns.entry_mut(id)?;
        let name = entry.name.clone();
        let quarantine =
            |entry: &mut crate::namespace::PoolEntry, name: String, reason: &'static str| {
                entry.quarantined = Some(reason);
                Err(RuntimeError::PoolQuarantined { name, reason })
            };
        let mut buf = [0u8; 8];
        match entry.storage.read(hdr::MAGIC, &mut buf) {
            Ok(()) if u64::from_le_bytes(buf) == POOL_MAGIC => {}
            Ok(()) => return quarantine(entry, name, "pool header magic is invalid"),
            Err(RuntimeError::MediaError { .. }) => {
                return quarantine(entry, name, "pool header is unreadable")
            }
            Err(e) => return Err(e),
        }
        // Header sanity: a crash during pool formatting (or a torn header
        // line) can persist the magic ahead of the rest of the header.
        // Accepting such a pool would hand the allocator and the redo
        // logger corrupt geometry — exhaustive crash-image enumeration
        // found exactly that — so anything inconsistent quarantines.
        let size = entry.storage.size();
        let mut fields = [0u64; 6];
        for (slot, off) in fields.iter_mut().zip([
            hdr::HEAP_TOP,
            hdr::ROOT_OID,
            hdr::ROOT_SIZE,
            hdr::COMMIT_FLAG,
            hdr::LOG_BASE,
            hdr::LOG_SIZE,
        ]) {
            match entry.storage.read(off, &mut buf) {
                Ok(()) => *slot = u64::from_le_bytes(buf),
                Err(RuntimeError::MediaError { .. }) => {
                    return quarantine(entry, name, "pool header is unreadable")
                }
                Err(e) => return Err(e),
            }
        }
        let [heap_top, root_oid, root_size, commit_flag, log_base, log_size] = fields;
        if log_base != HEADER_SIZE || log_size != log_bytes_for(size) {
            return quarantine(entry, name, "log geometry in the pool header is corrupt");
        }
        if heap_top < heap_base_for(size) || heap_top > size {
            return quarantine(entry, name, "heap bound in the pool header is corrupt");
        }
        if commit_flag > 1 {
            return quarantine(entry, name, "commit flag in the pool header is corrupt");
        }
        if root_oid != 0 {
            let root = crate::oid::Oid::from_raw(root_oid);
            let offset = u64::from(root.offset());
            if root.pool() != id
                || offset < heap_base_for(size)
                || offset.saturating_add(root_size) > size
            {
                return quarantine(entry, name, "root object in the pool header is corrupt");
            }
        }
        if commit_flag == 0 {
            return Ok(None);
        }
        let report = match crate::txn::replay_log_raw(&mut entry.storage) {
            Ok(report) => report,
            Err(RuntimeError::MediaError { .. }) => {
                return quarantine(entry, name, "redo log is unreadable")
            }
            Err(e) => return Err(e),
        };
        entry.storage.write(hdr::COMMIT_FLAG, &0u64.to_le_bytes())?;
        entry.storage.flush_line(hdr::COMMIT_FLAG);
        Ok(Some(report))
    }
}

/// Formats a pool's persistent header in place — magic, heap top, empty
/// root, clear commit flag, log geometry — then flushes the header.
/// Runs at pool creation and again when a scrub reformats a pool; the
/// caller re-emits the stores as trace events if an attachment exists.
fn format_header(storage: &mut crate::storage::PoolStorage, size: u64) {
    for (field, value) in [
        (hdr::MAGIC, POOL_MAGIC),
        (hdr::HEAP_TOP, heap_base_for(size)),
        (hdr::ROOT_OID, 0),
        (hdr::ROOT_SIZE, 0),
        (hdr::COMMIT_FLAG, 0),
        (hdr::LOG_BASE, HEADER_SIZE),
        (hdr::LOG_SIZE, log_bytes_for(size)),
    ] {
        storage.write(field, &value.to_le_bytes()).expect("header fits");
    }
    storage.flush_range(0, HEADER_SIZE);
}

/// Emits Load events in <=8-byte chunks (modelling word-sized moves).
fn emit_chunked_load(sink: &mut dyn TraceSink, va: Va, len: u64) {
    let mut done = 0;
    while done < len {
        let chunk = (len - done).min(8) as u8;
        sink.load(va + done, chunk);
        done += u64::from(chunk);
    }
}

/// Emits valued Store events in <=8-byte chunks (modelling word-sized
/// moves). Each chunk carries its written bytes, so a recorded trace is
/// sufficient to reconstruct the exact memory image any crash would
/// leave behind (the crash-image enumeration pass depends on this).
fn emit_chunked_store(sink: &mut dyn TraceSink, va: Va, bytes: &[u8]) {
    let mut done = 0;
    while done < bytes.len() {
        let chunk = (bytes.len() - done).min(8);
        let mut word = [0u8; 8];
        word[..chunk].copy_from_slice(&bytes[done..done + chunk]);
        sink.store_valued(va + done as u64, chunk as u8, u64::from_le_bytes(word));
        done += chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmo_trace::{CountingSink, NullSink, RecordedTrace};

    fn rt_with_pool(size: u64) -> (PmRuntime, PmoId) {
        let mut rt = PmRuntime::new();
        let mut sink = NullSink::new();
        let id = rt.pool_create("p", size, Mode::private(), &mut sink).unwrap();
        (rt, id)
    }

    #[test]
    fn materialized_pool_recovers_like_the_original() {
        // Build a real pool, capture its persisted line image, and
        // materialize that image into a second runtime: pool_open must
        // run recovery and hand back the same data.
        let mut sink = NullSink::new();
        let (mut rt, id) = rt_with_pool(1 << 20);
        let oid = rt.pmalloc(id, 64, &mut sink).unwrap();
        rt.write_bytes(oid, 0, &[0x5a; 64], &mut sink).unwrap();
        rt.persist(oid, 0, 64, &mut sink).unwrap();
        let image = rt.storage(id).unwrap().line_image();
        rt.pool_close(id, &mut sink).unwrap();

        let mut rt2 = PmRuntime::new();
        rt2.materialize_pool("copy", 1 << 20, Mode::private(), &image).unwrap();
        let id2 = rt2.pool_open("copy", AttachIntent::ReadWrite, &mut sink).unwrap();
        assert_eq!(rt2.pool_health("copy").unwrap(), PoolHealth::Healthy);
        let oid2 = Oid::new(id2, oid.offset()); // same layout, same slot
        let mut buf = [0u8; 64];
        rt2.read_bytes(oid2, 0, &mut buf, &mut sink).unwrap();
        assert_eq!(buf, [0x5a; 64]);
        rt2.pool_close(id2, &mut sink).unwrap();
    }

    #[test]
    fn materialized_garbage_is_quarantined() {
        let mut rt = PmRuntime::new();
        let mut sink = NullSink::new();
        rt.materialize_pool("junk", 4096, Mode::private(), &[(0, [0xff; 64])]).unwrap();
        assert!(matches!(
            rt.pool_open("junk", AttachIntent::ReadWrite, &mut sink),
            Err(RuntimeError::PoolQuarantined { .. })
        ));
        assert_eq!(rt.pool_health("junk").unwrap(), PoolHealth::Quarantined);
    }

    #[test]
    fn materialize_rejects_out_of_range_lines() {
        let mut rt = PmRuntime::new();
        assert!(rt.materialize_pool("far", 4096, Mode::private(), &[(64, [0; 64])]).is_err());
        assert!(!rt.namespace().contains("far"), "failed materialization registers nothing");
    }

    #[test]
    fn create_attach_emits_event() {
        let mut rt = PmRuntime::new();
        let mut trace = RecordedTrace::new();
        let id = rt.pool_create("p", 1 << 20, Mode::private(), &mut trace).unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Attach { pmo, nvm: true, .. } if *pmo == id)));
        let att = rt.attachment(id).unwrap();
        assert_eq!(att.size, 1 << 20);
        assert_eq!(att.region, 2 << 20, "1MB pool reserves a 2MB granule");
        assert_eq!(att.base % att.region, 0);
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let (mut rt, id) = rt_with_pool(1 << 20);
        let mut sink = NullSink::new();
        let a = rt.pmalloc(id, 64, &mut sink).unwrap();
        let b = rt.pmalloc(id, 64, &mut sink).unwrap();
        assert_ne!(a, b);
        rt.write_u64(a, 0, 0xdead, &mut sink).unwrap();
        rt.write_u64(b, 0, 0xbeef, &mut sink).unwrap();
        assert_eq!(rt.read_u64(a, 0, &mut sink).unwrap(), 0xdead);
        assert_eq!(rt.read_u64(b, 0, &mut sink).unwrap(), 0xbeef);
        // u32 and OID accessors.
        rt.write_u32(a, 8, 7, &mut sink).unwrap();
        assert_eq!(rt.read_u32(a, 8, &mut sink).unwrap(), 7);
        rt.write_oid(a, 16, b, &mut sink).unwrap();
        assert_eq!(rt.read_oid(a, 16, &mut sink).unwrap(), b);
    }

    #[test]
    fn accessors_emit_chunked_events() {
        let (mut rt, id) = rt_with_pool(1 << 20);
        let mut sink = NullSink::new();
        let a = rt.pmalloc(id, 64, &mut sink).unwrap();
        let mut counter = CountingSink::new();
        rt.write_bytes(a, 0, &[0u8; 64], &mut counter).unwrap();
        assert_eq!(counter.counts().stores, 8, "64B write = 8 word stores");
        let mut buf = [0u8; 20];
        rt.read_bytes(a, 0, &mut buf, &mut counter).unwrap();
        assert_eq!(counter.counts().loads, 3, "20B read = 8+8+4");
    }

    #[test]
    fn pfree_recycles_slots() {
        let (mut rt, id) = rt_with_pool(1 << 20);
        let mut sink = NullSink::new();
        let a = rt.pmalloc(id, 48, &mut sink).unwrap();
        rt.pfree(a, &mut sink).unwrap();
        let b = rt.pmalloc(id, 48, &mut sink).unwrap();
        assert_eq!(a, b, "same slot reused");
        // Double free is rejected.
        rt.pfree(b, &mut sink).unwrap();
        assert!(matches!(rt.pfree(b, &mut sink), Err(RuntimeError::InvalidOid { .. })));
    }

    #[test]
    fn pfree_in_txn_is_failure_atomic() {
        // A pfree staged inside a transaction must die with a discard:
        // the allocation stays live (its unlink writes never reached
        // storage either) and the slot must not be recycled. Found by
        // the multi-tenant server's chaos interleavings: an eagerly
        // freed node whose remove transaction was aborted stayed linked
        // in the structure while durably marked dead.
        let (mut rt, id) = rt_with_pool(1 << 20);
        let mut sink = NullSink::new();
        let a = rt.pmalloc(id, 48, &mut sink).unwrap();
        rt.write_u64(a, 0, 42, &mut sink).unwrap();
        rt.persist(a, 0, 8, &mut sink).unwrap();
        rt.txn_begin(id).unwrap();
        rt.pfree(a, &mut sink).unwrap();
        // A double free inside the same transaction sees the staged
        // header flip and is rejected.
        assert!(matches!(rt.pfree(a, &mut sink), Err(RuntimeError::InvalidOid { .. })));
        rt.txn_discard();
        // Still live after the abort: data intact, not recycled, and
        // freeable again.
        assert_eq!(rt.read_u64(a, 0, &mut sink).unwrap(), 42);
        let b = rt.pmalloc(id, 48, &mut sink).unwrap();
        assert_ne!(a, b, "aborted free must not recycle the slot");
        // A committed transactional free recycles as usual.
        rt.txn_begin(id).unwrap();
        rt.pfree(a, &mut sink).unwrap();
        rt.txn_commit(&mut sink).unwrap();
        let c = rt.pmalloc(id, 48, &mut sink).unwrap();
        assert_eq!(a, c, "committed free recycles the slot");
    }

    #[test]
    fn heap_exhaustion() {
        let (mut rt, id) = rt_with_pool(4096);
        let mut sink = NullSink::new();
        // Heap is 4096 - 64 - 256 = 3776 bytes.
        let a = rt.pmalloc(id, 3000, &mut sink);
        assert!(a.is_ok());
        assert!(matches!(rt.pmalloc(id, 3000, &mut sink), Err(RuntimeError::OutOfMemory { .. })));
        assert!(matches!(rt.pmalloc(id, 0, &mut sink), Err(RuntimeError::InvalidSize(0))));
    }

    #[test]
    fn root_is_stable() {
        let (mut rt, id) = rt_with_pool(1 << 20);
        let mut sink = NullSink::new();
        let r1 = rt.pool_root(id, 256, &mut sink).unwrap();
        let r2 = rt.pool_root(id, 256, &mut sink).unwrap();
        assert_eq!(r1, r2);
        // Survives close/open.
        rt.pool_close(id, &mut sink).unwrap();
        let id2 = rt.pool_open("p", AttachIntent::ReadWrite, &mut sink).unwrap();
        assert_eq!(id, id2, "PMO id is stable across attachments");
        let r3 = rt.pool_root(id2, 256, &mut sink).unwrap();
        assert_eq!(r1, r3);
    }

    #[test]
    fn read_only_attachment_rejects_writes() {
        let mut rt = PmRuntime::new();
        let mut sink = NullSink::new();
        let id = rt.pool_create("p", 1 << 20, Mode::shared_read(), &mut sink).unwrap();
        let obj = rt.pmalloc(id, 64, &mut sink).unwrap();
        rt.write_u64(obj, 0, 5, &mut sink).unwrap();
        rt.pool_close(id, &mut sink).unwrap();
        let id = rt.pool_open("p", AttachIntent::Read, &mut sink).unwrap();
        assert_eq!(rt.read_u64(obj, 0, &mut sink).unwrap(), 5);
        assert!(matches!(
            rt.write_u64(obj, 0, 6, &mut sink),
            Err(RuntimeError::AccessViolation { .. })
        ));
        assert!(rt.pmalloc(id, 8, &mut sink).is_err());
    }

    #[test]
    fn oid_direct_checks_bounds() {
        let (mut rt, id) = rt_with_pool(4096);
        let mut sink = NullSink::new();
        let obj = rt.pmalloc(id, 16, &mut sink).unwrap();
        let va = rt.oid_direct(obj).unwrap();
        let att = rt.attachment(id).unwrap();
        assert_eq!(va, att.base + u64::from(obj.offset()));
        assert!(rt.oid_direct(Oid::new(id, 4096)).is_err());
        assert!(rt.oid_direct(Oid::new(PmoId::new(42), 0)).is_err());
    }

    #[test]
    fn detach_then_access_fails() {
        let (mut rt, id) = rt_with_pool(4096);
        let mut sink = NullSink::new();
        let obj = rt.pmalloc(id, 16, &mut sink).unwrap();
        rt.pool_close(id, &mut sink).unwrap();
        assert!(matches!(rt.read_u64(obj, 0, &mut sink), Err(RuntimeError::NotAttached(_))));
        assert!(rt.pool_close(id, &mut sink).is_err());
    }

    #[test]
    fn data_survives_detach_attach() {
        let (mut rt, id) = rt_with_pool(1 << 20);
        let mut sink = NullSink::new();
        let obj = rt.pmalloc(id, 64, &mut sink).unwrap();
        rt.write_u64(obj, 0, 99, &mut sink).unwrap();
        rt.pool_close(id, &mut sink).unwrap();
        let id = rt.pool_open("p", AttachIntent::ReadWrite, &mut sink).unwrap();
        assert_eq!(rt.read_u64(obj, 0, &mut sink).unwrap(), 99);
        let _ = id;
    }

    #[test]
    fn crash_loses_unflushed_data() {
        let (mut rt, id) = rt_with_pool(1 << 20);
        let mut sink = NullSink::new();
        let obj = rt.pmalloc(id, 64, &mut sink).unwrap();
        rt.write_u64(obj, 0, 1, &mut sink).unwrap();
        rt.persist(obj, 0, 8, &mut sink).unwrap();
        rt.write_u64(obj, 8, 2, &mut sink).unwrap(); // never persisted
        rt.crash();
        let id = rt.pool_open("p", AttachIntent::ReadWrite, &mut sink).unwrap();
        let _ = id;
        assert_eq!(rt.read_u64(obj, 0, &mut sink).unwrap(), 1, "persisted survives");
        assert_eq!(rt.read_u64(obj, 8, &mut sink).unwrap(), 0, "unflushed lost");
    }

    #[test]
    fn persist_emits_flush_and_fence() {
        let (mut rt, id) = rt_with_pool(1 << 20);
        let mut sink = NullSink::new();
        let obj = rt.pmalloc(id, 200, &mut sink).unwrap();
        rt.write_bytes(obj, 0, &[1u8; 200], &mut sink).unwrap();
        let mut counter = CountingSink::new();
        rt.persist(obj, 0, 200, &mut counter).unwrap();
        assert!(counter.counts().flushes >= 4, "200B spans at least 4 lines");
        assert_eq!(counter.counts().fences, 1);
    }

    #[test]
    fn relocation_with_aslr_preserves_oids() {
        // The paper's relocatability requirement: a PMO may re-attach at a
        // different VA in a later session; OIDs (pool + offset) must keep
        // resolving. With ASLR every session gets a fresh placement.
        let mut rt = PmRuntime::new();
        rt.enable_aslr(7);
        let mut sink = NullSink::new();
        let id = rt.pool_create("p", 1 << 20, Mode::private(), &mut sink).unwrap();
        let obj = rt.pmalloc(id, 64, &mut sink).unwrap();
        rt.write_u64(obj, 0, 0xfeed, &mut sink).unwrap();
        let va1 = rt.oid_direct(obj).unwrap();
        rt.pool_close(id, &mut sink).unwrap();
        let id = rt.pool_open("p", AttachIntent::ReadWrite, &mut sink).unwrap();
        let va2 = rt.oid_direct(obj).unwrap();
        assert_ne!(va1, va2, "ASLR relocated the PMO");
        assert_eq!(rt.read_u64(obj, 0, &mut sink).unwrap(), 0xfeed, "OID still resolves");
        let _ = id;
    }

    #[test]
    fn second_attach_while_attached_fails() {
        let (mut rt, _id) = rt_with_pool(4096);
        let mut sink = NullSink::new();
        assert!(matches!(
            rt.pool_open("p", AttachIntent::ReadWrite, &mut sink),
            Err(RuntimeError::ExclusivelyHeld(_) | RuntimeError::AlreadyAttached(_))
        ));
    }

    #[test]
    fn fault_injection_requires_attachment() {
        let (mut rt, id) = rt_with_pool(1 << 20);
        let mut sink = NullSink::new();
        // Unknown PMO: never attached by this runtime.
        let bogus = PmoId::new(999);
        assert_eq!(
            rt.inject_power_failure_after(bogus, 1),
            Err(RuntimeError::NotAttached(bogus)),
            "unknown id gets a typed error, not a panic or silent no-op"
        );
        assert_eq!(
            rt.inject_fault(bogus, FaultPlan::torn_write(1, 42)),
            Err(RuntimeError::NotAttached(bogus))
        );
        // Detached PMO: the pool exists in the namespace but is no longer
        // mapped, so arming a fault on it must also be refused.
        rt.pool_close(id, &mut sink).unwrap();
        assert_eq!(rt.inject_power_failure_after(id, 1), Err(RuntimeError::NotAttached(id)));
        assert_eq!(
            rt.inject_fault(id, FaultPlan::media_error(1, 7)),
            Err(RuntimeError::NotAttached(id))
        );
        // Re-attaching makes injection legal again.
        let id = rt.pool_open("p", AttachIntent::ReadWrite, &mut sink).unwrap();
        rt.inject_power_failure_after(id, 1_000_000).unwrap();
    }

    #[test]
    fn media_fault_during_commit_recovers_or_quarantines() {
        // A media fault that strikes mid-commit may leave the header or
        // redo log unreadable. Recovery must never panic: each seed either
        // replays cleanly or surfaces a typed quarantine that is sticky
        // until the pool is recreated. Sweep seeds so both paths execute.
        let mut quarantined = 0u32;
        let mut recovered = 0u32;
        for seed in 0..48u64 {
            let mut rt = PmRuntime::new();
            let mut sink = NullSink::new();
            let id = rt.pool_create("p", 1 << 20, Mode::private(), &mut sink).unwrap();
            let obj = rt.pmalloc(id, 64, &mut sink).unwrap();
            // Fail the 5th store: log entry header, payload, terminator and
            // commit flag succeed, the home write does not, so the log and
            // header lines are all touched (poison candidates).
            rt.inject_fault(id, FaultPlan::media_error(4, seed)).unwrap();
            let mut tx = rt.begin_txn(id, &mut sink).unwrap();
            tx.write_u64(obj, 0, 0xabcd).unwrap();
            assert_eq!(tx.commit(), Err(RuntimeError::PowerFailure));
            rt.crash();
            match rt.pool_open("p", AttachIntent::ReadWrite, &mut sink) {
                Ok(id) => {
                    recovered += 1;
                    assert_eq!(
                        rt.read_u64(obj, 0, &mut sink).unwrap(),
                        0xabcd,
                        "committed log replayed (seed {seed})"
                    );
                    let _ = id;
                }
                Err(RuntimeError::PoolQuarantined { name, .. }) => {
                    quarantined += 1;
                    assert_eq!(name, "p");
                    // Quarantine is sticky: retry fails the same way and
                    // health reports it without attaching.
                    assert!(matches!(
                        rt.pool_open("p", AttachIntent::ReadWrite, &mut sink),
                        Err(RuntimeError::PoolQuarantined { .. })
                    ));
                    assert_eq!(rt.pool_health("p").unwrap(), PoolHealth::Quarantined);
                    // The runtime itself stays usable: other pools are fine.
                    let other = rt.pool_create("q", 4096, Mode::private(), &mut sink).unwrap();
                    let o = rt.pmalloc(other, 32, &mut sink).unwrap();
                    rt.write_u64(o, 0, 5, &mut sink).unwrap();
                    assert_eq!(rt.read_u64(o, 0, &mut sink).unwrap(), 5);
                }
                Err(other) => panic!("unexpected error for seed {seed}: {other}"),
            }
        }
        assert!(quarantined > 0, "some seed must poison header or log");
        assert!(recovered > 0, "some seed must leave recovery metadata intact");
    }

    /// Drives "p" into quarantine by poisoning recovery metadata mid-
    /// commit (sweeping seeds until one sticks) and returns the runtime.
    fn quarantined_fixture() -> PmRuntime {
        for seed in 0..64u64 {
            let mut rt = PmRuntime::new();
            let mut sink = NullSink::new();
            let id = rt.pool_create("p", 1 << 20, Mode::private(), &mut sink).unwrap();
            let obj = rt.pmalloc(id, 64, &mut sink).unwrap();
            rt.inject_fault(id, FaultPlan::media_error(4, seed)).unwrap();
            let mut tx = rt.begin_txn(id, &mut sink).unwrap();
            tx.write_u64(obj, 0, 0xabcd).unwrap();
            let _ = tx.commit();
            rt.crash();
            if matches!(
                rt.pool_open("p", AttachIntent::ReadWrite, &mut sink),
                Err(RuntimeError::PoolQuarantined { .. })
            ) {
                return rt;
            }
        }
        panic!("no seed in 0..64 quarantined the pool");
    }

    #[test]
    fn scrub_releases_quarantine_and_pool_readmits() {
        let mut rt = quarantined_fixture();
        let mut sink = NullSink::new();
        assert_eq!(rt.pool_health("p").unwrap(), PoolHealth::Quarantined);
        let report = rt.pool_scrub("p").unwrap();
        assert!(report.quarantine_released.is_some(), "scrub lifts the quarantine");
        // The pool re-admits through the normal attach path, factory
        // fresh: healthy, recovery clean, old contents gone by design.
        let id = rt.pool_open("p", AttachIntent::ReadWrite, &mut sink).unwrap();
        assert_eq!(rt.pool_health("p").unwrap(), PoolHealth::Healthy);
        assert_eq!(rt.last_recovery(), None);
        let obj = rt.pmalloc(id, 64, &mut sink).unwrap();
        rt.write_u64(obj, 0, 7, &mut sink).unwrap();
        assert_eq!(rt.read_u64(obj, 0, &mut sink).unwrap(), 7);
        rt.pool_close(id, &mut sink).unwrap();
    }

    #[test]
    fn requarantine_after_scrub_still_sticks() {
        // Scrubbing releases the flag, never the mechanism: a repeat
        // media error after re-admission must quarantine again.
        let mut rt = quarantined_fixture();
        let mut sink = NullSink::new();
        rt.pool_scrub("p").unwrap();
        for seed in 0..64u64 {
            let id = rt.pool_open("p", AttachIntent::ReadWrite, &mut sink).unwrap();
            let obj = rt.pmalloc(id, 64, &mut sink).unwrap();
            rt.inject_fault(id, FaultPlan::media_error(4, seed)).unwrap();
            let mut tx = rt.begin_txn(id, &mut sink).unwrap();
            tx.write_u64(obj, 0, 0xbeef).unwrap();
            let _ = tx.commit();
            rt.crash();
            match rt.pool_open("p", AttachIntent::ReadWrite, &mut sink) {
                Err(RuntimeError::PoolQuarantined { .. }) => {
                    assert_eq!(rt.pool_health("p").unwrap(), PoolHealth::Quarantined);
                    // Sticky until the next explicit scrub.
                    assert!(matches!(
                        rt.pool_open("p", AttachIntent::ReadWrite, &mut sink),
                        Err(RuntimeError::PoolQuarantined { .. })
                    ));
                    return;
                }
                Ok(id) => rt.pool_close(id, &mut sink).unwrap(),
                Err(other) => panic!("unexpected error for seed {seed}: {other}"),
            }
            // This seed recovered cleanly; wipe and try the next one.
            rt.pool_scrub("p").unwrap();
        }
        panic!("no seed in 0..64 re-quarantined the scrubbed pool");
    }

    #[test]
    fn scrub_refused_while_attached_or_for_non_owner() {
        let (mut rt, id) = rt_with_pool(1 << 20);
        let mut sink = NullSink::new();
        assert!(matches!(rt.pool_scrub("p"), Err(RuntimeError::ExclusivelyHeld(_))));
        rt.pool_close(id, &mut sink).unwrap();
        rt.set_uid(9);
        assert!(matches!(rt.pool_scrub("p"), Err(RuntimeError::PermissionDenied { .. })));
        rt.set_uid(0);
        assert!(rt.pool_scrub("p").is_ok());
        assert!(matches!(rt.pool_scrub("ghost"), Err(RuntimeError::NoSuchPool(_))));
    }

    #[test]
    fn crash_pool_is_a_fault_domain() {
        // Two tenants, two pools. Crashing one pool must lose only its
        // unflushed lines, tear down only its attachment, and leave the
        // other tenant's pool fully live — the isolation property the
        // multi-tenant server builds on.
        let mut rt = PmRuntime::new();
        let mut sink = NullSink::new();
        let a = rt.pool_create("a", 1 << 20, Mode::private(), &mut sink).unwrap();
        let b = rt.pool_create("b", 1 << 20, Mode::private(), &mut sink).unwrap();
        let oa = rt.pmalloc(a, 64, &mut sink).unwrap();
        let ob = rt.pmalloc(b, 64, &mut sink).unwrap();
        rt.write_u64(oa, 0, 1, &mut sink).unwrap();
        rt.persist(oa, 0, 8, &mut sink).unwrap();
        rt.write_u64(oa, 8, 2, &mut sink).unwrap(); // unflushed: dies with a
        rt.write_u64(ob, 0, 3, &mut sink).unwrap(); // unflushed: must survive
        let mut trace = RecordedTrace::new();
        let lost = rt.crash_pool(a, &mut trace).unwrap();
        assert!(lost > 0, "pool a had unflushed lines");
        // Only pool a detached; the events landed in the trace.
        assert!(rt.attachment(a).is_err());
        assert!(rt.attachment(b).is_ok());
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Detach { pmo } if *pmo == a)));
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Shootdown { pmo } if *pmo == a)));
        // Pool b is untouched: even its unflushed write is still visible.
        assert_eq!(rt.read_u64(ob, 0, &mut sink).unwrap(), 3);
        // Pool a re-opens through recovery; persisted data survived,
        // unflushed data did not.
        let a = rt.pool_open("a", AttachIntent::ReadWrite, &mut sink).unwrap();
        assert_eq!(rt.read_u64(oa, 0, &mut sink).unwrap(), 1);
        assert_eq!(rt.read_u64(oa, 8, &mut sink).unwrap(), 0);
        let _ = a;
        // Crashing a detached pool is refused.
        assert!(matches!(
            rt.crash_pool(PmoId::new(99), &mut sink),
            Err(RuntimeError::NotAttached(_))
        ));
    }

    #[test]
    fn crash_pool_discards_only_its_transaction() {
        let mut rt = PmRuntime::new();
        let mut sink = NullSink::new();
        let a = rt.pool_create("a", 1 << 20, Mode::private(), &mut sink).unwrap();
        let b = rt.pool_create("b", 1 << 20, Mode::private(), &mut sink).unwrap();
        let ob = rt.pmalloc(b, 64, &mut sink).unwrap();
        // Txn open on b: crashing a must leave it staged.
        rt.txn_begin(b).unwrap();
        rt.write_u64(ob, 0, 5, &mut sink).unwrap();
        rt.crash_pool(a, &mut sink).unwrap();
        assert_eq!(rt.txn_active(), Some(b));
        rt.txn_commit(&mut sink).unwrap();
        assert_eq!(rt.read_u64(ob, 0, &mut sink).unwrap(), 5);
        // Txn open on b: crashing b evaporates the staging.
        rt.txn_begin(b).unwrap();
        rt.write_u64(ob, 0, 6, &mut sink).unwrap();
        rt.crash_pool(b, &mut sink).unwrap();
        assert_eq!(rt.txn_active(), None);
        let b = rt.pool_open("b", AttachIntent::ReadWrite, &mut sink).unwrap();
        assert_eq!(rt.read_u64(ob, 0, &mut sink).unwrap(), 5, "staged write never landed");
        let _ = b;
    }

    #[test]
    fn media_fault_on_data_degrades_and_overwrite_repairs() {
        // Poisoned *data* lines do not quarantine the pool: it re-attaches
        // as Degraded, reads of damaged lines fail with a typed MediaError,
        // and a full-line overwrite repairs the line.
        for seed in 0..64u64 {
            let mut rt = PmRuntime::new();
            let mut sink = NullSink::new();
            let id = rt.pool_create("p", 1 << 20, Mode::private(), &mut sink).unwrap();
            let obj = rt.pmalloc(id, 256, &mut sink).unwrap();
            // The allocation header skews objects off cache-line boundaries;
            // repair needs full-line overwrites, so work on the first two
            // line-aligned offsets inside the object.
            let align = (64 - obj.offset() % 64) % 64;
            rt.write_u64(obj, align, 1, &mut sink).unwrap();
            rt.persist(obj, align, 8, &mut sink).unwrap();
            // Arm, then touch only the object's data lines before crashing.
            rt.inject_fault(id, FaultPlan::media_error(2, seed)).unwrap();
            rt.write_u64(obj, align, 2, &mut sink).unwrap();
            rt.write_u64(obj, align + 64, 3, &mut sink).unwrap();
            assert_eq!(
                rt.write_u64(obj, align + 64, 4, &mut sink),
                Err(RuntimeError::PowerFailure)
            );
            rt.crash();
            let id = rt.pool_open("p", AttachIntent::ReadWrite, &mut sink).unwrap();
            if rt.pool_health("p").unwrap() != PoolHealth::Degraded {
                continue; // this seed poisoned nothing; try the next
            }
            // At least one of the two touched lines is unreadable.
            let r0 = rt.read_u64(obj, align, &mut sink);
            let r1 = rt.read_u64(obj, align + 64, &mut sink);
            assert!(
                matches!(r0, Err(RuntimeError::MediaError { .. }))
                    || matches!(r1, Err(RuntimeError::MediaError { .. })),
                "degraded pool must have an unreadable line (seed {seed})"
            );
            // Full-line overwrites repair every damaged line.
            rt.write_bytes(obj, align, &[0u8; 128], &mut sink).unwrap();
            rt.read_u64(obj, align, &mut sink).unwrap();
            rt.read_u64(obj, align + 64, &mut sink).unwrap();
            assert_eq!(rt.pool_health("p").unwrap(), PoolHealth::Healthy);
            let _ = id;
            return;
        }
        panic!("no seed in 0..64 degraded the pool; media fault model is broken");
    }
}
