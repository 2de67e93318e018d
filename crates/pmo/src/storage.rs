//! Simulated non-volatile backing storage.
//!
//! Each pool is a *sparse* byte space representing the current
//! (CPU-visible) contents: 4KB chunks materialize on first write, so a
//! benchmark can declare 1024 x 8MB pools (as the paper's multi-PMO
//! experiments do) while only touched bytes consume host memory. Chunks
//! are found by index in a vector that grows to the highest chunk written
//! (8 bytes per 4KB below it; the allocator fills pools from the bottom).
//!
//! Persistence is modelled at cache-line granularity: a store makes its
//! lines "unflushed" (the NVM still holds the old bytes); an explicit
//! flush persists them; a simulated crash reverts every unflushed line to
//! its last persisted contents. This is exactly the visibility model
//! durable transactions are written against.
//!
//! # Fault injection
//!
//! A [`FaultPlan`] arms the storage with a deterministic fault: after a
//! chosen number of further stores, every write fails with
//! [`RuntimeError::PowerFailure`] until the caller simulates the crash.
//! What the crash does to the media depends on the plan's
//! [`FaultKind`]:
//!
//! - `PowerFailure`: every unflushed line reverts to its persisted image
//!   (the classic model).
//! - `TornWrite`: each unflushed line independently — keyed on
//!   `(seed, line)`, so replayable and independent of iteration order —
//!   persists fully, reverts fully, or *tears*: an 8-byte-word mix of
//!   old and new contents lands on media.
//! - `MediaError`: unflushed lines revert, then a seeded subset of every
//!   line written since the plan was armed becomes unreadable
//!   (ECC-uncorrectable); reads of a poisoned line return
//!   [`RuntimeError::MediaError`] until the whole line is overwritten.

use std::collections::{BTreeMap, BTreeSet};

use pmo_trace::{FaultKind, PmoId};

use crate::error::{Result, RuntimeError};

/// Cache-line size used for persistence granularity.
pub const LINE: u64 = 64;

const CHUNK: u64 = 4096;

/// A deterministic, replayable fault to inject into one pool's storage.
///
/// The fault fires when `after_stores` more writes have executed: from
/// then on every write fails with [`RuntimeError::PowerFailure`] so the
/// caller can only recover by simulating a crash. `seed` drives every
/// per-line random decision the crash makes, so the same plan against
/// the same write sequence always damages the same bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// What happens to the media at the crash.
    pub kind: FaultKind,
    /// Number of further successful stores before writes start failing.
    pub after_stores: u64,
    /// Seed for the per-line crash decisions (ignored by `PowerFailure`).
    pub seed: u64,
}

impl FaultPlan {
    /// A clean power failure after `after_stores` more stores.
    #[must_use]
    pub fn power_failure(after_stores: u64) -> Self {
        FaultPlan { kind: FaultKind::PowerFailure, after_stores, seed: 0 }
    }

    /// A power failure with torn cache-line writes.
    #[must_use]
    pub fn torn_write(after_stores: u64, seed: u64) -> Self {
        FaultPlan { kind: FaultKind::TornWrite, after_stores, seed }
    }

    /// A power failure plus NVM media damage to recently-written lines.
    #[must_use]
    pub fn media_error(after_stores: u64, seed: u64) -> Self {
        FaultPlan { kind: FaultKind::MediaError, after_stores, seed }
    }
}

/// SplitMix64-style finalizer keyed on `(seed, lane)`: crash decisions,
/// retry jitter and campaign schedules hash through it, so they replay bit
/// for bit from their seeds, independent of container iteration order.
#[must_use]
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One pool's backing storage.
#[derive(Clone, Debug, Default)]
pub struct PoolStorage {
    size: u64,
    /// Slot `i` holds chunk `i` once written.
    chunks: Vec<Option<Box<[u8; CHUNK as usize]>>>,
    /// line index -> persisted (pre-write) contents of that line.
    unflushed: BTreeMap<u64, [u8; LINE as usize]>,
    stores: u64,
    flushes: u64,
    /// Armed fault; `after_stores` counts down as writes execute.
    plan: Option<FaultPlan>,
    /// Lines written since the current plan was armed (media-error
    /// poisoning candidates).
    touched: BTreeSet<u64>,
    /// Lines an injected media error left unreadable.
    poisoned: BTreeSet<u64>,
    /// Pool identity reported in media-error diagnostics.
    owner: Option<PmoId>,
}

impl PoolStorage {
    /// Creates zero-initialized storage of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    #[must_use]
    pub fn new(size: u64) -> Self {
        assert!(size > 0, "pool size must be positive");
        PoolStorage { size, ..Self::default() }
    }

    /// Pool size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Host-memory chunks materialized so far (diagnostic).
    #[must_use]
    pub fn resident_chunks(&self) -> usize {
        self.chunks.iter().flatten().count()
    }

    fn check(&self, offset: u64, len: u64) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(RuntimeError::InvalidOid {
                oid: offset,
                reason: "offset range exceeds pool size",
            });
        }
        Ok(())
    }

    fn read_raw(&self, mut offset: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let chunk_idx = offset / CHUNK;
            let within = (offset % CHUNK) as usize;
            let take = (buf.len() - done).min(CHUNK as usize - within);
            match self.chunks.get(chunk_idx as usize).and_then(Option::as_ref) {
                Some(chunk) => {
                    buf[done..done + take].copy_from_slice(&chunk[within..within + take])
                }
                None => buf[done..done + take].fill(0),
            }
            done += take;
            offset += take as u64;
        }
    }

    fn write_raw(&mut self, mut offset: u64, bytes: &[u8]) {
        let mut done = 0usize;
        while done < bytes.len() {
            let chunk_idx = offset / CHUNK;
            let within = (offset % CHUNK) as usize;
            let take = (bytes.len() - done).min(CHUNK as usize - within);
            let idx = chunk_idx as usize;
            if idx >= self.chunks.len() {
                self.chunks.resize_with(idx + 1, || None);
            }
            let chunk = self.chunks[idx].get_or_insert_with(|| Box::new([0u8; CHUNK as usize]));
            chunk[within..within + take].copy_from_slice(&bytes[done..done + take]);
            done += take;
            offset += take as u64;
        }
    }

    /// Reads `buf.len()` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds ranges, or with
    /// [`RuntimeError::MediaError`] when the range overlaps a line an
    /// injected media fault left unreadable.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check(offset, buf.len() as u64)?;
        if !self.poisoned.is_empty() && !buf.is_empty() {
            let first = offset / LINE;
            let last = (offset + buf.len() as u64 - 1) / LINE;
            for line in first..=last {
                if self.poisoned.contains(&line) {
                    return Err(RuntimeError::MediaError {
                        pmo: self.owner.unwrap_or(PmoId::NULL),
                        offset: line * LINE,
                    });
                }
            }
        }
        self.read_raw(offset, buf);
        Ok(())
    }

    /// Sets the pool identity reported by media-error diagnostics.
    pub fn set_owner(&mut self, pmo: PmoId) {
        self.owner = Some(pmo);
    }

    /// Arms a fault: after `plan.after_stores` more successful writes,
    /// every further write fails with
    /// [`RuntimeError::PowerFailure`](crate::RuntimeError::PowerFailure)
    /// until [`PoolStorage::crash`] executes the plan's media effect.
    pub fn inject_fault(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
        self.touched.clear();
    }

    /// Arms a plain power failure after `stores` more successful writes
    /// (shorthand for [`PoolStorage::inject_fault`] with
    /// [`FaultPlan::power_failure`]).
    pub fn inject_failure_after(&mut self, stores: u64) {
        self.inject_fault(FaultPlan::power_failure(stores));
    }

    /// The currently armed fault plan, if any.
    #[must_use]
    pub fn armed_fault(&self) -> Option<FaultPlan> {
        self.plan
    }

    /// Writes `bytes` at `offset`. The touched lines become unflushed.
    ///
    /// A write that covers a poisoned line end-to-end repairs it (the
    /// media controller remaps the line on a full overwrite).
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds ranges or when an armed fault fires.
    pub fn write(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        self.check(offset, bytes.len() as u64)?;
        if bytes.is_empty() {
            return Ok(());
        }
        if let Some(plan) = &mut self.plan {
            if plan.after_stores == 0 {
                return Err(RuntimeError::PowerFailure);
            }
            plan.after_stores -= 1;
        }
        // Capture the persisted image of each touched line before the first
        // modification since its last flush.
        let first_line = offset / LINE;
        let last_line = (offset + bytes.len() as u64 - 1) / LINE;
        for line in first_line..=last_line {
            if self.plan.is_some() {
                self.touched.insert(line);
            }
            if !self.unflushed.contains_key(&line) {
                let mut img = [0u8; LINE as usize];
                let base = line * LINE;
                let avail = (self.size - base).min(LINE) as usize;
                self.read_raw(base, &mut img[..avail]);
                self.unflushed.insert(line, img);
            }
            if !self.poisoned.is_empty() {
                let base = line * LINE;
                let valid = (self.size - base).min(LINE);
                if offset <= base && offset + bytes.len() as u64 >= base + valid {
                    self.poisoned.remove(&line);
                }
            }
        }
        self.write_raw(offset, bytes);
        self.stores += 1;
        Ok(())
    }

    /// Persists the line containing `offset` (a `clwb`).
    /// Returns whether the line had unflushed data.
    pub fn flush_line(&mut self, offset: u64) -> bool {
        self.flushes += 1;
        self.unflushed.remove(&(offset / LINE)).is_some()
    }

    /// Persists every line overlapping `[offset, offset + len)`.
    pub fn flush_range(&mut self, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let mut flushed = 0;
        let first = offset / LINE;
        let last = (offset + len - 1) / LINE;
        for line in first..=last {
            if self.flush_line(line * LINE) {
                flushed += 1;
            }
        }
        flushed
    }

    /// Simulates a power loss, executing the armed [`FaultPlan`]'s media
    /// effect (plain revert when no plan is armed). Returns the number
    /// of unflushed lines affected. Disarms the plan; media poison is
    /// durable and survives the crash.
    pub fn crash(&mut self) -> u64 {
        let plan = self.plan.take();
        let touched: Vec<u64> = std::mem::take(&mut self.touched).into_iter().collect();
        let lost = self.unflushed.len() as u64;
        let reverts: Vec<(u64, [u8; LINE as usize])> =
            std::mem::take(&mut self.unflushed).into_iter().collect();
        match plan.map(|p| (p.kind, p.seed)) {
            None | Some((FaultKind::PowerFailure, _)) => {
                for (line, img) in reverts {
                    self.revert_line(line, &img);
                }
            }
            Some((FaultKind::TornWrite, seed)) => {
                for (line, img) in reverts {
                    match mix(seed, line) % 4 {
                        // The line's writeback raced the power loss and won:
                        // the new contents persisted in full.
                        0 => {}
                        // The writeback never started: full revert.
                        1 => self.revert_line(line, &img),
                        // Torn: each 8-byte word independently lands old
                        // or new.
                        _ => self.tear_line(line, &img, seed),
                    }
                }
            }
            Some((FaultKind::MediaError, seed)) => {
                for (line, img) in reverts {
                    self.revert_line(line, &img);
                }
                // A seeded subset of every line written since the plan was
                // armed — flushed or not, so log and header lines are fair
                // game — comes back ECC-uncorrectable.
                for line in touched {
                    if mix(seed, line).is_multiple_of(4) {
                        self.poisoned.insert(line);
                    }
                }
            }
        }
        lost
    }

    fn revert_line(&mut self, line: u64, img: &[u8; LINE as usize]) {
        let base = line * LINE;
        let avail = (self.size - base).min(LINE) as usize;
        self.write_raw(base, &img[..avail]);
    }

    fn tear_line(&mut self, line: u64, img: &[u8; LINE as usize], seed: u64) {
        let base = line * LINE;
        let avail = (self.size - base).min(LINE) as usize;
        let mut current = [0u8; LINE as usize];
        self.read_raw(base, &mut current[..avail]);
        let mut torn = [0u8; LINE as usize];
        for word in 0..(LINE as usize / 8) {
            let span = word * 8..(word + 1) * 8;
            let src = if mix(seed ^ 0xa5a5_a5a5_a5a5_a5a5, line * 8 + word as u64) & 1 == 0 {
                &current // new contents persisted for this word
            } else {
                img // old contents survived for this word
            };
            torn[span.clone()].copy_from_slice(&src[span]);
        }
        self.write_raw(base, &torn[..avail]);
    }

    /// The pool's current (CPU-visible) byte image at cache-line
    /// granularity: every line with any non-zero byte, sorted by line
    /// index. Zero lines are omitted — a fresh pool reads as zero, so
    /// installing the returned pairs into a new pool of the same size
    /// reproduces the image exactly.
    #[must_use]
    pub fn line_image(&self) -> Vec<(u64, [u8; LINE as usize])> {
        let mut out = Vec::new();
        for (chunk_idx, chunk) in self.chunks.iter().enumerate() {
            let Some(chunk) = chunk else { continue };
            let chunk_idx = chunk_idx as u64;
            for i in 0..(CHUNK / LINE) {
                let span = (i * LINE) as usize..((i + 1) * LINE) as usize;
                let bytes = &chunk[span];
                if bytes.iter().any(|&b| b != 0) {
                    let mut img = [0u8; LINE as usize];
                    img.copy_from_slice(bytes);
                    out.push((chunk_idx * (CHUNK / LINE) + i, img));
                }
            }
        }
        out
    }

    /// Installs a cache line's image directly onto media: no store
    /// counter, no fault countdown, no pre-image capture. The line is
    /// *persisted* after the call (a later crash does not revert it).
    /// This is the crash-image materialization primitive: an enumerated
    /// image is a set of persisted lines, by definition.
    ///
    /// # Panics
    ///
    /// Panics if the line lies outside the pool.
    pub fn install_line(&mut self, line: u64, img: &[u8; LINE as usize]) {
        let base = line * LINE;
        assert!(base < self.size, "installed line {line} lies outside the pool");
        let avail = (self.size - base).min(LINE) as usize;
        self.write_raw(base, &img[..avail]);
        self.unflushed.remove(&line);
    }

    /// Scrubs the pool's media back to a factory-fresh state: every byte
    /// reads as zero again, unflushed lines are discarded (nothing left
    /// to revert), media poison is cleared (the controller remaps every
    /// damaged line), and any armed fault plan is disarmed. Lifetime
    /// store/flush counters survive — a scrub is maintenance, not a new
    /// device.
    ///
    /// This is the recovery half of quarantine release: a quarantined
    /// pool's contents are preserved for forensics until the operator
    /// explicitly scrubs, after which the pool can be reformatted and
    /// re-admitted. Returns the number of poisoned lines cleared.
    pub fn scrub(&mut self) -> u64 {
        let cleared = self.poisoned.len() as u64;
        self.chunks.clear();
        self.unflushed.clear();
        self.poisoned.clear();
        self.touched.clear();
        self.plan = None;
        cleared
    }

    /// Number of lines an injected media fault currently leaves
    /// unreadable.
    #[must_use]
    pub fn poisoned_lines(&self) -> usize {
        self.poisoned.len()
    }

    /// Whether the line containing `offset` is unreadable.
    #[must_use]
    pub fn is_poisoned(&self, offset: u64) -> bool {
        self.poisoned.contains(&(offset / LINE))
    }

    /// Number of currently unflushed (volatile) lines.
    #[must_use]
    pub fn unflushed_lines(&self) -> usize {
        self.unflushed.len()
    }

    /// Total store operations performed.
    #[must_use]
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Total flush operations performed.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut s = PoolStorage::new(4096);
        s.write(100, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        s.read(100, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn sparse_chunks_materialize_lazily() {
        let mut s = PoolStorage::new(8 << 20); // 8MB pool
        assert_eq!(s.resident_chunks(), 0);
        s.write(5 << 20, &[9; 8]).unwrap();
        assert_eq!(s.resident_chunks(), 1, "only the touched chunk exists");
        let mut buf = [0u8; 8];
        s.read(1 << 20, &mut buf).unwrap();
        assert_eq!(buf, [0; 8], "untouched space reads as zero");
        s.read(5 << 20, &mut buf).unwrap();
        assert_eq!(buf, [9; 8]);
    }

    #[test]
    fn write_spanning_chunks() {
        let mut s = PoolStorage::new(16384);
        let data: Vec<u8> = (0..200).collect();
        s.write(4000, &data).unwrap(); // crosses the 4096 boundary
        let mut buf = vec![0u8; 200];
        s.read(4000, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(s.resident_chunks(), 2);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut s = PoolStorage::new(128);
        assert!(s.write(120, &[0; 16]).is_err());
        let mut buf = [0u8; 16];
        assert!(s.read(u64::MAX, &mut buf).is_err());
        assert!(s.read(128, &mut buf[..1]).is_err());
        // Exactly at the boundary is fine.
        assert!(s.write(112, &[0; 16]).is_ok());
    }

    #[test]
    fn crash_reverts_unflushed_lines() {
        let mut s = PoolStorage::new(256);
        s.write(0, &[0xAA; 8]).unwrap();
        s.flush_line(0);
        s.write(0, &[0xBB; 8]).unwrap(); // unflushed overwrite
        s.write(64, &[0xCC; 8]).unwrap(); // unflushed new line
        assert_eq!(s.unflushed_lines(), 2);
        let lost = s.crash();
        assert_eq!(lost, 2);
        let mut buf = [0u8; 8];
        s.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0xAA; 8], "flushed data survives");
        s.read(64, &mut buf).unwrap();
        assert_eq!(buf, [0; 8], "never-flushed line reverts to zero");
    }

    #[test]
    fn flush_makes_data_durable() {
        let mut s = PoolStorage::new(256);
        s.write(10, &[7; 4]).unwrap();
        assert_eq!(s.flush_range(10, 4), 1);
        s.crash();
        let mut buf = [0u8; 4];
        s.read(10, &mut buf).unwrap();
        assert_eq!(buf, [7; 4]);
    }

    #[test]
    fn write_spanning_lines_tracks_both() {
        let mut s = PoolStorage::new(256);
        s.write(60, &[1; 8]).unwrap(); // spans lines 0 and 1
        assert_eq!(s.unflushed_lines(), 2);
        assert_eq!(s.flush_range(60, 8), 2);
        assert_eq!(s.unflushed_lines(), 0);
    }

    #[test]
    fn flush_of_clean_line_is_noop() {
        let mut s = PoolStorage::new(256);
        assert!(!s.flush_line(0));
        assert_eq!(s.flush_range(0, 0), 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = PoolStorage::new(256);
        s.write(0, &[1]).unwrap();
        s.write(1, &[2]).unwrap();
        s.flush_line(0);
        assert_eq!(s.stores(), 2);
        assert_eq!(s.flushes(), 1);
    }

    #[test]
    fn torn_write_crash_mixes_old_and_new_per_line() {
        // With many unflushed lines and a fixed seed, a torn-write crash
        // must leave some lines fully new, some fully old, and the rest
        // word-mixed — and must do so identically on a replay.
        let run = |seed: u64| -> Vec<[u8; 64]> {
            let mut s = PoolStorage::new(64 * 64);
            for line in 0..64u64 {
                s.write(line * 64, &[0x11u8; 64]).unwrap();
            }
            s.flush_range(0, 64 * 64);
            s.inject_fault(FaultPlan::torn_write(u64::MAX, seed));
            for line in 0..64u64 {
                s.write(line * 64, &[0xEEu8; 64]).unwrap();
            }
            s.crash();
            (0..64u64)
                .map(|line| {
                    let mut buf = [0u8; 64];
                    s.read(line * 64, &mut buf).unwrap();
                    buf
                })
                .collect()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "torn-write outcome must be seed-deterministic");
        let fully_new = a.iter().filter(|l| l.iter().all(|&b| b == 0xEE)).count();
        let fully_old = a.iter().filter(|l| l.iter().all(|&b| b == 0x11)).count();
        let torn = 64 - fully_new - fully_old;
        assert!(fully_new > 0 && fully_old > 0 && torn > 0, "{fully_new}/{fully_old}/{torn}");
        // Torn lines tear at word granularity: every 8-byte word is
        // entirely old or entirely new.
        for line in &a {
            for word in line.chunks(8) {
                assert!(
                    word.iter().all(|&b| b == 0x11) || word.iter().all(|&b| b == 0xEE),
                    "torn line must mix at word granularity: {word:?}"
                );
            }
        }
        assert_ne!(run(8), a, "different seeds should damage different lines");
    }

    #[test]
    fn media_error_poisons_touched_lines_until_overwritten() {
        let mut s = PoolStorage::new(64 * 64);
        s.inject_fault(FaultPlan::media_error(u64::MAX, 3));
        for line in 0..64u64 {
            s.write(line * 64, &[5u8; 64]).unwrap();
        }
        s.flush_range(0, 64 * 64); // flushed lines are still poisoning candidates
        s.crash();
        let poisoned: Vec<u64> = (0..64u64).filter(|&line| s.is_poisoned(line * 64)).collect();
        assert!(!poisoned.is_empty(), "seed 3 should poison some of 64 touched lines");
        assert_eq!(s.poisoned_lines(), poisoned.len());
        let line = poisoned[0];
        let mut buf = [0u8; 8];
        match s.read(line * 64, &mut buf) {
            Err(RuntimeError::MediaError { offset, .. }) => assert_eq!(offset, line * 64),
            other => panic!("expected MediaError, got {other:?}"),
        }
        // Partial overwrite does not repair the line...
        s.write(line * 64, &[1u8; 8]).unwrap();
        assert!(s.is_poisoned(line * 64));
        // ...a full-line overwrite does.
        s.write(line * 64, &[1u8; 64]).unwrap();
        assert!(!s.is_poisoned(line * 64));
        s.read(line * 64, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 8]);
    }

    #[test]
    fn media_poison_survives_later_crashes() {
        let mut s = PoolStorage::new(256);
        s.inject_fault(FaultPlan::media_error(u64::MAX, 0));
        // Seed 0: find a line that gets poisoned by touching several.
        for line in 0..4u64 {
            s.write(line * 64, &[9u8; 64]).unwrap();
        }
        s.crash();
        let before = s.poisoned_lines();
        s.crash(); // plain crash, no plan armed
        assert_eq!(s.poisoned_lines(), before, "media damage is durable");
    }

    #[test]
    fn armed_fault_reports_plan_and_crash_disarms() {
        let mut s = PoolStorage::new(256);
        assert_eq!(s.armed_fault(), None);
        s.inject_fault(FaultPlan::torn_write(2, 42));
        assert_eq!(s.armed_fault().map(|p| p.seed), Some(42));
        s.write(0, &[1]).unwrap();
        assert_eq!(
            s.armed_fault().map(|p| p.after_stores),
            Some(1),
            "countdown decrements per store"
        );
        s.write(0, &[2]).unwrap();
        assert_eq!(s.write(0, &[3]), Err(RuntimeError::PowerFailure));
        s.crash();
        assert_eq!(s.armed_fault(), None);
        s.write(0, &[4]).unwrap();
    }

    #[test]
    fn line_image_roundtrips_through_install() {
        let mut s = PoolStorage::new(16384);
        s.write(0, &[0xAB; 64]).unwrap();
        s.write(5000, &[0xCD; 16]).unwrap(); // chunk 1, mid-line
        s.flush_range(0, 16384);
        let image = s.line_image();
        let lines: Vec<u64> = image.iter().map(|&(l, _)| l).collect();
        assert_eq!(lines, vec![0, 78], "sorted, zero lines omitted");
        let mut fresh = PoolStorage::new(16384);
        for (line, img) in &image {
            fresh.install_line(*line, img);
        }
        assert_eq!(fresh.line_image(), image, "install reproduces the image");
        assert_eq!(fresh.stores(), 0, "install bypasses the store counter");
        // Installed lines are persisted: a crash does not revert them.
        fresh.crash();
        let mut buf = [0u8; 16];
        fresh.read(5000, &mut buf).unwrap();
        assert_eq!(buf, [0xCD; 16]);
    }

    #[test]
    fn install_line_bypasses_armed_fault() {
        let mut s = PoolStorage::new(256);
        s.inject_fault(FaultPlan::power_failure(0));
        assert_eq!(s.write(0, &[1]), Err(RuntimeError::PowerFailure));
        s.install_line(0, &[7u8; 64]); // kernel-context install still works
        let mut buf = [0u8; 1];
        s.read(0, &mut buf).unwrap();
        assert_eq!(buf, [7]);
    }

    #[test]
    fn scrub_clears_media_poison_and_armed_faults() {
        let mut s = PoolStorage::new(64 * 64);
        s.inject_fault(FaultPlan::media_error(u64::MAX, 3));
        for line in 0..64u64 {
            s.write(line * 64, &[5u8; 64]).unwrap();
        }
        s.crash();
        assert!(s.poisoned_lines() > 0, "seed 3 poisons some touched lines");
        let stores_before = s.stores();
        // Arm another fault, then scrub: poison, contents, and the plan
        // all go; counters survive.
        s.inject_fault(FaultPlan::power_failure(0));
        let cleared = s.scrub();
        assert!(cleared > 0, "scrub reports the poisoned lines it cleared");
        assert_eq!(s.poisoned_lines(), 0);
        assert_eq!(s.unflushed_lines(), 0);
        assert_eq!(s.armed_fault(), None, "scrub disarms the fault plan");
        assert_eq!(s.resident_chunks(), 0, "scrubbed media is zero again");
        assert_eq!(s.stores(), stores_before, "lifetime counters survive");
        let mut buf = [0u8; 8];
        s.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
        s.write(0, &[1u8; 8]).unwrap(); // no armed fault fires
    }

    #[test]
    fn scrub_then_repoison_still_works() {
        // A scrub must not make later media faults any less sticky.
        let mut s = PoolStorage::new(64 * 64);
        s.inject_fault(FaultPlan::media_error(u64::MAX, 3));
        for line in 0..64u64 {
            s.write(line * 64, &[5u8; 64]).unwrap();
        }
        s.crash();
        s.scrub();
        assert_eq!(s.poisoned_lines(), 0);
        s.inject_fault(FaultPlan::media_error(u64::MAX, 3));
        for line in 0..64u64 {
            s.write(line * 64, &[6u8; 64]).unwrap();
        }
        s.crash();
        assert!(s.poisoned_lines() > 0, "post-scrub faults poison exactly as before");
    }

    #[test]
    fn partial_tail_line_pool() {
        // A pool whose size is not a multiple of the line size still
        // crashes/flushes correctly on its tail.
        let mut s = PoolStorage::new(100);
        s.write(96, &[9; 4]).unwrap();
        s.crash();
        let mut buf = [0u8; 4];
        s.read(96, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
    }
}
