//! The small fully-associative, domain-keyed buffer both designs cache
//! their domain tables in: design 1's DTTLB ([`crate::Dttlb`]) and design
//! 2's PTLB ([`crate::Ptlb`]).
//!
//! Both are CAMs of a few entries under tree-PLRU replacement, one entry
//! per domain, whose dirty entries write back to the table behind them
//! when evicted or flushed. They differ only in what an entry carries and
//! in what a lookup names: an address for the DTTLB, a domain for the PTLB.

use pmo_simarch::SetState;
use pmo_trace::PmoId;

/// An entry of a [`DomainBuffer`].
pub trait DomainEntry: Copy {
    /// What a [`DomainBuffer::lookup`] names.
    type Key: Copy;

    /// The domain the entry caches; a buffer holds one entry per domain.
    fn domain(&self) -> PmoId;

    /// Whether a lookup of `key` hits the entry.
    fn matches(&self, key: Self::Key) -> bool;

    /// Whether the entry diverges from the table behind the buffer and
    /// must be written back when it leaves.
    fn is_dirty(&self) -> bool;
}

/// A per-core, fully-associative buffer of domain entries with tree-PLRU
/// replacement.
#[derive(Debug)]
pub struct DomainBuffer<E> {
    entries: Vec<Option<E>>,
    repl: SetState,
}

pmo_simarch::impl_clone_in_place!(DomainBuffer<E> { entries, repl });

impl<E: DomainEntry> DomainBuffer<E> {
    /// Creates an empty buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds 64.
    #[must_use]
    pub fn new(capacity: u32) -> Self {
        assert!((1..=64).contains(&capacity), "buffer capacity must be 1..=64");
        DomainBuffer { entries: vec![None; capacity as usize], repl: SetState::new(capacity as u8) }
    }

    /// The way holding the first entry `hit` accepts.
    fn way(&self, hit: impl Fn(&E) -> bool) -> Option<usize> {
        self.entries.iter().position(|e| e.as_ref().is_some_and(&hit))
    }

    /// Touches the way and returns its entry.
    fn touched(&mut self, way: usize) -> Option<&mut E> {
        self.repl.touch(way as u8);
        self.entries[way].as_mut()
    }

    /// Associative lookup; touches the entry on a hit.
    pub fn lookup(&mut self, key: E::Key) -> Option<&mut E> {
        let way = self.way(|e| e.matches(key))?;
        self.touched(way)
    }

    /// Lookup by domain ID; touches the entry on a hit.
    pub fn lookup_pmo(&mut self, pmo: PmoId) -> Option<&mut E> {
        let way = self.way(|e| e.domain() == pmo)?;
        self.touched(way)
    }

    /// Inserts an entry: in place over the same domain's entry, else into
    /// a free slot, else over the PLRU victim. Returns the evicted entry,
    /// whose dirty state the caller must write back.
    pub fn insert(&mut self, entry: E) -> Option<E> {
        let (way, evicted) = match self.way(|e| e.domain() == entry.domain()) {
            Some(way) => (way, None),
            None => {
                let way = self
                    .entries
                    .iter()
                    .position(Option::is_none)
                    .unwrap_or_else(|| self.repl.victim() as usize);
                (way, self.entries[way])
            }
        };
        self.entries[way] = Some(entry);
        self.repl.touch(way as u8);
        evicted
    }

    /// Invalidates the entry for `pmo` (SETPERM on a DTTLB, detach);
    /// returns it.
    pub fn invalidate(&mut self, pmo: PmoId) -> Option<E> {
        let way = self.way(|e| e.domain() == pmo)?;
        self.entries[way].take()
    }

    /// Flushes every entry (context switch), returning the dirty ones for
    /// writeback.
    pub fn flush(&mut self) -> Vec<E> {
        self.entries.iter_mut().filter_map(Option::take).filter(E::is_dirty).collect()
    }

    /// Number of valid entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over every valid entry without touching replacement state
    /// (model-checker inspection).
    pub fn entries(&self) -> impl Iterator<Item = &E> + '_ {
        self.entries.iter().flatten()
    }
}
