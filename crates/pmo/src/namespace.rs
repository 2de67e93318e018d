//! OS-managed PMO namespace: names, ownership, permission modes, attach
//! keys, and inter-process sharing policy (paper §IV.A, second requirement).

use std::collections::BTreeMap;

use pmo_trace::PmoId;

use crate::error::{Result, RuntimeError};
use crate::storage::PoolStorage;

/// A user identifier (the namespace's permission subject).
pub type Uid = u32;

/// Unix-like permission mode for a pool: read/write for the owning user
/// and for everyone else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mode {
    /// Owner may attach for reading.
    pub owner_read: bool,
    /// Owner may attach for writing.
    pub owner_write: bool,
    /// Other users may attach for reading.
    pub other_read: bool,
    /// Other users may attach for writing.
    pub other_write: bool,
}

impl Mode {
    /// Owner read/write; no access for others (0600).
    #[must_use]
    pub const fn private() -> Self {
        Mode { owner_read: true, owner_write: true, other_read: false, other_write: false }
    }

    /// Owner read/write; others read-only (0644).
    #[must_use]
    pub const fn shared_read() -> Self {
        Mode { owner_read: true, owner_write: true, other_read: true, other_write: false }
    }

    /// Read/write for everyone (0666).
    #[must_use]
    pub const fn shared_write() -> Self {
        Mode { owner_read: true, owner_write: true, other_read: true, other_write: true }
    }

    fn allows(&self, is_owner: bool, write: bool) -> bool {
        match (is_owner, write) {
            (true, false) => self.owner_read,
            (true, true) => self.owner_write,
            (false, false) => self.other_read,
            (false, true) => self.other_write,
        }
    }
}

impl Default for Mode {
    fn default() -> Self {
        Mode::private()
    }
}

/// The intent a process declares when attaching a PMO (§IV.A: "a process
/// can express intent to read (R) or both read and write (RW)").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttachIntent {
    /// Read-only attachment; may be shared among processes.
    Read,
    /// Read-write attachment; exclusive against other writers.
    ReadWrite,
}

impl AttachIntent {
    /// Whether the intent includes writing.
    #[must_use]
    pub const fn writes(self) -> bool {
        matches!(self, AttachIntent::ReadWrite)
    }
}

/// A pool's health as judged by the last recovery that examined it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolHealth {
    /// Recovery metadata is intact; all data readable.
    Healthy,
    /// The pool attached and its metadata is intact, but some data
    /// lines are unreadable (injected or real media damage).
    Degraded,
    /// Recovery metadata itself is damaged; the pool refuses attach.
    Quarantined,
}

/// One registered pool.
#[derive(Debug)]
pub struct PoolEntry {
    /// Stable PMO/domain ID, assigned at creation.
    pub id: PmoId,
    /// Pool name (the namespace key).
    pub name: String,
    /// Owning user.
    pub owner: Uid,
    /// Permission mode.
    pub mode: Mode,
    /// Optional attach key: processes must present it to attach (§IV.A).
    pub attach_key: Option<u64>,
    /// Backing storage.
    pub storage: PoolStorage,
    /// Number of live read-only attachments.
    pub readers: u32,
    /// Number of live read-write attachments (0 or 1: single-writer).
    pub writers: u32,
    /// Sticky quarantine: set when recovery finds the pool's header or
    /// redo log damaged beyond safe repair. A quarantined pool refuses
    /// further attaches (data stays on media for forensics) until
    /// destroyed and recreated.
    pub quarantined: Option<&'static str>,
}

impl PoolEntry {
    /// Lifts a sticky quarantine after the media has been scrubbed.
    ///
    /// Quarantine exists because the pool's recovery metadata cannot be
    /// trusted; releasing it is only safe once nothing of the damaged
    /// image remains, so this refuses while any poisoned line survives.
    /// Returns the reason the pool had been quarantined for (so callers
    /// can log what was recovered from). A repeat media error after
    /// release re-quarantines exactly like the first: release clears the
    /// flag, never the mechanism.
    ///
    /// # Errors
    ///
    /// Fails with [`RuntimeError::PoolQuarantined`] if poisoned lines
    /// remain on media (scrub first).
    pub fn release_quarantine(&mut self) -> Result<Option<&'static str>> {
        if self.storage.poisoned_lines() > 0 {
            return Err(RuntimeError::PoolQuarantined {
                name: self.name.clone(),
                reason: "media still poisoned; scrub before releasing quarantine",
            });
        }
        Ok(self.quarantined.take())
    }

    /// The pool's current health.
    #[must_use]
    pub fn health(&self) -> PoolHealth {
        if self.quarantined.is_some() {
            PoolHealth::Quarantined
        } else if self.storage.poisoned_lines() > 0 {
            PoolHealth::Degraded
        } else {
            PoolHealth::Healthy
        }
    }
}

/// The OS-side PMO registry.
///
/// The namespace implements the paper's inter-process policy: a PMO may be
/// attached by many readers or one writer ("a PMO may be attached
/// exclusively to only one process for writing, but may be attached to
/// multiple processes for reading").
///
/// Pools are stored by PMO ID, so the by-ID lookup every PMO load and
/// store goes through is a single index. A name→ID index serves the
/// by-name API and keeps [`Namespace::names`] sorted by name.
#[derive(Debug, Default)]
pub struct Namespace {
    /// Every pool ever created, by ID; a destroyed pool's slot stays
    /// empty, so the next ID is always one past the last slot.
    pools: PmoTable<PoolEntry>,
    ids_by_name: BTreeMap<String, PmoId>,
}

impl Namespace {
    /// Creates an empty namespace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new pool; returns its stable PMO ID.
    pub fn create(&mut self, name: &str, size: u64, mode: Mode, owner: Uid) -> Result<PmoId> {
        if size == 0 {
            return Err(RuntimeError::InvalidSize(size));
        }
        if self.ids_by_name.contains_key(name) {
            return Err(RuntimeError::PoolExists(name.to_string()));
        }
        let id = self.pools.next_id();
        let mut storage = PoolStorage::new(size);
        storage.set_owner(id);
        self.pools.insert(
            id,
            PoolEntry {
                id,
                name: name.to_string(),
                owner,
                mode,
                attach_key: None,
                storage,
                readers: 0,
                writers: 0,
                quarantined: None,
            },
        );
        self.ids_by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Sets (or clears) a pool's attach key. Only the owner may do this.
    pub fn set_attach_key(&mut self, name: &str, uid: Uid, key: Option<u64>) -> Result<()> {
        let entry = self.entry_mut_by_name(name)?;
        if entry.owner != uid {
            return Err(RuntimeError::PermissionDenied {
                name: name.to_string(),
                reason: "only the owner may change the attach key",
            });
        }
        entry.attach_key = key;
        Ok(())
    }

    /// Validates an attach request and acquires the reader/writer lock.
    /// Returns the pool's PMO ID.
    pub fn acquire(
        &mut self,
        name: &str,
        uid: Uid,
        intent: AttachIntent,
        key: Option<u64>,
    ) -> Result<PmoId> {
        let entry = self.entry_mut_by_name(name)?;
        if let Some(reason) = entry.quarantined {
            return Err(RuntimeError::PoolQuarantined { name: name.to_string(), reason });
        }
        if !entry.mode.allows(entry.owner == uid, intent.writes()) {
            return Err(RuntimeError::PermissionDenied {
                name: name.to_string(),
                reason: "mode forbids the requested intent",
            });
        }
        if entry.attach_key.is_some() && entry.attach_key != key {
            return Err(RuntimeError::WrongAttachKey(name.to_string()));
        }
        match intent {
            AttachIntent::Read => {
                if entry.writers > 0 {
                    return Err(RuntimeError::ExclusivelyHeld(name.to_string()));
                }
                entry.readers += 1;
            }
            AttachIntent::ReadWrite => {
                if entry.writers > 0 || entry.readers > 0 {
                    return Err(RuntimeError::ExclusivelyHeld(name.to_string()));
                }
                entry.writers += 1;
            }
        }
        Ok(entry.id)
    }

    /// Releases an attachment lock previously acquired with
    /// [`Namespace::acquire`].
    pub fn release(&mut self, id: PmoId, intent: AttachIntent) -> Result<()> {
        let entry = self.entry_mut(id)?;
        match intent {
            AttachIntent::Read => entry.readers = entry.readers.saturating_sub(1),
            AttachIntent::ReadWrite => entry.writers = entry.writers.saturating_sub(1),
        }
        Ok(())
    }

    /// Looks up a pool by ID.
    pub fn entry(&self, id: PmoId) -> Result<&PoolEntry> {
        self.pools.get(id).ok_or(RuntimeError::NotAttached(id))
    }

    /// Looks up a pool mutably by ID.
    pub fn entry_mut(&mut self, id: PmoId) -> Result<&mut PoolEntry> {
        self.pools.get_mut(id).ok_or(RuntimeError::NotAttached(id))
    }

    /// Looks up a pool mutably by name (the scrub/quarantine-release
    /// path operates on pools that may refuse ID-based attach).
    pub fn entry_mut_by_name(&mut self, name: &str) -> Result<&mut PoolEntry> {
        let id = self.id_of(name)?;
        self.entry_mut(id)
    }

    /// Destroys a pool and its data. Only the owner may destroy it, and
    /// only while nobody has it attached.
    pub fn destroy(&mut self, name: &str, uid: Uid) -> Result<()> {
        let entry = self.entry_mut_by_name(name)?;
        if entry.owner != uid {
            return Err(RuntimeError::PermissionDenied {
                name: name.to_string(),
                reason: "only the owner may destroy a pool",
            });
        }
        if entry.readers > 0 || entry.writers > 0 {
            return Err(RuntimeError::ExclusivelyHeld(name.to_string()));
        }
        let id = entry.id;
        self.pools.remove(id);
        self.ids_by_name.remove(name);
        Ok(())
    }

    /// Iterates over registered pool names, sorted by name.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.ids_by_name.keys().map(String::as_str)
    }

    /// Whether a pool with this name exists.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.ids_by_name.contains_key(name)
    }

    /// A pool's current health.
    ///
    /// # Errors
    ///
    /// Fails if no pool with this name exists.
    pub fn health(&self, name: &str) -> Result<PoolHealth> {
        let id = self.id_of(name)?;
        Ok(self.entry(id)?.health())
    }

    /// Number of registered pools.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids_by_name.len()
    }

    /// Whether no pools are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids_by_name.is_empty()
    }

    /// Simulates machine power loss: every pool's unflushed lines revert
    /// and all attachment locks evaporate. Returns total lines lost.
    pub fn crash_all(&mut self) -> u64 {
        let mut lost = 0;
        for entry in self.pools.values_mut() {
            lost += entry.storage.crash();
            entry.readers = 0;
            entry.writers = 0;
        }
        lost
    }

    fn id_of(&self, name: &str) -> Result<PmoId> {
        self.ids_by_name
            .get(name)
            .copied()
            .ok_or_else(|| RuntimeError::NoSuchPool(name.to_string()))
    }
}

/// A table keyed by PMO ID. PMO IDs are handed out densely from 1, so
/// slot `id - 1` of a vector holds the value for `id` and every lookup is
/// one index.
#[derive(Debug)]
pub(crate) struct PmoTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for PmoTable<T> {
    fn default() -> Self {
        PmoTable { slots: Vec::new() }
    }
}

impl<T> PmoTable<T> {
    /// The slot of `id`; the NULL ID maps past every slot.
    fn index(id: PmoId) -> usize {
        (id.raw() as usize).wrapping_sub(1)
    }

    /// The ID one past the last slot.
    fn next_id(&self) -> PmoId {
        PmoId::new(u32::try_from(self.slots.len() + 1).expect("PMO IDs fit in 32 bits"))
    }

    pub(crate) fn get(&self, id: PmoId) -> Option<&T> {
        self.slots.get(Self::index(id)).and_then(Option::as_ref)
    }

    pub(crate) fn get_mut(&mut self, id: PmoId) -> Option<&mut T> {
        self.slots.get_mut(Self::index(id)).and_then(Option::as_mut)
    }

    /// Stores `value` under `id`, growing the table as needed.
    pub(crate) fn insert(&mut self, id: PmoId, value: T) {
        let index = Self::index(id);
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        self.slots[index] = Some(value);
    }

    pub(crate) fn remove(&mut self, id: PmoId) -> Option<T> {
        self.slots.get_mut(Self::index(id)).and_then(Option::take)
    }

    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }

    /// The stored values in ID order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Creates and destroys pools over a small name set and checks the
        /// ID-keyed store against its name index after every step.
        #[test]
        fn by_id_and_by_name_lookups_agree(
            steps in prop::collection::vec((any::<bool>(), 0usize..6), 0..80),
        ) {
            const NAMES: [&str; 6] = ["pmo-b", "a", "pmo-a", "z", "pmo-0010", "pmo-002"];
            let mut ns = Namespace::new();
            let mut live: BTreeMap<&str, PmoId> = BTreeMap::new();
            let mut dead: Vec<PmoId> = Vec::new();
            let mut next = 1u32;
            for (create, which) in steps {
                let name = NAMES[which];
                if create {
                    let got = ns.create(name, 4096, Mode::private(), 1);
                    if live.contains_key(name) {
                        prop_assert_eq!(got, Err(RuntimeError::PoolExists(name.to_string())));
                    } else {
                        // IDs are dense and never reused, even for a re-created name.
                        prop_assert_eq!(got.clone(), Ok(PmoId::new(next)));
                        next += 1;
                        live.insert(name, got.unwrap());
                    }
                } else {
                    let got = ns.destroy(name, 1);
                    match live.remove(name) {
                        Some(id) => {
                            prop_assert_eq!(got, Ok(()));
                            dead.push(id);
                        }
                        None => {
                            prop_assert_eq!(got, Err(RuntimeError::NoSuchPool(name.to_string())));
                        }
                    }
                }
                prop_assert!(ns.names().eq(live.keys().copied()), "names() sorted by name");
                prop_assert_eq!(ns.len(), live.len());
                for (&name, &id) in &live {
                    prop_assert_eq!(ns.entry(id).map(|e| e.name.as_str()), Ok(name));
                    prop_assert_eq!(ns.entry_mut(id).map(|e| e.id), Ok(id));
                    prop_assert_eq!(ns.entry_mut_by_name(name).map(|e| e.id), Ok(id));
                    prop_assert!(ns.contains(name));
                    prop_assert_eq!(ns.health(name), Ok(PoolHealth::Healthy));
                }
                for &id in dead.iter().chain(&[PmoId::NULL, PmoId::new(next)]) {
                    prop_assert_eq!(ns.entry(id).err(), Some(RuntimeError::NotAttached(id)));
                    prop_assert_eq!(ns.entry_mut(id).err(), Some(RuntimeError::NotAttached(id)));
                    prop_assert_eq!(ns.release(id, AttachIntent::Read), Err(RuntimeError::NotAttached(id)));
                }
                for name in NAMES.iter().filter(|n| !live.contains_key(*n)) {
                    let missing = RuntimeError::NoSuchPool(name.to_string());
                    prop_assert!(!ns.contains(name));
                    prop_assert_eq!(ns.health(name), Err(missing.clone()));
                    prop_assert_eq!(ns.entry_mut_by_name(name).err(), Some(missing.clone()));
                    prop_assert_eq!(ns.acquire(name, 1, AttachIntent::Read, None), Err(missing));
                }
            }
        }
    }

    #[test]
    fn create_and_ids_are_stable() {
        let mut ns = Namespace::new();
        let a = ns.create("a", 4096, Mode::private(), 1).unwrap();
        let b = ns.create("b", 4096, Mode::private(), 1).unwrap();
        assert_ne!(a, b);
        assert_eq!(ns.entry(a).unwrap().name, "a");
        assert!(ns.contains("a"));
        assert_eq!(ns.len(), 2);
        assert!(matches!(
            ns.create("a", 4096, Mode::private(), 1),
            Err(RuntimeError::PoolExists(_))
        ));
    }

    #[test]
    fn zero_size_rejected() {
        let mut ns = Namespace::new();
        assert!(matches!(ns.create("z", 0, Mode::private(), 1), Err(RuntimeError::InvalidSize(0))));
    }

    #[test]
    fn permission_mode_enforced() {
        let mut ns = Namespace::new();
        ns.create("secret", 4096, Mode::private(), 1).unwrap();
        // Owner can attach RW.
        let id = ns.acquire("secret", 1, AttachIntent::ReadWrite, None).unwrap();
        ns.release(id, AttachIntent::ReadWrite).unwrap();
        // Other users cannot.
        assert!(matches!(
            ns.acquire("secret", 2, AttachIntent::Read, None),
            Err(RuntimeError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn shared_read_allows_others_reading_only() {
        let mut ns = Namespace::new();
        ns.create("pub", 4096, Mode::shared_read(), 1).unwrap();
        let id = ns.acquire("pub", 2, AttachIntent::Read, None).unwrap();
        ns.release(id, AttachIntent::Read).unwrap();
        assert!(ns.acquire("pub", 2, AttachIntent::ReadWrite, None).is_err());
    }

    #[test]
    fn single_writer_many_readers() {
        let mut ns = Namespace::new();
        ns.create("p", 4096, Mode::shared_write(), 1).unwrap();
        let r1 = ns.acquire("p", 2, AttachIntent::Read, None).unwrap();
        let _r2 = ns.acquire("p", 3, AttachIntent::Read, None).unwrap();
        // Writer blocked while readers exist.
        assert!(matches!(
            ns.acquire("p", 1, AttachIntent::ReadWrite, None),
            Err(RuntimeError::ExclusivelyHeld(_))
        ));
        ns.release(r1, AttachIntent::Read).unwrap();
        ns.release(r1, AttachIntent::Read).unwrap();
        let w = ns.acquire("p", 1, AttachIntent::ReadWrite, None).unwrap();
        // Reader blocked while a writer exists.
        assert!(ns.acquire("p", 2, AttachIntent::Read, None).is_err());
        ns.release(w, AttachIntent::ReadWrite).unwrap();
    }

    #[test]
    fn attach_keys() {
        let mut ns = Namespace::new();
        ns.create("locked", 4096, Mode::shared_write(), 1).unwrap();
        ns.set_attach_key("locked", 1, Some(0xfeed)).unwrap();
        assert!(matches!(
            ns.acquire("locked", 2, AttachIntent::Read, None),
            Err(RuntimeError::WrongAttachKey(_))
        ));
        assert!(matches!(
            ns.acquire("locked", 2, AttachIntent::Read, Some(1)),
            Err(RuntimeError::WrongAttachKey(_))
        ));
        assert!(ns.acquire("locked", 2, AttachIntent::Read, Some(0xfeed)).is_ok());
        // Non-owner cannot change the key.
        assert!(ns.set_attach_key("locked", 2, None).is_err());
    }

    #[test]
    fn crash_releases_locks() {
        let mut ns = Namespace::new();
        ns.create("p", 4096, Mode::private(), 1).unwrap();
        ns.acquire("p", 1, AttachIntent::ReadWrite, None).unwrap();
        ns.crash_all();
        assert!(ns.acquire("p", 1, AttachIntent::ReadWrite, None).is_ok());
    }

    #[test]
    fn destroy_rules() {
        let mut ns = Namespace::new();
        ns.create("p", 4096, Mode::shared_write(), 1).unwrap();
        // Non-owner cannot destroy.
        assert!(matches!(ns.destroy("p", 2), Err(RuntimeError::PermissionDenied { .. })));
        // Attached pools cannot be destroyed.
        let id = ns.acquire("p", 1, AttachIntent::Read, None).unwrap();
        assert!(matches!(ns.destroy("p", 1), Err(RuntimeError::ExclusivelyHeld(_))));
        ns.release(id, AttachIntent::Read).unwrap();
        ns.destroy("p", 1).unwrap();
        assert!(!ns.contains("p"));
        assert!(ns.entry(id).is_err(), "id mapping removed");
        assert_eq!(ns.names().count(), 0);
        // The name can be reused (with a fresh id).
        let id2 = ns.create("p", 4096, Mode::private(), 1).unwrap();
        assert_ne!(id, id2);
    }

    #[test]
    fn quarantined_pools_refuse_attach_until_recreated() {
        let mut ns = Namespace::new();
        ns.create("sick", 4096, Mode::shared_write(), 1).unwrap();
        assert_eq!(ns.entry_mut_by_name("sick").unwrap().health(), PoolHealth::Healthy);
        ns.entry_mut_by_name("sick").unwrap().quarantined = Some("bad magic");
        assert_eq!(ns.entry_mut_by_name("sick").unwrap().health(), PoolHealth::Quarantined);
        assert!(matches!(
            ns.acquire("sick", 1, AttachIntent::ReadWrite, None),
            Err(RuntimeError::PoolQuarantined { reason: "bad magic", .. })
        ));
        // Destroy + recreate yields a fresh, healthy pool.
        ns.destroy("sick", 1).unwrap();
        ns.create("sick", 4096, Mode::shared_write(), 1).unwrap();
        assert!(ns.acquire("sick", 1, AttachIntent::ReadWrite, None).is_ok());
    }

    #[test]
    fn missing_pool_errors() {
        let mut ns = Namespace::new();
        assert!(matches!(
            ns.acquire("ghost", 1, AttachIntent::Read, None),
            Err(RuntimeError::NoSuchPool(_))
        ));
        assert!(ns.entry(PmoId::new(99)).is_err());
    }
}
