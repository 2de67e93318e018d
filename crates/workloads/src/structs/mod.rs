//! Persistent data structures built on the PMO runtime.
//!
//! These are the *real* (functional) implementations behind both benchmark
//! families: every node lives in pool storage, every pointer is a
//! relocatable OID, and every read/write flows through the runtime's
//! instrumented accessors so the trace contains organic address streams.
//!
//! Inserts perform the structure's full maintenance (AVL rotations,
//! red-black recoloring, B+tree splits); deletes unlink/remove without
//! rebalancing (heights/colors are left stale), a common simplification
//! that preserves functional correctness and the access-pattern shape the
//! evaluation depends on (the op mix is 90% inserts).
//!
//! [`StructureKind`] and [`AnyStructure`] close the set of keyed
//! structures: every caller that picks one at run time goes through them.

mod any;
mod avl;
mod bplus;
mod hashmap;
mod list;
mod lru;
mod rbtree;
mod strings;
mod verify;

pub use any::{AnyStructure, StructureKind};
pub use avl::AvlTree;
pub use bplus::BplusTree;
pub use hashmap::PersistentHashmap;
pub use list::LinkedList;
pub use lru::LruList;
pub use rbtree::RbTree;
pub use strings::StringArray;
pub use verify::{CheckReport, CheckedStructure};

use pmo_runtime::{PmRuntime, Result};
use pmo_trace::{PmoId, TraceSink};

/// A keyed persistent structure the micro benchmarks drive.
pub trait KeyedStructure: Sized {
    /// Creates (or re-opens) the structure rooted in `pool`'s root object.
    fn create(
        rt: &mut PmRuntime,
        pool: PmoId,
        value_bytes: u32,
        sink: &mut dyn TraceSink,
    ) -> Result<Self>;

    /// Inserts `key` with the deterministic value for it; overwrites on
    /// duplicate.
    fn insert(&mut self, rt: &mut PmRuntime, key: u64, sink: &mut dyn TraceSink) -> Result<()>;

    /// Removes `key`; returns whether it was present.
    fn remove(&mut self, rt: &mut PmRuntime, key: u64, sink: &mut dyn TraceSink) -> Result<bool>;

    /// Whether `key` is present.
    fn contains(&mut self, rt: &mut PmRuntime, key: u64, sink: &mut dyn TraceSink) -> Result<bool>;

    /// Number of elements (volatile counter, for tests).
    fn len(&self) -> u64;

    /// Whether the structure is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The deterministic value payload for a key: the key's bytes repeated.
/// Tests verify stored values against this.
#[must_use]
pub fn value_for(key: u64, len: u32) -> Vec<u8> {
    key.to_le_bytes().iter().copied().cycle().take(len as usize).collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use pmo_runtime::{Mode, PmRuntime};
    use pmo_trace::{NullSink, PmoId, TraceSink};

    /// A runtime with one 8MB pool, plus a sink, for structure tests.
    pub fn pool_fixture() -> (PmRuntime, PmoId, NullSink) {
        let mut rt = PmRuntime::new();
        let mut sink = NullSink::new();
        let pool = rt.pool_create("test", 8 << 20, Mode::private(), &mut sink).unwrap();
        (rt, pool, sink)
    }

    /// Exercises the full [`super::KeyedStructure`] contract on `S`.
    pub fn exercise_contract<S: super::KeyedStructure>() {
        let (mut rt, pool, mut sink) = pool_fixture();
        let mut s = S::create(&mut rt, pool, 64, &mut sink).unwrap();
        assert!(s.is_empty());

        // Deterministic pseudo-random keys.
        let keys: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        for (i, &k) in keys.iter().enumerate() {
            s.insert(&mut rt, k, &mut sink).unwrap();
            assert_eq!(s.len(), i as u64 + 1);
        }
        for &k in &keys {
            assert!(s.contains(&mut rt, k, &mut sink).unwrap(), "key {k:#x} missing");
        }
        assert!(!s.contains(&mut rt, 0xdead_beef, &mut sink).unwrap());

        // Duplicate insert does not grow the structure.
        s.insert(&mut rt, keys[0], &mut sink).unwrap();
        assert_eq!(s.len(), 200);

        // Remove half, verify membership split.
        for &k in keys.iter().step_by(2) {
            assert!(s.remove(&mut rt, k, &mut sink).unwrap(), "key {k:#x} not removed");
        }
        assert_eq!(s.len(), 100);
        for (i, &k) in keys.iter().enumerate() {
            let expect = i % 2 == 1;
            assert_eq!(s.contains(&mut rt, k, &mut sink).unwrap(), expect, "key {k:#x}");
        }
        // Removing a missing key reports false.
        assert!(!s.remove(&mut rt, keys[0], &mut sink).unwrap());

        // Re-insert removed keys.
        for &k in keys.iter().step_by(2) {
            s.insert(&mut rt, k, &mut sink).unwrap();
        }
        assert_eq!(s.len(), 200);
        for &k in &keys {
            assert!(s.contains(&mut rt, k, &mut sink).unwrap());
        }
    }

    /// Verifies the structure survives detach/attach (relocation).
    pub fn exercise_persistence<S: super::KeyedStructure>() {
        use pmo_runtime::AttachIntent;
        let (mut rt, pool, mut sink) = pool_fixture();
        let mut s = S::create(&mut rt, pool, 64, &mut sink).unwrap();
        for k in 0..64u64 {
            s.insert(&mut rt, k * 3, &mut sink).unwrap();
        }
        rt.pool_close(pool, &mut sink).unwrap();
        let pool = rt.pool_open("test", AttachIntent::ReadWrite, &mut sink).unwrap();
        let mut s = S::create(&mut rt, pool, 64, &mut sink).unwrap();
        for k in 0..64u64 {
            assert!(s.contains(&mut rt, k * 3, &mut sink).unwrap(), "key {} lost", k * 3);
        }
        assert!(!s.contains(&mut rt, 1, &mut sink).unwrap());
    }

    /// Exercises the [`super::CheckedStructure`] contract: a freshly built
    /// structure verifies clean, and membership drift is detected.
    pub fn exercise_verify<S: super::CheckedStructure>() {
        let (mut rt, pool, mut sink) = pool_fixture();
        let mut s = S::create(&mut rt, pool, 32, &mut sink).unwrap();
        let keys: Vec<u64> = (0..150u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        for &k in &keys {
            s.insert(&mut rt, k, &mut sink).unwrap();
        }
        let report = s.verify(&mut rt, &keys, &[], &mut sink).unwrap();
        assert!(report.is_clean(), "intact structure must verify clean: {report}");
        assert!(report.nodes_visited > 0);

        // A committed key the structure lost is flagged.
        let mut extended = keys.clone();
        extended.push(0x1234);
        let report = s.verify(&mut rt, &extended, &[], &mut sink).unwrap();
        assert!(!report.is_clean(), "lost key must be flagged");

        // A key that was never committed is flagged...
        let report = s.verify(&mut rt, &keys[1..], &[], &mut sink).unwrap();
        assert!(!report.is_clean(), "phantom key must be flagged");

        // ...unless it is the in-flight (optional) key of the crashed op.
        let report = s.verify(&mut rt, &keys[1..], &keys[..1], &mut sink).unwrap();
        assert!(report.is_clean(), "in-flight key is legal either way: {report}");
    }

    /// Asserts that structure operations emit memory-access trace events.
    pub fn exercise_tracing<S: super::KeyedStructure>() {
        use pmo_trace::CountingSink;
        let (mut rt, pool, mut null) = pool_fixture();
        let mut s = S::create(&mut rt, pool, 64, &mut null).unwrap();
        let mut counter = CountingSink::new();
        let mut dyn_sink: &mut dyn TraceSink = &mut counter;
        s.insert(&mut rt, 42, &mut dyn_sink).unwrap();
        let counts = counter.counts();
        assert!(counts.stores > 0, "insert must emit stores");
        assert!(counts.instructions() > 0);
    }
}
