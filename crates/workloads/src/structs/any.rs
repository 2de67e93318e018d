//! The one switch over the five keyed persistent structures.
//!
//! [`StructureKind`] names a structure and [`AnyStructure`] holds one, the
//! way `SchemeKind`/`AnyScheme` close the set of protection schemes: the
//! micro benches, the crash campaigns and the pool server all drive their
//! structures through these two types, so adding a structure is one edit
//! here.

use pmo_runtime::{PmRuntime, Result};
use pmo_trace::{PmoId, TraceSink};

use super::{
    AvlTree, BplusTree, CheckReport, CheckedStructure, KeyedStructure, LinkedList,
    PersistentHashmap, RbTree,
};

/// Names one keyed persistent structure.
///
/// The discriminants are stable: the crash campaigns derive their
/// per-structure seed lanes from them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StructureKind {
    /// AVL tree (balance + BST order invariants).
    Avl = 1,
    /// Red-black tree (color + black-height invariants).
    Rbt = 2,
    /// B+tree (fanout, ordering, uniform depth, leaf chain).
    Bplus = 3,
    /// Sorted linked list (reachability + order).
    List = 4,
    /// Chained hashmap (bucket placement + key integrity).
    Hashmap = 5,
}

impl StructureKind {
    /// Every structure, in canonical (report) order.
    pub const ALL: [StructureKind; 5] = [
        StructureKind::Avl,
        StructureKind::Rbt,
        StructureKind::Bplus,
        StructureKind::List,
        StructureKind::Hashmap,
    ];

    /// Short label for reports and the `--workload` repro flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StructureKind::Avl => "avl",
            StructureKind::Rbt => "rbtree",
            StructureKind::Bplus => "bplus",
            StructureKind::List => "list",
            StructureKind::Hashmap => "hashmap",
        }
    }

    /// Parses a label back into a structure.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        StructureKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

/// One keyed persistent structure of any [`StructureKind`], statically
/// dispatched.
#[derive(Debug)]
pub enum AnyStructure {
    /// An AVL tree.
    Avl(AvlTree),
    /// A red-black tree.
    Rbt(RbTree),
    /// A B+tree.
    Bplus(BplusTree),
    /// A sorted linked list.
    List(LinkedList),
    /// A chained hashmap.
    Hashmap(PersistentHashmap),
}

macro_rules! dispatch {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            AnyStructure::Avl($s) => $body,
            AnyStructure::Rbt($s) => $body,
            AnyStructure::Bplus($s) => $body,
            AnyStructure::List($s) => $body,
            AnyStructure::Hashmap($s) => $body,
        }
    };
}

impl AnyStructure {
    /// Creates (or re-opens) a `kind` structure rooted in `pool`'s root
    /// object.
    pub fn create(
        kind: StructureKind,
        rt: &mut PmRuntime,
        pool: PmoId,
        value_bytes: u32,
        sink: &mut dyn TraceSink,
    ) -> Result<Self> {
        Ok(match kind {
            StructureKind::Avl => AnyStructure::Avl(AvlTree::create(rt, pool, value_bytes, sink)?),
            StructureKind::Rbt => AnyStructure::Rbt(RbTree::create(rt, pool, value_bytes, sink)?),
            StructureKind::Bplus => {
                AnyStructure::Bplus(BplusTree::create(rt, pool, value_bytes, sink)?)
            }
            StructureKind::List => {
                AnyStructure::List(LinkedList::create(rt, pool, value_bytes, sink)?)
            }
            StructureKind::Hashmap => {
                AnyStructure::Hashmap(PersistentHashmap::create(rt, pool, value_bytes, sink)?)
            }
        })
    }

    /// Inserts `key` ([`KeyedStructure::insert`]).
    pub fn insert(&mut self, rt: &mut PmRuntime, key: u64, sink: &mut dyn TraceSink) -> Result<()> {
        dispatch!(self, s => s.insert(rt, key, sink))
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(
        &mut self,
        rt: &mut PmRuntime,
        key: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<bool> {
        dispatch!(self, s => s.remove(rt, key, sink))
    }

    /// Whether `key` is present.
    pub fn contains(
        &mut self,
        rt: &mut PmRuntime,
        key: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<bool> {
        dispatch!(self, s => s.contains(rt, key, sink))
    }

    /// Checks every invariant and that the keys are exactly `required`
    /// plus any subset of `optional` ([`CheckedStructure::verify`]).
    pub fn verify(
        &self,
        rt: &mut PmRuntime,
        required: &[u64],
        optional: &[u64],
        sink: &mut dyn TraceSink,
    ) -> Result<CheckReport> {
        dispatch!(self, s => s.verify(rt, required, optional, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::pool_fixture;
    use super::*;

    #[test]
    fn every_kind_round_trips_through_any_structure() {
        // The labels are the values the `--workload` repro flags accept.
        let labels: Vec<&str> = StructureKind::ALL.into_iter().map(StructureKind::label).collect();
        assert_eq!(labels, ["avl", "rbtree", "bplus", "list", "hashmap"]);
        assert_eq!(StructureKind::from_label("nope"), None);
        // The seed lanes the crash campaigns derive from the discriminants.
        let lanes: Vec<u64> = StructureKind::ALL.into_iter().map(|k| k as u64).collect();
        assert_eq!(lanes, [1, 2, 3, 4, 5]);

        let keys: Vec<u64> = (0..40u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        for kind in StructureKind::ALL {
            assert_eq!(StructureKind::from_label(kind.label()), Some(kind));
            let (mut rt, pool, mut sink) = pool_fixture();
            let mut s = AnyStructure::create(kind, &mut rt, pool, 32, &mut sink).unwrap();
            for &k in &keys {
                s.insert(&mut rt, k, &mut sink).unwrap();
            }
            for &k in &keys {
                assert!(s.contains(&mut rt, k, &mut sink).unwrap(), "{kind:?}: {k:#x} missing");
            }
            let report = s.verify(&mut rt, &keys, &[], &mut sink).unwrap();
            assert!(report.is_clean(), "{kind:?}: {report}");
            assert!(report.nodes_visited > 0, "{kind:?}");
            // Tree deletes do not rebalance, so remove every key: the empty
            // structure is the committed state verify can check after them.
            for &k in &keys {
                assert!(s.remove(&mut rt, k, &mut sink).unwrap(), "{kind:?}: {k:#x} not removed");
                assert!(!s.contains(&mut rt, k, &mut sink).unwrap(), "{kind:?}: {k:#x} kept");
            }
            assert!(!s.remove(&mut rt, keys[0], &mut sink).unwrap(), "{kind:?}: removed twice");
            let report = s.verify(&mut rt, &[], &[], &mut sink).unwrap();
            assert!(report.is_clean(), "{kind:?} after removes: {report}");
        }
    }
}
