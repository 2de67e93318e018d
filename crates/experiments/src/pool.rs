//! Deterministic worker pool re-export.
//!
//! [`parallel_map`] and [`parallel_map_with`] live in `pmo-simarch` (the
//! workspace's lowest common dependency) so that crates below the
//! experiment layer — the model checker's campaign driver in particular —
//! can fan work without depending on this crate. The campaign code here
//! keeps using them under their historical `crate::pool` path.

pub use pmo_simarch::pool::{parallel_map, parallel_map_with};
