//! The attach placement rule (§IV.A): "A PMO can map only to an aligned
//! and contiguous range of virtual address that corresponds to the
//! granularity of the hierarchy level of the page table". The one copy of
//! the granule ladder: the runtime's address-space allocator, the
//! schemes' page tables and the trace decoder all derive granules here.

use std::{error::Error, fmt};

use crate::Va;

/// Page-table-level granularities a PMO region may occupy.
pub const GRANULES: [u64; 4] = [
    4 << 10,      // 4KB   (PTE level)
    2 << 20,      // 2MB   (PMD level)
    1 << 30,      // 1GB   (PUD level)
    512u64 << 30, // 512GB (PGD level)
];

/// Why a PMO cannot be placed under the granule rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GranuleError {
    /// The PMO has no bytes.
    Empty,
    /// The PMO is larger than the largest granule.
    TooLarge {
        /// The PMO's size in bytes.
        size: u64,
    },
    /// The base is not aligned to the granule the size calls for.
    Misaligned {
        /// The attach base.
        base: Va,
        /// The smallest granule covering the PMO.
        granule: u64,
    },
}

impl fmt::Display for GranuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GranuleError::Empty => f.write_str("PMO size must be positive"),
            GranuleError::TooLarge { size } => write!(f, "PMO larger than 512GB ({size} bytes)"),
            GranuleError::Misaligned { base, granule } => {
                write!(f, "attach base {base:#x} not aligned to granule {granule:#x}")
            }
        }
    }
}

impl Error for GranuleError {}

/// The smallest page-table granule that covers `size` bytes.
///
/// # Errors
///
/// Fails if `size` is zero or exceeds 512GB.
pub fn granule_for(size: u64) -> Result<u64, GranuleError> {
    if size == 0 {
        return Err(GranuleError::Empty);
    }
    GRANULES.into_iter().find(|g| size <= *g).ok_or(GranuleError::TooLarge { size })
}

/// The granule of a PMO of `size` bytes attached at `base`.
///
/// # Errors
///
/// Fails if `size` is zero or exceeds 512GB, or if `base` is not aligned
/// to the granule.
pub fn attach_granule(base: Va, size: u64) -> Result<u64, GranuleError> {
    let granule = granule_for(size)?;
    if base.is_multiple_of(granule) {
        Ok(granule)
    } else {
        Err(GranuleError::Misaligned { base, granule })
    }
}
