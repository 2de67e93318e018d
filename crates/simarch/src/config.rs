//! Simulation parameters (paper Table II) and cost-model constants.

use std::fmt;

/// Geometry of one set-associative structure (cache or TLB).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetAssocGeometry {
    /// Total number of entries (must be `sets * ways`).
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
}

impl SetAssocGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    #[must_use]
    pub fn new(entries: u32, ways: u32) -> Self {
        assert!(ways > 0 && entries > 0, "geometry must be non-empty");
        assert_eq!(entries % ways, 0, "entries must be a multiple of ways");
        SetAssocGeometry { entries, ways }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }
}

/// All simulation parameters.
///
/// [`SimConfig::isca2020`] reproduces the paper's Table II exactly; every
/// field is public so experiments and ablations can deviate from it.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    // ---- Processor ----
    /// Core clock in Hz (2.2 GHz in the paper). Used only to convert
    /// cycle counts into "per second" rates for the tables.
    pub clock_hz: f64,
    /// Cycles charged per non-memory instruction. The paper's core is a
    /// 4-way out-of-order; a base CPI of 0.25 approximates its throughput
    /// on the compute portions of the trace.
    pub base_cpi: f64,

    // ---- Cache ----
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// L1 data cache geometry (32KB, 8-way in the paper).
    pub l1d: SetAssocGeometry,
    /// L1 data cache hit latency in cycles.
    pub l1d_latency: u64,
    /// L2 cache geometry (1MB, 16-way in the paper).
    pub l2: SetAssocGeometry,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,

    // ---- Memory ----
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
    /// NVM access latency in cycles (3x DRAM, per Optane characterization).
    pub nvm_latency: u64,
    /// Memory-level-parallelism factor of the 4-way out-of-order core: the
    /// effective main-memory stall charged per miss is `latency / mlp`.
    /// A trace-driven in-order accumulator would otherwise serialize every
    /// miss, which the paper's Sniper (OOO, 128-entry ROB) does not.
    pub mem_level_parallelism: f64,
    /// Extra cycles charged for a `clwb`-style line writeback instruction
    /// (the write itself drains asynchronously; this is the issue cost).
    pub clwb_cycles: u64,
    /// Cycles charged for a fence draining pending persists.
    pub fence_cycles: u64,

    // ---- TLB ----
    /// L1 data TLB geometry (64-entry, 4-way, 4KB pages).
    pub l1_tlb: SetAssocGeometry,
    /// L1 TLB access latency in cycles.
    pub l1_tlb_latency: u64,
    /// L2 TLB geometry (1536-entry, 6-way).
    pub l2_tlb: SetAssocGeometry,
    /// L2 TLB access latency in cycles.
    pub l2_tlb_latency: u64,
    /// Flat page-walk penalty on a full TLB miss.
    pub tlb_miss_penalty: u64,

    // ---- MPK ----
    /// WRPKRU instruction latency (27 cycles in Table II). Also used as the
    /// cost of the paper's SETPERM instruction, which Table VII shows has
    /// the same permission-change overhead as the lowerbound.
    pub wrpkru_cycles: u64,
    /// Number of architected protection keys (16 for MPK). Key 0 is the
    /// reserved NULL key, so `pkeys - 1` keys are usable for domains.
    pub pkeys: u32,

    // ---- Hardware MPK virtualization ----
    /// DTTLB entry count (fully associative CAM in the paper).
    pub dttlb_entries: u32,
    /// DTTLB hit latency (overlapped with the page walk; charged only on
    /// the eviction path).
    pub dttlb_hit_cycles: u64,
    /// Cost of adding/removing/modifying a DTTLB entry.
    pub dttlb_entry_op_cycles: u64,
    /// DTTLB miss penalty (hardware DTT walk).
    pub dttlb_miss_cycles: u64,
    /// Cost of checking/updating the free-keys structure.
    pub free_keys_cycles: u64,
    /// Cost of updating the PKRU when a key is (re)assigned.
    pub pkru_update_cycles: u64,
    /// Cost of one ranged TLB invalidation (shootdown) per core.
    pub tlb_invalidation_cycles: u64,

    // ---- Hardware domain virtualization ----
    /// PTLB entry count.
    pub ptlb_entries: u32,
    /// PTLB lookup latency added to every domain access.
    pub ptlb_access_cycles: u64,
    /// PTLB miss penalty (includes the Permission Table lookup).
    pub ptlb_miss_cycles: u64,
    /// Cost of adding/removing/modifying a PTLB entry.
    pub ptlb_entry_op_cycles: u64,
    /// Width of the domain-ID field added to each TLB entry (10 bits).
    pub domain_id_bits: u32,

    // ---- ERIM (call gates over raw MPK) ----
    /// Cycles the ERIM call-gate trampoline adds around a WRPKRU-based
    /// permission switch (argument save/restore, stack switch, and the
    /// post-WRPKRU verification branch; Vahldiek-Oberwagner et al. §4).
    pub erim_gate_cycles: u64,

    // ---- Domain page-table isolation (DPTI) ----
    /// Cycles for one CR3 write on a domain/thread switch (the TLB-tag
    /// and pipeline-serialization cost of loading a new page-table root;
    /// Canella et al. measure ~hundreds of cycles without PCID reuse).
    pub cr3_write_cycles: u64,

    // ---- Software cost model (libmpk and system calls) ----
    /// Cycles for one kernel entry/exit round trip (`pkey_mprotect`,
    /// attach/detach). Calibrated; see EXPERIMENTS.md.
    pub syscall_cycles: u64,
    /// Cycles to rewrite the pkey field of one PTE during `pkey_mprotect`.
    pub pte_write_cycles: u64,
    /// Cycles for the in-kernel portion of an attach/detach beyond the bare
    /// syscall (VMA setup, DTT/DRT/PT entry management).
    pub attach_kernel_cycles: u64,

    // ---- System ----
    /// Number of threads that receive TLB-shootdown IPIs on a key remap.
    pub threads: u32,
}

impl SimConfig {
    /// The paper's Table II configuration.
    #[must_use]
    pub fn isca2020() -> Self {
        SimConfig {
            clock_hz: 2.2e9,
            base_cpi: 0.25,
            line_bytes: 64,
            l1d: SetAssocGeometry::new(32 * 1024 / 64, 8), // 32KB, 8-way
            l1d_latency: 1,
            l2: SetAssocGeometry::new(1024 * 1024 / 64, 16), // 1MB, 16-way
            l2_latency: 8,
            dram_latency: 120,
            nvm_latency: 360,
            mem_level_parallelism: 3.0,
            clwb_cycles: 5,
            fence_cycles: 10,
            l1_tlb: SetAssocGeometry::new(64, 4),
            l1_tlb_latency: 1,
            l2_tlb: SetAssocGeometry::new(1536, 6),
            l2_tlb_latency: 4,
            tlb_miss_penalty: 30,
            wrpkru_cycles: 27,
            pkeys: 16,
            dttlb_entries: 16,
            dttlb_hit_cycles: 1,
            dttlb_entry_op_cycles: 1,
            dttlb_miss_cycles: 30,
            free_keys_cycles: 1,
            pkru_update_cycles: 1,
            tlb_invalidation_cycles: 286,
            ptlb_entries: 16,
            ptlb_access_cycles: 1,
            ptlb_miss_cycles: 30,
            ptlb_entry_op_cycles: 1,
            domain_id_bits: 10,
            erim_gate_cycles: 30,
            cr3_write_cycles: 300,
            syscall_cycles: 1500,
            pte_write_cycles: 2,
            attach_kernel_cycles: 2000,
            threads: 1,
        }
    }

    /// Seconds represented by `cycles` at the configured clock.
    #[must_use]
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }

    /// Rate (events per second) for `events` occurring over `cycles`.
    #[must_use]
    pub fn per_second(&self, events: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            events as f64 * self.clock_hz / cycles as f64
        }
    }

    /// Usable (non-NULL) protection keys.
    #[must_use]
    pub fn usable_pkeys(&self) -> u32 {
        self.pkeys.saturating_sub(1)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::isca2020()
    }
}

impl fmt::Display for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Processor      {:.1} GHz, base CPI {:.2}",
            self.clock_hz / 1e9,
            self.base_cpi
        )?;
        writeln!(
            f,
            "Cache          L1D {}KB {}-way {}cy; L2 {}KB {}-way {}cy; {}B lines",
            self.l1d.entries * self.line_bytes / 1024,
            self.l1d.ways,
            self.l1d_latency,
            self.l2.entries * self.line_bytes / 1024,
            self.l2.ways,
            self.l2_latency,
            self.line_bytes
        )?;
        writeln!(f, "Memory         DRAM {}cy; NVM {}cy", self.dram_latency, self.nvm_latency)?;
        writeln!(
            f,
            "TLB            L1 {}-entry {}-way {}cy; L2 {}-entry {}-way {}cy; miss {}cy",
            self.l1_tlb.entries,
            self.l1_tlb.ways,
            self.l1_tlb_latency,
            self.l2_tlb.entries,
            self.l2_tlb.ways,
            self.l2_tlb_latency,
            self.tlb_miss_penalty
        )?;
        writeln!(f, "MPK            WRPKRU {}cy, {} keys", self.wrpkru_cycles, self.pkeys)?;
        writeln!(
            f,
            "MPK virt.      DTTLB {} entries, hit {}cy, entry-op {}cy, miss {}cy, \
             free-keys {}cy, PKRU update {}cy, TLB invalidation {}cy",
            self.dttlb_entries,
            self.dttlb_hit_cycles,
            self.dttlb_entry_op_cycles,
            self.dttlb_miss_cycles,
            self.free_keys_cycles,
            self.pkru_update_cycles,
            self.tlb_invalidation_cycles
        )?;
        writeln!(
            f,
            "Domain virt.   PTLB {} entries, access {}cy, miss {}cy, entry-op {}cy, \
             {}-bit domain IDs",
            self.ptlb_entries,
            self.ptlb_access_cycles,
            self.ptlb_miss_cycles,
            self.ptlb_entry_op_cycles,
            self.domain_id_bits
        )?;
        write!(
            f,
            "ERIM/DPTI      call gate {}cy, CR3 write {}cy",
            self.erim_gate_cycles, self.cr3_write_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        let c = SimConfig::isca2020();
        assert_eq!(c.l1d.entries, 512); // 32KB / 64B
        assert_eq!(c.l1d.ways, 8);
        assert_eq!(c.l2.entries, 16384); // 1MB / 64B
        assert_eq!(c.l2.ways, 16);
        assert_eq!(c.dram_latency, 120);
        assert_eq!(c.nvm_latency, 360);
        assert_eq!(c.l1_tlb.entries, 64);
        assert_eq!(c.l2_tlb.entries, 1536);
        assert_eq!(c.tlb_miss_penalty, 30);
        assert_eq!(c.wrpkru_cycles, 27);
        assert_eq!(c.dttlb_entries, 16);
        assert_eq!(c.tlb_invalidation_cycles, 286);
        assert_eq!(c.ptlb_entries, 16);
        assert_eq!(c.ptlb_miss_cycles, 30);
    }

    #[test]
    fn geometry_sets() {
        let g = SetAssocGeometry::new(64, 4);
        assert_eq!(g.sets(), 16);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn geometry_rejects_ragged() {
        let _ = SetAssocGeometry::new(65, 4);
    }

    #[test]
    fn rate_conversion() {
        let c = SimConfig::isca2020();
        // 1M events in 2.2e9 cycles (1 second) = 1M/sec.
        let rate = c.per_second(1_000_000, 2_200_000_000);
        assert!((rate - 1.0e6).abs() < 1.0);
        assert_eq!(c.per_second(5, 0), 0.0);
        assert!((c.cycles_to_seconds(2_200_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn usable_keys_excludes_null() {
        assert_eq!(SimConfig::isca2020().usable_pkeys(), 15);
    }

    #[test]
    fn display_mentions_key_parameters() {
        let text = format!("{}", SimConfig::isca2020());
        assert!(text.contains("WRPKRU 27cy"));
        assert!(text.contains("TLB invalidation 286cy"));
        assert!(text.contains("PTLB 16 entries"));
        assert!(text.contains("call gate 30cy"));
        assert!(text.contains("CR3 write 300cy"));
    }
}
