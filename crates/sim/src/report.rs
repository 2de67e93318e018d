//! Replay results and overhead arithmetic.

use std::fmt;

use pmo_protect::{CostBreakdown, ProtectionFault, SchemeKind, SchemeStats};
use pmo_simarch::{CacheStats, SimConfig, TlbStats};
use pmo_trace::json::{self, Fixed, Object, Value};
use pmo_trace::EventCounts;

/// Everything a replay run produces.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayReport {
    /// Which scheme ran.
    pub scheme: SchemeKind,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Raw event counts of the trace.
    pub counts: EventCounts,
    /// The scheme's cycle ledger; `cycles` less its total is the memory
    /// side every scheme of the replay shares.
    pub breakdown: CostBreakdown,
    /// Scheme event counters.
    pub scheme_stats: SchemeStats,
    /// Data TLB statistics.
    pub tlb: TlbStats,
    /// L1D cache statistics.
    pub l1d: CacheStats,
    /// L2 cache statistics.
    pub l2: CacheStats,
    /// NVM reads/writes reaching memory.
    pub nvm_reads: u64,
    /// NVM write traffic.
    pub nvm_writes: u64,
    /// Protection faults recorded (first few; count in `scheme_stats`).
    pub faults: Vec<ProtectionFault>,
    /// Faults beyond the retained-log cap: counted, not silently lost.
    pub faults_dropped: u64,
    /// Completed workload operations (`Op::End` markers).
    pub ops: u64,
    /// Host wall-clock time the replay took, in nanoseconds. Always 0
    /// when the report leaves the (deterministic) simulator; harnesses
    /// that are allowed to read the clock stamp it afterwards.
    pub wall_nanos: u64,
}

/// Cumulative state captured at a phase boundary of a replay
/// (see [`crate::Replay::snapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplaySnapshot {
    /// Cycles at the boundary.
    pub cycles: u64,
    /// The scheme's cycle ledger at the boundary.
    pub breakdown: CostBreakdown,
    /// Permission switches at the boundary.
    pub set_perms: u64,
    /// Completed ops at the boundary.
    pub ops: u64,
}

impl ReplayReport {
    /// Windows the report to the portion after `snapshot` (cycles,
    /// breakdown, switch and op counts; structure statistics remain
    /// cumulative).
    #[must_use]
    pub fn since(mut self, snapshot: &ReplaySnapshot) -> ReplayReport {
        self.cycles = self.cycles.saturating_sub(snapshot.cycles);
        self.breakdown = self.breakdown - snapshot.breakdown;
        self.counts.set_perms = self.counts.set_perms.saturating_sub(snapshot.set_perms);
        self.ops = self.ops.saturating_sub(snapshot.ops);
        self
    }

    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Execution-time overhead over `base`, in percent
    /// (`(T - T_base) / T_base * 100`).
    #[must_use]
    pub fn overhead_pct_over(&self, base: &ReplayReport) -> f64 {
        if base.cycles == 0 {
            return 0.0;
        }
        (self.cycles as f64 - base.cycles as f64) * 100.0 / base.cycles as f64
    }

    /// Speedup of this run relative to `other` (>1 means this is faster).
    #[must_use]
    pub fn speedup_over(&self, other: &ReplayReport) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        other.cycles as f64 / self.cycles as f64
    }

    /// Permission switches per simulated second (the paper's
    /// "Switches/sec" columns), at the configured clock.
    #[must_use]
    pub fn switches_per_sec(&self, config: &SimConfig) -> f64 {
        config.per_second(self.counts.set_perms, self.cycles)
    }

    /// Average cycles per completed operation.
    #[must_use]
    pub fn cycles_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.cycles as f64 / self.ops as f64
        }
    }

    /// Whether any protection fault occurred.
    #[must_use]
    pub fn faulted(&self) -> bool {
        self.scheme_stats.faults > 0
    }

    /// Whether the retained fault log holds *every* fault the replay
    /// raised (`faults_dropped == 0`).
    ///
    /// Strict harnesses must fail a run whose log is incomplete rather
    /// than reason from a truncated sample: a dropped fault is exactly as
    /// much of a finding as a retained one.
    #[must_use]
    pub fn fault_log_complete(&self) -> bool {
        self.faults_dropped == 0
    }

    /// The headline numbers as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Value for ReplayReport {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("scheme", self.scheme.label())
            .field("cycles", self.cycles)
            .field("instructions", self.instructions)
            .field("events", self.counts.events)
            .field("ops", self.ops)
            .field("ipc", Fixed(self.ipc(), 4))
            .field("faults", self.scheme_stats.faults)
            .field("faults_dropped", self.faults_dropped)
            .field("wall_nanos", self.wall_nanos)
            .field("events_per_sec", json::per_sec(self.counts.events, self.wall_nanos))
            .end();
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {} cycles, {} instr (IPC {:.2}), {} ops",
            self.scheme,
            self.cycles,
            self.instructions,
            self.ipc(),
            self.ops
        )?;
        writeln!(f, "  events: {}", self.counts)?;
        writeln!(f, "  breakdown: {}", self.breakdown)?;
        writeln!(f, "  tlb: {}", self.tlb)?;
        writeln!(f, "  l1d: {}  l2: {}", self.l1d, self.l2)?;
        write!(
            f,
            "  scheme: {} setperms, {} evictions, {} shootdowns, {} faults",
            self.scheme_stats.set_perms,
            self.scheme_stats.key_evictions,
            self.scheme_stats.shootdowns,
            self.scheme_stats.faults
        )?;
        if self.faults_dropped > 0 {
            write!(f, " ({} dropped from the log)", self.faults_dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64) -> ReplayReport {
        ReplayReport {
            scheme: SchemeKind::Lowerbound,
            cycles,
            instructions: cycles / 2,
            counts: EventCounts::default(),
            breakdown: CostBreakdown::default(),
            scheme_stats: SchemeStats::default(),
            tlb: TlbStats::default(),
            l1d: CacheStats::default(),
            l2: CacheStats::default(),
            nvm_reads: 0,
            nvm_writes: 0,
            faults: Vec::new(),
            faults_dropped: 0,
            ops: 10,
            wall_nanos: 0,
        }
    }

    #[test]
    fn overhead_math() {
        let base = report(1000);
        let slower = report(1500);
        assert!((slower.overhead_pct_over(&base) - 50.0).abs() < 1e-9);
        assert!((base.overhead_pct_over(&base)).abs() < 1e-9);
        assert!((base.speedup_over(&slower) - 1.5).abs() < 1e-9);
        assert!((base.cycles_per_op() - 100.0).abs() < 1e-9);
        assert!((base.ipc() - 0.5).abs() < 1e-9);
        assert!(!base.faulted());
        assert!(!format!("{base}").is_empty());
    }

    #[test]
    fn zero_guards() {
        let zero = report(0);
        assert_eq!(zero.ipc(), 0.0);
        assert_eq!(zero.overhead_pct_over(&zero), 0.0);
        assert_eq!(zero.speedup_over(&zero), 0.0);
        assert!(zero.to_json().contains("\"events_per_sec\":0.0"), "unstamped wall clock");
        let mut no_ops = report(10);
        no_ops.ops = 0;
        assert_eq!(no_ops.cycles_per_op(), 0.0);
    }

    #[test]
    fn throughput_and_json() {
        let mut r = report(1000);
        r.counts.events = 500;
        r.wall_nanos = 250_000_000; // 0.25 s -> 2000 events/sec
        let json = r.to_json();
        assert!(json.contains("\"wall_nanos\":250000000"), "{json}");
        assert!(json.contains("\"events_per_sec\":2000.0"), "{json}");
        assert!(json.contains("\"faults_dropped\":0"), "{json}");
    }

    /// The exact JSON bytes of a stamped report: the `{:.4}` IPC and the
    /// `{:.1}` rate.
    #[test]
    fn report_json_bytes_are_pinned() {
        let mut r = report(1000);
        r.instructions = 333;
        r.counts.events = 7;
        r.scheme_stats.faults = 2;
        r.faults_dropped = 1;
        r.wall_nanos = 3;
        assert_eq!(
            r.to_json(),
            concat!(
                r#"{"scheme":"lowerbound","cycles":1000,"instructions":333,"events":7,"ops":10,"#,
                r#""ipc":0.3330,"faults":2,"faults_dropped":1,"wall_nanos":3,"#,
                r#""events_per_sec":2333333333.3}"#,
            )
        );
    }

    #[test]
    fn dropped_faults_surface_in_display() {
        let mut r = report(1000);
        assert!(!format!("{r}").contains("dropped"));
        assert!(r.fault_log_complete());
        r.faults_dropped = 3;
        assert!(format!("{r}").contains("(3 dropped from the log)"));
        assert!(!r.fault_log_complete(), "a truncated log is never complete");
    }
}
