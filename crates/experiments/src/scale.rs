//! Experiment scale presets.

use pmo_workloads::{MicroConfig, WhisperConfig};

/// How big to run the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale run preserving every structural property; the
    /// default for `cargo run` and the benches.
    Quick,
    /// The paper's full evaluation scale (1024 PMOs, 1M ops, 100k txns).
    Paper,
}

impl Scale {
    /// Micro-benchmark configuration for `active` PMOs at this scale.
    #[must_use]
    pub fn micro_config(self, active: u32) -> MicroConfig {
        let base = match self {
            Scale::Quick => MicroConfig { initial_nodes: 160, ops: 4_000, ..MicroConfig::paper() },
            Scale::Paper => MicroConfig::paper(),
        };
        MicroConfig { pmos: active, active_pmos: active, ..base }
    }

    /// The Figure 6/7 sweep of PMO counts at this scale.
    #[must_use]
    pub fn pmo_sweep(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![16, 32, 64, 128, 256],
            Scale::Paper => vec![16, 32, 64, 128, 256, 512, 1024],
        }
    }

    /// The largest PMO count of the sweep (Table VII's operating point).
    #[must_use]
    pub fn max_pmos(self) -> u32 {
        *self.pmo_sweep().last().expect("sweep is non-empty")
    }

    /// WHISPER configuration at this scale. Redis runs `redis_factor()`
    /// times more operations, as in the paper (1M vs 100k).
    #[must_use]
    pub fn whisper_config(self) -> WhisperConfig {
        match self {
            Scale::Quick => WhisperConfig { txns: 4_000, records: 4_096, ..WhisperConfig::paper() },
            Scale::Paper => WhisperConfig::paper(),
        }
    }

    /// Extra operation multiplier for Redis (paper: 1M ops vs 100k txns).
    #[must_use]
    pub fn redis_factor(self) -> u64 {
        match self {
            Scale::Quick => 2,
            Scale::Paper => 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_evaluation() {
        let cfg = Scale::Paper.micro_config(1024);
        assert_eq!(cfg.pmos, 1024);
        assert_eq!(cfg.ops, 1_000_000);
        assert_eq!(Scale::Paper.pmo_sweep().last(), Some(&1024));
        assert_eq!(Scale::Paper.whisper_config().txns, 100_000);
        assert_eq!(Scale::Paper.redis_factor(), 10);
    }

    #[test]
    fn quick_scale_preserves_structure() {
        let cfg = Scale::Quick.micro_config(64);
        assert_eq!(cfg.pmos, 64);
        assert_eq!(cfg.active_pmos, 64);
        assert_eq!(cfg.pmo_bytes, 8 << 20, "PMO size (and VA granule) unchanged");
        assert_eq!(cfg.insert_pct, 90);
        assert_eq!(Scale::Quick.max_pmos(), 256);
    }
}
