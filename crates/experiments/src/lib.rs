//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§V–§VI).
//!
//! | Paper artifact | Function | Binary | Flags |
//! |---|---|---|---|
//! | Table II (simulation parameters) | [`pmo_simarch::SimConfig::isca2020`] | `table2` | none |
//! | Table V (WHISPER single-PMO overheads) | [`table5::table5`] | `table5` | `--full --no-audit --jobs N` |
//! | Table VI (multi-PMO lowerbound + switch rates) | [`table6::table6`] | `table6` | `--full --no-audit --jobs N` |
//! | Figure 6 (overhead vs #PMOs, per benchmark) | [`fig6::fig6`] | `fig6` | `--full --no-audit --jobs N --csv` |
//! | Figure 7 (average overhead + libmpk speedups) | [`fig7::fig7`] | `fig7` | `--full --no-audit --jobs N --csv` |
//! | Table VII (overhead breakdown at max PMOs) | [`table7::table7`] | `table7` | `--full --no-audit --jobs N` |
//! | Table VIII (area overheads) | [`table8::table8`] | `table8` | none |
//! | All of the above in sequence | — | `all` | `--full --no-audit --jobs N` |
//! | Design-choice ablations | [`ablations`] | `ablations` | `--full` |
//! | One paper-scale operating point | [`run_micro`] | `validate_full` | `--bench B --ops N --no-audit --jobs N` |
//! | Robustness (crash/fault survival matrix) | [`faultsim::run_campaign`] | `faultsim` | `--full --no-audit --jobs N --json PATH --seed N`; repro `--workload W --kind K --after N` |
//! | Recovery verification (exhaustive crash images) | [`crashenum::run_campaign`] | `crashenum` | `--full --jobs N --json PATH --seeded --seed N`; repro `--workload W --window N --rank N` |
//! | Multi-tenant chaos soak | [`soak::run_soak`] | `soak` | `--full --no-audit --jobs N --json PATH --seed N`; repro `--tenant N` |
//! | Refinement + noninterference (exhaustive small worlds) | [`refine::run_campaign`] | `refine` | `--full --jobs N --json PATH --seeded`; repro `--replay ID [--bug B]` |
//! | Predictive-analysis certification (DPOR ground truth) | [`predict::run_campaign`] | `predict` | `--full --jobs N --json PATH --seeded`; repro `--replay ID [--bug B]` |
//!
//! `--full` (alias `--paper`) runs at the paper's scale; the default is a
//! quick configuration that preserves every structural property (see
//! [`Scale`]). On the one strict command line ([`cli`]) an unread flag, a
//! missing value or a malformed one exits 2 before any work starts; a
//! failed run or an unwritable `--json`/`--csv` file exits 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod cli;
pub mod crashenum;
pub mod faultsim;
pub mod fig6;
pub mod fig7;
pub mod pool;
pub mod predict;
pub mod refine;
mod runner;
mod scale;
pub mod soak;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod text;

pub use runner::{report_for, run_micro, run_whisper, run_windowed, RunOptions};
pub use scale::Scale;

#[cfg(test)]
mod tests {
    use super::*;
    use pmo_simarch::SimConfig;

    #[test]
    fn table8_matches_paper() {
        let t8 = table8::table8(&SimConfig::isca2020());
        assert_eq!(t8.mpk_virt.buffer_bytes, 152);
        assert_eq!(t8.domain_virt.buffer_bytes, 24);
        assert_eq!(t8.domain_virt.tlb_extra_bits, 6);
        let text = format!("{t8}");
        assert!(text.contains("152 bytes (DTTLB)"));
        assert!(text.contains("24 bytes (PTLB)"));
    }

    #[test]
    fn fig7_averages_fig6() {
        use fig6::{Fig6, Fig6Point, Fig6Series};
        let mk = |a: f64, e: f64, d: f64, b: f64, c: f64| Fig6Point {
            pmos: 64,
            libmpk_pct: a,
            erim_pct: e,
            dpti_pct: d,
            mpk_virt_pct: b,
            domain_virt_pct: c,
        };
        let f6 = Fig6 {
            series: vec![
                Fig6Series { bench: "A", points: vec![mk(100.0, 40.0, 20.0, 10.0, 5.0)] },
                Fig6Series { bench: "B", points: vec![mk(300.0, 120.0, 60.0, 30.0, 15.0)] },
            ],
        };
        let f7 = fig7::fig7(&f6);
        let p = f7.at(64).unwrap();
        assert!((p.libmpk_pct - 200.0).abs() < 1e-9);
        assert!((p.erim_pct - 80.0).abs() < 1e-9);
        assert!((p.dpti_pct - 40.0).abs() < 1e-9);
        assert!((p.mpk_virt_pct - 20.0).abs() < 1e-9);
        assert!((p.mpk_virt_speedup() - 10.0).abs() < 1e-9);
        assert!((p.domain_virt_speedup() - 20.0).abs() < 1e-9);
        assert!((p.domain_virt_vs_erim() - 8.0).abs() < 1e-9);
        assert!((p.domain_virt_vs_dpti() - 4.0).abs() < 1e-9);
        assert!(!format!("{f7}").is_empty());

        // CSV exports carry every point with headers.
        let csv6 = f6.to_csv();
        assert!(csv6.starts_with("bench,pmos,"));
        assert_eq!(csv6.lines().count(), 1 + 2);
        assert!(csv6.contains("A,64,100.0000,40.0000,20.0000,10.0000,5.0000"));
        let csv7 = f7.to_csv();
        assert!(csv7.starts_with("pmos,"));
        assert!(csv7
            .contains("64,200.0000,80.0000,40.0000,20.0000,10.0000,10.0000,20.0000,8.0000,4.0000"));
    }
}
