//! The built-in scenario suite: small multi-thread PMO programs chosen so
//! every coherence transition of both designs — key assignment, PLRU key
//! eviction with ranged shootdown, DTTLB invalidation, PKRU rebuild, PTLB
//! fill/writeback/flush, detach teardown — is reachable within a dozen
//! operations, plus the seeded-bug expectations that validate the checker
//! against every plantable [`ProtocolBug`].

use pmo_analyzer::ViolationClass;
use pmo_protect::ProtocolBug;
use pmo_trace::{AccessKind, Perm, PmoId};

use crate::explore::{explore, ExploreLimits};
use crate::program::{model_config, Op, Program, Scenario};
use crate::report::{ExploreOutcome, Violation};

fn p(raw: u32) -> PmoId {
    PmoId::new(raw)
}

fn sp(pmo: u32, perm: Perm) -> Op {
    Op::SetPerm { pmo: p(pmo), perm }
}

fn ld(pmo: u32, offset: u64) -> Op {
    Op::Access { pmo: p(pmo), offset, kind: AccessKind::Read }
}

fn st(pmo: u32, offset: u64) -> Op {
    Op::Access { pmo: p(pmo), offset, kind: AccessKind::Write }
}

fn dt(pmo: u32) -> Op {
    Op::Detach { pmo: p(pmo) }
}

fn at(pmo: u32) -> Op {
    Op::Attach { pmo: p(pmo) }
}

/// Every built-in scenario, in campaign order.
#[must_use]
pub fn builtin() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "setperm-vs-access".into(),
            about: "SETPERM racing loads/stores on the same domain across two threads",
            setup: vec![p(1), p(2)],
            program: Program {
                threads: vec![
                    vec![sp(1, Perm::ReadWrite), st(1, 0), sp(1, Perm::None)],
                    vec![ld(1, 0), sp(2, Perm::ReadWrite), st(2, 0)],
                ],
            },
            config: model_config(8, 4, 4),
            key_pressure: false,
        },
        Scenario {
            name: "disjoint-domains".into(),
            about: "fully independent per-thread domains: the DPOR best case",
            setup: vec![p(1), p(2)],
            program: Program {
                threads: vec![
                    vec![sp(1, Perm::ReadWrite), st(1, 0), ld(1, 0), sp(1, Perm::None)],
                    vec![sp(2, Perm::ReadWrite), st(2, 0), ld(2, 0), sp(2, Perm::None)],
                ],
            },
            config: model_config(8, 4, 4),
            key_pressure: false,
        },
        Scenario {
            name: "key-evict-storm".into(),
            about: "3 domains over 2 usable keys: every schedule reassigns a key",
            setup: vec![p(1), p(2), p(3)],
            program: Program {
                threads: vec![
                    vec![sp(1, Perm::ReadWrite), st(1, 0), sp(3, Perm::ReadWrite), st(3, 0)],
                    vec![sp(2, Perm::ReadWrite), st(2, 0), ld(2, 4096)],
                ],
            },
            config: model_config(3, 2, 4),
            key_pressure: true,
        },
        Scenario {
            name: "detach-race".into(),
            about: "detach racing in-flight accesses on the same domain",
            setup: vec![p(1), p(2)],
            program: Program {
                threads: vec![
                    vec![sp(1, Perm::ReadWrite), st(1, 0), ld(1, 0)],
                    vec![dt(1), sp(2, Perm::ReadWrite), st(2, 0)],
                ],
            },
            config: model_config(8, 4, 4),
            key_pressure: false,
        },
        Scenario {
            name: "attach-detach-reattach".into(),
            about: "detach + re-attach must leave no stale cached grant behind",
            setup: vec![p(1), p(2)],
            program: Program {
                threads: vec![
                    vec![sp(1, Perm::ReadWrite), st(1, 0), dt(1), at(1), ld(1, 0)],
                    vec![sp(2, Perm::ReadWrite), st(2, 0), ld(2, 0)],
                ],
            },
            config: model_config(8, 4, 4),
            key_pressure: false,
        },
        Scenario {
            name: "three-thread-handoff".into(),
            about: "three threads trading grants on one domain through context switches",
            setup: vec![p(1), p(2)],
            program: Program {
                threads: vec![
                    vec![sp(1, Perm::ReadWrite), st(1, 0), sp(1, Perm::None)],
                    vec![sp(1, Perm::ReadOnly), ld(1, 0)],
                    vec![sp(2, Perm::ReadWrite), st(2, 0), ld(1, 4096)],
                ],
            },
            config: model_config(8, 4, 4),
            key_pressure: false,
        },
        Scenario {
            name: "ptlb-writeback".into(),
            about: "2-entry PTLB: capacity evictions write dirty grants back to the PT",
            setup: vec![p(1), p(2), p(3)],
            program: Program {
                threads: vec![
                    vec![
                        sp(1, Perm::ReadWrite),
                        sp(2, Perm::ReadOnly),
                        sp(3, Perm::ReadWrite),
                        st(1, 0),
                    ],
                    vec![sp(3, Perm::None), ld(3, 0), ld(2, 0)],
                ],
            },
            config: model_config(8, 4, 2),
            key_pressure: false,
        },
        Scenario {
            name: "evict-then-access-victim".into(),
            about: "a key-eviction victim re-accessed after its grant is revoked",
            setup: vec![p(1), p(2), p(3)],
            program: Program {
                threads: vec![
                    vec![sp(1, Perm::ReadWrite), st(1, 0), sp(1, Perm::None), ld(1, 0)],
                    vec![sp(2, Perm::ReadWrite), st(2, 0), sp(3, Perm::ReadWrite), st(3, 4096)],
                ],
            },
            config: model_config(3, 2, 4),
            key_pressure: true,
        },
        Scenario {
            name: "contention-stress".into(),
            about: "3 threads x 4 ops all on one domain: nothing commutes, full interleaving space",
            setup: vec![p(1)],
            program: Program {
                threads: vec![
                    vec![sp(1, Perm::ReadWrite), st(1, 0), ld(1, 4096), sp(1, Perm::None)],
                    vec![sp(1, Perm::ReadOnly), ld(1, 0), sp(1, Perm::ReadWrite), st(1, 4096)],
                    vec![ld(1, 0), sp(1, Perm::None), ld(1, 4096), st(1, 0)],
                ],
            },
            config: model_config(8, 4, 4),
            key_pressure: false,
        },
        Scenario {
            name: "coherence-stress".into(),
            about: "3 threads x 4 ops over 3 domains, 2 keys, 2-entry DTTLB/PTLB",
            setup: vec![p(1), p(2), p(3)],
            program: Program {
                threads: vec![
                    vec![sp(1, Perm::ReadWrite), st(1, 0), ld(1, 4096), sp(1, Perm::None)],
                    vec![sp(2, Perm::ReadWrite), st(2, 0), ld(2, 4096), sp(2, Perm::None)],
                    vec![sp(3, Perm::ReadWrite), st(3, 0), ld(3, 4096), sp(3, Perm::None)],
                ],
            },
            config: model_config(3, 2, 2),
            key_pressure: true,
        },
    ]
}

/// Finds a built-in scenario by name.
#[must_use]
pub fn find(name: &str) -> Option<Scenario> {
    builtin().into_iter().find(|s| s.name == name)
}

/// One seeded-bug validation case: planting `bug` and exploring
/// `scenario` must surface at least one violation of `expect`.
#[derive(Clone, Copy, Debug)]
pub struct SeededCheck {
    /// The planted protocol bug.
    pub bug: ProtocolBug,
    /// The scenario whose schedules expose it.
    pub scenario: &'static str,
    /// The diagnostic class the checker must report.
    pub expect: ViolationClass,
}

/// A [`SeededCheck`]'s scenario explored with its bug planted.
#[derive(Clone, Debug)]
pub struct SeededRun {
    /// The explored scenario.
    pub scenario: Scenario,
    /// The exploration.
    pub outcome: ExploreOutcome,
    /// The first violation of the expected class; `None` when the bug
    /// escaped.
    pub witness: Option<Violation>,
}

impl SeededCheck {
    /// Explores the check's scenario within `limits` with its bug planted
    /// and looks for the expected class.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is not built in.
    #[must_use]
    pub fn run(&self, limits: &ExploreLimits) -> SeededRun {
        let scenario = find(self.scenario).expect("seeded checks reference builtin scenarios");
        let outcome = explore(&scenario, Some(self.bug), limits);
        let witness = outcome.violations.iter().find(|v| v.class == self.expect).cloned();
        SeededRun { scenario, outcome, witness }
    }
}

/// The self-validation matrix: every plantable bug paired with a scenario
/// that exposes it and the diagnostic class it must produce.
#[must_use]
pub fn seeded_checks() -> Vec<SeededCheck> {
    vec![
        SeededCheck {
            bug: ProtocolBug::SkipEvictionShootdown,
            scenario: "key-evict-storm",
            expect: ViolationClass::StaleKeyGrant,
        },
        SeededCheck {
            bug: ProtocolBug::SkipPkruUpdateOnSetPerm,
            scenario: "setperm-vs-access",
            expect: ViolationClass::PkruDesync,
        },
        SeededCheck {
            bug: ProtocolBug::SkipPtlbInvalidateOnDetach,
            scenario: "attach-detach-reattach",
            expect: ViolationClass::PtlbDesync,
        },
        SeededCheck {
            bug: ProtocolBug::SkipPtlbFlushOnSwitch,
            scenario: "three-thread-handoff",
            expect: ViolationClass::PtlbDesync,
        },
        SeededCheck {
            bug: ProtocolBug::SkipGateExitKeyRestore,
            scenario: "setperm-vs-access",
            expect: ViolationClass::PkruDesync,
        },
        SeededCheck {
            bug: ProtocolBug::StaleCr3OnSwitch,
            scenario: "three-thread-handoff",
            expect: ViolationClass::PtlbDesync,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn scenario_names_are_unique_and_findable() {
        let all = builtin();
        assert!(all.len() >= 6, "the quick campaign needs at least 6 scenarios");
        let names: BTreeSet<_> = all.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), all.len());
        for s in &all {
            assert!(find(&s.name).is_some());
            assert!(!s.program.threads.is_empty());
            assert!(s.program.total_ops() > 0);
        }
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn key_pressure_flag_matches_configs() {
        for s in builtin() {
            let usable = s.config.pkeys - 1;
            let domains = s.setup.len() as u32;
            assert_eq!(
                s.key_pressure,
                domains > usable,
                "{}: {} domains vs {} usable keys",
                s.name,
                domains,
                usable
            );
        }
    }

    #[test]
    fn seeded_checks_reference_real_scenarios() {
        for check in seeded_checks() {
            assert!(find(check.scenario).is_some(), "{} missing", check.scenario);
        }
        assert_eq!(seeded_checks().len(), ProtocolBug::ALL.len());
    }
}
