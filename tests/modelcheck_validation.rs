//! Self-validation of the DPOR model checker: planted protocol bugs must
//! be caught with the expected diagnostic class, counterexamples must
//! replay deterministically, and clean protocols must survive exhaustive
//! exploration under the one checker — verdicts, cache invariants and
//! abstraction functions after every step, noninterference after every
//! execution.

use std::sync::OnceLock;

use pmo_repro::analyzer::ViolationClass;
use pmo_repro::modelcheck::{
    builtin, explore, find, replay_schedule, sample_schedule, scenarios::seeded_checks,
    ExploreLimits, ExploreOutcome,
};
use pmo_repro::protect::ProtocolBug;

/// Every built-in scenario explored once with no planted bug, shared by
/// the tests that read the clean campaign.
fn clean_campaign() -> &'static [ExploreOutcome] {
    static RUNS: OnceLock<Vec<ExploreOutcome>> = OnceLock::new();
    RUNS.get_or_init(|| {
        builtin().iter().map(|s| explore(s, None, &ExploreLimits::default())).collect()
    })
}

fn clean_run(name: &str) -> &'static ExploreOutcome {
    clean_campaign().iter().find(|r| r.scenario == name).expect("builtin scenario")
}

#[test]
fn every_seeded_protocol_bug_is_caught_with_expected_class() {
    for check in seeded_checks() {
        let run = check.run(&ExploreLimits::default());
        let out = &run.outcome;
        assert!(
            run.witness.as_ref().is_some_and(|v| v.class == check.expect),
            "{:?} escaped {} ({} schedules explored, found {:?})",
            check.bug,
            check.scenario,
            out.schedules,
            out.violations.iter().map(|v| v.class).collect::<Vec<_>>()
        );
    }
}

#[test]
fn counterexamples_replay_deterministically_through_the_analyzer() {
    for check in seeded_checks() {
        let scenario = find(check.scenario).unwrap();
        let out = explore(&scenario, Some(check.bug), &ExploreLimits::default());
        let witness =
            out.violations.iter().find(|v| v.class == check.expect).expect("caught above");
        let mut renders = Vec::new();
        for _ in 0..2 {
            let replay = replay_schedule(&scenario, Some(check.bug), &witness.schedule)
                .expect("reported schedule is executable");
            assert!(
                replay.violations.iter().any(|v| v.class == check.expect),
                "{:?}: schedule {} did not reproduce",
                check.bug,
                witness.schedule_string()
            );
            assert!(
                replay
                    .report
                    .diagnostics
                    .iter()
                    .any(|d| d.pass == "modelcheck" && d.class == check.expect),
                "{:?}: no positioned diagnostic emitted through pmo-analyzer",
                check.bug
            );
            assert!(!replay.report.passed(), "report must fail on a violation");
            assert_eq!(
                replay.report.source,
                format!("{}@{}", check.scenario, witness.schedule_string()),
                "repro id must be scenario@schedule"
            );
            renders.push(replay.report.to_json());
        }
        assert_eq!(renders[0], renders[1], "{:?}: replay must be deterministic", check.bug);
    }
}

#[test]
fn clean_protocols_pass_exhaustive_exploration() {
    // No planted bug: no verdict, cache or abstraction divergence on any
    // step of any schedule, and no noninterference leak on any execution.
    for run in clean_campaign() {
        assert!(run.violations.is_empty(), "{}: {:?}", run.scenario, run.violations);
        assert_eq!(run.violation_count, 0, "{}", run.scenario);
        assert!(!run.truncated, "{} must be explored exhaustively", run.scenario);
        assert!(run.schedules > 0);
    }
}

#[test]
fn dpor_prunes_but_never_misses_dependent_interleavings() {
    let out = clean_run("disjoint-domains");
    assert!(
        (out.schedules as u128) < out.naive,
        "independent threads must be pruned ({} vs {})",
        out.schedules,
        out.naive
    );

    // Fully-dependent programs are the other extreme: nothing commutes,
    // so DPOR must degenerate to complete enumeration (a completeness
    // cross-check for the backtracking logic).
    let out = clean_run("contention-stress");
    assert_eq!(out.schedules as u128, out.naive, "all-dependent ops admit no pruning");
}

#[test]
fn every_seeded_bug_is_a_refinement_failure_with_a_replayable_witness() {
    // Every violation the explorer reports — whichever layer of the
    // refinement relation found it — must replay from its own schedule
    // to the identical violation and a positioned diagnostic.
    for check in seeded_checks() {
        let scenario = find(check.scenario).unwrap();
        let out = explore(&scenario, Some(check.bug), &ExploreLimits::default());
        assert!(!out.violations.is_empty(), "{:?} escaped", check.bug);
        for witness in &out.violations {
            let replay = replay_schedule(&scenario, Some(check.bug), &witness.schedule)
                .expect("witness schedule is executable");
            assert!(
                replay.violations.contains(witness),
                "{:?}: {witness} did not reproduce under replay (got {:?})",
                check.bug,
                replay.violations
            );
            assert!(
                replay
                    .report
                    .diagnostics
                    .iter()
                    .any(|d| d.pass == "modelcheck" && d.class == witness.class),
                "{:?}: no positioned {} diagnostic",
                check.bug,
                witness.class
            );
        }
    }
}

#[test]
fn exploration_runs_abstraction_and_noninterference_checks() {
    // A PTLB that survives a context switch grants thread 1 thread 0's
    // permission, and thread 1's load then reads P1 without ever holding
    // a grant: the explorer must report it through the verdict check,
    // the cache sweep, the abstraction function and the noninterference
    // pass alike.
    let scenario = find("setperm-vs-access").unwrap();
    let out =
        explore(&scenario, Some(ProtocolBug::SkipPtlbFlushOnSwitch), &ExploreLimits::default());
    for class in [
        ViolationClass::SchemeDivergence,
        ViolationClass::PtlbDesync,
        ViolationClass::RefinementDivergence,
        ViolationClass::NoninterferenceLeak,
    ] {
        assert!(
            out.violations.iter().any(|v| v.class == class),
            "no {class} among {:?}",
            out.violations.iter().map(|v| v.class).collect::<Vec<_>>()
        );
    }
}

#[test]
fn clean_schemes_are_refinement_clean_and_noninterferent() {
    // With no planted bug every built-in scenario must stay silent: no
    // verdict or abstraction divergence on any explored schedule, no
    // noninterference leak on any completed execution, and a sampled
    // maximal schedule replayed through the analyzer must pass as well.
    for scenario in builtin() {
        let run = clean_run(&scenario.name);
        assert!(run.violations.is_empty(), "{}: found {:?}", scenario.name, run.violations);
        assert!(!run.truncated, "{} must be exhaustive", scenario.name);

        let counts: Vec<usize> = scenario.program.threads.iter().map(Vec::len).collect();
        let schedule = sample_schedule(&scenario.name, &counts);
        let replay =
            replay_schedule(&scenario, None, &schedule).expect("sampled schedule is executable");
        assert!(
            replay.violations.is_empty(),
            "{}: replay found {:?}",
            scenario.name,
            replay.violations
        );
        assert!(replay.report.passed(), "{}: clean replay must pass", scenario.name);
    }
}

#[test]
fn campaign_volume_meets_the_bar() {
    // The acceptance bar: >= 10k distinct schedules across >= 6 scenarios.
    let runs = clean_campaign();
    assert!(runs.len() >= 6);
    let schedules: u64 = runs.iter().map(|r| r.schedules).sum();
    assert!(schedules >= 10_000, "campaign explored only {schedules} schedules");
}
