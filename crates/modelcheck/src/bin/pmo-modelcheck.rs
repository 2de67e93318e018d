//! DPOR model-checking front-end for the PMO coherence protocols.
//!
//! ```text
//! pmo-modelcheck                              # quick campaign: every scenario
//! pmo-modelcheck --list-scenarios
//! pmo-modelcheck --scenario key-evict-storm --depth 16
//! pmo-modelcheck --json modelcheck-report.json
//! pmo-modelcheck --jobs 4                     # fan scenarios across 4 workers
//! pmo-modelcheck --seeded                     # seeded-bug self-validation
//! pmo-modelcheck --replay key-evict-storm@0.1.0.0.1.1.0
//! pmo-modelcheck --replay setperm-vs-access@0.1.0 --bug skip-pkru-update-on-setperm
//! ```
//!
//! Every explored schedule runs the whole checker: verdicts, cache
//! invariants and abstraction functions after every step, noninterference
//! after every execution. Exits non-zero when any explored schedule
//! violates a check (campaign mode), when a planted bug escapes detection
//! (`--seeded`), when a replayed schedule reports a violation, or on a
//! malformed command line.

use std::io;
use std::path::Path;
use std::process::ExitCode;

use pmo_modelcheck::{
    builtin, explore, find, parse_schedule, replay_schedule, scenarios::seeded_checks, Campaign,
    ExploreLimits,
};
use pmo_protect::ProtocolBug;

/// The parsed command line.
#[derive(Debug)]
struct Cli {
    list_scenarios: bool,
    seeded: bool,
    limits: ExploreLimits,
    bug: Option<ProtocolBug>,
    replay: Option<String>,
    scenarios: Vec<String>,
    json: Option<String>,
    jobs: usize,
}

/// Parses the arguments after the program name. A flag missing its
/// value, a malformed number or label, or an unknown argument is an
/// error; a repeated flag keeps its last value (`--scenario`
/// accumulates), and `--jobs 0` runs serially.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value.parse().map_err(|_| format!("bad {flag} {value:?}"))
    }
    let mut cli = Cli {
        list_scenarios: false,
        seeded: false,
        limits: ExploreLimits::default(),
        bug: None,
        replay: None,
        scenarios: Vec::new(),
        json: None,
        jobs: 1,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--list-scenarios" => cli.list_scenarios = true,
            "--seeded" => cli.seeded = true,
            "--depth" => cli.limits.max_depth = number(flag, value()?)?,
            "--max-schedules" => cli.limits.max_schedules = number(flag, value()?)?,
            "--jobs" => cli.jobs = number::<usize>(flag, value()?)?.max(1),
            "--bug" => {
                let label = value()?;
                cli.bug = Some(parse_bug(label).ok_or_else(|| {
                    format!("unknown --bug {label:?} (known: {})", bug_labels().join(", "))
                })?);
            }
            "--replay" => cli.replay = Some(value()?.clone()),
            "--scenario" => cli.scenarios.push(value()?.clone()),
            "--json" => cli.json = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn parse_bug(label: &str) -> Option<ProtocolBug> {
    ProtocolBug::ALL.iter().copied().find(|b| b.label() == label)
}

fn list_scenarios() {
    println!("{:<26} {:>8} {:>8} {:>6}  about", "scenario", "threads", "ops", "keys");
    for s in builtin() {
        println!(
            "{:<26} {:>8} {:>8} {:>6}  {}",
            s.name,
            s.program.threads.len(),
            s.program.total_ops(),
            s.config.pkeys - 1,
            s.about
        );
    }
    println!("\nreplay: pmo-modelcheck --replay <scenario>@<schedule> [--bug <label>]");
    println!("bugs:   {}", bug_labels().join(", "));
}

fn bug_labels() -> Vec<&'static str> {
    ProtocolBug::ALL.iter().map(|b| b.label()).collect()
}

fn run_replay(spec: &str, bug: Option<ProtocolBug>) -> Result<bool, String> {
    let (name, sched) =
        spec.split_once('@').ok_or_else(|| format!("bad --replay {spec:?} (want name@0.1.0)"))?;
    let scenario = find(name).ok_or_else(|| format!("unknown scenario {name:?}"))?;
    let schedule = parse_schedule(sched)?;
    let outcome = replay_schedule(&scenario, bug, &schedule)?;
    println!("{}", outcome.report);
    Ok(outcome.violations.is_empty())
}

fn run_seeded(limits: &ExploreLimits) -> bool {
    let mut all_caught = true;
    for check in seeded_checks() {
        let scenario = find(check.scenario).expect("seeded checks reference builtin scenarios");
        let out = explore(&scenario, Some(check.bug), limits);
        let witness = out.violations.iter().find(|v| v.class == check.expect);
        match witness {
            Some(v) => {
                // The counterexample must also replay deterministically.
                let replayed = replay_schedule(&scenario, Some(check.bug), &v.schedule)
                    .map(|r| r.violations.iter().any(|rv| rv.class == check.expect))
                    .unwrap_or(false);
                if replayed {
                    println!(
                        "PASS {:<32} -> {} in {} schedules (repro {}@{})",
                        check.bug.label(),
                        check.expect,
                        out.schedules,
                        check.scenario,
                        v.schedule_string()
                    );
                } else {
                    all_caught = false;
                    println!(
                        "FAIL {:<32} -> caught but replay did not reproduce it",
                        check.bug.label()
                    );
                }
            }
            None => {
                all_caught = false;
                println!(
                    "FAIL {:<32} -> expected {} in {}, explored {} schedules, found {:?}",
                    check.bug.label(),
                    check.expect,
                    check.scenario,
                    out.schedules,
                    out.violations.iter().map(|v| v.class).collect::<Vec<_>>()
                );
            }
        }
    }
    all_caught
}

fn run_campaign(
    limits: &ExploreLimits,
    selected: &[String],
    jobs: usize,
) -> Result<Campaign, String> {
    let mut campaign = Campaign::default();
    let scenarios = if selected.is_empty() {
        builtin()
    } else {
        selected
            .iter()
            .map(|name| find(name).ok_or_else(|| format!("unknown scenario {name:?}")))
            .collect::<Result<Vec<_>, _>>()?
    };
    // Scenario explorations are independent; fan them across the workers
    // and keep the runs in the canonical scenario order so the campaign
    // report is byte-identical at any job count.
    campaign.runs = pmo_simarch::pool::parallel_map(jobs, scenarios, |s| explore(&s, None, limits));
    Ok(campaign)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args)?;
    if cli.list_scenarios {
        list_scenarios();
        return Ok(true);
    }
    if let Some(spec) = &cli.replay {
        return run_replay(spec, cli.bug);
    }
    if cli.seeded {
        return Ok(run_seeded(&cli.limits));
    }
    if cli.bug.is_some() {
        return Err("--bug requires --replay (use --seeded for validation campaigns)".into());
    }
    let campaign = run_campaign(&cli.limits, &cli.scenarios, cli.jobs)?;
    print!("{campaign}");
    if let Some(path) = &cli.json {
        std::fs::write(Path::new(path), campaign.to_json())
            .map_err(|e: io::Error| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(campaign.passed())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("pmo-modelcheck: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|a| (*a).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_values_parse() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.jobs, 1);
        assert_eq!(cli.limits.max_depth, ExploreLimits::default().max_depth);
        let cli = parse(&[
            "--scenario",
            "detach-race",
            "--depth",
            "16",
            "--scenario",
            "key-evict-storm",
            "--jobs",
            "4",
            "--jobs",
            "0",
            "--max-schedules",
            "9",
            "--json",
            "out.json",
        ])
        .unwrap();
        assert_eq!(cli.scenarios, ["detach-race", "key-evict-storm"]);
        assert_eq!(cli.limits.max_depth, 16);
        assert_eq!(cli.limits.max_schedules, 9);
        assert_eq!(cli.jobs, 1, "last --jobs wins and 0 clamps to serial");
        assert_eq!(cli.json.as_deref(), Some("out.json"));
        let cli = parse(&["--replay", "x@0.1", "--bug", "stale-cr3-on-switch"]).unwrap();
        assert_eq!(cli.replay.as_deref(), Some("x@0.1"));
        assert_eq!(cli.bug, Some(ProtocolBug::StaleCr3OnSwitch));
    }

    #[test]
    fn malformed_arguments_are_errors() {
        for args in [
            &["--jobs"][..],
            &["--jobs", "abc"],
            &["--jobs", "-1"],
            &["--depth", "deep"],
            &["--max-schedules"],
            &["--bug", "no-such-bug"],
            &["--json"],
            &["--replay"],
            &["--scenario"],
            &["--seed"],
            &["stray"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
