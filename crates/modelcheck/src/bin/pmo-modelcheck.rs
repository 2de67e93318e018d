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
//! after every execution. Exits 1 when any explored schedule violates a
//! check (campaign mode), when a planted bug escapes detection
//! (`--seeded`), or when a replayed schedule reports a violation, and 2
//! on a malformed command line.

use std::process::ExitCode;

use pmo_analyzer::cli::{from_env, write, Args};
use pmo_modelcheck::{
    builtin, explore, find, parse_schedule, replay_schedule, scenarios::seeded_checks, Campaign,
    ExploreLimits, Scenario,
};
use pmo_protect::ProtocolBug;

/// The flags `pmo-modelcheck` reads.
const FLAGS: &str = "--list-scenarios --seeded --depth N --max-schedules N --jobs N --bug LABEL \
                     --replay SCENARIO@SCHEDULE --scenario NAME --json PATH";

/// The parsed command line.
struct Cli {
    list_scenarios: bool,
    seeded: bool,
    limits: ExploreLimits,
    /// `--replay`: the scenario and schedule, with the `--bug` to plant.
    replay: Option<(Scenario, Vec<u32>, Option<ProtocolBug>)>,
    /// The `--scenario`s in order; every built-in one when none is named.
    scenarios: Vec<Scenario>,
    json: Option<String>,
    jobs: usize,
}

fn scenario(name: &str) -> Result<Scenario, String> {
    find(name).ok_or_else(|| format!("unknown scenario {name:?}"))
}

/// Parses the arguments after the program name; an unknown scenario, a
/// malformed replay id and a `--bug` without `--replay` are errors too.
fn parse_args(argv: &[String]) -> Result<Cli, String> {
    let args = Args::parse(argv, FLAGS)?;
    let mut limits = ExploreLimits::default();
    limits.max_depth = args.get("--depth", str::parse)?.unwrap_or(limits.max_depth);
    limits.max_schedules = args.get("--max-schedules", str::parse)?.unwrap_or(limits.max_schedules);
    let bug = args.get("--bug", str::parse::<ProtocolBug>)?;
    let replay = args.get("--replay", |spec| {
        let (name, schedule) = spec.split_once('@').ok_or("want name@0.1.0")?;
        Ok::<_, String>((scenario(name)?, parse_schedule(schedule)?, bug))
    })?;
    if bug.is_some() && replay.is_none() {
        return Err("--bug requires --replay (use --seeded for validation campaigns)".into());
    }
    // Listing, the seeded self-validation and a replay are modes of their
    // own, and only the campaign writes a report.
    let (list_scenarios, seeded) = (args.has("--list-scenarios"), args.has("--seeded"));
    let modes = usize::from(list_scenarios) + usize::from(seeded) + usize::from(replay.is_some());
    if modes > 1 {
        return Err("--list-scenarios, --seeded and --replay are exclusive".into());
    }
    if modes == 1 && args.has("--json") {
        return Err("--json writes the campaign report, which only a campaign run makes".into());
    }
    let named = args.values("--scenario");
    Ok(Cli {
        list_scenarios,
        seeded,
        limits,
        replay,
        scenarios: if named.is_empty() {
            builtin()
        } else {
            named.iter().map(|name| scenario(name)).collect::<Result<_, _>>()?
        },
        json: args.value("--json").map(String::from),
        jobs: args.jobs()?,
    })
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
    println!("bugs:   {}", ProtocolBug::ALL.map(ProtocolBug::label).join(", "));
}

fn run_seeded(limits: &ExploreLimits) -> bool {
    let mut all_caught = true;
    for check in seeded_checks() {
        let run = check.run(limits);
        let out = &run.outcome;
        match &run.witness {
            Some(v) => {
                // The counterexample must also replay deterministically.
                let replayed = replay_schedule(&run.scenario, Some(check.bug), &v.schedule)
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

fn run(cli: Cli) -> Result<bool, String> {
    if cli.list_scenarios {
        list_scenarios();
        return Ok(true);
    }
    if let Some((scenario, schedule, bug)) = &cli.replay {
        let outcome = replay_schedule(scenario, *bug, schedule)?;
        println!("{}", outcome.report);
        return Ok(outcome.violations.is_empty());
    }
    if cli.seeded {
        return Ok(run_seeded(&cli.limits));
    }
    // Scenario explorations are independent; fan them across the workers
    // and keep the runs in the canonical scenario order so the campaign
    // report is byte-identical at any job count.
    let campaign = Campaign {
        runs: pmo_simarch::pool::parallel_map(cli.jobs, cli.scenarios, |s| {
            explore(&s, None, &cli.limits)
        }),
    };
    print!("{campaign}");
    if let Some(path) = &cli.json {
        if !write(path, &campaign.to_json()) {
            return Ok(false);
        }
        println!("wrote {path}");
    }
    Ok(campaign.passed())
}

fn main() -> ExitCode {
    match run(from_env(parse_args)) {
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

    fn parse(line: &str) -> Result<Cli, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// The command lines README.md, EXPERIMENTS.md, the verify notes and
    /// CI run, and the malformed ones that are usage errors.
    #[test]
    fn command_lines_parse_strictly() {
        let cli = parse("").unwrap();
        assert_eq!((cli.scenarios.len(), cli.jobs, cli.limits.max_depth), (builtin().len(), 1, 24));
        assert!(!cli.seeded && !cli.list_scenarios && parse("--seeded").unwrap().seeded);
        assert!(parse("--list-scenarios").unwrap().list_scenarios);
        let cli = parse("--jobs 8 --json modelcheck-report.json").unwrap();
        assert_eq!((cli.jobs, cli.json.as_deref()), (8, Some("modelcheck-report.json")));
        let line = "--scenario detach-race --depth 16 --scenario key-evict-storm --jobs 4 --jobs 0";
        let cli = parse(&format!("{line} --max-schedules 9")).unwrap();
        let names: Vec<&str> = cli.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["detach-race", "key-evict-storm"]);
        assert_eq!((cli.limits.max_depth, cli.limits.max_schedules, cli.jobs), (16, 9, 1));
        let line = "--replay key-evict-storm@0.0.0.0.1.1 --bug skip-eviction-shootdown";
        let (scenario, schedule, bug) = parse(line).unwrap().replay.unwrap();
        assert_eq!((scenario.name.as_str(), schedule), ("key-evict-storm", vec![0, 0, 0, 0, 1, 1]));
        assert_eq!(bug, Some(ProtocolBug::SkipEvictionShootdown));
        for line in [
            "--json",
            "--jobs -1",
            "--depth deep",
            "--max-schedules 9x",
            "--replay",
            "--scenario",
            "--bug no-such-bug --replay key-evict-storm@0.1",
            "--bug stale-cr3-on-switch",
            "--replay key-evict-storm",
            "--replay no-such-scenario@0.1",
            "--scenario no-such-scenario",
            "--seed 1",
            "stray",
            "--seeded --json q.json",
            "--replay setperm-vs-access@0.1.0 --json q.json",
            "--list-scenarios --json q.json",
            "--seeded --replay setperm-vs-access@0.1.0",
            "--list-scenarios --seeded",
            "--list-scenarios --replay setperm-vs-access@0.1.0",
        ] {
            assert!(parse(line).is_err(), "{line:?} must be rejected");
        }
        assert!(matches!(parse("--jobs abc"), Err(e) if e.contains("--jobs \"abc\"")));
    }
}
