//! The experiment binaries' command lines, and the campaign tail they
//! share. Each binary reads its arguments once, through [`from_env`] and
//! its usage line or parser below, with the strict rules of
//! [`pmo_analyzer::cli`]; the crate doc tabulates each binary's flags.

use std::fmt::Display;
use std::fs;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

pub use pmo_analyzer::cli::from_env;
use pmo_analyzer::cli::{write, Args};
use pmo_modelcheck::parse_schedule;
use pmo_protect::ProtocolBug;
use pmo_trace::FaultKind;
use pmo_workloads::structs::StructureKind;
use pmo_workloads::MicroBench;

use crate::faultsim::fault_kind_from_label;
use crate::{crashenum, faultsim, predict, refine, soak, RunOptions, Scale};

// The scale, the `RunOptions` and the JSON-report campaigns' flags.
const SCALE: &str = "--full --paper";
const RUN: &str = "--no-audit --jobs N";
const CAMPAIGN: &str = "--full --paper --jobs N --json PATH";

/// `ablations`'s flags.
pub const ABLATIONS: &[&str] = &[SCALE];
/// The flags of `table5`, `table6`, `table7` and `all`.
pub const TABLES: &[&str] = &[SCALE, RUN];
/// The flags of `fig6` and `fig7`.
pub const FIGURES: &[&str] = &[SCALE, RUN, "--csv"];

/// The settings a command line gives. A binary that does not read a flag
/// leaves its field at the default.
#[derive(Debug)]
pub struct Cli {
    /// `--full`: the paper's scale instead of the quick one.
    pub scale: Scale,
    /// `--no-audit` clears the audit; `--jobs N` sets the workers.
    pub opts: RunOptions,
    /// `--json PATH`: where to write the report.
    pub json: Option<String>,
    /// `--csv`: write the figure's data under `results/`.
    pub csv: bool,
    /// `--seeded`: also run the planted-bug self-validation.
    pub seeded: bool,
    /// `--seed N`: the campaign seed, in place of the default.
    pub seed: Option<u64>,
    /// `--bug B`: the protocol bug to plant for a `--replay`.
    pub bug: Option<ProtocolBug>,
}

/// Parses `argv` against the usage lines `flags` (none for `table2` and
/// `table8`) into the shared settings and the binary's own arguments.
pub fn parse(argv: &[String], flags: &[&str]) -> Result<(Cli, Args), String> {
    let args = Args::parse(argv, &flags.join(" "))?;
    let cli = Cli {
        scale: if args.has("--full") || args.has("--paper") { Scale::Paper } else { Scale::Quick },
        opts: RunOptions { audit: !args.has("--no-audit"), jobs: args.jobs()? },
        json: args.value("--json").map(String::from),
        csv: args.has("--csv"),
        seeded: args.has("--seeded"),
        seed: args.u64("--seed")?,
        bug: args.get("--bug", str::parse)?,
    };
    Ok((cli, args))
}

/// `validate_full`: the settings, the benchmark and the operation count.
pub fn validate_full(argv: &[String]) -> Result<(Cli, (MicroBench, u64)), String> {
    let (cli, args) = parse(argv, &[RUN, "--bench B --ops N"])?;
    let bench = args.get("--bench", |label| {
        MicroBench::ALL.into_iter().find(|b| b.label() == label).ok_or("want AVL|RBT|BT|LL|SS")
    })?;
    Ok((cli, (bench.unwrap_or(MicroBench::Avl), args.u64("--ops")?.unwrap_or(100_000))))
}

/// A campaign binary's settings, and what to replay when it is given a
/// repro flag.
pub type Parsed<T> = Result<(Cli, Option<T>), String>;

/// The settings with the repro they name, if any. A repro replays one
/// trial, image, tenant or witness and writes no report, so `--json` and
/// `--seeded`, which only a campaign reads, are errors beside it.
fn campaign_or_repro<T>(cli: Cli, repro: Option<T>) -> Parsed<T> {
    if repro.is_some() {
        if cli.json.is_some() {
            return Err("--json writes a campaign report; a repro run has none".into());
        }
        if cli.seeded {
            return Err("--seeded runs with a campaign, not with a repro".into());
        }
    }
    Ok((cli, repro))
}

fn workload(label: &str) -> Result<StructureKind, &'static str> {
    StructureKind::from_label(label).ok_or("want avl|rbtree|bplus|list|hashmap")
}

/// `faultsim`: the settings, and the trial to replay (all repro flags or none).
pub fn faultsim(argv: &[String]) -> Parsed<(StructureKind, FaultKind, u64)> {
    let repro = "--workload W --kind K --after N";
    let (cli, args) = parse(argv, &[CAMPAIGN, "--no-audit --seed N", repro])?;
    let kind = |label: &str| {
        fault_kind_from_label(label).ok_or("want power-failure|torn-write|media-error")
    };
    match (args.get("--workload", workload)?, args.get("--kind", kind)?, args.u64("--after")?) {
        (Some(workload), Some(kind), Some(after)) => {
            campaign_or_repro(cli, Some((workload, kind, after)))
        }
        (None, None, None) => Ok((cli, None)),
        _ => Err(format!("repro mode needs all of {repro}")),
    }
}

/// `crashenum`: the settings, and the image to re-verify (all repro flags or none).
pub fn crashenum(argv: &[String]) -> Parsed<(StructureKind, u64, u64)> {
    let repro = "--workload W --window N --rank N";
    let (cli, args) = parse(argv, &[CAMPAIGN, "--seeded --seed N", repro])?;
    match (args.get("--workload", workload)?, args.u64("--window")?, args.u64("--rank")?) {
        (Some(workload), Some(window), Some(rank)) => {
            campaign_or_repro(cli, Some((workload, window, rank)))
        }
        (None, None, None) => Ok((cli, None)),
        _ => Err(format!("repro mode needs all of {repro}")),
    }
}

/// The `--replay ID` of `refine` and `predict`, its `@`-separated parts
/// parsed by `id`; `--bug` without `--replay` is an error.
fn replay<T>(argv: &[String], id: impl FnOnce(&[&str]) -> Result<T, String>) -> Parsed<T> {
    let (cli, args) = parse(argv, &[CAMPAIGN, "--seeded --replay ID --bug B"])?;
    let replay = args.get("--replay", |v| id(&v.split('@').collect::<Vec<_>>()))?;
    if cli.bug.is_some() && replay.is_none() {
        return Err("--bug needs --replay".into());
    }
    campaign_or_repro(cli, replay)
}

fn index<T: FromStr>(part: &str) -> Result<T, String> {
    part.parse().map_err(|_| format!("bad index {part:?}"))
}

/// `refine`: the settings, and the `world@program@schedule` to replay.
pub fn refine(argv: &[String]) -> Parsed<(String, usize, Vec<u32>)> {
    replay(argv, |parts| match parts {
        &[world, program, schedule] => {
            Ok((world.into(), index(program)?, parse_schedule(schedule)?))
        }
        _ => Err("want world@program@schedule (e.g. w1@81@1.1)".into()),
    })
}

/// `predict`: the settings, and the `world@program@moved@anchor` to replay.
pub fn predict(argv: &[String]) -> Parsed<(String, usize, u64, u64)> {
    replay(argv, |parts| {
        let &[world, program, moved, anchor] = parts else {
            return Err("want world@program@moved@anchor (e.g. w2@1763@4@6)".into());
        };
        Ok((world.into(), index(program)?, index(moved)?, index(anchor)?))
    })
}

/// `soak`: the settings, and the tenant to replay.
pub fn soak(argv: &[String]) -> Parsed<u64> {
    let (cli, args) = parse(argv, &[CAMPAIGN, "--no-audit --seed N --tenant N"])?;
    campaign_or_repro(cli, args.u64("--tenant")?)
}

/// A campaign report, as [`finish`] handles it.
pub trait Report: Display {
    /// Stamps the run's host wall time.
    fn stamp(&mut self, wall_nanos: u64);
    /// Whether the run passed.
    fn is_clean(&self) -> bool;
    /// The report as JSON, for `--json`.
    fn to_json(&self) -> String;
}

macro_rules! reports {
    ($($report:ty),*) => {$(
        impl Report for $report {
            fn stamp(&mut self, wall_nanos: u64) { self.wall_nanos = wall_nanos }
            fn is_clean(&self) -> bool { <$report>::is_clean(self) }
            fn to_json(&self) -> String { <$report>::to_json(self) }
        }
    )*};
}

reports!(
    faultsim::CampaignReport,
    crashenum::CrashenumReport,
    refine::RefineReport,
    predict::PredictReport,
    soak::SoakReport
);

/// The end of a campaign binary: runs `run`, stamps its host wall time,
/// prints the report after a `(scale: …)` line and writes its `--json`.
/// Exits 1 when the report is not clean or cannot be written, else 0.
pub fn finish<R: Report>(cli: &Cli, run: impl FnOnce() -> R) -> ExitCode {
    // The one sanctioned clock read: campaigns are deterministic and get
    // their wall time stamped only after they finish.
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    let mut report = run();
    report.stamp(started.elapsed().as_nanos() as u64);
    println!("(scale: {:?})\n{report}", cli.scale);
    let written = cli.json.iter().all(|path| write(path, &report.to_json()));
    if written && report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--csv` of `fig6` and `fig7`: writes each `(name, data)` as
/// `results/{name}.csv`. Exits 1 when one cannot be written, else 0.
pub fn write_csv(cli: &Cli, files: &[(&str, String)]) -> ExitCode {
    if cli.csv {
        // A `results/` that cannot be made fails the first write.
        let _ = fs::create_dir_all("results");
        if !files.iter().all(|(name, data)| write(&format!("results/{name}.csv"), data)) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    fn own<T: Debug>((cli, own): (Cli, Option<T>)) -> (Cli, String) {
        (cli, own.map_or(String::new(), |own| format!("{own:?}")))
    }

    /// `bin args…` parsed by `bin`'s parser: the settings that differ from
    /// the defaults, then the binary's own part in `{:?}` form.
    fn settings(line: &str) -> Result<String, String> {
        let (bin, rest) = line.split_once(' ').unwrap_or((line, ""));
        let argv: Vec<String> = rest.split_whitespace().map(String::from).collect();
        let (cli, own) = match bin {
            "table2" | "table8" => (parse(&argv, &[])?.0, String::new()),
            "ablations" => (parse(&argv, ABLATIONS)?.0, String::new()),
            "table5" | "table6" | "table7" | "all" => (parse(&argv, TABLES)?.0, String::new()),
            "fig6" | "fig7" => (parse(&argv, FIGURES)?.0, String::new()),
            "validate_full" => own(validate_full(&argv).map(|(cli, own)| (cli, Some(own)))?),
            "faultsim" => own(faultsim(&argv)?),
            "crashenum" => own(crashenum(&argv)?),
            "refine" => own(refine(&argv)?),
            "predict" => own(predict(&argv)?),
            "soak" => own(soak(&argv)?),
            _ => panic!("no binary {bin}"),
        };
        let Cli { scale, opts: RunOptions { audit, jobs }, json, csv, seeded, seed, bug } = cli;
        let parts = [
            (scale == Scale::Paper).then(|| "Paper".into()),
            (jobs > 1).then(|| format!("jobs={jobs}")),
            (!own.is_empty()).then_some(own),
            (!audit).then(|| "no-audit".into()),
            json.map(|path| format!("json={path}")),
            csv.then(|| "csv".into()),
            seeded.then(|| "seeded".into()),
            seed.map(|seed| format!("seed={seed:#x}")),
            bug.map(|bug| format!("{bug:?}")),
        ];
        Ok(parts.into_iter().flatten().collect::<Vec<_>>().join(" "))
    }

    /// Every command line README.md, EXPERIMENTS.md, the verify notes and
    /// CI run keeps its settings from before the shared parser, as do `0x`
    /// numbers; malformed lines the binaries ran anyway, ran wrongly or
    /// panicked on, flags a binary does not read, and `--json` or
    /// `--seeded` beside a repro flag, are usage errors.
    #[test]
    fn command_lines_keep_their_settings_or_are_usage_errors() {
        let bare = ["table2", "table5", "table6", "table7", "table8", "fig6", "fig7", "all"];
        for bin in bare.into_iter().chain(["faultsim", "soak", "crashenum", "refine", "predict"]) {
            assert_eq!(settings(bin).as_deref(), Ok(""), "{bin}");
        }
        for (line, want) in [
            ("ablations --full", "Paper"),
            ("table5 --jobs 2", "jobs=2"),
            ("table6 --no-audit --jobs 2", "jobs=2 no-audit"),
            ("table7 --paper --jobs 4 --jobs 0", "Paper"),
            ("fig6 --jobs 8", "jobs=8"),
            ("fig7 --csv", "csv"),
            ("validate_full", "(Avl, 100000)"),
            ("validate_full --bench SS --ops 500", "(StringSwap, 500)"),
            ("faultsim --full", "Paper"),
            ("faultsim --jobs 8", "jobs=8"),
            ("faultsim --json faultsim.json", "json=faultsim.json"),
            ("faultsim --workload avl --kind media-error --after 37", "(Avl, MediaError, 37)"),
            ("faultsim --workload avl --kind torn-write --after 0x25", "(Avl, TornWrite, 37)"),
            (
                "faultsim --workload avl --kind media-error --after 12 --seed 0x1505",
                "(Avl, MediaError, 12) seed=0x1505",
            ),
            ("soak --full --jobs 8", "Paper jobs=8"),
            ("soak --jobs 4 --json soak-report.json", "jobs=4 json=soak-report.json"),
            ("soak --tenant 23 --seed 0x50a5eed", "23 seed=0x50a5eed"),
            ("soak --no-audit --seed 5381 --tenant 0x17", "23 no-audit seed=0x1505"),
            ("crashenum --full", "Paper"),
            ("crashenum --seeded --jobs 8", "jobs=8 seeded"),
            (
                "crashenum --seeded --json crashenum-report.json",
                "json=crashenum-report.json seeded",
            ),
            ("crashenum --workload avl --window 12 --rank 3", "(Avl, 12, 3)"),
            ("crashenum --workload avl --window 0xc --rank 0x3", "(Avl, 12, 3)"),
            ("refine --full", "Paper"),
            ("refine --seeded", "seeded"),
            ("refine --seeded --jobs 8", "jobs=8 seeded"),
            ("refine --seeded --json refine-report.json", "json=refine-report.json seeded"),
            ("refine --replay w2@1731@0.1.0.1", r#"("w2", 1731, [0, 1, 0, 1])"#),
            (
                "refine --replay w1@109@1.0 --bug skip-ptlb-flush-on-switch",
                r#"("w1", 109, [1, 0]) SkipPtlbFlushOnSwitch"#,
            ),
            (
                "refine --replay w1@81@1.1 --bug skip-pkru-update-on-setperm",
                r#"("w1", 81, [1, 1]) SkipPkruUpdateOnSetPerm"#,
            ),
            ("predict --seeded --jobs 8", "jobs=8 seeded"),
            ("predict --seeded --json predict-report.json", "json=predict-report.json seeded"),
            (
                "predict --replay w2@1763@4@6 --bug skip-ptlb-invalidate-on-detach",
                r#"("w2", 1763, 4, 6) SkipPtlbInvalidateOnDetach"#,
            ),
            ("table2 --bogus", "usage"),
            ("table8 --full", "usage"),
            ("table5 --ful", "usage"),
            ("table5 --jobs", "usage"),
            ("table5 --jobs -1", "usage"),
            ("table7 stray", "usage"),
            ("ablations --jobs 2", "usage"),
            ("fig6 --json fig6.json", "usage"),
            ("validate_full --ops abc", "usage"),
            ("validate_full --bench avl", "usage"),
            ("faultsim --seed 0xZZ", "usage"),
            ("faultsim --json --full", "usage"),
            ("faultsim --workload avl --kind torn-write", "usage"),
            ("faultsim --workload avl --kind torn-write --after 3x", "usage"),
            ("crashenum --no-audit", "usage"),
            ("crashenum --workload avl --window 12 --rank", "usage"),
            ("refine --json", "usage"),
            ("refine --bug no-such-bug --replay w1@81@1.1", "usage"),
            ("refine --bug stale-cr3-on-switch", "usage"),
            ("predict --replay w2@1763@4", "usage"),
            ("soak --tenant abc", "usage"),
            ("soak --seeded", "usage"),
            ("faultsim --workload avl --kind media-error --after 12 --json q.json", "usage"),
            ("crashenum --workload avl --window 12 --rank 3 --json q.json", "usage"),
            ("crashenum --seeded --workload avl --window 12 --rank 3", "usage"),
            ("soak --tenant 23 --json q.json", "usage"),
            ("refine --replay w1@81@1.1 --json q.json", "usage"),
            ("refine --seeded --replay w1@81@1.1", "usage"),
            (
                "predict --replay w2@1763@4@6 --bug skip-ptlb-invalidate-on-detach --json q.json",
                "usage",
            ),
            ("predict --seeded --replay w2@1763@4@6", "usage"),
        ] {
            assert_eq!(settings(line).unwrap_or_else(|_| "usage".into()), want, "{line}");
        }
        let bad = settings("table6 --jobs abc").unwrap_err();
        assert!(bad.contains("--jobs \"abc\""), "{bad}");
    }

    #[test]
    fn a_json_path_is_written_as_given() {
        let dir = std::env::temp_dir().join(format!("pmo-cli-missing-{}", std::process::id()));
        assert!(!write(&dir.join("report.json").display().to_string(), "{}"));
        assert!(!dir.exists());
    }
}
