//! Refinement-verification campaign: exhaustive small-world enumeration
//! driven through the DPOR explorer.
//!
//! Where the modelcheck campaign explores ten hand-picked adversarial
//! scenarios, this campaign enumerates *every* canonical program of a
//! bounded world — up to `N` total ops over `M` threads and `K` domains,
//! symmetry-reduced under thread/domain relabeling
//! ([`pmo_modelcheck::enumerate`]) — and checks each one, under every
//! DPOR-distinct schedule, against the executable permission-oracle spec
//! ([`pmo_modelcheck::SpecMachine`]):
//!
//! * **Refinement** — every concrete machine must stay in simulation with
//!   the spec after every step: identical allow/deny verdicts
//!   (`scheme-divergence`), no derived cache observably ahead of or behind
//!   it (`stale-key-grant`, `pkru-desync`, `ptlb-desync`), and abstraction
//!   functions mapping its state back onto the spec state exactly
//!   (`refinement-divergence`). Every violation carries a deterministic
//!   `world@program@schedule` repro id.
//! * **Noninterference** — per explored schedule, a perturb-and-compare
//!   pass proves no data flow from a domain's contents to any thread that
//!   never held a grant on it (`noninterference-leak` otherwise).
//!
//! The per-world canonical program count is cross-checked against the
//! Burnside closed form: a mismatch means the enumerator dropped or
//! duplicated an equivalence class and fails the campaign. `--seeded`
//! re-validates every plantable [`ProtocolBug`]: each must surface as a
//! violation on some enumerated program, with the witness schedule
//! re-verified by replay. Reports are byte-identical at any
//! `--jobs` count.
//!
//! Scale caps are never silent: worlds excluded by the selected
//! [`Scale`] appear in the report (text and JSON) as explicit
//! `SKIPPED` rows carrying the closed-form count of canonical programs
//! that were *not* verified, so a quick run can't be mistaken for
//! paper-scale coverage.

use std::fmt;

use pmo_analyzer::ViolationClass;
use pmo_modelcheck::enumerate::{self, Codes, WorldBounds};
use pmo_modelcheck::{model_config, replay_schedule, ExploreLimits, Explorer, Violation};
use pmo_protect::ProtocolBug;
use pmo_simarch::SimConfig;
use pmo_trace::json::{self, Object, Value};

use crate::pool::{parallel_map, parallel_map_with};
use crate::Scale;

/// One bounded world: enumeration bounds plus the shrunken hardware
/// configuration its programs run on.
#[derive(Clone, Copy, Debug)]
pub struct RefineWorld {
    /// Stable world name (report key, repro-id prefix).
    pub name: &'static str,
    /// Enumeration bounds.
    pub bounds: WorldBounds,
    /// Usable-protection-key count (+1 reserved key 0); fewer keys than
    /// domains puts every program under key pressure.
    pub pkeys: u32,
    /// DTTLB capacity.
    pub dttlb: u32,
    /// PTLB capacity.
    pub ptlb: u32,
}

impl RefineWorld {
    /// The world's hardware configuration.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        model_config(self.pkeys, self.dttlb, self.ptlb)
    }

    /// An explorer for every enumerated program of the world, with `bug`
    /// planted: every program shares its configuration and attaches all
    /// its domains before it runs.
    #[must_use]
    pub(crate) fn explorer(&self, bug: Option<ProtocolBug>) -> Explorer {
        Explorer::new(&self.config(), &self.bounds.domain_ids(), bug)
    }
}

/// Campaign shape.
#[derive(Clone, Debug)]
pub struct RefineConfig {
    /// Worlds enumerated, in report order.
    pub worlds: Vec<RefineWorld>,
    /// Worlds the selected [`Scale`] excludes (the paper-scale worlds
    /// under `quick`). Never silently dropped: the report carries one
    /// loud row per skipped world with its unverified program count.
    pub skipped: Vec<RefineWorld>,
    /// Per-program exploration bounds.
    pub limits: ExploreLimits,
    /// Distinct violations kept per world; the excess is counted in
    /// `violations_total`, never silently dropped.
    pub max_violations: usize,
    /// Programs per parallel work unit.
    pub chunk: usize,
}

impl RefineConfig {
    /// The campaign shape for a [`Scale`].
    ///
    /// Quick: `w1` (3 ops, 2 threads, 2 domains, no key pressure) plus
    /// `w2` (4 ops, 2 threads, 2 domains, a single usable key and 2-entry
    /// DTTLB/PTLB, so every program runs under key pressure with
    /// capacity evictions in reach). Paper scale adds `w3` (3 threads)
    /// and `w4` (5 ops).
    #[must_use]
    pub fn for_scale(scale: Scale) -> Self {
        let mut worlds = vec![
            RefineWorld {
                name: "w1",
                bounds: WorldBounds { ops: 3, threads: 2, domains: 2 },
                pkeys: 8,
                dttlb: 4,
                ptlb: 4,
            },
            RefineWorld {
                name: "w2",
                bounds: WorldBounds { ops: 4, threads: 2, domains: 2 },
                pkeys: 2,
                dttlb: 2,
                ptlb: 2,
            },
        ];
        let paper_worlds = vec![
            RefineWorld {
                name: "w3",
                bounds: WorldBounds { ops: 4, threads: 3, domains: 2 },
                pkeys: 2,
                dttlb: 2,
                ptlb: 2,
            },
            RefineWorld {
                name: "w4",
                bounds: WorldBounds { ops: 5, threads: 2, domains: 2 },
                pkeys: 3,
                dttlb: 2,
                ptlb: 2,
            },
        ];
        let skipped = if scale == Scale::Paper {
            worlds.extend(paper_worlds);
            Vec::new()
        } else {
            paper_worlds
        };
        RefineConfig {
            worlds,
            skipped,
            limits: ExploreLimits::default(),
            max_violations: 20,
            chunk: 512,
        }
    }

    /// The world named `name`, if configured.
    #[must_use]
    pub fn world(&self, name: &str) -> Option<&RefineWorld> {
        self.worlds.iter().find(|w| w.name == name)
    }
}

/// Exhaustive verification results for one world.
#[derive(Clone, Debug)]
pub struct WorldOutcome {
    /// World name.
    pub world: String,
    /// Enumeration bounds.
    pub bounds: WorldBounds,
    /// Raw (pre-reduction) program count, closed form.
    pub raw: u128,
    /// Burnside closed-form orbit count.
    pub burnside: u128,
    /// Programs actually enumerated (must equal `burnside`).
    pub canonical: u64,
    /// DPOR-distinct schedules explored across all programs.
    pub schedules: u64,
    /// Operations executed across all schedules.
    pub steps: u64,
    /// Sleep-set-blocked prefixes pruned.
    pub sleep_blocked: u64,
    /// Programs whose exploration hit the schedule cap.
    pub truncated: u64,
    /// Distinct violations kept (capped), in enumeration order.
    pub violations: Vec<Violation>,
    /// Total violation occurrences, including beyond the cap.
    pub violations_total: u64,
}

impl WorldOutcome {
    /// Whether enumeration matched the closed form and no schedule
    /// diverged from the spec.
    #[must_use]
    pub fn passed(&self) -> bool {
        u128::from(self.canonical) == self.burnside
            && self.violations_total == 0
            && self.truncated == 0
    }
}

impl Value for WorldOutcome {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("world", &self.world)
            .field("ops", self.bounds.ops)
            .field("threads", self.bounds.threads)
            .field("domains", self.bounds.domains)
            .field("raw", self.raw)
            .field("burnside", self.burnside)
            .field("canonical", self.canonical)
            .field("schedules", self.schedules)
            .field("steps", self.steps)
            .field("sleep_blocked", self.sleep_blocked)
            .field("truncated", self.truncated)
            .field("violations_total", self.violations_total)
            .field("violations", &self.violations)
            .end();
    }
}

/// One world excluded by the selected scale: everything needed to say
/// loudly how much verification did *not* happen.
#[derive(Clone, Debug)]
pub struct SkippedWorld {
    /// World name.
    pub world: String,
    /// Enumeration bounds it would have run at.
    pub bounds: WorldBounds,
    /// Raw (pre-reduction) program count, closed form.
    pub raw: u128,
    /// Burnside orbit count: canonical programs left unverified.
    pub unverified: u128,
}

impl SkippedWorld {
    /// Builds the row from a configured-but-excluded world.
    #[must_use]
    pub fn from_world(world: &RefineWorld) -> Self {
        SkippedWorld {
            world: world.name.to_string(),
            bounds: world.bounds,
            raw: enumerate::raw_count(&world.bounds),
            unverified: enumerate::orbit_count(&world.bounds),
        }
    }
}

impl Value for SkippedWorld {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("world", &self.world)
            .field("ops", self.bounds.ops)
            .field("threads", self.bounds.threads)
            .field("domains", self.bounds.domains)
            .field("raw", self.raw)
            .field("unverified", self.unverified)
            .end();
    }
}

/// One seeded-bug validation row: the bug, the first enumerated program
/// that exposes it, and the replay verdict.
#[derive(Clone, Debug)]
pub struct SeededOutcome {
    /// The planted bug.
    pub bug: ProtocolBug,
    /// `world@program` of the first exposing program.
    pub scenario: String,
    /// The witness violation's class.
    pub class: ViolationClass,
    /// The witness schedule (CLI form).
    pub schedule: String,
    /// Canonical programs scanned before the bug surfaced.
    pub programs_scanned: u64,
    /// Whether replaying the witness schedule reproduced the violation.
    pub replay_confirmed: bool,
}

impl SeededOutcome {
    /// Whether the bug was caught and the witness replays (a missed bug
    /// never has a confirmed replay).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.replay_confirmed
    }
}

impl Value for SeededOutcome {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("bug", self.bug.label())
            .field("scenario", &self.scenario)
            .field("class", self.class.name())
            .field("schedule", &self.schedule)
            .field("programs_scanned", self.programs_scanned)
            .field("replay_confirmed", self.replay_confirmed)
            .field("passed", self.passed())
            .end();
    }
}

/// The whole campaign report.
#[derive(Clone, Debug, Default)]
pub struct RefineReport {
    /// Per-world outcomes, in configuration order.
    pub worlds: Vec<WorldOutcome>,
    /// Worlds excluded by the selected scale, each with its unverified
    /// program count.
    pub skipped: Vec<SkippedWorld>,
    /// Seeded-bug validation rows (`--seeded` only).
    pub seeded: Vec<SeededOutcome>,
    /// Wall time, stamped by the binary after the deterministic core
    /// finishes (0 in library use).
    pub wall_nanos: u64,
}

impl RefineReport {
    /// Whether every world passed and every seeded bug was re-validated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.worlds.iter().all(WorldOutcome::passed)
            && self.seeded.iter().all(SeededOutcome::passed)
    }

    /// Total schedules explored across all worlds.
    #[must_use]
    pub fn total_schedules(&self) -> u64 {
        self.worlds.iter().map(|w| w.schedules).sum()
    }

    /// Total canonical programs verified.
    #[must_use]
    pub fn total_programs(&self) -> u64 {
        self.worlds.iter().map(|w| w.canonical).sum()
    }

    /// Total canonical programs left unverified by scale caps.
    #[must_use]
    pub fn total_unverified(&self) -> u128 {
        self.skipped.iter().map(|s| s.unverified).sum()
    }

    /// JSON document (stable field names; `wall_nanos` is the only
    /// nondeterministic field).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Value for RefineReport {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("clean", self.is_clean())
            .field("programs", self.total_programs())
            .field("schedules", self.total_schedules())
            .field("skipped_world_count", self.skipped.len())
            .field("unverified_programs", self.total_unverified())
            .field("wall_nanos", self.wall_nanos)
            .field("worlds", &self.worlds)
            .field("skipped_worlds", &self.skipped)
            .field("seeded", &self.seeded)
            .end();
    }
}

impl fmt::Display for RefineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<6} {:>14} {:>12} {:>10} {:>12} {:>12} {:>10}",
            "world", "bounds", "raw", "canonical", "burnside", "schedules", "violations"
        )?;
        for w in &self.worlds {
            writeln!(
                f,
                "{:<6} {:>14} {:>12} {:>10} {:>12} {:>12} {:>10}{}{}",
                w.world,
                format!("N{} M{} K{}", w.bounds.ops, w.bounds.threads, w.bounds.domains),
                w.raw,
                w.canonical,
                w.burnside,
                w.schedules,
                w.violations_total,
                if u128::from(w.canonical) != w.burnside { " (COUNT MISMATCH)" } else { "" },
                if w.truncated > 0 { " (truncated)" } else { "" },
            )?;
        }
        for s in &self.skipped {
            writeln!(
                f,
                "{:<6} {:>14} {:>12} SKIPPED (scale cap): {} canonical programs NOT \
                 verified at this scale; rerun with --full",
                s.world,
                format!("N{} M{} K{}", s.bounds.ops, s.bounds.threads, s.bounds.domains),
                s.raw,
                s.unverified,
            )?;
        }
        writeln!(
            f,
            "total: {} canonical programs, {} schedules explored",
            self.total_programs(),
            self.total_schedules()
        )?;
        if !self.skipped.is_empty() {
            writeln!(
                f,
                "skipped: {} world(s), {} canonical programs unverified (scale cap)",
                self.skipped.len(),
                self.total_unverified()
            )?;
        }
        for v in self.worlds.iter().flat_map(|w| &w.violations) {
            writeln!(f, "  {v}")?;
        }
        if !self.seeded.is_empty() {
            writeln!(f, "\nseeded-bug re-validation:")?;
            for s in &self.seeded {
                writeln!(
                    f,
                    "  {:<32} {:>5} -> {} as {} via schedule {} (replay {})",
                    s.bug.label(),
                    if s.passed() { "FOUND" } else { "MISS" },
                    s.scenario,
                    s.class.name(),
                    s.schedule,
                    if s.replay_confirmed { "confirmed" } else { "DIVERGED" },
                )?;
            }
        }
        if self.is_clean() {
            writeln!(f, "\nresult: CLEAN")?;
        } else {
            writeln!(f, "\nresult: VIOLATIONS FOUND")?;
        }
        Ok(())
    }
}

/// Per-chunk partial result (merged in enumeration order).
struct ChunkOutcome {
    schedules: u64,
    steps: u64,
    sleep_blocked: u64,
    truncated: u64,
    violations: Vec<Violation>,
    violation_count: u64,
}

/// Explores one enumerated program through `explorer`, which
/// [`RefineWorld::explorer`] built for its world.
fn check_program(
    explorer: &mut Explorer,
    world: &RefineWorld,
    index: usize,
    codes: &Codes,
    limits: &ExploreLimits,
) -> pmo_modelcheck::ExploreOutcome {
    let scenario = enumerate::to_scenario(world.name, index, codes, &world.bounds, world.config());
    explorer.explore(&scenario, limits)
}

/// Exhaustively verifies one world, fanning program chunks across `jobs`
/// workers. Deterministic: chunks are merged in enumeration order, so the
/// outcome is byte-identical at any job count.
#[must_use]
pub fn run_world(world: &RefineWorld, cfg: &RefineConfig, jobs: usize) -> WorldOutcome {
    let programs = enumerate::enumerate_canonical(&world.bounds);
    let canonical = programs.len() as u64;
    let chunks: Vec<(usize, &[Codes])> = programs
        .chunks(cfg.chunk.max(1))
        .enumerate()
        .map(|(i, c)| (i * cfg.chunk.max(1), c))
        .collect();
    let limits = cfg.limits;
    let partials = parallel_map(jobs, chunks, |(start, chunk)| {
        let mut explorer = world.explorer(None);
        let mut part = ChunkOutcome {
            schedules: 0,
            steps: 0,
            sleep_blocked: 0,
            truncated: 0,
            violations: Vec::new(),
            violation_count: 0,
        };
        for (i, codes) in chunk.iter().enumerate() {
            let out = check_program(&mut explorer, world, start + i, codes, &limits);
            part.schedules += out.schedules;
            part.steps += out.steps;
            part.sleep_blocked += out.sleep_blocked;
            part.truncated += u64::from(out.truncated);
            part.violation_count += out.violation_count;
            part.violations.extend(out.violations);
        }
        part
    });

    let mut outcome = WorldOutcome {
        world: world.name.to_string(),
        bounds: world.bounds,
        raw: enumerate::raw_count(&world.bounds),
        burnside: enumerate::orbit_count(&world.bounds),
        canonical,
        schedules: 0,
        steps: 0,
        sleep_blocked: 0,
        truncated: 0,
        violations: Vec::new(),
        violations_total: 0,
    };
    for part in partials {
        outcome.schedules += part.schedules;
        outcome.steps += part.steps;
        outcome.sleep_blocked += part.sleep_blocked;
        outcome.truncated += part.truncated;
        outcome.violations_total += part.violation_count;
        for v in part.violations {
            if outcome.violations.len() < cfg.max_violations {
                outcome.violations.push(v);
            }
        }
    }
    outcome
}

/// Runs the clean campaign over every configured world.
#[must_use]
pub fn run_campaign(cfg: &RefineConfig, jobs: usize) -> RefineReport {
    RefineReport {
        worlds: cfg.worlds.iter().map(|w| run_world(w, cfg, jobs)).collect(),
        skipped: cfg.skipped.iter().map(SkippedWorld::from_world).collect(),
        seeded: Vec::new(),
        wall_nanos: 0,
    }
}

/// Re-validates every plantable [`ProtocolBug`] through the checker:
/// scans the enumerated programs of each world in order (each chunk's
/// programs fanned across `jobs` workers, one explorer per worker; first
/// witness in enumeration order regardless of job count) until the
/// planted bug surfaces, then replays
/// the witness schedule to confirm the counterexample is deterministic.
#[must_use]
pub fn run_seeded(cfg: &RefineConfig, jobs: usize) -> Vec<SeededOutcome> {
    ProtocolBug::ALL
        .iter()
        .map(|&bug| {
            let mut scanned = 0u64;
            for world in &cfg.worlds {
                let programs = enumerate::enumerate_canonical(&world.bounds);
                let chunk = cfg.chunk.max(1);
                for (ci, chunk_programs) in programs.chunks(chunk).enumerate() {
                    let start = ci * chunk;
                    let limits = cfg.limits;
                    let outs = parallel_map_with(
                        jobs,
                        chunk_programs.iter().enumerate().collect(),
                        || world.explorer(Some(bug)),
                        |explorer, (i, codes)| {
                            check_program(explorer, world, start + i, codes, &limits)
                        },
                    );
                    for (i, out) in outs.into_iter().enumerate() {
                        scanned += 1;
                        let Some(witness) = out.violations.first() else {
                            continue;
                        };
                        let scenario = enumerate::to_scenario(
                            world.name,
                            start + i,
                            &programs[start + i],
                            &world.bounds,
                            world.config(),
                        );
                        let replayed = replay_schedule(&scenario, Some(bug), &witness.schedule);
                        let confirmed = replayed.is_ok_and(|r| {
                            r.violations.iter().any(|v| v.class == witness.class)
                                && !r.report.passed()
                        });
                        return SeededOutcome {
                            bug,
                            scenario: witness.scenario.clone(),
                            class: witness.class,
                            schedule: witness.schedule_string(),
                            programs_scanned: scanned,
                            replay_confirmed: confirmed,
                        };
                    }
                }
            }
            SeededOutcome {
                bug,
                scenario: "(not caught)".to_string(),
                class: ViolationClass::RefinementDivergence,
                schedule: String::new(),
                programs_scanned: scanned,
                replay_confirmed: false,
            }
        })
        .collect()
}

/// Replays one `world@program@schedule` repro id and returns the
/// analyzer report plus the violations it reproduced.
///
/// # Errors
///
/// Returns a description when the world is unknown, the program index is
/// out of range, or the schedule is not executable.
pub fn replay_repro(
    cfg: &RefineConfig,
    world_name: &str,
    program: usize,
    schedule: &[u32],
    bug: Option<ProtocolBug>,
) -> Result<pmo_modelcheck::ReplayOutcome, String> {
    let world = cfg
        .world(world_name)
        .ok_or_else(|| format!("unknown world {world_name:?} (have: w1, w2, ...)"))?;
    let programs = enumerate::enumerate_canonical(&world.bounds);
    let codes = programs.get(program).ok_or_else(|| {
        format!("{world_name} has {} programs, no index {program}", programs.len())
    })?;
    let scenario =
        enumerate::to_scenario(world.name, program, codes, &world.bounds, world.config());
    replay_schedule(&scenario, bug, schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-world shrunken configuration that keeps tests fast.
    fn tiny_config() -> RefineConfig {
        RefineConfig {
            worlds: vec![RefineWorld {
                name: "w1",
                bounds: WorldBounds { ops: 3, threads: 2, domains: 2 },
                pkeys: 8,
                dttlb: 4,
                ptlb: 4,
            }],
            skipped: Vec::new(),
            limits: ExploreLimits::default(),
            max_violations: 20,
            chunk: 64,
        }
    }

    #[test]
    fn tiny_world_is_clean_and_counts_match_closed_form() {
        let cfg = tiny_config();
        let report = run_campaign(&cfg, 1);
        assert!(report.is_clean(), "{report}");
        let w = &report.worlds[0];
        assert_eq!(w.raw, 11_593, "Σ C(n+1,1)·14^n for n≤3");
        assert_eq!(u128::from(w.canonical), w.burnside);
        assert!(w.schedules >= w.canonical, "every program has at least one schedule");
    }

    #[test]
    fn campaign_is_byte_identical_across_job_counts() {
        let cfg = tiny_config();
        let serial = run_campaign(&cfg, 1);
        let parallel = run_campaign(&cfg, 4);
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    /// The exact `--json` bytes of a report whose every list is filled,
    /// whose violation message needs escaping and whose wall time is
    /// stamped.
    #[test]
    fn report_json_bytes_are_pinned() {
        let bounds = WorldBounds { ops: 3, threads: 2, domains: 2 };
        let violation = Violation {
            scenario: "w1@7".to_string(),
            class: ViolationClass::StaleWindowAccess,
            thread: 1,
            step: 2,
            schedule: vec![0, 1, 1],
            message: "a \"q\" \\ b\nc\u{1}".to_string(),
        };
        let report = RefineReport {
            worlds: vec![WorldOutcome {
                world: "w1".to_string(),
                bounds,
                raw: u128::from(u64::MAX) + 1,
                burnside: 4,
                canonical: 5,
                schedules: 6,
                steps: 7,
                sleep_blocked: 8,
                truncated: 9,
                violations: vec![violation.clone(), violation],
                violations_total: 10,
            }],
            skipped: vec![SkippedWorld {
                world: "w3".to_string(),
                bounds,
                raw: 11,
                unverified: 12,
            }],
            seeded: vec![SeededOutcome {
                bug: ProtocolBug::StaleCr3OnSwitch,
                scenario: "w2@13".to_string(),
                class: ViolationClass::StaleWindowAccess,
                schedule: "0.1".to_string(),
                programs_scanned: 14,
                replay_confirmed: true,
            }],
            wall_nanos: 15,
        };
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"clean":false,"programs":5,"schedules":6,"skipped_world_count":1,"#,
                r#""unverified_programs":12,"wall_nanos":15,"worlds":[{"world":"w1","ops":3,"#,
                r#""threads":2,"domains":2,"raw":18446744073709551616,"burnside":4,"#,
                r#""canonical":5,"schedules":6,"steps":7,"sleep_blocked":8,"truncated":9,"#,
                r#""violations_total":10,"violations":[{"scenario":"w1@7","#,
                r#""class":"stale-window-access","thread":1,"step":2,"schedule":"0.1.1","#,
                r#""message":"a \"q\" \\ b\nc\u0001"},{"scenario":"w1@7","#,
                r#""class":"stale-window-access","thread":1,"step":2,"schedule":"0.1.1","#,
                r#""message":"a \"q\" \\ b\nc\u0001"}]}],"skipped_worlds":[{"world":"w3","#,
                r#""ops":3,"threads":2,"domains":2,"raw":11,"unverified":12}],"#,
                r#""seeded":[{"bug":"stale-cr3-on-switch","scenario":"w2@13","#,
                r#""class":"stale-window-access","schedule":"0.1","programs_scanned":14,"#,
                r#""replay_confirmed":true,"passed":true}]}"#,
            )
        );
    }

    #[test]
    fn quick_scale_reports_skipped_worlds_loudly() {
        let quick = RefineConfig::for_scale(Scale::Quick);
        assert_eq!(quick.skipped.len(), 2, "quick must carry w3/w4 as skipped");
        let report = RefineReport {
            worlds: Vec::new(),
            skipped: quick.skipped.iter().map(SkippedWorld::from_world).collect(),
            seeded: Vec::new(),
            wall_nanos: 0,
        };
        assert!(report.total_unverified() > 0);
        let text = report.to_string();
        assert!(text.contains("SKIPPED (scale cap)"), "{text}");
        assert!(text.contains("rerun with --full"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"skipped_world_count\":2"), "{json}");
        assert!(
            json.contains(&format!("\"unverified_programs\":{}", report.total_unverified())),
            "{json}"
        );
        assert!(json.contains("\"world\":\"w3\""), "{json}");
        // Paper scale skips nothing and says so in JSON.
        let paper = RefineConfig::for_scale(Scale::Paper);
        assert!(paper.skipped.is_empty());
        assert_eq!(paper.worlds.len(), 4);
    }

    #[test]
    fn seeded_scan_finds_a_bug_with_a_replayable_witness() {
        // One bug end-to-end (the full matrix is integration-tested):
        // the PTLB switch-flush skip needs only two threads and two ops.
        let cfg = tiny_config();
        let rows = run_seeded(&RefineConfig { worlds: cfg.worlds.clone(), ..cfg.clone() }, 2);
        let row = rows
            .iter()
            .find(|r| r.bug == ProtocolBug::SkipPtlbFlushOnSwitch)
            .expect("row for every bug");
        assert!(row.passed(), "{row:?}");
        assert!(row.scenario.starts_with("w1@"));
        let (world, rest) = row.scenario.split_once('@').unwrap();
        let program: usize = rest.parse().unwrap();
        let schedule = pmo_modelcheck::parse_schedule(&row.schedule).unwrap();
        let replay = replay_repro(&cfg, world, program, &schedule, Some(row.bug)).unwrap();
        assert!(replay.violations.iter().any(|v| v.class == row.class));
        // Every bug this world exposes is classified exactly as the
        // hand-written DPOR matrix classifies it.
        for check in pmo_modelcheck::seeded_checks() {
            let row = rows.iter().find(|r| r.bug == check.bug).expect("row for every bug");
            if row.passed() {
                assert_eq!(row.class, check.expect, "{row:?}");
            }
        }
    }
}
