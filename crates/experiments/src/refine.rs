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
//! re-verified by replay; a bug no program catches is a `MISS` row that
//! names no witness. Reports are byte-identical at any `--jobs` count.
//!
//! Scale caps are never silent: worlds excluded by the selected
//! [`Scale`] appear in the report (text and JSON) as explicit
//! `SKIPPED` rows carrying the closed-form count of canonical programs
//! that were *not* verified, so a quick run can't be mistaken for
//! paper-scale coverage.
//!
//! Both small-world campaigns (this one and [`crate::predict`]) run on
//! this module's [`RefineConfig`], its ordered per-world sweep, its
//! first-witness seeded scan, its repro lookup and the [`WorldHead`] that
//! opens every world row. The sweep and the scan take the per-chunk or
//! per-worker state to build, so this campaign explores through checking
//! explorers (every verified machine) while predict traces through
//! tracing ones (mpk-virt alone). Each enumerates a world once into one
//! flat buffer ([`enumerate::Programs`]) and borrows every program from
//! it, loading it into one scenario per chunk or worker.

use std::fmt;

use pmo_analyzer::ViolationClass;
use pmo_modelcheck::enumerate::{self, ProgramRef, WorldBounds};
use pmo_modelcheck::{
    model_config, replay_schedule, ExploreLimits, ExploreOutcome, Explorer, Scenario, Violation,
};
use pmo_protect::ProtocolBug;
use pmo_simarch::SimConfig;
use pmo_trace::json::{self, Object, Value};

use crate::pool::{parallel_map, parallel_map_with};
use crate::Scale;

/// Programs per parallel work unit, in the sweeps and the seeded scans.
const CHUNK: usize = 512;

/// Rows kept per world (violations, false-positive descriptions); the
/// excess is counted beside them, never silently dropped.
const MAX_KEPT: usize = 20;

/// Appends `more` to `kept` up to [`MAX_KEPT`] rows.
pub(crate) fn keep<T>(kept: &mut Vec<T>, more: Vec<T>) {
    kept.extend(more.into_iter().take(MAX_KEPT.saturating_sub(kept.len())));
}

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
    /// its domains before it runs. It checks every verified machine.
    #[must_use]
    pub(crate) fn explorer(&self, bug: Option<ProtocolBug>) -> Explorer {
        Explorer::new(&self.config(), &self.bounds.domain_ids(), bug)
    }

    /// [`Self::explorer`]'s tracing form, over mpk-virt alone: the same
    /// recorded traces, none of the other machines' checks.
    #[must_use]
    pub(crate) fn tracer(&self, bug: Option<ProtocolBug>) -> Explorer {
        Explorer::tracing(&self.config(), &self.bounds.domain_ids(), bug)
    }

    /// Enumerated program `index`, `program`, as the scenario
    /// `world@index`.
    pub(crate) fn scenario(&self, index: usize, program: ProgramRef<'_>) -> Scenario {
        enumerate::to_scenario(self.name, index, program, &self.bounds, self.config())
    }

    /// Sweeps every canonical program of the world: the programs fan
    /// across `jobs` workers in chunks, each chunk builds one state with
    /// `init` (its explorer), loads its programs one by one into one
    /// scenario, and folds their `program` results with `merge` inside
    /// its worker, and the chunks merge in enumeration order, so the
    /// result is the same at any job count.
    pub(crate) fn sweep<S, P: Default + Send>(
        &self,
        jobs: usize,
        init: impl Fn(&RefineWorld) -> S + Sync,
        program: impl Fn(&mut S, &Scenario) -> P + Sync,
        merge: impl Fn(P, P) -> P + Sync,
    ) -> (WorldHead, P) {
        let programs = enumerate::enumerate_canonical(&self.bounds);
        let head = WorldHead {
            world: self.name.to_string(),
            bounds: self.bounds,
            raw: enumerate::raw_count(&self.bounds),
            burnside: enumerate::orbit_count(&self.bounds),
            canonical: programs.len() as u64,
        };
        let program_at = |index| programs.get(index).expect("an enumerated index");
        let starts: Vec<usize> = (0..programs.len()).step_by(CHUNK).collect();
        let partials = parallel_map(jobs, starts, |start| {
            let mut state = init(self);
            let mut scenario = self.scenario(start, program_at(start));
            (start..programs.len().min(start + CHUNK)).fold(P::default(), |part, index| {
                enumerate::load_scenario(&mut scenario, self.name, index, program_at(index));
                merge(part, program(&mut state, &scenario))
            })
        });
        (head, partials.into_iter().fold(P::default(), &merge))
    }
}

/// Campaign shape, shared by the refinement and prediction campaigns.
#[derive(Clone, Debug)]
pub struct RefineConfig {
    /// Worlds enumerated, in report order.
    pub worlds: Vec<RefineWorld>,
    /// Worlds the selected [`Scale`] excludes (the paper-scale worlds
    /// under `quick`). Never silently dropped: the report carries one
    /// loud row per skipped world with its unverified program count.
    pub skipped: Vec<RefineWorld>,
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
        RefineConfig { worlds, skipped }
    }

    /// The scenario of program `program` of the configured world
    /// `world_name`: the lookup behind every repro id.
    ///
    /// # Errors
    ///
    /// Returns a description when the world is unknown or the program
    /// index is out of range.
    pub(crate) fn scenario(&self, world_name: &str, program: usize) -> Result<Scenario, String> {
        let world = self
            .worlds
            .iter()
            .find(|w| w.name == world_name)
            .ok_or_else(|| format!("unknown world {world_name:?} (have: w1, w2, ...)"))?;
        let programs = enumerate::enumerate_canonical(&world.bounds);
        let codes = programs.get(program).ok_or_else(|| {
            format!("{world_name} has {} programs, no index {program}", programs.len())
        })?;
        Ok(world.scenario(program, codes))
    }

    /// Scans the configured worlds' programs in enumeration order, one
    /// chunk at a time: a chunk's programs fan across `jobs` workers,
    /// each worker runs `program` on one state `init` built for the world
    /// and one scenario it loads each program into, and `take` receives
    /// each program's result in enumeration order until it returns
    /// `true`, so the first witness is the same at any job count. Returns
    /// the programs `take` received.
    pub(crate) fn scan<S, R: Send>(
        &self,
        jobs: usize,
        init: impl Fn(&RefineWorld) -> S + Sync,
        program: impl Fn(&mut S, &Scenario) -> R + Sync,
        mut take: impl FnMut(&Scenario, R) -> bool,
    ) -> u64 {
        let mut scanned = 0;
        for world in &self.worlds {
            let programs = enumerate::enumerate_canonical(&world.bounds);
            let program_at = |index| programs.get(index).expect("an enumerated index");
            // The scenario `take` reads, loaded on this thread.
            let mut scenario = world.scenario(0, program_at(0));
            for start in (0..programs.len()).step_by(CHUNK) {
                let results = parallel_map_with(
                    jobs,
                    (start..programs.len().min(start + CHUNK)).collect(),
                    || (init(world), world.scenario(start, program_at(start))),
                    |(state, scenario), index| {
                        enumerate::load_scenario(scenario, world.name, index, program_at(index));
                        program(state, scenario)
                    },
                );
                for (index, result) in (start..).zip(results) {
                    scanned += 1;
                    enumerate::load_scenario(&mut scenario, world.name, index, program_at(index));
                    if take(&scenario, result) {
                        return scanned;
                    }
                }
            }
        }
        scanned
    }
}

/// The head of every small-world row: the world, its bounds and its
/// program counts.
#[derive(Clone, Debug, Default)]
pub struct WorldHead {
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
}

impl WorldHead {
    /// Whether the enumeration matched the closed form.
    pub(crate) fn counts_match(&self) -> bool {
        u128::from(self.canonical) == self.burnside
    }

    /// The text row's marker for a failed [`Self::counts_match`].
    pub(crate) fn mismatch_marker(&self) -> &'static str {
        if self.counts_match() {
            ""
        } else {
            " (COUNT MISMATCH)"
        }
    }

    /// Opens the row's JSON object with the head's seven fields.
    pub(crate) fn open_json<'a>(&self, out: &'a mut String) -> Object<'a> {
        Object::new(out)
            .field("world", &self.world)
            .field("ops", self.bounds.ops)
            .field("threads", self.bounds.threads)
            .field("domains", self.bounds.domains)
            .field("raw", self.raw)
            .field("burnside", self.burnside)
            .field("canonical", self.canonical)
    }
}

/// The `N{ops} M{threads} K{domains}` label of a world's bounds.
pub(crate) fn bounds_label(bounds: &WorldBounds) -> String {
    format!("N{} M{} K{}", bounds.ops, bounds.threads, bounds.domains)
}

/// Exhaustive verification results for one world.
#[derive(Clone, Debug, Default)]
pub struct WorldOutcome {
    /// The world and its program counts.
    pub head: WorldHead,
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
        self.head.counts_match() && self.violations_total == 0 && self.truncated == 0
    }

    /// Adds a later program's or chunk's totals.
    fn merge(mut self, later: WorldOutcome) -> WorldOutcome {
        self.schedules += later.schedules;
        self.steps += later.steps;
        self.sleep_blocked += later.sleep_blocked;
        self.truncated += later.truncated;
        self.violations_total += later.violations_total;
        keep(&mut self.violations, later.violations);
        self
    }
}

impl Value for WorldOutcome {
    fn write_json(&self, out: &mut String) {
        self.head
            .open_json(out)
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

/// The first enumerated program that exposes a planted bug.
#[derive(Clone, Debug)]
pub struct SeededWitness {
    /// `world@program` of the program.
    pub scenario: String,
    /// The witness violation's class.
    pub class: ViolationClass,
    /// The witness schedule (CLI form).
    pub schedule: String,
    /// Whether replaying the witness schedule reproduced the violation.
    pub replay_confirmed: bool,
}

/// One seeded-bug validation row: the bug, the first enumerated program
/// that exposes it, and the replay verdict.
#[derive(Clone, Debug)]
pub struct SeededOutcome {
    /// The planted bug.
    pub bug: ProtocolBug,
    /// The first exposing program; `None` when no program caught the bug.
    pub witness: Option<SeededWitness>,
    /// Canonical programs scanned before the bug surfaced (all of them
    /// on a miss).
    pub programs_scanned: u64,
}

impl SeededOutcome {
    /// Whether the bug was caught and the witness replays.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.witness.as_ref().is_some_and(|w| w.replay_confirmed)
    }
}

impl Value for SeededOutcome {
    fn write_json(&self, out: &mut String) {
        let w = self.witness.as_ref();
        Object::new(out)
            .field("bug", self.bug.label())
            .field("scenario", w.map_or("-", |w| w.scenario.as_str()))
            .field("class", w.map_or("-", |w| w.class.name()))
            .field("schedule", w.map_or("", |w| w.schedule.as_str()))
            .field("programs_scanned", self.programs_scanned)
            .field("replay_confirmed", w.is_some_and(|w| w.replay_confirmed))
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
        self.worlds.iter().map(|w| w.head.canonical).sum()
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
                w.head.world,
                bounds_label(&w.head.bounds),
                w.head.raw,
                w.head.canonical,
                w.head.burnside,
                w.schedules,
                w.violations_total,
                w.head.mismatch_marker(),
                if w.truncated > 0 { " (truncated)" } else { "" },
            )?;
        }
        for s in &self.skipped {
            writeln!(
                f,
                "{:<6} {:>14} {:>12} SKIPPED (scale cap): {} canonical programs NOT \
                 verified at this scale; rerun with --full",
                s.world,
                bounds_label(&s.bounds),
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
                let found = if s.passed() { "FOUND" } else { "MISS" };
                write!(f, "  {:<32} {found:>5} -> ", s.bug.label())?;
                match &s.witness {
                    Some(w) => writeln!(
                        f,
                        "{} as {} via schedule {} (replay {})",
                        w.scenario,
                        w.class.name(),
                        w.schedule,
                        if w.replay_confirmed { "confirmed" } else { "DIVERGED" },
                    )?,
                    None => writeln!(f, "not caught in {} programs", s.programs_scanned)?,
                }
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

/// Exhaustively verifies one world under every DPOR-distinct schedule of
/// every canonical program, fanned across `jobs` workers; byte-identical
/// at any job count.
#[must_use]
pub fn run_world(world: &RefineWorld, jobs: usize) -> WorldOutcome {
    let limits = ExploreLimits::default();
    let (head, totals) = world.sweep(
        jobs,
        |world| (world.explorer(None), ExploreOutcome::default()),
        |(explorer, out), scenario| {
            explorer.explore_into(scenario, &limits, out);
            WorldOutcome {
                schedules: out.schedules,
                steps: out.steps,
                sleep_blocked: out.sleep_blocked,
                truncated: u64::from(out.truncated),
                violations: std::mem::take(&mut out.violations),
                violations_total: out.violation_count,
                ..WorldOutcome::default()
            }
        },
        WorldOutcome::merge,
    );
    WorldOutcome { head, ..totals }
}

/// Runs the clean campaign over every configured world.
#[must_use]
pub fn run_campaign(cfg: &RefineConfig, jobs: usize) -> RefineReport {
    RefineReport {
        worlds: cfg.worlds.iter().map(|w| run_world(w, jobs)).collect(),
        skipped: cfg.skipped.iter().map(SkippedWorld::from_world).collect(),
        seeded: Vec::new(),
        wall_nanos: 0,
    }
}

/// Re-validates every plantable [`ProtocolBug`] through the checker:
/// scans the enumerated programs in enumeration order
/// (`RefineConfig::scan`, one planted explorer per worker) until the
/// planted bug surfaces, then replays the witness schedule to confirm the
/// counterexample is deterministic.
#[must_use]
pub fn run_seeded(cfg: &RefineConfig, jobs: usize) -> Vec<SeededOutcome> {
    let limits = ExploreLimits::default();
    ProtocolBug::ALL
        .iter()
        .map(|&bug| {
            let mut witness = None;
            let programs_scanned = cfg.scan(
                jobs,
                |world| world.explorer(Some(bug)),
                |explorer, scenario| explorer.explore(scenario, &limits),
                |scenario, out| {
                    let Some(v) = out.violations.first() else {
                        return false;
                    };
                    let replayed = replay_schedule(scenario, Some(bug), &v.schedule);
                    witness = Some(SeededWitness {
                        scenario: v.scenario.clone(),
                        class: v.class,
                        schedule: v.schedule_string(),
                        replay_confirmed: replayed.is_ok_and(|r| {
                            r.violations.iter().any(|rv| rv.class == v.class) && !r.report.passed()
                        }),
                    });
                    true
                },
            );
            SeededOutcome { bug, witness, programs_scanned }
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
    replay_schedule(&cfg.scenario(world_name, program)?, bug, schedule)
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
        }
    }

    #[test]
    fn tiny_world_is_clean_and_counts_match_closed_form() {
        let cfg = tiny_config();
        let report = run_campaign(&cfg, 1);
        assert!(report.is_clean(), "{report}");
        let w = &report.worlds[0];
        assert_eq!(w.head.raw, 11_593, "Σ C(n+1,1)·14^n for n≤3");
        assert!(w.head.counts_match());
        assert!(w.schedules >= w.head.canonical, "every program has at least one schedule");
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
                head: WorldHead {
                    world: "w1".to_string(),
                    bounds,
                    raw: u128::from(u64::MAX) + 1,
                    burnside: 4,
                    canonical: 5,
                },
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
                witness: Some(SeededWitness {
                    scenario: "w2@13".to_string(),
                    class: ViolationClass::StaleWindowAccess,
                    schedule: "0.1".to_string(),
                    replay_confirmed: true,
                }),
                programs_scanned: 14,
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
        let rows = run_seeded(&cfg, 2);
        let row = rows
            .iter()
            .find(|r| r.bug == ProtocolBug::SkipPtlbFlushOnSwitch)
            .expect("row for every bug");
        assert!(row.passed(), "{row:?}");
        let witness = row.witness.as_ref().expect("caught");
        assert!(witness.scenario.starts_with("w1@"));
        let (world, rest) = witness.scenario.split_once('@').unwrap();
        let program: usize = rest.parse().unwrap();
        let schedule = pmo_modelcheck::parse_schedule(&witness.schedule).unwrap();
        let replay = replay_repro(&cfg, world, program, &schedule, Some(row.bug)).unwrap();
        assert!(replay.violations.iter().any(|v| v.class == witness.class));
        // Every bug this world exposes is classified exactly as the
        // hand-written DPOR matrix classifies it.
        for check in pmo_modelcheck::seeded_checks() {
            let row = rows.iter().find(|r| r.bug == check.bug).expect("row for every bug");
            if let Some(witness) = &row.witness {
                assert_eq!(witness.class, check.expect, "{row:?}");
            }
        }
    }

    #[test]
    fn seeded_scan_is_byte_identical_across_job_counts_and_reports_a_miss() {
        let cfg = tiny_config();
        let serial = RefineReport { seeded: run_seeded(&cfg, 1), ..RefineReport::default() };
        let parallel = RefineReport { seeded: run_seeded(&cfg, 3), ..RefineReport::default() };
        assert_eq!(serial.to_json(), parallel.to_json());
        // Quick scale first catches the eviction-shootdown skip in w2, so
        // w1 alone misses it: the row names no witness it never had.
        let programs = enumerate::orbit_count(&cfg.worlds[0].bounds);
        let miss = serial.to_string();
        assert!(
            miss.contains(&format!(
                "  skip-eviction-shootdown           MISS -> not caught in {programs} programs\n"
            )),
            "{miss}"
        );
        assert!(miss.contains("result: VIOLATIONS FOUND"), "{miss}");
        let row = format!(
            concat!(
                r#"{{"bug":"skip-eviction-shootdown","scenario":"-","class":"-","schedule":"","#,
                r#""programs_scanned":{},"replay_confirmed":false,"passed":false}}"#,
            ),
            programs
        );
        let json = serial.to_json();
        assert!(json.contains(&row), "{json}");
    }
}
