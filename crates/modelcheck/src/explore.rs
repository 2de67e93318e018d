//! Stateless dynamic partial-order reduction (DPOR) over schedules.
//!
//! Flanagan–Godefroid DPOR with sleep sets: a depth-first search over
//! thread schedules that re-executes every explored schedule from the
//! scenario's post-setup state (stateless model checking). An
//! [`Explorer`] builds that state once, as a template [`World`], and
//! restores its working world from the template in place before each
//! schedule instead of re-running the setup. After each complete
//! execution a vector-clock race analysis finds pairs of concurrent
//! dependent operations and seeds backtrack points at the earlier
//! operation's pre-state, so only interleavings that can change the
//! outcome are revisited; sleep sets prune schedules that merely permute
//! independent operations. Thread sets are `u64` bitsets and the clocks
//! live in one flat buffer the explorer reuses.

use std::collections::BTreeSet;

use pmo_protect::ProtocolBug;
use pmo_simarch::SimConfig;
use pmo_trace::PmoId;

use crate::program::{dependent, Op, Scenario};
use crate::report::{ExploreOutcome, Violation};
use crate::world::{Finding, World};

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct ExploreLimits {
    /// Maximum schedule length (steps); programs longer than this are
    /// explored up to the bound, and the outcome is marked truncated.
    pub max_depth: usize,
    /// Hard cap on complete executions (defense against state explosion;
    /// the outcome is marked truncated when it stops the search short).
    pub max_schedules: u64,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits { max_depth: 24, max_schedules: 250_000 }
    }
}

/// A set of thread indices: bit `t` stands for thread `t`.
type Threads = u64;

/// One decision point in the DFS: the state *before* step `depth`.
#[derive(Clone, Copy, Debug)]
struct Frame {
    /// The thread chosen at this point on the current path.
    chosen: usize,
    /// Threads that must (eventually) be explored from this state.
    backtrack: Threads,
    /// Threads whose subtrees from this state are fully explored.
    done: Threads,
    /// Sleep set on entry: threads whose next operation commutes with
    /// every operation since they were preempted — scheduling them here
    /// would replay an already-explored equivalence class.
    sleep: Threads,
}

/// One exploration context, built for one hardware configuration, one
/// list of setup domains and one planted bug, through which any number of
/// programs that share them are explored or executed.
///
/// It runs the setup once, when it is built, and keeps the resulting
/// post-setup [`World`] as a template. Every schedule restores the
/// working world from the template with `clone_from`, which reuses the
/// machines' vectors, and runs in the explorer's DPOR frames, step list
/// and clock buffer. Once those have grown, a schedule allocates what its
/// operations do plus the nodes of the `BTreeMap`-backed scheme state
/// that the restore rebuilds.
pub struct Explorer {
    config: SimConfig,
    setup: Vec<PmoId>,
    /// The state every schedule starts from.
    template: World,
    /// The state the current schedule runs in.
    pub(crate) world: World,
    /// DPOR decision points along the current path.
    frames: Vec<Frame>,
    /// The `(thread, op)` steps the current schedule executed.
    exec: Vec<(usize, Op)>,
    /// Operations each thread has executed in the current schedule.
    pub(crate) consumed: Vec<usize>,
    /// The race analysis's vector clocks, row-major with one entry per
    /// thread: first each thread's clock, then each executed step's.
    clocks: Vec<u64>,
}

impl Explorer {
    /// An explorer for programs over `config` whose `setup` domains are
    /// attached before they run, with `bug` planted into whichever scheme
    /// it targets.
    #[must_use]
    pub fn new(config: &SimConfig, setup: &[PmoId], bug: Option<ProtocolBug>) -> Self {
        let template = World::with_setup(config, setup, bug);
        Explorer {
            config: config.clone(),
            setup: setup.to_vec(),
            world: template.clone(),
            template,
            frames: Vec::new(),
            exec: Vec::new(),
            consumed: Vec::new(),
            clocks: Vec::new(),
        }
    }

    /// Checks that `scenario` can run from the explorer's template.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` does not share the explorer's configuration
    /// and setup domains.
    pub(crate) fn check_fits(&self, scenario: &Scenario) {
        assert!(
            scenario.config == self.config && scenario.setup == self.setup,
            "{} does not share this explorer's configuration and setup domains",
            scenario.name
        );
    }

    /// Restores the post-setup state for a schedule of a program with
    /// `nthreads` threads.
    pub(crate) fn restore(&mut self, nthreads: usize) {
        self.world.clone_from(&self.template);
        self.consumed.clear();
        self.consumed.resize(nthreads, 0);
    }

    /// Exhaustively explores `scenario` under the given bounds, returning
    /// statistics and every distinct violation found. Every step of every
    /// schedule runs the [`World`]'s verdict, cache and abstraction
    /// checks; every completed (non-sleep-blocked) execution also runs
    /// its noninterference pass, and any leak is reported against the
    /// full schedule that produced it.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` does not share the explorer's configuration
    /// and setup domains, or has more than 64 threads.
    #[must_use]
    pub fn explore(&mut self, scenario: &Scenario, limits: &ExploreLimits) -> ExploreOutcome {
        self.check_fits(scenario);
        let threads = &scenario.program.threads;
        let nthreads = threads.len();
        assert!(nthreads <= Threads::BITS as usize, "thread sets hold at most 64 threads");
        let kp = scenario.key_pressure;
        let mut out = ExploreOutcome::new(scenario, limits.max_depth);
        let mut seen = BTreeSet::new();
        self.frames.clear();

        loop {
            // ---- Execute the schedule selected by `frames`, extending it
            // to a maximal (or bounded, or violating) execution. ----
            self.restore(nthreads);
            self.exec.clear();
            let mut sleep_blocked = false;
            let mut next_sleep: Threads = 0;

            loop {
                if self.exec.len() >= limits.max_depth {
                    out.truncated |= self.exec.len() < scenario.program.total_ops();
                    break;
                }
                let depth = self.exec.len();
                let chosen = if depth < self.frames.len() {
                    self.frames[depth].chosen
                } else {
                    let enabled = (0..nthreads)
                        .filter(|&t| self.consumed[t] < threads[t].len())
                        .fold(0, |set: Threads, t| set | 1 << t);
                    if enabled == 0 {
                        break; // maximal execution
                    }
                    let awake = enabled & !next_sleep;
                    if awake == 0 {
                        // Every runnable thread sleeps: this prefix only
                        // replays an explored equivalence class.
                        sleep_blocked = true;
                        break;
                    }
                    let pick = awake.trailing_zeros() as usize;
                    self.frames.push(Frame {
                        chosen: pick,
                        backtrack: 1 << pick,
                        done: 0,
                        sleep: next_sleep,
                    });
                    pick
                };
                let op = threads[chosen][self.consumed[chosen]];
                self.consumed[chosen] += 1;
                let findings = self.world.step(chosen as u32, op);
                out.steps += 1;
                self.exec.push((chosen, op));

                // Sleep set for the next state: previously explored/asleep
                // threads stay asleep only while their next op commutes
                // with what just executed.
                let frame = self.frames[depth];
                next_sleep = (0..nthreads)
                    .filter(|&w| {
                        (frame.sleep | frame.done) >> w & 1 == 1
                            && w != chosen
                            && threads[w]
                                .get(self.consumed[w])
                                .is_some_and(|&next| !dependent(next, op, kp))
                    })
                    .fold(0, |set, w| set | 1 << w);

                if !findings.is_empty() {
                    record(&mut out, &mut seen, &self.exec, findings);
                    break; // prune below the violation
                }
            }

            if sleep_blocked {
                out.sleep_blocked += 1;
            } else {
                out.schedules += 1;
                // End-of-execution checks (noninterference), anchored at
                // the last executed step of this schedule.
                record(&mut out, &mut seen, &self.exec, self.world.end_checks());
            }

            // ---- Vector-clock race analysis: seed backtrack points. ----
            self.analyze_races(kp, nthreads);

            // ---- Backtrack to the deepest frame with an unexplored
            // choice. ----
            loop {
                let Some(top) = self.frames.last_mut() else {
                    return out; // search space exhausted
                };
                top.done |= 1 << top.chosen;
                let open = top.backtrack & !top.done & !top.sleep;
                if open != 0 {
                    top.chosen = open.trailing_zeros() as usize;
                    break;
                }
                self.frames.pop();
            }
            // Only a cap that leaves a choice unexplored truncates the
            // search.
            if out.schedules >= limits.max_schedules {
                out.truncated = true;
                return out;
            }
        }
    }

    /// Finds, for every executed step, the last concurrent dependent step
    /// of every other thread and adds the later thread to the backtrack
    /// set of the earlier step's pre-state (Flanagan–Godefroid). Clocks
    /// order steps by program order plus dependence edges.
    fn analyze_races(&mut self, kp: bool, nthreads: usize) {
        let n = nthreads;
        let thread = |t: usize| t * n;
        let step = |i: usize| (n + i) * n;
        let clocks = &mut self.clocks;
        clocks.clear();
        clocks.resize(n * n, 0);
        for (i, &(p, op)) in self.exec.iter().enumerate() {
            // Step i's clock starts as p's and joins the clock of the last
            // dependent step of every other thread, found scanning back.
            let row = step(i);
            clocks.extend_from_within(thread(p)..thread(p) + n);
            let mut joined: Threads = 0;
            for (j, &(q, other)) in self.exec[..i].iter().enumerate().rev() {
                if q == p || joined >> q & 1 == 1 || !dependent(other, op, kp) {
                    continue;
                }
                joined |= 1 << q;
                // Concurrent (not already ordered before p's view) →
                // race: exploring p at j's pre-state can reverse the pair.
                let frame = &mut self.frames[j];
                if clocks[step(j) + q] > clocks[thread(p) + q] && frame.sleep >> p & 1 == 0 {
                    frame.backtrack |= 1 << p;
                }
                for k in 0..n {
                    clocks[row + k] = clocks[row + k].max(clocks[step(j) + k]);
                }
            }
            clocks[row + p] += 1;
            clocks.copy_within(row..row + n, thread(p));
        }
    }
}

/// Exhaustively explores `scenario` under the given bounds through a
/// fresh [`Explorer`]; see [`Explorer::explore`]. A planted `bug` turns
/// the run into a self-validation campaign.
#[must_use]
pub fn explore(
    scenario: &Scenario,
    bug: Option<ProtocolBug>,
    limits: &ExploreLimits,
) -> ExploreOutcome {
    Explorer::new(&scenario.config, &scenario.setup, bug).explore(scenario, limits)
}

/// Counts every finding and keeps the first occurrence of each distinct
/// one, anchored at the last step of `exec` with `exec` as its schedule.
fn record(
    out: &mut ExploreOutcome,
    seen: &mut BTreeSet<String>,
    exec: &[(usize, Op)],
    findings: Vec<Finding>,
) {
    let step = exec.len().saturating_sub(1);
    for finding in findings {
        out.violation_count += 1;
        let key = format!("{}|{}|{}|{}", finding.class, finding.thread, step, finding.message);
        if seen.insert(key) {
            let schedule = exec.iter().map(|&(t, _)| t as u32).collect();
            out.violations.push(Violation::new(&out.scenario, schedule, step, finding));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{model_config, Program};
    use pmo_trace::{AccessKind, Perm, PmoId};

    fn two_thread_scenario(threads: Vec<Vec<Op>>, key_pressure: bool) -> Scenario {
        Scenario {
            name: "unit".into(),
            about: "",
            setup: vec![PmoId::new(1), PmoId::new(2)],
            program: Program { threads },
            config: model_config(if key_pressure { 3 } else { 8 }, 4, 4),
            key_pressure,
        }
    }

    #[test]
    fn independent_threads_collapse_to_one_schedule() {
        let p1 = PmoId::new(1);
        let p2 = PmoId::new(2);
        let scenario = two_thread_scenario(
            vec![
                vec![
                    Op::SetPerm { pmo: p1, perm: Perm::ReadWrite },
                    Op::Access { pmo: p1, offset: 0, kind: AccessKind::Write },
                ],
                vec![
                    Op::SetPerm { pmo: p2, perm: Perm::ReadWrite },
                    Op::Access { pmo: p2, offset: 0, kind: AccessKind::Write },
                ],
            ],
            false,
        );
        let out = explore(&scenario, None, &ExploreLimits::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.naive, 6, "C(4,2) interleavings exist naively");
        assert!(
            out.schedules < 6,
            "DPOR must prune commuting interleavings, explored {}",
            out.schedules
        );
    }

    fn dependent_scenario() -> Scenario {
        let p1 = PmoId::new(1);
        two_thread_scenario(
            vec![
                vec![
                    Op::SetPerm { pmo: p1, perm: Perm::ReadWrite },
                    Op::Access { pmo: p1, offset: 0, kind: AccessKind::Write },
                ],
                vec![Op::Access { pmo: p1, offset: 0, kind: AccessKind::Read }],
            ],
            false,
        )
    }

    #[test]
    fn dependent_threads_explore_multiple_schedules() {
        let out = explore(&dependent_scenario(), None, &ExploreLimits::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.schedules > 1, "conflicting accesses need reordering");
        assert!(out.schedules <= out.naive as u64);
    }

    #[test]
    fn a_schedule_cap_that_cuts_the_search_fails_it() {
        let scenario = dependent_scenario();
        let full = explore(&scenario, None, &ExploreLimits::default());
        assert!(full.passed() && !full.truncated);
        let cap = |max_schedules| ExploreLimits { max_schedules, ..ExploreLimits::default() };
        let exact = explore(&scenario, None, &cap(full.schedules));
        assert!(exact.passed() && !exact.truncated, "a cap at the full count cuts nothing");
        let cut = explore(&scenario, None, &cap(full.schedules - 1));
        assert!(cut.truncated && !cut.passed(), "{cut:?}");
        assert!(cut.violations.is_empty(), "the cut search found nothing, yet fails");
    }

    #[test]
    fn a_depth_bound_that_cuts_the_program_fails_the_search() {
        let scenario = dependent_scenario();
        let depth = |max_depth| ExploreLimits { max_depth, ..ExploreLimits::default() };
        let ops = scenario.program.total_ops();
        let whole = explore(&scenario, None, &depth(ops));
        assert!(whole.passed() && !whole.truncated, "a bound at the program length cuts nothing");
        let cut = explore(&scenario, None, &depth(ops - 1));
        assert!(cut.truncated && !cut.passed(), "{cut:?}");
        assert!(cut.violations.is_empty(), "the cut search found nothing, yet fails");
    }

    #[test]
    #[should_panic(expected = "does not share this explorer's configuration and setup domains")]
    fn an_explorer_refuses_a_program_with_other_setup_domains() {
        let scenario = dependent_scenario();
        let mut explorer = Explorer::new(&scenario.config, &[PmoId::new(1)], None);
        let _ = explorer.explore(&scenario, &ExploreLimits::default());
    }

    #[test]
    fn exploration_is_deterministic() {
        let p1 = PmoId::new(1);
        let scenario = two_thread_scenario(
            vec![
                vec![
                    Op::SetPerm { pmo: p1, perm: Perm::ReadWrite },
                    Op::Access { pmo: p1, offset: 0, kind: AccessKind::Write },
                    Op::SetPerm { pmo: p1, perm: Perm::None },
                ],
                vec![
                    Op::Access { pmo: p1, offset: 0, kind: AccessKind::Read },
                    Op::SetPerm { pmo: p1, perm: Perm::ReadOnly },
                ],
            ],
            false,
        );
        let a = explore(&scenario, None, &ExploreLimits::default());
        let b = explore(&scenario, None, &ExploreLimits::default());
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.violations, b.violations);
    }
}
