//! Stateless dynamic partial-order reduction (DPOR) over schedules.
//!
//! Flanagan–Godefroid DPOR with sleep sets: a depth-first search over
//! thread schedules that re-executes the [`World`] from its initial state
//! for every explored schedule (stateless model checking). After each
//! complete execution a vector-clock race analysis finds pairs of
//! concurrent dependent operations and seeds backtrack points at the
//! earlier operation's pre-state, so only interleavings that can change
//! the outcome are revisited; sleep sets prune schedules that merely
//! permute independent operations.

use std::collections::BTreeSet;

use pmo_protect::ProtocolBug;

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

/// One decision point in the DFS: the state *before* step `depth`.
#[derive(Clone, Debug)]
struct Frame {
    /// The thread chosen at this point on the current path.
    chosen: usize,
    /// Threads that must (eventually) be explored from this state.
    backtrack: BTreeSet<usize>,
    /// Threads whose subtrees from this state are fully explored.
    done: BTreeSet<usize>,
    /// Sleep set on entry: threads whose next operation commutes with
    /// every operation since they were preempted — scheduling them here
    /// would replay an already-explored equivalence class.
    sleep: BTreeSet<usize>,
}

/// Exhaustively explores `scenario` under the given bounds, returning
/// statistics and every distinct violation found. Every step of every
/// schedule runs the [`World`]'s verdict, cache and abstraction checks;
/// every completed (non-sleep-blocked) execution also runs its
/// noninterference pass, and any leak is reported against the full
/// schedule that produced it. A planted `bug` turns the run into a
/// self-validation campaign.
#[must_use]
pub fn explore(
    scenario: &Scenario,
    bug: Option<ProtocolBug>,
    limits: &ExploreLimits,
) -> ExploreOutcome {
    let nthreads = scenario.program.threads.len();
    let kp = scenario.key_pressure;
    let mut frames: Vec<Frame> = Vec::new();
    let mut out = ExploreOutcome::new(scenario, limits.max_depth);
    let mut seen = BTreeSet::new();

    loop {
        // ---- Execute the schedule selected by `frames`, extending it to
        // a maximal (or bounded, or violating) execution. ----
        let mut world = World::new(scenario, bug);
        let mut consumed = vec![0usize; nthreads];
        let mut exec: Vec<(usize, Op)> = Vec::new();
        let mut sleep_blocked = false;
        let mut next_sleep: BTreeSet<usize> = BTreeSet::new();

        loop {
            if exec.len() >= limits.max_depth {
                out.truncated |= exec.len() < scenario.program.total_ops();
                break;
            }
            let depth = exec.len();
            let chosen = if depth < frames.len() {
                frames[depth].chosen
            } else {
                let enabled: Vec<usize> = (0..nthreads)
                    .filter(|&t| consumed[t] < scenario.program.threads[t].len())
                    .collect();
                if enabled.is_empty() {
                    break; // maximal execution
                }
                let Some(&pick) = enabled.iter().find(|t| !next_sleep.contains(t)) else {
                    // Every runnable thread sleeps: this prefix only
                    // replays an explored equivalence class.
                    sleep_blocked = true;
                    break;
                };
                frames.push(Frame {
                    chosen: pick,
                    backtrack: BTreeSet::from([pick]),
                    done: BTreeSet::new(),
                    sleep: next_sleep.clone(),
                });
                pick
            };
            let op = scenario.program.threads[chosen][consumed[chosen]];
            consumed[chosen] += 1;
            let findings = world.step(chosen as u32, op);
            out.steps += 1;
            exec.push((chosen, op));

            // Sleep set for the next state: previously explored/asleep
            // threads stay asleep only while their next op commutes with
            // what just executed.
            let frame = &frames[depth];
            next_sleep = frame
                .sleep
                .iter()
                .chain(frame.done.iter())
                .copied()
                .filter(|&w| {
                    w != chosen
                        && scenario.program.threads[w]
                            .get(consumed[w])
                            .is_some_and(|&next| !dependent(next, op, kp))
                })
                .collect();

            if !findings.is_empty() {
                record(&mut out, &mut seen, &exec, findings);
                break; // prune below the violation
            }
        }

        if sleep_blocked {
            out.sleep_blocked += 1;
        } else {
            out.schedules += 1;
            // End-of-execution checks (noninterference), anchored at the
            // last executed step of this schedule.
            record(&mut out, &mut seen, &exec, world.end_checks());
        }

        // ---- Vector-clock race analysis: seed backtrack points. ----
        analyze_races(&exec, &mut frames, kp, nthreads);

        // ---- Backtrack to the deepest frame with an unexplored choice. ----
        loop {
            let Some(top) = frames.last_mut() else {
                return out; // search space exhausted
            };
            top.done.insert(top.chosen);
            let next = top
                .backtrack
                .iter()
                .find(|t| !top.done.contains(t) && !top.sleep.contains(t))
                .copied();
            if let Some(next) = next {
                top.chosen = next;
                break;
            }
            frames.pop();
        }
        // Only a cap that leaves a choice unexplored truncates the search.
        if out.schedules >= limits.max_schedules {
            out.truncated = true;
            return out;
        }
    }
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

/// Finds, for every executed step, the last concurrent dependent step of
/// every other thread and inserts the later thread into the backtrack set
/// of the earlier step's pre-state (Flanagan–Godefroid). Clocks order
/// steps by program order plus dependence edges.
fn analyze_races(exec: &[(usize, Op)], frames: &mut [Frame], kp: bool, nthreads: usize) {
    let mut thread_clock: Vec<Vec<u64>> = vec![vec![0; nthreads]; nthreads];
    let mut step_clock: Vec<Vec<u64>> = Vec::with_capacity(exec.len());
    let mut steps_of: Vec<Vec<usize>> = vec![Vec::new(); nthreads];

    for (i, &(p, op)) in exec.iter().enumerate() {
        let mut joins: Vec<usize> = Vec::new();
        for (q, q_steps) in steps_of.iter().enumerate() {
            if q == p {
                continue;
            }
            // Last dependent step of q, scanning backwards.
            let Some(&j) = q_steps.iter().rev().find(|&&j| dependent(exec[j].1, op, kp)) else {
                continue;
            };
            // Concurrent (not already ordered before p's view) → race:
            // exploring p at j's pre-state can reverse the pair.
            if step_clock[j][q] > thread_clock[p][q] && !frames[j].sleep.contains(&p) {
                frames[j].backtrack.insert(p);
            }
            joins.push(j);
        }
        let mut clock = thread_clock[p].clone();
        for j in joins {
            for (slot, &other) in clock.iter_mut().zip(step_clock[j].iter()) {
                *slot = (*slot).max(other);
            }
        }
        clock[p] += 1;
        thread_clock[p] = clock.clone();
        step_clock.push(clock);
        steps_of[p].push(i);
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
