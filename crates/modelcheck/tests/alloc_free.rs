//! A warmed-up schedule never calls the allocator. Restoring a [`World`]
//! from its post-setup template with `clone_from`, then stepping a clean
//! schedule and running its end-of-execution checks, must reuse the
//! buffers the working world already owns: every scheme table, the spec,
//! the trace and the observations. A counting global allocator counts the
//! calls made on this test's own thread; after one warm-up pass over the
//! sampled schedules of every 61st w2 program, both counts must be zero.
//! One level up, a campaign chunk's clean programs, each loaded into one
//! reused scenario and explored through one explorer into one reused
//! outcome, must make no allocator call either once warmed up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pmo_modelcheck::enumerate::WorldBounds;
use pmo_modelcheck::{
    enumerate_canonical, load_scenario, model_config, sample_schedule, to_scenario, ExploreLimits,
    ExploreOutcome, Explorer, Op, Scenario, World,
};

/// The system allocator, counting the allocations and reallocations made
/// by a thread while its `COUNTING` flag is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note_call() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counting
// touches only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the allocator calls it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    CALLS.with(|calls| calls.set(0));
    COUNTING.with(|on| on.set(true));
    let result = f();
    COUNTING.with(|on| on.set(false));
    (result, CALLS.with(Cell::get))
}

/// The `(thread, op)` steps of `schedule` over `scenario`'s program.
fn steps(scenario: &Scenario, schedule: &[u32]) -> Vec<(u32, Op)> {
    let mut next = vec![0; scenario.program.threads.len()];
    schedule
        .iter()
        .map(|&t| {
            let ops = &scenario.program.threads[t as usize];
            next[t as usize] += 1;
            (t, ops[next[t as usize] - 1])
        })
        .collect()
}

#[test]
fn restores_and_clean_schedules_do_not_allocate() {
    let bounds = WorldBounds { ops: 4, threads: 2, domains: 2 };
    let config = model_config(2, 2, 2);
    let programs = enumerate_canonical(&bounds);
    let runs: Vec<Vec<(u32, Op)>> = programs
        .iter()
        .enumerate()
        .step_by(61)
        .map(|(index, codes)| {
            let scenario = to_scenario("w2", index, codes, &bounds, config.clone());
            steps(&scenario, &sample_schedule(&scenario.name, &scenario.program.op_counts()))
        })
        .collect();
    let first = programs.get(0).expect("the empty program");
    let template = World::new(&to_scenario("w2", 0, first, &bounds, config), None);
    let mut world = template.clone();
    let mut totals = [0; 2];
    for pass in ["warm-up", "measured"] {
        totals = [0; 2];
        for run in &runs {
            let ((), restore) = counted(|| world.clone_from(&template));
            let (findings, schedule) = counted(|| {
                let mut findings = 0;
                for &(thread, op) in run {
                    findings += world.step(thread, op).len();
                }
                findings + world.end_checks().len()
            });
            assert_eq!(findings, 0, "{pass}: a clean schedule found {findings} violation(s)");
            totals[0] += restore;
            totals[1] += schedule;
        }
    }
    assert!(runs.len() > 100, "{} schedules", runs.len());
    assert!(runs.iter().any(|run| run.len() == 4), "the slice reaches four-op programs");
    assert_eq!(
        totals,
        [0, 0],
        "allocator calls after warm-up over {} schedules: [restores, steps + end checks]",
        runs.len()
    );
}

#[test]
fn a_chunk_of_clean_programs_explores_without_allocating() {
    // One chunk of the refine campaign's w2 sweep: 512 programs from an
    // offset that is a multiple of the chunk size, all of four ops.
    let bounds = WorldBounds { ops: 4, threads: 2, domains: 2 };
    let config = model_config(2, 2, 2);
    let programs = enumerate_canonical(&bounds);
    let chunk = 25_600..25_600 + 512;
    let program = |index| programs.get(index).expect("an enumerated index");
    let limits = ExploreLimits::default();
    let mut explorer = Explorer::new(&config, &bounds.domain_ids(), None);
    let mut scenario = to_scenario("w2", chunk.start, program(chunk.start), &bounds, config);
    let mut out = ExploreOutcome::default();
    let (mut calls, mut schedules) = (0, 0);
    for pass in ["warm-up", "measured"] {
        (calls, schedules) = (0, 0);
        for index in chunk.clone() {
            let ((), made) = counted(|| {
                load_scenario(&mut scenario, "w2", index, program(index));
                explorer.explore_into(&scenario, &limits, &mut out);
            });
            assert!(out.passed(), "{pass}: {} found {:?}", scenario.name, out.violations);
            assert_eq!(out.scenario, scenario.name);
            calls += made;
            schedules += out.schedules;
        }
    }
    assert_eq!(scenario.program.total_ops(), 4, "the chunk holds four-op programs");
    assert!(schedules > 1_000, "{schedules} schedules");
    assert_eq!(
        calls,
        0,
        "allocator calls after warm-up over {} programs and {schedules} schedules",
        chunk.len()
    );
}
