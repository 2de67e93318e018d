//! A deterministic fixed-size worker pool for fanning independent
//! campaign cells across threads.
//!
//! [`parallel_map`] preserves input order in its output no matter how the
//! scheduler interleaves the workers, so campaign results merged from a
//! parallel run are byte-identical to a `jobs = 1` run: parallelism moves
//! wall-clock time, never output bytes. Plain `std` threads — the
//! workspace takes no external dependencies.

use std::sync::Mutex;

/// Maps `work` over `items` on up to `jobs` worker threads, returning the
/// results in input order.
///
/// Workers pull the next unclaimed item from a shared cursor, so uneven
/// item costs balance automatically. With `jobs <= 1` (or a single item)
/// this degenerates to a plain serial map on the calling thread — no
/// threads are spawned, which keeps single-job runs bit-for-bit on the
/// exact code path they always had.
///
/// # Panics
///
/// A panic inside `work` propagates to the caller (at scope join when
/// parallel, immediately when serial).
pub fn parallel_map<I, O, F>(jobs: usize, items: Vec<I>, work: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    parallel_map_with(jobs, items, || (), |(), item| work(item))
}

/// [`parallel_map`] with per-worker state: each worker builds one state
/// with `init` and lends it to `work` for every item it claims. Items are
/// still claimed one at a time, so uneven costs still balance; which
/// worker runs an item varies from run to run, so the state must not
/// change any result.
///
/// # Panics
///
/// As [`parallel_map`].
pub fn parallel_map_with<I, O, S, N, F>(jobs: usize, items: Vec<I>, init: N, work: F) -> Vec<O>
where
    I: Send,
    O: Send,
    N: Fn() -> S + Sync,
    F: Fn(&mut S, I) -> O + Sync,
{
    let workers = jobs.min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items.into_iter().map(|item| work(&mut state, item)).collect();
    }
    let count = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Mutex<Option<O>>> = Vec::new();
    slots.resize_with(count, || Mutex::new(None));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        // Hold the queue lock only to claim an index; the
                        // work itself runs unlocked.
                        let claimed =
                            queue.lock().expect("work never runs under the queue lock").next();
                        match claimed {
                            Some((index, item)) => {
                                let result = work(&mut state, item);
                                *slots[index].lock().expect("a slot lock guards one store") =
                                    Some(result);
                            }
                            None => break,
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            // Re-raise a worker panic with its original payload so the
            // caller sees the real failure, not "a scoped thread
            // panicked".
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker filled every claimed slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = parallel_map(1, items.clone(), |x| x * x);
        let parallel = parallel_map(4, items, |x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], 49);
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = parallel_map(8, (0..37).collect::<Vec<i32>>(), |x| {
            hits.fetch_add(1, Ordering::SeqCst);
            x + 1
        });
        assert_eq!(hits.load(Ordering::SeqCst), 37);
        assert_eq!(out.len(), 37);
        assert_eq!(out[36], 37);
    }

    #[test]
    fn each_worker_builds_one_state_and_reuses_it() {
        for jobs in [1, 3] {
            let built = AtomicUsize::new(0);
            let out = parallel_map_with(
                jobs,
                (0..40).collect::<Vec<u64>>(),
                || {
                    built.fetch_add(1, Ordering::SeqCst);
                    Vec::new()
                },
                |seen: &mut Vec<u64>, x| {
                    seen.push(x);
                    (x * 2, seen.len())
                },
            );
            let built = built.load(Ordering::SeqCst);
            assert!((1..=jobs).contains(&built));
            assert_eq!(
                out.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
                (0..80).step_by(2).collect::<Vec<_>>()
            );
            // Only a worker's first item finds its state fresh; a worker
            // may also claim nothing.
            let fresh = out.iter().filter(|&&(_, len)| len == 1).count();
            assert!((1..=built).contains(&fresh));
            if jobs == 1 {
                assert!(out.iter().map(|&(_, len)| len).eq(1..=40));
            }
        }
    }

    #[test]
    fn zero_jobs_and_empty_inputs_are_fine() {
        assert_eq!(parallel_map(0, vec![1, 2, 3], |x| x * 10), vec![10, 20, 30]);
        assert_eq!(parallel_map(4, Vec::<i32>::new(), |x| x), Vec::<i32>::new());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = parallel_map(4, vec![1, 2, 3, 4], |x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }
}
