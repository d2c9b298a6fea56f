//! The workspace's one scoped thread fan-out, shared by the batch
//! engine, the Monte Carlo driver and the holistic worklist.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The calling thread's available parallelism (`1` when unknown): the
/// default worker count of every [`fan_out`] caller. It is read afresh
/// on each call so it follows the thread's CPU affinity, which a caller
/// may narrow after start-up. A read costs some microseconds (`std`
/// reads cgroup files), so callers ask only once fanning out pays.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Runs `f(state, i)` for every `i` in `0..n` and returns the results in
/// index order, so the output is the same at any thread count.
///
/// `threads` is clamped to `1..=n`. One thread runs inline on the
/// caller with a single `init()`. More threads are scoped workers that
/// claim indices from a shared counter, each building its `state` with
/// `init` once and reusing it for every index it claims. A panic in `f`
/// is resumed on the caller with its original payload.
///
/// # Examples
///
/// ```
/// let squares = twca_model::fan_out(5, 3, || (), |_, i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn fan_out<S, T: Send>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    // The counter only hands out indices; results travel back through
    // the joins, which order every worker's writes before the caller's
    // reads.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(&mut state, i)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 4, 9] {
            for n in [0, 1, 3, 100] {
                let got = fan_out(n, threads, || (), |_, i| i * 3 + 1);
                let want: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
                assert_eq!(got, want, "threads {threads}, n {n}");
            }
        }
    }

    #[test]
    fn order_holds_when_workers_finish_out_of_order() {
        // The barriers force one worker to take indices {0, 3} and the
        // other {1, 2}, so joining them in either order interleaves.
        let (two_reached, three_reached) = (Barrier::new(2), Barrier::new(2));
        let got = fan_out(
            4,
            2,
            || (),
            |_, i| {
                if i == 0 || i == 2 {
                    two_reached.wait();
                }
                if i == 2 || i == 3 {
                    three_reached.wait();
                }
                i
            },
        );
        assert_eq!(got, [0, 1, 2, 3]);
    }

    #[test]
    fn state_is_built_once_per_worker() {
        for threads in [1, 2, 4, 9] {
            for n in [0, 1, 3, 100] {
                let inits = AtomicUsize::new(0);
                let calls = fan_out(
                    n,
                    threads,
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        0usize
                    },
                    |calls, _| {
                        *calls += 1;
                        *calls
                    },
                );
                let inits = inits.into_inner();
                assert!(inits <= threads.min(n), "threads {threads}, n {n}");
                if threads == 1 && n > 0 {
                    assert_eq!(inits, 1);
                    assert_eq!(calls, (1..=n).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "job 7 failed")]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        fan_out(
            100,
            4,
            || (),
            |_, i| {
                if i == 7 {
                    panic!("job {i} failed");
                }
                i
            },
        );
    }
}
