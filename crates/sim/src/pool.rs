//! The workspace's one deterministic worker pool, shared by experiment
//! grids (one job per run) and fleet simulation (one job per shard).
//!
//! Jobs are identified by index; workers pull chunks of indices from a
//! shared [`VecDeque`] (chunked self-scheduling — the cheap cousin of work
//! stealing) and every result is written back into the slot of its *job
//! index*, never in completion order. Output is therefore byte-identical
//! to a serial run regardless of the thread count, as long as each job is
//! itself deterministic and self-contained.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Mutex;

/// How many worker threads a parallel run may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// One worker per available core ([`std::thread::available_parallelism`]).
    #[default]
    Auto,
    /// Exactly this many workers (`0` behaves like `1`).
    Fixed(usize),
}

impl Threads {
    /// Resolves to a concrete worker count (≥ 1).
    #[must_use]
    pub fn count(self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            Threads::Fixed(n) => n.max(1),
        }
    }
}

/// Runs `job(0..n)` across `threads` workers and returns the results in
/// job-index order. With one worker (or `n <= 1`) everything runs on the
/// calling thread; the result vector is identical either way.
///
/// # Panics
///
/// Propagates a panic from any job (the pool itself never panics).
pub fn run_indexed<R, F>(n: usize, threads: Threads, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.count().min(n.max(1));
    if workers <= 1 {
        return (0..n).map(job).collect();
    }

    // Small chunks keep load balanced when job costs vary wildly (a GFS
    // cell trains a forecaster; a YARN-CS cell doesn't); the per-chunk
    // locking cost is trivial next to a simulation run.
    let chunk = (n / (workers * 8)).max(1);
    let queue: Mutex<VecDeque<Range<usize>>> = Mutex::new(
        (0..n)
            .step_by(chunk)
            .map(|start| start..(start + chunk).min(n))
            .collect(),
    );

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let results = Mutex::new(slots);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some(range) = queue.lock().expect("queue lock").pop_front() else {
                    return;
                };
                for i in range {
                    let r = job(i);
                    results.lock().expect("results lock")[i] = Some(r);
                }
            });
        }
    });

    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every job index was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processes_every_index_in_order() {
        for threads in [Threads::Fixed(1), Threads::Fixed(4), Threads::Auto] {
            let out = run_indexed(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_indexed(37, Threads::Fixed(1), |i| format!("job-{i}"));
        let parallel = run_indexed(37, Threads::Fixed(8), |i| format!("job-{i}"));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single() {
        assert!(run_indexed(0, Threads::Auto, |i| i).is_empty());
        assert_eq!(run_indexed(1, Threads::Fixed(8), |i| i + 1), vec![1]);
    }

    #[test]
    fn more_threads_than_jobs() {
        assert_eq!(run_indexed(3, Threads::Fixed(64), |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn auto_resolves_positive() {
        assert!(Threads::Auto.count() >= 1);
        assert_eq!(Threads::Fixed(0).count(), 1);
    }
}
