//! A zero-dependency scoped worker pool for fanning *independent*
//! deterministic jobs across host cores.
//!
//! The scenario matrix runs dozens of self-contained simulations; each
//! cell is seeded, shares no mutable state with its siblings, and
//! produces a value addressed by its input index. That shape makes host
//! parallelism free of determinism hazards: the pool hands `(index,
//! item)` jobs to workers over a channel work queue, workers write
//! results into index-addressed slots, and the output vector is returned
//! in **input order** — so the result is bit-identical for 1 worker or
//! N, no matter how the OS interleaves them. Only wall-clock time
//! changes with the worker count.
//!
//! A panicking job is contained by `catch_unwind` and surfaces as a
//! structured per-job [`JobPanic`] in that job's slot; sibling jobs and
//! the pool itself are unaffected (no poisoned queue, no lost results).
//!
//! Each worker runs under its spawner's observability recorder (see
//! [`crate::trace`]), so a job traces and profiles into whatever capture
//! was armed where `map` was called, exactly as it would on the serial
//! path, and a capture a job arms itself is that job's alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

use crate::hash::{fnv, fnv_bytes, FNV_OFFSET};
use crate::trace;

/// One job died by panic. Carries the job's input index so callers can
/// report *which* cell failed while the rest of the grid stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the panicking job in the input vector.
    pub index: usize,
    /// The panic payload rendered to text (`&str`/`String` payloads
    /// verbatim, anything else a placeholder).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// A panic payload rendered to text: `&str` and `String` payloads
/// verbatim, anything else a placeholder. The pool's [`JobPanic`] and the
/// simulator's per-process panic report both read it.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A scoped worker pool of `std::thread`s fed by a channel work queue.
///
/// The pool is just a worker count; threads are spawned per [`Pool::map`]
/// call inside a `std::thread::scope`, so borrowed job closures work and
/// nothing outlives the call.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with exactly `workers` workers (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// The worker count this pool fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(index, item)` for every item and returns the outcomes in
    /// **input order**, regardless of worker count or OS scheduling. A
    /// job that panics yields `Err(JobPanic)` in its own slot; all other
    /// jobs still run and return.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<Result<R, JobPanic>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let run = |idx: usize, item: T| {
            catch_unwind(AssertUnwindSafe(|| f(idx, item))).map_err(|payload| JobPanic {
                index: idx,
                message: panic_message(payload.as_ref()),
            })
        };
        let n = items.len();
        if self.workers == 1 || n <= 1 {
            // Serial fast path: same `catch_unwind` per job, no threads.
            return items
                .into_iter()
                .enumerate()
                .map(|(idx, item)| run(idx, item))
                .collect();
        }
        let slots: Vec<Mutex<Option<Result<R, JobPanic>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for job in items.into_iter().enumerate() {
            tx.send(job).expect("receiver is alive");
        }
        drop(tx);
        let queue = Mutex::new(rx);
        let recorder = trace::with_recorder(Clone::clone);
        std::thread::scope(|scope| {
            let (queue, slots, run, recorder) = (&queue, &slots, &run, &recorder);
            for _ in 0..self.workers.min(n) {
                scope.spawn(move || {
                    trace::update_recorder(|r| *r = recorder.clone());
                    loop {
                        // Hold the queue lock only to dequeue; the job runs
                        // unlocked so workers genuinely overlap.
                        let job = queue.lock().unwrap_or_else(|e| e.into_inner()).try_recv();
                        let Ok((idx, item)) = job else { break };
                        let outcome = run(idx, item);
                        *slots[idx].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                    }
                    // Let go of the spawner's capture before `map` returns,
                    // not whenever this thread's locals are torn down.
                    drop(trace::update_recorder(std::mem::take));
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every queued job ran")
            })
            .collect()
    }
}

/// One fingerprint for a whole grid run of [`Pool::map`]: every cell's
/// own `digest` in grid order, and a panicked cell's index and message,
/// so even failure modes compare deterministically.
pub fn grid_digest<T>(cells: &[Result<T, JobPanic>], digest: impl Fn(&T) -> u64) -> u64 {
    cells.iter().fold(FNV_OFFSET, |h, cell| match cell {
        Ok(c) => fnv(h, digest(c)),
        Err(p) => fnv_bytes(fnv(h, p.index as u64), p.message.as_bytes()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        for workers in [1, 2, 8] {
            let pool = Pool::with_workers(workers);
            let out = pool.map((0..32).collect(), |idx, item: u64| {
                assert_eq!(idx as u64, item);
                item * item
            });
            let values: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(
                values,
                (0..32).map(|i| i * i).collect::<Vec<u64>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        let run = |workers| {
            Pool::with_workers(workers).map((0..100u64).collect(), |_idx, item| {
                item.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17)
            })
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn panicking_job_is_contained() {
        for workers in [1, 4] {
            let pool = Pool::with_workers(workers);
            let out = pool.map((0..8).collect(), |_idx, item: usize| {
                if item == 3 {
                    panic!("cell {item} exploded");
                }
                item + 100
            });
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.index, 3, "{workers} workers");
                    assert!(err.message.contains("cell 3 exploded"), "{}", err.message);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i + 100, "{workers} workers");
                }
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out = Pool::with_workers(4).map(Vec::<u8>::new(), |_idx, b| b);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(Pool::with_workers(0).workers(), 1);
    }
}
