//! A small fixed-size worker pool for request-side parallelism.
//!
//! Heavy tagged TCP requests (uncached instantiates, triggered
//! refinement, large batches) each run in one slot of these workers; the
//! pool is deliberately boring: long-lived named threads, one shared
//! job channel, panic isolation per job (a panicking job costs its one
//! response, never a worker), and a draining `Drop`.

use crate::lock_recover;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads executing submitted jobs.
#[derive(Debug)]
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least 1).
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::with_thread_init(threads, |_| {})
    }

    /// Spawns `threads` workers (clamped to at least 1), calling `init`
    /// with the worker's index on each worker thread before it starts
    /// taking jobs — the server uses this to bind each worker to its
    /// telemetry lane.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    #[must_use]
    pub fn with_thread_init(threads: usize, init: impl Fn(usize) + Send + Sync + 'static) -> Self {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let init = Arc::new(init);
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let init = Arc::clone(&init);
                std::thread::Builder::new()
                    .name(format!("mps-serve-worker-{i}"))
                    .spawn(move || {
                        init(i);
                        worker_loop(&rx);
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a fire-and-forget job: the job itself delivers its
    /// response (see `Server::submit_heavy`).
    pub(crate) fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool alive while not dropped")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker loop; join so no job is
        // still running when the pool's owner tears down.
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            // Poison recovery: a panic between lock and recv (there is
            // no code there today, but the channel stays valid at any
            // interleaving) must not stop every other worker.
            let guard = lock_recover(rx);
            guard.recv()
        };
        match job {
            // Panic isolation: the server's jobs deliver their response
            // from a drop guard, so a panic here has already been
            // answered; it must not kill the worker too.
            Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
            Err(_) => break, // pool dropped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_survives_panicking_jobs() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let (tx, rx) = channel();
        for i in 0..4 {
            pool.execute(|| panic!("boom"));
            let tx = tx.clone();
            pool.execute(move || tx.send(i * 2).unwrap());
        }
        // Every job after a panic still runs: no worker died.
        let mut got: Vec<i32> = rx.iter().take(4).collect();
        got.sort_unstable();
        assert_eq!(got, [0, 2, 4, 6]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = channel();
        pool.execute(move || tx.send(1).unwrap());
        assert_eq!(rx.recv().unwrap(), 1);
    }
}
