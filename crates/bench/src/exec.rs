//! Host-parallel scenario execution.
//!
//! Every bar/row/point of every registry entry is measured in its own
//! [`m3_sim::Sim`] (or, for fig10 and `pdes_bench`, its own PDES run), so
//! scenarios are independent and can run on separate OS threads. Workers
//! claim jobs from one queue, and the results are sorted back into
//! submission order, so the assembled output is byte-identical to a
//! one-worker run no matter which worker finished first. Simulated cycle
//! counts cannot change: threading only overlaps *host* time.
//!
//! Worker count: [`set_sim_workers`] (the harness `--sim-workers N` flag)
//! or the `M3_SIM_WORKERS` environment variable pin the thread count;
//! otherwise every available core is used. It sizes this pool and
//! nothing else: a PDES run (fig10's points, `pdes_bench`) simulates all
//! its islands on one thread of its own whatever the count. With
//! `--sim-workers 1` every job runs on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
// m3lint: allow(determinism): host wall-clock measurement only; no simulated time derives from it
use std::time::Instant;

use crate::cli;

/// One scenario measurement, boxed so figures can mix closures.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// Worker-count override; `0` means "not set" (use every core).
static SIM_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Per-job wall-clock milliseconds, appended in job order by [`run_jobs`].
static JOB_TIMINGS: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Drains the per-scenario wall-clock timings accumulated since the last
/// call (one entry per job, in submission order). The `perf` binary calls
/// this after each figure to report the scenario breakdown.
pub fn take_job_timings() -> Vec<f64> {
    std::mem::take(&mut JOB_TIMINGS.lock().expect("timings lock"))
}

/// Pins the worker count (the binaries' `--sim-workers N` flag); `None`
/// reverts to using every available core.
pub fn set_sim_workers(workers: Option<usize>) {
    SIM_WORKERS.store(workers.unwrap_or(0), Ordering::Relaxed);
}

/// The environment variable that pins the worker count.
pub const SIM_WORKERS_VAR: &str = "M3_SIM_WORKERS";

/// The worker count [`SIM_WORKERS_VAR`] pins, if it is set, parsed like
/// `--sim-workers` ([`cli::parse_count`]).
///
/// # Errors
///
/// The variable is set but is not a count >= 1.
pub fn env_sim_workers() -> Result<Option<usize>, String> {
    std::env::var_os(SIM_WORKERS_VAR)
        .map(|v| cli::parse_count(SIM_WORKERS_VAR, &v.to_string_lossy(), 1).map(|n| n as usize))
        .transpose()
}

/// The pinned worker count, if any: [`set_sim_workers`] wins, then the
/// `M3_SIM_WORKERS` environment variable.
///
/// # Panics
///
/// Panics if the variable is set but malformed; the `figure` and `perf`
/// binaries reject that at start-up instead.
pub fn sim_workers() -> Option<usize> {
    match SIM_WORKERS.load(Ordering::Relaxed) {
        0 => env_sim_workers().unwrap_or_else(|msg| panic!("{msg}")),
        n => Some(n),
    }
}

/// Number of worker threads for `jobs` scenarios.
pub fn workers_for(jobs: usize) -> usize {
    // m3lint: allow(determinism): threads carry whole independent Sims; nothing inside a Sim is shared
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    sim_workers().unwrap_or(cores).min(jobs).max(1)
}

/// Runs `job`, returning its result and its host wall clock in ms.
fn timed<T>(job: Job<T>) -> (T, f64) {
    // m3lint: allow(determinism): host wall clock; feeds only BENCH_*.json
    let start = Instant::now();
    let out = job();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs every job and returns the results in job order.
///
/// Jobs execute concurrently across [`workers_for`] threads; with one
/// worker they run in order on the calling thread. Each job runs
/// start-to-finish on one thread (the simulators are single-threaded by
/// design).
///
/// # Panics
///
/// Propagates a panic from any job, with the job's own payload, like a
/// one-worker run would.
pub fn run_jobs<T: Send>(jobs: Vec<Job<T>>) -> Vec<T> {
    let workers = workers_for(jobs.len());
    let queue = Mutex::new(jobs.into_iter().enumerate());
    // Claims jobs until the queue is empty; the lock is released before
    // the claimed job runs.
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("job queue lock").next();
            let Some((i, job)) = next else { return done };
            let (out, ms) = timed(job);
            done.push((i, out, ms));
        }
    };
    let mut done: Vec<(usize, T, f64)> = if workers == 1 {
        drain()
    } else {
        // m3lint: allow(determinism): scenario-level parallelism; every Sim stays single-threaded inside
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            joined
                .into_iter()
                .flat_map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
                .collect()
        })
    };
    done.sort_unstable_by_key(|&(i, ..)| i);
    let (out, ms): (Vec<T>, Vec<f64>) = done.into_iter().map(|(_, out, ms)| (out, ms)).unzip();
    JOB_TIMINGS.lock().expect("timings lock").extend(ms);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by each test that sets the worker count: it is process-global,
    /// and the tests of one binary run concurrently.
    static WORKER_COUNT: Mutex<()> = Mutex::new(());

    #[test]
    fn results_are_in_submission_order() {
        let jobs: Vec<Job<usize>> = (0..32)
            .map(|i| -> Job<usize> {
                Box::new(move || {
                    // Later jobs finish first if order were completion order.
                    std::thread::sleep(std::time::Duration::from_micros(64 - i as u64));
                    i
                })
            })
            .collect();
        assert_eq!(run_jobs(jobs), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_runs_everything() {
        let _serial = WORKER_COUNT.lock().unwrap_or_else(|e| e.into_inner());
        set_sim_workers(Some(1));
        let jobs: Vec<Job<u32>> = (0..8)
            .map(|i| -> Job<u32> { Box::new(move || i * i) })
            .collect();
        let out = run_jobs(jobs);
        set_sim_workers(None);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn a_job_panic_keeps_its_payload_across_workers() {
        let _serial = WORKER_COUNT.lock().unwrap_or_else(|e| e.into_inner());
        set_sim_workers(Some(2));
        let jobs: Vec<Job<()>> = vec![Box::new(|| ()), Box::new(|| panic!("job 1 failed"))];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_jobs(jobs)));
        set_sim_workers(None);
        let payload = caught.expect_err("the job's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 1 failed"));
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(run_jobs::<u8>(Vec::new()), Vec::<u8>::new());
        let one: Vec<Job<u8>> = vec![Box::new(|| 7)];
        assert_eq!(run_jobs(one), vec![7]);
    }

    #[test]
    fn timings_cover_every_job() {
        let _ = take_job_timings();
        let jobs: Vec<Job<u8>> = (0..3).map(|i| -> Job<u8> { Box::new(move || i) }).collect();
        run_jobs(jobs);
        // Other tests may interleave their own jobs, but at least ours
        // must have been recorded, and none may be negative.
        let ms = take_job_timings();
        assert!(ms.len() >= 3, "got {} timings", ms.len());
        assert!(ms.iter().all(|&m| m >= 0.0));
    }

    #[test]
    fn worker_count_is_bounded_by_jobs() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(1), 1);
        assert!(workers_for(64) >= 1);
        assert!(workers_for(2) <= 2);
    }

    #[test]
    fn sim_workers_override_wins() {
        // Note: racy against env in principle, but the suite never sets
        // M3_SIM_WORKERS, and the setter takes precedence anyway.
        let _serial = WORKER_COUNT.lock().unwrap_or_else(|e| e.into_inner());
        set_sim_workers(Some(2));
        assert_eq!(sim_workers(), Some(2));
        assert_eq!(workers_for(64), 2);
        assert_eq!(workers_for(1), 1);
        set_sim_workers(None);
    }
}
