//! Host-parallel scenario execution.
//!
//! Every bar/row of every figure is measured in its own single-threaded
//! [`m3_sim::Sim`], so scenarios are independent and can run on separate OS
//! threads. The jobs are handed out through a shared counter, but each
//! result is written to the slot matching its job index, so the assembled
//! output is in submission order — byte-identical to a serial run — no
//! matter which worker finished first. Simulated cycle counts cannot change:
//! threading only overlaps *host* time.
//!
//! Serial escape hatch: [`set_serial`] (the harness `--serial` flag) or
//! the `M3_BENCH_SERIAL` environment variable (any value but `0`).
//!
//! Worker count: [`set_sim_workers`] (the harness `--sim-workers N` flag)
//! or the `M3_SIM_WORKERS` environment variable pin the thread count;
//! otherwise every available core is used. The same knobs feed the PDES
//! engine's island workers ([`island_workers`], used by fig10 and
//! `pdes_bench`), so one flag controls both levels of host parallelism.
//!
//! Claim order: when a figure runs repeatedly in one process (the `perf`
//! harness, determinism suites), [`run_labeled_jobs`] hands out the
//! longest scenarios first, using the previous run's per-job cost. This
//! stops a ~190 ms fig6 scenario claimed last from serializing the tail
//! of the whole figure. Results are still slotted by submission index, so
//! output is byte-identical to a serial run either way.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
// m3lint: allow(determinism): host wall-clock measurement only; no simulated time derives from it
use std::time::Instant;

/// One scenario measurement, boxed so figures can mix closures.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

static FORCE_SERIAL: AtomicBool = AtomicBool::new(false);

/// Worker-count override; `0` means "not set" (use every core).
static SIM_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Per-job wall-clock milliseconds, appended in job order by [`run_jobs`].
static JOB_TIMINGS: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Per-label costs of the previous run, for longest-first claiming.
static PRIOR_MS: Mutex<BTreeMap<String, Vec<f64>>> = Mutex::new(BTreeMap::new());

/// Drains the per-scenario wall-clock timings accumulated since the last
/// call (one entry per job, in submission order). The `perf` binary calls
/// this after each figure to report the scenario breakdown.
pub fn take_job_timings() -> Vec<f64> {
    std::mem::take(&mut JOB_TIMINGS.lock().expect("timings lock"))
}

fn record_timings(ms: impl IntoIterator<Item = f64>) {
    JOB_TIMINGS.lock().expect("timings lock").extend(ms);
}

/// Forces all subsequent [`run_jobs`] calls onto the calling thread (the
/// `--serial` flag of the figure binaries).
pub fn set_serial(serial: bool) {
    FORCE_SERIAL.store(serial, Ordering::Relaxed);
}

fn serial_requested() -> bool {
    FORCE_SERIAL.load(Ordering::Relaxed)
        || std::env::var_os("M3_BENCH_SERIAL").is_some_and(|v| v != *"0")
}

/// Pins the worker count (the binaries' `--sim-workers N` flag); `None`
/// reverts to using every available core.
pub fn set_sim_workers(workers: Option<usize>) {
    SIM_WORKERS.store(workers.unwrap_or(0), Ordering::Relaxed);
}

/// The pinned worker count, if any: [`set_sim_workers`] wins, then the
/// `M3_SIM_WORKERS` environment variable.
pub fn sim_workers() -> Option<usize> {
    match SIM_WORKERS.load(Ordering::Relaxed) {
        0 => std::env::var("M3_SIM_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0),
        n => Some(n),
    }
}

/// Number of worker threads [`run_jobs`] would use for `jobs` scenarios.
pub fn workers_for(jobs: usize) -> usize {
    // m3lint: allow(determinism): threads carry whole independent Sims; nothing inside a Sim is shared
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    sim_workers().unwrap_or(cores).min(jobs).max(1)
}

/// PDES worker threads for one simulation split into `islands` islands:
/// one when a serial run was requested, [`workers_for`] otherwise.
pub fn island_workers(islands: usize) -> usize {
    if serial_requested() {
        1
    } else {
        workers_for(islands)
    }
}

/// The claim order for `n` jobs under `label`: longest-first by the
/// previous run's cost when one is on record, submission order otherwise.
fn claim_order(label: &str, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if label.is_empty() {
        return order;
    }
    let prior = PRIOR_MS.lock().expect("prior-cost lock");
    if let Some(costs) = prior.get(label) {
        if costs.len() == n {
            // Stable sort: ties keep submission order.
            order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]));
        }
    }
    order
}

fn record_prior(label: &str, ms: &[f64]) {
    if !label.is_empty() {
        PRIOR_MS
            .lock()
            .expect("prior-cost lock")
            .insert(label.to_string(), ms.to_vec());
    }
}

/// Runs every job and returns the results in job order.
///
/// Jobs execute concurrently across up to [`workers_for`] threads unless a
/// serial run was requested; each job runs start-to-finish on one thread
/// (the simulators are single-threaded by design).
///
/// # Panics
///
/// Propagates a panic from any job, like the serial loop would.
pub fn run_jobs<T: Send>(jobs: Vec<Job<T>>) -> Vec<T> {
    run_labeled_jobs("", jobs)
}

/// [`run_jobs`] with longest-first claiming: when a run under the same
/// `label` (with the same job count) finished earlier in this process, the
/// most expensive jobs are claimed first, so no long scenario is left to
/// serialize the tail. Results are still returned in submission order.
///
/// # Panics
///
/// Propagates a panic from any job, like the serial loop would.
pub fn run_labeled_jobs<T: Send>(label: &str, jobs: Vec<Job<T>>) -> Vec<T> {
    let n = jobs.len();
    if n <= 1 || serial_requested() || workers_for(n) == 1 {
        let mut ms = Vec::with_capacity(n);
        let out: Vec<T> = jobs
            .into_iter()
            .map(|job| {
                // m3lint: allow(determinism): host wall clock; feeds only BENCH_*.json
                let start = Instant::now();
                let out = job();
                ms.push(start.elapsed().as_secs_f64() * 1e3);
                out
            })
            .collect();
        record_prior(label, &ms);
        record_timings(ms);
        return out;
    }
    let order = claim_order(label, n);
    let next = AtomicUsize::new(0);
    let jobs: Vec<Mutex<Option<Job<T>>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<(T, f64)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // m3lint: allow(determinism): scenario-level parallelism; every Sim stays single-threaded inside
    std::thread::scope(|scope| {
        for _ in 0..workers_for(n) {
            scope.spawn(|| loop {
                let claim = next.fetch_add(1, Ordering::Relaxed);
                if claim >= n {
                    break;
                }
                let i = order[claim];
                let job = jobs[i]
                    .lock()
                    .expect("job slot lock")
                    .take()
                    .expect("each job is claimed once");
                // m3lint: allow(determinism): host wall clock; feeds only BENCH_*.json
                let start = Instant::now();
                let out = job();
                let ms = start.elapsed().as_secs_f64() * 1e3;
                *results[i].lock().expect("result slot lock") = Some((out, ms));
            });
        }
    });
    let mut ms_by_slot = Vec::with_capacity(n);
    let out: Vec<T> = results
        .into_iter()
        .map(|slot| {
            let (out, ms) = slot
                .into_inner()
                .expect("result slot lock")
                .expect("every claimed job stores a result");
            ms_by_slot.push(ms);
            out
        })
        .collect();
    record_prior(label, &ms_by_slot);
    record_timings(ms_by_slot);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn serial_flag_still_runs_everything() {
        set_serial(true);
        let jobs: Vec<Job<u32>> = (0..8)
            .map(|i| -> Job<u32> { Box::new(move || i * i) })
            .collect();
        let out = run_jobs(jobs);
        set_serial(false);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
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
    fn claim_order_is_longest_first_after_a_recorded_run() {
        // No prior run: submission order.
        assert_eq!(claim_order("exec-test-order", 4), vec![0, 1, 2, 3]);
        record_prior("exec-test-order", &[1.0, 40.0, 3.0, 40.0]);
        // Longest first; the two 40 ms ties keep submission order.
        assert_eq!(claim_order("exec-test-order", 4), vec![1, 3, 2, 0]);
        // Job count changed since the recorded run: fall back.
        assert_eq!(claim_order("exec-test-order", 3), vec![0, 1, 2]);
        // The unlabeled path never reorders.
        record_prior("", &[9.0, 1.0]);
        assert_eq!(claim_order("", 2), vec![0, 1]);
    }

    #[test]
    fn labeled_results_stay_in_submission_order_across_reruns() {
        let make = || -> Vec<Job<usize>> {
            (0..16)
                .map(|i| -> Job<usize> {
                    Box::new(move || {
                        // Early jobs are the slow ones, so a longest-first
                        // second run claims them first.
                        std::thread::sleep(std::time::Duration::from_micros(if i < 2 {
                            500
                        } else {
                            10
                        }));
                        i
                    })
                })
                .collect()
        };
        let expect: Vec<usize> = (0..16).collect();
        assert_eq!(run_labeled_jobs("exec-test-rerun", make()), expect);
        // Second run reorders claims by the recorded costs; results must
        // still come back slotted by submission index.
        assert_eq!(run_labeled_jobs("exec-test-rerun", make()), expect);
    }

    #[test]
    fn sim_workers_override_wins() {
        // Note: racy against env in principle, but the suite never sets
        // M3_SIM_WORKERS, and the setter takes precedence anyway.
        set_sim_workers(Some(2));
        assert_eq!(sim_workers(), Some(2));
        assert_eq!(workers_for(64), 2);
        assert_eq!(workers_for(1), 1);
        set_sim_workers(None);
    }
}
