//! Process-global executor gauges for host-performance tracking.
//!
//! Each [`crate::Sim`] keeps plain per-run counters on its hot paths (no
//! atomics per poll) and merges the unreported delta here after every
//! run/settle call and when the simulation is dropped. Merging per call
//! keeps the totals current while a `Sim` is still alive, as it is when a
//! harness reads its counters before dropping its `System`. The perf
//! harness zeroes the peaks and snapshots the globals before a figure, and
//! snapshots them again after it, to attribute executor work to it; the
//! atomics make that safe even when scenarios run on worker threads.

use std::sync::atomic::{AtomicU64, Ordering};

static TASKS_SPAWNED: AtomicU64 = AtomicU64::new(0);
static TASK_POLLS: AtomicU64 = AtomicU64::new(0);
static TIMERS_SCHEDULED: AtomicU64 = AtomicU64::new(0);
static TIMERS_DEDUPED: AtomicU64 = AtomicU64::new(0);
static TIMERS_INLINED: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_TASKS: AtomicU64 = AtomicU64::new(0);
static PEAK_PENDING_TIMERS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of (or contribution to) the executor gauges.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Gauges {
    /// Total tasks ever spawned.
    pub tasks_spawned: u64,
    /// Total future polls.
    pub task_polls: u64,
    /// Total timers registered.
    pub timers_scheduled: u64,
    /// Deadline re-registrations skipped because the timer already armed
    /// for the same deadline wakes the same task — churn the dedupe in
    /// [`crate::with_deadline`] absorbed.
    pub timers_deduped: u64,
    /// Timers among `timers_scheduled` that never went onto the heap: the
    /// sleeping task's wake-up was the next event, so it resumed in place.
    /// A rise is good; it is reported, not gated.
    pub timers_inlined: u64,
    /// Highest number of concurrently live tasks in any single `Sim`
    /// since the last [`reset_peaks`].
    pub peak_live_tasks: u64,
    /// Highest number of pending timers in any single `Sim` since the last
    /// [`reset_peaks`].
    pub peak_pending_timers: u64,
}

impl Gauges {
    /// Component-wise difference against an earlier snapshot. Totals
    /// subtract; peaks are already per-`Sim` maxima, so the later value is
    /// kept as-is.
    #[must_use]
    pub fn since(&self, earlier: &Gauges) -> Gauges {
        Gauges {
            tasks_spawned: self.tasks_spawned.wrapping_sub(earlier.tasks_spawned),
            task_polls: self.task_polls.wrapping_sub(earlier.task_polls),
            timers_scheduled: self.timers_scheduled.wrapping_sub(earlier.timers_scheduled),
            timers_deduped: self.timers_deduped.wrapping_sub(earlier.timers_deduped),
            timers_inlined: self.timers_inlined.wrapping_sub(earlier.timers_inlined),
            peak_live_tasks: self.peak_live_tasks,
            peak_pending_timers: self.peak_pending_timers,
        }
    }
}

/// Merges one finished simulation's counters into the process totals.
pub(crate) fn merge(g: Gauges) {
    TASKS_SPAWNED.fetch_add(g.tasks_spawned, Ordering::Relaxed);
    TASK_POLLS.fetch_add(g.task_polls, Ordering::Relaxed);
    TIMERS_SCHEDULED.fetch_add(g.timers_scheduled, Ordering::Relaxed);
    TIMERS_DEDUPED.fetch_add(g.timers_deduped, Ordering::Relaxed);
    TIMERS_INLINED.fetch_add(g.timers_inlined, Ordering::Relaxed);
    PEAK_LIVE_TASKS.fetch_max(g.peak_live_tasks, Ordering::Relaxed);
    PEAK_PENDING_TIMERS.fetch_max(g.peak_pending_timers, Ordering::Relaxed);
}

/// Zeroes the two process-wide peaks, so later snapshots report the peaks
/// of the simulations that ran since; the totals are untouched. A harness
/// that attributes peaks to one stretch of work, such as one figure, calls
/// this before it.
pub fn reset_peaks() {
    PEAK_LIVE_TASKS.store(0, Ordering::Relaxed);
    PEAK_PENDING_TIMERS.store(0, Ordering::Relaxed);
}

/// Reads the current process-wide gauge values.
///
/// Includes every simulation that has finished a run/settle call or been
/// dropped; work done since a `Sim`'s last run call appears once it runs
/// again or goes away.
pub fn snapshot() -> Gauges {
    Gauges {
        tasks_spawned: TASKS_SPAWNED.load(Ordering::Relaxed),
        task_polls: TASK_POLLS.load(Ordering::Relaxed),
        timers_scheduled: TIMERS_SCHEDULED.load(Ordering::Relaxed),
        timers_deduped: TIMERS_DEDUPED.load(Ordering::Relaxed),
        timers_inlined: TIMERS_INLINED.load(Ordering::Relaxed),
        peak_live_tasks: PEAK_LIVE_TASKS.load(Ordering::Relaxed),
        peak_pending_timers: PEAK_PENDING_TIMERS.load(Ordering::Relaxed),
    }
}
