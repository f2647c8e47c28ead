//! Resetting the process-global executor peaks, in a binary of its own:
//! the test reads and zeroes peaks that every `Sim` in the process feeds,
//! so it must not share its process with tests that run simulations
//! concurrently.

use m3_base::cycles::Cycles;
use m3_sim::gauges::{reset_peaks, snapshot};
use m3_sim::Sim;

/// Runs `tasks` tasks that each sleep once, and drops the simulation.
fn run_sleepers(tasks: u64) {
    let sim = Sim::new();
    for i in 0..tasks {
        let sim2 = sim.clone();
        sim.spawn(format!("s{i}"), async move {
            sim2.sleep(Cycles::new(i + 1)).await;
        });
    }
    sim.run();
}

#[test]
fn reset_peaks_scopes_the_peaks_to_later_runs() {
    run_sleepers(8);
    let big = snapshot();
    assert!(big.peak_live_tasks >= 8, "{big:?}");
    assert!(big.peak_pending_timers >= 8, "{big:?}");

    reset_peaks();
    let zeroed = snapshot();
    assert_eq!((zeroed.peak_live_tasks, zeroed.peak_pending_timers), (0, 0));
    assert_eq!(zeroed.tasks_spawned, big.tasks_spawned, "totals stay");

    run_sleepers(2);
    let small = snapshot();
    assert_eq!((small.peak_live_tasks, small.peak_pending_timers), (2, 2));
    let delta = small.since(&zeroed);
    assert_eq!(delta.tasks_spawned, 2);
    assert_eq!(delta.peak_live_tasks, 2);
}
