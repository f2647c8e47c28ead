//! The process-global executor gauges, in a binary of their own: the
//! test reads totals that every `Sim` in the process contributes to, so it
//! must not share its process with tests that run simulations
//! concurrently.

use m3_base::cycles::Cycles;
use m3_sim::gauges::snapshot;
use m3_sim::Sim;

#[test]
fn dropped_sim_contributes_to_globals() {
    let before = snapshot();
    {
        let sim = Sim::new();
        for i in 0..5u64 {
            let sim2 = sim.clone();
            sim.spawn(format!("g{i}"), async move {
                sim2.sleep(Cycles::new(i)).await;
            });
        }
        sim.run();
    } // drop merges
    let delta = snapshot().since(&before);
    assert_eq!(delta.tasks_spawned, 5);
    assert!(delta.task_polls >= 10, "each task polls at least twice");
    assert_eq!(delta.timers_scheduled, 5);
    assert!(snapshot().peak_live_tasks >= 5);
    assert!(snapshot().peak_pending_timers >= 1);
}
