//! PDES determinism: host parallelism must be invisible in the results.
//!
//! Two layers are exercised. The scenario harness (`m3_bench::exec`) runs
//! independent Sims on worker threads; every entry of the figure registry
//! (`m3_bench::registry`) must render byte-identically under any
//! `M3_SIM_WORKERS` setting. The PDES engine (`m3_sim::pdes`) splits ONE
//! simulation into islands, run one after another on one thread; one
//! cross-island-heavy scenario is pinned to golden values so silent drift
//! in the window protocol (lookahead, merge order, termination) fails
//! loudly.

use std::sync::Mutex;

use m3_bench::registry::{self, Opts};
use m3_bench::{exec, pdes_bench};

/// Held across each [`assert_figure_invariant`]: the worker count it sets
/// is process-global, and the invariance tests run concurrently.
static WORKER_COUNT: Mutex<()> = Mutex::new(());

/// Renders one registered figure's smoke sweep with 1 sim worker, then
/// with 2 and 4, and requires all three tables to be byte-identical.
fn assert_figure_invariant(name: &str) {
    // A failed test poisons the lock; each render below sets the worker
    // count it runs under, so the other tests can still run.
    let _serial = WORKER_COUNT.lock().unwrap_or_else(|e| e.into_inner());
    let entry = registry::find(name).unwrap_or_else(|| panic!("{name} is not registered"));
    let render = |workers| {
        exec::set_sim_workers(Some(workers));
        let table = (entry.render)(Opts {
            smoke: true,
            param: None,
        })
        .table;
        exec::set_sim_workers(None);
        table
    };
    let reference = render(1);
    for workers in [2usize, 4] {
        assert_eq!(
            render(workers),
            reference,
            "{name} render diverged under {workers} sim workers"
        );
    }
}

/// One invariance test per registry entry (separate tests run in
/// parallel), plus the list of entries they cover.
macro_rules! invariance_tests {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                assert_figure_invariant($name);
            }
        )*
        const COVERED: &[&str] = &[$($name),*];
    };
}

invariance_tests! {
    fig3_is_invariant_under_sim_workers => "fig3",
    fig4_is_invariant_under_sim_workers => "fig4",
    fig5_is_invariant_under_sim_workers => "fig5",
    fig6_is_invariant_under_sim_workers => "fig6",
    fig7_is_invariant_under_sim_workers => "fig7",
    fig8_is_invariant_under_sim_workers => "fig8",
    fig9_is_invariant_under_sim_workers => "fig9",
    fig10_is_invariant_under_sim_workers => "fig10",
    fig11_is_invariant_under_sim_workers => "fig11",
    arch_is_invariant_under_sim_workers => "arch",
    ablations_are_invariant_under_sim_workers => "ablations",
    pdes_bench_is_invariant_under_sim_workers => "pdes_bench",
}

#[test]
fn every_registered_figure_has_an_invariance_test() {
    let registered: Vec<&str> = registry::FIGURES.iter().map(|e| e.name).collect();
    assert_eq!(
        COVERED, registered,
        "add an invariance_tests! line for each registry entry, in registry order"
    );
}

#[test]
fn every_registered_figure_runs_its_scenarios_as_jobs() {
    // Holding the lock keeps the other renders of this binary from
    // running while the timings are read.
    let _serial = WORKER_COUNT.lock().unwrap_or_else(|e| e.into_inner());
    let _ = exec::take_job_timings();
    let silent: Vec<&str> = registry::FIGURES
        .iter()
        .filter(|entry| {
            (entry.render)(Opts {
                smoke: true,
                param: None,
            });
            exec::take_job_timings().is_empty()
        })
        .map(|entry| entry.name)
        .collect();
    assert!(
        silent.is_empty(),
        "{silent:?} recorded no scenario: every entry runs its work through exec::run_jobs"
    );
}

#[test]
fn pdes_ring_golden_pin() {
    // Cross-island-heavy scenario pinned to golden values: 4 islands, 4
    // concurrent file-I/O programs each, 24 ring messages per island.
    // Any change to the window protocol, the lookahead derivation, the
    // merge order, or the island workload moves these numbers.
    let run = pdes_bench::run(4);
    assert_eq!(run.report.windows, 3675, "window count drifted");
    assert_eq!(run.report.events, 96, "delivered event count drifted");
    assert_eq!(run.report.abandoned, 0, "events were abandoned");
    assert_eq!(run.report.end_time.as_u64(), 841_403, "end time drifted");
    assert_eq!(
        run.digest,
        "i0:jobs=6291456:rx=24:rxsum=72276:end=841403;\
         i1:jobs=6291456:rx=24:rxsum=276:end=841403;\
         i2:jobs=6291456:rx=24:rxsum=24276:end=841403;\
         i3:jobs=6291456:rx=24:rxsum=48276:end=841403\
         |windows=3675|events=96|end=841403",
        "PDES golden digest drifted"
    );
}
