//! Bit-for-bit determinism of the figure pipeline (DESIGN.md §4.1).
//!
//! The paper's methodology only holds if re-running a scenario reproduces
//! the *exact* cycle counts that went into the figures. These tests boot the
//! Figure 3 scenario twice in the same process and require both the reported
//! cycle totals and the structured event trace to match bit for bit —
//! nondeterministic iteration order, wall-clock leakage, or entropy anywhere
//! in the stack shows up here as a diff, not as a silently shifted figure.

use m3::{System, SystemConfig};
use m3_bench::report::Figure;
use m3_fs::mount_m3fs;
use m3_sim::Event;

/// Flattens a figure into `(group, bar, part, cycles)` rows so failures
/// print the first diverging entry instead of two opaque structs.
fn cycle_rows(fig: &Figure) -> Vec<(String, String, String, u64)> {
    let mut rows = Vec::new();
    for group in &fig.groups {
        for bar in &group.bars {
            rows.push((
                group.name.clone(),
                bar.label.clone(),
                "total".to_string(),
                bar.total,
            ));
            for (part, cycles) in &bar.parts {
                rows.push((group.name.clone(), bar.label.clone(), part.clone(), *cycles));
            }
        }
    }
    rows
}

/// FNV-1a over the trace's native text rendering: cheap, stable, and
/// order-sensitive, which is the point.
fn trace_digest(events: &[Event]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in m3_trace::fmt::write_events(events).into_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The golden [`trace_digest`] of the Figure 3 tar scenario below. A change
/// that reorders events, in the executor, the DTU or anywhere else, fails
/// here even when two runs of the new code still agree with each other.
const FIG3_TAR_TRACE_DIGEST: u64 = 0x0563_c09a_f2a6_ccac;

/// [`trace_digest`] of the traced Figure 3 file read
/// (`m3_bench::fig3::traced_file_read`), golden like
/// [`FIG3_TAR_TRACE_DIGEST`].
const FIG3_READ_TRACE_DIGEST: u64 = 0x7c44_3dcd_23e9_88e5;

/// [`trace_digest`] of the traced 32-client serving run
/// (`m3_bench::fig9::traced_serve_run(32)`), golden like
/// [`FIG3_TAR_TRACE_DIGEST`].
const FIG9_SERVE_TRACE_DIGEST: u64 = 0xe21e_ed4b_c80f_1bea;

/// [`trace_digest`] of the traced 2x overcommit run
/// (`m3_bench::fig8::traced_overcommit_run(2)`) with its `TaskPoll`
/// events left out, and the `CtxSwitch` count of that trace. How often a
/// waiting task is polled is host work; every other event is the modelled
/// schedule, which a change to how parked VPEs are woken must not move.
const FIG8_OVERCOMMIT_TRACE_DIGEST: u64 = 0x97f9_62c6_c0bc_f6b4;
const FIG8_OVERCOMMIT_CTX_SWITCHES: usize = 114;

#[test]
fn figure3_cycle_counts_are_identical_across_runs() {
    let first = cycle_rows(&m3_bench::fig3::run());
    let second = cycle_rows(&m3_bench::fig3::run());
    assert_eq!(first.len(), second.len(), "row count diverged");
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b, "figure 3 cycle row diverged between runs");
    }
}

#[test]
fn figure3_workload_event_trace_is_identical_across_runs() {
    // The same tar workload Figure 3's file-operation bars exercise, run
    // with tracing on: identical digests mean the whole stack (executor,
    // DTU, NoC, kernel, m3fs) made the same decisions at the same
    // simulated times in both runs.
    let run_once = || {
        let spec = m3_apps::workload::tar_input(3);
        let sys = System::boot(SystemConfig {
            fs_blocks: 16 * 1024,
            fs_setup: spec.to_setup(),
            ..SystemConfig::default()
        });
        sys.sim().enable_trace();
        let job = sys.run_program("tar", |env| async move {
            mount_m3fs(&env).await.unwrap();
            m3_apps::m3app::tar_create(&env, "/src", "/a.tar")
                .await
                .unwrap() as i64
        });
        sys.run();
        let trace = sys.sim().trace();
        assert!(!trace.is_empty(), "tracing produced no events");
        (job.try_take(), sys.now().as_u64(), trace_digest(&trace))
    };
    let (exit_a, cycles_a, digest_a) = run_once();
    let (exit_b, cycles_b, digest_b) = run_once();
    assert_eq!(exit_a, exit_b, "exit codes diverged");
    assert_eq!(cycles_a, cycles_b, "final cycle counts diverged");
    assert_eq!(
        digest_a, digest_b,
        "event-trace digests diverged: the scheduler is nondeterministic"
    );
    assert_eq!(
        digest_a, FIG3_TAR_TRACE_DIGEST,
        "the fig3 tar trace moved off its golden digest: events were reordered"
    );
}

#[test]
fn chrome_export_of_fig3_read_is_bit_identical_across_runs() {
    let (events_a, metrics_a) = m3_bench::fig3::traced_file_read();
    let (events_b, metrics_b) = m3_bench::fig3::traced_file_read();
    assert!(!events_a.is_empty(), "traced run produced no events");
    assert_eq!(metrics_a, metrics_b, "metrics snapshots diverged");
    assert_eq!(
        trace_digest(&events_a),
        FIG3_READ_TRACE_DIGEST,
        "the fig3 read trace moved off its golden digest: events were reordered"
    );

    let json_a = m3_trace::chrome::export(&events_a);
    let json_b = m3_trace::chrome::export(&events_b);
    assert_eq!(json_a, json_b, "Chrome exports diverged between runs");

    // Light-weight structural validity: one JSON object per line between
    // the envelope braces, every record naming ph/pid/tid.
    assert!(json_a.starts_with("{\"displayTimeUnit\""));
    assert!(json_a.trim_end().ends_with("]}"));
    let records: Vec<&str> = json_a
        .lines()
        .filter(|l| l.trim_start().starts_with('{') && l.contains("\"ph\""))
        .collect();
    assert!(records.len() > 100, "expected many records");
    for rec in &records {
        assert!(rec.contains("\"pid\":"), "record without pid: {rec}");
        assert!(rec.contains("\"tid\":"), "record without tid: {rec}");
    }
    // The native text round-trip must also be exact.
    let text = m3_trace::fmt::write_events(&events_a);
    let parsed = m3_trace::fmt::parse(&text).expect("exported trace re-parses");
    assert_eq!(m3_trace::fmt::write_events(&parsed), text);
}

#[test]
fn tracing_has_zero_simulated_time_overhead() {
    // The zero-overhead contract (DESIGN.md): recording events and metrics
    // must never advance the clock, so a traced run finishes at the exact
    // same simulated cycle as an untraced one.
    let run_once = |trace: bool| {
        let spec = m3_apps::workload::tar_input(2);
        let sys = System::boot(SystemConfig {
            fs_blocks: 16 * 1024,
            fs_setup: spec.to_setup(),
            ..SystemConfig::default()
        });
        if trace {
            sys.sim().enable_trace();
        }
        let job = sys.run_program("tar", |env| async move {
            mount_m3fs(&env).await.unwrap();
            m3_apps::m3app::tar_create(&env, "/src", "/a.tar")
                .await
                .unwrap() as i64
        });
        sys.run();
        (job.try_take(), sys.now().as_u64(), sys.sim().trace().len())
    };
    let (exit_off, cycles_off, events_off) = run_once(false);
    let (exit_on, cycles_on, events_on) = run_once(true);
    assert_eq!(exit_off, exit_on, "exit codes diverged");
    assert_eq!(events_off, 0, "disabled tracing must record nothing");
    assert!(events_on > 0, "enabled tracing must record events");
    assert_eq!(
        cycles_off, cycles_on,
        "tracing changed simulated time: the zero-overhead contract is broken"
    );
}

#[test]
fn fig8_two_x_overcommit_run_is_identical_across_runs() {
    // The scheduler adds the most intricate machinery in the stack —
    // detached switch tasks, DTU save areas, parked receives — and all of
    // it must replay exactly: same makespan, same per-read latencies, same
    // switch count, every time.
    let a = m3_bench::fig8::overcommit_run(2, true);
    let b = m3_bench::fig8::overcommit_run(2, true);
    assert_eq!(a, b, "overcommit scenario diverged between runs");
    assert!(a.ctx_switches > 0, "2x must multiplex");
}

#[test]
fn fig8_overcommit_trace_holds_its_golden_digest() {
    let (run, events, _) = m3_bench::fig8::traced_overcommit_run(2);
    let modelled: Vec<Event> = events
        .into_iter()
        .filter(|e| !matches!(e.kind, m3_trace::EventKind::TaskPoll { .. }))
        .collect();
    let switches = modelled
        .iter()
        .filter(|e| matches!(e.kind, m3_trace::EventKind::CtxSwitch { .. }))
        .count();
    assert_eq!(
        switches as u64, run.ctx_switches,
        "trace and counter disagree"
    );
    assert_eq!(
        switches, FIG8_OVERCOMMIT_CTX_SWITCHES,
        "the 2x overcommit run switched a different number of times"
    );
    assert_eq!(
        trace_digest(&modelled),
        FIG8_OVERCOMMIT_TRACE_DIGEST,
        "the 2x overcommit trace (task polls left out) moved off its golden digest"
    );
}

#[test]
fn overcommitted_event_trace_is_identical_across_runs() {
    // Two clients share the single application PE; the trace must contain
    // CtxSwitch events and digest identically across runs.
    use m3_kernel::protocol::PeRequest;
    use m3_libos::vpe::Vpe;

    let run_once = || {
        let sys = System::boot(SystemConfig {
            pes: 4,
            overcommit: true,
            ..SystemConfig::default()
        });
        sys.sim().enable_trace();
        let job = sys.run_program("driver", |env| async move {
            let mut vpes = Vec::new();
            for i in 0..2 {
                let vpe = Vpe::new(&env, &format!("c{i}"), PeRequest::Any)
                    .await
                    .unwrap();
                vpe.run(move |cenv| async move {
                    mount_m3fs(&cenv).await.unwrap();
                    let path = format!("/f{i}");
                    m3_libos::vfs::write_all(&cenv, &path, b"multiplexed")
                        .await
                        .unwrap();
                    let back = m3_libos::vfs::read_to_vec(&cenv, &path).await.unwrap();
                    assert_eq!(back, b"multiplexed");
                    0
                })
                .await
                .unwrap();
                vpes.push(vpe);
            }
            let mut sum = 0;
            for vpe in &vpes {
                sum += vpe.wait().await.unwrap();
            }
            sum
        });
        sys.run();
        let trace = sys.sim().trace();
        let switches = trace
            .iter()
            .filter(|e| matches!(e.kind, m3_trace::EventKind::CtxSwitch { .. }))
            .count();
        (
            job.try_take(),
            sys.now().as_u64(),
            switches,
            trace_digest(&trace),
        )
    };
    let (exit_a, cycles_a, switches_a, digest_a) = run_once();
    let (exit_b, cycles_b, switches_b, digest_b) = run_once();
    assert_eq!(exit_a, Some(0), "both clients must succeed");
    assert_eq!(exit_a, exit_b, "exit codes diverged");
    assert_eq!(cycles_a, cycles_b, "final cycle counts diverged");
    assert!(switches_a > 0, "sharing one PE must context-switch");
    assert_eq!(switches_a, switches_b, "switch counts diverged");
    assert_eq!(
        digest_a, digest_b,
        "overcommitted event traces diverged: context switching is nondeterministic"
    );
}

#[test]
fn faulted_fig3_run_is_identical_across_runs() {
    // Determinism must survive the fault plane: the same FaultPlan perturbs
    // the run the same way every time — same measured total, same events at
    // the same cycles, including the injected faults themselves.
    let (total_a, events_a) =
        m3_bench::fig3::faulted_file_read(m3_bench::fig3::golden_fault_plan());
    let (total_b, events_b) =
        m3_bench::fig3::faulted_file_read(m3_bench::fig3::golden_fault_plan());
    assert_eq!(total_a, total_b, "faulted totals diverged");
    assert_eq!(
        trace_digest(&events_a),
        trace_digest(&events_b),
        "faulted event traces diverged"
    );
    // The perturbation really happened: fault injections are on record, and
    // the total moved off the clean-path golden number.
    let faults = events_a
        .iter()
        .filter(|e| matches!(e.kind, m3_trace::EventKind::FaultInject { .. }))
        .count();
    assert!(faults > 0, "the golden fault plan injected nothing");
    assert_ne!(
        total_a, 366_158,
        "the golden fault plan did not perturb the run"
    );
}

#[test]
fn fig9_traced_serving_run_is_identical_across_runs() {
    // The serving tier stacks a seeded load generator, four concurrent
    // driver PEs, a service session per driver, and the HDR latency
    // histogram on top of the kernel/DTU/m3fs path. Two traced runs must
    // agree on every artifact: the native-format trace, the rendered
    // per-PE metrics, and the latency table (which includes every
    // quantile the figure reports).
    let run_once = || {
        let out = m3_bench::fig9::traced_serve_run(32);
        assert!(out.run.requests > 0, "the run served no requests");
        let events = m3_trace::fmt::parse(&out.trace).expect("own trace parses");
        (
            out.run.total,
            trace_digest(&events),
            out.metrics,
            out.latency_tsv,
        )
    };
    let (total_a, digest_a, metrics_a, lat_a) = run_once();
    let (total_b, digest_b, metrics_b, lat_b) = run_once();
    assert_eq!(total_a, total_b, "serving makespans diverged");
    assert_eq!(digest_a, digest_b, "serving traces diverged");
    assert_eq!(
        digest_a, FIG9_SERVE_TRACE_DIGEST,
        "the serving trace moved off its golden digest: events were reordered"
    );
    assert_eq!(metrics_a, metrics_b, "metrics renders diverged");
    assert_eq!(lat_a, lat_b, "latency tables diverged");
}

#[test]
fn fig9_sweep_is_byte_identical_serial_vs_parallel() {
    // The harness parallelises only across independent Sims; the assembled
    // figure — rows, quantiles, capacity verdicts — must not know or care.
    // (The worker count is process-global; a concurrent test that runs a
    // figure only gets another thread count, which cannot change its output.)
    let render = |workers| {
        m3_bench::exec::set_sim_workers(Some(workers));
        let table = m3_bench::fig9::run_sweep(&[8, 24]).render();
        m3_bench::exec::set_sim_workers(None);
        table
    };
    let serial = render(1);
    let parallel = render(4);
    assert_eq!(parallel, serial, "fig9 render depends on the harness mode");
}

#[test]
fn fig9_seed_changes_the_schedule_but_not_the_contract() {
    // Different seeds must produce different arrival schedules (the seed
    // is real entropy for the workload) while the same seed replays
    // exactly — both halves of the determinism story.
    let base = m3_serve::run_m3(&m3_serve::ServePlan::closed(16, 2, 200_000, 7));
    let replay = m3_serve::run_m3(&m3_serve::ServePlan::closed(16, 2, 200_000, 7));
    let reseeded = m3_serve::run_m3(&m3_serve::ServePlan::closed(16, 2, 200_000, 8));
    assert_eq!(base.total, replay.total, "same seed must replay exactly");
    assert_eq!(base.latency.summary(), replay.latency.summary());
    assert_ne!(
        base.total, reseeded.total,
        "a new seed must move the schedule"
    );
}
