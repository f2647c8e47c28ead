//! Chaos conformance: seeded random fault schedules against a mixed
//! workload, plus the zero-fault identity check.
//!
//! The contract under test (ISSUE: deterministic fault injection):
//!
//! 1. **No hangs.** Every run terminates within a generous cycle bound —
//!    each blocking point in the stack is either fault-free by
//!    construction or bounded by a timeout.
//! 2. **Typed failures only.** A faulted VPE either completes with
//!    verified-correct results or fails with a typed [`Code`] — never a
//!    panic, never silently wrong data on a success path.
//! 3. **No cross-VPE collateral.** A bystander VPE whose PE and links are
//!    outside the generated fault space always completes correctly, with
//!    no recovery policy installed at all.
//! 4. **Zero faults = zero change.** An armed-but-empty fault plane
//!    reproduces the golden figure totals byte for byte.

use std::rc::Rc;

use m3::{System, SystemConfig};
use m3_base::error::{Code, Error, Result};
use m3_base::{Cycles, PeId, Perm};
use m3_bench::fig5::BenchKind;
use m3_fault::{ambient, FaultPlan, GenSpace, RecoveryPolicy};
use m3_fs::mount_m3fs;
use m3_libos::vfs;
use m3_libos::{Env, MemGate, RecvGate, SendGate};
use m3_sim::SimState;

/// Seeds for the sweep (ISSUE: at least 16).
const SEEDS: std::ops::Range<u64> = 0x4d31_c000..0x4d31_c010;

/// Hard bound on simulated time: reaching it means something hung.
const RUN_BOUND: u64 = 50_000_000;

/// Faults are generated over PEs 0..4 (kernel, fs, and the two victim
/// PEs); the bystander PE 4 and the DRAM PE are outside the space, so no
/// generated fault can touch the bystander's own traffic.
fn chaos_space() -> GenSpace {
    GenSpace {
        pes: 4,
        horizon: Cycles::new(300_000),
        faults: 6,
        // The kernel and the fs service must stay up: crash/stall draws
        // against them degrade to link delays (their *links* stay fair
        // game for drops, duplicates, corruption, and partitions).
        protect: vec![PeId::new(0), PeId::new(1)],
    }
}

/// Outcome of one VPE's workload: clean completion, a typed failure, or a
/// contract violation (encoded as a panic, which fails the test).
const CLEAN: i64 = 0;
const TYPED_FAILURE: i64 = 1;

fn check_typed(e: &Error) {
    // Any `Code` is acceptable — the contract is that the failure carries
    // one (instead of a panic or a hang). Log it for the test record.
    println!("typed failure: {:?} ({e:?})", e.code());
}

async fn victim_inner(env: &Env, tag: u8) -> Result<()> {
    // RDMA integrity: reads that succeed must return what was written.
    // (Message faults never touch RDMA payloads; link faults only delay
    // them, so this holds even on a faulted PE.)
    let mem = MemGate::alloc(env, 4096, Perm::RW).await?;
    let pattern: Vec<u8> = (0..256u32)
        .map(|i| (i as u8).wrapping_mul(7) ^ tag)
        .collect();
    mem.write(64, &pattern).await?;
    let back = mem.read(64, pattern.len()).await?;
    assert_eq!(back, pattern, "RDMA data integrity violated");

    // RPC over the victim's own loop link (faultable: drops, duplicates,
    // corruption). The echo must come back byte-identical; a corrupted
    // echo is *detected* and surfaced as a typed error — the end-to-end
    // check the DTU itself does not provide.
    let rgate = Rc::new(RecvGate::new(env, 4, 256).await?);
    let sgate = SendGate::new(env, &rgate, u64::from(tag), 0).await?;
    let echo_gate = rgate.clone();
    let echo_env = env.clone();
    env.sim().spawn_daemon(format!("echo-{tag}"), async move {
        loop {
            let Ok(msg) = echo_gate.recv().await else {
                return;
            };
            let _ = echo_env.dtu().reply(&msg, &msg.payload).await;
        }
    });
    for i in 0..4u8 {
        let req = [tag ^ i; 16];
        let reply = sgate.call(&req).await?;
        if reply.payload != req {
            return Err(Error::new(Code::InvArgs).with_msg("echo payload corrupted in flight"));
        }
    }

    // Filesystem round trip across the faultable victim↔fs link.
    mount_m3fs(env).await?;
    let path = format!("/chaos-{tag}");
    let data: Vec<u8> = (0..512u32).map(|i| (i as u8) ^ tag).collect();
    vfs::write_all(env, &path, &data).await?;
    let back = vfs::read_to_vec(env, &path).await?;
    if back != data {
        return Err(Error::new(Code::InvArgs).with_msg("file read-back mismatch"));
    }
    Ok(())
}

async fn victim(env: Env, seed: u64, tag: u8) -> i64 {
    env.set_recovery(Some(RecoveryPolicy::standard(seed ^ u64::from(tag))));
    match victim_inner(&env, tag).await {
        Ok(()) => CLEAN,
        Err(e) => {
            check_typed(&e);
            TYPED_FAILURE
        }
    }
}

/// The bystander runs with NO recovery policy: its syscalls, RDMA, and
/// loop-link RPC must behave exactly as in a fault-free system, because
/// nothing in the generated plan can reach its links. If any fault leaks
/// onto them, this VPE hangs (caught by the run bound) or fails (caught
/// by the exit code).
async fn bystander(env: Env) -> i64 {
    let mem = match MemGate::alloc(&env, 4096, Perm::RW).await {
        Ok(m) => m,
        Err(_) => return 2,
    };
    for round in 0..8u8 {
        let pattern: Vec<u8> = (0..128u32).map(|i| (i as u8).wrapping_add(round)).collect();
        if mem.write(0, &pattern).await.is_err() {
            return 2;
        }
        match mem.read(0, pattern.len()).await {
            Ok(back) if back == pattern => {}
            _ => return 2,
        }
    }
    let Ok(rgate) = RecvGate::new(&env, 4, 256).await else {
        return 2;
    };
    let rgate = Rc::new(rgate);
    let Ok(sgate) = SendGate::new(&env, &rgate, 0xb5, 0).await else {
        return 2;
    };
    let echo_gate = rgate.clone();
    let echo_env = env.clone();
    env.sim().spawn_daemon("bystander-echo", async move {
        loop {
            let Ok(msg) = echo_gate.recv().await else {
                return;
            };
            let _ = echo_env.dtu().reply(&msg, &msg.payload).await;
        }
    });
    for _ in 0..4 {
        match sgate.call(b"bystander").await {
            Ok(reply) if reply.payload == b"bystander" => {}
            _ => return 2,
        }
    }
    CLEAN
}

#[test]
fn seeded_sweep_never_hangs_and_fails_only_typed() {
    let mut clean = 0u32;
    let mut typed = 0u32;
    for seed in SEEDS {
        let plan = FaultPlan::generate(seed, &chaos_space());
        assert!(!plan.is_empty(), "generated plan is empty for {seed:#x}");
        let sys = System::boot(SystemConfig {
            pes: 5,
            fault_plan: Some(plan),
            ..SystemConfig::default()
        });
        // Placement is deterministic: m3fs on PE1, then first-free order.
        let va = sys.run_program("victim-a", move |env| victim(env, seed, 0xa1)); // PE2
        let vb = sys.run_program("victim-b", move |env| victim(env, seed, 0xb2)); // PE3
        let by = sys.run_program("bystander", bystander); // PE4

        let state = sys.sim().run_until(Cycles::new(RUN_BOUND));
        assert_eq!(
            state,
            SimState::Finished,
            "seed {seed:#x} hung or stalled: {state:?}"
        );
        sys.sim().settle(Cycles::new(1_000_000));

        for (name, h) in [("victim-a", va), ("victim-b", vb)] {
            let code = h.try_take().expect("task finished");
            assert!(
                code == CLEAN || code == TYPED_FAILURE,
                "seed {seed:#x}: {name} violated the chaos contract (code {code})"
            );
            if code == CLEAN {
                clean += 1;
            } else {
                typed += 1;
            }
        }
        assert_eq!(
            by.try_take(),
            Some(CLEAN),
            "seed {seed:#x}: bystander took collateral damage"
        );
    }
    // The sweep must actually exercise both halves of the contract:
    // recovery carrying runs to completion, and typed failures when the
    // schedule is too hostile. All-clean or all-failed would mean the
    // fault space is mis-sized.
    assert!(clean > 0, "no faulted run ever completed ({typed} typed)");
    println!("chaos sweep: {clean} clean, {typed} typed failures");
}

#[test]
fn crashed_pe_is_reaped_and_survivors_continue() {
    // A targeted (non-generated) schedule: victim-a's PE crashes mid-run.
    // The kernel watchdog must revoke it, and every other VPE must finish
    // as usual.
    let plan = FaultPlan::new().crash_pe(PeId::new(2), Cycles::new(40_000));
    let sys = System::boot(SystemConfig {
        pes: 5,
        fault_plan: Some(plan),
        ..SystemConfig::default()
    });
    let doomed = sys.run_program("doomed", |env| async move {
        env.set_recovery(Some(RecoveryPolicy::standard(0x4d31_dead)));
        // Loop forever; the crash cuts it short with typed errors.
        loop {
            let r = async {
                let mem = MemGate::alloc(&env, 4096, Perm::RW).await?;
                mem.write(0, &[1, 2, 3]).await?;
                Result::Ok(())
            }
            .await;
            if let Err(e) = r {
                check_typed(&e);
                return TYPED_FAILURE;
            }
        }
    });
    let survivor = sys.run_program("survivor", |env| async move {
        mount_m3fs(&env).await.unwrap();
        vfs::write_all(&env, "/s", b"alive").await.unwrap();
        assert_eq!(vfs::read_to_vec(&env, "/s").await.unwrap(), b"alive");
        CLEAN
    });
    let state = sys.sim().run_until(Cycles::new(RUN_BOUND));
    assert_eq!(state, SimState::Finished, "crash scenario hung: {state:?}");
    sys.sim().settle(Cycles::new(1_000_000));
    assert_eq!(doomed.try_take(), Some(TYPED_FAILURE));
    assert_eq!(survivor.try_take(), Some(CLEAN));
    // The watchdog freed the crashed PE: kernel + 3 programs were placed,
    // and the doomed VPE's PE is back in the pool.
    assert!(sys.kernel().free_pes() >= 1);
}

#[test]
fn crashed_pe_takes_its_whole_run_queue() {
    // The overcommit variant of the watchdog contract: when a PE dies, the
    // kernel must revoke not just the resident VPE but every queued and
    // parked VPE time-multiplexed onto it — their state lives in save
    // areas, but their execution site is gone. Three clients share the
    // single application PE 3; the crash must end all three (none can
    // return CLEAN), and the driver on the pinned PE 2 reaps them all.
    use m3_kernel::protocol::PeRequest;
    use m3_libos::vpe::Vpe;

    let plan = FaultPlan::new().crash_pe(PeId::new(3), Cycles::new(60_000));
    let sys = System::boot(SystemConfig {
        pes: 4,
        overcommit: true,
        fault_plan: Some(plan),
        ..SystemConfig::default()
    });
    let driver = sys.run_program("driver", |env| async move {
        let mut vpes = Vec::new();
        for i in 0..3u64 {
            let vpe = Vpe::new(&env, &format!("doomed{i}"), PeRequest::Any)
                .await
                .unwrap();
            assert_eq!(vpe.pe(), PeId::new(3), "all clients share PE 3");
            vpe.run(move |cenv| async move {
                cenv.set_recovery(Some(RecoveryPolicy::standard(0x4d31_0dd0 + i)));
                // Loop forever; only the crash ends this.
                loop {
                    let r = async {
                        let mem = MemGate::alloc(&cenv, 4096, Perm::RW).await?;
                        mem.write(0, &[0xd0; 64]).await?;
                        Result::Ok(())
                    }
                    .await;
                    if let Err(e) = r {
                        check_typed(&e);
                        return TYPED_FAILURE;
                    }
                }
            })
            .await
            .unwrap();
            vpes.push(vpe);
        }
        for vpe in &vpes {
            // Reaped clients report either their own typed failure or the
            // watchdog's kill code; a revoked-capability error is equally
            // conclusive. Only CLEAN would mean a client outlived its PE.
            let code = vpe.wait().await.unwrap_or(TYPED_FAILURE);
            assert_ne!(code, CLEAN, "no client may survive the crash");
        }
        CLEAN
    });
    let state = sys.sim().run_until(Cycles::new(RUN_BOUND));
    assert_eq!(
        state,
        SimState::Finished,
        "overcommit crash hung: {state:?}"
    );
    sys.sim().settle(Cycles::new(1_000_000));
    assert_eq!(driver.try_take(), Some(CLEAN));
    // The queued clients never became resident (the workload never parks),
    // so the watchdog reaped VPEs that existed only as save areas — the
    // exact case the revoke-the-whole-run-queue fix covers.
    assert_eq!(sys.kernel().ctx_switches(PeId::new(3)), 0);
}

#[test]
fn pe_crash_mid_writeback_leaves_the_pager_consistent() {
    // A paging-heavy VPE — resident set squeezed to 2 frames, working set
    // of 6 pages, all writes, so nearly every fault evicts a dirty victim
    // through the swap region — has its PE crash mid-run. The pager
    // contract under fire: no hang, a typed error (never silent data
    // loss), and complete reclamation — resident frames, the in-flight
    // fill frame, and the swap region all return to the allocator, so
    // DRAM accounting lands exactly where a clean exit would put it.
    use m3_libos::addrspace::AddrSpace;

    let plan = FaultPlan::new().crash_pe(PeId::new(2), Cycles::new(30_000));
    let sys = System::boot(SystemConfig {
        pes: 4,
        vm_resident_pages: Some(2),
        fault_plan: Some(plan),
        ..SystemConfig::default()
    });
    let free_before = sys.kernel().free_mem();
    let doomed = sys.run_program("doomed", |env| async move {
        env.set_recovery(Some(RecoveryPolicy::standard(0x4d31_9a9e)));
        let mut aspace = AddrSpace::new(&env, Perm::RW);
        let mut i = 0u64;
        // Loop forever; only the crash ends this.
        loop {
            let page = i % 6;
            if let Err(e) = aspace.write(page * 4096, &[i as u8]).await {
                check_typed(&e);
                return TYPED_FAILURE;
            }
            i += 1;
        }
    });
    let state = sys.sim().run_until(Cycles::new(RUN_BOUND));
    assert_eq!(state, SimState::Finished, "paging crash hung: {state:?}");
    sys.sim().settle(Cycles::new(1_000_000));
    assert_eq!(doomed.try_take(), Some(TYPED_FAILURE));
    // Full reclamation: only the m3fs region (allocated at service start,
    // after the baseline snapshot) may still be out.
    let fs_region = SystemConfig::default().fs_blocks * 1024;
    assert_eq!(
        sys.kernel().free_mem(),
        free_before - fs_region,
        "crash leaked pager memory (frames or swap region)"
    );
    assert!(sys.kernel().free_pes() >= 1, "crashed PE not reaped");
    // The scenario must actually have been mid-paging when the PE died.
    assert!(
        sys.sim().metrics().total(m3_sim::keys::WRITEBACK_BYTES) > 0,
        "no writeback traffic — the crash missed the pager entirely"
    );
}

#[test]
fn zero_fault_plan_reproduces_golden_figure_totals() {
    // An armed-but-empty plan must be behaviorally invisible: the same
    // golden totals as tests/golden_cycles.rs, byte for byte, for every
    // figure entry point.
    ambient::set(Some(FaultPlan::new()));
    let result = std::panic::catch_unwind(|| {
        let fig3 = m3_bench::fig3::run();
        assert_eq!(fig3.bar("syscall", "M3").total, 199);
        assert_eq!(fig3.bar("read", "M3").total, 366_158);
        assert_eq!(fig3.bar("read", "Lx").total, 3_437_580);
        assert_eq!(fig3.bar("read", "Lx-$").total, 1_730_316);

        let s = m3_bench::fig4::run();
        assert_eq!(s.value(16, "read (cycles)"), 562_246.0);
        assert_eq!(s.value(256, "read (cycles)"), 376_966.0);
        assert_eq!(s.value(16, "write (cycles)"), 1_072_200.0);
        assert_eq!(s.value(256, "write (cycles)"), 406_920.0);

        let fig5 = m3_bench::fig5::run();
        assert_eq!(fig5.bar("cat+tr", "M3").total, 174_682);
        assert_eq!(fig5.bar("cat+tr", "Lx").total, 576_280);
        assert_eq!(fig5.bar("cat+tr", "Lx-$").total, 406_552);

        assert_eq!(
            m3_bench::fig6::avg_instance_time(BenchKind::Find, 1),
            52_619.0
        );
        assert_eq!(
            m3_bench::fig6::avg_instance_time(BenchKind::Find, 4),
            53_497.5
        );

        let fig7 = m3_bench::fig7::run();
        assert_eq!(fig7.bar("fft-pipeline", "Linux").total, 1_532_358);
        assert_eq!(fig7.bar("fft-pipeline", "M3").total, 1_298_537);
        assert_eq!(fig7.bar("fft-pipeline", "M3+accel").total, 110_895);
    });
    ambient::set(None);
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// Regression for the borrow-across-await triage (m3-lint v2).
///
/// The lint's first workspace run flagged five candidate sites where a
/// `RefCell` guard *looked* live across an `.await` — the kernel's
/// service-retry reply slots, the `sched_acquire`/`sched_yield` scheduler
/// scopes, and the lx pipe predicate closures. Triage verified each one
/// scopes its guard before awaiting (and the walker was tightened to model
/// those scopes exactly). A guard that *did* survive to an await would not
/// fail deterministically: it panics with "already borrowed" only on an
/// interleaving where another task touches the same cell during the
/// suspension.
///
/// This test arranges the densest such interleaving the system produces:
/// four VPEs overcommitted onto one PE, all hammering the kernel's shared
/// scheduler table and pending-reply slots through syscalls, RDMA, and
/// explicit yields, so every await in those paths runs with the other
/// three clients mid-flight on the same cells. A reintroduced
/// guard-across-await in those paths panics here instead of in the field.
/// (The lx pipe closures are covered by `blocking_forces_context_switches`
/// in `crates/lx`.)
#[test]
fn dense_overcommit_schedule_holds_no_refcell_across_await() {
    use m3_kernel::protocol::PeRequest;
    use m3_libos::vpe::Vpe;

    let sys = System::boot(SystemConfig {
        pes: 4,
        overcommit: true,
        ..SystemConfig::default()
    });
    let driver = sys.run_program("borrow-driver", move |env| async move {
        let mut vpes = Vec::new();
        for i in 0..4u64 {
            let vpe = Vpe::new(&env, &format!("client{i}"), PeRequest::Any)
                .await
                .unwrap();
            assert_eq!(vpe.pe(), PeId::new(3), "all clients share PE 3");
            vpe.run(move |cenv| async move {
                for round in 0..4u8 {
                    // Syscall + service traffic: the kernel parks this
                    // VPE on its reply slot and re-admits it on arrival
                    // (the service-retry loop's slot/ready cells), while
                    // the RDMA transfers suspend it mid-operation.
                    let mem = MemGate::alloc(&cenv, 2048, Perm::RW).await.unwrap();
                    let pat = [round ^ (i as u8); 64];
                    mem.write(0, &pat).await.unwrap();
                    assert_eq!(mem.read(0, pat.len()).await.unwrap(), pat);
                    // Voluntary yields force park/claim/restore
                    // transitions through `sched_acquire`'s scheduler
                    // scope while the other clients are mid-syscall on
                    // the same tables.
                    cenv.yield_now().await.unwrap();
                }
                CLEAN
            })
            .await
            .unwrap();
            vpes.push(vpe);
        }
        for vpe in &vpes {
            assert_eq!(vpe.wait().await, Ok(CLEAN));
        }
        CLEAN
    });
    let state = sys.sim().run_until(Cycles::new(RUN_BOUND));
    assert_eq!(
        state,
        SimState::Finished,
        "overcommit schedule hung: {state:?}"
    );
    assert_eq!(driver.try_take(), Some(CLEAN));
    // The discipline only gets tested if the kernel really multiplexed
    // the PE: every yield with three ready peers must have switched.
    assert!(
        sys.kernel().ctx_switches(PeId::new(3)) >= 8,
        "workload failed to produce a dense switch schedule"
    );
}

#[test]
fn shard_kernel_crash_mid_delegation() {
    // Multikernel chaos (§7): shard 1's kernel PE dies while shard 0 is
    // delegating capabilities to a child it placed over there. Contract:
    // in-flight and later cross-shard requests fail with typed errors (no
    // hang, no panic), the shard watchdog marks the peer dead and reaps
    // its proxy capabilities, and shard 0 keeps serving local work.
    let sys = m3::System::boot(m3::SystemConfig {
        pes: 6,
        shards: 2,
        fault_plan: Some(FaultPlan::new().crash_pe(PeId::new(3), Cycles::new(150_000))),
        fs_blocks: 4096,
        ..m3::SystemConfig::default()
    });
    let job = sys.run_program_on(0, "delegator", |env| async move {
        // Shard 0's only free PE is this program: the child lands on
        // shard 1, behind the kernel that is about to die.
        let vpe = m3_libos::Vpe::new(&env, "child", m3_kernel::protocol::PeRequest::Same)
            .await
            .unwrap();
        let mem = MemGate::alloc(&env, 4096, Perm::RW).await.unwrap();
        let mut delegated = 0u32;
        let failure = loop {
            match vpe.delegate(mem.sel()).await {
                Ok(_) => delegated += 1,
                Err(e) => break e,
            }
            env.compute(Cycles::new(20_000)).await;
        };
        // Some delegations landed before the crash; the one that straddled
        // it came back as a typed error, not a hang.
        assert!(delegated > 0, "crash fired before any delegation");
        check_typed(&failure);
        // Every further cross-shard leg fails typed too: the child is
        // gone with its kernel, and no peer has PEs left to spill to.
        let wait_err = vpe.wait().await.unwrap_err();
        check_typed(&wait_err);
        let spill_err = m3_libos::Vpe::new(&env, "v", m3_kernel::protocol::PeRequest::Same)
            .await
            .map(|_| ())
            .unwrap_err();
        check_typed(&spill_err);
        // Shard 0 itself keeps serving: local allocation still works.
        let local = MemGate::alloc(&env, 4096, Perm::RW).await.unwrap();
        local.write(0, b"alive").await.unwrap();
        assert_eq!(local.read(0, 5).await.unwrap(), b"alive");
        TYPED_FAILURE
    });
    let state = sys.sim().run_until(Cycles::new(RUN_BOUND));
    assert_eq!(state, SimState::Finished, "shard crash hung: {state:?}");
    sys.sim().settle(Cycles::new(1_000_000));
    assert_eq!(job.try_take(), Some(TYPED_FAILURE));
    // The watchdog declared the peer dead and reaped the proxies.
    assert!(
        sys.kernels()[0].shard_is_dead(1),
        "shard 0 never noticed the dead peer"
    );
}

#[test]
fn surviving_peers_still_take_spills_after_a_shard_dies() {
    // Three shards; shard 1's kernel dies early. Spill-over placement from
    // shard 0 must skip the dead shard and land on shard 2.
    let sys = m3::System::boot(m3::SystemConfig {
        pes: 9,
        shards: 3,
        fault_plan: Some(FaultPlan::new().crash_pe(PeId::new(3), Cycles::new(50_000))),
        fs_blocks: 4096,
        ..m3::SystemConfig::default()
    });
    let plan = sys.plan().clone();
    let job = sys.run_program_on(0, "spiller", move |env| async move {
        // Let the watchdog notice the dead kernel first.
        env.compute(Cycles::new(100_000)).await;
        let vpe = m3_libos::Vpe::new(&env, "child", m3_kernel::protocol::PeRequest::Same)
            .await
            .unwrap();
        assert_eq!(
            plan.shard_of(vpe.pe()),
            Some(2),
            "spill landed on {:?} instead of the surviving shard",
            vpe.pe()
        );
        vpe.revoke().await.unwrap();
        CLEAN
    });
    let state = sys.sim().run_until(Cycles::new(RUN_BOUND));
    assert_eq!(
        state,
        SimState::Finished,
        "failover scenario hung: {state:?}"
    );
    sys.sim().settle(Cycles::new(1_000_000));
    assert_eq!(job.try_take(), Some(CLEAN));
    assert_eq!(sys.sim().stats().get("kernel.remote_placements"), 1);
}
