//! Dropping a `System` frees its simulation.
//!
//! Every task future holds clones of its `Sim` and `Env` while the `Sim`
//! owns the tasks, and an `Env`'s mount table and reply gate hold that same
//! `Env`. Each case below boots a System of one kind, lets a task capture
//! an `Rc` token, runs it, drops it, and then requires both the DRAM
//! backing store and the token to be gone: nothing the System built may
//! outlive it.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use m3::{System, SystemConfig};
use m3_base::{Cycles, PeId, Perm};
use m3_fault::{CycleWindow, FaultPlan, RecoveryPolicy};
use m3_fs::{mount_m3fs, SetupNode};
use m3_kernel::protocol::PeRequest;
use m3_kernel::PAGE_SIZE;
use m3_libos::addrspace::AddrSpace;
use m3_libos::{vfs, Env, MemGate, Vpe};
use m3_sim::pdes::{self, IslandBuilder, IslandFinish, PdesConfig};
use m3_sim::{Notify, SimState};

/// Weak references to what a dropped System must free.
struct Witness {
    dram: Weak<RefCell<Vec<u8>>>,
    token: Weak<()>,
}

impl Witness {
    /// Watches `sys`'s DRAM backing store and a token. A daemon that never
    /// finishes holds one clone of the token, so only the System's drop can
    /// free it; the returned clone is for the case's own task to capture.
    fn of(sys: &System) -> (Witness, Rc<()>) {
        let platform = sys.platform();
        let dram = platform
            .dtu_system()
            .memory(platform.dram_pe())
            .expect("DRAM backing store");
        let token = Rc::new(());
        let parked = token.clone();
        sys.sim().spawn_daemon("parked", async move {
            let _token = parked;
            std::future::pending::<()>().await;
        });
        let witness = Witness {
            dram: Rc::downgrade(&dram),
            token: Rc::downgrade(&token),
        };
        (witness, token)
    }

    /// Which of the watched objects are still alive.
    fn alive(&self) -> Vec<&'static str> {
        let mut alive = Vec::new();
        if self.dram.strong_count() > 0 {
            alive.push("DRAM backing store");
        }
        if self.token.strong_count() > 0 {
            alive.push("task token");
        }
        alive
    }

    fn assert_freed(&self, case: &str) {
        assert!(
            self.alive().is_empty(),
            "{case}: still alive after the System was dropped: {:?}",
            self.alive()
        );
    }
}

#[test]
fn m3fs_program_is_freed() {
    let sys = System::boot(SystemConfig {
        fs_setup: vec![SetupNode::file("/in", b"lifetime".to_vec())],
        ..SystemConfig::default()
    });
    let (witness, token) = Witness::of(&sys);
    let job = sys.run_program("reader", |env| async move {
        let _token = token;
        mount_m3fs(&env).await.unwrap();
        let data = vfs::read_to_vec(&env, "/in").await.unwrap();
        vfs::write_all(&env, "/out", &data).await.unwrap();
        data.len() as i64
    });
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(job.try_take(), Some(8));
    drop(sys);
    witness.assert_freed("m3fs program");
}

#[test]
fn hand_built_daemon_env_is_freed() {
    // kv-serve's shape: a daemon over an `Env` built outside
    // `run_program`, which mounts m3fs and takes its reply gate, then
    // serves forever.
    let sys = System::boot(SystemConfig::default());
    let (witness, token) = Witness::of(&sys);
    let info = sys
        .kernel()
        .create_root("daemon", None)
        .expect("a PE for the daemon");
    let env = Env::new(sys.kernel(), &info, sys.registry().clone());
    let forever = Notify::new();
    sys.sim().spawn_daemon("daemon", async move {
        let _token = token;
        mount_m3fs(&env).await.unwrap();
        env.reply_gate().await.unwrap();
        loop {
            forever.wait().await;
        }
    });
    let job = sys.run_program("client", |env| async move {
        mount_m3fs(&env).await.unwrap();
        vfs::write_all(&env, "/c", b"x").await.unwrap();
        0
    });
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(job.try_take(), Some(0));
    drop(sys);
    witness.assert_freed("daemon over Env::new");
}

#[test]
fn overcommitted_paging_system_is_freed() {
    // Three paging clients time-share one application PE with a 2-frame
    // resident set, so the scheduler and the pager both run.
    const CLIENTS: u64 = 3;
    const PAGES: u64 = 4;
    let sys = System::boot(SystemConfig {
        pes: 4,
        overcommit: true,
        dirty_switches: true,
        vm_resident_pages: Some(2),
        ..SystemConfig::default()
    });
    let (witness, token) = Witness::of(&sys);
    let job = sys.run_program("driver", |env| async move {
        let _token = token;
        let mut vpes = Vec::new();
        for i in 0..CLIENTS {
            let vpe = Vpe::new(&env, &format!("client{i}"), PeRequest::Any)
                .await
                .unwrap();
            vpe.run(move |cenv| async move {
                let mut aspace = AddrSpace::new(&cenv, Perm::RW);
                for p in 0..PAGES {
                    aspace.write(p * PAGE_SIZE, &[p as u8]).await.unwrap();
                }
                i as i64
            })
            .await
            .unwrap();
            vpes.push(vpe);
        }
        let mut sum = 0;
        for vpe in vpes {
            sum += vpe.wait().await.unwrap();
            vpe.revoke().await.unwrap();
        }
        sum
    });
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(job.try_take(), Some(3));
    drop(sys);
    witness.assert_freed("overcommit + paging");
}

#[test]
fn two_shard_system_is_freed() {
    let sys = System::boot(SystemConfig {
        pes: 8,
        shards: 2,
        fs_blocks: 1024,
        ..SystemConfig::default()
    });
    let (witness, token) = Witness::of(&sys);
    let jobs: Vec<_> = (0..2)
        .map(|shard| {
            let token = token.clone();
            sys.run_program_on(shard, "writer", move |env| async move {
                let _token = token;
                mount_m3fs(&env).await.unwrap();
                vfs::write_all(&env, "/s", b"shard").await.unwrap();
                vfs::read_to_vec(&env, "/s").await.unwrap().len() as i64
            })
        })
        .collect();
    drop(token);
    assert_eq!(sys.run(), SimState::Finished);
    for job in jobs {
        assert_eq!(job.try_take(), Some(5));
    }
    drop(sys);
    witness.assert_freed("two shards");
}

#[test]
fn faulted_system_is_freed() {
    // A crash and a drop window armed together: the crashed VPE ends with a
    // typed error, the survivor finishes, and the faulted System is freed
    // like a clean one.
    let plan = FaultPlan::new()
        .crash_pe(PeId::new(2), Cycles::new(40_000))
        .drop_msgs(
            PeId::new(3),
            PeId::new(0),
            CycleWindow::new(Cycles::new(10_000), Cycles::new(20_000)),
            1,
        );
    let sys = System::boot(SystemConfig {
        pes: 5,
        fault_plan: Some(plan),
        ..SystemConfig::default()
    });
    let (witness, token) = Witness::of(&sys);
    let doomed = sys.run_program("doomed", |env| async move {
        let _token = token;
        env.set_recovery(Some(RecoveryPolicy::standard(0x11fe)));
        loop {
            if MemGate::alloc(&env, 4096, Perm::RW).await.is_err() {
                return 1;
            }
        }
    });
    let survivor = sys.run_program("survivor", |env| async move {
        env.set_recovery(Some(RecoveryPolicy::standard(0x11ff)));
        mount_m3fs(&env).await.map_or(1, |_| 0)
    });
    assert_eq!(
        sys.sim().run_until(Cycles::new(50_000_000)),
        SimState::Finished
    );
    assert_eq!(doomed.try_take(), Some(1));
    assert!(survivor.try_take().is_some());
    drop(sys);
    witness.assert_freed("crash + drop fault plan");
}

/// One PDES island: a System booted in the island's `Sim`, running one
/// program that captures the token. The finish closure drops the System
/// and reports what survived it (the witness is not `Send`, so the check
/// runs on the island's thread).
fn island(id: u32) -> IslandBuilder {
    Box::new(move |ctx| {
        let sys = System::boot_in(
            ctx.sim().clone(),
            SystemConfig {
                fs_blocks: 1024,
                ..SystemConfig::default()
            },
        );
        let (witness, token) = Witness::of(&sys);
        let job = sys.run_program("island-io", move |env| async move {
            let _token = token;
            mount_m3fs(&env).await.unwrap();
            vfs::write_all(&env, "/i", &[id as u8; 64]).await.unwrap();
            0
        });
        let finish: IslandFinish = Box::new(move |_ctx| {
            assert_eq!(job.try_take(), Some(0));
            drop(sys);
            format!("island {id}: alive {:?}", witness.alive())
        });
        finish
    })
}

#[test]
fn pdes_island_systems_are_freed() {
    let cfg = PdesConfig {
        lookahead: Cycles::new(1_000),
        workers: 2,
    };
    let report = pdes::run(&cfg, vec![island(0), island(1)]);
    assert_eq!(
        report.outputs,
        ["island 0: alive []", "island 1: alive []"],
        "pdes islands: something outlived its System"
    );
}

#[test]
#[should_panic(expected = "System was dropped")]
fn island_whose_system_dropped_early_fails_loudly() {
    // The System goes out of scope at the end of the builder while its
    // island still has work: the engine's first look at the island must
    // say so instead of reporting a stall.
    let early: IslandBuilder = Box::new(|ctx| {
        let sys = System::boot_in(ctx.sim().clone(), SystemConfig::default());
        sys.run_program("orphan", |env| async move {
            env.compute(Cycles::new(100)).await;
            0
        });
        Box::new(|_ctx| String::new())
    });
    let cfg = PdesConfig {
        lookahead: Cycles::new(1_000),
        workers: 1,
    };
    pdes::run(&cfg, vec![early]);
}
