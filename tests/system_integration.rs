//! Workspace-level integration tests: whole-system scenarios spanning the
//! simulator, NoC, DTU, kernel, libm3, m3fs, and the applications.

use m3::{System, SystemConfig};
use m3_base::error::Code;
use m3_base::{Cycles, PeId, Perm};
use m3_fs::{mount_m3fs, SetupNode};
use m3_kernel::protocol::PeRequest;
use m3_kernel::PAGE_SIZE;
use m3_libos::addrspace::AddrSpace;
use m3_libos::{vfs, MemGate, Vpe};
use m3_lx::{LxConfig, LxMachine};
use m3_sim::{keys, Sim, SimState};

#[test]
fn noc_level_isolation_is_enforced_after_boot() {
    let sys = System::boot(SystemConfig::default());
    // Only the kernel's DTU stays privileged; applications cannot configure
    // endpoints — their own or anyone else's (paper §3).
    let kernel_pe = sys.kernel().pe();
    assert!(sys.platform().dtu(kernel_pe).is_privileged());
    for i in 0..sys.platform().pe_count() as u32 {
        let pe = PeId::new(i);
        if pe == kernel_pe {
            continue;
        }
        let dtu = sys.platform().dtu(pe);
        assert!(!dtu.is_privileged(), "{pe} must be downgraded");
        // The whole configuration surface (configure, set_privileged, …)
        // lives behind a KernelToken, and a downgraded DTU cannot mint one —
        // so an application cannot reconfigure endpoints or re-privilege
        // itself.
        let err = dtu.claim_kernel_token().unwrap_err();
        assert_eq!(err.code(), Code::NoPerm);
    }
}

#[test]
fn three_programs_share_the_filesystem_concurrently() {
    let sys = System::boot(SystemConfig {
        pes: 6,
        ..SystemConfig::default()
    });
    let mut jobs = Vec::new();
    for i in 0..3 {
        jobs.push(
            sys.run_program(&format!("writer{i}"), move |env| async move {
                mount_m3fs(&env).await.unwrap();
                let path = format!("/file{i}");
                let data = vec![i as u8; 10_000];
                vfs::write_all(&env, &path, &data).await.unwrap();
                let back = vfs::read_to_vec(&env, &path).await.unwrap();
                assert_eq!(back, data);
                0
            }),
        );
    }
    sys.run();
    for job in jobs {
        assert_eq!(job.try_take(), Some(0));
    }
}

#[test]
fn revoking_a_vpe_capability_resets_the_pe() {
    let sys = System::boot(SystemConfig::default());
    let job = sys.run_program("parent", |env| async move {
        let free_before = env.kernel().free_pes();
        let vpe = Vpe::new(&env, "victim", PeRequest::Same).await.unwrap();
        assert_eq!(env.kernel().free_pes(), free_before - 1);
        // §4.5.5: "the owner of the VPE capability could revoke it to let
        // the kernel reset the associated PE, thereby making it available
        // again for others."
        vpe.revoke().await.unwrap();
        assert_eq!(env.kernel().free_pes(), free_before);
        0
    });
    sys.run();
    assert_eq!(job.try_take(), Some(0));
}

#[test]
fn delegated_memory_dies_with_the_delegator_chain() {
    let sys = System::boot(SystemConfig::default());
    let job = sys.run_program("parent", |env| async move {
        let mem = MemGate::alloc(&env, 4096, Perm::RW).await.unwrap();
        let child = Vpe::new(&env, "child", PeRequest::Same).await.unwrap();
        let child_sel = child.delegate(mem.sel()).await.unwrap();
        child
            .run(move |cenv| async move {
                let m = MemGate::bind(&cenv, child_sel);
                m.write(0, b"x").await.unwrap();
                0
            })
            .await
            .unwrap();
        child.wait().await.unwrap();
        // Parent's root capability must still work after the child's exit
        // revoked the child's (derived) copy.
        mem.write(1, b"y").await.unwrap();
        assert_eq!(mem.read(0, 2).await.unwrap(), b"xy");
        0
    });
    sys.run();
    assert_eq!(job.try_take(), Some(0));
}

#[test]
fn recursive_revoke_reaches_grandchildren() {
    let sys = System::boot(SystemConfig {
        pes: 6,
        ..SystemConfig::default()
    });
    let job = sys.run_program("root", |env| async move {
        let mem = MemGate::alloc(&env, 4096, Perm::RW).await.unwrap();
        let child = Vpe::new(&env, "mid", PeRequest::Same).await.unwrap();
        let child_sel = child.delegate(mem.sel()).await.unwrap();
        let child_vpe_sel = child.sel();

        child
            .run(move |cenv| async move {
                // The child re-delegates to a grandchild.
                let my_mem = MemGate::bind(&cenv, child_sel);
                let grand = Vpe::new(&cenv, "leaf", PeRequest::Same).await.unwrap();
                let g_sel = grand.delegate(my_mem.sel()).await.unwrap();
                grand
                    .run(move |genv| async move {
                        let m = MemGate::bind(&genv, g_sel);
                        // Works before the revoke.
                        m.write(0, b"g").await.unwrap();
                        // Wait for the root to revoke, then try again.
                        genv.sim().sleep(Cycles::new(300_000)).await;
                        match m.write(1, b"g").await {
                            Err(e) if e.code() == Code::InvEp || e.code() == Code::InvCap => 0,
                            other => {
                                println!("unexpected: {other:?}");
                                1
                            }
                        }
                    })
                    .await
                    .unwrap();
                grand.wait().await.unwrap()
            })
            .await
            .unwrap();

        // Let the grandchild do its first write, then revoke the root cap:
        // the entire delegation subtree must lose access (§4.5.3).
        env.sim().sleep(Cycles::new(150_000)).await;
        env.syscall(m3_kernel::protocol::Syscall::Revoke { sel: mem.sel() })
            .await
            .unwrap();
        let _ = child_vpe_sel;
        child.wait().await.unwrap()
    });
    sys.run();
    assert_eq!(job.try_take(), Some(0));
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let run_once = || {
        let spec = m3_apps::workload::tar_input(9);
        let sys = System::boot(SystemConfig {
            fs_blocks: 16 * 1024,
            fs_setup: spec.to_setup(),
            ..SystemConfig::default()
        });
        let job = sys.run_program("tar", |env| async move {
            mount_m3fs(&env).await.unwrap();
            m3_apps::m3app::tar_create(&env, "/src", "/a.tar")
                .await
                .unwrap() as i64
        });
        sys.run();
        (job.try_take().unwrap(), sys.now().as_u64())
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "identical runs must take identical cycles");
}

#[test]
fn labels_identify_senders_unforgeably() {
    // Two clients of the same service get different session identifiers;
    // the service trusts the label, not the message contents (§4.4.2).
    let sys = System::boot(SystemConfig {
        pes: 6,
        ..SystemConfig::default()
    });
    let a = sys.run_program("client-a", |env| async move {
        mount_m3fs(&env).await.unwrap();
        vfs::write_all(&env, "/a", b"from a").await.unwrap();
        0
    });
    let b = sys.run_program("client-b", |env| async move {
        mount_m3fs(&env).await.unwrap();
        vfs::write_all(&env, "/b", b"from b").await.unwrap();
        // Client B cannot see A's open files (separate sessions), but both
        // see the shared namespace.
        let st = vfs::stat(&env, "/b").await.unwrap();
        assert_eq!(st.size, 6);
        0
    });
    sys.run();
    assert_eq!(a.try_take(), Some(0));
    assert_eq!(b.try_take(), Some(0));
}

#[test]
fn exec_loads_program_from_the_filesystem() {
    let sys = System::boot(SystemConfig {
        fs_setup: vec![
            SetupNode::dir("/bin"),
            SetupNode::file("/bin/answer", vec![0xaa; 8 * 1024]),
        ],
        ..SystemConfig::default()
    });
    sys.registry()
        .register("/bin/answer", |_env, argv| async move {
            argv.first().and_then(|s| s.parse().ok()).unwrap_or(-1)
        });
    let job = sys.run_program("spawner", |env| async move {
        mount_m3fs(&env).await.unwrap();
        let vpe = Vpe::new(&env, "answer", PeRequest::Same).await.unwrap();
        vpe.exec("/bin/answer", vec!["42".to_string()])
            .await
            .unwrap();
        vpe.wait().await.unwrap()
    });
    sys.run();
    assert_eq!(job.try_take(), Some(42));
}

#[test]
fn exec_of_missing_binary_fails() {
    let sys = System::boot(SystemConfig::default());
    let job = sys.run_program("spawner", |env| async move {
        mount_m3fs(&env).await.unwrap();
        let vpe = Vpe::new(&env, "ghost", PeRequest::Same).await.unwrap();
        let err = vpe.exec("/bin/ghost", Vec::new()).await.unwrap_err();
        assert_eq!(err.code(), Code::NoSuchFile);
        0
    });
    sys.run();
    assert_eq!(job.try_take(), Some(0));
}

#[test]
fn device_interrupts_arrive_as_messages() {
    // §4.4.2's vision implemented: a timer device PE delivers interrupts
    // as ordinary DTU messages; subscribers await them like any message.
    let sys = System::boot(SystemConfig {
        pes: 6,
        ..SystemConfig::default()
    });
    // The device runs on its own PE, like any service.
    let info = sys.kernel().create_root("timer", None).unwrap();
    let dev_env = m3_libos::Env::new(sys.kernel(), &info, sys.registry().clone());
    sys.sim().spawn_daemon("timer-dev", async move {
        m3_apps::timer_dev::run_timer_device(dev_env).await.unwrap();
    });

    let job = sys.run_program("subscriber", |env| async move {
        let period = Cycles::new(10_000);
        let mut timer = m3_apps::timer_dev::TimerClient::subscribe(&env, period, 5)
            .await
            .unwrap();
        let mut last = env.sim().now();
        let mut ticks = Vec::new();
        while let Some(idx) = timer.wait_tick().await.unwrap() {
            let now = env.sim().now();
            let gap = (now - last).as_u64();
            assert!(
                gap >= 9_000,
                "ticks must be roughly a period apart, got {gap}"
            );
            last = now;
            ticks.push(idx);
        }
        assert_eq!(ticks, vec![0, 1, 2, 3, 4]);
        ticks.len() as i64
    });
    sys.run();
    assert_eq!(job.try_take(), Some(5));
}

/// The composed shards + overcommit + paging run of
/// `tests/multikernel.rs::paging_overcommit_and_dirty_switches_compose_with_shards`.
fn composed_shards_overcommit_paging_run() -> System {
    const CLIENTS: u64 = 3;
    const PAGES: u64 = 8;
    let sys = System::boot(SystemConfig {
        pes: 8,
        shards: 2,
        fs_blocks: 4096,
        fs_setup: vec![SetupNode::file("/data", b"shared".to_vec())],
        overcommit: true,
        dirty_switches: true,
        vm_resident_pages: Some(4),
        ..SystemConfig::default()
    });
    let jobs: Vec<_> = (0..2)
        .map(|shard| {
            sys.run_program_on(shard, "driver", |env| async move {
                let mut vpes = Vec::new();
                for i in 0..CLIENTS {
                    let vpe = Vpe::new(&env, &format!("client{i}"), PeRequest::Any)
                        .await
                        .unwrap();
                    vpe.run(move |cenv| async move {
                        mount_m3fs(&cenv).await.unwrap();
                        let mut aspace = AddrSpace::new(&cenv, Perm::RW);
                        for round in 0..2u8 {
                            for p in 0..PAGES {
                                aspace
                                    .write(p * PAGE_SIZE, &[i as u8, p as u8, round])
                                    .await
                                    .unwrap();
                            }
                            for p in 0..PAGES {
                                let mut b = [0u8; 3];
                                aspace.read(p * PAGE_SIZE, &mut b).await.unwrap();
                                assert_eq!(b, [i as u8, p as u8, round]);
                            }
                        }
                        let data = vfs::read_to_vec(&cenv, "/data").await.unwrap();
                        assert_eq!(data, b"shared");
                        10 + i as i64
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
            })
        })
        .collect();
    assert_eq!(sys.run(), SimState::Finished);
    for job in jobs {
        assert_eq!(job.try_take(), Some(10 + 11 + 12));
    }
    sys
}

/// The Linux FFT pipeline of fig7: a fork, an exec and a pipe.
fn lx_fft_pipe_run() -> LxMachine {
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, LxConfig::xtensa());
    {
        let mut fs = machine.fs().borrow_mut();
        fs.mkdir("/bin").unwrap();
        let ino = fs.create("/bin/fft").unwrap();
        fs.write(ino, 0, &vec![0x7f; 16 * 1024]).unwrap();
    }
    let (_, job) = machine.spawn_proc("fft-bench", |p| async move {
        m3_apps::lxapp::fft_pipeline(&p, "/result.bin")
            .await
            .unwrap();
        0
    });
    assert_eq!(sim.run(), SimState::Finished);
    assert_eq!(job.try_take(), Some(0));
    machine
}

/// The totals of every counter the figures and m3bench read, on one
/// composed M3 run and one Linux pipe run, zeros included. The NoC's
/// counters are read through the NoC.
#[test]
fn counter_totals_of_a_composed_run_and_an_lx_pipe_run_are_pinned() {
    const M3: [(&str, u64); 24] = [
        ("app.fft_cycles", 0),
        ("dtu.deposit_no_recv_ep", 0),
        ("dtu.mem_read_bytes", 324),
        ("dtu.mem_write_bytes", 147756),
        ("dtu.msg_cycles", 22322),
        ("dtu.msgs_delivered", 1116),
        ("dtu.msgs_dropped", 0),
        ("dtu.msgs_sent", 562),
        ("dtu.replies_sent", 554),
        ("dtu.xfer_cycles", 42824),
        ("kernel.ktk_bad_messages", 0),
        ("kernel.ktk_requests", 3),
        (keys::PAGE_FAULTS, 156),
        ("kernel.remote_placements", 0),
        ("kernel.syscalls", 532),
        ("kernel.vpe_exits", 8),
        ("lx.app_cycles", 0),
        ("lx.ctx_switches", 0),
        ("lx.os_cycles", 0),
        ("lx.xfer_cycles", 0),
        ("m3.app_cycles", 0),
        ("noc.bytes", 812418),
        ("noc.transfers", 1688),
        ("noc.wait_cycles", 36566),
    ];
    const LX: [(&str, u64); 24] = [
        ("app.fft_cycles", 1228800),
        ("dtu.deposit_no_recv_ep", 0),
        ("dtu.mem_read_bytes", 0),
        ("dtu.mem_write_bytes", 0),
        ("dtu.msg_cycles", 0),
        ("dtu.msgs_delivered", 0),
        ("dtu.msgs_dropped", 0),
        ("dtu.msgs_sent", 0),
        ("dtu.replies_sent", 0),
        ("dtu.xfer_cycles", 0),
        ("kernel.ktk_bad_messages", 0),
        ("kernel.ktk_requests", 0),
        (keys::PAGE_FAULTS, 0),
        ("kernel.remote_placements", 0),
        ("kernel.syscalls", 0),
        ("kernel.vpe_exits", 0),
        ("lx.app_cycles", 1261568),
        ("lx.ctx_switches", 3),
        ("lx.os_cycles", 118390),
        ("lx.xfer_cycles", 153600),
        ("m3.app_cycles", 0),
        ("noc.bytes", 0),
        ("noc.transfers", 0),
        ("noc.wait_cycles", 0),
    ];

    let sys = composed_shards_overcommit_paging_run();
    let stats = sys.stats();
    let noc = sys.platform().dtu_system().noc().stats();
    let got: Vec<(&str, u64)> = M3
        .iter()
        .map(|&(name, _)| match name.starts_with("noc.") {
            true => (name, noc.get(name)),
            false => (name, stats.get(name)),
        })
        .collect();
    assert_eq!(got, M3);
    let metrics = sys.sim().metrics();
    assert_eq!(
        stats.get(keys::PAGE_FAULTS),
        metrics.total(keys::PAGE_FAULTS)
    );
    assert_eq!(
        stats.get("kernel.syscalls") + stats.get("kernel.ktk_requests"),
        metrics.total("kernel.syscalls") + metrics.total("kernel.ktk_requests")
    );
    assert_eq!(noc.get("noc.wait_cycles"), metrics.total(keys::NOC_WAIT));

    let machine = lx_fft_pipe_run();
    let stats = machine.stats();
    let got: Vec<(&str, u64)> = LX
        .iter()
        .map(|&(name, _)| (name, stats.get(name)))
        .collect();
    assert_eq!(got, LX);
}

#[test]
fn an_island_sized_boot_backs_no_spm_page() {
    // One shards-pdes island: 32 PEs and a 1024-block m3fs. Booting and
    // settling it writes the file system into DRAM, but nothing lands in
    // any PE's SPM, so the paged store allocates none of their pages.
    let sys = System::boot(SystemConfig {
        pes: 32,
        fs_blocks: 1024,
        ..SystemConfig::default()
    });
    assert_eq!(sys.run(), SimState::Finished);
    let platform = sys.platform();
    let dtus = platform.dtu_system();
    assert_eq!(platform.pe_count(), 32);
    let spm_pages: usize = (0..platform.pe_count() as u32)
        .map(|i| dtus.memory(PeId::new(i)).expect("SPM").pages_allocated())
        .sum();
    assert_eq!(spm_pages, 0);
    let dram = dtus.memory(platform.dram_pe()).expect("DRAM");
    assert!(dram.pages_allocated() * m3_dtu::PAGE_SIZE < dram.len() / 64);
}
