//! Multiple kernel instances (paper §7, future work).
//!
//! Two layers of tests:
//!
//! 1. *Unconnected partitions* — two kernels each owning half the PEs and
//!    half the DRAM, each running its own m3fs instance: no shared state,
//!    no cross-kernel synchronization, and exhaustion in one partition
//!    never touches the other.
//! 2. *Connected shards* — the same partitioned kernels wired together by
//!    the kernel-to-kernel (ktk) protocol (a [`System`] with `shards > 1`): spill-over
//!    placement on `NoFreePe`, cross-shard capability delegation and
//!    revocation, remote exit-code propagation, and cross-shard service
//!    sessions, all while each shard keeps its own capability space.

use m3::{System, SystemConfig};
use m3_base::error::Code;
use m3_base::{Cycles, PeId, Perm};
use m3_fs::{mount_m3fs, run_m3fs, SetupNode};
use m3_kernel::protocol::PeRequest;
use m3_kernel::{Kernel, KernelConfig, PAGE_SIZE};
use m3_libos::addrspace::AddrSpace;
use m3_libos::{start_program, vfs, Env, MemGate, ProgramRegistry, RecvGate, SendGate, Vpe};
use m3_platform::{PeType, Platform, PlatformConfig};
use m3_sim::SimState;

/// Builds a platform split between two kernels: PEs 0..4 for kernel A,
/// 4..8 for kernel B, each with its own m3fs.
fn boot_two_partitions() -> (Platform, Kernel, Kernel) {
    let platform = Platform::new(PlatformConfig::xtensa(8));
    let dram = 64 * 1024 * 1024u64;
    let owned_a: Vec<PeId> = (0..4).map(PeId::new).collect();
    let owned_b: Vec<PeId> = (4..8).map(PeId::new).collect();
    let kernel_a = Kernel::start_partition(
        &platform,
        PeId::new(0),
        &owned_a,
        0,
        dram / 2,
        KernelConfig::default(),
    );
    let kernel_b = Kernel::start_partition(
        &platform,
        PeId::new(4),
        &owned_b,
        dram / 2,
        dram / 2,
        KernelConfig::default(),
    );

    for kernel in [&kernel_a, &kernel_b] {
        let reg = ProgramRegistry::new();
        let info = kernel.create_root("m3fs", None).unwrap();
        let env = Env::new(kernel, &info, reg);
        platform
            .sim()
            .spawn_daemon(format!("m3fs@{}", kernel.pe()), async move {
                run_m3fs(env, 4096, Vec::new()).await.unwrap();
            });
    }
    (platform, kernel_a, kernel_b)
}

#[test]
fn both_partitions_serve_their_own_applications() {
    let (platform, kernel_a, kernel_b) = boot_two_partitions();

    let job_a = start_program(
        &kernel_a,
        "app-a",
        None,
        ProgramRegistry::new(),
        |env| async move {
            mount_m3fs(&env).await.unwrap();
            vfs::write_all(&env, "/who", b"partition A").await.unwrap();
            vfs::read_to_vec(&env, "/who").await.unwrap().len() as i64
        },
    );
    let job_b = start_program(
        &kernel_b,
        "app-b",
        None,
        ProgramRegistry::new(),
        |env| async move {
            mount_m3fs(&env).await.unwrap();
            vfs::write_all(&env, "/who", b"B").await.unwrap();
            vfs::read_to_vec(&env, "/who").await.unwrap().len() as i64
        },
    );

    platform.sim().run();
    platform.sim().settle(Cycles::new(1_000_000));
    // Each partition saw only its own file: different lengths prove the
    // namespaces are disjoint (separate m3fs instances).
    assert_eq!(job_a.try_take().unwrap(), 11);
    assert_eq!(job_b.try_take().unwrap(), 1);
}

#[test]
fn partitions_cannot_exhaust_each_others_pes() {
    let (platform, kernel_a, kernel_b) = boot_two_partitions();

    // Partition A: kernel PE + fs PE used; 2 left. Grabbing three VPEs must
    // fail on the third even though partition B has free PEs.
    let job = start_program(
        &kernel_a,
        "greedy",
        None,
        ProgramRegistry::new(),
        |env| async move {
            let _v1 = Vpe::new(&env, "v1", PeRequest::Same).await.unwrap();
            let err = Vpe::new(&env, "v2", PeRequest::Same).await.unwrap_err();
            assert_eq!(err.code(), Code::NoFreePe);
            0
        },
    );
    let _keep_b_alive = &kernel_b;
    platform.sim().run();
    platform.sim().settle(Cycles::new(1_000_000));
    assert_eq!(job.try_take().unwrap(), 0);
    // B's pool is untouched: kernel + fs used, 2 free.
    assert_eq!(kernel_b.free_pes(), 2);
}

#[test]
fn partitioned_vpes_land_inside_their_partition() {
    let (platform, kernel_a, kernel_b) = boot_two_partitions();
    let job_a = start_program(
        &kernel_a,
        "a",
        None,
        ProgramRegistry::new(),
        |env| async move {
            let vpe = Vpe::new(&env, "child", PeRequest::Same).await.unwrap();
            let pe = vpe.pe().raw() as i64;
            vpe.revoke().await.unwrap();
            pe
        },
    );
    let job_b = start_program(
        &kernel_b,
        "b",
        None,
        ProgramRegistry::new(),
        |env| async move {
            let vpe = Vpe::new(&env, "child", PeRequest::Same).await.unwrap();
            let pe = vpe.pe().raw() as i64;
            vpe.revoke().await.unwrap();
            pe
        },
    );
    platform.sim().run();
    platform.sim().settle(Cycles::new(1_000_000));
    let pe_a = job_a.try_take().unwrap();
    let pe_b = job_b.try_take().unwrap();
    assert!((0..4).contains(&pe_a), "A's child on A's PEs: {pe_a}");
    assert!((4..8).contains(&pe_b), "B's child on B's PEs: {pe_b}");
}

#[test]
fn dram_partitions_are_disjoint() {
    let (platform, kernel_a, kernel_b) = boot_two_partitions();
    // Exhausting A's half of the DRAM must not affect B's.
    let job_a = start_program(
        &kernel_a,
        "hog",
        None,
        ProgramRegistry::new(),
        |env| async move {
            // The fs took 4 MiB; grab most of the rest of A's 32 MiB half.
            let big = m3_libos::MemGate::alloc(&env, 24 << 20, m3_base::Perm::RW).await;
            assert!(big.is_ok());
            let too_much = m3_libos::MemGate::alloc(&env, 8 << 20, m3_base::Perm::RW).await;
            assert_eq!(too_much.map(|_| ()).unwrap_err().code(), Code::OutOfMem);
            0
        },
    );
    let job_b = start_program(
        &kernel_b,
        "fine",
        None,
        ProgramRegistry::new(),
        |env| async move {
            // B still has plenty.
            let ok = m3_libos::MemGate::alloc(&env, 16 << 20, m3_base::Perm::RW).await;
            assert!(ok.is_ok());
            0
        },
    );
    platform.sim().run();
    platform.sim().settle(Cycles::new(1_000_000));
    assert_eq!(job_a.try_take().unwrap(), 0);
    assert_eq!(job_b.try_take().unwrap(), 0);
}

// ---------------------------------------------------------------------------
// Connected shards: the ktk protocol on top of the same partitioned kernels.
// ---------------------------------------------------------------------------

/// A small two-shard machine where shard 0's single application PE is taken
/// by the test program itself — every further `CREATE_VPE` hits `NoFreePe`
/// locally and must spill over the ktk gate.
fn tight_two_shards() -> System {
    System::boot(SystemConfig {
        pes: 6,
        shards: 2,
        fs_blocks: 4096,
        ..SystemConfig::default()
    })
}

#[test]
fn sharded_boot_smoke_4_shards_64_pes() {
    let sys = System::boot(SystemConfig {
        pes: 64,
        shards: 4,
        fs_blocks: 1024,
        ..SystemConfig::default()
    });
    // The carve is exact: four slices of 16, kernels on 0/16/32/48, every
    // kernel wired into the shard fabric under its slice id.
    assert_eq!(sys.plan().shard_count(), 4);
    for (i, slice) in sys.plan().slices.iter().enumerate() {
        assert_eq!(slice.pe_count, 16);
        assert_eq!(slice.kernel_pe(), PeId::new(16 * i as u32));
        let ctx = sys.kernels()[i].shard_ctx().expect("shard context");
        assert_eq!(ctx.id(), i as u32);
        assert_eq!(ctx.count(), 4);
    }
    // Every shard serves its own applications through its own m3fs.
    let jobs: Vec<_> = (0..4)
        .map(|shard| {
            sys.run_program_on(shard, "app", move |env| async move {
                mount_m3fs(&env).await.unwrap();
                let body = vec![shard as u8; shard + 1];
                vfs::write_all(&env, "/who", &body).await.unwrap();
                vfs::read_to_vec(&env, "/who").await.unwrap().len() as i64
            })
        })
        .collect();
    assert_eq!(sys.run(), SimState::Finished);
    for (shard, job) in jobs.into_iter().enumerate() {
        assert_eq!(job.try_take().unwrap(), shard as i64 + 1);
    }
}

#[test]
fn single_shard_system_attaches_no_shard_context() {
    let sys = System::boot(SystemConfig {
        pes: 6,
        shards: 1,
        fs_blocks: 4096,
        ..SystemConfig::default()
    });
    // One kernel is not a multikernel: the standalone code path, with no
    // shard context and no spill-over — NoFreePe stays NoFreePe.
    assert!(sys.kernels()[0].shard_ctx().is_none());
    let job = sys.run_program_on(0, "greedy", |env| async move {
        let mut held = Vec::new();
        for i in 0.. {
            match Vpe::new(&env, "v", PeRequest::Same).await {
                Ok(vpe) => held.push(vpe),
                Err(e) => {
                    assert_eq!(e.code(), Code::NoFreePe);
                    return i;
                }
            }
        }
        unreachable!()
    });
    assert_eq!(sys.run(), SimState::Finished);
    // 6 PEs minus kernel, fs, and the program itself: 3 VPEs fit.
    assert_eq!(job.try_take().unwrap(), 3);
}

#[test]
fn spill_over_places_on_peer_shard() {
    let sys = tight_two_shards();
    let peer = sys.plan().slices[1].clone();
    let job = sys.run_program_on(0, "spill", move |env| async move {
        // Shard 0's only free PE is occupied by this program: the local
        // kernel answers NoFreePe and forwards to shard 1.
        let vpe = Vpe::new(&env, "child", PeRequest::Same).await.unwrap();
        assert!(
            peer.contains(vpe.pe()),
            "spilled VPE on {:?}, outside peer slice",
            vpe.pe()
        );
        vpe.revoke().await.unwrap();
        0
    });
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(job.try_take().unwrap(), 0);
    assert_eq!(sys.sim().stats().get("kernel.remote_placements"), 1);
    // The remote revoke freed the peer's PE again.
    assert_eq!(sys.kernels()[1].free_pes(), 1);
}

#[test]
fn remote_child_runs_and_returns_exit_code() {
    let sys = tight_two_shards();
    let job = sys.run_program_on(0, "parent", |env| async move {
        let vpe = Vpe::new(&env, "child", PeRequest::Same).await.unwrap();
        // The child's syscalls go to shard 1's kernel (which configured its
        // channel); the parent's start/wait go through the ktk proxy.
        vpe.run(|child_env| async move { child_env.pe().raw() as i64 })
            .await
            .unwrap();
        let code = vpe.wait().await.unwrap();
        vpe.revoke().await.unwrap();
        code
    });
    assert_eq!(sys.run(), SimState::Finished);
    // The exit code is the child's PE id — inside shard 1's slice (3..6).
    let pe = job.try_take().unwrap();
    assert!((3..6).contains(&pe), "remote child ran on PE {pe}");
}

#[test]
fn spill_prefers_least_loaded_peer() {
    // 11 PEs in 3 shards carve wide-first into 4/4/3: after boot, shard 1
    // advertises more free PEs than shard 2.
    let sys = System::boot(SystemConfig {
        pes: 11,
        shards: 3,
        fs_blocks: 4096,
        ..SystemConfig::default()
    });
    let (s1, s2) = (sys.plan().slices[1].clone(), sys.plan().slices[2].clone());
    let job = sys.run_program_on(0, "spiller", move |env| async move {
        // Shard 0 has one free PE left; the first create takes it.
        let local = Vpe::new(&env, "l", PeRequest::Same).await.unwrap();
        // Spill 1 goes to the peer with the most free PEs: shard 1.
        let a = Vpe::new(&env, "a", PeRequest::Same).await.unwrap();
        assert!(s1.contains(a.pe()), "first spill on {:?}", a.pe());
        // Its reply refreshed shard 1's load; shard 2 now looks emptier.
        let b = Vpe::new(&env, "b", PeRequest::Same).await.unwrap();
        assert!(s2.contains(b.pe()), "second spill on {:?}", b.pe());
        // Back to shard 1 for its last PE, then the machine is full.
        let c = Vpe::new(&env, "c", PeRequest::Same).await.unwrap();
        assert!(s1.contains(c.pe()), "third spill on {:?}", c.pe());
        let err = Vpe::new(&env, "d", PeRequest::Same).await.unwrap_err();
        assert_eq!(err.code(), Code::NoFreePe);
        for vpe in [local, a, b, c] {
            vpe.revoke().await.unwrap();
        }
        0
    });
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(job.try_take().unwrap(), 0);
    assert_eq!(sys.sim().stats().get("kernel.remote_placements"), 3);
}

#[test]
fn cross_shard_delegation_round_trip() {
    let sys = tight_two_shards();
    let job = sys.run_program_on(0, "parent", |env| async move {
        let vpe = Vpe::new(&env, "child", PeRequest::Same).await.unwrap();
        // §4.5.3 exchange across the shard boundary: the memory capability
        // lives in shard 0's table, its copy lands in the child's table on
        // shard 1 via the ktk DelegateCap leg.
        let mem = MemGate::alloc(&env, 4096, Perm::RW).await.unwrap();
        mem.write(0, b"ping").await.unwrap();
        let child_sel = vpe.delegate(mem.sel()).await.unwrap();
        vpe.run(move |child_env| async move {
            let mem = MemGate::bind(&child_env, child_sel);
            let got = mem.read(0, 4).await.unwrap();
            assert_eq!(got, b"ping");
            mem.write(0, b"pong").await.unwrap();
            1
        })
        .await
        .unwrap();
        assert_eq!(vpe.wait().await.unwrap(), 1);
        // The child's write through the delegated capability is visible to
        // the parent: same DRAM, two capability spaces.
        let back = mem.read(0, 4).await.unwrap();
        assert_eq!(back, b"pong");
        vpe.revoke().await.unwrap();
        0
    });
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(job.try_take().unwrap(), 0);
}

#[test]
fn cross_shard_revocation_cuts_access() {
    let sys = tight_two_shards();
    let job = sys.run_program_on(0, "parent", |env| async move {
        let vpe = Vpe::new(&env, "child", PeRequest::Same).await.unwrap();
        let mem = MemGate::alloc(&env, 4096, Perm::RW).await.unwrap();
        mem.write(0, b"live").await.unwrap();
        let child_sel = vpe.delegate(mem.sel()).await.unwrap();
        vpe.run(move |child_env| async move {
            let mem = MemGate::bind(&child_env, child_sel);
            // First read works: the delegated capability is in place.
            assert_eq!(mem.read(0, 4).await.unwrap(), b"live");
            // By the second read the parent has revoked: the kernel-to-
            // kernel RevokeCap leg must have invalidated this endpoint.
            child_env.compute(Cycles::new(300_000)).await;
            match mem.read(0, 4).await {
                Ok(_) => 0,
                Err(_) => 42,
            }
        })
        .await
        .unwrap();
        env.compute(Cycles::new(50_000)).await;
        mem.revoke().await.unwrap();
        let code = vpe.wait().await.unwrap();
        vpe.revoke().await.unwrap();
        code
    });
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(job.try_take().unwrap(), 42);
}

#[test]
fn recv_gate_delegation_is_refused_across_shards() {
    let sys = tight_two_shards();
    let job = sys.run_program_on(0, "parent", |env| async move {
        let vpe = Vpe::new(&env, "child", PeRequest::Same).await.unwrap();
        // §4.5.4: receive capabilities are not delegable — and the shard
        // boundary gives no way around it.
        let rgate = RecvGate::new(&env, 4, 256).await.unwrap();
        let err = vpe.delegate(rgate.sel()).await.unwrap_err();
        assert_eq!(err.code(), Code::NotSup);
        vpe.revoke().await.unwrap();
        0
    });
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(job.try_take().unwrap(), 0);
}

#[test]
fn delegated_send_gate_works_across_shards() {
    let sys = tight_two_shards();
    let job = sys.run_program_on(0, "parent", |env| async move {
        let vpe = Vpe::new(&env, "child", PeRequest::Same).await.unwrap();
        let rgate = RecvGate::new(&env, 4, 256).await.unwrap();
        let sgate = SendGate::new(&env, &rgate, 7, 0).await.unwrap();
        // The send capability crosses the shard as (pe, ep, label): the
        // child on shard 1 then messages the parent's gate directly over
        // the NoC, no kernel on the path.
        let child_sel = vpe.delegate(sgate.sel()).await.unwrap();
        vpe.run(move |child_env| async move {
            let sgate = SendGate::bind(&child_env, child_sel);
            sgate.send(b"ping from afar", None).await.unwrap();
            0
        })
        .await
        .unwrap();
        let msg = rgate.recv().await.unwrap();
        assert_eq!(msg.payload, b"ping from afar");
        assert_eq!(msg.label(), 7);
        vpe.wait().await.unwrap();
        vpe.revoke().await.unwrap();
        0
    });
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(job.try_take().unwrap(), 0);
}

#[test]
fn remote_mount_reaches_peer_filesystem() {
    // Hand-built asymmetric pair: only shard B runs an m3fs. Shard A's
    // OpenSess finds no local service and forwards over the ktk gate; the
    // session's gates (send gate + file memory) are delegated back.
    let platform = Platform::new(PlatformConfig::xtensa(8));
    let dram = 64 * 1024 * 1024u64;
    let owned_a: Vec<PeId> = (0..4).map(PeId::new).collect();
    let owned_b: Vec<PeId> = (4..8).map(PeId::new).collect();
    let kernel_a = Kernel::start_partition(
        &platform,
        PeId::new(0),
        &owned_a,
        0,
        dram / 2,
        KernelConfig::default(),
    );
    let kernel_b = Kernel::start_partition(
        &platform,
        PeId::new(4),
        &owned_b,
        dram / 2,
        dram / 2,
        KernelConfig::default(),
    );
    Kernel::connect_shards(&[kernel_a.clone(), kernel_b.clone()]);

    let info = kernel_b.create_root("m3fs", None).unwrap();
    let fs_env = Env::new(&kernel_b, &info, ProgramRegistry::new());
    platform.sim().spawn_daemon("m3fs@b", async move {
        run_m3fs(fs_env, 4096, Vec::new()).await.unwrap();
    });

    let job = start_program(
        &kernel_a,
        "remote-mount",
        None,
        ProgramRegistry::new(),
        |env| async move {
            mount_m3fs(&env).await.unwrap();
            vfs::write_all(&env, "/from-a", b"written across shards")
                .await
                .unwrap();
            vfs::read_to_vec(&env, "/from-a").await.unwrap().len() as i64
        },
    );
    assert_eq!(platform.sim().run(), SimState::Finished);
    platform.sim().settle(Cycles::new(1_000_000));
    assert_eq!(job.try_take().unwrap(), 21);
}

#[test]
fn per_shard_accounting_sums_to_global() {
    let sys = System::boot(SystemConfig {
        pes: 12,
        shards: 3,
        fs_blocks: 4096,
        ..SystemConfig::default()
    });
    let jobs: Vec<_> = (0..3)
        .map(|shard| {
            sys.run_program_on(shard, "work", |env| async move {
                for _ in 0..2 {
                    let vpe = Vpe::new(&env, "v", PeRequest::Same).await.unwrap();
                    vpe.revoke().await.unwrap();
                }
                0
            })
        })
        .collect();
    assert_eq!(sys.run(), SimState::Finished);
    for job in jobs {
        assert_eq!(job.try_take().unwrap(), 0);
    }
    // Shard-tagged kernel-op metrics: only kernel PEs count kernel ops, so
    // the per-shard counters must sum exactly to the global total.
    let metrics = sys.sim().metrics();
    let total = metrics.total(m3_sim::keys::KERNEL_OPS);
    let per_shard: u64 = sys
        .plan()
        .slices
        .iter()
        .map(|s| metrics.get(s.kernel_pe(), m3_sim::keys::KERNEL_OPS))
        .sum();
    assert_eq!(per_shard, total);
    for slice in &sys.plan().slices {
        assert!(metrics.get(slice.kernel_pe(), m3_sim::keys::KERNEL_OPS) > 0);
        // Everything released: each shard is back to kernel + fs used.
        assert_eq!(sys.kernels()[slice.shard as usize].free_pes(), 2);
    }
}

#[test]
fn paging_overcommit_and_dirty_switches_compose_with_shards() {
    // Every kernel policy at once on a two-shard machine. Each slice has
    // 4 PEs: kernel, m3fs, a driver and one client PE, so the three paging
    // clients per shard outnumber the shard's two application PEs and
    // time-share the client PE, while a 4-frame resident set makes their
    // 8-page address spaces page.
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
    let free_after_boot: Vec<u64> = sys.kernels().iter().map(|k| k.free_mem()).collect();
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
    let metrics = sys.sim().metrics();
    for slice in &sys.plan().slices {
        for key in [
            m3_sim::keys::CTX_SWITCHES,
            m3_sim::keys::DIRTY_PAGES_SAVED,
            m3_sim::keys::PAGE_FAULTS,
        ] {
            let sum: u64 = slice.pes().iter().map(|pe| metrics.get(*pe, key)).sum();
            assert!(sum > 0, "shard {}: no {key}", slice.shard);
        }
    }
    // Frames, swap regions and save areas all went back; only each m3fs
    // region, allocated once its service started, is still held.
    let fs_region = 4096 * 1024;
    for (kernel, free) in sys.kernels().iter().zip(free_after_boot) {
        assert_eq!(kernel.free_mem(), free - fs_region);
    }
}

#[test]
fn accelerators_join_the_last_shard_and_take_spills() {
    let sys = System::boot(SystemConfig {
        pes: 6,
        shards: 2,
        accel_pes: 1,
        ..SystemConfig::default()
    });
    let accel = sys.platform().pes_of_type(PeType::FftAccel)[0];
    assert_eq!(sys.plan().shard_of(accel), Some(1));
    let job = sys.run_program_on(0, "fft-user", move |env| async move {
        // Shard 0 owns no accelerator: the request spills to shard 1.
        let vpe = Vpe::new(&env, "fft", PeRequest::Type(PeType::FftAccel))
            .await
            .unwrap();
        let pe = vpe.pe();
        vpe.revoke().await.unwrap();
        pe.raw() as i64
    });
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(job.try_take(), Some(accel.raw() as i64));
    assert_eq!(sys.stats().get("kernel.remote_placements"), 1);
}
