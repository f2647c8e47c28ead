use super::*;
use crate::protocol::{PeRequest, Syscall, SyscallReply};
use m3_base::{EpId, Perm, SelId};
use m3_platform::PlatformConfig;

/// Boot a kernel and one root VPE; send raw syscalls from the root PE.
fn boot() -> (Platform, Kernel, VpeBootInfo) {
    let platform = Platform::new(PlatformConfig::xtensa(4));
    let kernel = Kernel::start(&platform, PeId::new(0));
    let root = kernel.create_root("root", None).unwrap();
    (platform, kernel, root)
}

pub(super) async fn syscall(dtu: &Dtu, call: Syscall) -> SyscallReply {
    dtu.send(
        std_eps::SYSC_SEND,
        &call.to_bytes(),
        Some((std_eps::SYSC_REPLY, 0)),
    )
    .await
    .unwrap();
    let msg = dtu.recv(std_eps::SYSC_REPLY).await.unwrap();
    dtu.ack(std_eps::SYSC_REPLY).unwrap();
    SyscallReply::from_bytes(&msg.payload).unwrap()
}

#[test]
fn boot_downgrades_application_dtus() {
    let (platform, kernel, root) = boot();
    assert!(platform.dtu(kernel.pe()).is_privileged());
    assert!(!platform.dtu(root.pe).is_privileged());
    for i in 1..platform.pe_count() {
        assert!(!platform.dtu(PeId::new(i as u32)).is_privileged());
    }
}

#[test]
fn noop_syscall_replies_ok() {
    let (platform, _kernel, root) = boot();
    let sim = platform.sim().clone();
    let dtu = platform.dtu(root.pe);
    let h = sim.spawn("app", async move { syscall(&dtu, Syscall::Noop).await });
    sim.run();
    assert_eq!(h.try_take().unwrap(), SyscallReply::ok());
}

#[test]
fn alloc_and_derive_mem() {
    let (platform, _kernel, root) = boot();
    let sim = platform.sim().clone();
    let dtu = platform.dtu(root.pe);
    let h = sim.spawn("app", async move {
        let r = syscall(
            &dtu,
            Syscall::AllocMem {
                dst: SelId::new(1),
                size: 8192,
                perm: Perm::RW,
            },
        )
        .await;
        assert_eq!(r.error, None);
        // Derive a read-only sub-range.
        let r = syscall(
            &dtu,
            Syscall::DeriveMem {
                dst: SelId::new(2),
                src: SelId::new(1),
                offset: 4096,
                size: 4096,
                perm: Perm::R,
            },
        )
        .await;
        assert_eq!(r.error, None);
        // Deriving beyond the region fails.
        let r = syscall(
            &dtu,
            Syscall::DeriveMem {
                dst: SelId::new(3),
                src: SelId::new(1),
                offset: 8000,
                size: 4096,
                perm: Perm::R,
            },
        )
        .await;
        assert_eq!(r.error, Some(Code::InvArgs));
        // Escalating permissions fails.
        let r = syscall(
            &dtu,
            Syscall::DeriveMem {
                dst: SelId::new(3),
                src: SelId::new(2),
                offset: 0,
                size: 10,
                perm: Perm::RW,
            },
        )
        .await;
        assert_eq!(r.error, Some(Code::NoPerm));
    });
    sim.run();
    h.try_take().unwrap();
}

#[test]
fn activate_mem_gate_and_use_it() {
    let (platform, _kernel, root) = boot();
    let sim = platform.sim().clone();
    let dtu = platform.dtu(root.pe);
    let h = sim.spawn("app", async move {
        let r = syscall(
            &dtu,
            Syscall::AllocMem {
                dst: SelId::new(1),
                size: 4096,
                perm: Perm::RW,
            },
        )
        .await;
        assert_eq!(r.error, None);
        let r = syscall(
            &dtu,
            Syscall::Activate {
                vpe: SelId::new(0),
                ep: EpId::new(2),
                gate: SelId::new(1),
            },
        )
        .await;
        assert_eq!(r.error, None);
        dtu.write_mem(EpId::new(2), 0, &[7, 8, 9]).await.unwrap();
        dtu.read_mem(EpId::new(2), 0, 3).await.unwrap()
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), vec![7, 8, 9]);
}

#[test]
fn revoke_invalidates_endpoint() {
    let (platform, _kernel, root) = boot();
    let sim = platform.sim().clone();
    let dtu = platform.dtu(root.pe);
    let h = sim.spawn("app", async move {
        syscall(
            &dtu,
            Syscall::AllocMem {
                dst: SelId::new(1),
                size: 4096,
                perm: Perm::RW,
            },
        )
        .await;
        syscall(
            &dtu,
            Syscall::Activate {
                vpe: SelId::new(0),
                ep: EpId::new(2),
                gate: SelId::new(1),
            },
        )
        .await;
        dtu.write_mem(EpId::new(2), 0, &[1]).await.unwrap();
        let r = syscall(&dtu, Syscall::Revoke { sel: SelId::new(1) }).await;
        assert_eq!(r.error, None);
        dtu.write_mem(EpId::new(2), 0, &[1])
            .await
            .unwrap_err()
            .code()
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), Code::InvEp);
}

#[test]
fn revoked_mem_returns_to_allocator() {
    let (platform, kernel, root) = boot();
    let sim = platform.sim().clone();
    let dtu = platform.dtu(root.pe);
    let before = kernel.free_mem();
    let h = sim.spawn("app", async move {
        syscall(
            &dtu,
            Syscall::AllocMem {
                dst: SelId::new(1),
                size: 1 << 20,
                perm: Perm::RW,
            },
        )
        .await;
        syscall(&dtu, Syscall::Revoke { sel: SelId::new(1) }).await
    });
    sim.run();
    assert_eq!(h.try_take().unwrap().error, None);
    assert_eq!(kernel.free_mem(), before);
}

#[test]
fn create_vpe_allocates_pe_and_sysc_channel() {
    let (platform, kernel, root) = boot();
    let sim = platform.sim().clone();
    let dtu = platform.dtu(root.pe);
    let free_before = kernel.free_pes();
    let h = sim.spawn("app", async move {
        let r = syscall(
            &dtu,
            Syscall::CreateVpe {
                dst: SelId::new(1),
                mem_dst: SelId::new(2),
                pe: PeRequest::Same,
                name: "child".to_string(),
            },
        )
        .await;
        assert_eq!(r.error, None);
        let mut is = m3_base::marshal::IStream::new(&r.data);
        let _vpe = is.pop_u32().unwrap();
        is.pop_u32().unwrap()
    });
    sim.run();
    let child_pe = PeId::new(h.try_take().unwrap());
    assert_eq!(kernel.free_pes(), free_before - 1);
    // The child can immediately issue syscalls over its new channel.
    let sim2 = platform.sim().clone();
    let child_dtu = platform.dtu(child_pe);
    let h2 = sim2.spawn(
        "child",
        async move { syscall(&child_dtu, Syscall::Noop).await },
    );
    sim2.run();
    assert_eq!(h2.try_take().unwrap().error, None);
}

#[test]
fn exit_frees_pe_and_wakes_waiter() {
    let (platform, kernel, root) = boot();
    let sim = platform.sim().clone();
    let dtu = platform.dtu(root.pe);
    let kernel2 = kernel.clone();
    let h = sim.spawn("app", async move {
        let r = syscall(
            &dtu,
            Syscall::CreateVpe {
                dst: SelId::new(1),
                mem_dst: SelId::new(2),
                pe: PeRequest::Same,
                name: "child".to_string(),
            },
        )
        .await;
        let mut is = m3_base::marshal::IStream::new(&r.data);
        let _ = is.pop_u32().unwrap();
        let child_pe = PeId::new(is.pop_u32().unwrap());
        syscall(&dtu, Syscall::VpeStart { vpe: SelId::new(1) }).await;

        // The child runs, then exits with code 42.
        let child_dtu = kernel2.platform().dtu(child_pe);
        let sim = kernel2.platform().sim().clone();
        sim.spawn("child", async move {
            child_dtu
                .send(
                    std_eps::SYSC_SEND,
                    &Syscall::Exit { code: 42 }.to_bytes(),
                    None,
                )
                .await
                .unwrap();
        });

        let r = syscall(&dtu, Syscall::VpeWait { vpe: SelId::new(1) }).await;
        let mut is = m3_base::marshal::IStream::new(&r.data);
        is.pop_i64().unwrap()
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), 42);
    assert_eq!(kernel.free_pes(), 2); // 4 PEs - kernel - root
}

#[test]
fn rgates_are_not_delegable() {
    let (platform, _kernel, root) = boot();
    let sim = platform.sim().clone();
    let dtu = platform.dtu(root.pe);
    let h = sim.spawn("app", async move {
        syscall(
            &dtu,
            Syscall::CreateRGate {
                dst: SelId::new(1),
                slots: 4,
                slot_size: 256,
            },
        )
        .await;
        syscall(
            &dtu,
            Syscall::CreateVpe {
                dst: SelId::new(2),
                mem_dst: SelId::new(3),
                pe: PeRequest::Same,
                name: "child".to_string(),
            },
        )
        .await;
        // Delegating the rgate must fail.
        syscall(
            &dtu,
            Syscall::Exchange {
                vpe: SelId::new(2),
                own: SelId::new(1),
                other: SelId::new(10),
                obtain: false,
            },
        )
        .await
    });
    sim.run();
    assert_eq!(h.try_take().unwrap().error, Some(Code::NotSup));
}

#[test]
fn sgate_activation_defers_until_rgate_activated() {
    // Two VPEs: receiver creates rgate, sender obtains an sgate to it.
    // The sender activates first; the kernel must defer its reply until
    // the receiver activates the rgate (§4.5.4).
    let (platform, kernel, root) = boot();
    let sim = platform.sim().clone();
    let dtu = platform.dtu(root.pe);
    let kernel2 = kernel.clone();
    let h = sim.spawn("receiver", async move {
        // Create rgate + sgate, then a child VPE; delegate the sgate.
        syscall(
            &dtu,
            Syscall::CreateRGate {
                dst: SelId::new(1),
                slots: 4,
                slot_size: 256,
            },
        )
        .await;
        syscall(
            &dtu,
            Syscall::CreateSGate {
                dst: SelId::new(2),
                rgate: SelId::new(1),
                label: 0x77,
                credits: 2,
            },
        )
        .await;
        let r = syscall(
            &dtu,
            Syscall::CreateVpe {
                dst: SelId::new(3),
                mem_dst: SelId::new(4),
                pe: PeRequest::Same,
                name: "sender".to_string(),
            },
        )
        .await;
        let mut is = m3_base::marshal::IStream::new(&r.data);
        let _ = is.pop_u32().unwrap();
        let sender_pe = PeId::new(is.pop_u32().unwrap());
        syscall(
            &dtu,
            Syscall::Exchange {
                vpe: SelId::new(3),
                own: SelId::new(2),
                other: SelId::new(1),
                obtain: false,
            },
        )
        .await;

        // The sender starts now and activates its sgate immediately.
        let sender_dtu = kernel2.platform().dtu(sender_pe);
        let sim2 = kernel2.platform().sim().clone();
        let sent = sim2.spawn("sender", async move {
            let r = syscall(
                &sender_dtu,
                Syscall::Activate {
                    vpe: SelId::new(0),
                    ep: EpId::new(2),
                    gate: SelId::new(1),
                },
            )
            .await;
            assert_eq!(r.error, None);
            sender_dtu
                .send(EpId::new(2), b"deferred", None)
                .await
                .unwrap();
        });

        // Wait a while before activating the rgate: the sender's
        // activate syscall must be pending all along.
        let sim3 = kernel2.platform().sim().clone();
        sim3.sleep(m3_base::Cycles::new(5000)).await;
        let r = syscall(
            &dtu,
            Syscall::Activate {
                vpe: SelId::new(0),
                ep: EpId::new(2),
                gate: SelId::new(1),
            },
        )
        .await;
        assert_eq!(r.error, None);
        let msg = dtu.recv(EpId::new(2)).await.unwrap();
        dtu.ack(EpId::new(2)).unwrap();
        sent.join().await;
        (msg.header.label, msg.payload)
    });
    sim.run();
    let (label, payload) = h.try_take().unwrap();
    assert_eq!(label, 0x77);
    assert_eq!(payload, b"deferred");
}

#[test]
fn blocking_syscalls_reject_bad_arguments_with_their_error_codes() {
    // Each case is one early return of a handler that may block; the
    // setup gives the root a memory gate (1), an activated receive gate
    // (2) and a receive gate too large for the ring-buffer budget (3).
    let (platform, _kernel, root) = boot();
    let sim = platform.sim().clone();
    let dtu = platform.dtu(root.pe);
    let sel = SelId::new;
    let activate = move |vpe, ep, gate| Syscall::Activate {
        vpe: sel(vpe),
        ep: EpId::new(ep),
        gate: sel(gate),
    };
    let exchange_sess = |sess| Syscall::ExchangeSess {
        sess: sel(sess),
        obtain: true,
        caps: vec![sel(20)],
        args: Vec::new(),
    };
    let first_free = std_eps::FIRST_FREE;
    let ep_count = m3_base::cfg::EP_COUNT as u32;
    let cases = vec![
        (activate(0, first_free - 1, 1), Code::InvEp),
        (activate(0, ep_count, 1), Code::InvEp),
        (activate(9, first_free, 1), Code::InvCap),
        (activate(1, first_free, 1), Code::InvCap),
        (activate(0, first_free, 9), Code::InvCap),
        (activate(0, first_free, 0), Code::InvCap),
        (activate(0, first_free + 1, 2), Code::NotSup),
        (activate(0, first_free + 1, 3), Code::OutOfMem),
        (Syscall::VpeWait { vpe: sel(1) }, Code::InvCap),
        (
            Syscall::OpenSess {
                dst: sel(10),
                name: "nosuch".to_string(),
                arg: 0,
            },
            Code::InvService,
        ),
        (exchange_sess(1), Code::InvCap),
        (exchange_sess(9), Code::InvCap),
    ];
    let expected: Vec<Code> = cases.iter().map(|(_, code)| *code).collect();
    let h = sim.spawn("app", async move {
        let setup = [
            Syscall::AllocMem {
                dst: sel(1),
                size: 4096,
                perm: Perm::RW,
            },
            Syscall::CreateRGate {
                dst: sel(2),
                slots: 4,
                slot_size: 256,
            },
            activate(0, first_free, 2),
            Syscall::CreateRGate {
                dst: sel(3),
                slots: 64,
                slot_size: RINGBUF_SPM_BUDGET as u32,
            },
        ];
        for call in setup {
            assert_eq!(syscall(&dtu, call).await.error, None);
        }
        let mut got = Vec::new();
        for (call, _) in cases {
            got.push(syscall(&dtu, call).await.error);
        }
        got
    });
    sim.run();
    let got = h.try_take().unwrap();
    let want: Vec<Option<Code>> = expected.into_iter().map(Some).collect();
    assert_eq!(got, want);
}

#[test]
fn parked_wait_and_activate_do_not_stall_the_syscall_loop() {
    // The root parks in `VpeWait` on a live child, the child parks in
    // `Activate` of a send gate whose receive gate is never activated;
    // a third VPE's `Noop` must still be answered.
    let (platform, kernel, root) = boot();
    let sim = platform.sim().clone();
    let dtu = platform.dtu(root.pe);
    let parked = Rc::new(RefCell::new(Vec::new()));
    let parked2 = parked.clone();
    let h = sim.spawn("root", async move {
        let sel = SelId::new;
        let mut pes = Vec::new();
        for (dst, mem_dst, name) in [(3, 4, "activator"), (5, 6, "pinger")] {
            let r = syscall(
                &dtu,
                Syscall::CreateVpe {
                    dst: sel(dst),
                    mem_dst: sel(mem_dst),
                    pe: PeRequest::Same,
                    name: name.to_string(),
                },
            )
            .await;
            assert_eq!(r.error, None);
            let mut is = m3_base::marshal::IStream::new(&r.data);
            let _ = is.pop_u32().unwrap();
            pes.push(PeId::new(is.pop_u32().unwrap()));
            let r = syscall(&dtu, Syscall::VpeStart { vpe: sel(dst) }).await;
            assert_eq!(r.error, None);
        }
        for call in [
            Syscall::CreateRGate {
                dst: sel(1),
                slots: 4,
                slot_size: 256,
            },
            Syscall::CreateSGate {
                dst: sel(2),
                rgate: sel(1),
                label: 0,
                credits: 1,
            },
            Syscall::Exchange {
                vpe: sel(3),
                own: sel(2),
                other: sel(1),
                obtain: false,
            },
        ] {
            assert_eq!(syscall(&dtu, call).await.error, None);
        }
        let sim = kernel.platform().sim().clone();
        let activator = kernel.platform().dtu(pes[0]);
        parked2
            .borrow_mut()
            .push(sim.spawn("activator", async move {
                syscall(
                    &activator,
                    Syscall::Activate {
                        vpe: sel(0),
                        ep: EpId::new(std_eps::FIRST_FREE),
                        gate: sel(1),
                    },
                )
                .await
            }));
        let pinger = kernel.platform().dtu(pes[1]);
        let sim2 = sim.clone();
        let pinged = sim.spawn("pinger", async move {
            sim2.sleep(m3_base::Cycles::new(20_000)).await;
            syscall(&pinger, Syscall::Noop).await
        });
        parked2.borrow_mut().push(sim.spawn("waiter", async move {
            syscall(&dtu, Syscall::VpeWait { vpe: sel(3) }).await
        }));
        pinged.join().await
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), SyscallReply::ok());
    for task in parked.borrow().iter() {
        assert!(!task.is_finished());
    }
}

#[test]
fn truncated_ktk_frame_is_counted_and_spawns_nothing() {
    let (platform, kernel, _root) = boot();
    let sim = platform.sim().clone();
    kernel.set_shard(0, 2, &[(1, PeId::new(3))], Box::new(|_, _| {}));
    let frame = KtkMsg::RevokeVpe { vpe: 7 }.to_bytes(1, 0);
    let live = sim.live_regular();
    kernel.ktk_deliver(&frame[..frame.len() - 1]);
    assert_eq!(sim.stats().get("kernel.ktk_bad_messages"), 1);
    assert_eq!(sim.live_regular(), live);
    // The whole frame is a request: it does spawn its handler task.
    kernel.ktk_deliver(&frame);
    assert_eq!(sim.live_regular(), live + 1);
    assert_eq!(sim.stats().get("kernel.ktk_bad_messages"), 1);
}

#[test]
fn watchdog_destroys_vpe_on_crashed_pe() {
    use m3_fault::{FaultPlan, FaultPlane};

    let (platform, kernel, root) = boot();
    let sim = platform.sim().clone();
    let plane = Rc::new(FaultPlane::new(
        FaultPlan::new().crash_pe(root.pe, m3_base::Cycles::new(10_000)),
    ));
    platform.dtu_system().set_faults(plane.clone());
    kernel.attach_faults(&plane);

    let vpe_obj = kernel.state.vpe(root.vpe).unwrap();
    assert!(vpe_obj.borrow().is_alive());
    let sim2 = sim.clone();
    let h = sim.spawn("observer", async move {
        sim2.sleep_until(m3_base::Cycles::new(30_000)).await;
    });
    sim.run();
    h.try_take().unwrap();
    // One probe period after the crash, the watchdog tore the VPE down:
    // dead state, capabilities revoked, syscall channel invalidated.
    assert!(!vpe_obj.borrow().is_alive());
    assert_eq!(kernel.free_pes(), 3); // 4 PEs - kernel; root's was freed
}

#[test]
fn unresponsive_service_yields_unreachable_under_faults() {
    use m3_fault::{FaultPlan, FaultPlane};

    let (platform, kernel, root) = boot();
    let sim = platform.sim().clone();
    // An armed (even empty) plane switches the kernel to bounded waits.
    platform
        .dtu_system()
        .set_faults(Rc::new(FaultPlane::new(FaultPlan::new())));
    let dtu = platform.dtu(root.pe);
    let h = sim.spawn("app", async move {
        let r = syscall(
            &dtu,
            Syscall::CreateRGate {
                dst: SelId::new(1),
                slots: 4,
                slot_size: 256,
            },
        )
        .await;
        assert_eq!(r.error, None);
        let r = syscall(
            &dtu,
            Syscall::Activate {
                vpe: SelId::new(0),
                ep: EpId::new(2),
                gate: SelId::new(1),
            },
        )
        .await;
        assert_eq!(r.error, None);
        let r = syscall(
            &dtu,
            Syscall::CreateSrv {
                dst: SelId::new(2),
                rgate: SelId::new(1),
                name: "mute".to_string(),
            },
        )
        .await;
        assert_eq!(r.error, None);
        // The service never serves its gate: the kernel must give up
        // after its bounded retries instead of hanging the opener.
        syscall(
            &dtu,
            Syscall::OpenSess {
                dst: SelId::new(3),
                name: "mute".to_string(),
                arg: 0,
            },
        )
        .await
    });
    sim.run();
    assert_eq!(h.try_take().unwrap().error, Some(Code::Unreachable));
    // All retries were spent before the error came back.
    assert!(sim.now().as_u64() >= 3 * costs::SERVICE_TIMEOUT.as_u64());
    assert!(kernel.serv_requests.entries.borrow().is_empty());
}
