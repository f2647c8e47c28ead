//! Kernel-record lifetime: a consistency check over the kernel's state,
//! and create/revoke cases that run it after every step, on one kernel and
//! on two shards whose every child spills to the peer.
//!
//! The check holds when every derivation-tree node is an entry in some
//! capability table, every table entry is in the tree, every VPE record
//! is alive or named by a capability (a local one, or a peer shard's
//! `RemoteVpe` proxy), and every capability to a PE's SPM derives from a
//! VPE capability or proxy, so that revoking the VPE revokes it too, and
//! no request to a service or peer shard outlives its wait. A shard that
//! a peer declared dead is left out: its state froze when its kernel PE
//! crashed.

use std::collections::BTreeSet;

use super::state::Census;
use super::tests::syscall;
use super::*;
use crate::protocol::{PeRequest, Syscall, SyscallReply};
use m3_base::{Perm, SelId};
use m3_platform::PlatformConfig;

fn census(k: &Kernel) -> Census {
    k.state.census()
}

/// Asserts the consistency of `kernels`: one kernel, or the shards of one
/// multikernel in shard-id order. Call it when no ktk message is in
/// flight, so that every `RevokeVpe` sent has arrived.
fn assert_consistent(kernels: &[Kernel]) {
    let dead = |shard: usize| {
        kernels
            .iter()
            .any(|k| k.shard_ctx().is_some_and(|ctx| ctx.is_dead(shard as u32)))
    };
    let live: Vec<&Kernel> = (0..kernels.len())
        .filter(|s| !dead(*s))
        .map(|s| &kernels[s])
        .collect();
    // `(home shard, VPE)` of every proxy, over the live shards.
    let proxies: BTreeSet<(u32, u32)> = live.iter().flat_map(|k| k.state.proxies()).collect();
    for k in &live {
        let shard = k.shard_ctx().map_or(0, |ctx| ctx.id());
        k.state.assert_consistent(
            |vpe| proxies.contains(&(shard, vpe.raw())),
            |vpe| k.sched.borrow().manages(vpe),
        );
        let serv_requests = k.serv_requests.entries.borrow();
        assert!(
            serv_requests.is_empty(),
            "service requests {:?} outlived their wait",
            serv_requests.keys()
        );
        if let Some(ctx) = k.shard_ctx() {
            let ktk = ctx.requests.entries.borrow();
            assert!(
                ktk.is_empty(),
                "ktk requests {:?} outlived their wait",
                ktk.keys()
            );
        }
    }
    for (shard, vpe) in &proxies {
        if dead(*shard as usize) {
            continue;
        }
        assert!(
            kernels[*shard as usize].vpe_obj(VpeId::new(*vpe)).is_some(),
            "a proxy names V{vpe} of shard {shard}, whose record is gone"
        );
    }
}

/// Kernels on one platform with a root VPE on the first, driven one
/// syscall at a time; every step runs the simulation until it settles and
/// then checks the kernels.
struct Rig {
    platform: Platform,
    kernels: Vec<Kernel>,
    root: PeId,
    root_vpe: VpeId,
}

impl Rig {
    /// One kernel on four PEs: room for two children besides the root.
    fn single() -> Rig {
        Rig::single_of(4)
    }

    /// One kernel on `pes` PEs: room for `pes - 2` children.
    fn single_of(pes: usize) -> Rig {
        let platform = Platform::new(PlatformConfig::xtensa(pes));
        let kernel = Kernel::start(&platform, PeId::new(0));
        Rig::with_root(platform, vec![kernel])
    }

    /// Two shards on five PEs: shard 0 owns its kernel's PE and the
    /// root's, so every child the root creates is placed by shard 1, on
    /// one of its two application PEs.
    fn spilled() -> Rig {
        Rig::two_shards(2, 5, None)
    }

    /// Two shards on `pes` PEs: shard 0 owns the first `split`, its
    /// kernel's and the root's among them, and shard 1 the rest, its
    /// kernel on the first. With `crash`, shard 0's kernel PE crashes at
    /// that cycle and shard 1's watchdog declares it dead.
    fn two_shards(split: u32, pes: u32, crash: Option<Cycles>) -> Rig {
        let platform = Platform::new(PlatformConfig::xtensa(pes as usize));
        let plane = crash.map(|at| {
            let plan = m3_fault::FaultPlan::new().crash_pe(PeId::new(0), at);
            Rc::new(m3_fault::FaultPlane::new(plan))
        });
        if let Some(plane) = &plane {
            platform.dtu_system().set_faults(plane.clone());
        }
        let half = platform.dram_size() as u64 / 2;
        let range = |r: std::ops::Range<u32>| r.map(PeId::new).collect::<Vec<_>>();
        let cfg = KernelConfig::default();
        let kernels = vec![
            Kernel::start_partition(&platform, PeId::new(0), &range(0..split), 0, half, cfg),
            Kernel::start_partition(
                &platform,
                PeId::new(split),
                &range(split..pes),
                half,
                half,
                cfg,
            ),
        ];
        Kernel::connect_shards(&kernels);
        if let Some(plane) = &plane {
            for k in &kernels {
                k.attach_faults(plane);
            }
        }
        Rig::with_root(platform, kernels)
    }

    fn with_root(platform: Platform, kernels: Vec<Kernel>) -> Rig {
        let root = kernels[0].create_root("root", None).unwrap();
        let rig = Rig {
            platform,
            kernels,
            root: root.pe,
            root_vpe: root.vpe,
        };
        rig.settle();
        rig
    }

    /// Runs the step, then lets the kernels finish what it left in flight
    /// (an exit has no reply, a `RevokeVpe` is fire-and-forget).
    fn settle(&self) {
        let sim = self.platform.sim();
        sim.run();
        sim.settle(Cycles::new(1_000_000));
        assert_consistent(&self.kernels);
    }

    /// Runs `body` on the DTU of `pe` as one step; returns its result.
    fn on<F: std::future::Future + 'static>(
        &self,
        pe: PeId,
        body: impl FnOnce(Dtu) -> F,
    ) -> F::Output {
        let h = self
            .platform
            .sim()
            .spawn("step", body(self.platform.dtu(pe)));
        self.settle();
        h.try_take().expect("the step finished")
    }

    fn call(&self, pe: PeId, call: Syscall) -> SyscallReply {
        self.on(pe, |dtu| async move { syscall(&dtu, call).await })
    }

    fn ok(&self, pe: PeId, call: Syscall) -> Vec<u8> {
        let reply = self.call(pe, call);
        assert_eq!(reply.error, None);
        reply.data
    }

    /// The child on `pe` exits with `code`; exit has no reply.
    fn exit(&self, pe: PeId, code: i64) {
        let dtu = self.platform.dtu(pe);
        self.platform.sim().spawn("exit", async move {
            let call = Syscall::Exit { code }.to_bytes();
            dtu.send(std_eps::SYSC_SEND, &call, None).await.unwrap();
        });
        self.settle();
    }

    /// Creates a child into selectors 1 (VPE) and 2 (its SPM) of the root
    /// and starts it; returns its id (in its kernel's namespace) and PE.
    fn create_child(&self) -> (VpeId, PeId) {
        let data = self.ok(
            self.root,
            Syscall::CreateVpe {
                dst: SelId::new(1),
                mem_dst: SelId::new(2),
                pe: PeRequest::Same,
                name: "child".to_string(),
            },
        );
        self.ok(self.root, Syscall::VpeStart { vpe: SelId::new(1) });
        let mut is = m3_base::marshal::IStream::new(&data);
        (
            VpeId::new(is.pop_u32().unwrap()),
            PeId::new(is.pop_u32().unwrap()),
        )
    }

    /// Lets the simulated clock run to `at` with no step in flight.
    fn idle_until(&self, at: Cycles) {
        let sim = self.platform.sim().clone();
        self.on(self.root, move |_| async move { sim.sleep_until(at).await });
    }

    fn wait_child(&self) -> i64 {
        let data = self.ok(self.root, Syscall::VpeWait { vpe: SelId::new(1) });
        m3_base::marshal::IStream::new(&data).pop_i64().unwrap()
    }

    /// Revokes the child's VPE capability (selector 1), which takes the
    /// capability to its SPM (selector 2) with it.
    fn revoke_child(&self) {
        self.ok(self.root, Syscall::Revoke { sel: SelId::new(1) });
        assert!(
            self.kernels[0]
                .state
                .obj((self.root_vpe, SelId::new(2)))
                .is_err(),
            "the SPM capability outlived its VPE"
        );
    }

    /// One create/revoke round: the child pins a receive gate on one of
    /// its endpoints (an `ep_owners` entry keyed by it), exits, is waited
    /// on and revoked.
    fn round(&self) {
        let (_, pe) = self.create_child();
        self.ok(
            pe,
            Syscall::CreateRGate {
                dst: SelId::new(1),
                slots: 2,
                slot_size: 256,
            },
        );
        self.ok(
            pe,
            Syscall::Activate {
                vpe: SelId::new(0),
                ep: EpId::new(std_eps::FIRST_FREE),
                gate: SelId::new(1),
            },
        );
        self.exit(pe, 7);
        assert_eq!(self.wait_child(), 7);
        self.revoke_child();
    }

    fn censuses(&self) -> Vec<Census> {
        self.kernels.iter().map(census).collect()
    }

    /// Further rounds after the first leave every kernel's state the size
    /// the first left it.
    fn assert_rounds_leave_sizes_unchanged(&self) {
        self.round();
        let after_one = self.censuses();
        for _ in 0..3 {
            self.round();
        }
        assert_eq!(self.censuses(), after_one);
    }
}

#[test]
fn rounds_leave_one_kernel_the_same_size() {
    Rig::single().assert_rounds_leave_sizes_unchanged();
}

#[test]
fn spilled_rounds_leave_both_shards_the_same_size() {
    let rig = Rig::spilled();
    rig.assert_rounds_leave_sizes_unchanged();
    assert_eq!(
        rig.platform.sim().stats().get("kernel.remote_placements"),
        4
    );
}

#[test]
fn exited_local_child_is_waited_on_then_freed_by_its_parents_revoke() {
    let rig = Rig::single();
    let kernel = &rig.kernels[0];
    let (id, pe) = rig.create_child();
    rig.exit(pe, 3);
    // Exit revoked the child's own capabilities; the parent's still names it.
    let record = kernel
        .vpe_obj(id)
        .expect("the parent's capability keeps the record");
    assert_eq!(record.borrow().exit_code(), Some(3));
    assert_eq!(rig.wait_child(), 3);
    assert_eq!(rig.wait_child(), 3, "a second wait reads the same code");
    rig.ok(rig.root, Syscall::Revoke { sel: SelId::new(1) });
    assert!(kernel.vpe_obj(id).is_none());
}

#[test]
fn spilled_child_exit_code_is_readable_until_revoke_vpe_frees_it() {
    let rig = Rig::spilled();
    let home = &rig.kernels[1];
    let (id, pe) = rig.create_child();
    assert!(home.vpe_obj(id).is_some(), "shard 1 placed the child");
    rig.exit(pe, 5);
    // The exit revoked the child's self capability on shard 1; shard 0's
    // proxy still names it, so ktk `WaitVpe` still finds the exit code.
    assert_eq!(home.vpe_obj(id).unwrap().borrow().exit_code(), Some(5));
    assert_eq!(rig.wait_child(), 5);
    rig.ok(rig.root, Syscall::Revoke { sel: SelId::new(1) });
    assert!(home.vpe_obj(id).is_none(), "RevokeVpe freed the record");
}

/// Every syscall that mints a capability refuses a taken selector with
/// `Exists` and leaves the kernel as it found it: no PE, DRAM, table
/// entry, tree node, VPE name or service name is taken. The root's
/// selector 1 is taken. Both `Exchange` rows move a VPE capability: the
/// root's to the child's taken selector 0, and the child's self
/// capability to the root's selector 1. A refused `PageFault` maps
/// nothing, so an `Unmap` of its page finds nothing to revoke either: the
/// region at selector 1 survives.
#[test]
fn minting_into_a_taken_selector_changes_nothing() {
    let rig = Rig::single();
    let kernel = &rig.kernels[0];
    let sel = SelId::new;
    let create_vpe = |dst, mem_dst| Syscall::CreateVpe {
        dst: sel(dst),
        mem_dst: sel(mem_dst),
        pe: PeRequest::Same,
        name: "child".to_string(),
    };
    let create_srv = |dst| Syscall::CreateSrv {
        dst: sel(dst),
        rgate: sel(2),
        name: "srv".to_string(),
    };
    let rgate = |dst| Syscall::CreateRGate {
        dst: sel(dst),
        slots: 2,
        slot_size: 256,
    };
    let mem = Syscall::AllocMem {
        dst: sel(1),
        size: 4096,
        perm: Perm::RW,
    };
    rig.ok(rig.root, mem.clone());
    rig.ok(rig.root, rgate(2));
    rig.ok(
        rig.root,
        Syscall::Activate {
            vpe: sel(0),
            ep: EpId::new(std_eps::FIRST_FREE),
            gate: sel(2),
        },
    );
    rig.ok(rig.root, create_vpe(3, 4));
    let exchange = |own, obtain| Syscall::Exchange {
        vpe: sel(3),
        own: sel(own),
        other: sel(0),
        obtain,
    };
    let calls = [
        create_vpe(1, 5),
        create_vpe(5, 1),
        create_vpe(5, 5),
        rgate(1),
        Syscall::CreateSGate {
            dst: sel(1),
            rgate: sel(2),
            label: 0,
            credits: 1,
        },
        mem,
        Syscall::DeriveMem {
            dst: sel(1),
            src: sel(1),
            offset: 0,
            size: 4096,
            perm: Perm::R,
        },
        create_srv(1),
        exchange(3, false),
        exchange(1, true),
        Syscall::PageFault {
            dst: sel(1),
            virt: 0x10_0000,
            access: Perm::RW,
        },
    ];
    let (pes, dram, before) = (kernel.free_pes(), kernel.free_mem(), census(kernel));
    for call in calls {
        let what = format!("{call:?}");
        assert_eq!(rig.call(rig.root, call).error, Some(Code::Exists), "{what}");
        assert_eq!(kernel.free_pes(), pes, "{what}");
        assert_eq!(kernel.free_mem(), dram, "{what}");
        assert_eq!(census(kernel), before, "{what}");
    }
    let unmap = Syscall::Unmap { virt: 0x10_0000 };
    assert_eq!(rig.call(rig.root, unmap).error, Some(Code::InvArgs));
    assert!(matches!(
        kernel.state.obj((rig.root_vpe, sel(1))),
        Ok(KObject::MGate(m)) if m.owned
    ));
    assert_eq!(kernel.free_mem(), dram);
    rig.ok(rig.root, create_srv(5));
}

/// An `Activate` on a dead child's endpoint is refused: its PE goes to
/// the next child, which the endpoint would reach past every capability.
#[test]
fn activate_on_a_dead_vpe_is_refused() {
    let rig = Rig::single_of(3);
    let sel = SelId::new;
    let ep = EpId::new(std_eps::FIRST_FREE);
    let (_, pe) = rig.create_child();
    rig.exit(pe, 0);
    let mem = Syscall::AllocMem {
        dst: sel(3),
        size: 4096,
        perm: Perm::RW,
    };
    rig.ok(rig.root, mem);
    let activate = Syscall::Activate {
        vpe: sel(1),
        ep,
        gate: sel(3),
    };
    assert_eq!(rig.call(rig.root, activate).error, Some(Code::VpeGone));
    rig.ok(rig.root, Syscall::Revoke { sel: sel(1) });
    let (_, next) = rig.create_child();
    assert_eq!(next, pe, "the next child takes the dead one's PE");
    let wrote = rig.on(pe, |dtu| async move {
        dtu.write_mem(ep, 0, b"w").await.map_err(|e| e.code())
    });
    assert_eq!(wrote, Err(Code::InvEp));
}

/// The root delegates a send gate to its child, whose `Activate` of it
/// waits for the receive gate. The root revokes the send gate, which ends
/// the wait: the child's `Activate` resolves the gate anew and is refused.
/// Its endpoint stays unconfigured once the root activates the receive
/// gate.
#[test]
fn sgate_revoked_while_its_activate_waits_stays_dead() {
    let rig = Rig::single();
    let sel = SelId::new;
    let ep = EpId::new(std_eps::FIRST_FREE);
    let activate = move |gate| Syscall::Activate {
        vpe: sel(0),
        ep,
        gate: sel(gate),
    };
    let (_, pe) = rig.create_child();
    let setup = [
        Syscall::CreateRGate {
            dst: sel(3),
            slots: 2,
            slot_size: 256,
        },
        Syscall::CreateSGate {
            dst: sel(4),
            rgate: sel(3),
            label: 0,
            credits: 1,
        },
        Syscall::Exchange {
            vpe: sel(1),
            own: sel(4),
            other: sel(1),
            obtain: false,
        },
    ];
    for call in setup {
        rig.ok(rig.root, call);
    }
    let child = rig.platform.dtu(pe);
    let waiting = rig.platform.sim().spawn("child-activate", async move {
        syscall(&child, activate(1)).await.error
    });
    rig.settle();
    assert!(!waiting.is_finished(), "the activate waits for the rgate");
    rig.ok(rig.root, Syscall::Revoke { sel: sel(4) });
    assert_eq!(waiting.try_take(), Some(Some(Code::InvCap)));
    rig.ok(rig.root, activate(3));
    let sent = rig.on(pe, |dtu| async move {
        dtu.send(ep, b"stale", None).await.map_err(|e| e.code())
    });
    assert_eq!(sent, Err(Code::InvEp));
}

/// A spilled `CreateVpe` checks its selectors twice: before placing,
/// and once the placement is back, since handlers that run beside the
/// syscall loop (`ExchangeSess`, a peer's `DelegateCap`) can fill them
/// during the round trip. Here the root delegates into the SPM
/// selector of its child `A` while `A`'s `PlaceVpe` is in flight; the
/// syscall loop is busy with `A`'s call, so the delegation runs on the
/// kernel directly. `A` gets `Exists` and keeps the delegated
/// capability, and shard 1 frees what it placed.
#[test]
fn spilled_create_vpe_into_a_selector_filled_in_flight_places_nothing() {
    let rig = Rig::two_shards(3, 5, None);
    let (home, peer) = (&rig.kernels[0], &rig.kernels[1]);
    let sim = rig.platform.sim().clone();
    let sel = SelId::new;
    let (a, a_pe) = rig.create_child();
    assert!(home.vpe_obj(a).is_some(), "shard 0 placed A");
    rig.ok(
        rig.root,
        Syscall::AllocMem {
            dst: sel(3),
            size: 4096,
            perm: Perm::RW,
        },
    );
    let peer_before = census(peer);
    let ktk_requests = {
        let sim = sim.clone();
        move || sim.stats().get("kernel.ktk_requests")
    };
    let served = ktk_requests();
    let create = sim.spawn("a-create", {
        let dtu = rig.platform.dtu(a_pe);
        async move {
            let call = Syscall::CreateVpe {
                dst: sel(1),
                mem_dst: sel(2),
                pe: PeRequest::Same,
                name: "b".to_string(),
            };
            syscall(&dtu, call).await
        }
    });
    let delegate = sim.spawn("root-delegate", {
        let (k, sim, root) = (home.clone(), sim.clone(), rig.root_vpe);
        async move {
            // Shard 1 has taken up the `PlaceVpe`, so `A` is past its
            // first check; the placement takes longer than `CAP_OP`.
            while ktk_requests() == served {
                sim.sleep(Cycles::new(10)).await;
            }
            sim.sleep(costs::CAP_OP).await;
            k.state.copy((root, sel(3)), (a, sel(2)))
        }
    });
    rig.settle();
    assert_eq!(delegate.try_take().unwrap().map_err(|e| e.code()), Ok(()));
    assert_eq!(create.try_take().unwrap().error, Some(Code::Exists));
    assert_eq!(
        home.state.selectors(a),
        [sel(0), sel(2)],
        "A holds its self capability and the delegated one"
    );
    assert_eq!(
        sim.stats().get("kernel.ktk_requests"),
        served + 2,
        "shard 1 served the PlaceVpe and the RevokeVpe"
    );
    assert_eq!(census(peer), peer_before, "shard 1 freed the placed VPE");
}

/// The root creates `v`, activates `v`'s SPM capability on one of its
/// endpoints and revokes `v`'s VPE capability alone. `w`, created next,
/// lands on `v`'s PE, the only free one. Neither that endpoint nor the
/// SPM selector may reach `w`'s SPM any more.
fn assert_revoked_spm_cannot_reach_the_next_child(rig: &Rig) {
    let sel = SelId::new;
    let stale_ep = EpId::new(std_eps::FIRST_FREE);
    let fresh_ep = EpId::new(std_eps::FIRST_FREE + 1);
    let activate = move |ep, gate| Syscall::Activate {
        vpe: sel(0),
        ep,
        gate: sel(gate),
    };
    let (_, v_pe) = rig.create_child();
    rig.ok(rig.root, activate(stale_ep, 2));
    rig.ok(rig.root, Syscall::Revoke { sel: sel(1) });
    let data = rig.ok(
        rig.root,
        Syscall::CreateVpe {
            dst: sel(3),
            mem_dst: sel(4),
            pe: PeRequest::Same,
            name: "w".to_string(),
        },
    );
    let mut is = m3_base::marshal::IStream::new(&data);
    is.pop_u32().unwrap();
    assert_eq!(PeId::new(is.pop_u32().unwrap()), v_pe, "w reuses v's PE");
    rig.ok(rig.root, activate(fresh_ep, 4));
    let (stale, reused, spm) = rig.on(rig.root, |dtu| async move {
        dtu.write_mem(fresh_ep, 0, b"fresh!").await.unwrap();
        let stale = dtu
            .write_mem(stale_ep, 0, b"stale!")
            .await
            .map_err(|e| e.code());
        let reused = syscall(&dtu, activate(stale_ep, 2)).await.error;
        (stale, reused, dtu.read_mem(fresh_ep, 0, 6).await.unwrap())
    });
    assert_eq!(stale, Err(Code::InvEp), "v's endpoint still reaches {v_pe}");
    assert_eq!(reused, Some(Code::InvCap), "v's SPM selector outlived v");
    assert_eq!(spm, b"fresh!");
}

#[test]
fn isolation_revoked_child_spm_cannot_reach_the_next_child() {
    assert_revoked_spm_cannot_reach_the_next_child(&Rig::single_of(3));
}

#[test]
fn isolation_spilled_child_spm_cannot_reach_the_next_child() {
    assert_revoked_spm_cannot_reach_the_next_child(&Rig::two_shards(2, 4, None));
}

#[test]
fn dead_requester_shard_has_its_spilled_child_reclaimed() {
    let crash = Cycles::new(5_000_000);
    let rig = Rig::two_shards(2, 5, Some(crash));
    let home = &rig.kernels[1];
    let free = home.free_pes();
    let (id, _) = rig.create_child();
    let child = home.vpe_obj(id).expect("shard 1 placed the child");
    assert!(child.borrow().is_alive());
    assert_eq!(home.free_pes(), free - 1);
    assert!(rig.platform.sim().now() < crash, "placed before the crash");
    // No `RevokeVpe` can come from the dead requester; its death ends
    // the proxy's name instead.
    rig.idle_until(crash + Cycles::new(100_000));
    assert!(
        home.shard_ctx().unwrap().is_dead(0),
        "shard 0 declared dead"
    );
    assert!(!child.borrow().is_alive(), "the child was destroyed");
    assert!(home.vpe_obj(id).is_none(), "the child's record was freed");
    assert_eq!(home.free_pes(), free);
}

/// A `CreateSrv` refused for an unactivated receive gate or a taken
/// name takes no kernel endpoint: the next one stays unconfigured and
/// is the one the next accepted `CreateSrv` gets.
#[test]
fn refused_create_srv_takes_no_kernel_endpoint() {
    let rig = Rig::single();
    let kernel = &rig.kernels[0];
    let sel = SelId::new;
    let create_srv = |dst| Syscall::CreateSrv {
        dst: sel(dst),
        rgate: sel(1),
        name: "srv".to_string(),
    };
    // The lowest unconfigured service endpoint of the kernel.
    let next_ep = || {
        (keps::FIRST_SERV..m3_base::cfg::EP_COUNT as u32)
            .map(|ep| (ep, kernel.ktok.ep_config(kernel.pe, EpId::new(ep)).unwrap()))
            .find(|(_, cfg)| *cfg == EpConfig::Invalid)
            .unwrap()
    };
    let rgate = Syscall::CreateRGate {
        dst: sel(1),
        slots: 2,
        slot_size: 256,
    };
    rig.ok(rig.root, rgate);
    let first = next_ep();
    assert_eq!(first, (keps::FIRST_SERV, EpConfig::Invalid));
    for _ in 0..3 {
        assert_eq!(rig.call(rig.root, create_srv(2)).error, Some(Code::InvArgs));
        assert_eq!(next_ep(), first, "an unactivated gate took an endpoint");
    }
    let activate = Syscall::Activate {
        vpe: sel(0),
        ep: EpId::new(std_eps::FIRST_FREE),
        gate: sel(1),
    };
    rig.ok(rig.root, activate);
    rig.ok(rig.root, create_srv(2));
    let second = next_ep();
    assert_eq!(second, (keps::FIRST_SERV + 1, EpConfig::Invalid));
    // Selector 3 is free; the name is taken.
    for _ in 0..3 {
        assert_eq!(rig.call(rig.root, create_srv(3)).error, Some(Code::Exists));
        assert_eq!(next_ep(), second, "a taken name took an endpoint");
    }
}

/// The root's child registers `svc` on a receive gate that nothing
/// serves unless a test does; returns the child's PE.
fn register_unserved_service(rig: &Rig) -> PeId {
    let sel = SelId::new;
    let (_, pe) = rig.create_child();
    let setup = [
        Syscall::CreateRGate {
            dst: sel(1),
            slots: 2,
            slot_size: 256,
        },
        Syscall::Activate {
            vpe: sel(0),
            ep: EpId::new(std_eps::FIRST_FREE),
            gate: sel(1),
        },
        Syscall::CreateSrv {
            dst: sel(2),
            rgate: sel(1),
            name: "svc".to_string(),
        },
    ];
    for call in setup {
        rig.ok(pe, call);
    }
    pe
}

fn open_svc() -> Syscall {
    Syscall::OpenSess {
        dst: SelId::new(3),
        name: "svc".to_string(),
        arg: 0,
    }
}

/// The owner on `pe` accepts one forwarded `Open`.
fn serve_one_open(rig: &Rig, pe: PeId) {
    let owner = rig.platform.dtu(pe);
    rig.platform.sim().spawn("owner", async move {
        let msg = owner.recv(EpId::new(std_eps::FIRST_FREE)).await.unwrap();
        let reply = ServiceReply {
            ident: 7,
            ..ServiceReply::ok()
        };
        owner.reply(&msg, &reply.to_bytes()).await.unwrap();
    });
}

/// An exchange over the session `open_svc` opened.
fn exchange_svc() -> Syscall {
    Syscall::ExchangeSess {
        sess: SelId::new(3),
        obtain: true,
        caps: vec![SelId::new(4)],
        args: Vec::new(),
    }
}

#[test]
fn service_owner_exited_before_the_request_is_unreachable() {
    let rig = Rig::single();
    let pe = register_unserved_service(&rig);
    serve_one_open(&rig, pe);
    rig.ok(rig.root, open_svc());
    rig.exit(pe, 0);
    assert_eq!(
        rig.call(rig.root, exchange_svc()).error,
        Some(Code::Unreachable)
    );
}

/// After `svc`'s owner exits, its name and kernel endpoint are free:
/// the root registers `svc` and gets the same endpoint back, and a
/// session opened on the dead service stays `Unreachable` and never
/// reaches the new owner.
#[test]
fn dead_service_frees_its_name_and_kernel_endpoint() {
    let rig = Rig::single();
    let kernel = &rig.kernels[0];
    let sel = SelId::new;
    let ep = EpId::new(keps::FIRST_SERV);
    let kernel_ep = || {
        let serv = kernel.state.find_service("svc");
        serv.ok().map(|s| s.kernel_ep)
    };
    let pe = register_unserved_service(&rig);
    assert_eq!(kernel_ep(), Some(ep));
    serve_one_open(&rig, pe);
    rig.ok(rig.root, open_svc());
    rig.exit(pe, 0);
    assert_eq!(kernel_ep(), None, "the dead owner's name is free");
    let cfg = kernel.ktok.ep_config(kernel.pe, ep).unwrap();
    assert_eq!(cfg, EpConfig::Invalid);
    let reopen = Syscall::OpenSess {
        dst: sel(9),
        name: "svc".to_string(),
        arg: 0,
    };
    assert_eq!(rig.call(rig.root, reopen).error, Some(Code::InvService));
    // The root takes the name over on a receive gate of its own.
    let setup = [
        Syscall::CreateRGate {
            dst: sel(5),
            slots: 2,
            slot_size: 256,
        },
        Syscall::Activate {
            vpe: sel(0),
            ep: EpId::new(std_eps::FIRST_FREE),
            gate: sel(5),
        },
        Syscall::CreateSrv {
            dst: sel(6),
            rgate: sel(5),
            name: "svc".to_string(),
        },
    ];
    for call in setup {
        rig.ok(rig.root, call);
    }
    assert_eq!(kernel_ep(), Some(ep), "the new owner got the endpoint back");
    let cfg = kernel.ktok.ep_config(kernel.pe, ep).unwrap();
    assert!(
        matches!(cfg, EpConfig::Send { pe, .. } if pe == rig.root),
        "{cfg:?}"
    );
    assert_eq!(
        rig.call(rig.root, exchange_svc()).error,
        Some(Code::Unreachable)
    );
    let new_owner = rig.platform.dtu(rig.root);
    let got = new_owner.fetch(EpId::new(std_eps::FIRST_FREE)).unwrap();
    assert!(got.is_none(), "the old session reached the new owner");
}

#[test]
fn service_owner_exiting_fails_the_outstanding_request() {
    let rig = Rig::single();
    let pe = register_unserved_service(&rig);
    let owner = rig.platform.dtu(pe);
    // The owner takes the forwarded `Open` and exits without a reply.
    rig.platform.sim().spawn("owner", async move {
        owner.recv(EpId::new(std_eps::FIRST_FREE)).await.unwrap();
        let call = Syscall::Exit { code: 0 }.to_bytes();
        owner.send(std_eps::SYSC_SEND, &call, None).await.unwrap();
    });
    assert_eq!(
        rig.call(rig.root, open_svc()).error,
        Some(Code::Unreachable)
    );
}

/// Under an armed fault plane, one kernel joined to a peer shard (kernel
/// PE 3) that never answers; with `crash = Some((at, ask))`, PE 3
/// crashes at `at` and the root asks at `ask`, else it asks right
/// away. The root asks for `svc`, which no local service is named, so
/// the kernel asks the peer. Returns the error, the cycles from the ask
/// to the answer, and the number of requests the kernel opened.
fn open_on_silent_peer(crash: Option<(Cycles, Cycles)>) -> (Option<Code>, Cycles, u64) {
    let platform = Platform::new(PlatformConfig::xtensa(4));
    let peer_pe = PeId::new(3);
    let plan = match crash {
        Some((at, _)) => m3_fault::FaultPlan::new().crash_pe(peer_pe, at),
        None => m3_fault::FaultPlan::new(),
    };
    let plane = Rc::new(m3_fault::FaultPlane::new(plan));
    platform.dtu_system().set_faults(plane.clone());
    let kernel = Kernel::start(&platform, PeId::new(0));
    kernel.set_shard(0, 2, &[(1, peer_pe)], Box::new(|_, _| {}));
    kernel.attach_faults(&plane);
    let rig = Rig::with_root(platform, vec![kernel]);
    let sim = rig.platform.sim().clone();
    let ask = crash.map_or(sim.now(), |(_, ask)| ask);
    let (code, took) = rig.on(rig.root, |dtu| async move {
        sim.sleep_until(ask).await;
        (syscall(&dtu, open_svc()).await.error, sim.now() - ask)
    });
    let ctx = rig.kernels[0].shard_ctx().unwrap();
    (code, took, ctx.requests.next.get() - 1)
}

/// A ktk request to a peer shard that is alive but silent times out,
/// and its entry goes with its wait.
#[test]
fn silent_peer_shard_times_out_with_no_outstanding_request() {
    let (code, took, opened) = open_on_silent_peer(None);
    assert_eq!(code, Some(Code::Unreachable));
    assert!(took >= costs::KTK_TIMEOUT, "answered after {took}");
    assert_eq!(opened, 1, "one attempt, no retry");
}

/// A peer shard declared dead fails the request outstanding to it
/// long before the timeout would.
#[test]
fn silent_peer_shard_declared_dead_fails_the_outstanding_request() {
    let crash = Cycles::new(2_000_000);
    let (code, took, opened) = open_on_silent_peer(Some((crash, crash - Cycles::new(10_000))));
    assert_eq!(code, Some(Code::Unreachable));
    let detect = Cycles::new(10_000) + costs::DEAD_PE_DETECT;
    assert!(
        took > detect && took < costs::KTK_TIMEOUT,
        "answered after {took}"
    );
    assert_eq!(opened, 1, "one attempt, no retry");
}

/// A peer declared dead while a ktk request pays its forward charge
/// refuses the request at once: the dead check runs after the charge,
/// so no request opens after `on_peer_shard_dead` failed the rest.
/// Asks swept across the declaration, 10 cycles apart, all answer
/// long before the timeout: `Unreachable` while the peer is asked,
/// `InvService` once it is dead before the lookup and no shard is left
/// to ask.
#[test]
fn peer_declared_dead_during_the_forward_charge_is_unreachable_at_once() {
    let crash = Cycles::new(2_000_000);
    for step in 0..=20 {
        let ask = crash + costs::DEAD_PE_DETECT - Cycles::new(100) + Cycles::new(10 * step);
        let (code, took, _) = open_on_silent_peer(Some((crash, ask)));
        assert!(
            matches!(code, Some(Code::Unreachable | Code::InvService)),
            "ask at {ask}: {code:?}"
        );
        assert!(
            took < costs::DEAD_PE_DETECT,
            "ask at {ask} answered after {took}"
        );
    }
}
