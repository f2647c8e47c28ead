//! Kernel boot, the syscall loop, and service forwarding.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use m3_base::cfg::SPM_DATA_SIZE;
use m3_base::error::{Code, Error, Result};
use m3_base::marshal::OStream;
use m3_base::{Cycles, EpId, PeId, Perm, SelId, VpeId};
use m3_dtu::{Dtu, EpConfig, KernelToken, Message};
use m3_platform::{PeType, Platform};
use m3_sched::{Admission, Removal, Scheduler};
use m3_sim::{Component, Event, EventKind, LazyStat, Notify, Sim, TaskName};
use m3_vm::{AddrSpaceObj, FaultKind, SwapRegion};

use crate::cap::{
    CapTable, Capability, DerivationTree, KObject, MGateObj, RGateObj, RemoteSessObj, RemoteVpeObj,
    SGateObj, XSGateObj,
};
use crate::costs;
use crate::ktk::{self, CapDesc, KtkMsg, KtkReply};
use crate::mem::MemAlloc;
use crate::pemng::PeMng;
use crate::protocol::{
    std_eps, PeRequest, ServiceReply, ServiceRequest, Syscall, SyscallReply, SYSC_MSG_SIZE,
    SYSC_SLOTS,
};
use crate::service::{ServObj, ServiceRegistry, SessObj};
use crate::vpe::{VpeObj, VpeState};

/// Kernel endpoint assignment.
mod keps {
    use m3_base::EpId;

    /// Receive endpoint for system calls.
    pub const SYSC: EpId = EpId::new(0);
    /// Receive endpoint for service replies.
    pub const SERV_REPLY: EpId = EpId::new(1);
    /// First endpoint used for per-service send gates.
    pub const FIRST_SERV: u32 = 2;
}

/// What a freshly created VPE needs to start talking to the kernel.
#[derive(Clone, Debug)]
pub struct VpeBootInfo {
    /// The kernel-wide VPE id (label of the syscall channel).
    pub vpe: VpeId,
    /// The PE the VPE runs on.
    pub pe: PeId,
}

struct PendingReply {
    slot: Rc<RefCell<Option<ServiceReply>>>,
    ready: Notify,
}

struct KtkPending {
    slot: Rc<RefCell<Option<KtkReply>>>,
    ready: Notify,
    /// The shard the request went to, so a shard death can fail it fast.
    to: u32,
}

/// A kernel's view of the sharded multikernel it is part of (§7: "multiple
/// kernel instances" as the scalability path). Each shard owns a disjoint
/// PE/DRAM partition; the shards talk through the kernel-to-kernel (ktk)
/// protocol of [`crate::ktk`] over a transport-agnostic send closure —
/// NoC messages between kernel PEs inside one `Sim`, island-boundary ports
/// across PDES islands. Absent (`None` on the kernel), every cross-shard
/// path is compiled out of the schedule and the kernel is cycle-identical
/// to the single-instance build.
pub struct ShardCtx {
    id: u32,
    count: u32,
    send: Box<dyn Fn(u32, Vec<u8>)>,
    /// Kernel PE of every peer shard (used to map a PE crash to a shard
    /// death).
    peer_pes: BTreeMap<u32, PeId>,
    /// Last advertised free-PE count of each live peer, refreshed
    /// passively from the header of every incoming ktk message.
    peer_free: RefCell<BTreeMap<u32, usize>>,
    /// Peers declared dead by the shard watchdog.
    dead: RefCell<BTreeSet<u32>>,
    next_req: Cell<u64>,
    pending: RefCell<BTreeMap<u64, KtkPending>>,
    /// Cross-shard delegation edges: local capability -> the remote
    /// `(shard, vpe, sel)` copies it spawned, cut on revoke (§4.5.3).
    remote_children: RefCell<BTreeMap<(VpeId, SelId), Vec<RemoteCopy>>>,
}

/// A remote copy a delegated capability spawned: `(shard, vpe, sel)`.
type RemoteCopy = (u32, u32, u32);

impl ShardCtx {
    /// This kernel's shard id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Total number of shards in the multikernel.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether `shard` has been declared dead by the watchdog.
    pub fn is_dead(&self, shard: u32) -> bool {
        self.dead.borrow().contains(&shard)
    }

    /// The last free-PE count `shard` advertised, if it is still alive.
    pub fn peer_free(&self, shard: u32) -> Option<usize> {
        self.peer_free.borrow().get(&shard).copied()
    }

    /// Peers not declared dead, in ascending shard-id order.
    pub fn alive_peers(&self) -> Vec<u32> {
        self.peer_free.borrow().keys().copied().collect()
    }
}

impl std::fmt::Debug for ShardCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardCtx({}/{})", self.id, self.count)
    }
}

/// Page size of the remotely-managed page tables (§7 prototype).
pub const PAGE_SIZE: u64 = 4096;

/// Share of each PE's data SPM the kernel allows for receive ring buffers
/// (the rest belongs to the application's data). The kernel validates every
/// placement — reply-enabled buffers must live in protected, non-overlapping
/// memory (§4.4.4) — so it also enforces this budget.
pub const RINGBUF_SPM_BUDGET: u64 = (m3_base::cfg::SPM_DATA_SIZE as u64) / 2;

struct KState {
    tables: BTreeMap<VpeId, CapTable>,
    /// Ring-buffer bytes currently placed in each PE's SPM.
    ringbuf_bytes: BTreeMap<PeId, u64>,
    /// The capability `(vpe, sel)` whose activation currently occupies
    /// each endpoint `(target vpe, ep)`. When the libos multiplexer hands
    /// an endpoint to a receive gate, the previous capability loses its
    /// activation record, so revoking it later leaves the new gate alone.
    /// An entry whose capability was revoked finds nothing to update.
    ep_owners: BTreeMap<(VpeId, EpId), (VpeId, SelId)>,
    /// Per-VPE address spaces (kernel-owned page tables, bounded resident
    /// sets, swap regions), managed remotely by the kernel like the
    /// endpoints (§7).
    addr_spaces: BTreeMap<VpeId, AddrSpaceObj>,
    tree: DerivationTree,
    vpes: BTreeMap<VpeId, Rc<RefCell<VpeObj>>>,
    next_vpe: u32,
    pemng: PeMng,
    mem: MemAlloc,
    services: ServiceRegistry,
    next_req: u64,
    pending: BTreeMap<u64, PendingReply>,
    next_serv_ep: u32,
}

/// Kernel policy, chosen at boot and immutable afterwards. The default
/// is the paper's model: one VPE per PE, full-image context switches,
/// unbounded address spaces.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelConfig {
    /// Admit more VPEs than PEs by time-multiplexing application PEs
    /// (m3-sched): round-robin with blocked-on-receive parking; switches
    /// move the suspended VPE's DTU state to a DRAM save area through the
    /// DTU itself (§4.1/§7 future work). Off, `CreateVpe` fails with
    /// `NoFreePe` once every PE is occupied.
    pub overcommit: bool,
    /// Move only the SPM pages the DTU dirtied since a context's last save
    /// (its dirty bitmap) on a context switch, instead of the full
    /// [`SPM_DATA_SIZE`] image the golden pins were recorded with.
    pub dirty_switches: bool,
    /// Resident-set bound (in pages) of every demand-paged address space;
    /// beyond it the pager evicts, clean pages first. `None` leaves address
    /// spaces unbounded: first-touch allocation only, no eviction.
    pub vm_resident_pages: Option<usize>,
}

/// The M3 kernel, running on its dedicated PE.
///
/// [`Kernel::start`] boots it: it configures its own syscall endpoints,
/// downgrades every other DTU (establishing NoC-level isolation), and spawns
/// the syscall dispatch loop as a daemon task.
#[derive(Clone)]
pub struct Kernel {
    sim: Sim,
    platform: Platform,
    dtu: Dtu,
    /// The capability handle over the privileged DTU interface, claimed at
    /// boot while this kernel's PE was still privileged (paper §3).
    ktok: Rc<KernelToken>,
    pe: PeId,
    state: Rc<RefCell<KState>>,
    /// Run queues of the time-multiplexed PEs (overcommit mode, m3-sched).
    sched: Rc<RefCell<Scheduler>>,
    /// Boot-time policy, fixed for the kernel's lifetime.
    cfg: KernelConfig,
    /// PEs that are never multiplexed: boot-time roots (services, drivers)
    /// keep their PE exclusively even in overcommit mode.
    pinned: Rc<RefCell<BTreeSet<PeId>>>,
    /// Cycle at which the current resident of each multiplexed PE was
    /// installed (start of its slice).
    resumed_at: Rc<RefCell<BTreeMap<PeId, Cycles>>>,
    /// Sharded-multikernel context (§7), set by [`Kernel::set_shard`];
    /// `None` for a standalone kernel.
    shard: Rc<RefCell<Option<Rc<ShardCtx>>>>,
    counters: Rc<Counters>,
}

/// The kernel's per-operation counters in the simulation's `Stats` bag.
struct Counters {
    syscalls: LazyStat,
    ktk_requests: LazyStat,
    page_faults: LazyStat,
    vpe_exits: LazyStat,
    remote_placements: LazyStat,
}

impl Counters {
    fn new(sim: &Sim) -> Counters {
        let stats = sim.stats();
        Counters {
            syscalls: LazyStat::new(&stats, "kernel.syscalls"),
            ktk_requests: LazyStat::new(&stats, "kernel.ktk_requests"),
            page_faults: LazyStat::new(&stats, "kernel.page_faults"),
            vpe_exits: LazyStat::new(&stats, "kernel.vpe_exits"),
            remote_placements: LazyStat::new(&stats, "kernel.remote_placements"),
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel(on {})", self.pe)
    }
}

impl Kernel {
    /// Boots the kernel on `kernel_pe` with the default [`KernelConfig`],
    /// owning every PE and the whole DRAM.
    ///
    /// # Panics
    ///
    /// Panics if the platform is too small or the kernel PE is invalid.
    pub fn start(platform: &Platform, kernel_pe: PeId) -> Kernel {
        let owned: Vec<PeId> = (0..platform.pe_count())
            .map(|i| PeId::new(i as u32))
            .collect();
        let dram = platform
            .dtu_system()
            .memory(platform.dram_pe())
            // m3lint: allow(no-unwrap): boot-time; the documented panic for a platform without DRAM
            .expect("dram")
            .borrow()
            .len() as u64;
        Self::start_partition(
            platform,
            kernel_pe,
            &owned,
            0,
            dram,
            KernelConfig::default(),
        )
    }

    /// Boots a kernel instance that owns only the PEs in `owned` and the
    /// DRAM range `[dram_base, dram_base + dram_size)` — the partitioned
    /// multi-kernel mode sketched as future work in the paper (§7; no
    /// cross-kernel synchronization: partitions are disjoint). Each
    /// instance has its own capability space, PE pool, memory pool, and
    /// service registry. `cfg` fixes the kernel's policy for its lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `kernel_pe` is not in `owned` or the partition is invalid.
    pub fn start_partition(
        platform: &Platform,
        kernel_pe: PeId,
        owned: &[PeId],
        dram_base: u64,
        dram_size: u64,
        cfg: KernelConfig,
    ) -> Kernel {
        assert!(
            owned.contains(&kernel_pe),
            "kernel PE must be part of its own partition"
        );
        let sim = platform.sim().clone();
        let dtu = platform.dtu(kernel_pe);
        let ktok = dtu
            .claim_kernel_token()
            // m3lint: allow(no-unwrap): boot-time; every DTU is privileged until this kernel downgrades it below
            .expect("kernel DTU is privileged at boot");

        // Configure the kernel's own endpoints (it is privileged at boot).
        ktok.configure(
            kernel_pe,
            keps::SYSC,
            EpConfig::Receive {
                slots: SYSC_SLOTS,
                slot_size: SYSC_MSG_SIZE + m3_base::cfg::MSG_HEADER_SIZE,
                allow_replies: true,
            },
        )
        // m3lint: allow(no-unwrap): boot-time; the kernel is privileged and its own EP ids are compile-time constants
        .expect("kernel syscall EP");
        ktok.configure(
            kernel_pe,
            keps::SERV_REPLY,
            EpConfig::Receive {
                slots: SYSC_SLOTS,
                slot_size: SYSC_MSG_SIZE + m3_base::cfg::MSG_HEADER_SIZE,
                allow_replies: false,
            },
        )
        // m3lint: allow(no-unwrap): boot-time; same argument as the syscall EP.
        .expect("kernel service-reply EP");

        // NoC-level isolation: downgrade every application PE this kernel
        // owns (paper §3). Other partitions' PEs are left alone.
        for pe in owned {
            if *pe != kernel_pe {
                // m3lint: allow(no-unwrap): boot-time; the booting kernel is still privileged, so the downgrade cannot be refused
                ktok.set_privileged(*pe, false).expect("downgrade");
            }
        }

        let descs: Vec<_> = (0..platform.pe_count())
            .map(|i| platform.desc(PeId::new(i as u32)).clone())
            .collect();

        let kernel = Kernel {
            sim: sim.clone(),
            platform: platform.clone(),
            dtu,
            ktok: Rc::new(ktok),
            pe: kernel_pe,
            state: Rc::new(RefCell::new(KState {
                tables: BTreeMap::new(),
                ringbuf_bytes: BTreeMap::new(),
                ep_owners: BTreeMap::new(),
                addr_spaces: BTreeMap::new(),
                tree: DerivationTree::new(),
                vpes: BTreeMap::new(),
                next_vpe: 1,
                pemng: PeMng::new_partition(descs, kernel_pe, owned),
                mem: MemAlloc::new(dram_base, dram_size),
                services: ServiceRegistry::new(),
                next_req: 1,
                pending: BTreeMap::new(),
                next_serv_ep: keps::FIRST_SERV,
            })),
            sched: Rc::new(RefCell::new(Scheduler::new())),
            cfg,
            pinned: Rc::new(RefCell::new(BTreeSet::new())),
            resumed_at: Rc::new(RefCell::new(BTreeMap::new())),
            shard: Rc::new(RefCell::new(None)),
            counters: Rc::new(Counters::new(&sim)),
        };

        let k = kernel.clone();
        sim.spawn_daemon(
            format!("kernel@{kernel_pe}"),
            async move { k.main_loop().await },
        );
        let k = kernel.clone();
        sim.spawn_daemon(format!("kernel-reply-pump@{kernel_pe}"), async move {
            k.reply_pump().await
        });
        kernel
    }

    /// The PE the kernel runs on.
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// The platform the kernel manages.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Arms the kernel's dead-PE watchdog against an injected fault plane:
    /// for every scheduled PE crash, a daemon wakes one liveness-probe
    /// period after the crash, destroys whichever VPE ran on the dead PE
    /// (revoking all its capabilities and invalidating its endpoints, the
    /// §4.3.1 revoke path), and emits a typed recovery event. Without a
    /// plane there is nothing to watch and the kernel is unchanged.
    pub fn attach_faults(&self, plane: &m3_fault::FaultPlane) {
        for (pe, at) in plane.crash_schedule() {
            if pe == self.pe {
                // A dead kernel PE has no one left to recover it.
                continue;
            }
            let k = self.clone();
            self.sim
                .spawn_daemon(format!("kernel-watchdog@{pe}"), async move {
                    k.sim.sleep_until(at + costs::DEAD_PE_DETECT).await;
                    k.sim.sleep(costs::DISPATCH).await;
                    // Every VPE bound to the dead PE dies with it — not just
                    // the resident: queued and parked VPEs of an
                    // overcommitted PE have no hardware left to run on
                    // either, and their save areas must be reclaimed.
                    let victims: Vec<_> = {
                        let st = k.state.borrow();
                        st.vpes
                            .values()
                            .filter(|v| {
                                let v = v.borrow();
                                v.pe == pe && v.is_alive()
                            })
                            .cloned()
                            .collect()
                    };
                    let now = k.sim.now();
                    k.sim.tracer().record_with(|| Event {
                        at: now,
                        dur: m3_base::Cycles::ZERO,
                        pe: Some(k.pe),
                        comp: Component::Kernel,
                        kind: EventKind::Recovery {
                            action: format!("dead_pe:{pe}"),
                            attempt: 0,
                        },
                    });
                    for victim in victims {
                        k.destroy_vpe(&victim, -2);
                    }
                });
            // A peer kernel dying severs its whole shard: mark it dead,
            // fail the in-flight requests addressed to it, and reap every
            // proxy capability pointing into it. Attach the shard context
            // (`connect_shards`/`set_shard`) before arming the faults, or
            // the multikernel legs of the watchdog stay disarmed.
            if let Some(ctx) = self.shard_ctx() {
                let peer = ctx
                    .peer_pes
                    .iter()
                    .find(|(_, kpe)| **kpe == pe)
                    .map(|(s, _)| *s);
                if let Some(peer) = peer {
                    let k = self.clone();
                    self.sim
                        .spawn_daemon(format!("shard-watchdog@{pe}"), async move {
                            k.sim.sleep_until(at + costs::DEAD_PE_DETECT).await;
                            k.sim.sleep(costs::DISPATCH).await;
                            k.on_peer_shard_dead(peer);
                        });
                }
            }
        }
    }

    /// Creates a root VPE at boot time (no parent): claims a PE (or a
    /// specific one), sets up the syscall channel, and marks it running.
    ///
    /// # Errors
    ///
    /// Returns [`Code::NoFreePe`] if no suitable PE is free.
    pub fn create_root(&self, name: &str, pe: Option<PeId>) -> Result<VpeBootInfo> {
        let mut st = self.state.borrow_mut();
        let pe = match pe {
            Some(p) => {
                st.pemng.claim(p)?;
                p
            }
            None => st.pemng.alloc(PeRequest::Any, PeType::Xtensa)?,
        };
        let id = VpeId::new(st.next_vpe);
        st.next_vpe += 1;
        let vpe = Rc::new(RefCell::new(VpeObj::new(id, name, pe)));
        vpe.borrow_mut().state = VpeState::Running;
        st.vpes.insert(id, vpe.clone());
        let mut table = CapTable::new();
        table.insert(SelId::new(0), Capability::new(KObject::Vpe(vpe)))?;
        st.tables.insert(id, table);
        st.tree.insert_root((id, SelId::new(0)));
        drop(st);
        // Boot-time roots (services, benchmark drivers) are never
        // multiplexed; their PE stays exclusive even in overcommit mode.
        self.pinned.borrow_mut().insert(pe);
        self.setup_sysc_channel(id, pe)?;
        Ok(VpeBootInfo { vpe: id, pe })
    }

    /// Configures EP0/EP1 of `pe` as the syscall channel of VPE `id`.
    fn setup_sysc_channel(&self, id: VpeId, pe: PeId) -> Result<()> {
        self.ktok.configure(
            pe,
            std_eps::SYSC_REPLY,
            EpConfig::Receive {
                slots: 2,
                slot_size: SYSC_MSG_SIZE + m3_base::cfg::MSG_HEADER_SIZE,
                allow_replies: false,
            },
        )?;
        self.ktok.configure(
            pe,
            std_eps::SYSC_SEND,
            EpConfig::Send {
                pe: self.pe,
                ep: keps::SYSC,
                label: id.raw() as u64,
                credits: Some(1),
                max_payload: SYSC_MSG_SIZE,
            },
        )?;
        Ok(())
    }

    /// Like [`Kernel::setup_sysc_channel`], but writes the configuration
    /// into the *save area* of VPE `id` on `pe` — used for VPEs admitted to
    /// an occupied PE, whose endpoints must not clobber the resident's.
    fn stash_sysc_channel(&self, id: VpeId, pe: PeId) -> Result<()> {
        let ctx = u64::from(id.raw());
        self.ktok.stash_config(
            pe,
            ctx,
            std_eps::SYSC_REPLY,
            EpConfig::Receive {
                slots: 2,
                slot_size: SYSC_MSG_SIZE + m3_base::cfg::MSG_HEADER_SIZE,
                allow_replies: false,
            },
        )?;
        self.ktok.stash_config(
            pe,
            ctx,
            std_eps::SYSC_SEND,
            EpConfig::Send {
                pe: self.pe,
                ep: keps::SYSC,
                label: id.raw() as u64,
                credits: Some(1),
                max_payload: SYSC_MSG_SIZE,
            },
        )?;
        Ok(())
    }

    /// Picks the PE a new VPE is time-multiplexed onto when no PE is free:
    /// the least-loaded multiplexed PE matching the request (ties go to the
    /// lowest PE id, keeping placement deterministic). Pinned PEs and
    /// accelerators never multiplex.
    fn pick_overcommit_pe(&self, st: &KState, req: PeRequest, caller_ty: PeType) -> Result<PeId> {
        let want = match req {
            PeRequest::Any => None,
            PeRequest::Type(ty) => Some(ty),
            PeRequest::Same => Some(caller_ty),
        };
        let sched = self.sched.borrow();
        let pinned = self.pinned.borrow();
        // `loads()` iterates PEs in ascending id order, so the shared
        // least-loaded policy resolves ties to the lowest PE id — the same
        // rule the multikernel uses to pick a peer shard.
        m3_sched::least_loaded(sched.loads().into_iter().filter(|(pe, _)| {
            if pinned.contains(pe) {
                return false;
            }
            let desc = st.pemng.desc(*pe);
            match want {
                None => !desc.is_fft_accel(),
                Some(ty) => desc.ty == ty && !desc.is_fft_accel(),
            }
        }))
        .ok_or_else(|| Error::new(Code::NoFreePe).with_msg(format!("request {req:?}")))
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    async fn main_loop(&self) {
        loop {
            let msg = match self.dtu.recv(keps::SYSC).await {
                Ok(m) => m,
                Err(_) => return,
            };
            // Free the slot right away; the reply info lives in `msg`.
            let _ = self.dtu.ack(keps::SYSC);
            self.sim.sleep(costs::DISPATCH).await;
            self.counters.syscalls.incr();
            // Per-kernel-PE operation counter: local syscalls here, plus
            // ktk requests served for peers in `ktk_deliver` — so a sharded
            // multikernel's throughput sums per shard (fig10).
            self.sim.metrics().incr(self.pe, m3_sim::keys::KERNEL_OPS);

            let caller = VpeId::new(msg.header.label as u32);
            let call = match Syscall::from_bytes(&msg.payload) {
                Ok(c) => c,
                Err(e) => {
                    self.reply_to(&msg, SyscallReply::err(e.code())).await;
                    continue;
                }
            };
            let at = self.sim.now();
            self.sim.tracer().record_with(|| Event {
                at,
                dur: m3_base::Cycles::ZERO,
                pe: Some(self.pe),
                comp: Component::Kernel,
                kind: EventKind::Syscall {
                    opcode: call.name().to_string(),
                },
            });

            match call {
                // Calls that may block detach into their own task so the
                // kernel keeps serving (other syscalls are handled serially,
                // which is what makes a single kernel instance a measurable
                // bottleneck in the §5.7 scalability experiment).
                Syscall::VpeWait { vpe } => {
                    let k = self.clone();
                    self.sim.spawn_detached(
                        TaskName::numbered("kernel-wait-VPE", caller.raw().into()),
                        async move {
                            let reply = k.handle_vpe_wait(caller, vpe).await;
                            k.reply_to(&msg, reply).await;
                        },
                    );
                }
                Syscall::OpenSess { dst, name, arg } => {
                    let k = self.clone();
                    self.sim.spawn_detached(
                        TaskName::numbered("kernel-open-VPE", caller.raw().into()),
                        async move {
                            let reply = k.handle_open_sess(caller, dst, &name, arg).await;
                            k.reply_to(&msg, reply).await;
                        },
                    );
                }
                Syscall::ExchangeSess {
                    sess,
                    obtain,
                    caps,
                    args,
                } => {
                    let k = self.clone();
                    self.sim.spawn_detached(
                        TaskName::numbered("kernel-xchg-VPE", caller.raw().into()),
                        async move {
                            let reply = k
                                .handle_exchange_sess(caller, sess, obtain, &caps, &args)
                                .await;
                            k.reply_to(&msg, reply).await;
                        },
                    );
                }
                Syscall::Activate { vpe, ep, gate } => {
                    // May block until the receive gate is activated (§4.5.4:
                    // the kernel defers the reply until the receiver is
                    // ready).
                    let k = self.clone();
                    self.sim.spawn_detached(
                        TaskName::numbered("kernel-activate-VPE", caller.raw().into()),
                        async move {
                            let reply = k.handle_activate(caller, vpe, ep, gate).await;
                            k.reply_to(&msg, reply).await;
                        },
                    );
                }
                Syscall::Exit { code } => {
                    self.handle_exit(caller, code);
                    // No reply: the VPE is gone.
                }
                other => {
                    let reply = self.handle_sync(caller, other).await;
                    self.reply_to(&msg, reply).await;
                }
            }
        }
    }

    async fn reply_to(&self, msg: &Message, reply: SyscallReply) {
        self.sim.sleep(costs::REPLY).await;
        let _ = self.dtu.reply(msg, &reply.to_bytes()).await;
    }

    /// Routes service replies (arriving at EP1) to the pending request.
    async fn reply_pump(&self) {
        loop {
            let msg = match self.dtu.recv(keps::SERV_REPLY).await {
                Ok(m) => m,
                Err(_) => return,
            };
            let _ = self.dtu.ack(keps::SERV_REPLY);
            let req_id = msg.header.label;
            let pending = self.state.borrow_mut().pending.remove(&req_id);
            if let Some(p) = pending {
                let reply = ServiceReply::from_bytes(&msg.payload)
                    .unwrap_or_else(|e| ServiceReply::err(e.code()));
                *p.slot.borrow_mut() = Some(reply);
                p.ready.notify_all();
            }
        }
    }

    // ------------------------------------------------------------------
    // Synchronous handlers
    // ------------------------------------------------------------------

    async fn handle_sync(&self, caller: VpeId, call: Syscall) -> SyscallReply {
        let result = match call {
            Syscall::Noop => Ok(Vec::new()),
            Syscall::CreateRGate {
                dst,
                slots,
                slot_size,
            } => self.sys_create_rgate(caller, dst, slots, slot_size).await,
            Syscall::CreateSGate {
                dst,
                rgate,
                label,
                credits,
            } => {
                self.sys_create_sgate(caller, dst, rgate, label, credits)
                    .await
            }
            Syscall::AllocMem { dst, size, perm } => {
                self.sys_alloc_mem(caller, dst, size, perm).await
            }
            Syscall::DeriveMem {
                dst,
                src,
                offset,
                size,
                perm,
            } => {
                self.sys_derive_mem(caller, dst, src, offset, size, perm)
                    .await
            }
            Syscall::CreateVpe {
                dst,
                mem_dst,
                pe,
                name,
            } => self.sys_create_vpe(caller, dst, mem_dst, pe, &name).await,
            Syscall::VpeStart { vpe } => self.sys_vpe_start(caller, vpe).await,
            Syscall::CreateSrv { dst, rgate, name } => {
                self.sys_create_srv(caller, dst, rgate, &name).await
            }
            Syscall::Exchange {
                vpe,
                own,
                other,
                obtain,
            } => self.sys_exchange(caller, vpe, own, other, obtain).await,
            Syscall::Revoke { sel } => self.sys_revoke(caller, sel).await,
            Syscall::PageFault { dst, virt, access } => {
                self.sys_page_fault(caller, dst, virt, access).await
            }
            Syscall::Unmap { virt } => self.sys_unmap(caller, virt).await,
            _ => Err(Error::new(Code::Internal).with_msg("not a sync syscall")),
        };
        match result {
            Ok(data) => SyscallReply::ok_with(data),
            Err(e) => SyscallReply::err(e.code()),
        }
    }

    async fn sys_create_rgate(
        &self,
        caller: VpeId,
        dst: SelId,
        slots: u32,
        slot_size: u32,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CAP_OP).await;
        if slots == 0 || slot_size as usize <= m3_base::cfg::MSG_HEADER_SIZE {
            return Err(Error::new(Code::InvArgs).with_msg("bad ring buffer geometry"));
        }
        let gate = RGateObj::new(caller, slots, slot_size);
        let mut st = self.state.borrow_mut();
        Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::RGate(gate)))?;
        st.tree.insert_root((caller, dst));
        Ok(Vec::new())
    }

    async fn sys_create_sgate(
        &self,
        caller: VpeId,
        dst: SelId,
        rgate: SelId,
        label: u64,
        credits: u32,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CAP_OP).await;
        let mut st = self.state.borrow_mut();
        let rgate_obj = match &Self::table(&mut st, caller)?.get(rgate)?.obj {
            KObject::RGate(g) => g.clone(),
            other => {
                return Err(Error::new(Code::InvCap)
                    .with_msg(format!("expected rgate, found {}", other.kind())))
            }
        };
        let sgate = Rc::new(SGateObj {
            rgate: rgate_obj,
            label,
            credits: if credits == 0 { None } else { Some(credits) },
        });
        Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::SGate(sgate)))?;
        st.tree.insert_child((caller, rgate), (caller, dst));
        Ok(Vec::new())
    }

    async fn sys_alloc_mem(
        &self,
        caller: VpeId,
        dst: SelId,
        size: u64,
        perm: Perm,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::ALLOC_MEM).await;
        let mut st = self.state.borrow_mut();
        let offset = st.mem.alloc(size)?;
        let mgate = Rc::new(MGateObj {
            pe: self.platform.dram_pe(),
            offset,
            size,
            perm,
            owned: true,
        });
        if let Err(e) =
            Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::MGate(mgate)))
        {
            st.mem.free(offset, size);
            return Err(e);
        }
        st.tree.insert_root((caller, dst));
        let mut os = OStream::new();
        os.push_u64(offset);
        Ok(os.into_bytes())
    }

    async fn sys_derive_mem(
        &self,
        caller: VpeId,
        dst: SelId,
        src: SelId,
        offset: u64,
        size: u64,
        perm: Perm,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CAP_OP).await;
        let mut st = self.state.borrow_mut();
        let parent = match &Self::table(&mut st, caller)?.get(src)?.obj {
            KObject::MGate(m) => m.clone(),
            other => {
                return Err(Error::new(Code::InvCap)
                    .with_msg(format!("expected mgate, found {}", other.kind())))
            }
        };
        if !parent.perm.contains(perm) {
            return Err(Error::new(Code::NoPerm).with_msg("derived permissions exceed source"));
        }
        let end = offset
            .checked_add(size)
            .ok_or_else(|| Error::new(Code::InvArgs).with_msg("overflow"))?;
        if end > parent.size {
            return Err(Error::new(Code::InvArgs).with_msg("derived range exceeds source"));
        }
        let child = Rc::new(MGateObj {
            pe: parent.pe,
            offset: parent.offset + offset,
            size,
            perm,
            owned: false,
        });
        Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::MGate(child)))?;
        st.tree.insert_child((caller, src), (caller, dst));
        Ok(Vec::new())
    }

    async fn sys_create_vpe(
        &self,
        caller: VpeId,
        dst: SelId,
        mem_dst: SelId,
        req: PeRequest,
        name: &str,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CREATE_VPE).await;
        // Placement and capability setup run under one state borrow; an
        // out-of-PEs outcome breaks out of the block so the ktk spill-over
        // round trip awaits with the borrow released.
        let placed = 'placed: {
            let mut st = self.state.borrow_mut();
            let caller_pe = st
                .vpes
                .get(&caller)
                .ok_or_else(|| Error::new(Code::VpeGone))?
                .borrow()
                .pe;
            let caller_ty = st.pemng.desc(caller_pe).ty;
            let pe = match st.pemng.alloc(req, caller_ty) {
                // Overcommit: with every matching PE taken, time-multiplex
                // the least-loaded one instead of failing (§4.1/§7 future
                // work: the kernel suspends VPEs via DTU state save/restore).
                Err(e) if e.code() == Code::NoFreePe && self.cfg.overcommit => {
                    self.pick_overcommit_pe(&st, req, caller_ty)
                }
                other => other,
            };
            let pe = match pe {
                Ok(pe) => pe,
                Err(e) => break 'placed Err((e, caller_ty)),
            };
            let id = VpeId::new(st.next_vpe);
            st.next_vpe += 1;
            let vpe = Rc::new(RefCell::new(VpeObj::new(id, name, pe)));
            st.vpes.insert(id, vpe.clone());

            // The caller owns the root VPE capability; the child's self
            // capability (selector 0) derives from it, so revoking the
            // parent's handle resets the child — not the other way around.
            Self::table(&mut st, caller)?
                .insert(dst, Capability::new(KObject::Vpe(vpe.clone())))?;
            st.tree.insert_root((caller, dst));
            let mut table = CapTable::new();
            table.insert(SelId::new(0), Capability::new(KObject::Vpe(vpe)))?;
            st.tables.insert(id, table);
            st.tree.insert_child((caller, dst), (id, SelId::new(0)));
            let mgate = Rc::new(MGateObj {
                pe,
                offset: 0,
                size: SPM_DATA_SIZE as u64,
                perm: Perm::RW,
                owned: false,
            });
            Self::table(&mut st, caller)?
                .insert(mem_dst, Capability::new(KObject::MGate(mgate)))?;
            st.tree.insert_root((caller, mem_dst));
            // In overcommit mode every multiplexable child joins its PE's
            // run queue (accelerators and pinned PEs stay exclusive). The
            // PE's DTU arrival notify doubles as the scheduler wake signal.
            let mut queued = false;
            if self.cfg.overcommit
                && !st.pemng.desc(pe).is_fft_accel()
                && !self.pinned.borrow().contains(&pe)
            {
                let wake = self.ktok.arrival_notify(pe)?;
                if self.sched.borrow_mut().admit(id, pe, wake) == Admission::Queued {
                    queued = true;
                }
            }
            Ok((id, pe, queued))
        };
        let (id, pe, queued) = match placed {
            Ok(t) => t,
            // Sharded multikernel (§7): out of PEs locally, forward the
            // placement to the peer shard with the most free PEs; the
            // returned capabilities are delegated back so the caller's
            // session keeps working transparently.
            Err((e, caller_ty)) => {
                if e.code() == Code::NoFreePe {
                    if let Some(ctx) = self.shard_ctx() {
                        return self
                            .create_vpe_remote(&ctx, caller, dst, mem_dst, req, caller_ty, name)
                            .await;
                    }
                }
                return Err(e);
            }
        };
        if queued {
            // The PE is occupied: the channel goes into the VPE's DTU save
            // area and materializes at its first restore.
            self.stash_sysc_channel(id, pe)?;
        } else {
            self.setup_sysc_channel(id, pe)?;
            if self.sched.borrow().manages(id) {
                self.ktok.set_current_ctx(pe, u64::from(id.raw()))?;
                self.resumed_at.borrow_mut().insert(pe, self.sim.now());
            }
        }
        // Charge the remote EP configuration packets.
        self.charge_ep_config(pe).await;
        let mut os = OStream::new();
        os.push_u32(id.raw()).push_u32(pe.raw());
        Ok(os.into_bytes())
    }

    async fn sys_vpe_start(&self, caller: VpeId, vpe: SelId) -> Result<Vec<u8>> {
        let target = {
            let mut st = self.state.borrow_mut();
            Self::table(&mut st, caller)?.get(vpe)?.obj.clone()
        };
        match target {
            KObject::Vpe(vpe_obj) => {
                let mut v = vpe_obj.borrow_mut();
                match v.state {
                    VpeState::Init => {
                        v.state = VpeState::Running;
                        Ok(Vec::new())
                    }
                    _ => Err(Error::new(Code::InvArgs).with_msg("VPE not in init state")),
                }
            }
            // A remotely placed child is started by its own shard's kernel.
            KObject::RemoteVpe(r) => {
                let ctx = self.shard_ctx_or_err()?;
                self.ktk_request(&ctx, r.shard, |req_id| KtkMsg::StartVpe {
                    req_id,
                    vpe: r.vpe,
                })
                .await?
                .into_result()?;
                Ok(Vec::new())
            }
            other => {
                Err(Error::new(Code::InvCap)
                    .with_msg(format!("expected vpe, found {}", other.kind())))
            }
        }
    }

    async fn handle_vpe_wait(&self, caller: VpeId, vpe: SelId) -> SyscallReply {
        let target = {
            let mut st = self.state.borrow_mut();
            let table = match Self::table(&mut st, caller) {
                Ok(t) => t,
                Err(e) => return SyscallReply::err(e.code()),
            };
            match table.get(vpe).map(|c| c.obj.clone()) {
                Ok(obj) => obj,
                Err(e) => return SyscallReply::err(e.code()),
            }
        };
        let vpe_obj = match target {
            KObject::Vpe(v) => v,
            // Wait on a remotely placed child: its shard's kernel holds
            // the exit code and replies once the VPE is gone.
            KObject::RemoteVpe(r) => {
                let ctx = match self.shard_ctx_or_err() {
                    Ok(c) => c,
                    Err(e) => return SyscallReply::err(e.code()),
                };
                let reply = self
                    .ktk_request(&ctx, r.shard, |req_id| KtkMsg::WaitVpe {
                        req_id,
                        vpe: r.vpe,
                    })
                    .await
                    .and_then(KtkReply::into_result);
                return match reply {
                    Ok(r) => {
                        let mut os = OStream::new();
                        os.push_i64(r.a as i64);
                        SyscallReply::ok_with(os.into_bytes())
                    }
                    Err(e) => SyscallReply::err(e.code()),
                };
            }
            _ => return SyscallReply::err(Code::InvCap),
        };
        loop {
            let (code, exited) = {
                let v = vpe_obj.borrow();
                (v.exit_code(), v.exited.clone())
            };
            if let Some(code) = code {
                let mut os = OStream::new();
                os.push_i64(code);
                return SyscallReply::ok_with(os.into_bytes());
            }
            exited.wait().await;
        }
    }

    async fn sys_create_srv(
        &self,
        caller: VpeId,
        dst: SelId,
        rgate: SelId,
        name: &str,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CAP_OP).await;
        let (rgate_obj, kernel_ep) = {
            let mut st = self.state.borrow_mut();
            let rgate_obj = match &Self::table(&mut st, caller)?.get(rgate)?.obj {
                KObject::RGate(g) => g.clone(),
                other => {
                    return Err(Error::new(Code::InvCap)
                        .with_msg(format!("expected rgate, found {}", other.kind())))
                }
            };
            let ep = EpId::new(st.next_serv_ep);
            if ep.idx() >= m3_base::cfg::EP_COUNT {
                return Err(Error::new(Code::OutOfMem).with_msg("kernel out of service EPs"));
            }
            st.next_serv_ep += 1;
            (rgate_obj, ep)
        };
        let Some((rpe, rep)) = *rgate_obj.activation.borrow() else {
            return Err(Error::new(Code::InvArgs).with_msg("service rgate not activated"));
        };
        // The kernel-service channel, created at registration (§4.5.3).
        self.ktok.configure(
            self.pe,
            kernel_ep,
            EpConfig::Send {
                pe: rpe,
                ep: rep,
                label: 0,
                credits: None,
                max_payload: rgate_obj.max_payload(),
            },
        )?;
        let serv = Rc::new(ServObj {
            name: name.to_string(),
            owner: caller,
            rgate: rgate_obj,
            kernel_ep,
        });
        let mut st = self.state.borrow_mut();
        st.services.register(serv.clone())?;
        Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::Serv(serv)))?;
        st.tree.insert_root((caller, dst));
        Ok(Vec::new())
    }

    fn register_pending(&self) -> (u64, Notify, Rc<RefCell<Option<ServiceReply>>>) {
        let mut st = self.state.borrow_mut();
        let req_id = st.next_req;
        st.next_req += 1;
        let slot = Rc::new(RefCell::new(None));
        let ready = Notify::new();
        st.pending.insert(
            req_id,
            PendingReply {
                slot: slot.clone(),
                ready: ready.clone(),
            },
        );
        (req_id, ready, slot)
    }

    async fn forward_to_service(
        &self,
        serv: &Rc<ServObj>,
        req: ServiceRequest,
    ) -> Result<ServiceReply> {
        self.sim.sleep(costs::SERVICE_FORWARD).await;
        // Clean path: with no fault plane armed the kernel trusts the
        // service to answer eventually (it is on-chip and kernel-started),
        // and this code is cycle-identical to the pre-fault kernel.
        if self.dtu.system().faults().is_none() {
            let (req_id, ready, slot) = self.register_pending();
            self.dtu
                .send(
                    serv.kernel_ep,
                    &req.to_bytes(),
                    Some((keps::SERV_REPLY, req_id)),
                )
                .await?;
            loop {
                if let Some(reply) = slot.borrow_mut().take() {
                    return Ok(reply);
                }
                ready.wait().await;
            }
        }
        // Faulted path: bound each attempt, retry a few times, then declare
        // the service unreachable. Each attempt registers a fresh request id
        // so a late reply to an abandoned attempt is simply ignored by the
        // reply pump.
        for attempt in 0..=costs::SERVICE_RETRIES {
            let (req_id, ready, slot) = self.register_pending();
            if let Err(e) = self
                .dtu
                .send(
                    serv.kernel_ep,
                    &req.to_bytes(),
                    Some((keps::SERV_REPLY, req_id)),
                )
                .await
            {
                self.state.borrow_mut().pending.remove(&req_id);
                return Err(e);
            }
            let deadline = self.sim.now() + costs::SERVICE_TIMEOUT;
            let wait = async {
                loop {
                    if let Some(reply) = slot.borrow_mut().take() {
                        return reply;
                    }
                    ready.wait().await;
                }
            };
            match m3_sim::with_deadline(&self.sim, deadline, wait).await {
                Some(reply) => return Ok(reply),
                None => {
                    self.state.borrow_mut().pending.remove(&req_id);
                    let at = self.sim.now();
                    self.sim.tracer().record_with(|| Event {
                        at,
                        dur: m3_base::Cycles::ZERO,
                        pe: Some(self.pe),
                        comp: Component::Kernel,
                        kind: EventKind::Recovery {
                            action: "service_retry".to_string(),
                            attempt,
                        },
                    });
                }
            }
        }
        Err(Error::new(Code::Unreachable).with_msg("service did not reply"))
    }

    async fn handle_open_sess(
        &self,
        caller: VpeId,
        dst: SelId,
        name: &str,
        arg: u64,
    ) -> SyscallReply {
        // Bind before matching: the scrutinee temporary would otherwise
        // keep the state borrowed across the remote-lookup await.
        let found = self.state.borrow().services.find(name);
        let serv = match found {
            Ok(s) => s,
            Err(e) => {
                // Remote mount (§7): a service another shard registered is
                // reachable through that shard's kernel. Unknown locally,
                // try the peers.
                if let Some(ctx) = self.shard_ctx() {
                    return self
                        .open_sess_remote(&ctx, caller, dst, name, arg, &e)
                        .await;
                }
                return SyscallReply::err(e.code());
            }
        };
        let reply = match self
            .forward_to_service(&serv, ServiceRequest::Open { arg })
            .await
        {
            Ok(r) => r,
            Err(e) => return SyscallReply::err(e.code()),
        };
        if let Some(code) = reply.error {
            return SyscallReply::err(code);
        }
        let sess = Rc::new(SessObj {
            serv,
            ident: reply.ident,
        });
        let mut st = self.state.borrow_mut();
        let table = match Self::table(&mut st, caller) {
            Ok(t) => t,
            Err(e) => return SyscallReply::err(e.code()),
        };
        if let Err(e) = table.insert(dst, Capability::new(KObject::Sess(sess))) {
            return SyscallReply::err(e.code());
        }
        st.tree.insert_root((caller, dst));
        SyscallReply::ok()
    }

    async fn handle_exchange_sess(
        &self,
        caller: VpeId,
        sess: SelId,
        obtain: bool,
        caps: &[SelId],
        args: &[u8],
    ) -> SyscallReply {
        let target = {
            let mut st = self.state.borrow_mut();
            let table = match Self::table(&mut st, caller) {
                Ok(t) => t,
                Err(e) => return SyscallReply::err(e.code()),
            };
            match table.get(sess).map(|c| c.obj.clone()) {
                Ok(obj) => obj,
                Err(e) => return SyscallReply::err(e.code()),
            }
        };
        let sess_obj = match target {
            KObject::Sess(s) => s,
            // A remotely opened session: the exchange runs through the
            // kernel of the shard that hosts the service.
            KObject::RemoteSess(r) => {
                return self
                    .exchange_sess_remote(caller, &r, obtain, caps, args)
                    .await;
            }
            _ => return SyscallReply::err(Code::InvCap),
        };
        let reply = match self
            .forward_to_service(
                &sess_obj.serv,
                ServiceRequest::Exchange {
                    ident: sess_obj.ident,
                    obtain,
                    cap_count: caps.len() as u32,
                    args: args.to_vec(),
                },
            )
            .await
        {
            Ok(r) => r,
            Err(e) => return SyscallReply::err(e.code()),
        };
        if let Some(code) = reply.error {
            return SyscallReply::err(code);
        }
        if reply.caps.len() > caps.len() {
            return SyscallReply::err(Code::BadMessage);
        }
        // Move the capabilities between the service owner and the caller.
        let owner = sess_obj.serv.owner;
        for (i, serv_sel) in reply.caps.iter().enumerate() {
            let (src, dst) = if obtain {
                ((owner, *serv_sel), (caller, caps[i]))
            } else {
                ((caller, caps[i]), (owner, *serv_sel))
            };
            if let Err(e) = self.copy_cap(src, dst) {
                return SyscallReply::err(e.code());
            }
        }
        SyscallReply::ok_with(reply.args)
    }

    async fn sys_exchange(
        &self,
        caller: VpeId,
        vpe: SelId,
        own: SelId,
        other: SelId,
        obtain: bool,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CAP_OP).await;
        let target = {
            let mut st = self.state.borrow_mut();
            Self::table(&mut st, caller)?.get(vpe)?.obj.clone()
        };
        match target {
            KObject::Vpe(v) => {
                let peer = v.borrow().id;
                let (src, dst) = if obtain {
                    ((peer, other), (caller, own))
                } else {
                    ((caller, own), (peer, other))
                };
                self.copy_cap(src, dst)?;
                Ok(Vec::new())
            }
            // Cross-shard delegation (§4.5.3): the capability is converted
            // to a self-contained descriptor and installed by the child's
            // shard. Only delegation is supported — obtaining would need
            // the remote kernel to descriptor-ize an arbitrary capability
            // the child might not even have yet.
            KObject::RemoteVpe(r) => {
                if obtain {
                    return Err(Error::new(Code::NotSup)
                        .with_msg("cannot obtain from a remotely placed VPE"));
                }
                let ctx = self.shard_ctx_or_err()?;
                let desc = {
                    let mut st = self.state.borrow_mut();
                    let obj = Self::table(&mut st, caller)?.get(own)?.obj.clone();
                    Self::desc_of_obj(&obj)?
                };
                self.ktk_request(&ctx, r.shard, |req_id| KtkMsg::DelegateCap {
                    req_id,
                    vpe: r.vpe,
                    sel: other.raw(),
                    desc,
                })
                .await?
                .into_result()?;
                // Remember the edge so revoking the local capability cuts
                // the remote copy too.
                ctx.remote_children
                    .borrow_mut()
                    .entry((caller, own))
                    .or_default()
                    .push((r.shard, r.vpe, other.raw()));
                Ok(Vec::new())
            }
            other_obj => Err(Error::new(Code::InvCap)
                .with_msg(format!("expected vpe, found {}", other_obj.kind()))),
        }
    }

    /// Copies a capability between tables and records the delegation edge.
    fn copy_cap(&self, src: (VpeId, SelId), dst: (VpeId, SelId)) -> Result<()> {
        let mut st = self.state.borrow_mut();
        let obj = Self::table(&mut st, src.0)?.get(src.1)?.obj.clone();
        // Receive gates cannot be delegated (§4.5.4): they may have messages
        // arriving at any time and cannot be moved.
        if matches!(obj, KObject::RGate(_)) {
            return Err(Error::new(Code::NotSup).with_msg("receive capabilities are not delegable"));
        }
        // A delegated memory capability references the region but does not
        // own it: only revoking the root returns it to the allocator.
        let obj = match obj {
            KObject::MGate(mg) if mg.owned => KObject::MGate(Rc::new(MGateObj {
                owned: false,
                ..(*mg).clone()
            })),
            other => other,
        };
        Self::table(&mut st, dst.0)?.insert(dst.1, Capability::new(obj))?;
        st.tree.insert_child(src, dst);
        Ok(())
    }

    async fn handle_activate(
        &self,
        caller: VpeId,
        vpe: SelId,
        ep: EpId,
        gate: SelId,
    ) -> SyscallReply {
        if ep.idx() < std_eps::FIRST_FREE as usize || ep.idx() >= m3_base::cfg::EP_COUNT {
            return SyscallReply::err(Code::InvEp);
        }
        self.sim.sleep(costs::ACTIVATE).await;
        let (target, caller_pe, obj) = {
            let mut st = self.state.borrow_mut();
            let table = match Self::table(&mut st, caller) {
                Ok(t) => t,
                Err(e) => return SyscallReply::err(e.code()),
            };
            // Resolve the target VPE through the caller's capability.
            let (target, target_pe) = match table.get(vpe).map(|c| c.obj.clone()) {
                Ok(KObject::Vpe(v)) => (v.borrow().id, v.borrow().pe),
                // A remote child's endpoints belong to its own shard's
                // kernel; the parent delegates capabilities instead and the
                // child activates them itself.
                Ok(KObject::RemoteVpe(_)) => return SyscallReply::err(Code::NotSup),
                Ok(_) => return SyscallReply::err(Code::InvCap),
                Err(e) => return SyscallReply::err(e.code()),
            };
            match table.get(gate).map(|c| c.obj.clone()) {
                Ok(obj) => (target, target_pe, obj),
                Err(e) => return SyscallReply::err(e.code()),
            }
        };

        let cfg = match &obj {
            KObject::SGate(sg) => {
                // Defer until the receive gate is activated somewhere
                // (§4.5.4: "defer the reply to the system call until the
                // receiver is ready to receive messages").
                loop {
                    let (act, activated) = {
                        let g = &sg.rgate;
                        (*g.activation.borrow(), g.activated.clone())
                    };
                    if let Some((rpe, rep)) = act {
                        break EpConfig::Send {
                            pe: rpe,
                            ep: rep,
                            label: sg.label,
                            credits: sg.credits,
                            max_payload: sg.rgate.max_payload(),
                        };
                    }
                    activated.wait().await;
                }
            }
            KObject::RGate(rg) => {
                if rg.activation.borrow().is_some() {
                    // Receive gates cannot be moved while senders exist.
                    return SyscallReply::err(Code::NotSup);
                }
                // Validate the buffer placement in the target SPM: the
                // kernel ensures ring buffers do not overlap and fit the
                // protected region before enabling replies (§4.4.4).
                let bytes = rg.slots as u64 * rg.slot_size as u64;
                {
                    let mut st = self.state.borrow_mut();
                    let used = st.ringbuf_bytes.entry(caller_pe).or_insert(0);
                    if *used + bytes > RINGBUF_SPM_BUDGET {
                        return SyscallReply::err(Code::OutOfMem);
                    }
                    *used += bytes;
                }
                *rg.activation.borrow_mut() = Some((caller_pe, ep));
                rg.activated.notify_all();
                EpConfig::Receive {
                    slots: rg.slots as usize,
                    slot_size: rg.slot_size as usize,
                    allow_replies: true,
                }
            }
            // A cross-shard send gate is activated by construction: the
            // descriptor only crossed the boundary because its receive gate
            // was already pinned to `(pe, ep)`, so no deferral is needed.
            KObject::XSGate(x) => EpConfig::Send {
                pe: x.pe,
                ep: x.ep,
                label: x.label,
                credits: x.credits,
                max_payload: x.max_payload,
            },
            KObject::MGate(mg) => EpConfig::Memory {
                pe: mg.pe,
                offset: mg.offset,
                len: mg.size,
                perm: mg.perm,
            },
            _ => return SyscallReply::err(Code::InvCap),
        };

        if let Err(e) = self.ktok.configure(caller_pe, ep, cfg) {
            return SyscallReply::err(e.code());
        }
        self.charge_ep_config(caller_pe).await;
        // Record the activation for invalidation on revoke. A receive gate
        // pins its endpoint for good, so it also takes the endpoint out of
        // the record of the capability that held it before: revoking that
        // one must not tear down the ring buffer. Multiplexed memory and
        // send gates leave the old record in place; an invalidation of a
        // reused frame endpoint reaches the pager as an eviction, which
        // re-faults the page.
        {
            let mut st = self.state.borrow_mut();
            let prev = st.ep_owners.insert((target, ep), (caller, gate));
            if let (Some((v, s)), KObject::RGate(_)) = (prev, &obj) {
                if let Some(prev) = st.tables.get_mut(&v).and_then(|t| t.get_mut(s).ok()) {
                    prev.activations.retain(|a| *a != (caller_pe, ep));
                }
            }
            if let Ok(table) = Self::table(&mut st, caller) {
                if let Ok(cap) = table.get_mut(gate) {
                    cap.activations.push((caller_pe, ep));
                }
            }
        }
        SyscallReply::ok()
    }

    async fn sys_revoke(&self, caller: VpeId, sel: SelId) -> Result<Vec<u8>> {
        let count = self.revoke_cap(caller, sel);
        self.sim
            .sleep(costs::REVOKE_PER_CAP * (count as u64).max(1))
            .await;
        Ok(Vec::new())
    }

    /// Copies `len` bytes between two offsets of the DRAM store — the
    /// page-move primitive of the pager (swap-in, write-back). Pure data
    /// movement; the caller charges the time via
    /// [`Kernel::charge_page_move`].
    fn dram_copy(&self, src: u64, dst: u64, len: usize) {
        if let Some(dram) = self.platform.dtu_system().memory(self.platform.dram_pe()) {
            let mut store = dram.borrow_mut();
            store.copy_within(src as usize..src as usize + len, dst as usize);
        }
    }

    /// Charges one page-sized pager copy: command setup, the page at the
    /// DTU's streaming rate, and one DRAM access.
    async fn charge_page_move(&self) {
        self.sim.sleep(m3_vm::costs::PAGE_COPY_SETUP).await;
        self.sim.sleep(m3_vm::costs::PAGE_COPY_XFER).await;
        self.sim.sleep(m3_dtu::timing::DRAM_LATENCY).await;
    }

    /// The PE `vpe` runs on, for per-PE paging metrics; falls back to the
    /// kernel's own PE for callers it no longer tracks.
    fn vpe_pe(&self, vpe: VpeId) -> PeId {
        self.state
            .borrow()
            .vpes
            .get(&vpe)
            .map_or(self.pe, |v| v.borrow().pe)
    }

    /// Frees resident frames beyond the address space's bound, clean pages
    /// first (they already match their swap copy or were never written);
    /// a dirty victim is written back to the VPE's swap region before its
    /// frame is reused. The victim's frame capability is revoked so the
    /// faulting PE is cut off the frame at the NoC level before the frame
    /// backs someone else's page.
    async fn evict_if_needed(&self, caller: VpeId) -> Result<()> {
        loop {
            let plan = {
                let st = self.state.borrow();
                match st.addr_spaces.get(&caller) {
                    Some(aspace) if aspace.needs_eviction() => aspace.plan_eviction(),
                    _ => return Ok(()),
                }
            };
            let Some(plan) = plan else { return Ok(()) };
            let mut slot = None;
            if plan.writeback {
                let (sl, addr) = {
                    let mut st = self.state.borrow_mut();
                    let st = &mut *st;
                    let aspace = st
                        .addr_spaces
                        .get_mut(&caller)
                        .ok_or_else(|| Error::new(Code::InvArgs).with_msg("no address space"))?;
                    if aspace.swap.is_none() {
                        let bytes = SwapRegion::bytes_for(m3_vm::SWAP_PAGES_DEFAULT);
                        let base = st.mem.alloc(bytes)?;
                        aspace.swap = Some(SwapRegion::new(base, m3_vm::SWAP_PAGES_DEFAULT));
                    }
                    let existing = aspace.entry(plan.page).and_then(|e| e.swap_slot);
                    let swap = aspace
                        .swap
                        .as_mut()
                        .ok_or_else(|| Error::new(Code::Internal).with_msg("swap vanished"))?;
                    let sl = match existing {
                        Some(s) => s,
                        None => swap.alloc_slot().ok_or_else(|| {
                            Error::new(Code::NoSpace).with_msg("swap region full")
                        })?,
                    };
                    (sl, swap.slot_addr(sl))
                };
                self.dram_copy(plan.frame, addr, PAGE_SIZE as usize);
                self.charge_page_move().await;
                let pe = self.vpe_pe(caller);
                self.sim
                    .metrics()
                    .add(pe, m3_sim::keys::WRITEBACK_BYTES, PAGE_SIZE);
                let now = self.sim.now();
                self.sim.tracer().record_with(|| Event {
                    at: now,
                    dur: Cycles::ZERO,
                    pe: Some(pe),
                    comp: Component::Vm,
                    kind: EventKind::WriteBack {
                        virt: plan.page * PAGE_SIZE,
                        bytes: PAGE_SIZE,
                    },
                });
                {
                    let mut st = self.state.borrow_mut();
                    if let Some(aspace) = st.addr_spaces.get_mut(&caller) {
                        aspace.writebacks += 1;
                        aspace.writeback_bytes += PAGE_SIZE;
                    }
                }
                slot = Some(sl);
            }
            let cap = {
                let mut st = self.state.borrow_mut();
                let st = &mut *st;
                let Some(aspace) = st.addr_spaces.get_mut(&caller) else {
                    return Ok(());
                };
                let cap = aspace.complete_eviction(plan.page, slot);
                st.mem.free(plan.frame, PAGE_SIZE);
                cap
            };
            if let Some(sel) = cap {
                let count = self.revoke_cap(caller, sel);
                self.sim
                    .sleep(costs::REVOKE_PER_CAP * (count as u64).max(1))
                    .await;
            }
        }
    }

    /// Fills a freshly allocated `frame` for a non-resident fault — copies
    /// the swap slot back in (page-in) or hands it out zeroed — then maps
    /// it and records the fault. Factored out of [`Kernel::sys_page_fault`]
    /// so every error path can free the frame in one place.
    #[allow(clippy::too_many_arguments)]
    async fn fill_frame(
        &self,
        caller: VpeId,
        kind: FaultKind,
        frame: u64,
        page: u64,
        dst: SelId,
        write: bool,
        pe: PeId,
    ) -> Result<Perm> {
        match kind {
            FaultKind::SwapIn(slot) => {
                let addr = {
                    let st = self.state.borrow();
                    let aspace = st
                        .addr_spaces
                        .get(&caller)
                        .ok_or_else(|| Error::new(Code::Internal).with_msg("lost address space"))?;
                    let swap = aspace.swap.as_ref().ok_or_else(|| {
                        Error::new(Code::Internal).with_msg("swap-in without swap region")
                    })?;
                    swap.slot_addr(slot)
                };
                self.dram_copy(addr, frame, PAGE_SIZE as usize);
                self.charge_page_move().await;
                let now = self.sim.now();
                self.sim.tracer().record_with(|| Event {
                    at: now,
                    dur: Cycles::ZERO,
                    pe: Some(pe),
                    comp: Component::Vm,
                    kind: EventKind::PageIn {
                        virt: page * PAGE_SIZE,
                        bytes: PAGE_SIZE,
                    },
                });
                if let Some(aspace) = self.state.borrow_mut().addr_spaces.get_mut(&caller) {
                    aspace.page_ins += 1;
                }
            }
            _ => {
                // Fresh frames are handed out zeroed (the frame may have
                // been used before; like m3fs, zeroing happens off the
                // application's critical path, §5.4).
                if let Some(dram) = self.platform.dtu_system().memory(self.platform.dram_pe()) {
                    let mut store = dram.borrow_mut();
                    let start = frame as usize;
                    store[start..start + PAGE_SIZE as usize].fill(0);
                }
            }
        }
        let mut st = self.state.borrow_mut();
        let aspace = st
            .addr_spaces
            .get_mut(&caller)
            .ok_or_else(|| Error::new(Code::Internal).with_msg("lost address space"))?;
        aspace.faults += 1;
        aspace.map(page, frame, Perm::RW, Some(dst));
        aspace.touch(page, write);
        let perm = aspace.entry(page).map_or(Perm::RW, |e| e.perm);
        self.counters.page_faults.incr();
        self.sim.metrics().incr(pe, m3_sim::keys::PAGE_FAULTS);
        let now = self.sim.now();
        self.sim.tracer().record_with(|| Event {
            at: now,
            dur: Cycles::ZERO,
            pe: Some(pe),
            comp: Component::Vm,
            kind: EventKind::PageFault {
                virt: page * PAGE_SIZE,
                write,
            },
        });
        Ok(perm)
    }

    /// Serves a page fault (§7): walks the caller's kernel-owned page
    /// table and replies with a frame capability at `dst` — the resident
    /// frame, a zeroed frame on first touch, or a frame refilled from the
    /// VPE's swap region when the page had been evicted. The handed-out
    /// capability carries only the *faulted* access (intersected with the
    /// page's permissions), so the first write to a read-faulted page
    /// faults again and sets the kernel-side dirty bit.
    async fn sys_page_fault(
        &self,
        caller: VpeId,
        dst: SelId,
        virt: u64,
        access: Perm,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(m3_vm::costs::FAULT_WALK).await;
        let access = access & Perm::RW;
        if access.is_empty() {
            return Err(Error::new(Code::InvArgs).with_msg("empty fault access"));
        }
        let page = virt / PAGE_SIZE;
        let write = access.contains(Perm::W);
        let pe = self.vpe_pe(caller);

        let kind = {
            let mut st = self.state.borrow_mut();
            // The table must exist before classification so a dead caller
            // still errors on the table lookup below, not here.
            Self::table(&mut st, caller)?;
            let aspace = st
                .addr_spaces
                .entry(caller)
                .or_insert_with(|| AddrSpaceObj::new(self.cfg.vm_resident_pages));
            aspace.classify(page)
        };

        let (frame, perm, old_cap) = match kind {
            FaultKind::Resident => {
                let mut st = self.state.borrow_mut();
                let aspace = st
                    .addr_spaces
                    .get_mut(&caller)
                    .ok_or_else(|| Error::new(Code::Internal).with_msg("lost address space"))?;
                aspace.touch(page, write);
                let entry = aspace
                    .entry_mut(page)
                    .ok_or_else(|| Error::new(Code::Internal).with_msg("resident without entry"))?;
                let frame = entry
                    .frame
                    .ok_or_else(|| Error::new(Code::Internal).with_msg("resident without frame"))?;
                let perm = entry.perm;
                // One live frame capability per page: the previous one is
                // replaced (and revoked below) so eviction only ever has a
                // single selector to cut.
                let old = entry.cap.replace(dst);
                (frame, perm, old.filter(|s| *s != dst))
            }
            FaultKind::SwapIn(_) | FaultKind::Zero => {
                self.evict_if_needed(caller).await?;
                let frame = self.state.borrow_mut().mem.alloc(PAGE_SIZE)?;
                // Anything failing past this point (typically: the caller
                // crashed during a page-move await and teardown removed its
                // address space) must return the frame, or the crash path
                // leaks DRAM.
                match self
                    .fill_frame(caller, kind, frame, page, dst, write, pe)
                    .await
                {
                    Ok(perm) => (frame, perm, None),
                    Err(e) => {
                        self.state.borrow_mut().mem.free(frame, PAGE_SIZE);
                        return Err(e);
                    }
                }
            }
        };

        if let Some(old) = old_cap {
            self.revoke_cap(caller, old);
        }
        let mgate = Rc::new(MGateObj {
            pe: self.platform.dram_pe(),
            offset: frame,
            size: PAGE_SIZE,
            perm: access & perm,
            owned: false, // the page table owns the frame
        });
        let mut st = self.state.borrow_mut();
        Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::MGate(mgate)))?;
        st.tree.insert_root((caller, dst));
        let mut os = OStream::new();
        os.push_u64(page * PAGE_SIZE);
        Ok(os.into_bytes())
    }

    /// Removes a mapping: frees its frame (if resident) and swap slot (if
    /// any) and revokes the handed-out frame capability.
    async fn sys_unmap(&self, caller: VpeId, virt: u64) -> Result<Vec<u8>> {
        self.sim.sleep(m3_vm::costs::FAULT_WALK).await;
        let page = virt / PAGE_SIZE;
        let cap = {
            let mut st = self.state.borrow_mut();
            let st = &mut *st;
            let aspace = st
                .addr_spaces
                .get_mut(&caller)
                .ok_or_else(|| Error::new(Code::InvArgs).with_msg("page not mapped"))?;
            let entry = aspace
                .unmap(page)
                .ok_or_else(|| Error::new(Code::InvArgs).with_msg("page not mapped"))?;
            if let Some(frame) = entry.frame {
                st.mem.free(frame, PAGE_SIZE);
            }
            if let Some(slot) = entry.swap_slot {
                if let Some(swap) = aspace.swap.as_mut() {
                    swap.free_slot(slot);
                }
            }
            entry.cap
        };
        if let Some(sel) = cap {
            self.revoke_cap(caller, sel);
        }
        Ok(Vec::new())
    }

    /// Revokes `(vpe, sel)` recursively; returns the number of removed caps.
    fn revoke_cap(&self, vpe: VpeId, sel: SelId) -> usize {
        let removed = self.state.borrow_mut().tree.revoke((vpe, sel));
        let shard = self.shard_ctx();
        let mut freed_regions = Vec::new();
        let mut dead_vpes = Vec::new();
        for (v, s) in &removed {
            let cap = {
                let mut st = self.state.borrow_mut();
                st.tables.get_mut(v).and_then(|t| t.remove(*s))
            };
            let Some(cap) = cap else { continue };
            // Cross-shard legs of the recursive revoke (§4.5.3): copies
            // this capability spawned in peer shards are cut with
            // fire-and-forget revokes, and a remote-VPE proxy takes its
            // VPE down with it (§4.5.5).
            if let Some(ctx) = &shard {
                let edges = ctx.remote_children.borrow_mut().remove(&(*v, *s));
                for (peer, rvpe, rsel) in edges.into_iter().flatten() {
                    self.ktk_send(
                        ctx,
                        peer,
                        &KtkMsg::RevokeCap {
                            vpe: rvpe,
                            sel: rsel,
                        },
                    );
                }
                if let KObject::RemoteVpe(r) = &cap.obj {
                    self.ktk_send(ctx, r.shard, &KtkMsg::RevokeVpe { vpe: r.vpe });
                }
            }
            // Invalidate all endpoints configured from this capability.
            for (pe, ep) in &cap.activations {
                let _ = self.ktok.configure(*pe, *ep, EpConfig::Invalid);
                if let KObject::RGate(rg) = &cap.obj {
                    if rg.activation.borrow_mut().take().is_some() {
                        // Return the ring buffer's SPM bytes.
                        let bytes = rg.slots as u64 * rg.slot_size as u64;
                        let mut st = self.state.borrow_mut();
                        if let Some(used) = st.ringbuf_bytes.get_mut(pe) {
                            *used = used.saturating_sub(bytes);
                        }
                    }
                }
            }
            // Owned memory regions return to the allocator.
            if let KObject::MGate(mg) = &cap.obj {
                if mg.owned {
                    freed_regions.push((mg.offset, mg.size));
                }
            }
            // Revoking a VPE capability resets the PE (§4.5.5: "the owner
            // of the VPE capability could revoke it to let the kernel reset
            // the associated PE").
            if let KObject::Vpe(vobj) = &cap.obj {
                dead_vpes.push(vobj.clone());
            }
        }
        {
            let mut st = self.state.borrow_mut();
            for (off, size) in freed_regions {
                st.mem.free(off, size);
            }
        }
        for vobj in dead_vpes {
            self.destroy_vpe(&vobj, -1);
        }
        removed.len()
    }

    /// Tears a VPE down: marks it dead, revokes everything it held, frees
    /// its PE, and invalidates its syscall channel. Idempotent.
    fn destroy_vpe(&self, vpe_obj: &Rc<RefCell<VpeObj>>, code: i64) {
        let (id, pe) = {
            let mut v = vpe_obj.borrow_mut();
            if !v.is_alive() {
                return;
            }
            v.state = VpeState::Dead(code);
            (v.id, v.pe)
        };
        let sels = {
            let st = self.state.borrow();
            st.tables
                .get(&id)
                .map(|t| t.selectors())
                .unwrap_or_default()
        };
        for sel in sels {
            self.revoke_cap(id, sel);
        }
        let removal = self.sched.borrow_mut().remove(id);
        {
            let mut st = self.state.borrow_mut();
            st.tables.remove(&id);
            match removal {
                // Exclusive owner: the PE is free again immediately.
                Removal::NotManaged => {
                    st.pemng.free(pe);
                    self.pinned.borrow_mut().remove(&pe);
                }
                // Multiplexed: the PE stays busy until its last VPE is gone.
                Removal::Removed { now_empty, .. } => {
                    if now_empty {
                        st.pemng.free(pe);
                    }
                }
            }
            // Free the VPE's address space: resident frames and the swap
            // region go back to the allocator (§7 prototype).
            if let Some(mut aspace) = st.addr_spaces.remove(&id) {
                for page in aspace.pages() {
                    if let Some(entry) = aspace.unmap(page) {
                        if let Some(frame) = entry.frame {
                            st.mem.free(frame, PAGE_SIZE);
                        }
                    }
                }
                if let Some(swap) = aspace.swap.take() {
                    st.mem.free(swap.base, swap.size_bytes());
                }
            }
        }
        match removal {
            Removal::Removed {
                was_resident: false,
                ..
            } => {
                // Switched out: its endpoints live in the save area, not on
                // the PE — discard the area instead of the live registers.
                let _ = self.ktok.drop_saved(pe, u64::from(id.raw()));
            }
            _ => {
                if let Removal::Removed { .. } = removal {
                    if let Some(t0) = self.resumed_at.borrow_mut().remove(&pe) {
                        self.sim.metrics().observe(
                            pe,
                            m3_sim::keys::SLICE_CYCLES,
                            (self.sim.now() - t0).as_u64(),
                        );
                    }
                }
                let _ = self
                    .ktok
                    .configure(pe, std_eps::SYSC_SEND, EpConfig::Invalid);
                let _ = self
                    .ktok
                    .configure(pe, std_eps::SYSC_REPLY, EpConfig::Invalid);
            }
        }
        vpe_obj.borrow().exited.notify_all();
        self.counters.vpe_exits.incr();
    }

    fn handle_exit(&self, caller: VpeId, code: i64) {
        let vpe_obj = {
            let st = self.state.borrow();
            st.vpes.get(&caller).cloned()
        };
        if let Some(vpe_obj) = vpe_obj {
            self.destroy_vpe(&vpe_obj, code);
        }
    }

    // ------------------------------------------------------------------
    // Sharded multikernel (ktk, §7)
    // ------------------------------------------------------------------

    /// The shard context, if this kernel is part of a sharded multikernel.
    pub fn shard_ctx(&self) -> Option<Rc<ShardCtx>> {
        self.shard.borrow().clone()
    }

    fn shard_ctx_or_err(&self) -> Result<Rc<ShardCtx>> {
        self.shard_ctx().ok_or_else(|| {
            Error::new(Code::Internal).with_msg("remote capability without a shard context")
        })
    }

    /// Joins this kernel to a sharded multikernel as shard `id` of `count`:
    /// `peers` lists every other shard's kernel PE and `send` delivers raw
    /// ktk bytes to a peer shard. [`Kernel::connect_shards`] wires the
    /// kernels of one `Sim` together over the NoC; PDES-island deployments
    /// pass a closure that writes to the island boundary port instead.
    /// Call before [`Kernel::attach_faults`] so the shard watchdog arms.
    pub fn set_shard(
        &self,
        id: u32,
        count: u32,
        peers: &[(u32, PeId)],
        send: Box<dyn Fn(u32, Vec<u8>)>,
    ) {
        let peer_free = peers.iter().map(|(s, _)| (*s, 0usize)).collect();
        *self.shard.borrow_mut() = Some(Rc::new(ShardCtx {
            id,
            count,
            send,
            peer_pes: peers.iter().copied().collect(),
            peer_free: RefCell::new(peer_free),
            dead: RefCell::new(BTreeSet::new()),
            next_req: Cell::new(1),
            pending: RefCell::new(BTreeMap::new()),
            remote_children: RefCell::new(BTreeMap::new()),
        }));
    }

    /// Wires `kernels` (one per shard, all inside one `Sim`) into a sharded
    /// multikernel: shard ids follow slice order, and ktk messages ride the
    /// NoC between the kernel PEs, charged like any other transfer. With a
    /// fault plane armed, messages to or from a crashed kernel PE are
    /// dropped on the floor — what a dead router port does — so the
    /// timeout/watchdog recovery paths are exercised, not bypassed.
    pub fn connect_shards(kernels: &[Kernel]) {
        if kernels.len() < 2 {
            // One kernel is not a multikernel: attach no shard context so
            // the single-shard path stays cycle-identical to a standalone
            // kernel.
            return;
        }
        let n = kernels.len() as u32;
        let all: Vec<(u32, PeId)> = kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (i as u32, k.pe))
            .collect();
        for (i, k) in kernels.iter().enumerate() {
            let id = i as u32;
            let peers: Vec<(u32, PeId)> = all.iter().filter(|(s, _)| *s != id).copied().collect();
            let by_shard: BTreeMap<u32, Kernel> = kernels
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(j, other)| (j as u32, other.clone()))
                .collect();
            let schedule = k
                .dtu
                .system()
                .faults()
                .map(|f| f.crash_schedule())
                .unwrap_or_default();
            let src_crash = schedule.iter().find(|(p, _)| *p == k.pe).map(|(_, at)| *at);
            let crash_of: BTreeMap<u32, Cycles> = all
                .iter()
                .filter_map(|(s, pe)| {
                    schedule
                        .iter()
                        .find(|(p, _)| p == pe)
                        .map(|(_, at)| (*s, *at))
                })
                .collect();
            let src = k.clone();
            let send = Box::new(move |dst: u32, bytes: Vec<u8>| {
                let Some(dst_k) = by_shard.get(&dst) else {
                    return;
                };
                let sim = src.sim.clone();
                // A crashed kernel PE neither sends nor receives.
                if src_crash.is_some_and(|at| sim.now() >= at) {
                    return;
                }
                let t = src.dtu.system().noc().schedule(
                    sim.now(),
                    src.pe,
                    dst_k.pe,
                    bytes.len() as u64,
                );
                let dst_crash = crash_of.get(&dst).copied();
                let dst_k = dst_k.clone();
                let sim2 = sim.clone();
                let name = TaskName::pair(
                    "ktk-wire-PE",
                    src.pe.raw().into(),
                    "-PE",
                    dst_k.pe.raw().into(),
                );
                sim.spawn_detached(name, async move {
                    sim2.sleep_until(t.completes_at).await;
                    if dst_crash.is_some_and(|at| sim2.now() >= at) {
                        return;
                    }
                    dst_k.ktk_deliver(&bytes);
                });
            });
            k.set_shard(id, n, &peers, send);
        }
        // Announce the initial loads so spill-over placement starts from
        // real free-PE counts instead of zeros.
        for k in kernels {
            k.ktk_hello();
        }
    }

    /// Announces this shard's current free-PE count to every live peer.
    pub fn ktk_hello(&self) {
        if let Some(ctx) = self.shard_ctx() {
            for peer in ctx.alive_peers() {
                self.ktk_send(&ctx, peer, &KtkMsg::Hello);
            }
        }
    }

    /// Sends one ktk message, stamping the shard header (id + free-PE
    /// count) and emitting the sending-side `ShardOp` trace event.
    /// Messages to shards the watchdog declared dead are dropped silently:
    /// every ktk send is either fire-and-forget or tracked by a pending
    /// request that the watchdog already failed.
    fn ktk_send(&self, ctx: &ShardCtx, dst: u32, msg: &KtkMsg) {
        if ctx.dead.borrow().contains(&dst) {
            return;
        }
        let free = self.state.borrow().pemng.free_count() as u32;
        let at = self.sim.now();
        self.sim.tracer().record_with(|| Event {
            at,
            dur: m3_base::Cycles::ZERO,
            pe: Some(self.pe),
            comp: Component::Kernel,
            kind: EventKind::ShardOp {
                shard: ctx.id,
                peer: dst,
                op: msg.name().to_string(),
            },
        });
        (ctx.send)(dst, msg.to_bytes(ctx.id, free));
    }

    /// Sends a request to shard `dst` and waits for its reply. Mirrors
    /// [`Kernel::forward_to_service`]: with no fault plane armed the wait
    /// is unbounded (the peer kernel is on-chip and answers eventually)
    /// and the path is cycle-identical to a fault-free build; with faults
    /// armed, one bounded attempt converts silence into `Unreachable` —
    /// no retry, because cross-shard requests are not idempotent
    /// (placement allocates).
    async fn ktk_request(
        &self,
        ctx: &Rc<ShardCtx>,
        dst: u32,
        build: impl FnOnce(u64) -> KtkMsg,
    ) -> Result<KtkReply> {
        if ctx.dead.borrow().contains(&dst) {
            return Err(Error::new(Code::Unreachable).with_msg(format!("shard {dst} is dead")));
        }
        self.sim.sleep(costs::KTK_FORWARD).await;
        let req_id = ctx.next_req.get();
        ctx.next_req.set(req_id + 1);
        let slot = Rc::new(RefCell::new(None));
        let ready = Notify::new();
        ctx.pending.borrow_mut().insert(
            req_id,
            KtkPending {
                slot: slot.clone(),
                ready: ready.clone(),
                to: dst,
            },
        );
        self.ktk_send(ctx, dst, &build(req_id));
        if self.dtu.system().faults().is_none() {
            loop {
                if let Some(reply) = slot.borrow_mut().take() {
                    return Ok(reply);
                }
                ready.wait().await;
            }
        }
        let deadline = self.sim.now() + costs::KTK_TIMEOUT;
        let wait = async {
            loop {
                if let Some(reply) = slot.borrow_mut().take() {
                    return reply;
                }
                ready.wait().await;
            }
        };
        match m3_sim::with_deadline(&self.sim, deadline, wait).await {
            Some(reply) => Ok(reply),
            None => {
                ctx.pending.borrow_mut().remove(&req_id);
                Err(Error::new(Code::Unreachable).with_msg("peer kernel did not reply"))
            }
        }
    }

    /// Feeds one raw ktk message into this kernel. Transports call this on
    /// the receiving side: requests are dispatched to detached handler
    /// tasks — the serial syscall loop never blocks on a peer, so two
    /// shards forwarding to each other cannot deadlock — and replies are
    /// routed straight to the waiting request.
    pub fn ktk_deliver(&self, bytes: &[u8]) {
        let Some(ctx) = self.shard_ctx() else { return };
        let Ok((src, free, msg)) = KtkMsg::from_bytes(bytes) else {
            self.sim.stats().incr("kernel.ktk_bad_messages");
            return;
        };
        // Piggybacked load feed: every message refreshes the sender's
        // advertised free-PE count (unless the watchdog declared it dead).
        if !ctx.dead.borrow().contains(&src) {
            ctx.peer_free.borrow_mut().insert(src, free as usize);
        }
        match msg {
            KtkMsg::Hello => {}
            KtkMsg::Reply { req_id, reply } => {
                let pending = ctx.pending.borrow_mut().remove(&req_id);
                if let Some(p) = pending {
                    *p.slot.borrow_mut() = Some(reply);
                    p.ready.notify_all();
                }
            }
            msg => {
                let at = self.sim.now();
                self.sim.tracer().record_with(|| Event {
                    at,
                    dur: m3_base::Cycles::ZERO,
                    pe: Some(self.pe),
                    comp: Component::Kernel,
                    kind: EventKind::ShardOp {
                        shard: ctx.id,
                        peer: src,
                        op: msg.name().to_string(),
                    },
                });
                let k = self.clone();
                let name = TaskName::tagged("ktk-", msg.name(), "@PE", self.pe.raw().into());
                self.sim.spawn_detached(name, async move {
                    k.ktk_handle(&ctx, src, msg).await;
                });
            }
        }
    }

    /// Handles one peer request: counted as a kernel operation of this
    /// shard, charged the dispatch share, and answered with a `Reply`
    /// (unless fire-and-forget).
    async fn ktk_handle(&self, ctx: &Rc<ShardCtx>, src: u32, msg: KtkMsg) {
        self.sim.sleep(costs::KTK_DISPATCH).await;
        self.counters.ktk_requests.incr();
        self.sim.metrics().incr(self.pe, m3_sim::keys::KERNEL_OPS);
        let outcome = match msg {
            KtkMsg::PlaceVpe { req_id, name, want } => {
                Some((req_id, self.ktk_place_vpe(&name, want).await))
            }
            KtkMsg::StartVpe { req_id, vpe } => Some((req_id, self.ktk_start_vpe(vpe))),
            KtkMsg::WaitVpe { req_id, vpe } => Some((req_id, self.ktk_wait_vpe(vpe).await)),
            KtkMsg::RevokeVpe { vpe } => {
                self.ktk_revoke_vpe(vpe);
                None
            }
            KtkMsg::DelegateCap {
                req_id,
                vpe,
                sel,
                desc,
            } => Some((req_id, self.ktk_delegate_cap(vpe, sel, &desc).await)),
            KtkMsg::RevokeCap { vpe, sel } => {
                self.ktk_revoke_cap(vpe, sel).await;
                None
            }
            KtkMsg::OpenSess { req_id, name, arg } => {
                Some((req_id, self.ktk_open_sess(&name, arg).await))
            }
            KtkMsg::ExchangeSess {
                req_id,
                serv,
                ident,
                obtain,
                cap_count,
                descs,
                args,
            } => Some((
                req_id,
                self.ktk_exchange_sess(&serv, ident, obtain, cap_count, &descs, &args)
                    .await,
            )),
            // Routed in `ktk_deliver`, never dispatched here.
            KtkMsg::Hello | KtkMsg::Reply { .. } => None,
        };
        if let Some((req_id, result)) = outcome {
            let reply = result.unwrap_or_else(|e| KtkReply::err(e.code()));
            self.ktk_send(ctx, src, &KtkMsg::Reply { req_id, reply });
        }
    }

    /// Places a VPE for a peer shard (`PlaceVpe`): allocation, object
    /// setup, and the syscall channel work exactly like a local
    /// `CreateVpe`, but the parent lives in the requesting shard, so the
    /// child's self capability is a local root — the parent edge is the
    /// requester's `RemoteVpe` proxy, cut via `RevokeVpe`.
    async fn ktk_place_vpe(&self, name: &str, want: PeRequest) -> Result<KtkReply> {
        self.sim.sleep(costs::CREATE_VPE).await;
        let (id, pe) = {
            let mut st = self.state.borrow_mut();
            // `Same` cannot cross shards (the sender resolves it first); a
            // stray one falls back to the base compute type.
            let pe = st.pemng.alloc(want, PeType::Xtensa)?;
            let id = VpeId::new(st.next_vpe);
            st.next_vpe += 1;
            let vpe = Rc::new(RefCell::new(VpeObj::new(id, name, pe)));
            st.vpes.insert(id, vpe.clone());
            let mut table = CapTable::new();
            table.insert(SelId::new(0), Capability::new(KObject::Vpe(vpe)))?;
            st.tables.insert(id, table);
            st.tree.insert_root((id, SelId::new(0)));
            (id, pe)
        };
        self.setup_sysc_channel(id, pe)?;
        self.charge_ep_config(pe).await;
        Ok(KtkReply::ok(u64::from(id.raw()), u64::from(pe.raw())))
    }

    fn ktk_start_vpe(&self, vpe: u32) -> Result<KtkReply> {
        let vpe_obj = self
            .state
            .borrow()
            .vpes
            .get(&VpeId::new(vpe))
            .cloned()
            .ok_or_else(|| Error::new(Code::VpeGone).with_msg("unknown remote VPE"))?;
        let mut v = vpe_obj.borrow_mut();
        match v.state {
            VpeState::Init => {
                v.state = VpeState::Running;
                Ok(KtkReply::ok(0, 0))
            }
            _ => Err(Error::new(Code::InvArgs).with_msg("VPE not in init state")),
        }
    }

    async fn ktk_wait_vpe(&self, vpe: u32) -> Result<KtkReply> {
        let vpe_obj = self
            .state
            .borrow()
            .vpes
            .get(&VpeId::new(vpe))
            .cloned()
            .ok_or_else(|| Error::new(Code::VpeGone).with_msg("unknown remote VPE"))?;
        loop {
            let (code, exited) = {
                let v = vpe_obj.borrow();
                (v.exit_code(), v.exited.clone())
            };
            if let Some(code) = code {
                // The exit code travels as its i64 bit pattern.
                return Ok(KtkReply::ok(code as u64, 0));
            }
            exited.wait().await;
        }
    }

    fn ktk_revoke_vpe(&self, vpe: u32) {
        let vpe_obj = self.state.borrow().vpes.get(&VpeId::new(vpe)).cloned();
        if let Some(v) = vpe_obj {
            self.destroy_vpe(&v, -1);
        }
    }

    async fn ktk_delegate_cap(&self, vpe: u32, sel: u32, desc: &CapDesc) -> Result<KtkReply> {
        self.sim.sleep(costs::CAP_OP).await;
        self.install_desc(VpeId::new(vpe), SelId::new(sel), desc)?;
        Ok(KtkReply::ok(0, 0))
    }

    async fn ktk_revoke_cap(&self, vpe: u32, sel: u32) {
        let count = self.revoke_cap(VpeId::new(vpe), SelId::new(sel));
        self.sim
            .sleep(costs::REVOKE_PER_CAP * (count as u64).max(1))
            .await;
    }

    async fn ktk_open_sess(&self, name: &str, arg: u64) -> Result<KtkReply> {
        let serv = self.state.borrow().services.find(name)?;
        let reply = self
            .forward_to_service(&serv, ServiceRequest::Open { arg })
            .await?;
        if let Some(code) = reply.error {
            return Err(Error::new(code));
        }
        Ok(KtkReply::ok(reply.ident, 0))
    }

    /// A capability exchange forwarded by a peer shard: runs the local
    /// service protocol and converts the capability legs to descriptors —
    /// obtain hands the service's capabilities back as descriptors,
    /// delegate installs the carried descriptors into the service owner's
    /// table.
    async fn ktk_exchange_sess(
        &self,
        serv_name: &str,
        ident: u64,
        obtain: bool,
        cap_count: u32,
        descs: &[CapDesc],
        args: &[u8],
    ) -> Result<KtkReply> {
        let serv = self.state.borrow().services.find(serv_name)?;
        let reply = self
            .forward_to_service(
                &serv,
                ServiceRequest::Exchange {
                    ident,
                    obtain,
                    cap_count,
                    args: args.to_vec(),
                },
            )
            .await?;
        if let Some(code) = reply.error {
            return Err(Error::new(code));
        }
        if reply.caps.len() as u32 > cap_count {
            return Err(Error::new(Code::BadMessage));
        }
        let owner = serv.owner;
        if obtain {
            let mut out = Vec::new();
            {
                let mut st = self.state.borrow_mut();
                for serv_sel in &reply.caps {
                    let obj = Self::table(&mut st, owner)?
                        .get(*serv_sel)
                        .map(|c| c.obj.clone())?;
                    out.push(Self::desc_of_obj(&obj)?);
                }
            }
            Ok(KtkReply {
                code: None,
                a: 0,
                b: 0,
                caps: out,
                args: reply.args,
            })
        } else {
            if reply.caps.len() > descs.len() {
                return Err(Error::new(Code::BadMessage));
            }
            for (i, serv_sel) in reply.caps.iter().enumerate() {
                self.install_desc(owner, *serv_sel, &descs[i])?;
            }
            Ok(KtkReply {
                code: None,
                a: 0,
                b: 0,
                caps: Vec::new(),
                args: reply.args,
            })
        }
    }

    /// Cross-shard `CreateVpe` spill-over (requesting side): tries peer
    /// shards most-free-first until one admits the VPE, then installs a
    /// `RemoteVpe` proxy plus the child-SPM memory gate — the same two
    /// capabilities a local `CreateVpe` yields, so the caller's session
    /// keeps working transparently.
    #[allow(clippy::too_many_arguments)]
    async fn create_vpe_remote(
        &self,
        ctx: &Rc<ShardCtx>,
        caller: VpeId,
        dst: SelId,
        mem_dst: SelId,
        req: PeRequest,
        caller_ty: PeType,
        name: &str,
    ) -> Result<Vec<u8>> {
        let want = match req {
            PeRequest::Same => PeRequest::Type(caller_ty),
            other => other,
        };
        let mut tried: BTreeSet<u32> = BTreeSet::new();
        loop {
            let peer = {
                let free = ctx.peer_free.borrow();
                ktk::choose_peer(
                    free.iter()
                        .filter(|(s, _)| !tried.contains(*s))
                        .map(|(s, f)| (*s, *f)),
                )
            };
            let Some(peer) = peer else {
                return Err(Error::new(Code::NoFreePe)
                    .with_msg(format!("no shard can place request {req:?}")));
            };
            tried.insert(peer);
            let reply = self
                .ktk_request(ctx, peer, |req_id| KtkMsg::PlaceVpe {
                    req_id,
                    name: name.to_string(),
                    want,
                })
                .await?;
            match reply.into_result() {
                Ok(r) => {
                    let vpe_raw = r.a as u32;
                    let pe = PeId::new(r.b as u32);
                    let install = {
                        let mut st = self.state.borrow_mut();
                        (|| -> Result<()> {
                            let robj = Rc::new(RemoteVpeObj {
                                shard: peer,
                                vpe: vpe_raw,
                                pe,
                            });
                            Self::table(&mut st, caller)?
                                .insert(dst, Capability::new(KObject::RemoteVpe(robj)))?;
                            st.tree.insert_root((caller, dst));
                            let mgate = Rc::new(MGateObj {
                                pe,
                                offset: 0,
                                size: SPM_DATA_SIZE as u64,
                                perm: Perm::RW,
                                owned: false,
                            });
                            if let Err(e) = Self::table(&mut st, caller)?
                                .insert(mem_dst, Capability::new(KObject::MGate(mgate)))
                            {
                                // Roll the proxy back out so the caller's
                                // table is unchanged on failure.
                                st.tree.revoke((caller, dst));
                                if let Some(t) = st.tables.get_mut(&caller) {
                                    t.remove(dst);
                                }
                                return Err(e);
                            }
                            st.tree.insert_root((caller, mem_dst));
                            Ok(())
                        })()
                    };
                    if let Err(e) = install {
                        // The placement would leak on the peer; take it back.
                        self.ktk_send(ctx, peer, &KtkMsg::RevokeVpe { vpe: vpe_raw });
                        return Err(e);
                    }
                    self.counters.remote_placements.incr();
                    let mut os = OStream::new();
                    os.push_u32(vpe_raw).push_u32(pe.raw());
                    return Ok(os.into_bytes());
                }
                // The peer's advertised load was stale; try the next one.
                Err(e) if e.code() == Code::NoFreePe => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Remote-mount leg of `OpenSess` (requesting side): asks each live
    /// peer shard, ascending, for the named service and installs a
    /// `RemoteSess` proxy on the first hit.
    async fn open_sess_remote(
        &self,
        ctx: &Rc<ShardCtx>,
        caller: VpeId,
        dst: SelId,
        name: &str,
        arg: u64,
        local_err: &Error,
    ) -> SyscallReply {
        for peer in ctx.alive_peers() {
            let reply = self
                .ktk_request(ctx, peer, |req_id| KtkMsg::OpenSess {
                    req_id,
                    name: name.to_string(),
                    arg,
                })
                .await
                .and_then(KtkReply::into_result);
            match reply {
                Ok(r) => {
                    let sess = Rc::new(RemoteSessObj {
                        shard: peer,
                        serv: name.to_string(),
                        ident: r.a,
                    });
                    let mut st = self.state.borrow_mut();
                    let table = match Self::table(&mut st, caller) {
                        Ok(t) => t,
                        Err(e) => return SyscallReply::err(e.code()),
                    };
                    if let Err(e) = table.insert(dst, Capability::new(KObject::RemoteSess(sess))) {
                        return SyscallReply::err(e.code());
                    }
                    st.tree.insert_root((caller, dst));
                    return SyscallReply::ok();
                }
                // This peer does not host it either; keep looking.
                Err(e) if e.code() == Code::InvService => {}
                Err(e) => return SyscallReply::err(e.code()),
            }
        }
        SyscallReply::err(local_err.code())
    }

    /// Cross-shard `ExchangeSess` (requesting side): ships the exchange to
    /// the shard hosting the service; obtained capabilities come back as
    /// descriptors and are installed into the caller's chosen selectors,
    /// delegated ones are descriptor-ized here and installed remotely.
    async fn exchange_sess_remote(
        &self,
        caller: VpeId,
        rs: &Rc<RemoteSessObj>,
        obtain: bool,
        caps: &[SelId],
        args: &[u8],
    ) -> SyscallReply {
        let ctx = match self.shard_ctx_or_err() {
            Ok(c) => c,
            Err(e) => return SyscallReply::err(e.code()),
        };
        let mut descs = Vec::new();
        if !obtain {
            let mut st = self.state.borrow_mut();
            for sel in caps {
                let obj = match Self::table(&mut st, caller)
                    .and_then(|t| t.get(*sel).map(|c| c.obj.clone()))
                {
                    Ok(o) => o,
                    Err(e) => return SyscallReply::err(e.code()),
                };
                match Self::desc_of_obj(&obj) {
                    Ok(d) => descs.push(d),
                    Err(e) => return SyscallReply::err(e.code()),
                }
            }
        }
        let reply = self
            .ktk_request(&ctx, rs.shard, |req_id| KtkMsg::ExchangeSess {
                req_id,
                serv: rs.serv.clone(),
                ident: rs.ident,
                obtain,
                cap_count: caps.len() as u32,
                descs,
                args: args.to_vec(),
            })
            .await
            .and_then(KtkReply::into_result);
        let reply = match reply {
            Ok(r) => r,
            Err(e) => return SyscallReply::err(e.code()),
        };
        if reply.caps.len() > caps.len() {
            return SyscallReply::err(Code::BadMessage);
        }
        // Obtain direction: install what the service handed back.
        for (i, desc) in reply.caps.iter().enumerate() {
            if let Err(e) = self.install_desc(caller, caps[i], desc) {
                return SyscallReply::err(e.code());
            }
        }
        SyscallReply::ok_with(reply.args)
    }

    /// Converts a local capability into a descriptor that can cross a
    /// shard boundary. Only fully hardware-resolved objects qualify:
    /// memory regions and activated send gates. Receive gates are refused
    /// exactly like in VPE-to-VPE delegation (§4.5.4).
    fn desc_of_obj(obj: &KObject) -> Result<CapDesc> {
        match obj {
            KObject::MGate(mg) => Ok(CapDesc::Mem {
                pe: mg.pe.raw(),
                offset: mg.offset,
                size: mg.size,
                perm: mg.perm,
            }),
            KObject::SGate(sg) => {
                let Some((rpe, rep)) = *sg.rgate.activation.borrow() else {
                    return Err(Error::new(Code::NotSup)
                        .with_msg("only activated send gates can cross shards"));
                };
                Ok(CapDesc::SGate {
                    pe: rpe.raw(),
                    ep: rep.raw(),
                    label: sg.label,
                    credits: sg.credits.unwrap_or(0),
                    max_payload: sg.rgate.max_payload() as u32,
                })
            }
            KObject::XSGate(x) => Ok(CapDesc::SGate {
                pe: x.pe.raw(),
                ep: x.ep.raw(),
                label: x.label,
                credits: x.credits.unwrap_or(0),
                max_payload: x.max_payload as u32,
            }),
            KObject::RGate(_) => {
                Err(Error::new(Code::NotSup).with_msg("receive capabilities are not delegable"))
            }
            other => Err(Error::new(Code::NotSup)
                .with_msg(format!("a {} capability cannot cross shards", other.kind()))),
        }
    }

    /// Installs a descriptor received from a peer shard as a root
    /// capability in `(vpe, sel)`.
    fn install_desc(&self, vpe: VpeId, sel: SelId, desc: &CapDesc) -> Result<()> {
        let obj = match desc {
            CapDesc::Mem {
                pe,
                offset,
                size,
                perm,
            } => KObject::MGate(Rc::new(MGateObj {
                pe: PeId::new(*pe),
                offset: *offset,
                size: *size,
                perm: *perm,
                // The region's allocator lives with the origin shard.
                owned: false,
            })),
            CapDesc::SGate {
                pe,
                ep,
                label,
                credits,
                max_payload,
            } => KObject::XSGate(Rc::new(XSGateObj {
                pe: PeId::new(*pe),
                ep: EpId::new(*ep),
                label: *label,
                credits: if *credits == 0 { None } else { Some(*credits) },
                max_payload: *max_payload as usize,
            })),
        };
        let mut st = self.state.borrow_mut();
        Self::table(&mut st, vpe)?.insert(sel, Capability::new(obj))?;
        st.tree.insert_root((vpe, sel));
        Ok(())
    }

    /// Severs a dead peer shard: marks it dead, fails the in-flight
    /// requests addressed to it with `Unreachable`, drops its delegation
    /// edges, and revokes every proxy capability pointing into it (so
    /// cross-shard access is actually cut, not just orphaned).
    fn on_peer_shard_dead(&self, peer: u32) {
        let Some(ctx) = self.shard_ctx() else { return };
        if !ctx.dead.borrow_mut().insert(peer) {
            return;
        }
        ctx.peer_free.borrow_mut().remove(&peer);
        let stuck: Vec<KtkPending> = {
            let mut pending = ctx.pending.borrow_mut();
            let ids: Vec<u64> = pending
                .iter()
                .filter(|(_, p)| p.to == peer)
                .map(|(id, _)| *id)
                .collect();
            ids.into_iter()
                .filter_map(|id| pending.remove(&id))
                .collect()
        };
        for p in stuck {
            *p.slot.borrow_mut() = Some(KtkReply::err(Code::Unreachable));
            p.ready.notify_all();
        }
        ctx.remote_children
            .borrow_mut()
            .values_mut()
            .for_each(|edges| edges.retain(|(s, _, _)| *s != peer));
        let refs: Vec<(VpeId, SelId)> = {
            let st = self.state.borrow();
            let mut refs = Vec::new();
            for (vid, table) in &st.tables {
                for sel in table.selectors() {
                    let hits = table.get(sel).is_ok_and(|cap| match &cap.obj {
                        KObject::RemoteVpe(r) => r.shard == peer,
                        KObject::RemoteSess(r) => r.shard == peer,
                        _ => false,
                    });
                    if hits {
                        refs.push((*vid, sel));
                    }
                }
            }
            refs
        };
        let at = self.sim.now();
        self.sim.tracer().record_with(|| Event {
            at,
            dur: m3_base::Cycles::ZERO,
            pe: Some(self.pe),
            comp: Component::Kernel,
            kind: EventKind::Recovery {
                action: format!("dead_shard:{peer}"),
                attempt: 0,
            },
        });
        for (v, s) in refs {
            self.revoke_cap(v, s);
        }
    }

    // ------------------------------------------------------------------
    // VPE time-multiplexing (m3-sched)
    // ------------------------------------------------------------------

    /// Whether `vpe` is under scheduler control (time-multiplexed).
    pub fn sched_manages(&self, vpe: VpeId) -> bool {
        self.sched.borrow().manages(vpe)
    }

    /// Number of context switches performed so far on `pe` (diagnostics).
    pub fn ctx_switches(&self, pe: PeId) -> u64 {
        self.sim.metrics().get(pe, m3_sim::keys::CTX_SWITCHES)
    }

    /// Parks `vpe` until a message can be fetched from its endpoint `ep`,
    /// running another VPE of the PE in the meantime (the blocked-receive
    /// funnel of the cooperative multiplexing model).
    ///
    /// Returns when `vpe` is resident with a message pending at `ep`, or —
    /// mirroring one iteration of the [`Dtu::recv`] poll loop — after a
    /// single arrival wake while it stays resident, so the caller re-polls
    /// with exactly the cycle pattern of the unmanaged path. Unmanaged VPEs
    /// return immediately.
    ///
    /// # Errors
    ///
    /// Propagates DTU errors from the save/restore transfers.
    pub async fn sched_wait_msg(&self, vpe: VpeId, ep: EpId) -> Result<()> {
        enum Act {
            Return,
            Switch(VpeId),
            Restore,
            WaitOnce,
            Wait,
        }
        loop {
            let (pe, act) = {
                let mut sched = self.sched.borrow_mut();
                let Some(pe) = sched.pe_of(vpe) else {
                    return Ok(());
                };
                let act = if sched.is_resident(vpe) {
                    if self.ktok.has_message(pe, ep) {
                        sched.mark_active(vpe);
                        Act::Return
                    } else if let Some(next) = sched.park_resident(vpe) {
                        Act::Switch(next)
                    } else {
                        // Nobody ready: blocked in place, zero switch cost.
                        Act::WaitOnce
                    }
                } else if sched.resident_of(pe).is_none() && sched.claim_vacant(vpe) {
                    Act::Restore
                } else {
                    // Switched out: a message in the save area makes this
                    // VPE runnable again.
                    if self.ktok.saved_has_message(pe, u64::from(vpe.raw()), ep) {
                        sched.unpark(vpe);
                    }
                    Act::Wait
                };
                (pe, act)
            };
            match act {
                Act::Return => return Ok(()),
                Act::Switch(next) => self.spawn_switch(pe, Some(vpe), next),
                Act::Restore => self.spawn_switch(pe, None, vpe),
                Act::WaitOnce => {
                    self.ktok.arrival_notify(pe)?.wait().await;
                    return Ok(());
                }
                Act::Wait => self.ktok.arrival_notify(pe)?.wait().await,
            }
        }
    }

    /// Forces a parked `vpe` back onto the ready queue and waits for
    /// residency — the recovery step after a timed-out receive abandoned its
    /// wait mid-park, so the caller never touches the DTU while another
    /// VPE's state is live.
    ///
    /// # Errors
    ///
    /// Propagates DTU errors from the restore transfer.
    pub async fn sched_interrupt(&self, vpe: VpeId) -> Result<()> {
        self.sched.borrow_mut().unpark(vpe);
        self.sched_acquire(vpe).await
    }

    /// Blocks until `vpe` holds its PE, restoring it if the PE is vacant
    /// (used before a freshly started VPE runs, and after a yield).
    /// Unmanaged VPEs return immediately.
    ///
    /// # Errors
    ///
    /// Propagates DTU errors from the restore transfer.
    pub async fn sched_acquire(&self, vpe: VpeId) -> Result<()> {
        enum Act {
            Ready,
            Restore,
            Wait,
        }
        loop {
            let (pe, act) = {
                let mut sched = self.sched.borrow_mut();
                let Some(pe) = sched.pe_of(vpe) else {
                    return Ok(());
                };
                let act = if sched.is_resident(vpe) {
                    sched.mark_active(vpe);
                    Act::Ready
                } else if sched.resident_of(pe).is_none() && sched.claim_vacant(vpe) {
                    Act::Restore
                } else {
                    Act::Wait
                };
                (pe, act)
            };
            match act {
                Act::Ready => return Ok(()),
                Act::Restore => self.spawn_switch(pe, None, vpe),
                Act::Wait => self.ktok.arrival_notify(pe)?.wait().await,
            }
        }
    }

    /// Voluntarily offers `vpe`'s slice (`Env::yield_now`): if another VPE
    /// of the PE is ready, the caller moves to the tail of the ready queue
    /// and this returns once it is resident again. A no-op when nobody
    /// waits or the VPE is unmanaged.
    ///
    /// # Errors
    ///
    /// Propagates DTU errors from the save/restore transfers.
    pub async fn sched_yield(&self, vpe: VpeId) -> Result<()> {
        let (pe, next) = {
            let mut sched = self.sched.borrow_mut();
            let Some(pe) = sched.pe_of(vpe) else {
                return Ok(());
            };
            match sched.yield_resident(vpe) {
                Some(next) => (pe, next),
                None => return Ok(()),
            }
        };
        self.spawn_switch(pe, Some(vpe), next);
        self.sched_acquire(vpe).await
    }

    /// Runs [`Kernel::perform_switch`] in a detached kernel task, so the
    /// switch always completes even if the waiter that triggered it is
    /// cancelled (e.g. a timed-out receive dropping its future mid-wait).
    fn spawn_switch(&self, pe: PeId, from: Option<VpeId>, to: VpeId) {
        let k = self.clone();
        let name = TaskName::numbered("kernel-ctxsw@PE", pe.raw().into());
        self.sim.spawn_detached(name, async move {
            let _ = k.perform_switch(pe, from, to).await;
        });
    }

    /// Performs one context switch on `pe`: saves `from` (when the PE is
    /// not vacant) and restores `to`, moving each VPE's architectural state
    /// — endpoint registers, ring-buffer contents, unspent credits, and the
    /// SPM data image — between the PE and its DRAM save area *through the
    /// DTU*, charged at 8 B/cycle (§5.4) plus the fixed per-direction costs
    /// in `m3-sched::costs`.
    async fn perform_switch(&self, pe: PeId, from: Option<VpeId>, to: VpeId) -> Result<()> {
        let started = self.sim.now();
        let dram = self.platform.dram_pe();
        let spm = SPM_DATA_SIZE as u64;
        let mut bytes = 0u64;
        if from.is_some() {
            let (saved, dirty) = self.ktok.save_state(pe)?;
            // Dirty-tracked switches move only the SPM pages the DTU
            // dirtied since the last save; the conservative default moves
            // the whole data image (what the golden pins were recorded
            // with — the two are identical when every page is dirty).
            let data = if self.cfg.dirty_switches {
                self.sim
                    .metrics()
                    .add(pe, m3_sim::keys::DIRTY_PAGES_SAVED, u64::from(dirty));
                u64::from(dirty) * m3_vm::PAGE_SIZE
            } else {
                spm
            };
            let t = self
                .dtu
                .system()
                .noc()
                .schedule(self.sim.now(), pe, dram, saved + data);
            self.sim.sleep_until(t.completes_at).await;
            self.sim.sleep(m3_dtu::timing::DRAM_LATENCY).await;
            self.sim.sleep(m3_sched::costs::CTX_SAVE_FIXED).await;
            bytes += saved + data;
            if let Some(t0) = self.resumed_at.borrow_mut().remove(&pe) {
                self.sim.metrics().observe(
                    pe,
                    m3_sim::keys::SLICE_CYCLES,
                    (self.sim.now() - t0).as_u64(),
                );
            }
        }
        match self.ktok.restore_state(pe, u64::from(to.raw())) {
            Ok((restored, dirty)) => {
                // Restores mirror saves: only the pages the save-out
                // actually transferred come back eagerly.
                let data = if self.cfg.dirty_switches {
                    u64::from(dirty) * m3_vm::PAGE_SIZE
                } else {
                    spm
                };
                let t = self
                    .dtu
                    .system()
                    .noc()
                    .schedule(self.sim.now(), dram, pe, restored + data);
                self.sim.sleep_until(t.completes_at).await;
                self.sim.sleep(m3_sched::costs::CTX_RESTORE_FIXED).await;
                bytes += restored + data;
            }
            Err(_) => {
                // The target died mid-switch (its save area is gone): the
                // PE stays vacant for the next claimant.
                self.sched.borrow_mut().abort_switch(pe, Some(to));
                return Ok(());
            }
        }
        if self.sched.borrow_mut().finish_switch(pe, to) {
            self.resumed_at.borrow_mut().insert(pe, self.sim.now());
        }
        let now = self.sim.now();
        self.sim.tracer().record_with(|| Event {
            at: started,
            dur: now - started,
            pe: Some(pe),
            comp: Component::Kernel,
            kind: EventKind::CtxSwitch {
                from: from.map_or(0, |v| v.raw()),
                to: to.raw(),
                bytes,
            },
        });
        let metrics = self.sim.metrics();
        metrics.incr(pe, m3_sim::keys::CTX_SWITCHES);
        metrics.add(
            pe,
            m3_sim::keys::CTX_SWITCH_CYCLES,
            (now - started).as_u64(),
        );
        let depth = self.sched.borrow().ready_depth(pe) as u64;
        metrics.observe(pe, m3_sim::keys::RUN_QUEUE_DEPTH, depth);
        Ok(())
    }

    /// Charges the NoC time of one remote endpoint-configuration packet.
    async fn charge_ep_config(&self, target: PeId) {
        let t = self.dtu.system().noc().schedule(
            self.sim.now(),
            self.pe,
            target,
            costs::EP_CONFIG_BYTES,
        );
        self.sim.sleep_until(t.completes_at).await;
    }

    fn table(st: &mut KState, vpe: VpeId) -> Result<&mut CapTable> {
        st.tables
            .get_mut(&vpe)
            .ok_or_else(|| Error::new(Code::VpeGone).with_msg(format!("{vpe} has no table")))
    }

    /// Looks up a VPE object (used by libos glue to spawn programs).
    pub fn vpe_obj(&self, vpe: VpeId) -> Option<Rc<RefCell<VpeObj>>> {
        self.state.borrow().vpes.get(&vpe).cloned()
    }

    /// Number of currently free PEs (diagnostics).
    pub fn free_pes(&self) -> usize {
        self.state.borrow().pemng.free_count()
    }

    /// Free DRAM bytes (diagnostics).
    pub fn free_mem(&self) -> u64 {
        self.state.borrow().mem.free_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_platform::PlatformConfig;

    /// Boot a kernel and one root VPE; send raw syscalls from the root PE.
    fn boot() -> (Platform, Kernel, VpeBootInfo) {
        let platform = Platform::new(PlatformConfig::xtensa(4));
        let kernel = Kernel::start(&platform, PeId::new(0));
        let root = kernel.create_root("root", None).unwrap();
        (platform, kernel, root)
    }

    async fn syscall(dtu: &Dtu, call: Syscall) -> SyscallReply {
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
    fn watchdog_destroys_vpe_on_crashed_pe() {
        use m3_fault::{FaultPlan, FaultPlane};

        let (platform, kernel, root) = boot();
        let sim = platform.sim().clone();
        let plane = Rc::new(FaultPlane::new(
            FaultPlan::new().crash_pe(root.pe, m3_base::Cycles::new(10_000)),
        ));
        platform.dtu_system().set_faults(plane.clone());
        kernel.attach_faults(&plane);

        let vpe_obj = kernel.vpe_obj(root.vpe).unwrap();
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

        let (platform, _kernel, root) = boot();
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
    }
}
