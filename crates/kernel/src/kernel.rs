//! Kernel boot, kernel state, and the capability operations every
//! subsystem shares: copy, recursive revoke, and VPE teardown. The
//! subsystems live in child modules: the syscall loop and its table
//! ([`syscall`]), VPE time-multiplexing ([`sched`]), the sharded
//! multikernel ([`shards`]) and demand paging ([`pager`]).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use m3_base::cfg::SPM_DATA_SIZE;
use m3_base::error::{Code, Error, Result};
use m3_base::{Cycles, EpId, PeId, Perm, SelId, VpeId};
use m3_dtu::{Dtu, EpConfig, KernelToken};
use m3_platform::{PeType, Platform};
use m3_sched::{Removal, Scheduler};
use m3_sim::{keys, Component, Event, EventKind, MetricHandle, Metrics, Notify, Sim};
use m3_vm::AddrSpaceObj;

use crate::cap::{CapRef, CapTable, Capability, DerivationTree, KObject, MGateObj};
use crate::costs;
use crate::ktk::KtkMsg;
use crate::mem::MemAlloc;
use crate::pemng::PeMng;
use crate::protocol::{std_eps, PeRequest, ServiceReply, SYSC_MSG_SIZE, SYSC_SLOTS};
use crate::service::ServiceRegistry;
use crate::vpe::{VpeObj, VpeState};

mod pager;
mod sched;
mod shards;
mod syscall;

pub use shards::ShardCtx;

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
    /// The record of every VPE that is alive or still named by a
    /// capability ([`VpeObj::names`]); [`Kernel::reap_vpe`] frees the rest.
    vpes: BTreeMap<VpeId, Rc<RefCell<VpeObj>>>,
    next_vpe: u32,
    pemng: PeMng,
    mem: MemAlloc,
    services: ServiceRegistry,
}

impl KState {
    /// Mints `obj` into `(owner, sel)`: the one place a capability enters a
    /// table, the derivation tree (a root, or a child of `parent`) and, for
    /// a VPE capability, [`VpeObj::names`]; [`Kernel::revoke_cap`] is the
    /// one place it leaves them. Refuses a taken selector ([`Code::Exists`])
    /// or a gone owner ([`Code::VpeGone`]) before touching anything.
    fn mint(&mut self, (owner, sel): CapRef, obj: KObject, parent: Option<CapRef>) -> Result<()> {
        let named = match &obj {
            KObject::Vpe(v) => Some(v.clone()),
            _ => None,
        };
        Kernel::table(self, owner)?.insert(sel, Capability::new(obj))?;
        if let Some(v) = named {
            v.borrow_mut().names += 1;
        }
        match parent {
            Some(parent) => self.tree.insert_child(parent, (owner, sel)),
            None => self.tree.insert_root((owner, sel)),
        }
        Ok(())
    }

    /// Creates VPE `name` on `pe` in the init state, with a capability
    /// table holding its self capability at selector 0. That capability
    /// is a root, or derives from the `creator`'s capability to the VPE,
    /// minted first: revoking the creator's handle resets the VPE.
    fn new_vpe(
        &mut self,
        name: &str,
        pe: PeId,
        creator: Option<CapRef>,
    ) -> Result<(VpeId, Rc<RefCell<VpeObj>>)> {
        let id = VpeId::new(self.next_vpe);
        self.next_vpe += 1;
        let vpe = Rc::new(RefCell::new(VpeObj::new(id, name, pe)));
        self.vpes.insert(id, vpe.clone());
        self.tables.insert(id, CapTable::new());
        if let Some(cap) = creator {
            self.mint(cap, KObject::Vpe(vpe.clone()), None)?;
        }
        self.mint((id, SelId::new(0)), KObject::Vpe(vpe.clone()), creator)?;
        Ok((id, vpe))
    }

    /// Refuses with [`Code::Exists`] unless `sels` are distinct and free
    /// in `owner`'s table: the check a handler makes before it takes a PE,
    /// a name or an endpoint that a refused `mint` would strand.
    fn sels_free(&mut self, owner: VpeId, sels: &[SelId]) -> Result<()> {
        let table = Kernel::table(self, owner)?;
        for (i, sel) in sels.iter().enumerate() {
            if sels[..i].contains(sel) || table.get(*sel).is_ok() {
                return Err(Error::new(Code::Exists).with_msg(format!("{sel} already in use")));
            }
        }
        Ok(())
    }

    /// Mints what a `CreateVpe` yields once both selectors are free: `vpe`
    /// mints the VPE capability (or `RemoteVpe` proxy) at `(caller, dst)`,
    /// and the capability to the SPM of its PE `pe` at `(caller, mem_dst)`
    /// derives from it, so that no access to the PE outlives its revoke.
    fn mint_vpe_pair<T>(
        &mut self,
        caller: VpeId,
        dst: SelId,
        mem_dst: SelId,
        pe: PeId,
        vpe: impl FnOnce(&mut KState, CapRef) -> Result<T>,
    ) -> Result<T> {
        self.sels_free(caller, &[dst, mem_dst])?;
        let made = vpe(self, (caller, dst))?;
        let spm = KObject::MGate(Rc::new(MGateObj {
            pe,
            offset: 0,
            size: SPM_DATA_SIZE as u64,
            perm: Perm::RW,
            owned: false,
        }));
        self.mint((caller, mem_dst), spm, Some((caller, dst)))?;
        Ok(made)
    }
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
    /// [`m3_base::cfg::SPM_DATA_SIZE`] image the golden pins were
    /// recorded with.
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
///
/// Cheaply cloneable; clones share the kernel's state.
#[derive(Clone)]
pub struct Kernel(Rc<KernelInner>);

/// The state every clone of a [`Kernel`] shares. Its fields are private
/// to the kernel; `Kernel` derefs to it so that kernel code reads them
/// through any handle.
pub struct KernelInner {
    sim: Sim,
    platform: Platform,
    dtu: Dtu,
    /// The capability handle over the privileged DTU interface, claimed at
    /// boot while this kernel's PE was still privileged (paper §3).
    ktok: KernelToken,
    pe: PeId,
    state: RefCell<KState>,
    /// Run queues of the time-multiplexed PEs (overcommit mode, m3-sched).
    sched: RefCell<Scheduler>,
    /// Boot-time policy, fixed for the kernel's lifetime.
    cfg: KernelConfig,
    /// PEs that are never multiplexed: boot-time roots (services, drivers)
    /// keep their PE exclusively even in overcommit mode.
    pinned: RefCell<BTreeSet<PeId>>,
    /// Cycle at which the current resident of each multiplexed PE was
    /// installed (start of its slice).
    resumed_at: RefCell<BTreeMap<PeId, Cycles>>,
    /// Sharded-multikernel context (§7), set by [`Kernel::set_shard`];
    /// `None` for a standalone kernel.
    shard: RefCell<Option<Rc<ShardCtx>>>,
    /// Requests forwarded to services, by the owner of each service.
    serv_requests: Outstanding<VpeId, ServiceReply>,
    counters: Counters,
}

impl std::ops::Deref for Kernel {
    type Target = KernelInner;

    fn deref(&self) -> &KernelInner {
        &self.0
    }
}

/// Handles of the kernel's per-operation counters in the simulation's
/// metrics; all but `page_faults` count on the kernel's PE
/// ([`Kernel::count`]).
#[derive(Clone, Copy)]
struct Counters {
    syscalls: MetricHandle,
    ktk_requests: MetricHandle,
    page_faults: MetricHandle,
    vpe_exits: MetricHandle,
    remote_placements: MetricHandle,
    ktk_bad_messages: MetricHandle,
}

impl Counters {
    fn new(metrics: &Metrics) -> Counters {
        Counters {
            syscalls: metrics.handle(keys::KERNEL_SYSCALLS),
            ktk_requests: metrics.handle(keys::KTK_REQUESTS),
            page_faults: metrics.handle(keys::PAGE_FAULTS),
            vpe_exits: metrics.handle(keys::VPE_EXITS),
            remote_placements: metrics.handle(keys::REMOTE_PLACEMENTS),
            ktk_bad_messages: metrics.handle(keys::KTK_BAD_MESSAGES),
        }
    }
}

/// The requests a kernel sent and awaits a reply to, each with its
/// addressee `To` (a service owner's VPE, a peer shard) and reply `T`. An
/// entry lives from [`Outstanding::open`] until its [`Outstanding::wait`]
/// ends. Ids travel on the wire, so each table counts its own from 1.
struct Outstanding<To, T> {
    next: Cell<u64>,
    entries: RefCell<BTreeMap<u64, Request<To, T>>>,
}

struct Request<To, T> {
    to: To,
    reply: Option<T>,
    ready: Notify,
}

impl<To: Copy + Eq, T: Clone> Outstanding<To, T> {
    fn new() -> Self {
        Outstanding {
            next: Cell::new(1),
            entries: RefCell::new(BTreeMap::new()),
        }
    }

    /// Registers a request to `to` and returns its id.
    fn open(&self, to: To) -> u64 {
        let id = self.next.get();
        self.next.set(id + 1);
        let request = Request {
            to,
            reply: None,
            ready: Notify::new(),
        };
        self.entries.borrow_mut().insert(id, request);
        id
    }

    /// Hands `reply` to the wait of request `id`. A reply to an unknown
    /// id (its wait is over) or to an answered one is ignored.
    fn answer(&self, id: u64, reply: T) {
        let ready = match self.entries.borrow_mut().get_mut(&id) {
            Some(r) if r.reply.is_none() => {
                r.reply = Some(reply);
                r.ready.clone()
            }
            _ => return,
        };
        ready.notify_all();
    }

    /// Answers every request to `to` still unanswered with `reply`.
    fn fail_to(&self, to: To, reply: T) {
        let ids: Vec<u64> = self
            .entries
            .borrow()
            .iter()
            .filter(|(_, r)| r.to == to)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.answer(id, reply.clone());
        }
    }

    /// What wakes the wait of request `id` while it is unanswered.
    fn unanswered(&self, id: u64) -> Option<Notify> {
        let entries = self.entries.borrow();
        let request = entries.get(&id).filter(|r| r.reply.is_none())?;
        Some(request.ready.clone())
    }

    /// Waits for the reply to request `id` and removes the request: without
    /// bound when `deadline` is `None` (see [`Kernel::reply_deadline`]),
    /// else `None` once `deadline` passes unanswered.
    async fn wait(&self, sim: &Sim, id: u64, deadline: Option<Cycles>) -> Option<T> {
        let reply = async {
            while let Some(ready) = self.unanswered(id) {
                ready.wait().await;
            }
            self.entries.borrow_mut().remove(&id)?.reply
        };
        match deadline {
            None => reply.await,
            Some(at) => {
                let reply = m3_sim::with_deadline(sim, at, reply).await.flatten();
                self.entries.borrow_mut().remove(&id);
                reply
            }
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
        let dram = platform.dram_size() as u64;
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

        let kernel = Kernel(Rc::new(KernelInner {
            sim: sim.clone(),
            platform: platform.clone(),
            dtu,
            ktok,
            pe: kernel_pe,
            state: RefCell::new(KState {
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
            }),
            sched: RefCell::new(Scheduler::new()),
            cfg,
            pinned: RefCell::new(BTreeSet::new()),
            resumed_at: RefCell::new(BTreeMap::new()),
            shard: RefCell::new(None),
            serv_requests: Outstanding::new(),
            counters: Counters::new(&sim.metrics()),
        }));

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
        let (id, vpe) = st.new_vpe(name, pe, None)?;
        vpe.borrow_mut().state = VpeState::Running;
        drop(st);
        // Boot-time roots (services, benchmark drivers) are never
        // multiplexed; their PE stays exclusive even in overcommit mode.
        self.pinned.borrow_mut().insert(pe);
        self.setup_sysc_channel(id, pe)?;
        Ok(VpeBootInfo { vpe: id, pe })
    }

    /// The syscall channel of VPE `id`: EP1 receives the kernel's replies,
    /// EP0 sends to the kernel's syscall endpoint under label `id`.
    fn sysc_channel(&self, id: VpeId) -> [(EpId, EpConfig); 2] {
        [
            (
                std_eps::SYSC_REPLY,
                EpConfig::Receive {
                    slots: 2,
                    slot_size: SYSC_MSG_SIZE + m3_base::cfg::MSG_HEADER_SIZE,
                    allow_replies: false,
                },
            ),
            (
                std_eps::SYSC_SEND,
                EpConfig::Send {
                    pe: self.pe,
                    ep: keps::SYSC,
                    label: id.raw() as u64,
                    credits: Some(1),
                    max_payload: SYSC_MSG_SIZE,
                },
            ),
        ]
    }

    /// Configures EP0/EP1 of `pe` as the syscall channel of VPE `id`.
    fn setup_sysc_channel(&self, id: VpeId, pe: PeId) -> Result<()> {
        for (ep, cfg) in self.sysc_channel(id) {
            self.ktok.configure(pe, ep, cfg)?;
        }
        Ok(())
    }

    /// Like [`Kernel::setup_sysc_channel`], but writes the configuration
    /// into the *save area* of VPE `id` on `pe` — used for VPEs admitted to
    /// an occupied PE, whose endpoints must not clobber the resident's.
    fn stash_sysc_channel(&self, id: VpeId, pe: PeId) -> Result<()> {
        for (ep, cfg) in self.sysc_channel(id) {
            self.ktok.stash_config(pe, u64::from(id.raw()), ep, cfg)?;
        }
        Ok(())
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
        st.mint(dst, obj, Some(src))
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
            // A service dies with its owner's capability: the name and the
            // kernel's send endpoint to it are free for the next service.
            if let KObject::Serv(serv) = &cap.obj {
                if *v == serv.owner && self.state.borrow().services.unregister(serv) {
                    let _ = self
                        .ktok
                        .configure(self.pe, serv.kernel_ep, EpConfig::Invalid);
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
                vobj.borrow_mut().names -= 1;
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

    /// [`Kernel::revoke_cap`], charged per removed capability.
    async fn revoke_charged(&self, vpe: VpeId, sel: SelId) {
        let count = self.revoke_cap(vpe, sel);
        self.sim
            .sleep(costs::REVOKE_PER_CAP * (count as u64).max(1))
            .await;
    }

    /// Tears a VPE down: marks it dead, revokes everything it held, frees
    /// its PE, and invalidates its syscall channel. Idempotent. Either way
    /// its record is freed if nothing names it any more.
    fn destroy_vpe(&self, vpe_obj: &Rc<RefCell<VpeObj>>, code: i64) {
        let (id, pe) = {
            let mut v = vpe_obj.borrow_mut();
            if !v.is_alive() {
                drop(v);
                self.reap_vpe(vpe_obj);
                return;
            }
            v.state = VpeState::Dead(code);
            (v.id, v.pe)
        };
        self.serv_requests
            .fail_to(id, ServiceReply::err(Code::Unreachable));
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
        if let Removal::Removed { .. } = removal {
            // A multiplexed VPE's save area (if it was switched out) and
            // its doorbell go with it.
            let _ = self.ktok.drop_saved(pe, u64::from(id.raw()));
        }
        match removal {
            Removal::Removed {
                was_resident: false,
                ..
            } => {
                // Switched out: its endpoints lived in the save area, not
                // on the PE, so no live register is touched.
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
        self.count(self.counters.vpe_exits);
        self.reap_vpe(vpe_obj);
    }

    /// Frees the kernel record of a VPE once nothing can name it: the VPE
    /// is dead, its teardown is over, and no capability names it
    /// ([`VpeObj::names`]). Until then its exit code stays readable through
    /// `VpeWait` and ktk `WaitVpe`. Entries keyed by the VPE go with the
    /// record; its scheduler entry, DTU save area and doorbell went at its
    /// death.
    fn reap_vpe(&self, vpe_obj: &Rc<RefCell<VpeObj>>) {
        let (id, named) = {
            let v = vpe_obj.borrow();
            (v.id, v.is_alive() || v.names > 0)
        };
        let mut st = self.state.borrow_mut();
        // `destroy_vpe` drops the table after revoking everything in it,
        // so a VPE whose teardown is still running keeps its table.
        if named || st.tables.contains_key(&id) {
            return;
        }
        st.vpes.remove(&id);
        st.ep_owners.retain(|(target, _), _| *target != id);
    }

    /// The deadline of a request sent now that may wait `timeout` for its
    /// reply: the one place a wait is bounded. With no fault plane armed
    /// there is none, since the addressee (an on-chip service or peer
    /// kernel) answers eventually, and a request costs what it did before
    /// faults existed; with one armed, silence past `timeout` means the
    /// addressee is gone.
    fn reply_deadline(&self, timeout: Cycles) -> Option<Cycles> {
        self.dtu.system().faults().map(|_| self.sim.now() + timeout)
    }

    /// Counts one operation under `counter` on this kernel's PE.
    fn count(&self, counter: MetricHandle) {
        self.sim.metrics().incr_handle(self.pe, counter);
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

    /// The record of VPE `vpe`, while the kernel keeps it: the VPE is
    /// alive, or dead and still named by a capability (diagnostics).
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
    use crate::protocol::{Syscall, SyscallReply};
    use m3_base::Perm;
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
}

#[cfg(test)]
mod lifetime {
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

    use super::tests::syscall;
    use super::*;
    use crate::protocol::{Syscall, SyscallReply};
    use m3_platform::PlatformConfig;

    /// The sizes of the kernel state that must follow the live objects.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Census {
        vpes: usize,
        tables: usize,
        caps: usize,
        tree: usize,
        ep_owners: usize,
        free_pes: usize,
    }

    fn census(k: &Kernel) -> Census {
        let st = k.state.borrow();
        Census {
            vpes: st.vpes.len(),
            tables: st.tables.len(),
            caps: st.tables.values().map(CapTable::len).sum(),
            tree: st.tree.len(),
            ep_owners: st.ep_owners.len(),
            free_pes: st.pemng.free_count(),
        }
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
        let mut proxies: BTreeSet<(u32, u32)> = BTreeSet::new();
        for k in &live {
            let st = k.state.borrow();
            for table in st.tables.values() {
                for sel in table.selectors() {
                    if let KObject::RemoteVpe(r) = &table.get(sel).unwrap().obj {
                        proxies.insert((r.shard, r.vpe));
                    }
                }
            }
        }
        for k in &live {
            let shard = k.shard_ctx().map_or(0, |ctx| ctx.id());
            let st = k.state.borrow();
            let mut caps = 0;
            let mut names: BTreeMap<VpeId, u32> = BTreeMap::new();
            for (id, table) in &st.tables {
                for sel in table.selectors() {
                    caps += 1;
                    assert!(
                        st.tree.contains((*id, sel)),
                        "{id}:{sel} is not in the derivation tree"
                    );
                    match &table.get(sel).unwrap().obj {
                        KObject::Vpe(v) => {
                            let named = v.borrow().id;
                            assert!(
                                st.vpes.get(&named).is_some_and(|r| Rc::ptr_eq(r, v)),
                                "{id}:{sel} names {named}, whose record is gone"
                            );
                            *names.entry(named).or_default() += 1;
                        }
                        KObject::MGate(m) if m.pe != k.platform.dram_pe() => assert!(
                            derives_from_a_vpe(&st, (*id, sel)),
                            "{id}:{sel} reaches the SPM of {} past its VPE's revoke",
                            m.pe
                        ),
                        _ => {}
                    }
                }
            }
            // Every table entry is a distinct tree node, so equal sizes leave
            // no tree node outside the tables.
            assert_eq!(st.tree.len(), caps, "tree nodes without a table entry");
            for (id, v) in &st.vpes {
                let v = v.borrow();
                // Copies of a proxy count once: any of them cuts the VPE.
                let proxied = u32::from(proxies.contains(&(shard, id.raw())));
                assert_eq!(
                    v.names,
                    names.get(id).copied().unwrap_or(0) + proxied,
                    "name count of {id}"
                );
                assert!(v.is_alive() || v.names > 0, "dead {id} named by nothing");
                assert_eq!(st.tables.contains_key(id), v.is_alive(), "table of {id}");
                if !v.is_alive() {
                    assert!(!k.sched.borrow().manages(*id), "dead {id} still scheduled");
                }
            }
            for id in st.tables.keys() {
                assert!(st.vpes.contains_key(id), "table of {id} without a record");
            }
            for (target, ep) in st.ep_owners.keys() {
                assert!(
                    st.vpes.contains_key(target),
                    "owner of {target}:{ep} outlives it"
                );
            }
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
            let home = kernels[*shard as usize].state.borrow();
            assert!(
                home.vpes.contains_key(&VpeId::new(*vpe)),
                "a proxy names V{vpe} of shard {shard}, whose record is gone"
            );
        }
    }

    /// Whether a VPE capability or `RemoteVpe` proxy is among the ancestors
    /// of `cap` in the derivation tree.
    fn derives_from_a_vpe(st: &KState, cap: (VpeId, SelId)) -> bool {
        let mut at = st.tree.parent(cap);
        while let Some((vpe, sel)) = at {
            let obj = st.tables.get(&vpe).and_then(|t| t.get(sel).ok());
            if obj.is_some_and(|c| matches!(c.obj, KObject::Vpe(_) | KObject::RemoteVpe(_))) {
                return true;
            }
            at = st.tree.parent((vpe, sel));
        }
        false
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
            let st = self.kernels[0].state.borrow();
            let table = &st.tables[&self.root_vpe];
            assert!(
                table.get(SelId::new(2)).is_err(),
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
    /// capability to the root's selector 1.
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
        ];
        let (pes, dram, before) = (kernel.free_pes(), kernel.free_mem(), census(kernel));
        for call in calls {
            let what = format!("{call:?}");
            assert_eq!(rig.call(rig.root, call).error, Some(Code::Exists), "{what}");
            assert_eq!(kernel.free_pes(), pes, "{what}");
            assert_eq!(kernel.free_mem(), dram, "{what}");
            assert_eq!(census(kernel), before, "{what}");
        }
        rig.ok(rig.root, create_srv(5));
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
                k.copy_cap((root, sel(3)), (a, sel(2)))
            }
        });
        rig.settle();
        assert_eq!(delegate.try_take().unwrap().map_err(|e| e.code()), Ok(()));
        assert_eq!(create.try_take().unwrap().error, Some(Code::Exists));
        assert_eq!(
            home.state.borrow().tables[&a].selectors(),
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
            let st = kernel.state.borrow();
            st.services.find("svc").ok().map(|s| s.kernel_ep)
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
}
