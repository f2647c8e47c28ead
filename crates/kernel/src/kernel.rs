//! Kernel boot, kernel state, and the capability operations every
//! subsystem shares: copy, recursive revoke, and VPE teardown. The
//! subsystems live in child modules: the syscall loop and its table
//! ([`syscall`]), VPE time-multiplexing ([`sched`]), the sharded
//! multikernel ([`shards`]) and demand paging ([`pager`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use m3_base::error::{Code, Error, Result};
use m3_base::{Cycles, EpId, PeId, SelId, VpeId};
use m3_dtu::{Dtu, EpConfig, KernelToken};
use m3_platform::{PeType, Platform};
use m3_sched::{Removal, Scheduler};
use m3_sim::{keys, Component, Event, EventKind, MetricHandle, Metrics, Notify, Sim};
use m3_vm::AddrSpaceObj;

use crate::cap::{CapTable, Capability, DerivationTree, KObject, MGateObj};
use crate::costs;
use crate::ktk::KtkMsg;
use crate::mem::MemAlloc;
use crate::pemng::PeMng;
use crate::protocol::{std_eps, PeRequest, SYSC_MSG_SIZE, SYSC_SLOTS};
use crate::service::ServiceRegistry;
use crate::vpe::{VpeObj, VpeState};

mod pager;
mod sched;
mod shards;
mod syscall;

pub use shards::ShardCtx;
use syscall::PendingReply;

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
    vpes: BTreeMap<VpeId, Rc<RefCell<VpeObj>>>,
    next_vpe: u32,
    pemng: PeMng,
    mem: MemAlloc,
    services: ServiceRegistry,
    next_req: u64,
    pending: BTreeMap<u64, PendingReply>,
    next_serv_ep: u32,
}

impl KState {
    /// Creates VPE `name` on `pe` in the init state, with a capability
    /// table holding its self capability at selector 0. Where that
    /// capability hangs in the derivation tree is the caller's choice.
    fn new_vpe(&mut self, name: &str, pe: PeId) -> Result<(VpeId, Rc<RefCell<VpeObj>>)> {
        let id = VpeId::new(self.next_vpe);
        self.next_vpe += 1;
        let vpe = Rc::new(RefCell::new(VpeObj::new(id, name, pe)));
        self.vpes.insert(id, vpe.clone());
        let mut table = CapTable::new();
        table.insert(SelId::new(0), Capability::new(KObject::Vpe(vpe.clone())))?;
        self.tables.insert(id, table);
        Ok((id, vpe))
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
    counters: Counters,
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

/// Waits until `slot` holds a value (`ready` fires whenever it is filled)
/// and takes it: the wait of a request for its reply.
async fn take_when_ready<T>(slot: &RefCell<Option<T>>, ready: &Notify) -> T {
    loop {
        if let Some(value) = slot.borrow_mut().take() {
            return value;
        }
        ready.wait().await;
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
            counters: Counters::new(&sim.metrics()),
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
        let (id, vpe) = st.new_vpe(name, pe)?;
        vpe.borrow_mut().state = VpeState::Running;
        st.tree.insert_root((id, SelId::new(0)));
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
        Self::table(&mut st, dst.0)?.insert(dst.1, Capability::new(obj))?;
        st.tree.insert_child(src, dst);
        Ok(())
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

    /// [`Kernel::revoke_cap`], charged per removed capability.
    async fn revoke_charged(&self, vpe: VpeId, sel: SelId) {
        let count = self.revoke_cap(vpe, sel);
        self.sim
            .sleep(costs::REVOKE_PER_CAP * (count as u64).max(1))
            .await;
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
        self.count(self.counters.vpe_exits);
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
