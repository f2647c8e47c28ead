//! Kernel boot and the operations every subsystem shares: recursive
//! revoke and VPE teardown, which apply what the state's transitions
//! removed to the DTUs and peer shards. The state and its transitions live
//! in [`state`], the subsystems in child modules: the syscall loop and its
//! table ([`syscall`]), VPE time-multiplexing ([`sched`]), the sharded
//! multikernel ([`shards`]) and demand paging ([`pager`]).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use m3_base::error::{Code, Result};
use m3_base::{Cycles, EpId, PeId, VpeId};
use m3_dtu::{Dtu, EpConfig, KernelToken};
use m3_platform::Platform;
use m3_sched::{Removal, Scheduler};
use m3_sim::{keys, Component, Event, EventKind, MetricHandle, Metrics, Notify, Sim};

use crate::cap::{CapRef, KObject};
use crate::costs;
use crate::ktk::KtkMsg;
use crate::mem::MemAlloc;
use crate::pemng::PeMng;
use crate::protocol::{std_eps, ServiceReply, SYSC_MSG_SIZE, SYSC_SLOTS};
use crate::vpe::VpeObj;

use state::KState;

mod pager;
mod sched;
mod shards;
mod state;
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
    state: KState,
    /// Run queues of the time-multiplexed PEs (overcommit mode, m3-sched).
    sched: RefCell<Scheduler>,
    /// Boot-time policy, fixed for the kernel's lifetime.
    cfg: KernelConfig,
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

        // Configure the kernel's own receive endpoints (it is privileged at
        // boot): syscalls, which it replies to, and service replies.
        for (ep, allow_replies) in [(keps::SYSC, true), (keps::SERV_REPLY, false)] {
            let cfg = EpConfig::Receive {
                slots: SYSC_SLOTS,
                slot_size: SYSC_MSG_SIZE + m3_base::cfg::MSG_HEADER_SIZE,
                allow_replies,
            };
            ktok.configure(kernel_pe, ep, cfg)
                // m3lint: allow(no-unwrap): boot-time; the kernel is privileged and its own EP ids are compile-time constants
                .expect("kernel receive EP");
        }

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
            state: KState::new(
                PeMng::new_partition(descs, kernel_pe, owned),
                MemAlloc::new(dram_base, dram_size),
                platform.dram_pe(),
            ),
            sched: RefCell::new(Scheduler::new()),
            cfg,
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
                    let victims = k.state.vpes_where(|v| v.pe == pe && v.is_alive());
                    k.trace(k.pe, Component::Kernel, || EventKind::Recovery {
                        action: format!("dead_pe:{pe}"),
                        attempt: 0,
                    });
                    for victim in victims {
                        k.destroy_vpe(victim, -2);
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
        let (id, pe) = self.state.create_root(name, pe)?;
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

    /// Revokes `cap` recursively and applies what the state removed to the
    /// DTUs, the peer shards and the VPEs it named; returns the number of
    /// removed capabilities.
    fn revoke_cap(&self, cap: CapRef) -> usize {
        let revoked = self.state.revoke(cap);
        let shard = self.shard_ctx();
        for (at, cap) in &revoked.caps {
            // Cross-shard legs of the recursive revoke (§4.5.3): copies
            // this capability spawned in peer shards are cut with
            // fire-and-forget revokes, and a remote-VPE proxy takes its
            // VPE down with it (§4.5.5).
            if let Some(ctx) = &shard {
                let edges = ctx.remote_children.borrow_mut().remove(at);
                for (peer, vpe, sel) in edges.into_iter().flatten() {
                    self.ktk_send(ctx, peer, &KtkMsg::RevokeCap { vpe, sel });
                }
                if let KObject::RemoteVpe(r) = &cap.obj {
                    self.ktk_send(ctx, r.shard, &KtkMsg::RevokeVpe { vpe: r.vpe });
                }
            }
            for (pe, ep) in &cap.activations {
                let _ = self.ktok.configure(*pe, *ep, EpConfig::Invalid);
            }
        }
        for ep in revoked.serv_eps {
            let _ = self.ktok.configure(self.pe, ep, EpConfig::Invalid);
        }
        // Revoking a VPE capability resets the PE (§4.5.5: "the owner
        // of the VPE capability could revoke it to let the kernel reset
        // the associated PE").
        for (_, cap) in &revoked.caps {
            if let KObject::Vpe(vpe) = &cap.obj {
                let id = vpe.borrow().id;
                self.destroy_vpe(id, -1);
            }
        }
        revoked.caps.len()
    }

    /// [`Kernel::revoke_cap`], charged per removed capability.
    async fn revoke_charged(&self, cap: CapRef) {
        let count = self.revoke_cap(cap);
        self.sim
            .sleep(costs::REVOKE_PER_CAP * (count as u64).max(1))
            .await;
    }

    /// Tears VPE `id` down: marks it dead, revokes everything it held,
    /// frees its PE and address space, and invalidates its syscall channel.
    /// Idempotent; either way its record goes once nothing names it.
    fn destroy_vpe(&self, id: VpeId, code: i64) {
        let Some((pe, exited)) = self.state.kill_vpe(id, code) else {
            self.state.reap_vpe(id);
            return;
        };
        self.serv_requests
            .fail_to(id, ServiceReply::err(Code::Unreachable));
        for sel in self.state.selectors(id) {
            self.revoke_cap((id, sel));
        }
        let removal = self.sched.borrow_mut().remove(id);
        self.state.retire_vpe(id, pe, removal);
        let resident = match removal {
            Removal::NotManaged => true,
            Removal::Removed { was_resident, .. } => {
                // A multiplexed VPE's save area (if it was switched out)
                // and its doorbell go with it; a resident's slice ends.
                let _ = self.ktok.drop_saved(pe, u64::from(id.raw()));
                if was_resident {
                    self.end_slice(pe);
                }
                was_resident
            }
        };
        // A switched-out VPE's endpoints lived in its save area, not on
        // the PE, so no live register is touched.
        if resident {
            for ep in [std_eps::SYSC_SEND, std_eps::SYSC_REPLY] {
                let _ = self.ktok.configure(pe, ep, EpConfig::Invalid);
            }
        }
        exited.notify_all();
        self.count(self.counters.vpe_exits);
        self.state.reap_vpe(id);
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

    /// Records an instant event of `comp` on `pe`; `kind` is built only
    /// while tracing is on.
    fn trace(&self, pe: PeId, comp: Component, kind: impl FnOnce() -> EventKind) {
        let at = self.sim.now();
        self.sim.tracer().record_with(|| Event {
            at,
            dur: Cycles::ZERO,
            pe: Some(pe),
            comp,
            kind: kind(),
        });
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

    /// The record of VPE `vpe`, while the kernel keeps it: the VPE is
    /// alive, or dead and still named by a capability (diagnostics).
    pub fn vpe_obj(&self, vpe: VpeId) -> Option<Rc<RefCell<VpeObj>>> {
        self.state.vpe(vpe)
    }

    /// Number of currently free PEs (diagnostics).
    pub fn free_pes(&self) -> usize {
        self.state.free_pes()
    }

    /// Free DRAM bytes (diagnostics).
    pub fn free_mem(&self) -> u64 {
        self.state.free_mem()
    }
}

#[cfg(test)]
#[path = "kernel/tests/lifetime.rs"]
mod lifetime;
#[cfg(test)]
mod tests;
