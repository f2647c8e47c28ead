//! The DTU engine: commands, privilege, and the system-wide wiring.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use m3_base::cfg::EP_COUNT;
use m3_base::error::{Code, Error, Result};
use m3_base::ids::Label;
use m3_base::{Cycles, EpId, PeId, Perm};
use m3_fault::{FaultPlane, MsgVerdict};
use m3_noc::Noc;
use m3_sim::{keys, Component, Event, EventKind, MetricHandle, Metrics, Notify, Recorder, Sim};

use crate::endpoint::EpConfig;
use crate::message::{Header, Message, ReplyInfo};
use crate::ringbuf::RingBuf;
use crate::timing;

/// What kind of memory a NoC node exposes; selects the access latency.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemKind {
    /// The DRAM module.
    Dram,
    /// A PE's scratchpad memory, accessible for remote loads (cloning).
    Spm,
}

/// Context id a DTU carries while the kernel has its state saved out and no
/// successor installed yet (mid context switch). No real context ever uses
/// this id, so arriving traffic is routed into save areas during the window.
pub const NO_CTX: u64 = u64::MAX;

/// One endpoint register file: the configuration registers, the ring
/// buffers of the receive EPs, and the remaining credits of the bounded
/// send EPs. A PE's live registers and a switched-out context's save area
/// are both one of these, so a deposit, a credit refill or a configuration
/// write behaves the same wherever the context currently is.
#[derive(Debug)]
struct EpFile {
    eps: Vec<EpConfig>,
    ringbufs: BTreeMap<EpId, RingBuf>,
    /// Remaining credits per send endpoint (only for bounded-credit EPs).
    credits: BTreeMap<EpId, u32>,
}

/// What [`EpFile::deposit`] did with a message.
enum Deposit {
    /// Stored; the ring buffer now holds this many messages.
    Stored(usize),
    /// The ring buffer was full.
    Dropped,
    /// The endpoint is not a receive EP.
    NoRecvEp,
}

impl EpFile {
    fn new() -> EpFile {
        EpFile {
            eps: vec![EpConfig::Invalid; EP_COUNT],
            ringbufs: BTreeMap::new(),
            credits: BTreeMap::new(),
        }
    }

    fn is_receive(&self, ep: EpId) -> bool {
        matches!(self.eps.get(ep.idx()), Some(EpConfig::Receive { .. }))
    }

    /// Writes `cfg` into register `ep`, with a fresh ring buffer for a
    /// receive EP and a full credit counter for a bounded send EP.
    fn set(&mut self, ep: EpId, cfg: EpConfig) {
        match &cfg {
            EpConfig::Receive {
                slots, slot_size, ..
            } => {
                self.ringbufs.insert(ep, RingBuf::new(*slots, *slot_size));
                self.credits.remove(&ep);
            }
            EpConfig::Send { credits, .. } => {
                self.ringbufs.remove(&ep);
                if let Some(c) = credits {
                    self.credits.insert(ep, *c);
                } else {
                    self.credits.remove(&ep);
                }
            }
            EpConfig::Memory { .. } | EpConfig::Invalid => {
                self.ringbufs.remove(&ep);
                self.credits.remove(&ep);
            }
        }
        self.eps[ep.idx()] = cfg;
    }

    /// Stores `msg` in the ring buffer of receive EP `ep`. A buffer not
    /// validated for replies gets the message with its reply info stripped,
    /// so software cannot use it (paper §4.4.4).
    fn deposit(&mut self, ep: EpId, mut msg: Message) -> Deposit {
        match self.eps.get(ep.idx()) {
            Some(EpConfig::Receive { allow_replies, .. }) => {
                if !allow_replies {
                    msg.header.reply = None;
                }
            }
            _ => return Deposit::NoRecvEp,
        }
        let Some(rb) = self.ringbufs.get_mut(&ep) else {
            return Deposit::NoRecvEp;
        };
        if rb.deposit(msg) {
            Deposit::Stored(rb.occupied())
        } else {
            Deposit::Dropped
        }
    }

    /// Returns one credit to bounded send EP `ep`, up to its configured
    /// maximum; a no-op for any other endpoint.
    fn return_credit(&mut self, ep: EpId) {
        if let Some(EpConfig::Send {
            credits: Some(max), ..
        }) = self.eps.get(ep.idx())
        {
            let cur = self.credits.entry(ep).or_insert(0);
            *cur = (*cur + 1).min(*max);
        }
    }

    /// Bytes a DTU transfer of this state moves: one register block per
    /// endpoint (§4.3.3) plus the queued messages of every ring buffer.
    fn state_bytes(&self) -> u64 {
        let eps = EP_COUNT as u64 * timing::EP_SAVE_BYTES;
        let rings: u64 = self.ringbufs.values().map(RingBuf::queued_wire_bytes).sum();
        eps + rings
    }

    /// The per-context half of [`DtuSystem::sanitize_check`].
    #[cfg(feature = "sanitize")]
    fn sanitize(&self, pe: usize, ctx: u64) {
        for (ep, remaining) in &self.credits {
            if let Some(EpConfig::Send {
                credits: Some(max), ..
            }) = self.eps.get(ep.idx())
            {
                assert!(
                    remaining <= max,
                    "sanitize: pe{pe} ctx{ctx} {ep}: {remaining} credits exceed the configured {max}"
                );
            }
        }
        for (ep, rb) in &self.ringbufs {
            assert!(
                rb.occupied() <= rb.slots(),
                "sanitize: pe{pe} ctx{ctx} {ep}: ring buffer holds {} of {} slots",
                rb.occupied(),
                rb.slots()
            );
            if let Some(EpConfig::Receive {
                slots, slot_size, ..
            }) = self.eps.get(ep.idx())
            {
                assert!(
                    rb.slots() == *slots && rb.slot_size() == *slot_size,
                    "sanitize: pe{pe} ctx{ctx} {ep}: ring buffer geometry {}x{} disagrees with \
                     the endpoint register {slots}x{slot_size}",
                    rb.slots(),
                    rb.slot_size()
                );
            }
        }
    }
}

struct PeState {
    privileged: bool,
    /// The live endpoint registers.
    regs: EpFile,
    /// Woken whenever a message arrives at any EP of this DTU.
    arrival: Notify,
    /// Which VPE context the live endpoint registers belong to. Stays at
    /// the boot value `0` on PEs the kernel never time-multiplexes, so the
    /// entire context machinery is inert unless a switch ever happens.
    current_ctx: u64,
    /// Dirty bits for the live context's data-SPM pages. The DTU is the
    /// only component that moves data into the SPM from outside (§4.2), so
    /// it marks the pages its deposits and RDMA reads land in. Maintained
    /// unconditionally — pure host-side bookkeeping, zero simulated time —
    /// and consulted by dirty-tracked context switches (m3-sched) to move
    /// only dirty pages instead of the whole 64 KiB image.
    spm_dirty: m3_vm::DirtyBitmap,
}

impl PeState {
    fn new() -> PeState {
        PeState {
            privileged: true, // all DTUs are privileged at boot (paper §3)
            regs: EpFile::new(),
            arrival: Notify::new(),
            current_ctx: 0,
            // A fresh context's image has never been saved: fully dirty.
            spm_dirty: m3_vm::DirtyBitmap::default(),
        }
    }
}

/// The architectural DTU state of a switched-out VPE: its endpoint register
/// file, with undelivered ring-buffer contents and unspent credits, as the
/// kernel parked it in the context's DRAM save area.
#[derive(Debug)]
struct SavedCtx {
    regs: EpFile,
    /// SPM pages that were dirty when this context was saved out — the
    /// pages the (dirty-tracked) save actually transferred, and therefore
    /// the pages a later restore must bring back eagerly (clean pages
    /// restore lazily from their DRAM backing).
    dirty_pages: u32,
}

impl SavedCtx {
    fn new() -> SavedCtx {
        SavedCtx {
            regs: EpFile::new(),
            // A stashed-but-never-resident context has no SPM image yet;
            // its first activation is a start, and on a later save the
            // live bitmap decides. Conservative full image.
            dirty_pages: m3_vm::SPM_PAGES,
        }
    }
}

struct Memory {
    kind: MemKind,
    data: Rc<RefCell<Vec<u8>>>,
}

struct SystemInner {
    pes: RefCell<Vec<PeState>>,
    mems: RefCell<BTreeMap<PeId, Memory>>,
    /// Save areas of switched-out contexts, keyed by (PE, context id).
    /// Deposits and credit refills for a context that is not live on its PE
    /// land here instead of the live endpoint registers.
    saved: RefCell<BTreeMap<(PeId, u64), SavedCtx>>,
    /// Fault-injection plane; `None` (the default) keeps every hot path on
    /// the exact pre-fault code, so a disabled plane costs zero cycles.
    faults: RefCell<Option<Rc<FaultPlane>>>,
}

/// Pre-resolved handles for the metrics the DTU bumps on every message or
/// transfer, so the hot path indexes a table instead of walking a
/// string-keyed map. Sends and transfers count at the issuing PE,
/// deposits at the destination PE.
#[derive(Copy, Clone)]
struct HotMetrics {
    msgs_sent: MetricHandle,
    replies_sent: MetricHandle,
    msg_cycles: MetricHandle,
    xfer_cycles: MetricHandle,
    mem_read_bytes: MetricHandle,
    mem_write_bytes: MetricHandle,
    msgs_delivered: MetricHandle,
    msgs_dropped: MetricHandle,
    deposit_no_recv_ep: MetricHandle,
    busy: MetricHandle,
    ring_occupancy: MetricHandle,
    drops: MetricHandle,
    credit_stalls: MetricHandle,
}

impl HotMetrics {
    fn new(metrics: &Metrics) -> HotMetrics {
        HotMetrics {
            msgs_sent: metrics.handle(keys::DTU_MSGS_SENT),
            replies_sent: metrics.handle(keys::DTU_REPLIES_SENT),
            msg_cycles: metrics.handle(keys::DTU_MSG_CYCLES),
            xfer_cycles: metrics.handle(keys::DTU_XFER_CYCLES),
            mem_read_bytes: metrics.handle(keys::DTU_MEM_READ_BYTES),
            mem_write_bytes: metrics.handle(keys::DTU_MEM_WRITE_BYTES),
            msgs_delivered: metrics.handle(keys::DTU_MSGS_DELIVERED),
            msgs_dropped: metrics.handle(keys::DTU_MSGS_DROPPED),
            deposit_no_recv_ep: metrics.handle(keys::DTU_DEPOSIT_NO_RECV_EP),
            busy: metrics.handle(keys::DTU_BUSY),
            ring_occupancy: metrics.handle(keys::RING_OCCUPANCY),
            drops: metrics.handle(keys::DTU_DROPS),
            credit_stalls: metrics.handle(keys::CREDIT_STALLS),
        }
    }
}

/// The DTU fabric of a platform: one DTU per NoC node, plus the memories
/// reachable through memory endpoints.
///
/// Cheaply cloneable; clones share all state.
#[derive(Clone)]
pub struct DtuSystem {
    sim: Sim,
    noc: Noc,
    hot: HotMetrics,
    tracer: Recorder,
    metrics: Metrics,
    inner: Rc<SystemInner>,
}

impl fmt::Debug for DtuSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DtuSystem")
            .field("pes", &self.inner.pes.borrow().len())
            .field("memories", &self.inner.mems.borrow().len())
            .finish()
    }
}

impl DtuSystem {
    /// Creates one DTU per node of the NoC's topology. All DTUs start
    /// privileged, mirroring the boot state of the hardware.
    pub fn new(sim: Sim, noc: Noc) -> DtuSystem {
        let count = noc.topology().node_count() as usize;
        noc.attach(sim.tracer(), sim.metrics());
        DtuSystem {
            hot: HotMetrics::new(&sim.metrics()),
            tracer: sim.tracer(),
            metrics: sim.metrics(),
            sim,
            noc,
            inner: Rc::new(SystemInner {
                pes: RefCell::new((0..count).map(|_| PeState::new()).collect()),
                mems: RefCell::new(BTreeMap::new()),
                saved: RefCell::new(BTreeMap::new()),
                faults: RefCell::new(None),
            }),
        }
    }

    /// The simulation this fabric runs in.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The NoC transfers are scheduled on.
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// Arms the fault-injection plane on this fabric *and* its NoC. Message
    /// sends, deliveries, and memory transfers consult the plane from now
    /// on; without this call the fault machinery is entirely inert.
    // m3lint: allow(cycle-accounting): harness config-plane: arms the fault plane before the run; no architectural time is modelled for it
    pub fn set_faults(&self, plane: Rc<FaultPlane>) {
        self.noc.set_faults(plane.clone());
        *self.inner.faults.borrow_mut() = Some(plane);
    }

    /// The armed fault plane, if any (used by the kernel's dead-PE watchdog).
    pub fn faults(&self) -> Option<Rc<FaultPlane>> {
        self.inner.faults.borrow().clone()
    }

    /// Emits a fault-injection trace event at the current time.
    fn trace_fault(&self, pe: PeId, fault: &str, dur: Cycles) {
        let at = self.sim.now();
        self.tracer.record_with(|| Event {
            at,
            dur,
            pe: Some(pe),
            comp: Component::Dtu,
            kind: EventKind::FaultInject {
                fault: fault.to_string(),
                target: pe,
            },
        });
    }

    /// Returns the DTU handle of `pe`.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is not a node of the platform.
    pub fn dtu(&self, pe: PeId) -> Dtu {
        assert!(
            (pe.idx()) < self.inner.pes.borrow().len(),
            "{pe} is not a platform node"
        );
        Dtu {
            sys: self.clone(),
            pe,
        }
    }

    /// Exposes `size` bytes of memory at node `pe` (DRAM module or a PE's
    /// SPM), making it addressable by memory endpoints. Returns the backing
    /// store.
    // m3lint: allow(cycle-accounting): platform construction: memories are attached before the simulation starts, not by a DTU command
    pub fn add_memory(&self, pe: PeId, kind: MemKind, size: usize) -> Rc<RefCell<Vec<u8>>> {
        let data = Rc::new(RefCell::new(vec![0u8; size]));
        self.inner.mems.borrow_mut().insert(
            pe,
            Memory {
                kind,
                data: data.clone(),
            },
        );
        data
    }

    /// The backing store of the memory exposed at `pe`, if any.
    pub fn memory(&self, pe: PeId) -> Option<Rc<RefCell<Vec<u8>>>> {
        self.inner.mems.borrow().get(&pe).map(|m| m.data.clone())
    }

    fn mem_latency(&self, pe: PeId) -> Cycles {
        match self.inner.mems.borrow().get(&pe).map(|m| m.kind) {
            Some(MemKind::Dram) => timing::DRAM_LATENCY,
            _ => timing::SPM_LATENCY,
        }
    }

    /// Delivers `msg` into the receive EP `(pe, ep)` at the current time.
    ///
    /// `ctx` names the destination context when the message follows one —
    /// replies travel back to the context that sent the request (§4.4.4),
    /// wherever the kernel has parked it by now. `None` (plain sends)
    /// targets whatever context owns a receive EP at `ep`: the live one
    /// wins, otherwise the message lands in the save area of the context
    /// that has one configured there.
    ///
    /// `credit` names the bounded send endpoint (and its context) that paid
    /// for this message, if any: when the deposit fails, that credit is
    /// refunded on the spot, because a dropped message can never be replied
    /// to (the reply path is the normal refill, §4.4.3) and the sender
    /// would otherwise be starved for good.
    fn deposit(
        &self,
        pe: PeId,
        ep: EpId,
        msg: Message,
        ctx: Option<u64>,
        credit: Option<(PeId, u64, EpId)>,
    ) {
        self.checked(|| {
            // A crashed PE's DTU is dead silicon: messages towards it vanish.
            // The sender's credit is refunded just like on a ring-buffer drop,
            // because the reply path that would normally refill it is gone.
            if let Some(faults) = self.inner.faults.borrow().as_ref() {
                if faults.crashed_at(self.sim.now(), pe).is_some() {
                    self.metrics.incr_handle(pe, self.hot.msgs_dropped);
                    self.trace_fault(pe, "dst_crashed", Cycles::ZERO);
                    if let Some((sender_pe, sender_ctx, sender_ep)) = credit {
                        self.refill_credit(sender_pe, sender_ctx, sender_ep);
                    }
                    return;
                }
            }
            let mut pes = self.inner.pes.borrow_mut();
            let state = &mut pes[pe.idx()];
            let mut saved = self.inner.saved.borrow_mut();
            // Route to the live registers or to a save area. On a PE the
            // kernel never time-multiplexes, `current_ctx` is the boot value
            // and every message takes the live path.
            let parked = match ctx {
                Some(c) if c == state.current_ctx => None,
                Some(c) => Some(c),
                None if state.regs.is_receive(ep) => None,
                None => saved
                    .range((pe, 0)..=(pe, u64::MAX))
                    .find(|(_, sc)| sc.regs.is_receive(ep))
                    .map(|((_, c), _)| *c),
            };
            let outcome = match parked {
                None => {
                    // A live-ring delivery lands the message in the running
                    // context's SPM, which dirties the pages under the DTU's
                    // streaming cursor. Parked deposits stay in DRAM.
                    let wire = msg.wire_size() as u64;
                    let outcome = state.regs.deposit(ep, msg);
                    if let Deposit::Stored(_) = outcome {
                        state.spm_dirty.touch(wire);
                    }
                    outcome
                }
                Some(c) => saved
                    .get_mut(&(pe, c))
                    .map_or(Deposit::NoRecvEp, |sc| sc.regs.deposit(ep, msg)),
            };
            // Arrival pings the PE's notify for parked deposits too: the
            // kernel waits there for messages on behalf of switched-out
            // contexts.
            let arrival = state.arrival.clone();
            drop(saved);
            drop(pes);
            match outcome {
                Deposit::Stored(occupied) => {
                    self.metrics.incr_handle(pe, self.hot.msgs_delivered);
                    self.metrics
                        .observe_handle(pe, self.hot.ring_occupancy, occupied as u64);
                    arrival.notify_all();
                }
                Deposit::Dropped => {
                    self.metrics.incr_handle(pe, self.hot.msgs_dropped);
                    self.metrics.incr_handle(pe, self.hot.drops);
                    let at = self.sim.now();
                    self.tracer.record_with(|| Event {
                        at,
                        dur: Cycles::ZERO,
                        pe: Some(pe),
                        comp: Component::Dtu,
                        kind: EventKind::MsgDrop { ep },
                    });
                    if let Some((sender_pe, sender_ctx, sender_ep)) = credit {
                        self.refill_credit(sender_pe, sender_ctx, sender_ep);
                    }
                }
                Deposit::NoRecvEp => self.metrics.incr_handle(pe, self.hot.deposit_no_recv_ep),
            }
        });
    }

    /// Returns one credit to send EP `ep` of context `(pe, ctx)`: into the
    /// live registers if the context runs, else into its save area, so the
    /// credit is there when a switched-out sender resumes.
    fn refill_credit(&self, pe: PeId, ctx: u64, ep: EpId) {
        self.checked(|| {
            let mut pes = self.inner.pes.borrow_mut();
            let state = &mut pes[pe.idx()];
            if state.current_ctx == ctx {
                state.regs.return_credit(ep);
            } else if let Some(sc) = self.inner.saved.borrow_mut().get_mut(&(pe, ctx)) {
                sc.regs.return_credit(ep);
            }
        });
    }

    /// Deposits `msg` at `at` (see [`DtuSystem::deposit`]): a timer
    /// callback, not a task.
    fn deliver_at(
        &self,
        at: Cycles,
        target_pe: PeId,
        target_ep: EpId,
        msg: Message,
        ctx: Option<u64>,
        credit: Option<(PeId, u64, EpId)>,
    ) {
        let sys = self.clone();
        self.sim.call_at(at, move || {
            sys.deposit(target_pe, target_ep, msg, ctx, credit);
        });
    }

    /// Refills one credit of `(pe, ctx, ep)` at `at`.
    fn refill_credit_at(&self, at: Cycles, pe: PeId, ctx: u64, ep: EpId) {
        let sys = self.clone();
        self.sim.call_at(at, move || sys.refill_credit(pe, ctx, ep));
    }

    /// Runs `op`, then [`DtuSystem::sanitize_check`]. Every operation that
    /// can raise the checked quantities goes through here; `op` must have
    /// released its borrows of `pes` and `saved` when it returns.
    fn checked<T>(&self, op: impl FnOnce() -> T) -> T {
        let res = op();
        self.sanitize_check();
        res
    }

    /// Sanitizer (`--features m3-dtu/sanitize`): asserts the DTU-wide
    /// invariants over the live registers of every PE *and* every parked
    /// save area, after each operation that can raise the checked
    /// quantities (message deposits, credit refills, endpoint
    /// (re)configuration, context restore — operations that only consume
    /// or move state cannot violate them):
    ///
    /// - **credit conservation** — a bounded send EP never holds more
    ///   credits than its configuration grants;
    /// - **ring-buffer occupancy** — a receive EP never holds more
    ///   messages than it has slots, and its buffer geometry matches its
    ///   endpoint register.
    ///
    /// Purely a host-side assertion: no simulated cycles pass, so enabling
    /// the feature cannot perturb any modelled timing.
    #[cfg(feature = "sanitize")]
    fn sanitize_check(&self) {
        for (idx, state) in self.inner.pes.borrow().iter().enumerate() {
            state.regs.sanitize(idx, state.current_ctx);
        }
        for ((pe, ctx), sc) in self.inner.saved.borrow().iter() {
            sc.regs.sanitize(pe.idx(), *ctx);
        }
    }

    /// No-op without the `sanitize` feature; the optimizer erases it.
    #[cfg(not(feature = "sanitize"))]
    #[inline(always)]
    fn sanitize_check(&self) {}
}

/// One PE's data transfer unit.
///
/// Obtained from [`DtuSystem::dtu`]. Endpoint configuration lives behind a
/// [`KernelToken`] claimed via [`Dtu::claim_kernel_token`], which only a
/// privileged DTU can mint; the kernel keeps its own DTU privileged and
/// downgrades all application DTUs during boot.
///
/// # Examples
///
/// ```
/// use m3_base::{cfg, Cycles, EpId, PeId};
/// use m3_dtu::{DtuSystem, EpConfig};
/// use m3_noc::{Noc, NocConfig, Topology};
/// use m3_sim::Sim;
///
/// let sim = Sim::new();
/// let noc = Noc::new(Topology::with_nodes(3), NocConfig::default());
/// let sys = DtuSystem::new(sim.clone(), noc);
///
/// // PE0 plays the kernel: configure a channel PE1 -> PE2.
/// let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
/// kernel
///     .configure(PeId::new(2), EpId::new(0), EpConfig::Receive {
///         slots: 4, slot_size: 256, allow_replies: true,
///     })
///     .unwrap();
/// kernel
///     .configure(PeId::new(1), EpId::new(0), EpConfig::Send {
///         pe: PeId::new(2), ep: EpId::new(0), label: 0x1234,
///         credits: Some(4), max_payload: 128,
///     })
///     .unwrap();
///
/// let sender = sys.dtu(PeId::new(1));
/// let receiver = sys.dtu(PeId::new(2));
/// let got = sim.spawn("recv", async move {
///     receiver.recv(EpId::new(0)).await.unwrap()
/// });
/// sim.spawn("send", async move {
///     sender.send(EpId::new(0), b"hello", None).await.unwrap();
/// });
/// sim.run();
/// let msg = got.try_take().unwrap();
/// assert_eq!(msg.payload, b"hello");
/// assert_eq!(msg.header.label, 0x1234); // receiver-chosen, unforgeable
/// ```
#[derive(Clone)]
pub struct Dtu {
    sys: DtuSystem,
    pe: PeId,
}

impl fmt::Debug for Dtu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dtu({})", self.pe)
    }
}

impl Dtu {
    /// The PE this DTU belongs to.
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// The fabric this DTU is part of.
    pub fn system(&self) -> &DtuSystem {
        &self.sys
    }

    /// Whether this DTU may configure endpoints (its own or remote ones).
    pub fn is_privileged(&self) -> bool {
        self.sys.inner.pes.borrow()[self.pe.idx()].privileged
    }

    fn require_privileged(&self) -> Result<()> {
        if self.is_privileged() {
            Ok(())
        } else {
            Err(Error::new(Code::NoPerm).with_msg(format!("{} is not privileged", self.pe)))
        }
    }

    fn check_ep(ep: EpId) -> Result<()> {
        if ep.idx() < EP_COUNT {
            Ok(())
        } else {
            Err(Error::new(Code::InvEp).with_msg(format!("{ep} out of range")))
        }
    }

    // ------------------------------------------------------------------
    // Privileged operations (the kernel's remote-control interface)
    // ------------------------------------------------------------------

    /// Claims the kernel's capability handle over the privileged DTU
    /// configuration interface (paper §3: only the kernel PE may program
    /// config registers).
    ///
    /// The returned [`KernelToken`] is the *only* way to reach
    /// [`KernelToken::configure`], [`KernelToken::set_privileged`], and
    /// friends, so holding one is a static proof of kernel-hood. Each
    /// operation still re-checks privilege at runtime, so a token claimed
    /// before a downgrade goes dead with its PE.
    ///
    /// # Errors
    ///
    /// [`Code::NoPerm`] if this DTU has been downgraded.
    pub fn claim_kernel_token(&self) -> Result<KernelToken> {
        self.require_privileged()?;
        Ok(KernelToken { dtu: self.clone() })
    }

    // ------------------------------------------------------------------
    // Unprivileged operations (the application-visible surface)
    // ------------------------------------------------------------------

    /// Fault-plane gate at the head of every asynchronous DTU command: a
    /// crashed PE's DTU rejects everything, a stalled PE's DTU holds the
    /// command until the stall window closes. With no plane armed this is
    /// a no-op that costs zero simulated cycles. Public so receive loops
    /// built outside this crate (the kernel-multiplexed receive path in
    /// `m3-libos`) observe faults exactly like [`Dtu::recv`].
    ///
    /// # Errors
    ///
    /// [`Code::Unreachable`] if this PE has crashed.
    pub async fn fault_gate(&self) -> Result<()> {
        let Some(faults) = self.sys.faults() else {
            return Ok(());
        };
        let now = self.sys.sim.now();
        if faults.crashed_at(now, self.pe).is_some() {
            return Err(Error::new(Code::Unreachable).with_msg(format!("{} crashed", self.pe)));
        }
        if let Some(release) = faults.stall_release(now, self.pe) {
            self.sys.trace_fault(self.pe, "pe_stall", release - now);
            self.sys.sim.sleep_until(release).await;
            if faults.crashed_at(self.sys.sim.now(), self.pe).is_some() {
                return Err(Error::new(Code::Unreachable).with_msg(format!("{} crashed", self.pe)));
            }
        }
        Ok(())
    }

    /// RDMA targets a passive remote DTU; a crashed one cannot serve the
    /// request, which the initiator observes as an immediate NoC error
    /// response rather than a hang.
    fn check_target_alive(&self, target: PeId) -> Result<()> {
        if let Some(faults) = self.sys.faults() {
            if faults.crashed_at(self.sys.sim.now(), target).is_some() {
                return Err(Error::new(Code::Unreachable).with_msg(format!("{target} crashed")));
            }
        }
        Ok(())
    }

    /// Sends `payload` through send endpoint `ep`.
    ///
    /// If `reply` is `Some((rep, label))`, the receiver may reply once; the
    /// reply will arrive at local receive endpoint `rep` carrying `label`,
    /// and will refill one credit on `ep`.
    ///
    /// The call returns as soon as the DTU has accepted the command (the
    /// transfer itself proceeds in the background, paper §4.5.6); the
    /// message arrives at the receiver after the NoC transfer completes.
    ///
    /// # Errors
    ///
    /// - [`Code::InvEp`] if `ep` is not a send endpoint.
    /// - [`Code::NoCredits`] if the endpoint's credits are exhausted.
    /// - [`Code::InvArgs`] if the payload exceeds the channel's message size.
    pub async fn send(&self, ep: EpId, payload: &[u8], reply: Option<(EpId, Label)>) -> Result<()> {
        Self::check_ep(ep)?;
        self.fault_gate().await?;
        self.sys.sim.sleep(timing::CMD_ISSUE).await;

        let (dst, label, bounded, my_ctx) = {
            let mut pes = self.sys.inner.pes.borrow_mut();
            let state = &mut pes[self.pe.idx()];
            let my_ctx = state.current_ctx;
            let (dst, label, bounded, max_payload) = match &state.regs.eps[ep.idx()] {
                EpConfig::Send {
                    pe,
                    ep: tep,
                    label,
                    credits,
                    max_payload,
                } => ((*pe, *tep), *label, credits.is_some(), *max_payload),
                _ => return Err(Error::new(Code::InvEp).with_msg(format!("{ep} is not a send EP"))),
            };
            if payload.len() > max_payload {
                return Err(Error::new(Code::InvArgs).with_msg(format!(
                    "payload {} exceeds channel max {max_payload}",
                    payload.len()
                )));
            }
            if bounded {
                let cur = state.regs.credits.entry(ep).or_insert(0);
                if *cur == 0 {
                    drop(pes);
                    self.sys
                        .metrics
                        .incr_handle(self.pe, self.sys.hot.credit_stalls);
                    let at = self.sys.sim.now();
                    self.sys.tracer.record_with(|| Event {
                        at,
                        dur: Cycles::ZERO,
                        pe: Some(self.pe),
                        comp: Component::Dtu,
                        kind: EventKind::CreditStall { ep },
                    });
                    return Err(Error::new(Code::NoCredits));
                }
                *cur -= 1;
            }
            (dst, label, bounded, my_ctx)
        };

        let msg = Message {
            header: Header {
                label,
                len: payload.len() as u32,
                sender_pe: self.pe,
                sender_ep: ep,
                reply: reply.map(|(rep, rlabel)| ReplyInfo {
                    pe: self.pe,
                    ep: rep,
                    label: rlabel,
                    credit_ep: ep,
                    ctx: my_ctx,
                }),
            },
            payload: payload.into(),
        };
        let credit = bounded.then_some((self.pe, my_ctx, ep));
        self.transmit(Some(ep), msg, dst, None, credit);
        Ok(())
    }

    /// Replies to a received message, using the reply information the DTU
    /// stored in its header (paper §4.4.4). Arrival of the reply refills one
    /// credit at the original sender.
    ///
    /// # Errors
    ///
    /// - [`Code::NoPerm`] if the message did not permit a reply (or the
    ///   receive buffer was not validated for replies).
    /// - [`Code::InvArgs`] if the payload exceeds the reply channel's size.
    pub async fn reply(&self, msg: &Message, payload: &[u8]) -> Result<()> {
        let Some(rinfo) = msg.header.reply else {
            return Err(Error::new(Code::NoPerm).with_msg("message permits no reply"));
        };
        self.fault_gate().await?;
        self.sys.sim.sleep(timing::CMD_ISSUE).await;

        let reply_msg = Message {
            header: Header {
                label: rinfo.label,
                len: payload.len() as u32,
                sender_pe: self.pe,
                sender_ep: EpId::new(0),
                reply: None,
            },
            payload: payload.into(),
        };
        // Replies consume no credit, so a lost reply refunds nothing.
        let completes_at =
            self.transmit(None, reply_msg, (rinfo.pe, rinfo.ep), Some(rinfo.ctx), None);
        // The credit refill models the DTU-level flow-control ack (§4.4.3),
        // which travels independently of the reply message: even a faulted
        // reply returns the sender's credit, so retries are never starved.
        self.sys
            .refill_credit_at(completes_at, rinfo.pe, rinfo.ctx, rinfo.credit_ep);
        Ok(())
    }

    /// Puts `msg` on the NoC towards `dst` — a send through `send_ep`, or a
    /// reply if that is `None` — bills the transfer, and applies the fault
    /// plane's verdict to the delivery. `ctx` is the context a reply
    /// follows; `credit` is the bounded send EP a lost message refunds.
    /// Returns when the NoC transfer completes; the message is deposited
    /// [`timing::DELIVER`] later.
    fn transmit(
        &self,
        send_ep: Option<EpId>,
        mut msg: Message,
        (dst_pe, dst_ep): (PeId, EpId),
        ctx: Option<u64>,
        credit: Option<(PeId, u64, EpId)>,
    ) -> Cycles {
        let sys = &self.sys;
        let wire = msg.wire_size() as u64;
        let now = sys.sim.now();
        let t = sys.noc.schedule(now, self.pe, dst_pe, wire);
        let busy = (t.completes_at - now).as_u64();
        let arrive = t.completes_at + timing::DELIVER;
        let sent = match send_ep {
            Some(_) => sys.hot.msgs_sent,
            None => sys.hot.replies_sent,
        };
        sys.metrics.incr_handle(self.pe, sent);
        sys.metrics.add_handle(self.pe, sys.hot.msg_cycles, busy);
        sys.metrics.add_handle(self.pe, sys.hot.busy, busy);
        sys.tracer.record_with(|| Event {
            at: now,
            dur: arrive - now,
            pe: Some(self.pe),
            comp: Component::Dtu,
            kind: match send_ep {
                Some(ep) => EventKind::MsgSend {
                    ep,
                    dst_pe,
                    dst_ep,
                    bytes: wire,
                },
                None => EventKind::MsgReply {
                    dst_pe,
                    bytes: wire,
                },
            },
        });
        let verdict = match sys.faults() {
            Some(faults) => faults.message_verdict(now, self.pe, dst_pe),
            None => MsgVerdict::Deliver,
        };
        match verdict {
            MsgVerdict::Deliver => sys.deliver_at(arrive, dst_pe, dst_ep, msg, ctx, credit),
            MsgVerdict::Drop => {
                // The message vanishes in the NoC. The credit is refunded at
                // the would-be delivery time, exactly like a ring-buffer
                // drop: the reply path that normally refills it is gone.
                sys.trace_fault(self.pe, "msg_drop", Cycles::ZERO);
                if let Some((sender_pe, sender_ctx, sender_ep)) = credit {
                    sys.refill_credit_at(arrive, sender_pe, sender_ctx, sender_ep);
                }
            }
            MsgVerdict::Duplicate => {
                // Two copies arrive; only the first carries the credit
                // pointer, so a drop of the duplicate cannot double-refund.
                sys.trace_fault(self.pe, "msg_duplicate", Cycles::ZERO);
                sys.deliver_at(arrive, dst_pe, dst_ep, msg.clone(), ctx, credit);
                sys.deliver_at(arrive, dst_pe, dst_ep, msg, ctx, None);
            }
            MsgVerdict::Corrupt => {
                sys.trace_fault(self.pe, "msg_corrupt", Cycles::ZERO);
                let mut bytes = msg.payload.to_vec();
                m3_fault::corrupt_payload(&mut bytes);
                msg.payload = bytes.into();
                sys.deliver_at(arrive, dst_pe, dst_ep, msg, ctx, credit);
            }
        }
        t.completes_at
    }

    /// Fetches the oldest unread message from receive endpoint `ep`, if any.
    ///
    /// The slot stays occupied until [`Dtu::ack`].
    ///
    /// # Errors
    ///
    /// [`Code::InvEp`] if `ep` is not a receive endpoint.
    // m3lint: allow(cycle-accounting): a single message-register read; the polling software pays timing::FETCH_POLL per poll in recv()
    pub fn fetch(&self, ep: EpId) -> Result<Option<Message>> {
        Self::check_ep(ep)?;
        let mut pes = self.sys.inner.pes.borrow_mut();
        let state = &mut pes[self.pe.idx()];
        match state.regs.ringbufs.get_mut(&ep) {
            Some(rb) => Ok(rb.fetch()),
            None => Err(Error::new(Code::InvEp).with_msg(format!("{ep} is not a receive EP"))),
        }
    }

    /// Waits for and fetches the next message from receive endpoint `ep`.
    ///
    /// Models the software polling the DTU's message register (§4.4.1);
    /// each poll costs [`timing::FETCH_POLL`].
    ///
    /// # Errors
    ///
    /// [`Code::InvEp`] if `ep` is not a receive endpoint.
    pub async fn recv(&self, ep: EpId) -> Result<Message> {
        loop {
            self.fault_gate().await?;
            self.sys.sim.sleep(timing::FETCH_POLL).await;
            if let Some(msg) = self.fetch(ep)? {
                return Ok(msg);
            }
            let arrival = self.sys.inner.pes.borrow()[self.pe.idx()].arrival.clone();
            arrival.wait().await;
        }
    }

    /// Like [`Dtu::recv`], but gives up once the simulated clock reaches
    /// `deadline`.
    ///
    /// # Errors
    ///
    /// [`Code::Timeout`] if no message arrived by the deadline; otherwise
    /// as [`Dtu::recv`].
    pub async fn recv_timeout(&self, ep: EpId, deadline: Cycles) -> Result<Message> {
        match m3_sim::with_deadline(&self.sys.sim, deadline, self.recv(ep)).await {
            Some(result) => result,
            None => Err(Error::new(Code::Timeout).with_msg(format!("recv on {ep}"))),
        }
    }

    /// Frees the ring-buffer slot of one fetched message (advancing the read
    /// position, §4.4.3).
    ///
    /// # Errors
    ///
    /// [`Code::InvEp`] if `ep` is not a receive endpoint.
    ///
    /// # Panics
    ///
    /// Panics if no fetched message is outstanding.
    // m3lint: allow(cycle-accounting): a single register write on the receive path; the caller's poll loop (timing::FETCH_POLL) carries the cost
    pub fn ack(&self, ep: EpId) -> Result<()> {
        Self::check_ep(ep)?;
        let mut pes = self.sys.inner.pes.borrow_mut();
        let state = &mut pes[self.pe.idx()];
        match state.regs.ringbufs.get_mut(&ep) {
            Some(rb) => {
                rb.ack();
                self.sys.metrics.observe_handle(
                    self.pe,
                    self.sys.hot.ring_occupancy,
                    rb.occupied() as u64,
                );
                Ok(())
            }
            None => Err(Error::new(Code::InvEp).with_msg(format!("{ep} is not a receive EP"))),
        }
    }

    /// Whether a message is waiting at receive endpoint `ep`.
    pub fn has_message(&self, ep: EpId) -> bool {
        let pes = self.sys.inner.pes.borrow();
        pes[self.pe.idx()]
            .regs
            .ringbufs
            .get(&ep)
            .is_some_and(|rb| rb.has_message())
    }

    /// Remaining credits of send endpoint `ep` (`None` if unbounded or not a
    /// send EP).
    pub fn credits(&self, ep: EpId) -> Option<u32> {
        let pes = self.sys.inner.pes.borrow();
        pes[self.pe.idx()].regs.credits.get(&ep).copied()
    }

    /// Reads `len` bytes at `offset` within the region of memory endpoint
    /// `ep` (RDMA read; no software runs on the passive side, §4.4.1).
    ///
    /// The caller is blocked until the data has arrived (the prototype polls
    /// for completion, §4.4.1).
    ///
    /// # Errors
    ///
    /// - [`Code::InvEp`] if `ep` is not a memory endpoint.
    /// - [`Code::NoPerm`] if the endpoint lacks read permission.
    /// - [`Code::InvArgs`] if the access exceeds the region.
    pub async fn read_mem(&self, ep: EpId, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read_mem_into(ep, offset, &mut buf).await?;
        Ok(buf)
    }

    /// Like [`Dtu::read_mem`], but places the data in `buf` instead of
    /// allocating — the form chunked readers (filesystem, pipes) use so a
    /// multi-megabyte transfer reuses one buffer across chunks.
    ///
    /// # Errors
    ///
    /// Same as [`Dtu::read_mem`].
    pub async fn read_mem_into(&self, ep: EpId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let len = buf.len();
        self.rdma(ep, offset, len, false, |region| buf.copy_from_slice(region))
            .await
    }

    /// Writes `data` at `offset` within the region of memory endpoint `ep`
    /// (RDMA write).
    ///
    /// # Errors
    ///
    /// - [`Code::InvEp`] if `ep` is not a memory endpoint.
    /// - [`Code::NoPerm`] if the endpoint lacks write permission.
    /// - [`Code::InvArgs`] if the access exceeds the region.
    pub async fn write_mem(&self, ep: EpId, offset: u64, data: &[u8]) -> Result<()> {
        self.rdma(ep, offset, data.len(), true, |region| {
            region.copy_from_slice(data)
        })
        .await
    }

    /// The RDMA pipeline behind [`Dtu::read_mem_into`] and
    /// [`Dtu::write_mem`]: endpoint check, fault gate, target check,
    /// command issue, the transfer, its accounting, and finally `access` on
    /// the `len` bytes of the region the transfer reached.
    async fn rdma(
        &self,
        ep: EpId,
        offset: u64,
        len: usize,
        write: bool,
        access: impl FnOnce(&mut [u8]),
    ) -> Result<()> {
        let need = if write { Perm::W } else { Perm::R };
        let (pe, base) = self.check_mem_access(ep, offset, len, need)?;
        self.fault_gate().await?;
        self.check_target_alive(pe)?;
        self.sys.sim.sleep(timing::CMD_ISSUE).await;
        let now = self.sys.sim.now();
        let lat = self.sys.mem_latency(pe);
        let done = if write {
            // The data travels to the memory, which then takes its latency.
            let xfer = self.sys.noc.schedule(now, self.pe, pe, len as u64);
            xfer.completes_at + lat
        } else {
            // Request packet to the memory, then the data travels back.
            let req = self.sys.noc.schedule(now, self.pe, pe, 0);
            let data = self
                .sys
                .noc
                .schedule(req.completes_at + lat, pe, self.pe, len as u64);
            data.completes_at
        };
        self.sys.sim.sleep_until(done).await;
        let bytes = if write {
            self.sys.hot.mem_write_bytes
        } else {
            self.sys.hot.mem_read_bytes
        };
        let busy = (done - now).as_u64();
        let m = &self.sys.metrics;
        m.add_handle(self.pe, bytes, len as u64);
        m.add_handle(self.pe, self.sys.hot.xfer_cycles, busy);
        m.add_handle(self.pe, self.sys.hot.busy, busy);
        self.sys.tracer.record_with(|| Event {
            at: now,
            dur: done - now,
            pe: Some(self.pe),
            comp: Component::Dtu,
            kind: EventKind::MemXfer {
                write,
                bytes: len as u64,
            },
        });

        // The region was checked against the endpoint, not against the
        // memory behind it: a region the kernel placed past the end of the
        // node's memory fails like a node without one.
        let mems = self.sys.inner.mems.borrow();
        let mut data = mems.get(&pe).map(|mem| mem.data.borrow_mut());
        let region = data.as_mut().and_then(|data| {
            let start = usize::try_from(base.checked_add(offset)?).ok()?;
            data.get_mut(start..start.checked_add(len)?)
        });
        let Some(region) = region else {
            return Err(Error::new(Code::InvArgs)
                .with_msg(format!("no memory at {pe} for [{base} + {offset}, +{len})")));
        };
        access(region);
        drop(data);
        drop(mems);
        if !write {
            // The fetched bytes land in this PE's SPM: dirty the pages under
            // the streaming cursor. RDMA writes read *out* of the SPM and
            // stay clean.
            self.sys.inner.pes.borrow_mut()[self.pe.idx()]
                .spm_dirty
                .touch(len as u64);
        }
        Ok(())
    }

    fn check_mem_access(
        &self,
        ep: EpId,
        offset: u64,
        len: usize,
        need: Perm,
    ) -> Result<(PeId, u64)> {
        Self::check_ep(ep)?;
        let pes = self.sys.inner.pes.borrow();
        let state = &pes[self.pe.idx()];
        match &state.regs.eps[ep.idx()] {
            EpConfig::Memory {
                pe,
                offset: base,
                len: region_len,
                perm,
            } => {
                if !perm.contains(need) {
                    return Err(Error::new(Code::NoPerm)
                        .with_msg(format!("memory EP is {perm}, need {need}")));
                }
                let end = offset
                    .checked_add(len as u64)
                    .ok_or_else(|| Error::new(Code::InvArgs).with_msg("offset overflow"))?;
                if end > *region_len {
                    return Err(Error::new(Code::InvArgs).with_msg(format!(
                        "access [{offset}, {end}) beyond region {region_len}"
                    )));
                }
                Ok((*pe, *base))
            }
            _ => Err(Error::new(Code::InvEp).with_msg(format!("{ep} is not a memory EP"))),
        }
    }
}

/// The kernel's handle over the privileged DTU configuration interface.
///
/// Minted by [`Dtu::claim_kernel_token`], which fails on downgraded DTUs.
/// The token is deliberately neither `Clone` nor `Copy`: it cannot be
/// duplicated and handed to application code, which makes "only the kernel
/// configures endpoints" (paper §3) a property the type system helps
/// enforce — and one `m3-lint`'s isolation rule checks by name.
pub struct KernelToken {
    dtu: Dtu,
}

impl fmt::Debug for KernelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KernelToken({})", self.dtu.pe)
    }
}

impl KernelToken {
    /// The PE of the kernel DTU this token was claimed from.
    pub fn pe(&self) -> PeId {
        self.dtu.pe
    }

    /// Configures endpoint `ep` of the DTU at `target` (remotely, over the
    /// NoC — this is how the kernel establishes channels, paper Figure 2).
    ///
    /// # Errors
    ///
    /// - [`Code::NoPerm`] if this DTU has been downgraded.
    /// - [`Code::InvEp`] if `ep` is out of range.
    // m3lint: allow(cycle-accounting): KernelToken config-plane: the kernel pays for the EP_CONFIG_BYTES config message it sends to reach this
    pub fn configure(&self, target: PeId, ep: EpId, cfg: EpConfig) -> Result<()> {
        self.dtu.sys.checked(|| {
            self.dtu.require_privileged()?;
            Dtu::check_ep(ep)?;
            let mut pes = self.dtu.sys.inner.pes.borrow_mut();
            let state = pes
                .get_mut(target.idx())
                .ok_or_else(|| Error::new(Code::InvArgs).with_msg(format!("no node {target}")))?;
            state.regs.set(ep, cfg);
            Ok(())
        })
    }

    /// Reads the configuration of endpoint `ep` at `target`.
    ///
    /// # Errors
    ///
    /// Same as [`KernelToken::configure`].
    pub fn ep_config(&self, target: PeId, ep: EpId) -> Result<EpConfig> {
        self.dtu.require_privileged()?;
        Dtu::check_ep(ep)?;
        let pes = self.dtu.sys.inner.pes.borrow();
        let state = pes
            .get(target.idx())
            .ok_or_else(|| Error::new(Code::InvArgs).with_msg(format!("no node {target}")))?;
        Ok(state.regs.eps[ep.idx()].clone())
    }

    /// Upgrades or downgrades the DTU at `target`. During boot the kernel
    /// downgrades every application PE (paper §3).
    ///
    /// # Errors
    ///
    /// [`Code::NoPerm`] if this DTU has been downgraded itself.
    // m3lint: allow(cycle-accounting): KernelToken config-plane: privilege flips happen at boot/teardown under the kernel's charged config path
    pub fn set_privileged(&self, target: PeId, privileged: bool) -> Result<()> {
        self.dtu.require_privileged()?;
        let mut pes = self.dtu.sys.inner.pes.borrow_mut();
        let state = pes
            .get_mut(target.idx())
            .ok_or_else(|| Error::new(Code::InvArgs).with_msg(format!("no node {target}")))?;
        state.privileged = privileged;
        Ok(())
    }

    /// Refills the credits of send endpoint `ep` at `target` to `credits`
    /// (an OS kernel may refill credits besides the reply path, §4.4.3).
    ///
    /// # Errors
    ///
    /// - [`Code::NoPerm`] if this DTU has been downgraded.
    /// - [`Code::InvEp`] if the endpoint is not a bounded-credit send EP.
    // m3lint: allow(cycle-accounting): credits are restored at the reply transfer's completion time, which the replying side already paid for
    pub fn refill_credits(&self, target: PeId, ep: EpId, credits: u32) -> Result<()> {
        self.dtu.sys.checked(|| {
            self.dtu.require_privileged()?;
            Dtu::check_ep(ep)?;
            let mut pes = self.dtu.sys.inner.pes.borrow_mut();
            let regs = &mut pes
                .get_mut(target.idx())
                .ok_or_else(|| Error::new(Code::InvArgs).with_msg(format!("no node {target}")))?
                .regs;
            match regs.eps.get(ep.idx()) {
                Some(EpConfig::Send {
                    credits: Some(max), ..
                }) => {
                    regs.credits.insert(ep, credits.min(*max));
                    Ok(())
                }
                _ => Err(Error::new(Code::InvEp).with_msg("not a bounded-credit send EP")),
            }
        })
    }

    // ------------------------------------------------------------------
    // Context switching (kernel-driven VPE time-multiplexing, m3-sched)
    // ------------------------------------------------------------------

    /// Suspends the live context of the DTU at `target`: its endpoint
    /// registers, undelivered ring-buffer contents, and unspent credits move
    /// to the context's save area, and the live registers reset to the boot
    /// state. Until [`KernelToken::restore_state`] installs a successor the
    /// DTU carries [`NO_CTX`], so in-flight traffic keeps routing into save
    /// areas rather than the empty registers.
    ///
    /// Returns `(state_bytes, dirty_pages)`: the DTU-state bytes the save
    /// moved (the caller charges the DTU transfer to DRAM at 8 B/cycle,
    /// §5.4) and how many SPM data pages were dirty since the context last
    /// went out — the pages a dirty-tracked switch must write back instead
    /// of the whole image. The live dirty bitmap then resets to fully dirty
    /// for whichever context runs next, so an untracked successor is never
    /// under-counted.
    ///
    /// # Errors
    ///
    /// - [`Code::NoPerm`] if this DTU has been downgraded.
    /// - [`Code::InvArgs`] if `target` does not exist or is already saved
    ///   out (carries [`NO_CTX`]).
    // m3lint: allow(cycle-accounting): the kernel switch path charges CTX_SAVE_FIXED plus the modelled state transfer; the doc says the caller charges the bytes moved
    pub fn save_state(&self, target: PeId) -> Result<(u64, u32)> {
        self.dtu.require_privileged()?;
        let mut pes = self.dtu.sys.inner.pes.borrow_mut();
        let state = pes
            .get_mut(target.idx())
            .ok_or_else(|| Error::new(Code::InvArgs).with_msg(format!("no node {target}")))?;
        if state.current_ctx == NO_CTX {
            return Err(Error::new(Code::InvArgs).with_msg(format!("{target} mid-switch already")));
        }
        let ctx = state.current_ctx;
        let dirty_pages = state.spm_dirty.count();
        let saved_ctx = SavedCtx {
            regs: std::mem::replace(&mut state.regs, EpFile::new()),
            dirty_pages,
        };
        state.current_ctx = NO_CTX;
        state.spm_dirty.mark_all();
        drop(pes);
        let bytes = saved_ctx.regs.state_bytes();
        self.dtu
            .sys
            .inner
            .saved
            .borrow_mut()
            .insert((target, ctx), saved_ctx);
        Ok((bytes, dirty_pages))
    }

    /// Resumes context `ctx` on the DTU at `target`: its save area becomes
    /// the live endpoint registers, ring buffers, and credits. Returns
    /// `(state_bytes, dirty_pages)`: the DTU-state bytes the restore moved
    /// (charged by the caller like a save) and the SPM pages the context's
    /// save-out transferred, which an eager restore brings back. The live
    /// bitmap starts clean: the image just restored matches its DRAM copy
    /// until the DTU deposits into it again.
    ///
    /// # Errors
    ///
    /// - [`Code::NoPerm`] if this DTU has been downgraded.
    /// - [`Code::InvArgs`] if `target` does not exist or `(target, ctx)` has
    ///   no save area.
    // m3lint: allow(cycle-accounting): the kernel switch path charges CTX_RESTORE_FIXED plus the modelled state transfer, as for save_state
    pub fn restore_state(&self, target: PeId, ctx: u64) -> Result<(u64, u32)> {
        self.dtu.sys.checked(|| {
            self.dtu.require_privileged()?;
            let saved_ctx = self
                .dtu
                .sys
                .inner
                .saved
                .borrow_mut()
                .remove(&(target, ctx))
                .ok_or_else(|| {
                    Error::new(Code::InvArgs)
                        .with_msg(format!("no saved context {ctx} at {target}"))
                })?;
            let bytes = saved_ctx.regs.state_bytes();
            let mut pes = self.dtu.sys.inner.pes.borrow_mut();
            let state = pes
                .get_mut(target.idx())
                .ok_or_else(|| Error::new(Code::InvArgs).with_msg(format!("no node {target}")))?;
            state.regs = saved_ctx.regs;
            state.current_ctx = ctx;
            state.spm_dirty.clear();
            let arrival = state.arrival.clone();
            drop(pes);
            // Messages may have been parked in the restored ring buffers
            // while the context was out; wake its receivers so they re-poll.
            arrival.notify_all();
            Ok((bytes, saved_ctx.dirty_pages))
        })
    }

    /// Configures endpoint `ep` directly in the *save area* of context
    /// `(target, ctx)`, creating the area if needed — how the kernel
    /// prepares channels for an admitted-but-not-yet-resident VPE without
    /// touching whoever holds the live registers. Same ring-buffer and
    /// credit bookkeeping as [`KernelToken::configure`].
    ///
    /// # Errors
    ///
    /// - [`Code::NoPerm`] if this DTU has been downgraded.
    /// - [`Code::InvEp`] if `ep` is out of range.
    // m3lint: allow(cycle-accounting): KernelToken config-plane: updates a parked context image; charged by the kernel's config message path
    pub fn stash_config(&self, target: PeId, ctx: u64, ep: EpId, cfg: EpConfig) -> Result<()> {
        self.dtu.sys.checked(|| {
            self.dtu.require_privileged()?;
            Dtu::check_ep(ep)?;
            let mut saved = self.dtu.sys.inner.saved.borrow_mut();
            let sc = saved.entry((target, ctx)).or_insert_with(SavedCtx::new);
            sc.regs.set(ep, cfg);
            Ok(())
        })
    }

    /// Labels the live registers of the DTU at `target` as belonging to
    /// context `ctx` (set when a VPE is admitted resident, so later replies
    /// can chase it through switches).
    ///
    /// # Errors
    ///
    /// [`Code::NoPerm`] if this DTU has been downgraded.
    // m3lint: allow(cycle-accounting): KernelToken config-plane: pointer swap during a switch the kernel has already charged (CTX_* + transfer)
    pub fn set_current_ctx(&self, target: PeId, ctx: u64) -> Result<()> {
        self.dtu.require_privileged()?;
        let mut pes = self.dtu.sys.inner.pes.borrow_mut();
        let state = pes
            .get_mut(target.idx())
            .ok_or_else(|| Error::new(Code::InvArgs).with_msg(format!("no node {target}")))?;
        state.current_ctx = ctx;
        Ok(())
    }

    /// The context id the live registers of `target` belong to.
    ///
    /// # Errors
    ///
    /// [`Code::NoPerm`] if this DTU has been downgraded.
    pub fn current_ctx(&self, target: PeId) -> Result<u64> {
        self.dtu.require_privileged()?;
        let pes = self.dtu.sys.inner.pes.borrow();
        let state = pes
            .get(target.idx())
            .ok_or_else(|| Error::new(Code::InvArgs).with_msg(format!("no node {target}")))?;
        Ok(state.current_ctx)
    }

    /// Whether the save area of `(target, ctx)` holds an unfetched message
    /// at endpoint `ep` — the kernel's wake-up check for parked VPEs.
    pub fn saved_has_message(&self, target: PeId, ctx: u64, ep: EpId) -> bool {
        self.dtu
            .sys
            .inner
            .saved
            .borrow()
            .get(&(target, ctx))
            .and_then(|sc| sc.regs.ringbufs.get(&ep))
            .is_some_and(RingBuf::has_message)
    }

    /// Whether the *live* registers of `target` hold an unfetched message at
    /// `ep` (the kernel peeks on behalf of a resident VPE).
    pub fn has_message(&self, target: PeId, ep: EpId) -> bool {
        let pes = self.dtu.sys.inner.pes.borrow();
        pes.get(target.idx())
            .and_then(|s| s.regs.ringbufs.get(&ep))
            .is_some_and(RingBuf::has_message)
    }

    /// Discards the save area of `(target, ctx)` (the VPE died while
    /// switched out). Returns whether one existed.
    ///
    /// # Errors
    ///
    /// [`Code::NoPerm`] if this DTU has been downgraded.
    // m3lint: allow(cycle-accounting): KernelToken config-plane: context teardown bookkeeping inside the kernel's charged exit path
    pub fn drop_saved(&self, target: PeId, ctx: u64) -> Result<bool> {
        self.dtu.require_privileged()?;
        Ok(self
            .dtu
            .sys
            .inner
            .saved
            .borrow_mut()
            .remove(&(target, ctx))
            .is_some())
    }

    /// The arrival notify of the DTU at `target` — woken on every message
    /// deposit for that PE, live or saved. The kernel's scheduler shares it
    /// as the per-PE wake signal.
    ///
    /// # Errors
    ///
    /// [`Code::NoPerm`] if this DTU has been downgraded.
    pub fn arrival_notify(&self, target: PeId) -> Result<Notify> {
        self.dtu.require_privileged()?;
        let pes = self.dtu.sys.inner.pes.borrow();
        let state = pes
            .get(target.idx())
            .ok_or_else(|| Error::new(Code::InvArgs).with_msg(format!("no node {target}")))?;
        Ok(state.arrival.clone())
    }

    /// A full copy of the live endpoint state of `target` — per endpoint:
    /// its configuration, its ring buffer (receive EPs), and its remaining
    /// credits (bounded send EPs). Test instrumentation for the
    /// save→restore round-trip property; not a modeled DTU operation.
    ///
    /// # Errors
    ///
    /// [`Code::NoPerm`] if this DTU has been downgraded.
    #[allow(clippy::type_complexity)]
    pub fn snapshot(&self, target: PeId) -> Result<Vec<(EpConfig, Option<RingBuf>, Option<u32>)>> {
        self.dtu.require_privileged()?;
        let pes = self.dtu.sys.inner.pes.borrow();
        let state = pes
            .get(target.idx())
            .ok_or_else(|| Error::new(Code::InvArgs).with_msg(format!("no node {target}")))?;
        Ok((0..EP_COUNT)
            .map(|i| {
                let ep = EpId::new(i as u32);
                (
                    state.regs.eps[i].clone(),
                    state.regs.ringbufs.get(&ep).cloned(),
                    state.regs.credits.get(&ep).copied(),
                )
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_noc::{NocConfig, Topology};

    fn setup(nodes: u32) -> (Sim, DtuSystem) {
        let sim = Sim::new();
        let noc = Noc::new(Topology::with_nodes(nodes), NocConfig::default());
        let sys = DtuSystem::new(sim.clone(), noc);
        (sim, sys)
    }

    fn recv_cfg(slots: usize, replies: bool) -> EpConfig {
        EpConfig::Receive {
            slots,
            slot_size: 256,
            allow_replies: replies,
        }
    }

    fn send_cfg(pe: u32, ep: u32, label: Label, credits: Option<u32>) -> EpConfig {
        EpConfig::Send {
            pe: PeId::new(pe),
            ep: EpId::new(ep),
            label,
            credits,
            max_payload: 128,
        }
    }

    /// The sanitizer must fire on a genuine invariant violation. The public
    /// API upholds the invariants by construction, so the test corrupts the
    /// internal credit ledger directly and then drives a checked operation.
    #[cfg(feature = "sanitize")]
    #[test]
    #[should_panic(expected = "credits exceed the configured")]
    fn sanitize_catches_credit_overflow() {
        let (_sim, sys) = setup(2);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(0, 0, 0, Some(2)))
            .unwrap();
        sys.inner.pes.borrow_mut()[1]
            .regs
            .credits
            .insert(EpId::new(0), 99);
        // Any checked operation — even one touching a different endpoint —
        // now trips the conservation assert.
        kernel
            .configure(PeId::new(1), EpId::new(1), recv_cfg(2, false))
            .unwrap();
    }

    #[cfg(feature = "sanitize")]
    #[test]
    #[should_panic(expected = "ring buffer geometry")]
    fn sanitize_catches_ring_geometry_mismatch() {
        let (_sim, sys) = setup(2);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), recv_cfg(4, false))
            .unwrap();
        sys.inner.pes.borrow_mut()[1]
            .regs
            .ringbufs
            .insert(EpId::new(0), RingBuf::new(2, 64));
        kernel
            .refill_credits(PeId::new(1), EpId::new(0), 1)
            .unwrap_err();
    }

    #[test]
    fn message_roundtrip_with_reply() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(4, true))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0xcafe, Some(4)))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(1), recv_cfg(4, false))
            .unwrap();

        let receiver = sys.dtu(PeId::new(2));
        let server = sim.spawn("server", async move {
            let msg = receiver.recv(EpId::new(0)).await.unwrap();
            assert_eq!(msg.payload, b"ping");
            assert_eq!(msg.header.label, 0xcafe);
            receiver.reply(&msg, b"pong").await.unwrap();
            receiver.ack(EpId::new(0)).unwrap();
        });

        let sender = sys.dtu(PeId::new(1));
        let client = sim.spawn("client", async move {
            sender
                .send(EpId::new(0), b"ping", Some((EpId::new(1), 0x99)))
                .await
                .unwrap();
            let reply = sender.recv(EpId::new(1)).await.unwrap();
            sender.ack(EpId::new(1)).unwrap();
            reply
        });

        sim.run();
        server.try_take().unwrap();
        let reply = client.try_take().unwrap();
        assert_eq!(reply.payload, b"pong");
        assert_eq!(reply.header.label, 0x99);
    }

    #[test]
    fn credits_limit_in_flight_messages() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(8, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, Some(2)))
            .unwrap();

        let sender = sys.dtu(PeId::new(1));
        let h = sim.spawn("sender", async move {
            sender.send(EpId::new(0), b"1", None).await.unwrap();
            sender.send(EpId::new(0), b"2", None).await.unwrap();
            sender
                .send(EpId::new(0), b"3", None)
                .await
                .unwrap_err()
                .code()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Code::NoCredits);
    }

    #[test]
    fn reply_refills_credits() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(8, true))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, Some(1)))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(1), recv_cfg(4, false))
            .unwrap();

        let receiver = sys.dtu(PeId::new(2));
        sim.spawn("server", async move {
            for _ in 0..3 {
                let msg = receiver.recv(EpId::new(0)).await.unwrap();
                receiver.reply(&msg, b"ok").await.unwrap();
                receiver.ack(EpId::new(0)).unwrap();
            }
        });

        let sender = sys.dtu(PeId::new(1));
        let h = sim.spawn("client", async move {
            // With 1 credit, each send must wait for the previous reply.
            for _ in 0..3 {
                sender
                    .send(EpId::new(0), b"req", Some((EpId::new(1), 0)))
                    .await
                    .unwrap();
                sender.recv(EpId::new(1)).await.unwrap();
                sender.ack(EpId::new(1)).unwrap();
            }
            sender.credits(EpId::new(0))
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Some(1), "credit restored by reply");
    }

    #[test]
    fn unprivileged_dtu_cannot_configure() {
        let (_sim, sys) = setup(2);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel.set_privileged(PeId::new(1), false).unwrap();
        let app = sys.dtu(PeId::new(1));
        // The configuration surface is unreachable without a KernelToken,
        // and a downgraded DTU cannot mint one.
        let err = app.claim_kernel_token().unwrap_err();
        assert_eq!(err.code(), Code::NoPerm);
        // The kernel still can.
        kernel
            .configure(PeId::new(1), EpId::new(0), recv_cfg(4, false))
            .unwrap();
    }

    #[test]
    fn kernel_token_dies_with_its_pe() {
        // A token claimed while privileged must not outlive the privilege:
        // every operation re-checks at runtime (hardware would drop the
        // config-register write, paper §3).
        let (_sim, sys) = setup(2);
        let stale = sys.dtu(PeId::new(1)).claim_kernel_token().unwrap();
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel.set_privileged(PeId::new(1), false).unwrap();
        let err = stale
            .configure(PeId::new(1), EpId::new(0), recv_cfg(4, false))
            .unwrap_err();
        assert_eq!(err.code(), Code::NoPerm);
        assert_eq!(
            stale.set_privileged(PeId::new(1), true).unwrap_err().code(),
            Code::NoPerm
        );
    }

    #[test]
    fn send_on_unconfigured_ep_fails() {
        let (sim, sys) = setup(2);
        let app = sys.dtu(PeId::new(1));
        let h = sim.spawn("t", async move {
            app.send(EpId::new(0), b"x", None).await.unwrap_err().code()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Code::InvEp);
    }

    #[test]
    fn oversized_payload_rejected_at_send() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(4, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, None))
            .unwrap();
        let sender = sys.dtu(PeId::new(1));
        let h = sim.spawn("t", async move {
            let big = vec![0u8; 4096];
            sender
                .send(EpId::new(0), &big, None)
                .await
                .unwrap_err()
                .code()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Code::InvArgs);
    }

    #[test]
    fn ringbuffer_overflow_drops_messages() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(2, false))
            .unwrap();
        // Misconfigured channel: more credits than slots (the paper warns
        // receivers should not hand out more credits than buffer space).
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, Some(4)))
            .unwrap();
        let sender = sys.dtu(PeId::new(1));
        let stats = sim.stats();
        sim.spawn("sender", async move {
            for _ in 0..4 {
                sender.send(EpId::new(0), b"x", None).await.unwrap();
            }
        });
        sim.run();
        assert_eq!(stats.get("dtu.msgs_delivered"), 2);
        assert_eq!(stats.get("dtu.msgs_dropped"), 2);
    }

    #[test]
    fn dropped_message_refunds_sender_credit() {
        // Regression: a dropped message used to consume the sender's credit
        // forever (no reply would ever refill it), starving the sender.
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        // One slot, two credits: the second in-flight message is dropped.
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(1, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, Some(2)))
            .unwrap();
        let sender = sys.dtu(PeId::new(1));
        let stats = sim.stats();
        let sim2 = sim.clone();
        let h = sim.spawn("sender", async move {
            sender.send(EpId::new(0), b"a", None).await.unwrap();
            sender.send(EpId::new(0), b"b", None).await.unwrap(); // dropped
            sim2.sleep(Cycles::new(10_000)).await; // let deliveries land
                                                   // The drop must hand the credit back: this third send would
                                                   // fail with NoCredits if the credit leaked.
            sender.send(EpId::new(0), b"c", None).await.unwrap(); // dropped too
            sim2.sleep(Cycles::new(10_000)).await;
            sender.credits(EpId::new(0))
        });
        sim.run();
        assert_eq!(stats.get("dtu.msgs_delivered"), 1);
        assert_eq!(stats.get("dtu.msgs_dropped"), 2);
        // Both dropped sends were refunded; the delivered one was not.
        assert_eq!(h.try_take().unwrap(), Some(1));
        let metrics = sim.metrics();
        assert_eq!(metrics.get(PeId::new(2), m3_sim::keys::DTU_DROPS), 2);
    }

    #[test]
    fn metrics_track_ring_occupancy_and_trace_captures_messages() {
        let (sim, sys) = setup(3);
        sim.enable_trace();
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(4, true))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, Some(4)))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(1), recv_cfg(4, false))
            .unwrap();
        let receiver = sys.dtu(PeId::new(2));
        sim.spawn("server", async move {
            let msg = receiver.recv(EpId::new(0)).await.unwrap();
            receiver.reply(&msg, b"ok").await.unwrap();
            receiver.ack(EpId::new(0)).unwrap();
        });
        let sender = sys.dtu(PeId::new(1));
        sim.spawn("client", async move {
            sender
                .send(EpId::new(0), b"req", Some((EpId::new(1), 0)))
                .await
                .unwrap();
            sender.recv(EpId::new(1)).await.unwrap();
            sender.ack(EpId::new(1)).unwrap();
        });
        sim.run();

        let metrics = sim.metrics();
        let occ = metrics
            .histogram(PeId::new(2), m3_sim::keys::RING_OCCUPANCY)
            .expect("receiver ring occupancy observed");
        // Deposit saw 1 slot occupied; the ack saw it drop back to 0.
        assert_eq!(occ.max(), 1);
        assert_eq!(occ.min(), Some(0));
        assert!(metrics.get(PeId::new(1), m3_sim::keys::DTU_BUSY) > 0);

        let tags: Vec<&str> = sim.trace().iter().map(|e| e.kind.tag()).collect();
        assert!(tags.contains(&"msg_send"), "{tags:?}");
        assert!(tags.contains(&"msg_reply"), "{tags:?}");
        assert!(tags.contains(&"noc_xfer"), "{tags:?}");
    }

    #[test]
    fn exhausted_credits_count_as_stall() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(8, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, Some(1)))
            .unwrap();
        let sender = sys.dtu(PeId::new(1));
        sim.spawn("sender", async move {
            sender.send(EpId::new(0), b"1", None).await.unwrap();
            sender.send(EpId::new(0), b"2", None).await.unwrap_err();
        });
        sim.run();
        assert_eq!(
            sim.metrics().get(PeId::new(1), m3_sim::keys::CREDIT_STALLS),
            1
        );
    }

    #[test]
    fn reply_info_stripped_when_buffer_disallows_replies() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(4, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, None))
            .unwrap();
        let sender = sys.dtu(PeId::new(1));
        let receiver = sys.dtu(PeId::new(2));
        let h = sim.spawn("recv", async move {
            let msg = receiver.recv(EpId::new(0)).await.unwrap();
            let err = receiver.reply(&msg, b"no").await.unwrap_err().code();
            (msg.header.reply, err)
        });
        sim.spawn("send", async move {
            sender
                .send(EpId::new(0), b"req", Some((EpId::new(1), 0)))
                .await
                .unwrap();
        });
        sim.run();
        let (reply, err) = h.try_take().unwrap();
        assert_eq!(reply, None);
        assert_eq!(err, Code::NoPerm);
    }

    #[test]
    fn memory_endpoint_read_write() {
        let (sim, sys) = setup(3);
        let mem = sys.add_memory(PeId::new(2), MemKind::Dram, 4096);
        mem.borrow_mut()[100..104].copy_from_slice(&[1, 2, 3, 4]);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(
                PeId::new(1),
                EpId::new(0),
                EpConfig::Memory {
                    pe: PeId::new(2),
                    offset: 0,
                    len: 4096,
                    perm: Perm::RW,
                },
            )
            .unwrap();
        let app = sys.dtu(PeId::new(1));
        let h = sim.spawn("app", async move {
            let data = app.read_mem(EpId::new(0), 100, 4).await.unwrap();
            app.write_mem(EpId::new(0), 200, &[9, 8]).await.unwrap();
            data
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(&mem.borrow()[200..202], &[9, 8]);
    }

    #[test]
    fn memory_endpoint_enforces_permissions_and_bounds() {
        let (sim, sys) = setup(3);
        sys.add_memory(PeId::new(2), MemKind::Dram, 4096);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(
                PeId::new(1),
                EpId::new(0),
                EpConfig::Memory {
                    pe: PeId::new(2),
                    offset: 1024,
                    len: 512,
                    perm: Perm::R,
                },
            )
            .unwrap();
        let app = sys.dtu(PeId::new(1));
        let h = sim.spawn("app", async move {
            let write_err = app
                .write_mem(EpId::new(0), 0, &[1])
                .await
                .unwrap_err()
                .code();
            let bounds_err = app
                .read_mem(EpId::new(0), 500, 100)
                .await
                .unwrap_err()
                .code();
            let ok = app.read_mem(EpId::new(0), 0, 512).await.is_ok();
            (write_err, bounds_err, ok)
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), (Code::NoPerm, Code::InvArgs, true));
    }

    #[test]
    fn memory_region_window_is_offset_relative() {
        let (sim, sys) = setup(3);
        let mem = sys.add_memory(PeId::new(2), MemKind::Dram, 4096);
        mem.borrow_mut()[2048] = 0x5a;
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(
                PeId::new(1),
                EpId::new(0),
                EpConfig::Memory {
                    pe: PeId::new(2),
                    offset: 2048,
                    len: 1024,
                    perm: Perm::R,
                },
            )
            .unwrap();
        let app = sys.dtu(PeId::new(1));
        let h = sim.spawn("app", async move {
            app.read_mem(EpId::new(0), 0, 1).await.unwrap()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), vec![0x5a]);
    }

    #[test]
    fn rdma_past_the_backing_memory_fails_instead_of_panicking() {
        // The region [4000, 4512) lies partly beyond the 4 KiB DRAM.
        let (sim, sys) = setup(3);
        let mem = sys.add_memory(PeId::new(2), MemKind::Dram, 4096);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), mem_cfg(2, 4000, 512, Perm::RW))
            .unwrap();
        let app = sys.dtu(PeId::new(1));
        let h = sim.spawn("app", async move {
            let read = app.read_mem(EpId::new(0), 0, 200).await.unwrap_err();
            let write = app.write_mem(EpId::new(0), 0, &[7; 200]).await.unwrap_err();
            let inside = app.read_mem(EpId::new(0), 0, 96).await.is_ok();
            (read.code(), write.code(), inside)
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), (Code::InvArgs, Code::InvArgs, true));
        assert!(mem.borrow()[4000..].iter().all(|&b| b == 0));
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let (sim, sys) = setup(3);
        sys.add_memory(PeId::new(2), MemKind::Dram, 1 << 22);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(
                PeId::new(1),
                EpId::new(0),
                EpConfig::Memory {
                    pe: PeId::new(2),
                    offset: 0,
                    len: 1 << 22,
                    perm: Perm::RW,
                },
            )
            .unwrap();
        let app = sys.dtu(PeId::new(1));
        let sim2 = sim.clone();
        let h = sim.spawn("app", async move {
            let t0 = sim2.now();
            app.read_mem(EpId::new(0), 0, 4096).await.unwrap();
            let small = sim2.now() - t0;
            let t1 = sim2.now();
            app.read_mem(EpId::new(0), 0, 1 << 20).await.unwrap();
            let large = sim2.now() - t1;
            (small, large)
        });
        sim.run();
        let (small, large) = h.try_take().unwrap();
        // 4 KiB at 8 B/cycle ~ 512 cycles (+latency); 1 MiB ~ 131k cycles.
        assert!(small.as_u64() > 512 && small.as_u64() < 700, "{small:?}");
        assert!(
            large.as_u64() > 131_000 && large.as_u64() < 132_000,
            "{large:?}"
        );
    }

    #[test]
    fn messages_from_one_sender_arrive_in_order() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(8, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, None))
            .unwrap();
        let sender = sys.dtu(PeId::new(1));
        let receiver = sys.dtu(PeId::new(2));
        sim.spawn("send", async move {
            for i in 0..5u8 {
                sender.send(EpId::new(0), &[i], None).await.unwrap();
            }
        });
        let h = sim.spawn("recv", async move {
            let mut got = Vec::new();
            for _ in 0..5 {
                let m = receiver.recv(EpId::new(0)).await.unwrap();
                got.push(m.payload[0]);
                receiver.ack(EpId::new(0)).unwrap();
            }
            got
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn receive_from_multiple_senders() {
        let (sim, sys) = setup(4);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(3), EpId::new(0), recv_cfg(8, false))
            .unwrap();
        for pe in [1u32, 2] {
            kernel
                .configure(
                    PeId::new(pe),
                    EpId::new(0),
                    send_cfg(3, 0, pe as Label, Some(4)),
                )
                .unwrap();
            let sender = sys.dtu(PeId::new(pe));
            sim.spawn(format!("send{pe}"), async move {
                sender.send(EpId::new(0), b"hi", None).await.unwrap();
            });
        }
        let receiver = sys.dtu(PeId::new(3));
        let h = sim.spawn("recv", async move {
            let mut labels = Vec::new();
            for _ in 0..2 {
                let m = receiver.recv(EpId::new(0)).await.unwrap();
                labels.push(m.header.label);
                receiver.ack(EpId::new(0)).unwrap();
            }
            labels.sort_unstable();
            labels
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), vec![1, 2]);
    }

    // ------------------------------------------------------------------
    // Fault-plane behavior
    // ------------------------------------------------------------------

    use m3_fault::{CycleWindow, FaultPlan, FaultPlane};

    fn arm(sys: &DtuSystem, plan: FaultPlan) -> Rc<FaultPlane> {
        let plane = Rc::new(FaultPlane::new(plan));
        sys.set_faults(plane.clone());
        plane
    }

    #[test]
    fn injected_drop_refunds_credit_and_suppresses_delivery() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(4, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, Some(2)))
            .unwrap();
        arm(
            &sys,
            FaultPlan::new().drop_msgs(
                PeId::new(1),
                PeId::new(2),
                CycleWindow::new(Cycles::ZERO, Cycles::new(1_000_000)),
                1,
            ),
        );
        let sender = sys.dtu(PeId::new(1));
        let receiver = sys.dtu(PeId::new(2));
        let stats = sim.stats();
        let sim2 = sim.clone();
        let h = sim.spawn("sender", async move {
            sender.send(EpId::new(0), b"a", None).await.unwrap(); // dropped in the NoC
            sender.send(EpId::new(0), b"b", None).await.unwrap(); // budget spent: delivered
            sim2.sleep(Cycles::new(10_000)).await;
            sender.credits(EpId::new(0))
        });
        sim.run();
        // One message arrived, one vanished; the vanished one's credit came
        // back, the delivered one's stays consumed (no reply ever refills it).
        assert_eq!(stats.get("dtu.msgs_delivered"), 1);
        assert_eq!(h.try_take().unwrap(), Some(1));
        assert!(receiver.has_message(EpId::new(0)));
    }

    #[test]
    fn duplicated_message_drops_do_not_double_refund() {
        // Regression (PR 2 audit): under an injected duplicate, only the
        // first copy carries the credit pointer. If both copies are dropped
        // at a crashed destination, exactly one refund must fire.
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(4, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, Some(3)))
            .unwrap();
        arm(
            &sys,
            FaultPlan::new()
                .duplicate_msgs(
                    PeId::new(1),
                    PeId::new(2),
                    CycleWindow::new(Cycles::new(2_000), Cycles::new(1_000_000)),
                    1,
                )
                .crash_pe(PeId::new(2), Cycles::new(1_000)),
        );
        let sender = sys.dtu(PeId::new(1));
        let sim2 = sim.clone();
        let h = sim.spawn("sender", async move {
            // Clean send before the crash: consumes one credit for good.
            sender.send(EpId::new(0), b"a", None).await.unwrap();
            sim2.sleep(Cycles::new(2_000)).await;
            // Duplicated towards the now-crashed PE: both copies vanish.
            sender.send(EpId::new(0), b"b", None).await.unwrap();
            sim2.sleep(Cycles::new(10_000)).await;
            sender.credits(EpId::new(0))
        });
        sim.run();
        // 3 - 1 (clean, delivered) - 1 (duplicated, dropped) + 1 refund = 2.
        // A double refund would read 3 here.
        assert_eq!(h.try_take().unwrap(), Some(2));
    }

    #[test]
    fn duplicated_message_arrives_twice() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(4, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, None))
            .unwrap();
        arm(
            &sys,
            FaultPlan::new().duplicate_msgs(
                PeId::new(1),
                PeId::new(2),
                CycleWindow::new(Cycles::ZERO, Cycles::new(1_000_000)),
                1,
            ),
        );
        let sender = sys.dtu(PeId::new(1));
        let stats = sim.stats();
        sim.spawn("sender", async move {
            sender.send(EpId::new(0), b"dup", None).await.unwrap();
        });
        sim.run();
        assert_eq!(stats.get("dtu.msgs_delivered"), 2);
    }

    #[test]
    fn corrupted_payload_arrives_bit_flipped() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(4, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, None))
            .unwrap();
        arm(
            &sys,
            FaultPlan::new().corrupt_msgs(
                PeId::new(1),
                PeId::new(2),
                CycleWindow::new(Cycles::ZERO, Cycles::new(1_000_000)),
                1,
            ),
        );
        let sender = sys.dtu(PeId::new(1));
        let receiver = sys.dtu(PeId::new(2));
        sim.spawn("sender", async move {
            sender
                .send(EpId::new(0), &[0x00, 0xff, 0x5a], None)
                .await
                .unwrap();
        });
        let h = sim.spawn("recv", async move {
            let m = receiver.recv(EpId::new(0)).await.unwrap();
            m.payload.to_vec()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), vec![0xff, 0x00, 0xa5]);
    }

    #[test]
    fn stalled_pe_defers_send_until_window_closes() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(4, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, None))
            .unwrap();
        arm(
            &sys,
            FaultPlan::new().stall_pe(
                PeId::new(1),
                CycleWindow::new(Cycles::ZERO, Cycles::new(5_000)),
            ),
        );
        let sender = sys.dtu(PeId::new(1));
        let sim2 = sim.clone();
        let h = sim.spawn("sender", async move {
            sender.send(EpId::new(0), b"late", None).await.unwrap();
            sim2.now()
        });
        sim.run();
        assert!(h.try_take().unwrap() >= Cycles::new(5_000));
    }

    #[test]
    fn crashed_pe_fails_all_commands_with_unreachable() {
        let (sim, sys) = setup(3);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(2), EpId::new(0), recv_cfg(4, false))
            .unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), send_cfg(2, 0, 0, None))
            .unwrap();
        arm(
            &sys,
            FaultPlan::new().crash_pe(PeId::new(1), Cycles::new(100)),
        );
        let sender = sys.dtu(PeId::new(1));
        let sim2 = sim.clone();
        let h = sim.spawn("sender", async move {
            sim2.sleep(Cycles::new(200)).await;
            let send_err = sender
                .send(EpId::new(0), b"x", None)
                .await
                .unwrap_err()
                .code();
            let recv_err = sender
                .recv_timeout(EpId::new(0), Cycles::new(1_000))
                .await
                .unwrap_err()
                .code();
            (send_err, recv_err)
        });
        sim.run();
        assert_eq!(
            h.try_take().unwrap(),
            (Code::Unreachable, Code::Unreachable)
        );
    }

    // ------------------------------------------------------------------
    // Error order and cost of every command
    // ------------------------------------------------------------------

    /// A DTU command as the error-order table issues it from PE1.
    #[derive(Clone, Copy, Debug)]
    enum Cmd {
        Send {
            ep: u32,
            len: usize,
        },
        /// A reply to a message that carries no reply info.
        ReplyUnreplyable,
        Read {
            offset: u64,
            len: usize,
        },
        Write {
            offset: u64,
            len: usize,
        },
        Fetch,
        Ack,
    }

    /// One row: PE1's EP 0 holds `ep0`, the `crashed` PEs are dead from
    /// cycle 0, and `cmd` must fail with `code` with the clock at `at` on
    /// return, the DTU counters having recorded `rdma_bytes` of transfer.
    struct Row {
        cmd: Cmd,
        ep0: EpConfig,
        crashed: &'static [u32],
        code: Code,
        at: u64,
        rdma_bytes: u64,
    }

    fn mem_cfg(pe: u32, offset: u64, len: u64, perm: Perm) -> EpConfig {
        EpConfig::Memory {
            pe: PeId::new(pe),
            offset,
            len,
            perm,
        }
    }

    fn run_row(row: &Row) -> (Code, Cycles, Sim) {
        let (sim, sys) = setup(3);
        sim.enable_trace();
        sys.add_memory(PeId::new(2), MemKind::Dram, 4096);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), row.ep0.clone())
            .unwrap();
        if !row.crashed.is_empty() {
            let plan = row.crashed.iter().fold(FaultPlan::new(), |plan, &pe| {
                plan.crash_pe(PeId::new(pe), Cycles::ZERO)
            });
            arm(&sys, plan);
        }
        let dtu = sys.dtu(PeId::new(1));
        let clock = sim.clone();
        let cmd = row.cmd;
        let h = sim.spawn("cmd", async move {
            let res = match cmd {
                Cmd::Send { ep, len } => dtu.send(EpId::new(ep), &vec![0; len], None).await,
                Cmd::ReplyUnreplyable => {
                    let msg = Message {
                        header: Header {
                            label: 0,
                            len: 0,
                            sender_pe: PeId::new(2),
                            sender_ep: EpId::new(0),
                            reply: None,
                        },
                        payload: crate::Payload::empty(),
                    };
                    dtu.reply(&msg, b"x").await
                }
                Cmd::Read { offset, len } => {
                    dtu.read_mem(EpId::new(0), offset, len).await.map(drop)
                }
                Cmd::Write { offset, len } => {
                    dtu.write_mem(EpId::new(0), offset, &vec![0; len]).await
                }
                Cmd::Fetch => dtu.fetch(EpId::new(0)).map(drop),
                Cmd::Ack => dtu.ack(EpId::new(0)),
            };
            (res.unwrap_err().code(), clock.now())
        });
        sim.run();
        let (code, at) = h.try_take().unwrap();
        (code, at, sim)
    }

    #[test]
    fn every_command_fails_in_its_pinned_order_at_its_pinned_cost() {
        let issue = timing::CMD_ISSUE.as_u64();
        let crashed_self: &[u32] = &[1];
        let rows = [
            // send: range check, fault gate, CMD_ISSUE, then decode.
            Row {
                cmd: Cmd::Send {
                    ep: EP_COUNT as u32,
                    len: 1,
                },
                ep0: EpConfig::Invalid,
                crashed: &[],
                code: Code::InvEp,
                at: 0,
                rdma_bytes: 0,
            },
            Row {
                cmd: Cmd::Send { ep: 0, len: 1 },
                ep0: recv_cfg(4, false),
                crashed: crashed_self,
                code: Code::Unreachable,
                at: 0,
                rdma_bytes: 0,
            },
            Row {
                cmd: Cmd::Send { ep: 0, len: 1 },
                ep0: recv_cfg(4, false),
                crashed: &[],
                code: Code::InvEp,
                at: issue,
                rdma_bytes: 0,
            },
            Row {
                cmd: Cmd::Send { ep: 0, len: 129 },
                ep0: send_cfg(2, 0, 0, None),
                crashed: &[],
                code: Code::InvArgs,
                at: issue,
                rdma_bytes: 0,
            },
            Row {
                cmd: Cmd::Send { ep: 0, len: 1 },
                ep0: send_cfg(2, 0, 0, Some(0)),
                crashed: &[],
                code: Code::NoCredits,
                at: issue,
                rdma_bytes: 0,
            },
            // reply: the reply-info check precedes the fault gate.
            Row {
                cmd: Cmd::ReplyUnreplyable,
                ep0: EpConfig::Invalid,
                crashed: crashed_self,
                code: Code::NoPerm,
                at: 0,
                rdma_bytes: 0,
            },
            // RDMA: the endpoint check precedes the fault gate...
            Row {
                cmd: Cmd::Read { offset: 0, len: 1 },
                ep0: recv_cfg(4, false),
                crashed: crashed_self,
                code: Code::InvEp,
                at: 0,
                rdma_bytes: 0,
            },
            Row {
                cmd: Cmd::Write { offset: 0, len: 1 },
                ep0: mem_cfg(2, 0, 512, Perm::R),
                crashed: crashed_self,
                code: Code::NoPerm,
                at: 0,
                rdma_bytes: 0,
            },
            Row {
                cmd: Cmd::Read {
                    offset: u64::MAX,
                    len: 1,
                },
                ep0: mem_cfg(2, 0, 512, Perm::R),
                crashed: crashed_self,
                code: Code::InvArgs,
                at: 0,
                rdma_bytes: 0,
            },
            Row {
                cmd: Cmd::Read {
                    offset: 500,
                    len: 100,
                },
                ep0: mem_cfg(2, 0, 512, Perm::R),
                crashed: crashed_self,
                code: Code::InvArgs,
                at: 0,
                rdma_bytes: 0,
            },
            // ...a dead target fails before CMD_ISSUE...
            Row {
                cmd: Cmd::Read { offset: 0, len: 64 },
                ep0: mem_cfg(2, 0, 512, Perm::RW),
                crashed: &[2],
                code: Code::Unreachable,
                at: 0,
                rdma_bytes: 0,
            },
            Row {
                cmd: Cmd::Write { offset: 0, len: 64 },
                ep0: mem_cfg(2, 0, 512, Perm::RW),
                crashed: &[2],
                code: Code::Unreachable,
                at: 0,
                rdma_bytes: 0,
            },
            // ...and a node without memory only after the whole transfer,
            // which the counters record.
            Row {
                cmd: Cmd::Read { offset: 0, len: 64 },
                ep0: mem_cfg(0, 0, 512, Perm::RW),
                crashed: &[],
                code: Code::InvArgs,
                at: 28,
                rdma_bytes: 64,
            },
            Row {
                cmd: Cmd::Write { offset: 0, len: 64 },
                ep0: mem_cfg(0, 0, 512, Perm::RW),
                crashed: &[],
                code: Code::InvArgs,
                at: 21,
                rdma_bytes: 64,
            },
            // fetch/ack: register accesses on a non-receive EP.
            Row {
                cmd: Cmd::Fetch,
                ep0: send_cfg(2, 0, 0, None),
                crashed: &[],
                code: Code::InvEp,
                at: 0,
                rdma_bytes: 0,
            },
            Row {
                cmd: Cmd::Ack,
                ep0: send_cfg(2, 0, 0, None),
                crashed: &[],
                code: Code::InvEp,
                at: 0,
                rdma_bytes: 0,
            },
        ];
        for row in &rows {
            let (code, at, sim) = run_row(row);
            let what = format!(
                "{:?} with EP0 {:?}, crashed {:?}",
                row.cmd, row.ep0, row.crashed
            );
            assert_eq!(code, row.code, "{what}");
            assert_eq!(at, Cycles::new(row.at), "{what}");
            let stats = sim.stats();
            let moved = stats.get("dtu.mem_read_bytes") + stats.get("dtu.mem_write_bytes");
            assert_eq!(moved, row.rdma_bytes, "{what}");
            assert_eq!(
                stats.get("dtu.xfer_cycles") > 0,
                row.rdma_bytes > 0,
                "{what}"
            );
            let stalls = u64::from(row.code == Code::NoCredits);
            let metrics = sim.metrics();
            assert_eq!(
                metrics.get(PeId::new(1), m3_sim::keys::CREDIT_STALLS),
                stalls,
                "{what}"
            );
            let events = sim
                .trace()
                .iter()
                .filter(|e| e.kind.tag() == "credit_stall")
                .count();
            assert_eq!(events as u64, stalls, "{what}");
        }
    }

    #[test]
    fn recv_timeout_times_out_without_traffic() {
        let (sim, sys) = setup(2);
        let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
        kernel
            .configure(PeId::new(1), EpId::new(0), recv_cfg(4, false))
            .unwrap();
        let receiver = sys.dtu(PeId::new(1));
        let h = sim.spawn("recv", async move {
            receiver
                .recv_timeout(EpId::new(0), Cycles::new(500))
                .await
                .unwrap_err()
                .code()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Code::Timeout);
        assert_eq!(sim.now(), Cycles::new(500));
    }
}
