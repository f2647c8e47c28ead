//! VPE time-multiplexing (m3-sched, DESIGN.md §5f): the park/acquire/
//! yield protocol, which carries out the decisions of the state's
//! transitions, and the context-switch engine that moves a VPE's state
//! through the DTU.

use m3_base::cfg::SPM_DATA_SIZE;
use m3_base::error::Result;
use m3_base::{EpId, PeId, VpeId};
use m3_sim::{keys, Component, Event, EventKind, TaskName};

use super::state::Act;
use super::Kernel;

impl Kernel {
    /// Whether `vpe` is under scheduler control (time-multiplexed).
    pub fn sched_manages(&self, vpe: VpeId) -> bool {
        self.state.multiplexed(vpe)
    }

    /// Number of context switches performed so far on `pe` (diagnostics).
    pub fn ctx_switches(&self, pe: PeId) -> u64 {
        self.sim.metrics().get(pe, keys::CTX_SWITCHES)
    }

    /// Parks `vpe` until a message can be fetched from its endpoint `ep`,
    /// running another VPE of the PE in the meantime (the blocked-receive
    /// funnel of the cooperative multiplexing model).
    ///
    /// Returns when `vpe` is resident with a message pending at `ep`, or —
    /// mirroring one iteration of the [`m3_dtu::Dtu::recv`] poll loop —
    /// after a single arrival wake while it stays resident, so the caller
    /// re-polls with exactly the cycle pattern of the unmanaged path.
    /// Unmanaged VPEs return immediately.
    ///
    /// While switched out, `vpe` waits on its own doorbell, which rings for
    /// deposits into its save area and for every schedule transition of
    /// its PE: the only events after which its next check can act.
    ///
    /// # Errors
    ///
    /// Propagates DTU errors from the save/restore transfers.
    pub async fn sched_wait_msg(&self, vpe: VpeId, ep: EpId) -> Result<()> {
        let act = self.state.hold(&self.ktok, vpe, Some(ep))?;
        self.drive(act, vpe, Some(ep)).await
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
        let act = self.state.interrupt(&self.ktok, vpe)?;
        self.drive(act, vpe, None).await
    }

    /// Blocks until `vpe` holds its PE, restoring it if the PE is vacant
    /// (used before a freshly started VPE runs, and after a yield).
    /// Unmanaged VPEs return immediately.
    ///
    /// # Errors
    ///
    /// Propagates DTU errors from the restore transfer.
    pub async fn sched_acquire(&self, vpe: VpeId) -> Result<()> {
        let act = self.state.hold(&self.ktok, vpe, None)?;
        self.drive(act, vpe, None).await
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
        self.drive(self.state.yield_slice(vpe), vpe, None).await
    }

    /// Carries out the scheduling decision `act` for `vpe`, and each one
    /// [`KState::hold`](super::state::KState::hold) takes after it for `vpe`
    /// and `recv`, until one is done.
    async fn drive(&self, mut act: Act, vpe: VpeId, recv: Option<EpId>) -> Result<()> {
        loop {
            match act {
                Act::Done => return Ok(()),
                Act::Switch(pe, from, to) => self.spawn_switch(pe, from, to),
                Act::WaitOnce(arrival) => {
                    arrival.wait().await;
                    return Ok(());
                }
                Act::Wait(bell) => bell.wait().await,
            }
            act = self.state.hold(&self.ktok, vpe, recv)?;
        }
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

    /// Records the slice of `pe`'s resident that a transition ended.
    pub(super) fn record_slice(&self, pe: PeId, slice: Option<u64>) {
        if let Some(cycles) = slice {
            let metrics = self.sim.metrics();
            metrics.observe(pe, keys::SLICE_CYCLES, cycles);
        }
    }

    /// Moves a context's `regs` bytes of DTU state and its SPM data from
    /// `src` to `dst` through the DTU, at 8 B/cycle (§5.4): with
    /// dirty-tracked switches the `dirty` pages the DTU dirtied since the
    /// last save, else the whole data image (what the golden pins were
    /// recorded with; the two agree when every page is dirty). Returns the
    /// bytes moved.
    async fn move_context(&self, src: PeId, dst: PeId, regs: u64, dirty: u32) -> u64 {
        let data = if self.cfg.dirty_switches {
            u64::from(dirty) * m3_vm::PAGE_SIZE
        } else {
            SPM_DATA_SIZE as u64
        };
        let noc = self.dtu.system().noc();
        let t = noc.schedule(self.sim.now(), src, dst, regs + data);
        self.sim.sleep_until(t.completes_at).await;
        regs + data
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
        let mut bytes = 0u64;
        if from.is_some() {
            let (saved, dirty) = self.ktok.save_state(pe)?;
            if self.cfg.dirty_switches {
                let metrics = self.sim.metrics();
                metrics.add(pe, keys::DIRTY_PAGES_SAVED, u64::from(dirty));
            }
            bytes += self.move_context(pe, dram, saved, dirty).await;
            self.sim.sleep(m3_dtu::timing::DRAM_LATENCY).await;
            self.sim.sleep(m3_sched::costs::CTX_SAVE_FIXED).await;
            self.record_slice(pe, self.state.end_slice(pe, self.sim.now()));
        }
        // A target that died mid-switch has no save area left: the PE
        // stays vacant for the next claimant.
        let Ok((restored, dirty)) = self.ktok.restore_state(pe, u64::from(to.raw())) else {
            self.state.abort_switch(pe, to);
            return Ok(());
        };
        // Restores mirror saves: only the pages the save-out moved come
        // back eagerly.
        bytes += self.move_context(dram, pe, restored, dirty).await;
        self.sim.sleep(m3_sched::costs::CTX_RESTORE_FIXED).await;
        let now = self.sim.now();
        let depth = self.state.finish_switch(pe, to, now) as u64;
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
        metrics.incr(pe, keys::CTX_SWITCHES);
        metrics.add(pe, keys::CTX_SWITCH_CYCLES, (now - started).as_u64());
        metrics.observe(pe, keys::RUN_QUEUE_DEPTH, depth);
        Ok(())
    }
}
