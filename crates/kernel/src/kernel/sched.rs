//! VPE time-multiplexing (m3-sched, DESIGN.md §5f): overcommit
//! placement, the park/acquire/yield protocol, and the context-switch
//! engine that moves a VPE's state through the DTU.

use m3_base::cfg::SPM_DATA_SIZE;
use m3_base::error::{Code, Error, Result};
use m3_base::{EpId, PeId, VpeId};
use m3_sched::Scheduler;
use m3_sim::{Component, Event, EventKind, Notify, TaskName};

use super::Kernel;

impl Kernel {
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
        enum Act {
            Return,
            Switch(VpeId),
            Restore,
            WaitOnce,
            Wait(Notify),
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
                    // VPE runnable again. Check at once whether it may
                    // claim a vacant PE: nothing else would ring for it on
                    // a PE whose resident has exited.
                    if self.ktok.saved_has_message(pe, u64::from(vpe.raw()), ep)
                        && sched.unpark(vpe)
                    {
                        continue;
                    }
                    Act::Wait(Self::doorbell(&sched, vpe)?)
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
                Act::Wait(bell) => bell.wait().await,
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
            Wait(Notify),
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
                    Act::Wait(Self::doorbell(&sched, vpe)?)
                };
                (pe, act)
            };
            match act {
                Act::Ready => return Ok(()),
                Act::Restore => self.spawn_switch(pe, None, vpe),
                Act::Wait(bell) => bell.wait().await,
            }
        }
    }

    /// The doorbell a managed `vpe` waits on while it does not hold its PE.
    fn doorbell(sched: &Scheduler, vpe: VpeId) -> Result<Notify> {
        sched
            .doorbell(vpe)
            .ok_or_else(|| Error::new(Code::VpeGone).with_msg(format!("{vpe} has no doorbell")))
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

    /// Records the slice of `pe`'s resident, which ends now.
    pub(super) fn end_slice(&self, pe: PeId) {
        if let Some(t0) = self.resumed_at.borrow_mut().remove(&pe) {
            let cycles = (self.sim.now() - t0).as_u64();
            self.sim
                .metrics()
                .observe(pe, m3_sim::keys::SLICE_CYCLES, cycles);
        }
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
            self.end_slice(pe);
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
}
