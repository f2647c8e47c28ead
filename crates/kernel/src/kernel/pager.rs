//! Demand paging (m3-vm, DESIGN.md §5k): page-fault and unmap syscalls,
//! eviction with write-back, and swap-in.

use m3_base::error::{Code, Error, Result};
use m3_base::marshal::OStream;
use m3_base::{PeId, Perm, SelId, VpeId};
use m3_sim::{Component, EventKind};
use m3_vm::FaultKind;

use super::state::Mapped;
use super::{Kernel, PAGE_SIZE};

impl Kernel {
    /// Copies `len` bytes between two offsets of the DRAM store — the
    /// page-move primitive of the pager (swap-in, write-back). Pure data
    /// movement, page by page in the host store; the caller charges the
    /// time via [`Kernel::charge_page_move`].
    fn dram_copy(&self, src: u64, dst: u64, len: usize) {
        if let Some(dram) = self.platform.dtu_system().memory(self.platform.dram_pe()) {
            dram.copy_within(src as usize, dst as usize, len);
        }
    }

    /// Charges one page-sized pager copy: command setup, the page at the
    /// DTU's streaming rate, and one DRAM access.
    async fn charge_page_move(&self) {
        self.sim.sleep(m3_vm::costs::PAGE_COPY_SETUP).await;
        self.sim.sleep(m3_vm::costs::PAGE_COPY_XFER).await;
        self.sim.sleep(m3_dtu::timing::DRAM_LATENCY).await;
    }

    /// Frees resident frames beyond the address space's bound, clean pages
    /// first (they already match their swap copy or were never written);
    /// a dirty victim is written back to the VPE's swap region before its
    /// frame is reused. The victim's frame capability is revoked so the
    /// faulting PE is cut off the frame at the NoC level before the frame
    /// backs someone else's page. `pe` is the caller's PE, looked up while
    /// it was alive: a caller that dies during a page move may be freed.
    async fn evict_if_needed(&self, caller: VpeId, pe: PeId) -> Result<()> {
        while let Some((plan, swap)) = self.state.next_eviction(caller)? {
            if let Some((_, addr)) = swap {
                self.dram_copy(plan.frame, addr, PAGE_SIZE as usize);
                self.charge_page_move().await;
                self.sim
                    .metrics()
                    .add(pe, m3_sim::keys::WRITEBACK_BYTES, PAGE_SIZE);
                self.trace(pe, Component::Vm, || EventKind::WriteBack {
                    virt: plan.page * PAGE_SIZE,
                    bytes: PAGE_SIZE,
                });
            }
            let slot = swap.map(|(slot, _)| slot);
            if let Some(sel) = self.state.complete_eviction(caller, plan.page, slot) {
                self.revoke_charged((caller, sel)).await;
            }
        }
        Ok(())
    }

    /// Serves a page fault (§7): walks the caller's kernel-owned page
    /// table and replies with a frame capability at `dst` — the resident
    /// frame, a zeroed frame on first touch, or a frame refilled from the
    /// VPE's swap region when the page had been evicted. The handed-out
    /// capability carries only the *faulted* access (intersected with the
    /// page's permissions), so the first write to a read-faulted page
    /// faults again and sets the kernel-side dirty bit.
    pub(super) async fn sys_page_fault(
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
        // Per-PE paging metrics go to the caller's PE, or to the kernel's
        // for a caller it no longer tracks.
        let pe = self.state.vpe(caller).map_or(self.pe, |v| v.borrow().pe);
        let limit = self.cfg.vm_resident_pages;
        let kind = self.state.classify_fault((caller, dst), page, limit)?;
        if kind != FaultKind::Resident {
            self.evict_if_needed(caller, pe).await?;
        }
        if let FaultKind::SwapIn(_) = kind {
            self.charge_page_move().await;
        }
        // The transition takes a fresh frame only now, with nothing left
        // to await: a caller that died during a page move takes none.
        match self.state.map_fault((caller, dst), page, access)? {
            Mapped::Resident(Some(old)) => {
                self.revoke_cap((caller, old));
            }
            Mapped::Resident(None) => {}
            Mapped::Fresh { frame, swapped } => {
                match swapped {
                    Some(addr) => {
                        self.dram_copy(addr, frame, PAGE_SIZE as usize);
                        self.trace(pe, Component::Vm, || EventKind::PageIn {
                            virt: page * PAGE_SIZE,
                            bytes: PAGE_SIZE,
                        });
                    }
                    // A first-touch frame is handed out zeroed (the frame
                    // may have been used before; like m3fs, zeroing happens
                    // off the application's critical path, §5.4).
                    None => {
                        let dram = self.platform.dram_pe();
                        if let Some(dram) = self.platform.dtu_system().memory(dram) {
                            dram.zero(frame as usize, PAGE_SIZE as usize);
                        }
                    }
                }
                self.sim
                    .metrics()
                    .incr_handle(pe, self.counters.page_faults);
                self.trace(pe, Component::Vm, || EventKind::PageFault {
                    virt: page * PAGE_SIZE,
                    write: access.contains(Perm::W),
                });
            }
        }
        let mut os = OStream::new();
        os.push_u64(page * PAGE_SIZE);
        Ok(os.into_bytes())
    }

    /// Removes a mapping: frees its frame (if resident) and swap slot (if
    /// any) and revokes the handed-out frame capability.
    pub(super) async fn sys_unmap(&self, caller: VpeId, virt: u64) -> Result<Vec<u8>> {
        self.sim.sleep(m3_vm::costs::FAULT_WALK).await;
        if let Some(sel) = self.state.unmap(caller, virt / PAGE_SIZE)? {
            self.revoke_cap((caller, sel));
        }
        Ok(Vec::new())
    }
}
