//! Demand paging (m3-vm, DESIGN.md §5k): page-fault and unmap syscalls,
//! eviction with write-back, and swap-in.

use std::rc::Rc;

use m3_base::error::{Code, Error, Result};
use m3_base::marshal::OStream;
use m3_base::{Cycles, PeId, Perm, SelId, VpeId};
use m3_sim::{Component, Event, EventKind};
use m3_vm::{AddrSpaceObj, FaultKind, SwapRegion};

use crate::cap::{Capability, KObject, MGateObj};

use super::{Kernel, PAGE_SIZE};

impl Kernel {
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
                self.revoke_charged(caller, sel).await;
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
        self.sim
            .metrics()
            .incr_handle(pe, self.counters.page_faults);
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
    pub(super) async fn sys_unmap(&self, caller: VpeId, virt: u64) -> Result<Vec<u8>> {
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
}
