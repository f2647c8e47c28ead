//! The kernel's state and every transition over it. This module is the
//! only code that knows the state's layout: its fields and its `RefCell`
//! are private, and each read or write is a `&self` method that borrows
//! the state for its own duration only, so no handler holds a borrow
//! across an await. A transition takes ids, not objects looked up before
//! an await, and checks all its preconditions before its first write.
//! Handlers read as charge, transition, wait (DESIGN.md §5l).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use m3_base::cfg::SPM_DATA_SIZE;
use m3_base::error::{Code, Error, Result};
use m3_base::{EpId, PeId, Perm, SelId, VpeId};
use m3_dtu::{EpConfig, KernelToken};
use m3_platform::PeType;
use m3_sched::{Removal, Scheduler};
use m3_sim::Notify;
use m3_vm::{AddrSpaceObj, FaultKind, PageEntry, SwapRegion, VictimPlan};

use crate::cap::{
    CapRef, CapTable, Capability, DerivationTree, KObject, MGateObj, RGateObj, RemoteVpeObj,
};
use crate::mem::MemAlloc;
use crate::pemng::PeMng;
use crate::protocol::PeRequest;
use crate::service::{ServObj, ServiceRegistry};
use crate::vpe::{VpeObj, VpeState};

use super::{keps, PAGE_SIZE, RINGBUF_SPM_BUDGET};

/// The state of one kernel: capability tables and the derivation tree,
/// VPE records, endpoint activations, address spaces, and the PE, DRAM
/// and service allocators.
pub(super) struct KState(RefCell<State>);

struct State {
    tables: BTreeMap<VpeId, CapTable>,
    /// Ring-buffer bytes currently placed in each PE's SPM.
    ringbuf_bytes: BTreeMap<PeId, u64>,
    /// The capability `(vpe, sel)` whose activation currently occupies
    /// each endpoint `(target vpe, ep)`. When the libos multiplexer hands
    /// an endpoint to a receive gate, the previous capability loses its
    /// activation record, so revoking it later leaves the new gate alone.
    /// An entry whose capability was revoked finds nothing to update.
    ep_owners: BTreeMap<(VpeId, EpId), CapRef>,
    /// Per-VPE address spaces (kernel-owned page tables, bounded resident
    /// sets, swap regions), managed remotely by the kernel like the
    /// endpoints (§7).
    addr_spaces: BTreeMap<VpeId, AddrSpaceObj>,
    tree: DerivationTree,
    /// The record of every VPE that is alive or still named by a
    /// capability ([`VpeObj::names`]); [`KState::reap_vpe`] frees the rest.
    vpes: BTreeMap<VpeId, Rc<RefCell<VpeObj>>>,
    next_vpe: u32,
    pemng: PeMng,
    /// The DRAM range this kernel manages, on the node `dram`.
    mem: MemAlloc,
    dram: PeId,
    services: ServiceRegistry,
    /// PEs that are never multiplexed: boot-time roots (services, drivers)
    /// keep their PE exclusively even in overcommit mode.
    pinned: BTreeSet<PeId>,
}

/// A capability kind a lookup asks for: its name and how to pick it out.
pub(super) struct Kind<T>(&'static str, fn(&KObject) -> Option<T>);

/// A receive gate.
pub(super) const RGATE: Kind<Rc<RGateObj>> = Kind("rgate", |obj| match obj {
    KObject::RGate(g) => Some(g.clone()),
    _ => None,
});

/// A memory gate.
pub(super) const MGATE: Kind<Rc<MGateObj>> = Kind("mgate", |obj| match obj {
    KObject::MGate(m) => Some(m.clone()),
    _ => None,
});

/// A VPE, local or placed by a peer shard.
pub(super) const VPE: Kind<VpeCap> = Kind("vpe", |obj| match obj {
    KObject::Vpe(v) => Some(VpeCap::Local(v.clone())),
    KObject::RemoteVpe(r) => Some(VpeCap::Remote(**r)),
    _ => None,
});

/// What a VPE capability names.
pub(super) enum VpeCap {
    /// A VPE of this kernel.
    Local(Rc<RefCell<VpeObj>>),
    /// A VPE a peer shard placed (§7).
    Remote(RemoteVpeObj),
}

/// The outcome of [`KState::activate`].
pub(super) enum Activation {
    /// The endpoint, on this PE, is configured and recorded.
    Done(PeId),
    /// The send gate's receive gate is not activated: retry on this notify,
    /// which its activation or the send gate's revoke fires.
    Deferred(Notify),
}

/// What a revoke removed, for the kernel to apply right after.
pub(super) struct Revoked {
    /// Every removed capability with its address, parents first.
    pub(super) caps: Vec<(CapRef, Capability)>,
    /// The kernel endpoints of the services that died with them.
    pub(super) serv_eps: Vec<EpId>,
}

/// What [`KState::map_fault`] mapped.
pub(super) enum Mapped {
    /// A resident page, with the frame capability its new one replaces.
    Resident(Option<SelId>),
    /// A fresh frame, to fill from the swap slot at `swapped` or with zeros.
    Fresh { frame: u64, swapped: Option<u64> },
}

/// An eviction victim and, for a dirty one, its swap slot and address.
type Eviction = (VictimPlan, Option<(u64, u64)>);

/// The SPM bytes of `rg`'s ring buffer.
fn ring_bytes(rg: &RGateObj) -> u64 {
    rg.slots as u64 * rg.slot_size as u64
}

fn gone(vpe: VpeId) -> Error {
    Error::new(Code::VpeGone).with_msg(format!("{vpe} has no table"))
}

fn internal(what: &str) -> Error {
    Error::new(Code::Internal).with_msg(what.to_string())
}

/// Removes `page` from `aspace` and returns its frame and swap slot to
/// their allocators.
fn unmap_page(mem: &mut MemAlloc, aspace: &mut AddrSpaceObj, page: u64) -> Option<PageEntry> {
    let entry = aspace.unmap(page)?;
    if let Some(frame) = entry.frame {
        mem.free(frame, PAGE_SIZE);
    }
    if let (Some(slot), Some(swap)) = (entry.swap_slot, aspace.swap.as_mut()) {
        swap.free_slot(slot);
    }
    Some(entry)
}

impl State {
    fn obj(&self, (vpe, sel): CapRef) -> Result<KObject> {
        let table = self.tables.get(&vpe).ok_or_else(|| gone(vpe))?;
        Ok(table.get(sel)?.obj.clone())
    }

    fn get<T>(&self, cap: CapRef, Kind(name, pick): Kind<T>) -> Result<T> {
        let obj = self.obj(cap)?;
        pick(&obj).ok_or_else(|| {
            Error::new(Code::InvCap).with_msg(format!("expected {name}, found {}", obj.kind()))
        })
    }

    /// Mints `obj` into `(owner, sel)`: the one place a capability enters a
    /// table, the derivation tree (a root, or a child of `parent`) and, for
    /// a VPE capability, [`VpeObj::names`]; [`KState::revoke`] is the one
    /// place it leaves them. Refuses a taken selector ([`Code::Exists`])
    /// or a gone owner ([`Code::VpeGone`]) before touching anything.
    fn mint(&mut self, (owner, sel): CapRef, obj: KObject, parent: Option<CapRef>) -> Result<()> {
        let named = match &obj {
            KObject::Vpe(v) => Some(v.clone()),
            _ => None,
        };
        let table = self.tables.get_mut(&owner).ok_or_else(|| gone(owner))?;
        table.insert(sel, Capability::new(obj))?;
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
    /// in `owner`'s table: the check a transition makes before it takes a
    /// PE, DRAM, a name or an endpoint that a refused `mint` would strand.
    fn sels_free(&self, owner: VpeId, sels: &[SelId]) -> Result<()> {
        let table = self.tables.get(&owner).ok_or_else(|| gone(owner))?;
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
        (caller, dst): CapRef,
        mem_dst: SelId,
        pe: PeId,
        vpe: impl FnOnce(&mut State, CapRef) -> Result<T>,
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

    /// The least-loaded multiplexed PE of `sched` matching the resolved
    /// request `want`. `loads()` iterates PEs in ascending id order, so
    /// ties go to the lowest PE id, the rule the multikernel uses to pick
    /// a peer shard. Pinned PEs and accelerators never multiplex.
    fn least_loaded(&self, sched: &Scheduler, want: PeRequest) -> Result<PeId> {
        let ty = match want {
            PeRequest::Type(ty) => Some(ty),
            PeRequest::Any | PeRequest::Same => None,
        };
        m3_sched::least_loaded(sched.loads().into_iter().filter(|(pe, _)| {
            let desc = self.pemng.desc(*pe);
            !self.pinned.contains(pe) && !desc.is_fft_accel() && ty.is_none_or(|ty| desc.ty == ty)
        }))
        .ok_or_else(|| Error::new(Code::NoFreePe).with_msg(format!("request {want:?}")))
    }
}

impl KState {
    /// The state of a kernel handing out `pemng`'s PEs and `mem`'s DRAM.
    pub(super) fn new(pemng: PeMng, mem: MemAlloc, dram: PeId) -> KState {
        KState(RefCell::new(State {
            tables: BTreeMap::new(),
            ringbuf_bytes: BTreeMap::new(),
            ep_owners: BTreeMap::new(),
            addr_spaces: BTreeMap::new(),
            tree: DerivationTree::new(),
            vpes: BTreeMap::new(),
            next_vpe: 1,
            pemng,
            mem,
            dram,
            services: ServiceRegistry::new(),
            pinned: BTreeSet::new(),
        }))
    }

    /// The object of capability `cap`.
    pub(super) fn obj(&self, cap: CapRef) -> Result<KObject> {
        self.0.borrow().obj(cap)
    }

    /// The object of `cap` as `kind` picks it out; another kind is `InvCap`.
    pub(super) fn get<T>(&self, cap: CapRef, kind: Kind<T>) -> Result<T> {
        self.0.borrow().get(cap, kind)
    }

    /// The occupied selectors of `vpe`'s table; none once it is gone.
    pub(super) fn selectors(&self, vpe: VpeId) -> Vec<SelId> {
        let st = self.0.borrow();
        st.tables
            .get(&vpe)
            .map(CapTable::selectors)
            .unwrap_or_default()
    }

    /// The record of VPE `vpe`, while the kernel keeps it.
    pub(super) fn vpe(&self, vpe: VpeId) -> Option<Rc<RefCell<VpeObj>>> {
        self.0.borrow().vpes.get(&vpe).cloned()
    }

    /// The VPEs whose record satisfies `pred`.
    pub(super) fn vpes_where(&self, pred: impl Fn(&VpeObj) -> bool) -> Vec<VpeId> {
        let st = self.0.borrow();
        let hits = st.vpes.iter().filter(|(_, v)| pred(&v.borrow()));
        hits.map(|(id, _)| *id).collect()
    }

    /// The capabilities whose object satisfies `pred`.
    pub(super) fn caps_where(&self, pred: impl Fn(&KObject) -> bool) -> Vec<CapRef> {
        let st = self.0.borrow();
        let mut hits = Vec::new();
        for (vpe, table) in &st.tables {
            for sel in table.selectors() {
                if table.get(sel).is_ok_and(|cap| pred(&cap.obj)) {
                    hits.push((*vpe, sel));
                }
            }
        }
        hits
    }

    /// `req` as `caller` means it: `Same` becomes the type of `caller`'s PE.
    pub(super) fn resolve(&self, caller: VpeId, req: PeRequest) -> Result<PeRequest> {
        let st = self.0.borrow();
        let Some(vpe) = st.vpes.get(&caller) else {
            return Err(Error::new(Code::VpeGone));
        };
        Ok(match req {
            PeRequest::Same => PeRequest::Type(st.pemng.desc(vpe.borrow().pe).ty),
            other => other,
        })
    }

    /// Whether `pe` may be multiplexed: accelerators and pinned PEs may not.
    pub(super) fn multiplexable(&self, pe: PeId) -> bool {
        let st = self.0.borrow();
        !st.pemng.desc(pe).is_fft_accel() && !st.pinned.contains(&pe)
    }

    /// The service registered as `name`.
    pub(super) fn find_service(&self, name: &str) -> Result<Rc<ServObj>> {
        self.0.borrow().services.find(name)
    }

    /// Whether `serv` is still registered: its owner's capability lives.
    pub(super) fn is_registered(&self, serv: &Rc<ServObj>) -> bool {
        self.0.borrow().services.is_registered(serv)
    }

    /// Number of currently free PEs.
    pub(super) fn free_pes(&self) -> usize {
        self.0.borrow().pemng.free_count()
    }

    /// Free DRAM bytes.
    pub(super) fn free_mem(&self) -> u64 {
        self.0.borrow().mem.free_bytes()
    }

    /// Mints `obj` into `cap`, a root or a child of `parent` ([`State::mint`]).
    pub(super) fn mint(&self, cap: CapRef, obj: KObject, parent: Option<CapRef>) -> Result<()> {
        self.0.borrow_mut().mint(cap, obj, parent)
    }

    /// Copies capability `src` to `dst`, as its child. Receive gates cannot
    /// be delegated (§4.5.4); a copy of a memory capability does not own
    /// the region: only revoking the root returns it to the allocator.
    pub(super) fn copy(&self, src: CapRef, dst: CapRef) -> Result<()> {
        let mut st = self.0.borrow_mut();
        let obj = match st.obj(src)? {
            KObject::RGate(_) => {
                return Err(
                    Error::new(Code::NotSup).with_msg("receive capabilities are not delegable")
                )
            }
            KObject::MGate(mg) if mg.owned => KObject::MGate(Rc::new(MGateObj {
                owned: false,
                ..(*mg).clone()
            })),
            other => other,
        };
        st.mint(dst, obj, Some(src))
    }

    /// Allocates a DRAM region of `size` bytes `cap` owns; returns its offset.
    pub(super) fn alloc_mem(&self, cap: CapRef, size: u64, perm: Perm) -> Result<u64> {
        let mut st = self.0.borrow_mut();
        st.sels_free(cap.0, &[cap.1])?;
        let offset = st.mem.alloc(size)?;
        let region = MGateObj {
            pe: st.dram,
            offset,
            size,
            perm,
            owned: true,
        };
        st.mint(cap, KObject::MGate(Rc::new(region)), None)?;
        Ok(offset)
    }

    /// Revokes `cap` and its subtree from the tables and the tree, with the
    /// ring buffers, services, owned regions and VPE names they held.
    pub(super) fn revoke(&self, cap: CapRef) -> Revoked {
        let mut st = self.0.borrow_mut();
        let st = &mut *st;
        let mut revoked = Revoked {
            caps: Vec::new(),
            serv_eps: Vec::new(),
        };
        for at in st.tree.revoke(cap) {
            let Some(cap) = st.tables.get_mut(&at.0).and_then(|t| t.remove(at.1)) else {
                continue;
            };
            match &cap.obj {
                // A receive gate's ring buffer leaves the SPM of its PE.
                KObject::RGate(rg) => {
                    for (pe, _) in &cap.activations {
                        let used = st.ringbuf_bytes.get_mut(pe);
                        if let (Some(_), Some(used)) = (rg.activation.take(), used) {
                            *used = used.saturating_sub(ring_bytes(rg));
                        }
                    }
                }
                // A service dies with its owner's capability: the name and
                // the kernel's send endpoint to it go to the next service.
                KObject::Serv(serv) if at.0 == serv.owner && st.services.unregister(serv) => {
                    revoked.serv_eps.push(serv.kernel_ep);
                }
                // An `Activate` waiting on this send gate finds it gone.
                KObject::SGate(sg) => sg.rgate.activated.notify_all(),
                KObject::MGate(mg) if mg.owned => st.mem.free(mg.offset, mg.size),
                KObject::Vpe(vpe) => vpe.borrow_mut().names -= 1,
                _ => {}
            }
            revoked.caps.push((at, cap));
        }
        revoked
    }

    /// Activates `caller`'s `gate` on endpoint `ep` of the VPE its `vpe`
    /// names: resolves both, configures the endpoint through `ktok` and
    /// records the activation, which revoking the gate invalidates. A
    /// receive gate pins its endpoint for good, so it also takes the
    /// endpoint out of the record of its previous capability, whose revoke
    /// must not tear down the ring buffer. Memory and send gates leave that
    /// record: a reused frame endpoint's invalidation re-faults the page.
    pub(super) fn activate(
        &self,
        ktok: &KernelToken,
        (caller, gate): CapRef,
        vpe: SelId,
        ep: EpId,
    ) -> Result<Activation> {
        let mut st = self.0.borrow_mut();
        let (target, target_pe) = match st.get((caller, vpe), VPE)? {
            // A dead VPE's PE may already run the next one.
            VpeCap::Local(v) if !v.borrow().is_alive() => return Err(Error::new(Code::VpeGone)),
            VpeCap::Local(v) => (v.borrow().id, v.borrow().pe),
            // A remote child's endpoints belong to its own shard's kernel;
            // the parent delegates capabilities instead and the child
            // activates them itself.
            VpeCap::Remote(_) => return Err(Error::new(Code::NotSup)),
        };
        let obj = st.obj((caller, gate))?;
        let cfg = match &obj {
            KObject::SGate(sg) => match *sg.rgate.activation.borrow() {
                Some((pe, ep)) => EpConfig::Send {
                    pe,
                    ep,
                    label: sg.label,
                    credits: sg.credits,
                    max_payload: sg.rgate.max_payload(),
                },
                None => return Ok(Activation::Deferred(sg.rgate.activated.clone())),
            },
            KObject::RGate(rg) => {
                if rg.activation.borrow().is_some() {
                    // Receive gates cannot be moved while senders exist.
                    return Err(Error::new(Code::NotSup));
                }
                // The kernel keeps ring buffers within the protected share
                // of the target SPM before enabling replies (§4.4.4).
                let used = st.ringbuf_bytes.get(&target_pe).copied().unwrap_or(0);
                if used + ring_bytes(rg) > RINGBUF_SPM_BUDGET {
                    return Err(Error::new(Code::OutOfMem));
                }
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
            _ => return Err(Error::new(Code::InvCap)),
        };
        ktok.configure(target_pe, ep, cfg)?;
        if let KObject::RGate(rg) = &obj {
            *st.ringbuf_bytes.entry(target_pe).or_insert(0) += ring_bytes(rg);
            *rg.activation.borrow_mut() = Some((target_pe, ep));
            rg.activated.notify_all();
        }
        let prev = st.ep_owners.insert((target, ep), (caller, gate));
        if let (Some((v, s)), KObject::RGate(_)) = (prev, &obj) {
            if let Some(prev) = st.tables.get_mut(&v).and_then(|t| t.get_mut(s).ok()) {
                prev.activations.retain(|a| *a != (target_pe, ep));
            }
        }
        if let Some(cap) = st
            .tables
            .get_mut(&caller)
            .and_then(|t| t.get_mut(gate).ok())
        {
            cap.activations.push((target_pe, ep));
        }
        Ok(Activation::Done(target_pe))
    }

    /// Registers service `name` on `caller`'s activated `rgate`, its `Serv`
    /// capability at `dst`, on the lowest kernel endpoint no service holds.
    /// Returns that endpoint and its channel's configuration (§4.5.3).
    pub(super) fn create_srv(
        &self,
        (caller, dst): CapRef,
        rgate: SelId,
        name: &str,
    ) -> Result<(EpId, EpConfig)> {
        let mut st = self.0.borrow_mut();
        let rgate = st.get((caller, rgate), RGATE)?;
        st.sels_free(caller, &[dst])?;
        let Some((pe, ep)) = *rgate.activation.borrow() else {
            return Err(Error::new(Code::InvArgs).with_msg("service rgate not activated"));
        };
        let kernel_ep = (keps::FIRST_SERV..m3_base::cfg::EP_COUNT as u32)
            .map(EpId::new)
            .find(|ep| !st.services.holds_ep(*ep))
            .ok_or_else(|| Error::new(Code::OutOfMem).with_msg("kernel out of service EPs"))?;
        let channel = EpConfig::Send {
            pe,
            ep,
            label: 0,
            credits: None,
            max_payload: rgate.max_payload(),
        };
        let serv = Rc::new(ServObj {
            name: name.to_string(),
            owner: caller,
            rgate,
            kernel_ep,
        });
        st.services.register(serv.clone())?;
        st.mint((caller, dst), KObject::Serv(serv), None)?;
        Ok((kernel_ep, channel))
    }

    /// Creates boot-time root VPE `name` on `pe` (or any free PE), running
    /// and pinned: roots (services, benchmark drivers) are never
    /// multiplexed, so their PE stays exclusive even in overcommit mode.
    pub(super) fn create_root(&self, name: &str, pe: Option<PeId>) -> Result<(VpeId, PeId)> {
        let mut st = self.0.borrow_mut();
        let pe = match pe {
            Some(pe) => st.pemng.claim(pe).map(|()| pe)?,
            None => st.pemng.alloc(PeRequest::Any, PeType::Xtensa)?,
        };
        let (id, vpe) = st.new_vpe(name, pe, None)?;
        vpe.borrow_mut().state = VpeState::Running;
        st.pinned.insert(pe);
        Ok((id, pe))
    }

    /// Creates VPE `name` with its capability at `cap` and the one to its
    /// SPM at `mem_dst`, on a free PE matching the resolved `want`, or else
    /// on the least-loaded PE `multiplexed` runs (overcommit, §4.1/§7).
    pub(super) fn create_vpe(
        &self,
        cap: CapRef,
        mem_dst: SelId,
        want: PeRequest,
        name: &str,
        multiplexed: Option<&Scheduler>,
    ) -> Result<(VpeId, PeId)> {
        let mut st = self.0.borrow_mut();
        // Both selectors must be free before anything is placed: a taken
        // one found later would strand the PE or cost a spill.
        st.sels_free(cap.0, &[cap.1, mem_dst])?;
        // `want` is resolved, so `alloc` needs no caller type.
        let pe = match (st.pemng.alloc(want, PeType::Xtensa), multiplexed) {
            (Err(e), Some(sched)) if e.code() == Code::NoFreePe => st.least_loaded(sched, want)?,
            (pe, _) => pe?,
        };
        let (id, _) = st.mint_vpe_pair(cap, mem_dst, pe, |st, creator| {
            st.new_vpe(name, pe, Some(creator))
        })?;
        Ok((id, pe))
    }

    /// Mints the `RemoteVpe` proxy of a VPE a peer shard placed at `cap`,
    /// and the capability to its SPM at `mem_dst`, derived from it.
    pub(super) fn mint_remote_vpe(
        &self,
        cap: CapRef,
        mem_dst: SelId,
        proxy: RemoteVpeObj,
    ) -> Result<()> {
        self.0
            .borrow_mut()
            .mint_vpe_pair(cap, mem_dst, proxy.pe, |st, cap| {
                st.mint(cap, KObject::RemoteVpe(Rc::new(proxy)), None)
            })
    }

    /// Places VPE `name` on a free PE matching `want` for peer shard
    /// `shard` (ktk `PlaceVpe`). Its self capability is a local root; the
    /// requester's proxy is one more name of the VPE, dropped by
    /// [`KState::drop_proxy_name`].
    pub(super) fn place_for(
        &self,
        shard: u32,
        name: &str,
        want: PeRequest,
    ) -> Result<(VpeId, PeId)> {
        let mut st = self.0.borrow_mut();
        // `Same` cannot cross shards (the sender resolves it first); a
        // stray one falls back to the base compute type.
        let pe = st.pemng.alloc(want, PeType::Xtensa)?;
        let (id, vpe) = st.new_vpe(name, pe, None)?;
        let mut v = vpe.borrow_mut();
        v.names += 1;
        v.placed_for = Some(shard);
        Ok((id, pe))
    }

    /// Drops the name a peer shard's proxy gave VPE `id` (ktk
    /// `RevokeVpe`); false when the kernel keeps no record of it.
    pub(super) fn drop_proxy_name(&self, id: VpeId) -> bool {
        let st = self.0.borrow();
        let Some(vpe) = st.vpes.get(&id) else {
            return false;
        };
        vpe.borrow_mut().names -= 1;
        true
    }

    /// Marks live VPE `id` dead with `code`; returns its PE and exit notify.
    pub(super) fn kill_vpe(&self, id: VpeId, code: i64) -> Option<(PeId, Notify)> {
        let st = self.0.borrow();
        let mut v = st.vpes.get(&id)?.borrow_mut();
        if !v.is_alive() {
            return None;
        }
        v.state = VpeState::Dead(code);
        Some((v.pe, v.exited.clone()))
    }

    /// Retires dead VPE `id` once its capabilities are revoked: drops its
    /// table and address space, and frees its PE at once if it held it
    /// alone, else with the last VPE the scheduler's `removal` leaves.
    pub(super) fn retire_vpe(&self, id: VpeId, pe: PeId, removal: Removal) {
        let mut st = self.0.borrow_mut();
        let st = &mut *st;
        st.tables.remove(&id);
        let last = matches!(
            removal,
            Removal::Removed {
                now_empty: true,
                ..
            }
        );
        if last || removal == Removal::NotManaged {
            st.pemng.free(pe);
            st.pinned.remove(&pe);
        }
        if let Some(mut aspace) = st.addr_spaces.remove(&id) {
            for page in aspace.pages() {
                unmap_page(&mut st.mem, &mut aspace, page);
            }
            if let Some(swap) = aspace.swap.take() {
                st.mem.free(swap.base, swap.size_bytes());
            }
        }
    }

    /// Frees the record of VPE `id`, and the entries keyed by it, once it is
    /// dead, its teardown is over and no capability names it. Until then
    /// its exit code stays readable through `VpeWait` and ktk `WaitVpe`.
    pub(super) fn reap_vpe(&self, id: VpeId) {
        let mut st = self.0.borrow_mut();
        let Some(vpe) = st.vpes.get(&id) else {
            return;
        };
        let named = vpe.borrow().is_alive() || vpe.borrow().names > 0;
        // `Kernel::destroy_vpe` retires the table after revoking
        // everything in it, so a VPE whose teardown is still running
        // keeps its table.
        if named || st.tables.contains_key(&id) {
            return;
        }
        st.vpes.remove(&id);
        st.ep_owners.retain(|(target, _), _| *target != id);
    }

    /// The first step of a page fault of `caller` on `page`, whose frame
    /// capability goes to `dst`: refuses a taken `dst` before anything is
    /// written, creates the address space (bounded by `resident_limit`) on
    /// the caller's first fault, and classifies the page.
    pub(super) fn classify_fault(
        &self,
        (caller, dst): CapRef,
        page: u64,
        resident_limit: Option<usize>,
    ) -> Result<FaultKind> {
        let mut st = self.0.borrow_mut();
        st.sels_free(caller, &[dst])?;
        let aspace = st
            .addr_spaces
            .entry(caller)
            .or_insert_with(|| AddrSpaceObj::new(resident_limit));
        Ok(aspace.classify(page))
    }

    /// Maps `page` of `caller` once its page move is charged, to its frame
    /// if resident, else to a fresh one, and mints the page's one live frame
    /// capability (so eviction has a single selector to cut) at `dst`, with
    /// `access` within the page's permissions.
    pub(super) fn map_fault(
        &self,
        (caller, dst): CapRef,
        page: u64,
        access: Perm,
    ) -> Result<Mapped> {
        let mut st = self.0.borrow_mut();
        let st = &mut *st;
        st.sels_free(caller, &[dst])?;
        let aspace = st
            .addr_spaces
            .get_mut(&caller)
            .ok_or_else(|| internal("lost address space"))?;
        let (frame, mapped) = match aspace.classify(page) {
            FaultKind::Resident => {
                let entry = aspace.entry_mut(page);
                let entry = entry.ok_or_else(|| internal("resident without entry"))?;
                let frame = entry
                    .frame
                    .ok_or_else(|| internal("resident without frame"))?;
                let old = entry.cap.replace(dst).filter(|s| *s != dst);
                (frame, Mapped::Resident(old))
            }
            kind => {
                let swapped = match (kind, &aspace.swap) {
                    (FaultKind::SwapIn(slot), Some(swap)) => Some(swap.slot_addr(slot)),
                    (FaultKind::SwapIn(_), None) => return Err(internal("no swap region")),
                    _ => None,
                };
                let frame = st.mem.alloc(PAGE_SIZE)?;
                aspace.page_ins += u64::from(swapped.is_some());
                aspace.faults += 1;
                aspace.map(page, frame, Perm::RW, Some(dst));
                (frame, Mapped::Fresh { frame, swapped })
            }
        };
        aspace.touch(page, access.contains(Perm::W));
        let frame = MGateObj {
            pe: st.dram,
            offset: frame,
            size: PAGE_SIZE,
            perm: access & aspace.entry(page).map_or(Perm::RW, |e| e.perm),
            // The page table owns the frame.
            owned: false,
        };
        st.mint((caller, dst), KObject::MGate(Rc::new(frame)), None)?;
        Ok(mapped)
    }

    /// The eviction a full resident set of `caller` needs before it maps a
    /// page: the victim and, if dirty, its swap slot (the one it held, else
    /// a fresh one of the region, created on first use).
    pub(super) fn next_eviction(&self, caller: VpeId) -> Result<Option<Eviction>> {
        let mut st = self.0.borrow_mut();
        let st = &mut *st;
        let aspace = st.addr_spaces.get_mut(&caller);
        let Some(aspace) = aspace.filter(|a| a.needs_eviction()) else {
            return Ok(None);
        };
        let Some(plan) = aspace.plan_eviction() else {
            return Ok(None);
        };
        if !plan.writeback {
            return Ok(Some((plan, None)));
        }
        if aspace.swap.is_none() {
            let base = st
                .mem
                .alloc(SwapRegion::bytes_for(m3_vm::SWAP_PAGES_DEFAULT))?;
            aspace.swap = Some(SwapRegion::new(base, m3_vm::SWAP_PAGES_DEFAULT));
        }
        let held = aspace.entry(plan.page).and_then(|e| e.swap_slot);
        let swap = aspace
            .swap
            .as_mut()
            .ok_or_else(|| internal("no swap region"))?;
        let slot = held.or_else(|| swap.alloc_slot());
        let slot = slot.ok_or_else(|| Error::new(Code::NoSpace).with_msg("swap region full"))?;
        Ok(Some((plan, Some((slot, swap.slot_addr(slot))))))
    }

    /// Evicts `page` of `caller` once its data moved, to swap `slot` for
    /// a written-back page: frees its frame and returns the frame
    /// capability to revoke, so the faulting PE is cut off the frame
    /// before it backs someone else's page.
    pub(super) fn complete_eviction(
        &self,
        caller: VpeId,
        page: u64,
        slot: Option<u64>,
    ) -> Option<SelId> {
        let mut st = self.0.borrow_mut();
        let st = &mut *st;
        let aspace = st.addr_spaces.get_mut(&caller)?;
        let frame = aspace.entry(page)?.frame?;
        if slot.is_some() {
            aspace.writebacks += 1;
            aspace.writeback_bytes += PAGE_SIZE;
        }
        let cap = aspace.complete_eviction(page, slot);
        st.mem.free(frame, PAGE_SIZE);
        cap
    }

    /// Removes `caller`'s mapping of `page`, freeing its frame (if
    /// resident) and swap slot (if any); returns the handed-out frame
    /// capability to revoke.
    pub(super) fn unmap(&self, caller: VpeId, page: u64) -> Result<Option<SelId>> {
        let mut st = self.0.borrow_mut();
        let st = &mut *st;
        let entry = st
            .addr_spaces
            .get_mut(&caller)
            .and_then(|aspace| unmap_page(&mut st.mem, aspace, page))
            .ok_or_else(|| Error::new(Code::InvArgs).with_msg("page not mapped"))?;
        Ok(entry.cap)
    }
}

#[cfg(test)]
pub(super) use checks::Census;

#[cfg(test)]
mod checks {
    //! The per-kernel half of the lifetime consistency check
    //! (`kernel::lifetime`).

    use super::*;

    /// The sizes of the kernel state that must follow the live objects.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(in crate::kernel) struct Census {
        vpes: usize,
        tables: usize,
        caps: usize,
        tree: usize,
        ep_owners: usize,
        free_pes: usize,
    }

    impl KState {
        pub(in crate::kernel) fn census(&self) -> Census {
            let st = self.0.borrow();
            Census {
                vpes: st.vpes.len(),
                tables: st.tables.len(),
                caps: st.tables.values().map(CapTable::len).sum(),
                tree: st.tree.len(),
                ep_owners: st.ep_owners.len(),
                free_pes: st.pemng.free_count(),
            }
        }

        /// `(home shard, VPE)` of every `RemoteVpe` proxy in the tables.
        pub(in crate::kernel) fn proxies(&self) -> Vec<(u32, u32)> {
            let st = self.0.borrow();
            let mut proxies = Vec::new();
            for table in st.tables.values() {
                for sel in table.selectors() {
                    if let KObject::RemoteVpe(r) = &table.get(sel).unwrap().obj {
                        proxies.push((r.shard, r.vpe));
                    }
                }
            }
            proxies
        }

        /// Asserts that every derivation-tree node is an entry in some
        /// capability table and every table entry is in the tree, that
        /// every VPE record is alive or named by a capability (a local
        /// one, or a peer shard's proxy: `proxied`), that no dead VPE is
        /// `scheduled`, and that every capability to a PE's SPM derives
        /// from a VPE capability or proxy.
        pub(in crate::kernel) fn assert_consistent(
            &self,
            proxied: impl Fn(VpeId) -> bool,
            scheduled: impl Fn(VpeId) -> bool,
        ) {
            let st = self.0.borrow();
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
                        KObject::MGate(m) if m.pe != st.dram => assert!(
                            st.derives_from_a_vpe((*id, sel)),
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
                assert_eq!(
                    v.names,
                    names.get(id).copied().unwrap_or(0) + u32::from(proxied(*id)),
                    "name count of {id}"
                );
                assert!(v.is_alive() || v.names > 0, "dead {id} named by nothing");
                assert_eq!(st.tables.contains_key(id), v.is_alive(), "table of {id}");
                if !v.is_alive() {
                    assert!(!scheduled(*id), "dead {id} still scheduled");
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
        }
    }

    impl State {
        /// Whether a VPE capability or `RemoteVpe` proxy is among the
        /// ancestors of `cap` in the derivation tree.
        fn derives_from_a_vpe(&self, cap: CapRef) -> bool {
            let mut at = self.tree.parent(cap);
            while let Some(parent) = at {
                let obj = self.obj(parent);
                if obj.is_ok_and(|o| matches!(o, KObject::Vpe(_) | KObject::RemoteVpe(_))) {
                    return true;
                }
                at = self.tree.parent(parent);
            }
            false
        }
    }
}
