//! Capabilities and the store that holds them.
//!
//! A capability is "a pair consisting of a kernel object and permissions for
//! this object"; the kernel maintains one table per VPE, "similar to the file
//! descriptor table in UNIX systems" (§4.5.3). Each capability also records
//! the one it was derived from, the ones derived from it — together the
//! mapping database of L4 microkernels — and the copies delegating it
//! installed in peer shards, so that revoke can undo all grants recursively.
//! [`CapStore`] holds the tables and is the only writer of those links.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use m3_base::error::{Code, Error, Result};
use m3_base::ids::Label;
use m3_base::{EpId, PeId, Perm, SelId, VpeId};
use m3_sim::Notify;

use crate::service::{ServObj, SessObj};
use crate::vpe::VpeObj;

/// A receive-gate kernel object.
#[derive(Debug)]
pub struct RGateObj {
    /// VPE that created (and receives on) the gate.
    pub owner: VpeId,
    /// Ring-buffer slots.
    pub slots: u32,
    /// Slot size in bytes.
    pub slot_size: u32,
    /// Where the gate is currently activated, if anywhere. Send gates can
    /// only be resolved once this is set (§4.5.4: the kernel defers the
    /// reply until the receiver is ready).
    pub activation: RefCell<Option<(PeId, EpId)>>,
    /// Notified when the gate becomes activated.
    pub activated: Notify,
}

impl RGateObj {
    /// Creates an unactivated receive gate.
    pub fn new(owner: VpeId, slots: u32, slot_size: u32) -> Rc<RGateObj> {
        Rc::new(RGateObj {
            owner,
            slots,
            slot_size,
            activation: RefCell::new(None),
            activated: Notify::new(),
        })
    }

    /// The maximum payload of messages through this gate.
    pub fn max_payload(&self) -> usize {
        self.slot_size as usize - m3_base::cfg::MSG_HEADER_SIZE
    }
}

/// A send-gate kernel object.
#[derive(Debug)]
pub struct SGateObj {
    /// The receive gate this gate sends to.
    pub rgate: Rc<RGateObj>,
    /// The (receiver-chosen) label stamped into every message.
    pub label: Label,
    /// Credit budget (`None` = unlimited).
    pub credits: Option<u32>,
}

/// A memory-gate kernel object: a region of some node's memory.
#[derive(Debug, Clone)]
pub struct MGateObj {
    /// The node whose memory this names (DRAM module or a PE's SPM).
    pub pe: PeId,
    /// Start offset within that node's memory.
    pub offset: u64,
    /// Region size in bytes.
    pub size: u64,
    /// Access permissions.
    pub perm: Perm,
    /// Whether the kernel allocator owns the region (freed on revoke of the
    /// root capability).
    pub owned: bool,
}

/// A proxy for a VPE placed on a peer kernel shard: the local kernel holds
/// the shard/VPE coordinates and forwards lifecycle operations over the
/// kernel-to-kernel gate (§7 multikernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteVpeObj {
    /// The shard whose kernel manages the VPE.
    pub shard: u32,
    /// The VPE id *in that shard's* namespace.
    pub vpe: u32,
    /// The PE the VPE runs on (globally unique, so memory gates to its SPM
    /// work from any shard).
    pub pe: PeId,
}

/// A send gate installed from a cross-shard capability descriptor: the
/// target receive gate lives with a peer shard and is already activated at
/// `(pe, ep)`, so the local kernel can configure send endpoints directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XSGateObj {
    /// PE of the activated receive gate.
    pub pe: PeId,
    /// Endpoint of the activated receive gate.
    pub ep: EpId,
    /// Label stamped into every message.
    pub label: Label,
    /// Credit budget (`None` = unlimited).
    pub credits: Option<u32>,
    /// Maximum payload bytes per message.
    pub max_payload: usize,
}

/// A session opened with a service registered at a peer shard: exchanges
/// are forwarded over the kernel-to-kernel gate; the owning shard keeps no
/// per-session kernel state for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteSessObj {
    /// The shard whose kernel hosts the service.
    pub shard: u32,
    /// Global service name (sessions are stateless on the origin side).
    pub serv: String,
    /// The service-chosen session identifier.
    pub ident: u64,
}

/// The kernel object behind a capability.
#[derive(Clone, Debug)]
pub enum KObject {
    /// A receive gate.
    RGate(Rc<RGateObj>),
    /// A send gate.
    SGate(Rc<SGateObj>),
    /// A memory gate.
    MGate(Rc<MGateObj>),
    /// A virtual PE.
    Vpe(Rc<RefCell<VpeObj>>),
    /// A registered service.
    Serv(Rc<ServObj>),
    /// A session with a service.
    Sess(Rc<SessObj>),
    /// A VPE managed by a peer kernel shard.
    RemoteVpe(Rc<RemoteVpeObj>),
    /// A send gate whose receive side lives with a peer shard.
    XSGate(Rc<XSGateObj>),
    /// A session with a service registered at a peer shard.
    RemoteSess(Rc<RemoteSessObj>),
}

impl KObject {
    /// Short type name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            KObject::RGate(_) => "rgate",
            KObject::SGate(_) => "sgate",
            KObject::MGate(_) => "mgate",
            KObject::Vpe(_) => "vpe",
            KObject::Serv(_) => "serv",
            KObject::Sess(_) => "sess",
            KObject::RemoteVpe(_) => "remote-vpe",
            KObject::XSGate(_) => "xsgate",
            KObject::RemoteSess(_) => "remote-sess",
        }
    }
}

/// A capability's global address: (VPE, selector).
pub type CapRef = (VpeId, SelId);

/// A copy that delegating a capability installed in a peer shard:
/// `(shard, vpe, sel)` in that shard's namespace.
pub(crate) type RemoteCopy = (u32, u32, u32);

/// One entry of a VPE's capability table, with its derivation links.
#[derive(Debug)]
pub struct Capability {
    /// The kernel object.
    pub obj: KObject,
    /// Endpoints the kernel has configured from this capability; invalidated
    /// when the capability is revoked.
    pub activations: Vec<(PeId, EpId)>,
    parent: Option<CapRef>,
    children: Vec<CapRef>,
    remote: Vec<RemoteCopy>,
}

impl Capability {
    /// The capability this one was derived from; `None` for a root.
    pub fn parent(&self) -> Option<CapRef> {
        self.parent
    }

    /// The capabilities derived from this one, in mint order.
    pub fn children(&self) -> &[CapRef] {
        &self.children
    }

    /// The copies delegating this capability installed in peer shards,
    /// cut when it is revoked.
    pub(crate) fn remote(&self) -> &[RemoteCopy] {
        &self.remote
    }
}

/// Every capability of one kernel: a table per VPE whose entries link up
/// into the derivation forest, "similar to the mapping database found in
/// some L4 microkernels" (§4.5.3). [`CapStore::mint`] is the only way in
/// and [`CapStore::revoke`] the only way out, so a link always names a
/// capability in some table.
#[derive(Default, Debug)]
pub struct CapStore {
    tables: BTreeMap<VpeId, BTreeMap<SelId, Capability>>,
}

impl CapStore {
    /// Gives `vpe` an empty table.
    pub fn add_table(&mut self, vpe: VpeId) {
        self.tables.insert(vpe, BTreeMap::new());
    }

    /// Drops `vpe`'s table, once everything in it is revoked.
    pub(crate) fn remove_table(&mut self, vpe: VpeId) {
        self.tables.remove(&vpe);
    }

    /// Whether `vpe` has a table.
    pub(crate) fn has_table(&self, vpe: VpeId) -> bool {
        self.tables.contains_key(&vpe)
    }

    /// The capability at `cap`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::VpeGone`] if its VPE has no table and
    /// [`Code::InvCap`] if the selector is empty.
    pub(crate) fn get(&self, (vpe, sel): CapRef) -> Result<&Capability> {
        let table = self.tables.get(&vpe).ok_or_else(|| gone(vpe))?;
        table.get(&sel).ok_or_else(|| empty(sel))
    }

    /// The capability at `cap`, if any: a lookup whose miss builds no
    /// error, for callers that expect empty selectors.
    pub fn find(&self, (vpe, sel): CapRef) -> Option<&Capability> {
        self.tables.get(&vpe)?.get(&sel)
    }

    /// The capability at `cap` mutably, if any.
    pub(crate) fn find_mut(&mut self, (vpe, sel): CapRef) -> Option<&mut Capability> {
        self.tables.get_mut(&vpe)?.get_mut(&sel)
    }

    /// The occupied selectors of `vpe`'s table; none once it is gone.
    pub(crate) fn selectors(&self, vpe: VpeId) -> Vec<SelId> {
        let table = self.tables.get(&vpe);
        table.map_or_else(Vec::new, |t| t.keys().copied().collect())
    }

    /// Refuses unless `owner` has a table in which `sels` are distinct and
    /// free: the check a transition makes before it takes a PE, DRAM, a
    /// name or an endpoint that a refused [`CapStore::mint`] would strand.
    ///
    /// # Errors
    ///
    /// Returns [`Code::VpeGone`] without a table and [`Code::Exists`] for
    /// a repeated or taken selector.
    pub(crate) fn check_free(&self, owner: VpeId, sels: &[SelId]) -> Result<()> {
        let table = self.tables.get(&owner).ok_or_else(|| gone(owner))?;
        for (i, sel) in sels.iter().enumerate() {
            if sels[..i].contains(sel) || table.contains_key(sel) {
                return Err(Error::new(Code::Exists).with_msg(format!("{sel} already in use")));
            }
        }
        Ok(())
    }

    /// Mints `obj` at `cap`, a root or the last child of `parent`.
    ///
    /// # Errors
    ///
    /// Refuses before it writes anything: as [`CapStore::check_free`],
    /// and with [`Code::InvCap`] for a `parent` in no table.
    pub fn mint(&mut self, cap: CapRef, obj: KObject, parent: Option<CapRef>) -> Result<()> {
        self.check_free(cap.0, &[cap.1])?;
        if let Some(p) = parent {
            let orphan =
                || Error::new(Code::InvCap).with_msg(format!("parent {p:?} is in no table"));
            self.find_mut(p).ok_or_else(orphan)?.children.push(cap);
        }
        let entry = Capability {
            obj,
            activations: Vec::new(),
            parent,
            children: Vec::new(),
            remote: Vec::new(),
        };
        self.tables.entry(cap.0).or_default().insert(cap.1, entry);
        Ok(())
    }

    /// Records that delegating `src` installed `copy` in a peer shard, so
    /// that revoking `src` cuts the copy too.
    ///
    /// # Errors
    ///
    /// As [`CapStore::get`].
    pub(crate) fn add_remote(&mut self, (vpe, sel): CapRef, copy: RemoteCopy) -> Result<()> {
        let table = self.tables.get_mut(&vpe).ok_or_else(|| gone(vpe))?;
        let cap = table.get_mut(&sel).ok_or_else(|| empty(sel))?;
        cap.remote.push(copy);
        Ok(())
    }

    /// Drops every remote copy in peer `shard` and returns the capabilities
    /// that proxy one of its objects, in one pass.
    pub(crate) fn forget_shard(&mut self, shard: u32) -> Vec<CapRef> {
        let mut proxies = Vec::new();
        for (vpe, table) in &mut self.tables {
            for (sel, cap) in table.iter_mut() {
                cap.remote.retain(|(s, _, _)| *s != shard);
                let home = match &cap.obj {
                    KObject::RemoteVpe(r) => Some(r.shard),
                    KObject::RemoteSess(r) => Some(r.shard),
                    _ => None,
                };
                if home == Some(shard) {
                    proxies.push((*vpe, *sel));
                }
            }
        }
        proxies
    }

    /// Removes `cap` and every capability derived from it, each with its
    /// address, parents before children: `cap` leaves its parent's child
    /// list, then a stack walk removes a capability and pushes its children
    /// in mint order. An absent `cap` removes nothing.
    pub fn revoke(&mut self, cap: CapRef) -> Vec<(CapRef, Capability)> {
        let Some(parent) = self.find(cap).map(Capability::parent) else {
            return Vec::new();
        };
        if let Some(p) = parent.and_then(|p| self.find_mut(p)) {
            p.children.retain(|&c| c != cap);
        }
        let mut removed = Vec::new();
        let mut stack = vec![cap];
        while let Some((vpe, sel)) = stack.pop() {
            if let Some(c) = self.tables.get_mut(&vpe).and_then(|t| t.remove(&sel)) {
                stack.extend_from_slice(&c.children);
                removed.push(((vpe, sel), c));
            }
        }
        removed
    }
}

fn gone(vpe: VpeId) -> Error {
    Error::new(Code::VpeGone).with_msg(format!("{vpe} has no table"))
}

fn empty(sel: SelId) -> Error {
    Error::new(Code::InvCap).with_msg(format!("{sel} is empty"))
}

/// The reads only the kernel's consistency checks and tests make.
#[cfg(test)]
impl CapStore {
    /// The VPEs that have a table, in ascending id order.
    pub(crate) fn vpes(&self) -> impl Iterator<Item = VpeId> + '_ {
        self.tables.keys().copied()
    }

    /// Every capability with its address, by VPE, then selector.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (CapRef, &Capability)> {
        let tables = self.tables.iter();
        tables.flat_map(|(vpe, t)| t.iter().map(|(sel, cap)| ((*vpe, *sel), cap)))
    }

    /// Number of capabilities in all tables.
    pub(crate) fn len(&self) -> usize {
        self.tables.values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vpe: u32, sel: u32) -> CapRef {
        (VpeId::new(vpe), SelId::new(sel))
    }

    fn mgate() -> KObject {
        KObject::MGate(Rc::new(MGateObj {
            pe: PeId::new(0),
            offset: 0,
            size: 4096,
            perm: Perm::RW,
            owned: false,
        }))
    }

    /// A store with tables for VPEs 0 to 2 and `links` minted in order,
    /// each a capability and its parent.
    fn store(links: &[(CapRef, Option<CapRef>)]) -> CapStore {
        let mut s = CapStore::default();
        for vpe in 0..3 {
            s.add_table(VpeId::new(vpe));
        }
        for &(cap, parent) in links {
            s.mint(cap, mgate(), parent).unwrap();
        }
        s
    }

    fn refs(removed: &[(CapRef, Capability)]) -> Vec<CapRef> {
        removed.iter().map(|(cap, _)| *cap).collect()
    }

    #[test]
    fn table_insert_get_remove() {
        let mut s = store(&[(r(0, 1), None)]);
        assert_eq!(s.get(r(0, 1)).unwrap().obj.kind(), "mgate");
        assert_eq!(s.get(r(0, 2)).unwrap_err().code(), Code::InvCap);
        assert_eq!(s.get(r(7, 1)).unwrap_err().code(), Code::VpeGone);
        let taken = s.mint(r(0, 1), mgate(), None).unwrap_err();
        assert_eq!(taken.code(), Code::Exists);
        let gone = s.mint(r(7, 1), mgate(), None).unwrap_err();
        assert_eq!(gone.code(), Code::VpeGone);
        assert_eq!(refs(&s.revoke(r(0, 1))), [r(0, 1)]);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn mint_under_a_parent_in_no_table_changes_nothing() {
        let mut s = store(&[(r(0, 1), None), (r(1, 1), Some(r(0, 1)))]);
        for parent in [r(1, 9), r(7, 1)] {
            let err = s.mint(r(2, 1), mgate(), Some(parent)).unwrap_err();
            assert_eq!(err.code(), Code::InvCap);
        }
        assert_eq!(s.len(), 2);
        assert!(s.find(r(2, 1)).is_none());
        assert_eq!(s.get(r(0, 1)).unwrap().children(), [r(1, 1)]);
        assert!(s.get(r(1, 1)).unwrap().children().is_empty());
    }

    #[test]
    fn revoke_removes_whole_subtree() {
        // v0:1 -> v1:1 -> v2:1, and v0:1 -> v1:2
        let mut s = store(&[
            (r(0, 1), None),
            (r(1, 1), Some(r(0, 1))),
            (r(2, 1), Some(r(1, 1))),
            (r(1, 2), Some(r(0, 1))),
        ]);
        // Children go on the stack in mint order, so the last comes first.
        let removed = refs(&s.revoke(r(0, 1)));
        assert_eq!(removed, [r(0, 1), r(1, 2), r(1, 1), r(2, 1)]);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn revoke_of_inner_node_keeps_ancestors() {
        let mut s = store(&[
            (r(0, 1), None),
            (r(1, 1), Some(r(0, 1))),
            (r(2, 1), Some(r(1, 1))),
        ]);
        assert_eq!(refs(&s.revoke(r(1, 1))), [r(1, 1), r(2, 1)]);
        assert!(s.find(r(0, 1)).is_some());
        // The parent's child list was cleaned up.
        assert!(s.get(r(0, 1)).unwrap().children().is_empty());
        assert_eq!(s.revoke(r(0, 1)).len(), 1);
    }

    #[test]
    fn revoke_unknown_is_noop() {
        let mut s = store(&[(r(0, 1), None)]);
        assert!(s.revoke(r(9, 9)).is_empty());
        assert!(s.revoke(r(0, 9)).is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn parents_come_before_children() {
        let mut s = store(&[
            (r(2, 1), None),
            (r(0, 1), Some(r(2, 1))),
            (r(1, 1), Some(r(0, 1))),
        ]);
        assert_eq!(refs(&s.revoke(r(2, 1))), [r(2, 1), r(0, 1), r(1, 1)]);
    }

    #[test]
    fn remote_copies_leave_with_their_capability() {
        let mut s = store(&[(r(0, 1), None), (r(1, 1), Some(r(0, 1)))]);
        let proxy = RemoteVpeObj {
            shard: 1,
            vpe: 4,
            pe: PeId::new(9),
        };
        s.mint(r(2, 1), KObject::RemoteVpe(Rc::new(proxy)), None)
            .unwrap();
        s.add_remote(r(1, 1), (1, 5, 6)).unwrap();
        s.add_remote(r(1, 1), (2, 5, 7)).unwrap();
        assert_eq!(
            s.add_remote(r(1, 2), (1, 5, 8)).unwrap_err().code(),
            Code::InvCap
        );
        assert_eq!(s.forget_shard(1), [r(2, 1)]);
        let removed = s.revoke(r(0, 1));
        assert_eq!(removed[1].1.remote(), [(2, 5, 7)]);
    }

    #[test]
    fn rgate_max_payload() {
        let g = RGateObj::new(VpeId::new(0), 8, 512);
        assert_eq!(g.max_payload(), 512 - m3_base::cfg::MSG_HEADER_SIZE);
        assert!(g.activation.borrow().is_none());
    }
}
