//! Capabilities, capability tables, and the delegation tree.
//!
//! A capability is "a pair consisting of a kernel object and permissions for
//! this object"; the kernel maintains one table per VPE, "similar to the file
//! descriptor table in UNIX systems" (§4.5.3). Delegations are recorded in a
//! tree — the mapping database of L4 microkernels — so that revoke can undo
//! all grants recursively.

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

/// One entry of a VPE's capability table.
#[derive(Clone, Debug)]
pub struct Capability {
    /// The kernel object.
    pub obj: KObject,
    /// Endpoints the kernel has configured from this capability; invalidated
    /// when the capability is revoked.
    pub activations: Vec<(PeId, EpId)>,
}

impl Capability {
    /// Wraps a kernel object into a capability.
    pub fn new(obj: KObject) -> Capability {
        Capability {
            obj,
            activations: Vec::new(),
        }
    }
}

/// A per-VPE capability table.
#[derive(Default, Debug)]
pub struct CapTable {
    caps: BTreeMap<SelId, Capability>,
}

impl CapTable {
    /// Creates an empty table.
    pub fn new() -> CapTable {
        CapTable::default()
    }

    /// Inserts a capability at `sel`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::Exists`] if the selector is already in use.
    pub fn insert(&mut self, sel: SelId, cap: Capability) -> Result<()> {
        if self.caps.contains_key(&sel) {
            return Err(Error::new(Code::Exists).with_msg(format!("{sel} already in use")));
        }
        self.caps.insert(sel, cap);
        Ok(())
    }

    /// Looks up a capability.
    ///
    /// # Errors
    ///
    /// Returns [`Code::InvCap`] if the selector is empty.
    pub fn get(&self, sel: SelId) -> Result<&Capability> {
        self.find(sel).ok_or_else(|| empty(sel))
    }

    /// The capability at `sel`, if any: a lookup whose miss builds no
    /// error, for callers that expect empty selectors.
    pub fn find(&self, sel: SelId) -> Option<&Capability> {
        self.caps.get(&sel)
    }

    /// The capability at `sel` mutably, if any.
    pub fn find_mut(&mut self, sel: SelId) -> Option<&mut Capability> {
        self.caps.get_mut(&sel)
    }

    /// Removes and returns the capability at `sel`, if present.
    pub fn remove(&mut self, sel: SelId) -> Option<Capability> {
        self.caps.remove(&sel)
    }

    /// All occupied selectors (for teardown).
    pub fn selectors(&self) -> Vec<SelId> {
        self.caps.keys().copied().collect()
    }

    /// Number of capabilities in the table.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }
}

fn empty(sel: SelId) -> Error {
    Error::new(Code::InvCap).with_msg(format!("{sel} is empty"))
}

/// A capability's global address: (VPE, selector).
pub type CapRef = (VpeId, SelId);

/// The delegation tree recording all delegate/obtain operations, "similar to
/// the mapping database found in some L4 microkernels" (§4.5.3).
#[derive(Default, Debug)]
pub struct DerivationTree {
    nodes: BTreeMap<CapRef, TreeNode>,
}

#[derive(Default, Debug)]
struct TreeNode {
    parent: Option<CapRef>,
    children: Vec<CapRef>,
}

impl DerivationTree {
    /// Creates an empty tree.
    pub fn new() -> DerivationTree {
        DerivationTree::default()
    }

    /// Records a freshly created (root) capability.
    pub fn insert_root(&mut self, cap: CapRef) {
        self.nodes.entry(cap).or_default();
    }

    /// Records that `child` was delegated/obtained from `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `child` is already in the tree (a selector can only be
    /// filled once) — the kernel checks table occupancy first — or if
    /// `parent` is not: every parent is a capability the kernel minted.
    pub fn insert_child(&mut self, parent: CapRef, child: CapRef) {
        assert!(
            !self.nodes.contains_key(&child),
            "{child:?} already tracked"
        );
        let Some(node) = self.nodes.get_mut(&parent) else {
            panic!("parent {parent:?} not tracked");
        };
        node.children.push(child);
        self.nodes.insert(
            child,
            TreeNode {
                parent: Some(parent),
                children: Vec::new(),
            },
        );
    }

    /// Removes `cap` and its entire subtree, returning every removed
    /// reference (including `cap` itself), parents before children.
    pub fn revoke(&mut self, cap: CapRef) -> Vec<CapRef> {
        if !self.nodes.contains_key(&cap) {
            return Vec::new();
        }
        // Unlink from the parent.
        if let Some(parent) = self.nodes[&cap].parent {
            if let Some(p) = self.nodes.get_mut(&parent) {
                p.children.retain(|&c| c != cap);
            }
        }
        let mut removed = Vec::new();
        let mut stack = vec![cap];
        while let Some(cur) = stack.pop() {
            if let Some(node) = self.nodes.remove(&cur) {
                removed.push(cur);
                stack.extend(node.children);
            }
        }
        removed
    }

    /// The capability `cap` was derived from; `None` for a root or an
    /// untracked capability.
    #[cfg(test)]
    pub(crate) fn parent(&self, cap: CapRef) -> Option<CapRef> {
        self.nodes.get(&cap).and_then(|n| n.parent)
    }

    /// Whether `cap` is tracked.
    pub fn contains(&self, cap: CapRef) -> bool {
        self.nodes.contains_key(&cap)
    }

    /// Number of tracked capabilities.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vpe: u32, sel: u32) -> CapRef {
        (VpeId::new(vpe), SelId::new(sel))
    }

    fn mgate() -> Capability {
        Capability::new(KObject::MGate(Rc::new(MGateObj {
            pe: PeId::new(0),
            offset: 0,
            size: 4096,
            perm: Perm::RW,
            owned: false,
        })))
    }

    #[test]
    fn table_insert_get_remove() {
        let mut t = CapTable::new();
        t.insert(SelId::new(1), mgate()).unwrap();
        assert_eq!(t.get(SelId::new(1)).unwrap().obj.kind(), "mgate");
        assert_eq!(
            t.insert(SelId::new(1), mgate()).unwrap_err().code(),
            Code::Exists
        );
        assert!(t.remove(SelId::new(1)).is_some());
        assert_eq!(t.get(SelId::new(1)).unwrap_err().code(), Code::InvCap);
        assert!(t.is_empty());
    }

    #[test]
    fn revoke_removes_whole_subtree() {
        let mut tree = DerivationTree::new();
        // v0:1 -> v1:1 -> v2:1, and v0:1 -> v1:2
        tree.insert_root(r(0, 1));
        tree.insert_child(r(0, 1), r(1, 1));
        tree.insert_child(r(1, 1), r(2, 1));
        tree.insert_child(r(0, 1), r(1, 2));
        let removed = tree.revoke(r(0, 1));
        assert_eq!(removed.len(), 4);
        assert!(tree.is_empty());
    }

    #[test]
    fn revoke_of_inner_node_keeps_ancestors() {
        let mut tree = DerivationTree::new();
        tree.insert_root(r(0, 1));
        tree.insert_child(r(0, 1), r(1, 1));
        tree.insert_child(r(1, 1), r(2, 1));
        let removed = tree.revoke(r(1, 1));
        assert_eq!(removed.len(), 2);
        assert!(tree.contains(r(0, 1)));
        assert!(!tree.contains(r(1, 1)));
        assert!(!tree.contains(r(2, 1)));
        // Parent's child list was cleaned up: revoking the root removes 1.
        assert_eq!(tree.revoke(r(0, 1)).len(), 1);
    }

    #[test]
    fn revoke_unknown_is_noop() {
        let mut tree = DerivationTree::new();
        assert!(tree.revoke(r(9, 9)).is_empty());
    }

    #[test]
    fn parents_come_before_children() {
        let mut tree = DerivationTree::new();
        tree.insert_root(r(0, 1));
        tree.insert_child(r(0, 1), r(1, 1));
        tree.insert_child(r(1, 1), r(2, 1));
        let removed = tree.revoke(r(0, 1));
        let pos = |c: CapRef| removed.iter().position(|&x| x == c).unwrap();
        assert!(pos(r(0, 1)) < pos(r(1, 1)));
        assert!(pos(r(1, 1)) < pos(r(2, 1)));
    }

    #[test]
    fn rgate_max_payload() {
        let g = RGateObj::new(VpeId::new(0), 8, 512);
        assert_eq!(g.max_payload(), 512 - m3_base::cfg::MSG_HEADER_SIZE);
        assert!(g.activation.borrow().is_none());
    }

    #[test]
    #[should_panic(expected = "already tracked")]
    fn double_insert_child_panics() {
        let mut tree = DerivationTree::new();
        tree.insert_root(r(0, 1));
        tree.insert_child(r(0, 1), r(1, 1));
        tree.insert_child(r(0, 1), r(1, 1));
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn insert_child_of_an_untracked_parent_panics() {
        let mut tree = DerivationTree::new();
        tree.insert_child(r(0, 1), r(1, 1));
    }
}
