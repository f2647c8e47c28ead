//! The sharded multikernel (§7, DESIGN.md §5j): the shard context, the
//! ktk client (requests to peer shards) and server (requests from them),
//! and capability descriptors that cross shard boundaries.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::{Rc, Weak};

use m3_base::error::{Code, Error, Result};
use m3_base::marshal::OStream;
use m3_base::{Cycles, EpId, PeId, SelId, VpeId};
use m3_sim::{Component, EventKind, TaskName};

use crate::cap::{CapRef, KObject, MGateObj, RemoteSessObj, RemoteVpeObj, XSGateObj};
use crate::costs;
use crate::ktk::{self, CapDesc, KtkMsg, KtkReply};
use crate::protocol::{PeRequest, ServiceRequest};
use crate::vpe::{wait_exit, VpeObj};

use super::{Kernel, KernelInner, Outstanding};

/// A kernel's view of the sharded multikernel it is part of (§7: "multiple
/// kernel instances" as the scalability path). Each shard owns a disjoint
/// PE/DRAM partition; the shards talk through the kernel-to-kernel (ktk)
/// protocol of [`crate::ktk`] over a transport-agnostic send closure —
/// NoC messages between kernel PEs inside one `Sim`, island-boundary ports
/// across PDES islands. Absent (`None` on the kernel), every cross-shard
/// path is compiled out of the schedule and the kernel is cycle-identical
/// to the single-instance build.
pub struct ShardCtx {
    id: u32,
    count: u32,
    send: Box<dyn Fn(u32, Vec<u8>)>,
    /// Kernel PE of every peer shard (used to map a PE crash to a shard
    /// death).
    pub(super) peer_pes: BTreeMap<u32, PeId>,
    /// Last advertised free-PE count of each live peer, refreshed
    /// passively from the header of every incoming ktk message.
    peer_free: RefCell<BTreeMap<u32, usize>>,
    /// Peers declared dead by the shard watchdog.
    dead: RefCell<BTreeSet<u32>>,
    /// Requests to peer shards, by shard, so a shard death fails them fast.
    pub(super) requests: Outstanding<u32, KtkReply>,
    /// Cross-shard delegation edges: local capability -> the remote
    /// `(shard, vpe, sel)` copies it spawned, cut on revoke (§4.5.3).
    pub(super) remote_children: RefCell<BTreeMap<(VpeId, SelId), Vec<RemoteCopy>>>,
}

/// A remote copy a delegated capability spawned: `(shard, vpe, sel)`.
type RemoteCopy = (u32, u32, u32);

impl ShardCtx {
    /// This kernel's shard id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Total number of shards in the multikernel.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether `shard` has been declared dead by the watchdog.
    pub fn is_dead(&self, shard: u32) -> bool {
        self.dead.borrow().contains(&shard)
    }

    /// Peers not declared dead, in ascending shard-id order.
    pub fn alive_peers(&self) -> Vec<u32> {
        self.peer_free.borrow().keys().copied().collect()
    }
}

impl std::fmt::Debug for ShardCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardCtx({}/{})", self.id, self.count)
    }
}

impl Kernel {
    /// The shard context, if this kernel is part of a sharded multikernel.
    pub fn shard_ctx(&self) -> Option<Rc<ShardCtx>> {
        self.shard.borrow().clone()
    }

    pub(super) fn shard_ctx_or_err(&self) -> Result<Rc<ShardCtx>> {
        self.shard_ctx().ok_or_else(|| {
            Error::new(Code::Internal).with_msg("remote capability without a shard context")
        })
    }

    /// Joins this kernel to a sharded multikernel as shard `id` of `count`:
    /// `peers` lists every other shard's kernel PE and `send` delivers raw
    /// ktk bytes to a peer shard. [`Kernel::connect_shards`] wires the
    /// kernels of one `Sim` together over the NoC; PDES-island deployments
    /// pass a closure that writes to the island boundary port instead.
    /// Call before [`Kernel::attach_faults`] so the shard watchdog arms.
    pub fn set_shard(
        &self,
        id: u32,
        count: u32,
        peers: &[(u32, PeId)],
        send: Box<dyn Fn(u32, Vec<u8>)>,
    ) {
        let peer_free = peers.iter().map(|(s, _)| (*s, 0usize)).collect();
        *self.shard.borrow_mut() = Some(Rc::new(ShardCtx {
            id,
            count,
            send,
            peer_pes: peers.iter().copied().collect(),
            peer_free: RefCell::new(peer_free),
            dead: RefCell::new(BTreeSet::new()),
            requests: Outstanding::new(),
            remote_children: RefCell::new(BTreeMap::new()),
        }));
    }

    /// Wires `kernels` (one per shard, all inside one `Sim`) into a sharded
    /// multikernel: shard ids follow slice order, and ktk messages ride the
    /// NoC between the kernel PEs, charged like any other transfer. With a
    /// fault plane armed, messages to or from a crashed kernel PE are
    /// dropped on the floor — what a dead router port does — so the
    /// timeout/watchdog recovery paths are exercised, not bypassed.
    pub fn connect_shards(kernels: &[Kernel]) {
        if kernels.len() < 2 {
            // One kernel is not a multikernel: attach no shard context so
            // the single-shard path stays cycle-identical to a standalone
            // kernel.
            return;
        }
        let n = kernels.len() as u32;
        let all: Vec<(u32, PeId)> = kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (i as u32, k.pe))
            .collect();
        for (i, k) in kernels.iter().enumerate() {
            let id = i as u32;
            let peers: Vec<(u32, PeId)> = all.iter().filter(|(s, _)| *s != id).copied().collect();
            // Weak: the wired kernels must not keep each other alive.
            let by_shard: BTreeMap<u32, Weak<KernelInner>> = kernels
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(j, other)| (j as u32, Rc::downgrade(&other.0)))
                .collect();
            let schedule = k
                .dtu
                .system()
                .faults()
                .map(|f| f.crash_schedule())
                .unwrap_or_default();
            let src_crash = schedule.iter().find(|(p, _)| *p == k.pe).map(|(_, at)| *at);
            let crash_of: BTreeMap<u32, Cycles> = all
                .iter()
                .filter_map(|(s, pe)| {
                    schedule
                        .iter()
                        .find(|(p, _)| p == pe)
                        .map(|(_, at)| (*s, *at))
                })
                .collect();
            let (sim, noc, src_pe) = (k.sim.clone(), k.dtu.system().noc().clone(), k.pe);
            let send = Box::new(move |dst: u32, bytes: Vec<u8>| {
                let Some(dst_k) = by_shard.get(&dst).and_then(Weak::upgrade).map(Kernel) else {
                    return;
                };
                // A crashed kernel PE neither sends nor receives.
                if src_crash.is_some_and(|at| sim.now() >= at) {
                    return;
                }
                let t = noc.schedule(sim.now(), src_pe, dst_k.pe, bytes.len() as u64);
                let dst_crash = crash_of.get(&dst).copied();
                let sim2 = sim.clone();
                sim.call_at(t.completes_at, move || {
                    if dst_crash.is_some_and(|at| sim2.now() >= at) {
                        return;
                    }
                    dst_k.ktk_deliver(&bytes);
                });
            });
            k.set_shard(id, n, &peers, send);
        }
        // Announce the initial loads so spill-over placement starts from
        // real free-PE counts instead of zeros.
        for k in kernels {
            k.ktk_hello();
        }
    }

    /// Announces this shard's current free-PE count to every live peer.
    pub fn ktk_hello(&self) {
        if let Some(ctx) = self.shard_ctx() {
            for peer in ctx.alive_peers() {
                self.ktk_send(&ctx, peer, &KtkMsg::Hello);
            }
        }
    }

    /// Sends one ktk message, stamping the shard header (id + free-PE
    /// count) and emitting the sending-side `ShardOp` trace event.
    /// Messages to shards the watchdog declared dead are dropped silently:
    /// every ktk send is either fire-and-forget or tracked by a pending
    /// request that the watchdog already failed.
    pub(super) fn ktk_send(&self, ctx: &ShardCtx, dst: u32, msg: &KtkMsg) {
        if ctx.dead.borrow().contains(&dst) {
            return;
        }
        let free = self.state.free_pes() as u32;
        self.trace(self.pe, Component::Kernel, || EventKind::ShardOp {
            shard: ctx.id,
            peer: dst,
            op: msg.name().to_string(),
        });
        (ctx.send)(dst, msg.to_bytes(ctx.id, free));
    }

    /// Sends a request to shard `dst` and waits for its reply, bounded
    /// only under an armed fault plane ([`Kernel::reply_deadline`]). One
    /// attempt converts silence into `Unreachable`: unlike a service
    /// forward there is no retry, because cross-shard requests are not
    /// idempotent (placement allocates). The dead check comes right before
    /// the open, with no await between them: a peer declared dead earlier
    /// is refused, and one declared later finds the request open for
    /// `on_peer_shard_dead` to fail.
    pub(super) async fn ktk_request(
        &self,
        ctx: &Rc<ShardCtx>,
        dst: u32,
        build: impl FnOnce(u64) -> KtkMsg,
    ) -> Result<KtkReply> {
        self.sim.sleep(costs::KTK_FORWARD).await;
        if ctx.dead.borrow().contains(&dst) {
            return Err(Error::new(Code::Unreachable).with_msg(format!("shard {dst} is dead")));
        }
        let req_id = ctx.requests.open(dst);
        self.ktk_send(ctx, dst, &build(req_id));
        let deadline = self.reply_deadline(costs::KTK_TIMEOUT);
        ctx.requests
            .wait(&self.sim, req_id, deadline)
            .await
            .ok_or_else(|| Error::new(Code::Unreachable).with_msg("peer kernel did not reply"))
    }

    /// Feeds one raw ktk message into this kernel. Transports call this on
    /// the receiving side: requests are dispatched to detached handler
    /// tasks — the serial syscall loop never blocks on a peer, so two
    /// shards forwarding to each other cannot deadlock — and replies are
    /// routed straight to the waiting request.
    pub fn ktk_deliver(&self, bytes: &[u8]) {
        let Some(ctx) = self.shard_ctx() else { return };
        let Ok((src, free, msg)) = KtkMsg::from_bytes(bytes) else {
            self.count(self.counters.ktk_bad_messages);
            return;
        };
        // Piggybacked load feed: every message refreshes the sender's
        // advertised free-PE count (unless the watchdog declared it dead).
        if !ctx.dead.borrow().contains(&src) {
            ctx.peer_free.borrow_mut().insert(src, free as usize);
        }
        match msg {
            KtkMsg::Hello => {}
            KtkMsg::Reply { req_id, reply } => ctx.requests.answer(req_id, reply),
            msg => {
                self.trace(self.pe, Component::Kernel, || EventKind::ShardOp {
                    shard: ctx.id,
                    peer: src,
                    op: msg.name().to_string(),
                });
                let k = self.clone();
                let name = TaskName::tagged("ktk-", msg.name(), "@PE", self.pe.raw().into());
                self.sim.spawn_detached(name, async move {
                    k.ktk_handle(&ctx, src, msg).await;
                });
            }
        }
    }

    /// Handles one peer request: counted as a kernel operation of this
    /// shard, charged the dispatch share, and answered with a `Reply`
    /// (unless fire-and-forget).
    async fn ktk_handle(&self, ctx: &Rc<ShardCtx>, src: u32, msg: KtkMsg) {
        self.sim.sleep(costs::KTK_DISPATCH).await;
        self.count(self.counters.ktk_requests);
        let outcome = match msg {
            KtkMsg::PlaceVpe { req_id, name, want } => {
                Some((req_id, self.ktk_place_vpe(src, &name, want).await))
            }
            KtkMsg::StartVpe { req_id, vpe } => Some((req_id, self.ktk_start_vpe(vpe))),
            KtkMsg::WaitVpe { req_id, vpe } => Some((req_id, self.ktk_wait_vpe(vpe).await)),
            KtkMsg::RevokeVpe { vpe } => {
                self.ktk_revoke_vpe(VpeId::new(vpe));
                None
            }
            KtkMsg::DelegateCap {
                req_id,
                vpe,
                sel,
                desc,
            } => Some((req_id, self.ktk_delegate_cap(vpe, sel, &desc).await)),
            KtkMsg::RevokeCap { vpe, sel } => {
                self.revoke_charged((VpeId::new(vpe), SelId::new(sel)))
                    .await;
                None
            }
            KtkMsg::OpenSess { req_id, name, arg } => {
                Some((req_id, self.ktk_open_sess(&name, arg).await))
            }
            KtkMsg::ExchangeSess {
                req_id,
                serv,
                ident,
                obtain,
                cap_count,
                descs,
                args,
            } => Some((
                req_id,
                self.ktk_exchange_sess(&serv, ident, obtain, cap_count, &descs, &args)
                    .await,
            )),
            // Routed in `ktk_deliver`, never dispatched here.
            KtkMsg::Hello | KtkMsg::Reply { .. } => None,
        };
        if let Some((req_id, result)) = outcome {
            let reply = result.unwrap_or_else(|e| KtkReply::err(e.code()));
            self.ktk_send(ctx, src, &KtkMsg::Reply { req_id, reply });
        }
    }

    /// Places a VPE for a peer shard (`PlaceVpe`): allocation, object
    /// setup, and the syscall channel work exactly like a local
    /// `CreateVpe`, but the parent lives in the requesting shard, so the
    /// child's self capability is a local root — the parent edge is the
    /// requester's `RemoteVpe` proxy, cut via `RevokeVpe`. The proxy names
    /// the VPE, so its record outlives its exit until `RevokeVpe` arrives,
    /// or until the requester `src` is declared dead.
    async fn ktk_place_vpe(&self, src: u32, name: &str, want: PeRequest) -> Result<KtkReply> {
        self.sim.sleep(costs::CREATE_VPE).await;
        let (id, pe) = self.state.place_for(src, name, want)?;
        self.setup_sysc_channel(id, pe)?;
        self.charge_ep_config(pe).await;
        Ok(KtkReply::ok(u64::from(id.raw()), u64::from(pe.raw())))
    }

    /// The local VPE a peer shard's proxy refers to.
    fn proxied_vpe(&self, vpe: u32) -> Result<Rc<RefCell<VpeObj>>> {
        self.state
            .vpe(VpeId::new(vpe))
            .ok_or_else(|| Error::new(Code::VpeGone).with_msg("unknown remote VPE"))
    }

    fn ktk_start_vpe(&self, vpe: u32) -> Result<KtkReply> {
        self.proxied_vpe(vpe)?.borrow_mut().start()?;
        Ok(KtkReply::ok(0, 0))
    }

    async fn ktk_wait_vpe(&self, vpe: u32) -> Result<KtkReply> {
        let vpe_obj = self.proxied_vpe(vpe)?;
        let code = wait_exit(&vpe_obj).await;
        // The exit code travels as its i64 bit pattern.
        Ok(KtkReply::ok(code as u64, 0))
    }

    /// The requester's proxy is gone (`RevokeVpe`): the VPE dies if it
    /// still runs, and its record is freed, since nothing names it any
    /// more (every local capability to it derives from its self
    /// capability, which the teardown revoked). A repeated `RevokeVpe`,
    /// one per revoked copy of the proxy, finds no record. A requester's
    /// death ends the proxy's name the same way ([`Kernel::on_peer_shard_dead`]).
    fn ktk_revoke_vpe(&self, vpe: VpeId) {
        if self.state.drop_proxy_name(vpe) {
            self.destroy_vpe(vpe, -1);
        }
    }

    async fn ktk_delegate_cap(&self, vpe: u32, sel: u32, desc: &CapDesc) -> Result<KtkReply> {
        self.sim.sleep(costs::CAP_OP).await;
        self.install_desc(VpeId::new(vpe), SelId::new(sel), desc)?;
        Ok(KtkReply::ok(0, 0))
    }

    async fn ktk_open_sess(&self, name: &str, arg: u64) -> Result<KtkReply> {
        let serv = self.state.find_service(name)?;
        let reply = self
            .forward_to_service(&serv, ServiceRequest::Open { arg })
            .await?;
        Ok(KtkReply::ok(reply.ident, 0))
    }

    /// A capability exchange forwarded by a peer shard: runs the local
    /// service protocol and converts the capability legs to descriptors —
    /// obtain hands the service's capabilities back as descriptors,
    /// delegate installs the carried descriptors into the service owner's
    /// table.
    async fn ktk_exchange_sess(
        &self,
        serv_name: &str,
        ident: u64,
        obtain: bool,
        cap_count: u32,
        descs: &[CapDesc],
        args: &[u8],
    ) -> Result<KtkReply> {
        let serv = self.state.find_service(serv_name)?;
        let reply = self
            .forward_to_service(
                &serv,
                ServiceRequest::Exchange {
                    ident,
                    obtain,
                    cap_count,
                    args: args.to_vec(),
                },
            )
            .await?;
        if reply.caps.len() as u32 > cap_count {
            return Err(Error::new(Code::BadMessage));
        }
        let owner = serv.owner;
        let mut caps = Vec::new();
        if obtain {
            for serv_sel in &reply.caps {
                caps.push(Self::desc_of_obj(&self.state.obj((owner, *serv_sel))?)?);
            }
        } else {
            if reply.caps.len() > descs.len() {
                return Err(Error::new(Code::BadMessage));
            }
            for (i, serv_sel) in reply.caps.iter().enumerate() {
                self.install_desc(owner, *serv_sel, &descs[i])?;
            }
        }
        Ok(KtkReply {
            caps,
            args: reply.args,
            ..KtkReply::ok(0, 0)
        })
    }

    /// Cross-shard `CreateVpe` spill-over (requesting side): tries peer
    /// shards most-free-first until one admits the VPE, then installs a
    /// `RemoteVpe` proxy plus the child-SPM memory gate derived from it —
    /// the same two capabilities a local `CreateVpe` yields, so the
    /// caller's session keeps working transparently.
    pub(super) async fn create_vpe_remote(
        &self,
        ctx: &Rc<ShardCtx>,
        cap: CapRef,
        mem_dst: SelId,
        want: PeRequest,
        name: &str,
    ) -> Result<Vec<u8>> {
        let mut tried: BTreeSet<u32> = BTreeSet::new();
        loop {
            let peer = {
                let free = ctx.peer_free.borrow();
                ktk::choose_peer(
                    free.iter()
                        .filter(|(s, _)| !tried.contains(*s))
                        .map(|(s, f)| (*s, *f)),
                )
            };
            let Some(peer) = peer else {
                return Err(Error::new(Code::NoFreePe)
                    .with_msg(format!("no shard can place request {want:?}")));
            };
            tried.insert(peer);
            let reply = self
                .ktk_request(ctx, peer, |req_id| KtkMsg::PlaceVpe {
                    req_id,
                    name: name.to_string(),
                    want,
                })
                .await?;
            match reply.into_result() {
                Ok(r) => {
                    let vpe_raw = r.a as u32;
                    let pe = PeId::new(r.b as u32);
                    let proxy = RemoteVpeObj {
                        shard: peer,
                        vpe: vpe_raw,
                        pe,
                    };
                    // The caller may have lost a selector or its table meanwhile.
                    if let Err(e) = self.state.mint_remote_vpe(cap, mem_dst, proxy) {
                        // The placement would leak on the peer; take it back.
                        self.ktk_send(ctx, peer, &KtkMsg::RevokeVpe { vpe: vpe_raw });
                        return Err(e);
                    }
                    self.count(self.counters.remote_placements);
                    let mut os = OStream::new();
                    os.push_u32(vpe_raw).push_u32(pe.raw());
                    return Ok(os.into_bytes());
                }
                // The peer's advertised load was stale; try the next one.
                Err(e) if e.code() == Code::NoFreePe => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Remote-mount leg of `OpenSess` (requesting side): asks each live
    /// peer shard, ascending, for the named service and installs a
    /// `RemoteSess` proxy on the first hit.
    pub(super) async fn open_sess_remote(
        &self,
        ctx: &Rc<ShardCtx>,
        caller: VpeId,
        dst: SelId,
        name: &str,
        arg: u64,
        local_err: Error,
    ) -> Result<Vec<u8>> {
        for peer in ctx.alive_peers() {
            let reply = self
                .ktk_request(ctx, peer, |req_id| KtkMsg::OpenSess {
                    req_id,
                    name: name.to_string(),
                    arg,
                })
                .await
                .and_then(KtkReply::into_result);
            match reply {
                Ok(r) => {
                    let sess = Rc::new(RemoteSessObj {
                        shard: peer,
                        serv: name.to_string(),
                        ident: r.a,
                    });
                    self.state
                        .mint((caller, dst), KObject::RemoteSess(sess), None)?;
                    return Ok(Vec::new());
                }
                // This peer does not host it either; keep looking.
                Err(e) if e.code() == Code::InvService => {}
                Err(e) => return Err(e),
            }
        }
        Err(local_err)
    }

    /// Cross-shard `ExchangeSess` (requesting side): ships the exchange to
    /// the shard hosting the service; obtained capabilities come back as
    /// descriptors and are installed into the caller's chosen selectors,
    /// delegated ones are descriptor-ized here and installed remotely.
    pub(super) async fn exchange_sess_remote(
        &self,
        caller: VpeId,
        rs: &Rc<RemoteSessObj>,
        obtain: bool,
        caps: &[SelId],
        args: &[u8],
    ) -> Result<Vec<u8>> {
        let ctx = self.shard_ctx_or_err()?;
        let mut descs = Vec::new();
        if !obtain {
            for sel in caps {
                descs.push(Self::desc_of_obj(&self.state.obj((caller, *sel))?)?);
            }
        }
        let reply = self
            .ktk_request(&ctx, rs.shard, |req_id| KtkMsg::ExchangeSess {
                req_id,
                serv: rs.serv.clone(),
                ident: rs.ident,
                obtain,
                cap_count: caps.len() as u32,
                descs,
                args: args.to_vec(),
            })
            .await?
            .into_result()?;
        if reply.caps.len() > caps.len() {
            return Err(Error::new(Code::BadMessage));
        }
        // Obtain direction: install what the service handed back.
        for (i, desc) in reply.caps.iter().enumerate() {
            self.install_desc(caller, caps[i], desc)?;
        }
        Ok(reply.args)
    }

    /// Converts a local capability into a descriptor that can cross a
    /// shard boundary. Only fully hardware-resolved objects qualify:
    /// memory regions and activated send gates. Receive gates are refused
    /// exactly like in VPE-to-VPE delegation (§4.5.4).
    pub(super) fn desc_of_obj(obj: &KObject) -> Result<CapDesc> {
        match obj {
            KObject::MGate(mg) => Ok(CapDesc::Mem {
                pe: mg.pe.raw(),
                offset: mg.offset,
                size: mg.size,
                perm: mg.perm,
            }),
            KObject::SGate(sg) => {
                let Some((rpe, rep)) = *sg.rgate.activation.borrow() else {
                    return Err(Error::new(Code::NotSup)
                        .with_msg("only activated send gates can cross shards"));
                };
                Ok(CapDesc::SGate {
                    pe: rpe.raw(),
                    ep: rep.raw(),
                    label: sg.label,
                    credits: sg.credits.unwrap_or(0),
                    max_payload: sg.rgate.max_payload() as u32,
                })
            }
            KObject::XSGate(x) => Ok(CapDesc::SGate {
                pe: x.pe.raw(),
                ep: x.ep.raw(),
                label: x.label,
                credits: x.credits.unwrap_or(0),
                max_payload: x.max_payload as u32,
            }),
            KObject::RGate(_) => {
                Err(Error::new(Code::NotSup).with_msg("receive capabilities are not delegable"))
            }
            other => Err(Error::new(Code::NotSup)
                .with_msg(format!("a {} capability cannot cross shards", other.kind()))),
        }
    }

    /// Installs a descriptor received from a peer shard as a root
    /// capability in `(vpe, sel)`.
    fn install_desc(&self, vpe: VpeId, sel: SelId, desc: &CapDesc) -> Result<()> {
        let obj = match desc {
            CapDesc::Mem {
                pe,
                offset,
                size,
                perm,
            } => KObject::MGate(Rc::new(MGateObj {
                pe: PeId::new(*pe),
                offset: *offset,
                size: *size,
                perm: *perm,
                // The region's allocator lives with the origin shard.
                owned: false,
            })),
            CapDesc::SGate {
                pe,
                ep,
                label,
                credits,
                max_payload,
            } => KObject::XSGate(Rc::new(XSGateObj {
                pe: PeId::new(*pe),
                ep: EpId::new(*ep),
                label: *label,
                credits: if *credits == 0 { None } else { Some(*credits) },
                max_payload: *max_payload as usize,
            })),
        };
        self.state.mint((vpe, sel), obj, None)
    }

    /// Severs a dead peer shard: marks it dead, fails the in-flight
    /// requests addressed to it with `Unreachable`, drops its delegation
    /// edges, revokes every proxy capability pointing into it (so
    /// cross-shard access is actually cut, not just orphaned), and reclaims
    /// every VPE placed for it, as the `RevokeVpe` it owed would have.
    pub(super) fn on_peer_shard_dead(&self, peer: u32) {
        let Some(ctx) = self.shard_ctx() else { return };
        if !ctx.dead.borrow_mut().insert(peer) {
            return;
        }
        ctx.peer_free.borrow_mut().remove(&peer);
        ctx.requests.fail_to(peer, KtkReply::err(Code::Unreachable));
        ctx.remote_children
            .borrow_mut()
            .values_mut()
            .for_each(|edges| edges.retain(|(s, _, _)| *s != peer));
        let refs = self.state.caps_where(|obj| match obj {
            KObject::RemoteVpe(r) => r.shard == peer,
            KObject::RemoteSess(r) => r.shard == peer,
            _ => false,
        });
        self.trace(self.pe, Component::Kernel, || EventKind::Recovery {
            action: format!("dead_shard:{peer}"),
            attempt: 0,
        });
        for cap in refs {
            self.revoke_cap(cap);
        }
        for vpe in self.state.vpes_where(|v| v.placed_for == Some(peer)) {
            self.ktk_revoke_vpe(vpe);
        }
    }
}
