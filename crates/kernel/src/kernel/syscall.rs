//! The syscall loop: one table that dispatches every [`Syscall`], the
//! handlers behind it, and forwarding to services (§4.5.3).

use std::cell::RefCell;
use std::rc::Rc;

use m3_base::cfg::SPM_DATA_SIZE;
use m3_base::error::{Code, Error, Result};
use m3_base::marshal::OStream;
use m3_base::{EpId, Perm, SelId, VpeId};
use m3_dtu::{EpConfig, Message};
use m3_sched::Admission;
use m3_sim::{Component, Event, EventKind, Notify, TaskName};

use crate::cap::{Capability, KObject, MGateObj, RGateObj, SGateObj};
use crate::costs;
use crate::ktk::KtkMsg;
use crate::protocol::{std_eps, PeRequest, ServiceReply, ServiceRequest, Syscall, SyscallReply};
use crate::service::{ServObj, SessObj};
use crate::vpe::wait_exit;

use super::{keps, take_when_ready, Kernel, RINGBUF_SPM_BUDGET};

pub(super) struct PendingReply {
    slot: Rc<RefCell<Option<ServiceReply>>>,
    ready: Notify,
}

/// The task-name prefix of a syscall that may block, `None` for one that
/// completes inline. A blocking call runs in a detached task so the kernel
/// keeps serving; all others run serially on the syscall loop, which is
/// what makes a single kernel instance a measurable bottleneck in the §5.7
/// scalability experiment.
fn detach_prefix(call: &Syscall) -> Option<&'static str> {
    match call {
        Syscall::VpeWait { .. } => Some("kernel-wait-VPE"),
        Syscall::OpenSess { .. } => Some("kernel-open-VPE"),
        Syscall::ExchangeSess { .. } => Some("kernel-xchg-VPE"),
        // Defers the reply until the receive gate is activated (§4.5.4).
        Syscall::Activate { .. } => Some("kernel-activate-VPE"),
        Syscall::Noop
        | Syscall::CreateRGate { .. }
        | Syscall::CreateSGate { .. }
        | Syscall::AllocMem { .. }
        | Syscall::DeriveMem { .. }
        | Syscall::CreateVpe { .. }
        | Syscall::VpeStart { .. }
        | Syscall::CreateSrv { .. }
        | Syscall::Exchange { .. }
        | Syscall::Revoke { .. }
        | Syscall::Exit { .. }
        | Syscall::PageFault { .. }
        | Syscall::Unmap { .. } => None,
    }
}

impl Kernel {
    pub(super) async fn main_loop(&self) {
        loop {
            let msg = match self.dtu.recv(keps::SYSC).await {
                Ok(m) => m,
                Err(_) => return,
            };
            // Free the slot right away; the reply info lives in `msg`.
            let _ = self.dtu.ack(keps::SYSC);
            self.sim.sleep(costs::DISPATCH).await;
            // Counted on this kernel's PE, like the ktk requests served for
            // peers in `ktk_deliver`, so a sharded multikernel's throughput
            // sums per shard (fig10).
            self.count(self.counters.syscalls);

            let caller = VpeId::new(msg.header.label as u32);
            let call = match Syscall::from_bytes(&msg.payload) {
                Ok(c) => c,
                Err(e) => {
                    self.reply_to(&msg, Err(e)).await;
                    continue;
                }
            };
            let at = self.sim.now();
            self.sim.tracer().record_with(|| Event {
                at,
                dur: m3_base::Cycles::ZERO,
                pe: Some(self.pe),
                comp: Component::Kernel,
                kind: EventKind::Syscall {
                    opcode: call.name().to_string(),
                },
            });
            match detach_prefix(&call) {
                Some(prefix) => {
                    let k = self.clone();
                    self.sim.spawn_detached(
                        TaskName::numbered(prefix, caller.raw().into()),
                        async move { k.dispatch(&msg, caller, call).await },
                    );
                }
                None => self.dispatch(&msg, caller, call).await,
            }
        }
    }

    /// The syscall table: runs `call` on behalf of `caller` and answers
    /// `msg` with the outcome.
    async fn dispatch(&self, msg: &Message, caller: VpeId, call: Syscall) {
        let result = match call {
            Syscall::Noop => Ok(Vec::new()),
            Syscall::CreateRGate {
                dst,
                slots,
                slot_size,
            } => self.sys_create_rgate(caller, dst, slots, slot_size).await,
            Syscall::CreateSGate {
                dst,
                rgate,
                label,
                credits,
            } => {
                self.sys_create_sgate(caller, dst, rgate, label, credits)
                    .await
            }
            Syscall::AllocMem { dst, size, perm } => {
                self.sys_alloc_mem(caller, dst, size, perm).await
            }
            Syscall::DeriveMem {
                dst,
                src,
                offset,
                size,
                perm,
            } => {
                self.sys_derive_mem(caller, dst, src, offset, size, perm)
                    .await
            }
            Syscall::CreateVpe {
                dst,
                mem_dst,
                pe,
                name,
            } => self.sys_create_vpe(caller, dst, mem_dst, pe, &name).await,
            Syscall::VpeStart { vpe } => self.sys_vpe_start(caller, vpe).await,
            Syscall::VpeWait { vpe } => self.sys_vpe_wait(caller, vpe).await,
            Syscall::Activate { vpe, ep, gate } => self.sys_activate(caller, vpe, ep, gate).await,
            Syscall::CreateSrv { dst, rgate, name } => {
                self.sys_create_srv(caller, dst, rgate, &name).await
            }
            Syscall::OpenSess { dst, name, arg } => {
                self.sys_open_sess(caller, dst, &name, arg).await
            }
            Syscall::ExchangeSess {
                sess,
                obtain,
                caps,
                args,
            } => {
                self.sys_exchange_sess(caller, sess, obtain, &caps, &args)
                    .await
            }
            Syscall::Exchange {
                vpe,
                own,
                other,
                obtain,
            } => self.sys_exchange(caller, vpe, own, other, obtain).await,
            Syscall::Revoke { sel } => self.sys_revoke(caller, sel).await,
            Syscall::Exit { code } => {
                // No reply: the VPE is gone.
                self.sys_exit(caller, code);
                return;
            }
            Syscall::PageFault { dst, virt, access } => {
                self.sys_page_fault(caller, dst, virt, access).await
            }
            Syscall::Unmap { virt } => self.sys_unmap(caller, virt).await,
        };
        self.reply_to(msg, result).await;
    }

    /// Answers a syscall: the one place a handler's result becomes a
    /// [`SyscallReply`].
    async fn reply_to(&self, msg: &Message, result: Result<Vec<u8>>) {
        let reply = match result {
            Ok(data) => SyscallReply::ok_with(data),
            Err(e) => SyscallReply::err(e.code()),
        };
        self.sim.sleep(costs::REPLY).await;
        let _ = self.dtu.reply(msg, &reply.to_bytes()).await;
    }

    /// Routes service replies (arriving at EP1) to the pending request.
    pub(super) async fn reply_pump(&self) {
        loop {
            let msg = match self.dtu.recv(keps::SERV_REPLY).await {
                Ok(m) => m,
                Err(_) => return,
            };
            let _ = self.dtu.ack(keps::SERV_REPLY);
            let req_id = msg.header.label;
            let pending = self.state.borrow_mut().pending.remove(&req_id);
            if let Some(p) = pending {
                let reply = ServiceReply::from_bytes(&msg.payload)
                    .unwrap_or_else(|e| ServiceReply::err(e.code()));
                *p.slot.borrow_mut() = Some(reply);
                p.ready.notify_all();
            }
        }
    }

    async fn sys_create_rgate(
        &self,
        caller: VpeId,
        dst: SelId,
        slots: u32,
        slot_size: u32,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CAP_OP).await;
        if slots == 0 || slot_size as usize <= m3_base::cfg::MSG_HEADER_SIZE {
            return Err(Error::new(Code::InvArgs).with_msg("bad ring buffer geometry"));
        }
        let gate = RGateObj::new(caller, slots, slot_size);
        let mut st = self.state.borrow_mut();
        Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::RGate(gate)))?;
        st.tree.insert_root((caller, dst));
        Ok(Vec::new())
    }

    async fn sys_create_sgate(
        &self,
        caller: VpeId,
        dst: SelId,
        rgate: SelId,
        label: u64,
        credits: u32,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CAP_OP).await;
        let mut st = self.state.borrow_mut();
        let rgate_obj = match &Self::table(&mut st, caller)?.get(rgate)?.obj {
            KObject::RGate(g) => g.clone(),
            other => {
                return Err(Error::new(Code::InvCap)
                    .with_msg(format!("expected rgate, found {}", other.kind())))
            }
        };
        let sgate = Rc::new(SGateObj {
            rgate: rgate_obj,
            label,
            credits: if credits == 0 { None } else { Some(credits) },
        });
        Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::SGate(sgate)))?;
        st.tree.insert_child((caller, rgate), (caller, dst));
        Ok(Vec::new())
    }

    async fn sys_alloc_mem(
        &self,
        caller: VpeId,
        dst: SelId,
        size: u64,
        perm: Perm,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::ALLOC_MEM).await;
        let mut st = self.state.borrow_mut();
        let offset = st.mem.alloc(size)?;
        let mgate = Rc::new(MGateObj {
            pe: self.platform.dram_pe(),
            offset,
            size,
            perm,
            owned: true,
        });
        if let Err(e) =
            Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::MGate(mgate)))
        {
            st.mem.free(offset, size);
            return Err(e);
        }
        st.tree.insert_root((caller, dst));
        let mut os = OStream::new();
        os.push_u64(offset);
        Ok(os.into_bytes())
    }

    async fn sys_derive_mem(
        &self,
        caller: VpeId,
        dst: SelId,
        src: SelId,
        offset: u64,
        size: u64,
        perm: Perm,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CAP_OP).await;
        let mut st = self.state.borrow_mut();
        let parent = match &Self::table(&mut st, caller)?.get(src)?.obj {
            KObject::MGate(m) => m.clone(),
            other => {
                return Err(Error::new(Code::InvCap)
                    .with_msg(format!("expected mgate, found {}", other.kind())))
            }
        };
        if !parent.perm.contains(perm) {
            return Err(Error::new(Code::NoPerm).with_msg("derived permissions exceed source"));
        }
        let end = offset
            .checked_add(size)
            .ok_or_else(|| Error::new(Code::InvArgs).with_msg("overflow"))?;
        if end > parent.size {
            return Err(Error::new(Code::InvArgs).with_msg("derived range exceeds source"));
        }
        let child = Rc::new(MGateObj {
            pe: parent.pe,
            offset: parent.offset + offset,
            size,
            perm,
            owned: false,
        });
        Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::MGate(child)))?;
        st.tree.insert_child((caller, src), (caller, dst));
        Ok(Vec::new())
    }

    async fn sys_create_vpe(
        &self,
        caller: VpeId,
        dst: SelId,
        mem_dst: SelId,
        req: PeRequest,
        name: &str,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CREATE_VPE).await;
        // Placement and capability setup run under one state borrow; an
        // out-of-PEs outcome breaks out of the block so the ktk spill-over
        // round trip awaits with the borrow released.
        let placed = 'placed: {
            let mut st = self.state.borrow_mut();
            let caller_pe = st
                .vpes
                .get(&caller)
                .ok_or_else(|| Error::new(Code::VpeGone))?
                .borrow()
                .pe;
            let caller_ty = st.pemng.desc(caller_pe).ty;
            let pe = match st.pemng.alloc(req, caller_ty) {
                // Overcommit: with every matching PE taken, time-multiplex
                // the least-loaded one instead of failing (§4.1/§7 future
                // work: the kernel suspends VPEs via DTU state save/restore).
                Err(e) if e.code() == Code::NoFreePe && self.cfg.overcommit => {
                    self.pick_overcommit_pe(&st, req, caller_ty)
                }
                other => other,
            };
            let pe = match pe {
                Ok(pe) => pe,
                Err(e) => break 'placed Err((e, caller_ty)),
            };
            let (id, vpe) = st.new_vpe(name, pe)?;
            // The caller owns the root VPE capability; the child's self
            // capability (selector 0) derives from it, so revoking the
            // parent's handle resets the child — not the other way around.
            Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::Vpe(vpe)))?;
            st.tree.insert_root((caller, dst));
            st.tree.insert_child((caller, dst), (id, SelId::new(0)));
            let mgate = Rc::new(MGateObj {
                pe,
                offset: 0,
                size: SPM_DATA_SIZE as u64,
                perm: Perm::RW,
                owned: false,
            });
            Self::table(&mut st, caller)?
                .insert(mem_dst, Capability::new(KObject::MGate(mgate)))?;
            st.tree.insert_root((caller, mem_dst));
            // In overcommit mode every multiplexable child joins its PE's
            // run queue (accelerators and pinned PEs stay exclusive). The
            // PE's DTU arrival notify doubles as the scheduler wake signal.
            let mut queued = false;
            if self.cfg.overcommit
                && !st.pemng.desc(pe).is_fft_accel()
                && !self.pinned.borrow().contains(&pe)
            {
                let wake = self.ktok.arrival_notify(pe)?;
                if self.sched.borrow_mut().admit(id, pe, wake) == Admission::Queued {
                    queued = true;
                }
            }
            Ok((id, pe, queued))
        };
        let (id, pe, queued) = match placed {
            Ok(t) => t,
            // Sharded multikernel (§7): out of PEs locally, forward the
            // placement to the peer shard with the most free PEs; the
            // returned capabilities are delegated back so the caller's
            // session keeps working transparently.
            Err((e, caller_ty)) => {
                if e.code() == Code::NoFreePe {
                    if let Some(ctx) = self.shard_ctx() {
                        return self
                            .create_vpe_remote(&ctx, caller, dst, mem_dst, req, caller_ty, name)
                            .await;
                    }
                }
                return Err(e);
            }
        };
        if queued {
            // The PE is occupied: the channel goes into the VPE's DTU save
            // area and materializes at its first restore.
            self.stash_sysc_channel(id, pe)?;
        } else {
            self.setup_sysc_channel(id, pe)?;
            if self.sched.borrow().manages(id) {
                self.ktok.set_current_ctx(pe, u64::from(id.raw()))?;
                self.resumed_at.borrow_mut().insert(pe, self.sim.now());
            }
        }
        // Charge the remote EP configuration packets.
        self.charge_ep_config(pe).await;
        let mut os = OStream::new();
        os.push_u32(id.raw()).push_u32(pe.raw());
        Ok(os.into_bytes())
    }

    async fn sys_vpe_start(&self, caller: VpeId, vpe: SelId) -> Result<Vec<u8>> {
        let target = {
            let mut st = self.state.borrow_mut();
            Self::table(&mut st, caller)?.get(vpe)?.obj.clone()
        };
        match target {
            KObject::Vpe(vpe_obj) => vpe_obj.borrow_mut().start()?,
            // A remotely placed child is started by its own shard's kernel.
            KObject::RemoteVpe(r) => {
                let ctx = self.shard_ctx_or_err()?;
                self.ktk_request(&ctx, r.shard, |req_id| KtkMsg::StartVpe {
                    req_id,
                    vpe: r.vpe,
                })
                .await?
                .into_result()?;
            }
            other => {
                return Err(Error::new(Code::InvCap)
                    .with_msg(format!("expected vpe, found {}", other.kind())))
            }
        }
        Ok(Vec::new())
    }

    async fn sys_vpe_wait(&self, caller: VpeId, vpe: SelId) -> Result<Vec<u8>> {
        let target = {
            let mut st = self.state.borrow_mut();
            Self::table(&mut st, caller)?.get(vpe)?.obj.clone()
        };
        let code = match target {
            KObject::Vpe(v) => wait_exit(&v).await,
            // Wait on a remotely placed child: its shard's kernel holds
            // the exit code and replies once the VPE is gone.
            KObject::RemoteVpe(r) => {
                let ctx = self.shard_ctx_or_err()?;
                let reply = self
                    .ktk_request(&ctx, r.shard, |req_id| KtkMsg::WaitVpe {
                        req_id,
                        vpe: r.vpe,
                    })
                    .await?
                    .into_result()?;
                reply.a as i64
            }
            _ => return Err(Error::new(Code::InvCap)),
        };
        let mut os = OStream::new();
        os.push_i64(code);
        Ok(os.into_bytes())
    }

    async fn sys_create_srv(
        &self,
        caller: VpeId,
        dst: SelId,
        rgate: SelId,
        name: &str,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CAP_OP).await;
        let (rgate_obj, kernel_ep) = {
            let mut st = self.state.borrow_mut();
            let rgate_obj = match &Self::table(&mut st, caller)?.get(rgate)?.obj {
                KObject::RGate(g) => g.clone(),
                other => {
                    return Err(Error::new(Code::InvCap)
                        .with_msg(format!("expected rgate, found {}", other.kind())))
                }
            };
            let ep = EpId::new(st.next_serv_ep);
            if ep.idx() >= m3_base::cfg::EP_COUNT {
                return Err(Error::new(Code::OutOfMem).with_msg("kernel out of service EPs"));
            }
            st.next_serv_ep += 1;
            (rgate_obj, ep)
        };
        let Some((rpe, rep)) = *rgate_obj.activation.borrow() else {
            return Err(Error::new(Code::InvArgs).with_msg("service rgate not activated"));
        };
        // The kernel-service channel, created at registration (§4.5.3).
        self.ktok.configure(
            self.pe,
            kernel_ep,
            EpConfig::Send {
                pe: rpe,
                ep: rep,
                label: 0,
                credits: None,
                max_payload: rgate_obj.max_payload(),
            },
        )?;
        let serv = Rc::new(ServObj {
            name: name.to_string(),
            owner: caller,
            rgate: rgate_obj,
            kernel_ep,
        });
        let mut st = self.state.borrow_mut();
        st.services.register(serv.clone())?;
        Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::Serv(serv)))?;
        st.tree.insert_root((caller, dst));
        Ok(Vec::new())
    }

    fn register_pending(&self) -> (u64, Notify, Rc<RefCell<Option<ServiceReply>>>) {
        let mut st = self.state.borrow_mut();
        let req_id = st.next_req;
        st.next_req += 1;
        let slot = Rc::new(RefCell::new(None));
        let ready = Notify::new();
        st.pending.insert(
            req_id,
            PendingReply {
                slot: slot.clone(),
                ready: ready.clone(),
            },
        );
        (req_id, ready, slot)
    }

    /// Forwards `req` to `serv` and returns the service's acceptance.
    ///
    /// # Errors
    ///
    /// A denial comes back as the service's error code; a service that
    /// stays silent under an armed fault plane as [`Code::Unreachable`].
    pub(super) async fn forward_to_service(
        &self,
        serv: &Rc<ServObj>,
        req: ServiceRequest,
    ) -> Result<ServiceReply> {
        self.sim.sleep(costs::SERVICE_FORWARD).await;
        // Clean path: with no fault plane armed the kernel trusts the
        // service to answer eventually (it is on-chip and kernel-started),
        // and this code is cycle-identical to the pre-fault kernel.
        if self.dtu.system().faults().is_none() {
            let (req_id, ready, slot) = self.register_pending();
            self.dtu
                .send(
                    serv.kernel_ep,
                    &req.to_bytes(),
                    Some((keps::SERV_REPLY, req_id)),
                )
                .await?;
            return take_when_ready(&slot, &ready).await.into_result();
        }
        // Faulted path: bound each attempt, retry a few times, then declare
        // the service unreachable. Each attempt registers a fresh request id
        // so a late reply to an abandoned attempt is simply ignored by the
        // reply pump.
        for attempt in 0..=costs::SERVICE_RETRIES {
            let (req_id, ready, slot) = self.register_pending();
            if let Err(e) = self
                .dtu
                .send(
                    serv.kernel_ep,
                    &req.to_bytes(),
                    Some((keps::SERV_REPLY, req_id)),
                )
                .await
            {
                self.state.borrow_mut().pending.remove(&req_id);
                return Err(e);
            }
            let deadline = self.sim.now() + costs::SERVICE_TIMEOUT;
            let wait = take_when_ready(&slot, &ready);
            match m3_sim::with_deadline(&self.sim, deadline, wait).await {
                Some(reply) => return reply.into_result(),
                None => {
                    self.state.borrow_mut().pending.remove(&req_id);
                    let at = self.sim.now();
                    self.sim.tracer().record_with(|| Event {
                        at,
                        dur: m3_base::Cycles::ZERO,
                        pe: Some(self.pe),
                        comp: Component::Kernel,
                        kind: EventKind::Recovery {
                            action: "service_retry".to_string(),
                            attempt,
                        },
                    });
                }
            }
        }
        Err(Error::new(Code::Unreachable).with_msg("service did not reply"))
    }

    async fn sys_open_sess(
        &self,
        caller: VpeId,
        dst: SelId,
        name: &str,
        arg: u64,
    ) -> Result<Vec<u8>> {
        // Bind before matching: the scrutinee temporary would otherwise
        // keep the state borrowed across the remote-lookup await.
        let found = self.state.borrow().services.find(name);
        let serv = match found {
            Ok(s) => s,
            // Remote mount (§7): a service another shard registered is
            // reachable through that shard's kernel. Unknown locally, try
            // the peers.
            Err(e) => match self.shard_ctx() {
                Some(ctx) => return self.open_sess_remote(&ctx, caller, dst, name, arg, e).await,
                None => return Err(e),
            },
        };
        let reply = self
            .forward_to_service(&serv, ServiceRequest::Open { arg })
            .await?;
        let sess = Rc::new(SessObj {
            serv,
            ident: reply.ident,
        });
        let mut st = self.state.borrow_mut();
        Self::table(&mut st, caller)?.insert(dst, Capability::new(KObject::Sess(sess)))?;
        st.tree.insert_root((caller, dst));
        Ok(Vec::new())
    }

    async fn sys_exchange_sess(
        &self,
        caller: VpeId,
        sess: SelId,
        obtain: bool,
        caps: &[SelId],
        args: &[u8],
    ) -> Result<Vec<u8>> {
        let target = {
            let mut st = self.state.borrow_mut();
            Self::table(&mut st, caller)?.get(sess)?.obj.clone()
        };
        let sess_obj = match target {
            KObject::Sess(s) => s,
            // A remotely opened session: the exchange runs through the
            // kernel of the shard that hosts the service.
            KObject::RemoteSess(r) => {
                return self
                    .exchange_sess_remote(caller, &r, obtain, caps, args)
                    .await;
            }
            _ => return Err(Error::new(Code::InvCap)),
        };
        let reply = self
            .forward_to_service(
                &sess_obj.serv,
                ServiceRequest::Exchange {
                    ident: sess_obj.ident,
                    obtain,
                    cap_count: caps.len() as u32,
                    args: args.to_vec(),
                },
            )
            .await?;
        if reply.caps.len() > caps.len() {
            return Err(Error::new(Code::BadMessage));
        }
        // Move the capabilities between the service owner and the caller.
        let owner = sess_obj.serv.owner;
        for (i, serv_sel) in reply.caps.iter().enumerate() {
            let (src, dst) = if obtain {
                ((owner, *serv_sel), (caller, caps[i]))
            } else {
                ((caller, caps[i]), (owner, *serv_sel))
            };
            self.copy_cap(src, dst)?;
        }
        Ok(reply.args)
    }

    async fn sys_exchange(
        &self,
        caller: VpeId,
        vpe: SelId,
        own: SelId,
        other: SelId,
        obtain: bool,
    ) -> Result<Vec<u8>> {
        self.sim.sleep(costs::CAP_OP).await;
        let target = {
            let mut st = self.state.borrow_mut();
            Self::table(&mut st, caller)?.get(vpe)?.obj.clone()
        };
        match target {
            KObject::Vpe(v) => {
                let peer = v.borrow().id;
                let (src, dst) = if obtain {
                    ((peer, other), (caller, own))
                } else {
                    ((caller, own), (peer, other))
                };
                self.copy_cap(src, dst)?;
                Ok(Vec::new())
            }
            // Cross-shard delegation (§4.5.3): the capability is converted
            // to a self-contained descriptor and installed by the child's
            // shard. Only delegation is supported — obtaining would need
            // the remote kernel to descriptor-ize an arbitrary capability
            // the child might not even have yet.
            KObject::RemoteVpe(r) => {
                if obtain {
                    return Err(Error::new(Code::NotSup)
                        .with_msg("cannot obtain from a remotely placed VPE"));
                }
                let ctx = self.shard_ctx_or_err()?;
                let desc = {
                    let mut st = self.state.borrow_mut();
                    let obj = Self::table(&mut st, caller)?.get(own)?.obj.clone();
                    Self::desc_of_obj(&obj)?
                };
                self.ktk_request(&ctx, r.shard, |req_id| KtkMsg::DelegateCap {
                    req_id,
                    vpe: r.vpe,
                    sel: other.raw(),
                    desc,
                })
                .await?
                .into_result()?;
                // Remember the edge so revoking the local capability cuts
                // the remote copy too.
                ctx.remote_children
                    .borrow_mut()
                    .entry((caller, own))
                    .or_default()
                    .push((r.shard, r.vpe, other.raw()));
                Ok(Vec::new())
            }
            other_obj => Err(Error::new(Code::InvCap)
                .with_msg(format!("expected vpe, found {}", other_obj.kind()))),
        }
    }

    async fn sys_activate(
        &self,
        caller: VpeId,
        vpe: SelId,
        ep: EpId,
        gate: SelId,
    ) -> Result<Vec<u8>> {
        if ep.idx() < std_eps::FIRST_FREE as usize || ep.idx() >= m3_base::cfg::EP_COUNT {
            return Err(Error::new(Code::InvEp));
        }
        self.sim.sleep(costs::ACTIVATE).await;
        let (target, caller_pe, obj) = {
            let mut st = self.state.borrow_mut();
            let table = Self::table(&mut st, caller)?;
            // Resolve the target VPE through the caller's capability.
            let (target, target_pe) = match &table.get(vpe)?.obj {
                KObject::Vpe(v) => (v.borrow().id, v.borrow().pe),
                // A remote child's endpoints belong to its own shard's
                // kernel; the parent delegates capabilities instead and the
                // child activates them itself.
                KObject::RemoteVpe(_) => return Err(Error::new(Code::NotSup)),
                _ => return Err(Error::new(Code::InvCap)),
            };
            (target, target_pe, table.get(gate)?.obj.clone())
        };

        let cfg = match &obj {
            KObject::SGate(sg) => {
                // Defer until the receive gate is activated somewhere
                // (§4.5.4: "defer the reply to the system call until the
                // receiver is ready to receive messages").
                loop {
                    let (act, activated) = {
                        let g = &sg.rgate;
                        (*g.activation.borrow(), g.activated.clone())
                    };
                    if let Some((rpe, rep)) = act {
                        break EpConfig::Send {
                            pe: rpe,
                            ep: rep,
                            label: sg.label,
                            credits: sg.credits,
                            max_payload: sg.rgate.max_payload(),
                        };
                    }
                    activated.wait().await;
                }
            }
            KObject::RGate(rg) => {
                if rg.activation.borrow().is_some() {
                    // Receive gates cannot be moved while senders exist.
                    return Err(Error::new(Code::NotSup));
                }
                // Validate the buffer placement in the target SPM: the
                // kernel ensures ring buffers do not overlap and fit the
                // protected region before enabling replies (§4.4.4).
                let bytes = rg.slots as u64 * rg.slot_size as u64;
                {
                    let mut st = self.state.borrow_mut();
                    let used = st.ringbuf_bytes.entry(caller_pe).or_insert(0);
                    if *used + bytes > RINGBUF_SPM_BUDGET {
                        return Err(Error::new(Code::OutOfMem));
                    }
                    *used += bytes;
                }
                *rg.activation.borrow_mut() = Some((caller_pe, ep));
                rg.activated.notify_all();
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

        self.ktok.configure(caller_pe, ep, cfg)?;
        self.charge_ep_config(caller_pe).await;
        // Record the activation for invalidation on revoke. A receive gate
        // pins its endpoint for good, so it also takes the endpoint out of
        // the record of the capability that held it before: revoking that
        // one must not tear down the ring buffer. Multiplexed memory and
        // send gates leave the old record in place; an invalidation of a
        // reused frame endpoint reaches the pager as an eviction, which
        // re-faults the page.
        {
            let mut st = self.state.borrow_mut();
            let prev = st.ep_owners.insert((target, ep), (caller, gate));
            if let (Some((v, s)), KObject::RGate(_)) = (prev, &obj) {
                if let Some(prev) = st.tables.get_mut(&v).and_then(|t| t.get_mut(s).ok()) {
                    prev.activations.retain(|a| *a != (caller_pe, ep));
                }
            }
            if let Ok(table) = Self::table(&mut st, caller) {
                if let Ok(cap) = table.get_mut(gate) {
                    cap.activations.push((caller_pe, ep));
                }
            }
        }
        Ok(Vec::new())
    }

    async fn sys_revoke(&self, caller: VpeId, sel: SelId) -> Result<Vec<u8>> {
        self.revoke_charged(caller, sel).await;
        Ok(Vec::new())
    }

    fn sys_exit(&self, caller: VpeId, code: i64) {
        let vpe_obj = {
            let st = self.state.borrow();
            st.vpes.get(&caller).cloned()
        };
        if let Some(vpe_obj) = vpe_obj {
            self.destroy_vpe(&vpe_obj, code);
        }
    }
}
