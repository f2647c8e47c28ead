//! The syscall loop: one table that dispatches every [`Syscall`], the
//! handlers behind it, and forwarding to services (§4.5.3).

use std::rc::Rc;

use m3_base::error::{Code, Error, Result};
use m3_base::marshal::OStream;
use m3_base::{EpId, Perm, SelId, VpeId};
use m3_dtu::Message;
use m3_sim::{Component, EventKind, TaskName};

use crate::cap::{KObject, MGateObj, RGateObj, SGateObj};
use crate::costs;
use crate::ktk::KtkMsg;
use crate::protocol::{std_eps, PeRequest, ServiceReply, ServiceRequest, Syscall, SyscallReply};
use crate::service::{ServObj, SessObj};

use super::state::{no_free_pe, Activation, VpeCap, MGATE, RGATE, VPE};
use super::{keps, Kernel};

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
            self.trace(self.pe, Component::Kernel, || EventKind::Syscall {
                opcode: call.name().to_string(),
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
            Syscall::Revoke { sel } => {
                self.revoke_charged((caller, sel)).await;
                Ok(Vec::new())
            }
            Syscall::Exit { code } => {
                // No reply: the VPE is gone.
                self.destroy_vpe(caller, code);
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

    /// Routes service replies (arriving at EP1) to their requests.
    pub(super) async fn reply_pump(&self) {
        loop {
            let msg = match self.dtu.recv(keps::SERV_REPLY).await {
                Ok(m) => m,
                Err(_) => return,
            };
            let _ = self.dtu.ack(keps::SERV_REPLY);
            let reply = ServiceReply::from_bytes(&msg.payload)
                .unwrap_or_else(|e| ServiceReply::err(e.code()));
            self.serv_requests.answer(msg.header.label, reply);
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
        self.state.mint((caller, dst), KObject::RGate(gate), None)?;
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
        let sgate = Rc::new(SGateObj {
            rgate: self.state.get((caller, rgate), RGATE)?,
            label,
            credits: if credits == 0 { None } else { Some(credits) },
        });
        let sgate = KObject::SGate(sgate);
        self.state
            .mint((caller, dst), sgate, Some((caller, rgate)))?;
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
        let offset = self.state.alloc_mem((caller, dst), size, perm)?;
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
        let parent = self.state.get((caller, src), MGATE)?;
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
        let child = KObject::MGate(child);
        self.state.mint((caller, dst), child, Some((caller, src)))?;
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
        let want = self.state.resolve(caller, req)?;
        let (cap, now) = (((caller, dst), mem_dst), self.sim.now());
        let placed = self.state.create_vpe(&self.ktok, cap, want, name, now);
        let (id, pe, admission) = match placed {
            // Sharded multikernel (§7): out of PEs locally, forward the
            // placement to the peer shard with the most free PEs; the
            // returned capabilities are delegated back so the caller's
            // session keeps working transparently.
            Err(e) if e.code() == Code::NoFreePe => match self.shard_ctx() {
                Some(ctx) => {
                    return self
                        .create_vpe_remote(&ctx, (caller, dst), mem_dst, want, name)
                        .await
                }
                None => return Err(no_free_pe(want)),
            },
            placed => placed?,
        };
        self.setup_sysc_channel(id, pe, admission)?;
        // Charge the remote EP configuration packets.
        self.charge_ep_config(pe).await;
        let mut os = OStream::new();
        os.push_u32(id.raw()).push_u32(pe.raw());
        Ok(os.into_bytes())
    }

    async fn sys_vpe_start(&self, caller: VpeId, vpe: SelId) -> Result<Vec<u8>> {
        match self.state.get((caller, vpe), VPE)? {
            VpeCap::Local(id) => self.state.start_vpe(id)?,
            // A remotely placed child is started by its own shard's kernel.
            VpeCap::Remote(r) => {
                let ctx = self.shard_ctx_or_err()?;
                self.ktk_request(&ctx, r.shard, |req_id| KtkMsg::StartVpe {
                    req_id,
                    vpe: r.vpe,
                })
                .await?
                .into_result()?;
            }
        }
        Ok(Vec::new())
    }

    async fn sys_vpe_wait(&self, caller: VpeId, vpe: SelId) -> Result<Vec<u8>> {
        let code = match self.state.get((caller, vpe), VPE)? {
            VpeCap::Local(id) => self.wait_exit(id).await?,
            // Wait on a remotely placed child: its shard's kernel holds
            // the exit code and replies once the VPE is gone.
            VpeCap::Remote(r) => {
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
        let (kernel_ep, channel) = self.state.create_srv((caller, dst), rgate, name)?;
        self.ktok.configure(self.pe, kernel_ep, channel)?;
        Ok(Vec::new())
    }

    /// Forwards `req` to `serv` and returns the service's acceptance. Each
    /// attempt registers a fresh request, so a late reply to an abandoned
    /// one is ignored; only a bounded wait ([`Kernel::reply_deadline`])
    /// ends unanswered and is retried.
    ///
    /// # Errors
    ///
    /// A denial comes back as the service's error code; a service whose
    /// owner is gone, exits while asked or stays silent under an armed
    /// fault plane as [`Code::Unreachable`].
    pub(super) async fn forward_to_service(
        &self,
        serv: &Rc<ServObj>,
        req: ServiceRequest,
    ) -> Result<ServiceReply> {
        self.sim.sleep(costs::SERVICE_FORWARD).await;
        for attempt in 0..=costs::SERVICE_RETRIES {
            // A service lives until its owner's capability is revoked (the
            // owner exited); after that its kernel endpoint may serve
            // another service.
            if !self.state.is_registered(serv) {
                return Err(Error::new(Code::Unreachable)
                    .with_msg(format!("service {} is gone", serv.name)));
            }
            let req_id = self.serv_requests.open(serv.owner);
            let sent = self
                .dtu
                .send(
                    serv.kernel_ep,
                    &req.to_bytes(),
                    Some((keps::SERV_REPLY, req_id)),
                )
                .await;
            // A send that fails answers its own request.
            if let Err(e) = sent {
                self.serv_requests
                    .answer(req_id, ServiceReply::err(e.code()));
            }
            let deadline = self.reply_deadline(costs::SERVICE_TIMEOUT);
            if let Some(reply) = self.serv_requests.wait(&self.sim, req_id, deadline).await {
                return reply.into_result();
            }
            self.trace(self.pe, Component::Kernel, || EventKind::Recovery {
                action: "service_retry".to_string(),
                attempt,
            });
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
        let serv = match self.state.find_service(name) {
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
        self.state.mint((caller, dst), KObject::Sess(sess), None)?;
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
        let sess_obj = match self.state.obj((caller, sess))? {
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
            self.state.copy(src, dst)?;
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
        match self.state.get((caller, vpe), VPE)? {
            VpeCap::Local(peer) => {
                let (src, dst) = if obtain {
                    ((peer, other), (caller, own))
                } else {
                    ((caller, own), (peer, other))
                };
                self.state.copy(src, dst)?;
                Ok(Vec::new())
            }
            // Cross-shard delegation (§4.5.3): the capability is converted
            // to a self-contained descriptor and installed by the child's
            // shard. Only delegation is supported — obtaining would need
            // the remote kernel to descriptor-ize an arbitrary capability
            // the child might not even have yet.
            VpeCap::Remote(r) => {
                if obtain {
                    return Err(Error::new(Code::NotSup)
                        .with_msg("cannot obtain from a remotely placed VPE"));
                }
                let ctx = self.shard_ctx_or_err()?;
                let obj = self.state.obj((caller, own))?;
                let desc = Self::desc_of_obj(&obj)?;
                self.ktk_request(&ctx, r.shard, |req_id| KtkMsg::DelegateCap {
                    req_id,
                    vpe: r.vpe,
                    sel: other.raw(),
                    desc,
                })
                .await?
                .into_result()?;
                // Record the copy so that revoking the local capability
                // cuts it too. Handlers that run beside the blocked
                // syscall loop (a peer's `RevokeCap`, the crash watchdog)
                // may have revoked it during the round trip; nothing would
                // cut the copy then, so it is taken back now.
                let (vpe, sel) = (r.vpe, other.raw());
                let edge = self
                    .state
                    .add_remote_copy((caller, own), &obj, (r.shard, vpe, sel));
                if let Err(e) = edge {
                    self.ktk_send(&ctx, r.shard, &KtkMsg::RevokeCap { vpe, sel });
                    return Err(e);
                }
                Ok(Vec::new())
            }
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
        // A send gate waits for its receive gate's activation (§4.5.4);
        // each attempt resolves it anew, so one revoked meanwhile is refused.
        let target_pe = loop {
            match self.state.activate(&self.ktok, (caller, gate), vpe, ep)? {
                Activation::Done(pe) => break pe,
                Activation::Deferred(activated) => activated.wait().await,
            }
        };
        self.charge_ep_config(target_pe).await;
        Ok(Vec::new())
    }
}
