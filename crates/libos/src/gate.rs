//! Gates: the software abstraction for communication and memory access over
//! the DTU (§4.5.4).
//!
//! - [`RecvGate`] — receives messages (pins an endpoint; receive gates
//!   cannot be moved),
//! - [`SendGate`] — sends messages to a receive gate,
//! - [`MemGate`] — accesses remote memory.
//!
//! Send and memory gates go through the endpoint multiplexer: before each
//! use, libm3 checks whether the gate still owns an endpoint and performs
//! the `Activate` system call if not.

use std::cell::Cell;
use std::rc::Rc;

use m3_base::error::{Code, Error, Result};
use m3_base::ids::Label;
use m3_base::marshal::IStream;
use m3_base::{Perm, SelId};
use m3_dtu::{Message, Payload};
use m3_kernel::protocol::Syscall;

use crate::env::{Env, WeakEnv};
use crate::epmux::EpCell;

/// The self-VPE capability selector (used as the `vpe` of `Activate`).
const SELF_VPE: SelId = SelId::new(0);

/// The endpoint a send or memory gate `sel` is multiplexed onto: the one
/// `cell` holds, or a fresh one the gate is first activated on.
async fn ensure_ep(env: &Env, cell: &EpCell, sel: SelId) -> Result<m3_base::EpId> {
    if let Some(ep) = cell.get() {
        env.epmux().borrow_mut().touch(ep);
        return Ok(ep);
    }
    let ep = env
        .epmux()
        .borrow_mut()
        .acquire(cell)
        .ok_or_else(|| Error::new(Code::InvEp).with_msg("out of endpoints"))?;
    env.syscall(Syscall::Activate {
        vpe: SELF_VPE,
        ep,
        gate: sel,
    })
    .await?;
    Ok(ep)
}

/// A receive gate bound to a dedicated endpoint.
#[derive(Debug)]
pub struct RecvGate {
    env: WeakEnv,
    sel: SelId,
    ep: m3_base::EpId,
    slot_size: u32,
}

impl RecvGate {
    /// Creates a receive gate with `slots` slots of `slot_size` bytes and
    /// binds it to a reserved endpoint.
    ///
    /// # Errors
    ///
    /// Fails if the kernel rejects the geometry or no endpoint is free.
    pub async fn new(env: &Env, slots: u32, slot_size: u32) -> Result<RecvGate> {
        let sel = env.alloc_sel();
        env.syscall(Syscall::CreateRGate {
            dst: sel,
            slots,
            slot_size,
        })
        .await?;
        let ep = env
            .epmux()
            .borrow_mut()
            .reserve()
            .ok_or_else(|| Error::new(Code::InvEp).with_msg("out of endpoints"))?;
        env.syscall(Syscall::Activate {
            vpe: SELF_VPE,
            ep,
            gate: sel,
        })
        .await?;
        Ok(RecvGate {
            env: env.downgrade(),
            sel,
            ep,
            slot_size,
        })
    }

    /// The gate's capability selector.
    pub fn sel(&self) -> SelId {
        self.sel
    }

    /// The endpoint the gate is bound to.
    pub fn ep(&self) -> m3_base::EpId {
        self.ep
    }

    /// Maximum payload of messages through this gate.
    pub fn max_payload(&self) -> usize {
        self.slot_size as usize - m3_base::cfg::MSG_HEADER_SIZE
    }

    /// Waits for the next message (slot is freed immediately).
    ///
    /// # Errors
    ///
    /// Propagates DTU errors.
    pub async fn recv(&self) -> Result<Message> {
        let env = self.env.get();
        let msg = env.recv_on(self.ep).await?;
        env.dtu().ack(self.ep)?;
        Ok(msg)
    }

    /// Waits for the next message, giving up at the absolute simulated-cycle
    /// `deadline`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::Timeout`] when the deadline passes with no message,
    /// and propagates DTU errors (including [`Code::Unreachable`] when this
    /// PE has crashed under an injected fault plane).
    pub async fn recv_timeout(&self, deadline: m3_base::Cycles) -> Result<Message> {
        let env = self.env.get();
        let msg = env.recv_timeout_on(self.ep, deadline).await?;
        env.dtu().ack(self.ep)?;
        Ok(msg)
    }

    /// Fetches a message if one is waiting.
    ///
    /// # Errors
    ///
    /// Propagates DTU errors.
    pub fn fetch(&self) -> Result<Option<Message>> {
        let env = self.env.get();
        match env.dtu().fetch(self.ep)? {
            Some(msg) => {
                env.dtu().ack(self.ep)?;
                Ok(Some(msg))
            }
            None => Ok(None),
        }
    }

    /// Replies to a message received through this gate.
    ///
    /// # Errors
    ///
    /// Fails with [`Code::NoPerm`] if the message permits no reply.
    pub async fn reply(&self, msg: &Message, payload: impl Into<Payload>) -> Result<()> {
        self.env.get().dtu().reply(msg, payload).await
    }
}

impl Drop for RecvGate {
    fn drop(&mut self) {
        self.env.release(self.ep);
    }
}

/// A send gate, multiplexed onto endpoints on demand.
#[derive(Debug)]
pub struct SendGate {
    env: WeakEnv,
    sel: SelId,
    ep: EpCell,
}

impl SendGate {
    /// Creates a send gate to a receive gate the caller owns. `credits = 0`
    /// means unlimited.
    ///
    /// # Errors
    ///
    /// Fails if `rgate` is not a receive gate of this VPE.
    pub async fn new(env: &Env, rgate: &RecvGate, label: Label, credits: u32) -> Result<SendGate> {
        let sel = env.alloc_sel();
        env.syscall(Syscall::CreateSGate {
            dst: sel,
            rgate: rgate.sel(),
            label,
            credits,
        })
        .await?;
        Ok(Self::bind(env, sel))
    }

    /// Wraps an existing (e.g. delegated or obtained) send capability.
    pub fn bind(env: &Env, sel: SelId) -> SendGate {
        SendGate {
            env: env.downgrade(),
            sel,
            ep: Rc::new(Cell::new(None)),
        }
    }

    /// The gate's capability selector.
    pub fn sel(&self) -> SelId {
        self.sel
    }

    /// Sends `payload`; `reply` names a local receive gate (and label) the
    /// receiver may reply to.
    ///
    /// # Errors
    ///
    /// Propagates DTU errors ([`Code::NoCredits`] when the budget is used
    /// up) and activation failures.
    pub async fn send(
        &self,
        payload: impl Into<Payload>,
        reply: Option<(&RecvGate, Label)>,
    ) -> Result<()> {
        let env = self.env.get();
        let ep = ensure_ep(&env, &self.ep, self.sel).await?;
        env.dtu()
            .send(ep, payload, reply.map(|(rg, l)| (rg.ep(), l)))
            .await
    }

    /// Remote procedure call: send and wait for the reply on the
    /// environment's shared reply gate.
    ///
    /// With a [`RecoveryPolicy`](m3_fault::RecoveryPolicy) installed via
    /// [`crate::env::Env::set_recovery`], each attempt is bounded by the
    /// policy's timeout and re-sent (after a deterministic exponential
    /// backoff) up to its retry budget; exhausting the budget yields
    /// [`Code::Unreachable`]. Note the resulting at-least-once semantics: a
    /// retried request may execute twice at the server if only its reply was
    /// lost, and a late reply to an abandoned attempt can surface as the
    /// next call's answer — callers in faulted runs should make requests
    /// idempotent or sequence-tolerant.
    ///
    /// # Errors
    ///
    /// Propagates send errors and transport failures.
    pub async fn call(&self, payload: impl Into<Payload>) -> Result<Message> {
        let payload = payload.into();
        let env = self.env.get();
        let rgate = env.reply_gate().await?;
        let Some(policy) = env.recovery() else {
            self.send(payload, Some((&rgate, 0))).await?;
            return rgate.recv().await;
        };
        for attempt in 0..=policy.max_retries {
            if attempt > 0 {
                env.compute(crate::costs::RETRY_PREP).await;
                env.sim().sleep(policy.backoff.delay(attempt - 1)).await;
                let at = env.sim().now();
                let pe = env.pe();
                env.sim().tracer().record_with(|| m3_sim::Event {
                    at,
                    dur: m3_base::Cycles::ZERO,
                    pe: Some(pe),
                    comp: m3_sim::Component::App,
                    kind: m3_sim::EventKind::Recovery {
                        action: "rpc_retry".to_string(),
                        attempt,
                    },
                });
            }
            // Discard replies of abandoned earlier attempts that arrived
            // while we were backing off.
            while rgate.fetch()?.is_some() {}
            self.send(&payload, Some((&rgate, 0))).await?;
            let deadline = env.sim().now() + policy.timeout;
            match rgate.recv_timeout(deadline).await {
                Ok(msg) => return Ok(msg),
                Err(e) if e.code() == Code::Timeout => continue,
                Err(e) => return Err(e),
            }
        }
        Err(Error::new(Code::Unreachable).with_msg("rpc retries exhausted"))
    }
}

impl Drop for SendGate {
    fn drop(&mut self) {
        if let Some(ep) = self.ep.get() {
            self.env.release(ep);
        }
    }
}

/// A memory gate: RDMA access to a region of PE-external memory.
#[derive(Debug)]
pub struct MemGate {
    env: WeakEnv,
    sel: SelId,
    ep: EpCell,
    size: Option<u64>,
}

impl MemGate {
    /// Allocates a DRAM region of `size` bytes through the kernel and wraps
    /// it (§4.5.4).
    ///
    /// # Errors
    ///
    /// Returns [`Code::OutOfMem`] when the DRAM is exhausted.
    pub async fn alloc(env: &Env, size: u64, perm: Perm) -> Result<MemGate> {
        let sel = env.alloc_sel();
        let data = env
            .syscall(Syscall::AllocMem {
                dst: sel,
                size,
                perm,
            })
            .await?;
        let mut is = IStream::new(&data);
        let _global_offset = is.pop_u64()?;
        Ok(MemGate {
            env: env.downgrade(),
            sel,
            ep: Rc::new(Cell::new(None)),
            size: Some(size),
        })
    }

    /// Wraps an existing (delegated or obtained) memory capability.
    pub fn bind(env: &Env, sel: SelId) -> MemGate {
        MemGate {
            env: env.downgrade(),
            sel,
            ep: Rc::new(Cell::new(None)),
            size: None,
        }
    }

    /// The gate's capability selector.
    pub fn sel(&self) -> SelId {
        self.sel
    }

    /// The region size, if known locally.
    pub fn size(&self) -> Option<u64> {
        self.size
    }

    /// Creates a sub-range capability.
    ///
    /// # Errors
    ///
    /// Fails if the range or permissions exceed this gate's.
    pub async fn derive(&self, offset: u64, size: u64, perm: Perm) -> Result<MemGate> {
        let env = self.env.get();
        let sel = env.alloc_sel();
        env.syscall(Syscall::DeriveMem {
            dst: sel,
            src: self.sel,
            offset,
            size,
            perm,
        })
        .await?;
        Ok(MemGate {
            env: self.env.clone(),
            sel,
            ep: Rc::new(Cell::new(None)),
            size: Some(size),
        })
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Propagates permission and bounds errors from the DTU.
    pub async fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let env = self.env.get();
        let ep = ensure_ep(&env, &self.ep, self.sel).await?;
        env.dtu().read_mem(ep, offset, len).await
    }

    /// Reads `buf.len()` bytes at `offset` into `buf`, without allocating —
    /// the form chunked readers use to reuse one buffer across chunks.
    ///
    /// # Errors
    ///
    /// Propagates permission and bounds errors from the DTU.
    pub async fn read_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let env = self.env.get();
        let ep = ensure_ep(&env, &self.ep, self.sel).await?;
        env.dtu().read_mem_into(ep, offset, buf).await
    }

    /// Writes `data` at `offset`.
    ///
    /// # Errors
    ///
    /// Propagates permission and bounds errors from the DTU.
    pub async fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        let env = self.env.get();
        let ep = ensure_ep(&env, &self.ep, self.sel).await?;
        env.dtu().write_mem(ep, offset, data).await
    }

    /// Revokes the capability (and everything derived from it).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub async fn revoke(self) -> Result<()> {
        let env = self.env.get();
        env.syscall(Syscall::Revoke { sel: self.sel }).await?;
        Ok(())
    }
}

impl Drop for MemGate {
    fn drop(&mut self) {
        if let Some(ep) = self.ep.get() {
            self.env.release(ep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{start_program, ProgramRegistry};
    use m3_base::PeId;
    use m3_kernel::Kernel;
    use m3_platform::{Platform, PlatformConfig};

    fn boot(pes: usize) -> (Platform, Kernel) {
        let platform = Platform::new(PlatformConfig::xtensa(pes));
        let kernel = Kernel::start(&platform, PeId::new(0));
        (platform, kernel)
    }

    #[test]
    fn gate_dropped_after_its_env_is_gone() {
        // Gates hold their Env without owning it. Once the program ends,
        // and with it the last Env clone (and the Env's own reply gate), a
        // gate it handed out must still drop without panicking and without
        // touching the freed endpoint multiplexer.
        let (platform, kernel) = boot(3);
        let out = Rc::new(std::cell::RefCell::new(None));
        let slot = out.clone();
        let h = start_program(
            &kernel,
            "app",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let reply = Rc::downgrade(&env.reply_gate().await.unwrap());
                let mem = MemGate::alloc(&env, 4096, Perm::RW).await.unwrap();
                mem.write(0, &[1]).await.unwrap();
                *slot.borrow_mut() = Some((mem, reply));
                0
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take(), Some(0));
        let (mem, reply) = out.borrow_mut().take().unwrap();
        assert!(reply.upgrade().is_none(), "the Env outlived its program");
        assert!(mem.ep.get().is_some(), "the gate holds no endpoint");
        drop(mem);
    }

    #[test]
    fn memgate_alloc_read_write() {
        let (platform, kernel) = boot(3);
        let h = start_program(
            &kernel,
            "app",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let mem = MemGate::alloc(&env, 8192, Perm::RW).await.unwrap();
                mem.write(100, &[1, 2, 3, 4]).await.unwrap();
                let back = mem.read(100, 4).await.unwrap();
                assert_eq!(back, vec![1, 2, 3, 4]);
                // Derive a read-only window and check enforcement.
                let ro = mem.derive(0, 256, Perm::R).await.unwrap();
                assert_eq!(ro.write(0, &[9]).await.unwrap_err().code(), Code::NoPerm);
                0
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn endpoint_multiplexing_under_pressure() {
        // More memory gates than endpoints: the multiplexer must swap them
        // transparently (§4.5.4).
        let (platform, kernel) = boot(3);
        let h = start_program(
            &kernel,
            "app",
            None,
            ProgramRegistry::new(),
            |env| async move {
                let mut gates = Vec::new();
                for i in 0..10u64 {
                    let g = MemGate::alloc(&env, 4096, Perm::RW).await.unwrap();
                    g.write(0, &[i as u8]).await.unwrap();
                    gates.push(g);
                }
                // Use them all again in order; every gate still works.
                for (i, g) in gates.iter().enumerate() {
                    let v = g.read(0, 1).await.unwrap();
                    assert_eq!(v[0], i as u8);
                }
                let syscalls = env.sim().stats().get("kernel.syscalls");
                assert!(syscalls > 20, "re-activations must go through the kernel");
                0
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn send_and_receive_between_two_programs() {
        let (platform, kernel) = boot(4);
        // Receiver program creates an rgate + sgate; we pass the sgate's
        // selector to the sender through a shared cell (simulation-level
        // plumbing; capability-level delegation is exercised in the vpe
        // tests).
        let reg = ProgramRegistry::new();
        let h = start_program(&kernel, "recv", None, reg.clone(), {
            let kernel = kernel.clone();
            move |env| async move {
                let rgate = RecvGate::new(&env, 4, 256).await.unwrap();
                let _sgate = SendGate::new(&env, &rgate, 0x42, 2).await.unwrap();
                // Second program on another PE sends via a bound gate after
                // obtaining it through a VPE exchange — here we shortcut by
                // letting it reuse our selector via Exchange in vpe tests;
                // this test only checks the local call path.
                let sgate_local = SendGate::new(&env, &rgate, 0x43, 2).await.unwrap();
                let _ = kernel; // silence unused in this closure
                sgate_local.send(b"loopback", None).await.unwrap();
                let msg = rgate.recv().await.unwrap();
                assert_eq!(msg.payload, b"loopback");
                assert_eq!(msg.header.label, 0x43);
                0
            }
        });
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn rpc_call_roundtrip() {
        let (platform, kernel) = boot(4);
        let h = start_program(
            &kernel,
            "rpc",
            None,
            ProgramRegistry::new(),
            |env| async move {
                // A local echo server on the same VPE: create the service gate
                // pair, spawn a server task, call it.
                let rgate = Rc::new(RecvGate::new(&env, 4, 256).await.unwrap());
                let sgate = SendGate::new(&env, &rgate, 7, 1).await.unwrap();
                let server_gate = rgate.clone();
                let env2 = env.clone();
                env.sim().spawn_daemon("echo", async move {
                    loop {
                        let Ok(msg) = server_gate.recv().await else {
                            return;
                        };
                        let _ = env2.dtu().reply(&msg, &msg.payload).await;
                    }
                });
                let reply = sgate.call(b"ping").await.unwrap();
                assert_eq!(reply.payload, b"ping");
                0
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn policy_call_retries_through_a_dropped_request() {
        use m3_fault::{CycleWindow, FaultPlan, FaultPlane, RecoveryPolicy};

        let (platform, kernel) = boot(3);
        // The echo server lives on the same VPE/PE as the caller, so both
        // the request and its reply cross the pe→pe loop link. A one-message
        // drop budget kills exactly the first request; the policy-driven
        // resend must then succeed.
        let app_pe = m3_base::PeId::new(1);
        let window = CycleWindow::new(m3_base::Cycles::ZERO, m3_base::Cycles::new(u64::MAX));
        platform.dtu_system().set_faults(Rc::new(FaultPlane::new(
            FaultPlan::new().drop_msgs(app_pe, app_pe, window, 1),
        )));
        let h = start_program(
            &kernel,
            "rpc",
            Some(app_pe),
            ProgramRegistry::new(),
            |env| async move {
                env.set_recovery(Some(RecoveryPolicy::standard(0xC4A0)));
                let rgate = Rc::new(RecvGate::new(&env, 4, 256).await.unwrap());
                let sgate = SendGate::new(&env, &rgate, 7, 0).await.unwrap();
                let server_gate = rgate.clone();
                let env2 = env.clone();
                env.sim().spawn_daemon("echo", async move {
                    loop {
                        let Ok(msg) = server_gate.recv().await else {
                            return;
                        };
                        let _ = env2.dtu().reply(&msg, &msg.payload).await;
                    }
                });
                let start = env.sim().now();
                let reply = sgate.call(b"ping").await.unwrap();
                assert_eq!(reply.payload, b"ping");
                // One full timeout plus a backoff elapsed before the retry.
                let waited = (env.sim().now() - start).as_u64();
                assert!(waited >= 200_000, "no timed-out attempt: {waited}");
                0
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn policy_call_reports_unreachable_when_every_attempt_is_lost() {
        use m3_fault::{CycleWindow, FaultPlan, FaultPlane, RecoveryPolicy};

        let (platform, kernel) = boot(3);
        let app_pe = m3_base::PeId::new(1);
        let window = CycleWindow::new(m3_base::Cycles::ZERO, m3_base::Cycles::new(u64::MAX));
        platform
            .dtu_system()
            .set_faults(Rc::new(FaultPlane::new(FaultPlan::new().drop_msgs(
                app_pe,
                app_pe,
                window,
                u32::MAX,
            ))));
        let h = start_program(
            &kernel,
            "rpc",
            Some(app_pe),
            ProgramRegistry::new(),
            |env| async move {
                env.set_recovery(Some(RecoveryPolicy::standard(0xC4A1)));
                let rgate = Rc::new(RecvGate::new(&env, 4, 256).await.unwrap());
                let sgate = SendGate::new(&env, &rgate, 7, 0).await.unwrap();
                let err = sgate.call(b"void").await.unwrap_err();
                assert_eq!(err.code(), Code::Unreachable);
                0
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 0);
    }
}
