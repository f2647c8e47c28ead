//! A VPE's execution environment.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::future::Future;
use std::rc::{Rc, Weak};

use m3_base::error::{Code, Error, Result};
use m3_base::{Cycles, PeId, SelId, VpeId};
use m3_dtu::Dtu;
use m3_fault::RecoveryPolicy;
use m3_kernel::protocol::{std_eps, Syscall, SyscallReply};
use m3_kernel::{Kernel, VpeBootInfo};
use m3_sim::{JoinHandle, MetricHandle, Metrics, Sim};

use crate::epmux::EpMux;
use crate::gate::RecvGate;
use crate::vfs::Vfs;
use crate::BoxFuture;

/// First selector handed out by [`Env::alloc_sel`]. Selector 0 is the
/// self-VPE capability; selectors 1..16 are reserved for capabilities a
/// parent delegates before start.
pub const FIRST_USER_SEL: u32 = 16;

/// A program: takes the fresh environment and argv, returns the exit code.
pub type ProgramFn = dyn Fn(Env, Vec<String>) -> BoxFuture<'static, i64>;

/// Registry of loadable programs, keyed by filesystem path.
///
/// This is the simulation's stand-in for executable files: `exec` still
/// *reads* the named file through the VFS (charging the load transfer), then
/// runs the registered entry point.
///
/// The registry also remembers, weakly, every [`Env`] built with it, so the
/// owner of a simulation can break their reference cycles when it ends
/// ([`ProgramRegistry::release_envs`]).
#[derive(Clone, Default)]
pub struct ProgramRegistry {
    map: Rc<RefCell<BTreeMap<String, Rc<ProgramFn>>>>,
    envs: Rc<RefCell<Vec<Weak<EnvInner>>>>,
}

impl fmt::Debug for ProgramRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProgramRegistry({} entries)", self.map.borrow().len())
    }
}

impl ProgramRegistry {
    /// Creates an empty registry.
    pub fn new() -> ProgramRegistry {
        ProgramRegistry::default()
    }

    /// Registers `path` as a runnable program.
    pub fn register<F, Fut>(&self, path: &str, f: F)
    where
        F: Fn(Env, Vec<String>) -> Fut + 'static,
        Fut: Future<Output = i64> + 'static,
    {
        self.map.borrow_mut().insert(
            path.to_string(),
            Rc::new(move |env, argv| Box::pin(f(env, argv))),
        );
    }

    /// Looks up a program.
    ///
    /// # Errors
    ///
    /// Returns [`Code::NoSuchFile`] if nothing is registered at `path`.
    pub fn find(&self, path: &str) -> Result<Rc<ProgramFn>> {
        self.map
            .borrow()
            .get(path)
            .cloned()
            .ok_or_else(|| Error::new(Code::NoSuchFile).with_msg(path.to_string()))
    }

    /// Remembers `env` for [`ProgramRegistry::release_envs`]. Dead entries
    /// are pruned whenever the list would grow, so it stays proportional
    /// to the live `Env`s.
    fn track(&self, env: &Rc<EnvInner>) {
        let mut envs = self.envs.borrow_mut();
        if envs.len() == envs.capacity() {
            envs.retain(|e| e.strong_count() > 0);
        }
        envs.push(Rc::downgrade(env));
    }

    /// Clears the mount table and the reply gate of every [`Env`] built
    /// with this registry that is still alive. The gates behind both hold
    /// their `Env`, so an `Env` that mounted a filesystem or made an RPC
    /// call is otherwise never freed. Call it once the simulation is shut
    /// down (an M3 `System` does when dropped): the cleared `Env`s can no
    /// longer reach a filesystem.
    pub fn release_envs(&self) {
        let envs: Vec<Rc<EnvInner>> = self
            .envs
            .borrow_mut()
            .drain(..)
            .filter_map(|e| e.upgrade())
            .collect();
        for env in &envs {
            // Taken out, then dropped outside the borrows: a gate's
            // destructor releases its endpoint through the same `Env`.
            let mounts = std::mem::take(&mut *env.vfs.borrow_mut());
            let gate = env.reply_gate.borrow_mut().take();
            drop((mounts, gate));
        }
    }
}

struct EnvInner {
    kernel: Kernel,
    sim: Sim,
    /// The simulation's metrics bag and the handles of the PE-busy counter
    /// every [`Env::compute`] bumps and the application-cycle counter of
    /// [`Env::compute_app`].
    metrics: Metrics,
    pe_busy: MetricHandle,
    app_cycles: MetricHandle,
    dtu: Dtu,
    vpe: VpeId,
    pe: PeId,
    next_sel: Cell<u32>,
    epmux: RefCell<EpMux>,
    vfs: RefCell<Vfs>,
    programs: ProgramRegistry,
    reply_gate: RefCell<Option<Rc<RecvGate>>>,
    recovery: RefCell<Option<RecoveryPolicy>>,
}

/// The environment of one running VPE: its DTU, selector space, endpoint
/// multiplexer, VFS, and typed access to the kernel.
///
/// Cheaply cloneable; clones share the VPE's state.
#[derive(Clone)]
pub struct Env {
    inner: Rc<EnvInner>,
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Env({} on {})", self.inner.vpe, self.inner.pe)
    }
}

impl Env {
    /// Creates the environment of a VPE from its boot info.
    pub fn new(kernel: &Kernel, info: &VpeBootInfo, programs: ProgramRegistry) -> Env {
        let platform = kernel.platform();
        let metrics = platform.sim().metrics();
        let inner = Rc::new(EnvInner {
            kernel: kernel.clone(),
            sim: platform.sim().clone(),
            pe_busy: metrics.handle(m3_sim::keys::PE_BUSY),
            app_cycles: metrics.handle(m3_sim::keys::APP_CYCLES),
            metrics,
            dtu: platform.dtu(info.pe),
            vpe: info.vpe,
            pe: info.pe,
            next_sel: Cell::new(FIRST_USER_SEL),
            epmux: RefCell::new(EpMux::new()),
            vfs: RefCell::new(Vfs::new()),
            programs,
            reply_gate: RefCell::new(None),
            recovery: RefCell::new(None),
        });
        inner.programs.track(&inner);
        Env { inner }
    }

    /// The simulation this VPE runs in.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The VPE's DTU.
    pub fn dtu(&self) -> &Dtu {
        &self.inner.dtu
    }

    /// The kernel (simulation glue: program spawning uses it).
    pub fn kernel(&self) -> &Kernel {
        &self.inner.kernel
    }

    /// This VPE's id.
    pub fn vpe_id(&self) -> VpeId {
        self.inner.vpe
    }

    /// The PE this VPE runs on.
    pub fn pe(&self) -> PeId {
        self.inner.pe
    }

    /// The program registry (for `exec`).
    pub fn programs(&self) -> &ProgramRegistry {
        &self.inner.programs
    }

    /// The endpoint multiplexer.
    pub(crate) fn epmux(&self) -> &RefCell<EpMux> {
        &self.inner.epmux
    }

    /// The VPE's mount table.
    pub fn vfs(&self) -> &RefCell<Vfs> {
        &self.inner.vfs
    }

    /// Installs (or clears) the VPE's [`RecoveryPolicy`]. With a policy set,
    /// RPC calls and pipe waits bound their blocking and surface
    /// [`Code::Unreachable`] instead of hanging on a dead peer; without one
    /// (the default) every communication path is the unchanged clean path.
    pub fn set_recovery(&self, policy: Option<RecoveryPolicy>) {
        *self.inner.recovery.borrow_mut() = policy;
    }

    /// The currently installed recovery policy, if any.
    pub fn recovery(&self) -> Option<RecoveryPolicy> {
        self.inner.recovery.borrow().clone()
    }

    /// Allocates a fresh capability selector.
    pub fn alloc_sel(&self) -> SelId {
        let raw = self.inner.next_sel.get();
        self.inner.next_sel.set(raw + 1);
        SelId::new(raw)
    }

    /// Models `cycles` of local computation (OS/library work; not shown as
    /// application time in the figure breakdowns).
    pub async fn compute(&self, cycles: Cycles) {
        self.count_busy(cycles);
        self.inner.sim.sleep(cycles).await;
    }

    /// Models `cycles` of *application* computation; accounted under
    /// `m3.app_cycles` for the Figure 5/7 breakdowns.
    pub async fn compute_app(&self, cycles: Cycles) {
        let inner = &self.inner;
        inner
            .metrics
            .add_handle(inner.pe, inner.app_cycles, cycles.as_u64());
        self.count_busy(cycles);
        self.inner.sim.sleep(cycles).await;
    }

    /// Counts `cycles` of computation as busy time of this PE.
    fn count_busy(&self, cycles: Cycles) {
        let inner = &self.inner;
        inner
            .metrics
            .add_handle(inner.pe, inner.pe_busy, cycles.as_u64());
    }

    /// Drops an application-level phase marker into the trace (free when
    /// tracing is disabled; never advances simulated time).
    pub fn trace_mark(&self, what: &str) {
        let at = self.inner.sim.now();
        let tracer = self.inner.sim.tracer();
        tracer.record_with(|| m3_sim::Event {
            at,
            dur: Cycles::ZERO,
            pe: Some(self.pe()),
            comp: m3_sim::Component::App,
            kind: m3_sim::EventKind::AppMark {
                what: what.to_string(),
            },
        });
    }

    /// Performs a system call: marshal, send to the kernel PE, wait for the
    /// reply, unmarshal (§5.3).
    ///
    /// # Errors
    ///
    /// Returns the kernel's error code, or a transport error.
    pub async fn syscall(&self, call: Syscall) -> Result<Vec<u8>> {
        self.compute(crate::costs::SYSC_PREP).await;
        let policy = self.recovery();
        if policy.is_some() {
            // Discard stale replies of earlier timed-out syscalls so they
            // are never mistaken for this call's answer.
            while self.inner.dtu.fetch(std_eps::SYSC_REPLY)?.is_some() {
                self.inner.dtu.ack(std_eps::SYSC_REPLY)?;
            }
        }
        self.inner
            .dtu
            .send(
                std_eps::SYSC_SEND,
                &call.to_bytes(),
                Some((std_eps::SYSC_REPLY, 0)),
            )
            .await?;
        // Syscalls are not retried — many are not idempotent (CreateVpe,
        // AllocMem) — so under a recovery policy a lost request or reply
        // surfaces as a typed error after one bounded wait.
        let msg = match &policy {
            None => self.inner.dtu.recv(std_eps::SYSC_REPLY).await?,
            Some(p) => {
                let deadline = self.inner.sim.now() + p.timeout;
                match self
                    .inner
                    .dtu
                    .recv_timeout(std_eps::SYSC_REPLY, deadline)
                    .await
                {
                    Err(e) if e.code() == Code::Timeout => {
                        return Err(
                            Error::new(Code::Unreachable).with_msg("syscall reply never arrived")
                        );
                    }
                    other => other?,
                }
            }
        };
        self.inner.dtu.ack(std_eps::SYSC_REPLY)?;
        self.compute(crate::costs::SYSC_POST).await;
        SyscallReply::from_bytes(&msg.payload)?.into_result()
    }

    /// Waits for and fetches the next message from receive endpoint `ep`
    /// (without acknowledging it) — [`Dtu::recv`] with kernel-multiplexing
    /// awareness. For a VPE outside scheduler control this *is* `Dtu::recv`,
    /// cycle for cycle. A time-multiplexed VPE parks in the kernel while no
    /// message is pending, letting another VPE of its PE run; the kernel
    /// only returns control while the VPE is resident, so the DTU polls
    /// below never read another context's live registers.
    ///
    /// # Errors
    ///
    /// Propagates DTU errors (including [`Code::Unreachable`] when this PE
    /// has crashed under an injected fault plane).
    pub async fn recv_on(&self, ep: m3_base::EpId) -> Result<m3_dtu::Message> {
        if !self.inner.kernel.sched_manages(self.vpe_id()) {
            return self.inner.dtu.recv(ep).await;
        }
        loop {
            self.inner.dtu.fault_gate().await?;
            self.inner.sim.sleep(m3_dtu::timing::FETCH_POLL).await;
            if let Some(msg) = self.inner.dtu.fetch(ep)? {
                return Ok(msg);
            }
            self.inner.kernel.sched_wait_msg(self.vpe_id(), ep).await?;
        }
    }

    /// Like [`Env::recv_on`], but gives up once the simulated clock reaches
    /// `deadline`. A time-multiplexed VPE that times out is made resident
    /// again before this returns, so the caller can safely keep using the
    /// DTU.
    ///
    /// # Errors
    ///
    /// Returns [`Code::Timeout`] when the deadline passes with no message,
    /// and propagates DTU errors.
    pub async fn recv_timeout_on(
        &self,
        ep: m3_base::EpId,
        deadline: Cycles,
    ) -> Result<m3_dtu::Message> {
        if !self.inner.kernel.sched_manages(self.vpe_id()) {
            return self.inner.dtu.recv_timeout(ep, deadline).await;
        }
        match m3_sim::with_deadline(&self.inner.sim, deadline, self.recv_on(ep)).await {
            Some(result) => result,
            None => {
                // The wait was abandoned mid-park: regain residency before
                // the caller touches the DTU again.
                self.inner.kernel.sched_interrupt(self.vpe_id()).await?;
                Err(Error::new(Code::Timeout).with_msg(format!("recv on {ep}")))
            }
        }
    }

    /// Voluntarily offers this VPE's time slice to the next ready VPE of
    /// its PE (cooperative multiplexing). A no-op — costing zero cycles —
    /// for VPEs that own their PE exclusively or when nobody is waiting.
    ///
    /// # Errors
    ///
    /// Propagates DTU errors from the context-switch transfers.
    pub async fn yield_now(&self) -> Result<()> {
        self.inner.kernel.sched_yield(self.vpe_id()).await
    }

    /// The lazily created reply gate used for RPC calls ([`crate::gate::SendGate::call`]).
    ///
    /// # Errors
    ///
    /// Fails if no endpoint can be reserved for it.
    pub async fn reply_gate(&self) -> Result<Rc<RecvGate>> {
        if let Some(g) = self.inner.reply_gate.borrow().clone() {
            return Ok(g);
        }
        let gate = Rc::new(RecvGate::new(self, 4, 512).await?);
        *self.inner.reply_gate.borrow_mut() = Some(gate.clone());
        Ok(gate)
    }

    /// Terminates this VPE with `code` (the `Exit` system call; no reply).
    pub async fn exit(&self, code: i64) {
        let _ = self
            .inner
            .dtu
            .send(std_eps::SYSC_SEND, &Syscall::Exit { code }.to_bytes(), None)
            .await;
    }
}

/// Boots a root program: creates a root VPE, builds its [`Env`], runs `f`,
/// and issues the `Exit` syscall when it returns. Returns a handle to the
/// exit code.
///
/// # Panics
///
/// Panics if no PE is free for the root VPE.
pub fn start_program<F, Fut>(
    kernel: &Kernel,
    name: &str,
    pe: Option<PeId>,
    programs: ProgramRegistry,
    f: F,
) -> JoinHandle<i64>
where
    F: FnOnce(Env) -> Fut + 'static,
    Fut: Future<Output = i64> + 'static,
{
    let info = kernel.create_root(name, pe).expect("no free PE for root");
    let env = Env::new(kernel, &info, programs);
    let sim = env.sim().clone();
    sim.spawn(name.to_string(), async move {
        let code = f(env.clone()).await;
        env.exit(code).await;
        code
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_platform::{Platform, PlatformConfig};

    #[test]
    fn program_registry_roundtrip() {
        let reg = ProgramRegistry::new();
        reg.register("/bin/true", |_env, _argv| async { 0 });
        assert!(reg.find("/bin/true").is_ok());
        let err = reg.find("/bin/false").map(|_| ()).unwrap_err();
        assert_eq!(err.code(), Code::NoSuchFile);
    }

    #[test]
    fn sel_allocation_is_monotonic_and_reserved() {
        let platform = Platform::new(PlatformConfig::xtensa(3));
        let kernel = Kernel::start(&platform, PeId::new(0));
        let info = kernel.create_root("t", None).unwrap();
        let env = Env::new(&kernel, &info, ProgramRegistry::new());
        let a = env.alloc_sel();
        let b = env.alloc_sel();
        assert_eq!(a.raw(), FIRST_USER_SEL);
        assert_eq!(b.raw(), FIRST_USER_SEL + 1);
    }

    #[test]
    fn start_program_runs_and_exits() {
        let platform = Platform::new(PlatformConfig::xtensa(3));
        let kernel = Kernel::start(&platform, PeId::new(0));
        let h = start_program(
            &kernel,
            "hello",
            None,
            ProgramRegistry::new(),
            |env| async move {
                env.syscall(Syscall::Noop).await.unwrap();
                7
            },
        );
        platform.sim().run();
        assert_eq!(h.try_take().unwrap(), 7);
        // Let the kernel process the in-flight Exit message.
        platform.sim().settle(m3_base::Cycles::new(10_000));
        assert_eq!(kernel.free_pes(), 2);
    }

    #[test]
    fn compute_drives_pe_busy_and_utilization() {
        let platform = Platform::new(PlatformConfig::xtensa(3));
        let kernel = Kernel::start(&platform, PeId::new(0));
        let h = start_program(
            &kernel,
            "worker",
            None,
            ProgramRegistry::new(),
            |env| async move {
                env.trace_mark("phase1");
                env.compute_app(Cycles::new(600)).await;
                // Idle for a stretch so utilisation is strictly below 1.
                env.sim().sleep(Cycles::new(600)).await;
                env.pe().raw() as i64
            },
        );
        platform.sim().run();
        let pe = PeId::new(h.try_take().unwrap() as u32);
        let metrics = platform.sim().metrics();
        assert!(metrics.get(pe, m3_sim::keys::PE_BUSY) >= 600);
        let util = metrics.utilization(pe, platform.sim().now());
        assert!(util > 0.0 && util < 1.0, "utilization {util}");
    }

    #[test]
    fn null_syscall_costs_about_200_cycles() {
        let platform = Platform::new(PlatformConfig::xtensa(3));
        let kernel = Kernel::start(&platform, PeId::new(0));
        let h = start_program(
            &kernel,
            "bench",
            None,
            ProgramRegistry::new(),
            |env| async move {
                // Warm up (first call may include setup effects).
                env.syscall(Syscall::Noop).await.unwrap();
                let start = env.sim().now();
                for _ in 0..10 {
                    env.syscall(Syscall::Noop).await.unwrap();
                }
                let per_call = (env.sim().now() - start).as_u64() / 10;
                per_call as i64
            },
        );
        platform.sim().run();
        let per_call = h.try_take().unwrap();
        // Paper §5.3: ≈ 200 cycles on M3. Accept a generous band.
        assert!(
            (150..=260).contains(&per_call),
            "null syscall took {per_call} cycles"
        );
    }
}
