//! The Linux machine: one core, caches, tmpfs, and a cooperative scheduler.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use m3_base::{Cycles, PeId};
use m3_platform::{Cache, CoreModel, ARM, XTENSA};
use m3_sim::{keys, JoinHandle, MetricHandle, Metrics, Notify, Sim, Stats};

use crate::costs;
use crate::proc::LxProc;
use crate::tmpfs::Tmpfs;

/// Configuration of the Linux baseline.
#[derive(Clone, Debug)]
pub struct LxConfig {
    /// The core the system runs on (Xtensa or ARM, §5.2).
    pub core: CoreModel,
    /// Whether cache misses cost anything. `false` reproduces the paper's
    /// `Lx-$` bars ("time on Linux without cache misses").
    pub miss_penalty: bool,
}

impl LxConfig {
    /// Linux on Xtensa with a real cache (the paper's `Lx`).
    pub fn xtensa() -> LxConfig {
        LxConfig {
            core: XTENSA,
            miss_penalty: true,
        }
    }

    /// Linux on Xtensa with the miss penalty removed (the paper's `Lx-$`).
    pub fn xtensa_warm() -> LxConfig {
        LxConfig {
            core: XTENSA,
            miss_penalty: false,
        }
    }

    /// Linux on the ARM Cortex-A15 (§5.2 cross-check).
    pub fn arm() -> LxConfig {
        LxConfig {
            core: ARM,
            miss_penalty: true,
        }
    }
}

/// The machine's one CPU: the PE its counters are kept on.
const CPU: PeId = PeId::new(0);

/// What a cycle charge is accounted as (for the figure breakdowns).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Charge {
    /// OS overhead (syscall entry, lookups, page-cache work, scheduling).
    Os,
    /// Data transfers (`memcpy`, zeroing).
    Xfer,
    /// Application computation.
    App,
}

struct CpuState {
    held: bool,
    last_pid: Option<u32>,
}

pub(crate) struct Inner {
    pub(crate) sim: Sim,
    pub(crate) cfg: LxConfig,
    pub(crate) cache: RefCell<Cache>,
    pub(crate) fs: RefCell<Tmpfs>,
    cpu: RefCell<CpuState>,
    cpu_free: Notify,
    exits: RefCell<BTreeMap<u32, i64>>,
    exit_notify: Notify,
    next_pid: Cell<u32>,
    pub(crate) next_pipe: Cell<u64>,
    /// The simulation's metrics and the handles of the `lx.*` counters.
    metrics: Metrics,
    os_cycles: MetricHandle,
    xfer_cycles: MetricHandle,
    app_cycles: MetricHandle,
    ctx_switches: MetricHandle,
}

/// A simulated Linux machine: a single time-shared core with caches and an
/// MMU (§5.1), running processes as cooperative simulation tasks.
///
/// Cheaply cloneable; clones share the machine.
#[derive(Clone)]
pub struct LxMachine {
    pub(crate) inner: Rc<Inner>,
}

impl fmt::Debug for LxMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LxMachine({})", self.inner.cfg.core.name)
    }
}

impl LxMachine {
    /// Creates a machine inside `sim`.
    pub fn new(sim: &Sim, cfg: LxConfig) -> LxMachine {
        let metrics = sim.metrics();
        LxMachine {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                cfg,
                cache: RefCell::new(Cache::lx_data_cache()),
                fs: RefCell::new(Tmpfs::new()),
                cpu: RefCell::new(CpuState {
                    held: false,
                    last_pid: None,
                }),
                cpu_free: Notify::new(),
                exits: RefCell::new(BTreeMap::new()),
                exit_notify: Notify::new(),
                next_pid: Cell::new(1),
                next_pipe: Cell::new(0),
                os_cycles: metrics.handle(keys::LX_OS_CYCLES),
                xfer_cycles: metrics.handle(keys::LX_XFER_CYCLES),
                app_cycles: metrics.handle(keys::LX_APP_CYCLES),
                ctx_switches: metrics.handle(keys::LX_CTX_SWITCHES),
                metrics,
            }),
        }
    }

    /// The simulation this machine runs in.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The totals view of the simulation's metrics (`lx.os_cycles`,
    /// `lx.xfer_cycles`, `lx.app_cycles`, `lx.ctx_switches`, ...).
    pub fn stats(&self) -> Stats {
        Stats::of(&self.inner.metrics)
    }

    /// Adds `n` to counter `key` of this machine's CPU (PE 0).
    pub fn count(&self, key: &'static str, n: u64) {
        self.inner.metrics.add(CPU, key, n);
    }

    /// The configuration.
    pub fn config(&self) -> &LxConfig {
        &self.inner.cfg
    }

    /// Direct access to the tmpfs (for test setup / content checks).
    pub fn fs(&self) -> &RefCell<Tmpfs> {
        &self.inner.fs
    }

    /// Spawns a process; it competes for the CPU and runs `f` to an exit
    /// code retrievable via the handle or `waitpid`.
    pub fn spawn_proc<F, Fut>(&self, name: &str, f: F) -> (u32, JoinHandle<i64>)
    where
        F: FnOnce(LxProc) -> Fut + 'static,
        Fut: Future<Output = i64> + 'static,
    {
        let pid = self.inner.next_pid.get();
        self.inner.next_pid.set(pid + 1);
        let machine = self.clone();
        let handle = self.inner.sim.spawn(name.to_string(), async move {
            let proc = LxProc::new(machine.clone(), pid);
            machine.acquire_cpu(pid).await;
            let code = f(proc).await;
            machine.release_cpu();
            machine.inner.exits.borrow_mut().insert(pid, code);
            machine.inner.exit_notify.notify_all();
            code
        });
        (pid, handle)
    }

    /// Takes the CPU for `pid`, charging a context switch if another
    /// process ran last.
    pub(crate) async fn acquire_cpu(&self, pid: u32) {
        loop {
            let switched = {
                let mut cpu = self.inner.cpu.borrow_mut();
                if cpu.held {
                    None
                } else {
                    cpu.held = true;
                    let switched = cpu.last_pid != Some(pid);
                    cpu.last_pid = Some(pid);
                    Some(switched)
                }
            };
            match switched {
                Some(true) => {
                    self.inner.metrics.incr_handle(CPU, self.inner.ctx_switches);
                    self.charge(costs::CTX_SWITCH, Charge::Os).await;
                    return;
                }
                Some(false) => return,
                None => self.inner.cpu_free.wait().await,
            }
        }
    }

    /// Releases the CPU for the next runnable process.
    pub(crate) fn release_cpu(&self) {
        self.inner.cpu.borrow_mut().held = false;
        self.inner.cpu_free.notify_one();
    }

    /// Charges simulated cycles under the given accounting bucket.
    pub(crate) async fn charge(&self, cycles: Cycles, kind: Charge) {
        let inner = &self.inner;
        let counter = match kind {
            Charge::Os => inner.os_cycles,
            Charge::Xfer => inner.xfer_cycles,
            Charge::App => inner.app_cycles,
        };
        inner.metrics.add_handle(CPU, counter, cycles.as_u64());
        self.inner.sim.sleep(cycles).await;
    }

    /// Runs `len` bytes at `base` through the cache; returns the misses
    /// that cost anything under this configuration.
    pub(crate) fn touch(&self, base: u64, len: usize) -> u64 {
        let misses = self.inner.cache.borrow_mut().touch_range(base, len);
        if self.inner.cfg.miss_penalty {
            misses
        } else {
            0
        }
    }

    /// The copy cost of `bytes` with `misses` penalized misses.
    pub(crate) fn memcpy_cycles(&self, bytes: u64, misses: u64) -> Cycles {
        self.inner.cfg.core.memcpy_cycles(bytes, misses)
    }

    /// Waits until process `pid` exits and returns its code.
    pub(crate) async fn wait_exit(&self, pid: u32) -> i64 {
        loop {
            if let Some(code) = self.inner.exits.borrow().get(&pid) {
                return *code;
            }
            self.inner.exit_notify.wait().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_runs_to_exit() {
        let sim = Sim::new();
        let m = LxMachine::new(&sim, LxConfig::xtensa());
        let (_, h) = m.spawn_proc("p", |p| async move {
            p.compute(Cycles::new(100)).await;
            5
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 5);
    }

    #[test]
    fn cpu_serializes_processes() {
        // Two compute-bound processes cannot overlap: total elapsed time is
        // the sum of their compute times (plus switches).
        let sim = Sim::new();
        let m = LxMachine::new(&sim, LxConfig::xtensa());
        for i in 0..2 {
            m.spawn_proc(&format!("p{i}"), |p| async move {
                p.compute(Cycles::new(10_000)).await;
                0
            });
        }
        sim.run();
        assert!(
            sim.now().as_u64() >= 20_000,
            "processes must serialize, elapsed {}",
            sim.now()
        );
    }

    #[test]
    fn warm_config_has_no_miss_penalty() {
        let sim = Sim::new();
        let m = LxMachine::new(&sim, LxConfig::xtensa_warm());
        assert_eq!(m.touch(0, 4096), 0);
        let m2 = LxMachine::new(&sim, LxConfig::xtensa());
        assert_eq!(m2.touch(0, 4096), 128);
    }
}
