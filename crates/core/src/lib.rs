//! # M3 — a hardware/operating-system co-design to tame heterogeneous manycores
//!
//! This crate is the front door of a from-scratch Rust reproduction of the
//! ASPLOS'16 paper. The system's idea in three sentences: every processing
//! element (PE) gets a **data transfer unit (DTU)** as its *only* connection
//! to the network-on-chip; the OS kernel runs on its own PE and enforces
//! isolation by remotely configuring the DTUs (**NoC-level isolation**), so
//! applications run bare-metal on arbitrary cores — including accelerators —
//! as first-class citizens; OS services like the m3fs filesystem are
//! ordinary applications reached by core-neutral DTU message protocols.
//!
//! [`System`] boots the whole stack — platform, kernel, filesystem service —
//! and runs programs on it. Setting [`SystemConfig::shards`] above one
//! boots the same stack once per [`ShardPlan`] slice, with the kernels
//! wired into a multikernel (§7):
//!
//! ```
//! use m3::{System, SystemConfig};
//! use m3_fs::mount_m3fs;
//! use m3_libos::vfs;
//!
//! let sys = System::boot(SystemConfig::default());
//! let job = sys.run_program("hello", |env| async move {
//!     mount_m3fs(&env).await.unwrap();
//!     vfs::write_all(&env, "/greeting", b"hello m3").await.unwrap();
//!     let back = vfs::read_to_vec(&env, "/greeting").await.unwrap();
//!     back.len() as i64
//! });
//! sys.run();
//! assert_eq!(job.try_take().unwrap(), 8);
//! ```

pub mod shard;

use std::future::Future;

use std::rc::Rc;

use m3_base::Cycles;
use m3_fault::{FaultPlan, FaultPlane};
use m3_fs::{run_m3fs, SetupNode};
use m3_kernel::{Kernel, KernelConfig};
use m3_libos::{start_program, Env, ProgramRegistry};
use m3_noc::NocConfig;
use m3_platform::{PeType, Platform, PlatformConfig};
use m3_sim::{JoinHandle, Sim, SimState, Stats};

pub use m3_base as base;
pub use m3_dtu as dtu;
pub use m3_fault as fault;
pub use m3_fs as fs;
pub use m3_kernel as kernel;
pub use m3_libos as libos;
pub use m3_noc as noc;
pub use m3_platform as platform;
pub use m3_sim as sim;

pub use shard::{ShardPlan, ShardSlice};

/// Configuration of a full M3 system.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of general-purpose (Xtensa) PEs across all shards, including
    /// every shard's kernel PE and filesystem-service PE.
    pub pes: usize,
    /// Number of FFT-accelerator PEs appended after the general-purpose
    /// ones; they belong to the last shard.
    pub accel_pes: usize,
    /// Number of kernel shards (§7 "multiple kernel instances"). Each shard
    /// owns a [`ShardPlan::carve`] slice of the PEs and DRAM and runs its
    /// own kernel and m3fs; with more than one, the kernels are wired by
    /// the kernel-to-kernel protocol. One (the default) is the standalone
    /// system.
    pub shards: usize,
    /// Size of each shard's m3fs data region in 1 KiB blocks.
    pub fs_blocks: u64,
    /// Initial content of every shard's filesystem.
    pub fs_setup: Vec<SetupNode>,
    /// NoC parameters (disable `contention` to model a perfectly scaling
    /// interconnect, as the §5.7 scalability experiment assumes).
    pub noc: NocConfig,
    /// Deterministic fault schedule injected at boot. `None` (the default)
    /// falls back to the process-ambient plan slot
    /// ([`m3_fault::ambient`]); if that is also empty, the system runs the
    /// exact fault-free code path.
    pub fault_plan: Option<FaultPlan>,
    /// See [`KernelConfig::overcommit`].
    pub overcommit: bool,
    /// See [`KernelConfig::dirty_switches`].
    pub dirty_switches: bool,
    /// See [`KernelConfig::vm_resident_pages`].
    pub vm_resident_pages: Option<usize>,
}

impl Default for SystemConfig {
    /// One kernel + fs service + a few application PEs and an 8 MiB
    /// filesystem.
    fn default() -> Self {
        SystemConfig {
            pes: 6,
            accel_pes: 0,
            shards: 1,
            fs_blocks: 8192,
            fs_setup: Vec::new(),
            noc: NocConfig::default(),
            fault_plan: None,
            overcommit: false,
            dirty_switches: false,
            vm_resident_pages: None,
        }
    }
}

/// A booted M3 system: platform, one kernel and one m3fs per shard, ready
/// to run programs.
#[derive(Clone)]
pub struct System {
    platform: Platform,
    kernels: Vec<Kernel>,
    plan: ShardPlan,
    registry: ProgramRegistry,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("pes", &self.platform.pe_count())
            .field("kernels", &self.kernels)
            .finish()
    }
}

impl System {
    /// Boots the system in a fresh simulation; see [`System::boot_in`].
    ///
    /// # Panics
    ///
    /// Panics if any shard would get fewer than three PEs (kernel, fs, and
    /// at least one application).
    pub fn boot(cfg: SystemConfig) -> System {
        System::boot_in(Sim::new(), cfg)
    }

    /// Boots the system inside an existing simulation: builds the
    /// platform, carves it into `cfg.shards` slices, starts a kernel on the
    /// first PE of each slice (which downgrades the slice's other DTUs),
    /// and starts one m3fs service per kernel on its next free PE. The PDES
    /// islands use this to place one full system per island.
    ///
    /// Boot order matters: the fault plane is armed on the DTU fabric
    /// before [`Kernel::connect_shards`] (the ktk wire captures the crash
    /// schedule to drop messages of dead kernel PEs), and
    /// [`Kernel::attach_faults`] runs after it (the shard watchdog arms
    /// only if the kernel already has its shard context).
    ///
    /// # Panics
    ///
    /// Panics if any shard would get fewer than three PEs (kernel, fs, and
    /// at least one application).
    pub fn boot_in(sim: Sim, cfg: SystemConfig) -> System {
        let mut pcfg = PlatformConfig::xtensa(cfg.pes);
        pcfg.noc = cfg.noc.clone();
        for _ in 0..cfg.accel_pes {
            pcfg = pcfg.with_pe(PeType::FftAccel);
        }
        let platform = Platform::new_in(sim, pcfg);
        let mut plan = ShardPlan::carve(cfg.pes, cfg.shards, platform.dram_size() as u64);
        for slice in &plan.slices {
            assert!(
                slice.pe_count >= 3,
                "need kernel + fs + application PEs in shard {}, got {}",
                slice.shard,
                slice.pe_count
            );
        }
        if let Some(last) = plan.slices.last_mut() {
            last.pe_count += cfg.accel_pes as u32;
        }

        // An explicit plan wins, otherwise the ambient slot (set by chaos
        // harnesses around unmodified entry points). Empty plans still arm
        // the plane so recovery paths use bounded waits, which chaos runs
        // rely on to never hang.
        let plane = cfg
            .fault_plan
            .clone()
            .or_else(m3_fault::ambient::get)
            .map(|plan| Rc::new(FaultPlane::new(plan)));
        if let Some(plane) = &plane {
            platform.dtu_system().set_faults(plane.clone());
        }

        let kcfg = KernelConfig {
            overcommit: cfg.overcommit,
            dirty_switches: cfg.dirty_switches,
            vm_resident_pages: cfg.vm_resident_pages,
        };
        let kernels: Vec<Kernel> = plan
            .slices
            .iter()
            .map(|slice| {
                Kernel::start_partition(
                    &platform,
                    slice.kernel_pe(),
                    &slice.pes(),
                    slice.dram_base,
                    slice.dram_size,
                    kcfg,
                )
            })
            .collect();
        Kernel::connect_shards(&kernels);
        if let Some(plane) = &plane {
            for k in &kernels {
                k.attach_faults(plane);
            }
        }

        let registry = ProgramRegistry::new();
        for kernel in &kernels {
            let info = kernel.create_root("m3fs", None).expect("PE for m3fs");
            let env = Env::new(kernel, &info, registry.clone());
            let blocks = cfg.fs_blocks;
            let setup = cfg.fs_setup.clone();
            let name = match kernels.len() {
                1 => "m3fs".to_string(),
                _ => format!("m3fs@{}", kernel.pe()),
            };
            platform.sim().spawn_daemon(name, async move {
                run_m3fs(env, blocks, setup).await.expect("m3fs failed");
            });
        }

        System {
            platform,
            kernels,
            plan,
            registry,
        }
    }

    /// The simulation clock and executor.
    pub fn sim(&self) -> &Sim {
        self.platform.sim()
    }

    /// The hardware platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The kernel of shard 0 (the only kernel of a one-shard system).
    pub fn kernel(&self) -> &Kernel {
        &self.kernels[0]
    }

    /// The shard kernels, in shard-id order.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// How the machine was carved into shards.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The program registry shared by all shards (register executables
    /// for `exec` here).
    pub fn registry(&self) -> &ProgramRegistry {
        &self.registry
    }

    /// Shared statistics counters.
    pub fn stats(&self) -> Stats {
        self.sim().stats()
    }

    /// Starts a program on a free PE of shard 0; the returned handle yields
    /// its exit code after [`System::run`].
    ///
    /// # Panics
    ///
    /// Panics if no PE is free.
    pub fn run_program<F, Fut>(&self, name: &str, f: F) -> JoinHandle<i64>
    where
        F: FnOnce(Env) -> Fut + 'static,
        Fut: Future<Output = i64> + 'static,
    {
        self.run_program_on(0, name, f)
    }

    /// Starts a program on a free PE of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or has no free PE.
    pub fn run_program_on<F, Fut>(&self, shard: usize, name: &str, f: F) -> JoinHandle<i64>
    where
        F: FnOnce(Env) -> Fut + 'static,
        Fut: Future<Output = i64> + 'static,
    {
        start_program(&self.kernels[shard], name, None, self.registry.clone(), f)
    }

    /// Runs the simulation until every program finished, then lets the
    /// kernels and services settle in-flight work.
    pub fn run(&self) -> SimState {
        let state = self.sim().run();
        self.sim().settle(Cycles::new(1_000_000));
        state
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.sim().now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_base::PeId;
    use m3_fs::mount_m3fs;
    use m3_libos::vfs;

    #[test]
    fn boot_and_run_a_program() {
        let sys = System::boot(SystemConfig::default());
        let h = sys.run_program("t", |env| async move {
            mount_m3fs(&env).await.unwrap();
            vfs::write_all(&env, "/x", &[1, 2, 3]).await.unwrap();
            vfs::stat(&env, "/x").await.unwrap().size as i64
        });
        assert_eq!(sys.run(), SimState::Finished);
        assert_eq!(h.try_take().unwrap(), 3);
    }

    #[test]
    fn accel_pes_are_appended() {
        let sys = System::boot(SystemConfig {
            pes: 4,
            accel_pes: 1,
            ..SystemConfig::default()
        });
        let accels = sys.platform().pes_of_type(PeType::FftAccel);
        assert_eq!(accels.len(), 1);
        assert_eq!(accels[0], PeId::new(4));
    }

    #[test]
    fn preloaded_fs_content() {
        let sys = System::boot(SystemConfig {
            fs_setup: vec![SetupNode::file("/hello", b"world".to_vec())],
            ..SystemConfig::default()
        });
        let h = sys.run_program("t", |env| async move {
            mount_m3fs(&env).await.unwrap();
            let data = vfs::read_to_vec(&env, "/hello").await.unwrap();
            assert_eq!(data, b"world");
            0
        });
        sys.run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "need kernel")]
    fn too_small_system_panics() {
        System::boot(SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        });
    }
}
