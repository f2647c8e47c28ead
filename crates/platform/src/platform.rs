//! The assembled platform: PEs + SPMs + DRAM + NoC + DTUs.

use std::fmt;
use std::rc::Rc;

use m3_base::cfg::{DRAM_SIZE, SPM_DATA_SIZE};
use m3_base::PeId;
use m3_dtu::{Dtu, DtuSystem, MemKind};
use m3_noc::{Noc, NocConfig, Topology};
use m3_sim::Sim;

use crate::pe::{PeDesc, PeType};

/// Configuration of a platform instance.
#[derive(Clone, Debug)]
pub struct PlatformConfig {
    /// The PEs, in NoC-node order. The DRAM module is added automatically as
    /// the last node.
    pub pes: Vec<PeDesc>,
    /// NoC parameters.
    pub noc: NocConfig,
    /// Size of the DRAM module.
    pub dram_size: usize,
}

impl PlatformConfig {
    /// A platform with `n` Xtensa PEs, like the Tomahawk simulator started
    /// with `n` PEs (§4.1).
    pub fn xtensa(n: usize) -> PlatformConfig {
        PlatformConfig {
            pes: (0..n).map(|_| PeDesc::new(PeType::Xtensa)).collect(),
            noc: NocConfig::default(),
            dram_size: DRAM_SIZE,
        }
    }

    /// Appends a PE of the given type (builder-style).
    pub fn with_pe(mut self, ty: PeType) -> PlatformConfig {
        self.pes.push(PeDesc::new(ty));
        self
    }
}

impl Default for PlatformConfig {
    /// The 8-PE configuration of the Tomahawk silicon chip (§4.1).
    fn default() -> Self {
        PlatformConfig::xtensa(8)
    }
}

struct PlatformInner {
    sim: Sim,
    dtus: DtuSystem,
    descs: Vec<PeDesc>,
    dram: PeId,
    dram_size: usize,
}

/// A booted hardware platform (no software yet).
///
/// Cheaply cloneable; clones share all state.
///
/// # Examples
///
/// ```
/// use m3_platform::{Platform, PlatformConfig};
///
/// let platform = Platform::new(PlatformConfig::xtensa(4));
/// assert_eq!(platform.pe_count(), 4);
/// assert_eq!(platform.dram_pe().raw(), 4); // DRAM is the last NoC node
/// ```
#[derive(Clone)]
pub struct Platform {
    inner: Rc<PlatformInner>,
}

impl fmt::Debug for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Platform")
            .field("pes", &self.inner.descs)
            .field("dram", &self.inner.dram)
            .finish()
    }
}

impl Platform {
    /// Builds the platform: a NoC holding all PEs plus the DRAM module, one
    /// DTU per node, the DRAM backing store, and one remotely accessible
    /// data SPM per PE.
    pub fn new(cfg: PlatformConfig) -> Platform {
        Platform::new_in(Sim::new(), cfg)
    }

    /// Like [`Platform::new`], but builds the platform inside an existing
    /// simulation. The PDES islands use this: each island's `Sim` is
    /// created by the coordinator, and the platform must share it so the
    /// windowed executor drives the platform's timers.
    pub fn new_in(sim: Sim, cfg: PlatformConfig) -> Platform {
        let nodes = cfg.pes.len() as u32 + 1;
        let noc = Noc::new(Topology::with_nodes(nodes), cfg.noc.clone());
        let dtus = DtuSystem::new(sim.clone(), noc);
        let dram = PeId::new(cfg.pes.len() as u32);
        dtus.add_memory(dram, MemKind::Dram, cfg.dram_size);
        for i in 0..cfg.pes.len() {
            dtus.add_memory(PeId::new(i as u32), MemKind::Spm, SPM_DATA_SIZE);
        }
        Platform {
            inner: Rc::new(PlatformInner {
                sim,
                dtus,
                descs: cfg.pes,
                dram,
                dram_size: cfg.dram_size,
            }),
        }
    }

    /// The simulation the platform runs in.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The DTU fabric.
    pub fn dtu_system(&self) -> &DtuSystem {
        &self.inner.dtus
    }

    /// The DTU of one PE.
    pub fn dtu(&self, pe: PeId) -> Dtu {
        self.inner.dtus.dtu(pe)
    }

    /// Number of PEs (excluding the DRAM module).
    pub fn pe_count(&self) -> usize {
        self.inner.descs.len()
    }

    /// The NoC node id of the DRAM module.
    pub fn dram_pe(&self) -> PeId {
        self.inner.dram
    }

    /// Size in bytes of the DRAM module (partitioning carves this up).
    pub fn dram_size(&self) -> usize {
        self.inner.dram_size
    }

    /// The descriptor of a PE.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is the DRAM node or out of range.
    pub fn desc(&self, pe: PeId) -> &PeDesc {
        &self.inner.descs[pe.idx()]
    }

    /// All PEs of a given type, in node order.
    pub fn pes_of_type(&self, ty: PeType) -> Vec<PeId> {
        self.inner
            .descs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.ty == ty)
            .map(|(i, _)| PeId::new(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_is_last_node_with_memory() {
        let p = Platform::new(PlatformConfig::xtensa(3));
        assert_eq!(p.dram_pe(), PeId::new(3));
        let mem = p.dtu_system().memory(p.dram_pe()).unwrap();
        assert_eq!(mem.len(), DRAM_SIZE);
        assert_eq!(p.dram_size(), DRAM_SIZE);
    }

    #[test]
    fn every_pe_has_a_remotely_accessible_spm() {
        let p = Platform::new(PlatformConfig::xtensa(4));
        for i in 0..4 {
            let spm = p.dtu_system().memory(PeId::new(i)).unwrap();
            assert_eq!(spm.len(), SPM_DATA_SIZE);
        }
    }

    #[test]
    fn heterogeneous_config() {
        let cfg = PlatformConfig::xtensa(2).with_pe(PeType::FftAccel);
        let p = Platform::new(cfg);
        assert_eq!(p.pe_count(), 3);
        assert_eq!(p.pes_of_type(PeType::FftAccel), vec![PeId::new(2)]);
        assert_eq!(
            p.pes_of_type(PeType::Xtensa),
            vec![PeId::new(0), PeId::new(1)]
        );
        assert!(p.desc(PeId::new(2)).is_fft_accel());
    }

    #[test]
    fn all_dtus_start_privileged() {
        let p = Platform::new(PlatformConfig::default());
        for i in 0..p.pe_count() {
            assert!(p.dtu(PeId::new(i as u32)).is_privileged());
        }
    }
}
