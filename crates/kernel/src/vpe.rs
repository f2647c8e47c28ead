//! Virtual processing elements (VPEs).
//!
//! A VPE is the kernel's abstraction for a PE: "applications consist of at
//! least one VPE, whereas each VPE is assigned to exactly one PE at any point
//! in time" (§4.3). Each VPE represents a single activity; parallelism means
//! creating more VPEs (§4.5.5).

use m3_base::error::{Code, Error, Result};
use m3_base::{PeId, VpeId};
use m3_sim::Notify;

/// Lifecycle state of a VPE.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum VpeState {
    /// Created; the PE is reserved but the program has not started.
    Init,
    /// The program is running on the PE.
    Running,
    /// The program exited with the carried code; the PE has been released.
    Dead(i64),
}

/// A VPE kernel object.
#[derive(Debug)]
pub struct VpeObj {
    /// Kernel-wide VPE identifier (also the label of its syscall channel).
    pub id: VpeId,
    /// Human-readable name (diagnostics).
    pub name: String,
    /// The PE this VPE is bound to.
    pub pe: PeId,
    /// Current lifecycle state.
    pub state: VpeState,
    /// Notified when the VPE dies (used by `VpeWait`).
    pub exited: Notify,
    /// How many capabilities name this VPE: its self capability, its
    /// parent's VPE capability and their copies, plus one while a peer
    /// shard's proxy names a VPE placed for that shard. The kernel frees
    /// the VPE's record once the VPE is dead and this is zero.
    pub names: u32,
    /// The peer shard this VPE was placed for (ktk `PlaceVpe`), whose
    /// proxy is the name counted in [`VpeObj::names`]; `None` for a VPE
    /// whose parent is local. If that shard dies, no `RevokeVpe` will come,
    /// so the watchdog reclaims the VPE instead.
    pub placed_for: Option<u32>,
}

impl VpeObj {
    /// Creates a VPE bound to `pe` in [`VpeState::Init`].
    pub fn new(id: VpeId, name: impl Into<String>, pe: PeId) -> VpeObj {
        VpeObj {
            id,
            name: name.into(),
            pe,
            state: VpeState::Init,
            exited: Notify::new(),
            names: 0,
            placed_for: None,
        }
    }

    /// The exit code, if the VPE has died.
    pub fn exit_code(&self) -> Option<i64> {
        match self.state {
            VpeState::Dead(code) => Some(code),
            _ => None,
        }
    }

    /// Whether the VPE is still alive (init or running).
    pub fn is_alive(&self) -> bool {
        !matches!(self.state, VpeState::Dead(_))
    }

    /// Starts the program: [`VpeState::Init`] becomes
    /// [`VpeState::Running`].
    ///
    /// # Errors
    ///
    /// Returns [`Code::InvArgs`] if the VPE is not in the init state.
    pub fn start(&mut self) -> Result<()> {
        if self.state != VpeState::Init {
            return Err(Error::new(Code::InvArgs).with_msg("VPE not in init state"));
        }
        self.state = VpeState::Running;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut vpe = VpeObj::new(VpeId::new(1), "test", PeId::new(2));
        assert_eq!(vpe.state, VpeState::Init);
        assert!(vpe.is_alive());
        assert_eq!(vpe.exit_code(), None);
        vpe.state = VpeState::Running;
        assert!(vpe.is_alive());
        vpe.state = VpeState::Dead(3);
        assert!(!vpe.is_alive());
        assert_eq!(vpe.exit_code(), Some(3));
    }

    #[test]
    fn start_only_from_init() {
        let mut vpe = VpeObj::new(VpeId::new(1), "test", PeId::new(2));
        vpe.start().unwrap();
        assert_eq!(vpe.state, VpeState::Running);
        assert_eq!(vpe.start().unwrap_err().code(), Code::InvArgs);
        vpe.state = VpeState::Dead(0);
        assert_eq!(vpe.start().unwrap_err().code(), Code::InvArgs);
    }
}
