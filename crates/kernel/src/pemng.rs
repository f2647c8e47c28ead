//! PE allocation.
//!
//! "VPEs are created via a system call to the kernel, which instructs the
//! kernel to select a suitable and unused PE. Thereby, the application can
//! request a specific type of PE — for example a specific accelerator"
//! (§4.5.5).

use m3_base::error::{Code, Error, Result};
use m3_base::PeId;
use m3_platform::{PeDesc, PeType};

use crate::protocol::PeRequest;

/// Tracks which PEs are free and of what type.
#[derive(Debug)]
pub struct PeMng {
    descs: Vec<PeDesc>,
    used: Vec<bool>,
}

impl PeMng {
    /// Creates a manager that only hands out the PEs in `owned` (multi-
    /// kernel partitioning, paper §7); `kernel_pe` is marked used.
    pub fn new_partition(descs: Vec<PeDesc>, kernel_pe: PeId, owned: &[PeId]) -> PeMng {
        let mut used = vec![true; descs.len()];
        for pe in owned {
            used[pe.idx()] = false;
        }
        used[kernel_pe.idx()] = true;
        PeMng { descs, used }
    }

    /// Allocates a free PE matching `req`; `caller_ty` resolves
    /// [`PeRequest::Same`]. `None` if no matching PE is free: a sharded
    /// kernel then spills the placement to a peer, so the miss builds no
    /// error.
    pub fn alloc(&mut self, req: PeRequest, caller_ty: PeType) -> Option<PeId> {
        let want = match req {
            PeRequest::Any => None,
            PeRequest::Type(ty) => Some(ty),
            PeRequest::Same => Some(caller_ty),
        };
        for (i, desc) in self.descs.iter().enumerate() {
            if self.used[i] {
                continue;
            }
            let matches = match want {
                None => !desc.is_fft_accel(), // "any" means general-purpose
                Some(ty) => desc.ty == ty,
            };
            if matches {
                self.used[i] = true;
                return Some(PeId::new(i as u32));
            }
        }
        None
    }

    /// Marks a specific PE used (boot-time placement of the first app).
    ///
    /// # Errors
    ///
    /// Returns [`Code::NoFreePe`] if the PE is already used.
    pub fn claim(&mut self, pe: PeId) -> Result<()> {
        if self.used[pe.idx()] {
            return Err(Error::new(Code::NoFreePe).with_msg(format!("{pe} already used")));
        }
        self.used[pe.idx()] = true;
        Ok(())
    }

    /// Releases a PE, "making it available again for others" (§4.5.5).
    pub fn free(&mut self, pe: PeId) {
        self.used[pe.idx()] = false;
    }

    /// The descriptor of a PE.
    pub fn desc(&self, pe: PeId) -> &PeDesc {
        &self.descs[pe.idx()]
    }

    /// Number of free PEs.
    pub fn free_count(&self) -> usize {
        self.used.iter().filter(|&&u| !u).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mng() -> PeMng {
        let descs = vec![
            PeDesc::new(PeType::Xtensa),   // PE0 = kernel
            PeDesc::new(PeType::Xtensa),   // PE1
            PeDesc::new(PeType::Xtensa),   // PE2
            PeDesc::new(PeType::FftAccel), // PE3
        ];
        let all: Vec<PeId> = (0..4).map(PeId::new).collect();
        PeMng::new_partition(descs, PeId::new(0), &all)
    }

    #[test]
    fn any_skips_accelerators() {
        let mut m = mng();
        assert_eq!(
            m.alloc(PeRequest::Any, PeType::Xtensa).unwrap(),
            PeId::new(1)
        );
        assert_eq!(
            m.alloc(PeRequest::Any, PeType::Xtensa).unwrap(),
            PeId::new(2)
        );
        // Only the accelerator is left; Any refuses it.
        assert_eq!(m.alloc(PeRequest::Any, PeType::Xtensa), None);
    }

    #[test]
    fn specific_type_finds_accelerator() {
        let mut m = mng();
        assert_eq!(
            m.alloc(PeRequest::Type(PeType::FftAccel), PeType::Xtensa)
                .unwrap(),
            PeId::new(3)
        );
    }

    #[test]
    fn same_resolves_to_caller_type() {
        let mut m = mng();
        assert_eq!(
            m.alloc(PeRequest::Same, PeType::Xtensa).unwrap(),
            PeId::new(1)
        );
    }

    #[test]
    fn free_makes_pe_reusable() {
        let mut m = mng();
        let pe = m.alloc(PeRequest::Any, PeType::Xtensa).unwrap();
        m.free(pe);
        assert_eq!(m.alloc(PeRequest::Any, PeType::Xtensa).unwrap(), pe);
    }

    #[test]
    fn claim_reserves() {
        let mut m = mng();
        m.claim(PeId::new(1)).unwrap();
        assert_eq!(m.claim(PeId::new(1)).unwrap_err().code(), Code::NoFreePe);
        assert_eq!(
            m.alloc(PeRequest::Any, PeType::Xtensa).unwrap(),
            PeId::new(2)
        );
    }

    #[test]
    fn kernel_pe_never_allocated() {
        let mut m = mng();
        for _ in 0..2 {
            let pe = m.alloc(PeRequest::Any, PeType::Xtensa).unwrap();
            assert_ne!(pe, PeId::new(0));
        }
    }
}
