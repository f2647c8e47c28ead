//! How a machine is carved into kernel shards (§7).
//!
//! The paper names "multiple kernel instances" as the scalability path for
//! large manycores: one kernel PE saturates long before 1024 application
//! PEs do, so the machine is carved into *shards*, each owning a contiguous
//! slice of PEs and DRAM and running its own kernel plus its own m3fs
//! instance. Shards keep separate capability spaces, PE pools, memory
//! pools, and service registries, but their kernels are wired together by
//! the kernel-to-kernel (ktk) protocol, so a shard whose admission runs out
//! of PEs forwards the request to the least-loaded peer and delegates the
//! resulting capabilities back.
//!
//! [`ShardPlan::carve`] is the pure partitioning function (unit- and
//! property-testable without booting anything). [`crate::System`] boots one
//! kernel per slice inside one `Sim` when `SystemConfig::shards` is above
//! one; a one-shard plan is the standalone system. The PDES benchmark
//! (`fig10`) instead boots one single-shard [`crate::System`] per island
//! and carries ktk bytes across island boundaries — same protocol,
//! different transport.

use m3_base::PeId;
use m3_kernel::PAGE_SIZE;

/// One shard's slice of the machine: a contiguous PE range plus a DRAM
/// range, with the kernel on the slice's first PE.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSlice {
    /// Shard id (position in the plan).
    pub shard: u32,
    /// First PE of the contiguous range.
    pub first_pe: u32,
    /// Number of PEs in the range.
    pub pe_count: u32,
    /// Start of the shard's DRAM range.
    pub dram_base: u64,
    /// Size of the shard's DRAM range.
    pub dram_size: u64,
}

impl ShardSlice {
    /// The shard's kernel PE (first PE of the slice).
    pub fn kernel_pe(&self) -> PeId {
        PeId::new(self.first_pe)
    }

    /// All PEs of the slice, ascending.
    pub fn pes(&self) -> Vec<PeId> {
        (self.first_pe..self.first_pe + self.pe_count)
            .map(PeId::new)
            .collect()
    }

    /// Whether `pe` belongs to this slice.
    pub fn contains(&self, pe: PeId) -> bool {
        (self.first_pe..self.first_pe + self.pe_count).contains(&pe.raw())
    }
}

/// How a machine is carved into shards. Produced by [`ShardPlan::carve`];
/// pure data, so partitioning invariants are testable without booting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// The slices, one per shard, in shard-id order.
    pub slices: Vec<ShardSlice>,
}

impl ShardPlan {
    /// Carves `pes` processing elements and `dram_size` bytes of DRAM into
    /// `shards` contiguous slices.
    ///
    /// PEs split wide-first: with `pes = q·shards + r`, the first `r`
    /// shards get `q + 1` PEs. DRAM splits evenly, rounded down to page
    /// granularity; the last shard absorbs the remainder, so the ranges
    /// tile `[0, dram_size)` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or there are fewer PEs than shards.
    pub fn carve(pes: usize, shards: usize, dram_size: u64) -> ShardPlan {
        assert!(shards >= 1, "need at least one shard");
        assert!(pes >= shards, "need at least one PE per shard");
        let q = (pes / shards) as u32;
        let r = (pes % shards) as u32;
        let dram_each = dram_size / shards as u64 / PAGE_SIZE * PAGE_SIZE;
        let mut slices = Vec::with_capacity(shards);
        let mut first_pe = 0u32;
        let mut dram_base = 0u64;
        for shard in 0..shards as u32 {
            let pe_count = if shard < r { q + 1 } else { q };
            let last = shard == shards as u32 - 1;
            let dram = if last {
                dram_size - dram_base
            } else {
                dram_each
            };
            slices.push(ShardSlice {
                shard,
                first_pe,
                pe_count,
                dram_base,
                dram_size: dram,
            });
            first_pe += pe_count;
            dram_base += dram;
        }
        ShardPlan { slices }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slices.len()
    }

    /// The shard owning `pe`, if any.
    pub fn shard_of(&self, pe: PeId) -> Option<u32> {
        self.slices.iter().find(|s| s.contains(pe)).map(|s| s.shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carve_splits_pes_wide_first() {
        let plan = ShardPlan::carve(10, 3, 1 << 20);
        let counts: Vec<u32> = plan.slices.iter().map(|s| s.pe_count).collect();
        assert_eq!(counts, vec![4, 3, 3]);
        assert_eq!(plan.slices[0].first_pe, 0);
        assert_eq!(plan.slices[1].first_pe, 4);
        assert_eq!(plan.slices[2].first_pe, 7);
    }

    #[test]
    fn carve_dram_tiles_exactly() {
        // A DRAM size that does not divide evenly: last shard absorbs the
        // remainder and the ranges tile [0, size).
        let size = 3 * 4096 * 7 + 1234;
        let plan = ShardPlan::carve(6, 3, size);
        let mut expected_base = 0;
        for s in &plan.slices {
            assert_eq!(s.dram_base, expected_base);
            assert_eq!(s.dram_base % PAGE_SIZE, 0);
            expected_base += s.dram_size;
        }
        assert_eq!(expected_base, size);
    }

    #[test]
    fn shard_of_maps_every_pe() {
        let plan = ShardPlan::carve(11, 4, 1 << 20);
        for pe in 0..11u32 {
            let shard = plan.shard_of(PeId::new(pe)).unwrap();
            assert!(plan.slices[shard as usize].contains(PeId::new(pe)));
        }
        assert_eq!(plan.shard_of(PeId::new(11)), None);
    }

    #[test]
    #[should_panic(expected = "at least one PE per shard")]
    fn carve_rejects_more_shards_than_pes() {
        ShardPlan::carve(3, 4, 1 << 20);
    }
}
