//! Figure 11: demand-paging capacity — throughput vs resident fraction.
//!
//! Not a figure of the paper — it measures the m3-vm subsystem this
//! repository adds for the paper's §7 future work ("we want to support
//! virtual memory to enable copy-on-write, demand paging, etc."). One
//! program touches a fixed working set of `WORKING_SET` pages through a
//! demand-paged [`AddrSpace`] while the
//! kernel pager caps its resident DRAM frames at a fraction of that set.
//! Accesses are a seeded random read/write mix, so below 1.0 the pager
//! constantly evicts (clean pages first) and pages back in from the
//! per-VPE swap region.
//!
//! The shape to expect: at resident fraction 1.0 every page faults exactly
//! once (cold start) and throughput is bounded by the DTU read/write path;
//! shrinking the fraction multiplies faults and adds writeback traffic for
//! dirty victims, so throughput falls monotonically while `faults` and
//! `wb-bytes` climb — the cost of paging is visible, bounded, and fully
//! deterministic.

use m3::{System, SystemConfig};
use m3_base::rand::Rng;
use m3_base::Perm;
use m3_kernel::PAGE_SIZE;
use m3_libos::addrspace::AddrSpace;
use m3_sim::keys;

use crate::exec::{self, Job};
use crate::report::Series;

/// Pages in the program's working set.
pub const WORKING_SET: u64 = 32;

/// Resident-frame caps of the sweep, in eighths of the working set
/// (4, 8, 16, 24 and 32 of 32 pages).
pub const RESIDENT_EIGHTHS: [u64; 5] = [1, 2, 4, 6, 8];

/// Random accesses the program performs over the working set.
const ACCESSES: usize = 512;

/// Seed of the access sequence (fixed: the sweep varies only residency).
const SEED: u64 = 0x0001_157f_1911;

/// One measured paging scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PagingRun {
    /// Resident cap in eighths of the working set (8 = everything fits).
    pub eighths: u64,
    /// Resident page cap handed to the kernel pager.
    pub resident_pages: u64,
    /// Cycles from first to last access.
    pub total: u64,
    /// Page faults the kernel served.
    pub faults: u64,
    /// Bytes the pager wrote back to the swap region (dirty victims).
    pub writeback_bytes: u64,
}

/// Runs one paging scenario: `ACCESSES` seeded random one-byte reads and
/// writes over `WORKING_SET` pages with the pager capped at
/// `eighths/8 * WORKING_SET` resident frames.
///
/// # Panics
///
/// Panics if the program fails or reads back a value it did not write.
pub fn paging_run(eighths: u64) -> PagingRun {
    let resident_pages = WORKING_SET * eighths / 8;
    let sys = System::boot(SystemConfig {
        vm_resident_pages: Some(resident_pages as usize),
        ..SystemConfig::default()
    });
    let span: std::rc::Rc<std::cell::Cell<u64>> = std::rc::Rc::new(std::cell::Cell::new(0));
    let span2 = span.clone();
    let job = sys.run_program("fig11", move |env| async move {
        let mut aspace = AddrSpace::new(&env, Perm::RW);
        // A byte-exact flat shadow of the working set: every read is
        // checked against it, so eviction and page-in must be lossless.
        let mut shadow = vec![0u8; (WORKING_SET * PAGE_SIZE) as usize];
        let mut rng = Rng::new(SEED);
        let t0 = env.sim().now().as_u64();
        for _ in 0..ACCESSES {
            let virt = rng.next_below(WORKING_SET * PAGE_SIZE);
            if rng.next_below(2) == 0 {
                let v = rng.next_u64() as u8;
                aspace.write(virt, &[v]).await.unwrap();
                shadow[virt as usize] = v;
            } else {
                let mut b = [0u8; 1];
                aspace.read(virt, &mut b).await.unwrap();
                assert_eq!(
                    b[0], shadow[virt as usize],
                    "virt {virt:#x} returned a byte nobody wrote"
                );
            }
        }
        span2.set(env.sim().now().as_u64() - t0);
        0
    });
    sys.run();
    assert_eq!(job.try_take(), Some(0));
    let metrics = sys.sim().metrics();
    PagingRun {
        eighths,
        resident_pages,
        total: span.get(),
        faults: metrics.total(keys::PAGE_FAULTS),
        writeback_bytes: metrics.total(keys::WRITEBACK_BYTES),
    }
}

/// Runs the complete Figure 11 sweep: resident fractions 1/8 to 1, as
/// independent concurrent simulations.
pub fn run() -> Series {
    run_sweep(&RESIDENT_EIGHTHS)
}

/// Runs the sweep over a chosen subset of the resident fractions (the CI
/// smoke job uses the two endpoints).
pub fn run_sweep(eighths: &[u64]) -> Series {
    let jobs: Vec<Job<PagingRun>> = eighths
        .iter()
        .map(|&e| -> Job<PagingRun> { Box::new(move || paging_run(e)) })
        .collect();
    let runs = exec::run_labeled_jobs("fig11", jobs);
    let rows = runs
        .iter()
        .map(|r| {
            (
                r.eighths,
                vec![
                    r.resident_pages as f64,
                    // Throughput: accesses per thousand cycles.
                    ACCESSES as f64 * 1e3 / r.total as f64,
                    r.faults as f64,
                    r.writeback_bytes as f64,
                ],
            )
        })
        .collect();
    Series {
        title: "Figure 11: demand paging - throughput vs resident fraction (of 32-page set)"
            .to_string(),
        param: "eighths".to_string(),
        columns: vec![
            "resident".to_string(),
            "acc/kcyc".to_string(),
            "faults".to_string(),
            "wb-bytes".to_string(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_residency_faults_once_per_page_and_never_writes_back() {
        let run = paging_run(8);
        // Hard faults only (the metric counts pager work — zero-fills and
        // swap-ins, not TLB-refill round trips): with everything resident
        // each page cold-faults exactly once and nothing is ever evicted.
        assert_eq!(run.faults, WORKING_SET, "one cold fault per page at 1.0");
        assert_eq!(run.writeback_bytes, 0, "nothing evicted, nothing written");
    }

    #[test]
    fn paging_pressure_costs_throughput_and_writebacks() {
        let full = paging_run(8);
        let tight = paging_run(1);
        assert!(
            tight.faults > 2 * full.faults,
            "1/8 residency must thrash: {} vs {} faults",
            tight.faults,
            full.faults
        );
        assert!(tight.writeback_bytes > 0, "dirty victims hit the swap");
        assert!(
            tight.total > full.total,
            "paging must cost cycles: {} vs {}",
            tight.total,
            full.total
        );
    }
}
