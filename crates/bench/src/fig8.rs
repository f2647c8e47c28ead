//! Figure 8: overcommit capacity of kernel-driven VPE time-multiplexing.
//!
//! Not a figure of the paper — it measures the m3-sched subsystem this
//! repository adds on top of §4.5.5's VPE model. A driver creates
//! `factor x CLIENT_PES` client VPEs on `CLIENT_PES` application PEs; with
//! overcommit enabled the kernel admits them all and time-multiplexes each
//! PE between its residents, saving and restoring DTU state through the
//! DTU itself. Every client mounts the single m3fs instance and reads the
//! same file repeatedly; reported per overcommit factor: aggregate read
//! throughput, per-read latency (mean/max over the merged per-PE
//! histograms), and the number of context switches the kernel performed.
//!
//! The shape to expect: at 1x the scheduler is pure bookkeeping (the run
//! is byte-identical to overcommit-off, pinned by a test below); past 1x
//! throughput stays near-flat while per-client latency grows with the
//! factor — the knee where added clients stop buying throughput is the
//! capacity of the PE pool plus the m3fs service, not of the scheduler.

use std::cell::RefCell;
use std::rc::Rc;

use m3::{System, SystemConfig};
use m3_base::PeId;
use m3_fs::{mount_m3fs, SetupNode};
use m3_kernel::protocol::PeRequest;
use m3_libos::vfs;
use m3_libos::vpe::Vpe;
use m3_sim::keys;

use crate::exec::{self, Job};
use crate::report::Series;

/// Overcommit factors of the sweep (clients per application PE).
pub const FACTORS: [u64; 4] = [1, 2, 4, 8];

/// Application PEs shared by the clients (PE0 kernel, PE1 m3fs, PE2 driver).
pub const CLIENT_PES: u64 = 4;

/// Size of the file every client reads.
const FILE_BYTES: usize = 2048;

/// Reads each client performs.
const READS: usize = 8;

/// Per-read latency histogram, recorded on the client's PE.
const READ_LATENCY: &str = "fig8.read_latency";

/// One measured overcommit scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OvercommitRun {
    /// Clients per application PE.
    pub factor: u64,
    /// Total client VPEs (`factor * CLIENT_PES`).
    pub clients: u64,
    /// Makespan in cycles: driver start to last client reaped.
    pub total: u64,
    /// Total reads completed (every client must finish all of them).
    pub reads: u64,
    /// Mean per-read latency in cycles.
    pub lat_mean: f64,
    /// Largest per-read latency in cycles.
    pub lat_max: u64,
    /// Context switches the kernel performed across the client PEs.
    pub ctx_switches: u64,
    /// Dirty SPM pages actually transferred by those switches (only
    /// recorded when dirty-tracked switches are on; 0 on the legacy
    /// full-image path).
    pub dirty_pages_saved: u64,
}

/// Runs one overcommit scenario: `factor * CLIENT_PES` clients on
/// `CLIENT_PES` PEs, all reading from one m3fs instance.
///
/// With `overcommit` off the factor must be 1 (more clients than PEs would
/// make `CREATE_VPE` fail); that configuration exists so the 1x identity —
/// scheduler admitted but never switching — can be pinned against the
/// unmanaged code path.
///
/// # Panics
///
/// Panics if any client fails to finish all its reads.
pub fn overcommit_run(factor: u64, overcommit: bool) -> OvercommitRun {
    scenario(factor, overcommit, false, false).0
}

/// Like [`overcommit_run`] with overcommit on, but context switches
/// consult the DTU dirty bitmap (m3-vm) and transfer only the SPM pages
/// written since the last save instead of the full 64 KiB image. Cheaper
/// switches are the lever that moves the overcommit knee past 2x.
pub fn dirty_overcommit_run(factor: u64) -> OvercommitRun {
    scenario(factor, true, false, true).0
}

/// Runs the 2x-style overcommit scenario at `factor` with tracing enabled;
/// returns the measurements, the recorded events (CtxSwitch among them),
/// and a rendered per-PE metrics snapshot — the CI observability job
/// exports all three as artifacts.
pub fn traced_overcommit_run(factor: u64) -> (OvercommitRun, Vec<m3_sim::Event>, String) {
    scenario(factor, true, true, false)
}

fn scenario(
    factor: u64,
    overcommit: bool,
    trace: bool,
    dirty: bool,
) -> (OvercommitRun, Vec<m3_sim::Event>, String) {
    assert!(overcommit || factor == 1, "plain runs fit the PEs");
    let sys = System::boot(SystemConfig {
        pes: 3 + CLIENT_PES as usize,
        fs_blocks: 8 * 1024,
        fs_setup: vec![SetupNode::file("/data", vec![0x5a; FILE_BYTES])],
        overcommit,
        dirty_switches: dirty,
        ..SystemConfig::default()
    });
    if trace {
        sys.sim().enable_trace();
    }
    let clients = factor * CLIENT_PES;
    let span: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));
    let span2 = span.clone();
    sys.run_program("driver", move |env| async move {
        let t0 = env.sim().now().as_u64();
        let mut vpes = Vec::new();
        for i in 0..clients {
            let vpe = Vpe::new(&env, &format!("client{i}"), PeRequest::Any)
                .await
                .unwrap();
            vpe.run(move |cenv| async move {
                mount_m3fs(&cenv).await.unwrap();
                for _ in 0..READS {
                    let r0 = cenv.sim().now().as_u64();
                    let data = vfs::read_to_vec(&cenv, "/data").await.unwrap();
                    assert_eq!(data.len(), FILE_BYTES);
                    let lat = cenv.sim().now().as_u64() - r0;
                    cenv.sim().metrics().observe(cenv.pe(), READ_LATENCY, lat);
                }
                0
            })
            .await
            .unwrap();
            vpes.push(vpe);
        }
        for vpe in &vpes {
            assert_eq!(vpe.wait().await.unwrap(), 0, "client must succeed");
        }
        *span2.borrow_mut() = Some(env.sim().now().as_u64() - t0);
        0
    });
    sys.run();
    let total = span.borrow().expect("driver must finish");

    // The clients' latency histograms merged across PEs; switches counted.
    let metrics = sys.sim().metrics();
    let lat = metrics.merged(READ_LATENCY).unwrap_or_default();
    let (mut ctx_switches, mut dirty_pages_saved) = (0u64, 0u64);
    for pe in 3..3 + CLIENT_PES {
        let pe = PeId::new(pe as u32);
        ctx_switches += metrics.get(pe, keys::CTX_SWITCHES);
        dirty_pages_saved += metrics.get(pe, keys::DIRTY_PAGES_SAVED);
    }
    let reads = lat.count();
    assert_eq!(reads, clients * READS as u64, "every read must complete");
    let run = OvercommitRun {
        factor,
        clients,
        total,
        reads,
        lat_mean: lat.mean().unwrap_or(0.0),
        lat_max: lat.max().unwrap_or(0),
        ctx_switches,
        dirty_pages_saved,
    };
    let rendered = metrics.render(sys.sim().now());
    (run, sys.sim().trace(), rendered)
}

/// Runs the complete Figure 8 sweep: factors 1x-8x with overcommit
/// enabled, each factor once with legacy full-image switches and once
/// with dirty-tracked switches, as independent concurrent simulations.
/// The dirty-tracked columns are where the knee moves past 2x: switches
/// transfer only the pages the DTU dirtied, so stacking more clients per
/// PE keeps buying throughput longer.
pub fn run() -> Series {
    let mut jobs: Vec<Job<OvercommitRun>> = Vec::new();
    for &f in &FACTORS {
        jobs.push(Box::new(move || overcommit_run(f, true)));
        jobs.push(Box::new(move || dirty_overcommit_run(f)));
    }
    let runs = exec::run_jobs(jobs);
    let rows = runs
        .chunks(2)
        .map(|pair| {
            let (full, dirty) = (&pair[0], &pair[1]);
            (
                full.factor,
                vec![
                    full.clients as f64,
                    // Aggregate throughput: reads per million cycles.
                    full.reads as f64 * 1e6 / full.total as f64,
                    full.lat_mean,
                    full.lat_max as f64,
                    full.ctx_switches as f64,
                    dirty.reads as f64 * 1e6 / dirty.total as f64,
                    // Mean dirty pages per save (16 = full image).
                    if dirty.ctx_switches == 0 {
                        0.0
                    } else {
                        dirty.dirty_pages_saved as f64 / dirty.ctx_switches as f64
                    },
                ],
            )
        })
        .collect();
    Series {
        title: "Figure 8: overcommitted VPEs per PE - throughput, read latency, context switches"
            .to_string(),
        param: "overcommit".to_string(),
        columns: vec![
            "clients".to_string(),
            "reads/Mcyc".to_string(),
            "lat-mean".to_string(),
            "lat-max".to_string(),
            "ctxsw".to_string(),
            "dirty reads/Mcyc".to_string(),
            "dirty pg/sw".to_string(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_x_is_byte_identical_to_unmanaged_scheduling() {
        // At 1x every admitted VPE is alone on its PE: the scheduler does
        // bookkeeping only and must not move a single cycle.
        let managed = overcommit_run(1, true);
        let plain = overcommit_run(1, false);
        assert_eq!(managed.ctx_switches, 0, "1x must never switch");
        assert_eq!(managed.total, plain.total, "cycle-identical at 1x");
        assert_eq!(managed.lat_max, plain.lat_max);
        assert_eq!(managed.lat_mean, plain.lat_mean);
    }

    #[test]
    fn dirty_tracked_switches_move_the_knee_past_two_x() {
        // Legacy full-image switches flatten out by 2x; with dirty-tracked
        // switches each save moves only the pages the DTU wrote, so 4x
        // still buys throughput over 2x — the knee is strictly beyond 2x.
        let d2 = dirty_overcommit_run(2);
        let d4 = dirty_overcommit_run(4);
        let tp = |r: &OvercommitRun| r.reads as f64 * 1e6 / r.total as f64;
        assert!(
            tp(&d4) > tp(&d2),
            "dirty-tracked knee must lie beyond 2x: 4x={} vs 2x={} reads/Mcyc",
            tp(&d4),
            tp(&d2)
        );
        // The mechanism, not just the effect: saves transferred fewer
        // pages than the 16-page full image on average.
        assert!(d4.ctx_switches > 0);
        assert!(
            d4.dirty_pages_saved < 16 * d4.ctx_switches,
            "saves must move fewer pages than the full image: {} over {} switches",
            d4.dirty_pages_saved,
            d4.ctx_switches
        );
        // And the legacy path still reports the full image (no dirty
        // metric recorded at all).
        let full = overcommit_run(4, true);
        assert_eq!(full.dirty_pages_saved, 0);
    }

    #[test]
    fn four_x_multiplexes_and_finishes_every_client() {
        let run = overcommit_run(4, true);
        assert_eq!(run.clients, 16);
        assert_eq!(run.reads, 16 * READS as u64);
        assert!(run.ctx_switches > 0, "4x on 4 PEs must context-switch");
        // Sharing a PE stretches individual reads.
        let base = overcommit_run(1, true);
        assert!(
            run.lat_mean > base.lat_mean,
            "multiplexed reads are slower: {} vs {}",
            run.lat_mean,
            base.lat_mean
        );
    }
}
