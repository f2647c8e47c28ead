//! Figure 6: scalability of a single kernel + single m3fs instance (§5.7).
//!
//! 1–16 instances of each application benchmark run in parallel, one per
//! PE (pair). "We assume that the NoC (in terms of memory transfers;
//! messages are still sent) and the DRAM scale perfectly" — reproduced by
//! disabling NoC link contention; queueing at the kernel and at m3fs
//! remains. Reported: average time per instance, normalized to one
//! instance (flatter is better).

use std::cell::RefCell;
use std::rc::Rc;

use m3::{System, SystemConfig};
use m3_apps::{m3app, workload};
use m3_fs::{mount_m3fs, SetupNode};
use m3_noc::NocConfig;

use crate::exec::{self, Job};
use crate::fig5::{self, BenchKind};
use crate::report::Series;

/// Instance counts of the sweep (cat+tr starts at 2 PEs per instance, so
/// the paper has no 1-PE data point for it; we sweep instances directly).
pub const INSTANCES: [u64; 5] = [1, 2, 4, 8, 16];

fn setup_for(kind: BenchKind, max_instances: usize) -> Vec<SetupNode> {
    match kind {
        BenchKind::CatTr => workload::cat_tr_input(11).to_setup(),
        BenchKind::Tar => workload::tar_input(22).to_setup(),
        BenchKind::Untar => {
            let mut setup = vec![SetupNode::file("/archive.tar", fig5::untar_archive())];
            for i in 0..max_instances {
                setup.push(SetupNode::dir(&format!("/out{i}")));
            }
            setup
        }
        BenchKind::Find => workload::find_tree(33).to_setup(),
        BenchKind::Sqlite => Vec::new(),
    }
}

/// Average per-instance cycles with `n` parallel instances of `kind`.
pub fn avg_instance_time(kind: BenchKind, n: usize) -> f64 {
    let pes_per_instance = if kind == BenchKind::CatTr { 2 } else { 1 };
    let sys = System::boot(SystemConfig {
        pes: 2 + INSTANCES[INSTANCES.len() - 1] as usize * pes_per_instance,
        fs_blocks: 48 * 1024,
        fs_setup: setup_for(kind, 16),
        noc: NocConfig {
            contention: false, // §5.7's perfectly scaling NoC/DRAM
            ..NocConfig::default()
        },
        ..SystemConfig::default()
    });
    let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    for i in 0..n {
        let times = times.clone();
        sys.run_program(&format!("inst{i}"), move |env| async move {
            mount_m3fs(&env).await.unwrap();
            let t0 = env.sim().now().as_u64();
            match kind {
                BenchKind::CatTr => {
                    m3app::cat_tr(&env, "/input.txt", &format!("/output{i}.txt"))
                        .await
                        .unwrap();
                }
                BenchKind::Tar => {
                    m3app::tar_create(&env, "/src", &format!("/arch{i}.tar"))
                        .await
                        .unwrap();
                }
                BenchKind::Untar => {
                    m3app::tar_extract(&env, "/archive.tar", &format!("/out{i}"))
                        .await
                        .unwrap();
                }
                BenchKind::Find => {
                    m3app::find(&env, "/", "log").await.unwrap();
                }
                BenchKind::Sqlite => {
                    m3app::sqlite(&env, &format!("/db{i}")).await.unwrap();
                }
            }
            times.borrow_mut().push(env.sim().now().as_u64() - t0);
            0
        });
    }
    sys.run();
    let times = times.borrow();
    assert_eq!(times.len(), n, "every instance must finish");
    times.iter().sum::<u64>() as f64 / n as f64
}

/// Runs the complete Figure 6 reproduction: per-benchmark normalized
/// average instance time over the instance counts.
///
/// All 25 (benchmark, instance-count) sweeps run as concurrent jobs; the
/// normalization base is the `n = 1` raw value of each benchmark (bit-equal
/// to the serial harness, which computed that value twice — the
/// simulations are deterministic).
pub fn run() -> Series {
    let kinds = BenchKind::ALL;
    let mut jobs: Vec<Job<f64>> = Vec::new();
    for n in INSTANCES {
        for kind in kinds {
            jobs.push(Box::new(move || avg_instance_time(kind, n as usize)));
        }
    }
    let raw = exec::run_jobs(jobs);
    // INSTANCES[0] == 1, so the first row is the per-benchmark base.
    let base = &raw[..kinds.len()];
    let mut rows = Vec::new();
    for (ni, n) in INSTANCES.into_iter().enumerate() {
        let row = &raw[ni * kinds.len()..(ni + 1) * kinds.len()];
        rows.push((n, row.iter().zip(base).map(|(t, b)| t / b).collect()));
    }
    Series {
        title: "Figure 6: average time per benchmark instance, normalized to 1 instance (flatter is better)"
            .to_string(),
        param: "instances".to_string(),
        columns: kinds.iter().map(|k| k.name().to_string()).collect(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalability_shape_matches_paper() {
        // §5.7: "all benchmarks scale very well with up to 4 instances";
        // find (m3fs-call heavy) degrades by 16, cat+tr shows nearly no
        // degradation.
        let norm = |kind, n| {
            let t1 = avg_instance_time(kind, 1);
            avg_instance_time(kind, n) / t1
        };

        let cat4 = norm(BenchKind::CatTr, 4);
        assert!(cat4 < 1.25, "cat+tr at 4 instances: {cat4}");
        let cat16 = norm(BenchKind::CatTr, 16);
        assert!(cat16 < 1.4, "cat+tr scales almost perfectly: {cat16}");

        let find4 = norm(BenchKind::Find, 4);
        assert!(find4 < 1.5, "find at 4 instances: {find4}");
        let find16 = norm(BenchKind::Find, 16);
        assert!(
            find16 > 1.3,
            "find must degrade at 16 instances (m3fs queueing): {find16}"
        );
        assert!(
            find16 > cat16,
            "find degrades more than cat+tr ({find16} vs {cat16})"
        );
    }
}
