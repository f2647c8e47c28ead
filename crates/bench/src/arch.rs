//! The §5.2 cross-check: Linux on Xtensa vs Linux on ARM.
//!
//! "A Linux system call requires 320 cycles on ARM and 410 cycles on
//! Xtensa, creating a 2 MiB large file has 2.4 million cycles overhead on
//! ARM and 2.2 million cycles on Xtensa, and copying a 2 MiB file has 3.2
//! million cycles overhead on both architectures." The point is that the
//! M3-vs-Linux results are not an artifact of the Xtensa port.

use m3::{System, SystemConfig};
use m3_fs::mount_m3fs;
use m3_lx::LxConfig;

use crate::exec::{self, Job};
use crate::measure::{self, on_lx, on_m3, BenchOs};
use crate::report::Series;

/// Linux's numbers: each operation on a fresh machine (the syscalls
/// without a warm-up call).
fn lx_row(cfg: LxConfig) -> Vec<f64> {
    let syscall = on_lx(cfg.clone(), &[], "syscall", |p| async move {
        measure::null_syscalls(&p, 100).await
    });
    let create = on_lx(cfg.clone(), &[], "create", |p| async move {
        measure::write_file(&p, "/new").await
    });
    let src = [measure::data_file("/src")];
    let copy = on_lx(cfg, &src, "copy", |p| async move {
        measure::copy_file(&p, "/src", "/dst").await
    });
    vec![syscall.total as f64, create.total as f64, copy.total as f64]
}

/// M3's numbers for the same operations, one after another in one system.
/// They do not depend on the core model at all — syscalls and transfers
/// ride the DTU — which is the §5.2 punchline: the M3-vs-Linux gap is not
/// an Xtensa artifact.
fn m3_row() -> Vec<f64> {
    let sys = System::boot(SystemConfig {
        pes: 4,
        fs_blocks: 16 * 1024,
        fs_setup: vec![measure::data_file("/src")],
        ..SystemConfig::default()
    });
    on_m3(&sys, "m3-row", |env| async move {
        env.null_syscall().await; // warm up
        let syscall = measure::null_syscalls(&env, 100).await;
        mount_m3fs(&env).await.unwrap();
        let create = measure::write_file(&env, "/new").await;
        let copy = measure::copy_file(&env, "/src", "/copy").await;
        vec![syscall.total as f64, create.total as f64, copy.total as f64]
    })
}

/// Runs the Xtensa-vs-ARM comparison (rows 0/1 = Linux on Xtensa/ARM,
/// row 2 = M3, which is core-independent), one [`exec::run_jobs`] job per
/// row.
pub fn run() -> Series {
    let jobs: Vec<Job<Vec<f64>>> = vec![
        Box::new(|| lx_row(LxConfig::xtensa())),
        Box::new(|| lx_row(LxConfig::arm())),
        Box::new(m3_row),
    ];
    let rows = (0..).zip(exec::run_jobs(jobs)).collect();
    Series {
        title: "§5.2 cross-check: Linux on Xtensa (0) vs ARM (1) vs M3, core-independent (2)"
            .to_string(),
        param: "arch".to_string(),
        columns: vec![
            "syscall (cycles)".to_string(),
            "create 2MiB (cycles)".to_string(),
            "copy 2MiB (cycles)".to_string(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_check_matches_paper() {
        let s = run();
        // §5.2: syscalls are 410 vs 320 cycles.
        assert_eq!(s.value(0, "syscall (cycles)"), 410.0);
        assert_eq!(s.value(1, "syscall (cycles)"), 320.0);

        // Create/copy land in the paper's low-single-digit millions and
        // are comparable across architectures (within ~2x).
        for col in ["create 2MiB (cycles)", "copy 2MiB (cycles)"] {
            let xtensa = s.value(0, col);
            let arm = s.value(1, col);
            assert!(xtensa > 1_000_000.0, "{col} on xtensa: {xtensa}");
            let ratio = xtensa / arm;
            assert!(
                (0.5..=2.5).contains(&ratio),
                "{col}: architectures should be comparable ({ratio})"
            );
            // And M3 beats both on either architecture (its data path is
            // the DTU, not the core).
            let m3 = s.value(2, col);
            assert!(m3 < arm, "{col}: M3 {m3} must beat even ARM Linux {arm}");
        }
        assert!(s.value(2, "syscall (cycles)") < 320.0);
    }
}
