//! The §5.2 cross-check: Linux on Xtensa vs Linux on ARM.
//!
//! "A Linux system call requires 320 cycles on ARM and 410 cycles on
//! Xtensa, creating a 2 MiB large file has 2.4 million cycles overhead on
//! ARM and 2.2 million cycles on Xtensa, and copying a 2 MiB file has 3.2
//! million cycles overhead on both architectures." The point is that the
//! M3-vs-Linux results are not an artifact of the Xtensa port.

use std::cell::Cell;
use std::rc::Rc;

use m3_apps::workload;
use m3_base::cfg::BENCH_BUF_SIZE;
use m3_base::Perm;
use m3_lx::{LxConfig, LxMachine};
use m3_sim::Sim;

use crate::fig3::XFER_BYTES;
use crate::report::Series;

fn lx_syscall(cfg: LxConfig) -> u64 {
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, cfg);
    let out = Rc::new(Cell::new(0u64));
    let out2 = out.clone();
    machine.spawn_proc("syscall", move |p| async move {
        let t0 = p.machine().sim().now().as_u64();
        const N: u64 = 100;
        for _ in 0..N {
            p.syscall_null().await;
        }
        out2.set((p.machine().sim().now().as_u64() - t0) / N);
        0
    });
    sim.run();
    out.get()
}

/// Creates a 2 MiB file; returns total cycles.
fn lx_create(cfg: LxConfig) -> u64 {
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, cfg);
    let out = Rc::new(Cell::new(0u64));
    let out2 = out.clone();
    machine.spawn_proc("create", move |p| async move {
        let mut f = p.open("/new", Perm::W, true, true).await.unwrap();
        let t0 = p.machine().sim().now().as_u64();
        let chunk = vec![0x61u8; BENCH_BUF_SIZE];
        let mut left = XFER_BYTES;
        while left > 0 {
            let n = chunk.len().min(left);
            f.write(&chunk[..n]).await.unwrap();
            left -= n;
        }
        f.close().await;
        out2.set(p.machine().sim().now().as_u64() - t0);
        0
    });
    sim.run();
    out.get()
}

/// Copies a 2 MiB file (read + write); returns total cycles.
fn lx_copy(cfg: LxConfig) -> u64 {
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, cfg);
    {
        let mut fs = machine.fs().borrow_mut();
        let ino = fs.create("/src").unwrap();
        fs.write(ino, 0, &workload::file_content(1, XFER_BYTES))
            .unwrap();
    }
    let out = Rc::new(Cell::new(0u64));
    let out2 = out.clone();
    machine.spawn_proc("copy", move |p| async move {
        let mut src = p.open("/src", Perm::R, false, false).await.unwrap();
        let mut dst = p.open("/dst", Perm::W, true, true).await.unwrap();
        let t0 = p.machine().sim().now().as_u64();
        loop {
            let data = src.read(BENCH_BUF_SIZE).await.unwrap();
            if data.is_empty() {
                break;
            }
            dst.write(&data).await.unwrap();
        }
        src.close().await;
        dst.close().await;
        out2.set(p.machine().sim().now().as_u64() - t0);
        0
    });
    sim.run();
    out.get()
}

/// M3's numbers for the same operations. They do not depend on the core
/// model at all — syscalls and transfers ride the DTU — which is the
/// §5.2 punchline: the M3-vs-Linux gap is not an Xtensa artifact.
fn m3_row() -> Vec<f64> {
    use m3::{System, SystemConfig};
    use m3_fs::mount_m3fs;
    use m3_libos::vfs::{self, OpenFlags};
    use std::cell::Cell;
    use std::rc::Rc;

    let sys = System::boot(SystemConfig {
        pes: 4,
        fs_blocks: 16 * 1024,
        fs_setup: vec![m3_fs::SetupNode::file(
            "/src",
            workload::file_content(1, XFER_BYTES),
        )],
        ..SystemConfig::default()
    });
    let out = Rc::new(Cell::new((0u64, 0u64, 0u64)));
    let out2 = out.clone();
    sys.run_program("m3-row", move |env| async move {
        env.syscall(m3_kernel::protocol::Syscall::Noop)
            .await
            .unwrap();
        let t0 = env.sim().now().as_u64();
        for _ in 0..100 {
            env.syscall(m3_kernel::protocol::Syscall::Noop)
                .await
                .unwrap();
        }
        let syscall = (env.sim().now().as_u64() - t0) / 100;

        mount_m3fs(&env).await.unwrap();
        let buf = vec![0x61u8; BENCH_BUF_SIZE];
        let t0 = env.sim().now().as_u64();
        let mut f = vfs::open(&env, "/new", OpenFlags::CREATE.or(OpenFlags::TRUNC))
            .await
            .unwrap();
        let mut left = XFER_BYTES;
        while left > 0 {
            let n = buf.len().min(left);
            let mut w = 0;
            while w < n {
                w += f.write(&buf[w..n]).await.unwrap();
            }
            left -= n;
        }
        f.close().await.unwrap();
        let create = env.sim().now().as_u64() - t0;

        let t0 = env.sim().now().as_u64();
        let mut src = vfs::open(&env, "/src", OpenFlags::R).await.unwrap();
        let mut dst = vfs::open(&env, "/copy", OpenFlags::CREATE.or(OpenFlags::TRUNC))
            .await
            .unwrap();
        let mut rbuf = vec![0u8; BENCH_BUF_SIZE];
        loop {
            let n = src.read(&mut rbuf).await.unwrap();
            if n == 0 {
                break;
            }
            let mut w = 0;
            while w < n {
                w += dst.write(&rbuf[w..n]).await.unwrap();
            }
        }
        src.close().await.unwrap();
        dst.close().await.unwrap();
        let copy = env.sim().now().as_u64() - t0;
        out2.set((syscall, create, copy));
        0
    });
    sys.run();
    let (a, b, c) = out.get();
    vec![a as f64, b as f64, c as f64]
}

/// Runs the Xtensa-vs-ARM comparison (rows 0/1 = Linux on Xtensa/ARM,
/// row 2 = M3, which is core-independent).
pub fn run() -> Series {
    let mut rows = Vec::new();
    for (idx, cfg) in [LxConfig::xtensa(), LxConfig::arm()]
        .into_iter()
        .enumerate()
    {
        rows.push((
            idx as u64,
            vec![
                lx_syscall(cfg.clone()) as f64,
                lx_create(cfg.clone()) as f64,
                lx_copy(cfg) as f64,
            ],
        ));
    }
    rows.push((2, m3_row()));
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
