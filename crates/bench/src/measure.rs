//! One body per measurement, and the two launchers that run it.
//!
//! Figures 3–5, 7 and the §5.2 cross-check time the *same* operation on
//! M3 and on the Linux model. Each operation is written once here, generic
//! over [`BenchOs`] (the portable [`OsApi`] plus the clock, the counters
//! and the null system call), and [`on_m3`] or [`on_lx`] runs it on one
//! system. Both systems start from one `SetupNode` list: m3fs boots from
//! it, and [`on_lx`] preloads the tmpfs from it.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use m3::System;
use m3_apps::os::OsApi;
use m3_apps::workload;
use m3_base::cfg::BENCH_BUF_SIZE;
use m3_fs::SetupNode;
use m3_kernel::protocol::Syscall;
use m3_libos::vfs::OpenFlags;
use m3_libos::Env;
use m3_lx::{LxConfig, LxMachine, LxProc};
use m3_sim::{keys, Sim};

use crate::report::Bar;

/// Transfer size of the file and pipe micro-benchmarks (2 MiB, §5.4).
pub const XFER_BYTES: usize = 2 * 1024 * 1024;

/// A [`XFER_BYTES`] file of deterministic content at `path`.
pub fn data_file(path: &str) -> SetupNode {
    SetupNode::file(path, workload::file_content(1, XFER_BYTES))
}

/// The per-system parts of a measurement.
// The simulator is single-threaded, so the futures need no `Send` bound.
#[allow(async_fn_in_trait)]
pub trait BenchOs: OsApi {
    /// The counter of application compute cycles.
    const APP: &'static str;
    /// The counter of data-transfer cycles.
    const XFER: &'static str;
    /// The counter of a null system call's transfer cycles: its DTU
    /// messages on M3. A Linux trap copies nothing, so there it is the
    /// transfer counter, which the trap leaves unchanged.
    const MSG: &'static str;

    /// The current simulated cycle.
    fn now(&self) -> u64;

    /// The total of counter `key` over all PEs.
    fn count(&self, key: &str) -> u64;

    /// One null system call.
    async fn null_syscall(&self);
}

impl BenchOs for Env {
    const APP: &'static str = keys::APP_CYCLES;
    const XFER: &'static str = keys::DTU_XFER_CYCLES;
    const MSG: &'static str = keys::DTU_MSG_CYCLES;

    fn now(&self) -> u64 {
        self.sim().now().as_u64()
    }

    fn count(&self, key: &str) -> u64 {
        self.sim().stats().get(key)
    }

    async fn null_syscall(&self) {
        self.syscall(Syscall::Noop).await.expect("null syscall");
    }
}

impl BenchOs for LxProc {
    const APP: &'static str = keys::LX_APP_CYCLES;
    const XFER: &'static str = keys::LX_XFER_CYCLES;
    const MSG: &'static str = keys::LX_XFER_CYCLES;

    fn now(&self) -> u64 {
        self.machine().sim().now().as_u64()
    }

    fn count(&self, key: &str) -> u64 {
        self.machine().stats().get(key)
    }

    async fn null_syscall(&self) {
        self.syscall_null().await;
    }
}

/// Runs `body` as a program on the booted `sys`, runs the system to
/// completion, and returns the body's value. The caller boots `sys`, so
/// it can enable tracing first and read its metrics afterwards.
///
/// # Panics
///
/// Panics if the body did not finish.
pub fn on_m3<T, F, Fut>(sys: &System, name: &str, body: F) -> T
where
    T: 'static,
    F: FnOnce(Env) -> Fut + 'static,
    Fut: Future<Output = T> + 'static,
{
    let out = Rc::new(Cell::new(None));
    let slot = out.clone();
    sys.run_program(name, move |env| async move {
        slot.set(Some(body(env).await));
        0
    });
    sys.run();
    out.take().expect("the M3 body finished")
}

/// Runs `body` as the one process of a fresh Linux machine with `cfg`,
/// whose tmpfs holds `setup`, and returns the body's value.
///
/// # Panics
///
/// Panics if the body did not finish or `setup` does not fit an empty
/// tmpfs.
pub fn on_lx<T, F, Fut>(cfg: LxConfig, setup: &[SetupNode], name: &str, body: F) -> T
where
    T: 'static,
    F: FnOnce(LxProc) -> Fut + 'static,
    Fut: Future<Output = T> + 'static,
{
    let sim = Sim::new();
    let machine = LxMachine::new(&sim, cfg);
    workload::preload_lx(&machine, setup);
    let out = Rc::new(Cell::new(None));
    let slot = out.clone();
    machine.spawn_proc(name, move |p| async move {
        slot.set(Some(body(p).await));
        0
    });
    sim.run();
    out.take().expect("the Linux body finished")
}

/// The elapsed cycles of a measured region and the counter growth that
/// splits them.
#[derive(Clone, Copy, Debug)]
pub struct Split {
    /// Elapsed cycles.
    pub total: u64,
    /// Growth of the application counter (App or FFT cycles).
    pub app: u64,
    /// Growth of the transfer counter.
    pub xfer: u64,
}

impl Split {
    /// The bar `label`, stacked as `app_name`, `Xfers` and `OS` (the rest).
    pub fn bar(self, label: &str, app_name: &str) -> Bar {
        Bar::with_remainder(
            label,
            self.total,
            vec![
                (app_name.to_string(), self.app),
                ("Xfers".to_string(), self.xfer),
            ],
            "OS",
        )
    }
}

/// Runs `work` on `os` and splits its elapsed cycles by the growth of the
/// counters `app` and `xfer`.
pub async fn split<O: BenchOs>(
    os: &O,
    app: &str,
    xfer: &str,
    work: impl Future<Output = ()>,
) -> Split {
    let (t0, a0, x0) = (os.now(), os.count(app), os.count(xfer));
    work.await;
    Split {
        total: os.now() - t0,
        app: os.count(app) - a0,
        xfer: os.count(xfer) - x0,
    }
}

/// The mean of `n` null system calls; `xfer` is their transfer share.
pub async fn null_syscalls<O: BenchOs>(os: &O, n: u64) -> Split {
    let s = split(os, O::APP, O::MSG, async {
        for _ in 0..n {
            os.null_syscall().await;
        }
    })
    .await;
    Split {
        total: s.total / n,
        app: s.app / n,
        xfer: s.xfer / n,
    }
}

/// Reads the file at `path` to its end in [`BENCH_BUF_SIZE`] chunks. The
/// region is the read loop; open and close lie outside it.
pub async fn read_file<O: BenchOs>(os: &O, path: &str) -> Split {
    let mut file = os.open(path, OpenFlags::R).await.expect("open");
    let mut buf = vec![0u8; BENCH_BUF_SIZE];
    let s = split(os, O::APP, O::XFER, async {
        while os.read(&mut file, &mut buf).await.expect("read") > 0 {}
    })
    .await;
    os.close(file).await.expect("close");
    s
}

/// Creates (or truncates) the file at `path` and [`fill`]s it.
pub async fn write_file<O: BenchOs>(os: &O, path: &str) -> Split {
    let file = os
        .open(path, OpenFlags::CREATE.or(OpenFlags::TRUNC))
        .await
        .expect("open");
    fill(os, file).await
}

/// Writes [`XFER_BYTES`] to `file` in [`BENCH_BUF_SIZE`] chunks and closes
/// it. The region is the write loop and the close.
pub async fn fill<O: BenchOs>(os: &O, mut file: O::File) -> Split {
    let buf = vec![0x61u8; BENCH_BUF_SIZE];
    split(os, O::APP, O::XFER, async {
        for _ in 0..XFER_BYTES / BENCH_BUF_SIZE {
            os.write_all(&mut file, &buf).await.expect("write");
        }
        os.close(file).await.expect("close");
    })
    .await
}

/// Copies the file at `src` to `dst` with a read/write loop (not
/// `sendfile`). The region is the loop and both closes; the opens lie
/// outside it.
pub async fn copy_file<O: BenchOs>(os: &O, src: &str, dst: &str) -> Split {
    let mut from = os.open(src, OpenFlags::R).await.expect("open");
    let mut to = os
        .open(dst, OpenFlags::CREATE.or(OpenFlags::TRUNC))
        .await
        .expect("open");
    let mut buf = vec![0u8; BENCH_BUF_SIZE];
    split(os, O::APP, O::XFER, async {
        loop {
            let n = os.read(&mut from, &mut buf).await.expect("read");
            if n == 0 {
                break;
            }
            os.write_all(&mut to, &buf[..n]).await.expect("write");
        }
        os.close(from).await.expect("close");
        os.close(to).await.expect("close");
    })
    .await
}
