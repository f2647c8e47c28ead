//! Figure 3: system calls and file operations.
//!
//! Left: a null system call on M3 (DTU message to the kernel PE + reply)
//! vs Linux (mode switch). Right: reading/writing a 2 MiB file with 4 KiB
//! buffers, and piping 2 MiB between two processes/VPEs. Bars split into
//! "Xfers" (data/message transfers) and "Other" (OS + library overhead).

use m3::{System, SystemConfig};
use m3_base::cfg::BENCH_BUF_SIZE;
use m3_fs::{mount_m3fs, SetupNode};
use m3_libos::pipe::{self, PipeRole, PipeWriter};
use m3_libos::Vpe;
use m3_lx::{LxConfig, LxProc};
use m3_sim::{keys, Event};

use crate::exec::{self, Job};
use crate::measure::{self, on_lx, on_m3, BenchOs, Split, XFER_BYTES};
use crate::report::{Bar, Figure, Group};

fn bar(label: &str, s: Split) -> Bar {
    Bar::with_remainder(label, s.total, vec![("Xfers".to_string(), s.xfer)], "Other")
}

/// The M3 bar of `s`, annotated with `sys`'s per-PE metrics.
fn m3_bar(sys: &System, s: Split) -> Bar {
    bar("M3", s).with_note(sys.sim().metrics().summary_line(sys.now()))
}

/// One warm-up call, then the mean of 100 null system calls.
async fn syscall<O: BenchOs>(os: &O) -> Split {
    os.null_syscall().await;
    measure::null_syscalls(os, 100).await
}

fn m3_syscall() -> Bar {
    let sys = System::boot(SystemConfig::default());
    let s = on_m3(
        &sys,
        "syscall-bench",
        |env| async move { syscall(&env).await },
    );
    m3_bar(&sys, s)
}

fn lx_syscall(cfg: LxConfig, label: &str) -> Bar {
    let s = on_lx(
        cfg,
        &[],
        "syscall-bench",
        |p| async move { syscall(&p).await },
    );
    bar(label, s)
}

/// The file a read finds at boot; a write starts from an empty file system.
fn file_setup(read: bool) -> Vec<SetupNode> {
    if read {
        vec![measure::data_file("/data")]
    } else {
        Vec::new()
    }
}

/// Reads `/data` or writes `/new`.
async fn file_op<O: BenchOs>(os: &O, read: bool) -> Split {
    if read {
        measure::read_file(os, "/data").await
    } else {
        measure::write_file(os, "/new").await
    }
}

fn m3_file(read: bool) -> Bar {
    m3_file_run(read, false, None).0
}

/// Runs the M3 file benchmark with tracing enabled and returns the recorded
/// events plus a rendered per-PE metrics snapshot (for export and the
/// determinism tests).
pub fn traced_file_read() -> (Vec<Event>, String) {
    let (_, events, metrics) = m3_file_run(true, true, None);
    (events, metrics)
}

/// Runs the Figure 3 file-read scenario under the fault schedule `plan`,
/// with tracing enabled and the standard recovery policy installed.
/// Returns the measured cycle total and the recorded trace events.
///
/// The chaos and determinism suites pin this entry point: the same plan
/// must reproduce the same total and byte-identical events. The caller
/// picks a plan the workload survives (delays, partitions that heal,
/// bounded drops); the installed policy retries through message loss.
pub fn faulted_file_read(plan: m3_fault::FaultPlan) -> (u64, Vec<Event>) {
    let (bar, events, _) = m3_file_run(true, true, Some(plan));
    (bar.total, events)
}

/// The fixed fault schedule pinned by the golden-cycle and determinism
/// suites: a degraded (but lossless) fs link, a short partition, and a
/// brief stall of the benchmark PE. The workload must survive it without
/// retries, so the perturbed total is an exact, reproducible constant.
pub fn golden_fault_plan() -> m3_fault::FaultPlan {
    use m3_base::{Cycles, PeId};
    use m3_fault::CycleWindow;
    // In the 4-PE fig3 scenario: PE0 kernel, PE1 m3fs, PE2 benchmark,
    // DRAM on the last NoC node (PE4). The measured read loop moves its
    // data over the app↔DRAM route (file extents are delegated, so the fs
    // link is idle during the loop) and runs from roughly cycle 270k to
    // 640k — the stall and partition windows sit inside that span.
    let app = PeId::new(2);
    let dram = PeId::new(4);
    m3_fault::FaultPlan::new()
        .delay_link(
            dram,
            app,
            CycleWindow::new(Cycles::ZERO, Cycles::new(10_000_000)),
            Cycles::new(64),
        )
        .stall_pe(
            app,
            CycleWindow::new(Cycles::new(400_000), Cycles::new(405_000)),
        )
        .partition(
            app,
            dram,
            CycleWindow::new(Cycles::new(450_000), Cycles::new(460_000)),
        )
}

fn m3_file_run(
    read: bool,
    trace: bool,
    fault: Option<m3_fault::FaultPlan>,
) -> (Bar, Vec<Event>, String) {
    let faulted = fault.is_some();
    let sys = System::boot(SystemConfig {
        pes: 4,
        fs_blocks: 16 * 1024,
        fs_setup: file_setup(read),
        fault_plan: fault,
        ..SystemConfig::default()
    });
    if trace {
        sys.sim().enable_trace();
    }
    let s = on_m3(&sys, "file-bench", move |env| async move {
        if faulted {
            env.set_recovery(Some(m3_fault::RecoveryPolicy::standard(0x4d31_f1f3)));
        }
        mount_m3fs(&env).await.unwrap();
        file_op(&env, read).await
    });
    let metrics = sys.sim().metrics().render(sys.now());
    (m3_bar(&sys, s), sys.sim().trace(), metrics)
}

fn lx_file(cfg: LxConfig, label: &str, read: bool) -> Bar {
    let s = on_lx(cfg, &file_setup(read), "file-bench", move |p| async move {
        file_op(&p, read).await
    });
    bar(label, s)
}

fn m3_pipe() -> Bar {
    let sys = System::boot(SystemConfig {
        pes: 5,
        ..SystemConfig::default()
    });
    let s = on_m3(&sys, "pipe-bench", |env| async move {
        let child = Vpe::new(&env, "writer", m3_kernel::protocol::PeRequest::Same)
            .await
            .unwrap();
        let (end, desc) = pipe::create(&env, &child, PipeRole::Writer, pipe::DEF_BUF_SIZE)
            .await
            .unwrap();
        let pipe::ParentEnd::Reader(mut reader) = end else {
            unreachable!("child is the writer")
        };
        child
            .run(move |cenv| async move {
                let Ok(mut writer) = PipeWriter::attach(&cenv, desc).await else {
                    return 1;
                };
                let chunk = vec![0x61u8; BENCH_BUF_SIZE];
                for _ in 0..XFER_BYTES / BENCH_BUF_SIZE {
                    if writer.write(&chunk).await.is_err() {
                        return 1;
                    }
                }
                writer.close().await.unwrap();
                0
            })
            .await
            .unwrap();

        // Only the reader's transfers: the writer's run on its own PE,
        // overlapped with the reader's elapsed time.
        let xfers = || env.sim().metrics().get(env.pe(), keys::DTU_XFER_CYCLES);
        let mut buf = vec![0u8; BENCH_BUF_SIZE];
        let (t0, x0) = (env.now(), xfers());
        while reader.read(&mut buf).await.unwrap() > 0 {}
        let s = Split {
            total: env.now() - t0,
            app: 0,
            xfer: xfers() - x0,
        };
        child.wait().await.unwrap();
        s
    });
    m3_bar(&sys, s)
}

fn lx_pipe(cfg: LxConfig, label: &str) -> Bar {
    let s = on_lx(cfg, &[], "pipe-bench", |p| async move {
        let (mut rx, mut tx) = p.pipe().await;
        p.fork("writer", move |c| async move {
            let chunk = vec![0x61u8; BENCH_BUF_SIZE];
            for _ in 0..XFER_BYTES / BENCH_BUF_SIZE {
                if tx.write(&c, &chunk).await.is_err() {
                    return 1;
                }
            }
            tx.close();
            0
        })
        .await;
        let s = measure::split(&p, LxProc::APP, LxProc::XFER, async {
            while !rx.read(&p, BENCH_BUF_SIZE).await.unwrap().is_empty() {}
        })
        .await;
        rx.close();
        s
    });
    bar(label, s)
}

/// Runs the complete Figure 3 reproduction.
///
/// The twelve bars are independent simulations, so they are measured
/// concurrently (see [`crate::exec`]) and assembled in the fixed
/// group/label order the serial harness used.
pub fn run() -> Figure {
    let jobs: Vec<Job<Bar>> = vec![
        Box::new(m3_syscall),
        Box::new(|| lx_syscall(LxConfig::xtensa(), "Lx")),
        Box::new(|| lx_syscall(LxConfig::xtensa_warm(), "Lx-$")),
        Box::new(|| m3_file(true)),
        Box::new(|| lx_file(LxConfig::xtensa(), "Lx", true)),
        Box::new(|| lx_file(LxConfig::xtensa_warm(), "Lx-$", true)),
        Box::new(|| m3_file(false)),
        Box::new(|| lx_file(LxConfig::xtensa(), "Lx", false)),
        Box::new(|| lx_file(LxConfig::xtensa_warm(), "Lx-$", false)),
        Box::new(m3_pipe),
        Box::new(|| lx_pipe(LxConfig::xtensa(), "Lx")),
        Box::new(|| lx_pipe(LxConfig::xtensa_warm(), "Lx-$")),
    ];
    let mut bars = exec::run_jobs(jobs).into_iter();
    let mut group = |name: &str| Group {
        name: name.to_string(),
        bars: bars.by_ref().take(3).collect(),
    };
    Figure {
        title:
            "Figure 3: system calls and file operations (cycles; Lx-$ = Linux without cache misses)"
                .to_string(),
        groups: vec![
            group("syscall"),
            group("read"),
            group("write"),
            group("pipe"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_shape_matches_paper() {
        let fig = run();

        // §5.3: M3 null syscall ≈ 200 cycles, Linux ≈ 410.
        let m3 = fig.bar("syscall", "M3").total;
        let lx = fig.bar("syscall", "Lx").total;
        assert!((150..=260).contains(&m3), "M3 syscall {m3}");
        assert_eq!(lx, 410);
        assert!(lx > m3 * 3 / 2, "Linux must be ~2x slower");

        // §5.4: M3 reads/writes beat Linux clearly (DTU vs memcpy).
        for op in ["read", "write", "pipe"] {
            let m3 = fig.bar(op, "M3").total;
            let lx = fig.bar(op, "Lx").total;
            let lx_warm = fig.bar(op, "Lx-$").total;
            assert!(lx > 3 * m3, "{op}: Lx {lx} vs M3 {m3}");
            assert!(lx_warm < lx, "{op}: warm Linux must be faster than cold");
            assert!(lx_warm > m3, "{op}: M3 still wins without misses");
        }

        // Transfers dominate the M3 file operations (paper: "a large
        // portion of the difference is made up by data transfers").
        let read = fig.bar("read", "M3");
        let xfers = read.parts.iter().find(|(n, _)| n == "Xfers").unwrap().1;
        assert!(xfers * 2 > read.total, "transfers should dominate M3 read");
    }

    #[test]
    fn m3_pipe_bar_counts_only_the_readers_transfers() {
        // The writer's transfers overlap the reader's elapsed time; counting
        // both PEs' would exceed the bar's total and leave no `Other`.
        let bar = m3_pipe();
        let other = bar.parts.iter().find(|(n, _)| n == "Other").unwrap().1;
        assert!(other > 0, "M3 pipe: {:?}", bar.parts);
    }
}
