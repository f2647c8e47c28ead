//! Ablation studies of the co-design's knobs (DESIGN.md §6).
//!
//! These are not in the paper; they quantify the design choices the paper
//! asserts qualitatively:
//!
//! - **DTU bandwidth**: the DTU moving 8 B/cycle — versus a crippled DTU —
//!   is what makes "data transfers make up a large portion of the
//!   difference" to Linux (§5.4),
//! - **NoC hop latency**: syscalls ride the NoC, so remote-kernel latency
//!   is sensitive to router delay (§5.3),
//! - **pipe credit depth**: the credit system (§4.4.3) doubles as flow
//!   control; more in-flight chunks overlap reader and writer,
//! - **endpoint pressure**: with only 8 EPs per DTU, gate multiplexing
//!   (§4.5.4) turns surplus gates into kernel round trips.

use std::cell::Cell;
use std::rc::Rc;

use m3::{System, SystemConfig};
use m3_apps::workload;
use m3_base::cfg::BENCH_BUF_SIZE;
use m3_base::Perm;
use m3_fs::{mount_m3fs, SetupNode};
use m3_kernel::protocol::{PeRequest, Syscall};
use m3_libos::pipe::{self, PipeRole, PipeWriter};
use m3_libos::vfs::{self, OpenFlags};
use m3_libos::{MemGate, Vpe};
use m3_noc::NocConfig;

use crate::fig3::XFER_BYTES;
use crate::report::Series;

/// Sweep: DTU/NoC bandwidth in bytes per cycle; measures a 2 MiB file read.
pub fn dtu_bandwidth() -> Series {
    let mut rows = Vec::new();
    for bw in [1u64, 2, 4, 8, 16] {
        let sys = System::boot(SystemConfig {
            pes: 4,
            fs_blocks: 16 * 1024,
            fs_setup: vec![SetupNode::file(
                "/data",
                workload::file_content(1, XFER_BYTES),
            )],
            noc: NocConfig {
                bytes_per_cycle: bw,
                ..NocConfig::default()
            },
            ..SystemConfig::default()
        });
        let out = Rc::new(Cell::new(0u64));
        let out2 = out.clone();
        sys.run_program("read", move |env| async move {
            mount_m3fs(&env).await.unwrap();
            let mut file = vfs::open(&env, "/data", OpenFlags::R).await.unwrap();
            let mut buf = vec![0u8; BENCH_BUF_SIZE];
            let t0 = env.sim().now().as_u64();
            while file.read(&mut buf).await.unwrap() > 0 {}
            out2.set(env.sim().now().as_u64() - t0);
            0
        });
        sys.run();
        rows.push((bw, vec![out.get() as f64]));
    }
    Series {
        title: "Ablation: DTU/NoC bandwidth vs 2 MiB read time".to_string(),
        param: "bytes/cycle".to_string(),
        columns: vec!["read (cycles)".to_string()],
        rows,
    }
}

/// Sweep: NoC per-hop router latency; measures the null system call.
pub fn hop_latency() -> Series {
    let mut rows = Vec::new();
    for lat in [1u64, 3, 8, 16, 32] {
        let sys = System::boot(SystemConfig {
            noc: NocConfig {
                hop_latency: m3_base::Cycles::new(lat),
                ..NocConfig::default()
            },
            ..SystemConfig::default()
        });
        let out = Rc::new(Cell::new(0u64));
        let out2 = out.clone();
        sys.run_program("sysc", move |env| async move {
            env.syscall(Syscall::Noop).await.unwrap();
            let t0 = env.sim().now().as_u64();
            for _ in 0..50 {
                env.syscall(Syscall::Noop).await.unwrap();
            }
            out2.set((env.sim().now().as_u64() - t0) / 50);
            0
        });
        sys.run();
        rows.push((lat, vec![out.get() as f64]));
    }
    Series {
        title: "Ablation: NoC hop latency vs null-syscall time".to_string(),
        param: "cycles/hop".to_string(),
        columns: vec!["syscall (cycles)".to_string()],
        rows,
    }
}

/// Sweep: pipe credit depth (in-flight chunks); measures a 2 MiB pipe
/// transfer between two PEs.
pub fn pipe_credits() -> Series {
    let mut rows = Vec::new();
    for slots in [1u32, 2, 4, 8, 16] {
        let sys = System::boot(SystemConfig {
            pes: 5,
            ..SystemConfig::default()
        });
        let out = Rc::new(Cell::new(0u64));
        let out2 = out.clone();
        sys.run_program("pipe", move |env| async move {
            let child = Vpe::new(&env, "writer", PeRequest::Same).await.unwrap();
            let (end, desc) = pipe::create_with(&env, &child, PipeRole::Writer, 64 * 1024, slots)
                .await
                .unwrap();
            let pipe::ParentEnd::Reader(mut reader) = end else {
                unreachable!("child writes")
            };
            child
                .run(move |cenv| async move {
                    let Ok(mut w) = PipeWriter::attach(&cenv, desc).await else {
                        return 1;
                    };
                    let chunk = vec![7u8; BENCH_BUF_SIZE];
                    let mut left = XFER_BYTES;
                    while left > 0 {
                        let n = chunk.len().min(left);
                        w.write(&chunk[..n]).await.unwrap();
                        left -= n;
                    }
                    w.close().await.unwrap();
                    0
                })
                .await
                .unwrap();
            let mut buf = vec![0u8; BENCH_BUF_SIZE];
            let t0 = env.sim().now().as_u64();
            while reader.read(&mut buf).await.unwrap() > 0 {}
            out2.set(env.sim().now().as_u64() - t0);
            child.wait().await.unwrap();
            0
        });
        sys.run();
        rows.push((slots as u64, vec![out.get() as f64]));
    }
    Series {
        title: "Ablation: pipe credit depth vs 2 MiB transfer time".to_string(),
        param: "credits".to_string(),
        columns: vec!["pipe (cycles)".to_string()],
        rows,
    }
}

/// Sweep: live memory gates; measures the average access time as gates
/// start to outnumber the 6 multiplexable endpoints.
pub fn ep_pressure() -> Series {
    let mut rows = Vec::new();
    for gates in [2u64, 4, 6, 8, 10, 12] {
        let sys = System::boot(SystemConfig::default());
        let out = Rc::new(Cell::new(0u64));
        let out2 = out.clone();
        sys.run_program("gates", move |env| async move {
            let mut mgs = Vec::new();
            for _ in 0..gates {
                mgs.push(MemGate::alloc(&env, 4096, Perm::RW).await.unwrap());
            }
            // Warm round (first activations).
            for g in &mgs {
                g.write(0, &[1]).await.unwrap();
            }
            // Measured rounds: round-robin over all gates.
            const ROUNDS: u64 = 10;
            let t0 = env.sim().now().as_u64();
            for _ in 0..ROUNDS {
                for g in &mgs {
                    g.read(0, 1).await.unwrap();
                }
            }
            out2.set((env.sim().now().as_u64() - t0) / (ROUNDS * gates));
            0
        });
        sys.run();
        rows.push((gates, vec![out.get() as f64]));
    }
    Series {
        title: "Ablation: live memory gates vs avg access time (8 EPs, 6 free)".to_string(),
        param: "gates".to_string(),
        columns: vec!["access (cycles)".to_string()],
        rows,
    }
}

/// Multi-kernel extension (paper §7): 16 parallel `find` instances served
/// by one kernel+m3fs pair versus two kernel shards with a pair each (8
/// instances each). `find` is the §5.7 worst case — pure service traffic — so it
/// shows the payoff of a second instance most directly.
pub fn multikernel_scaling() -> Series {
    use std::cell::RefCell;

    // avg time of `per_part` find instances on each of `parts` shards.
    let run = |parts: usize, per_part: usize| -> f64 {
        let sys = System::boot(SystemConfig {
            pes: parts * (2 + per_part),
            shards: parts,
            noc: NocConfig {
                contention: false,
                ..NocConfig::default()
            },
            fs_blocks: 4096,
            fs_setup: workload::find_tree(33).to_setup(),
            ..SystemConfig::default()
        });
        let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for p in 0..parts {
            for i in 0..per_part {
                let times = times.clone();
                sys.run_program_on(p, &format!("find{p}-{i}"), move |env| async move {
                    mount_m3fs(&env).await.unwrap();
                    let t0 = env.sim().now().as_u64();
                    m3_apps::m3app::find(&env, "/", "log").await.unwrap();
                    times.borrow_mut().push(env.sim().now().as_u64() - t0);
                    0
                });
            }
        }
        sys.sim().run();
        let times = times.borrow();
        assert_eq!(times.len(), parts * per_part);
        times.iter().sum::<u64>() as f64 / times.len() as f64
    };

    let base = run(1, 1);
    let one_kernel_16 = run(1, 16) / base;
    let two_kernels_16 = run(2, 8) / base;
    Series {
        title: "Extension (§7): 16 find instances, 1 vs 2 kernel+m3fs partitions (normalized)"
            .to_string(),
        param: "kernels".to_string(),
        columns: vec!["norm. avg instance time".to_string()],
        rows: vec![(1, vec![one_kernel_16]), (2, vec![two_kernels_16])],
    }
}

/// Runs all ablations and returns them in order.
pub fn run_all() -> Vec<Series> {
    vec![
        dtu_bandwidth(),
        hop_latency(),
        pipe_credits(),
        ep_pressure(),
        multikernel_scaling(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_sweep_is_monotone() {
        let s = dtu_bandwidth();
        let t1 = s.value(1, "read (cycles)");
        let t8 = s.value(8, "read (cycles)");
        let t16 = s.value(16, "read (cycles)");
        assert!(t1 > 2.0 * t8, "1 B/c must be far slower: {t1} vs {t8}");
        assert!(t16 < t8, "more bandwidth, less time");
    }

    #[test]
    fn hop_latency_hits_syscalls() {
        let s = hop_latency();
        let fast = s.value(1, "syscall (cycles)");
        let slow = s.value(32, "syscall (cycles)");
        // Each syscall crosses >= 2 routes (request + reply).
        assert!(slow > fast + 60.0, "latency must show up: {fast} vs {slow}");
    }

    #[test]
    fn single_credit_pipe_loses_overlap() {
        let s = pipe_credits();
        let one = s.value(1, "pipe (cycles)");
        let eight = s.value(8, "pipe (cycles)");
        assert!(
            one > eight * 1.3,
            "one credit serializes writer and reader: {one} vs {eight}"
        );
    }

    #[test]
    fn second_kernel_instance_halves_the_queueing() {
        let s = multikernel_scaling();
        let one = s.value(1, "norm. avg instance time");
        let two = s.value(2, "norm. avg instance time");
        assert!(one > 1.5, "16 finds must queue at a single m3fs: {one}");
        assert!(
            two < one * 0.75,
            "a second partition must relieve the bottleneck: {two} vs {one}"
        );
    }

    #[test]
    fn gate_pressure_beyond_free_eps_costs_activations() {
        let s = ep_pressure();
        let six = s.value(6, "access (cycles)");
        let twelve = s.value(12, "access (cycles)");
        assert!(
            twelve > six + 150.0,
            "thrashing gates must pay kernel round trips: {six} vs {twelve}"
        );
    }
}
