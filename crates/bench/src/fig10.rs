//! Figure 10: multikernel sharding throughput (paper §7, future work).
//!
//! The paper names "multiple kernel instances" as the scalability path for
//! large manycores — one kernel PE processes system calls serially, so its
//! throughput flatlines no matter how many application PEs the machine has.
//! This benchmark carves the machine into 1–8 kernel shards, one per PDES
//! island ([`System::boot_in`] inside each island `Sim`), wires the shard
//! kernels together with the kernel-to-kernel (ktk) protocol over the
//! island boundary ports, and measures aggregate kernel operations per
//! kilocycle under a fixed per-shard admission workload.
//!
//! Each island runs [`PLACERS`] placer programs doing create/revoke rounds
//! against the local kernel, plus one *spiller* that requests the scarce
//! FFT-accelerator PE type hosted only by the last shard — so every
//! spiller round on any other shard exercises the full cross-shard
//! placement path (`NoFreePe` → forward to the least-loaded peer →
//! capabilities delegated back). With one shard the same workload runs
//! entirely through one kernel: the single-kernel baseline takes the
//! exact standalone code path (no shard context is attached).
//!
//! The digest folds every island's op counts and final clock together and
//! must be byte-identical for every `--sim-workers` count (asserted by
//! `tests/pdes.rs`).

use std::fmt::Write as _;

use m3::{System, SystemConfig};
use m3_base::error::Code;
use m3_base::{Cycles, PeId};
use m3_kernel::protocol::PeRequest;
use m3_libos::Vpe;
use m3_platform::PeType;
use m3_sim::keys;
use m3_sim::pdes::{self, IslandBuilder, IslandFinish, PdesConfig};

use crate::exec::{self, Job};
use crate::pdes_bench;

/// Placer programs per shard (enough concurrency to keep one kernel busy).
pub const PLACERS: usize = 4;

/// Create/revoke rounds per placer.
pub const ROUNDS: usize = 8;

/// Accelerator-placement rounds of the per-shard spiller.
pub const SPILL_ROUNDS: usize = 4;

/// FFT-accelerator PEs, hosted only by the last shard.
pub const ACCEL_PES: usize = 4;

/// Smallest per-shard slice: kernel + fs + placers + spiller + their
/// children need headroom, and the accel shard additionally hosts
/// [`ACCEL_PES`] accelerators inside the same slice.
pub const MIN_PES_PER_SHARD: u32 = 16;

/// The PE counts of the sweep.
pub const PE_COUNTS: [u32; 3] = [64, 256, 1024];

/// The shard counts of the sweep (capped per PE count by
/// [`shard_counts_for`]).
pub const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// The shard counts that fit `pes` (each shard needs
/// [`MIN_PES_PER_SHARD`] PEs).
pub fn shard_counts_for(pes: u32) -> Vec<u32> {
    SHARD_COUNTS
        .iter()
        .copied()
        .filter(|s| pes / s >= MIN_PES_PER_SHARD && pes.is_multiple_of(*s))
        .collect()
}

/// One sweep point: `pes` total PEs carved into `shards` kernel shards.
#[derive(Clone, Debug)]
pub struct Fig10Point {
    pub pes: u32,
    pub shards: u32,
    /// Kernel operations summed over all shards (syscalls + ktk requests).
    pub ops: u64,
    /// Successful VPE admissions (the serving-capacity proxy).
    pub serve: u64,
    /// Placements that crossed a shard boundary.
    pub xplace: u64,
    /// Final simulated clock.
    pub end: Cycles,
    /// The headline metric: aggregate kernel throughput.
    pub ops_per_kcycle: f64,
    /// Deterministic digest (identical for every worker count).
    pub digest: String,
}

fn island_builder(id: u32, shards: u32, pes_per_shard: usize) -> IslandBuilder {
    Box::new(move |ctx| {
        let sim = ctx.sim().clone();
        // Only the last shard hosts the accelerators: placements for them
        // from any other shard must cross shards.
        let accel = if id == shards - 1 { ACCEL_PES } else { 0 };
        let sys = System::boot_in(
            sim.clone(),
            SystemConfig {
                pes: pes_per_shard - accel,
                accel_pes: accel,
                fs_blocks: 1024,
                ..SystemConfig::default()
            },
        );

        // Wire this shard's kernel to its peers: ktk bytes travel as
        // timestamped island-boundary events (port 0), and a gateway
        // daemon pumps arrivals into the kernel. A single shard attaches
        // no context at all — the exact standalone kernel code path.
        if shards > 1 {
            let peers: Vec<(u32, PeId)> = (0..shards)
                .filter(|s| *s != id)
                .map(|s| (s, PeId::new(0)))
                .collect();
            let send_ctx = ctx.clone();
            sys.kernel().set_shard(
                id,
                shards,
                &peers,
                Box::new(move |dst, bytes| {
                    let at = send_ctx.sim().now() + send_ctx.lookahead();
                    send_ctx.send(at, dst, 0, bytes);
                }),
            );
            let port = ctx.port(0);
            let kernel = sys.kernel().clone();
            sim.spawn_daemon("ktk-gateway", async move {
                loop {
                    let (_at, bytes) = port.recv().await;
                    kernel.ktk_deliver(&bytes);
                }
            });
            sys.kernel().ktk_hello();
        }

        // Fixed per-shard admission load: every round is a CreateVpe plus
        // a Revoke against this shard's kernel.
        let jobs: Vec<_> = (0..PLACERS)
            .map(|_| {
                sys.run_program("placer", move |env| async move {
                    let mut created = 0i64;
                    for _ in 0..ROUNDS {
                        let vpe = Vpe::new(&env, "w", PeRequest::Same).await.unwrap();
                        vpe.revoke().await.unwrap();
                        created += 1;
                    }
                    created
                })
            })
            .collect();

        // The spiller wants the scarce accelerator type. On the accel
        // shard this is a local placement; everywhere else the local
        // kernel hits NoFreePe and forwards over the ktk gate. Contention
        // for the few accelerator PEs can exhaust them everywhere — that
        // is a clean typed NoFreePe, counted, not retried.
        let spill = sys.run_program("spiller", move |env| async move {
            let mut placed = 0i64;
            for _ in 0..SPILL_ROUNDS {
                match Vpe::new(&env, "fft", PeRequest::Type(PeType::FftAccel)).await {
                    Ok(vpe) => {
                        placed += 1;
                        vpe.revoke().await.unwrap();
                    }
                    Err(e) => assert_eq!(e.code(), Code::NoFreePe),
                }
            }
            placed
        });

        // The finish closure owns the System: dropping it ends the
        // island's simulation, so it must live past the last window.
        let finish: IslandFinish = Box::new(move |ctx| {
            let created: i64 = jobs
                .iter()
                .map(|j| j.try_take().expect("placer finished before termination"))
                .sum();
            let placed = spill
                .try_take()
                .expect("spiller finished before termination");
            let stats = sys.stats();
            let ops = stats.get(keys::KERNEL_SYSCALLS) + stats.get(keys::KTK_REQUESTS);
            let xplace = stats.get(keys::REMOTE_PLACEMENTS);
            format!(
                "i{}:ops={}:serve={}:xplace={}:end={}",
                ctx.id(),
                ops,
                created + placed,
                xplace,
                sys.now().as_u64(),
            )
        });
        finish
    })
}

/// Extracts `key=<n>` from one island output line.
fn field(line: &str, key: &str) -> u64 {
    line.split(':')
        .find_map(|part| part.strip_prefix(key))
        .and_then(|v| v.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("island output {line:?} lacks {key}"))
}

/// Runs one sweep point.
///
/// # Panics
///
/// Panics if `pes` does not divide into `shards` slices of at least
/// [`MIN_PES_PER_SHARD`] PEs.
pub fn run_point(pes: u32, shards: u32) -> Fig10Point {
    assert!(
        pes.is_multiple_of(shards) && pes / shards >= MIN_PES_PER_SHARD,
        "{pes} PEs cannot be carved into {shards} shards"
    );
    let per = (pes / shards) as usize;
    let cfg = PdesConfig {
        lookahead: pdes_bench::lookahead(shards),
        workers: 1,
    };
    let builders: Vec<IslandBuilder> = (0..shards)
        .map(|i| island_builder(i, shards, per))
        .collect();
    let report = pdes::run(&cfg, builders);
    let ops: u64 = report.outputs.iter().map(|l| field(l, "ops")).sum();
    let serve: u64 = report.outputs.iter().map(|l| field(l, "serve")).sum();
    let xplace: u64 = report.outputs.iter().map(|l| field(l, "xplace")).sum();
    let end = report.end_time;
    Fig10Point {
        pes,
        shards,
        ops,
        serve,
        xplace,
        end,
        ops_per_kcycle: ops as f64 * 1e3 / end.as_u64().max(1) as f64,
        digest: pdes_bench::digest(&report),
    }
}

/// The rendered sweep: one table per machine size.
#[derive(Clone, Debug)]
pub struct Fig10 {
    /// `(pes, points)` per machine size, shard counts ascending.
    pub sweeps: Vec<(u32, Vec<Fig10Point>)>,
}

impl Fig10 {
    /// Renders one table per machine size plus each point's digest. Host
    /// wall clock is left out, so the text is identical for every worker
    /// count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (pes, points) in &self.sweeps {
            let _ = writeln!(out, "== fig10: kernel throughput vs shards at {pes} PEs ==");
            let _ = writeln!(
                out,
                "  {:<7} {:>10} {:>12} {:>9} {:>8} {:>8} {:>12}",
                "shards", "kernel-ops", "ops/kcycle", "scaling", "serve", "xplace", "end-cycles"
            );
            let base = points.first().map_or(1.0, |p| p.ops_per_kcycle);
            for p in points {
                let _ = writeln!(
                    out,
                    "  {:<7} {:>10} {:>12.2} {:>8.2}x {:>8} {:>8} {:>12}",
                    p.shards,
                    p.ops,
                    p.ops_per_kcycle,
                    p.ops_per_kcycle / base,
                    p.serve,
                    p.xplace,
                    p.end.as_u64(),
                );
                let _ = writeln!(out, "  digest[{}] {}", p.shards, p.digest);
            }
        }
        out
    }

    /// Final simulated clocks summed over every point.
    pub fn end_cycles(&self) -> u64 {
        self.sweeps
            .iter()
            .flat_map(|(_, points)| points)
            .map(|p| p.end.as_u64())
            .sum()
    }
}

/// Runs the sweep at every PE count in `pe_counts`: one
/// [`exec::run_jobs`] job per (PEs, shards) point, each running its
/// islands on one thread.
pub fn run(pe_counts: &[u32]) -> Fig10 {
    let jobs: Vec<Job<Fig10Point>> = pe_counts
        .iter()
        .flat_map(|&pes| shard_counts_for(pes).into_iter().map(move |s| (pes, s)))
        .map(|(pes, s)| -> Job<Fig10Point> { Box::new(move || run_point(pes, s)) })
        .collect();
    let mut points = exec::run_jobs(jobs).into_iter();
    let sweeps = pe_counts
        .iter()
        .map(|&pes| {
            let n = shard_counts_for(pes).len();
            (pes, points.by_ref().take(n).collect())
        })
        .collect();
    Fig10 { sweeps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_runs_without_shard_context() {
        let p = run_point(32, 1);
        assert_eq!(p.xplace, 0, "one shard never crosses shards");
        assert_eq!(p.serve as usize, PLACERS * ROUNDS + SPILL_ROUNDS);
    }

    #[test]
    fn two_shards_cross_place() {
        // Shard 0 has no accelerators: its spiller rounds crossed shards.
        assert!(
            run_point(32, 2).xplace > 0,
            "expected cross-shard placements"
        );
    }

    #[test]
    fn kernel_ops_scale_with_shards_at_256_pes() {
        // The acceptance thresholds of the sharding work: at 256 PEs the
        // aggregate kernel throughput must scale >= 1.7x from 1 -> 2
        // shards and >= 3x from 1 -> 4 shards.
        let one = run_point(256, 1);
        let two = run_point(256, 2);
        let four = run_point(256, 4);
        let s2 = two.ops_per_kcycle / one.ops_per_kcycle;
        let s4 = four.ops_per_kcycle / one.ops_per_kcycle;
        assert!(s2 >= 1.7, "1->2 shard scaling {s2:.2}x below 1.7x");
        assert!(s4 >= 3.0, "1->4 shard scaling {s4:.2}x below 3.0x");
    }
}
