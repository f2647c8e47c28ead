//! `shards-pdes`: 256 PEs as 8 kernel shards, one PDES island each. Kernel
//! syscall dispatch, the capability tree, the kernel-to-kernel (ktk)
//! protocol and the PDES window barriers do the work; no bulk data moves.
//!
//! The island builder follows fig10's: [`System::boot_in`] inside the
//! island's `Sim`, then `set_shard` wires the kernel to its peers over the
//! island ports. It is copied here so that changes to the figures leave the
//! benchmark alone.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use m3::{System, SystemConfig};
use m3_base::rand::Rng;
use m3_base::{Cycles, PeId};
use m3_kernel::protocol::PeRequest;
use m3_libos::Vpe;
use m3_noc::{IslandMap, NocConfig, Topology};
use m3_platform::PeType;
use m3_sim::pdes::{self, IslandBuilder, IslandFinish, PdesConfig};

use crate::measure::{self, Acc, Counters, Probe, Rep, RepClock, TraceOut};

/// Kernel shards, one PDES island each.
pub const ISLANDS: u32 = 8;

/// PEs per island (256 in all).
pub const PES_PER_ISLAND: usize = 32;

/// Placer programs per island.
pub const PLACERS: u64 = 4;

/// FFT-accelerator PEs, all on the last island: one per island's spiller,
/// so accelerator placements never run out and no op fails.
pub const ACCEL_PES: usize = ISLANDS as usize;

/// PDES worker threads of the measured reps. With the coordinating thread
/// a run then uses two threads, the calibration host's `nproc`; on two
/// workers the three threads share two cores, and host speed swung by a
/// third between runs.
pub const WORKERS: usize = 1;

/// PDES worker threads of the extra traced-run rep that measures the
/// parallel speed-up.
pub const SPEEDUP_WORKERS: usize = 2;

/// Upper bound of the seeded pause before each request; it shuffles the
/// order in which requests reach the kernels.
const JITTER: u64 = 2_000;

/// The spiller places one accelerator per this many placer rounds.
const SPILL_EVERY: u64 = 4;

/// Long-haul links between the islands (fig10's inter-shard NoC).
fn shard_noc() -> NocConfig {
    NocConfig {
        hop_latency: Cycles::new(48),
        ..NocConfig::default()
    }
}

fn spill_rounds(rounds: u64) -> u64 {
    (rounds / SPILL_EVERY).max(1)
}

/// Placements one island makes.
fn island_ops(rounds: u64) -> u64 {
    PLACERS * rounds + spill_rounds(rounds)
}

/// What one island hands back after its last window.
struct IslandOut {
    acc: Acc,
    counters: Counters,
    trace: Option<TraceOut>,
}

type Outs = Arc<Mutex<Vec<IslandOut>>>;

/// One rep: each placer makes `rounds` placements on `workers` threads.
pub fn rep(seed: u64, rounds: u64, trace: bool, workers: usize) -> Rep {
    let map = IslandMap::columns(Topology::new(ISLANDS, 1, ISLANDS), ISLANDS);
    let cfg = PdesConfig {
        lookahead: map.lookahead(&shard_noc()),
        workers,
    };
    let outs: Outs = Arc::default();
    let booted: Arc<Mutex<Option<Instant>>> = Arc::default();
    let clock = RepClock::start();
    let builders: Vec<IslandBuilder> = (0..ISLANDS)
        .map(|id| island(id, seed, rounds, trace, outs.clone(), booted.clone()))
        .collect();
    let report = pdes::run(&cfg, builders);
    let booted = *booted.lock().unwrap_or_else(PoisonError::into_inner);
    let outs = std::mem::take(&mut *outs.lock().unwrap_or_else(PoisonError::into_inner));
    let expected = u64::from(ISLANDS) * island_ops(rounds);
    let mut accs = Vec::new();
    let mut counters = Counters {
        pdes_windows: report.windows,
        pdes_events: report.events,
        pdes_wait: report.islands.iter().map(|i| i.barrier_wait.as_u64()).sum(),
        pdes_advanced: report.islands.iter().map(|i| i.advanced.as_u64()).sum(),
        ..Counters::default()
    };
    let mut traced = trace.then(TraceOut::default);
    for out in outs {
        accs.push(out.acc);
        counters.add(&out.counters);
        if let (Some(all), Some(t)) = (traced.as_mut(), out.trace.as_ref()) {
            all.add(t);
        }
    }
    let ready = booted.map(|at| (at, Cycles::ZERO));
    clock.finish(ready, measure::merge(accs), expected, || (counters, traced))
}

fn island(
    id: u32,
    seed: u64,
    rounds: u64,
    trace: bool,
    outs: Outs,
    booted: Arc<Mutex<Option<Instant>>>,
) -> IslandBuilder {
    Box::new(move |ctx| {
        let sim = ctx.sim().clone();
        if trace {
            measure::trace_on(&sim);
        }
        let accel = if id == ISLANDS - 1 { ACCEL_PES } else { 0 };
        let sys = System::boot_in(
            sim.clone(),
            SystemConfig {
                pes: PES_PER_ISLAND - accel,
                accel_pes: accel,
                fs_blocks: 1024,
                ..SystemConfig::default()
            },
        );

        // ktk bytes travel as timestamped island-boundary events on port 0;
        // a gateway daemon pumps arrivals into the kernel.
        let peers: Vec<(u32, PeId)> = (0..ISLANDS)
            .filter(|s| *s != id)
            .map(|s| (s, PeId::new(0)))
            .collect();
        let send_ctx = ctx.clone();
        sys.kernel().set_shard(
            id,
            ISLANDS,
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

        let probe = Probe::new(island_ops(rounds));
        for p in 0..PLACERS {
            let probe = probe.clone();
            let rng = Rng::new(seed ^ (u64::from(id) * PLACERS + p + 1).wrapping_mul(0x9e37_79b9));
            sys.run_program("placer", move |env| async move {
                place(&env, &probe, rng, rounds, PeRequest::Same).await;
                0
            });
        }
        // The spiller wants the accelerator type only the last island has:
        // everywhere else the local kernel forwards the request over ktk.
        {
            let probe = probe.clone();
            let rng = Rng::new(seed ^ u64::from(id + 1).wrapping_mul(0x2545_f491));
            let req = PeRequest::Type(PeType::FftAccel);
            sys.run_program("spiller", move |env| async move {
                place(&env, &probe, rng, spill_rounds(rounds), req).await;
                0
            });
        }
        {
            let mut at = booted.lock().unwrap_or_else(PoisonError::into_inner);
            let now = Instant::now();
            *at = Some(at.map_or(now, |t| t.max(now)));
        }

        let finish: IslandFinish = Box::new(move |ctx| {
            let out = IslandOut {
                acc: probe.take(),
                counters: Counters::of_system(&sys),
                trace: trace.then(|| TraceOut::of_sim(ctx.sim())),
            };
            outs.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(out);
            String::new()
        });
        finish
    })
}

/// `rounds` placements of a VPE of kind `req`, each revoked again; one
/// create+revoke is one op.
async fn place(env: &m3_libos::Env, probe: &Probe, mut rng: Rng, rounds: u64, req: PeRequest) {
    let sim = env.sim();
    for _ in 0..rounds {
        sim.sleep(Cycles::new(rng.next_below(JITTER))).await;
        let t = sim.now();
        let ok = match Vpe::new(env, "w", req).await {
            Ok(vpe) => vpe.revoke().await.is_ok(),
            Err(_) => false,
        };
        let done = sim.now();
        probe.op(ok, t, done);
        probe.with_spans(|s| s.syscall_cycles += (done - t).as_u64());
    }
}
