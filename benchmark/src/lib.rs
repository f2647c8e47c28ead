//! m3bench: five seeded workloads that measure how fast the M3 simulator
//! runs on the host and what it simulates, end to end and per layer.
//!
//! Each workload drives the system only through the public APIs of `m3`,
//! `m3-serve`, `m3-libos`, `m3-apps`, `m3-kernel` and `m3-sim`; it does not
//! use the figure modules, so work on the figures leaves it alone.
//!
//! A run is one warm-up rep plus measured reps; every rep is a fresh boot
//! with the same seed. Set-up time is the median over the measured reps;
//! host throughput takes each sixteenth of a rep at its fastest over them.
//! Simulated results must be bit-identical across all reps of a run, which
//! doubles as the determinism check. A traced run ([`trace`]) repeats the
//! workload at 1/16 size with the event recorder on and reports the
//! per-layer metrics.

pub mod check;
pub mod fs;
mod kv;
pub mod measure;
pub mod shards;
mod vm;

use std::rc::Rc;

use measure::{best_chunk_rate, median, peak_rss_mb, quantile, Rep, SimOut, TraceOut};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// Host seconds a full-size rep takes on the calibration host; with
/// `--seconds` it sets how many reps a run makes. The rep count never
/// depends on measured time, so every run of a workload does the same work
/// and its memory high-water mark is comparable.
const REP_SECONDS: f64 = 2.0;

/// Fewest measured reps of a run.
const MIN_REPS: usize = 3;

/// The traced run works at this fraction of the full rep size.
const TRACE_DIVISOR: u64 = 16;

/// Untraced/traced rep pairs of a traced run.
const TRACE_PAIRS: usize = 3;

/// One of the benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    KvServe,
    FsRead,
    FsWrite,
    VmOvercommit,
    ShardsPdes,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::KvServe,
        Workload::FsRead,
        Workload::FsWrite,
        Workload::VmOvercommit,
        Workload::ShardsPdes,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvServe => "kv-serve",
            Workload::FsRead => "fs-read",
            Workload::FsWrite => "fs-write",
            Workload::VmOvercommit => "vm-overcommit",
            Workload::ShardsPdes => "shards-pdes",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full rep size, calibrated to about 2 s of host time: requests
    /// per client, rounds per instance, accesses per client VPE, or
    /// placements per placer.
    pub fn size(self) -> u64 {
        match self {
            Workload::KvServe => 380,
            Workload::FsRead => 128,
            Workload::FsWrite => 90,
            Workload::VmOvercommit => 2_100,
            Workload::ShardsPdes => 1_100,
        }
    }

    /// The smallest size that still exercises every layer (for tests).
    pub fn smoke_size(self) -> u64 {
        match self {
            Workload::VmOvercommit => 32,
            Workload::ShardsPdes => 4,
            _ => 1,
        }
    }
}

/// A workload with its inputs generated from one seed. Generating them is
/// not part of any rep.
pub struct Bench {
    workload: Workload,
    seed: u64,
    /// The file trees of the fs workloads.
    fs: Option<Rc<fs::FsInput>>,
}

impl Bench {
    /// Generates the inputs of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Bench {
        let fs = matches!(workload, Workload::FsRead | Workload::FsWrite)
            .then(|| Rc::new(fs::FsInput::new(seed)));
        Bench { workload, seed, fs }
    }

    fn fs(&self) -> &Rc<fs::FsInput> {
        self.fs
            .as_ref()
            .expect("fs inputs are generated for fs workloads")
    }

    /// Boots a fresh system and runs one rep of `size`; `workers` is the
    /// PDES worker count of `shards-pdes`.
    pub fn rep(&self, size: u64, trace: bool, workers: usize) -> Rep {
        match self.workload {
            Workload::KvServe => kv::rep(self.seed, size, trace),
            Workload::FsRead => fs::read_rep(self.fs(), self.seed, size, trace),
            Workload::FsWrite => fs::write_rep(self.fs(), size, trace),
            Workload::VmOvercommit => vm::rep(self.seed, size, trace),
            Workload::ShardsPdes => shards::rep(self.seed, size, trace, workers),
        }
    }
}

/// One reported value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every op passed its check and every rep simulated the same thing.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` declares.
    pub metrics: Vec<Metric>,
    /// Metrics printed for people but not declared: `sim_p99_cyc` moves by
    /// a sixth between seeds on `kv-serve` (the seed fixes the clients'
    /// phases for the whole closed-loop run), and `op_fail_ratio` is 0
    /// whenever the run is correct.
    pub ungated: Vec<Metric>,
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn outcome(sim: &SimOut, same: bool, metrics: Vec<Metric>, ungated: Vec<Metric>) -> Outcome {
    Outcome {
        correct: same && sim.correct(),
        attempted: sim.tally.attempted,
        failed: sim.tally.failed,
        metrics,
        ungated,
    }
}

/// Measured reps of an untraced run of `seconds`.
fn reps_for(seconds: u64) -> usize {
    ((seconds as f64 / REP_SECONDS).round() as usize).max(MIN_REPS)
}

/// An untraced run: the end-to-end metrics. `smoke` runs one measured rep
/// at [`Workload::smoke_size`].
pub fn measure(workload: Workload, seed: u64, seconds: u64, smoke: bool) -> Outcome {
    let bench = Bench::new(workload, seed);
    let (size, reps) = if smoke {
        (workload.smoke_size(), 1)
    } else {
        (workload.size(), reps_for(seconds))
    };
    let warm = bench.rep(size, false, shards::WORKERS);
    let mut same = true;
    let mut hosts = Vec::new();
    for _ in 0..reps {
        let rep = bench.rep(size, false, shards::WORKERS);
        same &= rep.sim == warm.sim;
        hosts.push(rep.host);
    }
    let setup: Vec<f64> = hosts.iter().map(|h| h.setup_s).collect();
    let sim = &warm.sim;
    let ops = sim.tally.attempted as f64;
    let metrics = vec![
        metric("host_ops_per_s", best_chunk_rate(&hosts), "1/s"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric(
            "sim_ops_per_mcyc",
            ratio(ops * 1e6, sim.cycles as f64),
            "1/Mcyc",
        ),
        metric("sim_p50_cyc", quantile(&sim.latency, 0.50) as f64, "cyc"),
    ];
    let ungated = vec![
        metric("sim_p99_cyc", quantile(&sim.latency, 0.99) as f64, "cyc"),
        metric("op_fail_ratio", ratio(sim.tally.failed as f64, ops), "frac"),
    ];
    outcome(sim, same, metrics, ungated)
}

/// A traced run: the per-layer metrics, from three pairs of an untraced
/// and a traced rep at 1/16 size (one pair at smoke size). `shards-pdes`
/// adds a rep on two PDES workers per pair for the parallel speed-up.
pub fn trace(workload: Workload, seed: u64, smoke: bool) -> Outcome {
    let bench = Bench::new(workload, seed);
    let (size, pairs) = if smoke {
        (workload.smoke_size(), 1)
    } else {
        ((workload.size() / TRACE_DIVISOR).max(1), TRACE_PAIRS)
    };
    let warm = bench.rep(size, false, shards::WORKERS);
    let mut same = true;
    let (mut plain, mut traced, mut parallel) = (Vec::new(), Vec::new(), Vec::new());
    let mut recorded = TraceOut::default();
    for _ in 0..pairs {
        let rep = bench.rep(size, false, shards::WORKERS);
        same &= rep.sim == warm.sim;
        plain.push(rep.host.total_s());
        let rep = bench.rep(size, true, shards::WORKERS);
        same &= rep.sim == warm.sim;
        traced.push(rep.host.total_s());
        recorded = rep.trace.unwrap_or_default();
        if workload == Workload::ShardsPdes {
            let rep = bench.rep(size, false, shards::SPEEDUP_WORKERS);
            same &= rep.sim == warm.sim;
            parallel.push(rep.host.total_s());
        }
    }
    let host = HostLayer {
        ns_per_poll: ratio(
            median(&plain) * 1e9,
            warm.sim.counters.gauges.task_polls as f64,
        ),
        trace_overhead: ratio(median(&traced), median(&plain)) - 1.0,
        speedup_2w: if parallel.is_empty() {
            1.0
        } else {
            ratio(median(&plain), median(&parallel))
        },
    };
    let complete = same && recorded.dropped == 0;
    let metrics = layers(&warm.sim, &recorded, &host);
    outcome(&warm.sim, complete, metrics, Vec::new())
}

/// Per-layer values measured on the host rather than counted.
struct HostLayer {
    ns_per_poll: f64,
    trace_overhead: f64,
    speedup_2w: f64,
}

/// The per-layer metrics. Counters cover whole reps, set-up included, and
/// are divided by the ops of the rep.
fn layers(sim: &SimOut, tr: &TraceOut, host: &HostLayer) -> Vec<Metric> {
    let c = &sim.counters;
    let g = &c.gauges;
    let s = &sim.spans;
    let ops = sim.tally.attempted as f64;
    let per_op = |n: u64| ratio(n as f64, ops);
    let q = |v: &[u64], p: f64| quantile(v, p) as f64;
    vec![
        metric("sim.polls_per_op", per_op(g.task_polls), "1/op"),
        metric("sim.timers_per_op", per_op(g.timers_scheduled), "1/op"),
        metric(
            "sim.timers_deduped_per_op",
            per_op(g.timers_deduped),
            "1/op",
        ),
        metric("sim.tasks_per_op", per_op(g.tasks_spawned), "1/op"),
        metric("sim.host_ns_per_poll", host.ns_per_poll, "ns"),
        metric("sim.peak_live_tasks", g.peak_live_tasks as f64, "count"),
        metric(
            "sim.peak_pending_timers",
            g.peak_pending_timers as f64,
            "count",
        ),
        metric("sim.pdes_windows_per_op", per_op(c.pdes_windows), "1/op"),
        metric("sim.pdes_events_per_op", per_op(c.pdes_events), "1/op"),
        metric(
            "sim.pdes_barrier_wait_frac",
            ratio(c.pdes_wait as f64, (c.pdes_wait + c.pdes_advanced) as f64),
            "frac",
        ),
        metric("sim.pdes_speedup_2w", host.speedup_2w, "x"),
        metric("noc.transfers_per_op", per_op(c.noc_transfers), "1/op"),
        metric("noc.bytes_per_op", per_op(c.noc_bytes), "B/op"),
        metric("noc.wait_cycles_per_op", per_op(c.noc_wait), "cyc/op"),
        metric(
            "noc.link_busy_cycles_per_op",
            per_op(c.noc_link_busy),
            "cyc/op",
        ),
        metric("dtu.msgs_per_op", per_op(c.dtu_msgs), "1/op"),
        metric("dtu.replies_per_op", per_op(c.dtu_replies), "1/op"),
        metric(
            "dtu.credit_stalls_per_op",
            per_op(c.dtu_credit_stalls),
            "1/op",
        ),
        metric("dtu.drops_per_op", per_op(c.dtu_drops), "1/op"),
        metric("dtu.mem_bytes_per_op", per_op(c.dtu_mem_bytes), "B/op"),
        metric("dtu.busy_cycles_per_op", per_op(c.dtu_busy), "cyc/op"),
        metric("kernel.syscalls_per_op", per_op(c.syscalls), "1/op"),
        metric("kernel.ktk_requests_per_op", per_op(c.ktk_requests), "1/op"),
        metric(
            "kernel.remote_placements_per_op",
            per_op(c.remote_placements),
            "1/op",
        ),
        metric(
            "kernel.syscall_cycles_per_op",
            per_op(s.syscall_cycles),
            "cyc/op",
        ),
        metric("sched.ctx_switches_per_op", per_op(c.ctx_switches), "1/op"),
        metric(
            "sched.ctx_switch_cycles_per_op",
            per_op(c.ctx_switch_cycles),
            "cyc/op",
        ),
        metric(
            "sched.dirty_pages_per_switch",
            ratio(c.dirty_pages as f64, c.ctx_switches as f64),
            "page",
        ),
        metric("vm.page_faults_per_op", per_op(c.page_faults), "1/op"),
        metric(
            "vm.writeback_bytes_per_op",
            per_op(c.writeback_bytes),
            "B/op",
        ),
        metric("vm.tlb_misses_per_op", per_op(s.tlb_misses), "1/op"),
        metric("vm.fault_cycles_per_op", per_op(s.fault_cycles), "cyc/op"),
        metric("fs.requests_per_op", per_op(tr.fs_requests), "1/op"),
        metric(
            "fs.request_cycles_per_op",
            per_op(tr.fs_request_cycles),
            "cyc/op",
        ),
        metric("libos.read_cyc_p50", q(&s.read, 0.50), "cyc"),
        metric("libos.read_cyc_p99", q(&s.read, 0.99), "cyc"),
        metric("libos.write_cyc_p50", q(&s.write, 0.50), "cyc"),
        metric("libos.write_cyc_p99", q(&s.write, 0.99), "cyc"),
        metric("libos.meta_cyc_p99", q(&s.meta, 0.99), "cyc"),
        metric("serve.call_cyc_p99", q(&s.call, 0.99), "cyc"),
        metric("serve.late_cyc_p99", q(&s.late, 0.99), "cyc"),
        metric(
            "platform.pe_busy_frac",
            ratio(c.pe_busy as f64, c.pe_cycles as f64),
            "frac",
        ),
        metric("trace.events_per_op", per_op(tr.events), "1/op"),
        metric("trace.overhead_frac", host.trace_overhead, "frac"),
        metric("trace.dropped", tr.dropped as f64, "count"),
    ]
}
