//! What one rep measures, and the instruments the workloads share.
//!
//! A rep yields its [`Host`] times and a [`SimOut`]: everything simulated,
//! which must be bit-identical for every rep of the same seed and size.
//! The instruments all sit outside the layers they observe: a `Probe` the
//! workload tasks report ops and spans to, a `Ready` barrier that marks the
//! end of set-up, `SpanFs` that wraps the libos mount table, and
//! [`Counters`] read from the public counters (`gauges`, `Stats`,
//! `Metrics`, `PdesReport`) after the run.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

use m3::System;
use m3_base::error::Result;
use m3_base::{Cycles, PeId};
use m3_libos::vfs::{self, DirEntry, File, FileInfo, FileSystem, MapExtent, OpenFlags, SeekMode};
use m3_libos::{BoxFuture, Env};
use m3_sim::gauges::Gauges;
use m3_sim::{keys, EventKind, Notify, Sim};

use crate::check::Tally;

/// Event capacity of a traced simulation. A 1/16-size kv-serve rep records
/// about 0.7 M events; the default bound (2^20) leaves too little margin.
const TRACE_CAPACITY: usize = 1 << 24;

/// A fresh simulation, traced or not.
pub(crate) fn new_sim(trace: bool) -> Sim {
    let sim = Sim::new();
    if trace {
        trace_on(&sim);
    }
    sim
}

/// Turns on tracing with the raised event capacity.
pub(crate) fn trace_on(sim: &Sim) {
    sim.tracer().set_capacity(TRACE_CAPACITY);
    sim.enable_trace();
}

/// Simulated-cycle spans the benchmark records around its own calls.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Spans {
    /// Cycles in calls that are kernel round trips (VPE create/revoke).
    pub syscall_cycles: u64,
    /// Cycles in paged accesses that raised a page fault.
    pub fault_cycles: u64,
    /// Per-call latency of libos `File::read`.
    pub read: Vec<u64>,
    /// Per-call latency of libos `File::write`.
    pub write: Vec<u64>,
    /// Per-call latency of libos metadata calls (open, close, stat,
    /// read_dir, mkdir, unlink, ...).
    pub meta: Vec<u64>,
    /// Per-request latency of the kv send-gate call.
    pub call: Vec<u64>,
    /// How late the load generator sent each kv request.
    pub late: Vec<u64>,
    /// Software-TLB misses of every address space.
    pub tlb_misses: u64,
}

impl Spans {
    fn merge(&mut self, other: Spans) {
        self.syscall_cycles += other.syscall_cycles;
        self.fault_cycles += other.fault_cycles;
        self.read.extend(other.read);
        self.write.extend(other.write);
        self.meta.extend(other.meta);
        self.call.extend(other.call);
        self.late.extend(other.late);
        self.tlb_misses += other.tlb_misses;
    }

    fn sort(&mut self) {
        for v in [
            &mut self.read,
            &mut self.write,
            &mut self.meta,
            &mut self.call,
            &mut self.late,
        ] {
            v.sort_unstable();
        }
    }
}

/// Which per-call span list a libos call lands in.
#[derive(Copy, Clone, Debug)]
enum Call {
    Read,
    Write,
    Meta,
}

/// Host-time samples per rep: the host clock is read every 1/`CHUNKS` of
/// a rep's ops, so a run yields many short samples of host speed.
pub(crate) const CHUNKS: u64 = 16;

/// What the tasks of one simulation report: ops, their latencies, spans.
#[derive(Clone, Debug, Default)]
pub(crate) struct Acc {
    tally: Tally,
    latency: Vec<u64>,
    /// Simulated time the last op completed.
    last_done: u64,
    spans: Spans,
    /// Ops per chunk.
    chunk: u64,
    /// Host time at the end of each chunk of ops.
    marks: Vec<Instant>,
}

impl Acc {
    fn merge(&mut self, other: Acc) {
        self.tally.attempted += other.tally.attempted;
        self.tally.failed += other.tally.failed;
        self.latency.extend(other.latency);
        self.last_done = self.last_done.max(other.last_done);
        self.spans.merge(other.spans);
        // Islands advance in lockstep: a chunk is done once every island
        // has done its share of it.
        self.chunk += other.chunk;
        if self.marks.is_empty() {
            self.marks = other.marks;
        } else {
            self.marks.truncate(other.marks.len());
            for (m, o) in self.marks.iter_mut().zip(other.marks) {
                *m = (*m).max(o);
            }
        }
    }
}

/// The handle workload tasks report to. Cheap to clone; one per `Sim`.
#[derive(Clone)]
pub(crate) struct Probe(Rc<RefCell<Acc>>);

impl Probe {
    /// A probe for a simulation that should run `expected` ops.
    pub fn new(expected: u64) -> Probe {
        Probe(Rc::new(RefCell::new(Acc {
            chunk: expected.div_ceil(CHUNKS).max(1),
            ..Acc::default()
        })))
    }

    /// Records one op that ran from `start` to `end` and passed its output
    /// check if `ok`.
    pub fn op(&self, ok: bool, start: Cycles, end: Cycles) {
        let mut acc = self.0.borrow_mut();
        acc.tally.record(ok);
        acc.latency.push((end - start).as_u64());
        acc.last_done = acc.last_done.max(end.as_u64());
        if acc.tally.attempted.is_multiple_of(acc.chunk) {
            acc.marks.push(Instant::now());
        }
    }

    /// Runs `fut` and records its simulated duration as a libos call.
    async fn time<T>(&self, sim: &Sim, call: Call, fut: impl Future<Output = T>) -> T {
        let t0 = sim.now();
        let out = fut.await;
        let cycles = (sim.now() - t0).as_u64();
        let mut acc = self.0.borrow_mut();
        let spans = &mut acc.spans;
        match call {
            Call::Read => spans.read.push(cycles),
            Call::Write => spans.write.push(cycles),
            Call::Meta => spans.meta.push(cycles),
        }
        out
    }

    /// Adds to the span totals.
    pub fn with_spans(&self, f: impl FnOnce(&mut Spans)) {
        f(&mut self.0.borrow_mut().spans);
    }

    /// Takes what was reported.
    pub fn take(&self) -> Acc {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

/// The end of set-up: a barrier every workload program passes once it has
/// mounted m3fs or connected to its service. The last arrival stamps the
/// host and simulated time.
pub(crate) struct Ready {
    need: usize,
    arrived: Cell<usize>,
    notify: Notify,
    at: Cell<Option<(Instant, Cycles)>>,
}

impl Ready {
    /// A barrier for `need` programs.
    pub fn new(need: usize) -> Rc<Ready> {
        Rc::new(Ready {
            need,
            arrived: Cell::new(0),
            notify: Notify::new(),
            at: Cell::new(None),
        })
    }

    /// Arrives and waits for the others; returns the simulated time set-up
    /// ended at.
    pub async fn arrive(&self, sim: &Sim) -> Cycles {
        self.arrived.set(self.arrived.get() + 1);
        if self.arrived.get() == self.need {
            self.at.set(Some((Instant::now(), sim.now())));
            self.notify.notify_all();
        }
        while self.at.get().is_none() {
            self.notify.wait().await;
        }
        self.at.get().expect("set above").1
    }

    /// When set-up ended, if every program arrived.
    pub fn at(&self) -> Option<(Instant, Cycles)> {
        self.at.get()
    }
}

/// Mounts m3fs for `env` and routes every path through a [`SpanFs`], so
/// each libos file call the workload or an app makes is timed.
pub(crate) async fn mount(env: &Env, probe: &Probe) -> Result<()> {
    m3_fs::mount_m3fs(env).await?;
    let (inner, _) = env.vfs().borrow().resolve("/")?;
    let mut table = vfs::Vfs::new();
    table.mount(
        "/",
        Rc::new(SpanFs {
            inner,
            probe: probe.clone(),
        }),
    );
    *env.vfs().borrow_mut() = table;
    Ok(())
}

/// A filesystem that forwards to another and records each call's simulated
/// duration. It adds no simulated cost.
struct SpanFs {
    inner: Rc<dyn FileSystem>,
    probe: Probe,
}

impl FileSystem for SpanFs {
    fn open<'a>(
        &'a self,
        env: &'a Env,
        path: &'a str,
        flags: OpenFlags,
    ) -> BoxFuture<'a, Result<Box<dyn File>>> {
        Box::pin(async move {
            let file = self
                .probe
                .time(env.sim(), Call::Meta, self.inner.open(env, path, flags))
                .await?;
            Ok(Box::new(SpanFile {
                inner: file,
                sim: env.sim().clone(),
                probe: self.probe.clone(),
            }) as Box<dyn File>)
        })
    }

    fn stat<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<FileInfo>> {
        Box::pin(
            self.probe
                .time(env.sim(), Call::Meta, self.inner.stat(env, path)),
        )
    }

    fn mkdir<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<()>> {
        Box::pin(
            self.probe
                .time(env.sim(), Call::Meta, self.inner.mkdir(env, path)),
        )
    }

    fn rmdir<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<()>> {
        Box::pin(
            self.probe
                .time(env.sim(), Call::Meta, self.inner.rmdir(env, path)),
        )
    }

    fn link<'a>(&'a self, env: &'a Env, old: &'a str, new: &'a str) -> BoxFuture<'a, Result<()>> {
        Box::pin(
            self.probe
                .time(env.sim(), Call::Meta, self.inner.link(env, old, new)),
        )
    }

    fn unlink<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<()>> {
        Box::pin(
            self.probe
                .time(env.sim(), Call::Meta, self.inner.unlink(env, path)),
        )
    }

    fn read_dir<'a>(&'a self, env: &'a Env, path: &'a str) -> BoxFuture<'a, Result<Vec<DirEntry>>> {
        Box::pin(
            self.probe
                .time(env.sim(), Call::Meta, self.inner.read_dir(env, path)),
        )
    }
}

struct SpanFile {
    inner: Box<dyn File>,
    sim: Sim,
    probe: Probe,
}

impl File for SpanFile {
    fn read<'a>(&'a mut self, buf: &'a mut [u8]) -> BoxFuture<'a, Result<usize>> {
        Box::pin(self.probe.time(&self.sim, Call::Read, self.inner.read(buf)))
    }

    fn write<'a>(&'a mut self, data: &'a [u8]) -> BoxFuture<'a, Result<usize>> {
        Box::pin(
            self.probe
                .time(&self.sim, Call::Write, self.inner.write(data)),
        )
    }

    fn seek<'a>(&'a mut self, offset: i64, whence: SeekMode) -> BoxFuture<'a, Result<u64>> {
        self.inner.seek(offset, whence)
    }

    fn close<'a>(&'a mut self) -> BoxFuture<'a, Result<()>> {
        Box::pin(self.probe.time(&self.sim, Call::Meta, self.inner.close()))
    }

    fn map<'a>(&'a mut self) -> BoxFuture<'a, Result<Vec<MapExtent>>> {
        Box::pin(self.probe.time(&self.sim, Call::Meta, self.inner.map()))
    }
}

/// Raw totals of the public layer counters over one rep; the traced run
/// divides them by the rep's ops.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub gauges: Gauges,
    pub pdes_windows: u64,
    pub pdes_events: u64,
    pub pdes_wait: u64,
    pub pdes_advanced: u64,
    pub noc_transfers: u64,
    pub noc_bytes: u64,
    pub noc_wait: u64,
    pub noc_link_busy: u64,
    pub dtu_msgs: u64,
    pub dtu_replies: u64,
    pub dtu_credit_stalls: u64,
    pub dtu_drops: u64,
    pub dtu_mem_bytes: u64,
    pub dtu_busy: u64,
    pub syscalls: u64,
    pub ktk_requests: u64,
    pub remote_placements: u64,
    pub ctx_switches: u64,
    pub ctx_switch_cycles: u64,
    pub dirty_pages: u64,
    pub page_faults: u64,
    pub writeback_bytes: u64,
    /// Busy cycles (core plus DTU) summed over PEs, each capped at the run.
    pub pe_busy: u64,
    /// PEs times simulated cycles: the denominator of `pe_busy`.
    pub pe_cycles: u64,
}

impl Counters {
    /// Reads the counters of a booted-and-run system.
    pub(crate) fn of_system(sys: &System) -> Counters {
        let sim = sys.sim();
        let stats = sim.stats();
        let m = sim.metrics();
        let noc = sys.platform().dtu_system().noc().stats();
        let end = sim.now().as_u64();
        let pes = sys.platform().pe_count() as u64;
        let pe_busy = (0..pes)
            .map(|p| {
                let pe = PeId::new(p as u32);
                (m.get(pe, keys::PE_BUSY) + m.get(pe, keys::DTU_BUSY)).min(end)
            })
            .sum();
        Counters {
            noc_transfers: noc.get("noc.transfers"),
            noc_bytes: noc.get("noc.bytes"),
            noc_wait: m.total(keys::NOC_WAIT),
            noc_link_busy: m.total(keys::NOC_LINK_BUSY),
            dtu_msgs: stats.get("dtu.msgs_sent"),
            dtu_replies: stats.get("dtu.replies_sent"),
            dtu_credit_stalls: m.total(keys::CREDIT_STALLS),
            dtu_drops: m.total(keys::DTU_DROPS),
            dtu_mem_bytes: stats.get("dtu.mem_read_bytes") + stats.get("dtu.mem_write_bytes"),
            dtu_busy: m.total(keys::DTU_BUSY),
            syscalls: stats.get("kernel.syscalls"),
            ktk_requests: stats.get("kernel.ktk_requests"),
            remote_placements: stats.get("kernel.remote_placements"),
            ctx_switches: m.total(keys::CTX_SWITCHES),
            ctx_switch_cycles: m.total(keys::CTX_SWITCH_CYCLES),
            dirty_pages: m.total(keys::DIRTY_PAGES_SAVED),
            page_faults: m.total(keys::PAGE_FAULTS),
            writeback_bytes: m.total(keys::WRITEBACK_BYTES),
            pe_busy,
            pe_cycles: pes * end,
            ..Counters::default()
        }
    }

    /// Adds another island's counters (gauges and PDES totals excluded:
    /// they are process- and run-wide).
    pub(crate) fn add(&mut self, o: &Counters) {
        self.noc_transfers += o.noc_transfers;
        self.noc_bytes += o.noc_bytes;
        self.noc_wait += o.noc_wait;
        self.noc_link_busy += o.noc_link_busy;
        self.dtu_msgs += o.dtu_msgs;
        self.dtu_replies += o.dtu_replies;
        self.dtu_credit_stalls += o.dtu_credit_stalls;
        self.dtu_drops += o.dtu_drops;
        self.dtu_mem_bytes += o.dtu_mem_bytes;
        self.dtu_busy += o.dtu_busy;
        self.syscalls += o.syscalls;
        self.ktk_requests += o.ktk_requests;
        self.remote_placements += o.remote_placements;
        self.ctx_switches += o.ctx_switches;
        self.ctx_switch_cycles += o.ctx_switch_cycles;
        self.dirty_pages += o.dirty_pages;
        self.page_faults += o.page_faults;
        self.writeback_bytes += o.writeback_bytes;
        self.pe_busy += o.pe_busy;
        self.pe_cycles += o.pe_cycles;
    }
}

/// What a traced simulation recorded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceOut {
    pub events: u64,
    pub dropped: u64,
    pub fs_requests: u64,
    pub fs_request_cycles: u64,
}

impl TraceOut {
    /// Summarises the trace of `sim` and frees its events.
    pub(crate) fn of_sim(sim: &Sim) -> TraceOut {
        let rec = sim.tracer();
        let mut out = TraceOut {
            events: rec.len() as u64,
            dropped: rec.dropped(),
            ..TraceOut::default()
        };
        for ev in rec.events() {
            if let EventKind::FsRequest { .. } = ev.kind {
                out.fs_requests += 1;
                out.fs_request_cycles += ev.dur.as_u64();
            }
        }
        rec.disable();
        rec.clear();
        out
    }

    /// Adds another island's trace summary.
    pub(crate) fn add(&mut self, o: &TraceOut) {
        self.events += o.events;
        self.dropped += o.dropped;
        self.fs_requests += o.fs_requests;
        self.fs_request_cycles += o.fs_request_cycles;
    }
}

/// Everything simulated about one rep; identical for every rep of one seed
/// and size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimOut {
    /// Ops the workload should have attempted.
    pub expected: u64,
    pub tally: Tally,
    /// Simulated cycles from the end of set-up to the last op.
    pub cycles: u64,
    /// Per-op simulated latency, sorted.
    pub latency: Vec<u64>,
    pub counters: Counters,
    pub spans: Spans,
}

impl SimOut {
    /// Every expected op ran and passed its check.
    pub fn correct(&self) -> bool {
        self.tally.attempted == self.expected && self.tally.failed == 0
    }
}

/// The host times of one rep.
#[derive(Clone, Debug)]
pub struct Host {
    /// Seconds from boot until every program was ready.
    pub setup_s: f64,
    /// Seconds from then until the simulation ended.
    pub run_s: f64,
    /// Ops in each sixteenth of the rep's ops.
    pub chunk_ops: u64,
    /// Seconds each chunk took, in order.
    pub chunk_s: Vec<f64>,
}

impl Host {
    /// Seconds the whole rep took.
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

/// One rep: host times plus the simulated output.
#[derive(Clone, Debug)]
pub struct Rep {
    pub host: Host,
    pub sim: SimOut,
    /// Present when the rep was traced.
    pub trace: Option<TraceOut>,
}

/// Host clock and executor gauges at the start of a rep.
pub(crate) struct RepClock {
    start: Instant,
    gauges: Gauges,
}

impl RepClock {
    /// Starts timing a rep. Call after generating inputs, before booting.
    pub(crate) fn start() -> RepClock {
        RepClock {
            gauges: m3_sim::gauges::snapshot(),
            start: Instant::now(),
        }
    }

    /// Finishes the rep. `ready` is when set-up ended, on the host and in
    /// simulated time (the end of the run if it never did; the rep then
    /// fails its op count anyway); `acc` holds what every simulation
    /// reported and `expected` is the ops it should have run. `collect`
    /// reads the counters and the trace after the clock has stopped.
    pub(crate) fn finish(
        &self,
        ready: Option<(Instant, Cycles)>,
        mut acc: Acc,
        expected: u64,
        collect: impl FnOnce() -> (Counters, Option<TraceOut>),
    ) -> Rep {
        let end = Instant::now();
        let (mut counters, trace) = collect();
        counters.gauges = m3_sim::gauges::snapshot().since(&self.gauges);
        let (ready, start) = ready.unwrap_or((end, Cycles::ZERO));
        let mut prev = ready;
        let chunk_s = acc
            .marks
            .iter()
            .map(|&m| {
                let secs = (m - prev).as_secs_f64();
                prev = m;
                secs
            })
            .collect();
        acc.latency.sort_unstable();
        acc.spans.sort();
        Rep {
            host: Host {
                setup_s: (ready - self.start).as_secs_f64(),
                run_s: (end - ready).as_secs_f64(),
                chunk_ops: acc.chunk,
                chunk_s,
            },
            sim: SimOut {
                expected,
                tally: acc.tally,
                cycles: acc.last_done.saturating_sub(start.as_u64()),
                latency: acc.latency,
                counters,
                spans: acc.spans,
            },
            trace,
        }
    }
}

/// Merges per-simulation reports (PDES islands) into one.
pub(crate) fn merge(accs: impl IntoIterator<Item = Acc>) -> Acc {
    let mut all = Acc::default();
    for acc in accs {
        all.merge(acc);
    }
    all
}

/// Nearest-rank quantile of sorted values; 0 when empty.
pub(crate) fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ops per host second of a rep with each chunk at the fastest time any
/// of `reps` took for it; 0 without chunks. Every rep runs the same ops in
/// the same chunks.
pub(crate) fn best_chunk_rate(reps: &[Host]) -> f64 {
    let Some(first) = reps.first() else {
        return 0.0;
    };
    let best: f64 = (0..first.chunk_s.len())
        .map(|k| {
            reps.iter()
                .filter_map(|r| r.chunk_s.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    if best > 0.0 {
        (first.chunk_s.len() as u64 * first.chunk_ops) as f64 / best
    } else {
        0.0
    }
}

/// Median of host measurements.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The peak resident set of this process in MiB (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
