//! Conservative-lookahead parallel discrete-event simulation (PDES).
//!
//! The engine partitions a platform into *islands* — disjoint groups of
//! PEs, each simulated by its own [`Sim`] (slab executor + timer wheel) on
//! one of the run's threads — and synchronizes them in bounded time
//! windows, the approach parti-gem5 and MGSim use for tile-based
//! manycores. The window width comes from the *lookahead*: the minimum
//! simulated latency of any cross-island NoC transfer
//! (`m3_noc::IslandMap::lookahead`). Inside a window every island advances
//! freely; events that cross a boundary are exported as timestamped
//! [`PdesEvent`]s and delivered at the next barrier, which is always soon
//! enough because nothing can cross the NoC faster than the lookahead.
//!
//! # The synchronization protocol
//!
//! Each round the coordinator computes `base`, the earliest time any
//! island can act (minimum of every island's next event and every
//! undelivered cross-island event), and closes the window at
//! `end = base + lookahead - 1`:
//!
//! 1. deliver every pending event with `at <= end` to its destination
//!    island's port, in `(at, src island, seq)` order;
//! 2. run every island's executor up to `end` ([`Sim::run_window`]);
//! 3. collect newly exported events — the lookahead guarantees each has
//!    `at > end`, so step 1 of a later round delivers it in time.
//!
//! # Determinism
//!
//! Results are bit-identical for every worker count by construction, not
//! by tie-breaking heroics at runtime: the window sequence is a function
//! of simulated state only, each island's execution inside a window is the
//! ordinary deterministic single-threaded executor, and the one genuinely
//! concurrent step — merging event streams from islands that ran in
//! parallel — orders them by the total key `(timestamp, source island,
//! sequence number)`. Worker threads only change which host core runs an
//! island, never what the island observes. [`Sim::run_window`] also never
//! advances a clock to the barrier itself, so traces contain no artifact
//! of where the window boundaries fell.
//!
//! # What lives where
//!
//! `Sim` is `!Send` (single-threaded by design), so island *builders* are
//! `Send` closures shipped to the thread that will run the island, which
//! constructs it there; everything crossing threads afterwards is plain
//! data. Cross-island messages travel as bytes (see `m3_dtu::wire`) through
//! numbered [`PortRx`] inboxes registered by the builder.
//!
//! With `workers = N` the islands split into `N` contiguous chunks. The
//! coordinator runs on a thread of its own (never the caller's) and hosts
//! the *last* chunk itself: each window it sends the other chunks' events
//! to their remote worker threads, runs its own islands inline, and then
//! collects one reply per remote worker, covering its whole chunk. The
//! protocol is plain data: a worker receives `Some(job)` per window, the
//! window's end and due events, sends the job back with its islands'
//! replies, and on `None` returns its islands' outputs from its thread.
//! A run therefore uses `N` threads, and with one worker there is no
//! channel and no per-window thread handoff at all.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::mpsc;

use m3_base::Cycles;
use m3_trace::{Component, Event, EventKind};

use crate::executor::Sim;
use crate::notify::Notify;

/// A timestamped event crossing an island boundary.
///
/// The derived `Ord` is the deterministic merge order: timestamp, then
/// source island, then per-source sequence number. `(src, seq)` is unique,
/// so the order is total and identical for every worker count.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PdesEvent {
    /// Simulated delivery time (the NoC arrival time at the destination).
    pub at: Cycles,
    /// Source island.
    pub src: u32,
    /// Sequence number within the source island, in emission order.
    pub seq: u64,
    /// Destination island.
    pub dst: u32,
    /// Destination port (registered via [`IslandCtx::port`]).
    pub port: usize,
    /// Opaque payload, typically a `m3_dtu::wire`-encoded message.
    pub bytes: Vec<u8>,
}

/// Residency of one island over the whole run, in simulated cycles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IslandStats {
    /// Cycles the island's clock advanced inside windows (busy).
    pub advanced: Cycles,
    /// Cycles between the island's last local event and each barrier
    /// (idle: the island was done early and waited for the fleet).
    pub barrier_wait: Cycles,
    /// Cross-island events delivered to this island.
    pub events_in: u64,
    /// Cross-island events this island emitted.
    pub events_out: u64,
    /// The island's clock when the run ended.
    pub final_now: Cycles,
}

/// The outcome of a [`run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PdesReport {
    /// Per-island output strings, in island order (whatever each island's
    /// finish closure extracted — results, digests, …).
    pub outputs: Vec<String>,
    /// Per-island residency, in island order.
    pub islands: Vec<IslandStats>,
    /// Number of synchronization windows executed.
    pub windows: u64,
    /// Total cross-island events delivered.
    pub events: u64,
    /// Undelivered events dropped at termination (addressed to islands
    /// whose regular tasks had all finished — the windowed analogue of
    /// [`Sim::run`] abandoning in-flight daemon work).
    pub abandoned: u64,
    /// The latest island clock at termination.
    pub end_time: Cycles,
}

/// Engine parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PdesConfig {
    /// Window width: the minimum cross-island event latency. Must be the
    /// *minimum* over all island pairs or the run is not conservative;
    /// derive it with `m3_noc::IslandMap::lookahead`.
    pub lookahead: Cycles,
    /// Threads that run islands, the coordinator's included; clamped to
    /// `[1, islands]`. The results are identical for every value — this
    /// only trades wall-clock time.
    pub workers: usize,
}

/// Extracts an island's result after its last window, on its thread.
pub type IslandFinish = Box<dyn FnOnce(&IslandCtx) -> String>;

/// Builds one island inside its freshly created [`Sim`], registering ports
/// and spawning tasks; runs once on the worker thread before any window.
pub type IslandBuilder = Box<dyn FnOnce(&IslandCtx) -> IslandFinish + Send>;

/// Timestamped payloads queued on one inbound port, shared between the
/// engine (which pushes at delivery time) and [`PortRx`] clones.
type PortQueue = Rc<RefCell<VecDeque<(Cycles, Vec<u8>)>>>;

struct PortState {
    queue: PortQueue,
    notify: Notify,
}

struct CtxInner {
    sim: Sim,
    id: u32,
    islands: u32,
    lookahead: Cycles,
    seq: RefCell<u64>,
    outbox: RefCell<Vec<PdesEvent>>,
    ports: RefCell<BTreeMap<usize, PortState>>,
}

/// One island's handle on the engine: its [`Sim`], its identity, and the
/// boundary — inbound ports and the outbound event queue. Cloneable so
/// tasks can capture it.
#[derive(Clone)]
pub struct IslandCtx {
    inner: Rc<CtxInner>,
}

impl IslandCtx {
    fn new(id: u32, islands: u32, lookahead: Cycles) -> IslandCtx {
        IslandCtx {
            inner: Rc::new(CtxInner {
                sim: Sim::new(),
                id,
                islands,
                lookahead,
                seq: RefCell::new(0),
                outbox: RefCell::new(Vec::new()),
                ports: RefCell::new(BTreeMap::new()),
            }),
        }
    }

    /// The island's simulation.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// This island's id.
    pub fn id(&self) -> u32 {
        self.inner.id
    }

    /// Number of islands in the run.
    pub fn islands(&self) -> u32 {
        self.inner.islands
    }

    /// The engine's lookahead (minimum legal cross-island latency).
    pub fn lookahead(&self) -> Cycles {
        self.inner.lookahead
    }

    /// Registers (or returns) inbound port `idx`. Ports must be registered
    /// by the island builder — delivery to an unregistered port panics, as
    /// it means a message raced island construction.
    pub fn port(&self, idx: usize) -> PortRx {
        let mut ports = self.inner.ports.borrow_mut();
        let state = ports.entry(idx).or_insert_with(|| PortState {
            queue: Rc::new(RefCell::new(VecDeque::new())),
            notify: Notify::new(),
        });
        PortRx {
            sim: self.inner.sim.clone(),
            queue: state.queue.clone(),
            notify: state.notify.clone(),
        }
    }

    /// Emits a cross-island event arriving at `dst`'s port `port` at
    /// simulated time `at`.
    ///
    /// # Panics
    ///
    /// Panics when the event violates the conservative contract: `at` must
    /// be at least `now + lookahead` (a correctly modelled NoC transfer
    /// always is — see `IslandMap::lookahead`), and `dst` must be another
    /// island of this run.
    pub fn send(&self, at: Cycles, dst: u32, port: usize, bytes: Vec<u8>) {
        let now = self.inner.sim.now();
        assert!(
            at >= now + self.inner.lookahead,
            "island {}: event at {at} violates lookahead {} (now {now})",
            self.inner.id,
            self.inner.lookahead,
        );
        assert!(
            dst < self.inner.islands && dst != self.inner.id,
            "island {}: bad destination island {dst}",
            self.inner.id,
        );
        let seq = {
            let mut seq = self.inner.seq.borrow_mut();
            *seq += 1;
            *seq - 1
        };
        self.inner.outbox.borrow_mut().push(PdesEvent {
            at,
            src: self.inner.id,
            seq,
            dst,
            port,
            bytes,
        });
    }

    fn deposit(&self, ev: PdesEvent) {
        debug_assert!(ev.at > self.inner.sim.now(), "late delivery");
        let ports = self.inner.ports.borrow();
        let Some(state) = ports.get(&ev.port) else {
            panic!(
                "island {}: no port {} for event from island {}",
                self.inner.id, ev.port, ev.src
            );
        };
        state.queue.borrow_mut().push_back((ev.at, ev.bytes));
        state.notify.notify_all();
    }

    fn drain_outbox(&self) -> Vec<PdesEvent> {
        std::mem::take(&mut self.inner.outbox.borrow_mut())
    }
}

/// The receive side of an inbound island port.
///
/// Cloneable; clones share the queue. Arrivals on one port are already in
/// deterministic merge order and strictly increasing in time, so a single
/// pump task draining the port sees a well-defined sequence.
#[derive(Clone)]
pub struct PortRx {
    sim: Sim,
    queue: PortQueue,
    notify: Notify,
}

impl PortRx {
    /// Receives the next event, completing exactly at its delivery time.
    pub async fn recv(&self) -> (Cycles, Vec<u8>) {
        loop {
            let front_at = self.queue.borrow().front().map(|(at, _)| *at);
            match front_at {
                Some(at) if at <= self.sim.now() => {
                    return self.queue.borrow_mut().pop_front().expect("checked front");
                }
                // The barrier only delivers events after the local clock
                // passed `at - 1`, so sleeping to `at` cannot overshoot a
                // not-yet-delivered earlier event.
                Some(at) => self.sim.sleep_until(at).await,
                None => self.notify.wait().await,
            }
        }
    }

    /// Events currently queued (delivered but not yet received).
    pub fn len(&self) -> usize {
        self.queue.borrow().len()
    }

    /// Whether no delivered event is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.borrow().is_empty()
    }
}

/// One exchange between the coordinator and a chunk of islands. The
/// coordinator keeps one per chunk and passes it to the chunk and back
/// every window, so its buffers are allocated once per run.
#[derive(Default)]
struct Job {
    /// Runs a window up to this instant, delivering `events` first; `None`
    /// runs nothing and names each island's live regular tasks, for the
    /// panic of a stalled run.
    end: Option<Cycles>,
    /// Due events, one list per island of the chunk, in chunk order, each
    /// already in merge order; the chunk drains them.
    events: Vec<Vec<PdesEvent>>,
    /// One reply per island of the chunk, filled by the chunk.
    replies: Vec<WindowReply>,
}

/// One island's state after a window (or before the first).
struct WindowReply {
    next: Option<Cycles>,
    live: usize,
    out: Vec<PdesEvent>,
    /// The live regular tasks of a blocked island; rendered only when the
    /// coordinator found the run stalled.
    stalled: Vec<String>,
}

struct WorkerIsland {
    ctx: IslandCtx,
    finish: IslandFinish,
    stats: IslandStats,
}

impl WorkerIsland {
    fn report(&self) -> WindowReply {
        let sim = self.ctx.sim();
        WindowReply {
            next: sim.next_event_time(),
            live: sim.live_regular(),
            out: self.ctx.drain_outbox(),
            stalled: Vec::new(),
        }
    }

    /// [`WorkerIsland::report`] with the names of the live regular tasks
    /// of an island that is blocked.
    fn stall_report(&self) -> WindowReply {
        let mut reply = self.report();
        if reply.next.is_none() && reply.live > 0 {
            reply.stalled = self.ctx.sim().regular_task_names();
        }
        reply
    }

    fn run_window(&mut self, end: Cycles, events: &mut Vec<PdesEvent>) -> WindowReply {
        self.stats.events_in += events.len() as u64;
        for ev in events.drain(..) {
            self.ctx.deposit(ev);
        }
        let sim = self.ctx.sim().clone();
        let before = sim.now();
        sim.run_window(end);
        let after = sim.now();
        let (advanced, waited) = (after - before, end - after);
        self.stats.advanced += advanced;
        self.stats.barrier_wait += waited;
        let island = self.ctx.id();
        sim.tracer().record_with(|| Event {
            at: after,
            dur: Cycles::ZERO,
            pe: None,
            comp: Component::Sched,
            kind: EventKind::IslandWindow {
                island,
                advanced,
                waited,
            },
        });
        let reply = self.report();
        self.stats.events_out += reply.out.len() as u64;
        reply
    }

    /// Runs the finish closure, then shuts the island's `Sim` down: its
    /// tasks hold the island's context, so it would never be freed.
    fn finish(mut self) -> (String, IslandStats) {
        let output = (self.finish)(&self.ctx);
        let sim = self.ctx.sim();
        sim.shutdown();
        self.stats.final_now = sim.now();
        sim.flush_gauges();
        (output, self.stats)
    }
}

/// The contiguous run of islands one thread simulates — a remote worker's
/// or the coordinator's own.
struct Chunk {
    islands: Vec<WorkerIsland>,
}

impl Chunk {
    /// Builds islands `first..first + builders.len()` on the calling thread.
    fn build(first: u32, total: u32, lookahead: Cycles, builders: Vec<IslandBuilder>) -> Chunk {
        let islands = (first..)
            .zip(builders)
            .map(|(id, build)| {
                let ctx = IslandCtx::new(id, total, lookahead);
                let finish = build(&ctx);
                WorkerIsland {
                    ctx,
                    finish,
                    stats: IslandStats::default(),
                }
            })
            .collect();
        Chunk { islands }
    }

    /// The chunk's job, with the horizon report before any window.
    fn first_job(&self) -> Job {
        Job {
            end: None,
            events: self.islands.iter().map(|_| Vec::new()).collect(),
            replies: self.islands.iter().map(WorkerIsland::report).collect(),
        }
    }

    /// Does what `job` asks and fills its replies.
    fn serve(&mut self, job: &mut Job) {
        job.replies.clear();
        for (isl, events) in self.islands.iter_mut().zip(&mut job.events) {
            job.replies.push(match job.end {
                Some(end) => isl.run_window(end, events),
                None => isl.stall_report(),
            });
        }
    }

    fn finish(self) -> Vec<(String, IslandStats)> {
        self.islands.into_iter().map(WorkerIsland::finish).collect()
    }
}

/// A remote worker: reports its freshly built chunk, then serves each job
/// it is sent and sends it back. Sent `None`, it returns each island's
/// output and residency, in chunk order. If its job channel closes first
/// (the coordinator panicked), it returns `None` without running the
/// finish closures.
fn worker(
    mut chunk: Chunk,
    jobs: mpsc::Receiver<Option<Job>>,
    done: mpsc::Sender<Job>,
) -> Option<Vec<(String, IslandStats)>> {
    let _ = done.send(chunk.first_job());
    while let Some(mut job) = jobs.recv().ok()? {
        chunk.serve(&mut job);
        let _ = done.send(job);
    }
    Some(chunk.finish())
}

/// The coordinator's handle on one remote worker and its chunk.
struct Remote<'scope> {
    jobs: mpsc::Sender<Option<Job>>,
    done: mpsc::Receiver<Job>,
    thread: std::thread::ScopedJoinHandle<'scope, Option<Vec<(String, IslandStats)>>>,
}

/// The coordinator's view of every island between windows.
struct Horizon {
    next: Vec<Option<Cycles>>,
    live: Vec<usize>,
    /// Exported events not yet delivered, in merge order.
    pending: BTreeSet<PdesEvent>,
}

impl Horizon {
    fn new(islands: usize) -> Horizon {
        Horizon {
            next: vec![None; islands],
            live: vec![0; islands],
            pending: BTreeSet::new(),
        }
    }

    /// Takes in one chunk's replies; the chunk starts at island `first`.
    /// After a window, every exported event must lie past its `end`.
    fn absorb(&mut self, first: usize, replies: &mut Vec<WindowReply>, window_end: Option<Cycles>) {
        for (i, r) in (first..).zip(replies.drain(..)) {
            self.next[i] = r.next;
            self.live[i] = r.live;
            for ev in r.out {
                if let Some(end) = window_end {
                    assert!(ev.at > end, "island {} broke lookahead", ev.src);
                }
                self.pending.insert(ev);
            }
        }
    }

    /// The earliest instant any island can act, if any can.
    fn base(&self) -> Option<Cycles> {
        let pending = self.pending.first().map(|e| e.at);
        self.next.iter().flatten().copied().chain(pending).min()
    }
}

/// Runs `builders.len()` islands to completion under the window protocol
/// and returns their outputs and residency.
///
/// Terminates when every island's regular (non-daemon) tasks have
/// finished, mirroring [`Sim::run`]; cross-island events still in flight
/// at that point are dropped and counted in [`PdesReport::abandoned`].
///
/// # Panics
///
/// Panics when every island is blocked with regular tasks still live and
/// no event in flight (the distributed analogue of `SimState::Stalled`),
/// or when an island violates the lookahead contract.
pub fn run(cfg: &PdesConfig, builders: Vec<IslandBuilder>) -> PdesReport {
    assert!(
        cfg.lookahead >= Cycles::new(1),
        "lookahead must be positive"
    );
    assert!(!builders.is_empty(), "need at least one island");
    // The coordinator builds and runs islands too, so it gets a thread of
    // its own rather than the caller's: on the main thread the islands'
    // large allocations land in the allocator's main arena, which slows
    // set-up and raises peak RSS.
    std::thread::scope(|scope| {
        let coordinator = std::thread::Builder::new()
            .name("pdes-coordinator".to_string())
            .spawn_scoped(scope, move || coordinate(scope, cfg, builders))
            .expect("spawn the pdes coordinator");
        coordinator
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// The window loop. Islands are split into `workers` contiguous chunks,
/// wide chunks first (mirrors `IslandMap::columns`); the last chunk runs
/// inline on this thread, every other one on a remote worker thread.
fn coordinate<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    cfg: &PdesConfig,
    builders: Vec<IslandBuilder>,
) -> PdesReport {
    let islands = builders.len();
    let total = islands as u32;
    let workers = cfg.workers.clamp(1, islands);
    let (base, extra) = (islands / workers, islands % workers);
    let mut builders = builders.into_iter();
    // The first island of every chunk, the local one last, and each
    // island's chunk.
    let mut firsts = Vec::with_capacity(workers);
    let mut chunk_of = Vec::with_capacity(islands);
    // One reply channel per worker: a worker that dies (panic in an
    // island) closes its channel, so the coordinator fails fast instead
    // of waiting forever on a channel the healthy workers keep open.
    let mut remotes = Vec::with_capacity(workers - 1);
    for w in 0..workers - 1 {
        let len = base + usize::from(w < extra);
        let first = chunk_of.len();
        firsts.push(first);
        chunk_of.resize(first + len, w);
        let chunk: Vec<IslandBuilder> = builders.by_ref().take(len).collect();
        let (jobs, job_rx) = mpsc::channel();
        let (done_tx, done) = mpsc::channel();
        let lookahead = cfg.lookahead;
        let thread = std::thread::Builder::new()
            .name(format!("pdes-worker-{w}"))
            .spawn_scoped(scope, move || {
                let chunk = Chunk::build(first as u32, total, lookahead, chunk);
                worker(chunk, job_rx, done_tx)
            })
            .expect("spawn a pdes worker");
        remotes.push(Remote { jobs, done, thread });
    }
    let local_first = chunk_of.len();
    firsts.push(local_first);
    chunk_of.resize(islands, workers - 1);
    let mut local = Chunk::build(local_first as u32, total, cfg.lookahead, builders.collect());

    let mut horizon = Horizon::new(islands);
    let mut jobs: Vec<Job> = remotes
        .iter()
        .map(|r| r.done.recv().expect("island worker died"))
        .chain([local.first_job()])
        .collect();
    // Sends every remote chunk its job, serves the local one, and takes
    // every job back with its replies.
    let exchange = |jobs: &mut [Job], local: &mut Chunk| {
        let (remote_jobs, local_job) = jobs.split_at_mut(workers - 1);
        for (r, job) in remotes.iter().zip(remote_jobs.iter_mut()) {
            r.jobs
                .send(Some(std::mem::take(job)))
                .expect("island worker died");
        }
        local.serve(&mut local_job[0]);
        for (r, job) in remotes.iter().zip(remote_jobs) {
            *job = r.done.recv().expect("island worker died");
        }
    };

    let mut windows = 0u64;
    let mut delivered = 0u64;
    let mut window_end = None;
    loop {
        for (&first, job) in firsts.iter().zip(&mut jobs) {
            horizon.absorb(first, &mut job.replies, window_end);
        }
        if horizon.live.iter().all(|&l| l == 0) {
            break;
        }
        let Some(window_base) = horizon.base() else {
            for job in &mut jobs {
                job.end = None;
            }
            exchange(&mut jobs, &mut local);
            let names: Vec<String> = jobs
                .iter_mut()
                .flat_map(|job| job.replies.drain(..).flat_map(|r| r.stalled))
                .collect();
            panic!("pdes stalled: no island can make progress; live tasks: {names:?}");
        };
        let end = window_base + cfg.lookahead - Cycles::new(1);
        for job in &mut jobs {
            job.end = Some(end);
        }
        // Due events go to their island's list in its chunk's job.
        while horizon.pending.first().is_some_and(|e| e.at <= end) {
            let ev = horizon.pending.pop_first().expect("checked first");
            delivered += 1;
            let dst = ev.dst as usize;
            let chunk = chunk_of[dst];
            jobs[chunk].events[dst - firsts[chunk]].push(ev);
        }
        exchange(&mut jobs, &mut local);
        window_end = Some(end);
        windows += 1;
    }

    for r in &remotes {
        r.jobs.send(None).expect("island worker died");
    }
    let mut finished = Vec::with_capacity(islands);
    for r in remotes {
        let chunk = r.thread.join().ok().flatten();
        finished.extend(chunk.expect("island worker died"));
    }
    finished.extend(local.finish());
    let (outputs, stats): (Vec<String>, Vec<IslandStats>) = finished.into_iter().unzip();
    let end_time = stats
        .iter()
        .map(|s| s.final_now)
        .max()
        .unwrap_or(Cycles::ZERO);
    PdesReport {
        outputs,
        islands: stats,
        windows,
        events: delivered,
        abandoned: horizon.pending.len() as u64,
        end_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn cfg(workers: usize) -> PdesConfig {
        PdesConfig {
            lookahead: Cycles::new(7),
            workers,
        }
    }

    /// Island 0 sends `rounds` pings to island 1; island 1 echoes each
    /// back. Both report their final time and everything they saw.
    fn ping_pong(rounds: u64) -> Vec<IslandBuilder> {
        let ping: IslandBuilder = Box::new(move |ctx: &IslandCtx| {
            let rx = ctx.port(0);
            let ctx2 = ctx.clone();
            let log = Rc::new(RefCell::new(String::new()));
            let log2 = log.clone();
            ctx.sim().spawn("pinger", async move {
                for i in 0..rounds {
                    let now = ctx2.sim().now();
                    ctx2.send(now + ctx2.lookahead(), 1, 0, vec![i as u8]);
                    let (at, bytes) = rx.recv().await;
                    use std::fmt::Write as _;
                    let _ = write!(log2.borrow_mut(), "{}@{};", bytes[0], at);
                }
            });
            let log = log.clone();
            Box::new(move |ctx: &IslandCtx| format!("{}|{}", log.borrow(), ctx.sim().now()))
        });
        let pong: IslandBuilder = Box::new(move |ctx: &IslandCtx| {
            let rx = ctx.port(0);
            let ctx2 = ctx.clone();
            ctx.sim().spawn("ponger", async move {
                for _ in 0..rounds {
                    let (_, bytes) = rx.recv().await;
                    let now = ctx2.sim().now();
                    ctx2.send(now + ctx2.lookahead(), 0, 0, bytes);
                }
            });
            Box::new(|ctx: &IslandCtx| ctx.sim().now().to_string())
        });
        vec![ping, pong]
    }

    #[test]
    fn ping_pong_round_trip_takes_two_lookaheads_per_round() {
        let report = run(&cfg(1), ping_pong(3));
        // Each round: ping at now+7 delivered at now+7, echo at +14.
        assert_eq!(report.outputs[0], "0@14;1@28;2@42;|42");
        assert_eq!(report.events, 6);
        assert_eq!(report.abandoned, 0);
        assert_eq!(report.end_time, Cycles::new(42));
        assert!(report.windows >= 6, "windows: {}", report.windows);
    }

    #[test]
    fn results_are_identical_for_every_worker_count() {
        let reference = run(&cfg(1), ping_pong(5));
        for workers in [2, 3, 8] {
            let report = run(&cfg(workers), ping_pong(5));
            assert_eq!(report, reference, "workers={workers}");
        }
    }

    #[test]
    fn merge_order_breaks_timestamp_ties_by_source_island() {
        // Islands 1 and 2 both send to island 0 with the same timestamp;
        // the receiver must see island 1's event first, regardless of
        // which worker thread ran which island.
        let build = || -> Vec<IslandBuilder> {
            let sink: IslandBuilder = Box::new(|ctx: &IslandCtx| {
                let rx = ctx.port(0);
                let order = Rc::new(RefCell::new(Vec::<u8>::new()));
                let order2 = order.clone();
                ctx.sim().spawn("sink", async move {
                    for _ in 0..2 {
                        let (_, bytes) = rx.recv().await;
                        order2.borrow_mut().push(bytes[0]);
                    }
                });
                Box::new(move |_| format!("{:?}", order.borrow()))
            });
            let src = |tag: u8| -> IslandBuilder {
                Box::new(move |ctx: &IslandCtx| {
                    let ctx2 = ctx.clone();
                    ctx.sim().spawn("src", async move {
                        ctx2.send(Cycles::new(10), 0, 0, vec![tag]);
                    });
                    Box::new(|_: &IslandCtx| String::new())
                })
            };
            vec![sink, src(1), src(2)]
        };
        for workers in [1, 2, 3] {
            let report = run(&cfg(workers), build());
            assert_eq!(report.outputs[0], "[1, 2]", "workers={workers}");
        }
    }

    #[test]
    fn daemons_do_not_block_termination() {
        let one: IslandBuilder = Box::new(|ctx: &IslandCtx| {
            let sim = ctx.sim().clone();
            let sim2 = sim.clone();
            sim.spawn_daemon("ticker", async move {
                loop {
                    sim2.sleep(Cycles::new(5)).await;
                }
            });
            let sim3 = sim.clone();
            sim.spawn("work", async move {
                sim3.sleep(Cycles::new(12)).await;
            });
            Box::new(|ctx: &IslandCtx| ctx.sim().now().to_string())
        });
        let report = run(&cfg(1), vec![one]);
        // The work task finishes at 12, which falls in the window
        // [10, 16]; the daemon tick at 15 is inside that window and still
        // fires (a window always runs to its end), but the tick at 20 is
        // past the final barrier and is abandoned, exactly like
        // `Sim::run` abandons daemon timers once regular tasks are done.
        assert_eq!(report.islands[0].final_now, Cycles::new(15));
        assert_eq!(report.end_time, Cycles::new(15));
    }

    #[test]
    fn finished_islands_are_freed() {
        // A daemon holding the island's context (and through it the
        // `Sim`) outlives the run's last window; the shutdown after the
        // finish closure must free it with its island.
        let freed = Arc::new(AtomicUsize::new(0));
        let builders = (0..2)
            .map(|_| {
                let freed = freed.clone();
                Box::new(move |ctx: &IslandCtx| {
                    let guard = CountOnDrop(freed);
                    let (ctx2, port) = (ctx.clone(), ctx.port(0));
                    ctx.sim().spawn_daemon("holder", async move {
                        let _guard = guard;
                        let _ctx = ctx2;
                        port.recv().await;
                    });
                    let sim = ctx.sim().clone();
                    ctx.sim().spawn("work", async move {
                        sim.sleep(Cycles::new(20)).await;
                    });
                    Box::new(|_: &IslandCtx| String::new()) as IslandFinish
                }) as IslandBuilder
            })
            .collect();
        run(&cfg(2), builders);
        assert_eq!(freed.load(Ordering::Relaxed), 2);
    }

    /// Counts its drop.
    struct CountOnDrop(Arc<AtomicUsize>);

    impl Drop for CountOnDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn residency_accounts_busy_and_barrier_wait() {
        let report = run(&cfg(2), ping_pong(4));
        for s in &report.islands {
            // Both islands end at the same final barrier time, so busy +
            // wait covers the same span on each.
            assert!((s.advanced + s.barrier_wait).as_u64() > 0, "{s:?}");
        }
        assert_eq!(report.islands[0].events_in, 4);
        assert_eq!(report.islands[0].events_out, 4);
    }

    #[test]
    fn island_window_events_record_residency_in_traces() {
        let one: IslandBuilder = Box::new(|ctx: &IslandCtx| {
            ctx.sim().enable_trace();
            let sim = ctx.sim().clone();
            ctx.sim().spawn("work", async move {
                sim.sleep(Cycles::new(20)).await;
            });
            Box::new(|ctx: &IslandCtx| {
                let windows = ctx
                    .sim()
                    .trace()
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::IslandWindow { .. }))
                    .count();
                windows.to_string()
            })
        });
        let report = run(&cfg(1), vec![one]);
        let recorded: u64 = report.outputs[0].parse().unwrap();
        assert_eq!(recorded, report.windows);
    }

    #[test]
    #[should_panic(expected = "island worker")]
    fn lookahead_violation_is_fatal() {
        let bad: IslandBuilder = Box::new(|ctx: &IslandCtx| {
            let ctx2 = ctx.clone();
            ctx.sim().spawn("cheater", async move {
                // One cycle short of the lookahead: must be rejected.
                ctx2.send(ctx2.lookahead() - Cycles::new(1), 1, 0, vec![]);
            });
            Box::new(|_: &IslandCtx| String::new())
        });
        let idle: IslandBuilder = Box::new(|ctx: &IslandCtx| {
            ctx.port(0);
            Box::new(|_: &IslandCtx| String::new())
        });
        run(&cfg(2), vec![bad, idle]);
    }

    type Seen = std::sync::Arc<std::sync::Mutex<Vec<Witness>>>;

    /// One island's builder, window or finish closure, and the thread that
    /// ran it.
    #[derive(Debug)]
    struct Witness {
        island: u32,
        thread: std::thread::ThreadId,
        thread_name: Option<String>,
    }

    fn witness(seen: &Seen, island: u32) {
        let thread = std::thread::current();
        seen.lock().unwrap().push(Witness {
            island,
            thread: thread.id(),
            thread_name: thread.name().map(str::to_string),
        });
    }

    /// Independent islands that record their threads: in the builder, in
    /// a task across three windows, and in the finish closure.
    fn witnesses(islands: u32, seen: &Seen) -> Vec<IslandBuilder> {
        (0..islands)
            .map(|i| {
                let seen = seen.clone();
                Box::new(move |ctx: &IslandCtx| {
                    witness(&seen, i);
                    let (sim, seen2) = (ctx.sim().clone(), seen.clone());
                    ctx.sim().spawn("witness", async move {
                        for _ in 0..3 {
                            witness(&seen2, i);
                            sim.sleep(Cycles::new(10)).await;
                        }
                    });
                    Box::new(move |_: &IslandCtx| {
                        witness(&seen, i);
                        String::new()
                    }) as IslandFinish
                }) as IslandBuilder
            })
            .collect()
    }

    fn distinct<T: PartialEq + Copy>(items: impl IntoIterator<Item = T>) -> Vec<T> {
        let mut out = Vec::new();
        for item in items {
            if !out.contains(&item) {
                out.push(item);
            }
        }
        out
    }

    #[test]
    fn one_worker_runs_every_island_on_one_spawned_thread() {
        let seen = Seen::default();
        let report = run(&cfg(1), witnesses(3, &seen));
        assert!(report.windows >= 3, "windows: {}", report.windows);
        let seen = seen.lock().unwrap();
        // Per island: builder, three window polls, finish.
        assert_eq!(seen.len(), 3 * 5, "{seen:?}");
        let threads = distinct(seen.iter().map(|w| w.thread));
        assert_eq!(threads.len(), 1, "{seen:?}");
        assert_ne!(threads[0], std::thread::current().id());
        assert_eq!(seen[0].thread_name.as_deref(), Some("pdes-coordinator"));
    }

    #[test]
    fn the_coordinator_hosts_the_last_chunk() {
        let seen = Seen::default();
        run(&cfg(3), witnesses(5, &seen));
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 5 * 5, "{seen:?}");
        let threads = distinct(seen.iter().map(|w| w.thread));
        assert_eq!(threads.len(), 3, "{seen:?}");
        assert!(!threads.contains(&std::thread::current().id()));
        // Chunks of 2, 2 and 1 islands; each island stays on one thread.
        let thread_of = |island: u32| {
            let on = distinct(
                seen.iter()
                    .filter(|w| w.island == island)
                    .map(|w| (w.thread, w.thread_name.as_deref())),
            );
            assert_eq!(on.len(), 1, "island {island}: {on:?}");
            on[0]
        };
        assert_eq!(thread_of(0), thread_of(1));
        assert_eq!(thread_of(2), thread_of(3));
        assert_eq!(thread_of(0).1, Some("pdes-worker-0"));
        assert_eq!(thread_of(2).1, Some("pdes-worker-1"));
        assert_eq!(thread_of(4).1, Some("pdes-coordinator"));
    }

    /// Runs `f` on a thread of its own and returns its panic message;
    /// fails if `f` returns normally or is still running after a minute.
    fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
        // The sender drops when `f` returns or unwinds, whichever happens.
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let _done = done_tx;
            f();
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) =
            done_rx.recv_timeout(std::time::Duration::from_secs(60))
        {
            panic!("the run hung");
        }
        let payload = handle
            .join()
            .expect_err("expected a panic, but the run returned");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |msg| msg.to_string()),
        }
    }

    #[test]
    fn lookahead_violation_on_the_coordinator_keeps_its_message() {
        let bad: IslandBuilder = Box::new(|ctx: &IslandCtx| {
            let ctx2 = ctx.clone();
            ctx.sim().spawn("cheater", async move {
                ctx2.send(ctx2.lookahead() - Cycles::new(1), 1, 0, vec![]);
            });
            Box::new(|_: &IslandCtx| String::new())
        });
        let idle: IslandBuilder = Box::new(|ctx: &IslandCtx| {
            ctx.port(0);
            Box::new(|_: &IslandCtx| String::new())
        });
        let msg = panic_message(|| {
            run(&cfg(1), vec![bad, idle]);
        });
        assert!(
            msg.contains("island 0: event at 6 violates lookahead 7"),
            "{msg}"
        );
    }

    /// An island that panics at cycle 20, in its third window.
    fn doomed() -> IslandBuilder {
        Box::new(|ctx: &IslandCtx| {
            let sim = ctx.sim().clone();
            ctx.sim().spawn("doomed", async move {
                sim.sleep(Cycles::new(20)).await;
                panic!("island 1 gave up at {}", sim.now());
            });
            Box::new(|_: &IslandCtx| String::new())
        })
    }

    #[test]
    fn a_coordinator_island_panic_ends_the_run_and_releases_the_worker() {
        // Island 0, on the remote worker, would run forever; island 1, on
        // the coordinator, panics. `run` only returns once its scope has
        // joined every thread, so getting the panic back at all means the
        // worker saw its window channel close.
        let endless: IslandBuilder = Box::new(|ctx: &IslandCtx| {
            let sim = ctx.sim().clone();
            ctx.sim().spawn("endless", async move {
                loop {
                    sim.sleep(Cycles::new(5)).await;
                }
            });
            Box::new(|_: &IslandCtx| String::new())
        });
        let msg = panic_message(|| {
            run(&cfg(2), vec![endless, doomed()]);
        });
        assert_eq!(msg, "island 1 gave up at 20");
    }

    #[test]
    fn a_coordinator_island_panic_skips_the_remote_finish() {
        // The remote island's work ends at 10, before the coordinator's
        // island panics; its finish closure must still never run.
        let finished = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let remote: IslandBuilder = {
            let finished = finished.clone();
            Box::new(move |ctx: &IslandCtx| {
                let sim = ctx.sim().clone();
                ctx.sim().spawn("short", async move {
                    sim.sleep(Cycles::new(10)).await;
                });
                Box::new(move |_: &IslandCtx| {
                    finished.store(true, std::sync::atomic::Ordering::Relaxed);
                    String::new()
                })
            })
        };
        let msg = panic_message(|| {
            run(&cfg(2), vec![remote, doomed()]);
        });
        assert_eq!(msg, "island 1 gave up at 20");
        assert!(!finished.load(std::sync::atomic::Ordering::Relaxed));
    }

    #[test]
    fn cross_island_deadlock_reports_stall() {
        let waiting = || -> IslandBuilder {
            Box::new(|ctx: &IslandCtx| {
                let rx = ctx.port(0);
                ctx.sim().spawn("forever", async move {
                    let _ = rx.recv().await;
                });
                Box::new(|_: &IslandCtx| String::new())
            })
        };
        // The names are rendered only once the run stalls, from every
        // island, the remote worker's too.
        for workers in [1, 2] {
            let msg = panic_message(move || {
                run(&cfg(workers), vec![waiting(), waiting()]);
            });
            assert_eq!(
                msg,
                "pdes stalled: no island can make progress; live tasks: [\"forever\", \"forever\"]",
                "{workers} workers"
            );
        }
    }
}
