//! Conservative-lookahead parallel discrete-event simulation (PDES).
//!
//! The engine partitions a platform into *islands* — disjoint groups of
//! PEs, each simulated by its own [`Sim`] (slab executor + timer wheel) —
//! and synchronizes them in bounded time windows, the approach parti-gem5
//! and MGSim use for tile-based manycores. The window width comes from the
//! *lookahead*: the minimum simulated latency of any cross-island NoC
//! transfer (`m3_noc::IslandMap::lookahead`). Inside a window every island
//! advances freely; events that cross a boundary are exported as
//! timestamped [`PdesEvent`]s and delivered at the next barrier, which is
//! always soon enough because nothing can cross the NoC faster than the
//! lookahead.
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
//! The window sequence is a function of simulated state only, each
//! island's execution inside a window is the ordinary deterministic
//! single-threaded executor, and events from different islands are
//! merged by the total key `(timestamp, source island, sequence number)`,
//! so no island observes the order in which the others ran.
//! [`Sim::run_window`] also never advances a clock to the barrier itself,
//! so traces contain no artifact of where the window boundaries fell.
//!
//! # What lives where
//!
//! A run spawns one thread, `pdes-coordinator`, and every island lives on
//! it: the builders run there, then each window runs the islands one
//! after another, then the finish closures run. `Sim` is `!Send`, so an
//! island *builder* is a `Send` closure that constructs the island on that
//! thread. Cross-island messages travel as bytes (see `m3_dtu::wire`)
//! through numbered [`PortRx`] inboxes registered by the builder.
//! Parallelism across simulations comes from running independent runs on
//! threads of their own, not from threads inside one run.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use m3_base::Cycles;
use m3_trace::{Component, Event, EventKind};

use crate::executor::Sim;
use crate::notify::Notify;

/// A timestamped event crossing an island boundary.
///
/// The derived `Ord` is the deterministic merge order: timestamp, then
/// source island, then per-source sequence number. `(src, seq)` is unique,
/// so the order is total.
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
    /// Ignored: every island runs on the run's one thread, whatever the
    /// value. It stays only so that callers which still set it build.
    pub workers: usize,
}

/// Extracts an island's result after its last window, on the run's thread.
pub type IslandFinish = Box<dyn FnOnce(&IslandCtx) -> String>;

/// Builds one island inside its freshly created [`Sim`], registering ports
/// and spawning tasks; runs once on the run's `pdes-coordinator` thread
/// before any window.
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

/// One island: its context, its finish closure and its residency.
struct Island {
    ctx: IslandCtx,
    finish: IslandFinish,
    stats: IslandStats,
}

impl Island {
    fn build(id: u32, total: u32, lookahead: Cycles, build: IslandBuilder) -> Island {
        let ctx = IslandCtx::new(id, total, lookahead);
        let finish = build(&ctx);
        Island {
            ctx,
            finish,
            stats: IslandStats::default(),
        }
    }

    fn deliver(&mut self, ev: PdesEvent) {
        self.stats.events_in += 1;
        self.ctx.deposit(ev);
    }

    /// Moves the events the island sent into `pending`; each must lie past
    /// `after`, the end of the window that produced it.
    fn export(&mut self, after: Cycles, pending: &mut BTreeSet<PdesEvent>) {
        for ev in self.ctx.inner.outbox.borrow_mut().drain(..) {
            assert!(ev.at > after, "island {} broke lookahead", ev.src);
            self.stats.events_out += 1;
            pending.insert(ev);
        }
    }

    fn run_window(&mut self, end: Cycles, pending: &mut BTreeSet<PdesEvent>) {
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
        self.export(end, pending);
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
/// or when an island violates the lookahead contract. An island's own
/// panic ends the run with its message, and no finish closure runs.
pub fn run(cfg: &PdesConfig, builders: Vec<IslandBuilder>) -> PdesReport {
    assert!(
        cfg.lookahead >= Cycles::new(1),
        "lookahead must be positive"
    );
    assert!(!builders.is_empty(), "need at least one island");
    let lookahead = cfg.lookahead;
    // The islands get a thread of their own rather than the caller's: on
    // the main thread their large allocations land in the allocator's
    // main arena, which slows set-up and raises peak RSS.
    std::thread::Builder::new()
        .name("pdes-coordinator".to_string())
        .spawn(move || coordinate(lookahead, builders))
        .expect("spawn the pdes coordinator")
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// The window loop: builds every island, then runs each window's islands
/// one after another.
fn coordinate(lookahead: Cycles, builders: Vec<IslandBuilder>) -> PdesReport {
    let total = builders.len() as u32;
    let mut islands: Vec<Island> = (0..total)
        .zip(builders)
        .map(|(id, build)| Island::build(id, total, lookahead, build))
        .collect();
    // Exported events not yet delivered, in merge order. A builder's
    // events lie at `lookahead` or later, past cycle zero.
    let mut pending = BTreeSet::new();
    for island in &mut islands {
        island.export(Cycles::ZERO, &mut pending);
    }
    let mut windows = 0u64;
    loop {
        // The earliest instant any island can act, if any can. Asked of
        // every island first, so one whose `Sim` was shut down says so.
        let next = islands.iter().filter_map(|i| i.ctx.sim().next_event_time());
        let base = next.chain(pending.first().map(|e| e.at)).min();
        if islands.iter().all(|i| i.ctx.sim().live_regular() == 0) {
            break;
        }
        let Some(base) = base else {
            let names: Vec<String> = islands
                .iter()
                .flat_map(|i| i.ctx.sim().regular_task_names())
                .collect();
            panic!("pdes stalled: no island can make progress; live tasks: {names:?}");
        };
        let end = base + lookahead - Cycles::new(1);
        while pending.first().is_some_and(|e| e.at <= end) {
            let ev = pending.pop_first().expect("checked first");
            islands[ev.dst as usize].deliver(ev);
        }
        for island in &mut islands {
            island.run_window(end, &mut pending);
        }
        windows += 1;
    }

    let (outputs, stats): (Vec<String>, Vec<IslandStats>) =
        islands.into_iter().map(Island::finish).unzip();
    let end_time = stats
        .iter()
        .map(|s| s.final_now)
        .max()
        .unwrap_or(Cycles::ZERO);
    PdesReport {
        outputs,
        windows,
        events: stats.iter().map(|s| s.events_in).sum(),
        islands: stats,
        abandoned: pending.len() as u64,
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
        // the receiver must see island 1's event first.
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
        let report = run(&cfg(1), build());
        assert_eq!(report.outputs[0], "[1, 2]");
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
        run(&cfg(1), builders);
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
        let report = run(&cfg(1), ping_pong(4));
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
    #[should_panic(expected = "violates lookahead")]
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
        run(&cfg(1), vec![bad, idle]);
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

    /// Runs [`witnesses`] of `islands` islands on `workers` and checks
    /// that the builders, the three window polls and the finish closure of
    /// every island all ran on one spawned `pdes-coordinator` thread.
    fn run_on_one_coordinator(islands: u32, workers: usize) -> PdesReport {
        let seen = Seen::default();
        let report = run(&cfg(workers), witnesses(islands, &seen));
        assert!(report.windows >= 3, "windows: {}", report.windows);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), islands as usize * 5, "{seen:?}");
        let threads = distinct(seen.iter().map(|w| w.thread));
        assert_eq!(threads.len(), 1, "{seen:?}");
        assert_ne!(threads[0], std::thread::current().id());
        assert!(
            seen.iter()
                .all(|w| w.thread_name.as_deref() == Some("pdes-coordinator")),
            "{seen:?}"
        );
        let order: Vec<u32> = seen.iter().map(|w| w.island).collect();
        assert_eq!(distinct(order), (0..islands).collect::<Vec<_>>());
        report
    }

    #[test]
    fn one_worker_runs_every_island_on_one_spawned_thread() {
        run_on_one_coordinator(3, 1);
    }

    #[test]
    fn the_coordinator_hosts_the_last_chunk() {
        // Whatever `workers` says, all islands form one chunk, and the
        // coordinator hosts it.
        let one = run_on_one_coordinator(5, 1);
        let four = run_on_one_coordinator(5, 4);
        assert_eq!(four, one);
    }

    /// Runs `f` on a thread of its own and returns its panic message;
    /// fails if `f` returns normally or is still running after a minute.
    fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
        // The sender drops when `f` returns or unwinds, whichever happens.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let _done = done_tx;
            f();
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
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
        // Island 0 would run forever; island 1 panics. `run` only returns
        // once its `pdes-coordinator` thread has ended, so getting the
        // panic back at all means the endless island was let go too.
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
        // Island 0's work ends at 10, before island 1 panics at 20, in its
        // third window; island 0's finish closure must still never run.
        let finished = Arc::new(AtomicUsize::new(0));
        let short: IslandBuilder = {
            let finished = finished.clone();
            Box::new(move |ctx: &IslandCtx| {
                let sim = ctx.sim().clone();
                ctx.sim().spawn("short", async move {
                    sim.sleep(Cycles::new(10)).await;
                });
                Box::new(move |_: &IslandCtx| {
                    finished.fetch_add(1, Ordering::Relaxed);
                    String::new()
                })
            })
        };
        let msg = panic_message(|| {
            run(&cfg(2), vec![short, doomed()]);
        });
        assert_eq!(msg, "island 1 gave up at 20");
        assert_eq!(finished.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn cross_island_deadlock_reports_stall() {
        let waiting = |name: &'static str| -> IslandBuilder {
            Box::new(move |ctx: &IslandCtx| {
                let rx = ctx.port(0);
                ctx.sim().spawn(name, async move {
                    let _ = rx.recv().await;
                });
                Box::new(|_: &IslandCtx| String::new())
            })
        };
        // The names are rendered only once the run stalls, from every
        // island, in island order.
        let msg = panic_message(move || {
            run(&cfg(1), vec![waiting("a"), waiting("b"), waiting("c")]);
        });
        assert_eq!(
            msg,
            "pdes stalled: no island can make progress; live tasks: [\"a\", \"b\", \"c\"]",
        );
    }
}
