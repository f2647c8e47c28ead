//! The clock, the event queue, and the task executor.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, RawWakerVTable, Wake, Waker};

use m3_base::cycles::Cycles;
use m3_trace::{Component, Event, EventKind, Metrics, Recorder};

use crate::gauges;
use crate::name::TaskName;
use crate::stats::Stats;

/// A slot-plus-generation task handle.
///
/// Task storage is a slab ([`Inner::slots`]); slots are recycled through a
/// free list, so a bare index could alias a dead task with a later one. The
/// generation disambiguates: a waker holding a stale `TaskId` finds the
/// slot's generation advanced and is ignored, exactly like the old
/// map-lookup miss.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct TaskId {
    slot: u32,
    gen: u32,
}

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

/// The shared ready-queue the wakers push into.
///
/// Wakers must be `Send + Sync` by API contract even though this executor is
/// single-threaded, hence the (uncontended) mutex.
#[derive(Default)]
struct ReadyQueue {
    queue: Mutex<VecDeque<TaskId>>,
    /// The queue's length, written under the lock, so the run loops and
    /// the in-place check see an empty queue without taking it. `Relaxed`
    /// suffices: it publishes no data (the entries are read under the
    /// lock), and the wakers run on the executor's own thread.
    len: AtomicUsize,
}

impl ReadyQueue {
    /// Locks the queue. The executor is single-threaded, so the lock is
    /// never contended; a poisoned lock (a panic while pushing a `TaskId`)
    /// leaves the queue intact, so recovering the guard is sound.
    fn lock(&self) -> MutexGuard<'_, VecDeque<TaskId>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, id: TaskId) {
        let mut queue = self.lock();
        queue.push_back(id);
        self.len.store(queue.len(), Ordering::Relaxed);
    }

    fn is_empty(&self) -> bool {
        self.len.load(Ordering::Relaxed) == 0
    }

    /// Moves the whole queue into the empty `batch` under one lock; an
    /// empty queue is not locked at all.
    fn take_into(&self, batch: &mut VecDeque<TaskId>) {
        if self.is_empty() {
            return;
        }
        let mut queue = self.lock();
        std::mem::swap(&mut *queue, batch);
        self.len.store(queue.len(), Ordering::Relaxed);
    }

    fn clear(&self) {
        self.lock().clear();
        self.len.store(0, Ordering::Relaxed);
    }
}

struct TaskWaker {
    task: TaskId,
    ready: Arc<ReadyQueue>,
    /// Deduplicates wake-ups between polls.
    queued: AtomicBool,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.queued.swap(true, Ordering::Relaxed) {
            self.ready.push(self.task);
        }
    }
}

struct Task {
    name: TaskName,
    /// `name` rendered for trace events: filled at spawn when tracing is on
    /// (or at the first traced event after it), then shared by every event.
    traced: Option<Rc<str>>,
    /// The future and the waker built for it at spawn. The poll moves both
    /// out of the slot and back, so polling neither allocates nor touches
    /// the waker's reference count. `None` only while the task is polled.
    run: Option<(BoxFuture, Waker)>,
    /// The waker's shared state, kept to clear its `queued` flag per poll.
    waker_state: Arc<TaskWaker>,
    daemon: bool,
}

impl Task {
    /// The name trace events carry, rendered at most once per task.
    fn trace_name(&mut self) -> Rc<str> {
        self.traced
            .get_or_insert_with(|| self.name.render())
            .clone()
    }

    /// Starts a poll at `at`, from the run loop or in place: clears the
    /// `queued` flag, so a wake-up from here on queues the task again, and
    /// traces the poll.
    fn begin_poll(&mut self, at: Cycles, recorder: &Recorder) {
        self.waker_state.queued.store(false, Ordering::Relaxed);
        recorder.record_with(|| Event {
            at,
            dur: Cycles::ZERO,
            pe: None,
            comp: Component::Sched,
            kind: EventKind::TaskPoll {
                name: self.trace_name(),
            },
        });
    }
}

/// One slab slot: the current generation plus the task occupying it (if
/// any). The generation advances when the occupant is removed.
struct Slot {
    gen: u32,
    task: Option<Task>,
}

/// Where a run stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimState {
    /// Every spawned task ran to completion.
    Finished,
    /// Tasks remain but none can make progress (no pending timer either).
    /// Carries the names of the stalled tasks.
    Stalled(Vec<String>),
    /// The time limit passed to [`Sim::run_until`] was reached.
    TimeLimit,
}

/// What the running loop does with timers, which decides whether a
/// sleeping task may resume in place.
#[derive(Copy, Clone)]
struct Bound {
    /// The latest deadline the loop fires: `run_until`'s limit,
    /// `run_window`'s end or `settle`'s limit (`u64::MAX` under `run`).
    limit: Cycles,
    /// Whether a clock jump is traced as a `ClockAdvance` (not under
    /// `settle`).
    record_advance: bool,
    /// Whether the loop returns [`SimState::Finished`] before firing a
    /// timer once no regular task is left (`run` and `run_until`).
    needs_regular: bool,
}

/// The task [`Sim::poll_task`] is polling and what it may do in place.
#[derive(Copy, Clone)]
struct Polling {
    id: TaskId,
    /// The identity (data and vtable pointers, what `Waker::will_wake`
    /// compares) of the waker the poll's context carries.
    waker: (*const (), *const RawWakerVTable),
    /// No task waits behind this one in the batch being drained, and no
    /// combinator is polling one of its children.
    inline: bool,
    bound: Bound,
}

impl Polling {
    fn owns(&self, waker: &Waker) -> bool {
        std::ptr::eq(waker.data(), self.waker.0) && std::ptr::eq(waker.vtable(), self.waker.1)
    }
}

struct Inner {
    now: Cycles,
    next_seq: u64,
    /// Live tasks that are not daemons plus pending [`Sim::call_at`]
    /// callbacks; the run loop finishes when this reaches zero.
    live_regular: usize,
    /// Task slab, indexed by `TaskId::slot`. Vacant slots are listed in
    /// `free` and reused in LIFO order.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Timer wheel: (deadline, sequence) -> entry. `Reverse` makes the
    /// `BinaryHeap` a min-heap; the sequence number keeps same-cycle events in
    /// scheduling order, which is what makes runs deterministic.
    timers: BinaryHeap<Reverse<(Cycles, u64, TimerEntry)>>,
    /// The task [`Sim::poll_task`] is polling. A [`Sleep`] polled under
    /// exactly its waker resumes it in place when its deadline is the
    /// next event, and arms a [`TimerEntry::Task`] instead of cloning the
    /// waker otherwise.
    polling: Option<Polling>,
    /// Where wakers queue their tasks.
    ready: Arc<ReadyQueue>,
    /// The shared event recorder, here so a [`Sleep`] resuming its task in
    /// place traces what the run loop would have.
    recorder: Recorder,
    /// The batch the run loops poll: the ready queue is swapped into it
    /// under one lock, and wake-ups issued while it is polled land behind
    /// it in the (now empty) queue, so FIFO order is that of a one-by-one
    /// drain. Kept here so its allocation is reused.
    batch: VecDeque<TaskId>,
    /// Host-side gauges, merged into [`gauges`] after every run/settle call
    /// and on drop. `reported` remembers what was already contributed so
    /// repeated flushes only add the delta.
    spawned: u64,
    polls: u64,
    timers_scheduled: u64,
    timers_deduped: u64,
    timers_inlined: u64,
    peak_tasks: u64,
    peak_timers: u64,
    reported: gauges::Gauges,
    /// Set by [`Sim::shutdown`]: the simulation is over and may not be
    /// driven again.
    closed: bool,
}

impl Inner {
    /// Registers a new timer that fires `entry` at `deadline`, tagged with
    /// the next scheduling sequence number. This is the only way onto the
    /// wheel: an entry keeps its sequence number until it fires, so
    /// same-cycle timers fire in the order they were armed.
    fn arm(&mut self, deadline: Cycles, entry: TimerEntry) {
        self.assert_open();
        let seq = self.number_timer();
        self.timers.push(Reverse((deadline, seq, entry)));
    }

    /// Counts a new timer, armed or resumed in place, as one modelled
    /// delay (and one pending timer for the peak) and returns its sequence
    /// number.
    fn number_timer(&mut self) -> u64 {
        self.timers_scheduled += 1;
        self.peak_timers = self.peak_timers.max(self.timers.len() as u64 + 1);
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Whether the task `p` polls, about to sleep until `deadline`, may
    /// resume in place: its task timer would be the next event of the
    /// running loop. The ready queue is empty and no task waits behind it
    /// in the batch, every pending timer is due strictly later (a
    /// same-cycle one armed earlier fires first), the loop fires
    /// `deadline`, and under `run` a regular task is left (else the loop
    /// returns before firing a daemon's timer).
    fn may_resume_in_place(&self, p: &Polling, deadline: Cycles) -> bool {
        p.inline
            && deadline <= p.bound.limit
            && self.ready.is_empty()
            && (self.live_regular > 0 || !p.bound.needs_regular)
            && self
                .timers
                .peek()
                .is_none_or(|Reverse((next, _, _))| *next > deadline)
    }

    /// Does what arming the task timer, firing it and polling the task
    /// would have done, in that order, without the heap, the `Pending`
    /// and the re-poll from the root of the task's future.
    fn resume_in_place(&mut self, p: &Polling, deadline: Cycles) {
        self.number_timer();
        self.timers_inlined += 1;
        self.advance(deadline, p.bound.record_advance);
        self.polls += 1;
        if let Some(task) = self.slots[p.id.slot as usize].task.as_mut() {
            task.begin_poll(self.now, &self.recorder);
        }
    }

    /// Moves the clock to `to`, traced as a `ClockAdvance` if `record` and
    /// the clock moves.
    fn advance(&mut self, to: Cycles, record: bool) {
        debug_assert!(to >= self.now, "time must be monotonic");
        let from = std::mem::replace(&mut self.now, to);
        if record && from != to {
            self.recorder.record_with(|| Event {
                at: to,
                dur: Cycles::ZERO,
                pe: None,
                comp: Component::Sched,
                kind: EventKind::ClockAdvance { from },
            });
        }
    }

    /// Pops the earliest timer entry if its deadline is at most `limit`.
    /// A later entry stays queued where it is, so a run stopped at `limit`
    /// resumes in the same order as one that never stopped.
    fn pop_due(&mut self, limit: Cycles) -> Option<(Cycles, TimerEntry)> {
        match self.timers.peek() {
            Some(Reverse((deadline, _, _))) if *deadline <= limit => {}
            _ => return None,
        }
        self.timers
            .pop()
            .map(|Reverse((deadline, _, entry))| (deadline, entry))
    }

    /// The earliest moment something can happen: `now` while tasks are
    /// still queued ready, otherwise the next timer deadline.
    fn next_event_time(&self) -> Option<Cycles> {
        if !self.ready.is_empty() {
            return Some(self.now);
        }
        self.timers.peek().map(|Reverse((d, _, _))| *d)
    }

    fn live_tasks(&self) -> u64 {
        (self.slots.len() - self.free.len()) as u64
    }

    /// Panics once [`Sim::shutdown`] has run: nothing may be spawned,
    /// armed or run in a simulation that is over.
    fn assert_open(&self) {
        assert!(
            !self.closed,
            "Sim used after shutdown: its System was dropped"
        );
    }

    /// Contributes everything not yet reported to the process-wide gauges.
    /// Runs after every run/settle call, so the totals are current while a
    /// `Sim` is still alive, and again on drop.
    fn flush_gauges(&mut self) {
        let totals = gauges::Gauges {
            tasks_spawned: self.spawned,
            task_polls: self.polls,
            timers_scheduled: self.timers_scheduled,
            timers_deduped: self.timers_deduped,
            timers_inlined: self.timers_inlined,
            peak_live_tasks: self.peak_tasks,
            peak_pending_timers: self.peak_timers,
        };
        gauges::merge(totals.since(&self.reported));
        self.reported = totals;
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.flush_gauges();
    }
}

/// A [`Sim::call_at`] callback.
type Callback = Box<dyn FnOnce()>;

/// What a timer does when it fires. Ordering lives in the heap's
/// (deadline, sequence) key; the entry itself compares equal to every
/// other, so the heap never compares wakers or closures.
enum TimerEntry {
    /// Runs a [`Sim::call_at`] callback: an event without a task.
    Call(Callback),
    /// Polls the task directly. Armed by a [`Sleep`] polled under the
    /// waker of the task being polled; sound because every run loop calls
    /// [`Sim::fire_due`] only with the ready queue drained, so the task is
    /// polled exactly where a wake-up would have put it.
    Task(TaskId),
    /// Wakes a waker the executor does not own (a foreign context, a
    /// sub-future's waker, [`Sim::schedule_wake`]).
    Wake(Waker),
}

impl PartialEq for TimerEntry {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// A handle to the simulation: clock, spawner, and run loop.
///
/// `Sim` is cheaply cloneable; all clones refer to the same simulation.
/// It is single-threaded by design (`!Send`): determinism comes from a total
/// order on task scheduling.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<RefCell<Inner>>,
    metrics: Metrics,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Sim")
            .field("now", &inner.now)
            .field("live_tasks", &inner.live_tasks())
            .field("pending_timers", &inner.timers.len())
            .finish()
    }
}

impl Sim {
    /// Creates a simulation with the clock at cycle zero and no tasks.
    pub fn new() -> Sim {
        Sim {
            inner: Rc::new(RefCell::new(Inner {
                now: Cycles::ZERO,
                next_seq: 0,
                live_regular: 0,
                slots: Vec::new(),
                free: Vec::new(),
                timers: BinaryHeap::new(),
                polling: None,
                ready: Arc::new(ReadyQueue::default()),
                recorder: Recorder::new(),
                batch: VecDeque::new(),
                spawned: 0,
                polls: 0,
                timers_scheduled: 0,
                timers_deduped: 0,
                timers_inlined: 0,
                peak_tasks: 0,
                peak_timers: 0,
                reported: gauges::Gauges::default(),
                closed: false,
            })),
            metrics: Metrics::new(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> Cycles {
        self.inner.borrow().now
    }

    /// The totals view of [`Sim::metrics`]: each counter summed over all
    /// PEs.
    pub fn stats(&self) -> Stats {
        Stats::of(&self.metrics)
    }

    /// The shared event recorder. Components clone this to emit typed
    /// events; it is disabled (and therefore free) until
    /// [`Sim::enable_trace`] is called.
    pub fn tracer(&self) -> Recorder {
        self.inner.borrow().recorder.clone()
    }

    /// The simulation's one counter registry: per-PE counters and
    /// histograms (always on).
    pub fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }

    /// Turns on event tracing across all components that share this
    /// simulation's [`Recorder`].
    pub fn enable_trace(&self) {
        self.inner.borrow().recorder.enable();
    }

    /// Returns (a copy of) the recorded trace; empty when tracing is off.
    pub fn trace(&self) -> Vec<Event> {
        self.inner.borrow().recorder.events()
    }

    /// Spawns a task and returns a handle to its eventual result.
    ///
    /// The task starts in the ready queue and is first polled when the run
    /// loop next runs. `name` appears in stall diagnostics.
    pub fn spawn<F>(&self, name: impl Into<TaskName>, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_joinable(name.into(), future, false)
    }

    /// Spawns a *daemon* task: one that serves others forever (the kernel's
    /// syscall loop, a filesystem service) and does not keep the simulation
    /// alive. [`Sim::run`] returns [`SimState::Finished`] once only daemons
    /// remain.
    pub fn spawn_daemon<F>(&self, name: impl Into<TaskName>, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_joinable(name.into(), future, true)
    }

    /// Spawns a fire-and-forget task: like [`Sim::spawn`], but nothing can
    /// join it, so it gets no result slot and no completion notification.
    /// For per-event work that really awaits (a context switch, a blocking
    /// syscall, a ktk handler); an action that only waits for a deadline is
    /// a [`Sim::call_at`].
    pub fn spawn_detached<F>(&self, name: impl Into<TaskName>, future: F)
    where
        F: Future<Output = ()> + 'static,
    {
        self.spawn_task(name.into(), Box::pin(future), false);
    }

    fn spawn_joinable<F>(&self, name: TaskName, future: F, daemon: bool) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let slot: Rc<RefCell<Option<F::Output>>> = Rc::new(RefCell::new(None));
        let done = crate::notify::Notify::new();
        let handle = JoinHandle {
            slot: slot.clone(),
            done: done.clone(),
        };
        let wrapped = async move {
            let out = future.await;
            *slot.borrow_mut() = Some(out);
            done.notify_all();
        };
        self.spawn_task(name, Box::pin(wrapped), daemon);
        handle
    }

    fn spawn_task(&self, name: TaskName, future: BoxFuture, daemon: bool) {
        let mut inner = self.inner.borrow_mut();
        inner.assert_open();
        let idx = match inner.free.pop() {
            Some(idx) => idx,
            None => {
                inner.slots.push(Slot { gen: 0, task: None });
                (inner.slots.len() - 1) as u32
            }
        };
        let id = TaskId {
            slot: idx,
            gen: inner.slots[idx as usize].gen,
        };
        let waker_state = Arc::new(TaskWaker {
            task: id,
            ready: inner.ready.clone(),
            queued: AtomicBool::new(true), // starts queued
        });
        let mut task = Task {
            name,
            traced: None,
            run: Some((future, Waker::from(waker_state.clone()))),
            waker_state,
            daemon,
        };
        let at = inner.now;
        inner.recorder.record_with(|| Event {
            at,
            dur: Cycles::ZERO,
            pe: None,
            comp: Component::Sched,
            kind: EventKind::TaskSpawn {
                name: task.trace_name(),
                daemon,
            },
        });
        inner.slots[idx as usize].task = Some(task);
        if !daemon {
            inner.live_regular += 1;
        }
        inner.spawned += 1;
        let live = inner.live_tasks();
        inner.peak_tasks = inner.peak_tasks.max(live);
        inner.ready.push(id);
    }

    /// Runs `f` once the clock reaches `at` (at once, behind the ready
    /// tasks, if `at` has passed): an event without a task — no slot, no
    /// polls, no waker — for the DTU's deliveries and credit refills and
    /// the kernel's ktk wire hops.
    ///
    /// The timer (one `timers_scheduled`) is armed here, at call time, so
    /// it fires behind every same-cycle timer armed before this call and
    /// ahead of every one armed after it. A pending callback keeps
    /// [`Sim::run`] going like a regular task.
    pub fn call_at(&self, at: Cycles, f: impl FnOnce() + 'static) {
        let mut inner = self.inner.borrow_mut();
        let deadline = at.max(inner.now);
        inner.arm(deadline, TimerEntry::Call(Box::new(f)));
        inner.live_regular += 1;
    }

    /// Registers `waker` to fire `delay` cycles from now.
    ///
    /// Every call arms a new timer (counted in `timers_scheduled`); a caller
    /// that re-registers an unchanged deadline dedupes itself, as
    /// [`crate::with_deadline`] does.
    pub fn schedule_wake(&self, delay: Cycles, waker: Waker) {
        let mut inner = self.inner.borrow_mut();
        let deadline = inner.now + delay;
        inner.arm(deadline, TimerEntry::Wake(waker));
    }

    /// Counts a timer registration a caller skipped because the timer it
    /// armed earlier still delivers the same wake-up.
    pub(crate) fn note_timer_deduped(&self) {
        self.inner.borrow_mut().timers_deduped += 1;
    }

    /// Suspends the calling task for `delay` simulated cycles.
    ///
    /// Sleeping zero cycles still yields once, giving same-cycle events a
    /// chance to run (analogous to a delta cycle in SystemC).
    pub fn sleep(&self, delay: Cycles) -> Sleep {
        Sleep {
            inner: self.inner.clone(),
            delay,
            deadline: None,
        }
    }

    /// Suspends the calling task until the clock reaches `deadline`.
    ///
    /// If `deadline` is in the past, behaves like a zero-cycle sleep.
    pub fn sleep_until(&self, deadline: Cycles) -> Sleep {
        let delay = deadline.saturating_sub(self.now());
        self.sleep(delay)
    }

    /// Runs until all tasks finish or no progress is possible.
    ///
    /// # Panics
    ///
    /// Does not panic on a stall; inspect the returned [`SimState`].
    pub fn run(&self) -> SimState {
        self.run_inner(None)
    }

    /// Runs until all tasks finish, progress stops, or the clock passes
    /// `limit`.
    ///
    /// The limit is *inclusive*: a timer scheduled exactly at `limit` still
    /// fires before the run stops. On [`SimState::TimeLimit`] the clock
    /// rests at `limit` — unless the clock was already past it, in which
    /// case it stays where it was (the clock never moves backward).
    pub fn run_until(&self, limit: Cycles) -> SimState {
        self.run_inner(Some(limit))
    }

    /// The earliest moment this simulation can make progress: `now` while
    /// ready tasks are queued, otherwise the next pending timer deadline
    /// (daemon timers included). `None` means nothing can happen without an
    /// external wake-up — every task is blocked on a notification.
    ///
    /// This is the quantity a conservative PDES coordinator aggregates
    /// across islands to place the next window barrier.
    pub fn next_event_time(&self) -> Option<Cycles> {
        let inner = self.inner.borrow();
        inner.assert_open();
        inner.next_event_time()
    }

    /// Number of live non-daemon tasks plus pending [`Sim::call_at`]
    /// callbacks: what keeps the simulation running.
    pub fn live_regular(&self) -> usize {
        self.inner.borrow().live_regular
    }

    /// Names of the live non-daemon tasks (stall diagnostics across PDES
    /// islands; the single-Sim run loop reports the same list through
    /// [`SimState::Stalled`]).
    pub fn regular_task_names(&self) -> Vec<String> {
        self.inner
            .borrow()
            .slots
            .iter()
            .filter_map(|s| s.task.as_ref())
            .filter(|t| !t.daemon)
            .map(|t| t.name.to_string())
            .collect()
    }

    /// Runs every ready task and every timer with deadline `<= end`, then
    /// returns with the clock resting on the last processed event — it is
    /// *not* advanced to `end` when nothing happens there, so the trace
    /// (including `ClockAdvance` events) is exactly what an unwindowed run
    /// of the same work would record, independent of where the window
    /// barriers fall.
    ///
    /// Unlike [`Sim::run`] this keeps going when only daemons remain: in a
    /// windowed multi-island run another island's tasks may still be live,
    /// and the single-Sim run loop fires daemon timers in that situation
    /// too. The PDES coordinator ([`crate::pdes`]) owns the
    /// all-islands-finished decision.
    pub fn run_window(&self, end: Cycles) {
        let bound = Bound {
            limit: end,
            record_advance: true,
            needs_regular: false,
        };
        loop {
            self.drain_ready(bound);
            if !self.fire_due(bound) {
                return;
            }
        }
    }

    /// Contributes this simulation's unreported gauge deltas to the
    /// process-wide totals. Run/settle calls do this automatically; a
    /// window-stepped island (which never goes through them) flushes here
    /// when its run ends.
    pub(crate) fn flush_gauges(&self) {
        self.inner.borrow_mut().flush_gauges();
    }

    /// Lets daemon tasks finish in-flight work after [`Sim::run`] returned:
    /// keeps processing ready tasks and timers — ignoring whether any
    /// regular task is alive — until no timer is pending or the clock would
    /// pass `now + slack`. Daemons blocked on notifications leave no timers,
    /// so this terminates.
    pub fn settle(&self, slack: Cycles) {
        let bound = Bound {
            limit: self.now() + slack,
            record_advance: false,
            needs_regular: false,
        };
        loop {
            self.drain_ready(bound);
            if !self.fire_due(bound) {
                break;
            }
        }
        self.flush_gauges();
    }

    /// Ends the simulation: closes the `Sim` and drops every task, pending
    /// timer and queued wake-up. A later spawn, [`Sim::call_at`], sleep or
    /// run call panics. The clock, metrics and trace stay readable. Calling
    /// it again does nothing.
    ///
    /// Tasks hold clones of the `Sim` that owns them, so a simulation with
    /// a task left (a daemon, say) is never freed without this; an M3
    /// `System` calls it when dropped.
    pub fn shutdown(&self) {
        // Taken out under the borrow, dropped outside it: a future's or a
        // callback's destructor may call back into the simulation, and
        // one that spawns or arms a timer meets the closed `Sim`.
        let dead = {
            let mut inner = self.inner.borrow_mut();
            inner.closed = true;
            inner.free.clear();
            inner.batch.clear();
            inner.polling = None;
            inner.live_regular = 0;
            inner.ready.clear();
            (
                std::mem::take(&mut inner.slots),
                std::mem::take(&mut inner.timers),
            )
        };
        drop(dead);
    }

    /// The step every run loop repeats once its ready queue is drained:
    /// pops the earliest timer due by the bound's limit, moves the clock to
    /// its deadline (traced as a `ClockAdvance` if the bound records
    /// advances) and fires it. Returns `false`, touching nothing, when no
    /// timer is due.
    fn fire_due(&self, bound: Bound) -> bool {
        let mut inner = self.inner.borrow_mut();
        let Some((deadline, entry)) = inner.pop_due(bound.limit) else {
            return false;
        };
        inner.advance(deadline, bound.record_advance);
        drop(inner);
        // The ready queue is empty, so polling a task here is what waking
        // it and draining the queue would do.
        match entry {
            TimerEntry::Call(f) => {
                self.inner.borrow_mut().live_regular -= 1;
                f();
            }
            TimerEntry::Task(id) => self.poll_task(id, bound, true),
            TimerEntry::Wake(waker) => waker.wake(),
        }
        true
    }

    /// Polls ready tasks until the queue stays empty. Each round swaps the
    /// whole queue into the batch under one lock; tasks woken meanwhile
    /// queue up behind the batch, exactly where a one-at-a-time drain
    /// would have found them. Only the batch's last task may resume in
    /// place.
    fn drain_ready(&self, bound: Bound) {
        let mut batch = {
            let mut inner = self.inner.borrow_mut();
            // Every run loop starts here: a shut-down `Sim` has no tasks,
            // so it would otherwise report `Finished` in silence.
            inner.assert_open();
            std::mem::take(&mut inner.batch)
        };
        loop {
            self.inner.borrow().ready.take_into(&mut batch);
            let Some(last) = batch.len().checked_sub(1) else {
                break;
            };
            for (i, id) in batch.drain(..).enumerate() {
                self.poll_task(id, bound, i == last);
            }
        }
        self.inner.borrow_mut().batch = batch;
    }

    /// Runs `poll`, a combinator's poll of one of its children, with
    /// resumption in place off. A combinator that acts after its child
    /// returns `Pending` (as [`crate::with_deadline`] arms its deadline
    /// timer) must poll the child under this: a child resumed in place
    /// past that act would never return `Pending` at all.
    pub(crate) fn poll_child<R>(&self, poll: impl FnOnce() -> R) -> R {
        let set_inline = |on: bool| {
            let mut inner = self.inner.borrow_mut();
            inner
                .polling
                .as_mut()
                .is_some_and(|p| std::mem::replace(&mut p.inline, on))
        };
        let was = set_inline(false);
        let out = poll();
        set_inline(was);
        out
    }

    /// Polls task `id` if it is still live. `last` says no task waits
    /// behind it in the batch being drained, so it may resume in place.
    fn poll_task(&self, id: TaskId, bound: Bound, last: bool) {
        let (mut future, waker) = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let Some(slot) = inner.slots.get_mut(id.slot as usize) else {
                return;
            };
            // A stale wake-up for a recycled slot must not poll the new
            // occupant: the generation check is the slab equivalent of the
            // old "task no longer in the map" miss.
            if slot.gen != id.gen {
                return;
            }
            let Some(task) = slot.task.as_mut() else {
                return;
            };
            let Some(run) = task.run.take() else {
                return;
            };
            task.begin_poll(inner.now, &inner.recorder);
            inner.polls += 1;
            inner.polling = Some(Polling {
                id,
                waker: (run.1.data(), run.1.vtable()),
                inline: last,
                bound,
            });
            run
        };
        let mut cx = Context::from_waker(&waker);
        let pending = future.as_mut().poll(&mut cx).is_pending();
        let mut inner = self.inner.borrow_mut();
        inner.polling = None;
        if pending {
            if let Some(task) = inner.slots[id.slot as usize].task.as_mut() {
                task.run = Some((future, waker));
            }
            return;
        }
        drop(inner);
        // Dropped before the borrow below: a future's destructor may call
        // back into the simulation.
        drop((future, waker));
        let mut inner = self.inner.borrow_mut();
        let slot = &mut inner.slots[id.slot as usize];
        if let Some(mut task) = slot.task.take() {
            slot.gen = slot.gen.wrapping_add(1);
            inner.free.push(id.slot);
            if !task.daemon {
                inner.live_regular -= 1;
            }
            let at = inner.now;
            inner.recorder.record_with(|| Event {
                at,
                dur: Cycles::ZERO,
                pe: None,
                comp: Component::Sched,
                kind: EventKind::TaskComplete {
                    name: task.trace_name(),
                },
            });
        }
    }

    fn run_inner(&self, limit: Option<Cycles>) -> SimState {
        let state = self.run_loop(limit);
        self.flush_gauges();
        state
    }

    fn run_loop(&self, limit: Option<Cycles>) -> SimState {
        let bound = Bound {
            limit: limit.unwrap_or(Cycles::new(u64::MAX)),
            record_advance: true,
            needs_regular: true,
        };
        loop {
            // Drain the ready queue first: all work at the current instant.
            self.drain_ready(bound);
            if self.live_regular() == 0 {
                return SimState::Finished;
            }
            // No task is runnable: advance the clock to the next timer.
            if !self.fire_due(bound) {
                break;
            }
        }
        // A timer still queued is due after `limit`; it stays there for a
        // future run call.
        let mut inner = self.inner.borrow_mut();
        if let Some(limit) = limit.filter(|_| !inner.timers.is_empty()) {
            // Advance to the limit, but never move the clock backward: a
            // limit below `now` must leave time alone.
            inner.now = inner.now.max(limit);
            return SimState::TimeLimit;
        }
        drop(inner);
        SimState::Stalled(self.regular_task_names())
    }
}

/// Future returned by [`Sim::sleep`].
///
/// Readiness is gated on the recorded deadline, not on "was I polled
/// again": a spurious wake-up (e.g. through a cloned waker) before the
/// deadline leaves the sleep pending, and the originally registered timer
/// still completes it at the right cycle. The first poll arms that timer
/// for the task being polled when the context carries that task's own
/// waker, and for a clone of the context's waker otherwise.
///
/// Under the task's own waker, when that timer would be the running loop's
/// next event ([`Inner::may_resume_in_place`]), the first poll instead
/// moves the clock to the deadline and returns `Ready`: the task resumes
/// in place, exactly where the loop would have popped the timer and
/// polled it, at the cost of no heap entry and no re-poll.
pub struct Sleep {
    /// The executor state only (clock and timer wheel), not a whole [`Sim`].
    inner: Rc<RefCell<Inner>>,
    delay: Cycles,
    /// Set on first poll, when the timer is registered.
    deadline: Option<Cycles>,
}

impl fmt::Debug for Sleep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sleep")
            .field("delay", &self.delay)
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        match self.deadline {
            Some(deadline) => {
                if self.inner.borrow().now >= deadline {
                    Poll::Ready(())
                } else {
                    // Woken early: the registered timer is still pending and
                    // will wake this task at the deadline; do not re-arm.
                    Poll::Pending
                }
            }
            None => {
                let mut inner = self.inner.borrow_mut();
                let deadline = inner.now + self.delay;
                let w = cx.waker();
                let resumed = match inner.polling {
                    Some(p) if p.owns(w) => {
                        let inline = inner.may_resume_in_place(&p, deadline);
                        if inline {
                            inner.resume_in_place(&p, deadline);
                        } else {
                            inner.arm(deadline, TimerEntry::Task(p.id));
                        }
                        inline
                    }
                    _ => {
                        inner.arm(deadline, TimerEntry::Wake(w.clone()));
                        false
                    }
                };
                drop(inner);
                self.deadline = Some(deadline);
                if resumed {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }
    }
}

/// A handle to a spawned task's result.
///
/// Await it from another task, or call [`JoinHandle::try_take`] after
/// [`Sim::run`] returns.
#[derive(Debug)]
pub struct JoinHandle<T> {
    slot: Rc<RefCell<Option<T>>>,
    done: crate::notify::Notify,
}

impl<T> JoinHandle<T> {
    /// Takes the result if the task has finished.
    ///
    /// Returns `None` if the task is still running or the result was already
    /// taken.
    pub fn try_take(&self) -> Option<T> {
        self.slot.borrow_mut().take()
    }

    /// Whether the task has produced its result (and it was not taken yet).
    pub fn is_finished(&self) -> bool {
        self.slot.borrow().is_some()
    }

    /// Waits for the task to finish and takes its result.
    ///
    /// # Panics
    ///
    /// Panics if the result was already taken by another waiter.
    pub async fn join(self) -> T {
        loop {
            if let Some(v) = self.slot.borrow_mut().take() {
                return v;
            }
            self.done.wait().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_finishes_immediately() {
        let sim = Sim::new();
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(sim.now(), Cycles::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new();
        let h = sim.spawn("sleeper", {
            let sim = sim.clone();
            async move {
                sim.sleep(Cycles::new(50)).await;
                sim.sleep(Cycles::new(25)).await;
                sim.now()
            }
        });
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(h.try_take().unwrap(), Cycles::new(75));
        assert_eq!(sim.now(), Cycles::new(75));
    }

    #[test]
    fn tasks_interleave_in_time_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, &str)>>> = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("b", 20u64), ("a", 10), ("c", 30)] {
            let sim2 = sim.clone();
            let log = log.clone();
            sim.spawn(name, async move {
                sim2.sleep(Cycles::new(delay)).await;
                log.borrow_mut().push((sim2.now().as_u64(), name));
            });
        }
        sim.run();
        assert_eq!(&*log.borrow(), &[(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn same_cycle_events_fire_in_spawn_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<&str>>> = Rc::new(RefCell::new(Vec::new()));
        for name in ["first", "second", "third"] {
            let sim2 = sim.clone();
            let log = log.clone();
            sim.spawn(name, async move {
                sim2.sleep(Cycles::new(5)).await;
                log.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(&*log.borrow(), &["first", "second", "third"]);
    }

    #[test]
    fn same_cycle_order_survives_a_stopped_run() {
        // Stopping short of a deadline, by `run_until` or by `settle`'s
        // slack, must leave the pending timers in their original order.
        for stop in [
            |sim: &Sim| assert_eq!(sim.run_until(Cycles::new(50)), SimState::TimeLimit),
            |sim: &Sim| sim.settle(Cycles::new(50)),
        ] {
            let sim = Sim::new();
            let log: Rc<RefCell<Vec<&str>>> = Rc::new(RefCell::new(Vec::new()));
            for name in ["first", "second", "third"] {
                let sim2 = sim.clone();
                let log = log.clone();
                sim.spawn(name, async move {
                    sim2.sleep(Cycles::new(100)).await;
                    log.borrow_mut().push(name);
                });
            }
            stop(&sim);
            assert!(log.borrow().is_empty());
            assert_eq!(sim.run(), SimState::Finished);
            assert_eq!(&*log.borrow(), &["first", "second", "third"]);
        }
    }

    #[test]
    fn join_handle_from_another_task() {
        let sim = Sim::new();
        let h = sim.spawn("producer", {
            let sim = sim.clone();
            async move {
                sim.sleep(Cycles::new(10)).await;
                42
            }
        });
        let h2 = sim.spawn("consumer", async move { h.join().await * 2 });
        sim.run();
        assert_eq!(h2.try_take().unwrap(), 84);
    }

    #[test]
    fn stall_reports_task_names() {
        let sim = Sim::new();
        let n = crate::Notify::new();
        let n2 = n.clone();
        sim.spawn("stuck-task", async move {
            n2.wait().await;
        });
        match sim.run() {
            SimState::Stalled(names) => assert_eq!(names, vec!["stuck-task".to_string()]),
            other => panic!("expected stall, got {other:?}"),
        }
        drop(n);
    }

    #[test]
    fn run_until_respects_limit() {
        let sim = Sim::new();
        sim.spawn("long", {
            let sim = sim.clone();
            async move {
                sim.sleep(Cycles::new(1000)).await;
            }
        });
        assert_eq!(sim.run_until(Cycles::new(100)), SimState::TimeLimit);
        assert_eq!(sim.now(), Cycles::new(100));
        // Continuing the run completes the task.
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(sim.now(), Cycles::new(1000));
    }

    #[test]
    fn run_until_limit_is_inclusive() {
        // A timer scheduled exactly at the limit fires before stopping.
        let sim = Sim::new();
        let h = sim.spawn("exact", {
            let sim = sim.clone();
            async move {
                sim.sleep(Cycles::new(100)).await;
                sim.now()
            }
        });
        assert_eq!(sim.run_until(Cycles::new(100)), SimState::Finished);
        assert_eq!(h.try_take().unwrap(), Cycles::new(100));
        assert_eq!(sim.now(), Cycles::new(100));
    }

    #[test]
    fn run_until_never_moves_the_clock_backward() {
        let sim = Sim::new();
        sim.spawn("two-phase", {
            let sim = sim.clone();
            async move {
                sim.sleep(Cycles::new(50)).await;
                sim.sleep(Cycles::new(1000)).await;
            }
        });
        // First run stops at 100 with the second timer still pending.
        assert_eq!(sim.run_until(Cycles::new(100)), SimState::TimeLimit);
        assert_eq!(sim.now(), Cycles::new(100));
        // A limit below the current time must not rewind the clock.
        assert_eq!(sim.run_until(Cycles::new(60)), SimState::TimeLimit);
        assert_eq!(sim.now(), Cycles::new(100));
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(sim.now(), Cycles::new(1050));
    }

    #[test]
    fn trace_records_scheduler_events() {
        let sim = Sim::new();
        sim.enable_trace();
        sim.spawn("traced", {
            let sim = sim.clone();
            async move {
                sim.sleep(Cycles::new(10)).await;
            }
        });
        sim.run();
        let tags: Vec<&str> = sim.trace().iter().map(|e| e.kind.tag()).collect();
        assert_eq!(
            tags,
            vec![
                "task_spawn",
                "task_poll",
                "clock_advance",
                "task_poll",
                "task_complete"
            ]
        );
        // Untraced sims record nothing.
        let quiet = Sim::new();
        quiet.spawn("q", async {});
        quiet.run();
        assert!(quiet.trace().is_empty());
    }

    #[test]
    fn zero_sleep_yields_but_does_not_advance() {
        let sim = Sim::new();
        let h = sim.spawn("yielder", {
            let sim = sim.clone();
            async move {
                for _ in 0..10 {
                    sim.sleep(Cycles::ZERO).await;
                }
                sim.now()
            }
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Cycles::ZERO);
    }

    #[test]
    fn sleep_until_past_deadline_is_zero_sleep() {
        let sim = Sim::new();
        let h = sim.spawn("t", {
            let sim = sim.clone();
            async move {
                sim.sleep(Cycles::new(100)).await;
                sim.sleep_until(Cycles::new(50)).await; // already past
                sim.now()
            }
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Cycles::new(100));
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run_once() -> Vec<(u64, usize)> {
            let sim = Sim::new();
            let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..20usize {
                let sim2 = sim.clone();
                let log = log.clone();
                sim.spawn(format!("t{i}"), async move {
                    let mut delay = (i as u64 * 7) % 13;
                    for _ in 0..5 {
                        sim2.sleep(Cycles::new(delay)).await;
                        log.borrow_mut().push((sim2.now().as_u64(), i));
                        delay = (delay * 3 + 1) % 17;
                    }
                });
            }
            sim.run();
            let result = log.borrow().clone();
            result
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn daemons_do_not_keep_the_sim_alive() {
        let sim = Sim::new();
        let n = crate::Notify::new();
        let n2 = n.clone();
        // A daemon that waits forever (like the kernel's syscall loop).
        sim.spawn_daemon("kernel-like", async move {
            loop {
                n2.wait().await;
            }
        });
        let h = sim.spawn("app", {
            let sim = sim.clone();
            async move {
                sim.sleep(Cycles::new(10)).await;
                123
            }
        });
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(h.try_take().unwrap(), 123);
        drop(n);
    }

    #[test]
    fn stall_report_omits_daemons() {
        let sim = Sim::new();
        let n = crate::Notify::new();
        let (n2, n3) = (n.clone(), n.clone());
        sim.spawn_daemon("daemon", async move {
            n2.wait().await;
        });
        sim.spawn("stuck-app", async move {
            n3.wait().await;
        });
        match sim.run() {
            SimState::Stalled(names) => assert_eq!(names, vec!["stuck-app".to_string()]),
            other => panic!("expected stall, got {other:?}"),
        }
        drop(n);
    }

    #[test]
    fn spawn_from_within_task() {
        let sim = Sim::new();
        let h = sim.spawn("outer", {
            let sim = sim.clone();
            async move {
                let inner = sim.spawn("inner", {
                    let sim = sim.clone();
                    async move {
                        sim.sleep(Cycles::new(5)).await;
                        7
                    }
                });
                inner.join().await
            }
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 7);
    }

    /// A wrapper that injects a spurious wake-up `spurious_at` cycles after
    /// its first poll, then defers to the inner sleep.
    struct SpuriousWake {
        sleep: Sleep,
        sim: Sim,
        spurious_at: Cycles,
        injected: bool,
    }

    impl Future for SpuriousWake {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let this = self.get_mut();
            if !this.injected {
                this.injected = true;
                this.sim.schedule_wake(this.spurious_at, cx.waker().clone());
            }
            Pin::new(&mut this.sleep).poll(cx)
        }
    }

    #[test]
    fn spurious_wake_does_not_complete_sleep_early() {
        // Regression: `Sleep` used to return `Ready` on *any* second poll,
        // so a wake-up from a cloned waker completed it before its deadline.
        let sim = Sim::new();
        let h = sim.spawn("sleeper", {
            let sim = sim.clone();
            async move {
                SpuriousWake {
                    sleep: sim.sleep(Cycles::new(100)),
                    sim: sim.clone(),
                    spurious_at: Cycles::new(10),
                    injected: false,
                }
                .await;
                sim.now()
            }
        });
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(
            h.try_take().unwrap(),
            Cycles::new(100),
            "sleep must not complete at the spurious wake (cycle 10)"
        );
    }

    #[test]
    fn slab_recycles_slots_without_aliasing() {
        // Thousands of short-lived tasks must reuse a handful of slots, and
        // stale wake-ups for dead tasks must never poll their successors.
        let sim = Sim::new();
        let done = Rc::new(Cell::new(0u32));
        for wave in 0..100u64 {
            for i in 0..10u64 {
                let sim2 = sim.clone();
                let done = done.clone();
                sim.spawn(format!("w{wave}-{i}"), async move {
                    sim2.sleep(Cycles::new(wave * 10 + i)).await;
                    done.set(done.get() + 1);
                });
            }
        }
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(done.get(), 1000);
        // The slab never grew beyond the 1000 concurrently-live tasks, and
        // the free list got them all back.
        let inner = sim.inner.borrow();
        assert_eq!(inner.slots.len(), 1000);
        assert_eq!(inner.free.len(), 1000);
        assert_eq!(inner.peak_tasks, 1000);
        assert!(inner.peak_timers > 0);
    }

    /// A never-finishing task body that logs every poll, publishes its
    /// waker under its name, and on its `n`-th poll wakes the tasks the
    /// script lists for `(name, n)`, in order.
    struct Probe {
        name: &'static str,
        polls: usize,
        script: &'static [(&'static str, usize, &'static [&'static str])],
        wakers: Rc<RefCell<Vec<(&'static str, Waker)>>>,
        log: Rc<RefCell<Vec<&'static str>>>,
    }

    impl Future for Probe {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let this = self.get_mut();
            this.log.borrow_mut().push(this.name);
            let mut wakers = this.wakers.borrow_mut();
            wakers.retain(|(n, _)| *n != this.name);
            wakers.push((this.name, cx.waker().clone()));
            for (_, _, targets) in this
                .script
                .iter()
                .filter(|(n, k, _)| *n == this.name && *k == this.polls)
            {
                for target in *targets {
                    let (_, w) = wakers.iter().find(|(n, _)| n == target).expect("parked");
                    w.wake_by_ref();
                }
            }
            this.polls += 1;
            Poll::Pending
        }
    }

    /// Spawns one [`Probe`] per name, in order, runs the simulation and
    /// returns the poll log.
    fn probe_run(
        names: &[&'static str],
        script: &'static [(&'static str, usize, &'static [&'static str])],
    ) -> Vec<&'static str> {
        let sim = Sim::new();
        let wakers = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::new(RefCell::new(Vec::new()));
        for &name in names {
            let probe = Probe {
                name,
                polls: 0,
                script,
                wakers: wakers.clone(),
                log: log.clone(),
            };
            sim.spawn(name, probe);
        }
        assert!(matches!(sim.run(), SimState::Stalled(_)));
        let out = log.borrow().clone();
        out
    }

    #[test]
    fn mid_batch_wakes_run_after_the_batch_in_wake_order() {
        // The first batch is [X, Y, A, B, C]; A wakes Y, then X. Both
        // were polled already, so they queue behind the batch: B and C
        // still run first, then Y before X.
        let log = probe_run(&["X", "Y", "A", "B", "C"], &[("A", 0, &["Y", "X"])]);
        assert_eq!(log, ["X", "Y", "A", "B", "C", "Y", "X"]);
    }

    #[test]
    fn task_woken_again_inside_its_batch_is_polled_once_more_behind_it() {
        // D, polled last in the first batch, wakes A, X, B: the second
        // batch is [A, X, B]. A wakes X while X still waits in that batch
        // (no extra poll: it is queued already); B wakes X after X's poll,
        // so X runs once more, behind the batch.
        let log = probe_run(
            &["A", "X", "B", "D"],
            &[
                ("D", 0, &["A", "X", "B"]),
                ("A", 1, &["X"]),
                ("B", 1, &["X"]),
            ],
        );
        assert_eq!(log, ["A", "X", "B", "D", "A", "X", "B", "X"]);
    }

    #[test]
    fn detached_tasks_run_and_keep_the_sim_alive() {
        let sim = Sim::new();
        sim.enable_trace();
        let hit = Rc::new(Cell::new(None));
        {
            let (sim2, hit) = (sim.clone(), hit.clone());
            sim.spawn_detached(TaskName::numbered("detached-", 7), async move {
                sim2.sleep(Cycles::new(30)).await;
                hit.set(Some(sim2.now()));
            });
        }
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(hit.get(), Some(Cycles::new(30)));
        let names: Vec<String> = sim.trace().iter().map(Event::display_name).collect();
        assert_eq!(
            names,
            [
                "spawn:detached-7",
                "poll:detached-7",
                "advance",
                "poll:detached-7",
                "done:detached-7"
            ]
        );
    }

    #[test]
    fn trace_names_are_rendered_once_per_task() {
        let sim = Sim::new();
        sim.enable_trace();
        sim.spawn(TaskName::numbered("t-", 1), {
            let sim = sim.clone();
            async move {
                sim.sleep(Cycles::new(5)).await;
            }
        });
        sim.run();
        let names: Vec<Rc<str>> = sim
            .trace()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::TaskSpawn { name, .. }
                | EventKind::TaskPoll { name }
                | EventKind::TaskComplete { name } => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(names.len(), 4);
        assert!(names.iter().all(|n| Rc::ptr_eq(n, &names[0])));
        assert_eq!(&*names[0], "t-1");
    }

    #[test]
    fn call_at_fires_in_the_order_it_was_armed() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, &'static str)>>> = Rc::default();
        let note = |name: &'static str| {
            let (sim, log) = (sim.clone(), log.clone());
            move || log.borrow_mut().push((sim.now().as_u64(), name))
        };
        // "caller" defers e1 to 10, then sleeps to the same deadline;
        // "other", polled behind it in the same batch, sleeps to 10 after
        // both timers were armed.
        {
            let (sim2, e1, e2, e3, me) = (
                sim.clone(),
                note("e1"),
                note("e2-past"),
                note("e3"),
                note("caller"),
            );
            let chained = note("chained");
            sim.spawn("caller", async move {
                sim2.call_at(Cycles::new(10), e1);
                sim2.call_at(Cycles::new(0), e2);
                let sim3 = sim2.clone();
                sim2.call_at(Cycles::new(20), move || {
                    e3();
                    sim3.call_at(Cycles::new(20), chained);
                });
                sim2.sleep_until(Cycles::new(10)).await;
                me();
            });
        }
        {
            let (sim2, me) = (sim.clone(), note("other"));
            sim.spawn("other", async move {
                sim2.sleep_until(Cycles::new(10)).await;
                me();
                sim2.sleep_until(Cycles::new(20)).await;
            });
        }
        assert_eq!(sim.run(), SimState::Finished);
        // Same-cycle timers fire in the order they were armed, and
        // `call_at` arms at call time: e1 precedes both sleeps to 10. A
        // past deadline fires at once, behind the ready tasks.
        assert_eq!(
            *log.borrow(),
            [
                (0, "e2-past"),
                (10, "e1"),
                (10, "caller"),
                (10, "other"),
                (20, "e3"),
                (20, "chained")
            ]
        );
    }

    #[test]
    fn call_at_runs_without_a_task_and_keeps_the_sim_alive() {
        let sim = Sim::new();
        sim.enable_trace();
        let hit = Rc::new(Cell::new(None));
        {
            let (sim2, hit) = (sim.clone(), hit.clone());
            sim.call_at(Cycles::new(100), move || hit.set(Some(sim2.now())));
        }
        assert_eq!(sim.live_regular(), 1);
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(hit.get(), Some(Cycles::new(100)));
        assert_eq!(sim.live_regular(), 0);
        let inner = sim.inner.borrow();
        assert_eq!(
            (inner.spawned, inner.polls, inner.timers_scheduled),
            (0, 0, 1)
        );
        let tags: Vec<&str> = sim.trace().iter().map(|e| e.kind.tag()).collect();
        assert_eq!(tags, ["clock_advance"]);
    }

    #[test]
    fn run_until_requeues_a_pending_call_at_the_limit() {
        let sim = Sim::new();
        let hit = Rc::new(Cell::new(false));
        {
            let hit = hit.clone();
            sim.call_at(Cycles::new(100), move || hit.set(true));
        }
        assert_eq!(sim.run_until(Cycles::new(50)), SimState::TimeLimit);
        assert!(!hit.get());
        assert_eq!(sim.now(), Cycles::new(50));
        assert_eq!(sim.run_until(Cycles::new(100)), SimState::Finished);
        assert!(hit.get());
        assert_eq!(sim.now(), Cycles::new(100));
    }

    #[test]
    fn settle_and_run_window_fire_only_calls_due_by_their_end() {
        let sim = Sim::new();
        let fired: Rc<RefCell<Vec<u64>>> = Rc::default();
        for at in [10u64, 30, 31] {
            let (sim2, fired) = (sim.clone(), fired.clone());
            sim.call_at(Cycles::new(at), move || {
                fired.borrow_mut().push(sim2.now().as_u64());
            });
        }
        sim.settle(Cycles::new(20));
        assert_eq!(*fired.borrow(), [10]);
        assert_eq!(sim.now(), Cycles::new(10));
        sim.run_window(Cycles::new(30));
        assert_eq!(*fired.borrow(), [10, 30]);
        assert_eq!(sim.next_event_time(), Some(Cycles::new(31)));
        assert_eq!(sim.live_regular(), 1);
        sim.run_window(Cycles::new(31));
        assert_eq!(*fired.borrow(), [10, 30, 31]);
        assert_eq!(sim.live_regular(), 0);
    }

    /// A waker the executor does not own: counts its wake-ups and forwards
    /// them to the task's own waker.
    struct Foreign {
        woken: Arc<std::sync::atomic::AtomicUsize>,
        task: Waker,
    }

    impl Wake for Foreign {
        fn wake(self: Arc<Self>) {
            self.woken.fetch_add(1, Ordering::Relaxed);
            self.task.wake_by_ref();
        }
    }

    /// Polls the inner sleep under a [`Foreign`] waker.
    struct UnderForeign {
        sleep: Sleep,
        woken: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Future for UnderForeign {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let this = self.get_mut();
            let waker = Waker::from(Arc::new(Foreign {
                woken: this.woken.clone(),
                task: cx.waker().clone(),
            }));
            Pin::new(&mut this.sleep).poll(&mut Context::from_waker(&waker))
        }
    }

    fn pending_timer_kinds(sim: &Sim) -> Vec<&'static str> {
        let inner = sim.inner.borrow();
        inner
            .timers
            .iter()
            .map(|Reverse((_, _, entry))| match entry {
                TimerEntry::Call(_) => "call",
                TimerEntry::Task(_) => "task",
                TimerEntry::Wake(_) => "wake",
            })
            .collect()
    }

    #[test]
    fn sleep_under_a_foreign_waker_wakes_through_it() {
        let sim = Sim::new();
        let woken = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = sim.spawn("foreign", {
            let (sim, woken) = (sim.clone(), woken.clone());
            async move {
                UnderForeign {
                    sleep: sim.sleep(Cycles::new(40)),
                    woken,
                }
                .await;
                sim.now()
            }
        });
        assert_eq!(sim.run_until(Cycles::ZERO), SimState::TimeLimit);
        assert_eq!(pending_timer_kinds(&sim), ["wake"]);
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(h.try_take(), Some(Cycles::new(40)));
        assert_eq!(woken.load(Ordering::Relaxed), 1);

        // Polled under its own task's waker, the same sleep arms a task
        // timer instead.
        let sim = Sim::new();
        sim.spawn("own", {
            let sim = sim.clone();
            async move { sim.sleep(Cycles::new(40)).await }
        });
        assert_eq!(sim.run_until(Cycles::ZERO), SimState::TimeLimit);
        assert_eq!(pending_timer_kinds(&sim), ["task"]);
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(sim.now(), Cycles::new(40));
    }

    #[test]
    fn shutdown_drops_every_task_timer_and_callback() {
        let sim = Sim::new();
        let token = Rc::new(());
        {
            let (sim2, token) = (sim.clone(), token.clone());
            sim.spawn_daemon("parked", async move {
                let _token = token;
                sim2.sleep(Cycles::new(1_000)).await;
                std::future::pending::<()>().await;
            });
        }
        {
            let (sim2, token) = (sim.clone(), token.clone());
            sim.spawn("regular", async move {
                let _token = token;
                sim2.sleep(Cycles::new(500)).await;
            });
        }
        {
            let token = token.clone();
            sim.call_at(Cycles::new(2_000), move || drop(token));
        }
        assert_eq!(sim.run_until(Cycles::new(100)), SimState::TimeLimit);
        let weak = Rc::downgrade(&token);
        drop(token);
        assert!(weak.upgrade().is_some());
        sim.shutdown();
        assert!(weak.upgrade().is_none(), "shutdown left a task alive");
        assert_eq!(sim.live_regular(), 0);
        assert_eq!(sim.now(), Cycles::new(100));
        assert!(Rc::strong_count(&sim.inner) == 1, "a task kept the Sim");
        // A second shutdown is a no-op.
        sim.shutdown();
    }

    #[test]
    #[should_panic(expected = "System was dropped")]
    fn spawn_after_shutdown_panics() {
        let sim = Sim::new();
        sim.shutdown();
        sim.spawn("late", async {});
    }

    #[test]
    #[should_panic(expected = "System was dropped")]
    fn run_after_shutdown_panics() {
        let sim = Sim::new();
        sim.shutdown();
        sim.run();
    }

    #[test]
    #[should_panic(expected = "System was dropped")]
    fn call_at_after_shutdown_panics() {
        let sim = Sim::new();
        sim.shutdown();
        sim.call_at(Cycles::new(1), || {});
    }

    /// Counts the polls that reach the root of a task's future.
    struct CountPolls<F> {
        fut: Pin<Box<F>>,
        polls: Rc<Cell<u64>>,
    }

    impl<F: Future> Future for CountPolls<F> {
        type Output = F::Output;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
            let this = self.get_mut();
            this.polls.set(this.polls.get() + 1);
            this.fut.as_mut().poll(cx)
        }
    }

    /// Spawns `body` as a task (a daemon if `daemon`) whose root polls are
    /// counted in the returned cell.
    fn spawn_counted<F>(sim: &Sim, name: &'static str, daemon: bool, body: F) -> Rc<Cell<u64>>
    where
        F: Future<Output = ()> + 'static,
    {
        let polls = Rc::new(Cell::new(0));
        let fut = CountPolls {
            fut: Box::pin(body),
            polls: polls.clone(),
        };
        if daemon {
            sim.spawn_daemon(name, fut);
        } else {
            sim.spawn(name, fut);
        }
        polls
    }

    /// A task that sleeps `delay` cycles `k` times.
    fn sleeps(sim: &Sim, k: u64, delay: u64) -> impl Future<Output = ()> + 'static {
        let sim = sim.clone();
        async move {
            for _ in 0..k {
                sim.sleep(Cycles::new(delay)).await;
            }
        }
    }

    /// (`polls`, `timers_scheduled`, `timers_inlined`) so far.
    fn poll_counts(sim: &Sim) -> (u64, u64, u64) {
        let inner = sim.inner.borrow();
        (inner.polls, inner.timers_scheduled, inner.timers_inlined)
    }

    #[test]
    fn a_lone_sleep_chain_resumes_in_place() {
        let sim = Sim::new();
        sim.enable_trace();
        let root_polls = spawn_counted(&sim, "chain", false, sleeps(&sim, 4, 10));
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(sim.now(), Cycles::new(40));
        // One poll from the root; each sleep still counts as one timer and
        // one resumption.
        assert_eq!(root_polls.get(), 1);
        assert_eq!(poll_counts(&sim), (5, 4, 4));
        assert_eq!(sim.inner.borrow().peak_timers, 1);
        // The trace is the one the heap path records.
        let tags: Vec<&str> = sim.trace().iter().map(|e| e.kind.tag()).collect();
        let mut want = vec!["task_spawn", "task_poll"];
        for _ in 0..4 {
            want.extend(["clock_advance", "task_poll"]);
        }
        want.push("task_complete");
        assert_eq!(tags, want);
    }

    #[test]
    fn only_the_last_task_of_a_batch_resumes_in_place() {
        // "a" and "b" share the first batch: "a" has "b" behind it and
        // arms a timer; "b" sleeps past "a"'s deadline, so it arms one too.
        // Once "a" resumes from the heap it is alone, and its second sleep
        // (to 20, still before "b"'s 30) resumes in place.
        let sim = Sim::new();
        let a = spawn_counted(&sim, "a", false, sleeps(&sim, 2, 10));
        let b = spawn_counted(&sim, "b", false, sleeps(&sim, 1, 30));
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!((a.get(), b.get()), (2, 2));
        assert_eq!(poll_counts(&sim), (5, 3, 1));
    }

    #[test]
    fn a_task_woken_before_the_sleep_runs_first() {
        // "parent" is alone in its batch but spawns "child" (queued ready)
        // before it sleeps, so its timer is not the next event.
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(&str, u64)>>> = Rc::default();
        {
            let (sim2, log) = (sim.clone(), log.clone());
            sim.spawn("parent", async move {
                let (sim3, log2) = (sim2.clone(), log.clone());
                sim2.spawn("child", async move {
                    log2.borrow_mut().push(("child", sim3.now().as_u64()));
                });
                sim2.sleep(Cycles::new(10)).await;
                log.borrow_mut().push(("parent", sim2.now().as_u64()));
            });
        }
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(*log.borrow(), [("child", 0), ("parent", 10)]);
        assert_eq!(poll_counts(&sim), (3, 1, 0));
    }

    #[test]
    fn a_call_armed_earlier_at_the_same_deadline_fires_first() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<&str>>> = Rc::default();
        {
            let (sim2, log) = (sim.clone(), log.clone());
            sim.spawn("caller", async move {
                let log2 = log.clone();
                sim2.call_at(Cycles::new(10), move || log2.borrow_mut().push("call"));
                sim2.sleep(Cycles::new(10)).await;
                log.borrow_mut().push("task");
                // Alone now, with nothing pending: this one resumes in
                // place.
                sim2.sleep(Cycles::new(10)).await;
                log.borrow_mut().push("task-again");
            });
        }
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(*log.borrow(), ["call", "task", "task-again"]);
        assert_eq!(sim.now(), Cycles::new(20));
        assert_eq!(poll_counts(&sim), (3, 3, 1));
    }

    #[test]
    fn run_until_and_run_window_never_resume_past_their_bound() {
        let sim = Sim::new();
        let root_polls = spawn_counted(&sim, "chain", false, sleeps(&sim, 3, 50));
        // The limit is inclusive: the sleep to 50 resumes in place, the one
        // to 100 stays on the heap.
        assert_eq!(sim.run_until(Cycles::new(50)), SimState::TimeLimit);
        assert_eq!(sim.now(), Cycles::new(50));
        assert_eq!(pending_timer_kinds(&sim), ["task"]);
        assert_eq!(poll_counts(&sim), (2, 2, 1));

        sim.run_window(Cycles::new(99));
        assert_eq!(sim.now(), Cycles::new(50));
        assert_eq!(poll_counts(&sim), (2, 2, 1));
        // The window fires 100 from the heap and stops short of 150.
        sim.run_window(Cycles::new(149));
        assert_eq!(sim.now(), Cycles::new(100));
        assert_eq!(pending_timer_kinds(&sim), ["task"]);
        assert_eq!(poll_counts(&sim), (3, 3, 1));
        assert_eq!(root_polls.get(), 2);

        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(sim.now(), Cycles::new(150));
    }

    #[test]
    fn run_finishes_without_resuming_a_lone_daemon() {
        let sim = Sim::new();
        let root_polls = spawn_counted(&sim, "daemon", true, sleeps(&sim, 3, 10));
        // The heap path returns before firing a daemon's timer once no
        // regular task is left; resuming in place must not run past that.
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(sim.now(), Cycles::ZERO);
        assert_eq!(pending_timer_kinds(&sim), ["task"]);
        assert_eq!(poll_counts(&sim), (1, 1, 0));
        // `settle` does fire daemon timers, and resumes them in place.
        sim.settle(Cycles::new(100));
        assert_eq!(sim.now(), Cycles::new(30));
        assert_eq!(root_polls.get(), 2);
        assert_eq!(poll_counts(&sim), (4, 3, 2));
    }

    #[test]
    fn settle_traces_no_clock_advance_in_place() {
        let sim = Sim::new();
        sim.enable_trace();
        spawn_counted(&sim, "daemon", true, sleeps(&sim, 2, 10));
        assert_eq!(sim.run(), SimState::Finished);
        sim.settle(Cycles::new(100));
        assert_eq!(sim.now(), Cycles::new(20));
        assert_eq!(poll_counts(&sim), (3, 2, 1));
        let tags: Vec<&str> = sim.trace().iter().map(|e| e.kind.tag()).collect();
        assert_eq!(
            tags,
            [
                "task_spawn",
                "task_poll",
                "task_poll",
                "task_poll",
                "task_complete"
            ]
        );
    }

    use std::cell::Cell;
}
