//! Structured tracing and per-PE metrics for the M3 simulation.
//!
//! The paper's whole evaluation is cycle-level attribution — which component
//! spent which cycles where (Figs. 3–7, §5.3–§5.4). This crate is the
//! observability layer that makes those cycles inspectable:
//!
//! - [`Event`] — a typed trace record `(cycle, duration, PE, component,
//!   kind)`. Components emit events through a shared [`Recorder`]. Each
//!   [`EventKind`] is declared once, with its tag and fields, in one
//!   table below; the enum, [`EventKind::tag`] and the [`fmt`] columns
//!   are generated from it.
//! - [`Metrics`] — a simulation's one counter registry: per-PE counters
//!   and [`Histogram`]s (PE busy cycles, DTU messages, bytes and
//!   ring-buffer occupancy, drops, credit stalls, NoC transfers and link
//!   utilisation, kernel operations, latencies), each under a [`keys`]
//!   name.
//! - [`chrome`] — a Chrome `trace_event` JSON exporter (one "process" per
//!   PE, one "thread" per component) for chrome://tracing and Perfetto.
//! - [`fmt`] — a line-oriented native trace format that round-trips through
//!   files, consumed by the `m3-trace` CLI (`summarize`/`export`/`diff`).
//!
//! # Overhead contract
//!
//! Tracing is *zero-cost for simulated time*: recording an event never
//! sleeps, schedules, or otherwise touches the simulation clock, so enabling
//! a trace cannot change any reported cycle count. When disabled (the
//! default), [`Recorder::record_with`] is a single flag check — the event is
//! never even constructed. Everything is deterministic: events are stored in
//! recording order, maps are `BTreeMap`s, and nothing reads a wall clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use m3_base::{Cycles, EpId, PeId};

use crate::fmt::{Flag, Rw};

pub mod chrome;
pub mod diff;
pub mod fmt;
pub mod latency;
pub mod summary;

pub use latency::Histogram;

/// The component of the stack that emitted an event. One Chrome "thread"
/// per component within a PE's "process".
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// The executor: task spawn/poll/completion and clock advances.
    Sched,
    /// A data transfer unit: message sends, replies, RDMA transfers.
    Dtu,
    /// The network-on-chip: link-level transfers.
    Noc,
    /// The kernel: system calls by opcode.
    Kernel,
    /// The m3fs service: meta requests by type.
    Fs,
    /// The pipe implementation: chunk transfers.
    Pipe,
    /// Application-level phase markers.
    App,
    /// The m3-serve tier: request service spans on the server PE.
    Serve,
    /// The paging subsystem: faults, page-ins, and write-backs (kernel
    /// pager and libos page caches both attribute here).
    Vm,
}

impl Component {
    /// Stable lowercase name, used by the native format and the exporter.
    pub fn name(self) -> &'static str {
        match self {
            Component::Sched => "sched",
            Component::Dtu => "dtu",
            Component::Noc => "noc",
            Component::Kernel => "kernel",
            Component::Fs => "fs",
            Component::Pipe => "pipe",
            Component::App => "app",
            Component::Serve => "serve",
            Component::Vm => "vm",
        }
    }

    /// Parses the output of [`Component::name`].
    pub fn parse(s: &str) -> Option<Component> {
        Component::all().iter().copied().find(|c| c.name() == s)
    }

    /// All components, in thread-id order.
    pub fn all() -> &'static [Component] {
        &[
            Component::Sched,
            Component::Dtu,
            Component::Noc,
            Component::Kernel,
            Component::Fs,
            Component::Pipe,
            Component::App,
            Component::Serve,
            // Appended last so existing Chrome thread ids keep their order.
            Component::Vm,
        ]
    }
}

fmt::event_kinds! {
    /// What happened. The payload carries the fields the figures need to
    /// attribute cycles (bytes moved, hops crossed, opcode names, …).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum EventKind {
        /// A task was spawned.
        TaskSpawn "task_spawn" {
            /// Task name, interned so per-poll events clone a pointer, not the
            /// characters.
            name: Rc<str>,
            /// Whether it is a daemon (does not keep the simulation alive).
            daemon: bool as Flag,
        },
        /// A task was polled by the executor.
        TaskPoll "task_poll" {
            /// Task name (interned).
            name: Rc<str>,
        },
        /// A task ran to completion.
        TaskComplete "task_complete" {
            /// Task name (interned).
            name: Rc<str>,
        },
        /// The clock advanced to fire a timer.
        ClockAdvance "clock_advance" {
            /// The previous time.
            from: Cycles,
        },
        /// A DTU accepted a send command; the span covers the NoC transfer.
        MsgSend "msg_send" {
            /// Sending endpoint.
            ep: EpId,
            /// Destination PE.
            dst_pe: PeId,
            /// Destination endpoint.
            dst_ep: EpId,
            /// Wire bytes (header + payload).
            bytes: u64,
        },
        /// A DTU accepted a reply command.
        MsgReply "msg_reply" {
            /// Destination PE (the original sender).
            dst_pe: PeId,
            /// Wire bytes (header + payload).
            bytes: u64,
        },
        /// A message was dropped at the receiver (ring buffer full/oversized).
        MsgDrop "msg_drop" {
            /// Receiving endpoint.
            ep: EpId,
        },
        /// A send failed because the endpoint was out of credits.
        CreditStall "credit_stall" {
            /// Sending endpoint.
            ep: EpId,
        },
        /// An RDMA transfer through a memory endpoint.
        MemXfer "mem_xfer" {
            /// `true` for a write, `false` for a read.
            write: bool as Rw,
            /// Bytes moved.
            bytes: u64,
        },
        /// A NoC transfer (one wormhole burst across the route).
        NocXfer "noc_xfer" {
            /// Source node.
            src: PeId,
            /// Destination node.
            dst: PeId,
            /// Payload bytes.
            bytes: u64,
            /// Hops crossed.
            hops: u32,
            /// Cycles spent waiting for busy links.
            waited: Cycles,
        },
        /// The kernel dispatched a system call.
        Syscall "syscall" {
            /// Opcode name (e.g. `"Noop"`, `"CreateVpe"`).
            opcode: String,
        },
        /// The m3fs service handled a meta request; the span covers its cost.
        FsRequest "fs_req" {
            /// Request name (e.g. `"Open"`, `"Stat"`).
            op: String,
        },
        /// One pipe chunk moved between a writer and a reader.
        PipeXfer "pipe_xfer" {
            /// `true` on the writer side, `false` on the reader side.
            write: bool as Rw,
            /// Bytes moved.
            bytes: u64,
        },
        /// An application-level phase marker.
        AppMark "app_mark" {
            /// Free-form marker text.
            what: String,
        },
        /// The fault plane injected a fault (drop, delay, partition, crash, …).
        FaultInject "fault_inject" {
            /// Fault kind, e.g. `"msg_drop"`, `"partition"`, `"pe_crash"`.
            fault: String,
            /// The PE the fault acts on (the source PE for link faults).
            target: PeId,
        },
        /// A recovery action fired (retry, backoff wait, dead-PE teardown).
        Recovery "recovery" {
            /// Action name, e.g. `"retry"`, `"backoff"`, `"dead_pe"`.
            action: String,
            /// Which attempt this is (0-based; teardown actions use 0).
            attempt: u32,
        },
        /// The serving tier completed one client request; the span runs from the
        /// request's *scheduled* arrival to its completion, so queueing delay is
        /// part of the recorded latency (coordinated-omission correction).
        ServeReq "serve_req" {
            /// Client id within the load generator.
            client: u64,
            /// Operation name (e.g. `"Get"`, `"Put"`, `"Scan"`).
            op: String,
        },
        /// The kernel switched the resident VPE of a PE: the outgoing VPE's DTU
        /// state went to its DRAM save area and the incoming VPE's came back,
        /// both through the DTU. The span covers the whole switch.
        CtxSwitch "ctx_switch" {
            /// Raw id of the VPE switched out; `0` when the PE was idle.
            from: u32,
            /// Raw id of the VPE switched in; `0` when the PE goes idle.
            to: u32,
            /// Architectural-state bytes moved to/from the save area.
            bytes: u64,
        },
        /// One conservative-PDES synchronization window as executed by one
        /// island: how far the island's local clock moved inside the window
        /// (busy residency) and how long it idled between its last local event
        /// and the window barrier. Both are simulated quantities, so the event
        /// stream is identical for every worker count.
        IslandWindow "island_window" {
            /// Island id within the partition.
            island: u32,
            /// Cycles the island's clock advanced inside the window.
            advanced: Cycles,
            /// Cycles between the island's final local time and the barrier.
            waited: Cycles,
        },
        /// A page fault reached the kernel pager: the faulting PE's DTU sent a
        /// typed fault message and the kernel walked the page table (§7 demand
        /// paging as messages). The span covers the kernel-side handling.
        PageFault "page_fault" {
            /// Faulting virtual address.
            virt: u64,
            /// `true` for a write-access fault.
            write: bool as Rw,
        },
        /// The pager copied a swap slot back into a DRAM frame to serve a
        /// fault on an evicted page.
        PageIn "page_in" {
            /// Virtual address of the page.
            virt: u64,
            /// Bytes copied (one page).
            bytes: u64,
        },
        /// The pager wrote a dirty victim page back to the VPE's DRAM swap
        /// region before reusing its frame.
        WriteBack "write_back" {
            /// Virtual address of the evicted page.
            virt: u64,
            /// Bytes written back (one page).
            bytes: u64,
        },
        /// One leg of a kernel-to-kernel operation in a sharded multikernel:
        /// emitted by the sending shard when a request leaves and by the
        /// receiving shard when it is handled (§7 multiple kernels).
        ShardOp "shard_op" {
            /// The shard attributing the event (sender on send, receiver on
            /// delivery).
            shard: u32,
            /// The peer shard on the other end of the gate.
            peer: u32,
            /// Operation name (e.g. `"place_vpe"`, `"delegate_cap"`).
            op: String,
        },
    }
}

/// One trace record: when, for how long, where, and what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle the event started at.
    pub at: Cycles,
    /// Span length in cycles; zero marks an instantaneous event.
    pub dur: Cycles,
    /// The PE the event is attributed to; `None` for global scheduler
    /// events.
    pub pe: Option<PeId>,
    /// The emitting component.
    pub comp: Component,
    /// The typed payload.
    pub kind: EventKind,
}

impl Event {
    /// A human-readable name for the event, used by the Chrome exporter and
    /// summaries (e.g. `"syscall:Noop"`, `"mem-read"`).
    pub fn display_name(&self) -> String {
        match &self.kind {
            EventKind::TaskSpawn { name, .. } => format!("spawn:{name}"),
            EventKind::TaskPoll { name } => format!("poll:{name}"),
            EventKind::TaskComplete { name } => format!("done:{name}"),
            EventKind::ClockAdvance { .. } => "advance".to_string(),
            EventKind::MsgSend { .. } => "send".to_string(),
            EventKind::MsgReply { .. } => "reply".to_string(),
            EventKind::MsgDrop { .. } => "drop".to_string(),
            EventKind::CreditStall { .. } => "credit-stall".to_string(),
            EventKind::MemXfer { write: true, .. } => "mem-write".to_string(),
            EventKind::MemXfer { write: false, .. } => "mem-read".to_string(),
            EventKind::NocXfer { .. } => "noc-xfer".to_string(),
            EventKind::Syscall { opcode } => format!("syscall:{opcode}"),
            EventKind::FsRequest { op } => format!("fs:{op}"),
            EventKind::PipeXfer { write: true, .. } => "pipe-write".to_string(),
            EventKind::PipeXfer { write: false, .. } => "pipe-read".to_string(),
            EventKind::AppMark { what } => format!("mark:{what}"),
            EventKind::FaultInject { fault, .. } => format!("fault:{fault}"),
            EventKind::Recovery { action, .. } => format!("recovery:{action}"),
            EventKind::ServeReq { op, .. } => format!("serve:{op}"),
            EventKind::CtxSwitch { from, to, .. } => format!("ctx:{from}->{to}"),
            EventKind::IslandWindow { island, .. } => format!("island:{island}"),
            EventKind::PageFault { virt, write } => {
                format!("fault:{}{virt:#x}", if *write { "w:" } else { "r:" })
            }
            EventKind::PageIn { virt, .. } => format!("page-in:{virt:#x}"),
            EventKind::WriteBack { virt, .. } => format!("write-back:{virt:#x}"),
            EventKind::ShardOp { shard, peer, op } => format!("shard:{shard}->{peer}:{op}"),
        }
    }
}

/// Default bound on the number of events a [`Recorder`] keeps. Enough for
/// every scenario in the figure pipeline; overflowing events are counted,
/// not silently lost.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 20;

struct RecorderInner {
    enabled: Cell<bool>,
    capacity: Cell<usize>,
    dropped: Cell<u64>,
    events: RefCell<Vec<Event>>,
}

/// The shared event sink of one simulation.
///
/// Cheaply cloneable; clones share the buffer. Disabled by default: while
/// disabled, [`Recorder::record_with`] is one flag check and the event
/// closure never runs (the zero-cost-when-disabled contract).
#[derive(Clone)]
pub struct Recorder {
    inner: Rc<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.inner.enabled.get())
            .field("events", &self.inner.events.borrow().len())
            .field("dropped", &self.inner.dropped.get())
            .finish()
    }
}

impl Recorder {
    /// Creates a disabled recorder with the default capacity.
    pub fn new() -> Recorder {
        Recorder {
            inner: Rc::new(RecorderInner {
                enabled: Cell::new(false),
                capacity: Cell::new(DEFAULT_EVENT_CAPACITY),
                dropped: Cell::new(0),
                events: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.inner.enabled.set(true);
    }

    /// Turns recording off (already-recorded events are kept).
    pub fn disable(&self) {
        self.inner.enabled.set(false);
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Bounds the buffer to `capacity` events; events beyond it are counted
    /// in [`Recorder::dropped`] instead of stored.
    pub fn set_capacity(&self, capacity: usize) {
        self.inner.capacity.set(capacity);
    }

    /// Records `event` if enabled.
    pub fn record(&self, event: Event) {
        if !self.inner.enabled.get() {
            return;
        }
        let mut events = self.inner.events.borrow_mut();
        if events.len() >= self.inner.capacity.get() {
            self.inner.dropped.set(self.inner.dropped.get() + 1);
            return;
        }
        events.push(event);
    }

    /// Records the event produced by `make` — but only constructs it when
    /// recording is enabled.
    pub fn record_with(&self, make: impl FnOnce() -> Event) {
        if self.inner.enabled.get() {
            self.record(make());
        }
    }

    /// A copy of all recorded events, in recording order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.events.borrow().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.events.borrow().is_empty()
    }

    /// Events lost to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// Discards all recorded events and resets the drop counter.
    pub fn clear(&self) {
        self.inner.events.borrow_mut().clear();
        self.inner.dropped.set(0);
    }
}

/// The name of every counter and histogram a simulation records, each
/// defined once; components write them per PE and readers look them up.
pub mod keys {
    /// Cycles a PE spent computing (`Env::compute`) — the numerator of the
    /// utilisation gauge.
    pub const PE_BUSY: &str = "pe.busy_cycles";
    /// Cycles a PE's DTU spent executing transfer commands.
    pub const DTU_BUSY: &str = "dtu.busy_cycles";
    /// Histogram of receive ring-buffer occupancy, observed at every
    /// deposit and ack.
    pub const RING_OCCUPANCY: &str = "dtu.ring_occupancy";
    /// Messages dropped at this PE's receive buffers.
    pub const DTU_DROPS: &str = "dtu.drops";
    /// Sends rejected because the endpoint was out of credits.
    pub const CREDIT_STALLS: &str = "dtu.credit_stalls";
    /// Cycles this node's NoC links (including the injection port) were
    /// reserved by transfers it sourced.
    pub const NOC_LINK_BUSY: &str = "noc.link_busy_cycles";
    /// Cycles transfers sourced at this node waited for busy links.
    pub const NOC_WAIT: &str = "noc.wait_cycles";
    /// Context switches the kernel performed on this PE.
    pub const CTX_SWITCHES: &str = "sched.ctx_switches";
    /// Cycles this PE spent switching VPE contexts (state transfers plus
    /// the fixed save/restore costs).
    pub const CTX_SWITCH_CYCLES: &str = "sched.ctx_switch_cycles";
    /// Histogram of the PE's ready-queue depth, observed at every
    /// scheduling decision on an overcommitted PE.
    pub const RUN_QUEUE_DEPTH: &str = "sched.run_queue_depth";
    /// Histogram of resident-slice lengths on an overcommitted PE (cycles
    /// between a VPE's restore and its next save-out or exit).
    pub const SLICE_CYCLES: &str = "sched.slice_cycles";
    /// Latency histogram of request latencies in the serving tier, measured
    /// from the request's scheduled arrival to its completion.
    pub const SERVE_LATENCY: &str = "serve.req_latency";
    /// Messages sent (not replies) by this PE's DTU.
    pub const DTU_MSGS_SENT: &str = "dtu.msgs_sent";
    /// Replies sent by this PE's DTU.
    pub const DTU_REPLIES_SENT: &str = "dtu.replies_sent";
    /// NoC cycles of the messages and replies this PE's DTU sent.
    pub const DTU_MSG_CYCLES: &str = "dtu.msg_cycles";
    /// Cycles of the RDMA transfers this PE's DTU issued.
    pub const DTU_XFER_CYCLES: &str = "dtu.xfer_cycles";
    /// Bytes this PE's DTU read from memory endpoints.
    pub const DTU_MEM_READ_BYTES: &str = "dtu.mem_read_bytes";
    /// Bytes this PE's DTU wrote to memory endpoints.
    pub const DTU_MEM_WRITE_BYTES: &str = "dtu.mem_write_bytes";
    /// Messages deposited into a receive buffer of this PE, live or parked.
    pub const DTU_MSGS_DELIVERED: &str = "dtu.msgs_delivered";
    /// Messages towards this PE that were lost: a full receive buffer
    /// ([`DTU_DROPS`]) or a crashed PE.
    pub const DTU_MSGS_DROPPED: &str = "dtu.msgs_dropped";
    /// Messages towards this PE that found no receive endpoint to land in.
    pub const DTU_DEPOSIT_NO_RECV_EP: &str = "dtu.deposit_no_recv_ep";
    /// NoC transfers this node sourced.
    pub const NOC_TRANSFERS: &str = "noc.transfers";
    /// Payload bytes of the NoC transfers this node sourced.
    pub const NOC_BYTES: &str = "noc.bytes";
    /// Syscalls the kernel on this PE dispatched.
    pub const KERNEL_SYSCALLS: &str = "kernel.syscalls";
    /// Kernel-to-kernel requests the kernel on this PE served for peer
    /// shards. With [`KERNEL_SYSCALLS`], the kernel operations of one shard
    /// (fig10).
    pub const KTK_REQUESTS: &str = "kernel.ktk_requests";
    /// Malformed kernel-to-kernel frames the kernel on this PE discarded.
    pub const KTK_BAD_MESSAGES: &str = "kernel.ktk_bad_messages";
    /// VPE exits the kernel on this PE handled.
    pub const VPE_EXITS: &str = "kernel.vpe_exits";
    /// VPEs the kernel on this PE placed on a peer shard.
    pub const REMOTE_PLACEMENTS: &str = "kernel.remote_placements";
    /// Page faults the kernel pager served for VPEs on this PE
    /// (first-touch zero-fills plus page-ins).
    pub const PAGE_FAULTS: &str = "vm.page_faults";
    /// Bytes the pager wrote back to swap regions for victims evicted on
    /// behalf of VPEs on this PE.
    pub const WRITEBACK_BYTES: &str = "vm.writeback_bytes";
    /// Dirty SPM pages actually transferred by dirty-tracked context
    /// switches on this PE (the pages a full-image switch would have moved
    /// anyway are `SPM_DATA_SIZE / PAGE_SIZE` per switch).
    pub const DIRTY_PAGES_SAVED: &str = "sched.dirty_pages_saved";
    /// Application cycles (`Env::compute_app`) of an M3 program on this PE:
    /// fig5's and fig7's App share.
    pub const APP_CYCLES: &str = "m3.app_cycles";
    /// Cycles an FFT application computed on this PE (fig7).
    pub const FFT_CYCLES: &str = "app.fft_cycles";
    /// Linux kernel cycles, on the Linux machine's one CPU (PE 0).
    pub const LX_OS_CYCLES: &str = "lx.os_cycles";
    /// Linux copy and transfer cycles, on PE 0.
    pub const LX_XFER_CYCLES: &str = "lx.xfer_cycles";
    /// Linux application cycles, on PE 0.
    pub const LX_APP_CYCLES: &str = "lx.app_cycles";
    /// Linux process switches, on PE 0.
    pub const LX_CTX_SWITCHES: &str = "lx.ctx_switches";
}

/// A pre-resolved handle to one metric name of a [`Metrics`] bag, from
/// [`Metrics::handle`]. Updating through a handle indexes a dense per-PE
/// table instead of walking a string-keyed map — for the per-event callers
/// (NoC transfers, DTU commands, `Env::compute`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MetricHandle(u32);

/// One dense table: per PE (indexed by its raw id), per handle, the value
/// if anything was recorded there. Reads skip `None` cells only, so a
/// zero add still shows up as a row.
type Table<T> = Vec<Vec<Option<T>>>;

/// The cell of `(pe, h)` in `table`, growing the table to reach it.
fn cell<T>(table: &mut Table<T>, pe: PeId, h: MetricHandle) -> &mut Option<T> {
    let pe = pe.idx();
    if table.len() <= pe {
        table.resize_with(pe + 1, Vec::new);
    }
    let row = &mut table[pe];
    let h = h.0 as usize;
    if row.len() <= h {
        row.resize_with(h + 1, || None);
    }
    &mut row[h]
}

#[derive(Default)]
struct MetricsInner {
    /// Interned names: name -> handle. Iterating it visits the handles in
    /// name order, which is the order every dump uses.
    index: BTreeMap<&'static str, MetricHandle>,
    counters: Table<u64>,
    hists: Table<Histogram>,
}

impl MetricsInner {
    fn handle(&mut self, key: &'static str) -> MetricHandle {
        let next = MetricHandle(self.index.len() as u32);
        *self.index.entry(key).or_insert(next)
    }

    /// The recorded cell of `(pe, key)` in `table`, if any.
    fn find<'a, T>(&self, table: &'a Table<T>, pe: PeId, key: &str) -> Option<&'a T> {
        let h = self.index.get(key)?;
        table.get(pe.idx())?.get(h.0 as usize)?.as_ref()
    }

    /// Every recorded cell of `table` as `(pe, key, value)`, sorted by PE
    /// and then by name: the order of a `BTreeMap<(pe, key), _>`.
    fn rows<'a, T>(
        &'a self,
        table: &'a Table<T>,
    ) -> impl Iterator<Item = (u32, &'static str, &'a T)> {
        table.iter().enumerate().flat_map(move |(pe, row)| {
            self.index.iter().filter_map(move |(key, h)| {
                let v = row.get(h.0 as usize)?.as_ref()?;
                Some((pe as u32, *key, v))
            })
        })
    }
}

/// Per-PE counters, gauges, and histograms shared across a simulation.
///
/// Always on: names are interned once into [`MetricHandle`]s and values
/// live in dense per-PE tables, so an update never allocates past a table's
/// first growth and never touches simulated time. Reads sort by PE and then
/// by name, so every dump is deterministic. Cheaply cloneable; clones share
/// the state. Handles are valid for this bag and all its clones.
///
/// # Examples
///
/// ```
/// use m3_base::PeId;
/// use m3_trace::{keys, Metrics};
///
/// let m = Metrics::new();
/// m.add(PeId::new(1), keys::DTU_DROPS, 2);
/// // Per-event callers resolve the name once:
/// let drops = m.handle(keys::DTU_DROPS);
/// m.incr_handle(PeId::new(1), drops);
/// assert_eq!(m.get(PeId::new(1), keys::DTU_DROPS), 3);
/// ```
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Rc<RefCell<MetricsInner>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Metrics")
            .field("counters", &inner.rows(&inner.counters).count())
            .field("histograms", &inner.rows(&inner.hists).count())
            .finish()
    }
}

impl Metrics {
    /// Creates an empty metrics bag.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Interns `key` and returns its handle. Interning records nothing: a
    /// name shows up in reads only once a value is recorded under it.
    pub fn handle(&self, key: &'static str) -> MetricHandle {
        self.inner.borrow_mut().handle(key)
    }

    /// Adds `n` to the counter behind `h` of `pe` (saturating). A zero add
    /// still creates the counter.
    pub fn add_handle(&self, pe: PeId, h: MetricHandle, n: u64) {
        let mut inner = self.inner.borrow_mut();
        let slot = cell(&mut inner.counters, pe, h).get_or_insert(0);
        *slot = slot.saturating_add(n);
    }

    /// Increments the counter behind `h` of `pe` by one.
    pub fn incr_handle(&self, pe: PeId, h: MetricHandle) {
        self.add_handle(pe, h, 1);
    }

    /// Records `value` into the histogram behind `h` of `pe`.
    pub fn observe_handle(&self, pe: PeId, h: MetricHandle, value: u64) {
        let mut inner = self.inner.borrow_mut();
        cell(&mut inner.hists, pe, h)
            .get_or_insert_with(Histogram::new)
            .observe(value);
    }

    /// Adds `n` to counter `key` of `pe` (saturating).
    pub fn add(&self, pe: PeId, key: &'static str, n: u64) {
        let h = self.handle(key);
        self.add_handle(pe, h, n);
    }

    /// Increments counter `key` of `pe` by one.
    pub fn incr(&self, pe: PeId, key: &'static str) {
        self.add(pe, key, 1);
    }

    /// Reads a counter; absent counters read as zero.
    pub fn get(&self, pe: PeId, key: &'static str) -> u64 {
        let inner = self.inner.borrow();
        inner.find(&inner.counters, pe, key).copied().unwrap_or(0)
    }

    /// Sums counter `key` over all PEs.
    pub fn total(&self, key: &str) -> u64 {
        let inner = self.inner.borrow();
        let Some(h) = inner.index.get(key) else {
            return 0;
        };
        inner
            .counters
            .iter()
            .filter_map(|row| row.get(h.0 as usize).copied().flatten())
            .fold(0u64, u64::saturating_add)
    }

    /// Records `value` into histogram `key` of `pe`.
    pub fn observe(&self, pe: PeId, key: &'static str, value: u64) {
        let h = self.handle(key);
        self.observe_handle(pe, h, value);
    }

    /// A copy of histogram `key` of `pe`, if it has observations.
    pub fn histogram(&self, pe: PeId, key: &'static str) -> Option<Histogram> {
        let inner = self.inner.borrow();
        inner.find(&inner.hists, pe, key).cloned()
    }

    /// Histogram `key` merged across all PEs — the system-wide
    /// distribution figures report quantiles from. `None` if no PE recorded
    /// under `key`.
    pub fn merged(&self, key: &str) -> Option<Histogram> {
        let inner = self.inner.borrow();
        let h = *inner.index.get(key)?;
        let mut merged: Option<Histogram> = None;
        for row in &inner.hists {
            if let Some(Some(hist)) = row.get(h.0 as usize) {
                merged.get_or_insert_with(Histogram::new).merge(hist);
            }
        }
        merged
    }

    /// Renders every histogram as a TSV table (one row per PE/key, plus a
    /// `*` row per key with the cross-PE merge):
    /// `pe  key  count  saturated  min  mean  p50  p99  p999  max`.
    pub fn histogram_tsv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("pe\tkey\tcount\tsaturated\tmin\tmean\tp50\tp99\tp999\tmax\n");
        let inner = self.inner.borrow();
        for (pe, key, h) in inner.rows(&inner.hists) {
            let _ = writeln!(out, "{pe}\t{key}\t{}", histogram_row(h));
        }
        for key in inner.index.keys() {
            if let Some(h) = self.merged(key) {
                let _ = writeln!(out, "*\t{key}\t{}", histogram_row(&h));
            }
        }
        out
    }

    /// The fraction of `total` cycles PE `pe` spent busy
    /// ([`keys::PE_BUSY`] + [`keys::DTU_BUSY`]), clamped to `[0, 1]`.
    pub fn utilization(&self, pe: PeId, total: Cycles) -> f64 {
        if total.as_u64() == 0 {
            return 0.0;
        }
        let busy = self
            .get(pe, keys::PE_BUSY)
            .saturating_add(self.get(pe, keys::DTU_BUSY));
        (busy as f64 / total.as_u64() as f64).min(1.0)
    }

    /// All PEs that have at least one counter or histogram.
    pub fn pes(&self) -> Vec<PeId> {
        let inner = self.inner.borrow();
        let mut pes: Vec<u32> = inner
            .rows(&inner.counters)
            .map(|(pe, _, _)| pe)
            .chain(inner.rows(&inner.hists).map(|(pe, _, _)| pe))
            .collect();
        pes.sort_unstable();
        pes.dedup();
        pes.into_iter().map(PeId::new).collect()
    }

    /// A sorted snapshot of every counter as `(pe, key, value)` rows.
    pub fn snapshot(&self) -> Vec<(PeId, &'static str, u64)> {
        let inner = self.inner.borrow();
        inner
            .rows(&inner.counters)
            .map(|(pe, key, v)| (PeId::new(pe), key, *v))
            .collect()
    }

    /// Renders a per-PE table of all counters, utilisation (against
    /// `total` simulated cycles), and histogram summaries.
    pub fn render(&self, total: Cycles) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for pe in self.pes() {
            let _ = write!(
                out,
                "{pe}: util={:5.1}%",
                self.utilization(pe, total) * 100.0
            );
            for (row_pe, key, v) in self.snapshot() {
                if row_pe == pe {
                    let _ = write!(out, "  {key}={v}");
                }
            }
            let inner = self.inner.borrow();
            for (row_pe, key, h) in inner.rows(&inner.hists) {
                if row_pe == pe.raw() {
                    let _ = write!(out, "  {key}[{}]", h.summary());
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// A compact one-line summary for bench output: utilisation of the
    /// busiest PE plus the drop/stall/wait totals that explain anomalies.
    pub fn summary_line(&self, total: Cycles) -> String {
        let mut best = (None, 0.0f64);
        for pe in self.pes() {
            let u = self.utilization(pe, total);
            if u > best.1 {
                best = (Some(pe), u);
            }
        }
        let util = match best.0 {
            Some(pe) => format!("peak-util {pe} {:.1}%", best.1 * 100.0),
            None => "peak-util n/a".to_string(),
        };
        format!(
            "{util} | drops {} | credit-stalls {} | noc-wait {} | ctx-switches {}",
            self.total(keys::DTU_DROPS),
            self.total(keys::CREDIT_STALLS),
            self.total(keys::NOC_WAIT),
            self.total(keys::CTX_SWITCHES),
        )
    }
}

/// One TSV row tail for [`Metrics::histogram_tsv`]:
/// `count  saturated  min  mean  p50  p99  p999  max` (no trailing newline).
fn histogram_row(h: &Histogram) -> String {
    match (h.min(), h.mean(), h.max()) {
        (Some(min), Some(mean), Some(max)) => format!(
            "{}\t{}\t{min}\t{mean:.1}\t{}\t{}\t{}\t{max}",
            h.count(),
            h.saturated() as u8,
            h.quantile(0.50).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.quantile(0.999).unwrap_or(0),
        ),
        _ => "0\t0\t-\t-\t-\t-\t-\t-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: EventKind) -> Event {
        Event {
            at: Cycles::new(at),
            dur: Cycles::ZERO,
            pe: Some(PeId::new(1)),
            comp: Component::Dtu,
            kind,
        }
    }

    #[test]
    fn recorder_disabled_records_nothing() {
        let rec = Recorder::new();
        rec.record(ev(1, EventKind::MsgDrop { ep: EpId::new(0) }));
        let mut built = false;
        rec.record_with(|| {
            built = true;
            ev(2, EventKind::MsgDrop { ep: EpId::new(0) })
        });
        assert!(rec.is_empty());
        assert!(!built, "closure must not run while disabled");
    }

    #[test]
    fn recorder_enabled_keeps_order() {
        let rec = Recorder::new();
        rec.enable();
        rec.record(ev(1, EventKind::MsgDrop { ep: EpId::new(0) }));
        rec.record(ev(2, EventKind::CreditStall { ep: EpId::new(3) }));
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, Cycles::new(1));
        assert_eq!(events[1].kind.tag(), "credit_stall");
    }

    #[test]
    fn recorder_capacity_counts_drops() {
        let rec = Recorder::new();
        rec.enable();
        rec.set_capacity(2);
        for i in 0..5 {
            rec.record(ev(i, EventKind::MsgDrop { ep: EpId::new(0) }));
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        rec.clear();
        assert_eq!(rec.dropped(), 0);
        assert!(rec.is_empty());
    }

    #[test]
    fn histogram_empty_is_explicit_and_saturation_flagged() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        let mut h = Histogram::new();
        h.observe(u64::MAX - 1);
        assert!(!h.saturated());
        h.observe(2);
        assert!(h.saturated(), "overflowed sum must set the flag");
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn metrics_latency_per_pe_and_merged() {
        let m = Metrics::new();
        m.observe(PeId::new(1), keys::SERVE_LATENCY, 600_000);
        m.observe(PeId::new(1), keys::SERVE_LATENCY, 600_000);
        m.observe(PeId::new(3), keys::SERVE_LATENCY, 1_100_000);
        let h1 = m.histogram(PeId::new(1), keys::SERVE_LATENCY).unwrap();
        assert_eq!(h1.count(), 2);
        assert!(m.histogram(PeId::new(2), keys::SERVE_LATENCY).is_none());
        let merged = m.merged(keys::SERVE_LATENCY).unwrap();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.max(), Some(1_100_000));
        let tsv = m.histogram_tsv();
        assert!(tsv.starts_with("pe\tkey\tcount"), "{tsv}");
        assert!(tsv.contains("*\tserve.req_latency\t3"), "{tsv}");
        assert_eq!(tsv, m.histogram_tsv(), "tsv must be deterministic");
    }

    #[test]
    fn metrics_counters_and_utilization() {
        let m = Metrics::new();
        let pe = PeId::new(2);
        m.add(pe, keys::PE_BUSY, 400);
        m.add(pe, keys::DTU_BUSY, 100);
        m.incr(pe, keys::DTU_DROPS);
        assert_eq!(m.get(pe, keys::PE_BUSY), 400);
        assert_eq!(m.total(keys::DTU_DROPS), 1);
        let util = m.utilization(pe, Cycles::new(1000));
        assert!((util - 0.5).abs() < 1e-9, "util {util}");
        // Saturates instead of wrapping.
        m.add(pe, keys::PE_BUSY, u64::MAX);
        assert_eq!(m.get(pe, keys::PE_BUSY), u64::MAX);
        // Utilisation is clamped to 1.
        assert_eq!(m.utilization(pe, Cycles::new(10)), 1.0);
    }

    #[test]
    fn metrics_histograms_per_pe() {
        let m = Metrics::new();
        m.observe(PeId::new(1), keys::RING_OCCUPANCY, 1);
        m.observe(PeId::new(1), keys::RING_OCCUPANCY, 2);
        m.observe(PeId::new(3), keys::RING_OCCUPANCY, 7);
        let h1 = m.histogram(PeId::new(1), keys::RING_OCCUPANCY).unwrap();
        assert_eq!(h1.count(), 2);
        assert_eq!(h1.max(), Some(2));
        assert!(m.histogram(PeId::new(2), keys::RING_OCCUPANCY).is_none());
        assert_eq!(m.pes(), vec![PeId::new(1), PeId::new(3)]);
    }

    #[test]
    fn metrics_render_is_deterministic() {
        let make = || {
            let m = Metrics::new();
            m.add(PeId::new(2), keys::PE_BUSY, 10);
            m.add(PeId::new(0), keys::DTU_DROPS, 3);
            m.observe(PeId::new(0), keys::RING_OCCUPANCY, 4);
            m.render(Cycles::new(100))
        };
        let a = make();
        assert_eq!(a, make());
        assert!(a.contains("PE0"));
        assert!(a.contains("dtu.drops=3"));
        let m = Metrics::new();
        m.add(PeId::new(1), keys::DTU_DROPS, 2);
        assert!(m.summary_line(Cycles::new(100)).contains("drops 2"));
    }
}
