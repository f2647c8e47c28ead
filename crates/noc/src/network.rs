//! Transfer scheduling with link contention.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use m3_base::cycles::{transfer_time, Cycles};
use m3_base::PeId;
use m3_fault::FaultPlane;
use m3_sim::{keys, Component, Event, EventKind, MetricHandle, Metrics, Recorder, Stats};

use crate::topology::{Coord, Topology};

/// Tuning parameters of the NoC model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NocConfig {
    /// Link bandwidth in bytes per cycle. The DTU moves 8 bytes per cycle
    /// (paper §5.4), and the NoC links are sized to match, so the DTU —
    /// unlike the Xtensa core's `memcpy` — saturates the memory bandwidth.
    pub bytes_per_cycle: u64,
    /// Router traversal latency per hop.
    pub hop_latency: Cycles,
    /// Wire overhead added to every transfer (routing header/flit framing).
    pub packet_overhead: u64,
    /// When `false`, link reservations are skipped: transfers see an
    /// uncontended network. Used for ablations and for experiments that
    /// assume a perfectly scaling NoC (paper §5.7).
    pub contention: bool,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            bytes_per_cycle: m3_base::cfg::DTU_BYTES_PER_CYCLE,
            hop_latency: Cycles::new(3),
            packet_overhead: 8,
            contention: true,
        }
    }
}

/// The outcome of scheduling one transfer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Cycle at which the last byte arrives at the destination.
    pub completes_at: Cycles,
    /// Cycles the transfer spent waiting for busy links (contention).
    pub waited: Cycles,
    /// Number of NoC hops crossed.
    pub hops: u32,
    /// Payload bytes moved.
    pub bytes: u64,
}

/// Output ports per router in the reservation table: the node's injection
/// port, then the links towards +x, -x, +y and -y.
const PORTS: usize = 5;
const INJECT: usize = 0;
const EAST: usize = 1;
const WEST: usize = 2;
const SOUTH: usize = 3;
const NORTH: usize = 4;

struct NocInner {
    topo: Topology,
    cfg: NocConfig,
    /// Per-directed-link time until which the link is reserved, indexed by
    /// [`port_slot`]: one entry per grid position (occupied or not, since
    /// XY routes may cross empty positions) and output port.
    busy_until: Vec<Cycles>,
    /// Event sink; a detached (disabled) recorder until [`Noc::attach`].
    tracer: Recorder,
    /// Per-PE metrics; a detached bag until [`Noc::attach`].
    metrics: NocMetrics,
    /// Fault-injection plane; `None` (the default) means the clean-path
    /// code is byte-identical to a build without fault support.
    faults: Option<Rc<FaultPlane>>,
}

/// The metrics bag a NoC reports into, with the handles of the four
/// counters every transfer bumps at its source node.
struct NocMetrics {
    bag: Metrics,
    transfers: MetricHandle,
    bytes: MetricHandle,
    link_busy: MetricHandle,
    wait: MetricHandle,
}

impl NocMetrics {
    fn new(bag: Metrics) -> NocMetrics {
        NocMetrics {
            transfers: bag.handle(keys::NOC_TRANSFERS),
            bytes: bag.handle(keys::NOC_BYTES),
            link_busy: bag.handle(keys::NOC_LINK_BUSY),
            wait: bag.handle(keys::NOC_WAIT),
            bag,
        }
    }
}

/// The network-on-chip: schedules transfers between mesh nodes.
///
/// `Noc` is cheaply cloneable; clones share the link state.
///
/// # Examples
///
/// ```
/// use m3_base::{Cycles, PeId};
/// use m3_noc::{Noc, NocConfig, Topology};
///
/// let noc = Noc::new(Topology::with_nodes(4), NocConfig::default());
/// let t = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(3), 4096);
/// assert!(t.completes_at > Cycles::new(4096 / 8)); // bandwidth + latency
/// ```
#[derive(Clone)]
pub struct Noc {
    inner: Rc<RefCell<NocInner>>,
}

impl fmt::Debug for Noc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Noc")
            .field("topology", &inner.topo)
            .field("config", &inner.cfg)
            .field(
                "reserved_links",
                &inner.busy_until.iter().filter(|c| !c.is_zero()).count(),
            )
            .finish()
    }
}

impl Noc {
    /// Creates a NoC over `topo` with the given configuration.
    pub fn new(topo: Topology, cfg: NocConfig) -> Noc {
        let ports = (topo.width() * topo.height()) as usize * PORTS;
        Noc {
            inner: Rc::new(RefCell::new(NocInner {
                topo,
                cfg,
                busy_until: vec![Cycles::ZERO; ports],
                tracer: Recorder::new(),
                metrics: NocMetrics::new(Metrics::new()),
                faults: None,
            })),
        }
    }

    /// Connects this NoC to a simulation's event recorder and metrics bag
    /// (done by the DTU fabric on construction). Until attached, events go
    /// to a detached disabled recorder and metrics to a private bag.
    // m3lint: allow(cycle-accounting): instrumentation attach before the run; tracing never changes modelled timing
    pub fn attach(&self, tracer: Recorder, metrics: Metrics) {
        let mut inner = self.inner.borrow_mut();
        inner.tracer = tracer;
        inner.metrics = NocMetrics::new(metrics);
    }

    /// Arms the fault-injection plane: subsequent transfers are subject to
    /// the plan's link delays and partitions.
    // m3lint: allow(cycle-accounting): harness config-plane: arms the fault plane before cycles advance
    pub fn set_faults(&self, faults: Rc<FaultPlane>) {
        self.inner.borrow_mut().faults = Some(faults);
    }

    /// The topology this NoC runs on.
    pub fn topology(&self) -> Topology {
        self.inner.borrow().topo.clone()
    }

    /// The active configuration.
    pub fn config(&self) -> NocConfig {
        self.inner.borrow().cfg.clone()
    }

    /// The totals view of the metrics bag this NoC reports into
    /// (`noc.transfers`, `noc.bytes`, `noc.wait_cycles`, ...).
    pub fn stats(&self) -> Stats {
        Stats::of(&self.inner.borrow().metrics.bag)
    }

    /// Schedules a transfer of `bytes` payload bytes from `src` to `dst`
    /// starting at time `now`, reserving the links along the XY route.
    ///
    /// The transfer is modelled as a single wormhole burst: its wire duration
    /// is `(bytes + overhead) / bandwidth`, each link on the route is
    /// reserved for that duration starting no earlier than the head flit's
    /// arrival, and the head flit pays the hop latency per router. Every
    /// node additionally has a single *injection port* into its router
    /// (modelled as a self-link), so concurrent transfers out of one node —
    /// e.g. two RDMA reads from the DRAM module — serialize at the source
    /// even when their routes diverge.
    ///
    /// # Panics
    ///
    /// Panics if either node is not part of the mesh.
    pub fn schedule(&self, now: Cycles, src: PeId, dst: PeId, bytes: u64) -> Transfer {
        let mut inner = self.inner.borrow_mut();
        let NocConfig {
            bytes_per_cycle,
            hop_latency,
            packet_overhead,
            contention,
        } = inner.cfg.clone();
        let duration = transfer_time(bytes + packet_overhead, bytes_per_cycle);
        let src_coord = inner.topo.coord(src);
        let dst_coord = inner.topo.coord(dst);
        let hops = src_coord.x.abs_diff(dst_coord.x) + src_coord.y.abs_diff(dst_coord.y);

        // Fault plane: a partition holds the transfer at the source until
        // the link heals; a link-delay fault stretches the wire time.
        let mut depart = now;
        let mut fault_delay = Cycles::ZERO;
        if let Some(faults) = &inner.faults {
            if let Some(release) = faults.partition_release(now, src, dst) {
                inner.tracer.record_with(|| Event {
                    at: now,
                    dur: release - now,
                    pe: Some(src),
                    comp: Component::Noc,
                    kind: EventKind::FaultInject {
                        fault: "partition".to_string(),
                        target: src,
                    },
                });
                depart = release;
            }
            fault_delay = faults.extra_delay(now, src, dst);
            if !fault_delay.is_zero() {
                inner.tracer.record_with(|| Event {
                    at: now,
                    dur: fault_delay,
                    pe: Some(src),
                    comp: Component::Noc,
                    kind: EventKind::FaultInject {
                        fault: "link_delay".to_string(),
                        target: src,
                    },
                });
            }
        }

        // Walk the XY route of `routing::route` (injection port first, then
        // X, then Y), reserving each link in turn.
        let mut arrival = depart;
        let mut waited = depart - now;
        let width = inner.topo.width();
        let busy_until = &mut inner.busy_until;
        let mut cross = |at: Coord, port: usize| {
            let slot = port_slot(width, at, port);
            let free_at = if contention {
                busy_until[slot]
            } else {
                Cycles::ZERO
            };
            let start = arrival.max(free_at);
            waited += start - arrival;
            if contention {
                busy_until[slot] = start + duration;
            }
            arrival = start + hop_latency;
        };
        let mut cur = src_coord;
        cross(cur, INJECT);
        while cur.x != dst_coord.x {
            if dst_coord.x > cur.x {
                cross(cur, EAST);
                cur.x += 1;
            } else {
                cross(cur, WEST);
                cur.x -= 1;
            }
        }
        while cur.y != dst_coord.y {
            if dst_coord.y > cur.y {
                cross(cur, SOUTH);
                cur.y += 1;
            } else {
                cross(cur, NORTH);
                cur.y -= 1;
            }
        }
        let completes_at = arrival + duration + fault_delay;

        // Each of the hops+1 links (injection port included) is reserved
        // for the wire duration; attribute that to the sourcing node.
        let m = &inner.metrics;
        m.bag.incr_handle(src, m.transfers);
        m.bag.add_handle(src, m.bytes, bytes);
        m.bag.add_handle(
            src,
            m.link_busy,
            duration.as_u64().saturating_mul(u64::from(hops) + 1),
        );
        m.bag.add_handle(src, m.wait, waited.as_u64());
        inner.tracer.record_with(|| Event {
            at: now,
            dur: completes_at - now,
            pe: Some(src),
            comp: Component::Noc,
            kind: EventKind::NocXfer {
                src,
                dst,
                bytes,
                hops,
                waited,
            },
        });
        Transfer {
            completes_at,
            waited,
            hops,
            bytes,
        }
    }
}

/// The reservation-table index of output `port` at grid position `at`.
fn port_slot(width: u32, at: Coord, port: usize) -> usize {
    (at.y * width + at.x) as usize * PORTS + port
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc4() -> Noc {
        Noc::new(Topology::new(2, 2, 4), NocConfig::default())
    }

    #[test]
    fn local_transfer_pays_only_bandwidth() {
        let noc = noc4();
        let t = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(0), 64);
        // Injection port (3) + (64 + 8 overhead) / 8 = 9 cycles, no hops.
        assert_eq!(t.completes_at, Cycles::new(3 + 9));
        assert_eq!(t.hops, 0);
        assert_eq!(t.waited, Cycles::ZERO);
    }

    #[test]
    fn remote_transfer_pays_hop_latency() {
        let noc = noc4();
        // 0 -> 3 is two hops on a 2x2 mesh.
        let t = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(3), 64);
        assert_eq!(t.hops, 2);
        // Injection port + 2 hops, 3 cycles each, + 9 cycles wire time.
        assert_eq!(t.completes_at, Cycles::new(3 * 3 + 9));
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let noc = noc4();
        let t = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 2 * 1024 * 1024);
        let wire = (2 * 1024 * 1024u64 + 8).div_ceil(8);
        // Injection port + one hop + wire.
        assert_eq!(t.completes_at, Cycles::new(6 + wire));
        // Sanity: about 262k cycles for 2 MiB at 8 B/cycle (paper §5.4).
        assert!(t.completes_at.as_u64() > 262_000 && t.completes_at.as_u64() < 263_000);
    }

    #[test]
    fn shared_link_serializes_transfers() {
        let noc = noc4();
        // Two transfers over the same link 0 -> 1 issued at the same time.
        let a = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 800);
        let b = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 800);
        assert_eq!(a.waited, Cycles::ZERO);
        assert!(b.waited >= Cycles::new(100), "second transfer must queue");
        assert!(b.completes_at > a.completes_at);
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let noc = Noc::new(Topology::new(4, 4, 16), NocConfig::default());
        let a = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 4096);
        let b = noc.schedule(Cycles::ZERO, PeId::new(14), PeId::new(15), 4096);
        assert_eq!(a.waited, Cycles::ZERO);
        assert_eq!(b.waited, Cycles::ZERO);
        assert_eq!(a.completes_at, b.completes_at);
    }

    #[test]
    fn contention_disabled_never_waits() {
        let noc = Noc::new(
            Topology::new(2, 2, 4),
            NocConfig {
                contention: false,
                ..NocConfig::default()
            },
        );
        for _ in 0..10 {
            let t = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 1 << 20);
            assert_eq!(t.waited, Cycles::ZERO);
        }
    }

    #[test]
    fn link_frees_after_reservation() {
        let noc = noc4();
        let a = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 800);
        // Issue after the first completes: no waiting.
        let b = noc.schedule(a.completes_at, PeId::new(0), PeId::new(1), 800);
        assert_eq!(b.waited, Cycles::ZERO);
    }

    #[test]
    fn opposite_directions_are_independent_links() {
        let noc = noc4();
        let a = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 1 << 16);
        let b = noc.schedule(Cycles::ZERO, PeId::new(1), PeId::new(0), 1 << 16);
        assert_eq!(a.waited, Cycles::ZERO);
        assert_eq!(b.waited, Cycles::ZERO, "full-duplex links");
    }

    #[test]
    fn injection_port_serializes_same_source_transfers() {
        // Routes diverge immediately, but both leave node 0: the single
        // injection port makes the second transfer wait.
        let noc = Noc::new(Topology::new(2, 2, 4), NocConfig::default());
        let a = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 800);
        let b = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(2), 800);
        assert_eq!(a.waited, Cycles::ZERO);
        assert!(b.waited >= Cycles::new(100), "port contention: {b:?}");
    }

    #[test]
    fn stats_accumulate() {
        let noc = noc4();
        noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 100);
        noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(2), 200);
        assert_eq!(noc.stats().get("noc.transfers"), 2);
        assert_eq!(noc.stats().get("noc.bytes"), 300);
    }

    #[test]
    fn attached_metrics_and_tracer_see_transfers() {
        let noc = noc4();
        let tracer = Recorder::new();
        let metrics = Metrics::new();
        noc.attach(tracer.clone(), metrics.clone());
        tracer.enable();
        let a = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 800);
        let b = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 800);
        assert!(b.waited > Cycles::ZERO);
        let src = PeId::new(0);
        // (800 + 8) / 8 = 101 cycles wire time, 2 links (port + hop) each.
        assert_eq!(metrics.get(src, keys::NOC_LINK_BUSY), 101 * 2 * 2);
        assert_eq!(metrics.get(src, keys::NOC_WAIT), b.waited.as_u64());
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind.tag(), "noc_xfer");
        assert_eq!(events[0].dur, a.completes_at);
        assert_eq!(events[0].pe, Some(src));
    }

    #[test]
    fn partition_holds_transfer_until_heal() {
        use m3_fault::{CycleWindow, FaultPlan, FaultPlane};
        let noc = noc4();
        let plan = FaultPlan::new().partition(
            PeId::new(0),
            PeId::new(1),
            CycleWindow::new(Cycles::ZERO, Cycles::new(1_000)),
        );
        noc.set_faults(Rc::new(FaultPlane::new(plan)));
        let clean = noc4().schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 64);
        let held = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 64);
        assert_eq!(held.waited, Cycles::new(1_000));
        assert_eq!(held.completes_at, Cycles::new(1_000) + clean.completes_at);
        // Both directions are severed.
        let back = noc.schedule(Cycles::new(10), PeId::new(1), PeId::new(0), 64);
        assert!(back.waited >= Cycles::new(990));
        // After the heal, traffic is clean again.
        let after = noc.schedule(Cycles::new(2_000), PeId::new(0), PeId::new(1), 64);
        assert_eq!(after.waited, Cycles::ZERO);
    }

    #[test]
    fn link_delay_stretches_only_windowed_transfers() {
        use m3_fault::{CycleWindow, FaultPlan, FaultPlane};
        let noc = noc4();
        let plan = FaultPlan::new().delay_link(
            PeId::new(0),
            PeId::new(1),
            CycleWindow::new(Cycles::new(100), Cycles::new(200)),
            Cycles::new(77),
        );
        noc.set_faults(Rc::new(FaultPlane::new(plan)));
        let clean = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 64);
        let slowed = noc.schedule(Cycles::new(150), PeId::new(0), PeId::new(1), 64);
        let base = clean.completes_at;
        assert_eq!(
            slowed.completes_at,
            Cycles::new(150) + base + Cycles::new(77)
        );
        // Reverse direction is unaffected (delays are directional).
        let reverse = noc.schedule(Cycles::new(150), PeId::new(1), PeId::new(0), 64);
        assert_eq!(reverse.completes_at, Cycles::new(150) + base);
    }

    #[test]
    fn zero_byte_transfer_still_pays_overhead() {
        let noc = noc4();
        let t = noc.schedule(Cycles::ZERO, PeId::new(0), PeId::new(1), 0);
        // Port + hop + 8/8 overhead.
        assert_eq!(t.completes_at, Cycles::new(6 + 1));
    }
}
