//! The deterministic load generator.
//!
//! A [`ClientSet`] simulates a population of clients issuing requests
//! against the service. Each client has its own seeded RNG stream
//! (`m3_base::rand`, split from the plan seed), so the request sequence of
//! client *i* is identical no matter how clients are partitioned across
//! driver PEs or in which order drivers run — the foundation of the fig9
//! byte-identity guarantee.
//!
//! Two arrival models (§ the usual closed/open-loop distinction in serving
//! benchmarks):
//!
//! - **Closed loop**: a client issues its next request a think time after
//!   the previous one *completes* — load self-throttles as latency grows.
//! - **Open loop**: a client's requests are due at fixed intervals
//!   regardless of completions — load does not yield, queues grow.
//!
//! Either way, a request's latency is `completion - due`, where `due` is
//! the *scheduled* arrival. A driver that falls behind (its channel is
//! saturated) therefore reports the queueing delay inside the latency
//! instead of quietly stretching the arrival process — the
//! coordinated-omission correction that makes the p99 honest.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use m3_base::rand::Rng;
use m3_base::Cycles;

use crate::proto::{KvOp, KEYS};

/// Arrival model of a load plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrivals {
    /// Next request due a think time after the previous completion.
    Closed {
        /// Think time in cycles.
        think: Cycles,
    },
    /// Requests due at a fixed period per client, ignoring completions.
    Open {
        /// Inter-arrival period per client, in cycles.
        period: Cycles,
    },
}

/// A load-generation plan: the full client population.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadPlan {
    /// Total simulated clients.
    pub clients: u64,
    /// Requests each client issues.
    pub reqs_per_client: u64,
    /// Seed of the per-client RNG streams.
    pub seed: u64,
    /// Arrival model.
    pub arrivals: Arrivals,
}

/// One request ready to be issued.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pending {
    /// Issuing client id (global, stable across partitionings).
    pub client: u64,
    /// Scheduled arrival time — latency is measured from here.
    pub due: Cycles,
    /// The request.
    pub op: KvOp,
}

struct Client {
    rng: Rng,
    left: u64,
    puts: u32,
}

/// The request mix, in 64ths: mostly point reads, some writes, an
/// occasional full scan (a read-heavy serving mix).
const MIX_GET: u64 = 58;
const MIX_PUT: u64 = 63;

impl Client {
    fn op(&mut self) -> KvOp {
        match self.rng.next_below(64) {
            r if r < MIX_GET => KvOp::Get {
                key: self.rng.next_below(KEYS),
            },
            r if r < MIX_PUT => {
                self.puts += 1;
                KvOp::Put {
                    key: self.rng.next_below(KEYS),
                    tag: self.puts,
                }
            }
            _ => KvOp::Scan,
        }
    }
}

/// A (partition of a) client population with its arrival schedule.
///
/// Drivers keep one request in flight per set: ask for the
/// [`ClientSet::next_request`], issue it, report its
/// [`ClientSet::complete`], repeat. Asking for the next request before
/// completing the previous one is a caller error: a client is off the
/// schedule from its request until its completion sets its next due time,
/// so the answer is another client's request or `None`.
pub struct ClientSet {
    arrivals: Arrivals,
    /// This set's share of the population: `clients[i]` is client
    /// `part + i * parts`.
    part: u64,
    parts: u64,
    clients: Vec<Client>,
    /// The schedulable clients — requests left and none in flight — as
    /// `(due, id)`: the minimum is the next request.
    schedule: BinaryHeap<Reverse<(u64, u64)>>,
}

impl ClientSet {
    /// The whole population of `plan`.
    pub fn new(plan: &LoadPlan) -> ClientSet {
        ClientSet::partition(plan, 0, 1)
    }

    /// The clients of `plan` with `id % parts == part` — one driver's
    /// share. Client state depends only on the client id and the plan
    /// seed, never on the partitioning.
    ///
    /// # Panics
    ///
    /// Panics if `part >= parts`.
    pub fn partition(plan: &LoadPlan, part: u64, parts: u64) -> ClientSet {
        assert!(part < parts, "partition {part} of {parts}");
        let mut clients = Vec::new();
        let mut schedule = BinaryHeap::new();
        for id in (part..plan.clients).step_by(parts as usize) {
            // Split a per-client stream off the plan seed; the constant is
            // an arbitrary odd mixer to decorrelate adjacent ids.
            let mut rng = Rng::new(plan.seed ^ (id.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            // First arrival: spread clients over one think/period interval
            // so load ramps in smoothly instead of as a thundering herd.
            let interval = match plan.arrivals {
                Arrivals::Closed { think } => think.as_u64(),
                Arrivals::Open { period } => period.as_u64(),
            };
            let due = rng.next_below(interval.max(1));
            if plan.reqs_per_client > 0 {
                schedule.push(Reverse((due, id)));
            }
            clients.push(Client {
                rng,
                left: plan.reqs_per_client,
                puts: 0,
            });
        }
        ClientSet {
            arrivals: plan.arrivals,
            part,
            parts,
            clients,
            schedule,
        }
    }

    /// Requests not yet issued across this partition.
    pub fn remaining(&self) -> u64 {
        self.clients.iter().map(|c| c.left).sum()
    }

    /// The next request to issue: the earliest-due client (ties broken by
    /// id, so the order is total and deterministic). `None` once every
    /// client finished. The caller must [`ClientSet::complete`] the
    /// client before its next request becomes available.
    pub fn next_request(&mut self) -> Option<Pending> {
        let Reverse((due, id)) = self.schedule.pop()?;
        let idx = self.index(id);
        let c = &mut self.clients[idx];
        c.left -= 1;
        Some(Pending {
            client: id,
            due: Cycles::new(due),
            op: c.op(),
        })
    }

    /// Records that `client`'s in-flight request completed at `now` with
    /// scheduled arrival `due`; returns the measured latency and schedules
    /// the client's next request.
    ///
    /// # Panics
    ///
    /// Panics if `client` is not in this set.
    pub fn complete(&mut self, client: u64, due: Cycles, now: Cycles) -> Cycles {
        let idx = self.index(client);
        let latency = Cycles::new(now.as_u64().saturating_sub(due.as_u64()));
        let next = match self.arrivals {
            Arrivals::Closed { think } => now.as_u64() + think.as_u64(),
            // Open loop: the schedule marches on from the *scheduled* time,
            // not the completion — that is the whole point.
            Arrivals::Open { period } => due.as_u64() + period.as_u64(),
        };
        if self.clients[idx].left > 0 {
            self.schedule.push(Reverse((next, client)));
        }
        latency
    }

    /// The position of `client` in `clients`.
    fn index(&self, client: u64) -> usize {
        client
            .checked_sub(self.part)
            .filter(|d| d % self.parts == 0)
            .map(|d| (d / self.parts) as usize)
            .filter(|&i| i < self.clients.len())
            .unwrap_or_else(|| panic!("unknown client {client}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(clients: u64, reqs: u64) -> LoadPlan {
        LoadPlan {
            clients,
            reqs_per_client: reqs,
            seed: 7,
            arrivals: Arrivals::Closed {
                think: Cycles::new(1000),
            },
        }
    }

    #[test]
    fn partitions_cover_the_population_exactly() {
        let p = plan(10, 3);
        let whole = ClientSet::new(&p);
        assert_eq!(whole.remaining(), 30);
        let mut ids = Vec::new();
        for part in 0..4 {
            let mut set = ClientSet::partition(&p, part, 4);
            let mut mine = Vec::new();
            while let Some(pending) = set.next_request() {
                mine.push(pending.client);
                set.complete(pending.client, pending.due, pending.due);
            }
            mine.sort_unstable();
            mine.dedup();
            ids.extend(mine);
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn client_streams_are_independent_of_partitioning() {
        let p = plan(8, 4);
        // Drain client 5's requests from the whole population...
        let mut whole = ClientSet::new(&p);
        let mut seq_whole = Vec::new();
        while let Some(pending) = whole.next_request() {
            let due = pending.due;
            if pending.client == 5 {
                seq_whole.push(pending.op.clone());
            }
            whole.complete(pending.client, due, Cycles::new(due.as_u64() + 10));
        }
        // ...and from the partition that holds it; identical sequence.
        let mut part = ClientSet::partition(&p, 1, 4);
        let mut seq_part = Vec::new();
        while let Some(pending) = part.next_request() {
            let due = pending.due;
            if pending.client == 5 {
                seq_part.push(pending.op.clone());
            }
            part.complete(pending.client, due, Cycles::new(due.as_u64() + 10));
        }
        assert_eq!(seq_whole.len(), 4);
        assert_eq!(seq_whole, seq_part);
    }

    #[test]
    fn closed_loop_latency_is_measured_from_due() {
        let mut set = ClientSet::new(&plan(1, 2));
        let first = set.next_request().unwrap();
        // Completed 500 cycles after the scheduled arrival.
        let now = Cycles::new(first.due.as_u64() + 500);
        let lat = set.complete(first.client, first.due, now);
        assert_eq!(lat, Cycles::new(500));
        // Next request due a think time after completion.
        let second = set.next_request().unwrap();
        assert_eq!(second.due, Cycles::new(now.as_u64() + 1000));
    }

    #[test]
    fn open_loop_schedule_ignores_completions() {
        let p = LoadPlan {
            clients: 1,
            reqs_per_client: 3,
            seed: 1,
            arrivals: Arrivals::Open {
                period: Cycles::new(100),
            },
        };
        let mut set = ClientSet::new(&p);
        let first = set.next_request().unwrap();
        // The completion is wildly late; the next due still advances by
        // exactly one period from the scheduled time, and the latency
        // reports the full lateness (coordinated-omission correction).
        let lat = set.complete(
            first.client,
            first.due,
            Cycles::new(first.due.as_u64() + 10_000),
        );
        assert_eq!(lat, Cycles::new(10_000));
        let second = set.next_request().unwrap();
        assert_eq!(second.due.as_u64(), first.due.as_u64() + 100);
    }

    #[test]
    fn in_flight_clients_are_not_rescheduled() {
        let mut set = ClientSet::new(&plan(2, 1));
        let a = set.next_request().unwrap();
        let b = set.next_request().unwrap();
        assert_ne!(a.client, b.client, "both clients issue one request");
        assert!(set.next_request().is_none());
    }

    /// The linear-scan generator the heap replaced: every request picks the
    /// minimum `(due, id)` over the clients with requests left, parking the
    /// issued client at the end of time until its completion.
    struct LinearScan {
        arrivals: Arrivals,
        /// `(id, client, due)`.
        clients: Vec<(u64, Client, u64)>,
    }

    impl LinearScan {
        fn partition(plan: &LoadPlan, part: u64, parts: u64) -> LinearScan {
            let mut set = ClientSet::partition(plan, part, parts);
            let mut due: Vec<(u64, u64)> = set
                .schedule
                .drain()
                .map(|Reverse((due, id))| (id, due))
                .collect();
            due.sort_unstable();
            let clients = set
                .clients
                .into_iter()
                .zip(due)
                .map(|(c, (id, due))| (id, c, due))
                .collect();
            LinearScan {
                arrivals: plan.arrivals,
                clients,
            }
        }

        fn next_request(&mut self) -> Option<Pending> {
            let (id, c, due) = self
                .clients
                .iter_mut()
                .filter(|(_, c, _)| c.left > 0)
                .min_by_key(|(id, _, due)| (*due, *id))?;
            c.left -= 1;
            let pending = Pending {
                client: *id,
                due: Cycles::new(*due),
                op: c.op(),
            };
            *due = u64::MAX;
            Some(pending)
        }

        fn complete(&mut self, client: u64, due: Cycles, now: Cycles) -> Cycles {
            let (_, _, next) = self
                .clients
                .iter_mut()
                .find(|(id, _, _)| *id == client)
                .expect("known client");
            *next = match self.arrivals {
                Arrivals::Closed { think } => now.as_u64() + think.as_u64(),
                Arrivals::Open { period } => due.as_u64() + period.as_u64(),
            };
            Cycles::new(now.as_u64().saturating_sub(due.as_u64()))
        }
    }

    #[test]
    fn heap_issues_requests_in_the_linear_scan_order() {
        let arrivals = [
            Arrivals::Closed {
                think: Cycles::new(1000),
            },
            Arrivals::Open {
                period: Cycles::new(700),
            },
        ];
        for seed in [1u64, 7, 42] {
            for arrivals in arrivals {
                let p = LoadPlan {
                    clients: 37,
                    reqs_per_client: 9,
                    seed,
                    arrivals,
                };
                for parts in [1u64, 4] {
                    for part in 0..parts {
                        let mut set = ClientSet::partition(&p, part, parts);
                        let mut reference = LinearScan::partition(&p, part, parts);
                        // One request in flight, served after a seeded
                        // service time that is often zero, so completions
                        // tie with other clients' due times.
                        let mut service = Rng::new(seed ^ part);
                        let mut now = 0u64;
                        let mut issued = 0u64;
                        loop {
                            let got = set.next_request();
                            assert_eq!(got, reference.next_request(), "seed {seed} {part}/{parts}");
                            let Some(req) = got else { break };
                            issued += 1;
                            now = now.max(req.due.as_u64()) + service.next_below(4) * 250;
                            let done = Cycles::new(now);
                            assert_eq!(
                                set.complete(req.client, req.due, done),
                                reference.complete(req.client, req.due, done)
                            );
                        }
                        let held = (part..p.clients).step_by(parts as usize).count() as u64;
                        assert_eq!(issued, held * p.reqs_per_client);
                        assert_eq!(set.remaining(), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn mix_is_read_heavy_with_occasional_scans() {
        let mut set = ClientSet::new(&plan(64, 64));
        let (mut gets, mut puts, mut scans) = (0u64, 0u64, 0u64);
        while let Some(p) = set.next_request() {
            match p.op {
                KvOp::Get { key } => {
                    assert!(key < KEYS);
                    gets += 1;
                }
                KvOp::Put { key, .. } => {
                    assert!(key < KEYS);
                    puts += 1;
                }
                KvOp::Scan => scans += 1,
            }
            let due = p.due;
            set.complete(p.client, due, due);
        }
        assert_eq!(gets + puts + scans, 64 * 64);
        assert!(gets > puts && puts > scans, "{gets}/{puts}/{scans}");
        assert!(scans > 0, "the mix must exercise scans");
    }
}
