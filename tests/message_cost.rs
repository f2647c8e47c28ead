//! Executor cost of one DTU message round trip, pinned exactly (its own
//! binary: gauges are per-process).
//!
//! A send and its reply each end in a delivery, and the reply also
//! refills the sender's credit. All three are timer callbacks
//! (`Sim::call_at`), not tasks: they spawn nothing and are never polled.
//! What a round trip still costs is the two programs' own polls and one
//! timer per modelled delay, most of which resume their task in place
//! instead of going onto the timer heap. The pin compares runs of `ROUNDS` and
//! `2 * ROUNDS` round trips, so set-up costs cancel and only the
//! per-round-trip cost remains; any task, poll or timer added to the
//! message path fails it.

use m3_base::{EpId, PeId};
use m3_dtu::{DtuSystem, EpConfig};
use m3_noc::{Noc, NocConfig, Topology};
use m3_sim::gauges::{self, Gauges};
use m3_sim::{Sim, SimState};

/// Round trips of the shorter run.
const ROUNDS: u64 = 16;

/// Tasks spawned per round trip: the two deliveries and the credit
/// refill spawn none.
const TASKS_PER_ROUND_TRIP: u64 = 0;

/// Polls per round trip: the client's and the server's own.
const POLLS_PER_ROUND_TRIP: u64 = 8;

/// Timers per round trip: one per modelled delay (command issues, fetch
/// polls, deliveries, credit refill).
const TIMERS_PER_ROUND_TRIP: u64 = 9;

/// Of those timers, the ones whose task resumed in place because its
/// wake-up was the next event: the programs' own sleeps. The deliveries
/// and the credit refill are callbacks and stay on the heap.
const TIMERS_INLINED_PER_ROUND_TRIP: u64 = 6;

/// Runs `rounds` ping-pong round trips between a client program on PE1
/// and a server program on PE2 and returns the executor gauges the run
/// added.
fn round_trips(rounds: u64) -> Gauges {
    let before = gauges::snapshot();
    let sim = Sim::new();
    let sys = DtuSystem::new(
        sim.clone(),
        Noc::new(Topology::with_nodes(3), NocConfig::default()),
    );
    let kernel = sys.dtu(PeId::new(0)).claim_kernel_token().unwrap();
    let recv = EpConfig::Receive {
        slots: 4,
        slot_size: 256,
        allow_replies: true,
    };
    kernel
        .configure(PeId::new(2), EpId::new(0), recv.clone())
        .unwrap();
    kernel.configure(PeId::new(1), EpId::new(1), recv).unwrap();
    kernel
        .configure(
            PeId::new(1),
            EpId::new(0),
            EpConfig::Send {
                pe: PeId::new(2),
                ep: EpId::new(0),
                label: 1,
                credits: Some(1),
                max_payload: 128,
            },
        )
        .unwrap();

    let server = sys.dtu(PeId::new(2));
    sim.spawn("server", async move {
        for _ in 0..rounds {
            let msg = server.recv(EpId::new(0)).await.unwrap();
            server.reply(&msg, b"pong").await.unwrap();
            server.ack(EpId::new(0)).unwrap();
        }
    });
    let client = sys.dtu(PeId::new(1));
    sim.spawn("client", async move {
        for _ in 0..rounds {
            client
                .send(EpId::new(0), b"ping", Some((EpId::new(1), 2)))
                .await
                .unwrap();
            let reply = client.recv(EpId::new(1)).await.unwrap();
            assert_eq!(reply.payload, b"pong");
            client.ack(EpId::new(1)).unwrap();
        }
    });
    assert_eq!(sim.run(), SimState::Finished);
    assert_eq!(sys.dtu(PeId::new(1)).credits(EpId::new(0)), Some(1));
    gauges::snapshot().since(&before)
}

#[test]
fn a_round_trip_spawns_no_task_and_costs_pinned_polls_and_timers() {
    let short = round_trips(ROUNDS);
    let long = round_trips(2 * ROUNDS);
    // Only the two programs are tasks, however many messages flow.
    assert_eq!(short.tasks_spawned, 2);
    assert_eq!(long.tasks_spawned, 2);
    let per = |f: fn(&Gauges) -> u64| {
        let extra = f(&long) - f(&short);
        assert_eq!(extra % ROUNDS, 0, "cost is not linear in round trips");
        extra / ROUNDS
    };
    assert_eq!(per(|g| g.tasks_spawned), TASKS_PER_ROUND_TRIP);
    assert_eq!(per(|g| g.task_polls), POLLS_PER_ROUND_TRIP);
    assert_eq!(per(|g| g.timers_scheduled), TIMERS_PER_ROUND_TRIP);
    assert_eq!(per(|g| g.timers_inlined), TIMERS_INLINED_PER_ROUND_TRIP);
}
