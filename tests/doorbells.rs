//! Per-VPE doorbells on a time-multiplexed PE (DESIGN.md §5f).
//!
//! A switched-out VPE waits on its own doorbell, not on its PE's DTU
//! arrival notify: only deposits into its save area and schedule
//! transitions of its PE wake it. Four clients share application PE 3;
//! the driver on PE 2 answers their requests at fixed cycles, and the test
//! inspects the notifies between run slices.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use m3::{System, SystemConfig};
use m3_base::{Cycles, PeId, VpeId};
use m3_kernel::protocol::PeRequest;
use m3_libos::{RecvGate, SendGate, Vpe};
use m3_sim::SimState;

const APP_PE: PeId = PeId::new(3);
const CLIENTS: u8 = 4;
/// The driver answers one client's side request here...
const SIDE_REPLY_AT: Cycles = Cycles::new(3_000_000);
/// ...and every client's main request here.
const MAIN_REPLY_AT: Cycles = Cycles::new(4_000_000);

#[test]
fn a_parked_vpe_wakes_only_for_its_own_messages() {
    let sys = System::boot(SystemConfig {
        pes: 4,
        overcommit: true,
        ..SystemConfig::default()
    });
    let ids: Rc<RefCell<Vec<VpeId>>> = Rc::default();
    // Which client the side reply goes to; the test picks a parked one.
    let target = Rc::new(Cell::new(usize::MAX));
    let (ids2, target2) = (ids.clone(), target.clone());
    let driver = sys.run_program("driver", move |env| async move {
        let rgate = RecvGate::new(&env, 16, 64).await.unwrap();
        let sgate = SendGate::new(&env, &rgate, 0, 0).await.unwrap();
        let mut vpes = Vec::new();
        for i in 0..CLIENTS {
            let vpe = Vpe::new(&env, &format!("c{i}"), PeRequest::Any)
                .await
                .unwrap();
            assert_eq!(vpe.pe(), APP_PE, "all clients share one PE");
            ids2.borrow_mut().push(vpe.id());
            let to_driver = vpe.delegate(sgate.sel()).await.unwrap();
            vpe.run(move |cenv| async move {
                // Two requests: the side one is answered on a gate nobody
                // waits on, the main one on the gate the client blocks in.
                let side = RecvGate::new(&cenv, 2, 64).await.unwrap();
                let main = RecvGate::new(&cenv, 2, 64).await.unwrap();
                let gate = SendGate::bind(&cenv, to_driver);
                gate.send(&[i, 0], Some((&side, 0))).await.unwrap();
                gate.send(&[i, 1], Some((&main, 0))).await.unwrap();
                let reply = main.recv().await.unwrap();
                i64::from(reply.payload[0])
            })
            .await
            .unwrap();
            vpes.push(vpe);
        }
        let mut side = Vec::new();
        let mut main = Vec::new();
        for _ in 0..2 * CLIENTS {
            let msg = rgate.recv().await.unwrap();
            let (client, kind) = (usize::from(msg.payload[0]), msg.payload[1]);
            let list = if kind == 0 { &mut side } else { &mut main };
            list.push((client, msg));
        }
        side.sort_by_key(|(c, _)| *c);
        main.sort_by_key(|(c, _)| *c);
        env.sim().sleep_until(SIDE_REPLY_AT).await;
        let (_, msg) = &side[target2.get()];
        env.dtu().reply(msg, b"side").await.unwrap();
        env.sim().sleep_until(MAIN_REPLY_AT).await;
        for (client, msg) in &main {
            env.dtu().reply(msg, &[10 + *client as u8]).await.unwrap();
        }
        let mut sum = 0;
        for vpe in &vpes {
            sum += vpe.wait().await.unwrap();
        }
        sum
    });

    // Every client has sent both requests and blocked on its main gate.
    assert_eq!(
        sys.sim().run_until(SIDE_REPLY_AT - Cycles::new(1)),
        SimState::TimeLimit
    );
    let tok = sys
        .platform()
        .dtu(PeId::new(0))
        .claim_kernel_token()
        .unwrap();
    let arrival = tok.arrival_notify(APP_PE).unwrap();
    let bells: Vec<_> = ids
        .borrow()
        .iter()
        .map(|id| tok.ctx_doorbell(APP_PE, u64::from(id.raw())).unwrap())
        .collect();
    assert_eq!(bells.len(), usize::from(CLIENTS));
    // The resident blocks in place on the PE's arrival notify; the three
    // switched-out clients each wait on their own doorbell.
    assert!(
        arrival.waiter_count() <= 1,
        "only the resident waits for arrivals"
    );
    let waiting: Vec<usize> = bells.iter().map(|b| b.waiter_count()).collect();
    assert_eq!(
        waiting.iter().filter(|n| **n == 1).count(),
        3,
        "{waiting:?}"
    );
    assert_eq!(
        waiting.iter().filter(|n| **n == 0).count(),
        1,
        "{waiting:?}"
    );
    let parked = waiting.iter().position(|n| *n == 1).unwrap();
    target.set(parked);

    // Count every ring of every doorbell from here on.
    let rings: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![0; bells.len()]));
    for (i, bell) in bells.iter().enumerate() {
        let (bell, rings) = (bell.clone(), rings.clone());
        sys.sim().spawn_daemon(format!("spy{i}"), async move {
            loop {
                bell.wait().await;
                rings.borrow_mut()[i] += 1;
            }
        });
    }
    // The side reply lands in the target's save area on a gate it does not
    // wait on: its doorbell rings once, nobody else's, and nothing moves.
    assert_eq!(
        sys.sim().run_until(MAIN_REPLY_AT - Cycles::new(1)),
        SimState::TimeLimit
    );
    let mut expect = vec![0; bells.len()];
    expect[parked] = 1;
    assert_eq!(*rings.borrow(), expect);
    assert!(arrival.waiter_count() <= 1);

    // The main replies unpark everyone; each unpark and switch rings all.
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(
        driver.try_take(),
        Some((0..i64::from(CLIENTS)).map(|i| 10 + i).sum())
    );
    assert!(
        rings.borrow().iter().all(|n| *n > 1),
        "{:?}",
        rings.borrow()
    );
    assert!(sys.kernel().ctx_switches(APP_PE) > 0);
    // Exited contexts leave no doorbell behind: a fresh one has no waiter
    // and is not the one the spies hold.
    let id = ids.borrow()[parked];
    let fresh = tok.ctx_doorbell(APP_PE, u64::from(id.raw())).unwrap();
    assert_eq!(fresh.waiter_count(), 0);
}

#[test]
fn a_lone_parked_vpe_claims_its_vacated_pe() {
    // `a` parks waiting for a reply while `b` runs; `b` exits, leaving the
    // PE vacant, and only then does `a`'s reply land in its save area.
    // Nothing else happens on the PE, so `a` must claim the vacancy on the
    // check its own doorbell triggered.
    let sys = System::boot(SystemConfig {
        pes: 4,
        overcommit: true,
        ..SystemConfig::default()
    });
    let driver = sys.run_program("driver", move |env| async move {
        let rgate = RecvGate::new(&env, 4, 64).await.unwrap();
        let sgate = SendGate::new(&env, &rgate, 0, 0).await.unwrap();
        let a = Vpe::new(&env, "a", PeRequest::Any).await.unwrap();
        let b = Vpe::new(&env, "b", PeRequest::Any).await.unwrap();
        assert_eq!((a.pe(), b.pe()), (APP_PE, APP_PE));
        let to_driver = a.delegate(sgate.sel()).await.unwrap();
        a.run(move |cenv| async move {
            let main = RecvGate::new(&cenv, 2, 64).await.unwrap();
            let gate = SendGate::bind(&cenv, to_driver);
            gate.send(&[1], Some((&main, 0))).await.unwrap();
            let reply = main.recv().await.unwrap();
            i64::from(reply.payload[0])
        })
        .await
        .unwrap();
        b.run(move |cenv| async move {
            cenv.compute(Cycles::new(500_000)).await;
            5
        })
        .await
        .unwrap();
        let msg = rgate.recv().await.unwrap();
        env.sim().sleep(Cycles::new(3_000_000)).await;
        env.dtu().reply(&msg, &[7]).await.unwrap();
        a.wait().await.unwrap() + b.wait().await.unwrap()
    });
    assert_eq!(sys.run(), SimState::Finished);
    assert_eq!(driver.try_take(), Some(12));
    assert!(sys.kernel().ctx_switches(APP_PE) >= 2, "a came back");
}
