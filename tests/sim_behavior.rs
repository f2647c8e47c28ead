//! Extra behavioural tests of the simulation engine: the guarantees the
//! rest of the workspace silently relies on.

use std::cell::Cell;
use std::rc::Rc;

use m3_base::{Cycles, PeId};
use m3_sim::{EventKind, Notify, Sim, SimState};

#[test]
fn settle_drains_daemon_timers_but_not_waits() {
    let sim = Sim::new();
    let fired = Rc::new(Cell::new(false));
    let fired2 = fired.clone();
    let sim2 = sim.clone();
    let gate = Notify::new();
    let gate2 = gate.clone();
    sim.spawn_daemon("late-worker", async move {
        sim2.sleep(Cycles::new(500)).await;
        fired2.set(true);
        // Then block forever on a notification.
        gate2.wait().await;
    });
    // No regular tasks: run() finishes immediately at cycle 0.
    assert_eq!(sim.run(), SimState::Finished);
    assert!(!fired.get());
    // settle() lets the timer fire, then stops at the notification wait.
    sim.settle(Cycles::new(10_000));
    assert!(fired.get());
    assert!(sim.now() >= Cycles::new(500));
    drop(gate);
}

#[test]
fn settle_respects_its_slack_budget() {
    let sim = Sim::new();
    let sim2 = sim.clone();
    let progressed = Rc::new(Cell::new(0u32));
    let p2 = progressed.clone();
    sim.spawn_daemon("ticker", async move {
        loop {
            sim2.sleep(Cycles::new(1_000)).await;
            p2.set(p2.get() + 1);
        }
    });
    sim.run();
    sim.settle(Cycles::new(5_500));
    // Only the ticks within the slack window fired.
    assert_eq!(progressed.get(), 5);
    assert!(sim.now() <= Cycles::new(5_500));
}

#[test]
fn run_can_resume_after_finish_with_new_tasks() {
    let sim = Sim::new();
    let h1 = sim.spawn("first", {
        let sim = sim.clone();
        async move {
            sim.sleep(Cycles::new(10)).await;
            1
        }
    });
    assert_eq!(sim.run(), SimState::Finished);
    assert_eq!(h1.try_take(), Some(1));
    let t_mid = sim.now();
    // Spawning later continues on the same clock.
    let h2 = sim.spawn("second", {
        let sim = sim.clone();
        async move {
            sim.sleep(Cycles::new(5)).await;
            2
        }
    });
    assert_eq!(sim.run(), SimState::Finished);
    assert_eq!(h2.try_take(), Some(2));
    assert_eq!(sim.now(), t_mid + Cycles::new(5));
}

#[test]
fn dropped_wait_deregisters_from_notify() {
    let sim = Sim::new();
    let cond = Notify::new();
    let cond2 = cond.clone();
    let sim2 = sim.clone();
    let h = sim.spawn("selector", async move {
        {
            // Create a wait future, poll it once via a helper task pattern:
            // simplest is to drop it unpolled and after one registration.
            let mut wait = Box::pin(cond2.wait());
            futures_poll_once(&mut wait).await;
            assert_eq!(cond2.waiter_count(), 1);
            // Dropping the future must remove the waiter.
        }
        assert_eq!(cond2.waiter_count(), 0);
        sim2.now().as_u64() as i64
    });
    sim.run();
    assert_eq!(h.try_take(), Some(0));
    drop(cond);
}

/// Polls a future exactly once and returns (regardless of readiness).
async fn futures_poll_once<F: std::future::Future + Unpin>(fut: &mut F) {
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll};

    struct Once<'a, F>(&'a mut F);
    impl<F: std::future::Future + Unpin> Future for Once<'_, F> {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let _ = Pin::new(&mut *self.0).poll(cx);
            Poll::Ready(())
        }
    }
    Once(fut).await
}

#[test]
fn stats_survive_across_runs() {
    let sim = Sim::new();
    let stats = sim.stats();
    let metrics = sim.metrics();
    metrics.add(PeId::new(0), "custom.counter", 2);
    sim.spawn("t", {
        let metrics = metrics.clone();
        async move {
            metrics.add(PeId::new(1), "custom.counter", 3);
        }
    });
    sim.run();
    assert_eq!(stats.get("custom.counter"), 5);
    let snap = sim.metrics().snapshot();
    assert!(snap.contains(&(PeId::new(0), "custom.counter", 2)));
    assert!(snap.contains(&(PeId::new(1), "custom.counter", 3)));
}

#[test]
fn trace_records_spawn_complete_and_time_advances() {
    let sim = Sim::new();
    sim.enable_trace();
    sim.spawn("worker", {
        let sim = sim.clone();
        async move {
            sim.sleep(Cycles::new(25)).await;
        }
    });
    sim.run();
    let trace = sim.trace();
    assert!(trace.iter().any(|e| matches!(
        &e.kind,
        EventKind::TaskSpawn { name, daemon: false } if &**name == "worker"
    )));
    assert!(trace.iter().any(|e| matches!(
        &e.kind,
        EventKind::TaskComplete { name } if &**name == "worker"
    )));
    let advance = trace
        .iter()
        .find(|e| matches!(e.kind, EventKind::ClockAdvance { .. }))
        .expect("the sleep advanced the clock");
    assert_eq!(advance.at, Cycles::new(25));
    // Times are monotone.
    for pair in trace.windows(2) {
        assert!(pair[0].at <= pair[1].at);
    }
}

#[test]
fn trace_is_off_by_default_and_bounded_when_on() {
    let sim = Sim::new();
    sim.spawn("t", async {});
    sim.run();
    assert!(sim.trace().is_empty(), "tracing must be opt-in");

    let sim = Sim::new();
    sim.enable_trace();
    // Far more events than the buffer is allowed to hold.
    const CAP: usize = 64;
    sim.tracer().set_capacity(CAP);
    for i in 0..CAP {
        sim.spawn(format!("t{i}"), async {});
    }
    sim.run();
    let trace = sim.trace();
    assert_eq!(trace.len(), CAP, "buffer must be bounded at its capacity");
    assert!(sim.tracer().dropped() > 0, "overflow must be counted");
    // The oldest records survive; the overflow is dropped, not wrapped.
    assert!(matches!(
        &trace.first().unwrap().kind,
        EventKind::TaskSpawn { .. }
    ));
}
