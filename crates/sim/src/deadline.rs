//! Racing a future against a simulated-time deadline.
//!
//! This is the primitive beneath every timeout in the recovery layer:
//! `recv` with a deadline, `call` with retries, etc. It is safe to race
//! arbitrary sim futures because the executor's wait primitives
//! ([`crate::Notify`]'s guard, [`Sleep`](crate::executor)) deregister
//! themselves on drop — losing the race cannot leave a dangling waker that
//! would later wake a completed task.

use std::future::Future;
use std::task::{Poll, Waker};

use m3_base::Cycles;

use crate::Sim;

/// Polls `fut` to completion unless the simulated clock reaches `deadline`
/// first; returns `None` on timeout.
///
/// The future is polled before the timer on every wake, so a result that is
/// ready exactly at the deadline still wins the race (deterministically).
///
/// The deadline is re-registered on a pending poll whenever the poll's
/// waker differs from the one the armed timer wakes — a one-shot
/// registration would go stale if the future is later polled through a
/// different waker, and the timeout would wake the wrong task. A re-poll
/// through the same waker (`Waker::will_wake`) is the hot path — a raced
/// receive re-polled thousands of times per timeout window — and arms
/// nothing: the armed timer still delivers the identical wake-up, and the
/// skipped registration is counted in `timers_deduped`.
pub async fn with_deadline<F: Future>(sim: &Sim, deadline: Cycles, fut: F) -> Option<F::Output> {
    let mut fut = std::pin::pin!(fut);
    let sim = sim.clone();
    let mut armed: Option<Waker> = None;
    std::future::poll_fn(move |cx| {
        // The deadline timer is armed only once the child is pending, so
        // the child must not resume in place past it.
        if let Poll::Ready(v) = sim.poll_child(|| fut.as_mut().poll(cx)) {
            return Poll::Ready(Some(v));
        }
        let now = sim.now();
        if now >= deadline {
            return Poll::Ready(None);
        }
        match &armed {
            Some(w) if w.will_wake(cx.waker()) => sim.note_timer_deduped(),
            _ => {
                sim.schedule_wake(deadline - now, cx.waker().clone());
                armed = Some(cx.waker().clone());
            }
        }
        Poll::Pending
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Notify, SimState};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn completes_before_deadline() {
        let sim = Sim::new();
        let out = Rc::new(Cell::new(None));
        {
            let sim2 = sim.clone();
            let out = out.clone();
            sim.spawn("racer", async move {
                let got = with_deadline(&sim2, Cycles::new(100), async {
                    sim2.sleep(Cycles::new(10)).await;
                    7u32
                })
                .await;
                out.set(Some(got));
            });
        }
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(out.get(), Some(Some(7)));
        assert_eq!(sim.now(), Cycles::new(10));
    }

    #[test]
    fn times_out_and_clock_rests_at_deadline() {
        let sim = Sim::new();
        let notify = Rc::new(Notify::new());
        let out = Rc::new(Cell::new(None));
        {
            let sim2 = sim.clone();
            let notify = notify.clone();
            let out = out.clone();
            sim.spawn("racer", async move {
                // Nobody ever notifies: the deadline must win.
                let got = with_deadline(&sim2, Cycles::new(50), notify.wait()).await;
                out.set(Some(got.is_none()));
            });
        }
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(out.get(), Some(true));
        assert_eq!(sim.now(), Cycles::new(50));
        // The loser deregistered itself: no leaked waiter.
        assert_eq!(notify.waiter_count(), 0);
    }

    #[test]
    fn rearms_when_polled_through_a_different_waker() {
        // The race is polled once by `first`, which then finishes, and is
        // awaited to the end by `second`. The timer armed with `first`'s
        // waker wakes a dead task; only the re-registration with
        // `second`'s waker gets the timeout delivered.
        type Race = std::pin::Pin<Box<dyn Future<Output = Option<()>>>>;
        let sim = Sim::new();
        let race: Rc<RefCell<Option<Race>>> = {
            let sim2 = sim.clone();
            let fut = async move {
                with_deadline(&sim2, Cycles::new(100), std::future::pending::<()>()).await
            };
            Rc::new(RefCell::new(Some(Box::pin(fut))))
        };
        {
            let race = race.clone();
            sim.spawn("first", async move {
                std::future::poll_fn(|cx| {
                    let mut slot = race.borrow_mut();
                    let pending = slot.as_mut().expect("race").as_mut().poll(cx).is_pending();
                    assert!(pending);
                    Poll::Ready(())
                })
                .await;
            });
        }
        let out = Rc::new(Cell::new(None));
        {
            let (sim2, out) = (sim.clone(), out.clone());
            sim.spawn("second", async move {
                sim2.sleep(Cycles::new(10)).await;
                let fut = race.borrow_mut().take().expect("race");
                out.set(Some((fut.await, sim2.now())));
            });
        }
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(out.get(), Some((None, Cycles::new(100))));
    }

    #[test]
    fn a_lone_sleep_past_the_deadline_times_out_at_the_deadline() {
        // Nothing else is pending when the child sleep is first polled, so
        // it would resume in place at 10 if the race did not turn that off
        // while it polls the child: its own timer to 5 is armed only once
        // the child is pending.
        let sim = Sim::new();
        let out = Rc::new(Cell::new(None));
        {
            let (sim2, out) = (sim.clone(), out.clone());
            sim.spawn("racer", async move {
                let got = with_deadline(&sim2, Cycles::new(5), sim2.sleep(Cycles::new(10))).await;
                out.set(Some((got, sim2.now())));
            });
        }
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(out.get(), Some((None, Cycles::new(5))));
    }

    #[test]
    fn past_deadline_still_gives_the_future_one_poll() {
        let sim = Sim::new();
        let out = Rc::new(Cell::new(None));
        {
            let sim2 = sim.clone();
            let out = out.clone();
            sim.spawn("racer", async move {
                sim2.sleep(Cycles::new(20)).await;
                let got = with_deadline(&sim2, Cycles::new(5), async { 1u32 }).await;
                out.set(Some(got));
            });
        }
        assert_eq!(sim.run(), SimState::Finished);
        assert_eq!(out.get(), Some(Some(1)));
    }
}
