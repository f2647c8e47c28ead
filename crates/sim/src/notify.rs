//! An edge-triggered wait/notify primitive for simulated tasks.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A condition-variable-like notification primitive.
///
/// Like a condition variable, a notification is only delivered to tasks that
/// are *already waiting*: callers must check their predicate before waiting
/// and re-check it afterwards. In this single-threaded executor there is no
/// window between the predicate check and the `wait().await` registration, so
/// the usual lost-wakeup loop is all that is needed:
///
/// ```
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use m3_sim::{Notify, Sim};
///
/// let sim = Sim::new();
/// let flag = Rc::new(Cell::new(false));
/// let cond = Notify::new();
///
/// let (f2, c2, s2) = (flag.clone(), cond.clone(), sim.clone());
/// let waiter = sim.spawn("waiter", async move {
///     while !f2.get() {
///         c2.wait().await;
///     }
///     s2.now()
/// });
///
/// let (f3, c3, s3) = (flag, cond, sim.clone());
/// sim.spawn("setter", async move {
///     s3.sleep(m3_base::Cycles::new(10)).await;
///     f3.set(true);
///     c3.notify_all();
/// });
///
/// sim.run();
/// assert_eq!(waiter.try_take().unwrap(), m3_base::Cycles::new(10));
/// ```
///
/// Each wait draws a ticket at its first poll and queues `(ticket, waker)`;
/// a notification pops entries from the front. Tickets rise in
/// registration order and a cancelled wait takes its entry with it, so a
/// live wait has been woken exactly when the queue no longer holds its
/// ticket, that is when the queue is empty or starts at a later ticket.
/// Waiting allocates nothing once the queue has grown to its peak.
#[derive(Clone, Debug, Default)]
pub struct Notify {
    inner: Rc<RefCell<Waiters>>,
}

#[derive(Debug, Default)]
struct Waiters {
    /// Registered waits, oldest first; tickets strictly increase.
    queue: VecDeque<(u64, Waker)>,
    /// The ticket the next wait draws.
    next: u64,
}

impl Waiters {
    /// Whether the wait holding `ticket` was woken.
    fn woken(&self, ticket: u64) -> bool {
        self.queue.front().is_none_or(|(head, _)| *head > ticket)
    }

    /// The queue index of `ticket`; `None` once it was woken.
    fn index(&self, ticket: u64) -> Option<usize> {
        self.queue.binary_search_by_key(&ticket, |(t, _)| *t).ok()
    }
}

impl Notify {
    /// Creates a notification primitive with no waiters.
    pub fn new() -> Notify {
        Notify::default()
    }

    /// Wakes every task currently waiting.
    pub fn notify_all(&self) {
        // Woken outside the borrow, in registration order; the drained
        // buffer goes back unless a wake-up registered a wait meanwhile.
        let mut woken = std::mem::take(&mut self.inner.borrow_mut().queue);
        for (_, waker) in woken.drain(..) {
            waker.wake();
        }
        let mut w = self.inner.borrow_mut();
        if w.queue.is_empty() {
            w.queue = woken;
        }
    }

    /// Wakes at most one waiting task (the longest-waiting one).
    pub fn notify_one(&self) {
        let first = self.inner.borrow_mut().queue.pop_front();
        if let Some((_, waker)) = first {
            waker.wake();
        }
    }

    /// Returns a future that completes at the next notification.
    pub fn wait(&self) -> Wait {
        Wait {
            notify: self.clone(),
            ticket: None,
        }
    }

    /// Number of tasks currently waiting (diagnostics only).
    pub fn waiter_count(&self) -> usize {
        self.inner.borrow().queue.len()
    }
}

/// Future returned by [`Notify::wait`].
#[derive(Debug)]
pub struct Wait {
    notify: Notify,
    /// Drawn at the first poll.
    ticket: Option<u64>,
}

impl Future for Wait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut w = this.notify.inner.borrow_mut();
        let Some(ticket) = this.ticket else {
            let ticket = w.next;
            w.next += 1;
            w.queue.push_back((ticket, cx.waker().clone()));
            this.ticket = Some(ticket);
            return Poll::Pending;
        };
        if w.woken(ticket) {
            return Poll::Ready(());
        }
        // Re-polled before its notification, perhaps under another waker:
        // the notification must wake whoever polled last.
        if let Some(i) = w.index(ticket) {
            let waker = &mut w.queue[i].1;
            if !waker.will_wake(cx.waker()) {
                waker.clone_from(cx.waker());
            }
        }
        Poll::Pending
    }
}

impl Drop for Wait {
    fn drop(&mut self) {
        // Deregister if the wait was cancelled (e.g. by a select), so the
        // queue does not grow without bound and a later notification is
        // not spent on it.
        if let Some(ticket) = self.ticket {
            let mut w = self.notify.inner.borrow_mut();
            if let Some(i) = w.index(ticket) {
                w.queue.remove(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;
    use m3_base::Cycles;
    use std::cell::Cell;
    use std::sync::{Arc, Mutex};
    use std::task::Wake;

    #[test]
    fn notify_all_wakes_every_waiter() {
        let sim = Sim::new();
        let cond = Notify::new();
        let count = Rc::new(Cell::new(0));
        for i in 0..3 {
            let cond = cond.clone();
            let count = count.clone();
            sim.spawn(format!("w{i}"), async move {
                cond.wait().await;
                count.set(count.get() + 1);
            });
        }
        let cond2 = cond.clone();
        let sim2 = sim.clone();
        sim.spawn("notifier", async move {
            sim2.sleep(Cycles::new(5)).await;
            cond2.notify_all();
        });
        sim.run();
        assert_eq!(count.get(), 3);
    }

    #[test]
    fn notify_one_wakes_exactly_one() {
        let sim = Sim::new();
        let cond = Notify::new();
        let count = Rc::new(Cell::new(0));
        for i in 0..3 {
            let cond = cond.clone();
            let count = count.clone();
            sim.spawn(format!("w{i}"), async move {
                cond.wait().await;
                count.set(count.get() + 1);
            });
        }
        let cond2 = cond.clone();
        let sim2 = sim.clone();
        sim.spawn("notifier", async move {
            sim2.sleep(Cycles::new(5)).await;
            cond2.notify_one();
        });
        // Two waiters remain stalled.
        match sim.run() {
            crate::SimState::Stalled(names) => assert_eq!(names.len(), 2),
            other => panic!("expected stall, got {other:?}"),
        }
        assert_eq!(count.get(), 1);
    }

    #[test]
    fn notification_before_wait_is_lost() {
        let sim = Sim::new();
        let cond = Notify::new();
        cond.notify_all(); // nobody waiting: no-op
        let cond2 = cond.clone();
        sim.spawn("late-waiter", async move {
            cond2.wait().await;
        });
        assert!(matches!(sim.run(), crate::SimState::Stalled(_)));
    }

    /// A waker that logs its id to a shared list each time it is woken.
    struct Logged {
        id: usize,
        log: Arc<Mutex<Vec<usize>>>,
    }

    impl Wake for Logged {
        fn wake(self: Arc<Self>) {
            self.log.lock().expect("log").push(self.id);
        }
    }

    fn logged(id: usize, log: &Arc<Mutex<Vec<usize>>>) -> Waker {
        Waker::from(Arc::new(Logged {
            id,
            log: log.clone(),
        }))
    }

    fn poll(wait: &mut Wait, waker: &Waker) -> Poll<()> {
        Pin::new(wait).poll(&mut Context::from_waker(waker))
    }

    fn woken(log: &Arc<Mutex<Vec<usize>>>) -> Vec<usize> {
        std::mem::take(&mut *log.lock().expect("log"))
    }

    #[test]
    fn a_wait_first_polled_after_a_notification_misses_it() {
        let cond = Notify::new();
        let log = Arc::default();
        let mut wait = cond.wait();
        cond.notify_all();
        assert_eq!(poll(&mut wait, &logged(0, &log)), Poll::Pending);
        assert_eq!(woken(&log), Vec::<usize>::new());
        cond.notify_all();
        assert_eq!(woken(&log), [0]);
        assert_eq!(poll(&mut wait, &logged(0, &log)), Poll::Ready(()));
    }

    #[test]
    fn a_cancelled_wait_deregisters_and_takes_no_notification() {
        let cond = Notify::new();
        let log = Arc::default();
        let mut waits: Vec<Wait> = (0..3).map(|_| cond.wait()).collect();
        for (id, wait) in waits.iter_mut().enumerate() {
            assert_eq!(poll(wait, &logged(id, &log)), Poll::Pending);
        }
        assert_eq!(cond.waiter_count(), 3);
        let mut last = waits.pop().expect("three waits");
        drop(waits.remove(0));
        assert_eq!(cond.waiter_count(), 2);
        // The longest waiter left is wait 1.
        cond.notify_one();
        assert_eq!(woken(&log), [1]);
        drop(waits);
        assert_eq!(cond.waiter_count(), 1);
        cond.notify_one();
        assert_eq!(woken(&log), [2]);
        assert_eq!(poll(&mut last, &logged(2, &log)), Poll::Ready(()));
        drop(last);
        assert_eq!(cond.waiter_count(), 0);
    }

    #[test]
    fn notify_one_wakes_only_the_longest_waiter() {
        let cond = Notify::new();
        let log = Arc::default();
        let mut waits: Vec<Wait> = (0..3).map(|_| cond.wait()).collect();
        for (id, wait) in waits.iter_mut().enumerate() {
            assert_eq!(poll(wait, &logged(id, &log)), Poll::Pending);
        }
        cond.notify_one();
        assert_eq!(woken(&log), [0]);
        let states: Vec<Poll<()>> = (0..3)
            .map(|id| poll(&mut waits[id], &logged(id, &log)))
            .collect();
        assert_eq!(states, [Poll::Ready(()), Poll::Pending, Poll::Pending]);
        assert_eq!(cond.waiter_count(), 2);
    }

    #[test]
    fn a_repoll_under_another_waker_wakes_through_the_new_one() {
        let cond = Notify::new();
        let log = Arc::default();
        let mut wait = cond.wait();
        assert_eq!(poll(&mut wait, &logged(0, &log)), Poll::Pending);
        assert_eq!(poll(&mut wait, &logged(1, &log)), Poll::Pending);
        assert_eq!(cond.waiter_count(), 1);
        cond.notify_all();
        assert_eq!(woken(&log), [1]);
    }

    #[test]
    fn waiters_wake_in_registration_order() {
        let cond = Notify::new();
        let log = Arc::default();
        // Created in one order, first polled (registered) in another.
        let mut waits: Vec<Wait> = (0..4).map(|_| cond.wait()).collect();
        for id in [2, 0, 3, 1] {
            assert_eq!(poll(&mut waits[id], &logged(id, &log)), Poll::Pending);
        }
        cond.notify_all();
        assert_eq!(woken(&log), [2, 0, 3, 1]);
        // The reused buffer keeps the order for the next round.
        for id in [1, 3] {
            let mut wait = cond.wait();
            assert_eq!(poll(&mut wait, &logged(id, &log)), Poll::Pending);
            waits.push(wait);
        }
        cond.notify_one();
        cond.notify_all();
        assert_eq!(woken(&log), [1, 3]);
    }

    #[test]
    fn waiter_count_tracks_registration() {
        let sim = Sim::new();
        let cond = Notify::new();
        let cond2 = cond.clone();
        sim.spawn("w", async move {
            cond2.wait().await;
        });
        let cond3 = cond.clone();
        let sim2 = sim.clone();
        sim.spawn("check", async move {
            sim2.sleep(Cycles::new(1)).await;
            assert_eq!(cond3.waiter_count(), 1);
            cond3.notify_all();
            assert_eq!(cond3.waiter_count(), 0);
        });
        assert_eq!(sim.run(), crate::SimState::Finished);
    }
}
