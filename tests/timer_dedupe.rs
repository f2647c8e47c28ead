//! Timer-wheel churn regression (its own binary: gauges are per-process).
//!
//! `with_deadline` re-registers its deadline on every pending poll — a
//! one-shot registration would go stale if the raced future is later
//! polled through a different waker. Without a dedupe, a race whose
//! inner future is re-polled N times before settling would push N
//! identical `(deadline, task)` entries into the timer heap; the fig4
//! sweep's raced service calls are exactly this shape whenever their wait
//! is woken spuriously. The dedupe lives in `with_deadline`: it keeps the
//! waker it armed the deadline with and skips the re-registration while
//! polls come through that same waker (`Waker::will_wake`), counting each
//! skip in `timers_deduped`.
//!
//! The pinned scenario is a consumer racing one far deadline against a
//! chatty producer: every item the producer posts re-polls the pending
//! race, and all but the first registration of the unchanged deadline
//! must be deduped. The counts are exact, so any regression in either
//! the re-arm (deduped count drops) or the dedupe (scheduled count
//! rises) fails the pin.

use std::cell::Cell;
use std::rc::Rc;

use m3_base::Cycles;
use m3_sim::{gauges, with_deadline, Notify, Sim, SimState};

/// Items the producer posts before the consumer's predicate turns true.
const ITEMS: u64 = 64;

/// Cycles between consecutive producer posts.
const STEP: u64 = 10;

/// The raced deadline: far beyond the producer's last post, so the race
/// stays pending (and keeps re-registering it) for the whole run.
const DEADLINE: u64 = 1_000_000;

fn chatty_race() -> (SimState, Option<u64>) {
    let sim = Sim::new();
    let count = Rc::new(Cell::new(0u64));
    let ready = Rc::new(Notify::new());

    {
        let sim2 = sim.clone();
        let (count, ready) = (count.clone(), ready.clone());
        sim.spawn("producer", async move {
            for _ in 0..ITEMS {
                sim2.sleep(Cycles::new(STEP)).await;
                count.set(count.get() + 1);
                ready.notify_all();
            }
        });
    }

    let out = Rc::new(Cell::new(None));
    {
        let sim2 = sim.clone();
        let out = out.clone();
        sim.spawn("consumer", async move {
            let got = with_deadline(&sim2, Cycles::new(DEADLINE), async {
                while count.get() < ITEMS {
                    ready.wait().await;
                }
                count.get()
            })
            .await;
            out.set(Some(got));
        });
    }

    let state = sim.run();
    (state, out.get().flatten())
}

#[test]
fn unchanged_deadlines_are_not_rescheduled() {
    let before = gauges::snapshot();
    let (state, got) = chatty_race();
    let delta = gauges::snapshot().since(&before);
    assert_eq!(state, SimState::Finished);
    assert_eq!(got, Some(ITEMS), "consumer must win the race");

    // Exact split: ITEMS producer sleeps plus the race's single armed
    // deadline are scheduled; every one of the ITEMS - 1 re-polls of the
    // still-pending race re-registered the unchanged deadline and was
    // deduped instead of pushed.
    assert_eq!(
        delta.timers_scheduled,
        ITEMS + 1,
        "scheduled count drifted (deduped {})",
        delta.timers_deduped
    );
    assert_eq!(
        delta.timers_deduped,
        ITEMS - 1,
        "re-polls of the pending race stopped re-arming (scheduled {})",
        delta.timers_scheduled
    );

    // Regression pin in the ISSUE's terms: before the fix every deduped
    // wake-up was a scheduled timer, i.e. timers_scheduled would sit at
    // the sum. The scheduled count must stay strictly below it.
    let pre_fix = delta.timers_scheduled + delta.timers_deduped;
    assert!(
        delta.timers_scheduled < pre_fix,
        "timers_scheduled ({}) did not drop below the pre-fix level ({})",
        delta.timers_scheduled,
        pre_fix
    );
}
