//! Deliveries and credit refills travelling the NoC. Each waits in a slot
//! of [`Arrivals`] until its timer fires the fabric's one [`Handler`] with
//! the slot's token: neither the timer nor the arrival allocates once the
//! slots have grown to their peak.
//!
//! [`Handler`]: m3_sim::Handler

use m3_base::{Cycles, EpId, PeId};

use super::DtuSystem;
use crate::message::Message;

/// What an arrival does when its timer fires.
enum Arrival {
    Deposit {
        pe: PeId,
        ep: EpId,
        msg: Message,
        ctx: Option<u64>,
        credit: Option<(PeId, u64, EpId)>,
    },
    Refill {
        pe: PeId,
        ctx: u64,
        ep: EpId,
    },
}

/// The arrivals whose timers are armed, each in a slot named by its
/// timer's token. A freed slot is the next one reused.
#[derive(Default)]
pub(super) struct Arrivals {
    slots: Vec<Option<Arrival>>,
    free: Vec<usize>,
}

impl Arrivals {
    fn park(&mut self, arrival: Arrival) -> u64 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(arrival);
                slot
            }
            None => {
                self.slots.push(Some(arrival));
                self.slots.len() - 1
            }
        };
        slot as u64
    }

    /// Empties slot `token`; `None` if it is empty, which an armed token
    /// never finds, since each fires once.
    fn unpark(&mut self, token: u64) -> Option<Arrival> {
        let slot = token as usize;
        let arrival = self.slots.get_mut(slot)?.take()?;
        self.free.push(slot);
        Some(arrival)
    }
}

impl DtuSystem {
    /// Deposits `msg` at `at` (see [`DtuSystem::deposit`]): a timer
    /// event, not a task.
    pub(super) fn deliver_at(
        &self,
        at: Cycles,
        pe: PeId,
        ep: EpId,
        msg: Message,
        ctx: Option<u64>,
        credit: Option<(PeId, u64, EpId)>,
    ) {
        let arrival = Arrival::Deposit {
            pe,
            ep,
            msg,
            ctx,
            credit,
        };
        self.arrive_at(at, arrival);
    }

    /// Refills one credit of `(pe, ctx, ep)` at `at`.
    pub(super) fn refill_credit_at(&self, at: Cycles, pe: PeId, ctx: u64, ep: EpId) {
        self.arrive_at(at, Arrival::Refill { pe, ctx, ep });
    }

    /// Arms the fabric's handler to carry out `arrival` at `at`.
    fn arrive_at(&self, at: Cycles, arrival: Arrival) {
        let token = self.inner.arrivals.borrow_mut().park(arrival);
        self.inner.sim.post_at(at, self.inner.arrive, token);
    }

    /// Carries out the arrival in slot `token`: the handler's body.
    // m3lint: allow(cycle-accounting): the arrival time is the end of the NoC transfer the sending command scheduled and charged
    pub(super) fn arrive(&self, token: u64) {
        let arrival = self.inner.arrivals.borrow_mut().unpark(token);
        match arrival {
            Some(Arrival::Deposit {
                pe,
                ep,
                msg,
                ctx,
                credit,
            }) => self.deposit(pe, ep, msg, ctx, credit),
            Some(Arrival::Refill { pe, ctx, ep }) => self.refill_credit(pe, ctx, ep),
            None => {}
        }
    }
}
