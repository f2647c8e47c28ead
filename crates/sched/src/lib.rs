//! `m3-sched`: kernel-owned time-multiplexing of VPEs onto PEs.
//!
//! The paper runs exactly one application per PE and names context switching
//! via DTU state save/restore as future work (§4.1, §7). This crate supplies
//! the kernel's scheduling *state machine*: a deterministic round-robin run
//! queue per PE with blocked-on-receive parking. A VPE that waits for a
//! message yields its slice (it is *parked*); message arrival at a parked
//! VPE's endpoint marks it runnable again.
//!
//! Every admitted VPE brings a *doorbell*, the notify its waiting task
//! sleeps on; every schedule transition of a PE rings the PE's wake notify
//! and then the doorbell of each VPE on that PE, so a waiter learns of any
//! change to its PE's schedule without watching the PE's other traffic.
//!
//! The scheduler holds no DTU or timing state — the kernel drives the actual
//! DTU save/restore transfers and charges their cycles. This split keeps the
//! policy deterministic and unit-testable: all state lives in `BTreeMap`,
//! `BTreeSet`, `Vec`, and `VecDeque`, so iteration order is fixed.
//!
//! Per-PE lifecycle of a VPE:
//!
//! ```text
//!           admit (slot free)                park, next ready
//!   new ───────────────────────► Resident ────────────────────► Parked
//!    │  admit (slot busy)          ▲   │ yield / vacated            │
//!    └───────────► Ready ──────────┘   └────────► Ready ◄───────────┘
//!                   restore (head of queue)          message arrival
//! ```

pub mod costs;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use m3_base::{PeId, VpeId};
use m3_sim::Notify;

/// Where an admitted VPE landed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The PE had no resident; the VPE runs immediately (no switch cost).
    Resident,
    /// The PE is occupied; the VPE joined the tail of the ready queue.
    Queued,
}

/// What [`Scheduler::remove`] found.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Removal {
    /// The VPE was never admitted; the caller owns the PE exclusively.
    NotManaged,
    /// The VPE was removed from its PE's schedule.
    Removed {
        /// The PE the VPE was scheduled on.
        pe: PeId,
        /// It was the resident at removal time (its live DTU state is the
        /// one to invalidate; non-residents only have a save area).
        was_resident: bool,
        /// No VPE is left on the PE: the kernel may free it.
        now_empty: bool,
    },
}

#[derive(Debug)]
struct Slot {
    resident: Option<VpeId>,
    /// The resident declared itself blocked on a receive (it keeps the PE
    /// only until someone becomes ready).
    blocked: bool,
    /// A save/restore is in flight; the slot is untouchable until
    /// [`Scheduler::finish_switch`] or [`Scheduler::abort_switch`].
    switching: bool,
    ready: VecDeque<VpeId>,
    parked: BTreeSet<VpeId>,
    /// Rung first on every scheduling transition. The kernel passes the
    /// PE's DTU arrival notify, so a resident blocked in place re-polls
    /// after a transition as it does after a message.
    wake: Notify,
    /// The doorbell of every VPE scheduled on the PE, rung after `wake` on
    /// every transition.
    doorbells: BTreeMap<VpeId, Notify>,
}

impl Slot {
    fn new(wake: Notify) -> Slot {
        Slot {
            resident: None,
            blocked: false,
            switching: false,
            ready: VecDeque::new(),
            parked: BTreeSet::new(),
            wake,
            doorbells: BTreeMap::new(),
        }
    }

    /// Announces a transition: the PE's wake notify, then every doorbell in
    /// VPE-id order.
    fn ring(&self) {
        self.wake.notify_all();
        for bell in self.doorbells.values() {
            bell.notify_all();
        }
    }

    fn is_empty(&self) -> bool {
        self.resident.is_none()
            && !self.switching
            && self.ready.is_empty()
            && self.parked.is_empty()
    }
}

/// The kernel's run-queue state for every time-multiplexed PE.
///
/// Only VPEs explicitly admitted here are multiplexed; everything else
/// (kernel, services, pinned roots) keeps its PE exclusively and never pays
/// a switch. All mutating calls are synchronous — the async parts of a
/// switch (charging the DTU transfer) happen in the kernel between
/// [`Scheduler::park_resident`]/[`Scheduler::yield_resident`]/
/// [`Scheduler::claim_vacant`] and [`Scheduler::finish_switch`].
#[derive(Debug, Default)]
pub struct Scheduler {
    slots: BTreeMap<PeId, Slot>,
    /// Which PE each managed VPE is scheduled on (fixed at admission; the
    /// paper binds each VPE to exactly one PE at any point in time, §4.3).
    vpes: BTreeMap<VpeId, PeId>,
}

impl Scheduler {
    /// An empty scheduler: no PE is multiplexed.
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    /// Whether `vpe` is under scheduler control.
    pub fn manages(&self, vpe: VpeId) -> bool {
        self.vpes.contains_key(&vpe)
    }

    /// The PE a managed VPE is scheduled on.
    pub fn pe_of(&self, vpe: VpeId) -> Option<PeId> {
        self.vpes.get(&vpe).copied()
    }

    /// The doorbell `vpe` was admitted with, which its waiter sleeps on.
    pub fn doorbell(&self, vpe: VpeId) -> Option<Notify> {
        let pe = self.pe_of(vpe)?;
        self.slots.get(&pe)?.doorbells.get(&vpe).cloned()
    }

    /// The VPE currently resident on `pe` (none while vacant or mid-switch).
    pub fn resident_of(&self, pe: PeId) -> Option<VpeId> {
        self.slots.get(&pe).and_then(|s| s.resident)
    }

    /// Whether `vpe` is the resident of its PE.
    pub fn is_resident(&self, vpe: VpeId) -> bool {
        self.pe_of(vpe)
            .is_some_and(|pe| self.resident_of(pe) == Some(vpe))
    }

    /// Whether `vpe` waits in its PE's ready queue or is parked there.
    pub fn is_queued(&self, vpe: VpeId) -> bool {
        let slot = self.pe_of(vpe).and_then(|pe| self.slots.get(&pe));
        slot.is_some_and(|s| s.ready.contains(&vpe) || s.parked.contains(&vpe))
    }

    /// Number of VPEs scheduled on `pe` (resident + ready + parked +
    /// mid-switch).
    pub fn load(&self, pe: PeId) -> usize {
        self.vpes.values().filter(|p| **p == pe).count()
    }

    /// Load of every multiplexed PE, in PE order.
    pub fn loads(&self) -> Vec<(PeId, usize)> {
        self.slots.keys().map(|pe| (*pe, self.load(*pe))).collect()
    }

    /// Depth of the ready queue on `pe` (excludes the resident and parked).
    pub fn ready_depth(&self, pe: PeId) -> usize {
        self.slots.get(&pe).map_or(0, |s| s.ready.len())
    }

    /// All VPEs scheduled on `pe`, in VPE-id order.
    pub fn vpes_on(&self, pe: PeId) -> Vec<VpeId> {
        self.vpes
            .iter()
            .filter(|(_, p)| **p == pe)
            .map(|(v, _)| *v)
            .collect()
    }

    /// Admits `vpe` to `pe`. Every transition of this PE's schedule rings
    /// `wake` and then the `doorbell` of each VPE on the PE. The PE's first
    /// admission fixes `wake` (the kernel passes the PE's DTU arrival
    /// notify, which the resident waits on); `doorbell` is the VPE's own
    /// (the kernel passes its context's DTU doorbell, which also rings for
    /// messages deposited into its save area), so a switched-out VPE waits
    /// on it alone.
    ///
    /// # Panics
    ///
    /// Panics if `vpe` is already managed.
    // m3lint: allow(cycle-accounting): scheduler table bookkeeping: the kernel charges the switch protocol (CTX_SAVE/RESTORE + state transfer) around this transition
    pub fn admit(&mut self, vpe: VpeId, pe: PeId, wake: Notify, doorbell: Notify) -> Admission {
        assert!(self.vpes.insert(vpe, pe).is_none(), "{vpe} admitted twice");
        let slot = self.slots.entry(pe).or_insert_with(|| Slot::new(wake));
        slot.doorbells.insert(vpe, doorbell);
        if slot.resident.is_none() && !slot.switching && slot.ready.is_empty() {
            slot.resident = Some(vpe);
            slot.blocked = false;
            // No notify: nothing can be waiting on a slot that was empty.
            Admission::Resident
        } else {
            slot.ready.push_back(vpe);
            slot.ring();
            Admission::Queued
        }
    }

    /// The resident declares itself blocked on a receive. If another VPE is
    /// ready, the resident is parked and the head of the ready queue is
    /// returned — the caller must perform the DTU save/restore and then call
    /// [`Scheduler::finish_switch`]. With nobody ready the resident keeps
    /// the PE (blocked in place, zero cost) and `None` is returned.
    ///
    /// No-op returning `None` if `vpe` is not the resident.
    // m3lint: allow(cycle-accounting): scheduler table bookkeeping: the kernel charges the switch protocol (CTX_SAVE/RESTORE + state transfer) around this transition
    pub fn park_resident(&mut self, vpe: VpeId) -> Option<VpeId> {
        let pe = self.pe_of(vpe)?;
        let slot = self.slots.get_mut(&pe)?;
        if slot.resident != Some(vpe) || slot.switching {
            return None;
        }
        slot.blocked = true;
        let next = slot.ready.pop_front()?;
        slot.resident = None;
        slot.blocked = false;
        slot.switching = true;
        slot.parked.insert(vpe);
        Some(next)
    }

    /// The resident voluntarily offers its slice. If another VPE is ready,
    /// the resident moves to the *tail* of the ready queue (it stays
    /// runnable — this is a yield, not a park) and the head is returned for
    /// the caller to switch to. `None` if nobody is waiting.
    // m3lint: allow(cycle-accounting): scheduler table bookkeeping: the kernel charges the switch protocol (CTX_SAVE/RESTORE + state transfer) around this transition
    pub fn yield_resident(&mut self, vpe: VpeId) -> Option<VpeId> {
        let pe = self.pe_of(vpe)?;
        let slot = self.slots.get_mut(&pe)?;
        if slot.resident != Some(vpe) || slot.switching {
            return None;
        }
        let next = slot.ready.pop_front()?;
        slot.resident = None;
        slot.blocked = false;
        slot.switching = true;
        slot.ready.push_back(vpe);
        Some(next)
    }

    /// Marks a parked VPE runnable again (its message arrived). Returns
    /// `true` if the VPE moved parked → ready. For a blocked *resident* the
    /// blocked flag is cleared instead (it never left the PE).
    // m3lint: allow(cycle-accounting): scheduler table bookkeeping: the kernel charges the switch protocol (CTX_SAVE/RESTORE + state transfer) around this transition
    pub fn unpark(&mut self, vpe: VpeId) -> bool {
        let Some(pe) = self.pe_of(vpe) else {
            return false;
        };
        let Some(slot) = self.slots.get_mut(&pe) else {
            return false;
        };
        if slot.parked.remove(&vpe) {
            slot.ready.push_back(vpe);
            slot.ring();
            return true;
        }
        if slot.resident == Some(vpe) {
            slot.blocked = false;
        }
        false
    }

    /// Clears the resident's blocked flag (its message arrived while it
    /// still held the PE).
    // m3lint: allow(cycle-accounting): scheduler table bookkeeping: the kernel charges the switch protocol (CTX_SAVE/RESTORE + state transfer) around this transition
    pub fn mark_active(&mut self, vpe: VpeId) {
        if let Some(pe) = self.pe_of(vpe) {
            if let Some(slot) = self.slots.get_mut(&pe) {
                if slot.resident == Some(vpe) {
                    slot.blocked = false;
                }
            }
        }
    }

    /// A ready VPE claims a vacant PE (the previous resident exited rather
    /// than switched out). Succeeds only for the *head* of the ready queue —
    /// round-robin order survives vacancies. On success the slot is marked
    /// switching and the caller must restore the VPE's state and call
    /// [`Scheduler::finish_switch`].
    // m3lint: allow(cycle-accounting): scheduler table bookkeeping: the kernel charges the switch protocol (CTX_SAVE/RESTORE + state transfer) around this transition
    pub fn claim_vacant(&mut self, vpe: VpeId) -> bool {
        let Some(pe) = self.pe_of(vpe) else {
            return false;
        };
        let Some(slot) = self.slots.get_mut(&pe) else {
            return false;
        };
        if slot.resident.is_none() && !slot.switching && slot.ready.front() == Some(&vpe) {
            slot.ready.pop_front();
            slot.switching = true;
            return true;
        }
        false
    }

    /// Completes a switch: `vpe` becomes the resident of `pe`. Returns
    /// `false` (leaving the PE vacant) if the VPE was removed while its
    /// restore was in flight. Wakes all waiters either way.
    // m3lint: allow(cycle-accounting): scheduler table bookkeeping: the kernel charges the switch protocol (CTX_SAVE/RESTORE + state transfer) around this transition
    pub fn finish_switch(&mut self, pe: PeId, vpe: VpeId) -> bool {
        let Some(slot) = self.slots.get_mut(&pe) else {
            return false;
        };
        slot.switching = false;
        let installed = self.vpes.get(&vpe) == Some(&pe);
        if installed {
            slot.resident = Some(vpe);
            slot.blocked = false;
        }
        slot.ring();
        installed
    }

    /// Abandons an in-flight switch (the restore failed). The would-be
    /// resident, if still managed, returns to the *head* of the ready queue
    /// so no slice is lost. Wakes all waiters.
    // m3lint: allow(cycle-accounting): scheduler table bookkeeping: the kernel charges the switch protocol (CTX_SAVE/RESTORE + state transfer) around this transition
    pub fn abort_switch(&mut self, pe: PeId, vpe: Option<VpeId>) {
        let Some(slot) = self.slots.get_mut(&pe) else {
            return;
        };
        slot.switching = false;
        if let Some(v) = vpe {
            if self.vpes.get(&v) == Some(&pe) {
                slot.ready.push_front(v);
            }
        }
        slot.ring();
    }

    /// Removes a VPE from scheduling (it exited or was revoked). An empty
    /// slot is dropped so the kernel can free the PE. Wakes all waiters so
    /// the next ready VPE can claim the vacancy.
    // m3lint: allow(cycle-accounting): scheduler table bookkeeping: the kernel charges the switch protocol (CTX_SAVE/RESTORE + state transfer) around this transition
    pub fn remove(&mut self, vpe: VpeId) -> Removal {
        let Some(pe) = self.vpes.remove(&vpe) else {
            return Removal::NotManaged;
        };
        let remaining = self.load(pe);
        let Some(slot) = self.slots.get_mut(&pe) else {
            return Removal::NotManaged;
        };
        let was_resident = slot.resident == Some(vpe);
        if was_resident {
            slot.resident = None;
            slot.blocked = false;
        }
        slot.ready.retain(|v| *v != vpe);
        slot.parked.remove(&vpe);
        // A switch whose target just died will clean up via finish_switch;
        // if every VPE of the PE is gone the slot is finished regardless.
        if remaining == 0 {
            slot.switching = false;
        }
        let now_empty = slot.is_empty();
        // The removed VPE's doorbell rings too: its waiter must learn that
        // it is no longer managed.
        slot.ring();
        slot.doorbells.remove(&vpe);
        if now_empty {
            self.slots.remove(&pe);
        }
        Removal::Removed {
            pe,
            was_resident,
            now_empty,
        }
    }
}

/// Picks the least-loaded entry: the id with the smallest load, ties going
/// to the earliest entry in iteration order (callers pass ascending-id
/// sequences, so ties resolve to the lowest id). Shared by the kernel's
/// overcommit placement and the multikernel's peer-shard selection, so both
/// levels of the hierarchy use one placement policy.
pub fn least_loaded<I: Copy>(items: impl IntoIterator<Item = (I, usize)>) -> Option<I> {
    let mut best: Option<(I, usize)> = None;
    for (id, load) in items {
        match best {
            Some((_, b)) if load >= b => {}
            _ => best = Some((id, load)),
        }
    }
    best.map(|(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::Future;

    fn v(id: u32) -> VpeId {
        VpeId::new(id)
    }

    fn p(id: u32) -> PeId {
        PeId::new(id)
    }

    fn sched_with(pe: u32, vpes: &[u32]) -> Scheduler {
        let mut s = Scheduler::new();
        for id in vpes {
            s.admit(v(*id), p(pe), Notify::new(), Notify::new());
        }
        s
    }

    #[test]
    fn first_admission_is_resident_rest_queue() {
        let mut s = Scheduler::new();
        assert_eq!(
            s.admit(v(1), p(3), Notify::new(), Notify::new()),
            Admission::Resident
        );
        assert_eq!(
            s.admit(v(2), p(3), Notify::new(), Notify::new()),
            Admission::Queued
        );
        assert_eq!(
            s.admit(v(3), p(3), Notify::new(), Notify::new()),
            Admission::Queued
        );
        assert_eq!(s.resident_of(p(3)), Some(v(1)));
        assert_eq!(s.ready_depth(p(3)), 2);
        assert_eq!(s.load(p(3)), 3);
        assert_eq!(s.vpes_on(p(3)), vec![v(1), v(2), v(3)]);
    }

    #[test]
    fn park_hands_over_in_fifo_order() {
        let mut s = sched_with(0, &[1, 2, 3]);
        // 1 blocks; 2 (queue head) takes over.
        assert_eq!(s.park_resident(v(1)), Some(v(2)));
        assert_eq!(s.resident_of(p(0)), None, "mid-switch: vacant");
        assert!(s.finish_switch(p(0), v(2)));
        assert_eq!(s.resident_of(p(0)), Some(v(2)));
        // 2 blocks; 3 takes over (1 is parked, not ready).
        assert_eq!(s.park_resident(v(2)), Some(v(3)));
        assert!(s.finish_switch(p(0), v(3)));
        // 3 blocks; nobody ready — it keeps the PE.
        assert_eq!(s.park_resident(v(3)), None);
        assert!(s.is_resident(v(3)));
        // 1's message arrives: parked → ready; 3 parks again and 1 returns.
        assert!(s.unpark(v(1)));
        assert_eq!(s.park_resident(v(3)), Some(v(1)));
        assert!(s.finish_switch(p(0), v(1)));
    }

    #[test]
    fn yield_rotates_round_robin() {
        let mut s = sched_with(0, &[1, 2, 3]);
        // 1 yields to 2, stays runnable at the tail: queue is [3, 1].
        assert_eq!(s.yield_resident(v(1)), Some(v(2)));
        assert!(s.finish_switch(p(0), v(2)));
        assert_eq!(s.yield_resident(v(2)), Some(v(3)));
        assert!(s.finish_switch(p(0), v(3)));
        assert_eq!(s.yield_resident(v(3)), Some(v(1)));
        assert!(s.finish_switch(p(0), v(1)));
        // Full rotation: back to 1.
        assert!(s.is_resident(v(1)));
    }

    #[test]
    fn yield_without_waiters_is_a_no_op() {
        let mut s = sched_with(0, &[1]);
        assert_eq!(s.yield_resident(v(1)), None);
        assert!(s.is_resident(v(1)));
    }

    #[test]
    fn non_resident_cannot_park_or_yield() {
        let mut s = sched_with(0, &[1, 2]);
        assert_eq!(s.park_resident(v(2)), None);
        assert_eq!(s.yield_resident(v(2)), None);
        // And mid-switch the slot is locked against both.
        assert_eq!(s.park_resident(v(1)), Some(v(2)));
        assert_eq!(s.park_resident(v(1)), None);
        assert_eq!(s.yield_resident(v(1)), None);
    }

    #[test]
    fn unpark_of_blocked_resident_clears_flag_only() {
        let mut s = sched_with(0, &[1]);
        assert_eq!(s.park_resident(v(1)), None); // blocked in place
        assert!(!s.unpark(v(1)), "resident never left the PE");
        assert!(s.is_resident(v(1)));
    }

    #[test]
    fn exit_vacates_and_head_claims() {
        let mut s = sched_with(0, &[1, 2, 3]);
        let r = s.remove(v(1));
        assert_eq!(
            r,
            Removal::Removed {
                pe: p(0),
                was_resident: true,
                now_empty: false
            }
        );
        // Only the queue head may claim the vacancy.
        assert!(!s.claim_vacant(v(3)));
        assert!(s.claim_vacant(v(2)));
        assert!(!s.claim_vacant(v(3)), "slot is mid-switch");
        assert!(s.finish_switch(p(0), v(2)));
        assert_eq!(s.resident_of(p(0)), Some(v(2)));
    }

    #[test]
    fn removing_last_vpe_empties_the_slot() {
        let mut s = sched_with(0, &[1, 2]);
        assert_eq!(
            s.remove(v(2)),
            Removal::Removed {
                pe: p(0),
                was_resident: false,
                now_empty: false
            }
        );
        assert_eq!(
            s.remove(v(1)),
            Removal::Removed {
                pe: p(0),
                was_resident: true,
                now_empty: true
            }
        );
        assert!(!s.manages(v(1)));
        assert_eq!(s.loads(), vec![]);
        assert_eq!(s.remove(v(1)), Removal::NotManaged);
    }

    #[test]
    fn removal_of_in_flight_target_cancels_switch() {
        let mut s = sched_with(0, &[1, 2]);
        assert_eq!(s.park_resident(v(1)), Some(v(2)));
        // 2 dies while its restore is in flight.
        let r = s.remove(v(2));
        assert_eq!(
            r,
            Removal::Removed {
                pe: p(0),
                was_resident: false,
                now_empty: false
            }
        );
        assert!(!s.finish_switch(p(0), v(2)), "dead VPE is not installed");
        assert_eq!(s.resident_of(p(0)), None);
        // Parked 1 can come back once its message arrives.
        assert!(s.unpark(v(1)));
        assert!(s.claim_vacant(v(1)));
        assert!(s.finish_switch(p(0), v(1)));
    }

    #[test]
    fn abort_switch_requeues_target_at_head() {
        let mut s = sched_with(0, &[1, 2, 3]);
        assert_eq!(s.park_resident(v(1)), Some(v(2)));
        s.abort_switch(p(0), Some(v(2)));
        // 2 is back at the head, before 3.
        assert!(s.claim_vacant(v(2)));
        assert!(s.finish_switch(p(0), v(2)));
    }

    #[test]
    fn loads_track_multiple_pes() {
        let mut s = Scheduler::new();
        s.admit(v(1), p(4), Notify::new(), Notify::new());
        s.admit(v(2), p(3), Notify::new(), Notify::new());
        s.admit(v(3), p(3), Notify::new(), Notify::new());
        assert_eq!(s.loads(), vec![(p(3), 2), (p(4), 1)]);
        assert_eq!(s.pe_of(v(3)), Some(p(3)));
    }

    /// Runs `step` with one waiter armed on each of `notifies`; returns
    /// which of them it notified.
    fn rung_by(
        s: &mut Scheduler,
        notifies: &[&Notify],
        step: impl FnOnce(&mut Scheduler),
    ) -> Vec<bool> {
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        let mut waits: Vec<_> = notifies.iter().map(|n| Box::pin(n.wait())).collect();
        for w in &mut waits {
            assert!(
                w.as_mut().poll(&mut cx).is_pending(),
                "a fresh wait is pending"
            );
        }
        step(s);
        waits
            .iter_mut()
            .map(|w| w.as_mut().poll(&mut cx).is_ready())
            .collect()
    }

    #[test]
    fn every_transition_rings_every_doorbell_of_its_slot() {
        let (wake0, wake1) = (Notify::new(), Notify::new());
        let bells: Vec<Notify> = (0..4).map(|_| Notify::new()).collect();
        let mut s = Scheduler::new();
        // VPE 1 is resident on PE 0; VPE 3 lives on PE 1 and must never
        // hear PE 0's transitions.
        s.admit(v(1), p(0), wake0.clone(), bells[1].clone());
        s.admit(v(3), p(1), wake1.clone(), bells[3].clone());
        let all = [&wake0, &bells[1], &bells[2], &wake1, &bells[3]];
        let pe0 = vec![true, true, true, false, false];
        let silent = vec![false; all.len()];
        // Admission behind the resident; the newcomer's doorbell rings too.
        let admit = |s: &mut Scheduler| {
            assert_eq!(
                s.admit(v(2), p(0), wake0.clone(), bells[2].clone()),
                Admission::Queued
            );
        };
        assert_eq!(rung_by(&mut s, &all, admit), pe0);
        // Switch 1 → 2: parking is silent, finishing rings.
        let park = |s: &mut Scheduler| assert_eq!(s.park_resident(v(1)), Some(v(2)));
        assert_eq!(rung_by(&mut s, &all, park), silent);
        let finish = |s: &mut Scheduler| assert!(s.finish_switch(p(0), v(2)));
        assert_eq!(rung_by(&mut s, &all, finish), pe0);
        // A parked VPE becomes ready.
        assert_eq!(rung_by(&mut s, &all, |s| assert!(s.unpark(v(1)))), pe0);
        // An aborted switch puts 1 back at the head.
        let park = |s: &mut Scheduler| assert_eq!(s.park_resident(v(2)), Some(v(1)));
        assert_eq!(rung_by(&mut s, &all, park), silent);
        let abort = |s: &mut Scheduler| s.abort_switch(p(0), Some(v(1)));
        assert_eq!(rung_by(&mut s, &all, abort), pe0);
        // Removal rings the removed VPE's own doorbell as well, then
        // forgets it.
        let remove = |s: &mut Scheduler| assert!(matches!(s.remove(v(2)), Removal::Removed { .. }));
        assert_eq!(rung_by(&mut s, &all, remove), pe0);
        assert!(s.doorbell(v(2)).is_none());
        let last = rung_by(&mut s, &all, |s| {
            assert!(matches!(
                s.remove(v(1)),
                Removal::Removed {
                    now_empty: true,
                    ..
                }
            ));
        });
        assert_eq!(last, vec![true, true, false, false, false]);
        assert_eq!(bells[3].waiter_count(), 0, "dropped waits deregister");
    }

    #[test]
    #[should_panic(expected = "admitted twice")]
    fn double_admission_panics() {
        let mut s = sched_with(0, &[1]);
        s.admit(v(1), p(1), Notify::new(), Notify::new());
    }

    /// Seeded property: under random park/unpark/yield/exit traffic every
    /// runnable VPE becomes resident within a bounded number of hand-overs —
    /// round-robin cannot starve (deterministic FIFO order, no priorities).
    #[test]
    fn no_runnable_vpe_starves() {
        let mut rng = m3_base::rand::Rng::new(0x4d31_5ced);
        for round in 0..20 {
            let n = 2 + rng.next_below(6) as u32;
            let mut s = Scheduler::new();
            for id in 1..=n {
                s.admit(v(id), p(0), Notify::new(), Notify::new());
            }
            let mut turns: BTreeMap<u32, u64> = (1..=n).map(|id| (id, 0)).collect();
            for _ in 0..400 {
                let Some(res) = s.resident_of(p(0)) else {
                    // Vacant: the head claims.
                    let head = s
                        .vpes_on(p(0))
                        .into_iter()
                        .find(|cand| s.claim_vacant(*cand));
                    if let Some(h) = head {
                        s.finish_switch(p(0), h);
                    }
                    continue;
                };
                *turns.get_mut(&res.raw()).unwrap() += 1;
                match rng.next_below(3) {
                    0 => {
                        // Block: park, switch if someone is ready, and
                        // randomly unpark a parked VPE (message arrival).
                        if let Some(next) = s.park_resident(res) {
                            s.finish_switch(p(0), next);
                        }
                        let parked: Vec<VpeId> = s
                            .vpes_on(p(0))
                            .into_iter()
                            .filter(|c| !s.is_resident(*c))
                            .collect();
                        if !parked.is_empty() {
                            let pick = parked[rng.next_below(parked.len() as u64) as usize];
                            s.unpark(pick);
                        }
                    }
                    _ => {
                        if let Some(next) = s.yield_resident(res) {
                            s.finish_switch(p(0), next);
                        }
                    }
                }
            }
            // Every VPE ran: with FIFO hand-over and 400 slices over at most
            // 7 VPEs, starvation would show as a zero count.
            for (id, count) in &turns {
                assert!(*count > 0, "round {round}: VPE {id} starved ({turns:?})");
            }
        }
    }

    #[test]
    fn least_loaded_prefers_smallest_then_earliest() {
        assert_eq!(least_loaded(Vec::<(u32, usize)>::new()), None);
        assert_eq!(least_loaded([(7u32, 3)]), Some(7));
        // Strictly smaller wins regardless of position.
        assert_eq!(least_loaded([(1u32, 5), (2, 2), (3, 4)]), Some(2));
        // Ties keep the earliest entry.
        assert_eq!(least_loaded([(1u32, 2), (2, 2), (3, 2)]), Some(1));
        assert_eq!(least_loaded([(9u32, 0), (1, 0)]), Some(9));
    }
}
