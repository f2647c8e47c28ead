//! The totals view of a simulation's counters.

use m3_trace::Metrics;

/// A read-only view of a [`Metrics`] registry: each counter summed over
/// every PE. Clones and the registry share state, so a view taken before a
/// run reads the counts after it.
///
/// # Examples
///
/// ```
/// use m3_base::PeId;
/// use m3_sim::{keys, Sim};
///
/// let sim = Sim::new();
/// sim.metrics().add(PeId::new(1), keys::NOC_BYTES, 4096);
/// sim.metrics().add(PeId::new(2), keys::NOC_BYTES, 64);
/// assert_eq!(sim.stats().get(keys::NOC_BYTES), 4160);
/// assert_eq!(sim.stats().get("unknown"), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Stats(Metrics);

impl Stats {
    /// The totals view of `metrics`.
    pub fn of(metrics: &Metrics) -> Stats {
        Stats(metrics.clone())
    }

    /// Counter `name` summed over all PEs (saturating); absent counters
    /// read as zero.
    pub fn get(&self, name: &str) -> u64 {
        self.0.total(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_base::PeId;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        let stats = Stats::of(&m);
        m.add(PeId::new(0), "x", 3);
        m.add(PeId::new(2), "x", 4);
        m.incr(PeId::new(0), "x");
        assert_eq!(stats.get("x"), 8);
    }

    #[test]
    fn add_saturates_instead_of_panicking() {
        let m = Metrics::new();
        m.add(PeId::new(0), "near-max", u64::MAX - 1);
        m.add(PeId::new(0), "near-max", 5);
        assert_eq!(Stats::of(&m).get("near-max"), u64::MAX);
        m.incr(PeId::new(0), "near-max");
        assert_eq!(Stats::of(&m).get("near-max"), u64::MAX);
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::new();
        let a = Stats::of(&m);
        let b = a.clone();
        m.clone().incr(PeId::new(1), "shared");
        assert_eq!(a.get("shared"), 1);
        assert_eq!(b.get("shared"), 1);
    }

    #[test]
    fn handles_alias_the_named_counter() {
        let m = Metrics::new();
        let stats = Stats::of(&m);
        m.add(PeId::new(0), "dtu.bytes", 10);
        let h = m.handle("dtu.bytes");
        m.add_handle(PeId::new(1), h, 5);
        m.incr_handle(PeId::new(0), h);
        assert_eq!(stats.get("dtu.bytes"), 16);
        // An interned name without a recorded value reads as zero.
        let fresh = m.handle("fresh");
        assert_eq!(stats.get("fresh"), 0);
        m.incr_handle(PeId::new(3), fresh);
        assert_eq!(stats.get("fresh"), 1);
    }

    #[test]
    fn handle_add_saturates() {
        // Each PE's cell saturates, and so does the sum over PEs.
        let m = Metrics::new();
        let h = m.handle("h");
        m.add_handle(PeId::new(0), h, u64::MAX - 1);
        m.add_handle(PeId::new(1), h, 7);
        assert_eq!(Stats::of(&m).get("h"), u64::MAX);
    }
}
