//! Shared statistics counters for instrumenting simulated components.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// An index-based handle to one counter, resolved once via
/// [`Stats::handle`]. Incrementing through a handle is a vector index, not a
/// string-keyed map lookup — use it on hot paths (the DTU bumps several
/// counters per message).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StatHandle(usize);

#[derive(Default)]
struct Inner {
    /// Counter name → index into `values`. Only consulted by the string API
    /// and when resolving handles; the dump order stays name-sorted.
    index: BTreeMap<String, usize>,
    values: Vec<u64>,
}

impl Inner {
    fn slot(&mut self, key: &str) -> usize {
        if let Some(&i) = self.index.get(key) {
            return i;
        }
        let i = self.values.len();
        self.values.push(0);
        self.index.insert(key.to_string(), i);
        i
    }
}

/// A bag of named counters shared across a simulation.
///
/// Components increment counters (messages sent, bytes transferred, cache
/// misses, …); benchmarks and tests read them afterwards. Values live in a
/// flat vector; a name index keeps the dump order stable and lets hot paths
/// pre-resolve a [`StatHandle`] so per-increment cost is an array index.
///
/// # Examples
///
/// ```
/// use m3_sim::Stats;
///
/// let stats = Stats::new();
/// stats.add("noc.bytes", 4096);
/// stats.incr("noc.packets");
/// assert_eq!(stats.get("noc.bytes"), 4096);
/// assert_eq!(stats.get("noc.packets"), 1);
/// assert_eq!(stats.get("unknown"), 0);
///
/// // Hot paths resolve the name once:
/// let h = stats.handle("noc.bytes");
/// stats.add_handle(h, 4096);
/// assert_eq!(stats.get("noc.bytes"), 8192);
/// ```
#[derive(Clone, Default)]
pub struct Stats {
    inner: Rc<RefCell<Inner>>,
}

impl Stats {
    /// Creates an empty counter bag.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Registers (or finds) the counter `key` and returns its handle.
    ///
    /// Handles stay valid for the lifetime of the `Stats` bag and all its
    /// clones; [`Stats::clear`] invalidates them.
    pub fn handle(&self, key: &str) -> StatHandle {
        StatHandle(self.inner.borrow_mut().slot(key))
    }

    /// Adds `n` to the counter behind `h`. Saturates at `u64::MAX`.
    pub fn add_handle(&self, h: StatHandle, n: u64) {
        let mut inner = self.inner.borrow_mut();
        let slot = &mut inner.values[h.0];
        *slot = slot.saturating_add(n);
    }

    /// Increments the counter behind `h` by one.
    pub fn incr_handle(&self, h: StatHandle) {
        self.add_handle(h, 1);
    }

    /// Adds `n` to the counter `key`, creating it at zero if absent.
    /// Saturates at `u64::MAX` instead of wrapping (or panicking in debug
    /// builds) on overflow.
    pub fn add(&self, key: &str, n: u64) {
        let mut inner = self.inner.borrow_mut();
        let i = inner.slot(key);
        let slot = &mut inner.values[i];
        *slot = slot.saturating_add(n);
    }

    /// Increments the counter `key` by one.
    pub fn incr(&self, key: &str) {
        self.add(key, 1);
    }

    /// Reads a counter; absent counters read as zero.
    pub fn get(&self, key: &str) -> u64 {
        let inner = self.inner.borrow();
        inner.index.get(key).map(|&i| inner.values[i]).unwrap_or(0)
    }

    /// Resets all counters and forgets their names. Previously issued
    /// [`StatHandle`]s are invalidated.
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.index.clear();
        inner.values.clear();
    }

    /// Returns a snapshot of all counters, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let inner = self.inner.borrow();
        inner
            .index
            .iter()
            .map(|(k, &i)| (k.clone(), inner.values[i]))
            .collect()
    }
}

impl fmt::Debug for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_map()
            .entries(inner.index.iter().map(|(k, &i)| (k, inner.values[i])))
            .finish()
    }
}

/// One counter of a [`Stats`] bag that registers its name on its first
/// increment and increments through a [`StatHandle`] from then on.
///
/// For per-operation counters that may never fire in a run: like
/// [`Stats::incr`], the name stays absent from [`Stats::snapshot`] until
/// the first increment, but later increments skip the name lookup.
///
/// # Examples
///
/// ```
/// use m3_sim::{LazyStat, Stats};
///
/// let stats = Stats::new();
/// let faults = LazyStat::new(&stats, "vm.faults");
/// assert!(stats.snapshot().is_empty());
/// faults.incr();
/// faults.incr();
/// assert_eq!(stats.get("vm.faults"), 2);
/// ```
#[derive(Debug)]
pub struct LazyStat {
    stats: Stats,
    key: &'static str,
    handle: Cell<Option<StatHandle>>,
}

impl LazyStat {
    /// A counter named `key` in `stats`, not registered yet.
    pub fn new(stats: &Stats, key: &'static str) -> LazyStat {
        LazyStat {
            stats: stats.clone(),
            key,
            handle: Cell::new(None),
        }
    }

    /// Increments the counter by one, registering it first if needed.
    pub fn incr(&self) {
        let h = self.handle.get().unwrap_or_else(|| {
            let h = self.stats.handle(self.key);
            self.handle.set(Some(h));
            h
        });
        self.stats.incr_handle(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = Stats::new();
        stats.add("x", 3);
        stats.add("x", 4);
        stats.incr("x");
        assert_eq!(stats.get("x"), 8);
    }

    #[test]
    fn add_saturates_instead_of_panicking() {
        let stats = Stats::new();
        stats.add("near-max", u64::MAX - 1);
        stats.add("near-max", 5);
        assert_eq!(stats.get("near-max"), u64::MAX);
        stats.incr("near-max");
        assert_eq!(stats.get("near-max"), u64::MAX);
    }

    #[test]
    fn clones_share_state() {
        let a = Stats::new();
        let b = a.clone();
        a.incr("shared");
        assert_eq!(b.get("shared"), 1);
    }

    #[test]
    fn snapshot_is_sorted() {
        let stats = Stats::new();
        stats.incr("b");
        stats.incr("a");
        stats.incr("c");
        let snap = stats.snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn clear_resets() {
        let stats = Stats::new();
        stats.incr("x");
        stats.clear();
        assert_eq!(stats.get("x"), 0);
        assert!(stats.snapshot().is_empty());
    }

    #[test]
    fn handles_alias_the_named_counter() {
        let stats = Stats::new();
        stats.add("dtu.bytes", 10);
        let h = stats.handle("dtu.bytes");
        stats.add_handle(h, 5);
        stats.incr_handle(h);
        assert_eq!(stats.get("dtu.bytes"), 16);
        // Handles resolve before first use too.
        let h2 = stats.handle("fresh");
        stats.incr_handle(h2);
        assert_eq!(stats.get("fresh"), 1);
        // Same name, same slot.
        assert_eq!(stats.handle("dtu.bytes"), h);
    }

    #[test]
    fn handle_add_saturates() {
        let stats = Stats::new();
        let h = stats.handle("h");
        stats.add_handle(h, u64::MAX - 1);
        stats.add_handle(h, 7);
        assert_eq!(stats.get("h"), u64::MAX);
    }

    #[test]
    fn lazy_stats_register_on_first_increment() {
        let stats = Stats::new();
        stats.incr("a");
        let b = LazyStat::new(&stats, "b");
        let c = LazyStat::new(&stats, "c");
        assert_eq!(stats.snapshot(), vec![("a".to_string(), 1)]);
        c.incr();
        c.incr();
        stats.incr("c");
        let snap = stats.snapshot();
        assert_eq!(snap, vec![("a".to_string(), 1), ("c".to_string(), 3)]);
        drop(b);
        assert_eq!(stats.snapshot(), snap);
    }
}
