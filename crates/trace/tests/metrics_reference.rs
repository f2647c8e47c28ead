//! The dense `Metrics` tables against the `BTreeMap<(pe, key), _>` bag
//! they replaced: seeded sequences of updates, through names and through
//! handles, must read back identically through every read API.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use m3_base::rand::Rng;
use m3_base::{Cycles, PeId};
use m3_trace::{keys, Histogram, Metrics};

/// Names in an order unlike their sorted one, so interning order and dump
/// order differ; the last is not one of the well-known keys.
const KEYS: [&str; 6] = [
    keys::RING_OCCUPANCY,
    keys::PE_BUSY,
    keys::DTU_DROPS,
    keys::NOC_WAIT,
    keys::DTU_BUSY,
    "app.custom",
];

/// The map-based bag: one entry per `(pe, key)` ever updated.
#[derive(Default)]
struct Reference {
    counters: BTreeMap<(u32, &'static str), u64>,
    hists: BTreeMap<(u32, &'static str), Histogram>,
}

impl Reference {
    fn add(&mut self, pe: PeId, key: &'static str, n: u64) {
        let slot = self.counters.entry((pe.raw(), key)).or_insert(0);
        *slot = slot.saturating_add(n);
    }

    fn get(&self, pe: PeId, key: &str) -> u64 {
        self.counters.get(&(pe.raw(), key)).copied().unwrap_or(0)
    }

    fn total(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((_, k), _)| *k == key)
            .fold(0u64, |acc, (_, v)| acc.saturating_add(*v))
    }

    fn merged(&self, key: &str) -> Option<Histogram> {
        let mut merged: Option<Histogram> = None;
        for ((_, k), h) in &self.hists {
            if *k == key {
                merged.get_or_insert_with(Histogram::new).merge(h);
            }
        }
        merged
    }

    fn histogram_tsv(&self) -> String {
        let mut out = String::from("pe\tkey\tcount\tsaturated\tmin\tmean\tp50\tp99\tp999\tmax\n");
        let mut keys: Vec<&str> = Vec::new();
        for ((pe, key), h) in &self.hists {
            let _ = writeln!(out, "{pe}\t{key}\t{}", histogram_row(h));
            if !keys.contains(key) {
                keys.push(key);
            }
        }
        keys.sort_unstable();
        for key in keys {
            if let Some(h) = self.merged(key) {
                let _ = writeln!(out, "*\t{key}\t{}", histogram_row(&h));
            }
        }
        out
    }

    fn utilization(&self, pe: PeId, total: Cycles) -> f64 {
        if total.as_u64() == 0 {
            return 0.0;
        }
        let busy = self
            .get(pe, keys::PE_BUSY)
            .saturating_add(self.get(pe, keys::DTU_BUSY));
        (busy as f64 / total.as_u64() as f64).min(1.0)
    }

    fn pes(&self) -> Vec<PeId> {
        let mut pes: Vec<u32> = self
            .counters
            .keys()
            .chain(self.hists.keys())
            .map(|(pe, _)| *pe)
            .collect();
        pes.sort_unstable();
        pes.dedup();
        pes.into_iter().map(PeId::new).collect()
    }

    fn snapshot(&self) -> Vec<(PeId, &'static str, u64)> {
        self.counters
            .iter()
            .map(|((pe, key), v)| (PeId::new(*pe), *key, *v))
            .collect()
    }

    fn render(&self, total: Cycles) -> String {
        let mut out = String::new();
        for pe in self.pes() {
            let _ = write!(
                out,
                "{pe}: util={:5.1}%",
                self.utilization(pe, total) * 100.0
            );
            for (row_pe, key, v) in self.snapshot() {
                if row_pe == pe {
                    let _ = write!(out, "  {key}={v}");
                }
            }
            for ((row_pe, key), h) in &self.hists {
                if *row_pe == pe.raw() {
                    let _ = write!(out, "  {key}[{}]", h.summary());
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    fn summary_line(&self, total: Cycles) -> String {
        let mut best = (None, 0.0f64);
        for pe in self.pes() {
            let u = self.utilization(pe, total);
            if u > best.1 {
                best = (Some(pe), u);
            }
        }
        let util = match best.0 {
            Some(pe) => format!("peak-util {pe} {:.1}%", best.1 * 100.0),
            None => "peak-util n/a".to_string(),
        };
        format!(
            "{util} | drops {} | credit-stalls {} | noc-wait {} | ctx-switches {}",
            self.total(keys::DTU_DROPS),
            self.total(keys::CREDIT_STALLS),
            self.total(keys::NOC_WAIT),
            self.total(keys::CTX_SWITCHES),
        )
    }
}

fn histogram_row(h: &Histogram) -> String {
    match (h.min(), h.mean(), h.max()) {
        (Some(min), Some(mean), Some(max)) => format!(
            "{}\t{}\t{min}\t{mean:.1}\t{}\t{}\t{}\t{max}",
            h.count(),
            h.saturated() as u8,
            h.quantile(0.50).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.quantile(0.999).unwrap_or(0),
        ),
        _ => "0\t0\t-\t-\t-\t-\t-\t-".to_string(),
    }
}

/// Every read API of both bags, compared.
fn assert_same(m: &Metrics, r: &Reference, what: &str) {
    for total in [Cycles::ZERO, Cycles::new(1_000), Cycles::new(1 << 40)] {
        assert_eq!(m.render(total), r.render(total), "render: {what}");
        assert_eq!(
            m.summary_line(total),
            r.summary_line(total),
            "summary: {what}"
        );
    }
    assert_eq!(m.snapshot(), r.snapshot(), "snapshot: {what}");
    assert_eq!(m.pes(), r.pes(), "pes: {what}");
    assert_eq!(
        m.histogram_tsv(),
        r.histogram_tsv(),
        "histogram_tsv: {what}"
    );
    for key in KEYS.iter().chain([&keys::CREDIT_STALLS]) {
        assert_eq!(m.total(key), r.total(key), "total {key}: {what}");
        assert_eq!(m.merged(key), r.merged(key), "merged {key}: {what}");
        for pe in 0..14 {
            let pe = PeId::new(pe);
            assert_eq!(m.get(pe, key), r.get(pe, key), "get {pe} {key}: {what}");
            let rh = r.hists.get(&(pe.raw(), *key));
            assert_eq!(m.histogram(pe, key).as_ref(), rh, "{what}");
        }
    }
}

#[test]
fn dense_tables_read_back_like_the_map() {
    for seed in [1u64, 2, 42, 0xfeed] {
        let mut rng = Rng::new(seed);
        let m = Metrics::new();
        let mut r = Reference::default();
        // Handles for half the keys, resolved up front in a shuffled order.
        let mut handles = Vec::new();
        for i in [4usize, 0, 2] {
            handles.push((KEYS[i], m.handle(KEYS[i])));
        }
        assert_same(&m, &r, "interning alone records nothing");
        for step in 0..600 {
            // PEs in random order, some far apart, some never touched.
            let pe = PeId::new([9, 3, 0, 12, 5, 3, 9][rng.next_below(7) as usize]);
            let key = KEYS[rng.next_below(KEYS.len() as u64) as usize];
            // Mostly small values; zeros must still create their row.
            let value = match rng.next_below(4) {
                0 => 0,
                1 => u64::MAX - rng.next_below(3),
                _ => rng.next_below(5_000),
            };
            let handle = handles.iter().find(|(k, _)| *k == key).map(|(_, h)| *h);
            match (rng.next_below(5), handle) {
                (0, Some(h)) => m.add_handle(pe, h, value),
                (0, None) | (1, _) => m.add(pe, key, value),
                (2, Some(h)) => {
                    m.incr_handle(pe, h);
                    r.add(pe, key, 1);
                    continue;
                }
                (2, None) => {
                    m.incr(pe, key);
                    r.add(pe, key, 1);
                    continue;
                }
                (_, Some(h)) => {
                    m.observe_handle(pe, h, value);
                    r.hists.entry((pe.raw(), key)).or_default().observe(value);
                    continue;
                }
                (_, None) => {
                    m.observe(pe, key, value);
                    r.hists.entry((pe.raw(), key)).or_default().observe(value);
                    continue;
                }
            }
            r.add(pe, key, value);
            if step % 50 == 0 {
                assert_same(&m, &r, &format!("seed {seed} step {step}"));
            }
        }
        assert_same(&m, &r, &format!("seed {seed} end"));
    }
}

#[test]
fn a_zero_add_creates_a_row() {
    let m = Metrics::new();
    m.add(PeId::new(7), keys::NOC_WAIT, 0);
    assert_eq!(m.pes(), [PeId::new(7)]);
    assert_eq!(m.snapshot(), [(PeId::new(7), keys::NOC_WAIT, 0)]);
}
