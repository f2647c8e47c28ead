//! Property tests for the metrics registry's HDR-style histogram: its
//! quantiles must track the exact quantiles of the observed sample within
//! the documented error bound (1/128), over adversarially shaped
//! distributions.
//!
//! The exact quantile of a sorted sample at `q` is the smallest element
//! whose cumulative count reaches `ceil(q * n)` — the same rank convention
//! `Histogram::quantile` walks its buckets with, so the two are
//! directly comparable: the histogram may only blur a value within its
//! bucket, never across ranks.

use m3_base::rand::Rng;
use m3_trace::Histogram;

/// The exact rank-`q` quantile of a sorted sample.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Asserts `got` is within the histogram's relative error of `want`.
fn assert_close(h: &Histogram, q: f64, got: u64, want: u64) {
    let bound = h.error_bound();
    let tolerance = (want as f64 * bound).max(1.0);
    assert!(
        (got as f64 - want as f64).abs() <= tolerance,
        "q={q}: histogram {got} vs exact {want} (tolerance {tolerance:.1})"
    );
}

const QS: [f64; 7] = [0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0];

fn check_sample(label: &str, sample: &mut [u64]) {
    let mut h = Histogram::new();
    for &v in sample.iter() {
        h.observe(v);
    }
    sample.sort_unstable();
    assert_eq!(h.count(), sample.len() as u64, "{label}: count");
    assert_eq!(h.min(), sample.first().copied(), "{label}: min");
    assert_eq!(h.max(), sample.last().copied(), "{label}: max");
    for q in QS {
        let got = h.quantile(q).expect("non-empty");
        let want = exact_quantile(sample, q);
        assert_close(&h, q, got, want);
    }
}

#[test]
fn quantiles_track_uniform_samples() {
    let mut rng = Rng::new(0x9e02);
    for round in 0..16 {
        let n = 1 + rng.next_below(2000) as usize;
        let span = 1 << (1 + round % 20);
        let mut sample: Vec<u64> = (0..n).map(|_| rng.next_below(span)).collect();
        check_sample(&format!("uniform[0,{span}) n={n}"), &mut sample);
    }
}

#[test]
fn quantiles_track_heavy_tailed_samples() {
    // Latency-shaped data: a tight body with a sparse, far-out tail —
    // exactly where a naive fixed-width histogram loses the p999.
    let mut rng = Rng::new(0x7a11);
    for _ in 0..8 {
        let n = 100 + rng.next_below(1000) as usize;
        let mut sample: Vec<u64> = (0..n)
            .map(|_| {
                let body = 2_000 + rng.next_below(500);
                match rng.next_below(100) {
                    0 => body * (1 + rng.next_below(10_000)), // far outlier
                    1..=4 => body * (1 + rng.next_below(50)), // moderate tail
                    _ => body,
                }
            })
            .collect();
        check_sample("heavy-tailed", &mut sample);
    }
}

#[test]
fn quantiles_are_exact_below_the_exact_limit() {
    // Everything under 2^12 sits in unit buckets: quantiles are
    // not approximations there, they are the sample values.
    let mut rng = Rng::new(3);
    let mut h = Histogram::new();
    let mut sample: Vec<u64> = (0..500).map(|_| rng.next_below(4096)).collect();
    for &v in &sample {
        h.observe(v);
    }
    sample.sort_unstable();
    for q in QS {
        assert_eq!(
            h.quantile(q).unwrap(),
            exact_quantile(&sample, q),
            "q={q} must be exact below the unit-bucket limit"
        );
    }
}

#[test]
fn empty_and_single_value_edges() {
    let empty = Histogram::new();
    assert!(empty.is_empty());
    assert_eq!(empty.quantile(0.5), None);
    assert_eq!(empty.min(), None);
    assert_eq!(empty.max(), None);
    assert_eq!(empty.mean(), None);

    let mut single = Histogram::new();
    single.observe(123_456_789);
    for q in QS {
        assert_eq!(
            single.quantile(q),
            Some(123_456_789),
            "a single observation is every quantile"
        );
    }
    assert_eq!(single.min(), Some(123_456_789));
    assert_eq!(single.max(), Some(123_456_789));
}

#[test]
fn merge_equals_observing_the_union() {
    let mut rng = Rng::new(77);
    let a_sample: Vec<u64> = (0..300).map(|_| rng.next_below(1 << 30)).collect();
    let b_sample: Vec<u64> = (0..500).map(|_| rng.next_below(1 << 14)).collect();

    let mut a = Histogram::new();
    let mut b = Histogram::new();
    let mut union = Histogram::new();
    for &v in &a_sample {
        a.observe(v);
        union.observe(v);
    }
    for &v in &b_sample {
        b.observe(v);
        union.observe(v);
    }
    a.merge(&b);
    assert_eq!(a.count(), union.count());
    assert_eq!(a.sum(), union.sum());
    assert_eq!(a.min(), union.min());
    assert_eq!(a.max(), union.max());
    for q in QS {
        assert_eq!(
            a.quantile(q),
            union.quantile(q),
            "merge must not blur q={q}"
        );
    }

    // Merging an empty histogram is the identity.
    let before = a.summary();
    a.merge(&Histogram::new());
    assert_eq!(a.summary(), before);
}

#[test]
fn extreme_values_round_trip() {
    let mut h = Histogram::new();
    for v in [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
        h.observe(v);
    }
    assert_eq!(h.min(), Some(0));
    assert_eq!(h.max(), Some(u64::MAX));
    assert!(h.saturated(), "summing past u64::MAX must raise the flag");
    let p99 = h.quantile(0.99).unwrap();
    assert!(p99 >= u64::MAX - (u64::MAX as f64 * h.error_bound()) as u64);
}
