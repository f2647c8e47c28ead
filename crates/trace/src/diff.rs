//! Trace comparison for `m3-trace diff` — localises where two runs of the
//! same scenario start to differ, to debug figure deltas without staring at
//! opaque digests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{fmt, Event, Histogram};

/// The result of comparing two traces.
#[derive(Debug, PartialEq, Eq)]
pub struct DiffResult {
    /// Whether the traces are event-for-event identical.
    pub identical: bool,
    /// The rendered report.
    pub report: String,
}

fn kind_counts(events: &[Event]) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for event in events {
        *counts.entry(event.kind.tag()).or_insert(0) += 1;
    }
    counts
}

fn kind_spans(events: &[Event]) -> BTreeMap<&'static str, Histogram> {
    let mut spans: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    for event in events {
        if event.dur.as_u64() > 0 {
            spans
                .entry(event.kind.tag())
                .or_default()
                .observe(event.dur.as_u64());
        }
    }
    spans
}

fn span_stat(spans: &BTreeMap<&'static str, Histogram>, tag: &str) -> String {
    match spans.get(tag) {
        Some(h) if !h.is_empty() => {
            let sat = if h.saturated() { " saturated" } else { "" };
            format!("sum={} p99={}{sat}", h.sum(), h.quantile(0.99).unwrap_or(0))
        }
        _ => "sum=- p99=-".to_string(),
    }
}

/// Compares two traces: reports the first diverging event (with one line of
/// context from each side) and the per-kind count deltas.
pub fn diff(a: &[Event], b: &[Event]) -> DiffResult {
    let mut report = String::new();
    let divergence = a.iter().zip(b.iter()).position(|(x, y)| x != y);

    if divergence.is_none() && a.len() == b.len() {
        let _ = writeln!(report, "traces identical ({} events)", a.len());
        return DiffResult {
            identical: true,
            report,
        };
    }

    match divergence {
        Some(idx) => {
            let _ = writeln!(report, "first divergence at event {idx}:");
            let _ = writeln!(report, "  a: {}", fmt::to_line(&a[idx]));
            let _ = writeln!(report, "  b: {}", fmt::to_line(&b[idx]));
        }
        None => {
            let (longer, name, shorter_len) = if a.len() > b.len() {
                (a, "a", b.len())
            } else {
                (b, "b", a.len())
            };
            let _ = writeln!(
                report,
                "traces agree for {shorter_len} events; {name} continues with:"
            );
            let _ = writeln!(report, "  {name}: {}", fmt::to_line(&longer[shorter_len]));
        }
    }

    let _ = writeln!(report, "lengths: a={} b={}", a.len(), b.len());
    let ca = kind_counts(a);
    let cb = kind_counts(b);
    let mut tags: Vec<&'static str> = ca.keys().chain(cb.keys()).copied().collect();
    tags.sort_unstable();
    tags.dedup();
    let sa = kind_spans(a);
    let sb = kind_spans(b);
    let mut wrote_header = false;
    for tag in tags {
        let na = ca.get(tag).copied().unwrap_or(0);
        let nb = cb.get(tag).copied().unwrap_or(0);
        let span_a = span_stat(&sa, tag);
        let span_b = span_stat(&sb, tag);
        if na != nb || span_a != span_b {
            if !wrote_header {
                report.push_str("kind deltas (count, span cycles):\n");
                wrote_header = true;
            }
            let _ = writeln!(report, "  {tag:<14} a={na} [{span_a}]  b={nb} [{span_b}]");
        }
    }
    DiffResult {
        identical: false,
        report,
    }
}

#[cfg(test)]
mod tests {
    use m3_base::{Cycles, EpId, PeId};

    use super::*;
    use crate::{Component, EventKind};

    fn ev(at: u64, ep: u32) -> Event {
        Event {
            at: Cycles::new(at),
            dur: Cycles::ZERO,
            pe: Some(PeId::new(0)),
            comp: Component::Dtu,
            kind: EventKind::MsgDrop { ep: EpId::new(ep) },
        }
    }

    #[test]
    fn identical_traces_report_identical() {
        let a = vec![ev(1, 0), ev(2, 1)];
        let result = diff(&a, &a.clone());
        assert!(result.identical);
        assert!(result.report.contains("identical (2 events)"));
    }

    #[test]
    fn divergence_is_localised() {
        let a = vec![ev(1, 0), ev(2, 1), ev(3, 2)];
        let b = vec![ev(1, 0), ev(2, 7), ev(3, 2)];
        let result = diff(&a, &b);
        assert!(!result.identical);
        assert!(result.report.contains("first divergence at event 1"));
        assert!(result.report.contains("msg_drop\t1"), "{}", result.report);
        assert!(result.report.contains("msg_drop\t7"), "{}", result.report);
    }

    #[test]
    fn length_mismatch_shows_extra_tail() {
        let a = vec![ev(1, 0)];
        let b = vec![ev(1, 0), ev(2, 1)];
        let result = diff(&a, &b);
        assert!(!result.identical);
        assert!(
            result.report.contains("b continues with"),
            "{}",
            result.report
        );
        assert!(result.report.contains("lengths: a=1 b=2"));
    }

    #[test]
    fn kind_deltas_are_listed() {
        let a = vec![ev(1, 0)];
        let b = vec![
            ev(1, 0),
            Event {
                at: Cycles::new(2),
                dur: Cycles::ZERO,
                pe: Some(PeId::new(0)),
                comp: Component::Dtu,
                kind: EventKind::CreditStall { ep: EpId::new(0) },
            },
        ];
        let result = diff(&a, &b);
        assert!(result.report.contains("credit_stall"), "{}", result.report);
        assert!(result.report.contains("a=0"), "{}", result.report);
        assert!(result.report.contains("b=1"), "{}", result.report);
    }

    #[test]
    fn span_deltas_and_saturation_are_surfaced() {
        let span = |at: u64, dur: u64| Event {
            at: Cycles::new(at),
            dur: Cycles::new(dur),
            pe: Some(PeId::new(0)),
            comp: Component::Fs,
            kind: EventKind::FsRequest {
                op: "Open".to_string(),
            },
        };
        // Same counts, different span cycles: must still be reported.
        let a = vec![span(1, 100)];
        let b = vec![span(1, 200)];
        let result = diff(&a, &b);
        assert!(!result.identical);
        assert!(result.report.contains("sum=100"), "{}", result.report);
        assert!(result.report.contains("sum=200"), "{}", result.report);
        // A saturated span sum is marked, not silently under-reported.
        let c = vec![span(1, u64::MAX - 1), span(2, u64::MAX - 1)];
        let result = diff(&a, &c);
        assert!(result.report.contains("saturated"), "{}", result.report);
    }
}
