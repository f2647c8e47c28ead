//! Human-readable trace summaries for `m3-trace summarize`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use m3_base::Cycles;

use crate::{Event, Histogram};

#[derive(Default)]
struct KindRow {
    count: u64,
    span: u64,
    bytes: u64,
    /// Distribution of the per-event span lengths (events with `dur > 0`),
    /// for the latency columns of the per-kind table.
    spans: Histogram,
}

fn bytes_of(event: &Event) -> u64 {
    use crate::EventKind::*;
    match &event.kind {
        MsgSend { bytes, .. }
        | MsgReply { bytes, .. }
        | MemXfer { bytes, .. }
        | NocXfer { bytes, .. }
        | PipeXfer { bytes, .. }
        | PageIn { bytes, .. }
        | WriteBack { bytes, .. } => *bytes,
        _ => 0,
    }
}

/// Renders per-kind and per-PE aggregates of a trace: event counts, total
/// span cycles, and bytes moved. Deterministic for a given event list.
pub fn summarize(events: &[Event]) -> String {
    let mut out = String::new();
    if events.is_empty() {
        out.push_str("empty trace\n");
        return out;
    }

    let first = events.iter().map(|e| e.at.as_u64()).min().unwrap_or(0);
    let last = events
        .iter()
        .map(|e| e.at.as_u64() + e.dur.as_u64())
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "{} events over cycles {first}..{last} ({} cycles)",
        events.len(),
        last - first
    );

    let mut kinds: BTreeMap<&'static str, KindRow> = BTreeMap::new();
    let mut pes: BTreeMap<String, u64> = BTreeMap::new();
    for event in events {
        let row = kinds.entry(event.kind.tag()).or_default();
        row.count += 1;
        row.span = row.span.saturating_add(event.dur.as_u64());
        row.bytes = row.bytes.saturating_add(bytes_of(event));
        if event.dur.as_u64() > 0 {
            row.spans.observe(event.dur.as_u64());
        }
        let pe = match event.pe {
            Some(pe) => pe.to_string(),
            None => "sim".to_string(),
        };
        *pes.entry(pe).or_insert(0) += 1;
    }

    out.push_str("\nby kind:\n");
    let _ = writeln!(
        out,
        "  {:<14} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "kind", "count", "span-cycles", "bytes", "min", "p50", "p99", "p999", "max"
    );
    for (tag, row) in &kinds {
        // Span latency columns come from the sub-bucketed histogram;
        // kinds with no spans print `-`, never a fabricated 0.
        let q = |q: f64| match row.spans.quantile(q) {
            Some(v) => v.to_string(),
            None => "-".to_string(),
        };
        let sat = if row.spans.saturated() {
            " (span sum saturated)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:<14} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}{sat}",
            tag,
            row.count,
            row.span,
            row.bytes,
            q(0.0),
            q(0.50),
            q(0.99),
            q(0.999),
            q(1.0),
        );
    }

    out.push_str("\nby pe:\n");
    for (pe, count) in &pes {
        let _ = writeln!(out, "  {pe:<6} {count:>8} events");
    }

    // PDES runs record one island_window event per island per window;
    // aggregate them into busy/idle residency so island imbalance is
    // visible from the same pipeline. Serial traces have none — skip.
    let mut islands: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
    for event in events {
        if let crate::EventKind::IslandWindow {
            island,
            advanced,
            waited,
        } = &event.kind
        {
            let row = islands.entry(*island).or_default();
            row.0 += 1;
            row.1 = row.1.saturating_add(advanced.as_u64());
            row.2 = row.2.saturating_add(waited.as_u64());
        }
    }
    if !islands.is_empty() {
        out.push_str("\nby island:\n");
        let _ = writeln!(
            out,
            "  {:<7} {:>8} {:>12} {:>13} {:>6}",
            "island", "windows", "busy-cycles", "barrier-wait", "busy%"
        );
        for (island, (windows, busy, wait)) in &islands {
            let total = busy + wait;
            let pct = if total > 0 {
                *busy as f64 / total as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {island:<7} {windows:>8} {busy:>12} {wait:>13} {pct:>5.1}%"
            );
        }
    }
    out
}

/// The last cycle any event touches (start + duration); [`Cycles::ZERO`]
/// for an empty trace. Used as the utilisation denominator by the CLI.
pub fn end_cycle(events: &[Event]) -> Cycles {
    Cycles::new(
        events
            .iter()
            .map(|e| e.at.as_u64() + e.dur.as_u64())
            .max()
            .unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use m3_base::{Cycles, EpId, PeId};

    use super::*;
    use crate::{Component, EventKind};

    fn sample() -> Vec<Event> {
        vec![
            Event {
                at: Cycles::new(10),
                dur: Cycles::new(20),
                pe: Some(PeId::new(0)),
                comp: Component::Dtu,
                kind: EventKind::MsgSend {
                    ep: EpId::new(1),
                    dst_pe: PeId::new(2),
                    dst_ep: EpId::new(0),
                    bytes: 100,
                },
            },
            Event {
                at: Cycles::new(15),
                dur: Cycles::new(20),
                pe: Some(PeId::new(0)),
                comp: Component::Dtu,
                kind: EventKind::MsgSend {
                    ep: EpId::new(1),
                    dst_pe: PeId::new(2),
                    dst_ep: EpId::new(0),
                    bytes: 28,
                },
            },
            Event {
                at: Cycles::new(40),
                dur: Cycles::ZERO,
                pe: None,
                comp: Component::Sched,
                kind: EventKind::ClockAdvance {
                    from: Cycles::new(35),
                },
            },
        ]
    }

    #[test]
    fn summarize_counts_kinds_and_pes() {
        let text = summarize(&sample());
        assert!(text.contains("3 events over cycles 10..40"), "{text}");
        assert!(text.contains("msg_send"), "{text}");
        // Two sends: span 40 cycles total, 128 bytes total.
        assert!(text.contains("2           40          128"), "{text}");
        assert!(text.contains("PE0"), "{text}");
        assert!(text.contains("sim"), "{text}");
    }

    #[test]
    fn summarize_latency_columns() {
        let text = summarize(&sample());
        // Both msg_send spans are 20 cycles: every quantile is exactly 20.
        let send_row = text
            .lines()
            .find(|l| l.contains("msg_send"))
            .expect("msg_send row");
        let cols: Vec<&str> = send_row.split_whitespace().collect();
        assert_eq!(
            cols,
            vec!["msg_send", "2", "40", "128", "20", "20", "20", "20", "20"],
            "{text}"
        );
        // clock_advance has no spans: dashes, not fabricated zeros.
        let adv_row = text
            .lines()
            .find(|l| l.contains("clock_advance"))
            .expect("clock_advance row");
        let cols: Vec<&str> = adv_row.split_whitespace().collect();
        assert_eq!(
            cols,
            vec!["clock_advance", "1", "0", "0", "-", "-", "-", "-", "-"],
            "{text}"
        );
    }

    #[test]
    fn summarize_reports_island_residency() {
        let mut events = sample();
        // Serial trace: no island section at all.
        assert!(!summarize(&events).contains("by island"));
        for (island, advanced, waited) in [(0u32, 90, 10), (0, 50, 50), (1, 20, 80)] {
            events.push(Event {
                at: Cycles::new(100),
                dur: Cycles::ZERO,
                pe: None,
                comp: Component::Sched,
                kind: EventKind::IslandWindow {
                    island,
                    advanced: Cycles::new(advanced),
                    waited: Cycles::new(waited),
                },
            });
        }
        let text = summarize(&events);
        assert!(text.contains("by island:"), "{text}");
        // Island 0: 2 windows, 140 busy / 60 wait = 70% busy.
        let row = |island: &str| {
            text.lines()
                .skip_while(|l| !l.contains("by island"))
                .find(|l| l.trim_start().starts_with(island))
                .map(|l| l.split_whitespace().collect::<Vec<_>>())
                .expect("island row")
        };
        assert_eq!(row("0"), vec!["0", "2", "140", "60", "70.0%"], "{text}");
        assert_eq!(row("1"), vec!["1", "1", "20", "80", "20.0%"], "{text}");
    }

    #[test]
    fn summarize_handles_empty() {
        assert_eq!(summarize(&[]), "empty trace\n");
        assert_eq!(end_cycle(&[]), Cycles::ZERO);
        assert_eq!(end_cycle(&sample()), Cycles::new(40));
    }
}
