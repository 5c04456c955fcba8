//! Human-readable flamegraph-style rendering of an event stream.
//!
//! The output is indentation-based — the run's total, then every
//! per-constant lift span in start order with a proportional duration bar
//! (an on-demand dependency repair starts inside its dependent's span, so
//! it is listed after it) — followed by a kernel-probe tally.

use crate::metrics::fmt_ns;
use crate::{CacheTable, Event, EventKind};

/// Width of the proportional duration bar next to each lift span.
const BAR: usize = 20;

/// Renders the flamegraph-style text summary of a finished run's events.
pub fn render(events: &[Event]) -> String {
    let mut out = String::new();
    if events.is_empty() {
        out.push_str("(no trace events)\n");
        return out;
    }

    let run = events.iter().find(|e| matches!(e.kind, EventKind::Run));
    let total_ns = run.map(|e| e.dur_ns).unwrap_or_else(|| {
        events
            .iter()
            .map(|e| e.t_ns + e.dur_ns)
            .max()
            .unwrap_or(0)
            .saturating_sub(events.iter().map(|e| e.t_ns).min().unwrap_or(0))
    });
    out.push_str(&format!("run  total={}\n", fmt_ns(total_ns)));

    let mut lifts: Vec<(&str, &Event)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::LiftConstant { name } => Some((&**name, e)),
            _ => None,
        })
        .collect();
    lifts.sort_by_key(|(_, e)| e.t_ns);
    let max_lift_ns = lifts
        .iter()
        .map(|(_, e)| e.dur_ns)
        .max()
        .unwrap_or(0)
        .max(1);
    let name_width = lifts.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, lift) in &lifts {
        let filled = ((lift.dur_ns as u128 * BAR as u128) / max_lift_ns as u128) as usize;
        let bar: String = "█".repeat(filled.min(BAR)) + &"·".repeat(BAR - filled.min(BAR));
        out.push_str(&format!(
            "  {name:<name_width$}  {bar} {}\n",
            fmt_ns(lift.dur_ns)
        ));
    }

    let count = |pred: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    let hits =
        |t: CacheTable| count(&|k| matches!(k, EventKind::CacheHit { table } if *table == t));
    let misses =
        |t: CacheTable| count(&|k| matches!(k, EventKind::CacheMiss { table } if *table == t));
    let whnf = count(&|k| matches!(k, EventKind::Whnf));
    let conv = count(&|k| matches!(k, EventKind::Conv));
    if whnf + conv > 0
        || [CacheTable::Whnf, CacheTable::Conv, CacheTable::Lift]
            .iter()
            .any(|&t| hits(t) + misses(t) > 0)
    {
        out.push_str("  kernel/caches:\n");
        out.push_str(&format!("    whnf calls {whnf}, conv calls {conv}\n"));
        for t in [CacheTable::Whnf, CacheTable::Conv, CacheTable::Lift] {
            let (h, m) = (hits(t), misses(t));
            if h + m > 0 {
                out.push_str(&format!(
                    "    {t} cache: {h} hits / {m} misses ({:.1}% hit)\n",
                    100.0 * h as f64 / (h + m) as f64
                ));
            }
        }
    }
    let rollbacks: u32 = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Rollback { dropped } => Some(dropped),
            _ => None,
        })
        .sum();
    if rollbacks > 0 {
        out.push_str(&format!("  rollbacks: {rollbacks} declarations dropped\n"));
    }
    if let Some(EventKind::Incr {
        changed,
        replayed,
        skipped,
    }) = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Incr { .. }))
        .map(|e| &e.kind)
    {
        out.push_str(&format!(
            "  incremental: changed={changed} replayed={replayed} skipped={skipped}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, dur_ns: u64, kind: EventKind) -> Event {
        Event { t_ns, dur_ns, kind }
    }

    fn lift(t_ns: u64, dur_ns: u64, name: &str) -> Event {
        ev(t_ns, dur_ns, EventKind::LiftConstant { name: name.into() })
    }

    #[test]
    fn empty_stream_renders_placeholder() {
        assert_eq!(render(&[]), "(no trace events)\n");
    }

    #[test]
    fn lists_lifts_in_start_order_with_a_probe_tally() {
        // Spans close innermost first, so the stream holds a dependency's
        // lift before the lift it was repaired inside.
        let events = vec![
            lift(300, 1_000, "Old.rev"),
            lift(200, 2_000, "Old.rev_involutive"),
            lift(5_000, 2_500, "Old.app"),
            ev(0, 10_000, EventKind::Run),
            ev(
                10,
                0,
                EventKind::CacheHit {
                    table: CacheTable::Whnf,
                },
            ),
            ev(
                11,
                0,
                EventKind::CacheMiss {
                    table: CacheTable::Whnf,
                },
            ),
            ev(12, 0, EventKind::Whnf),
        ];
        let text = render(&events);
        let invol = text.find("Old.rev_involutive").unwrap();
        let rev = text.find("Old.rev ").unwrap();
        let app = text.find("Old.app").unwrap();
        assert!(invol < rev && rev < app, "start order: {text}");
        assert!(text.contains("whnf cache: 1 hits / 1 misses"));
        assert!(text.contains("run  total=10.0µs"), "{text}");
    }

    #[test]
    fn a_lone_lift_is_listed() {
        let text = render(&[lift(0, 500, "Old.length")]);
        assert!(text.contains("Old.length"));
    }
}
