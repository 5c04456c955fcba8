//! Offline trace analysis: the engine behind `pumpkin trace-report`.
//!
//! Operates on JSON-lines trace files written by `--trace` (schema in
//! DESIGN.md §11–12) after the fact — no live run required. Three analyses:
//!
//! * [`hottest_lifts`] — top-k lift spans by duration.
//! * [`cache_by_constant`] — kernel/cache probes attributed to the
//!   innermost enclosing lift span.
//! * [`diff`] — structural comparison of two traces (event-kind counts,
//!   constants appearing/disappearing, largest per-constant duration
//!   movers) for regression triage.
//!
//! Plus [`lint`], the schema validator behind `trace-report --lint` and
//! `scripts/trace_lint.sh`: committed golden traces must parse with zero
//! malformed lines and zero unknown kinds.
//!
//! All renderings are deterministic for a fixed input file (ties broken by
//! name), so their output can be pinned by golden tests in any build
//! profile.

use std::collections::BTreeMap;

use crate::metrics::fmt_ns;
use crate::prov::ConstProvenance;
use crate::{Event, EventKind};

/// The result of parsing a JSON-lines trace file: the events that parsed
/// (including preserved [`EventKind::Unknown`] lines) and one error per
/// malformed line.
#[derive(Debug, Default)]
pub struct ParsedTrace {
    /// Parsed events, in file order.
    pub events: Vec<Event>,
    /// `(1-based line number, message)` per unparsable line.
    pub errors: Vec<(usize, String)>,
}

/// Parses a whole trace file. Blank lines are skipped; malformed lines are
/// collected as errors rather than aborting, so one truncated tail line
/// does not hide the rest of the trace.
pub fn parse_lines(text: &str) -> ParsedTrace {
    let mut out = ParsedTrace::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::from_json(line) {
            Some(e) => out.events.push(e),
            None => out.errors.push((
                i + 1,
                format!("malformed event line: {}", truncate(line, 80)),
            )),
        }
    }
    out
}

/// Validates a trace against the event schema: every line must parse and
/// every kind must be recognised (an [`EventKind::Unknown`] is fine for a
/// *reader*, but a committed golden file containing one means the schema
/// docs and the writer disagree). Returns one message per violation;
/// empty means clean.
pub fn lint(text: &str) -> Vec<String> {
    let parsed = parse_lines(text);
    let mut out: Vec<String> = parsed
        .errors
        .iter()
        .map(|(ln, msg)| format!("line {ln}: {msg}"))
        .collect();
    for (i, e) in parsed.events.iter().enumerate() {
        if let EventKind::Unknown { kind, .. } = &e.kind {
            out.push(format!("event {}: unknown kind {kind:?}", i + 1));
        }
    }
    out
}

fn lift_spans(events: &[Event]) -> Vec<(&str, &Event)> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::LiftConstant { name } => Some((&**name, e)),
            _ => None,
        })
        .collect()
}

/// The `k` longest lift spans, longest first (ties broken by name, then
/// start time).
pub fn hottest_lifts(events: &[Event], k: usize) -> String {
    let mut lifts = lift_spans(events);
    lifts.sort_by(|a, b| {
        b.1.dur_ns
            .cmp(&a.1.dur_ns)
            .then_with(|| a.0.cmp(b.0))
            .then_with(|| a.1.t_ns.cmp(&b.1.t_ns))
    });
    let mut out = String::new();
    if lifts.is_empty() {
        out.push_str("hottest lifts: (no lift spans in trace)\n");
        return out;
    }
    out.push_str(&format!("hottest lifts (top {k}):\n"));
    let name_w = lifts
        .iter()
        .take(k)
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(1);
    for (name, l) in lifts.iter().take(k) {
        out.push_str(&format!("  {name:<name_w$}  {}\n", fmt_ns(l.dur_ns)));
    }
    out
}

#[derive(Default)]
struct CacheRow {
    lift_hits: u64,
    lift_misses: u64,
    whnf_hits: u64,
    whnf_misses: u64,
    conv_hits: u64,
    conv_misses: u64,
    whnf_calls: u64,
    conv_calls: u64,
}

impl CacheRow {
    fn total(&self) -> u64 {
        self.lift_hits
            + self.lift_misses
            + self.whnf_hits
            + self.whnf_misses
            + self.conv_hits
            + self.conv_misses
            + self.whnf_calls
            + self.conv_calls
    }
}

/// Per-constant cache behaviour: every instant kernel/cache probe is
/// attributed to the innermost lift span that contains its timestamp
/// (nested dependency repairs win over the outer lift). Lift spans are
/// nested or disjoint, because one thread writes them. Probes outside any
/// lift span land in the `(outside lift)` row.
pub fn cache_by_constant(events: &[Event]) -> String {
    use crate::CacheTable as T;
    let lifts = lift_spans(events);
    let attribute = |e: &Event| -> String {
        let mut best: Option<(&str, u64)> = None;
        for (name, l) in &lifts {
            if e.t_ns < l.t_ns || e.t_ns > l.t_ns + l.dur_ns {
                continue;
            }
            // The innermost enclosing span is the shortest one.
            if best.is_none_or(|(_, d)| l.dur_ns < d) {
                best = Some((name, l.dur_ns));
            }
        }
        best.map(|(n, _)| n.to_string())
            .unwrap_or_else(|| "(outside lift)".to_string())
    };
    let mut rows: BTreeMap<String, CacheRow> = BTreeMap::new();
    for e in events {
        let bump = |rows: &mut BTreeMap<String, CacheRow>, f: &dyn Fn(&mut CacheRow)| {
            f(rows.entry(attribute(e)).or_default());
        };
        match &e.kind {
            EventKind::CacheHit { table } => match table {
                T::Lift => bump(&mut rows, &|r| r.lift_hits += 1),
                T::Whnf => bump(&mut rows, &|r| r.whnf_hits += 1),
                T::Conv => bump(&mut rows, &|r| r.conv_hits += 1),
            },
            EventKind::CacheMiss { table } => match table {
                T::Lift => bump(&mut rows, &|r| r.lift_misses += 1),
                T::Whnf => bump(&mut rows, &|r| r.whnf_misses += 1),
                T::Conv => bump(&mut rows, &|r| r.conv_misses += 1),
            },
            EventKind::Whnf => bump(&mut rows, &|r| r.whnf_calls += 1),
            EventKind::Conv => bump(&mut rows, &|r| r.conv_calls += 1),
            _ => {}
        }
    }
    rows.retain(|_, r| r.total() > 0);
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("per-constant cache behaviour: (no cache/kernel probes in trace)\n");
        return out;
    }
    out.push_str("per-constant cache behaviour (hit/miss):\n");
    let name_w = rows.keys().map(String::len).max().unwrap_or(1);
    out.push_str(&format!(
        "  {:<name_w$}  {:>11}  {:>11}  {:>11}  {:>6}  {:>6}\n",
        "constant", "lift", "whnf", "conv", "whnf()", "conv()"
    ));
    for (name, r) in &rows {
        out.push_str(&format!(
            "  {name:<name_w$}  {:>11}  {:>11}  {:>11}  {:>6}  {:>6}\n",
            format!("{}/{}", r.lift_hits, r.lift_misses),
            format!("{}/{}", r.whnf_hits, r.whnf_misses),
            format!("{}/{}", r.conv_hits, r.conv_misses),
            r.whnf_calls,
            r.conv_calls,
        ));
    }
    out
}

/// Per-constant provenance summary (rule citations), when the trace
/// carries `prov` events.
pub fn provenance_summary(events: &[Event]) -> String {
    let provs = ConstProvenance::from_events(events);
    let mut out = String::new();
    if provs.is_empty() {
        return out;
    }
    out.push_str("provenance (rule citations):\n");
    let name_w = provs.iter().map(|p| p.from.len()).max().unwrap_or(1);
    for p in &provs {
        out.push_str(&format!(
            "  {:<name_w$} → {}  [{}]\n",
            p.from,
            p.to,
            if p.sites.is_empty() {
                "no rewrites".to_string()
            } else {
                p.citation()
            }
        ));
    }
    out
}

/// The full offline report: hottest lifts, per-constant cache behaviour,
/// and (if present) provenance citations.
pub fn render(events: &[Event], top_k: usize) -> String {
    let mut out = String::new();
    let runs = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Run))
        .count();
    out.push_str(&format!(
        "trace: {} events, {} run span{}\n\n",
        events.len(),
        runs,
        if runs == 1 { "" } else { "s" }
    ));
    out.push_str(&hottest_lifts(events, top_k));
    out.push('\n');
    out.push_str(&cache_by_constant(events));
    let prov = provenance_summary(events);
    if !prov.is_empty() {
        out.push('\n');
        out.push_str(&prov);
    }
    out
}

fn kind_counts(events: &[Event]) -> BTreeMap<&'static str, u64> {
    let mut m = BTreeMap::new();
    for e in events {
        *m.entry(e.kind.as_str()).or_insert(0) += 1;
    }
    m
}

fn lift_totals(events: &[Event]) -> BTreeMap<String, u64> {
    let mut m: BTreeMap<String, u64> = BTreeMap::new();
    for (name, l) in lift_spans(events) {
        *m.entry(name.to_string()).or_insert(0) += l.dur_ns;
    }
    m
}

/// Structural diff of two traces for regression triage: event-kind count
/// deltas, constants lifted in only one trace, and the largest
/// per-constant total-lift-duration movers (top `k` by absolute delta).
pub fn diff(a: &[Event], b: &[Event], k: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace diff: A={} events, B={} events\n",
        a.len(),
        b.len()
    ));

    let (ca, cb) = (kind_counts(a), kind_counts(b));
    let mut kinds: Vec<&str> = ca.keys().chain(cb.keys()).copied().collect();
    kinds.sort_unstable();
    kinds.dedup();
    out.push_str("event kinds (A → B):\n");
    for kind in kinds {
        let (na, nb) = (
            ca.get(kind).copied().unwrap_or(0),
            cb.get(kind).copied().unwrap_or(0),
        );
        let marker = if na == nb { " " } else { "*" };
        out.push_str(&format!("  {marker} {kind:<13} {na:>6} → {nb:<6}\n"));
    }

    let (la, lb) = (lift_totals(a), lift_totals(b));
    let only_a: Vec<&String> = la.keys().filter(|n| !lb.contains_key(*n)).collect();
    let only_b: Vec<&String> = lb.keys().filter(|n| !la.contains_key(*n)).collect();
    if !only_a.is_empty() {
        out.push_str("lifted only in A:\n");
        for n in only_a {
            out.push_str(&format!("  - {n}\n"));
        }
    }
    if !only_b.is_empty() {
        out.push_str("lifted only in B:\n");
        for n in only_b {
            out.push_str(&format!("  + {n}\n"));
        }
    }

    let mut movers: Vec<(&String, u64, u64)> = la
        .iter()
        .filter_map(|(n, &da)| lb.get(n).map(|&db| (n, da, db)))
        .filter(|(_, da, db)| da != db)
        .collect();
    movers.sort_by(|x, y| {
        let dx = x.1.abs_diff(x.2);
        let dy = y.1.abs_diff(y.2);
        dy.cmp(&dx).then_with(|| x.0.cmp(y.0))
    });
    if !movers.is_empty() {
        out.push_str(&format!("largest lift-duration movers (top {k}):\n"));
        let name_w = movers
            .iter()
            .take(k)
            .map(|(n, _, _)| n.len())
            .max()
            .unwrap();
        for (n, da, db) in movers.into_iter().take(k) {
            let sign = if db > da { "+" } else { "-" };
            out.push_str(&format!(
                "  {n:<name_w$}  {:<8} → {:<8} ({sign}{})\n",
                fmt_ns(da),
                fmt_ns(db),
                fmt_ns(da.abs_diff(db)),
            ));
        }
    }
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheTable;

    fn ev(t_ns: u64, dur_ns: u64, kind: EventKind) -> Event {
        Event { t_ns, dur_ns, kind }
    }

    fn lift(t: u64, d: u64, name: &str) -> Event {
        ev(t, d, EventKind::LiftConstant { name: name.into() })
    }

    fn sample() -> Vec<Event> {
        vec![
            ev(0, 10_000, EventKind::Run),
            lift(200, 1_000, "Old.app"),
            lift(1_300, 2_000, "Old.rev"),
            lift(5_100, 3_000, "Old.rev_involutive"),
            ev(
                300,
                0,
                EventKind::CacheHit {
                    table: CacheTable::Lift,
                },
            ),
            ev(
                1_400,
                0,
                EventKind::CacheMiss {
                    table: CacheTable::Whnf,
                },
            ),
            ev(5_200, 0, EventKind::Whnf),
        ]
    }

    #[test]
    fn hottest_lifts_sorts_and_truncates() {
        let text = hottest_lifts(&sample(), 2);
        let a = text.find("Old.rev_involutive").expect("hottest first");
        let b = text.find("Old.rev ").expect("second");
        assert!(a < b);
        assert!(!text.contains("Old.app"), "k=2 truncates: {text}");
    }

    #[test]
    fn cache_probes_attribute_to_enclosing_lift_span() {
        let text = cache_by_constant(&sample());
        // The lift-cache hit at t=300 sits inside Old.app's span.
        let row = text
            .lines()
            .find(|l| l.contains("Old.app"))
            .expect("Old.app row");
        assert!(row.contains("1/0"), "lift hit attributed: {row}");
        // The whnf miss at t=1400 sits inside Old.rev's span.
        let row = text
            .lines()
            .find(|l| l.contains("Old.rev "))
            .expect("Old.rev row");
        assert!(row.contains("0/1"), "whnf miss attributed: {row}");
    }

    #[test]
    fn nested_dependency_lift_wins_attribution() {
        let events = vec![
            lift(0, 10_000, "Old.outer"),
            lift(1_000, 2_000, "Old.inner"),
            ev(1_500, 0, EventKind::Whnf),
        ];
        let text = cache_by_constant(&events);
        let inner = text.lines().find(|l| l.contains("Old.inner")).unwrap();
        let cols: Vec<&str> = inner.split_whitespace().collect();
        assert_eq!(cols, ["Old.inner", "0/0", "0/0", "0/0", "1", "0"]);
    }

    #[test]
    fn diff_reports_kind_deltas_and_movers() {
        let a = vec![lift(0, 1_000, "Old.rev"), lift(0, 500, "Old.app")];
        let b = vec![
            lift(0, 3_000, "Old.rev"),
            lift(0, 500, "Old.app"),
            ev(0, 0, EventKind::Whnf),
        ];
        let text = diff(&a, &b, 5);
        assert!(text.contains("lift_constant      2 → 2"), "{text}");
        assert!(text.contains("* whnf"), "{text}");
        assert!(text.contains("Old.rev"), "{text}");
        assert!(text.contains("+2.0µs") || text.contains("+2.00"), "{text}");
        assert!(
            !text
                .lines()
                .any(|l| l.contains("movers") && text.contains("Old.app  ")),
            "unchanged constants are not movers"
        );
    }

    #[test]
    fn diff_reports_added_and_removed_constants() {
        let a = vec![lift(0, 1_000, "Old.gone")];
        let b = vec![lift(0, 1_000, "Old.new")];
        let text = diff(&a, &b, 5);
        assert!(text.contains("- Old.gone"));
        assert!(text.contains("+ Old.new"));
    }

    #[test]
    fn lint_flags_malformed_and_unknown() {
        let good = ev(0, 0, EventKind::Whnf).to_json();
        let text = format!("{good}\nnot json\n{{\"t_ns\":0,\"dur_ns\":0,\"kind\":\"mystery\"}}\n");
        let errors = lint(&text);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("line 2"));
        assert!(errors[1].contains("mystery"));
        assert!(lint(&good).is_empty());
    }

    #[test]
    fn parse_lines_recovers_after_bad_line() {
        let good = ev(0, 0, EventKind::Conv).to_json();
        let parsed = parse_lines(&format!("garbage\n\n{good}\n"));
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.errors.len(), 1);
        assert_eq!(parsed.errors[0].0, 1);
    }

    #[test]
    fn render_composes_all_sections() {
        let text = render(&sample(), 3);
        assert!(text.contains("hottest lifts"));
        assert!(text.contains("per-constant cache behaviour"));
    }
}
