//! In-memory spans recorded around the benchmark's own calls into each
//! layer. A span has a name, start, end, parent, and the id of the unit it
//! belongs to; nothing inside the program is instrumented. Spans are kept
//! in memory during the run and written as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The root span of one timed unit. Its self time is the part of the
/// unit no layer span accounts for.
pub const UNIT: &str = "unit";

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub unit: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. When off, [`Spans::span`] only calls its closure.
pub struct Spans {
    on: bool,
    origin: Instant,
    unit: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, origin: Instant) -> Spans {
        Spans {
            on,
            origin,
            unit: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between units (a traced run alternates,
    /// so it can measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Moves another recorder's spans (another thread's, sharing this
    /// origin) into this one.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time: its duration minus the durations of its
    /// children. Spans of one recorder are strictly nested and
    /// sequential, so the children never overlap each other.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per span name, the self time summed within each unit, in ms. A
    /// name absent from a unit contributes no entry for it.
    pub fn per_unit_self_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times()) {
            *by.entry((s.name, s.unit)).or_default() += ns;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in by {
            out.entry(name).or_default().push(ns as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","unit":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
                s.name, s.unit, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {}
    }

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut sp = Spans::new(true, Instant::now());
        sp.set_unit(7);
        sp.span(UNIT, |sp| {
            busy(200);
            sp.span("a", |sp| {
                busy(300);
                sp.span("b", |_| busy(400));
            });
        });
        let names: Vec<_> = sp
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.unit))
            .collect();
        assert_eq!(
            names,
            [(UNIT, None, 7), ("a", Some(0), 7), ("b", Some(1), 7)]
        );
        let st = sp.self_times();
        let total: u64 = st.iter().sum();
        assert_eq!(
            total,
            sp.spans()[0].dur_ns(),
            "self times partition the root"
        );
        assert!(
            st[2] >= 400_000 && st[1] >= 300_000 && st[0] >= 200_000,
            "{st:?}"
        );

        let mut off = Spans::new(false, Instant::now());
        assert_eq!(off.span("x", |_| 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Spans::new(true, origin);
        a.span(UNIT, |sp| sp.span("x", |_| ()));
        let mut b = Spans::new(true, origin);
        b.set_unit(1);
        b.span(UNIT, |sp| sp.span("y", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.per_unit_self_ms()[UNIT].len(), 2);
    }
}
