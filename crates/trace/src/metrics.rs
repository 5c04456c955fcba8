//! The counter/histogram metrics registry.
//!
//! [`Metrics`] aggregates what the event stream (or instrumented code
//! directly) observed: monotonically increasing counters and log-linear
//! nanosecond histograms. Registries derive from an event batch
//! ([`Metrics::from_events`]), merge across runs ([`Metrics::merge`]), and
//! render as an aligned text table ([`Metrics::to_text`]).

use std::collections::BTreeMap;
use std::fmt;

use crate::{Event, EventKind};

/// Each octave `[2^e, 2^(e+1))` splits into `2^SUB_BITS` equal
/// sub-buckets.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Octaves covered above the exact range: values in `[SUBS, 2^48)`
/// nanoseconds (up to ~78 hours) get their own sub-bucket, and larger
/// ones share the last.
const OCTAVES: usize = 48 - SUB_BITS as usize;
/// Values below [`SUBS`] are counted exactly, one bucket each; then
/// [`SUBS`] sub-buckets per octave.
const BUCKETS: usize = SUBS + OCTAVES * SUBS;

/// A log-linear histogram of nanosecond durations: values below 8 are
/// exact, and every power-of-two range above splits into 8 equal
/// sub-buckets, so a reported quantile is within 1/16 of the value it
/// stands for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Observation count.
    count: u64,
    /// Sum of observed values (for the mean).
    sum: u64,
    /// Smallest observation (u64::MAX until the first).
    min: u64,
    /// Largest observation.
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    fn bucket_index(value: u64) -> usize {
        if value < SUBS as u64 {
            return value as usize;
        }
        // `e` is the octave, `sub` the three bits after the leading one.
        let e = 63 - value.leading_zeros();
        let sub = (value >> (e - SUB_BITS)) as usize & (SUBS - 1);
        (SUBS + (e - SUB_BITS) as usize * SUBS + sub).min(BUCKETS - 1)
    }

    /// The value a bucket reports: exact below [`SUBS`], otherwise the
    /// midpoint of the sub-bucket's range.
    fn bucket_value(i: usize) -> u64 {
        if i < SUBS {
            return i as u64;
        }
        let shift = ((i - SUBS) / SUBS) as u32;
        let lo = ((SUBS + (i - SUBS) % SUBS) as u64) << shift;
        lo + (1u64 << shift) / 2
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate quantile (`q` in `[0, 1]`): the midpoint of the
    /// sub-bucket containing the nearest-rank `q`-th observation, within
    /// 1/16 of that observation.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::bucket_value(i));
            }
        }
        self.max()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

impl Histogram {
    /// Renders `n=… mean=… p50≈… max=…`. With `as_ns`, values are
    /// formatted as durations ([`fmt_ns`]); otherwise as plain numbers
    /// (for dimensionless histograms).
    pub fn summary(&self, as_ns: bool) -> String {
        if self.count == 0 {
            return "(empty)".to_string();
        }
        let val = |v: u64| if as_ns { fmt_ns(v) } else { v.to_string() };
        format!(
            "n={} mean={} p50≈{} max={}",
            self.count,
            val(self.mean().unwrap_or(0.0) as u64),
            val(self.quantile(0.5).unwrap_or(0)),
            val(self.max),
        )
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary(true))
    }
}

/// Renders nanoseconds with a human unit (ns / µs / ms / s).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// A registry of named counters and histograms.
///
/// Names are dotted paths (`cache.whnf.hits`, `lift.constant.ns`); the
/// `.ns` suffix marks histograms of nanosecond durations by convention.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `by` to counter `name` (creating it at zero).
    pub fn incr(&mut self, name: &str, by: u64) {
        if by > 0 {
            *self.counters.entry(name.to_string()).or_insert(0) += by;
        }
    }

    /// Records `value_ns` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, value_ns: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value_ns);
    }

    /// The counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Is the registry entirely empty?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one (counters add, histograms
    /// merge).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// The standard derivation from an event batch: event-kind counters
    /// (`events.whnf`, `cache.conv.hits`, …) and span-duration histograms
    /// (`lift.constant.ns`, `run.ns`).
    pub fn from_events(events: &[Event]) -> Metrics {
        let mut m = Metrics::new();
        m.incr("events.total", events.len() as u64);
        for e in events {
            match &e.kind {
                EventKind::Run => m.observe("run.ns", e.dur_ns),
                EventKind::LiftConstant { .. } => {
                    m.incr("lift.constants", 1);
                    m.observe("lift.constant.ns", e.dur_ns);
                }
                EventKind::Whnf => m.incr("events.whnf", 1),
                EventKind::Conv => m.incr("events.conv", 1),
                EventKind::CacheHit { table } => {
                    m.incr(&format!("cache.{table}.hits"), 1);
                }
                EventKind::CacheMiss { table } => {
                    m.incr(&format!("cache.{table}.misses"), 1);
                }
                EventKind::Rollback { dropped } => {
                    m.incr("rollback.count", 1);
                    m.incr("rollback.dropped", u64::from(*dropped));
                }
                EventKind::Incr {
                    changed,
                    replayed,
                    skipped,
                } => {
                    m.incr("incr.changed", *changed);
                    m.incr("incr.replayed", *replayed);
                    m.incr("incr.skipped", *skipped);
                }
                EventKind::ServeSlow {
                    method,
                    queue_wait_ns,
                    service_ns,
                    ..
                } => {
                    m.incr("serve.slow", 1);
                    m.incr(&format!("serve.slow.{method}"), 1);
                    m.observe("serve.slow.queue_wait.ns", *queue_wait_ns);
                    m.observe("serve.slow.service.ns", *service_ns);
                }
                EventKind::AutoCandidate { .. } => m.incr("auto.candidates", 1),
                EventKind::AutoVerdict { verdict, .. } => {
                    m.incr(&format!("auto.verdict.{verdict}"), 1);
                    m.observe("auto.candidate.ns", e.dur_ns);
                }
                EventKind::ProvConst { .. } => m.incr("prov.constants", 1),
                EventKind::ProvSite { rule, .. } => {
                    m.incr("prov.sites", 1);
                    m.incr(&format!("prov.rule.{rule}"), 1);
                }
                EventKind::Unknown { .. } => m.incr("events.unknown", 1),
            }
        }
        m
    }

    /// Renders an aligned, name-ordered text table (counters first, then
    /// histogram summaries).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("{k:<width$}  {}\n", h.summary(k.ends_with(".ns"))));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheTable;

    #[test]
    fn histogram_tracks_extremes_and_quantiles() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        for v in [100, 200, 400, 800, 100_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(100));
        assert_eq!(h.max(), Some(100_000));
        let p50 = h.quantile(0.5).unwrap();
        // Sub-bucket resolution: the median (400) lies in [384, 416),
        // reported as its midpoint.
        assert_eq!(p50, 400);
        assert!(h.quantile(1.0).unwrap() >= p50);
    }

    #[test]
    fn small_values_are_exact_and_sub_buckets_report_midpoints() {
        for v in 0..16 {
            let mut h = Histogram::default();
            h.observe(v);
            assert_eq!(h.quantile(0.5), Some(v), "values below 16 are exact");
        }
        // [2^10, 2^11) splits into 8 sub-buckets 128 wide.
        let mut h = Histogram::default();
        h.observe(1_100);
        assert_eq!(h.quantile(0.5), Some(1_088));
        // Past the covered range, everything shares the last bucket.
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(1 << 48), BUCKETS - 1);
        assert_eq!(Histogram::bucket_index((1 << 48) - 1), BUCKETS - 1);
    }

    #[test]
    fn p99_of_a_constant_8ms_stream_is_within_7_percent() {
        // Log2 buckets reported 2^22·√2 = 5 931 641 ns here, 26% low.
        let mut h = Histogram::default();
        for _ in 0..1_000 {
            h.observe(8_000_000);
        }
        let p99 = h.quantile(0.99).unwrap() as f64;
        let err = (p99 - 8e6).abs() / 8e6;
        assert!(err <= 0.07, "p99 {p99} is {:.1}% off", 100.0 * err);
    }

    #[test]
    fn histogram_merge_equals_combined_observations() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [10, 20, 30] {
            a.observe(v);
            both.observe(v);
        }
        for v in [1000, 2000] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn from_events_derives_standard_names() {
        let ev = |kind: EventKind, dur: u64| Event {
            t_ns: 0,
            dur_ns: dur,
            kind,
        };
        let events = vec![
            ev(EventKind::Whnf, 0),
            ev(EventKind::Whnf, 0),
            ev(
                EventKind::CacheHit {
                    table: CacheTable::Whnf,
                },
                0,
            ),
            ev(
                EventKind::CacheMiss {
                    table: CacheTable::Lift,
                },
                0,
            ),
            ev(
                EventKind::LiftConstant {
                    name: "Old.rev".into(),
                },
                5_000,
            ),
            ev(EventKind::Run, 20_000),
        ];
        let m = Metrics::from_events(&events);
        assert_eq!(m.counter("events.whnf"), 2);
        assert_eq!(m.counter("cache.whnf.hits"), 1);
        assert_eq!(m.counter("cache.lift.misses"), 1);
        assert_eq!(m.counter("lift.constants"), 1);
        assert_eq!(m.histogram("lift.constant.ns").unwrap().sum(), 5_000);
        assert_eq!(m.histogram("run.ns").unwrap().count(), 1);
    }

    #[test]
    fn text_rendering_covers_all_entries() {
        let mut m = Metrics::new();
        m.incr("a.count", 3);
        m.observe("b.ns", 1234);
        let text = m.to_text();
        assert!(text.contains("a.count"));
        assert!(text.contains("b.ns"));
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Metrics::new();
        a.incr("x", 1);
        let mut b = Metrics::new();
        b.incr("x", 2);
        b.incr("y", 5);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
    }
}
