//! Service-side observability for pumpkind: per-method latency and
//! queue-wait histograms plus daemon gauges, designed to sit on the
//! request hot path.
//!
//! The repair engine's tracing ([`crate::Tracer`]) is thread-confined and
//! per-run; a daemon needs the opposite shape — one registry shared by
//! every connection thread and worker, alive for the process, readable at
//! any moment by the `stats` RPC. [`ServeStats`] gets there lock-light:
//!
//! * **Histograms are sharded.** Recording locks one of [`SHARDS`] small
//!   mutexes chosen by the caller's lane (connection id), so concurrent
//!   connections contend only when they hash to the same shard. A
//!   [`ServeStats::snapshot`] merges the shards on the *read* side — the
//!   `stats` RPC pays the merge, not the request path. Log-linear
//!   buckets ([`Histogram`]) keep each shard entry at a fixed footprint
//!   of 368 slots (about 3 KB).
//! * **Gauges are atomics.** Counters (busy rejections, cache traffic)
//!   and level gauges (workers busy, live sessions) are plain relaxed
//!   `AtomicU64`s; the queue-depth high-water mark is a `fetch_max`.
//!
//! The snapshot renders to the versioned `stats` RPC schema
//! ([`STATS_SCHEMA`]) in `pumpkin-serve`; this module owns only the data
//! structure so it can be property-tested against exact order statistics
//! without a daemon.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::metrics::Histogram;

/// Version tag carried by the `stats` RPC reply; bump on any shape change
/// so `pumpkin top` and scrapers can fail fast on skew.
pub const STATS_SCHEMA: &str = "pumpkin-serve-stats/1";

/// Histogram shard count. Eight is comfortably above the daemon's default
/// worker count; lanes (connection ids) spread across shards modulo this.
pub const SHARDS: usize = 8;

/// Per-method request statistics: end-to-end latency (parse → reply
/// written) and time spent queued between enqueue and worker pickup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MethodStats {
    /// Accept-to-reply-write latency, nanoseconds.
    pub latency: Histogram,
    /// Queue wait, nanoseconds. Control methods answered inline never
    /// queue, so this can have a lower count than `latency`.
    pub queue_wait: Histogram,
}

impl MethodStats {
    /// Folds another method's shard into this one.
    pub fn merge(&mut self, other: &MethodStats) {
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
    }
}

/// The gauge/counter block, all relaxed atomics. Field names are the wire
/// names in the `stats` reply's `"gauges"` object.
#[derive(Debug, Default)]
pub struct Gauges {
    /// Auto-search candidate configurations run through the kernel oracle.
    pub auto_candidates_tried: AtomicU64,
    /// Auto-search candidates skipped by the process-wide failure cache.
    pub auto_failure_cache_hits: AtomicU64,
    /// High-water mark of the work queue depth (post-enqueue).
    pub queue_depth_hwm: AtomicU64,
    /// `busy` replies because the work queue was full.
    pub busy_queue_full: AtomicU64,
    /// `busy` replies because the session cap was reached.
    pub busy_session_cap: AtomicU64,
    /// Workers currently executing a job (not waiting on the queue).
    pub workers_busy: AtomicU64,
    /// Connections currently admitted (accept to close).
    pub live_sessions: AtomicU64,
    /// Session config-cache hits (configured equivalence reused).
    pub config_cache_hits: AtomicU64,
    /// Session config-cache misses (equivalence built fresh).
    pub config_cache_misses: AtomicU64,
    /// Constants repaired (fresh lifts and persist replays), summed over
    /// every repair report.
    pub lift_constants: AtomicU64,
    /// Closed-subterm lift-cache hits, summed over every repair report.
    pub lift_cache_hits: AtomicU64,
    /// Closed-subterm lift-cache misses, summed over every repair report.
    pub lift_cache_misses: AtomicU64,
    /// Constants replayed from the persistent lift cache.
    pub persist_hits: AtomicU64,
    /// Persist-cache probes that fell back to a fresh lift.
    pub persist_misses: AtomicU64,
    /// Persisted frames the kernel refused at replay (tombstoned and
    /// lifted fresh; each also counts as a miss).
    pub persist_rejected: AtomicU64,
    /// Persist packs rewritten: compactions, and trims to the size budget.
    pub persist_compactions: AtomicU64,
    /// Persisted records the size budget removed.
    pub persist_evictions: AtomicU64,
    /// Incremental runs: inputs whose digest changed.
    pub incr_changed: AtomicU64,
    /// Incremental runs: constants re-lifted fresh.
    pub incr_replayed: AtomicU64,
    /// Incremental runs: constants not re-lifted.
    pub incr_skipped: AtomicU64,
    /// Requests that crossed the `--slow-ms` threshold and were logged.
    pub slow_logged: AtomicU64,
    /// Repaired declarations the kernel admitted without a check because
    /// the daemon's admission memo had accepted them before.
    pub kernel_admission_hits: AtomicU64,
    /// Times the admission memo cleared its tables at its cap.
    pub kernel_admission_resets: AtomicU64,
    /// Times a session replaced its `eval` environment, whose value and
    /// type memos had outgrown their cap, with a fresh clone of its base.
    pub eval_memo_resets: AtomicU64,
}

impl Gauges {
    /// The gauge block as (wire name, value) pairs, in stable order.
    pub fn read(&self) -> Vec<(&'static str, u64)> {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        vec![
            ("auto_candidates_tried", g(&self.auto_candidates_tried)),
            ("auto_failure_cache_hits", g(&self.auto_failure_cache_hits)),
            ("busy_queue_full", g(&self.busy_queue_full)),
            ("busy_session_cap", g(&self.busy_session_cap)),
            ("config_cache_hits", g(&self.config_cache_hits)),
            ("config_cache_misses", g(&self.config_cache_misses)),
            ("eval_memo_resets", g(&self.eval_memo_resets)),
            ("incr_changed", g(&self.incr_changed)),
            ("incr_replayed", g(&self.incr_replayed)),
            ("incr_skipped", g(&self.incr_skipped)),
            ("kernel_admission_hits", g(&self.kernel_admission_hits)),
            ("kernel_admission_resets", g(&self.kernel_admission_resets)),
            ("lift_cache_hits", g(&self.lift_cache_hits)),
            ("lift_cache_misses", g(&self.lift_cache_misses)),
            ("lift_constants", g(&self.lift_constants)),
            ("live_sessions", g(&self.live_sessions)),
            ("persist_compactions", g(&self.persist_compactions)),
            ("persist_evictions", g(&self.persist_evictions)),
            ("persist_hits", g(&self.persist_hits)),
            ("persist_misses", g(&self.persist_misses)),
            ("persist_rejected", g(&self.persist_rejected)),
            ("queue_depth_hwm", g(&self.queue_depth_hwm)),
            ("slow_logged", g(&self.slow_logged)),
            ("workers_busy", g(&self.workers_busy)),
        ]
    }
}

/// One histogram shard: method name → stats, behind its own mutex.
#[derive(Debug, Default)]
struct Shard {
    methods: Mutex<BTreeMap<String, MethodStats>>,
}

/// A point-in-time merge of every shard, plus the gauge block.
#[derive(Clone, Debug, Default)]
pub struct StatsSnapshot {
    /// Per-method histograms, merged across shards, name-ordered.
    pub methods: BTreeMap<String, MethodStats>,
    /// Gauge (wire name, value) pairs, stable order.
    pub gauges: Vec<(&'static str, u64)>,
}

impl StatsSnapshot {
    /// A named gauge's value (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// The daemon-wide stats registry. One per server process, shared by
/// `Arc`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct ServeStats {
    shards: [Shard; SHARDS],
    /// The gauge/counter block.
    pub gauges: Gauges,
}

impl ServeStats {
    /// A fresh registry with empty histograms and zeroed gauges.
    pub fn new() -> ServeStats {
        ServeStats::default()
    }

    /// Records one completed request: `lane` picks the shard (pass the
    /// connection id — stable per connection, spread across connections),
    /// `latency_ns` is the parse-to-reply-write wall time, and
    /// `queue_wait_ns` is `Some` only for requests that went through the
    /// work queue (control methods answered inline pass `None`).
    pub fn record(&self, lane: u64, method: &str, latency_ns: u64, queue_wait_ns: Option<u64>) {
        let shard = &self.shards[(lane % SHARDS as u64) as usize];
        let mut methods = shard.methods.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = methods.entry(method.to_string()).or_default();
        entry.latency.observe(latency_ns);
        if let Some(wait) = queue_wait_ns {
            entry.queue_wait.observe(wait);
        }
    }

    /// Raises the queue-depth high-water mark to `depth` if higher.
    pub fn raise_queue_depth(&self, depth: u64) {
        raise(&self.gauges.queue_depth_hwm, depth);
    }

    /// Merges every shard and reads every gauge. This is the read-side
    /// cost center; request recording never pays it.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut methods: BTreeMap<String, MethodStats> = BTreeMap::new();
        for shard in &self.shards {
            let locked = shard.methods.lock().unwrap_or_else(PoisonError::into_inner);
            for (name, stats) in locked.iter() {
                methods.entry(name.clone()).or_default().merge(stats);
            }
        }
        StatsSnapshot {
            methods,
            gauges: self.gauges.read(),
        }
    }
}

/// Bumps a relaxed counter by 1 (the idiom for every counter in
/// [`Gauges`]; level gauges pair it with [`dec`]).
pub fn inc(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Adds `by` to a relaxed counter.
pub fn add(counter: &AtomicU64, by: u64) {
    if by > 0 {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// Raises a relaxed gauge to `to` if that is higher: a high-water mark,
/// or a running total kept elsewhere and read by several workers.
pub fn raise(gauge: &AtomicU64, to: u64) {
    gauge.fetch_max(to, Ordering::Relaxed);
}

/// Decrements a relaxed level gauge, saturating at zero.
pub fn dec(counter: &AtomicU64) {
    // fetch_update never fails with a Some-returning closure.
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(1))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        let stats = ServeStats::new();
        stats.record(0, "repair", 1_000, Some(100));
        stats.record(1, "repair", 2_000, Some(200));
        stats.record(2, "ping", 500, None);
        inc(&stats.gauges.busy_queue_full);
        stats.raise_queue_depth(7);
        stats.raise_queue_depth(3); // lower: must not regress the HWM

        let snap = stats.snapshot();
        let repair = &snap.methods["repair"];
        assert_eq!(repair.latency.count(), 2);
        assert_eq!(repair.queue_wait.count(), 2);
        let ping = &snap.methods["ping"];
        assert_eq!(ping.latency.count(), 1);
        assert_eq!(ping.queue_wait.count(), 0, "inline methods never queue");
        assert_eq!(snap.gauge("busy_queue_full"), 1);
        assert_eq!(snap.gauge("queue_depth_hwm"), 7);
        assert_eq!(snap.gauge("busy_session_cap"), 0);
    }

    #[test]
    fn level_gauges_saturate_at_zero() {
        let g = Gauges::default();
        inc(&g.workers_busy);
        dec(&g.workers_busy);
        dec(&g.workers_busy);
        assert_eq!(g.workers_busy.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let stats = std::sync::Arc::new(ServeStats::new());
        std::thread::scope(|s| {
            for lane in 0..16u64 {
                let stats = std::sync::Arc::clone(&stats);
                s.spawn(move || {
                    for i in 0..100 {
                        stats.record(lane, "repair", 1_000 + i, Some(i));
                    }
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.methods["repair"].latency.count(), 1_600);
        assert_eq!(snap.methods["repair"].queue_wait.count(), 1_600);
    }

    /// Satellite: sharded-merge percentiles equal single-shard percentiles
    /// over random samples — sharding is an implementation detail that
    /// must be invisible in the snapshot.
    #[test]
    fn sharded_merge_percentiles_equal_single_shard() {
        pumpkin_testkit::check(32, |rng| {
            let sharded = ServeStats::new();
            let single = ServeStats::new();
            let n = rng.range(1, 500);
            for i in 0..n {
                // Skew across several orders of magnitude, like latencies.
                let magnitude = rng.range(1, 32);
                let v = rng.below(1 << magnitude);
                sharded.record(i, "repair", v, Some(v / 2));
                single.record(0, "repair", v, Some(v / 2));
            }
            let a = &sharded.snapshot().methods["repair"];
            let b = &single.snapshot().methods["repair"];
            assert_eq!(a, b, "snapshot must be shard-count invariant");
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(a.latency.quantile(q), b.latency.quantile(q));
                assert_eq!(a.queue_wait.quantile(q), b.queue_wait.quantile(q));
            }
        });
    }

    /// p50/p95/p99 of the log-linear histogram stay within its
    /// sub-bucket resolution of the exact nearest-rank order statistic.
    #[test]
    fn log_linear_quantiles_are_within_a_sub_bucket_of_exact_order_statistics() {
        pumpkin_testkit::check(32, |rng| {
            let mut h = Histogram::default();
            let mut exact = pumpkin_testkit::LatencyHistogram::new();
            let n = rng.range(1, 2_000);
            for _ in 0..n {
                let magnitude = rng.range(1, 40);
                let v = rng.below(1 << magnitude).max(1);
                h.observe(v);
                exact.record(v);
            }
            for (q, p) in [(0.5, 50.0), (0.95, 95.0), (0.99, 99.0)] {
                let approx = h.quantile(q).expect("non-empty") as f64;
                let truth = exact.percentile(p).max(1) as f64;
                // Both sides pick the same nearest rank, so the exact value
                // t lies in the sub-bucket the histogram reports. Values
                // below 16 are exact. Above, a sub-bucket is
                // [(8+s)·w, (9+s)·w) for some s in 0..8 and width w, and
                // the report is its midpoint (8+s+½)·w, so
                // approx/t ∈ ((8+s+½)/(9+s), (8+s+½)/(8+s)] ⊂ (17/18, 17/16]:
                // within −5.6% / +6.25%.
                let ratio = approx / truth;
                assert!(
                    ratio > 17.0 / 18.0 && ratio <= 17.0 / 16.0,
                    "q={q}: approx {approx} vs exact {truth} (ratio {ratio})"
                );
            }
        });
    }
}
