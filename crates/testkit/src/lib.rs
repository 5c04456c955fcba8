//! # pumpkin-testkit
//!
//! Dependency-free property-testing and micro-benchmark support.
//!
//! The workspace pins **zero external crates** so that it builds with
//! `cargo build --locked --offline` on a bare toolchain (see README.md,
//! "Reproducible builds"). This crate supplies the two pieces of
//! infrastructure the test and bench suites would otherwise pull from
//! `proptest` and `criterion`:
//!
//! * [`Rng`] — a small, fast, deterministic PRNG (splitmix64 seeding into
//!   xorshift64*), plus [`check`]/[`check_seeded`], which run a property
//!   over many random cases and report the failing seed so a failure can
//!   be replayed exactly.
//! * [`Bench`] — a wall-clock micro-benchmark harness with batched setup
//!   (the setup closure is excluded from the measurement) reporting
//!   median/min/max over a configurable sample count, row by row or with
//!   several rows sampled round-robin ([`Bench::bench_interleaved`]).
//!
//! Determinism policy: every test gets a fixed default seed, so `cargo
//! test` is reproducible run-to-run and machine-to-machine. Set the
//! `PUMPKIN_TEST_SEED` environment variable to explore other universes.

use std::time::{Duration, Instant};

/// A deterministic xorshift64* PRNG.
///
/// Not cryptographic; statistically plenty for generating test cases.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a seed (any value, including 0).
    pub fn new(seed: u64) -> Self {
        // splitmix64 scramble so that consecutive seeds give unrelated
        // streams and seed 0 is usable.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// Next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below(0)");
        // Multiply-shift; bias is negligible for test-sized bounds.
        ((self.u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A vector of `len in [0, max_len]` elements drawn by `f`.
    pub fn vec<T>(&mut self, max_len: usize, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let len = self.index(max_len + 1);
        (0..len).map(|_| f(self)).collect()
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.index(i + 1);
            p.swap(i, j);
        }
        p
    }
}

/// The base seed for [`check`]: `PUMPKIN_TEST_SEED` if set, else a fixed
/// default so plain `cargo test` is deterministic.
pub fn base_seed() -> u64 {
    match std::env::var("PUMPKIN_TEST_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("PUMPKIN_TEST_SEED must be an unsigned integer, got `{s}`")),
        Err(_) => 0xC0FF_EE00,
    }
}

/// Runs `prop` on `cases` independently seeded generators. On panic, the
/// failing case's seed is reported so it can be replayed with
/// `check_seeded(seed, 1, prop)` (or `PUMPKIN_TEST_SEED=seed`).
pub fn check(cases: u64, prop: impl FnMut(&mut Rng)) {
    check_seeded(base_seed(), cases, prop)
}

/// [`check`] with an explicit base seed.
pub fn check_seeded(base: u64, cases: u64, mut prop: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let seed = base.wrapping_add(case);
        let mut rng = Rng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut rng)));
        if let Err(payload) = result {
            eprintln!(
                "property failed at case {case}/{cases} (seed {seed}); \
                 replay with PUMPKIN_TEST_SEED={seed}"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// One benchmark measurement: wall-clock times per iteration, in
/// nanoseconds, sorted ascending.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark id, e.g. `"cache/on"`.
    pub id: String,
    /// Per-iteration wall-clock times, sorted.
    pub times_ns: Vec<u64>,
}

impl Sample {
    /// A sample from externally collected times (sorted here, so callers
    /// need not maintain the ordering invariant themselves).
    pub fn from_times(id: impl Into<String>, mut times_ns: Vec<u64>) -> Sample {
        assert!(!times_ns.is_empty(), "Sample::from_times with no times");
        times_ns.sort_unstable();
        Sample {
            id: id.into(),
            times_ns,
        }
    }

    /// A one-value sample — the natural carrier for derived statistics
    /// (a percentile, an inverse throughput) in a `pumpkin-bench/v1`
    /// report, where the guard reads `median_ns`.
    pub fn single(id: impl Into<String>, ns: u64) -> Sample {
        Sample {
            id: id.into(),
            times_ns: vec![ns],
        }
    }

    /// Median time per iteration.
    pub fn median(&self) -> Duration {
        Duration::from_nanos(self.times_ns[self.times_ns.len() / 2])
    }

    /// Fastest iteration.
    pub fn min(&self) -> Duration {
        Duration::from_nanos(self.times_ns[0])
    }

    /// Slowest iteration.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(*self.times_ns.last().unwrap())
    }
}

/// A latency recorder with exact percentiles.
///
/// Keeps every recorded value (load runs are tens of thousands of
/// samples, not billions, so exactness is affordable) and computes
/// nearest-rank percentiles over the sorted set. Per-thread recorders
/// [`merge`](LatencyHistogram::merge) into one before summarizing.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    samples: Vec<u64>,
}

impl LatencyHistogram {
    /// An empty recorder.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one latency observation, in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    /// Folds another recorder's observations into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let total: u128 = self.samples.iter().map(|&t| t as u128).sum();
        (total / self.samples.len() as u128) as u64
    }

    /// The largest recorded value (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Nearest-rank percentile: the smallest recorded value such that at
    /// least `p`% of observations are ≤ it. `p` is clamped to [0, 100];
    /// an empty recorder reports 0. `percentile(50.0)` is the median.
    pub fn percentile(&self, p: f64) -> u64 {
        self.percentiles(&[p])[0]
    }

    /// Several nearest-rank percentiles over one shared sort.
    pub fn percentiles(&self, ps: &[f64]) -> Vec<u64> {
        if self.samples.is_empty() {
            return vec![0; ps.len()];
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        ps.iter()
            .map(|&p| {
                let p = p.clamp(0.0, 100.0);
                let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
                sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
            })
            .collect()
    }
}

/// Renders samples in the `pumpkin-bench/v1` JSON-lines format: a schema
/// header (carrying the nominal per-row sample count), then one object
/// per sample. [`Bench::to_json_lines`] and `pumpkin loadgen` both emit
/// through this, so CI's bench guard reads one format everywhere.
pub fn json_lines(nominal_samples: usize, rows: &[Sample]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"pumpkin-bench/v1\",\"samples\":{nominal_samples}}}\n",
    ));
    for s in rows {
        // Bench ids are plain ASCII identifiers; quote-escape anyway so
        // the output is always valid JSON.
        let id: String =
            s.id.chars()
                .flat_map(|c| match c {
                    '"' | '\\' => vec!['\\', c],
                    c => vec![c],
                })
                .collect();
        let times: Vec<String> = s.times_ns.iter().map(|t| t.to_string()).collect();
        out.push_str(&format!(
            "{{\"id\":\"{id}\",\"samples\":{},\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"times_ns\":[{}]}}\n",
            s.times_ns.len(),
            s.median().as_nanos(),
            s.min().as_nanos(),
            s.max().as_nanos(),
            times.join(",")
        ));
    }
    out
}

/// One row of [`Bench::bench_interleaved`]: an id, and a closure taking
/// one sample — `setup` untimed, then `routine` timed.
pub struct Row<'a> {
    id: String,
    sample: Box<dyn FnMut() -> u64 + 'a>,
}

impl<'a> Row<'a> {
    /// A row timing `routine` on fresh `setup` outputs. The routine's
    /// output is dropped after the clock stops.
    pub fn new<T, R>(
        id: &str,
        mut setup: impl FnMut() -> T + 'a,
        mut routine: impl FnMut(T) -> R + 'a,
    ) -> Row<'a> {
        let sample = move || {
            let input = setup();
            let start = Instant::now();
            let out = routine(input);
            let elapsed = start.elapsed();
            std::hint::black_box(out);
            elapsed.as_nanos() as u64
        };
        Row {
            id: id.to_string(),
            sample: Box::new(sample),
        }
    }
}

/// A minimal benchmark harness: runs `routine` `samples` times, each time
/// on a fresh value produced by `setup` (setup time is excluded), and
/// prints `id ... median [min .. max]` to stdout.
///
/// Passing `--filter <substr>[,<substr>…]` (or a bare positional
/// substring, as cargo bench forwards trailing args) skips ids matching
/// none of the comma-separated alternatives; `--json PATH` additionally writes a machine-readable JSON-lines report
/// on [`Bench::finish`] (the committed `BENCH_*.json` format CI's bench
/// guard compares against); other harness flags criterion would accept
/// (`--bench`, `--save-baseline x`, ...) are ignored for drop-in
/// compatibility.
pub struct Bench {
    samples: usize,
    filter: Option<String>,
    json: Option<String>,
    results: Vec<Sample>,
}

impl Default for Bench {
    fn default() -> Self {
        Bench::new()
    }
}

impl Bench {
    /// A harness with the default sample count (10, matching the seed
    /// repo's `Criterion::default().sample_size(10)`).
    pub fn new() -> Self {
        Bench {
            samples: 10,
            filter: None,
            json: None,
            results: Vec::new(),
        }
    }

    /// A harness configured from command-line arguments.
    pub fn from_args() -> Self {
        let mut bench = Bench::new();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--sample-size" | "--filter" | "--json" => {
                    let v = args.next();
                    match (a.as_str(), v) {
                        ("--sample-size", Some(v)) => match v.parse() {
                            Ok(n) if n > 0 => bench.samples = n,
                            _ => {
                                eprintln!(
                                    "error: --sample-size takes a positive integer, got `{v}`"
                                );
                                std::process::exit(2);
                            }
                        },
                        ("--filter", Some(v)) => bench.filter = Some(v),
                        ("--json", Some(v)) => bench.json = Some(v),
                        _ => {}
                    }
                }
                // Flags cargo bench / criterion CLIs pass that we ignore.
                "--bench" | "--test" | "--nocapture" | "--quiet" => {}
                s if s.starts_with("--") => {
                    // Unknown --flag[=value]: skip a following value-looking
                    // argument only for `--flag value` forms we know take one.
                    if s == "--save-baseline" || s == "--baseline" || s == "--measurement-time" {
                        let _ = args.next();
                    }
                }
                // Bare positional argument: treat as a filter (cargo bench
                // convention).
                s => bench.filter = Some(s.to_string()),
            }
        }
        bench
    }

    /// Overrides the per-benchmark sample count.
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Does the filter keep `id`? Comma-separated alternatives: keep ids
    /// matching any part.
    fn selected(&self, id: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|f| f.split(',').any(|part| id.contains(part)))
    }

    /// Measures `routine` on fresh `setup` outputs, recording and printing
    /// the result. Returns the sample (also retained for [`Self::finish`]).
    pub fn bench<T, R>(
        &mut self,
        id: &str,
        setup: impl FnMut() -> T,
        routine: impl FnMut(T) -> R,
    ) -> Option<&Sample> {
        if !self.selected(id) {
            return None;
        }
        self.bench_interleaved(vec![Row::new(id, setup, routine)]);
        self.results.last()
    }

    /// Measures several rows round-robin: one untimed warm-up of each,
    /// then one sample of each row in turn, so a change of host state
    /// between samples shifts every row alike instead of one row's
    /// whole block. Rows the filter skips are neither run nor recorded.
    pub fn bench_interleaved(&mut self, rows: Vec<Row<'_>>) {
        let mut rows: Vec<Row<'_>> = rows.into_iter().filter(|r| self.selected(&r.id)).collect();
        for row in &mut rows {
            (row.sample)();
        }
        let mut times = vec![Vec::with_capacity(self.samples); rows.len()];
        for _ in 0..self.samples {
            for (row, times) in rows.iter_mut().zip(&mut times) {
                times.push((row.sample)());
            }
        }
        for (row, times) in rows.into_iter().zip(times) {
            let sample = Sample::from_times(row.id, times);
            println!(
                "{:<40} median {:>12?}   [{:?} .. {:?}]",
                sample.id,
                sample.median(),
                sample.min(),
                sample.max()
            );
            self.results.push(sample);
        }
    }

    /// Measures a routine with no per-iteration setup.
    pub fn bench_fn<R>(&mut self, id: &str, mut routine: impl FnMut() -> R) -> Option<&Sample> {
        self.bench(id, || (), move |()| routine())
    }

    /// All recorded samples.
    pub fn results(&self) -> &[Sample] {
        &self.results
    }

    /// Renders the recorded samples as JSON lines: a schema header, then
    /// one object per sample (the `--json PATH` / `BENCH_*.json` format).
    pub fn to_json_lines(&self) -> String {
        json_lines(self.samples, &self.results)
    }

    /// Prints a closing summary line (and writes the `--json` report if one
    /// was requested). Call at the end of `main`.
    pub fn finish(self) {
        if let Some(path) = &self.json {
            match std::fs::write(path, self.to_json_lines()) {
                Ok(()) => println!("bench report written to {path}"),
                Err(e) => {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        println!("benchmarks complete: {} measured", self.results.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(a.u64(), c.u64());
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = Rng::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = Rng::new(11);
        for n in [0usize, 1, 2, 6, 30] {
            let mut p = rng.permutation(n);
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn check_runs_all_cases() {
        let mut n = 0;
        check(16, |_| n += 1);
        assert_eq!(n, 16);
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), 0);
        for v in 1..=100u64 {
            h.record(v * 10);
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.percentile(50.0), 500);
        assert_eq!(h.percentile(95.0), 950);
        assert_eq!(h.percentile(99.0), 990);
        assert_eq!(h.percentile(100.0), 1000);
        assert_eq!(h.percentile(0.0), 10);
        assert_eq!(h.mean_ns(), 505);
        assert_eq!(h.max_ns(), 1000);
        // Merging is observation-union: percentiles see both recorders.
        let mut other = LatencyHistogram::new();
        other.record(2000);
        h.merge(&other);
        assert_eq!(h.percentile(100.0), 2000);
        assert_eq!(h.len(), 101);
    }

    #[test]
    fn single_value_samples_carry_derived_stats() {
        let s = Sample::single("serve_load/p99", 1234);
        assert_eq!(s.median().as_nanos(), 1234);
        let s = Sample::from_times("x", vec![3, 1, 2]);
        assert_eq!(s.times_ns, vec![1, 2, 3]);
        let json = json_lines(1, &[s]);
        assert!(json.lines().count() == 2);
        assert!(json.contains("\"median_ns\":2"));
    }

    #[test]
    fn json_report_has_header_and_one_line_per_sample() {
        let mut b = Bench::new().sample_size(2);
        b.bench_fn("a/one", || 1 + 1);
        b.bench_fn("b/two", || 2 + 2);
        let json = b.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"pumpkin-bench/v1\""));
        assert!(lines[1].contains("\"id\":\"a/one\""));
        assert!(lines[1].contains("\"median_ns\":"));
        assert!(lines[2].contains("\"times_ns\":["));
    }

    #[test]
    fn bench_measures_and_filters() {
        let mut b = Bench::new().sample_size(3);
        b.filter = Some("yes".into());
        assert!(b.bench_fn("no/skipped", || 1 + 1).is_none());
        let s = b.bench_fn("yes/measured", || 1 + 1).unwrap();
        assert_eq!(s.times_ns.len(), 3);
    }

    #[test]
    fn interleaved_rows_take_turns_and_keep_setup_untimed() {
        let mut b = Bench::new().sample_size(3);
        b.filter = Some("row/".into());
        let order = std::cell::RefCell::new(Vec::new());
        let row = |id: &'static str| {
            let order = &order;
            Row::new(
                id,
                move || std::thread::sleep(Duration::from_millis(50)),
                move |()| order.borrow_mut().push(id),
            )
        };
        b.bench_interleaved(vec![
            row("row/a"),
            Row::new("skipped", || (), |()| ()),
            row("row/b"),
        ]);
        // A warm-up of each row, then the rows in turn.
        assert_eq!(*order.borrow(), ["row/a", "row/b"].repeat(4));
        let ids: Vec<&str> = b.results().iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["row/a", "row/b"]);
        for s in b.results() {
            assert_eq!(s.times_ns.len(), 3);
            assert!(
                s.max() < Duration::from_millis(50),
                "setup was timed: {s:?}"
            );
        }
    }
}
