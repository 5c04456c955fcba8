//! The repository benchmark: three seeded workloads over the repair
//! engine and the daemon, each timed end to end, with a separate traced
//! run that attributes time to layers from outside.
//!
//! ```text
//! pumpkin-perfbench --workload <paper_corpus|daemon_mix|edit_loop> --seed N
//!                   --seconds S --trace <0|1> [--pumpkin PATH] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end metrics; with `--trace 1` the per-layer
//! metrics, and the spans are written to `DIR/spans-<workload>-<seed>.jsonl`.
//! See `perfbench/README.md` for what each workload and metric means.

mod corpus;
mod daemon;
mod edit;
mod gen;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pumpkin_pi::pumpkin_core::{IncrStats, KernelStats, LiftStats, RepairReport};
use span::{Spans, UNIT};

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `pumpkin` binary `daemon_mix` spawns as its server.
    pub pumpkin: PathBuf,
    /// Where spans, persist caches and other run artefacts go.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        pumpkin: PathBuf::from("pumpkin"),
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()? as f64,
            "--trace" => args.trace = number()? != 0,
            "--pumpkin" => args.pumpkin = PathBuf::from(&value),
            "--out" => args.out = PathBuf::from(&value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The per-layer metrics, in report order, with their units. Every traced
/// run reports all of them; a layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stdlib.std_env_ms", "ms"),
    ("lang.load_source_ms", "ms"),
    ("core.search.configure_ms", "ms"),
    ("core.repairer.run_ms", "ms"),
    ("core.lift.visits", "count"),
    ("core.lift.cache_hit_ratio", "ratio"),
    ("core.lift.constants_lifted", "count"),
    ("core.schedule.waves", "count"),
    ("core.schedule.max_width", "count"),
    ("kernel.recheck_ms", "ms"),
    ("kernel.infer_calls", "count"),
    ("kernel.whnf_calls", "count"),
    ("kernel.whnf_hit_ratio", "ratio"),
    ("kernel.conv_calls", "count"),
    ("kernel.delta_steps", "count"),
    ("tactics.decompile_ms", "ms"),
    ("tactics.prove_ms", "ms"),
    ("core.persist.hits", "count"),
    ("core.persist.misses", "count"),
    ("core.persist.hit_ratio", "ratio"),
    ("core.persist.dir_bytes", "bytes"),
    ("core.incr.changed", "count"),
    ("core.incr.replayed", "count"),
    ("core.incr.skipped", "count"),
    ("core.incr.capture_ms", "ms"),
    ("core.auto.tried", "count"),
    ("core.auto.skipped_cache", "count"),
    ("core.auto.useful_ratio", "ratio"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms.repair", "ms"),
    ("serve.service_p50_ms.repair_module", "ms"),
    ("serve.service_p50_ms.repair_batch", "ms"),
    ("serve.service_p50_ms.repair_auto", "ms"),
    ("serve.service_p50_ms.explain", "ms"),
    ("serve.service_p50_ms.eval", "ms"),
    ("serve.config_cache_hit_ratio", "ratio"),
    ("serve.busy", "count"),
    ("serve.round_trip_ms", "ms"),
    ("wire.request_encode_ms", "ms"),
    ("wire.reply_parse_ms", "ms"),
    ("wire.reply_bytes", "bytes"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.units", "count"),
];

/// The end-to-end metrics, with their units. The median unit latency is
/// printed on standard error but is not one of them: on a shared host
/// whose speed shifts by about 30% in phases of seconds, the median of a
/// workload with a two-mode latency distribution jumps between the modes
/// from run to run, while the tail and the mean (throughput) move
/// smoothly.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Span names whose median per-unit self time is a per-layer metric.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("stdlib.std_env", "stdlib.std_env_ms"),
    ("lang.load_source", "lang.load_source_ms"),
    ("core.search.configure", "core.search.configure_ms"),
    ("core.repairer.run", "core.repairer.run_ms"),
    ("kernel.recheck", "kernel.recheck_ms"),
    ("tactics.decompile", "tactics.decompile_ms"),
    ("tactics.prove", "tactics.prove_ms"),
    ("core.incr.capture", "core.incr.capture_ms"),
    ("serve.round_trip", "serve.round_trip_ms"),
    ("wire.request_encode", "wire.request_encode_ms"),
    ("wire.reply_parse", "wire.reply_parse_ms"),
    (UNIT, "trace.unattributed_ms"),
];

/// Per-layer values a workload measured, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds the span-derived per-layer metrics (median per-unit self time of
/// each layer span, and of the unit itself as the unattributed rest) and
/// the tracing overhead (traced minus untraced median unit latency).
pub fn span_layers(layers: &mut Layers, sp: &Spans, lp: &Loop) {
    let per_unit = sp.per_unit_self_ms();
    for (span_name, metric) in SPAN_METRICS {
        if let Some(v) = per_unit.get(span_name) {
            layers.insert(metric, stats::median(v));
        }
    }
    layers.insert(
        "trace.overhead_ms",
        stats::median(&lp.traced_ms) - stats::median(&lp.lat_ms),
    );
    layers.insert("trace.units", lp.traced_ms.len() as f64);
}

/// Counters summed over the [`RepairReport`]s of the traced units.
#[derive(Default)]
pub struct Counters {
    pub kernel: KernelStats,
    pub lift: LiftStats,
    pub waves: u64,
    pub max_width: u64,
    pub incr: IncrStats,
}

impl Counters {
    pub fn add(&mut self, r: &RepairReport) {
        self.kernel.absorb(&r.kernel);
        let (a, b) = (&mut self.lift, &r.lift);
        a.cache_hits += b.cache_hits;
        a.cache_misses += b.cache_misses;
        a.constants_lifted += b.constants_lifted;
        a.visits += b.visits;
        a.persist_hits += b.persist_hits;
        a.persist_misses += b.persist_misses;
        self.waves += r.schedule.waves as u64;
        self.max_width = self.max_width.max(r.schedule.max_width as u64);
        if let Some(i) = &r.incr {
            self.incr.changed += i.changed;
            self.incr.replayed += i.replayed;
            self.incr.skipped += i.skipped;
        }
    }

    /// Per-unit means over `units` units (counts) and whole-run ratios.
    pub fn layers(&self, units: usize, layers: &mut Layers) {
        let per = |x: u64| x as f64 / units.max(1) as f64;
        let (k, l, i) = (&self.kernel, &self.lift, &self.incr);
        let entries = [
            ("core.lift.visits", per(l.visits)),
            (
                "core.lift.cache_hit_ratio",
                ratio(l.cache_hits, l.cache_hits + l.cache_misses),
            ),
            ("core.lift.constants_lifted", per(l.constants_lifted)),
            ("core.schedule.waves", per(self.waves)),
            ("core.schedule.max_width", self.max_width as f64),
            ("kernel.infer_calls", per(k.infer_calls)),
            ("kernel.whnf_calls", per(k.whnf_calls)),
            ("kernel.whnf_hit_ratio", k.whnf_hit_rate()),
            ("kernel.conv_calls", per(k.conv_calls)),
            ("kernel.delta_steps", per(k.delta_steps)),
            ("core.persist.hits", per(l.persist_hits)),
            ("core.persist.misses", per(l.persist_misses)),
            (
                "core.persist.hit_ratio",
                ratio(l.persist_hits, l.persist_hits + l.persist_misses),
            ),
            ("core.incr.changed", per(i.changed)),
            ("core.incr.replayed", per(i.replayed)),
            ("core.incr.skipped", per(i.skipped)),
        ];
        layers.extend(entries);
    }
}

/// Ratio helper that reads 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The samples of a closed measurement loop.
#[derive(Default)]
pub struct Loop {
    /// Latencies of untraced units, in ms.
    pub lat_ms: Vec<f64>,
    /// Latencies of traced units, in ms (traced runs only).
    pub traced_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Time spent inside timed units, in s.
    pub timed_s: f64,
    /// Peak RSS of the process doing the work, in MB. In-process loops
    /// read it once `min_units` units are done, so it measures a fixed
    /// amount of work whatever the machine's speed.
    pub rss_mb: f64,
}

/// Hard ceiling on a run's measuring phase, so a slow machine still ends
/// well inside the time a run is allowed.
const WALL_LIMIT_S: f64 = 120.0;

/// Runs units until `args.seconds` of timed work and at least `min_units`
/// units are done. `prepare` makes a unit's input and `check` verifies
/// its output, both outside the timed region; only `unit` is timed. A
/// traced run traces every other unit, so the two halves give the
/// tracing overhead.
pub fn timed_loop<I, T>(
    args: &Args,
    min_units: usize,
    sp: &mut Spans,
    mut prepare: impl FnMut(u64) -> I,
    mut unit: impl FnMut(&mut Spans, &I) -> Result<T, String>,
    mut check: impl FnMut(&mut Spans, I, T) -> Result<(), String>,
) -> Loop {
    let mut lp = Loop::default();
    let wall = Instant::now();
    let mut u = 0u64;
    while (lp.timed_s < args.seconds || (u as usize) < min_units)
        && wall.elapsed().as_secs_f64() < WALL_LIMIT_S
    {
        let traced = args.trace && u.is_multiple_of(2);
        sp.set_on(traced);
        sp.set_unit(u);
        let input = prepare(u);
        let t0 = Instant::now();
        let out = sp.span(UNIT, |sp| unit(sp, &input));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let verdict = out.and_then(|v| sp.span("check", |sp| check(sp, input, v)));
        lp.attempted += 1;
        if let Err(e) = verdict {
            lp.failed += 1;
            if lp.failed <= 5 {
                eprintln!("perfbench: unit {u} failed: {e}");
            }
        }
        lp.timed_s += ms / 1e3;
        if traced {
            lp.traced_ms.push(ms);
        } else {
            lp.lat_ms.push(ms);
        }
        u += 1;
        if u as usize == min_units {
            lp.rss_mb = peak_rss_mb("self").unwrap_or(0.0);
        }
    }
    sp.set_on(args.trace);
    lp
}

/// How many times each workload repeats its set-up; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;

/// Runs `f` [`SETUP_REPS`] times, returning the last result and the
/// median duration in seconds. The first repetition is timed from
/// process start.
pub fn repeated_setup<T>(
    origin: Instant,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { origin } else { Instant::now() };
        last = Some(f(rep)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one repetition"),
        stats::median(&times),
    ))
}

/// `VmHWM` of a process, in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line for process {pid}"))
}

/// The end-to-end metrics of a closed loop. `tail_p` is the workload's
/// tail percentile; the loop must hold enough samples to report it.
pub fn end_to_end(lp: &Loop, tail_p: f64, setup_s: f64) -> Result<Vec<Metric>, String> {
    let n = lp.lat_ms.len();
    if stats::highest_reportable(n, &[tail_p]).is_none() {
        return Err(format!(
            "{n} units cannot report p{tail_p} (needs {})",
            stats::samples_for(tail_p)
        ));
    }
    let ps: Vec<String> = [5.0, 10.0, 25.0, 50.0, 75.0, 90.0]
        .iter()
        .map(|&p| format!("{:.4}", stats::percentile(&lp.lat_ms, p)))
        .collect();
    eprintln!(
        "perfbench: latency percentiles 5/10/25/50/75/90: {}",
        ps.join(" ")
    );
    let values = [
        stats::percentile(&lp.lat_ms, tail_p),
        lp.attempted as f64 / lp.timed_s,
        setup_s,
        lp.rss_mb,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect())
}

/// Orders a workload's per-layer values as [`PER_LAYER`] lists them.
pub fn per_layer(layers: &Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: layers.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

fn render(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let mut sp = Spans::new(args.trace, origin);
    let result = match args.workload.as_str() {
        "paper_corpus" => corpus::run(&args, origin, &mut sp),
        "daemon_mix" => daemon::run(&args, origin, &mut sp),
        "edit_loop" => edit::run(&args, origin, &mut sp),
        other => Err(format!("unknown workload `{other}`")),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = sp.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "perfbench: {} seed {}: {} attempted, {} failed (failed_ratio {:.4})",
        args.workload,
        args.seed,
        out.attempted,
        out.failed,
        ratio(out.failed, out.attempted)
    );
    println!("{}", render(&out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = pumpkin_pi::pumpkin_wire::Value::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = render(&Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![Metric {
                name: "tail_ms",
                value: 1.25,
                unit: "ms",
            }],
        });
        let v = pumpkin_pi::pumpkin_wire::Value::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(false));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(3));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(1));
        assert!(v.get("metrics").and_then(|m| m.get("tail_ms")).is_some());
    }
}
