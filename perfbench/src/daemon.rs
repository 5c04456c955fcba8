//! `daemon_mix`: the real `pumpkin serve` binary as a child process with
//! default settings, driven closed-loop from a fixed number of
//! connections, one generator thread each. Each connection sends its next
//! request when the previous reply has been read and parsed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use pumpkin_pi::pumpkin_serve::Client;
use pumpkin_pi::pumpkin_stdlib::nat::nat_value;
use pumpkin_pi::pumpkin_wire::{term_from_envelope, Value};

use crate::gen::{self, Expect, Request};
use crate::span::{Spans, UNIT};
use crate::{Args, Layers, Loop, Outcome};

type Res<T> = Result<T, String>;

/// Client connections, one generator thread each.
const CONNECTIONS: usize = 2;

/// Warm-up requests sent during set-up (both lifting specs get
/// configured on the workers before timing starts).
const WARMUP: u64 = 120;

/// A running daemon. Dropping it kills the process if it is still up.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    pub fn spawn(pumpkin: &Path) -> Res<Daemon> {
        let mut child = Command::new(pumpkin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pumpkin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("pumpkind listening on ")) {
            (Ok(_), Some(a)) => a.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "daemon did not report its address: `{}`",
                    line.trim()
                ));
            }
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn call(&self, method: &str) -> Res<Value> {
        Client::connect(&self.addr)
            .map_err(|e| e.to_string())?
            .call(method, Value::Obj(vec![]))
            .map_err(|e| format!("{method}: {e}"))
    }

    /// Asks the daemon to drain and waits for it to exit.
    pub fn shutdown(mut self) -> Res<()> {
        self.call("shutdown")?;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(20) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Reply bytes with the per-call `id` and `req_id` stripped, hashed: two
/// identical deterministic requests must hash the same.
fn stable_hash(reply: &Value) -> u64 {
    let fields: Vec<(String, Value)> = reply
        .as_obj()
        .unwrap_or(&[])
        .iter()
        .filter(|(k, _)| k != "id" && k != "req_id")
        .cloned()
        .collect();
    let mut h = DefaultHasher::new();
    Value::Obj(fields).to_string().hash(&mut h);
    h.finish()
}

/// Counters gathered from the replies of traced requests.
#[derive(Default)]
struct ReplyCounters {
    auto_tried: u64,
    auto_skipped: u64,
    auto_useful: u64,
    visits: u64,
    lift_hits: u64,
    lift_misses: u64,
    constants_lifted: u64,
    waves: u64,
    max_width: u64,
    incr: [u64; 3],
    reports: u64,
    reply_bytes: u64,
    replies: u64,
}

impl ReplyCounters {
    fn absorb(&mut self, o: &ReplyCounters) {
        self.auto_tried += o.auto_tried;
        self.auto_skipped += o.auto_skipped;
        self.auto_useful += o.auto_useful;
        self.visits += o.visits;
        self.lift_hits += o.lift_hits;
        self.lift_misses += o.lift_misses;
        self.constants_lifted += o.constants_lifted;
        self.waves += o.waves;
        self.max_width = self.max_width.max(o.max_width);
        for k in 0..3 {
            self.incr[k] += o.incr[k];
        }
        self.reports += o.reports;
        self.reply_bytes += o.reply_bytes;
        self.replies += o.replies;
    }

    fn report(&mut self, r: &Value) {
        let u = |k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(0);
        self.reports += 1;
        self.visits += u("visits");
        self.lift_hits += u("cache_hits");
        self.lift_misses += u("cache_misses");
        self.constants_lifted += u("constants_lifted");
        self.waves += u("waves");
        self.max_width = self.max_width.max(u("max_width"));
        if let Some(i) = r.get("incr") {
            for (k, key) in ["changed", "replayed", "skipped"].iter().enumerate() {
                self.incr[k] += i.get(key).and_then(Value::as_u64).unwrap_or(0);
            }
        }
    }

    fn auto(&mut self, a: &Value) {
        let u = |k: &str| a.get(k).and_then(Value::as_u64).unwrap_or(0);
        self.auto_tried += u("tried");
        self.auto_skipped += u("skipped_cache");
        self.auto_useful += u("skipped_cache") + u64::from(a.get("winner").is_some());
    }
}

fn renamed(from: &str) -> String {
    from.replacen("Old.", "New.", 1)
}

/// A repair result renames every requested constant, and every pair it
/// reports renames the `Old.` prefix to `New.`.
fn check_repaired(result: &Value, names: &[String]) -> Res<()> {
    let pairs = result
        .get("report")
        .and_then(|r| r.get("repaired"))
        .and_then(Value::as_arr)
        .ok_or("reply has no repaired pairs")?;
    let mut froms = Vec::new();
    for p in pairs {
        let pair: Vec<&str> = p
            .as_arr()
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_str)
            .collect();
        match pair[..] {
            [f, t] if t == renamed(f) => froms.push(f),
            _ => return Err(format!("unexpected repaired pair {p}")),
        }
    }
    if let Some(missing) = names.iter().find(|n| !froms.contains(&n.as_str())) {
        return Err(format!("{missing} was not repaired"));
    }
    if let Some(to) = result.get("to") {
        if to.as_str() != Some(renamed(&names[0]).as_str()) {
            return Err(format!("{} repaired to {to}", names[0]));
        }
    }
    Ok(())
}

/// Checks one reply against what the request expects.
fn check_reply(req: &Request, reply: &Value, counters: &mut ReplyCounters) -> Res<()> {
    let ok = reply.get("ok").and_then(Value::as_bool);
    if let Expect::Exhausted = req.expect {
        let err = reply
            .get("error")
            .ok_or("expected auto_exhausted, got success")?;
        if err.get("code").and_then(Value::as_str) != Some("auto_exhausted") {
            return Err(format!("expected auto_exhausted, got {err}"));
        }
        counters.auto(err.get("data").ok_or("exhaustion without accounting")?);
        return Ok(());
    }
    if ok != Some(true) {
        return Err(format!(
            "{} failed: {}",
            req.method,
            reply.get("error").unwrap_or(&Value::Null)
        ));
    }
    let result = reply.get("result").ok_or("reply has no result")?;
    match &req.expect {
        Expect::Repaired(names) => {
            check_repaired(result, names)?;
            counters.report(result.get("report").unwrap_or(&Value::Null));
        }
        Expect::Batch(names) => {
            let items = result
                .get("results")
                .and_then(Value::as_arr)
                .ok_or("batch reply has no results")?;
            if items.len() != names.len() {
                return Err(format!(
                    "{} batch results for {} items",
                    items.len(),
                    names.len()
                ));
            }
            for (item, name) in items.iter().zip(names) {
                if item.get("ok").and_then(Value::as_bool) != Some(true) {
                    return Err(format!("batch item {name} failed: {item}"));
                }
                let r = item.get("result").ok_or("batch item has no result")?;
                check_repaired(r, std::slice::from_ref(name))?;
                counters.report(r.get("report").unwrap_or(&Value::Null));
            }
        }
        Expect::Explain(to) => {
            let text = result
                .get("explanation")
                .and_then(Value::as_str)
                .unwrap_or("");
            if result.get("to").and_then(Value::as_str) != Some(to.as_str()) || text.is_empty() {
                return Err(format!("explain did not explain {to}"));
            }
        }
        Expect::Eval(n) => {
            let term = result.get("term").ok_or("eval reply has no term")?;
            let t = term_from_envelope(term).map_err(|e| e.to_string())?;
            if nat_value(&t) != Some(*n) {
                return Err(format!("eval answered {t:?}, expected {n}"));
            }
        }
        Expect::Exhausted => unreachable!("handled above"),
    }
    Ok(())
}

/// What one connection measured.
struct ConnRun {
    lp: Loop,
    spans: Spans,
    counters: ReplyCounters,
    /// Reply hash per deterministic request text.
    replies: HashMap<String, u64>,
}

/// One closed-loop connection: sends requests of its stream until the
/// deadline passes and it has sent at least `min` requests.
fn drive(
    args: &Args,
    addr: &str,
    conn: u64,
    origin: Instant,
    deadline: Instant,
    min: usize,
) -> Res<ConnRun> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut run = ConnRun {
        lp: Loop::default(),
        spans: Spans::new(args.trace, origin),
        counters: ReplyCounters::default(),
        replies: HashMap::new(),
    };
    let sp = &mut run.spans;
    let hard_stop = deadline + Duration::from_secs(60);
    let mut slot = 0u64;
    while (Instant::now() < deadline || (slot as usize) < min) && Instant::now() < hard_stop {
        let req = gen::daemon_request(args.seed, conn, slot);
        let traced = args.trace && slot.is_multiple_of(2);
        sp.set_on(traced);
        sp.set_unit((conn << 32) | slot);
        slot += 1;
        let t0 = Instant::now();
        let reply = sp.span(UNIT, |sp| {
            let frame = sp.span("wire.request_encode", |_| {
                Value::Obj(vec![
                    ("id".into(), Value::UInt(slot)),
                    ("method".into(), Value::str(req.method)),
                    ("params".into(), req.params.clone()),
                ])
                .to_string()
            });
            let line = sp
                .span("serve.round_trip", |_| client.call_raw(&frame))
                .map_err(|e| format!("{}: {e}", req.method))?;
            let v = sp.span("wire.reply_parse", |_| Value::parse(&line));
            Ok::<_, String>((line.len(), v.map_err(|e| e.to_string())?))
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        run.lp.attempted += 1;
        let mut counters = ReplyCounters::default();
        let verdict = reply.and_then(|(bytes, v)| {
            counters.reply_bytes = bytes as u64;
            counters.replies = 1;
            check_reply(&req, &v, &mut counters)?;
            if req.deterministic {
                let key = format!("{} {}", req.method, req.params);
                let h = stable_hash(&v);
                if *run.replies.entry(key).or_insert(h) != h {
                    return Err(format!("repeated {} got different reply bytes", req.method));
                }
            }
            Ok(())
        });
        if let Err(e) = verdict {
            run.lp.failed += 1;
            if run.lp.failed <= 5 {
                eprintln!("perfbench: connection {conn} slot {}: {e}", slot - 1);
            }
        }
        if traced {
            run.counters.absorb(&counters);
            run.lp.traced_ms.push(ms);
        } else {
            run.lp.lat_ms.push(ms);
        }
    }
    Ok(run)
}

fn stats_u64(stats: &Value, path: &[&str]) -> u64 {
    let mut v = stats;
    for k in path {
        match v.get(k) {
            Some(x) => v = x,
            None => return 0,
        }
    }
    v.as_u64().unwrap_or(0)
}

/// Per-layer values from two `stats` snapshots: counts and gauges are
/// diffed; quantiles come from the later snapshot (the earlier one holds
/// only the warm-up).
fn serve_layers(before: &Value, after: &Value, layers: &mut Layers) {
    let d = |path: &[&str]| stats_u64(after, path).saturating_sub(stats_u64(before, path));
    let ms = |path: &[&str]| stats_u64(after, path) as f64 / 1e6;
    layers.insert(
        "serve.queue_wait_p50_ms",
        ms(&["total", "queue_wait", "p50_ns"]),
    );
    layers.insert(
        "serve.queue_wait_p99_ms",
        ms(&["total", "queue_wait", "p99_ns"]),
    );
    for &(name, _) in crate::PER_LAYER {
        if let Some(method) = name.strip_prefix("serve.service_p50_ms.") {
            layers.insert(name, ms(&["methods", method, "latency", "p50_ns"]));
        }
    }
    let hits = d(&["gauges", "config_cache_hits"]);
    let misses = d(&["gauges", "config_cache_misses"]);
    layers.insert(
        "serve.config_cache_hit_ratio",
        crate::ratio(hits, hits + misses),
    );
    layers.insert(
        "serve.busy",
        (d(&["gauges", "busy_queue_full"]) + d(&["gauges", "busy_session_cap"])) as f64,
    );
}

/// Runs the workload.
pub fn run(args: &Args, origin: Instant, sp: &mut Spans) -> Res<Outcome> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = CONNECTIONS.min(nproc);
    assert!(
        conns <= nproc,
        "the generator may not use more threads than CPUs"
    );

    // Set-up: spawn the daemon, say hello, and warm both lifting specs.
    // Earlier repetitions' daemons are shut down before the next starts.
    let mut previous: Option<Daemon> = None;
    let (daemon, setup_s) = crate::repeated_setup(origin, |_| {
        if let Some(d) = previous.take() {
            d.shutdown()?;
        }
        let d = Daemon::spawn(&args.pumpkin)?;
        d.call("hello")?;
        let mut client = Client::connect(&d.addr).map_err(|e| e.to_string())?;
        for slot in 0..WARMUP {
            let req = gen::daemon_request(args.seed, u64::from(u32::MAX), slot);
            match client.call(req.method, req.params) {
                Ok(_) => {}
                Err(e)
                    if req.expect == Expect::Exhausted
                        && e.to_string().contains("auto_exhausted") => {}
                Err(e) => return Err(format!("warm-up {}: {e}", req.method)),
            }
        }
        let pid = d.pid();
        previous = Some(d);
        Ok(pid)
    })
    .map(|(_, s)| (previous.take().expect("a daemon from set-up"), s))?;

    let before = daemon.call("stats")?;
    let min = crate::stats::samples_for(99.0).div_ceil(conns);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let runs: Vec<Res<ConnRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns as u64)
            .map(|c| {
                let addr = daemon.addr.as_str();
                s.spawn(move || drive(args, addr, c, origin, deadline, min))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let after = daemon.call("stats")?;
    let rss = crate::peak_rss_mb(&daemon.pid())?;
    daemon.shutdown()?;

    let mut lp = Loop {
        timed_s: wall_s,
        rss_mb: rss,
        ..Loop::default()
    };
    let mut counters = ReplyCounters::default();
    let mut replies: HashMap<String, u64> = HashMap::new();
    let mut mismatched = 0u64;
    for run in runs {
        let run = run?;
        lp.lat_ms.extend(run.lp.lat_ms);
        lp.traced_ms.extend(run.lp.traced_ms);
        lp.attempted += run.lp.attempted;
        lp.failed += run.lp.failed;
        counters.absorb(&run.counters);
        sp.absorb(run.spans);
        // Deterministic requests repeated on different connections (and
        // so, likely, different workers) must also agree.
        for (k, h) in run.replies {
            if *replies.entry(k).or_insert(h) != h {
                mismatched += 1;
            }
        }
    }
    lp.failed += mismatched;

    let metrics = if args.trace {
        let mut layers = Layers::new();
        let c = &counters;
        let per = |x: u64| x as f64 / c.reports.max(1) as f64;
        layers.extend([
            ("core.auto.tried", c.auto_tried as f64),
            ("core.auto.skipped_cache", c.auto_skipped as f64),
            (
                "core.auto.useful_ratio",
                crate::ratio(c.auto_useful, c.auto_tried + c.auto_skipped),
            ),
            ("core.lift.visits", per(c.visits)),
            (
                "core.lift.cache_hit_ratio",
                crate::ratio(c.lift_hits, c.lift_hits + c.lift_misses),
            ),
            ("core.lift.constants_lifted", per(c.constants_lifted)),
            ("core.schedule.waves", per(c.waves)),
            ("core.schedule.max_width", c.max_width as f64),
            ("core.incr.changed", per(c.incr[0])),
            ("core.incr.replayed", per(c.incr[1])),
            ("core.incr.skipped", per(c.incr[2])),
            ("wire.reply_bytes", crate::ratio(c.reply_bytes, c.replies)),
        ]);
        serve_layers(&before, &after, &mut layers);
        crate::span_layers(&mut layers, sp, &lp);
        crate::per_layer(&layers)
    } else {
        crate::end_to_end(&lp, 99.0, setup_s)?
    };
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(text: &str) -> Value {
        Value::parse(text).expect("test reply parses")
    }

    /// An injected wrong reply is counted as failed.
    #[test]
    fn wrong_replies_fail_the_check() {
        let mut c = ReplyCounters::default();
        let req = |expect| Request {
            method: "x",
            params: Value::Null,
            expect,
            deterministic: true,
        };
        let good = reply(
            r#"{"id":1,"ok":true,"result":{"from":"Old.rev","to":"New.rev","report":{"repaired":[["Old.app","New.app"],["Old.rev","New.rev"]]}},"req_id":9}"#,
        );
        let names = vec!["Old.rev".to_string()];
        assert!(check_reply(&req(Expect::Repaired(names.clone())), &good, &mut c).is_ok());
        let wrong = reply(
            r#"{"id":1,"ok":true,"result":{"from":"Old.rev","to":"New.rev","report":{"repaired":[["Old.rev","Old.rev"]]}},"req_id":9}"#,
        );
        assert!(check_reply(&req(Expect::Repaired(names)), &wrong, &mut c).is_err());
        let refused = reply(r#"{"id":1,"ok":false,"error":{"code":"busy","message":"full"}}"#);
        assert!(check_reply(&req(Expect::Eval(3)), &refused, &mut c).is_err());
        assert!(check_reply(&req(Expect::Exhausted), &refused, &mut c).is_err());
        let exhausted = reply(
            r#"{"id":2,"ok":false,"error":{"code":"auto_exhausted","message":"m","data":{"tried":2,"skipped_cache":0}}}"#,
        );
        assert!(check_reply(&req(Expect::Exhausted), &exhausted, &mut c).is_ok());
        assert_eq!(c.auto_tried, 2);
        // Replies that differ only in `id`/`req_id` hash the same.
        let other = reply(
            r#"{"id":7,"ok":true,"result":{"from":"Old.rev","to":"New.rev","report":{"repaired":[["Old.app","New.app"],["Old.rev","New.rev"]]}},"req_id":44}"#,
        );
        assert_eq!(stable_hash(&good), stable_hash(&other));
        assert_ne!(stable_hash(&good), stable_hash(&wrong));
    }
}
