//! `pumpkin` — a command-line driver for the repair engine.
//!
//! Usage: `pumpkin [--trace out.jsonl] [--metrics] <script.pi | ->`.
//! See [`pumpkin_pi::cli`] for the directive reference and
//! `examples/scripts/` for walkthroughs.
//!
//! * `--trace out.jsonl` — write each repair command's structured event
//!   stream as JSON lines (schema in DESIGN.md §11).
//! * `--metrics` — print the derived counters/histograms after each
//!   repair command.
//!
//! A second mode analyzes traces offline (no script, no environment):
//! `pumpkin trace-report [--lint] [--top K] <file.jsonl> [file2.jsonl]`.
//! One file renders the full report (hottest lifts, cache behavior per
//! constant, provenance summary); two files render a
//! structural diff; `--lint` validates the file(s) against the schema and
//! exits nonzero on violations.

use std::io::Read;
use std::process::ExitCode;
use std::str::FromStr;

use pumpkin_pi::cli::{run_script, Session};
use pumpkin_serve::{Client, ServerConfig};
use pumpkin_wire::{LiftSpec, Value};

const USAGE: &str = "usage: pumpkin [--trace out.jsonl] [--metrics] <script.pi | ->\n\
                     \x20      pumpkin trace-report [--lint] [--top K] <file.jsonl> [file2.jsonl]\n\
                     \x20      pumpkin serve [--listen ADDR] [--unix PATH] [--max-sessions N]\n\
                     \x20                    [--workers N] [--queue-depth N] [--cache-dir DIR]\n\
                     \x20                    [--cache-max-bytes N] [--slow-ms N] [--log PATH]\n\
                     \x20      pumpkin client --connect ADDR <hello|ping|shutdown|stats|repair-module|explain|call> [args]\n\
                     \x20                     (stats takes [--json|--prometheus]; repair-module and explain take\n\
                     \x20                     --swap A B [--rename From.=To.] --names n1,n2,... [--deterministic])\n\
                     \x20      pumpkin top --connect ADDR [--interval-ms N] [--count N]\n\
                     \x20      pumpkin watch [--poll-ms MS] [--max-runs N] [--cache-dir DIR]\n\
                     \x20                    [--cache-max-bytes N] [--swap A B] [--rename From.=To.]\n\
                     \x20                    [--names n1,n2,...] <module.pi>\n\
                     \x20      pumpkin auto [--budget N] [--emit-repro PATH] [--seed S]\n\
                     \x20                   [--no-failure-cache] [--swap A B] [--rename From.=To.]\n\
                     \x20                   [--names n1,n2,...] <module.pi>\n\
                     \x20      pumpkin loadgen [--connect ADDR] [--mode closed|open] [--clients N] [--requests N]\n\
                     \x20                      [--rate R] [--duration-ms D] [--seed S] [--workers N]\n\
                     \x20                      [--queue-depth N] [--trials N] [--touch-rate R]\n\
                     \x20                      [--fail-rate R] [--json PATH] [--server-stats]";

/// One verb's arguments, read front to back.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn new(argv: &'a [String]) -> Self {
        Args(argv.iter())
    }

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value after `flag`; `what` ends the message `FLAG needs …`.
    fn value(&mut self, flag: &str, what: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// The number after `flag`.
    fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.parsed(flag, "a number", |_| true)
    }

    /// The value after `flag`, parsed and accepted by `ok`.
    fn parsed<T: FromStr>(
        &mut self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        self.next()
            .and_then(|v| v.parse().ok())
            .filter(|v| ok(v))
            .ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// Fails on the first argument left over.
    fn done(&mut self) -> Result<(), String> {
        self.next().map_or(Ok(()), |arg| Err(unexpected(arg)))
    }
}

/// Feeds each argument, with the reader for its values, to `read`.
fn read_args<'a>(
    argv: &'a [String],
    mut read: impl FnMut(&'a str, &mut Args<'a>) -> Result<(), String>,
) -> Result<(), String> {
    let mut args = Args::new(argv);
    while let Some(arg) = args.next() {
        read(arg, &mut args)?;
    }
    Ok(())
}

fn unexpected(arg: &str) -> String {
    format!("unexpected argument `{arg}`")
}

/// Takes `arg` as the one positional argument `slot` holds; a second one,
/// or a flag no arm read, is unexpected.
fn positional(slot: &mut Option<String>, arg: &str) -> Result<(), String> {
    if slot.is_some() || arg.starts_with('-') {
        return Err(unexpected(arg));
    }
    *slot = Some(arg.to_string());
    Ok(())
}

/// Reports a malformed command line: the message, the usage, status 1.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::FAILURE
}

fn serve(argv: &[String]) -> ExitCode {
    use std::io::Write as _;

    let mut cfg = ServerConfig {
        listen: "127.0.0.1:7717".into(),
        ..ServerConfig::default()
    };
    let parsed = read_args(argv, |arg, args| {
        match arg {
            "--listen" => cfg.listen = args.value(arg, "a value")?.into(),
            "--unix" => cfg.unix = Some(args.value(arg, "a value")?.into()),
            "--cache-dir" => cfg.cache_dir = Some(args.value(arg, "a value")?.into()),
            "--cache-max-bytes" => cfg.cache_max_bytes = Some(args.number(arg)?),
            "--max-sessions" => cfg.max_sessions = args.number::<usize>(arg)?.max(1),
            "--workers" => cfg.workers = args.number::<usize>(arg)?.max(1),
            "--queue-depth" => cfg.queue_depth = args.number::<usize>(arg)?.max(1),
            "--slow-ms" => cfg.slow_ms = Some(args.number(arg)?),
            "--log" => cfg.log = Some(args.value(arg, "a value")?.into()),
            other => return Err(unexpected(other)),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(&e);
    }
    let server = match pumpkin_serve::Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Status lines ignore write errors: a supervisor that has closed our
    // stdout still gets a clean drain and exit status 0.
    let mut stdout = std::io::stdout();
    match server.local_addr() {
        Ok(addr) => {
            // Scripts (check.sh, tests) parse this exact line to learn
            // the port when listening on :0.
            let _ = writeln!(stdout, "pumpkind listening on {addr}");
            let _ = stdout.flush();
        }
        Err(e) => {
            eprintln!("cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            let _ = writeln!(stdout, "pumpkind drained; bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The lifting flags `client`, `watch` and `auto` share.
#[derive(Default)]
struct LiftFlags {
    /// `--swap A B`.
    swap: Option<(String, String)>,
    /// `--rename From.=To.`.
    rename: Option<(String, String)>,
    /// `--names n1,n2,...`, accumulated over repeats.
    names: Option<Vec<String>>,
}

impl LiftFlags {
    /// Reads `arg` and its values if it is a lifting flag; false if not.
    fn read(&mut self, arg: &str, args: &mut Args) -> Result<bool, String> {
        match arg {
            "--swap" => match (args.next(), args.next()) {
                (Some(a), Some(b)) => self.swap = Some((a.into(), b.into())),
                _ => return Err("--swap needs two type names".into()),
            },
            "--rename" => {
                let (from, to) = args
                    .next()
                    .and_then(|v| v.split_once('='))
                    .ok_or("--rename needs From.=To.")?;
                self.rename = Some((from.into(), to.into()));
            }
            "--names" => self.add_names(arg, args)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Appends the comma-separated list after `flag`. An empty entry
    /// (`""`, `a,` or `a,,b`) names no constant, so it is refused here
    /// rather than failing a repair later.
    fn add_names(&mut self, flag: &str, args: &mut Args) -> Result<(), String> {
        let list = args.value(flag, "a comma-separated list")?;
        if list.split(',').any(str::is_empty) {
            return Err(format!("{flag} has an empty name in `{list}`"));
        }
        let names = self.names.get_or_insert_with(Vec::new);
        names.extend(list.split(',').map(str::to_string));
        Ok(())
    }

    /// The swap these flags name (`Old.list` for `New.list` without
    /// `--swap`), renamed by `--rename`, else from the module of the one
    /// type to the module of the other, so swapping Old.list for New.list
    /// renames Old.* to New.*.
    fn swap_spec(&self) -> LiftSpec {
        let (a, b) = self
            .swap
            .clone()
            .unwrap_or_else(|| ("Old.list".into(), "New.list".into()));
        let module_of = |n: &str| {
            n.rsplit_once('.')
                .map_or(String::new(), |(m, _)| format!("{m}."))
        };
        let (from, to) = self
            .rename
            .clone()
            .unwrap_or_else(|| (module_of(&a), module_of(&b)));
        LiftSpec::swap(&a, &b, &from, &to)
    }

    /// `--names`, else the swap module's constants.
    fn work_list(&self) -> Vec<String> {
        self.names.clone().unwrap_or_else(|| {
            pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS
                .iter()
                .map(|s| s.to_string())
                .collect()
        })
    }
}

/// Builds the `lifting`/`names` request params shared by the client's
/// repair-module and explain verbs.
fn client_lift_params(args: &mut Args, single: bool) -> Result<Vec<(String, Value)>, String> {
    let mut lift = LiftFlags::default();
    let mut deterministic = false;
    while let Some(arg) = args.next() {
        match arg {
            "--deterministic" => deterministic = true,
            "--name" => lift.add_names(arg, args)?,
            _ if lift.read(arg, args)? => {}
            other => return Err(unexpected(other)),
        }
    }
    if lift.swap.is_none() {
        return Err("--swap A B is required".into());
    }
    let spec = lift.swap_spec();
    let names = lift.names.ok_or("--names n1,n2,... is required")?;
    let mut params = vec![("lifting".to_string(), spec.to_value())];
    if single {
        let [name] = names.as_slice() else {
            return Err("explain takes exactly one --name".into());
        };
        params.push(("name".into(), Value::str(name)));
    } else {
        params.push((
            "names".into(),
            Value::Arr(names.iter().map(Value::str).collect()),
        ));
    }
    if deterministic {
        params.push(("deterministic".into(), Value::Bool(true)));
    }
    Ok(params)
}

fn render_client_result(method: &str, result: &Value) {
    match method {
        "repair" | "repair_module" => {
            if let Some(report) = result.get("report") {
                if let Some(Value::Arr(pairs)) = report.get("repaired") {
                    for p in pairs {
                        if let Value::Arr(pair) = p {
                            if let (Some(f), Some(t)) = (
                                pair.first().and_then(Value::as_str),
                                pair.get(1).and_then(Value::as_str),
                            ) {
                                println!("repaired {f} -> {t}");
                            }
                        }
                    }
                }
                let stat = |k: &str| report.get(k).and_then(Value::as_u64).unwrap_or(0);
                println!(
                    "waves {} width {} | cache {}/{} | persist {}/{} | {:.2} ms",
                    stat("waves"),
                    stat("max_width"),
                    stat("cache_hits"),
                    stat("cache_hits") + stat("cache_misses"),
                    stat("persist_hits"),
                    stat("persist_hits") + stat("persist_misses"),
                    stat("wall_ns") as f64 / 1e6,
                );
                return;
            }
            println!("{result}");
        }
        "explain" => match result.get("explanation").and_then(Value::as_str) {
            Some(text) => print!("{text}"),
            None => println!("{result}"),
        },
        _ => println!("{result}"),
    }
}

/// Pulls one `u64` field out of a method's histogram block in a `stats`
/// result (`latency`/`queue_wait` → `count`/`p50_ns`/…); 0 when absent.
fn stat_field(method: &Value, block: &str, field: &str) -> u64 {
    method
        .get(block)
        .and_then(|b| b.get(field))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Renders a `stats` result as a human-readable table: one row per
/// method, then the gauge block.
fn render_stats_table(result: &Value) {
    if let Some(schema) = result.get("schema").and_then(Value::as_str) {
        println!("schema {schema}");
    }
    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "METHOD", "COUNT", "P50_MS", "P95_MS", "P99_MS", "QWAIT_P99_MS"
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    for (name, m) in result.get("methods").and_then(Value::as_obj).unwrap_or(&[]) {
        println!(
            "{:<16} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>12.3}",
            name,
            stat_field(m, "latency", "count"),
            ms(stat_field(m, "latency", "p50_ns")),
            ms(stat_field(m, "latency", "p95_ns")),
            ms(stat_field(m, "latency", "p99_ns")),
            ms(stat_field(m, "queue_wait", "p99_ns")),
        );
    }
    for (name, v) in result.get("gauges").and_then(Value::as_obj).unwrap_or(&[]) {
        println!("gauge {name} {v}");
    }
}

/// Renders a `stats` result as Prometheus text exposition. Hand-rolled —
/// the daemon speaks JSON; translation to scrape format is the client's
/// job, and the format is just `# TYPE` lines plus `name{labels} value`
/// samples (latencies in seconds, per convention).
fn render_stats_prometheus(result: &Value) -> String {
    let mut out = String::new();
    let methods = result.get("methods").and_then(Value::as_obj).unwrap_or(&[]);
    out.push_str("# TYPE pumpkin_requests_total counter\n");
    for (name, m) in methods {
        out.push_str(&format!(
            "pumpkin_requests_total{{method=\"{name}\"}} {}\n",
            stat_field(m, "latency", "count")
        ));
    }
    let secs = |ns: u64| ns as f64 / 1e9;
    for (family, block) in [
        ("pumpkin_request_latency_seconds", "latency"),
        ("pumpkin_request_queue_wait_seconds", "queue_wait"),
    ] {
        out.push_str(&format!("# TYPE {family} summary\n"));
        for (name, m) in methods {
            for (q, field) in [("0.5", "p50_ns"), ("0.95", "p95_ns"), ("0.99", "p99_ns")] {
                out.push_str(&format!(
                    "{family}{{method=\"{name}\",quantile=\"{q}\"}} {:.9}\n",
                    secs(stat_field(m, block, field))
                ));
            }
            let count = stat_field(m, block, "count");
            out.push_str(&format!(
                "{family}_sum{{method=\"{name}\"}} {:.9}\n",
                secs(stat_field(m, block, "mean_ns")) * count as f64
            ));
            out.push_str(&format!("{family}_count{{method=\"{name}\"}} {count}\n"));
        }
    }
    for (name, v) in result.get("gauges").and_then(Value::as_obj).unwrap_or(&[]) {
        out.push_str(&format!(
            "# TYPE pumpkin_serve_{name} gauge\npumpkin_serve_{name} {v}\n"
        ));
    }
    out
}

/// Maps a client-side failure to a distinct exit status, so scripts can
/// branch on *why* a call failed (`busy` → back off and retry, `deadline`
/// → raise the budget, version skew → upgrade) instead of parsing stderr.
fn client_exit_code(err: &pumpkin_serve::ClientError) -> ExitCode {
    use pumpkin_serve::ClientError;
    let code = match err {
        ClientError::Server { code, .. } => code.as_str(),
        ClientError::Protocol(_) => return ExitCode::from(20),
        ClientError::Io(_) => return ExitCode::from(21),
    };
    ExitCode::from(exit_status_for(code))
}

/// The server-code → exit-status map itself. Every code the server can
/// emit ([`pumpkin_serve::proto::code::ALL`]) has its own status here —
/// the audit test below fails the build of any server code left to the
/// catch-all — and 19 is reserved for codes newer than this client.
fn exit_status_for(code: &str) -> u8 {
    use pumpkin_serve::proto::code;
    match code {
        code::BUSY => 10,
        code::DEADLINE => 11,
        code::BAD_DIGEST => 12,
        code::BAD_PARAMS => 13,
        code::UNKNOWN_METHOD => 14,
        code::REPAIR_FAILED => 15,
        code::SHUTTING_DOWN => 16,
        code::OVERSIZED => 17,
        code::TRUNCATED => 24,
        code::PARSE => 18,
        code::AUTO_EXHAUSTED => EXIT_AUTO_EXHAUSTED,
        code::BUDGET_EXCEEDED => 25,
        _ => 19,
    }
}

/// One-line human rendering for a failed call, with a hint where the
/// right reaction is obvious.
fn client_error_line(err: &pumpkin_serve::ClientError) -> String {
    use pumpkin_serve::proto::code;
    use pumpkin_serve::ClientError;
    let hint = match err {
        ClientError::Server { code, .. } => match code.as_str() {
            code::BUSY => " (server saturated; retry with backoff)",
            code::DEADLINE => " (deadline elapsed; raise --deadline-ms or the server budget)",
            code::SHUTTING_DOWN => " (server is draining; reconnect later)",
            code::BAD_DIGEST => " (payload corrupt in transit; resend)",
            _ => "",
        },
        _ => "",
    };
    format!("pumpkin client: {err}{hint}")
}

/// Exit status for a `hello` version mismatch (distinct from every
/// server-error status so scripts can tell skew from failure).
const EXIT_VERSION_SKEW: u8 = 22;

/// Exit status when an automatic search exhausts every candidate (the
/// `pumpkin auto` verb locally, or a `repair_auto` RPC via the client) —
/// scripts branch on it to pick up the minimized reproducer.
const EXIT_AUTO_EXHAUSTED: u8 = 23;

/// Negotiates with the server: calls `hello`, fails fast when the proto
/// or wire version disagrees with ours, and refuses servers that predate
/// the handshake. Returns the announced method list.
fn client_negotiate(client: &mut Client) -> Result<Vec<String>, (String, ExitCode)> {
    use pumpkin_serve::ClientError;
    let hello = match client.call("hello", Value::Obj(vec![])) {
        Ok(v) => v,
        Err(ClientError::Server { ref code, .. }) if code == "unknown_method" => {
            return Err((
                "server does not implement `hello`; it predates this client — upgrade pumpkind"
                    .into(),
                ExitCode::from(EXIT_VERSION_SKEW),
            ))
        }
        Err(e) => return Err((client_error_line(&e), client_exit_code(&e))),
    };
    let proto = hello.get("proto_version").and_then(Value::as_u64);
    if proto != Some(u64::from(pumpkin_serve::proto::PROTO_VERSION)) {
        return Err((
            format!(
                "protocol version mismatch: server speaks {:?}, this client speaks {}",
                proto,
                pumpkin_serve::proto::PROTO_VERSION
            ),
            ExitCode::from(EXIT_VERSION_SKEW),
        ));
    }
    let wire = hello.get("wire_version").and_then(Value::as_str);
    if wire != Some(pumpkin_wire::WIRE_TAG) {
        return Err((
            format!(
                "wire version mismatch: server speaks {:?}, this client speaks {}",
                wire,
                pumpkin_wire::WIRE_TAG
            ),
            ExitCode::from(EXIT_VERSION_SKEW),
        ));
    }
    Ok(hello
        .get("methods")
        .and_then(Value::as_arr)
        .map(|ms| {
            ms.iter()
                .filter_map(|m| m.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default())
}

/// A `pumpkin client` command line: where to connect and what to call.
struct ClientCall<'a> {
    addr: &'a str,
    verb: &'a str,
    method: &'a str,
    params: Value,
    /// `call`'s params, still JSON text.
    raw_params: Option<&'a str>,
    /// `stats`' rendering: `table`, `json` or `prometheus`.
    stats_format: &'a str,
}

/// Reads `--connect ADDR <verb> [args]`.
fn client_call(argv: &[String]) -> Result<ClientCall<'_>, String> {
    let mut args = Args::new(argv);
    let mut addr = None;
    let verb = loop {
        match args.next() {
            Some("--connect") => addr = Some(args.value("--connect", "an address")?),
            Some(arg) if !arg.starts_with('-') => break Some(arg),
            Some(arg) => return Err(unexpected(arg)),
            None => break None,
        }
    };
    let (Some(addr), Some(verb)) = (addr, verb) else {
        return Err("client needs --connect ADDR and a verb".into());
    };
    let mut call = ClientCall {
        addr,
        verb,
        method: verb,
        params: Value::Obj(vec![]),
        raw_params: None,
        stats_format: "table",
    };
    match verb {
        "ping" | "shutdown" | "hello" => {}
        "stats" => match args.next() {
            Some("--json") => call.stats_format = "json",
            Some("--prometheus") => call.stats_format = "prometheus",
            None => {}
            Some(other) => return Err(format!("unexpected stats argument `{other}`")),
        },
        "repair-module" => {
            call.method = "repair_module";
            call.params = Value::Obj(client_lift_params(&mut args, false)?);
        }
        "explain" => call.params = Value::Obj(client_lift_params(&mut args, true)?),
        "call" => {
            call.method = args.value("call", "a method name")?;
            call.raw_params = args.next();
        }
        other => return Err(format!("unknown client verb `{other}`")),
    }
    args.done()?;
    Ok(call)
}

fn client(argv: &[String]) -> ExitCode {
    let call = match client_call(argv) {
        Ok(call) => call,
        Err(e) => return usage_error(&e),
    };
    let (addr, verb, method) = (call.addr, call.verb, call.method);
    let params = match call.raw_params.map(Value::parse) {
        None => call.params,
        Some(Ok(v)) => v,
        Some(Err(e)) => {
            eprintln!("bad params JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Repair-family verbs negotiate first: a version-skewed server fails
    // fast (and distinctly) instead of mid-workload. The cheap control
    // verbs skip the extra round trip — `hello` *is* the negotiation, and
    // `ping`/`shutdown`/`stats`/`call` must keep working against any
    // server for diagnostics.
    if matches!(verb, "repair-module" | "explain") {
        match client_negotiate(&mut client) {
            Ok(methods) => {
                if !methods.is_empty() && !methods.iter().any(|m| m == method) {
                    eprintln!("pumpkin client: server does not serve `{method}`");
                    return ExitCode::from(EXIT_VERSION_SKEW);
                }
            }
            Err((msg, code)) => {
                eprintln!("pumpkin client: {msg}");
                return code;
            }
        }
    }
    match client.call(method, params) {
        Ok(result) => {
            if method == "stats" {
                match call.stats_format {
                    "json" => println!("{result}"),
                    "prometheus" => print!("{}", render_stats_prometheus(&result)),
                    _ => render_stats_table(&result),
                }
            } else {
                render_client_result(method, &result);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}", client_error_line(&e));
            client_exit_code(&e)
        }
    }
}

/// `pumpkin top`: a live operator view. Polls the daemon's `stats` RPC
/// and redraws a table of per-method request rate (from count deltas
/// between polls), latency percentiles, and every service gauge.
fn top(argv: &[String]) -> ExitCode {
    use std::collections::BTreeMap;
    use std::io::Write as _;
    use std::time::Instant;

    let mut connect = None;
    let mut interval_ms = 1000u64;
    let mut count = 0u64;
    let parsed = read_args(argv, |arg, args| {
        match arg {
            "--connect" => connect = Some(args.value(arg, "an address")?),
            "--interval-ms" => interval_ms = args.number::<u64>(arg)?.max(1),
            "--count" => count = args.number(arg)?,
            other => return Err(unexpected(other)),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(&e);
    }
    let Some(addr) = connect else {
        return usage_error("top needs --connect ADDR");
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut prev: BTreeMap<String, u64> = BTreeMap::new();
    let mut prev_at = Instant::now();
    let mut frames = 0u64;
    loop {
        let stats = match client.call("stats", Value::Obj(vec![])) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{}", client_error_line(&e));
                return client_exit_code(&e);
            }
        };
        let now = Instant::now();
        let dt = now.duration_since(prev_at).as_secs_f64().max(1e-9);
        if frames > 0 {
            // Redraw in place: clear the screen, cursor home.
            print!("\x1b[2J\x1b[H");
        }
        println!("pumpkind {addr} — stats every {interval_ms} ms (Ctrl-C to quit)");
        println!(
            "{:<16} {:>8} {:>8} {:>10} {:>10} {:>12}",
            "METHOD", "COUNT", "RATE/S", "P50_MS", "P99_MS", "QWAIT_P99_MS"
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut current: BTreeMap<String, u64> = BTreeMap::new();
        for (name, m) in stats.get("methods").and_then(Value::as_obj).unwrap_or(&[]) {
            let total = stat_field(m, "latency", "count");
            let rate = if frames == 0 {
                0.0
            } else {
                (total.saturating_sub(prev.get(name).copied().unwrap_or(0))) as f64 / dt
            };
            println!(
                "{:<16} {:>8} {:>8.1} {:>10.3} {:>10.3} {:>12.3}",
                name,
                total,
                rate,
                ms(stat_field(m, "latency", "p50_ns")),
                ms(stat_field(m, "latency", "p99_ns")),
                ms(stat_field(m, "queue_wait", "p99_ns")),
            );
            current.insert(name.clone(), total);
        }
        // Every gauge the daemon serves, in name order, four to a line.
        let mut gauges: Vec<String> = stats
            .get("gauges")
            .and_then(Value::as_obj)
            .unwrap_or(&[])
            .iter()
            .map(|(name, v)| format!("{name} {v}"))
            .collect();
        gauges.sort();
        for line in gauges.chunks(4) {
            println!("{}", line.join(" | "));
        }
        let _ = std::io::stdout().flush();
        frames += 1;
        if count > 0 && frames >= count {
            return ExitCode::SUCCESS;
        }
        prev = current;
        prev_at = now;
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `pumpkin watch`: the edit→repair loop as a verb. Polls a vernacular
/// `.pi` file; on every change it clones the checked standard library,
/// loads the file, and repairs the module *incrementally* — source digests
/// are diffed against the previous run's [`pumpkin_core::DigestMap`], only
/// the changed constants' downstream closure is re-lifted, and everything
/// else replays from the persist cache. Each run prints
/// `run N: repaired K constants in R ms (cycle C ms)`, where R is the
/// repair alone and C the whole cycle from the library clone to the new
/// digest snapshot, then `incremental: changed=X replayed=Y skipped=Z`.
fn watch(argv: &[String]) -> ExitCode {
    use pumpkin_core::{DigestMap, LiftState, Repairer};
    use pumpkin_kernel::env::GlobalRef;
    use std::io::Write as _;
    use std::time::{Instant, SystemTime};

    let mut poll_ms = 250u64;
    let mut max_runs = 0u64;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_max_bytes: Option<u64> = None;
    let mut lift = LiftFlags::default();
    let mut path: Option<String> = None;
    let parsed = read_args(argv, |arg, args| {
        match arg {
            "--poll-ms" => poll_ms = args.number::<u64>(arg)?.max(1),
            "--max-runs" => max_runs = args.number(arg)?,
            "--cache-max-bytes" => cache_max_bytes = Some(args.number(arg)?),
            "--cache-dir" => cache_dir = Some(args.value(arg, "a path")?.into()),
            _ if lift.read(arg, args)? => {}
            other => positional(&mut path, other)?,
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(&e);
    }
    let Some(path) = path else {
        return usage_error("watch needs a .pi file to watch");
    };
    // A file missing at the start is a mistake; one missing later is
    // mid-save (an editor's rename) and is polled until it returns.
    if let Err(e) = std::fs::read_to_string(&path) {
        eprintln!("cannot read {path}: {e}");
        return ExitCode::FAILURE;
    }
    // Replays need a persist cache that survives across runs; without an
    // explicit dir, use a per-process scratch one.
    let cache_dir = cache_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("pumpkin-watch-{}", std::process::id()))
    });
    let spec = lift.swap_spec();
    let from = spec.rename[0].0.as_str();

    println!(
        "watching {path} (poll every {poll_ms} ms; cache {})",
        cache_dir.display()
    );
    let _ = std::io::stdout().flush();
    let mut prev = DigestMap::new();
    let mut last_mtime: Option<SystemTime> = None;
    let mut runs = 0u64;
    loop {
        let mtime = std::fs::metadata(&path).and_then(|m| m.modified()).ok();
        if mtime.is_some() && mtime != last_mtime {
            last_mtime = mtime;
            let src = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("watch: cannot read {path}: {e}");
                    std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                    continue;
                }
            };
            // Each run's world is a clone of the process's checked
            // standard library plus the watched file's definitions.
            // Incrementality lives entirely in the digest snapshot and the
            // persist cache, not in kept state.
            let cycle = Instant::now();
            let mut env = pumpkin_stdlib::std_env();
            let mark = env.order().len();
            if let Err(e) = pumpkin_lang::load_source(&mut env, &src) {
                eprintln!("watch: {path}: {e}");
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                continue;
            }
            // Work list: the swap module (or --names), plus whatever the
            // file defines under the source prefix, in declaration order.
            let mut names = lift.work_list();
            for entry in &env.order()[mark..] {
                let GlobalRef::Const(n) = entry else {
                    continue;
                };
                let n = n.as_str();
                if n.starts_with(from) && !names.iter().any(|x| x == n) {
                    names.push(n.to_string());
                }
            }
            let lifting = match pumpkin_core::search::configure(&mut env, &spec) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("watch: configure failed: {e}");
                    std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                    continue;
                }
            };
            let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut st = LiftState::new();
            let result = Repairer::new(&lifting)
                .state(&mut st)
                .persist_cache(&cache_dir)
                .cache_max_bytes(cache_max_bytes)
                .incremental(&prev)
                .run(&mut env, &borrowed);
            match result {
                Ok(report) => {
                    prev = DigestMap::capture(&env, &borrowed);
                    runs += 1;
                    println!(
                        "watch: run {runs}: repaired {} constants in {:.1} ms (cycle {:.1} ms)",
                        report.repaired.len(),
                        report.wall_ns as f64 / 1e6,
                        cycle.elapsed().as_secs_f64() * 1e3
                    );
                    if let Some(i) = report.incr {
                        println!("watch: incremental: {i}");
                    }
                    let _ = std::io::stdout().flush();
                    if max_runs > 0 && runs >= max_runs {
                        return ExitCode::SUCCESS;
                    }
                }
                Err(e) => eprintln!("watch: repair failed: {e}"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

/// `pumpkin auto`: the automatic repair search as a verb (DESIGN.md §18).
/// Loads a vernacular module and searches candidate configurations —
/// every constructor-mapping permutation, each with smart eliminators off
/// and then on — running each through the kernel until one repair checks.
/// When every candidate fails, the module is shrunk to a minimal failing
/// reproducer (`--emit-repro FILE.pi` writes it as standalone vernacular)
/// and the exit status is [`EXIT_AUTO_EXHAUSTED`].
fn auto(argv: &[String]) -> ExitCode {
    use pumpkin_core::{AutoPolicy, NameMap, RepairError, Repairer};

    let mut policy = AutoPolicy::default();
    let mut emit_repro: Option<&str> = None;
    let mut lift = LiftFlags::default();
    let mut path: Option<String> = None;
    let parsed = read_args(argv, |arg, args| {
        match arg {
            "--budget" => policy.budget = Some(args.number::<usize>(arg)?.max(1)),
            "--seed" => policy.seed = args.number(arg)?,
            "--no-failure-cache" => policy.use_failure_cache = false,
            "--emit-repro" => emit_repro = Some(args.value(arg, "a path")?),
            _ if lift.read(arg, args)? => {}
            other => positional(&mut path, other)?,
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(&e);
    }
    let Some(path) = path else {
        return usage_error("auto needs a .pi module to repair");
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = lift.swap_spec();
    // Work list: the swap module (or --names); constants the file defines
    // under the source prefix join automatically inside the driver.
    let names = lift.work_list();
    let mut env = pumpkin_stdlib::std_env();
    let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
    let rename = NameMap::from_rules(&spec.rename);
    let (search, result) = Repairer::auto(policy)
        .types(spec.a.as_str(), spec.b.as_str(), rename)
        .source(src.as_str())
        .run(&mut env, &borrowed);
    println!("{}", search.summary());
    match result {
        Ok(report) => {
            for (f, t) in &report.repaired {
                println!("repaired {f} -> {t}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("auto: {e}");
            if let Some(r) = &search.reproducer {
                if let Some(out) = emit_repro {
                    // Render against a world holding the module's decls;
                    // the source must load under *some* configuration for
                    // the names to resolve — fall back to comments if not.
                    let mut scratch = pumpkin_stdlib::std_env();
                    let _ = pumpkin_core::smartelim::packed_list(&mut scratch);
                    let _ = pumpkin_lang::load_source(&mut scratch, &src);
                    if let Err(io) = std::fs::write(out, r.to_pi(&scratch)) {
                        eprintln!("cannot write {out}: {io}");
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "auto: wrote reproducer ({} of {} constants) to {out}",
                        r.names.len(),
                        r.original
                    );
                }
            }
            if matches!(e, RepairError::AutoExhausted { .. }) {
                ExitCode::from(EXIT_AUTO_EXHAUSTED)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn loadgen(argv: &[String]) -> ExitCode {
    use pumpkin_pi::loadgen::{LoadgenConfig, Mode};
    let mut cfg = LoadgenConfig::default();
    let mut json_out: Option<&str> = None;
    let in_unit = |r: &f64| (0.0..=1.0).contains(r);
    let parsed = read_args(argv, |arg, args| {
        match arg {
            "--connect" => cfg.connect = Some(args.value(arg, "a value")?.into()),
            "--json" => json_out = Some(args.value(arg, "a value")?),
            "--mode" => {
                cfg.mode = match args.value(arg, "a value")? {
                    "closed" => Mode::Closed,
                    "open" => Mode::Open,
                    other => return Err(format!("--mode must be closed or open, not `{other}`")),
                }
            }
            "--clients" => cfg.clients = args.number::<usize>(arg)?.max(1),
            "--requests" => cfg.requests = args.number::<usize>(arg)?.max(1),
            "--duration-ms" => cfg.duration_ms = args.number::<u64>(arg)?.max(1),
            "--seed" => cfg.seed = args.number(arg)?,
            "--workers" => cfg.workers = args.number::<usize>(arg)?.max(1),
            "--queue-depth" => cfg.queue_depth = args.number::<usize>(arg)?.max(1),
            "--trials" => cfg.trials = args.number::<usize>(arg)?.max(1),
            "--server-stats" => cfg.server_stats = true,
            "--touch-rate" => cfg.touch_rate = args.parsed(arg, "a number in [0, 1]", in_unit)?,
            "--fail-rate" => cfg.fail_rate = args.parsed(arg, "a number in [0, 1]", in_unit)?,
            "--rate" => cfg.rate = args.parsed(arg, "a positive number", |r: &f64| *r > 0.0)?,
            other => return Err(unexpected(other)),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(&e);
    }
    match pumpkin_pi::loadgen::run(&cfg) {
        Ok(report) => {
            println!("{}", report.summary());
            if let Some(path) = json_out {
                if let Err(e) = std::fs::write(path, report.to_json_lines()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("loadgen: wrote {path}");
            }
            if report.completed == 0 {
                eprintln!("loadgen: no request completed");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

fn trace_report(argv: &[String]) -> ExitCode {
    use pumpkin_core::trace::report;
    let mut lint = false;
    let mut top_k = 5usize;
    let mut files: Vec<&str> = Vec::new();
    let parsed = read_args(argv, |arg, args| {
        match arg {
            "--lint" => lint = true,
            "--top" => top_k = args.number(arg)?,
            other if other.starts_with('-') => return Err(unexpected(other)),
            file => files.push(file),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(&e);
    }
    if files.is_empty() || files.len() > 2 {
        return usage_error("trace-report takes one or two trace files");
    }
    let mut texts = Vec::new();
    for f in &files {
        match std::fs::read_to_string(f) {
            Ok(s) => texts.push(s),
            Err(e) => {
                eprintln!("cannot read {f}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if lint {
        let mut violations = 0;
        for (f, text) in files.iter().zip(&texts) {
            for v in report::lint(text) {
                println!("{f}: {v}");
                violations += 1;
            }
        }
        println!("{violations} violation(s)");
        return if violations == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let parsed: Vec<_> = texts.iter().map(|t| report::parse_lines(t)).collect();
    for (f, p) in files.iter().zip(&parsed) {
        for (line, err) in &p.errors {
            eprintln!("{f}:{line}: skipping malformed line: {err}");
        }
    }
    match parsed.as_slice() {
        [one] => print!("{}", report::render(&one.events, top_k)),
        [a, b] => print!("{}", report::diff(&a.events, &b.events, top_k)),
        _ => unreachable!(),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let verb: fn(&[String]) -> ExitCode = match argv.first().map(String::as_str) {
        Some("trace-report") => trace_report,
        Some("serve") => serve,
        Some("client") => client,
        Some("top") => top,
        Some("watch") => watch,
        Some("auto") => auto,
        Some("loadgen") => loadgen,
        _ => return run(&argv),
    };
    verb(&argv[1..])
}

/// The bare script runner: `pumpkin [--trace out.jsonl] [--metrics] <script.pi | ->`.
fn run(argv: &[String]) -> ExitCode {
    let mut session = Session::new();
    let mut path: Option<String> = None;
    let parsed = read_args(argv, |arg, args| {
        match arg {
            "--trace" => session.set_trace_path(args.value(arg, "a file path")?),
            "--metrics" => session.set_show_metrics(true),
            "-" if path.is_none() => path = Some(arg.into()),
            other => positional(&mut path, other)?,
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(&e);
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let script = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .expect("read stdin");
        buf
    } else {
        match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if run_script(&mut session, &script) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Audits the client's error-code → exit-status map against the full
    /// server code set: every code the server can emit must map to its
    /// own status, never the catch-all — so scripts can branch on *which*
    /// failure happened, and a new server code cannot ship without a
    /// distinct client status.
    #[test]
    fn every_server_error_code_has_a_distinct_exit_status() {
        use std::collections::HashMap;
        let mut seen: HashMap<u8, &str> = HashMap::new();
        for code in pumpkin_serve::proto::code::ALL {
            let status = exit_status_for(code);
            assert_ne!(
                status, 19,
                "server code `{code}` fell through to the unknown-code catch-all; \
                 give it its own exit status"
            );
            if let Some(prev) = seen.insert(status, code) {
                panic!("codes `{prev}` and `{code}` share exit status {status}");
            }
        }
        // The statuses reserved for client-side failures stay distinct
        // from every server-code status.
        for reserved in [19, 20, 21, EXIT_VERSION_SKEW] {
            assert!(
                !seen.contains_key(&reserved),
                "exit status {reserved} is reserved for client-side failures"
            );
        }
        assert_eq!(exit_status_for("some_future_code"), 19);
    }

    #[test]
    fn client_rename_takes_from_eq_to_and_defaults_to_the_swapped_modules() {
        let lifting = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let params = client_lift_params(&mut Args::new(&argv), false)?;
            Ok::<_, String>(params.into_iter().find(|(k, _)| k == "lifting").unwrap().1)
        };
        let swap = ["--swap", "Old.list", "New.list", "--names", "Old.rev"];
        assert_eq!(
            lifting(&[&swap[..], &["--rename", "A.=B."]].concat()),
            Ok(LiftSpec::swap("Old.list", "New.list", "A.", "B.").to_value())
        );
        assert_eq!(
            lifting(&swap),
            Ok(LiftSpec::swap("Old.list", "New.list", "Old.", "New.").to_value())
        );
        assert!(lifting(&[&swap[..], &["--rename", "A."]].concat()).is_err());
    }

    #[test]
    fn names_lists_refuse_empty_entries() {
        let names = |list: &str| {
            let argv = ["--names".to_string(), list.to_string()];
            let mut args = Args::new(&argv);
            let mut lift = LiftFlags::default();
            let flag = args.next().unwrap();
            lift.read(flag, &mut args).map(|_| lift.names.unwrap())
        };
        for bad in ["", "a,", "a,,b", ",a"] {
            assert_eq!(
                names(bad),
                Err(format!("--names has an empty name in `{bad}`")),
                "{bad:?}"
            );
        }
        assert_eq!(names("a,b"), Ok(vec!["a".to_string(), "b".to_string()]));
    }

    #[test]
    fn auto_exhausted_replies_map_to_the_auto_exit_status() {
        let err = pumpkin_serve::ClientError::Server {
            code: pumpkin_serve::proto::code::AUTO_EXHAUSTED.to_string(),
            message: "every candidate failed".into(),
            data: None,
        };
        assert_eq!(client_exit_code(&err), ExitCode::from(EXIT_AUTO_EXHAUSTED));
    }
}
