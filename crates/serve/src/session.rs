//! Per-worker request handling.
//!
//! A [`Session`] owns a clone of the daemon's warm environment and
//! serves requests against *throwaway* copies of it: every repair
//! request re-clones the configured snapshot, so replies are pure
//! functions of the request (plus the persistent cache, which only
//! changes *how fast* a reply is computed, never its content). This is
//! what makes the daemon's replies byte-identical to one-shot runs and
//! lets concurrent workers proceed without sharing mutable kernel
//! state.
//!
//! The cross-request state inside a session is the *configuration
//! cache*: running a search procedure (`configure`) is expensive, so the
//! session keeps up to `MAX_CONFIGS` recent `(spec digest, configured
//! environment, lifting)` entries and reuses them while clients keep
//! asking for the same recipes. Under the worker-pool server each worker
//! owns one long-lived session, so this warm state survives across
//! connections instead of dying with each one. Beside it sit the `eval`
//! environment, whose memo tables are bounded, and the admission memo
//! (DESIGN.md §19) the base carries (in a daemon, the process's): a
//! repaired declaration the kernel has accepted once is admitted again
//! without a second check. Neither changes a reply.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pumpkin_core::trace::json::MAX_DEPTH;
use pumpkin_core::trace::serve_stats::{self, ServeStats, STATS_SCHEMA};
use pumpkin_core::trace::Histogram;
use pumpkin_core::wire::{term_from_envelope, term_to_envelope, LiftSpec, TermDigest, WireError};
use pumpkin_core::{
    AutoPolicy, CancelToken, DigestMap, LiftState, Lifting, NameMap, RepairError, RepairReport,
    Repairer,
};
use pumpkin_kernel::env::Env;
use pumpkin_kernel::term::Term;
use pumpkin_wire::Value;

use crate::proto::{self, code, Request, PROTO_VERSION};

/// What the connection loop should do after writing the reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep reading frames.
    Continue,
    /// The client asked the server to drain; close after this reply.
    Shutdown,
}

/// Upper bound on cached configurations per session. Eight recipes cover
/// every lifting kind in the tree with room to spare; beyond that the
/// least recently used entry (and its configured environment) is dropped.
const MAX_CONFIGS: usize = 8;

/// Entries the `eval` environment's value and type memos may hold
/// together before the session replaces it with a fresh clone of its base.
/// Every distinct closed subterm an `eval` meets stays in those memos, so
/// without a bound a long-lived daemon grows with the terms it is sent.
const EVAL_MEMO_CAP: usize = 4096;

/// Every method the daemon serves, announced by `hello` so clients can
/// negotiate before committing to a workload.
pub const METHODS: &[&str] = &[
    "hello",
    "ping",
    "stats",
    "shutdown",
    "repair",
    "repair_module",
    "repair_batch",
    "repair_auto",
    "explain",
    "eval",
];

/// One cached configuration, keyed by its spec digest.
struct Configured {
    digest: TermDigest,
    /// The warm environment *after* the search procedure ran (holds the
    /// equivalence constants); cloned per request.
    env: Env,
    lifting: Lifting,
    /// Source-digest snapshot from the last repair under this
    /// configuration; `"incremental": true` requests diff against it and
    /// replay unchanged constants from the persist cache.
    snapshot: Option<DigestMap>,
}

/// One worker's worth of request-handling state.
pub struct Session {
    /// The pristine warm environment every repair clones. Nothing runs
    /// against it directly, so its memo tables (copied by every clone)
    /// stay the size they were when the session started. It carries the
    /// admission memo that the configured, per-request and `repair_auto`
    /// candidate environments share through their clones.
    base: Env,
    /// The environment `eval` type-checks and normalizes in: a clone of
    /// `base` that keeps its own warm tables across evals without growing
    /// `base`'s, replaced by a fresh clone past [`EVAL_MEMO_CAP`].
    eval_env: Env,
    cache_dir: Option<PathBuf>,
    /// Size budget for the persist cache (None = unbounded).
    cache_max_bytes: Option<u64>,
    /// Most-recently-used first, at most [`MAX_CONFIGS`] entries.
    configured: Vec<Configured>,
    /// Server-wide service stats (per-method histograms + gauges). The
    /// session records only deterministic gauge traffic (config-cache,
    /// lift, persist-cache, incremental totals); latency recording lives
    /// in the server's connection threads. Standalone sessions get a
    /// private registry.
    stats: Arc<ServeStats>,
    /// Lifecycle id for the next request this session fronts itself
    /// (standalone use; the daemon stamps ids server-side).
    next_req_id: u64,
}

/// A structured method error: the machine-readable code, the human
/// message, and an optional machine-readable `data` payload (a
/// `repair_auto` exhaustion carries its full accounting object there).
/// Most sites build the data-free form through the tuple conversion.
pub(crate) struct MethodError {
    code: &'static str,
    message: String,
    data: Option<Value>,
}

impl MethodError {
    /// Renders the error reply envelope for `id`.
    pub(crate) fn reply(&self, id: &Value) -> Value {
        match &self.data {
            Some(d) => proto::err_reply_value_data(id, self.code, &self.message, d.clone()),
            None => proto::err_reply_value(id, self.code, &self.message),
        }
    }
}

impl From<(&'static str, String)> for MethodError {
    fn from((code, message): (&'static str, String)) -> MethodError {
        MethodError {
            code,
            message,
            data: None,
        }
    }
}

pub(crate) type MethodResult = Result<(Value, Control), MethodError>;

/// Handles the environment-free control methods — `hello`, `ping`,
/// `stats`, `shutdown` — or returns `None` for anything else. Shared
/// between [`Session::dispatch`] and the server's connection threads,
/// which answer these inline so they stay responsive (and
/// byte-identical) while the worker pool is saturated.
pub(crate) fn control_result(method: &str, stats: &ServeStats) -> Option<MethodResult> {
    match method {
        "ping" => Some(Ok((
            Value::Obj(vec![
                ("pong".into(), Value::Bool(true)),
                ("proto".into(), Value::UInt(u64::from(PROTO_VERSION))),
                ("wire".into(), Value::str(pumpkin_wire::WIRE_TAG)),
            ]),
            Control::Continue,
        ))),
        "hello" => Some(Ok((
            Value::Obj(vec![
                (
                    "proto_version".into(),
                    Value::UInt(u64::from(PROTO_VERSION)),
                ),
                ("wire_version".into(), Value::str(pumpkin_wire::WIRE_TAG)),
                (
                    "methods".into(),
                    Value::Arr(METHODS.iter().map(|m| Value::str(*m)).collect()),
                ),
                (
                    "limits".into(),
                    Value::Obj(vec![
                        (
                            "max_frame_bytes".into(),
                            Value::UInt(proto::MAX_FRAME as u64),
                        ),
                        (
                            "max_payload_bytes".into(),
                            Value::UInt(pumpkin_wire::term::MAX_PAYLOAD as u64),
                        ),
                    ]),
                ),
            ]),
            Control::Continue,
        ))),
        "stats" => Some(Ok((stats_result(stats), Control::Continue))),
        "shutdown" => Some(Ok((
            Value::Obj(vec![("draining".into(), Value::Bool(true))]),
            Control::Shutdown,
        ))),
        _ => None,
    }
}

/// Renders one histogram as the `stats` reply's summary object. Empty
/// histograms report zeros (not nulls), so scrapers read one shape.
fn histogram_value(h: &Histogram) -> Value {
    Value::Obj(vec![
        ("count".into(), Value::UInt(h.count())),
        (
            "mean_ns".into(),
            Value::UInt(h.mean().unwrap_or(0.0) as u64),
        ),
        ("p50_ns".into(), Value::UInt(h.quantile(0.5).unwrap_or(0))),
        ("p95_ns".into(), Value::UInt(h.quantile(0.95).unwrap_or(0))),
        ("p99_ns".into(), Value::UInt(h.quantile(0.99).unwrap_or(0))),
        ("max_ns".into(), Value::UInt(h.max().unwrap_or(0))),
    ])
}

/// The `stats` RPC result: a versioned snapshot of the service registry —
/// per-method latency and queue-wait summaries plus the gauge block.
fn stats_result(stats: &ServeStats) -> Value {
    let snap = stats.snapshot();
    let methods: Vec<(String, Value)> = snap
        .methods
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                Value::Obj(vec![
                    ("count".into(), Value::UInt(m.latency.count())),
                    ("latency".into(), histogram_value(&m.latency)),
                    ("queue_wait".into(), histogram_value(&m.queue_wait)),
                ]),
            )
        })
        .collect();
    // Whole-population summaries (every method merged) — what loadgen's
    // `--server-stats` rows and capacity planning read; a per-method
    // quantile is not comparable to a client-side all-requests quantile.
    let mut total = serve_stats::MethodStats::default();
    for m in snap.methods.values() {
        total.merge(m);
    }
    let gauges: Vec<(String, Value)> = snap
        .gauges
        .iter()
        .map(|&(name, v)| (name.to_string(), Value::UInt(v)))
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::str(STATS_SCHEMA)),
        ("methods".into(), Value::Obj(methods)),
        (
            "total".into(),
            Value::Obj(vec![
                ("latency".into(), histogram_value(&total.latency)),
                ("queue_wait".into(), histogram_value(&total.queue_wait)),
            ]),
        ),
        ("gauges".into(), Value::Obj(gauges)),
    ])
}

impl Session {
    /// A session over a (cloned, warm) base environment. `cache_dir`
    /// enables the persistent lift cache. The session shares whatever
    /// admission memo the base carries: a `std_env()` clone carries the
    /// process's, so every worker of a daemon shares verdicts.
    pub fn new(base: Env, cache_dir: Option<PathBuf>) -> Session {
        Session {
            eval_env: base.clone(),
            base,
            cache_dir,
            cache_max_bytes: None,
            configured: Vec::new(),
            stats: Arc::new(ServeStats::new()),
            next_req_id: 0,
        }
    }

    /// Caps the persist cache's on-disk size (oldest entries are evicted
    /// past the budget). `None` — the default — means unbounded.
    #[must_use]
    pub fn cache_max_bytes(mut self, max: Option<u64>) -> Session {
        self.cache_max_bytes = max;
        self
    }

    /// Shares the server-wide service-stats registry (the daemon passes
    /// its own so every worker's gauge traffic lands in one place; the
    /// default is a private registry for standalone sessions).
    #[must_use]
    pub fn serve_stats(mut self, stats: Arc<ServeStats>) -> Session {
        self.stats = stats;
        self
    }

    /// The next lifecycle request id for a request this session fronts
    /// itself (1-based, deterministic per session — the golden transcript
    /// relies on this).
    fn next_req_id(&mut self) -> u64 {
        self.next_req_id += 1;
        self.next_req_id
    }

    /// Handles one frame: parses, dispatches, and renders the reply line
    /// (without trailing newline). Never panics on malformed input —
    /// errors become structured replies and the connection stays open.
    /// Every frame — parse failures included — consumes one lifecycle
    /// request id, echoed as `"req_id"` in the reply.
    pub fn handle_line(&mut self, line: &str) -> (String, Control) {
        let req_id = self.next_req_id();
        match proto::parse_request(line) {
            Ok(req) => self.handle_request_traced(&req, None, req_id),
            Err(msg) => {
                let mut reply = proto::err_reply_value(&Value::Null, code::PARSE, &msg);
                proto::stamp_req_id(&mut reply, req_id);
                (reply.to_string(), Control::Continue)
            }
        }
    }

    /// Handles an already-parsed request, optionally under an externally
    /// owned cancel token, stamping the reply with an externally assigned
    /// lifecycle request id (the daemon assigns ids at frame parse,
    /// server-wide, so `req_id` orders requests across connections). The
    /// worker pool creates the token at enqueue time (so a request's
    /// deadline budget covers its time in the queue); callers without one
    /// pass `None` and per-request `deadline_ms` params behave as before.
    /// The reply bytes are identical either way — the token only decides
    /// *when* a run is cancelled, never what a completed run reports.
    pub fn handle_request_traced(
        &mut self,
        req: &Request,
        cancel: Option<&CancelToken>,
        req_id: u64,
    ) -> (String, Control) {
        let (mut reply, ctl) = match self.dispatch(req, cancel) {
            Ok((result, ctl)) => (proto::ok_reply_value(&req.id, result), ctl),
            Err(e) => (e.reply(&req.id), Control::Continue),
        };
        if let Some(memo) = self.base.admission_memo() {
            // Running totals of a memo every worker of a daemon shares.
            let g = &self.stats.gauges;
            serve_stats::raise(&g.kernel_admission_hits, memo.hits());
            serve_stats::raise(&g.kernel_admission_resets, memo.resets());
        }
        proto::stamp_req_id(&mut reply, req_id);
        (reply.to_string(), ctl)
    }

    fn dispatch(&mut self, req: &Request, cancel: Option<&CancelToken>) -> MethodResult {
        match req.method.as_str() {
            "repair" => self.repair(&req.params, Work::One, cancel),
            "repair_module" => self.repair(&req.params, Work::Module, cancel),
            "repair_batch" => self.repair_batch(&req.params, cancel),
            "repair_auto" => self.repair_auto(&req.params, cancel),
            "explain" => self.explain(&req.params, cancel),
            "eval" => self.eval(&req.params),
            other => control_result(other, &self.stats).unwrap_or_else(|| {
                Err((code::UNKNOWN_METHOD, format!("unknown method `{other}`")).into())
            }),
        }
    }

    /// `repair` (single constant) and `repair_module` (explicit list).
    fn repair(
        &mut self,
        params: &Value,
        work: Work,
        external: Option<&CancelToken>,
    ) -> MethodResult {
        let opts = RunOptions::read(params, work, external)?;
        let (report, _env) = self.run_repairer(params, &opts, false)?;
        let mut fields = vec![("report".into(), report.to_value(opts.deterministic))];
        if work == Work::One {
            let name = opts.names[0].as_str();
            let to = report
                .renamed(name)
                .map_or(Value::Null, |n| Value::str(n.as_str()));
            fields.splice(0..0, [("from".into(), Value::str(name)), ("to".into(), to)]);
        }
        Ok((Value::Obj(fields), Control::Continue))
    }

    /// `repair_batch`: several independent repair items behind one frame
    /// and one configuration. Params: a shared `lifting` spec, plus a
    /// `batch` array whose items each carry `name` (single-constant) or
    /// `names` (module) and any per-item flags a `repair`/`repair_module`
    /// request would take. The reply's `results` array holds, per item,
    /// *exactly* the reply object the equivalent standalone request with
    /// `"id": null` would have produced — batching amortizes framing and
    /// configuration, never changes bytes.
    ///
    /// A batch-level `deadline_ms` (or the pool's external token) budgets
    /// the whole batch through one shared token: once it expires, every
    /// remaining item reports a `deadline` error. Per-item `deadline_ms`
    /// applies only when no batch-level budget is set.
    fn repair_batch(&mut self, params: &Value, external: Option<&CancelToken>) -> MethodResult {
        let items = params.get("batch").and_then(Value::as_arr).ok_or_else(|| {
            (
                code::BAD_PARAMS,
                "repair_batch needs a `batch` array".into(),
            )
        })?;
        if items.is_empty() {
            return Err((code::BAD_PARAMS, "`batch` must not be empty".to_string()).into());
        }
        let lifting = params.get("lifting").cloned();
        let token = cancel_token(params, external);
        let mut results = Vec::with_capacity(items.len());
        for item in items {
            let Some(fields) = item.as_obj() else {
                results.push(proto::err_reply_value(
                    &Value::Null,
                    code::BAD_PARAMS,
                    "batch items must be objects",
                ));
                continue;
            };
            // The item's own fields, with the shared lifting spec merged
            // in (an item-level `lifting` wins).
            let mut merged = fields.to_vec();
            if item.get("lifting").is_none() {
                if let Some(l) = &lifting {
                    merged.push(("lifting".into(), l.clone()));
                }
            }
            let item_params = Value::Obj(merged);
            let work = if item.get("name").is_some() {
                Work::One
            } else {
                Work::Module
            };
            results.push(match self.repair(&item_params, work, token.as_ref()) {
                Ok((v, _)) => proto::ok_reply_value(&Value::Null, v),
                Err(e) => e.reply(&Value::Null),
            });
        }
        Ok((
            Value::Obj(vec![("results".into(), Value::Arr(results))]),
            Control::Continue,
        ))
    }

    /// `repair_auto`: the automatic candidate search (DESIGN.md §18).
    /// Params: a swap-kind `lifting` spec naming the endpoints and the
    /// renaming policy, plus `names` (work list) and/or `source`
    /// (vernacular loaded into each candidate's trial environment), and
    /// the policy knobs `budget`, `failure_cache`, `minimize`, `seed`,
    /// `deterministic`. Success replies carry the ordinary report with the
    /// `auto` accounting block; exhaustion replies are
    /// [`code::AUTO_EXHAUSTED`] errors whose `data` embeds the full
    /// accounting (reproducer included); a deadline that fires mid-search
    /// is a [`code::DEADLINE`] error whose `data` holds the partial
    /// accounting gathered so far.
    fn repair_auto(&mut self, params: &Value, external: Option<&CancelToken>) -> MethodResult {
        let spec = lift_spec(params)?;
        if spec.kind != "swap" {
            return Err((
                code::BAD_PARAMS,
                format!(
                    "repair_auto searches swap configurations, not `{}`",
                    spec.kind
                ),
            )
                .into());
        }
        let opts = RunOptions::read(params, Work::Auto, external)?;
        let source = params.get("source").and_then(Value::as_str);
        if opts.names.is_empty() && source.is_none() {
            return Err((
                code::BAD_PARAMS,
                "repair_auto needs `names` and/or `source`".to_string(),
            )
                .into());
        }
        let policy = AutoPolicy {
            budget: params
                .get("budget")
                .and_then(Value::as_u64)
                .map(|b| b as usize),
            use_failure_cache: params
                .get("failure_cache")
                .and_then(Value::as_bool)
                .unwrap_or(true),
            minimize: params
                .get("minimize")
                .and_then(Value::as_bool)
                .unwrap_or(true),
            seed: params.get("seed").and_then(Value::as_u64).unwrap_or(0),
            deterministic: opts.deterministic,
        };
        let rename = NameMap::from_rules(&spec.rename);
        let mut driver = Repairer::auto(policy).types(spec.a.as_str(), spec.b.as_str(), rename);
        if let Some(src) = source {
            driver = driver.source(src);
        }
        if let Some(tok) = &opts.cancel {
            driver = driver.cancel(tok.clone());
        }
        if let Some(dir) = &self.cache_dir {
            driver = driver
                .persist_cache(dir)
                .cache_max_bytes(self.cache_max_bytes);
        }
        let mut env = self.base.clone();
        let (auto, result) = driver.run(&mut env, &opts.names());
        let g = &self.stats.gauges;
        serve_stats::add(&g.auto_candidates_tried, auto.tried as u64);
        serve_stats::add(&g.auto_failure_cache_hits, auto.skipped_cache as u64);
        match result {
            Ok(report) => Ok((
                Value::Obj(vec![("report".into(), report.to_value(opts.deterministic))]),
                Control::Continue,
            )),
            Err(e) => {
                let code = if !auto.complete {
                    code::DEADLINE
                } else if matches!(e, RepairError::AutoExhausted { .. }) {
                    code::AUTO_EXHAUSTED
                } else {
                    return Err((code::REPAIR_FAILED, e.to_string()).into());
                };
                Err(MethodError {
                    code,
                    message: e.to_string(),
                    data: Some(auto.to_value()),
                })
            }
        }
    }

    /// `explain`: repair with provenance, then render the paper-style
    /// explanation of where and why the named constant changed.
    fn explain(&mut self, params: &Value, external: Option<&CancelToken>) -> MethodResult {
        let opts = RunOptions::read(params, Work::One, external)?;
        let (report, env) = self.run_repairer(params, &opts, true)?;
        let name = opts.names[0].as_str();
        let p = report.provenance_for(name).ok_or_else(|| {
            (
                code::BAD_PARAMS,
                format!("no provenance recorded for `{name}`"),
            )
        })?;
        let explanation = pumpkin_lang::explain_decl(&env, p).ok_or_else(|| {
            (
                code::REPAIR_FAILED,
                format!("`{}` or `{}` vanished from the environment", p.from, p.to),
            )
        })?;
        Ok((
            Value::Obj(vec![
                ("from".into(), Value::str(&p.from)),
                ("to".into(), Value::str(&p.to)),
                ("explanation".into(), Value::str(explanation.render())),
            ]),
            Control::Continue,
        ))
    }

    /// `eval`: decode a digest-verified term envelope, typecheck and
    /// normalize it against the session's eval environment, and return
    /// both the pretty form and the normal form's envelope. A normal form
    /// nested deeper than [`MAX_DEPTH`] is a `budget_exceeded` error
    /// instead, since the client's wire decoder would refuse it: readback
    /// stops at that depth, so the over-deep term is never built.
    fn eval(&mut self, params: &Value) -> MethodResult {
        let envelope = params
            .get("term")
            .ok_or_else(|| (code::BAD_PARAMS, "eval needs a `term` envelope".into()))?;
        let term = term_from_envelope(envelope).map_err(|e| match e {
            WireError::BadDigest { .. } => (code::BAD_DIGEST, e.to_string()),
            other => (code::BAD_PARAMS, other.to_string()),
        })?;
        let normal = self.normalize_checked(&term);
        if self.eval_env.memo_len() > EVAL_MEMO_CAP {
            self.eval_env = self.base.clone();
            serve_stats::inc(&self.stats.gauges.eval_memo_resets);
        }
        let normal = normal?;
        let env = &self.eval_env;
        Ok((
            Value::Obj(vec![
                (
                    "pretty".into(),
                    Value::str(pumpkin_lang::pretty(env, &normal)),
                ),
                ("term".into(), term_to_envelope(&normal)),
            ]),
            Control::Continue,
        ))
    }

    /// Type-checks the closed `term` and reads back its normal form, both
    /// in the `eval` environment.
    fn normalize_checked(&self, term: &Term) -> Result<Term, (&'static str, String)> {
        let env = &self.eval_env;
        pumpkin_kernel::typecheck::infer_closed(env, term)
            .map_err(|e| (code::BAD_PARAMS, format!("term does not typecheck: {e}")))?;
        pumpkin_kernel::reduce::normalize_within(env, term, MAX_DEPTH).ok_or_else(|| {
            let message =
                format!("the normal form nests deeper than the wire's {MAX_DEPTH} levels");
            (code::BUDGET_EXCEEDED, message)
        })
    }

    /// The shared run path for repair/explain: resolve the lifting spec
    /// (configuring unless it is already cached), clone the configured
    /// environment, and run a [`Repairer`] over it.
    fn run_repairer(
        &mut self,
        params: &Value,
        opts: &RunOptions,
        provenance: bool,
    ) -> Result<(RepairReport, Env), (&'static str, String)> {
        self.ensure_configured(&lift_spec(params)?)?;
        // An `"incremental": true` request diffs the sources against the
        // configuration's snapshot from the last repair (an empty snapshot
        // on the first request — everything diffs as changed, a cold run)
        // and replays unchanged constants from the persist cache.
        let incremental = flag(params, "incremental");
        let prev: Option<DigestMap> = if incremental {
            Some(self.configured[0].snapshot.clone().unwrap_or_default())
        } else {
            None
        };
        let cfg = &self.configured[0];

        let mut env = cfg.env.clone();
        let mut st = LiftState::new();
        let mut repairer = Repairer::new(&cfg.lifting)
            .state(&mut st)
            .provenance(provenance);
        if let Some(tok) = &opts.cancel {
            repairer = repairer.cancel(tok.clone());
        }
        if let Some(dir) = &self.cache_dir {
            repairer = repairer
                .persist_cache(dir)
                .cache_max_bytes(self.cache_max_bytes);
        }
        if let Some(snap) = &prev {
            repairer = repairer.incremental(snap);
        }
        let names = opts.names();
        let report = repairer.run(&mut env, &names).map_err(|e| match e {
            RepairError::Cancelled { .. } => (code::DEADLINE, e.to_string()),
            other => (code::REPAIR_FAILED, other.to_string()),
        })?;
        if incremental {
            self.configured[0].snapshot = Some(DigestMap::capture(&env, &names));
        }
        let g = &self.stats.gauges;
        serve_stats::add(&g.lift_constants, report.lift.constants_lifted);
        serve_stats::add(&g.lift_cache_hits, report.lift.cache_hits);
        serve_stats::add(&g.lift_cache_misses, report.lift.cache_misses);
        serve_stats::add(&g.persist_hits, report.lift.persist_hits);
        serve_stats::add(&g.persist_misses, report.lift.persist_misses);
        serve_stats::add(&g.persist_rejected, report.lift.persist_rejected);
        serve_stats::add(&g.persist_compactions, report.lift.persist_compactions);
        serve_stats::add(&g.persist_evictions, report.lift.persist_evictions);
        if let Some(incr) = &report.incr {
            serve_stats::add(&g.incr_changed, incr.changed);
            serve_stats::add(&g.incr_replayed, incr.replayed);
            serve_stats::add(&g.incr_skipped, incr.skipped);
        }
        Ok((report, env))
    }

    /// Moves the configuration for `spec` to the front of the cache,
    /// running its search procedure if it is not cached yet (and evicting
    /// the least recently used entry beyond [`MAX_CONFIGS`]).
    fn ensure_configured(&mut self, spec: &LiftSpec) -> Result<(), (&'static str, String)> {
        let digest = spec.digest();
        if let Some(pos) = self.configured.iter().position(|c| c.digest == digest) {
            self.configured[..=pos].rotate_right(1);
            serve_stats::inc(&self.stats.gauges.config_cache_hits);
            return Ok(());
        }
        serve_stats::inc(&self.stats.gauges.config_cache_misses);
        let mut env = self.base.clone();
        let lifting = pumpkin_core::search::configure(&mut env, spec)
            .map_err(|msg| (code::REPAIR_FAILED, msg))?;
        self.configured.insert(
            0,
            Configured {
                digest,
                env,
                lifting,
                snapshot: None,
            },
        );
        self.configured.truncate(MAX_CONFIGS);
        Ok(())
    }
}

/// Which work list a method reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Work {
    /// A string `name`: one constant (`repair`, `explain`).
    One,
    /// A non-empty `names` array (`repair_module`).
    Module,
    /// An optional `names` array: `repair_auto` can take its work list
    /// from `source` instead.
    Auto,
}

/// A repair request's run options, read once, before any configuration
/// or candidate runs.
struct RunOptions {
    /// The work list; no entry is empty.
    names: Vec<String>,
    /// `"deterministic": true` zeroes every timing in the reply.
    deterministic: bool,
    /// The run's cancel token (see [`cancel_token`]).
    cancel: Option<CancelToken>,
}

impl RunOptions {
    fn read(
        params: &Value,
        work: Work,
        external: Option<&CancelToken>,
    ) -> Result<RunOptions, (&'static str, String)> {
        Ok(RunOptions {
            names: request_names(params, work)?,
            deterministic: flag(params, "deterministic"),
            cancel: cancel_token(params, external),
        })
    }

    fn names(&self) -> Vec<&str> {
        self.names.iter().map(String::as_str).collect()
    }
}

/// The work list `work` names. An empty name is malformed input: no
/// constant has it, so a run could only fail after configuring (or, for
/// `repair_auto`, after trying every candidate).
fn request_names(params: &Value, work: Work) -> Result<Vec<String>, (&'static str, String)> {
    let bad = |msg: &str| (code::BAD_PARAMS, msg.to_string());
    let names: Vec<String> = match (work, params.get("name"), params.get("names")) {
        (Work::One, name, _) => {
            let name = name
                .and_then(Value::as_str)
                .ok_or_else(|| bad("request needs a string `name`"))?;
            vec![name.to_string()]
        }
        (Work::Auto, _, None) => Vec::new(),
        (_, _, names) => {
            let (not_array, not_strings) = if work == Work::Auto {
                (
                    "`names` must be a string array",
                    "`names` must be a string array",
                )
            } else {
                ("request needs a `names` array", "`names` must hold strings")
            };
            names
                .and_then(Value::as_arr)
                .ok_or_else(|| bad(not_array))?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or_else(|| bad(not_strings))?
        }
    };
    if work == Work::Module && names.is_empty() {
        return Err(bad("`names` must not be empty"));
    }
    if names.iter().any(String::is_empty) {
        return Err(bad(if work == Work::One {
            "`name` must not be empty"
        } else {
            "`names` must not hold an empty name"
        }));
    }
    Ok(names)
}

/// A run's cancel token: the pool's, which it creates at enqueue so the
/// budget covers queue time, else one from the request's `deadline_ms`.
fn cancel_token(params: &Value, external: Option<&CancelToken>) -> Option<CancelToken> {
    external.cloned().or_else(|| {
        let ms = params.get("deadline_ms").and_then(Value::as_u64)?;
        Some(CancelToken::with_deadline(Duration::from_millis(ms)))
    })
}

/// The request's `lifting` spec.
fn lift_spec(params: &Value) -> Result<LiftSpec, (&'static str, String)> {
    let spec = params.get("lifting").ok_or_else(|| {
        (
            code::BAD_PARAMS,
            "request needs a `lifting` spec".to_string(),
        )
    })?;
    LiftSpec::from_value(spec).map_err(|e| (code::BAD_PARAMS, e.to_string()))
}

fn flag(params: &Value, key: &str) -> bool {
    params.get(key).and_then(Value::as_bool).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumpkin_kernel::admission::AdmissionMemo;

    /// A standalone session on a private admission memo, so what other
    /// tests in this process had the kernel accept moves none of its
    /// gauges.
    fn session() -> Session {
        let mut base = pumpkin_stdlib::std_env();
        base.set_admission_memo(Some(AdmissionMemo::new()));
        Session::new(base, None)
    }

    fn swap_spec() -> String {
        LiftSpec::swap("Old.list", "New.list", "Old.", "New.")
            .to_value()
            .to_string()
    }

    #[test]
    fn ping_names_the_protocol() {
        let mut s = session();
        let (reply, ctl) = s.handle_line(r#"{"id":1,"method":"ping"}"#);
        assert_eq!(ctl, Control::Continue);
        assert_eq!(
            reply,
            r#"{"id":1,"req_id":1,"ok":true,"result":{"pong":true,"proto":1,"wire":"pumpkin-wire/3"}}"#
        );
    }

    #[test]
    fn req_ids_count_every_frame_including_parse_errors() {
        let mut s = session();
        let (r1, _) = s.handle_line(r#"{"id":1,"method":"ping"}"#);
        assert!(r1.contains(r#""req_id":1"#), "{r1}");
        let (r2, _) = s.handle_line("{]");
        assert!(
            r2.contains(r#""req_id":2"#),
            "parse errors consume an id: {r2}"
        );
        let (r3, _) = s.handle_line(r#"{"id":2,"method":"ping"}"#);
        assert!(r3.contains(r#""req_id":3"#), "{r3}");
    }

    #[test]
    fn stats_reports_schema_gauges_and_config_cache_traffic() {
        let mut s = session();
        let repair = format!(
            r#"{{"id":1,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev"],"deterministic":true}}}}"#,
            swap_spec()
        );
        let (r, _) = s.handle_line(&repair);
        assert!(r.contains("\"ok\":true"), "{r}");
        let (r, _) = s.handle_line(&repair);
        assert!(r.contains("\"ok\":true"), "{r}");
        let (reply, ctl) = s.handle_line(r#"{"id":9,"method":"stats"}"#);
        assert_eq!(ctl, Control::Continue);
        let v = Value::parse(&reply).unwrap();
        let result = v.get("result").unwrap();
        assert_eq!(
            result.get("schema").and_then(Value::as_str),
            Some(STATS_SCHEMA)
        );
        let gauges = result.get("gauges").unwrap();
        // First repair configured fresh, second reused the cached recipe.
        assert_eq!(
            gauges.get("config_cache_misses").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            gauges.get("config_cache_hits").and_then(Value::as_u64),
            Some(1)
        );
        // A bare session records no latency — that is the server's job —
        // so the method map is empty and the reply is deterministic.
        assert_eq!(
            result
                .get("methods")
                .and_then(Value::as_obj)
                .map(<[_]>::len),
            Some(0)
        );
    }

    #[test]
    fn repair_module_replies_with_a_report() {
        let mut s = session();
        let line = format!(
            r#"{{"id":2,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev","Old.app"],"deterministic":true}}}}"#,
            swap_spec()
        );
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let report = v.get("result").unwrap().get("report").unwrap();
        assert_eq!(report.get("wall_ns"), Some(&Value::UInt(0)));
        let repaired = report.get("repaired").and_then(Value::as_arr).unwrap();
        assert_eq!(repaired.len(), 2);
        // Sessions serve throwaway environments: a second identical
        // request returns byte-identical output (modulo the lifecycle
        // id, which counts frames).
        let (again, _) = s.handle_line(&line);
        assert_eq!(
            reply.replace("\"req_id\":1,", ""),
            again.replace("\"req_id\":2,", "")
        );
    }

    #[test]
    fn hello_announces_versions_methods_and_limits() {
        let mut s = session();
        let (reply, ctl) = s.handle_line(r#"{"id":1,"method":"hello"}"#);
        assert_eq!(ctl, Control::Continue);
        let v = Value::parse(&reply).unwrap();
        let result = v.get("result").unwrap();
        assert_eq!(
            result.get("proto_version").and_then(Value::as_u64),
            Some(u64::from(PROTO_VERSION))
        );
        assert_eq!(
            result.get("wire_version").and_then(Value::as_str),
            Some(pumpkin_wire::WIRE_TAG)
        );
        let methods = result.get("methods").and_then(Value::as_arr).unwrap();
        for m in METHODS {
            assert!(
                methods.iter().any(|v| v.as_str() == Some(m)),
                "hello must announce `{m}`"
            );
        }
        assert_eq!(
            result
                .get("limits")
                .and_then(|l| l.get("max_frame_bytes"))
                .and_then(Value::as_u64),
            Some(proto::MAX_FRAME as u64)
        );
    }

    #[test]
    fn incremental_repair_replays_from_the_persist_cache() {
        let dir =
            std::env::temp_dir().join(format!("pumpkin-serve-incr-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Session::new(pumpkin_stdlib::std_env(), Some(dir.clone()));
        let line = format!(
            r#"{{"id":1,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev","Old.app"],"deterministic":true,"incremental":true}}}}"#,
            swap_spec()
        );
        // First incremental request: empty snapshot, everything changed.
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{reply}");
        let incr = |v: &Value| {
            v.get("result")
                .and_then(|r| r.get("report"))
                .and_then(|r| r.get("incr"))
                .cloned()
                .unwrap()
        };
        let first = incr(&v);
        assert_eq!(first.get("changed").and_then(Value::as_u64), Some(2));
        // Second identical request: nothing changed, everything replays.
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        let second = incr(&v);
        assert_eq!(second.get("changed").and_then(Value::as_u64), Some(0));
        assert_eq!(second.get("replayed").and_then(Value::as_u64), Some(0));
        assert_eq!(second.get("skipped").and_then(Value::as_u64), Some(2));
        // A cold request carries no `incr` field at all.
        let cold = format!(
            r#"{{"id":2,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev","Old.app"],"deterministic":true}}}}"#,
            swap_spec()
        );
        let (reply, _) = s.handle_line(&cold);
        assert!(!reply.contains("\"incr\""), "{reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The error code of `line`'s reply.
    fn error_code(s: &mut Session, line: &str) -> Option<String> {
        let (reply, _) = s.handle_line(line);
        let v = Value::parse(&reply).unwrap();
        let code = v.get("error")?.get("code")?.as_str()?;
        Some(code.to_string())
    }

    #[test]
    fn repair_auto_refuses_an_empty_name_before_any_candidate_runs() {
        let mut s = session();
        let line = format!(
            r#"{{"id":1,"method":"repair_auto","params":{{"lifting":{},"names":[""]}}}}"#,
            swap_spec()
        );
        assert_eq!(error_code(&mut s, &line).as_deref(), Some(code::BAD_PARAMS));
        let (stats, _) = s.handle_line(r#"{"id":2,"method":"stats"}"#);
        assert!(stats.contains(r#""auto_candidates_tried":0,"#), "{stats}");
    }

    #[test]
    fn repairs_refuse_an_empty_name_before_configuring() {
        let mut s = session();
        let spec = swap_spec();
        for line in [
            format!(
                r#"{{"id":1,"method":"repair_module","params":{{"lifting":{spec},"names":["Old.rev",""]}}}}"#
            ),
            format!(r#"{{"id":2,"method":"repair","params":{{"lifting":{spec},"name":""}}}}"#),
            format!(r#"{{"id":3,"method":"explain","params":{{"lifting":{spec},"name":""}}}}"#),
        ] {
            assert_eq!(
                error_code(&mut s, &line).as_deref(),
                Some(code::BAD_PARAMS),
                "{line}"
            );
        }
        let (stats, _) = s.handle_line(r#"{"id":4,"method":"stats"}"#);
        assert!(stats.contains(r#""config_cache_misses":0,"#), "{stats}");
    }

    #[test]
    fn deterministic_replies_pin_the_incr_block_and_an_exhausted_search() {
        // An incremental repair's `incr` block, and an exhausted search's
        // `data` with its minimized reproducer, byte for byte; neither is
        // in the golden transcript.
        let dir = std::env::temp_dir().join(format!("pumpkin-serve-pinned-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Session::new(pumpkin_stdlib::std_env(), Some(dir.clone()));
        let incremental = format!(
            r#"{{"id":1,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev","Old.app"],"deterministic":true,"incremental":true}}}}"#,
            swap_spec()
        );
        let (cold, _) = s.handle_line(&incremental);
        let (warm, _) = s.handle_line(&incremental);
        let _ = std::fs::remove_dir_all(&dir);
        // The first request finds an empty snapshot: both constants probe
        // the empty pack, miss, and re-lift.
        assert_eq!(
            cold,
            r##"{"id":1,"req_id":1,"ok":true,"result":{"report":{"repaired":[["Old.rev","New.rev"],["Old.app","New.app"]],"waves":2,"max_width":1,"cache_hits":3,"cache_misses":6,"constants_lifted":2,"visits":78,"persist_hits":0,"persist_misses":2,"wall_ns":0,"incr":{"changed":2,"replayed":2,"skipped":0}}}}"##
        );
        // The second request finds every source unchanged: both constants
        // replay from the persist cache.
        assert_eq!(
            warm,
            r##"{"id":1,"req_id":2,"ok":true,"result":{"report":{"repaired":[["Old.rev","New.rev"],["Old.app","New.app"]],"waves":2,"max_width":1,"cache_hits":0,"cache_misses":0,"constants_lifted":2,"visits":0,"persist_hits":2,"persist_misses":0,"wall_ns":0,"incr":{"changed":0,"replayed":0,"skipped":2}}}}"##
        );
        // The auto smoke's clash module: no candidate can repair it. The
        // failure cache is off, so other tests' searches cannot change
        // the counts.
        let source = "Definition New.check_clash : nat := O.\\nDefinition Old.check_clash : forall (T : Type 1), Old.list T -> Old.list T := fun (T : Type 1) (l : Old.list T) => l.";
        let auto = format!(
            r#"{{"id":2,"method":"repair_auto","params":{{"lifting":{},"names":["Old.rev","Old.app","Old.length"],"source":"{source}","failure_cache":false,"deterministic":true}}}}"#,
            swap_spec()
        );
        let (reply, _) = session().handle_line(&auto);
        assert_eq!(
            reply,
            r##"{"id":2,"req_id":1,"ok":false,"error":{"code":"auto_exhausted","message":"automatic repair search exhausted 2 candidate(s); default configuration failed with class `kernel`; minimized reproducer: 1 of 4 constant(s) [Old.check_clash]","data":{"v":1,"tried":2,"skipped_cache":0,"rejected":2,"complete":true,"candidates":[["mapping#0 smart_elim=off","rejected","kernel",0],["mapping#0 smart_elim=on","rejected","kernel",0]],"reproducer":{"names":["Old.check_clash"],"class":"kernel","seed":0,"original":4,"steps":5}}}}"##
        );
    }

    #[test]
    fn explain_after_incremental_repair_cites_the_same_rules() {
        let dir =
            std::env::temp_dir().join(format!("pumpkin-serve-explain-incr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let explain_line = format!(
            r#"{{"id":1,"method":"explain","params":{{"lifting":{},"name":"Old.rev"}}}}"#,
            swap_spec()
        );
        // Cold explanation, no cache anywhere.
        let (cold, _) = session().handle_line(&explain_line);
        // Warm the persist cache with an incremental repair, then explain
        // on the same session: the replayed world must cite identically.
        let mut s = Session::new(pumpkin_stdlib::std_env(), Some(dir.clone()));
        let repair_line = format!(
            r#"{{"id":2,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev"],"deterministic":true,"incremental":true}}}}"#,
            swap_spec()
        );
        let (r, _) = s.handle_line(&repair_line);
        assert!(r.contains("\"ok\":true"), "{r}");
        let (r, _) = s.handle_line(&repair_line);
        assert!(r.contains("\"skipped\":1"), "{r}");
        let (warm, _) = s.handle_line(&explain_line);
        let text = |reply: &str| {
            Value::parse(reply)
                .unwrap()
                .get("result")
                .and_then(|r| r.get("explanation"))
                .and_then(Value::as_str)
                .map(str::to_string)
                .unwrap()
        };
        assert_eq!(text(&cold), text(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_cites_the_rules() {
        let mut s = session();
        let line = format!(
            r#"{{"id":3,"method":"explain","params":{{"lifting":{},"name":"Old.rev"}}}}"#,
            swap_spec()
        );
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{reply}");
        let result = v.get("result").unwrap();
        assert_eq!(result.get("to").and_then(Value::as_str), Some("New.rev"));
        assert!(result
            .get("explanation")
            .and_then(Value::as_str)
            .unwrap()
            .contains("New.rev"));
    }

    #[test]
    fn structured_errors_keep_the_connection_usable() {
        let mut s = session();
        for (line, want_code) in [
            ("{]", code::PARSE),
            (r#"{"id":1,"method":"frobnicate"}"#, code::UNKNOWN_METHOD),
            (r#"{"id":1,"method":"repair_module"}"#, code::BAD_PARAMS),
            (
                r#"{"id":1,"method":"repair_module","params":{"lifting":{"kind":"swap","a":"A","b":"B","rename":[]},"names":[]}}"#,
                code::BAD_PARAMS,
            ),
            (
                r#"{"id":1,"method":"eval","params":{"term":{"wire":"pumpkin-wire/3","digest":"0000000000000000","nodes":[[1]]}}}"#,
                code::BAD_DIGEST,
            ),
        ] {
            let (reply, ctl) = s.handle_line(line);
            assert_eq!(ctl, Control::Continue);
            let v = Value::parse(&reply).unwrap();
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{line}");
            assert_eq!(
                v.get("error").unwrap().get("code").and_then(Value::as_str),
                Some(want_code),
                "{line} -> {reply}"
            );
        }
        // After every error, a good request still succeeds.
        let (reply, _) = s.handle_line(r#"{"id":9,"method":"ping"}"#);
        assert!(reply.contains("\"pong\":true"));
    }

    #[test]
    fn eval_normalizes_digest_verified_terms() {
        use pumpkin_kernel::term::Term;
        let mut s = session();
        // S (S O) + O, as an applied constant — normalizes to a literal.
        let two = Term::app(
            Term::construct("nat", 1),
            [Term::app(
                Term::construct("nat", 1),
                [Term::construct("nat", 0)],
            )],
        );
        let t = Term::app(Term::const_("add"), [two, Term::construct("nat", 0)]);
        let line = format!(
            r#"{{"id":4,"method":"eval","params":{{"term":{}}}}}"#,
            term_to_envelope(&t)
        );
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{reply}");
        let pretty = v
            .get("result")
            .unwrap()
            .get("pretty")
            .and_then(Value::as_str)
            .unwrap();
        assert_eq!(pretty, "S (S O)");
    }

    #[test]
    fn over_deep_normal_forms_become_budget_exceeded_errors() {
        use pumpkin_kernel::term::Term;
        let numeral = |n: usize| {
            (0..n).fold(Term::construct("nat", 0), |t, _| {
                Term::app(Term::construct("nat", 1), [t])
            })
        };
        let mul = |s: &mut Session, n: usize| {
            let t = Term::app(Term::const_("mul"), [numeral(n), numeral(n)]);
            let line = format!(
                r#"{{"id":7,"method":"eval","params":{{"term":{}}}}}"#,
                term_to_envelope(&t)
            );
            let (reply, _) = s.handle_line(&line);
            Value::parse(&reply).unwrap_or_else(|e| panic!("unparseable reply ({e}): {reply}"))
        };
        let mut s = session();
        // 23 × 23 = 529 nested successors: past the wire's depth cap.
        let deep = mul(&mut s, 23);
        assert_eq!(deep.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            deep.get("error")
                .unwrap()
                .get("code")
                .and_then(Value::as_str),
            Some(code::BUDGET_EXCEEDED)
        );
        assert!(deep.get("req_id").is_some());
        let (reply, _) = s.handle_line(r#"{"id":8,"method":"ping"}"#);
        assert!(reply.contains("\"pong\":true"), "{reply}");
        // 484 fits, and comes back as its normal form.
        let ok = mul(&mut s, 22);
        assert_eq!(ok.get("ok"), Some(&Value::Bool(true)));
        let normal = term_from_envelope(ok.get("result").unwrap().get("term").unwrap()).unwrap();
        assert_eq!(normal, numeral(484));
    }

    #[test]
    fn eval_warms_its_own_env_and_leaves_the_base_untouched() {
        use pumpkin_kernel::term::Term;
        let numeral = |n: usize| {
            (0..n).fold(Term::construct("nat", 0), |t, _| {
                Term::app(Term::construct("nat", 1), [t])
            })
        };
        let eval = |s: &mut Session, n: usize| {
            let t = Term::app(Term::const_("add"), [numeral(n), numeral(1)]);
            let line = format!(
                r#"{{"id":1,"method":"eval","params":{{"term":{}}}}}"#,
                term_to_envelope(&t)
            );
            let (reply, _) = s.handle_line(&line);
            assert!(reply.contains("\"ok\":true"), "{reply}");
        };
        let mut s = session();
        let base = s.base.kernel_stats();
        for n in 0..50 {
            eval(&mut s, n);
        }
        assert_eq!(s.base.kernel_stats(), base);

        // A repeated eval is answered from the warm env's value and type
        // memos: no reduction step at all.
        let warm = s.eval_env.kernel_stats();
        eval(&mut s, 7);
        let repeat = s.eval_env.kernel_stats().since(&warm);
        assert_eq!(repeat.reduction_steps(), 0, "{repeat:?}");
        assert_eq!(s.base.kernel_stats(), base);
    }

    #[test]
    fn a_stream_of_distinct_eval_terms_keeps_the_eval_memo_under_its_cap() {
        use pumpkin_kernel::term::Term;
        use std::sync::atomic::Ordering;
        let numeral = |n: usize| {
            (0..n).fold(Term::construct("nat", 0), |t, _| {
                Term::app(Term::construct("nat", 1), [t])
            })
        };
        let mut s = session();
        let resets = |s: &Session| s.stats.gauges.eval_memo_resets.load(Ordering::Relaxed);
        for (a, b) in (0..100).flat_map(|a| (0..100).map(move |b| (a, b))) {
            let t = Term::app(Term::const_("add"), [numeral(a), numeral(b)]);
            let line = format!(
                r#"{{"id":1,"method":"eval","params":{{"term":{}}}}}"#,
                term_to_envelope(&t)
            );
            let (reply, _) = s.handle_line(&line);
            assert!(reply.contains("\"ok\":true"), "{reply}");
            assert!(s.eval_env.memo_len() <= EVAL_MEMO_CAP);
            if resets(&s) > 0 {
                break;
            }
        }
        assert_eq!(resets(&s), 1, "the stream never reached the cap");
        // The replacement starts with the base's tables, as at startup.
        assert_eq!(s.eval_env.memo_len(), s.base.memo_len());
    }

    /// The `kernel_admission_hits` gauge, read through a `stats` frame.
    fn admission_hits(s: &mut Session) -> u64 {
        let (reply, _) = s.handle_line(r#"{"id":0,"method":"stats"}"#);
        let v = Value::parse(&reply).unwrap();
        let gauges = v.get("result").and_then(|r| r.get("gauges")).unwrap();
        gauges
            .get("kernel_admission_hits")
            .and_then(Value::as_u64)
            .unwrap()
    }

    /// `reply` without its lifecycle id, which counts a session's frames.
    fn without_req_id(reply: &str) -> String {
        let v = Value::parse(reply).unwrap();
        let fields = v.as_obj().unwrap().iter();
        Value::Obj(fields.filter(|(k, _)| k != "req_id").cloned().collect()).to_string()
    }

    #[test]
    fn a_warm_admission_memo_changes_no_reply() {
        let spec = swap_spec();
        let frames = [
            format!(
                r#"{{"id":1,"method":"repair","params":{{"lifting":{spec},"name":"Old.rev","deterministic":true}}}}"#
            ),
            format!(
                r#"{{"id":2,"method":"repair_module","params":{{"lifting":{spec},"names":["Old.rev","Old.app"],"deterministic":true}}}}"#
            ),
            format!(
                r#"{{"id":3,"method":"repair_batch","params":{{"lifting":{spec},"batch":[{{"name":"Old.app","deterministic":true}},{{"names":["Old.length"],"deterministic":true}}]}}}}"#
            ),
            format!(
                r#"{{"id":4,"method":"explain","params":{{"lifting":{spec},"name":"Old.rev"}}}}"#
            ),
            format!(
                r#"{{"id":5,"method":"repair_auto","params":{{"lifting":{spec},"names":["Old.rev"],"failure_cache":false,"deterministic":true}}}}"#
            ),
        ];
        let mut warm = session();
        for frame in &frames {
            warm.handle_line(frame);
        }
        for frame in &frames {
            // A fresh session checks every declaration it meets...
            let mut fresh = session();
            let (cold, _) = fresh.handle_line(frame);
            assert!(cold.contains("\"ok\":true"), "{cold}");
            assert_eq!(admission_hits(&mut fresh), 0, "{frame}");
            // ...and the warm one admits them unchecked, with the same reply.
            let before = admission_hits(&mut warm);
            let (hot, _) = warm.handle_line(frame);
            assert!(admission_hits(&mut warm) > before, "{frame}");
            assert_eq!(without_req_id(&cold), without_req_id(&hot), "{frame}");
        }
    }

    #[test]
    fn deadline_zero_reports_a_deadline_error() {
        let mut s = session();
        let line = format!(
            r#"{{"id":5,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev"],"deadline_ms":0}}}}"#,
            swap_spec()
        );
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").and_then(Value::as_str),
            Some(code::DEADLINE),
            "{reply}"
        );
        // The session is still healthy.
        let ok_line = format!(
            r#"{{"id":6,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev"]}}}}"#,
            swap_spec()
        );
        let (reply, _) = s.handle_line(&ok_line);
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
}
