//! The unified front door to the repair pipeline.
//!
//! [`Repairer`] is a builder over everything the free functions in
//! [`crate::repair`] used to expose separately: the work-list drivers
//! (single constant, explicit module, environment-wide sweep) and the
//! observability surface (trace capture, event sinks, metrics). One
//! configuration, one `run`:
//!
//! ```
//! use pumpkin_core::{LiftState, NameMap, Repairer};
//! use pumpkin_core::search::swap;
//! use pumpkin_stdlib as stdlib;
//!
//! # fn main() -> pumpkin_core::Result<()> {
//! let mut env = stdlib::std_env();
//! let lifting = swap::configure(
//!     &mut env,
//!     &"Old.list".into(),
//!     &"New.list".into(),
//!     NameMap::prefix("Old.", "New."),
//! )?;
//! let report = Repairer::new(&lifting)
//!     .trace(true)
//!     .run(&mut env, &["Old.rev", "Old.app"])?;
//! assert_eq!(report.renamed("Old.rev").unwrap().as_str(), "New.rev");
//! assert!(!report.trace_events().is_empty());
//! println!("{}", report.trace_summary());
//! # Ok(())
//! # }
//! ```
//!
//! Every run goes through the dependency-ordered pass of
//! [`crate::schedule`], so
//! [`crate::RepairReport::schedule`] (and with it
//! [`crate::RepairReport::dag_dot`]) is uniformly available.

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;
use pumpkin_kernel::term::{Term, TermData};
use pumpkin_trace::{Event, EventKind, JsonLinesSink, Metrics, Tracer};

use crate::config::Lifting;
use crate::error::{RepairError, Result};
use crate::incr::{DigestMap, IncrStats};
use crate::lift::{LiftOutcome, LiftState};
use crate::persist::PersistCache;
use crate::repair::{sweep_work_list, RepairReport};
use crate::schedule::{repair_in_order, CancelToken};

/// Builder-style front door to the repair pipeline: lifting +
/// observability in, [`RepairReport`] out. See the module docs for an
/// example.
pub struct Repairer<'a> {
    lifting: &'a Lifting,
    state: Option<&'a mut LiftState>,
    capture: bool,
    prov: Option<bool>,
    sink: Option<JsonLinesSink<Box<dyn Write + 'a>>>,
    persist_dir: Option<PathBuf>,
    cache_max_bytes: Option<u64>,
    incr_prev: Option<&'a DigestMap>,
    cancel: Option<CancelToken>,
}

impl<'a> Repairer<'a> {
    /// A repairer for `lifting` with the defaults: a fresh internal
    /// [`LiftState`], no tracing.
    pub fn new(lifting: &'a Lifting) -> Repairer<'a> {
        Repairer {
            lifting,
            state: None,
            capture: false,
            prov: None,
            sink: None,
            persist_dir: None,
            cache_max_bytes: None,
            incr_prev: None,
            cancel: None,
        }
    }

    /// The automatic repair search: enumerate candidate configurations
    /// ranked by the search procedure, run each through the kernel as
    /// oracle, and return the first that fully checks (see
    /// [`crate::auto`]). Unlike [`Repairer::new`] this needs no
    /// pre-configured [`Lifting`] — finding one is the search's job.
    pub fn auto(policy: crate::auto::AutoPolicy) -> crate::auto::AutoDriver {
        crate::auto::AutoDriver::new(policy)
    }

    /// Does nothing. Module repair is one sequential pass over the DAG,
    /// so there is no worker cap to set. The method stays only
    /// because the benchmark harness (`perfbench/src/edit.rs`) still calls
    /// `.jobs(1)`; remove it together with that call.
    #[deprecated(note = "module repair is sequential; there is no worker cap to set")]
    pub fn jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Threads an existing [`LiftState`] through the run, so repeated runs
    /// share the constant map and caches. Without this, each `run` uses a
    /// fresh internal state.
    pub fn state(mut self, state: &'a mut LiftState) -> Self {
        self.state = Some(state);
        self
    }

    /// Captures the structured event stream into
    /// [`RepairReport::trace`] / [`RepairReport::metrics`].
    pub fn trace(mut self, capture: bool) -> Self {
        self.capture = capture;
        self
    }

    /// Overrides provenance recording. By default provenance follows the
    /// tracing switch (a traced run attributes every rewrite site to its
    /// configuration rule and emits the `prov` event family); pass `true`
    /// to record provenance on an otherwise untraced run (filling
    /// [`RepairReport::provenance`] only) or `false` to keep a traced
    /// run's stream free of `prov` events. Recording off is free — one
    /// branch per probe (see [`crate::prov`]).
    pub fn provenance(mut self, record: bool) -> Self {
        self.prov = Some(record);
        self
    }

    /// Writes the run's events to `out` as JSON lines (the
    /// `--trace out.jsonl` schema) after the repair finishes (events are
    /// buffered thread-confined during the run). Implies tracing; combine
    /// with [`Repairer::trace`] to also keep the events on the report.
    /// A run whose repair succeeds but whose events cannot be written
    /// fails with [`RepairError::Trace`].
    pub fn sink(mut self, out: impl Write + 'a) -> Self {
        self.sink = Some(JsonLinesSink::new(Box::new(out)));
        self
    }

    /// Consults (and fills) the persistent cross-run lift cache rooted at
    /// `dir` (see [`crate::persist`]): constants whose old declaration,
    /// dependency fingerprint and lifting configuration match an earlier
    /// run are replayed from disk instead of re-lifted.
    /// [`crate::LiftStats::persist_hits`] / `persist_misses` on the report
    /// count the traffic.
    pub fn persist_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// Bounds the persistent cache's total size (`--cache-max-bytes`):
    /// once a store pushes the cache root past the budget, the
    /// least-recently-used entries are evicted (see [`crate::persist`]).
    /// No effect without [`Repairer::persist_cache`].
    pub fn cache_max_bytes(mut self, max: Option<u64>) -> Self {
        self.cache_max_bytes = max;
        self
    }

    /// Turns the run differential against a snapshot of the last repaired
    /// module ([`DigestMap::capture`]): a work-list constant whose
    /// dependency fingerprint is unchanged reuses its resident repair or
    /// replays from the persist cache, and one whose fingerprint changed
    /// (it, or anything it depends on, was edited) re-lifts, since its
    /// persist record was lifted against other dependencies (see
    /// [`crate::incr`]). The report's [`RepairReport::incr`] carries the
    /// `{changed, replayed, skipped}` accounting. Most effective together
    /// with [`Repairer::persist_cache`]; without it everything not
    /// resident re-lifts and only the accounting differs.
    pub fn incremental(mut self, prev: &'a DigestMap) -> Self {
        self.incr_prev = Some(prev);
        self
    }

    /// Gives the run a wall-clock budget: once it elapses, the run stops
    /// before its next constant with [`RepairError::Cancelled`], keeping
    /// every completed constant installed.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.cancel = Some(CancelToken::with_deadline(budget));
        self
    }

    /// Attaches an externally controlled [`CancelToken`] (e.g. tripped by
    /// a service on client disconnect). Replaces any token installed by
    /// [`Repairer::deadline`]; use [`CancelToken::with_deadline`] to
    /// combine both behaviors in one token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Repairs an explicit work list (`Repair module`, paper §2).
    ///
    /// # Errors
    ///
    /// Propagates the first repair failure; the failing constant is rolled
    /// back, so the environment contains exactly the constants completed
    /// before it.
    pub fn run(self, env: &mut Env, names: &[&str]) -> Result<RepairReport> {
        let nodes: Vec<GlobalName> = names.iter().map(|n| GlobalName::new(*n)).collect();
        self.execute(env, nodes)
    }

    /// Repairs every constant in the environment that mentions the source
    /// type, in declaration order, skipping the configuration's own
    /// artifacts, `extra_exclusions`, and constants already mapped.
    ///
    /// # Errors
    ///
    /// Propagates the first repair failure; the failing constant is rolled
    /// back, so the environment contains exactly the constants completed
    /// before it.
    pub fn run_all(self, env: &mut Env, extra_exclusions: &[&str]) -> Result<RepairReport> {
        let fresh = LiftState::new();
        let state: &LiftState = match &self.state {
            Some(s) => s,
            None => &fresh,
        };
        let nodes = sweep_work_list(env, self.lifting, state, extra_exclusions);
        self.execute(env, nodes)
    }

    /// Repairs a single constant (`Repair A B in name`) and returns its
    /// repaired name.
    ///
    /// # Errors
    ///
    /// Propagates the repair failure; partial output is rolled back.
    pub fn run_one(self, env: &mut Env, name: &GlobalName) -> Result<GlobalName> {
        let report = self.execute(env, vec![name.clone()])?;
        report
            .renamed(name.as_str())
            .cloned()
            .ok_or_else(|| RepairError::MissingDependency(name.clone()))
    }

    fn execute(mut self, env: &mut Env, nodes: Vec<GlobalName>) -> Result<RepairReport> {
        let wall_start = Instant::now();
        let tracing = self.capture || self.sink.is_some();
        // Install a fresh tracer for the run (saving whatever was there),
        // so event streams never bleed between runs.
        let saved = tracing.then(|| {
            let prev = env.take_tracer();
            env.set_tracer(Tracer::new());
            prev
        });

        let mut fresh;
        let state: &mut LiftState = match self.state.take() {
            Some(s) => s,
            None => {
                fresh = LiftState::new();
                &mut fresh
            }
        };
        let lift_before = state.stats;
        let prov_on = self.prov.unwrap_or(tracing);
        if prov_on {
            state.record_provenance();
        }
        if let Some(dir) = &self.persist_dir {
            let cache = PersistCache::open_bounded(dir, env, self.lifting, self.cache_max_bytes)
                .map_err(|e| {
                    RepairError::PersistCache(format!("cannot open `{}`: {e}", dir.display()))
                })?;
            state.set_persist(Some(Arc::new(cache)));
        }

        // Incremental mode: diff the work list against the snapshot before
        // any lift runs. The ledger of per-constant outcomes restarts per
        // run so a threaded state cannot leak counts between requests.
        state.clear_outcomes();
        // Which work-list members are green (fingerprint unchanged), in
        // work-list order.
        let mut green = Vec::new();
        let changed = self.incr_prev.map(|prev| {
            let stale = prev.stale(env, &nodes);
            // A threaded state may carry mappings from an earlier run; a
            // stale constant must re-lift, not short-circuit on one.
            state.forget(&stale);
            green = nodes.iter().map(|n| !stale.contains(n)).collect();
            state.set_green(
                nodes
                    .iter()
                    .zip(&green)
                    .filter(|(_, &g)| g)
                    .map(|(n, _)| n.clone())
                    .collect(),
            );
            prev.diff(env, &nodes)
        });

        // Incremental runs schedule O(dirty), not O(module): a green
        // constant whose target is already resident resolves here — no
        // pass slot, no DAG walk — and only the stale remainder (plus
        // greens without a resident target, e.g. a fresh environment,
        // which fall back to the persist-cache replay path) enters the
        // scheduler.
        let mut pre: Vec<(usize, GlobalName, GlobalName)> = Vec::new();
        let run_nodes: Vec<GlobalName> = if changed.is_some() {
            let mut run_nodes = Vec::new();
            for (i, (n, &g)) in nodes.iter().zip(&green).enumerate() {
                match g
                    .then(|| crate::lift::reuse_resident(env, self.lifting, state, n))
                    .flatten()
                {
                    Some(to) => pre.push((i, n.clone(), to)),
                    None => run_nodes.push(n.clone()),
                }
            }
            run_nodes
        } else {
            nodes.clone()
        };

        let run_span = env.tracer().begin();
        let names: Vec<&str> = run_nodes.iter().map(|n| n.as_str()).collect();
        let mut result = repair_in_order(env, self.lifting, state, &names, self.cancel.as_ref());
        if !pre.is_empty() {
            // Splice the pre-resolved greens back into work-list order, so
            // an incremental report's mapping is indistinguishable from a
            // cold run's.
            if let Ok(rep) = result.as_mut() {
                let mut greens = pre.into_iter().peekable();
                let mut pairs = Vec::with_capacity(nodes.len());
                for (i, n) in nodes.iter().enumerate() {
                    if greens.peek().is_some_and(|(j, _, _)| *j == i) {
                        let (_, from, to) = greens.next().expect("peeked");
                        pairs.push((from, to));
                    } else if let Some(to) = rep.renamed(n.as_str()) {
                        pairs.push((n.clone(), to.clone()));
                    }
                }
                rep.set_repaired(pairs);
            }
        }
        if self.persist_dir.is_some() {
            // The handle must not outlive the run: a shared `LiftState`
            // threaded into a later `Repairer` without `persist_cache`
            // should not silently keep writing to the old directory.
            state.set_persist(None);
        }
        env.tracer().end(run_span, EventKind::Run);
        let incr = changed.map(|changed| {
            let replayed = nodes
                .iter()
                .filter(|n| state.outcome(n) == Some(LiftOutcome::Fresh))
                .count() as u64;
            IncrStats {
                changed: changed.len() as u64,
                replayed,
                skipped: nodes.len() as u64 - replayed,
            }
        });
        if self.incr_prev.is_some() {
            // The green set is per-run state, like the persist handle: a
            // later run through the same threaded LiftState must not
            // inherit it.
            state.set_green(Default::default());
            if let Some(i) = incr {
                env.tracer().emit(EventKind::Incr {
                    changed: i.changed,
                    replayed: i.replayed,
                    skipped: i.skipped,
                });
            }
        }

        // Stringify the finished provenance trees (outside the run span so
        // pretty-printing cost never skews run.ns) and append them to the
        // stream as the `prov` event family. Failed runs keep the trees of
        // the constants completed before the failure — useful triage
        // context.
        let provenance: Vec<pumpkin_trace::prov::ConstProvenance> = if prov_on {
            state
                .take_provenance()
                .iter()
                .map(|c| render_provenance(env, c))
                .collect()
        } else {
            Vec::new()
        };
        if tracing {
            for c in &provenance {
                for kind in c.to_events() {
                    env.tracer().emit(kind);
                }
            }
        }

        // Drain + deliver events even when the repair failed: a trace of
        // the failing run is exactly what the sink is for.
        let events: Vec<Event> = if tracing {
            let tracer = env.take_tracer();
            if let Some(prev) = saved {
                env.set_tracer(prev);
            }
            tracer.into_events()
        } else {
            Vec::new()
        };
        if let Some(sink) = &mut self.sink {
            sink.drain(&events);
        }

        let mut report = result?;
        if let Some(e) = self.sink.as_ref().and_then(JsonLinesSink::error) {
            return Err(RepairError::Trace(e.to_string()));
        }
        report.incr = incr;
        report.lift = state.stats.since(&lift_before);
        report.metrics = Metrics::from_events(&events);
        report.provenance = provenance;
        if self.capture {
            report.trace = events;
        }
        // End-to-end request latency, distinct from the in-run span
        // timings: it includes scheduling, provenance rendering, and sink
        // delivery — what a service client actually waited.
        report.wall_ns = wall_start.elapsed().as_nanos() as u64;
        Ok(report)
    }
}

/// Maximum rendered length of a provenance site's pretty-printed subterm.
const SITE_MAX_CHARS: usize = 120;

/// Terms above this node count get a head-symbol summary instead of a
/// full pretty-print: rendering a thousand-node proof term only to clip
/// it to [`SITE_MAX_CHARS`] characters would dominate the provenance
/// path's cost.
const SITE_MAX_NODES: usize = 32;

fn clip(s: String) -> String {
    if s.chars().count() > SITE_MAX_CHARS {
        s.chars().take(SITE_MAX_CHARS).collect::<String>() + "…"
    } else {
        s
    }
}

/// A cheap head-symbol summary for terms too large to pretty-print.
fn summarize(t: &Term) -> String {
    match t.data() {
        TermData::App(h, _) => summarize(h),
        TermData::Const(n) | TermData::Ind(n) => format!("{n} …"),
        TermData::Construct(ind, j) => format!("{ind}#{j} …"),
        TermData::Lambda(..) => "fun …".into(),
        TermData::Pi(..) => "forall …".into(),
        TermData::Let(..) => "let …".into(),
        TermData::Elim(e) => format!("elim … : {}", e.ind),
        TermData::Rel(i) => format!("#{i} …"),
        TermData::Sort(s) => format!("{s} …"),
    }
}

fn render_term(env: &Env, t: &Term) -> String {
    if t.size() <= SITE_MAX_NODES {
        clip(pumpkin_lang::pretty(env, t))
    } else {
        summarize(t)
    }
}

/// Pretty-prints one term-level provenance tree into its wire form.
fn render_provenance(
    env: &Env,
    c: &crate::prov::ConstProv,
) -> pumpkin_trace::prov::ConstProvenance {
    pumpkin_trace::prov::ConstProvenance {
        from: c.from.as_str().to_string(),
        to: c.to.as_str().to_string(),
        sites: c
            .sites
            .iter()
            .map(|s| pumpkin_trace::prov::ProvSite {
                path: s.path.to_vec(),
                rule: s.rule,
                src: render_term(env, &s.src),
                dst: render_term(env, &s.dst),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NameMap;
    use crate::search::swap;
    use pumpkin_kernel::admission::AdmissionMemo;
    use pumpkin_kernel::env::ConstDecl;
    use pumpkin_stdlib as stdlib;
    use pumpkin_trace::json::Value;

    fn configured() -> (Env, Lifting) {
        let mut env = stdlib::std_env();
        let lifting = swap::configure(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        (env, lifting)
    }

    #[test]
    fn default_run_reports_schedule_without_branching() {
        let (mut env, lifting) = configured();
        let report = Repairer::new(&lifting)
            .run(&mut env, &["Old.rev", "Old.app"])
            .unwrap();
        assert!(report.schedule.waves >= 1);
        assert!(report.dag_dot().contains("Old.rev"));
        // No tracing requested: the stream and registry stay empty.
        assert!(report.trace_events().is_empty());
        assert!(report.metrics().is_empty());
    }

    #[test]
    fn traced_run_captures_spans_and_kernel_probes() {
        // A private admission memo: the process-wide one may already hold
        // these declarations, and then no kernel probe would fire.
        let (mut env, lifting) = configured();
        env.set_admission_memo(Some(AdmissionMemo::new()));
        let report = Repairer::new(&lifting)
            .trace(true)
            .run(&mut env, &["Old.rev", "Old.app", "Old.rev_app_distr"])
            .unwrap();
        let events = report.trace_events();
        let has = |pred: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
        assert!(has(&|k| matches!(k, EventKind::Run)));
        assert!(has(&|k| matches!(
            k,
            EventKind::LiftConstant { name } if &**name == "Old.rev_app_distr"
        )));
        assert!(has(&|k| matches!(k, EventKind::Whnf)));
        // The metrics registry derives from the same stream.
        assert_eq!(
            report.metrics().counter("lift.constants"),
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::LiftConstant { .. }))
                .count() as u64
        );
        // After the run the environment's tracer is disabled again.
        assert!(!env.tracer().enabled());
    }

    #[test]
    fn sink_receives_the_full_stream() {
        let (mut env, lifting) = configured();
        let mut lines = Vec::new();
        Repairer::new(&lifting)
            .sink(&mut lines)
            .run(&mut env, &["Old.length"])
            .unwrap();
        let text = String::from_utf8(lines).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(
                Event::from_json(line).is_some(),
                "sink line fails to parse: {line}"
            );
        }
    }

    #[test]
    fn run_one_matches_free_function() {
        let (mut env, lifting) = configured();
        let name = Repairer::new(&lifting)
            .run_one(&mut env, &"Old.rev".into())
            .unwrap();
        assert_eq!(name.as_str(), "New.rev");
    }

    #[test]
    fn persist_cache_replays_identical_declarations() {
        let dir =
            std::env::temp_dir().join(format!("pumpkin-repairer-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let module = pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS;

        // Cold run: everything is a persistent-cache miss.
        let (mut env1, lifting1) = configured();
        let cold = Repairer::new(&lifting1)
            .persist_cache(&dir)
            .run(&mut env1, module)
            .unwrap();
        assert_eq!(cold.lift.persist_hits, 0);
        assert!(cold.lift.persist_misses > 0);

        // Warm run from a fresh environment: every listed constant replays
        // from disk, and the declarations are byte-identical.
        let (mut env2, lifting2) = configured();
        let warm = Repairer::new(&lifting2)
            .persist_cache(&dir)
            .run(&mut env2, module)
            .unwrap();
        assert_eq!(warm.lift.persist_hits as usize, module.len());
        assert_eq!(warm.lift.persist_misses, 0);
        for c in module {
            let n = warm.renamed(c).unwrap();
            assert_eq!(
                env1.const_decl(n).unwrap(),
                env2.const_decl(n).unwrap(),
                "persisted replay diverged on {n}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unusable_cache_dir_fails_the_run_at_open() {
        // A regular file where the cache root should be: opening the shard
        // directory fails before any constant is lifted.
        let file =
            std::env::temp_dir().join(format!("pumpkin-repairer-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"").unwrap();
        let (mut env, lifting) = configured();
        let err = Repairer::new(&lifting)
            .persist_cache(&file)
            .run(&mut env, &["Old.rev"])
            .unwrap_err();
        assert_eq!(err.class(), crate::ErrorClass::Cache, "{err}");
        assert!(!env.contains("New.rev"), "a constant was lifted");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn a_forged_persist_frame_is_refused_evicted_and_relifted() {
        // A frame whose digests verify but whose declaration is ill-typed:
        // `New.rev_app_distr : False := O`, under `Old.rev_app_distr`'s key.
        // Replay hands it to the kernel like a fresh lift, in every build
        // profile, so the run refuses it, deletes it and lifts fresh.
        let dir =
            std::env::temp_dir().join(format!("pumpkin-repairer-forged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let new_name = GlobalName::new("New.rev_app_distr");
        let (mut env, lifting) = configured();
        let old = env.const_decl(&"Old.rev_app_distr".into()).unwrap().clone();
        let forged = ConstDecl {
            name: new_name.clone(),
            ty: Term::ind("False"),
            body: Some(Term::construct("nat", 0)),
            opaque: false,
        };
        PersistCache::open(&dir, &env, &lifting).unwrap().store(
            &old,
            env.fingerprint(&old.name).unwrap(),
            &forged,
        );
        let first = Repairer::new(&lifting)
            .persist_cache(&dir)
            .run(&mut env, &["Old.rev_app_distr"])
            .unwrap();
        assert_eq!(first.lift.persist_rejected, 1);
        let installed = env.const_decl(&new_name).unwrap();
        let body = installed.body.as_ref().unwrap();
        pumpkin_kernel::typecheck::check_closed(&env, body, &installed.ty).unwrap();

        // The fresh lift re-published a good frame, which a fresh
        // environment replays.
        let (mut env2, lifting2) = configured();
        let second = Repairer::new(&lifting2)
            .persist_cache(&dir)
            .run(&mut env2, &["Old.rev_app_distr"])
            .unwrap();
        assert!(second.lift.persist_hits >= 1);
        assert_eq!(second.lift.persist_rejected, 0);
        assert_eq!(env2.const_decl(&new_name), env.const_decl(&new_name));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn green_reuse_skips_unchanged_resident_constants_without_a_cache() {
        // Session-resident incremental run: the environment already holds
        // the previous repair's outputs and every work-list digest matches
        // the snapshot, so the whole module is green — reused with no
        // persist cache attached at all (zero disk).
        let module = pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS;
        let (mut env, lifting) = configured();
        let first = Repairer::new(&lifting).run(&mut env, module).unwrap();
        let snap = DigestMap::capture(&env, module);
        let second = Repairer::new(&lifting)
            .incremental(&snap)
            .run(&mut env, module)
            .unwrap();
        assert_eq!(first.repaired, second.repaired);
        let incr = second.incr.expect("incremental run reports stats");
        assert_eq!(
            (incr.changed, incr.replayed, incr.skipped),
            (0, 0, module.len() as u64)
        );
        assert_eq!(second.lift.persist_hits + second.lift.persist_misses, 0);
    }

    #[test]
    fn threaded_state_re_lifts_stale_constants() {
        // A LiftState threaded from an earlier run carries mappings for
        // every constant; a stale constant (here: absent from the
        // snapshot, as a new one would be) must not short-circuit on its
        // old entry — the run forgets it so it re-lifts fresh.
        let module = pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS;
        let (mut env, lifting) = configured();
        let mut st = LiftState::new();
        Repairer::new(&lifting)
            .state(&mut st)
            .run(&mut env, module)
            .unwrap();
        let snapped: Vec<&str> = module
            .iter()
            .copied()
            .filter(|n| *n != "Old.fold_app")
            .collect();
        let snap = DigestMap::capture(&env, &snapped);
        let report = Repairer::new(&lifting)
            .state(&mut st)
            .incremental(&snap)
            .run(&mut env, module)
            .unwrap();
        let incr = report.incr.expect("incremental run reports stats");
        assert_eq!(incr.changed, 1);
        assert_eq!(incr.replayed, 1, "the touched leaf must re-lift fresh");
        assert_eq!(incr.skipped, module.len() as u64 - 1);
    }

    #[test]
    fn deadline_zero_cancels_before_any_work() {
        let (mut env, lifting) = configured();
        let err = Repairer::new(&lifting)
            .deadline(Duration::from_nanos(0))
            .run(&mut env, &["Old.rev"])
            .unwrap_err();
        assert!(matches!(err, RepairError::Cancelled { completed: 0 }));
        assert!(!env.contains("New.rev"));
    }

    #[test]
    fn reports_carry_request_latency() {
        let (mut env, lifting) = configured();
        let report = Repairer::new(&lifting).run(&mut env, &["Old.rev"]).unwrap();
        assert!(report.wall_ns > 0);
        let reply = report.to_value(false);
        assert_eq!(reply.get("wall_ns"), Some(&Value::UInt(report.wall_ns)));
        assert_eq!(
            reply.get("repaired").map(Value::to_string).as_deref(),
            Some(r#"[["Old.rev","New.rev"]]"#)
        );
        // Deterministic replies zero the latency and nothing else.
        let zeroed = reply.to_string().replace(
            &format!(r#""wall_ns":{}"#, report.wall_ns),
            r#""wall_ns":0"#,
        );
        assert_eq!(report.to_value(true).to_string(), zeroed);
    }

    #[test]
    fn shared_state_carries_mappings_between_runs() {
        let (mut env, lifting) = configured();
        let mut st = LiftState::new();
        Repairer::new(&lifting)
            .state(&mut st)
            .run(&mut env, &["Old.app"])
            .unwrap();
        assert!(st.const_map.contains_key("Old.app"));
        // Second run resolves Old.app from the shared map.
        let report = Repairer::new(&lifting)
            .state(&mut st)
            .run(&mut env, &["Old.app_assoc"])
            .unwrap();
        assert_eq!(
            report.renamed("Old.app_assoc").unwrap().as_str(),
            "New.app_assoc"
        );
    }
}
