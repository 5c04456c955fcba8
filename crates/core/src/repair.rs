//! The command-level repair report: what the paper's
//! `Repair Old.list New.list in rev_app_distr` and `Repair module` commands
//! (paper §2) hand back.
//!
//! The single front door for *running* repairs is [`crate::Repairer`]; the
//! PR-3-era free-function wrappers (`repair`, `repair_module`, …) are gone —
//! build a `Repairer` instead.

use std::collections::HashMap;
use std::io;

use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;
use pumpkin_kernel::stats::KernelStats;
use pumpkin_kernel::term::{Term, TermData};
use pumpkin_trace::json::Value;
use pumpkin_trace::{Event, Metrics};

use crate::config::Lifting;
use crate::error::{RepairError, Result};
use crate::incr::IncrStats;
use crate::lift::{LiftState, LiftStats};
use crate::schedule::ScheduleStats;

/// The result of a module repair: the constants repaired (old → new), in
/// completion order, plus the work the repair cost at every layer —
/// kernel counters, lift-layer counters, the shape of the module's
/// dependency DAG, and, when tracing was on, the structured event
/// stream and the metrics registry derived from it.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Mapping from each repaired source constant to its repaired name.
    /// Append through [`RepairReport::record`] so the lookup index stays
    /// in sync.
    pub repaired: Vec<(GlobalName, GlobalName)>,
    /// Old name → position in `repaired`, so [`RepairReport::renamed`] is
    /// O(1) instead of a linear scan (module work lists are consulted once
    /// per constant by the drivers and tests).
    index: HashMap<GlobalName, usize>,
    /// Kernel counters (conv/whnf/infer calls, reduction steps) accrued
    /// while this report's constants were repaired and re-checked.
    pub kernel: KernelStats,
    /// Lift-layer counters (closed-subterm cache traffic, constants
    /// lifted, subterm visits) accrued by this run.
    pub lift: LiftStats,
    /// The dependency DAG and its wave statistics. Always present: every
    /// run is ordered by the same DAG.
    pub schedule: ScheduleStats,
    /// The structured trace events, when the run was executed through a
    /// [`crate::Repairer`] with trace capture on (empty otherwise).
    pub trace: Vec<Event>,
    /// Counters/histograms derived from the trace (empty when tracing was
    /// off).
    pub metrics: Metrics,
    /// Per-constant provenance trees — every rewrite site attributed to
    /// the configuration rule that fired — when the run recorded
    /// provenance (tracing on, or [`crate::Repairer::provenance`]); empty
    /// otherwise. Pretty-printed wire form; the order follows completion
    /// order.
    pub provenance: Vec<pumpkin_trace::prov::ConstProvenance>,
    /// End-to-end wall-clock latency of the run in nanoseconds, measured
    /// by [`crate::Repairer`] around the whole request (scheduling,
    /// lifting, provenance rendering, sink delivery) — what a service
    /// client actually waited, as opposed to the per-span timings inside
    /// the trace. Zero for reports not produced through a `Repairer`.
    pub wall_ns: u64,
    /// Incremental accounting (`{changed, replayed, skipped}`), present
    /// only for runs driven through [`crate::Repairer::incremental`] —
    /// `None` for cold runs, so identical cold requests stay byte-for-byte
    /// reproducible on the wire.
    pub incr: Option<IncrStats>,
    /// The automatic-search accounting, present only when the run was
    /// produced by [`crate::AutoDriver`] — `None` for direct repairs, so
    /// their wire form is unchanged.
    pub auto: Option<crate::auto::AutoReport>,
}

impl RepairReport {
    /// Appends a repaired pair, keeping the ordered list and the lookup
    /// index consistent.
    pub fn record(&mut self, from: GlobalName, to: GlobalName) {
        self.index.insert(from.clone(), self.repaired.len());
        self.repaired.push((from, to));
    }

    /// Looks up where a source constant went.
    pub fn renamed(&self, from: &str) -> Option<&GlobalName> {
        self.index.get(from).map(|&i| &self.repaired[i].1)
    }

    /// Replaces the repaired list wholesale, rebuilding the lookup index.
    /// The [`crate::Repairer`] uses this to splice constants it resolved
    /// outside the scheduler (incremental green reuse) back into work-list
    /// order.
    pub(crate) fn set_repaired(&mut self, pairs: Vec<(GlobalName, GlobalName)>) {
        self.index = pairs
            .iter()
            .enumerate()
            .map(|(i, (from, _))| (from.clone(), i))
            .collect();
        self.repaired = pairs;
    }

    /// The module dependency DAG in Graphviz DOT (see
    /// `examples/repair_dag.rs`). Available from every run: each one is
    /// scheduled over this DAG.
    pub fn dag_dot(&self) -> String {
        self.schedule.dag.to_dot()
    }

    /// The structured trace events (empty unless the run traced).
    pub fn trace_events(&self) -> &[Event] {
        &self.trace
    }

    /// The metrics registry derived from the trace (empty unless the run
    /// traced).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Writes the trace as JSON lines (the `--trace out.jsonl` schema,
    /// DESIGN.md §11).
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O errors.
    pub fn write_trace_jsonl(&self, out: &mut dyn io::Write) -> io::Result<()> {
        for e in &self.trace {
            writeln!(out, "{}", e.to_json())?;
        }
        Ok(())
    }

    /// The human-readable flamegraph-style summary of the trace
    /// ([`pumpkin_trace::summary::render`]).
    pub fn trace_summary(&self) -> String {
        pumpkin_trace::summary::render(&self.trace)
    }

    /// The provenance tree for a constant, looked up by its source *or*
    /// repaired name (empty report or untraced run → `None`).
    pub fn provenance_for(&self, name: &str) -> Option<&pumpkin_trace::prov::ConstProvenance> {
        self.provenance
            .iter()
            .find(|p| p.from == name || p.to == name)
    }

    /// The reply object served to repair-service clients: repaired
    /// pairs, DAG shape, lift-layer counters, the end-to-end latency
    /// (`wall_ns`, zeroed when `deterministic`), then the `incr` and
    /// `auto` blocks when present. Raw [`KernelStats`] are deliberately
    /// omitted: how much kernel work a repair costs depends on what the
    /// admission memo its environment shares already holds (which other
    /// requests, or earlier runs in the process, were checked first), not
    /// on the request. `persist_rejected`, `persist_compactions` and
    /// `persist_evictions` are not rendered either: the daemon serves them
    /// as gauges.
    pub fn to_value(&self, deterministic: bool) -> Value {
        let n = Value::UInt;
        let repaired = self
            .repaired
            .iter()
            .map(|(f, t)| Value::Arr(vec![Value::str(f.as_str()), Value::str(t.as_str())]))
            .collect();
        let mut fields = vec![
            ("repaired".into(), Value::Arr(repaired)),
            ("waves".into(), n(self.schedule.waves as u64)),
            ("max_width".into(), n(self.schedule.max_width as u64)),
            ("cache_hits".into(), n(self.lift.cache_hits)),
            ("cache_misses".into(), n(self.lift.cache_misses)),
            ("constants_lifted".into(), n(self.lift.constants_lifted)),
            ("visits".into(), n(self.lift.visits)),
            ("persist_hits".into(), n(self.lift.persist_hits)),
            ("persist_misses".into(), n(self.lift.persist_misses)),
            (
                "wall_ns".into(),
                n(if deterministic { 0 } else { self.wall_ns }),
            ),
        ];
        if let Some(i) = &self.incr {
            fields.push((
                "incr".into(),
                Value::Obj(vec![
                    ("changed".into(), n(i.changed)),
                    ("replayed".into(), n(i.replayed)),
                    ("skipped".into(), n(i.skipped)),
                ]),
            ));
        }
        if let Some(a) = &self.auto {
            fields.push(("auto".into(), a.to_value()));
        }
        Value::Obj(fields)
    }
}

/// The environment-wide work list [`crate::Repairer::run_all`] sweeps: constants that
/// directly mention the source type, in declaration order, minus the
/// configuration's own artifacts, explicit exclusions, and anything
/// already mapped.
pub(crate) fn sweep_work_list(
    env: &Env,
    lifting: &Lifting,
    state: &LiftState,
    extra_exclusions: &[&str],
) -> Vec<GlobalName> {
    let mut excluded: Vec<GlobalName> = extra_exclusions
        .iter()
        .map(|s| GlobalName::new(*s))
        .collect();
    if let Some(eqv) = &lifting.equivalence {
        excluded.extend([
            eqv.f.clone(),
            eqv.g.clone(),
            eqv.section.clone(),
            eqv.retraction.clone(),
        ]);
    }
    env.order()
        .iter()
        .filter_map(|r| match r {
            pumpkin_kernel::env::GlobalRef::Const(n) => Some(n.clone()),
            _ => None,
        })
        .filter(|name| {
            if excluded.contains(name) || state.const_map.contains_key(name) {
                return false;
            }
            let Ok(decl) = env.const_decl(name) else {
                return false;
            };
            decl.ty.mentions_global(&lifting.a_name)
                || decl
                    .body
                    .as_ref()
                    .is_some_and(|b| b.mentions_global(&lifting.a_name))
        })
        .collect()
}

/// Maximum rendered length of the residual subterm in a
/// [`RepairError::SourceNotFree`] message.
const RESIDUAL_MAX_CHARS: usize = 120;

/// The smallest informative subterm of `t` still mentioning `a`: descend
/// while exactly one child mentions the source, stopping one level above a
/// bare global so the mention keeps its application context (`Old.list
/// nat`, not just `Old.list`).
fn residual_subterm<'t>(t: &'t Term, a: &GlobalName) -> &'t Term {
    let is_atomic = |t: &Term| {
        matches!(
            t.data(),
            TermData::Const(_) | TermData::Ind(_) | TermData::Construct(_, _)
        )
    };
    let mut mentioning = Vec::new();
    t.for_each_child(|c, _| {
        if c.mentions_global(a) {
            mentioning.push(c);
        }
    });
    match mentioning[..] {
        // Exactly one child carries the mention and is itself compound:
        // the residual is in there.
        [c] if !is_atomic(c) => residual_subterm(c, a),
        // The unique carrier is a bare global (or several children carry
        // it): `t` is the smallest informative context.
        _ => t,
    }
}

/// Builds the [`RepairError::SourceNotFree`] for a residual mention of the
/// source type in `decl_part` of `constant`, reachable from `root`.
fn source_not_free(
    env: &Env,
    lifting: &Lifting,
    root: &GlobalName,
    constant: &GlobalName,
    t: &Term,
) -> RepairError {
    let residual = residual_subterm(t, &lifting.a_name);
    let mut rendered = pumpkin_lang::pretty(env, residual);
    if rendered.chars().count() > RESIDUAL_MAX_CHARS {
        rendered = rendered
            .chars()
            .take(RESIDUAL_MAX_CHARS)
            .collect::<String>()
            + "…";
    }
    RepairError::SourceNotFree {
        root: root.clone(),
        constant: constant.clone(),
        residual: rendered,
    }
}

/// Checks that a repaired constant no longer refers to the source type —
/// the defining property of repair vs. plain reuse (paper §3.2: "the old
/// version of the specification may be removed").
///
/// # Errors
///
/// Returns [`RepairError::SourceNotFree`] naming the offending constant
/// and the residual source-type subterm (pretty-printed) if any reachable
/// definition still mentions the source type.
pub fn check_source_free(env: &Env, lifting: &Lifting, name: &GlobalName) -> Result<()> {
    let mut visited = std::collections::HashSet::new();
    let mut queue = vec![name.clone()];
    while let Some(c) = queue.pop() {
        if !visited.insert(c.clone()) {
            continue;
        }
        let decl = env
            .const_decl(&c)
            .map_err(|_| RepairError::MissingDependency(c.clone()))?;
        if decl.ty.mentions_global(&lifting.a_name) {
            return Err(source_not_free(env, lifting, name, &c, &decl.ty));
        }
        if let Some(b) = &decl.body {
            if b.mentions_global(&lifting.a_name) {
                return Err(source_not_free(env, lifting, name, &c, b));
            }
        }
        queue.extend(decl.ty.constants());
        if let Some(b) = &decl.body {
            queue.extend(b.constants());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NameMap;
    use crate::repairer::Repairer;
    use crate::search::swap;
    use pumpkin_kernel::reduce::normalize;
    use pumpkin_kernel::term::Term;
    use pumpkin_stdlib as stdlib;
    use pumpkin_stdlib::list::list_lit;
    use pumpkin_stdlib::nat::{nat_lit, nat_value};

    fn swapped_env_and_report() -> (pumpkin_kernel::env::Env, RepairReport) {
        let mut env = stdlib::std_env();
        let lifting = swap::configure(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let mut st = LiftState::new();
        let report = Repairer::new(&lifting)
            .state(&mut st)
            .run(&mut env, stdlib::swap::OLD_MODULE_CONSTANTS)
            .unwrap();
        (env, report)
    }

    fn new_list(env: &pumpkin_kernel::env::Env, elems: &[u64]) -> Term {
        let _ = env;
        // New.list has cons at 0, nil at 1.
        let elem_ty = Term::ind("nat");
        let mut t = Term::app(Term::construct("New.list", 1), [elem_ty.clone()]);
        for &e in elems.iter().rev() {
            t = Term::app(
                Term::construct("New.list", 0),
                [elem_ty.clone(), nat_lit(e), t],
            );
        }
        t
    }

    #[test]
    fn repairs_whole_list_module() {
        let (env, report) = swapped_env_and_report();
        for c in stdlib::swap::OLD_MODULE_CONSTANTS {
            let to = report.renamed(c).unwrap();
            assert!(env.contains(to.as_str()), "missing {to}");
        }
        assert_eq!(report.renamed("Old.rev").unwrap().as_str(), "New.rev");
    }

    #[test]
    fn repaired_functions_behave_correctly() {
        let (env, _) = swapped_env_and_report();
        // New.rev reverses New.lists.
        let l = new_list(&env, &[1, 2, 3]);
        let r = Term::app(Term::const_("New.rev"), [Term::ind("nat"), l]);
        assert_eq!(normalize(&env, &r), new_list(&env, &[3, 2, 1]));
        // New.length agrees.
        let n = Term::app(
            Term::const_("New.length"),
            [Term::ind("nat"), new_list(&env, &[9, 9])],
        );
        assert_eq!(nat_value(&normalize(&env, &n)), Some(2));
    }

    #[test]
    fn repaired_proofs_do_not_mention_old_type() {
        let (env, report) = swapped_env_and_report();
        let mut env2 = env.clone();
        let lifting = swap::configure(
            &mut env2,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        for (_, to) in &report.repaired {
            check_source_free(&env, &lifting, to).unwrap();
        }
    }

    #[test]
    fn source_not_free_error_names_constant_and_residual() {
        let mut env = stdlib::std_env();
        let lifting = swap::configure(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        // Direct mention: an unrepaired constant's type still uses the
        // source type.
        let err = check_source_free(&env, &lifting, &"Old.rev".into()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`Old.rev` is not source-free"), "{msg}");
        assert!(msg.contains("Old.list"), "{msg}");

        // Mention through a dependency: `outer` is clean itself, but its
        // body references `inner`, whose body still builds an Old.list.
        let nat = Term::ind("nat");
        env.define(
            "inner",
            nat.clone(),
            Term::app(
                Term::const_("Old.length"),
                [nat.clone(), list_lit("Old.list", nat.clone(), &[])],
            ),
        )
        .unwrap();
        env.define("outer", nat, Term::const_("inner")).unwrap();
        let err = check_source_free(&env, &lifting, &"outer".into()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("`outer` is not source-free") && msg.contains("dependency `inner`"),
            "{msg}"
        );
        assert!(
            msg.contains("Old.nil"),
            "residual should be the nil literal: {msg}"
        );
    }

    #[test]
    fn transport_commutes_with_append() {
        // ∀ l1 l2, f (l1 ++ l2) = (f l1) ++ (f l2) — checked by normalization
        // on concrete values (paper §3.2's equality up to transport, tested
        // behaviourally).
        let mut env = stdlib::std_env();
        let lifting = swap::configure(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let mut st = LiftState::new();
        Repairer::new(&lifting)
            .state(&mut st)
            .run_one(&mut env, &"Old.app".into())
            .unwrap();
        let f = lifting.equivalence.as_ref().unwrap().f.clone();
        let nat = Term::ind("nat");
        let l1 = list_lit("Old.list", nat.clone(), &[nat_lit(1), nat_lit(2)]);
        let l2 = list_lit("Old.list", nat.clone(), &[nat_lit(3)]);
        let lhs = Term::app(
            Term::const_(f.clone()),
            [
                nat.clone(),
                Term::app(
                    Term::const_("Old.app"),
                    [nat.clone(), l1.clone(), l2.clone()],
                ),
            ],
        );
        let rhs = Term::app(
            Term::const_("New.app"),
            [
                nat.clone(),
                Term::app(Term::const_(f.clone()), [nat.clone(), l1]),
                Term::app(Term::const_(f), [nat, l2]),
            ],
        );
        assert_eq!(normalize(&env, &lhs), normalize(&env, &rhs));
    }

    #[test]
    fn cache_ablation_gives_same_result() {
        let mut env1 = stdlib::std_env();
        let l1 = swap::configure(
            &mut env1,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let mut st1 = LiftState::new();
        Repairer::new(&l1)
            .state(&mut st1)
            .run(&mut env1, stdlib::swap::OLD_MODULE_CONSTANTS)
            .unwrap();

        let mut env2 = stdlib::std_env();
        let l2 = swap::configure(
            &mut env2,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let mut st2 = LiftState::without_cache();
        Repairer::new(&l2)
            .state(&mut st2)
            .run(&mut env2, stdlib::swap::OLD_MODULE_CONSTANTS)
            .unwrap();

        assert!(st1.stats.cache_hits > 0);
        assert_eq!(st2.stats.cache_hits, 0);
        for c in stdlib::swap::OLD_MODULE_CONSTANTS {
            let n = GlobalName::new(c.replace("Old.", "New."));
            assert_eq!(
                env1.const_decl(&n).unwrap().body,
                env2.const_decl(&n).unwrap().body,
                "cache changed the result of {n}"
            );
        }
    }

    #[test]
    fn repair_replica_term_module() {
        let mut env = stdlib::std_env();
        let lifting = swap::configure(
            &mut env,
            &"Old.Term".into(),
            &"New.Term".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let mut st = LiftState::new();
        let report = Repairer::new(&lifting)
            .state(&mut st)
            .run(
                &mut env,
                &[
                    "Old.size",
                    "Old.eval",
                    "Old.swap_eq_args",
                    "Old.swap_eq_args_involutive",
                    "Old.eval_eq_true_or_false",
                ],
            )
            .unwrap();
        assert_eq!(report.repaired.len(), 5);
        // The repaired eval computes the same values through the equivalence.
        let f = lifting.equivalence.as_ref().unwrap().f.clone();
        let old_t = pumpkin_lang::term(
            &env,
            "Old.Plus (Old.Int (S (S O))) (Old.Times (Old.Int (S O)) (Old.Int (S (S (S O)))))",
        )
        .unwrap();
        let env_fn = pumpkin_lang::term(&env, "fun (i : Id) => O").unwrap();
        let old_v = Term::app(Term::const_("Old.eval"), [env_fn.clone(), old_t.clone()]);
        let new_v = Term::app(
            Term::const_("New.eval"),
            [env_fn, Term::app(Term::const_(f), [old_t])],
        );
        assert_eq!(
            nat_value(&normalize(&env, &old_v)),
            nat_value(&normalize(&env, &new_v))
        );
        assert_eq!(nat_value(&normalize(&env, &old_v)), Some(5));
    }
}
