//! Dependency-ordered scheduling for `Repair module` (paper §2).
//!
//! The paper repairs an entire module "all at once"; most of its constants
//! only depend on a small prefix of the others, so the repairs are largely
//! independent — the same per-definition modularity that quotient-type
//! repair (Viola et al. 2023) and Coq transformation pipelines (Blot et
//! al. 2021) exploit. This module gives that independence a structure:
//!
//! 1. [`ModuleDag::build`] computes the constant-level dependency DAG of
//!    the work list (free global constants of each type/body, followed
//!    transitively *through* constants outside the list, restricted *to*
//!    the list).
//! 2. [`repair_in_order`] repairs the DAG's waves (its longest-path
//!    layers) flattened into one pass, one constant at a time, in place on
//!    the caller's [`Env`] and [`LiftState`]. A constant is the unit of
//!    rollback: on an error or a tripped [`CancelToken`],
//!    [`Env::rollback_to`] drops that constant's partial output (including
//!    dependencies it repaired on demand) and
//!    [`LiftState::retain_resident`] forgets every mapping and cache entry
//!    that named a dropped constant, so the environment holds exactly the
//!    constants completed before the failure, all type-correct.
//!
//! The same DAG drives incremental invalidation ([`crate::incr`]) and
//! failure minimization ([`crate::minimize`]). Parallelism lives one level
//! up, in the serve worker pool, which runs separate requests on separate
//! threads (DESIGN.md §10).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;

use crate::config::Lifting;
use crate::error::{RepairError, Result};
use crate::lift::{repair_constant, LiftState};
use crate::repair::RepairReport;

/// A cooperative cancellation handle for [`repair_in_order`].
///
/// The scheduler polls the token before every constant. A trip mid-run
/// rolls back the constant in flight exactly like a failing constant
/// would, so cancellation never leaves the environment half-updated: the
/// completed constants stay installed and type-correct, and the run fails
/// with [`RepairError::Cancelled`], reporting how many were kept.
///
/// Tokens are cheap to clone (an `Arc`'d flag plus an optional deadline);
/// the service layer hands one clone to the request thread and keeps
/// another to fire on client disconnect or server drain.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally trips once `budget` has elapsed (measured
    /// from now). Explicit [`CancelToken::cancel`] still works earlier.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + budget),
        }
    }

    /// Requests cancellation; takes effect before the next constant.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested (or the deadline passed)?
    pub fn cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The constant-level dependency DAG of a module work list.
#[derive(Clone, Debug, Default)]
pub struct ModuleDag {
    /// The work list, in the caller's order.
    pub nodes: Vec<GlobalName>,
    /// `deps[i]` = indices of work-list constants `nodes[i]` depends on
    /// (directly, or transitively through constants outside the list),
    /// sorted ascending.
    pub deps: Vec<Vec<usize>>,
}

impl ModuleDag {
    /// Builds the DAG by following each constant's mentioned globals.
    /// Mentions are chased through constants *not* on the work list (their
    /// on-demand repair transitively needs the listed dependency) and cut
    /// at constants that are (their repair completes in an earlier wave).
    /// Unknown constants contribute no edges — their repair will fail in
    /// its own turn, not during planning.
    pub fn build(env: &Env, nodes: &[GlobalName]) -> ModuleDag {
        if nodes.len() < 2 {
            // No other listed constant to depend on: nothing to chase.
            return ModuleDag {
                nodes: nodes.to_vec(),
                deps: vec![Vec::new(); nodes.len()],
            };
        }
        let index: HashMap<&GlobalName, usize> =
            nodes.iter().enumerate().map(|(i, n)| (n, i)).collect();
        // For constants outside the list: which listed constants they reach.
        let mut memo: HashMap<GlobalName, Vec<usize>> = HashMap::new();

        fn mentioned(env: &Env, name: &GlobalName) -> Vec<GlobalName> {
            let Ok(decl) = env.const_decl(name) else {
                return Vec::new();
            };
            let mut out = decl.ty.constants();
            if let Some(b) = &decl.body {
                for c in b.constants() {
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
            out
        }

        fn reach(
            env: &Env,
            index: &HashMap<&GlobalName, usize>,
            memo: &mut HashMap<GlobalName, Vec<usize>>,
            name: &GlobalName,
        ) -> Vec<usize> {
            if let Some(hit) = memo.get(name) {
                return hit.clone();
            }
            // Constants cannot be cyclic (each body checks against the
            // prior environment), so seeding the memo breaks nothing and
            // guards against malformed input.
            memo.insert(name.clone(), Vec::new());
            let mut out = Vec::new();
            for c in mentioned(env, name) {
                if let Some(&i) = index.get(&c) {
                    if !out.contains(&i) {
                        out.push(i);
                    }
                } else {
                    for i in reach(env, index, memo, &c) {
                        if !out.contains(&i) {
                            out.push(i);
                        }
                    }
                }
            }
            out.sort_unstable();
            memo.insert(name.clone(), out.clone());
            out
        }

        let deps = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let mut ds = Vec::new();
                for c in mentioned(env, n) {
                    if let Some(&j) = index.get(&c) {
                        if j != i && !ds.contains(&j) {
                            ds.push(j);
                        }
                    } else {
                        for j in reach(env, &index, &mut memo, &c) {
                            if j != i && !ds.contains(&j) {
                                ds.push(j);
                            }
                        }
                    }
                }
                ds.sort_unstable();
                ds
            })
            .collect();
        ModuleDag {
            nodes: nodes.to_vec(),
            deps,
        }
    }

    /// Longest-path layering: `wave[i] = 1 + max(wave[deps])`, so a wave's
    /// constants depend only on strictly earlier waves. Within a wave,
    /// indices are in work-list order.
    pub fn waves(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let mut depth = vec![usize::MAX; n];
        fn level(deps: &[Vec<usize>], depth: &mut [usize], i: usize) -> usize {
            if depth[i] != usize::MAX {
                return depth[i];
            }
            // Constants are acyclic (see `build`); mark before recursing so
            // a hypothetical cycle terminates at depth 0 instead of
            // overflowing the stack.
            depth[i] = 0;
            let d = deps[i]
                .iter()
                .map(|&j| level(deps, depth, j) + 1)
                .max()
                .unwrap_or(0);
            depth[i] = d;
            d
        }
        let mut waves: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let d = level(&self.deps, &mut depth, i);
            if waves.len() <= d {
                waves.resize(d + 1, Vec::new());
            }
            waves[d].push(i);
        }
        // Work-list order within each wave (insertion order is ascending
        // already, but keep the invariant explicit and robust).
        for w in &mut waves {
            w.sort_unstable();
        }
        waves
    }

    /// Renders the DAG in Graphviz DOT, one `rank=same` group per wave, so
    /// the achievable scheduling width is visible at a glance
    /// (`dot -Tsvg`). Edges point dependency → dependent (the direction
    /// repair information flows).
    pub fn to_dot(&self) -> String {
        let waves = self.waves();
        let mut wave_of = vec![0usize; self.nodes.len()];
        for (w, members) in waves.iter().enumerate() {
            for &i in members {
                wave_of[i] = w;
            }
        }
        let mut s = String::from("digraph repair_dag {\n  rankdir=LR;\n  node [shape=box];\n");
        for (w, members) in waves.iter().enumerate() {
            s.push_str("  { rank=same;");
            for &i in members {
                s.push_str(&format!(" \"{}\"", self.nodes[i]));
            }
            s.push_str(&format!(" }} // wave {w}\n"));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            s.push_str(&format!(
                "  \"{n}\" [label=\"{n}\\nwave {}\"];\n",
                wave_of[i]
            ));
        }
        for (i, ds) in self.deps.iter().enumerate() {
            for &d in ds {
                s.push_str(&format!(
                    "  \"{}\" -> \"{}\";\n",
                    self.nodes[d], self.nodes[i]
                ));
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Per-run DAG statistics, reported through [`RepairReport::schedule`].
#[derive(Clone, Debug, Default)]
pub struct ScheduleStats {
    /// Number of waves (longest-path layers) in the work list's DAG.
    pub waves: usize,
    /// Constants in each wave, in order.
    pub wave_widths: Vec<usize>,
    /// Largest wave (the module's widest set of independent constants).
    pub max_width: usize,
    /// The dependency DAG the run was ordered by.
    pub dag: ModuleDag,
}

impl fmt::Display for ScheduleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} waves, widths {:?} (max {})",
            self.waves, self.wave_widths, self.max_width,
        )
    }
}

/// `Repair module`: repairs the work list in one pass over the DAG's
/// waves, constant by constant (see the module docs).
///
/// # Errors
///
/// Propagates the first repair error, in pass order. The failing
/// constant is rolled back: the environment contains exactly the
/// constants completed before it, all type-correct, and `state` forgets
/// whatever named a dropped constant. A tripped `cancel` token fails with
/// [`RepairError::Cancelled`] before the next constant, keeping every
/// completed constant installed.
pub fn repair_in_order(
    env: &mut Env,
    lifting: &Lifting,
    state: &mut LiftState,
    names: &[&str],
    cancel: Option<&CancelToken>,
) -> Result<RepairReport> {
    let nodes: Vec<GlobalName> = names.iter().map(|n| GlobalName::new(*n)).collect();
    let dag = ModuleDag::build(env, &nodes);
    let waves = dag.waves();
    let kernel_before = env.kernel_stats();
    let wave_widths: Vec<usize> = waves.iter().map(Vec::len).collect();
    let sched = ScheduleStats {
        waves: waves.len(),
        max_width: wave_widths.iter().copied().max().unwrap_or(0),
        wave_widths,
        dag,
    };
    let mut repaired: Vec<(usize, GlobalName)> = Vec::new();
    for &i in waves.iter().flatten() {
        if cancel.is_some_and(CancelToken::cancelled) {
            return Err(RepairError::Cancelled {
                completed: repaired.len(),
            });
        }
        let mark = env.order().len();
        match repair_constant(env, lifting, state, &nodes[i]) {
            Ok(to) => repaired.push((i, to)),
            Err(e) => {
                env.rollback_to(mark);
                state.retain_resident(env);
                return Err(e);
            }
        }
    }

    repaired.sort_unstable_by_key(|(i, _)| *i);
    let mut report = RepairReport::default();
    for (i, to) in repaired {
        report.record(nodes[i].clone(), to);
    }
    report.kernel = env.kernel_stats().since(&kernel_before);
    report.schedule = sched;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MatchedElim, MatchedProj, SideMatch};
    use pumpkin_kernel::term::Term;

    fn chain_env() -> (Env, Vec<GlobalName>) {
        let mut env = Env::new();
        env.assume("T", Term::type_(1)).unwrap();
        env.assume("a", Term::const_("T")).unwrap();
        env.define("b", Term::const_("T"), Term::const_("a"))
            .unwrap();
        // `helper` is off-list; `c` depends on `a` only through it.
        env.define("helper", Term::const_("T"), Term::const_("a"))
            .unwrap();
        env.define("c", Term::const_("T"), Term::const_("helper"))
            .unwrap();
        env.assume("d", Term::const_("T")).unwrap();
        let nodes: Vec<GlobalName> = ["a", "b", "c", "d"].map(GlobalName::new).to_vec();
        (env, nodes)
    }

    #[test]
    fn dag_follows_transitive_deps_through_off_list_constants() {
        let (env, nodes) = chain_env();
        let dag = ModuleDag::build(&env, &nodes);
        assert_eq!(dag.deps[0], Vec::<usize>::new()); // a
        assert_eq!(dag.deps[1], vec![0]); // b -> a
        assert_eq!(dag.deps[2], vec![0]); // c -> helper -> a
        assert_eq!(dag.deps[3], Vec::<usize>::new()); // d
    }

    #[test]
    fn waves_layer_by_longest_path() {
        let (env, nodes) = chain_env();
        let dag = ModuleDag::build(&env, &nodes);
        assert_eq!(dag.waves(), vec![vec![0, 3], vec![1, 2]]);
    }

    #[test]
    fn dot_lists_every_node_and_edge() {
        let (env, nodes) = chain_env();
        let dag = ModuleDag::build(&env, &nodes);
        let dot = dag.to_dot();
        assert!(dot.starts_with("digraph repair_dag {"));
        for n in &nodes {
            assert!(dot.contains(&format!("\"{n}\"")), "missing node {n}");
        }
        assert!(dot.contains("\"a\" -> \"b\";"));
        assert!(dot.contains("\"a\" -> \"c\";"));
    }

    #[test]
    fn cancelled_token_stops_before_the_first_constant() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = crate::search::swap::configure(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            crate::config::NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let mark = env.order().len();
        let token = CancelToken::new();
        token.cancel();
        let mut state = LiftState::default();
        let err = repair_in_order(
            &mut env,
            &lifting,
            &mut state,
            &["Old.rev", "Old.app"],
            Some(&token),
        )
        .unwrap_err();
        match err {
            RepairError::Cancelled { completed } => assert_eq!(completed, 0),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // Nothing was installed.
        assert_eq!(env.order().len(), mark);
    }

    /// Delegates to the configured matcher, tripping `token` on its first
    /// probe — i.e. while the pass's first constant lifts.
    struct CancelOnFirstMatch {
        inner: Box<dyn SideMatch>,
        token: CancelToken,
    }

    impl SideMatch for CancelOnFirstMatch {
        fn match_type(&self, env: &Env, t: &Term) -> Option<Vec<Term>> {
            self.token.cancel();
            self.inner.match_type(env, t)
        }
        fn match_constr(&self, env: &Env, t: &Term) -> Option<(usize, Vec<Term>)> {
            self.token.cancel();
            self.inner.match_constr(env, t)
        }
        fn match_elim(&self, env: &Env, t: &Term) -> Option<MatchedElim> {
            self.token.cancel();
            self.inner.match_elim(env, t)
        }
        fn match_proj(&self, env: &Env, t: &Term) -> Option<MatchedProj> {
            self.token.cancel();
            self.inner.match_proj(env, t)
        }
        fn match_iota(&self, env: &Env, t: &Term) -> Option<(usize, Vec<Term>)> {
            self.token.cancel();
            self.inner.match_iota(env, t)
        }
    }

    #[test]
    fn cancellation_mid_run_keeps_the_completed_constant() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = crate::search::swap::configure(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            crate::config::NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let token = CancelToken::new();
        let lifting = Lifting {
            matcher: Box::new(CancelOnFirstMatch {
                inner: lifting.matcher,
                token: token.clone(),
            }),
            ..lifting
        };
        let module = pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS;
        let nodes: Vec<GlobalName> = module.iter().map(|n| GlobalName::new(*n)).collect();
        let order: Vec<usize> = ModuleDag::build(&env, &nodes).waves().concat();
        let (first, second) = (&nodes[order[0]], &nodes[order[1]]);
        let err = repair_in_order(
            &mut env,
            &lifting,
            &mut LiftState::new(),
            module,
            Some(&token),
        )
        .unwrap_err();
        // The token tripped inside the first constant; that constant
        // completes, and the poll before the second one stops the run.
        match err {
            RepairError::Cancelled { completed } => assert_eq!(completed, 1),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let renamed = |n: &GlobalName| n.as_str().replacen("Old.", "New.", 1);
        assert!(env.contains(&renamed(first)), "{first} stays installed");
        assert!(!env.contains(&renamed(second)), "{second} never ran");
    }

    #[test]
    fn threaded_state_forgets_what_a_rollback_removed() {
        let mut env = pumpkin_stdlib::std_env();
        // Poison: the target of the only work-list constant already exists,
        // so its repair fails after `Old.rev` and its other dependencies
        // were repaired on demand.
        env.define(
            "New.rev_app_distr",
            Term::ind("nat"),
            Term::construct("nat", 0),
        )
        .unwrap();
        let lifting = crate::search::swap::configure(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            crate::config::NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let mut state = LiftState::new();
        let err = repair_in_order(&mut env, &lifting, &mut state, &["Old.rev_app_distr"], None)
            .unwrap_err();
        assert!(
            matches!(err, RepairError::Kernel(_)),
            "expected a redeclaration, got {err:?}"
        );
        assert!(
            !env.contains("New.rev"),
            "the on-demand repair is rolled back"
        );

        // Without the poison, the same threaded state repairs the lemma:
        // nothing in it still points at the rolled-back `New.rev`.
        env.remove(&"New.rev_app_distr".into()).unwrap();
        let report =
            repair_in_order(&mut env, &lifting, &mut state, &["Old.rev_app_distr"], None).unwrap();
        assert_eq!(
            report.renamed("Old.rev_app_distr").map(GlobalName::as_str),
            Some("New.rev_app_distr")
        );
        assert!(env.contains("New.rev"));
    }

    #[test]
    fn elapsed_deadline_reads_as_cancelled() {
        let token = CancelToken::with_deadline(Duration::from_nanos(0));
        assert!(token.cancelled());
        let fresh = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!fresh.cancelled());
        fresh.cancel();
        assert!(fresh.cancelled());
    }
}
