//! Automatic repair search: a Houdini-style evaluate-fix-retry driver
//! ([`AutoDriver`], behind [`crate::Repairer::auto`]) that enumerates
//! ranked candidate configurations — constructor-mapping permutations in
//! [`crate::search::swap`]'s ranked order, eta/iota matching toggles,
//! smart eliminators on/off, cached-mapping reuse on/off — and runs each
//! through the kernel as the oracle until one repair fully checks.
//!
//! Known-dead candidates are remembered **process-wide** in a failure
//! cache keyed by `(configuration digest, module digest)`: both keys are
//! content-addressed ([`pumpkin_wire::DigestBuilder`] over the candidate's
//! full configuration and over the module source, work list, and the
//! reachable dependency closure's declaration digests), so a cache entry
//! can never go stale — any edit that could change the verdict changes the
//! key. Retries and concurrent sessions skip straight past dead
//! candidates.
//!
//! When *every* candidate fails, [`crate::minimize`] shrinks the module to
//! a minimal failing sub-module preserving the default candidate's error
//! class, and the reproducer rides on
//! [`crate::RepairError::AutoExhausted`].

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;
use pumpkin_kernel::term::Term;
use pumpkin_trace::{Event, EventKind};
use pumpkin_wire::{decl_digest, AutoWire, DigestBuilder, ReproWire};

use crate::config::{Lifting, MatchedElim, MatchedProj, NameMap, SideMatch};
use crate::error::{ErrorClass, RepairError, Result};
use crate::lift::LiftState;
use crate::minimize::{minimize, Reproducer};
use crate::repair::RepairReport;
use crate::repairer::Repairer;
use crate::schedule::{CancelToken, ModuleDag};
use crate::search::swap;

/// Cap on enumerated constructor mappings per candidate search; ranking
/// still applies to the mappings found (see
/// [`swap::discover_mappings_bounded`]).
const MAPPING_CAP: usize = 64;

/// Knobs for one automatic search.
#[derive(Clone, Debug)]
pub struct AutoPolicy {
    /// Maximum candidates to consider (enumeration order); `None` = all.
    pub budget: Option<usize>,
    /// Probe the process-wide failure cache before running a candidate.
    /// Failures are *recorded* regardless, so a cache-off run still warms
    /// the cache for later runs.
    pub use_failure_cache: bool,
    /// Shrink the module to a minimal failing reproducer when every
    /// candidate fails.
    pub minimize: bool,
    /// Seed for the minimizer's replayable reduction order.
    pub seed: u64,
    /// Zero per-candidate costs in the report (for byte-stable replies).
    pub deterministic: bool,
}

impl Default for AutoPolicy {
    fn default() -> Self {
        AutoPolicy {
            budget: None,
            use_failure_cache: true,
            minimize: true,
            seed: 0,
            deterministic: false,
        }
    }
}

/// One candidate configuration: a constructor mapping index into the
/// ranked enumeration, plus the three engine toggles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandidateSpec {
    /// Index into [`swap::discover_mappings_bounded`]'s ranked order.
    pub mapping: usize,
    /// Eta/iota matching on (`false` disables `match_iota`/`match_proj`).
    pub eta: bool,
    /// Define the smart-eliminator combinators before loading the module.
    pub smart_elim: bool,
    /// Reuse the closed-subterm lift cache within the run.
    pub reuse_cache: bool,
}

impl CandidateSpec {
    /// Human-readable description, used in reports, traces, and summaries.
    pub fn describe(&self) -> String {
        let onoff = |b: bool| if b { "on" } else { "off" };
        format!(
            "mapping#{} eta={} smart_elim={} cache={}",
            self.mapping,
            onoff(self.eta),
            onoff(self.smart_elim),
            onoff(self.reuse_cache)
        )
    }

    /// Content-addressed digest of the full candidate configuration.
    fn digest(&self, a: &GlobalName, b: &GlobalName, names: &NameMap, perm: &[usize]) -> u64 {
        let mut d = DigestBuilder::new();
        d.write_str("auto-config/1");
        d.write_str(a.as_str());
        d.write_str(b.as_str());
        for (from, to) in names.rules() {
            d.write_str(from);
            d.write_str(to);
        }
        d.write_u64(perm.len() as u64);
        for &k in perm {
            d.write_u64(k as u64);
        }
        d.write_u64(u64::from(self.eta));
        d.write_u64(u64::from(self.smart_elim));
        d.write_u64(u64::from(self.reuse_cache));
        d.finish()
    }
}

/// The oracle's verdict on one candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The kernel accepted the candidate's repair in full.
    Accepted,
    /// The candidate was run and failed.
    Rejected,
    /// The process-wide failure cache already knew this candidate dead.
    SkippedCache,
}

impl Verdict {
    /// Stable wire/trace name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Accepted => "accepted",
            Verdict::Rejected => "rejected",
            Verdict::SkippedCache => "skipped_cache",
        }
    }
}

/// One candidate's outcome row in the [`AutoReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateOutcome {
    /// The candidate's description ([`CandidateSpec::describe`]).
    pub config: String,
    /// What the oracle said.
    pub verdict: Verdict,
    /// The failure's error class; `None` for accepted candidates.
    pub class: Option<ErrorClass>,
    /// Wall-clock cost of running this candidate (0 for cache skips and
    /// in deterministic mode).
    pub cost_ns: u64,
}

/// Structured accounting for one automatic search, threaded into
/// [`RepairReport::auto`] on success and returned alongside the error on
/// exhaustion (so services can report partial progress).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AutoReport {
    /// Description of the winning configuration, when one checked.
    pub winner: Option<String>,
    /// Candidates actually run through the oracle.
    pub tried: usize,
    /// Candidates skipped by the failure cache.
    pub skipped_cache: usize,
    /// Candidates the oracle rejected.
    pub rejected: usize,
    /// False when the loop stopped early on a deadline or cancellation.
    pub complete: bool,
    /// Per-candidate rows in enumeration order.
    pub candidates: Vec<CandidateOutcome>,
    /// The minimized failing sub-module, when the minimizer ran.
    pub reproducer: Option<Reproducer>,
}

impl AutoReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut s = match &self.winner {
            Some(w) => format!(
                "auto: accepted `{w}` ({} tried, {} cache-skipped, {} rejected)",
                self.tried, self.skipped_cache, self.rejected
            ),
            None => format!(
                "auto: exhausted ({} tried, {} cache-skipped, {} rejected{})",
                self.tried,
                self.skipped_cache,
                self.rejected,
                if self.complete { "" } else { "; interrupted" }
            ),
        };
        if let Some(r) = &self.reproducer {
            s.push_str(&format!(
                "; minimized to {} of {} constant(s)",
                r.names.len(),
                r.original
            ));
        }
        s
    }

    /// The search as `auto_candidate`/`auto_verdict` trace events. Events
    /// are derived from the recorded rows with zeroed timestamps (`dur_ns`
    /// carries the candidate cost), so the stream is identical whether the
    /// search succeeded or was exhausted.
    pub fn to_events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.candidates.len() * 2);
        for (i, c) in self.candidates.iter().enumerate() {
            out.push(Event {
                t_ns: 0,
                dur_ns: 0,
                kind: EventKind::AutoCandidate {
                    index: i as u32,
                    config: c.config.as_str().into(),
                },
            });
            out.push(Event {
                t_ns: 0,
                dur_ns: c.cost_ns,
                kind: EventKind::AutoVerdict {
                    index: i as u32,
                    verdict: c.verdict.as_str().into(),
                    class: c.class.map_or("", ErrorClass::as_str).into(),
                },
            });
        }
        out
    }

    /// The versioned wire projection.
    pub fn to_wire(&self) -> AutoWire {
        AutoWire {
            winner: self.winner.clone(),
            tried: self.tried as u64,
            skipped_cache: self.skipped_cache as u64,
            rejected: self.rejected as u64,
            complete: self.complete,
            candidates: self
                .candidates
                .iter()
                .map(|c| {
                    (
                        c.config.clone(),
                        c.verdict.as_str().to_string(),
                        c.class.map_or(String::new(), |k| k.as_str().to_string()),
                        c.cost_ns,
                    )
                })
                .collect(),
            reproducer: self.reproducer.as_ref().map(|r| ReproWire {
                names: r.names.clone(),
                class: r.class.as_str().to_string(),
                seed: r.seed,
                original: r.original as u64,
                steps: r.steps,
            }),
        }
    }
}

/// The process-wide failure cache: `(config digest, module digest)` →
/// error class. Both keys are content-addressed, so entries never go
/// stale, but every rejected candidate of every new module adds one (a
/// daemon's `repair_auto` with a fresh `source` is a new module), so the
/// map is cleared whole at [`FAILURES_CAP`] entries
/// ([`crate::insert_capped`]).
static FAILURES: OnceLock<Mutex<std::collections::HashMap<(u64, u64), ErrorClass>>> =
    OnceLock::new();

/// Entry cap for [`FAILURES`]: 4 096 entries of 24 bytes, which bounds the
/// table at about 200 KiB (8 192 buckets at hashbrown's 7/8 load factor).
/// That is the failures of 512 eight-candidate modules.
const FAILURES_CAP: usize = 4096;

fn failures() -> &'static Mutex<std::collections::HashMap<(u64, u64), ErrorClass>> {
    FAILURES.get_or_init(Default::default)
}

fn failure_cache_get(config: u64, module: u64) -> Option<ErrorClass> {
    failures()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&(config, module))
        .copied()
}

fn failure_cache_put(config: u64, module: u64, class: ErrorClass) {
    let mut failures = failures().lock().unwrap_or_else(PoisonError::into_inner);
    crate::insert_capped(&mut failures, FAILURES_CAP, (config, module), class);
}

/// Number of entries in the process-wide failure cache (observability and
/// tests; only reaching its cap of 4 096 entries clears it — keys are
/// content-addressed, so stale entries cannot exist).
pub fn failure_cache_len() -> usize {
    failures()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .len()
}

/// Content-addressed digest of the module under repair: the vernacular
/// source (if any), the sorted work list, and the declaration digests of
/// every constant reachable from the work list in `env` — so editing any
/// reachable dependency changes the key.
fn module_digest(env: &Env, source: Option<&str>, names: &[&str]) -> u64 {
    let mut d = DigestBuilder::new();
    d.write_str("auto-module/1");
    if let Some(s) = source {
        d.write_str(s);
    }
    let mut sorted: Vec<&str> = names.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    d.write_u64(sorted.len() as u64);
    for n in &sorted {
        d.write_str(n);
    }
    // BFS over constant references, digested in sorted order.
    let mut reachable: BTreeSet<GlobalName> = BTreeSet::new();
    let mut stack: Vec<GlobalName> = sorted.iter().map(|n| GlobalName::new(*n)).collect();
    while let Some(n) = stack.pop() {
        let Ok(decl) = env.const_decl(&n) else {
            continue;
        };
        if !reachable.insert(n) {
            continue;
        }
        stack.extend(decl.ty.constants());
        stack.extend(decl.body.iter().flat_map(Term::constants));
    }
    for n in &reachable {
        d.write_str(n.as_str());
        if let Ok(decl) = env.const_decl(n) {
            d.write_u64(decl_digest(decl).0);
        }
    }
    d.finish()
}

/// Wraps a side-matcher with eta/iota matching disabled: type,
/// constructor, and eliminator recognition pass through, while
/// `match_proj`/`match_iota` always decline (the paper's optional
/// unification rules; a no-op for plain swap configurations, load-bearing
/// for record/factoring ones).
struct EtaOff(Box<dyn SideMatch>);

impl SideMatch for EtaOff {
    fn match_type(&self, env: &Env, t: &Term) -> Option<Vec<Term>> {
        self.0.match_type(env, t)
    }

    fn match_constr(&self, env: &Env, t: &Term) -> Option<(usize, Vec<Term>)> {
        self.0.match_constr(env, t)
    }

    fn match_elim(&self, env: &Env, t: &Term) -> Option<MatchedElim> {
        self.0.match_elim(env, t)
    }

    fn match_proj(&self, _env: &Env, _t: &Term) -> Option<MatchedProj> {
        None
    }

    fn match_iota(&self, _env: &Env, _t: &Term) -> Option<(usize, Vec<Term>)> {
        None
    }
}

/// The ranked candidate enumeration: all eight toggle combinations on the
/// best-ranked mapping (defaults first), then the two most useful toggle
/// combinations on every lower-ranked mapping.
fn candidate_specs(mappings: usize, budget: Option<usize>) -> Vec<CandidateSpec> {
    const TOGGLES: [(bool, bool, bool); 8] = [
        // (eta, smart_elim, reuse_cache) — the default configuration first.
        (true, false, true),
        (true, true, true),
        (false, false, true),
        (false, true, true),
        (true, false, false),
        (true, true, false),
        (false, false, false),
        (false, true, false),
    ];
    let mut specs = Vec::new();
    for &(eta, smart_elim, reuse_cache) in &TOGGLES {
        specs.push(CandidateSpec {
            mapping: 0,
            eta,
            smart_elim,
            reuse_cache,
        });
    }
    for mapping in 1..mappings {
        for &(eta, smart_elim, reuse_cache) in &TOGGLES[..2] {
            specs.push(CandidateSpec {
                mapping,
                eta,
                smart_elim,
                reuse_cache,
            });
        }
    }
    if let Some(b) = budget {
        specs.truncate(b.max(1));
    }
    specs
}

/// The automatic repair search driver. Build with
/// [`crate::Repairer::auto`], configure like a [`Repairer`], then
/// [`AutoDriver::run`].
pub struct AutoDriver {
    policy: AutoPolicy,
    a: GlobalName,
    b: GlobalName,
    names: NameMap,
    source: Option<String>,
    capture: bool,
    cancel: Option<CancelToken>,
    persist_dir: Option<PathBuf>,
    cache_max_bytes: Option<u64>,
}

impl AutoDriver {
    /// A driver with the default endpoints (`Old.list` ≃ `New.list`,
    /// prefix renaming `Old.` → `New.`) and a fresh candidate enumeration.
    pub fn new(policy: AutoPolicy) -> AutoDriver {
        AutoDriver {
            policy,
            a: GlobalName::new("Old.list"),
            b: GlobalName::new("New.list"),
            names: NameMap::prefix("Old.", "New."),
            source: None,
            capture: false,
            cancel: None,
            persist_dir: None,
            cache_max_bytes: None,
        }
    }

    /// Sets the equivalence endpoints and the renaming policy.
    pub fn types(
        mut self,
        a: impl Into<GlobalName>,
        b: impl Into<GlobalName>,
        names: NameMap,
    ) -> Self {
        self.a = a.into();
        self.b = b.into();
        self.names = names;
        self
    }

    /// Vernacular source loaded into each candidate's trial environment
    /// before the repair runs. Constants it defines under a renaming
    /// rule's source prefix join the work list.
    pub fn source(mut self, src: impl Into<String>) -> Self {
        self.source = Some(src.into());
        self
    }

    /// Captures trace events (the winning run's stream plus the
    /// `auto_candidate`/`auto_verdict` family) on the report.
    pub fn trace(mut self, capture: bool) -> Self {
        self.capture = capture;
        self
    }

    /// Wall-clock budget for the whole search: the candidate loop polls
    /// between candidates and each candidate's run stops before its next
    /// constant; the report comes back partial (`complete == false`).
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.cancel = Some(CancelToken::with_deadline(budget));
        self
    }

    /// Attaches an externally controlled cancel token (replaces any
    /// [`AutoDriver::deadline`] token).
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Consults/fills the persistent lift cache for each candidate run.
    pub fn persist_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// Bounds the persistent cache (see [`Repairer::cache_max_bytes`]).
    pub fn cache_max_bytes(mut self, max: Option<u64>) -> Self {
        self.cache_max_bytes = max;
        self
    }

    /// Runs the search. On success the winning candidate's environment
    /// replaces `env` and the returned [`RepairReport`] carries the
    /// [`AutoReport`] in [`RepairReport::auto`]; on exhaustion `env` is
    /// untouched and the error is [`RepairError::AutoExhausted`] (with the
    /// minimized reproducer when the minimizer ran). The [`AutoReport`] is
    /// returned in both cases so services can surface partial progress.
    pub fn run(self, env: &mut Env, names: &[&str]) -> (AutoReport, Result<RepairReport>) {
        let mut auto = AutoReport {
            complete: true,
            ..AutoReport::default()
        };

        let (a_decl, b_decl) = match (env.inductive(&self.a), env.inductive(&self.b)) {
            (Ok(a), Ok(b)) => (a.clone(), b.clone()),
            (Err(e), _) | (_, Err(e)) => return (auto, Err(RepairError::Kernel(e))),
        };
        let mappings = swap::discover_mappings_bounded(&a_decl, &b_decl, MAPPING_CAP);
        if mappings.is_empty() {
            let err = RepairError::SearchFailed {
                from: self.a.clone(),
                to: self.b.clone(),
                reason: "no type-correct constructor mapping".into(),
            };
            return (auto, Err(err));
        }
        let specs = candidate_specs(mappings.len(), self.policy.budget);
        let module = module_digest(env, self.source.as_deref(), names);

        // Error class of the default (rank-0) candidate — what
        // `AutoExhausted` reports and the minimizer preserves.
        let mut default_class: Option<ErrorClass> = None;
        // Work list + dependency DAG recorded from the first candidate
        // whose module loaded; the minimizer replays this DAG, never
        // re-deriving edges.
        let mut recorded: Option<(Vec<String>, ModuleDag)> = None;

        for (i, spec) in specs.iter().enumerate() {
            if self.cancel.as_ref().is_some_and(CancelToken::cancelled) {
                auto.complete = false;
                break;
            }
            let config = spec.digest(&self.a, &self.b, &self.names, &mappings[spec.mapping]);
            let desc = spec.describe();
            if self.policy.use_failure_cache {
                if let Some(class) = failure_cache_get(config, module) {
                    auto.skipped_cache += 1;
                    if i == 0 {
                        default_class = Some(class);
                    }
                    auto.candidates.push(CandidateOutcome {
                        config: desc,
                        verdict: Verdict::SkippedCache,
                        class: Some(class),
                        cost_ns: 0,
                    });
                    continue;
                }
            }
            let start = Instant::now();
            let attempt =
                self.run_candidate(env, names, spec, &mappings, true, Some(&mut recorded));
            let cost_ns = if self.policy.deterministic {
                0
            } else {
                start.elapsed().as_nanos() as u64
            };
            auto.tried += 1;
            match attempt {
                Ok((trial, mut report)) => {
                    auto.winner = Some(desc.clone());
                    auto.candidates.push(CandidateOutcome {
                        config: desc,
                        verdict: Verdict::Accepted,
                        class: None,
                        cost_ns,
                    });
                    *env = trial;
                    if self.capture {
                        let mut events = auto.to_events();
                        events.append(&mut report.trace);
                        report.trace = events;
                    }
                    report.auto = Some(auto.clone());
                    return (auto, Ok(report));
                }
                Err(e) => {
                    let class = e.class();
                    auto.rejected += 1;
                    auto.candidates.push(CandidateOutcome {
                        config: desc,
                        verdict: Verdict::Rejected,
                        class: Some(class),
                        cost_ns,
                    });
                    if class == ErrorClass::Cancelled {
                        // Deadline fired mid-candidate: a cancellation is a
                        // property of the clock, not the candidate — don't
                        // poison the failure cache with it.
                        auto.complete = false;
                        break;
                    }
                    failure_cache_put(config, module, class);
                    if i == 0 {
                        default_class = Some(class);
                    }
                }
            }
        }

        // Exhausted (or interrupted). Shrink only full, class-attributed
        // failures: a partial sweep can't certify "fails under every
        // candidate".
        let class = default_class.unwrap_or(ErrorClass::Cancelled);
        if self.policy.minimize && auto.complete && default_class.is_some() {
            if let Some((work, dag)) = &recorded {
                if work.len() > 1 {
                    let refs: Vec<&str> = work.iter().map(String::as_str).collect();
                    let oracle = |subset: &[&str]| -> Option<ErrorClass> {
                        let mut first: Option<ErrorClass> = None;
                        for spec in &specs {
                            match self.run_candidate(env, subset, spec, &mappings, false, None) {
                                Ok(_) => return None,
                                Err(e) => first = first.or(Some(e.class())),
                            }
                        }
                        first
                    };
                    auto.reproducer = Some(minimize(&refs, dag, self.policy.seed, class, oracle));
                }
            }
        }
        let err = RepairError::AutoExhausted {
            tried: auto.tried,
            class,
            reproducer: auto.reproducer.clone().map(Box::new),
        };
        (auto, Err(err))
    }

    /// Runs one candidate against a throwaway clone of `env`: smart
    /// eliminators (if toggled), module source, configuration, lift state,
    /// then a full [`Repairer`] run with the kernel as oracle. Returns the
    /// trial environment (to install on success) and the run's report.
    /// With `extend` set, source constants under a renaming rule's source
    /// prefix join the work list; the minimizer's oracle passes exact
    /// subsets instead.
    fn run_candidate(
        &self,
        env: &Env,
        names: &[&str],
        spec: &CandidateSpec,
        mappings: &[Vec<usize>],
        extend: bool,
        recorded: Option<&mut Option<(Vec<String>, ModuleDag)>>,
    ) -> Result<(Env, RepairReport)> {
        let mut trial = env.clone();
        if spec.smart_elim {
            crate::smartelim::packed_list(&mut trial)?;
        }
        let mut work: Vec<String> = names.iter().map(|s| (*s).to_string()).collect();
        if let Some(src) = &self.source {
            pumpkin_lang::load_source(&mut trial, src)?;
            if extend {
                for n in source_constants(src) {
                    let from_prefixed = self
                        .names
                        .rules()
                        .iter()
                        .any(|(from, _)| n.starts_with(from.as_str()));
                    if from_prefixed && !work.iter().any(|w| w == &n) {
                        work.push(n);
                    }
                }
            }
        }
        if let Some(slot) = recorded {
            if slot.is_none() {
                let nodes: Vec<GlobalName> =
                    work.iter().map(|n| GlobalName::new(n.as_str())).collect();
                let dag = ModuleDag::build(&trial, &nodes);
                *slot = Some((work.clone(), dag));
            }
        }
        let lifting = swap::configure_with(
            &mut trial,
            &self.a,
            &self.b,
            &mappings[spec.mapping],
            self.names.clone(),
        )?;
        let lifting = if spec.eta {
            lifting
        } else {
            let Lifting {
                a_name,
                b_name,
                matcher,
                builder,
                names,
                equivalence,
            } = lifting;
            Lifting {
                a_name,
                b_name,
                matcher: Box::new(EtaOff(matcher)),
                builder,
                names,
                equivalence,
            }
        };
        let mut state = if spec.reuse_cache {
            LiftState::new()
        } else {
            LiftState::without_cache()
        };
        let mut repairer = Repairer::new(&lifting)
            .trace(self.capture)
            .state(&mut state);
        if let Some(dir) = &self.persist_dir {
            repairer = repairer
                .persist_cache(dir)
                .cache_max_bytes(self.cache_max_bytes);
        }
        if let Some(tok) = &self.cancel {
            repairer = repairer.cancel(tok.clone());
        }
        let refs: Vec<&str> = work.iter().map(String::as_str).collect();
        let report = repairer.run(&mut trial, &refs)?;
        Ok((trial, report))
    }
}

/// Constant names (`Definition`/`Axiom`) declared by a vernacular source
/// snippet, in declaration order. Unparsable sources contribute nothing —
/// the per-candidate `load_source` reports the real error.
fn source_constants(src: &str) -> Vec<String> {
    let Ok(items) = pumpkin_lang::parse_items(src) else {
        return Vec::new();
    };
    items
        .into_iter()
        .filter_map(|i| match i {
            pumpkin_lang::ast::Item::Definition { name, .. }
            | pumpkin_lang::ast::Item::Axiom { name, .. } => Some(name),
            pumpkin_lang::ast::Item::Inductive { .. } => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumpkin_stdlib as stdlib;

    #[test]
    fn default_candidate_wins_on_a_clean_module() {
        let mut env = stdlib::std_env();
        let (auto, result) =
            Repairer::auto(AutoPolicy::default()).run(&mut env, &["Old.rev", "Old.app"]);
        let report = result.unwrap();
        assert_eq!(
            auto.winner.as_deref(),
            Some("mapping#0 eta=on smart_elim=off cache=on")
        );
        assert_eq!(auto.tried, 1);
        assert_eq!(auto.rejected, 0);
        assert!(auto.complete);
        assert_eq!(report.auto, Some(auto));
        assert_eq!(report.renamed("Old.rev").unwrap().as_str(), "New.rev");
        assert!(env.contains("New.rev"));
    }

    #[test]
    fn smart_elim_candidate_rescues_a_module_the_default_rejects() {
        // The module references `packed_list`, which only exists once the
        // smart-eliminator candidate has defined the combinators — the
        // default candidate fails to load it (class `lang`).
        let src = "Definition Old.needs_packed : forall (T : Type 1), nat -> Type 1 := \
                   fun (T : Type 1) (n : nat) => packed_list T n.";
        let mut env = stdlib::std_env();
        let (auto, result) = Repairer::auto(AutoPolicy {
            use_failure_cache: false,
            minimize: false,
            ..AutoPolicy::default()
        })
        .source(src)
        .run(&mut env, &[]);
        let report = result.unwrap();
        assert_eq!(
            auto.winner.as_deref(),
            Some("mapping#0 eta=on smart_elim=on cache=on"),
            "{}",
            auto.summary()
        );
        assert_eq!(auto.tried, 2);
        assert_eq!(auto.rejected, 1);
        assert_eq!(auto.candidates[0].class, Some(ErrorClass::Lang));
        assert!(report.renamed("Old.needs_packed").is_some());
        assert!(env.contains("New.needs_packed"));
    }

    #[test]
    fn failure_cache_skips_known_dead_candidates_process_wide() {
        // A name collision is candidate-independent: every configuration
        // fails with a kernel redeclaration.
        let src = "Definition New.auto_cache_probe : nat := O.\n\
                   Definition Old.auto_cache_probe : forall (T : Type 1), Old.list T -> Old.list T := \
                   fun (T : Type 1) (l : Old.list T) => l.";
        let policy = AutoPolicy {
            minimize: false,
            deterministic: true,
            ..AutoPolicy::default()
        };
        let mut env = stdlib::std_env();
        let (cold, err) = Repairer::auto(policy.clone())
            .source(src)
            .run(&mut env, &[]);
        assert!(err.is_err());
        assert_eq!(cold.tried, 8, "{}", cold.summary());
        assert_eq!(cold.skipped_cache, 0);
        // Same module again, same process: every candidate skips.
        let mut env2 = stdlib::std_env();
        let (warm, err2) = Repairer::auto(policy).source(src).run(&mut env2, &[]);
        match err2 {
            Err(RepairError::AutoExhausted { tried, class, .. }) => {
                assert_eq!(tried, 0);
                assert_eq!(class, ErrorClass::Kernel);
            }
            other => panic!("expected AutoExhausted, got {other:?}"),
        }
        assert_eq!(warm.tried, 0);
        assert_eq!(warm.skipped_cache, 8);
        assert!(!env2.contains("New.auto_cache_probe_repaired"));
    }

    #[test]
    fn exhaustion_minimizes_to_the_colliding_constant() {
        // One poisoned constant among real ones: the minimizer must shrink
        // the work list to just the collision, preserving class `kernel`.
        let src = "Definition New.auto_min_clash : nat := O.\n\
                   Definition Old.auto_min_clash : forall (T : Type 1), Old.list T -> Old.list T := \
                   fun (T : Type 1) (l : Old.list T) => l.";
        let mut env = stdlib::std_env();
        let (auto, result) = Repairer::auto(AutoPolicy {
            use_failure_cache: false,
            seed: 5,
            ..AutoPolicy::default()
        })
        .source(src)
        .run(&mut env, &["Old.rev", "Old.app", "Old.length"]);
        let err = result.unwrap_err();
        let repro = auto.reproducer.as_ref().expect("minimizer ran");
        assert_eq!(repro.names, vec!["Old.auto_min_clash".to_string()]);
        assert_eq!(repro.class, ErrorClass::Kernel);
        assert_eq!(repro.original, 4);
        assert!(
            repro.names.len() * 4 <= repro.original,
            "reproducer must be ≤ 25% of the original"
        );
        match err {
            RepairError::AutoExhausted {
                class, reproducer, ..
            } => {
                assert_eq!(class, ErrorClass::Kernel);
                assert_eq!(reproducer.as_deref(), Some(repro));
            }
            other => panic!("expected AutoExhausted, got {other:?}"),
        }
        // The reproducer renders as standalone vernacular.
        let mut scratch = stdlib::std_env();
        pumpkin_lang::load_source(&mut scratch, src).unwrap();
        let pi = repro.to_pi(&scratch);
        assert!(pi.contains("Definition Old.auto_min_clash"));
        assert!(pi.contains("seed 5"));
    }

    #[test]
    fn deadline_yields_a_partial_incomplete_report() {
        let src = "Definition New.auto_deadline_clash : nat := O.\n\
                   Definition Old.auto_deadline_clash : forall (T : Type 1), Old.list T -> Old.list T := \
                   fun (T : Type 1) (l : Old.list T) => l.";
        let mut env = stdlib::std_env();
        let (auto, result) = Repairer::auto(AutoPolicy {
            use_failure_cache: false,
            minimize: false,
            ..AutoPolicy::default()
        })
        .source(src)
        .deadline(Duration::from_nanos(0))
        .run(&mut env, &[]);
        assert!(result.is_err());
        assert!(!auto.complete);
        assert_eq!(auto.winner, None);
    }

    #[test]
    fn deterministic_reports_zero_costs_and_trace_events_parse() {
        let src = "Definition New.auto_trace_clash : nat := O.\n\
                   Definition Old.auto_trace_clash : forall (T : Type 1), Old.list T -> Old.list T := \
                   fun (T : Type 1) (l : Old.list T) => l.";
        let mut env = stdlib::std_env();
        let (auto, _) = Repairer::auto(AutoPolicy {
            use_failure_cache: false,
            minimize: false,
            deterministic: true,
            ..AutoPolicy::default()
        })
        .source(src)
        .run(&mut env, &[]);
        assert!(auto.candidates.iter().all(|c| c.cost_ns == 0));
        for e in auto.to_events() {
            let line = e.to_json();
            let back = Event::from_json(&line).expect("auto events parse");
            assert_eq!(e, back, "round trip failed for {line}");
            assert!(!matches!(back.kind, EventKind::Unknown { .. }));
        }
    }

    #[test]
    fn budget_truncates_the_enumeration() {
        let specs = candidate_specs(3, None);
        assert_eq!(specs.len(), 8 + 2 * 2);
        assert_eq!(
            specs[0],
            CandidateSpec {
                mapping: 0,
                eta: true,
                smart_elim: false,
                reuse_cache: true
            },
            "the default configuration must come first"
        );
        assert_eq!(candidate_specs(3, Some(5)).len(), 5);
        assert_eq!(candidate_specs(3, Some(0)).len(), 1, "budget clamps to 1");
    }

    #[test]
    fn module_digest_tracks_reachable_dependency_edits() {
        let env = stdlib::std_env();
        let base = module_digest(&env, None, &["Old.rev"]);
        assert_eq!(base, module_digest(&env, None, &["Old.rev"]));
        assert_ne!(base, module_digest(&env, None, &["Old.app"]));
        assert_ne!(base, module_digest(&env, Some("(* x *)"), &["Old.rev"]));
        // Two constants with identical work-list names but different
        // reachable declarations must digest differently.
        let digest_src = "Definition Old.rev_digest_probe : nat := O.";
        let mut with_extra = stdlib::std_env();
        pumpkin_lang::load_source(&mut with_extra, digest_src).unwrap();
        assert_ne!(
            module_digest(&with_extra, None, &["Old.rev_digest_probe"]),
            module_digest(&with_extra, None, &["Old.rev"]),
        );
    }
}
