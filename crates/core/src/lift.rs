//! The configurable proof term transformation (paper Fig. 10).
//!
//! [`lift_term`] walks a term, unifying subterms with the source side of the
//! configuration (Dep-Constr, Dep-Elim, Eta/proj, Iota, Equivalence rules)
//! and substituting the target side; everything else is transformed
//! structurally. Global constants that (transitively) mention the source
//! type are repaired on demand and cached ([`repair_constant`]), which is
//! how `Repair` updates dependencies automatically (paper §2) — and every
//! repaired constant, a persist-cache replay included, is re-checked by
//! the kernel when it is defined (or admitted by the admission memo as one
//! it accepted before), so a successful repair is well-typed by
//! construction in every build profile.
//!
//! Caching mirrors paper §4.4: intermediate *closed* subterm liftings are
//! memoized (except under [`LiftState::without_cache`]), and the
//! whole-constant mapping is always cached.

use std::collections::{HashMap, HashSet};

use pumpkin_kernel::env::Env;
use pumpkin_kernel::error::KernelError;
use pumpkin_kernel::intern::TermId;
use pumpkin_kernel::name::GlobalName;
use pumpkin_kernel::term::{Term, TermData};

use crate::config::{Lifting, MatchedElim, MatchedProj};
use crate::error::{RepairError, Result};
use crate::prov::{ConstProv, ProvRecorder, Rule};

/// Counters exposed for the benchmark harness (cache ablation, §6.4).
///
/// These measure the *lift-layer* closed-subterm cache; the kernel layer
/// underneath it reports through [`pumpkin_kernel::stats::KernelStats`]
/// (see `Env::kernel_stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiftStats {
    /// Closed-subterm cache hits.
    pub cache_hits: u64,
    /// Closed-subterm cache misses (entries inserted).
    pub cache_misses: u64,
    /// Constants repaired on demand.
    pub constants_lifted: u64,
    /// Total subterm visits.
    pub visits: u64,
    /// Whole constants replayed from the persistent (cross-run) cache.
    pub persist_hits: u64,
    /// Persistent-cache probes that fell back to a fresh lift.
    pub persist_misses: u64,
    /// Persisted frames the kernel refused at replay: each was tombstoned
    /// in its shard and lifted fresh (and also counts as a miss).
    pub persist_rejected: u64,
    /// Persist packs rewritten: compactions, and trims to the size budget.
    pub persist_compactions: u64,
    /// Persisted records the size budget removed.
    pub persist_evictions: u64,
}

impl LiftStats {
    /// Field-wise difference against an earlier snapshot (the lift-layer
    /// analogue of [`pumpkin_kernel::stats::KernelStats::since`]).
    pub fn since(&self, earlier: &LiftStats) -> LiftStats {
        LiftStats {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            constants_lifted: self.constants_lifted - earlier.constants_lifted,
            visits: self.visits - earlier.visits,
            persist_hits: self.persist_hits - earlier.persist_hits,
            persist_misses: self.persist_misses - earlier.persist_misses,
            persist_rejected: self.persist_rejected - earlier.persist_rejected,
            persist_compactions: self.persist_compactions - earlier.persist_compactions,
            persist_evictions: self.persist_evictions - earlier.persist_evictions,
        }
    }

    /// Fraction of cacheable lookups answered by the closed-subterm cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for LiftStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lift {}/{} hits ({:.1}%), {} constants, {} visits",
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            100.0 * self.hit_rate(),
            self.constants_lifted,
            self.visits,
        )?;
        if self.persist_hits + self.persist_misses > 0 {
            write!(
                f,
                ", persist {}/{} hits",
                self.persist_hits,
                self.persist_hits + self.persist_misses,
            )?;
        }
        Ok(())
    }
}

/// How one constant acquired its repaired form in this run (drives the
/// incremental accounting in [`crate::incr::IncrStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiftOutcome {
    /// Re-lifted fresh: the full transformation ran and the result was
    /// type-checked through `Env::define`/`Env::assume`.
    Fresh,
    /// Replayed from the persistent cross-run cache.
    Replayed,
}

/// Mutable state threaded through a repair session.
/// [`LiftState::default`] and [`LiftState::new`] build the same state.
#[derive(Default)]
pub struct LiftState {
    /// Already-repaired constants: old name → new name.
    pub const_map: HashMap<GlobalName, GlobalName>,
    /// Memoized liftings of closed subterms, keyed by the hash-consed
    /// [`TermId`] — an integer compare per probe, no tree hashing.
    term_cache: HashMap<TermId, Term>,
    /// Whether the closed-subterm cache is bypassed: only
    /// [`LiftState::without_cache`] sets it, so every other constructor,
    /// `Default` included, caches.
    cache_disabled: bool,
    /// Constants currently being repaired (cycle/termination guard).
    in_progress: HashSet<GlobalName>,
    /// Memoized relevance: does a constant transitively mention the source?
    relevant: HashMap<GlobalName, bool>,
    /// Counters.
    pub stats: LiftStats,
    /// Per-subterm rule attribution; `None` (the default) makes every
    /// provenance probe a single branch (see [`crate::prov`]).
    prov: Option<Box<ProvRecorder>>,
    /// Persistent cross-run cache handle (see
    /// [`crate::persist::PersistCache`]); `None` (the default) keeps
    /// [`repair_constant`] purely in-memory.
    persist: Option<std::sync::Arc<crate::persist::PersistCache>>,
    /// Salsa-style "green" constants for this run: work-list members whose
    /// dependency fingerprint matched the incremental snapshot. When such
    /// a constant's repair target already lives in the environment (a
    /// session-resident world), the target is the previous validated run's
    /// output for this exact input, so the mapping is reused with no lift
    /// and no cache probe.
    green: HashSet<GlobalName>,
    /// Per-constant outcome of this run's repairs (fresh lift vs. persist
    /// replay); see [`LiftOutcome`].
    outcomes: HashMap<GlobalName, LiftOutcome>,
}

impl LiftState {
    /// Fresh state with the subterm cache enabled (the default, as in the
    /// paper's tool).
    pub fn new() -> Self {
        LiftState::default()
    }

    /// Fresh state with the subterm cache disabled (for the ablation bench).
    pub fn without_cache() -> Self {
        LiftState {
            cache_disabled: true,
            ..LiftState::default()
        }
    }

    /// Pre-seeds a constant mapping (used to stop repair at a boundary or to
    /// supply a hand-written replacement).
    pub fn map_constant(&mut self, from: impl Into<GlobalName>, to: impl Into<GlobalName>) {
        self.const_map.insert(from.into(), to.into());
    }

    /// Forgets everything that names a constant `env` no longer holds:
    /// mappings whose target is gone, closed-subterm cache entries whose
    /// lifted term mentions a missing constant, and finished provenance
    /// trees of dropped repairs. The scheduler calls this after
    /// [`Env::rollback_to`] undoes a failed constant, so a state threaded
    /// into a later run re-lifts what the rollback removed instead of
    /// pointing at it.
    pub fn retain_resident(&mut self, env: &Env) {
        let resident = |n: &GlobalName| env.contains(n.as_str());
        self.const_map.retain(|_, to| resident(to));
        self.term_cache
            .retain(|_, t| t.constants().iter().all(resident));
        if let Some(p) = &mut self.prov {
            p.retain(|c| resident(&c.to));
        }
    }

    /// Attaches (or detaches) a persistent cross-run cache: subsequent
    /// [`repair_constant`] calls replay previously persisted repairs and
    /// persist fresh ones. Prefer [`crate::Repairer::persist_cache`],
    /// which opens the store and installs it for the run.
    pub fn set_persist(&mut self, cache: Option<std::sync::Arc<crate::persist::PersistCache>>) {
        self.persist = cache;
    }

    /// Installs the incremental "green" set (work-list constants whose
    /// fingerprint matches the snapshot's); see the field doc. Set by
    /// [`crate::Repairer::incremental`] before the run.
    pub fn set_green(&mut self, names: HashSet<GlobalName>) {
        self.green = names;
    }

    /// Drops the repaired mappings for `names`, so a state threaded from
    /// an earlier run re-lifts them instead of short-circuiting on a
    /// stale entry. [`crate::Repairer::incremental`] calls this on the
    /// work-list constants whose fingerprint left the snapshot's before
    /// the run.
    pub fn forget(&mut self, names: &HashSet<GlobalName>) {
        for n in names {
            self.const_map.remove(n);
        }
    }

    /// How `name` acquired its repaired form this run (`None` if it was
    /// not repaired this run — e.g. already mapped in threaded state).
    pub fn outcome(&self, name: &GlobalName) -> Option<LiftOutcome> {
        self.outcomes.get(name).copied()
    }

    /// Clears the per-run outcome ledger (called by the driver at the
    /// start of each run so threaded state does not leak counts).
    pub fn clear_outcomes(&mut self) {
        self.outcomes.clear();
    }

    /// Turns provenance recording on: subsequent lifts attribute every
    /// rewrite site to the configuration rule that fired. Costs one extra
    /// branch per probe when off; see [`crate::prov`].
    pub fn record_provenance(&mut self) {
        if self.prov.is_none() {
            self.prov = Some(Box::default());
        }
    }

    /// Is provenance recording on?
    pub fn provenance_enabled(&self) -> bool {
        self.prov.is_some()
    }

    /// Takes the finished provenance trees accumulated since
    /// [`LiftState::record_provenance`], leaving recording on with an
    /// empty recorder.
    pub fn take_provenance(&mut self) -> Vec<ConstProv> {
        match &mut self.prov {
            Some(p) => p.take_finished(),
            None => Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn prov_push(&mut self, i: u32) {
        if let Some(p) = &mut self.prov {
            p.push(i);
        }
    }

    #[inline]
    pub(crate) fn prov_pop(&mut self) {
        if let Some(p) = &mut self.prov {
            p.pop();
        }
    }

    #[inline]
    pub(crate) fn prov_suppress(&mut self) {
        if let Some(p) = &mut self.prov {
            p.suppress();
        }
    }

    #[inline]
    pub(crate) fn prov_unsuppress(&mut self) {
        if let Some(p) = &mut self.prov {
            p.unsuppress();
        }
    }

    #[inline]
    pub(crate) fn prov_site(&mut self, rule: Rule, src: &Term, dst: &Term) {
        if let Some(p) = &mut self.prov {
            p.site(rule, src, dst);
        }
    }

    #[inline]
    fn prov_begin_const(&mut self, name: &GlobalName) {
        if let Some(p) = &mut self.prov {
            p.begin_const(name);
        }
    }

    #[inline]
    fn prov_end_const(&mut self, to: Option<&GlobalName>) {
        if let Some(p) = &mut self.prov {
            p.end_const(to);
        }
    }
}

/// Does constant `name` (transitively) mention the source type? Memoized.
fn is_relevant(env: &Env, l: &Lifting, st: &mut LiftState, name: &GlobalName) -> bool {
    if let Some(&r) = st.relevant.get(name) {
        return r;
    }
    if st.const_map.contains_key(name) {
        return true;
    }
    // Mark as not-relevant during computation; constants cannot be cyclic.
    let decl = match env.const_decl(name) {
        Ok(d) => d.clone(),
        Err(_) => return false,
    };
    let mut mentioned: Vec<GlobalName> = decl.ty.constants();
    if let Some(b) = &decl.body {
        mentioned.extend(b.constants());
    }
    let direct = decl.ty.mentions_global(&l.a_name)
        || decl
            .body
            .as_ref()
            .is_some_and(|b| b.mentions_global(&l.a_name));
    let r = direct
        || mentioned
            .iter()
            .filter(|c| *c != name)
            .any(|c| is_relevant(env, l, st, c));
    st.relevant.insert(name.clone(), r);
    r
}

/// Lifts a term across the configured equivalence.
///
/// # Errors
///
/// Fails if a builder rejects a matched form (unsupported direction), the
/// termination guard trips, or a repaired dependency fails to type check.
pub fn lift_term(env: &mut Env, l: &Lifting, st: &mut LiftState, t: &Term) -> Result<Term> {
    st.stats.visits += 1;

    let cacheable = !st.cache_disabled && t.is_closed();
    if cacheable {
        if let Some(hit) = st.term_cache.get(&t.id()) {
            let hit = hit.clone();
            st.stats.cache_hits += 1;
            env.tracer().emit(pumpkin_trace::EventKind::CacheHit {
                table: pumpkin_trace::CacheTable::Lift,
            });
            // The rules that produced the cached result fired under the
            // constant that first lifted this subterm; here they replay as
            // one opaque rewrite.
            st.prov_site(Rule::Cached, t, &hit);
            return Ok(hit);
        }
        env.tracer().emit(pumpkin_trace::EventKind::CacheMiss {
            table: pumpkin_trace::CacheTable::Lift,
        });
    }

    let out = lift_uncached(env, l, st, t)?;

    if cacheable {
        st.stats.cache_misses += 1;
        st.term_cache.insert(t.id(), out.clone());
    }
    Ok(out)
}

fn lift_uncached(env: &mut Env, l: &Lifting, st: &mut LiftState, t: &Term) -> Result<Term> {
    // Matched-rule branches record one provenance site for the whole
    // rewritten subterm; component lifts run suppressed (see
    // `crate::prov` — component paths do not follow the source indexing).
    //
    // Iota first: Iota markers are constants whose types mention the source
    // type, and must not be repaired as ordinary dependencies.
    if let Some((j, args)) = l.matcher.match_iota(env, t) {
        st.prov_suppress();
        let args = lift_all(env, l, st, &args);
        st.prov_unsuppress();
        let out = l.builder.build_iota(env, j, args?)?;
        st.prov_site(Rule::Iota, t, &out);
        return Ok(out);
    }
    // Dep-Elim.
    if let Some(me) = l.matcher.match_elim(env, t) {
        st.prov_suppress();
        let lifted = (|| -> Result<MatchedElim> {
            Ok(MatchedElim {
                type_args: lift_all(env, l, st, &me.type_args)?,
                motive: lift_term(env, l, st, &me.motive)?,
                cases: lift_all(env, l, st, &me.cases)?,
                scrutinee: lift_term(env, l, st, &me.scrutinee)?,
            })
        })();
        st.prov_unsuppress();
        let out = l.builder.build_elim(env, lifted?)?;
        st.prov_site(Rule::DepElim, t, &out);
        return Ok(out);
    }
    // Dep-Constr.
    if let Some((j, args)) = l.matcher.match_constr(env, t) {
        st.prov_suppress();
        let args = lift_all(env, l, st, &args);
        st.prov_unsuppress();
        let out = l.builder.build_constr(env, j, args?)?;
        st.prov_site(Rule::DepConstr, t, &out);
        return Ok(out);
    }
    // Eta / projections.
    if let Some(mp) = l.matcher.match_proj(env, t) {
        st.prov_suppress();
        let target = lift_term(env, l, st, &mp.target);
        st.prov_unsuppress();
        let lifted = MatchedProj {
            field: mp.field,
            target: target?,
        };
        let out = l.builder.build_proj(env, lifted)?;
        st.prov_site(Rule::Eta, t, &out);
        return Ok(out);
    }
    // Equivalence (the type itself).
    if let Some(args) = l.matcher.match_type(env, t) {
        st.prov_suppress();
        let args = lift_all(env, l, st, &args);
        st.prov_unsuppress();
        let out = l.builder.build_type(env, args?)?;
        st.prov_site(Rule::Equivalence, t, &out);
        return Ok(out);
    }

    // Structural rules. Children are lifted under their canonical path
    // index (`lift_child`) so recorded sites line up with the `explain`
    // diff walk.
    match t.data() {
        TermData::Const(name) => {
            if let Some(mapped) = st.const_map.get(name) {
                let out = Term::const_(mapped.clone());
                st.prov_site(Rule::Constant, t, &out);
                return Ok(out);
            }
            if is_relevant(env, l, st, name) {
                let new_name = repair_constant(env, l, st, name)?;
                let out = Term::const_(new_name);
                st.prov_site(Rule::Constant, t, &out);
                Ok(out)
            } else {
                Ok(t.clone())
            }
        }
        _ => t.try_map_children(|c, index, _| lift_child(env, l, st, c, index)),
    }
}

/// Lifts one structural child under its canonical path index.
fn lift_child(env: &mut Env, l: &Lifting, st: &mut LiftState, t: &Term, idx: u32) -> Result<Term> {
    st.prov_push(idx);
    let out = lift_term(env, l, st, t);
    st.prov_pop();
    out
}

fn lift_all(env: &mut Env, l: &Lifting, st: &mut LiftState, ts: &[Term]) -> Result<Vec<Term>> {
    ts.iter().map(|t| lift_term(env, l, st, t)).collect()
}

/// Salsa-style green reuse (DESIGN.md §16): the constant's fingerprint
/// matched the incremental snapshot, so neither it nor anything it depends
/// on changed, and if its repair target already lives in this environment
/// (a session-resident world), that target is the previous validated run's
/// output for this exact input — reuse the mapping with no lift and no
/// disk probe.
/// Provenance runs never take this path: they must re-lift to
/// re-attribute every rewrite site. The [`crate::Repairer`] calls this
/// before scheduling so green constants never occupy a pass slot;
/// [`repair_constant`] calls it again for constants reached as
/// dependencies.
pub(crate) fn green_reuse(
    env: &Env,
    l: &Lifting,
    st: &mut LiftState,
    name: &GlobalName,
) -> Option<GlobalName> {
    if st.green.contains(name) {
        reuse_resident(env, l, st, name)
    } else {
        None
    }
}

/// [`green_reuse`] for a constant the caller knows is green.
pub(crate) fn reuse_resident(
    env: &Env,
    l: &Lifting,
    st: &mut LiftState,
    name: &GlobalName,
) -> Option<GlobalName> {
    if st.provenance_enabled() {
        return None;
    }
    let new_name = l.names.rename(name);
    if !env.contains(new_name.as_str()) {
        return None;
    }
    st.outcomes.insert(name.clone(), LiftOutcome::Replayed);
    st.const_map.insert(name.clone(), new_name.clone());
    Some(new_name)
}

/// Repairs a single constant across the equivalence, registering the result
/// in the environment under the configuration's renaming policy and caching
/// the mapping. Dependencies are repaired on demand.
///
/// # Errors
///
/// Fails if the constant is unknown, the termination guard trips, or the
/// repaired definition does not type check.
pub fn repair_constant(
    env: &mut Env,
    l: &Lifting,
    st: &mut LiftState,
    name: &GlobalName,
) -> Result<GlobalName> {
    if let Some(mapped) = st.const_map.get(name) {
        return Ok(mapped.clone());
    }
    if let Some(new_name) = green_reuse(env, l, st, name) {
        return Ok(new_name);
    }
    if st.in_progress.contains(name) {
        return Err(RepairError::NonTerminating {
            constant: name.clone(),
        });
    }
    st.in_progress.insert(name.clone());
    let span = env.tracer().begin();
    // Provenance frame for this constant: the declaration's type records
    // under path prefix 0, the body under 1. On failure the frame (and its
    // sites) is discarded with the rest of the partial repair.
    st.prov_begin_const(name);
    let result = (|| {
        let decl = env.const_decl(name)?.clone();
        // Persistent cross-run cache: replay a previously persisted repair
        // of this exact declaration under this exact configuration, lifted
        // against these exact dependencies (the fingerprint covers them
        // all, so an upstream edit reads as a miss). A validated hit skips
        // the whole lift below. Provenance runs never probe: a replayed
        // declaration records no diff sites, and `explain` after an
        // incremental repair must cite the same rules as after a cold one.
        let persist = st
            .persist
            .clone()
            .and_then(|cache| Some((cache, env.fingerprint(name)?)));
        if let Some((cache, fingerprint)) = &persist {
            if !st.provenance_enabled() {
                if let Some(hit) = cache.lookup(&decl, *fingerprint) {
                    let replayed = replay_persisted(env, l, st, cache, name, &decl, hit)?;
                    if let Some(new_name) = replayed {
                        st.stats.persist_hits += 1;
                        return Ok((new_name, LiftOutcome::Replayed));
                    }
                }
                st.stats.persist_misses += 1;
            }
        }
        let new_ty = lift_child(env, l, st, &decl.ty, 0)?;
        let new_body = match &decl.body {
            Some(b) => Some(lift_child(env, l, st, b, 1)?),
            None => None,
        };
        let new_name = l.names.rename(name);
        if env.contains(new_name.as_str()) {
            // Idempotence: accept an existing identical definition.
            let existing = env.const_decl(&new_name)?;
            if existing.ty == new_ty && existing.body == new_body {
                return Ok((new_name, LiftOutcome::Fresh));
            }
            return Err(RepairError::Kernel(KernelError::Redeclaration(new_name)));
        }
        match new_body {
            Some(b) => env.define(new_name.clone(), new_ty, b)?,
            None => env.assume(new_name.clone(), new_ty)?,
        }
        st.stats.constants_lifted += 1;
        if let Some((cache, fingerprint)) = &persist {
            let upkeep = cache.store(&decl, *fingerprint, env.const_decl(&new_name)?);
            st.stats.persist_compactions += upkeep.compactions;
            st.stats.persist_evictions += upkeep.evictions;
        }
        Ok((new_name, LiftOutcome::Fresh))
    })();
    st.in_progress.remove(name);
    env.tracer().end(
        span,
        pumpkin_trace::EventKind::LiftConstant {
            name: name.as_str().into(),
        },
    );
    st.prov_end_const(result.as_ref().ok().map(|(n, _)| n));
    let (new_name, outcome) = result?;
    st.outcomes.insert(name.clone(), outcome);
    st.const_map.insert(name.clone(), new_name.clone());
    Ok(new_name)
}

/// Replays a persisted repaired declaration.
///
/// The shard pins the configuration, and the record's key and fingerprint
/// pin the old declaration and everything it depends on, so `hit` is the
/// declaration a fresh lift would produce — but the environment must
/// first contain everything it references. The old
/// declaration's relevant dependencies are repaired first (recursively;
/// on a warm run those replay from the cache too), exactly as the lift
/// would have repaired them on demand. Returns `Ok(None)` — fall back to
/// a fresh lift — when the entry cannot be validated against this
/// environment (a stale name, or a cache shared across environments).
///
/// Installation goes through `Env::define`/`Env::assume`, like a fresh
/// lift's: the digests only detect damage, so the kernel decides every
/// frame (or the admission memo, by exact identity, which keeps a warm
/// replay cheap). A frame the kernel refuses is tombstoned in its shard,
/// counted in [`LiftStats::persist_rejected`] and read as a miss, so the
/// fresh lift that follows re-publishes a good frame.
fn replay_persisted(
    env: &mut Env,
    l: &Lifting,
    st: &mut LiftState,
    cache: &crate::persist::PersistCache,
    name: &GlobalName,
    old: &pumpkin_kernel::env::ConstDecl,
    hit: pumpkin_kernel::env::ConstDecl,
) -> Result<Option<GlobalName>> {
    if hit.name != l.names.rename(name) {
        return Ok(None);
    }
    let mut deps = old.ty.constants();
    if let Some(b) = &old.body {
        for c in b.constants() {
            if !deps.contains(&c) {
                deps.push(c);
            }
        }
    }
    for c in &deps {
        if c != name && !st.const_map.contains_key(c) && is_relevant(env, l, st, c) {
            repair_constant(env, l, st, c)?;
        }
    }
    let mut mentioned = hit.ty.constants();
    if let Some(b) = &hit.body {
        mentioned.extend(b.constants());
    }
    if mentioned.iter().any(|c| !env.contains(c.as_str())) {
        return Ok(None);
    }
    let new_name = hit.name.clone();
    if env.contains(new_name.as_str()) {
        // Idempotence, as in the fresh-lift path.
        let existing = env.const_decl(&new_name)?;
        if existing.ty == hit.ty && existing.body == hit.body {
            return Ok(Some(new_name));
        }
        return Err(RepairError::Kernel(KernelError::Redeclaration(new_name)));
    }
    let installed = match hit.body {
        Some(body) => env.define(new_name.clone(), hit.ty, body),
        None => env.assume(new_name.clone(), hit.ty),
    };
    if installed.is_err() {
        cache.evict(old);
        st.stats.persist_rejected += 1;
        return Ok(None);
    }
    st.stats.constants_lifted += 1;
    Ok(Some(new_name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NameMap;

    #[test]
    fn the_default_state_caches_closed_subterms() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = crate::search::swap::configure(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        // `Old.app nat nil nil`: the second `nil` repeats the first.
        let nat = Term::ind("nat");
        let nil = Term::app(Term::construct("Old.list", 0), [nat.clone()]);
        let t = Term::app(Term::const_("Old.app"), [nat, nil.clone(), nil]);
        let mut st = LiftState::default();
        lift_term(&mut env, &lifting, &mut st, &t).unwrap();
        assert!(st.stats.cache_hits > 0, "{}", st.stats);
    }
}
