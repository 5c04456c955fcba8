//! The global environment: constants and inductive families — plus the
//! kernel's two memo tables, for the values and the types of closed terms,
//! and an optional handle on a shared admission memo ([`crate::admission`]).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};

use pumpkin_trace::{EventKind, Tracer};

use crate::admission::{Admission, AdmissionMemo};
use crate::error::{KernelError, Result};
use crate::inductive::InductiveDecl;
use crate::intern::TermId;
use crate::name::GlobalName;
use crate::stats::KernelStats;
use crate::term::Term;
use crate::typecheck;

/// A global constant: a definition (with body) or an axiom (without).
///
/// `opaque` constants are never δ-unfolded by reduction. This reproduces the
/// paper's "cache to tell Pumpkin Pi not to δ-reduce certain terms" (§4.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstDecl {
    /// The constant's name.
    pub name: GlobalName,
    /// Its declared type (closed).
    pub ty: Term,
    /// Its body, if it is a definition.
    pub body: Option<Term>,
    /// Whether δ-reduction may unfold it.
    pub opaque: bool,
}

/// An entry in the environment's declaration order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalRef {
    /// A constant.
    Const(GlobalName),
    /// An inductive family.
    Ind(GlobalName),
}

/// Entries beyond this bound flush a memo table (runaway-workload guard;
/// real module repairs stay far below it).
const CACHE_CAP: usize = 1 << 20;

/// Interior-mutable memo tables for the values and the types of closed
/// terms, plus the [`KernelStats`] counters. `whnf` and `conv` verdicts are
/// not memoised: whnf must answer the same whatever the value memo holds
/// (see [`crate::nbe`]), and conversion reuses the memoised values.
///
/// Cached results are valid for a single environment *generation*:
/// δ-unfolding depends on which constants exist and on their transparency,
/// so every `Env` mutation that can change a cached answer bumps
/// [`Env::generation`] and the tables are lazily flushed at the next probe
/// ([`Env::cache_fresh`]). Globals are immutable once declared
/// (redeclaration is an error), so mutations split into two classes:
///
/// * `set_opaque` flips, `remove`, and the `declare_inductive` rollback
///   *always* retire the generation — they change what an existing name
///   means;
/// * declaring a *new* global (`define`, `assume`, `declare_inductive`)
///   only retires the generation if some cached computation previously got
///   stuck on that very name (tracked in `stuck`) — any other cached
///   result cannot mention a name that did not resolve, so it stays valid.
///
/// The tables key on [`TermId`] — the interner's alpha-canonical integer
/// identity — so a probe hashes and compares plain `u32`s regardless of
/// term size, and alpha-variant queries share one entry by construction.
#[derive(Clone, Debug)]
struct KernelCache {
    /// Generation the tables were computed at.
    stamp: Cell<u64>,
    /// Master switch (ablation / differential testing).
    enabled: Cell<bool>,
    /// NbE values of *closed* terms. A closed term's value cannot mention
    /// the local evaluation environment, so one entry serves every context
    /// the term appears in — hash-consing makes the repeated occurrences of
    /// a large shared subterm (one `TermId`) evaluate exactly once per
    /// generation. Values embed neutrals for δ-blocked names, so declaring
    /// an observed-stuck name retires the generation.
    nf: RefCell<HashMap<TermId, crate::nbe::VRc>>,
    /// Inferred types of *closed* terms. A closed term's type cannot
    /// mention the local context, so one entry serves every context the
    /// term appears in. With hash-consing this is where the sharing pays
    /// off for the type checker: a literal that occurs k times — or whose
    /// k occurrences share suffixes, like numeral chains — is inferred
    /// once per distinct `TermId`, not once per occurrence.
    ty: RefCell<HashMap<TermId, Term>>,
    /// Undeclared names observed stuck by evaluation this generation;
    /// declaring one of these retires the generation.
    stuck: RefCell<HashSet<GlobalName>>,
    stats: RefCell<KernelStats>,
}

impl Default for KernelCache {
    fn default() -> Self {
        KernelCache {
            stamp: Cell::new(0),
            enabled: Cell::new(true),
            nf: RefCell::new(HashMap::new()),
            ty: RefCell::new(HashMap::new()),
            stuck: RefCell::new(HashSet::new()),
            stats: RefCell::new(KernelStats::default()),
        }
    }
}

/// The global environment.
///
/// All mutating operations type check their input: a well-typed environment
/// stays well-typed (modulo the documented universe simplifications). A
/// constant enters only through [`Env::define`] or [`Env::assume`], in
/// every build profile; a declaration replayed from disk takes the same
/// path as a fresh one.
///
/// ## Thread confinement
///
/// `Env` is `Send` but deliberately **not** `Sync`: the value and type memo
/// tables are interior-mutable (`Cell`/`RefCell`), so an environment — and
/// with it its caches — belongs to exactly one thread at a time. The
/// serve worker pool honours this by *cloning* the base `Env` once per
/// worker (terms are `Arc`-shared, so a clone is shallow) and moving each
/// clone onto its thread; the memo tables are never shared mutable. The
/// one shared structure is the optional admission memo
/// ([`Env::set_admission_memo`]), which sits behind its own lock.
#[derive(Debug, Default)]
pub struct Env {
    consts: HashMap<GlobalName, ConstDecl>,
    inductives: HashMap<GlobalName, InductiveDecl>,
    ctor_names: HashMap<GlobalName, (GlobalName, usize)>,
    order: Vec<GlobalRef>,
    /// Bumped by every mutation that can change reduction or conversion.
    generation: u64,
    cache: KernelCache,
    /// Structured trace sink for kernel probes (whnf/conv calls,
    /// rollbacks). Disabled by default — every probe is then a
    /// single branch. Like the memo tables, the tracer is thread-confined;
    /// cloning an `Env` clones the tracer's *configuration* but not its
    /// buffered events.
    tracer: Tracer,
    /// The admission memo this environment shares, if any (see
    /// [`Env::set_admission_memo`]).
    admission: Option<Admission>,
}

// Serve worker threads receive cloned environments by move; `RefCell`/
// `Cell` keep `Env` !Sync, which is the cache thread-confinement invariant.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Env>();
};

impl Clone for Env {
    fn clone(&self) -> Env {
        // Memo tables whose stamp lags the generation would be flushed at
        // the clone's next probe anyway ([`Env::cache_fresh`]), so copying
        // them is pure waste — a daemon session's per-request clone was
        // paying for thousands of dead entries. Start the clone with empty
        // tables at the same stale stamp: the first probe performs the
        // (now free) flush, so observable behavior — including the
        // `invalidations` counter — is unchanged.
        let cache = if self.cache.stamp.get() == self.generation {
            self.cache.clone()
        } else {
            KernelCache {
                stamp: Cell::new(self.cache.stamp.get()),
                enabled: Cell::new(self.cache.enabled.get()),
                stats: RefCell::new(*self.cache.stats.borrow()),
                ..KernelCache::default()
            }
        };
        Env {
            consts: self.consts.clone(),
            inductives: self.inductives.clone(),
            ctor_names: self.ctor_names.clone(),
            order: self.order.clone(),
            generation: self.generation,
            cache,
            tracer: self.tracer.clone(),
            admission: self.admission.clone(),
        }
    }
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    // ------------------------------------------------------------------
    // Value and type memo tables (see `KernelCache`)
    // ------------------------------------------------------------------

    /// The environment's mutation generation. Any cached judgement about
    /// terms (conversion, normal forms, typing) is valid for a single
    /// generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Enables or disables the kernel's value and type memo tables
    /// (disabling also flushes them). For ablation benchmarks and
    /// differential tests; results must be identical either way.
    pub fn set_kernel_cache(&mut self, enabled: bool) {
        self.cache.enabled.set(enabled);
        if !enabled {
            self.cache.nf.borrow_mut().clear();
            self.cache.ty.borrow_mut().clear();
            self.cache.stuck.borrow_mut().clear();
        }
    }

    /// Is the kernel-side memo layer on?
    pub fn kernel_cache_enabled(&self) -> bool {
        self.cache.enabled.get()
    }

    /// Snapshot of the kernel counters (calls, reduction steps,
    /// invalidations). Use [`KernelStats::since`] to diff snapshots.
    pub fn kernel_stats(&self) -> KernelStats {
        *self.cache.stats.borrow()
    }

    /// Resets the kernel counters to zero.
    pub fn reset_kernel_stats(&self) {
        *self.cache.stats.borrow_mut() = KernelStats::default();
    }

    /// Entries held by the value and type memo tables together.
    pub fn memo_len(&self) -> usize {
        self.cache.nf.borrow().len() + self.cache.ty.borrow().len()
    }

    /// Installs an admission memo (DESIGN.md §19), or with `None` removes
    /// this environment's. From then on [`Env::define`] admits a
    /// declaration the memo has accepted before without checking it
    /// again, and every clone of this environment shares the memo.
    /// Installing computes the identity of every global declared so far,
    /// which the clones inherit.
    pub fn set_admission_memo(&mut self, memo: Option<AdmissionMemo>) {
        self.admission = memo.map(|m| Admission::new(m, self));
    }

    /// The admission memo this environment shares, if any.
    pub fn admission_memo(&self) -> Option<&AdmissionMemo> {
        self.admission.as_ref().map(Admission::memo)
    }

    // ------------------------------------------------------------------
    // Structured tracing (see `pumpkin_trace`)
    // ------------------------------------------------------------------

    /// Installs a tracer; kernel probes (whnf/conv calls, rollbacks) are
    /// recorded into it from now on. Install a
    /// [`Tracer::disabled`] to turn tracing back off.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Removes and returns the installed tracer (with its buffered
    /// events), leaving a disabled one behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Records an environment mutation: cached reduction/conversion
    /// results may no longer hold, so retire the current generation.
    fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// Lazily flushes stale tables; returns whether the cache is usable.
    fn cache_fresh(&self) -> bool {
        if !self.cache.enabled.get() {
            return false;
        }
        if self.cache.stamp.get() != self.generation {
            self.cache.nf.borrow_mut().clear();
            self.cache.ty.borrow_mut().clear();
            self.cache.stuck.borrow_mut().clear();
            self.cache.stamp.set(self.generation);
            self.cache.stats.borrow_mut().invalidations += 1;
        }
        true
    }

    /// Records that reduction observed `name` as an *undeclared* constant
    /// (a stuck δ-step). Cached results computed after this observation may
    /// change if `name` is later declared, so [`Env::define`] and friends
    /// consult the set via [`Env::retire_if_observed_stuck`].
    pub(crate) fn note_stuck_const(&self, name: &GlobalName) {
        if self.cache.enabled.get() && !self.consts.contains_key(name) {
            self.cache.stuck.borrow_mut().insert(name.clone());
        }
    }

    /// Like [`Env::note_stuck_const`], for a failed inductive lookup
    /// (a stuck ι-step or η-probe on an undeclared family).
    pub(crate) fn note_stuck_ind(&self, name: &GlobalName) {
        if self.cache.enabled.get() {
            self.cache.stuck.borrow_mut().insert(name.clone());
        }
    }

    /// Declaring a brand-new global can only affect cached results that
    /// observed its name stuck; everything else cached stays valid (names
    /// are immutable once declared), so the generation is retired only on a
    /// recorded observation.
    fn retire_if_observed_stuck(&mut self, name: &GlobalName) {
        if self.cache.stuck.borrow().contains(name) {
            self.bump_generation();
        }
    }

    /// Applies `f` to the stats counters (no-op free: counters are plain
    /// integers behind a `RefCell`).
    pub(crate) fn tally(&self, f: impl FnOnce(&mut KernelStats)) {
        f(&mut self.cache.stats.borrow_mut());
    }

    /// Cached NbE value of the *closed* term `t`, if the memo layer has
    /// one. Untallied and untraced: a probe here is a `u32` hash on the hot
    /// evaluation path.
    pub(crate) fn nbe_cached(&self, t: &Term) -> Option<crate::nbe::VRc> {
        if !self.cache_fresh() {
            return None;
        }
        self.cache.nf.borrow().get(&t.id()).cloned()
    }

    /// Memoizes the NbE value of the closed term `t` for the current
    /// generation.
    pub(crate) fn nbe_insert(&self, t: &Term, v: crate::nbe::VRc) {
        if !self.cache_fresh() {
            return;
        }
        let mut table = self.cache.nf.borrow_mut();
        if table.len() >= CACHE_CAP {
            table.clear();
        }
        table.insert(t.id(), v);
    }

    /// Cached inferred type of the *closed* term `t`, if the memo layer
    /// has one. Untallied and untraced, like [`Env::nbe_cached`].
    pub(crate) fn infer_cached(&self, t: &Term) -> Option<Term> {
        if !self.cache_fresh() {
            return None;
        }
        self.cache.ty.borrow().get(&t.id()).cloned()
    }

    /// Memoizes `infer(t) = ty` for the closed term `t` for the current
    /// generation. Only successful judgements are cached — failures can
    /// depend on names that are merely not declared *yet*.
    pub(crate) fn infer_insert(&self, t: &Term, ty: Term) {
        if !self.cache_fresh() {
            return;
        }
        let mut table = self.cache.ty.borrow_mut();
        if table.len() >= CACHE_CAP {
            table.clear();
        }
        table.insert(t.id(), ty);
    }

    /// Looks up a constant.
    pub fn const_decl(&self, name: &GlobalName) -> Result<&ConstDecl> {
        self.consts
            .get(name)
            .ok_or_else(|| KernelError::UnknownGlobal(name.clone()))
    }

    /// Looks up an inductive family.
    pub fn inductive(&self, name: &GlobalName) -> Result<&InductiveDecl> {
        self.inductives
            .get(name)
            .ok_or_else(|| KernelError::UnknownGlobal(name.clone()))
    }

    /// Resolves a constructor *name* to its family and index.
    pub fn constructor(&self, name: &GlobalName) -> Option<(GlobalName, usize)> {
        self.ctor_names.get(name).cloned()
    }

    /// Is any global with this name declared?
    pub fn contains(&self, name: &str) -> bool {
        self.consts.contains_key(name)
            || self.inductives.contains_key(name)
            || self.ctor_names.contains_key(name)
    }

    /// Declaration order (constants and inductives interleaved as declared).
    pub fn order(&self) -> &[GlobalRef] {
        &self.order
    }

    /// All constants, unordered.
    pub fn constants(&self) -> impl Iterator<Item = &ConstDecl> {
        self.consts.values()
    }

    /// Defines a constant with a type-checked body.
    ///
    /// With an admission memo installed, a declaration whose identity the
    /// memo has accepted before is admitted without the check (counted in
    /// [`KernelStats::admission_hits`]), and a checked one is recorded.
    ///
    /// # Errors
    ///
    /// Fails if the name is taken, the type is not a type, or the body does
    /// not check against the type.
    pub fn define(&mut self, name: impl Into<GlobalName>, ty: Term, body: Term) -> Result<()> {
        let name = name.into();
        if self.contains(name.as_str()) {
            return Err(KernelError::Redeclaration(name));
        }
        let admission = self.admission.as_ref();
        let identity = admission.and_then(|a| a.lookup(self, &name, &ty, &body));
        if let Some((_, true)) = identity {
            self.tally(|s| s.admission_hits += 1);
        } else {
            typecheck::check_is_type(self, &ty)?;
            typecheck::check_closed(self, &body, &ty)?;
        }
        if let (Some(a), Some((id, accepted))) = (admission, identity) {
            if !accepted {
                a.accept(id);
            }
            a.record(name.clone(), id);
        }
        self.retire_if_observed_stuck(&name);
        self.order.push(GlobalRef::Const(name.clone()));
        self.consts.insert(
            name.clone(),
            ConstDecl {
                name,
                ty,
                body: Some(body),
                opaque: false,
            },
        );
        Ok(())
    }

    /// Declares an axiom (a constant with no body).
    ///
    /// The repair engine itself never introduces axioms (the paper's
    /// "axiomatic freedom"); this entry point exists for tests and for
    /// stating goals.
    ///
    /// # Errors
    ///
    /// Fails if the name is taken or the type is not a type.
    pub fn assume(&mut self, name: impl Into<GlobalName>, ty: Term) -> Result<()> {
        let name = name.into();
        if self.contains(name.as_str()) {
            return Err(KernelError::Redeclaration(name));
        }
        typecheck::check_is_type(self, &ty)?;
        self.retire_if_observed_stuck(&name);
        self.order.push(GlobalRef::Const(name.clone()));
        self.consts.insert(
            name.clone(),
            ConstDecl {
                name,
                ty,
                body: None,
                opaque: false,
            },
        );
        Ok(())
    }

    /// Removes every declaration made after `mark` (a prior
    /// [`Env::order`]`().len()` snapshot), restoring the environment to
    /// that declaration state. Removal can invalidate cached judgements
    /// about terms mentioning the removed names, so the generation is
    /// retired unconditionally.
    ///
    /// This is the error path of module repair: when a constant's repair
    /// fails or is cancelled, its partial output (including dependencies it
    /// repaired on demand) is rolled back, so the environment only ever
    /// exposes the constants completed before it.
    ///
    /// # Panics
    ///
    /// Panics if `mark` exceeds the current declaration count.
    pub fn rollback_to(&mut self, mark: usize) {
        assert!(
            mark <= self.order.len(),
            "rollback mark {mark} past declaration count {}",
            self.order.len()
        );
        if mark == self.order.len() {
            return;
        }
        self.tracer.emit(EventKind::Rollback {
            dropped: (self.order.len() - mark) as u32,
        });
        for r in self.order.drain(mark..) {
            let (GlobalRef::Const(n) | GlobalRef::Ind(n)) = &r;
            if let Some(a) = &self.admission {
                a.forget(n);
            }
            match r {
                GlobalRef::Const(n) => {
                    self.consts.remove(&n);
                }
                GlobalRef::Ind(n) => {
                    self.inductives.remove(&n);
                    self.ctor_names.retain(|_, (ind, _)| *ind != n);
                }
            }
        }
        self.bump_generation();
    }

    /// Declares an inductive family, checking well-formedness and (strict,
    /// plain) positivity.
    ///
    /// # Errors
    ///
    /// Fails if any name is taken, the arity or a constructor type is
    /// ill-typed, or positivity is violated; the environment is left
    /// unchanged on failure.
    pub fn declare_inductive(&mut self, decl: InductiveDecl) -> Result<()> {
        let name = decl.name.clone();
        if self.contains(name.as_str()) {
            return Err(KernelError::Redeclaration(name));
        }
        for c in &decl.ctors {
            if self.contains(c.name.as_str()) {
                return Err(KernelError::Redeclaration(c.name.clone()));
            }
        }
        // Insert first so constructor types may mention the family, then
        // validate; roll back on failure (which retires the generation, so
        // nothing computed against the provisional environment survives).
        self.retire_if_observed_stuck(&name);
        self.inductives.insert(name.clone(), decl);
        let result = (|| {
            let decl = self.inductives.get(&name).expect("just inserted").clone();
            decl.check_positivity()?;
            typecheck::check_is_type(self, &decl.arity())?;
            for j in 0..decl.ctors.len() {
                typecheck::check_is_type(self, &decl.ctor_type(j)?)?;
            }
            Ok(decl)
        })();
        match result {
            Ok(decl) => {
                for (j, c) in decl.ctors.iter().enumerate() {
                    self.ctor_names.insert(c.name.clone(), (name.clone(), j));
                }
                self.order.push(GlobalRef::Ind(name));
                Ok(())
            }
            Err(e) => {
                self.inductives.remove(&name);
                self.bump_generation();
                Err(e)
            }
        }
    }

    /// Removes a global (constant or inductive family, with its
    /// constructors) from the environment — the paper's "when we are done,
    /// we can get rid of `Old.list` entirely" (§2). Refuses if any other
    /// declaration still references it, so a well-typed environment stays
    /// well-typed.
    ///
    /// # Errors
    ///
    /// Fails if the global is unknown or still referenced; the environment
    /// is unchanged on failure.
    pub fn remove(&mut self, name: &GlobalName) -> Result<()> {
        let is_const = self.consts.contains_key(name);
        let is_ind = self.inductives.contains_key(name);
        if !is_const && !is_ind {
            return Err(KernelError::UnknownGlobal(name.clone()));
        }
        // Collect the names being removed (a family removes its ctors too).
        let mut removed: Vec<GlobalName> = vec![name.clone()];
        if is_ind {
            removed.extend(self.inductives[name].ctors.iter().map(|c| c.name.clone()));
        }
        // Check for remaining references from every other declaration.
        let mentions = |t: &Term| removed.iter().any(|r| t.mentions_global(r));
        for decl in self.consts.values() {
            if &decl.name == name {
                continue;
            }
            if mentions(&decl.ty) || decl.body.as_ref().is_some_and(&mentions) {
                return Err(KernelError::Redeclaration(GlobalName::new(format!(
                    "cannot remove `{name}`: still referenced by `{}`",
                    decl.name
                ))));
            }
        }
        for ind in self.inductives.values() {
            if &ind.name == name {
                continue;
            }
            let refs = ind
                .params
                .iter()
                .chain(ind.indices.iter())
                .any(|b| mentions(&b.ty))
                || ind.ctors.iter().any(|c| {
                    c.args.iter().any(|b| mentions(&b.ty)) || c.result_indices.iter().any(mentions)
                });
            if refs {
                return Err(KernelError::Redeclaration(GlobalName::new(format!(
                    "cannot remove `{name}`: still referenced by `{}`",
                    ind.name
                ))));
            }
        }
        // Safe: remove.
        self.bump_generation();
        if let Some(a) = &self.admission {
            a.forget(name);
        }
        self.consts.remove(name);
        if let Some(ind) = self.inductives.remove(name) {
            for c in &ind.ctors {
                self.ctor_names.remove(&c.name);
            }
        }
        self.order.retain(|r| match r {
            GlobalRef::Const(n) | GlobalRef::Ind(n) => n != name,
        });
        Ok(())
    }

    /// Marks a constant opaque (or transparent again) for δ-reduction.
    ///
    /// # Errors
    ///
    /// Fails if the constant does not exist.
    pub fn set_opaque(&mut self, name: &GlobalName, opaque: bool) -> Result<()> {
        let decl = self
            .consts
            .get_mut(name)
            .ok_or_else(|| KernelError::UnknownGlobal(name.clone()))?;
        if decl.opaque != opaque {
            decl.opaque = opaque;
            // Transparency changes which δ-steps fire: memoised values
            // and types are stale, and so is the identity of `name` and of
            // every global that mentions it.
            self.bump_generation();
            if let Some(a) = &self.admission {
                a.forget_all();
            }
        }
        Ok(())
    }

    /// The δ-unfoldable body of a constant, if any.
    pub fn unfold(&self, name: &GlobalName) -> Option<&Term> {
        let decl = self.consts.get(name)?;
        if decl.opaque {
            None
        } else {
            decl.body.as_ref()
        }
    }

    /// The body of a constant regardless of opacity.
    pub fn body(&self, name: &GlobalName) -> Option<&Term> {
        self.consts.get(name)?.body.as_ref()
    }

    /// The declared type of any global reference usable as a term head.
    pub fn global_type(&self, t: &Term) -> Result<Term> {
        use crate::term::TermData;
        match t.data() {
            TermData::Const(n) => Ok(self.const_decl(n)?.ty.clone()),
            TermData::Ind(n) => Ok(self.inductive(n)?.arity()),
            TermData::Construct(n, j) => self.inductive(n)?.ctor_type(*j),
            _ => Err(KernelError::UnknownGlobal(GlobalName::new(format!(
                "<not a global: {t}>"
            )))),
        }
    }
}
