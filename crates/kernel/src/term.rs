//! The term language of CIC_ω (paper Fig. 7).
//!
//! Terms are, from left to right in the paper's grammar: variables (de Bruijn
//! [`Term::rel`]), sorts, dependent products, functions, application,
//! inductive types, inductive constructors, and primitive eliminators. We add
//! `let` bindings (needed by the decompiler, paper §5.2) and references to
//! global constants.
//!
//! Representation choices:
//!
//! * Terms are immutable, shared via [`TermRc`] (an [`std::sync::Arc`]),
//!   and **hash-consed** in the global arena of [`crate::intern`]: one
//!   canonical allocation per payload, so structural equality collapses to
//!   an integer ([`TermId`]) compare and per-node facts (structural hash,
//!   free-variable ceiling, size) are cached at intern time. `clone` is
//!   O(1) and terms are `Send + Sync`, as the global arena and the serve
//!   worker pool (one environment per worker thread) both require.
//! * Applications are kept in *spine form* (`App(head, args)` where the head
//!   is never itself an application and `args` is non-empty). The unification
//!   heuristics of the repair engine (paper §4.2.1) pattern-match on spines.
//! * Binder names are hints: equality and hashing ignore them, so structural
//!   equality is alpha-equivalence.

use std::convert::Infallible;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::intern::{self, TermCell, TermId};
use crate::name::{GlobalName, Name};
use crate::universe::Sort;

/// The shared pointer behind [`Term`] (and interned names).
///
/// This is the single point where the kernel commits to atomic reference
/// counting: `Arc` makes `Term`, `Name`, and `GlobalName` `Send + Sync`,
/// which is what lets the global interner share one allocation across
/// threads and the serve worker pool move an `Env` onto each worker
/// thread. The ptr_eq and cached-structural-hash fast paths are
/// unaffected — only the refcount bumps become atomic.
pub type TermRc<T> = std::sync::Arc<T>;

/// A binder: a name hint together with the bound variable's type.
#[derive(Clone, Debug)]
pub struct Binder {
    /// Pretty-printing hint; ignored by equality.
    pub name: Name,
    /// The type of the bound variable.
    pub ty: Term,
}

impl Binder {
    /// Creates a binder with the given hint and type.
    pub fn new(name: impl Into<Name>, ty: Term) -> Self {
        Binder {
            name: name.into(),
            ty,
        }
    }

    /// Creates an anonymous binder.
    pub fn anon(ty: Term) -> Self {
        Binder {
            name: Name::Anonymous,
            ty,
        }
    }
}

impl PartialEq for Binder {
    fn eq(&self, other: &Self) -> bool {
        self.ty == other.ty
    }
}
impl Eq for Binder {}
impl Hash for Binder {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ty.hash(state);
    }
}

/// A primitive eliminator node: `Elim(scrutinee, motive) {cases}` over a
/// named inductive family applied to `params`.
///
/// The motive binds the family's indices and then the scrutinee:
/// `motive = fun (i₁ : I₁) … (iₖ : Iₖ) (x : Ind params i₁ … iₖ) => T`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ElimData {
    /// The inductive family being eliminated.
    pub ind: GlobalName,
    /// The family's (uniform) parameters, fully instantiated.
    pub params: Vec<Term>,
    /// The motive (see type-level comment).
    pub motive: Term,
    /// One case per constructor, in declaration order.
    pub cases: Vec<Term>,
    /// The term being eliminated.
    pub scrutinee: Term,
}

/// The payload of a [`Term`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TermData {
    /// Bound variable as a de Bruijn index; `Rel(0)` is the innermost binder.
    Rel(usize),
    /// A sort: `Prop`, `Set`, or `Type(i)`.
    Sort(Sort),
    /// A reference to a global definition or axiom.
    Const(GlobalName),
    /// A reference to an inductive family (unapplied).
    Ind(GlobalName),
    /// `Construct(ind, j)`: the `j`-th constructor of `ind` (0-based),
    /// unapplied. A fully applied constructor takes the family's parameters
    /// first and then its own arguments.
    Construct(GlobalName, usize),
    /// Application in spine form. Invariants: the head is not an `App` and
    /// the argument list is non-empty.
    App(Term, Vec<Term>),
    /// `fun (x : ty) => body`.
    Lambda(Binder, Term),
    /// `∀ (x : ty), body`.
    Pi(Binder, Term),
    /// `let x : ty := val in body`.
    Let(Binder, Term, Term),
    /// Primitive eliminator (paper Fig. 7 `Elim(t, P){f…}`).
    Elim(ElimData),
}

/// A term of CIC_ω. Cheap to clone (reference counted), and **globally
/// hash-consed**: every term is allocated through the arena in
/// [`crate::intern`], so structurally identical payloads (including binder
/// names) share one allocation process-wide.
///
/// Equality is alpha-equivalence, and it is an *integer compare*: each node
/// caches the [`TermId`] of its alpha-canonical skeleton, and two terms are
/// equal iff their ids are (pointer identity is the short-circuit for the
/// name-identical case). `Hash` writes the cached alpha-invariant structural
/// hash, so `Term` keys cost O(1) in hash maps — and the kernel's memo
/// tables (see [`crate::env::Env`]) key on the even cheaper `TermId`.
#[derive(Clone)]
pub struct Term(pub(crate) TermRc<TermCell>);

// The global interner and the serve worker pool rely on terms crossing
// thread boundaries; keep that invariant machine-checked here rather than
// discovered at a distant spawn site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Term>();
    assert_send_sync::<TermCell>();
};

impl PartialEq for Term {
    fn eq(&self, other: &Self) -> bool {
        TermRc::ptr_eq(&self.0, &other.0) || self.id() == other.id()
    }
}
impl Eq for Term {}
impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl Term {
    /// Interns raw term data into the global arena. Prefer the smart
    /// constructors, which maintain the spine invariant for applications.
    pub fn new(data: TermData) -> Self {
        intern::intern(data)
    }

    /// The interned cell (crate-internal: the interner and the views below
    /// read the cached per-node facts through this).
    pub(crate) fn cell(&self) -> &TermCell {
        &self.0
    }

    /// The underlying data.
    pub fn data(&self) -> &TermData {
        &self.0.data
    }

    /// The alpha-canonical identity: equal iff the terms are structurally
    /// equal (alpha-equivalent). An O(1) integer — this is what the kernel's
    /// memo tables key on.
    pub fn id(&self) -> TermId {
        match &self.0.alpha {
            None => TermId(self.0.slot),
            Some(a) => TermId(a.0.slot),
        }
    }

    /// The alpha-canonical skeleton: the same structure with every binder
    /// name erased. Self for terms with no named binders.
    pub fn alpha_canonical(&self) -> &Term {
        self.0.alpha.as_ref().unwrap_or(self)
    }

    /// The precomputed structural hash (alpha-invariant, like equality).
    pub fn structural_hash(&self) -> u64 {
        self.0.hash
    }

    /// The least `n` such that every free de Bruijn variable is `< n`
    /// (`0` means closed). Cached at intern time; `lift`/`subst` use it to
    /// skip closed subterms in O(1).
    pub fn free_rel_bound(&self) -> usize {
        self.0.ceil as usize
    }

    /// Do `self` and `other` share the same allocation? With the global
    /// arena this holds for *all* name-identical structurally equal terms,
    /// however they were built; alpha-variants with different binder names
    /// are distinct nodes (compare [`Term::id`] instead).
    pub fn same_allocation(&self, other: &Term) -> bool {
        TermRc::ptr_eq(&self.0, &other.0)
    }

    /// The allocation's own slot: a process-local integer identifying this
    /// exact node *including binder names* (unlike the alpha-invariant
    /// [`Term::id`]). Hash-consing makes it a perfect dedup key for
    /// shared-subterm encodings: name-identical structurally equal terms
    /// always share a slot.
    pub fn alloc_id(&self) -> u32 {
        self.0.slot
    }

    // ------------------------------------------------------------------
    // Smart constructors
    // ------------------------------------------------------------------

    /// De Bruijn variable; `rel(0)` is the innermost binder.
    pub fn rel(i: usize) -> Self {
        Term::new(TermData::Rel(i))
    }

    /// A sort literal.
    pub fn sort(s: Sort) -> Self {
        Term::new(TermData::Sort(s))
    }

    /// `Prop`.
    pub fn prop() -> Self {
        Term::sort(Sort::Prop)
    }

    /// `Set`.
    pub fn set() -> Self {
        Term::sort(Sort::Set)
    }

    /// `Type(i)`.
    pub fn type_(i: u32) -> Self {
        Term::sort(Sort::Type(i))
    }

    /// Reference to a global constant.
    pub fn const_(name: impl Into<GlobalName>) -> Self {
        Term::new(TermData::Const(name.into()))
    }

    /// Reference to an inductive family.
    pub fn ind(name: impl Into<GlobalName>) -> Self {
        Term::new(TermData::Ind(name.into()))
    }

    /// Reference to constructor `j` of inductive `ind`.
    pub fn construct(ind: impl Into<GlobalName>, j: usize) -> Self {
        Term::new(TermData::Construct(ind.into(), j))
    }

    /// Application, flattening nested spines. `app(f, [])` is `f`.
    pub fn app(head: Term, args: impl IntoIterator<Item = Term>) -> Self {
        let mut new_args: Vec<Term> = args.into_iter().collect();
        if new_args.is_empty() {
            return head;
        }
        match head.data() {
            TermData::App(h, prev) => {
                let mut all = prev.clone();
                all.append(&mut new_args);
                Term::new(TermData::App(h.clone(), all))
            }
            _ => Term::new(TermData::App(head, new_args)),
        }
    }

    /// Application to a single argument.
    pub fn app1(head: Term, arg: Term) -> Self {
        Term::app(head, [arg])
    }

    /// `fun (x : ty) => body`.
    pub fn lambda(name: impl Into<Name>, ty: Term, body: Term) -> Self {
        Term::new(TermData::Lambda(Binder::new(name, ty), body))
    }

    /// `∀ (x : ty), body`.
    pub fn pi(name: impl Into<Name>, ty: Term, body: Term) -> Self {
        Term::new(TermData::Pi(Binder::new(name, ty), body))
    }

    /// Non-dependent function type `a → b` (the codomain is lifted by the
    /// caller; here `b` must already make sense under one extra binder, so we
    /// shift it).
    pub fn arrow(a: Term, b: Term) -> Self {
        Term::pi(Name::Anonymous, a, crate::subst::lift(&b, 1))
    }

    /// `let x : ty := val in body`.
    pub fn let_(name: impl Into<Name>, ty: Term, val: Term, body: Term) -> Self {
        Term::new(TermData::Let(Binder::new(name, ty), val, body))
    }

    /// Primitive eliminator node.
    pub fn elim(data: ElimData) -> Self {
        Term::new(TermData::Elim(data))
    }

    // ------------------------------------------------------------------
    // Views
    // ------------------------------------------------------------------

    /// Splits a term into its application head and arguments. For a
    /// non-application this is `(self, [])`.
    pub fn unfold_app(&self) -> (&Term, &[Term]) {
        match self.data() {
            TermData::App(h, args) => (h, args),
            _ => (self, &[]),
        }
    }

    /// The application head (the term itself when not an application).
    pub fn head(&self) -> &Term {
        self.unfold_app().0
    }

    /// The application arguments (empty when not an application).
    pub fn args(&self) -> &[Term] {
        self.unfold_app().1
    }

    /// Is this a sort literal?
    pub fn as_sort(&self) -> Option<Sort> {
        match self.data() {
            TermData::Sort(s) => Some(*s),
            _ => None,
        }
    }

    /// If the head is `Ind(name)`, returns the name and the arguments.
    pub fn as_ind_app(&self) -> Option<(&GlobalName, &[Term])> {
        let (head, args) = self.unfold_app();
        match head.data() {
            TermData::Ind(name) => Some((name, args)),
            _ => None,
        }
    }

    /// If the head is `Construct(ind, j)`, returns `(ind, j, args)`.
    pub fn as_construct_app(&self) -> Option<(&GlobalName, usize, &[Term])> {
        let (head, args) = self.unfold_app();
        match head.data() {
            TermData::Construct(ind, j) => Some((ind, *j, args)),
            _ => None,
        }
    }

    /// If the head is `Const(name)`, returns `(name, args)`.
    pub fn as_const_app(&self) -> Option<(&GlobalName, &[Term])> {
        let (head, args) = self.unfold_app();
        match head.data() {
            TermData::Const(name) => Some((name, args)),
            _ => None,
        }
    }

    /// Strips leading lambdas, returning the binders and the body.
    pub fn strip_lambdas(&self) -> (Vec<Binder>, Term) {
        let mut binders = Vec::new();
        let mut t = self.clone();
        loop {
            match t.data() {
                TermData::Lambda(b, body) => {
                    binders.push(b.clone());
                    t = body.clone();
                }
                _ => return (binders, t),
            }
        }
    }

    /// Strips leading pis, returning the binders and the final codomain.
    pub fn strip_pis(&self) -> (Vec<Binder>, Term) {
        let mut binders = Vec::new();
        let mut t = self.clone();
        loop {
            match t.data() {
                TermData::Pi(b, body) => {
                    binders.push(b.clone());
                    t = body.clone();
                }
                _ => return (binders, t),
            }
        }
    }

    /// Rebuilds `fun binders => body`.
    pub fn lambdas(binders: impl IntoIterator<Item = Binder>, body: Term) -> Term {
        let bs: Vec<Binder> = binders.into_iter().collect();
        bs.into_iter()
            .rev()
            .fold(body, |acc, b| Term::new(TermData::Lambda(b, acc)))
    }

    /// Rebuilds `∀ binders, body`.
    pub fn pis(binders: impl IntoIterator<Item = Binder>, body: Term) -> Term {
        let bs: Vec<Binder> = binders.into_iter().collect();
        bs.into_iter()
            .rev()
            .fold(body, |acc, b| Term::new(TermData::Pi(b, acc)))
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Calls `f(child, shift)` on each direct child in **canonical order**:
    /// `App` head, then arguments; `Lambda`/`Pi` binder type, then body;
    /// `Let` type, value, body; `Elim` parameters, motive, cases,
    /// scrutinee. A child's position in this order is its index in a
    /// provenance path, an `explain` citation and a wire node table, so
    /// this function *defines* those formats. `shift` counts the binders
    /// the child sits under relative to `self`: 1 for a `Lambda`, `Pi` or
    /// `Let` body, 0 otherwise.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Term, usize)) {
        match self.data() {
            TermData::Rel(_)
            | TermData::Sort(_)
            | TermData::Const(_)
            | TermData::Ind(_)
            | TermData::Construct(_, _) => {}
            TermData::App(h, args) => {
                f(h, 0);
                args.iter().for_each(|a| f(a, 0));
            }
            TermData::Lambda(b, body) | TermData::Pi(b, body) => {
                f(&b.ty, 0);
                f(body, 1);
            }
            TermData::Let(b, v, body) => {
                f(&b.ty, 0);
                f(v, 0);
                f(body, 1);
            }
            TermData::Elim(e) => {
                e.params.iter().for_each(|p| f(p, 0));
                f(&e.motive, 0);
                e.cases.iter().for_each(|c| f(c, 0));
                f(&e.scrutinee, 0);
            }
        }
    }

    /// Rebuilds the node with each direct child replaced by
    /// `f(child, index, shift)`, stopping at the first error. Children are
    /// visited in the canonical order of [`Term::for_each_child`], and
    /// `index` is the child's position in it. Binder names, the
    /// eliminated family and leaves are kept; applications re-flatten
    /// through [`Term::app`].
    pub fn try_map_children<E>(
        &self,
        mut f: impl FnMut(&Term, u32, usize) -> Result<Term, E>,
    ) -> Result<Term, E> {
        let mut index = 0;
        let mut child = |c: &Term, shift: usize| {
            index += 1;
            f(c, index - 1, shift)
        };
        // A loop, not an iterator chain: every child's recursion runs
        // below this frame, and in debug builds a `map`/`collect` chain
        // stacks a dozen more frames per level.
        fn all<E>(
            cs: &[Term],
            child: &mut impl FnMut(&Term, usize) -> Result<Term, E>,
        ) -> Result<Vec<Term>, E> {
            let mut out = Vec::with_capacity(cs.len());
            for c in cs {
                out.push(child(c, 0)?);
            }
            Ok(out)
        }
        let binder = |b: &Binder, ty: Term| Binder {
            name: b.name.clone(),
            ty,
        };
        Ok(match self.data() {
            TermData::Rel(_)
            | TermData::Sort(_)
            | TermData::Const(_)
            | TermData::Ind(_)
            | TermData::Construct(_, _) => self.clone(),
            TermData::App(h, args) => {
                let h = child(h, 0)?;
                Term::app(h, all(args, &mut child)?)
            }
            TermData::Lambda(b, body) => Term::new(TermData::Lambda(
                binder(b, child(&b.ty, 0)?),
                child(body, 1)?,
            )),
            TermData::Pi(b, body) => {
                Term::new(TermData::Pi(binder(b, child(&b.ty, 0)?), child(body, 1)?))
            }
            TermData::Let(b, v, body) => Term::new(TermData::Let(
                binder(b, child(&b.ty, 0)?),
                child(v, 0)?,
                child(body, 1)?,
            )),
            // Field initialisers run in the order written: canonical.
            TermData::Elim(e) => Term::elim(ElimData {
                ind: e.ind.clone(),
                params: all(&e.params, &mut child)?,
                motive: child(&e.motive, 0)?,
                cases: all(&e.cases, &mut child)?,
                scrutinee: child(&e.scrutinee, 0)?,
            }),
        })
    }

    /// [`Term::try_map_children`] for a map that cannot fail:
    /// `f(child, shift)`.
    pub fn map_children(&self, mut f: impl FnMut(&Term, usize) -> Term) -> Term {
        let Ok(t) = self.try_map_children(|c, _, shift| Ok::<_, Infallible>(f(c, shift)));
        t
    }

    /// Does `Rel(k)` occur free in this term (where `k` counts from the
    /// term's own root)?
    pub fn has_rel(&self, k: usize) -> bool {
        // Cached free-variable ceiling: no Rel ≥ k occurs at all.
        if k >= self.free_rel_bound() {
            return false;
        }
        if let TermData::Rel(i) = self.data() {
            return *i == k;
        }
        let mut found = false;
        self.for_each_child(|c, shift| found = found || c.has_rel(k + shift));
        found
    }

    /// Is the term closed (no free de Bruijn variables)? O(1): answered
    /// from the free-variable ceiling cached at intern time.
    pub fn is_closed(&self) -> bool {
        self.0.ceil == 0
    }

    /// Collects the global constants referenced by this term.
    pub fn constants(&self) -> Vec<GlobalName> {
        let mut out = Vec::new();
        self.visit(&mut |t| {
            if let TermData::Const(name) = t.data() {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// Does this term mention the given global (as a constant, inductive, or
    /// constructor)?
    pub fn mentions_global(&self, name: &GlobalName) -> bool {
        let mut found = false;
        self.visit(&mut |t| match t.data() {
            TermData::Const(n) | TermData::Ind(n) | TermData::Construct(n, _) if n == name => {
                found = true;
            }
            TermData::Elim(e) if &e.ind == name => found = true,
            _ => {}
        });
        found
    }

    /// Visits every subterm (including the term itself), pre-order, with
    /// children in [`Term::for_each_child`]'s order. The recursion is
    /// written out rather than routed through that callback: `constants`
    /// and `mentions_global` run on every constant the lift and replay
    /// touch, and the callback measured a few percent slower here.
    pub fn visit(&self, f: &mut impl FnMut(&Term)) {
        f(self);
        match self.data() {
            TermData::Rel(_)
            | TermData::Sort(_)
            | TermData::Const(_)
            | TermData::Ind(_)
            | TermData::Construct(_, _) => {}
            TermData::App(h, args) => {
                h.visit(f);
                for a in args {
                    a.visit(f);
                }
            }
            TermData::Lambda(b, body) | TermData::Pi(b, body) => {
                b.ty.visit(f);
                body.visit(f);
            }
            TermData::Let(b, v, body) => {
                b.ty.visit(f);
                v.visit(f);
                body.visit(f);
            }
            TermData::Elim(e) => {
                for p in &e.params {
                    p.visit(f);
                }
                e.motive.visit(f);
                for c in &e.cases {
                    c.visit(f);
                }
                e.scrutinee.visit(f);
            }
        }
    }

    /// The number of nodes in the term, counted as a tree (shared subterms
    /// count with multiplicity; saturates at `u32::MAX`). O(1): cached at
    /// intern time.
    pub fn size(&self) -> usize {
        self.0.size as usize
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A raw, de Bruijn-level display used in kernel error messages. The `lang`
/// crate provides a named pretty-printer for user-facing output.
impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(t: &Term, f: &mut fmt::Formatter<'_>, atom: bool) -> fmt::Result {
            match t.data() {
                TermData::Rel(i) => write!(f, "#{i}"),
                TermData::Sort(s) => write!(f, "{s}"),
                TermData::Const(n) => write!(f, "{n}"),
                TermData::Ind(n) => write!(f, "{n}"),
                TermData::Construct(n, j) => write!(f, "{n}!{j}"),
                TermData::App(h, args) => {
                    if atom {
                        write!(f, "(")?;
                    }
                    go(h, f, true)?;
                    for a in args {
                        write!(f, " ")?;
                        go(a, f, true)?;
                    }
                    if atom {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                TermData::Lambda(b, body) => {
                    if atom {
                        write!(f, "(")?;
                    }
                    write!(f, "fun ({} : ", b.name)?;
                    go(&b.ty, f, false)?;
                    write!(f, ") => ")?;
                    go(body, f, false)?;
                    if atom {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                TermData::Pi(b, body) => {
                    if atom {
                        write!(f, "(")?;
                    }
                    write!(f, "forall ({} : ", b.name)?;
                    go(&b.ty, f, false)?;
                    write!(f, "), ")?;
                    go(body, f, false)?;
                    if atom {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                TermData::Let(b, v, body) => {
                    if atom {
                        write!(f, "(")?;
                    }
                    write!(f, "let {} : ", b.name)?;
                    go(&b.ty, f, false)?;
                    write!(f, " := ")?;
                    go(v, f, false)?;
                    write!(f, " in ")?;
                    go(body, f, false)?;
                    if atom {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                TermData::Elim(e) => {
                    write!(f, "Elim[{}](", e.ind)?;
                    go(&e.scrutinee, f, false)?;
                    write!(f, "; ")?;
                    go(&e.motive, f, false)?;
                    write!(f, "){{")?;
                    for (i, c) in e.cases.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        go(c, f, false)?;
                    }
                    write!(f, "}}")
                }
            }
        }
        go(self, f, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spine_flattening() {
        let f = Term::const_("f");
        let t = Term::app1(Term::app1(f.clone(), Term::rel(0)), Term::rel(1));
        match t.data() {
            TermData::App(h, args) => {
                assert_eq!(h, &f);
                assert_eq!(args.len(), 2);
            }
            _ => panic!("expected spine"),
        }
        assert_eq!(Term::app(f.clone(), []), f);
    }

    #[test]
    fn alpha_equivalence_via_names() {
        let a = Term::lambda("x", Term::set(), Term::rel(0));
        let b = Term::lambda("y", Term::set(), Term::rel(0));
        assert_eq!(a, b);
        let c = Term::lambda("x", Term::prop(), Term::rel(0));
        assert_ne!(a, c);
    }

    #[test]
    fn closedness() {
        assert!(Term::lambda("x", Term::set(), Term::rel(0)).is_closed());
        assert!(!Term::rel(0).is_closed());
        assert!(!Term::lambda("x", Term::set(), Term::rel(1)).is_closed());
    }

    #[test]
    fn has_rel_scoping() {
        // fun (x : Set) => #1  — mentions the variable one binder out.
        let t = Term::lambda("x", Term::set(), Term::rel(1));
        assert!(t.has_rel(0));
        assert!(!t.has_rel(1));
    }

    #[test]
    fn strip_and_rebuild() {
        let t = Term::pi("a", Term::set(), Term::pi("b", Term::rel(0), Term::rel(1)));
        let (bs, body) = t.strip_pis();
        assert_eq!(bs.len(), 2);
        assert_eq!(Term::pis(bs, body), t);
    }

    #[test]
    fn mentions_global_finds_elim_ind() {
        let e = Term::elim(ElimData {
            ind: "nat".into(),
            params: vec![],
            motive: Term::lambda("n", Term::ind("nat"), Term::set()),
            cases: vec![],
            scrutinee: Term::rel(0),
        });
        assert!(e.mentions_global(&"nat".into()));
        assert!(!e.mentions_global(&"bool".into()));
    }

    #[test]
    fn size_counts_nodes() {
        let t = Term::app(Term::const_("f"), [Term::rel(0), Term::rel(1)]);
        assert_eq!(t.size(), 4);
    }

    /// `for_each_child`'s report: each child with its shift.
    fn children(t: &Term) -> Vec<(Term, usize)> {
        let mut out = Vec::new();
        t.for_each_child(|c, shift| out.push((c.clone(), shift)));
        out
    }

    /// What `try_map_children` hands its callback, in call order.
    fn mapped(t: &Term) -> Vec<(Term, u32, usize)> {
        let mut out = Vec::new();
        let _ = t.try_map_children(|c, index, shift| {
            out.push((c.clone(), index, shift));
            Ok::<_, ()>(c.clone())
        });
        out
    }

    /// Pre-order through `for_each_child`: the order `visit` must keep.
    fn preorder(t: &Term, out: &mut Vec<Term>) {
        out.push(t.clone());
        t.for_each_child(|c, _| preorder(c, out));
    }

    /// Checks that the walks agree on one node: `try_map_children` sees
    /// `for_each_child`'s children with their positions and shifts, writes
    /// each result back into the same position, and rebuilds an unchanged
    /// node as the same allocation.
    fn walks_agree(t: &Term) {
        let kids = children(t);
        let indexed: Vec<(Term, u32, usize)> = (0..)
            .zip(&kids)
            .map(|(i, (c, shift))| (c.clone(), i, *shift))
            .collect();
        assert_eq!(mapped(t), indexed, "try_map_children on {t}");
        let marked = t
            .try_map_children(|_, i, _| Ok::<_, ()>(Term::rel(i as usize)))
            .unwrap();
        let marks: Vec<(Term, usize)> = (0..)
            .zip(&kids)
            .map(|(i, (_, shift))| (Term::rel(i), *shift))
            .collect();
        assert_eq!(children(&marked), marks, "results out of place in {t}");
        assert!(t.map_children(|c, _| c.clone()).same_allocation(t));
    }

    #[test]
    fn canonical_child_order_per_variant() {
        let c: Vec<Term> = (0..6).map(|i| Term::const_(format!("c{i}"))).collect();
        let elim = Term::elim(ElimData {
            ind: "i".into(),
            params: vec![c[0].clone(), c[1].clone()],
            motive: c[2].clone(),
            cases: vec![c[3].clone(), c[4].clone()],
            scrutinee: c[5].clone(),
        });
        // One row per `TermData` variant: the node and its children with
        // their shifts, in canonical order (a child's position is its path
        // index).
        let table: Vec<(Term, Vec<(usize, usize)>)> = vec![
            (Term::rel(0), vec![]),
            (Term::set(), vec![]),
            (Term::const_("k"), vec![]),
            (Term::ind("i"), vec![]),
            (Term::construct("i", 1), vec![]),
            (
                Term::app(c[0].clone(), [c[1].clone(), c[2].clone()]),
                vec![(0, 0), (1, 0), (2, 0)],
            ),
            (
                Term::lambda("x", c[0].clone(), c[1].clone()),
                vec![(0, 0), (1, 1)],
            ),
            (
                Term::pi("x", c[0].clone(), c[1].clone()),
                vec![(0, 0), (1, 1)],
            ),
            (
                Term::let_("x", c[0].clone(), c[1].clone(), c[2].clone()),
                vec![(0, 0), (1, 0), (2, 1)],
            ),
            (elim, vec![(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]),
        ];
        for (t, want) in &table {
            let want: Vec<(Term, usize)> = want.iter().map(|&(i, s)| (c[i].clone(), s)).collect();
            assert_eq!(children(t), want, "for_each_child on {t}");
            walks_agree(t);
            let mut visited = Vec::new();
            t.visit(&mut |s| visited.push(s.clone()));
            let mut expect = Vec::new();
            preorder(t, &mut expect);
            assert_eq!(visited, expect, "visit on {t}");
        }
    }

    /// Random terms over every variant, lets and eliminators included.
    fn arb(rng: &mut pumpkin_testkit::Rng, depth: u32) -> Term {
        if depth == 0 || rng.chance(1, 4) {
            return match rng.index(5) {
                0 => Term::rel(rng.index(3)),
                1 => Term::set(),
                2 => Term::const_("k"),
                3 => Term::ind("i"),
                _ => Term::construct("i", rng.index(2)),
            };
        }
        let sub = |rng: &mut pumpkin_testkit::Rng| arb(rng, depth - 1);
        let some = |rng: &mut pumpkin_testkit::Rng, min: usize| {
            let n = min + rng.index(3);
            (0..n).map(|_| sub(rng)).collect::<Vec<_>>()
        };
        match rng.index(5) {
            0 => Term::app(sub(rng), some(rng, 1)),
            1 => Term::lambda("x", sub(rng), sub(rng)),
            2 => Term::pi("y", sub(rng), sub(rng)),
            3 => Term::let_("z", sub(rng), sub(rng), sub(rng)),
            _ => Term::elim(ElimData {
                ind: "i".into(),
                params: some(rng, 0),
                motive: sub(rng),
                cases: some(rng, 0),
                scrutinee: sub(rng),
            }),
        }
    }

    #[test]
    fn the_walks_agree_on_random_terms() {
        pumpkin_testkit::check(256, |rng| {
            let t = arb(rng, 4);
            let mut visited = Vec::new();
            t.visit(&mut |s| visited.push(s.clone()));
            let mut expect = Vec::new();
            preorder(&t, &mut expect);
            assert_eq!(visited, expect, "visit on {t}");
            visited.iter().for_each(walks_agree);
        });
    }
}
