//! Normalization by evaluation: the kernel's conversion checker and its
//! only normaliser ([`crate::reduce::normalize`] is evaluate + quote).
//!
//! The whnf-rewriting checker and normaliser this replaces re-built a term
//! at every β/ι step (each one an O(size) substitution), so deciding
//! `t ≡ u` on large literal-heavy proofs re-walked the same structurally
//! shared trees over and over. NbE evaluates both sides *once* into a value
//! domain where binders are closures over an environment — substitution
//! disappears entirely — and then compares values, introducing fresh
//! variables (de Bruijn *levels*) to go under binders. The rewriting
//! engine survives only as the differential oracle in the workspace's
//! `tests/oracle`.
//!
//! The domain (strict: arguments are evaluated when applications are):
//!
//! * `Value::Lambda` / `Value::Pi` carry a `Closure` (captured environment
//!   + unevaluated body term);
//! * `Value::Construct` / `Value::IndApp` are constructor/family spines;
//! * `Value::Glued` is a transparent constant applied to a spine, glued to
//!   its δ-unfolding, which is computed on first demand (`force`);
//! * `Value::Neutral` is a blocked computation: a head — a comparison
//!   variable (`NHead::Local`), a free variable of an open input term
//!   (`NHead::Free`), a δ-blocked constant (`NHead::Const`), or a stuck
//!   eliminator (`NHead::Elim`) — applied to a spine of values.
//!
//! Equality rules mirror the rewriting oracle's: η for functions (a lambda
//! against a non-lambda is compared after applying both to a fresh level),
//! record-η (surjective pairing for single-constructor non-recursive
//! families) as a fallback when a constructor spine fails to match, sorts by
//! `≤` in cumulativity mode (the `leq` flag, which propagates only through
//! Pi codomains, exactly as [`crate::conv::conv_leq`] always did).
//!
//! **One-step spines.** Applying a value to several arguments β-reduces
//! through closures one argument at a time, but once the head cannot
//! reduce — a constructor, family, glued constant or neutral — every
//! remaining argument joins its spine in one allocation. No intermediate
//! value is built per argument.
//!
//! **Lazy δ (glued values).** The two sides of a comparison, and the
//! closures built from them, evaluate in `Delta::Glue` mode: a transparent
//! constant becomes a `Value::Glued` that keeps the constant and its
//! evaluated spine next to a `OnceLock` for its unfolding. Two glued values
//! with the same head are compared by their spines first —
//! `c a₁ … aₙ ≡ c b₁ … bₙ` whenever every `aᵢ ≡ bᵢ`, which is how a
//! repaired type that repeats most of its expected type verbatim converts
//! without unfolding anything. Only a spine mismatch or a head clash forces
//! the unfoldings, and eliminators, record-η and readback always force.
//! Coq's kernel converts lazily for the same reason.
//!
//! A failed spine attempt is never retried: the comparison's failure memo
//! (on the query state, `Conv`) keeps the pair's verdict, keyed on the two
//! values' addresses plus `lvl` and `leq`, for the rest of the query.
//! Without it, `f^k O` against `f^k (S O)` (with `f := fun n => S n`)
//! re-runs every inner spine attempt after each outer one fails — 2^k work;
//! with it the cost is linear.
//!
//! Forced bodies, and terms being normalised, evaluate eagerly
//! (`Delta::Unfold`). Gluing inside
//! unfolded bodies too would defer chains of unfoldings that, forced later,
//! nest far deeper on the native stack than strict evaluation does (the
//! debug test suite then needs a 4 MiB stack); CI pins the depth by running
//! the kernel property tests on a 1 MiB stack.
//!
//! **Same-body closures.** Two `Pi`s or two lambdas whose closures share a
//! body `TermId` are decided without applying either when every captured
//! value the body can reference is shallowly identical: the same
//! allocation, or the same variable, sort or head over spine elements that
//! are themselves the same allocation or the same head with an empty spine.
//! The check is deliberately not recursive, because the native stack
//! is the resource a deep comparison runs out of (a stack overflow aborts
//! the daemon): a recursive identity test would follow spine depth, and
//! comparing captures with full conversion would re-enter the comparison
//! for every capture. A miss costs O(free variables) and falls back to
//! applying both closures to a fresh level.
//!
//! **Stuck-name invalidation is preserved**: evaluation calls
//! `Env::note_stuck_const` when δ finds no unfoldable body and
//! `Env::note_stuck_ind` when an eliminator meets an undeclared family —
//! the same observations the whnf path records — so the environment's
//! generation/invalidation story (see `env.rs`) is unchanged. A glued
//! value is never forced after its generation: the value memo that could
//! keep one alive is flushed when the generation retires. A same-body
//! shortcut skips evaluation, and so may skip such an observation; its
//! verdict (true) holds in any extension of the environment, so no cached
//! answer depends on the name it did not observe.
//!
//! Termination: evaluation is strongly normalizing on well-typed terms (the
//! calculus has no general recursion; δ cannot be cyclic because a body is
//! checked against an environment that does not yet contain its name). The
//! kernel only converts and normalises terms it has checked; the rewriting
//! oracle loops on the same ill-typed diverging redexes.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::env::Env;
use crate::name::{GlobalName, Name};
use crate::term::{Binder, ElimData, Term, TermData, TermRc};
use crate::universe::Sort;

/// Shared value pointer: values are immutable once built, and sharing keeps
/// environment captures O(1).
pub(crate) type VRc = TermRc<Value>;

/// A semantic value.
#[derive(Debug)]
pub(crate) enum Value {
    /// A sort literal.
    Sort(Sort),
    /// `fun (x : ty) => <closure>` — the name is a pretty-printing hint for
    /// readback only.
    Lambda(Name, VRc, Closure),
    /// `∀ (x : ty), <closure>`.
    Pi(Name, VRc, Closure),
    /// A (possibly partial) constructor application `Construct(ind, j) args`.
    Construct(GlobalName, usize, Vec<VRc>),
    /// An inductive family application `Ind(name) args` (never reduces).
    IndApp(GlobalName, Vec<VRc>),
    /// A transparent constant applied to a spine, unfolded on demand.
    Glued(Glue),
    /// A blocked computation: `head args`.
    Neutral(NHead, Vec<VRc>),
}

/// The head of a neutral value.
#[derive(Debug)]
pub(crate) enum NHead {
    /// A fresh variable introduced by the comparator under a binder, as a de
    /// Bruijn *level* (0 = the outermost fresh variable).
    Local(usize),
    /// A free `Rel` of the input term, indexed in the ambient context (the
    /// input's `Rel(i)` with `i` beyond the evaluation environment).
    Free(usize),
    /// A δ-blocked (opaque or bodyless) constant.
    Const(GlobalName),
    /// An eliminator stuck on a non-constructor scrutinee.
    Elim(TermRc<ElimVal>),
    /// An application whose head is not applicable (ill-typed input, e.g.
    /// a sort applied to arguments); kept stuck, like whnf does.
    Stuck(VRc),
}

/// A transparent constant applied to a spine, glued to its δ-unfolding.
/// The constant is represented by its body: forcing needs no environment
/// lookup, and two constants with the same body are the same head.
#[derive(Debug)]
pub(crate) struct Glue {
    body: Term,
    spine: Vec<VRc>,
    /// `body spine`, evaluated by the first [`force`].
    unfolded: OnceLock<VRc>,
}

/// How evaluation treats a transparent constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Delta {
    /// Glue it: the compared terms and the closures built from them.
    Glue,
    /// Unfold it on the spot: forced bodies and [`normalize`].
    Unfold,
}

/// A stuck eliminator with all components evaluated.
#[derive(Debug)]
pub(crate) struct ElimVal {
    ind: GlobalName,
    params: Vec<VRc>,
    motive: VRc,
    cases: Vec<VRc>,
    scrutinee: VRc,
}

/// A binder body awaiting its argument: the captured environment plus the
/// unevaluated body term, evaluated in the mode the closure was built in.
/// Application costs one environment extension — no substitution.
#[derive(Debug, Clone)]
pub(crate) struct Closure {
    env: VEnv,
    body: Term,
    delta: Delta,
}

impl Closure {
    fn apply(&self, env: &Env, arg: VRc) -> VRc {
        eval(env, &self.env.push(arg), &self.body, self.delta)
    }

    /// Do `self` and `other` denote the same function, judged without
    /// applying either? They do when their bodies are one `TermId` and
    /// every captured value the body can reference is [`identical`]: then
    /// both bodies evaluate to the same value under any argument. The
    /// check never recurses into [`Conv::val`], so a miss costs O(free
    /// variables) and no stack; the caller then applies both closures.
    fn same_function(&self, other: &Closure) -> bool {
        if self.body != other.body {
            return false;
        }
        // `Rel(0)` is the argument; `Rel(i + 1)` is capture `i`. Past the
        // environment a `Rel` evaluates to a free variable, which matches
        // only when both environments end at the same place.
        let captures = self.body.free_rel_bound().saturating_sub(1);
        let (mut n1, mut n2) = (self.env.0.as_ref(), other.env.0.as_ref());
        for _ in 0..captures {
            match (n1, n2) {
                (Some(x), Some(y)) if TermRc::ptr_eq(x, y) => return true,
                (Some(x), Some(y)) if identical(&x.head, &y.head, false) => {
                    (n1, n2) = (x.tail.0.as_ref(), y.tail.0.as_ref());
                }
                (None, None) => return true,
                _ => return false,
            }
        }
        true
    }
}

/// Are `a` and `b` the same value, judged without comparing them: the same
/// allocation, or the same sort, variable, constant or head over spines
/// whose elements are pairwise identical *atoms* (`atom` set: the same
/// allocation, or the same head with an empty spine). Two levels at most,
/// so the judgement costs no stack and a miss falls back to [`Conv::val`].
fn identical(a: &VRc, b: &VRc, atom: bool) -> bool {
    let spines = |s1: &[VRc], s2: &[VRc]| {
        if atom {
            s1.is_empty() && s2.is_empty()
        } else {
            s1.len() == s2.len() && s1.iter().zip(s2).all(|(x, y)| identical(x, y, true))
        }
    };
    TermRc::ptr_eq(a, b)
        || match (&**a, &**b) {
            (Value::Sort(s1), Value::Sort(s2)) => s1 == s2,
            (Value::Construct(n1, j1, s1), Value::Construct(n2, j2, s2)) => {
                n1 == n2 && j1 == j2 && spines(s1, s2)
            }
            (Value::IndApp(n1, s1), Value::IndApp(n2, s2)) => n1 == n2 && spines(s1, s2),
            (Value::Glued(g1), Value::Glued(g2)) => {
                g1.body == g2.body && spines(&g1.spine, &g2.spine)
            }
            (Value::Neutral(h1, s1), Value::Neutral(h2, s2)) => {
                let same_head = match (h1, h2) {
                    (NHead::Local(i), NHead::Local(j)) | (NHead::Free(i), NHead::Free(j)) => i == j,
                    (NHead::Const(n1), NHead::Const(n2)) => n1 == n2,
                    (NHead::Elim(e1), NHead::Elim(e2)) => TermRc::ptr_eq(e1, e2),
                    (NHead::Stuck(v1), NHead::Stuck(v2)) => TermRc::ptr_eq(v1, v2),
                    _ => false,
                };
                same_head && spines(s1, s2)
            }
            _ => false,
        }
}

/// The evaluation environment: a persistent cons-list of values, innermost
/// binder first. O(1) push/clone, O(i) lookup (binder depths are small).
#[derive(Debug, Clone, Default)]
pub(crate) struct VEnv(Option<TermRc<VEnvNode>>);

#[derive(Debug)]
pub(crate) struct VEnvNode {
    head: VRc,
    tail: VEnv,
    len: usize,
}

impl VEnv {
    fn nil() -> VEnv {
        VEnv(None)
    }

    fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |n| n.len)
    }

    fn push(&self, v: VRc) -> VEnv {
        VEnv(Some(TermRc::new(VEnvNode {
            head: v,
            tail: self.clone(),
            len: self.len() + 1,
        })))
    }

    fn get(&self, i: usize) -> Option<&VRc> {
        let mut node = self.0.as_deref()?;
        for _ in 0..i {
            node = node.tail.0.as_deref()?;
        }
        Some(&node.head)
    }
}

fn neutral(head: NHead) -> VRc {
    TermRc::new(Value::Neutral(head, Vec::new()))
}

/// Minimum interned size for a closed term to consult the value memo:
/// below this, the table probe costs about as much as re-evaluating.
const CLOSED_MEMO_MIN_SIZE: usize = 16;

/// Evaluates `t` under `venv`, treating transparent constants as `delta`
/// says. Free `Rel`s beyond the environment become [`NHead::Free`]
/// neutrals, so open terms evaluate consistently on both sides of a
/// comparison.
///
/// Closed terms above [`CLOSED_MEMO_MIN_SIZE`] go through the environment's
/// per-generation value memo ([`Env::nbe_cached`]): their value cannot
/// mention `venv`, so one entry serves every occurrence in every context —
/// and hash-consing means every repeat of a shared subterm is a single
/// `TermId` probe instead of a re-evaluation. Both modes share the memo:
/// a glued value and its unfolding are the same value, so whichever mode
/// evaluated a term first serves the other.
fn eval(env: &Env, venv: &VEnv, t: &Term, delta: Delta) -> VRc {
    if t.is_closed() && t.size() >= CLOSED_MEMO_MIN_SIZE {
        if let Some(v) = env.nbe_cached(t) {
            return v;
        }
        let v = eval_node(env, venv, t, delta);
        env.nbe_insert(t, v.clone());
        return v;
    }
    eval_node(env, venv, t, delta)
}

fn eval_node(env: &Env, venv: &VEnv, t: &Term, delta: Delta) -> VRc {
    let eval = |venv: &VEnv, t: &Term| eval(env, venv, t, delta);
    match t.data() {
        TermData::Rel(i) => match venv.get(*i) {
            Some(v) => v.clone(),
            None => neutral(NHead::Free(i - venv.len())),
        },
        TermData::Sort(s) => TermRc::new(Value::Sort(*s)),
        TermData::Const(n) => match env.unfold(n) {
            Some(body) if delta == Delta::Glue => TermRc::new(Value::Glued(Glue {
                body: body.clone(),
                spine: Vec::new(),
                unfolded: OnceLock::new(),
            })),
            Some(body) => {
                env.tally(|s| s.delta_steps += 1);
                eval(&VEnv::nil(), body)
            }
            None => {
                env.note_stuck_const(n);
                neutral(NHead::Const(n.clone()))
            }
        },
        TermData::Ind(n) => TermRc::new(Value::IndApp(n.clone(), Vec::new())),
        TermData::Construct(n, j) => TermRc::new(Value::Construct(n.clone(), *j, Vec::new())),
        TermData::App(h, args) => {
            let f = eval(venv, h);
            let vargs: Vec<VRc> = args.iter().map(|a| eval(venv, a)).collect();
            vapp_many(env, f, vargs)
        }
        TermData::Lambda(b, body) => TermRc::new(Value::Lambda(
            b.name.clone(),
            eval(venv, &b.ty),
            Closure {
                env: venv.clone(),
                body: body.clone(),
                delta,
            },
        )),
        TermData::Pi(b, body) => TermRc::new(Value::Pi(
            b.name.clone(),
            eval(venv, &b.ty),
            Closure {
                env: venv.clone(),
                body: body.clone(),
                delta,
            },
        )),
        TermData::Let(b, v, body) => {
            env.tally(|s| s.zeta_steps += 1);
            let _ = b;
            let vv = eval(venv, v);
            eval(&venv.push(vv), body)
        }
        TermData::Elim(e) => {
            let params: Vec<VRc> = e.params.iter().map(|p| eval(venv, p)).collect();
            let motive = eval(venv, &e.motive);
            let cases: Vec<VRc> = e.cases.iter().map(|c| eval(venv, c)).collect();
            let scrut = eval(venv, &e.scrutinee);
            velim(env, &e.ind, params, motive, cases, scrut)
        }
    }
}

/// Applies `f` to `args` at the value level, β-reducing through closures.
/// Once the head cannot β-reduce — a constructor, family, glued constant,
/// neutral or ill-typed head — every remaining argument joins its spine in
/// one allocation, instead of one intermediate value per argument.
fn vapp_many(env: &Env, mut f: VRc, args: Vec<VRc>) -> VRc {
    let mut args = args.into_iter();
    while let Value::Lambda(_, _, clo) = &*f {
        let Some(a) = args.next() else {
            return f;
        };
        env.tally(|s| s.beta_steps += 1);
        f = clo.apply(env, a);
    }
    if args.len() == 0 {
        return f;
    }
    let extend = |spine: &[VRc]| -> Vec<VRc> {
        if spine.is_empty() {
            return args.collect();
        }
        let mut out = Vec::with_capacity(spine.len() + args.len());
        out.extend_from_slice(spine);
        out.extend(args);
        out
    };
    TermRc::new(match &*f {
        Value::Lambda(..) => unreachable!("β-redexes are reduced above"),
        Value::Construct(n, j, spine) => Value::Construct(n.clone(), *j, extend(spine)),
        Value::IndApp(n, spine) => Value::IndApp(n.clone(), extend(spine)),
        Value::Glued(g) => Value::Glued(Glue {
            body: g.body.clone(),
            spine: extend(&g.spine),
            unfolded: OnceLock::new(),
        }),
        Value::Neutral(head, spine) => Value::Neutral(clone_head(head), extend(spine)),
        // Ill-typed application (sort/Pi head): keep it stuck, like whnf.
        Value::Sort(_) | Value::Pi(_, _, _) => Value::Neutral(NHead::Stuck(f.clone()), extend(&[])),
    })
}

/// Unfolds glued values until the head is not a transparent constant; any
/// other value is returned as is. Each glued value's unfolding is computed
/// once (one δ-step) and shared by every later force; forced bodies
/// evaluate eagerly.
fn force(env: &Env, v: &VRc) -> VRc {
    let mut v = v.clone();
    while let Value::Glued(g) = &*v {
        let unfolded = g.unfolded.get_or_init(|| {
            env.tally(|s| s.delta_steps += 1);
            let head = eval(env, &VEnv::nil(), &g.body, Delta::Unfold);
            vapp_many(env, head, g.spine.clone())
        });
        v = unfolded.clone();
    }
    v
}

fn clone_head(h: &NHead) -> NHead {
    match h {
        NHead::Local(l) => NHead::Local(*l),
        NHead::Free(i) => NHead::Free(*i),
        NHead::Const(n) => NHead::Const(n.clone()),
        NHead::Elim(e) => NHead::Elim(e.clone()),
        NHead::Stuck(v) => NHead::Stuck(v.clone()),
    }
}

/// Eliminator application at the value level: ι-reduces when the (forced)
/// scrutinee is a fully applied constructor of the right family (mirroring
/// `InductiveDecl::iota_reduce`, with value-level induction hypotheses);
/// otherwise builds a stuck neutral. Failed family lookups are recorded via
/// [`Env::note_stuck_ind`], exactly like the whnf path.
fn velim(
    env: &Env,
    ind: &GlobalName,
    params: Vec<VRc>,
    motive: VRc,
    cases: Vec<VRc>,
    scrut: VRc,
) -> VRc {
    if let Value::Construct(cn, j, cargs) = &*force(env, &scrut) {
        let decl = match env.inductive(cn) {
            Ok(d) => Some(d),
            Err(_) => {
                env.note_stuck_ind(cn);
                None
            }
        };
        if let Some(decl) = decl {
            if cn == ind {
                let p = decl.nparams();
                if let Some(ctor) = decl.ctors.get(*j) {
                    if cargs.len() == p + ctor.args.len() && cases.len() > *j {
                        env.tally(|s| s.iota_steps += 1);
                        let flags = decl.recursive_flags(*j);
                        let fields = &cargs[p..];
                        let mut actual: Vec<VRc> = Vec::with_capacity(fields.len() * 2);
                        for (k, v) in fields.iter().enumerate() {
                            actual.push(v.clone());
                            if flags[k] {
                                actual.push(velim(
                                    env,
                                    ind,
                                    params.clone(),
                                    motive.clone(),
                                    cases.clone(),
                                    v.clone(),
                                ));
                            }
                        }
                        return vapp_many(env, cases[*j].clone(), actual);
                    }
                }
            }
        }
    }
    neutral(NHead::Elim(TermRc::new(ElimVal {
        ind: ind.clone(),
        params,
        motive,
        cases,
        scrutinee: scrut,
    })))
}

/// Decides `t ≡ u` (or `t ≤ u` with `leq`) by evaluating both sides with
/// glued constants and comparing the values. The crate-facing entry points
/// are [`crate::conv::conv`] / [`crate::conv::conv_leq`], which add the
/// syntactic fast path and the `(TermId, TermId)` memo table.
pub(crate) fn conv_terms(env: &Env, t: &Term, u: &Term, leq: bool) -> bool {
    let venv = VEnv::nil();
    let a = eval(env, &venv, t, Delta::Glue);
    let b = eval(env, &venv, u, Delta::Glue);
    Conv {
        env,
        retried: HashMap::new(),
    }
    .val(0, &a, &b, leq)
}

/// The state of one conversion query.
struct Conv<'e> {
    env: &'e Env,
    /// The failure memo: verdicts of glued same-head pairs whose spine
    /// attempt failed. An entry holds both values, so neither address can
    /// be reused while the query runs.
    retried: HashMap<PairKey, (VRc, VRc, bool)>,
}

/// A failure-memo key: the two values' addresses, `lvl` and `leq`.
type PairKey = (usize, usize, usize, bool);

impl Conv<'_> {
    /// Value comparison at fresh-variable depth `lvl`. The `leq` flag makes
    /// sorts compare by `≤` and propagates only through Pi codomains.
    fn val(&mut self, lvl: usize, a: &VRc, b: &VRc, leq: bool) -> bool {
        if TermRc::ptr_eq(a, b) {
            return true;
        }
        let env = self.env;
        let ok = match (&**a, &**b) {
            (Value::Glued(g1), Value::Glued(g2))
                if g1.body == g2.body && g1.spine.len() == g2.spine.len() =>
            {
                return self.same_head(lvl, (a, &g1.spine), (b, &g2.spine), leq);
            }
            // A head clash, or a constant against anything else: unfold.
            (Value::Glued(_), _) => return self.val(lvl, &force(env, a), b, leq),
            (_, Value::Glued(_)) => return self.val(lvl, a, &force(env, b), leq),
            (Value::Sort(s1), Value::Sort(s2)) => {
                if leq {
                    s1.leq(*s2)
                } else {
                    s1 == s2
                }
            }
            (Value::Pi(_, t1, c1), Value::Pi(_, t2, c2)) => {
                self.val(lvl, t1, t2, false)
                    && (c1.same_function(c2) || {
                        let fresh = neutral(NHead::Local(lvl));
                        let b1 = c1.apply(env, fresh.clone());
                        let b2 = c2.apply(env, fresh);
                        self.val(lvl + 1, &b1, &b2, leq)
                    })
            }
            (Value::Lambda(_, t1, c1), Value::Lambda(_, t2, c2)) => {
                // Domains are compared to match the rewriting oracle (which
                // requires convertible binder types on lambdas, not just Pis).
                self.val(lvl, t1, t2, false)
                    && (c1.same_function(c2) || {
                        let fresh = neutral(NHead::Local(lvl));
                        let b1 = c1.apply(env, fresh.clone());
                        let b2 = c2.apply(env, fresh);
                        self.val(lvl + 1, &b1, &b2, false)
                    })
            }
            // η: fun x => body  ≡  u  when  body ≡ u x.
            (Value::Lambda(_, _, c1), _) => {
                let fresh = neutral(NHead::Local(lvl));
                let b1 = c1.apply(env, fresh.clone());
                let b2 = vapp_many(env, b.clone(), vec![fresh]);
                self.val(lvl + 1, &b1, &b2, false)
            }
            (_, Value::Lambda(_, _, c2)) => {
                let fresh = neutral(NHead::Local(lvl));
                let b1 = vapp_many(env, a.clone(), vec![fresh.clone()]);
                let b2 = c2.apply(env, fresh);
                self.val(lvl + 1, &b1, &b2, false)
            }
            (Value::Construct(n1, j1, a1), Value::Construct(n2, j2, a2)) => {
                n1 == n2 && j1 == j2 && self.spines(lvl, a1, a2)
            }
            (Value::IndApp(n1, a1), Value::IndApp(n2, a2)) => n1 == n2 && self.spines(lvl, a1, a2),
            (Value::Neutral(h1, s1), Value::Neutral(h2, s2)) => {
                self.head(lvl, h1, h2) && self.spines(lvl, s1, s2)
            }
            _ => false,
        };
        // Surjective pairing (definitional η for single-constructor,
        // non-recursive inductives — Coq's "primitive records"):
        // `C (proj₀ z) … (projₙ z) ≡ z`.
        ok || self.record_eta(lvl, a, b) || self.record_eta(lvl, b, a)
    }

    /// Two glued values with the same head and spine length: equal spines
    /// decide without unfolding; otherwise the unfoldings decide, and the
    /// failure memo keeps that verdict so the spines are never tried again.
    fn same_head(
        &mut self,
        lvl: usize,
        (a, s1): (&VRc, &[VRc]),
        (b, s2): (&VRc, &[VRc]),
        leq: bool,
    ) -> bool {
        let key = (
            TermRc::as_ptr(a) as usize,
            TermRc::as_ptr(b) as usize,
            lvl,
            leq,
        );
        if let Some(&(_, _, verdict)) = self.retried.get(&key) {
            return verdict;
        }
        if self.spines(lvl, s1, s2) {
            return true;
        }
        let verdict = self.val(lvl, &force(self.env, a), &force(self.env, b), leq);
        self.retried.insert(key, (a.clone(), b.clone(), verdict));
        verdict
    }

    fn spines(&mut self, lvl: usize, a: &[VRc], b: &[VRc]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| self.val(lvl, x, y, false))
    }

    fn head(&mut self, lvl: usize, a: &NHead, b: &NHead) -> bool {
        match (a, b) {
            (NHead::Local(i), NHead::Local(j)) => i == j,
            (NHead::Free(i), NHead::Free(j)) => i == j,
            // Both δ-blocked: equal only by name (the rewriting oracle's
            // rule for opaque/bodyless constants).
            (NHead::Const(n1), NHead::Const(n2)) => n1 == n2,
            (NHead::Elim(e1), NHead::Elim(e2)) => {
                e1.ind == e2.ind
                    && self.spines(lvl, &e1.params, &e2.params)
                    && self.val(lvl, &e1.motive, &e2.motive, false)
                    && self.spines(lvl, &e1.cases, &e2.cases)
                    && self.val(lvl, &e1.scrutinee, &e2.scrutinee, false)
            }
            (NHead::Stuck(v1), NHead::Stuck(v2)) => self.val(lvl, v1, v2, false),
            _ => false,
        }
    }

    /// Does `t = Construct(I, 0) params (proj₀ z) … (projₙ z)` for a
    /// record-like inductive `I`, with `z ≡ u`? The value-level port of the
    /// rewriting oracle's record-η check: each (forced) field must be a stuck
    /// eliminator of `I` whose single case projects field `i` (checked by
    /// applying the case value to fresh levels), with agreeing parameters
    /// and a common scrutinee.
    fn record_eta(&mut self, lvl: usize, t: &VRc, u: &VRc) -> bool {
        let env = self.env;
        let Value::Construct(ind, 0, args) = &**t else {
            return false;
        };
        let Ok(decl) = env.inductive(ind) else {
            env.note_stuck_ind(ind);
            return false;
        };
        if decl.ctors.len() != 1 || decl.nindices() != 0 {
            return false;
        }
        let p = decl.nparams();
        let nfields = decl.ctors[0].args.len();
        if nfields == 0 || args.len() != p + nfields {
            return false;
        }
        // No recursive fields (otherwise η is unsound for this check).
        if decl.recursive_flags(0).iter().any(|&r| r) {
            return false;
        }
        let mut scrutinee: Option<VRc> = None;
        for i in 0..nfields {
            let field = force(env, &args[p + i]);
            let Value::Neutral(NHead::Elim(e), spine) = &*field else {
                return false;
            };
            if !spine.is_empty() || &e.ind != ind || e.cases.len() != 1 {
                return false;
            }
            // The case must select field i: applied to fresh levels
            // lvl..lvl+nfields it must come back as the i-th one.
            let fresh: Vec<VRc> = (0..nfields)
                .map(|k| neutral(NHead::Local(lvl + k)))
                .collect();
            let selected = force(env, &vapp_many(env, e.cases[0].clone(), fresh));
            match &*selected {
                Value::Neutral(NHead::Local(l), sp) if *l == lvl + i && sp.is_empty() => {}
                _ => return false,
            }
            // Parameters must agree with the constructor's.
            if e.params.len() != p
                || !e
                    .params
                    .iter()
                    .zip(args.iter())
                    .all(|(x, y)| self.val(lvl, x, y, false))
            {
                return false;
            }
            match &scrutinee {
                None => scrutinee = Some(e.scrutinee.clone()),
                Some(s) => {
                    if !self.val(lvl, s, &e.scrutinee, false) {
                        return false;
                    }
                }
            }
        }
        match scrutinee {
            Some(s) => self.val(lvl, &s, u, false),
            None => false,
        }
    }
}

/// Reads a value back into a term at fresh-variable depth `lvl` (readback /
/// quotation). Glued values are forced, so the result is a δ-normal form.
/// Fresh levels become de Bruijn indices; ambient free variables keep their
/// indices, shifted under the quoted binders.
fn quote(env: &Env, lvl: usize, v: &VRc) -> Term {
    match &**v {
        Value::Sort(s) => Term::sort(*s),
        Value::Lambda(name, ty, clo) => {
            let fresh = neutral(NHead::Local(lvl));
            let body = clo.apply(env, fresh);
            Term::new(TermData::Lambda(
                Binder {
                    name: name.clone(),
                    ty: quote(env, lvl, ty),
                },
                quote(env, lvl + 1, &body),
            ))
        }
        Value::Pi(name, ty, clo) => {
            let fresh = neutral(NHead::Local(lvl));
            let body = clo.apply(env, fresh);
            Term::new(TermData::Pi(
                Binder {
                    name: name.clone(),
                    ty: quote(env, lvl, ty),
                },
                quote(env, lvl + 1, &body),
            ))
        }
        Value::Construct(n, j, args) => Term::app(
            Term::construct(n.clone(), *j),
            args.iter().map(|a| quote(env, lvl, a)),
        ),
        Value::IndApp(n, args) => Term::app(
            Term::ind(n.clone()),
            args.iter().map(|a| quote(env, lvl, a)),
        ),
        Value::Glued(_) => quote(env, lvl, &force(env, v)),
        Value::Neutral(head, spine) => {
            let h = match head {
                NHead::Local(l) => Term::rel(lvl - 1 - l),
                NHead::Free(i) => Term::rel(i + lvl),
                NHead::Const(n) => Term::const_(n.clone()),
                NHead::Elim(e) => Term::elim(ElimData {
                    ind: e.ind.clone(),
                    params: e.params.iter().map(|p| quote(env, lvl, p)).collect(),
                    motive: quote(env, lvl, &e.motive),
                    cases: e.cases.iter().map(|c| quote(env, lvl, c)).collect(),
                    scrutinee: quote(env, lvl, &e.scrutinee),
                }),
                NHead::Stuck(v) => quote(env, lvl, v),
            };
            Term::app(h, spine.iter().map(|a| quote(env, lvl, a)))
        }
    }
}

/// Full βδιζ normal form via evaluate-then-read-back, the body of
/// [`crate::reduce::normalize`]. `tests/kernel_properties.rs` pins its
/// agreement with the rewriting oracle on well-typed terms.
pub(crate) fn normalize(env: &Env, t: &Term) -> Term {
    let v = eval(env, &VEnv::nil(), t, Delta::Unfold);
    quote(env, 0, &v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{conv, conv_leq};
    use crate::inductive::{CtorDecl, InductiveDecl};

    fn env_with_nat() -> Env {
        let mut env = Env::new();
        env.declare_inductive(InductiveDecl {
            name: "nat".into(),
            params: vec![],
            indices: vec![],
            sort: Sort::Set,
            ctors: vec![
                CtorDecl {
                    name: "O".into(),
                    args: vec![],
                    result_indices: vec![],
                },
                CtorDecl {
                    name: "S".into(),
                    args: vec![Binder::new("n", Term::ind("nat"))],
                    result_indices: vec![],
                },
            ],
        })
        .unwrap();
        env
    }

    fn nat_lit(n: u64) -> Term {
        let mut t = Term::construct("nat", 0);
        for _ in 0..n {
            t = Term::app(Term::construct("nat", 1), [t]);
        }
        t
    }

    fn add() -> Term {
        Term::lambda(
            "n",
            Term::ind("nat"),
            Term::lambda(
                "m",
                Term::ind("nat"),
                Term::elim(ElimData {
                    ind: "nat".into(),
                    params: vec![],
                    motive: Term::lambda("_", Term::ind("nat"), Term::ind("nat")),
                    cases: vec![
                        Term::rel(0),
                        Term::lambda(
                            "n",
                            Term::ind("nat"),
                            Term::lambda(
                                "ih",
                                Term::ind("nat"),
                                Term::app(Term::construct("nat", 1), [Term::rel(0)]),
                            ),
                        ),
                    ],
                    scrutinee: Term::rel(1),
                }),
            ),
        )
    }

    #[test]
    fn nbe_computes_addition() {
        let mut env = env_with_nat();
        env.define(
            "add",
            Term::arrow(
                Term::ind("nat"),
                Term::arrow(Term::ind("nat"), Term::ind("nat")),
            ),
            add(),
        )
        .unwrap();
        let call = Term::app(Term::const_("add"), [nat_lit(2), nat_lit(3)]);
        assert_eq!(normalize(&env, &call), nat_lit(5));
        assert!(conv(&env, &call, &nat_lit(5)));
        assert!(!conv(&env, &call, &nat_lit(4)));
    }

    #[test]
    fn open_terms_compare_by_free_variable() {
        let env = env_with_nat();
        // #3 ≡ #3 but #3 ≢ #4, even though both are open.
        assert!(conv(&env, &Term::rel(3), &Term::rel(3)));
        assert!(!conv(&env, &Term::rel(3), &Term::rel(4)));
        // An open application of a stuck head.
        let t = Term::app(Term::construct("nat", 1), [Term::rel(0)]);
        let u = Term::app(Term::construct("nat", 1), [Term::rel(1)]);
        assert!(!conv(&env, &t, &u));
    }

    #[test]
    fn eta_against_stuck_neutral() {
        let mut env = env_with_nat();
        env.assume("f", Term::arrow(Term::ind("nat"), Term::ind("nat")))
            .unwrap();
        let etad = Term::lambda(
            "x",
            Term::ind("nat"),
            Term::app(Term::const_("f"), [Term::rel(0)]),
        );
        assert!(conv(&env, &etad, &Term::const_("f")));
        assert!(conv_leq(&env, &etad, &Term::const_("f")));
    }

    /// `K := fun (_ : nat) => O`: its spine never matters.
    fn env_with_k() -> Env {
        let mut env = env_with_nat();
        env.define(
            "K",
            Term::arrow(Term::ind("nat"), Term::ind("nat")),
            Term::lambda("_", Term::ind("nat"), nat_lit(0)),
        )
        .unwrap();
        env
    }

    fn k(arg: Term) -> Term {
        Term::app(Term::const_("K"), [arg])
    }

    #[test]
    fn spine_mismatch_falls_back_to_the_unfoldings() {
        // `K O` and `K (S O)` share a head but not a spine: the mismatch
        // must force both sides, not decide the query.
        let env = env_with_k();
        let (a, b) = (k(nat_lit(0)), k(nat_lit(1)));
        assert!(conv(&env, &a, &b));
        assert!(conv_leq(&env, &a, &b));
        assert!(conv(&env, &a, &nat_lit(0)));
        // Unequal unfoldings still differ after the fallback.
        assert!(!conv(&env, &k(nat_lit(0)), &nat_lit(1)));
    }

    #[test]
    fn opaque_constants_compare_by_name_and_spine_only() {
        let mut env = env_with_k();
        env.set_opaque(&"K".into(), true).unwrap();
        let (a, b) = (k(nat_lit(0)), k(nat_lit(1)));
        assert!(!conv(&env, &a, &b));
        assert!(!conv_leq(&env, &a, &b));
        assert!(conv(&env, &a, &a));
        // Against itself through a β-redex, so NbE builds both sides.
        let redex = Term::app(
            Term::lambda("n", Term::ind("nat"), k(Term::rel(0))),
            [nat_lit(0)],
        );
        assert!(conv(&env, &redex, &a));
        assert!(conv_leq(&env, &redex, &a));
        assert!(!conv(&env, &redex, &b));
    }

    #[test]
    fn failed_spine_attempts_are_not_retried() {
        // `f^k O` against `f^k (S O)` with `f := fun n => S n`: every
        // same-head spine attempt fails, and each one's fallback meets the
        // inner pair again. Without the failure memo that is 2^k spine
        // attempts; with it the query is linear, so k = 64 answers at once.
        use std::sync::mpsc;
        use std::time::Duration;

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut env = env_with_nat();
            let nat_to_nat = Term::arrow(Term::ind("nat"), Term::ind("nat"));
            let succ = Term::lambda(
                "n",
                Term::ind("nat"),
                Term::app(Term::construct("nat", 1), [Term::rel(0)]),
            );
            env.define("f", nat_to_nat, succ).unwrap();
            let tower = |base: Term| (0..64).fold(base, |t, _| Term::app(Term::const_("f"), [t]));
            let (a, b) = (tower(nat_lit(0)), tower(nat_lit(1)));
            let _ = tx.send((conv(&env, &a, &b), conv_leq(&env, &a, &b)));
        });
        let verdicts = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("f^64 O against f^64 (S O) did not answer within 30 s");
        assert_eq!(verdicts, (false, false));
    }

    #[test]
    fn forced_unfoldings_are_counted_once() {
        // Equal spines decide without δ; a mismatch forces each side once.
        let env = env_with_k();
        let redex = Term::app(
            Term::lambda("n", Term::ind("nat"), k(Term::rel(0))),
            [Term::rel(0)],
        );
        env.reset_kernel_stats();
        assert!(conv(&env, &redex, &k(Term::rel(0))));
        assert!(conv_leq(&env, &redex, &k(Term::rel(0))));
        assert_eq!(env.kernel_stats().delta_steps, 0, "equal spines unfolded");
        assert!(conv(&env, &k(Term::rel(0)), &k(Term::rel(1))));
        assert_eq!(env.kernel_stats().delta_steps, 2);
    }

    #[test]
    fn leq_propagates_through_pi_codomains_only() {
        let env = Env::new();
        // ∀ (A : Set), Prop  ≤  ∀ (A : Set), Type(0)
        let a = Term::pi("A", Term::set(), Term::prop());
        let b = Term::pi("A", Term::set(), Term::type_(0));
        assert!(conv_leq(&env, &a, &b));
        assert!(!conv_leq(&env, &b, &a));
        // Domains stay invariant.
        let c = Term::pi("A", Term::prop(), Term::prop());
        assert!(!conv_leq(&env, &a, &c));
    }
}
