//! The type checker for CIC_ω.
//!
//! Bidirectional-ish: [`infer`] synthesizes a type; [`check`] compares an
//! inferred type against an expected one up to cumulativity.
//!
//! **One substitution per application.** The application rule peels the
//! head type's syntactic products without substituting into the codomain.
//! Each argument is checked against its domain instantiated with the
//! earlier arguments, and the pending arguments are substituted into the
//! codomain once, simultaneously ([`subst_group`]). They are flushed early,
//! followed by a `whnf`, only when the type is not syntactically a product:
//! a δ-constant such as `Arrow nat nat`, or a variable that becomes a
//! product once substituted. Substituting after every argument built one
//! intermediate codomain per argument, which made the application rule the
//! kernel's main source of interner traffic. The result, every error and
//! every `whnf` call that reduces anything are the same as with one
//! substitution per argument.
//!
//! Documented simplifications relative to Coq (none of which affect the
//! paper's development): no elimination-sort restrictions (large elimination
//! is allowed everywhere, which subsumes Coq's singleton-elimination rule
//! used for `eq_rect`), and constructor argument sorts are not constrained
//! by the family's sort.

use crate::conv::{conv, conv_leq};
use crate::env::Env;
use crate::error::{KernelError, Result};
use crate::inductive::{instantiate_telescope, telescope_rels};
use crate::reduce::whnf;
use crate::subst::{beta_apply, lift, subst1, subst_group};
use crate::term::{Term, TermData};
use crate::universe::Sort;

/// A typing context: a stack of variable types. Entry `i` (counting from the
/// innermost) is returned lifted into the full context.
#[derive(Clone, Debug, Default)]
pub struct Ctx {
    tys: Vec<Term>,
}

impl Ctx {
    /// The empty context.
    pub fn new() -> Self {
        Ctx::default()
    }

    /// Number of variables in scope.
    pub fn depth(&self) -> usize {
        self.tys.len()
    }

    /// Pushes the type of a new innermost variable.
    pub fn push(&mut self, ty: Term) {
        self.tys.push(ty);
    }

    /// Pops the innermost variable.
    pub fn pop(&mut self) {
        self.tys.pop();
    }

    /// The type of `Rel(i)`, lifted into the current context.
    pub fn lookup(&self, i: usize) -> Result<Term> {
        let depth = self.depth();
        if i >= depth {
            return Err(KernelError::UnboundRel { index: i, depth });
        }
        Ok(lift(&self.tys[depth - 1 - i], i + 1))
    }

    /// The raw (unlifted) entries, innermost last.
    pub fn entries(&self) -> &[Term] {
        &self.tys
    }
}

/// Infers the type of `t` in context `ctx`.
///
/// Closed terms go through the environment's per-generation type memo: a
/// closed term's type cannot mention `ctx`, so the judgement is reusable in
/// every context, and hash-consed sharing (repeated literals, shared
/// numeral suffixes) collapses to one inference per distinct `TermId`.
pub fn infer(env: &Env, ctx: &mut Ctx, t: &Term) -> Result<Term> {
    if t.is_closed() {
        if let Some(ty) = env.infer_cached(t) {
            env.tally(|s| s.infer_calls += 1);
            return Ok(ty);
        }
        let ty = infer_node(env, ctx, t)?;
        env.infer_insert(t, ty.clone());
        return Ok(ty);
    }
    infer_node(env, ctx, t)
}

fn infer_node(env: &Env, ctx: &mut Ctx, t: &Term) -> Result<Term> {
    env.tally(|s| s.infer_calls += 1);
    match t.data() {
        TermData::Rel(i) => ctx.lookup(*i),
        TermData::Sort(s) => Ok(Term::sort(s.succ())),
        TermData::Const(_) | TermData::Ind(_) | TermData::Construct(_, _) => env.global_type(t),
        TermData::App(h, args) => {
            // Before argument `i`, `ty` lives under one binder per argument
            // in `args[from..i]`: products peeled without substituting into
            // the codomain. Those arguments are substituted simultaneously,
            // once: at the end, or when `ty` is not syntactically a product
            // and has to be reduced to expose one.
            let mut ty = infer(env, ctx, h)?;
            let mut from = 0;
            for (i, arg) in args.iter().enumerate() {
                if !matches!(ty.data(), TermData::Pi(..)) {
                    ty = whnf(env, &subst_group(&ty, 0, &args[from..i]));
                    from = i;
                }
                let TermData::Pi(b, codomain) = ty.data() else {
                    return Err(KernelError::NotAFunction {
                        term: h.clone(),
                        ty,
                    });
                };
                check(env, ctx, arg, &subst_group(&b.ty, 0, &args[from..i]))?;
                ty = codomain.clone();
            }
            Ok(subst_group(&ty, 0, &args[from..]))
        }
        TermData::Lambda(b, body) => {
            infer_sort(env, ctx, &b.ty)?;
            ctx.push(b.ty.clone());
            let body_ty = infer(env, ctx, body);
            ctx.pop();
            Ok(Term::pi(b.name.clone(), b.ty.clone(), body_ty?))
        }
        TermData::Pi(b, body) => {
            let s1 = infer_sort(env, ctx, &b.ty)?;
            ctx.push(b.ty.clone());
            let s2 = infer_sort(env, ctx, body);
            ctx.pop();
            Ok(Term::sort(Sort::product(s1, s2?)))
        }
        TermData::Let(b, v, body) => {
            infer_sort(env, ctx, &b.ty)?;
            check(env, ctx, v, &b.ty)?;
            // The type of `let x := v in body` is the type of `body[v/x]`.
            infer(env, ctx, &subst1(body, v))
        }
        TermData::Elim(e) => infer_elim(env, ctx, e),
    }
}

fn infer_elim(env: &Env, ctx: &mut Ctx, e: &crate::term::ElimData) -> Result<Term> {
    let decl = env.inductive(&e.ind)?;
    let p = decl.nparams();
    let nidx = decl.nindices();
    if e.params.len() != p {
        return Err(KernelError::IllFormedElim {
            ind: e.ind.clone(),
            reason: format!("expected {} parameters, got {}", p, e.params.len()),
        });
    }
    if e.cases.len() != decl.ctors.len() {
        return Err(KernelError::IllFormedElim {
            ind: e.ind.clone(),
            reason: format!("expected {} cases, got {}", decl.ctors.len(), e.cases.len()),
        });
    }
    // Check the parameters against the (incrementally instantiated)
    // parameter telescope.
    {
        let mut checked: Vec<Term> = Vec::with_capacity(p);
        for (i, b) in decl.params.iter().enumerate() {
            let expected = crate::inductive::subst_group(&b.ty, 0, &checked[..i]);
            check(env, ctx, &e.params[i], &expected)?;
            checked.push(e.params[i].clone());
        }
    }

    // Scrutinee: must be `Ind params indices`.
    let scrut_ty = infer(env, ctx, &e.scrutinee)?;
    let scrut_ty_w = whnf(env, &scrut_ty);
    let (ind_name, ind_args) =
        scrut_ty_w
            .as_ind_app()
            .ok_or_else(|| KernelError::NotAnInductive {
                term: e.scrutinee.clone(),
                ty: scrut_ty_w.clone(),
            })?;
    if ind_name != &e.ind || ind_args.len() != p + nidx {
        return Err(KernelError::IllFormedElim {
            ind: e.ind.clone(),
            reason: format!(
                "scrutinee has type `{scrut_ty_w}`, not an application of `{}`",
                e.ind
            ),
        });
    }
    for (given, actual) in e.params.iter().zip(ind_args.iter()) {
        if !conv(env, given, actual) {
            return Err(KernelError::IllFormedElim {
                ind: e.ind.clone(),
                reason: format!(
                    "eliminator parameter `{given}` does not match scrutinee parameter `{actual}`"
                ),
            });
        }
    }
    let index_values: Vec<Term> = ind_args[p..].to_vec();

    // Motive: must be convertible to `∀ indices, Ind params idxs → s`.
    let motive_ty = infer(env, ctx, &e.motive)?;
    check_motive_shape(env, ctx, &e.ind, decl, &e.params, &motive_ty)?;

    // Cases.
    for (j, case) in e.cases.iter().enumerate() {
        let expected = decl.case_type(j, &e.params, &e.motive)?;
        check(env, ctx, case, &expected).map_err(|err| match err {
            KernelError::TypeMismatch {
                term,
                expected,
                found,
            } => KernelError::IllFormedElim {
                ind: e.ind.clone(),
                reason: format!(
                    "case #{j} `{term}` has type `{found}` but the motive requires `{expected}`"
                ),
            },
            other => other,
        })?;
    }

    Ok(beta_apply(
        &e.motive,
        &index_values
            .into_iter()
            .chain([e.scrutinee.clone()])
            .collect::<Vec<_>>(),
    ))
}

/// Checks that `motive_ty` has the shape
/// `∀ (i₁:I₁)…(iₖ:Iₖ) (x : Ind params i₁…iₖ), s`.
fn check_motive_shape(
    env: &Env,
    ctx: &mut Ctx,
    ind: &crate::name::GlobalName,
    decl: &crate::inductive::InductiveDecl,
    params: &[Term],
    motive_ty: &Term,
) -> Result<()> {
    let nidx = decl.nindices();
    let idx_tele = instantiate_telescope(&decl.indices, params);
    let mut ty = motive_ty.clone();
    let mut pushed = 0usize;
    let fail = |reason: String| KernelError::IllFormedElim {
        ind: ind.clone(),
        reason,
    };
    let mut result = Ok(());
    #[allow(clippy::needless_range_loop)]
    for i in 0..=nidx {
        let ty_w = whnf(env, &ty);
        match ty_w.data() {
            TermData::Pi(b, codomain) => {
                let expected = if i < nidx {
                    // idx_tele[i] is interpreted under the previous index
                    // binders, which is exactly the context we've pushed.
                    idx_tele[i].ty.clone()
                } else {
                    Term::app(
                        Term::ind(ind.clone()),
                        params
                            .iter()
                            .map(|p| lift(p, nidx))
                            .chain(telescope_rels(nidx)),
                    )
                };
                if !conv(env, &b.ty, &expected) {
                    result = Err(fail(format!(
                        "motive domain #{i} is `{}`, expected `{expected}`",
                        b.ty
                    )));
                    break;
                }
                ctx.push(b.ty.clone());
                pushed += 1;
                ty = codomain.clone();
            }
            _ => {
                result = Err(fail(format!(
                    "motive type `{motive_ty}` has fewer than {} products",
                    nidx + 1
                )));
                break;
            }
        }
    }
    if result.is_ok() {
        let final_w = whnf(env, &ty);
        if final_w.as_sort().is_none() {
            result = Err(fail(format!("motive codomain `{final_w}` is not a sort")));
        }
    }
    for _ in 0..pushed {
        ctx.pop();
    }
    result
}

/// Infers `t`'s type and requires it to be a sort (i.e. `t` is a type).
pub fn infer_sort(env: &Env, ctx: &mut Ctx, t: &Term) -> Result<Sort> {
    let ty = infer(env, ctx, t)?;
    let ty_w = whnf(env, &ty);
    ty_w.as_sort().ok_or(KernelError::NotASort {
        term: t.clone(),
        ty: ty_w,
    })
}

/// Checks `t` against `expected` (up to cumulativity).
pub fn check(env: &Env, ctx: &mut Ctx, t: &Term, expected: &Term) -> Result<()> {
    let found = infer(env, ctx, t)?;
    if conv_leq(env, &found, expected) {
        Ok(())
    } else {
        Err(KernelError::TypeMismatch {
            term: t.clone(),
            expected: expected.clone(),
            found,
        })
    }
}

/// Checks that a closed term is a type.
pub fn check_is_type(env: &Env, t: &Term) -> Result<Sort> {
    infer_sort(env, &mut Ctx::new(), t)
}

/// Checks a closed term against a closed expected type.
pub fn check_closed(env: &Env, t: &Term, expected: &Term) -> Result<()> {
    check(env, &mut Ctx::new(), t, expected)
}

/// Infers the type of a closed term.
pub fn infer_closed(env: &Env, t: &Term) -> Result<Term> {
    infer(env, &mut Ctx::new(), t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inductive::{CtorDecl, InductiveDecl};
    use crate::term::{Binder, ElimData};

    fn env_nat() -> Env {
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

    #[test]
    fn identity_function() {
        let env = Env::new();
        let id = Term::lambda(
            "A",
            Term::type_(0),
            Term::lambda("x", Term::rel(0), Term::rel(0)),
        );
        let ty = infer_closed(&env, &id).unwrap();
        let expected = Term::pi(
            "A",
            Term::type_(0),
            Term::pi("x", Term::rel(0), Term::rel(1)),
        );
        assert_eq!(ty, expected);
    }

    #[test]
    fn constructor_types_via_env() {
        let env = env_nat();
        assert_eq!(
            infer_closed(&env, &Term::construct("nat", 0)).unwrap(),
            Term::ind("nat")
        );
        let s_o = Term::app(Term::construct("nat", 1), [Term::construct("nat", 0)]);
        assert_eq!(infer_closed(&env, &s_o).unwrap(), Term::ind("nat"));
    }

    #[test]
    fn elim_types_as_motive_application() {
        let env = env_nat();
        // Elim(O, fun n => nat){O, fun n ih => n} : nat
        let e = Term::elim(ElimData {
            ind: "nat".into(),
            params: vec![],
            motive: Term::lambda("n", Term::ind("nat"), Term::ind("nat")),
            cases: vec![
                Term::construct("nat", 0),
                Term::lambda(
                    "n",
                    Term::ind("nat"),
                    Term::lambda("ih", Term::ind("nat"), Term::rel(1)),
                ),
            ],
            scrutinee: Term::construct("nat", 0),
        });
        assert_eq!(infer_closed(&env, &e).unwrap(), Term::ind("nat"));
    }

    #[test]
    fn elim_rejects_wrong_case_count() {
        let env = env_nat();
        let e = Term::elim(ElimData {
            ind: "nat".into(),
            params: vec![],
            motive: Term::lambda("n", Term::ind("nat"), Term::ind("nat")),
            cases: vec![Term::construct("nat", 0)],
            scrutinee: Term::construct("nat", 0),
        });
        assert!(matches!(
            infer_closed(&env, &e),
            Err(KernelError::IllFormedElim { .. })
        ));
    }

    #[test]
    fn elim_rejects_bad_case_type() {
        let env = env_nat();
        let e = Term::elim(ElimData {
            ind: "nat".into(),
            params: vec![],
            motive: Term::lambda("n", Term::ind("nat"), Term::ind("nat")),
            cases: vec![
                Term::construct("nat", 0),
                // Wrong: successor case must take two arguments.
                Term::construct("nat", 0),
            ],
            scrutinee: Term::construct("nat", 0),
        });
        assert!(infer_closed(&env, &e).is_err());
    }

    #[test]
    fn app_checks_argument_types() {
        let env = env_nat();
        let id_nat = Term::lambda("x", Term::ind("nat"), Term::rel(0));
        let good = Term::app(id_nat.clone(), [Term::construct("nat", 0)]);
        assert!(infer_closed(&env, &good).is_ok());
        let bad = Term::app(id_nat, [Term::set()]);
        assert!(matches!(
            infer_closed(&env, &bad),
            Err(KernelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn unbound_rel_is_an_error() {
        let env = Env::new();
        assert!(matches!(
            infer_closed(&env, &Term::rel(0)),
            Err(KernelError::UnboundRel { .. })
        ));
    }

    /// The application rule without the deferred substitution: reduce the
    /// type, check the argument, substitute it, one argument at a time.
    fn sequential_app_type(env: &Env, h: &Term, args: &[Term]) -> Result<Term> {
        let mut ty = infer_closed(env, h)?;
        for arg in args {
            let ty_w = whnf(env, &ty);
            let TermData::Pi(b, codomain) = ty_w.data() else {
                return Err(KernelError::NotAFunction {
                    term: h.clone(),
                    ty: ty_w,
                });
            };
            check_closed(env, arg, &b.ty)?;
            ty = subst1(codomain, arg);
        }
        Ok(ty)
    }

    #[test]
    fn application_types_match_the_sequential_rule() {
        let mut env = env_nat();
        let nat = Term::ind("nat");
        let nat_to_nat = Term::arrow(nat.clone(), nat.clone());
        let ty0 = Term::type_(0);
        // `h`'s second product appears only once `T` is substituted.
        env.assume("h", Term::pi("T", ty0.clone(), Term::rel(0)))
            .unwrap();
        // `Arrow nat nat` hides `g`'s product behind δ.
        env.define(
            "Arrow",
            Term::arrow(ty0.clone(), Term::arrow(ty0.clone(), ty0.clone())),
            Term::lambda(
                "A",
                ty0.clone(),
                Term::lambda("B", ty0.clone(), Term::arrow(Term::rel(1), Term::rel(0))),
            ),
        )
        .unwrap();
        env.assume(
            "g",
            Term::app(Term::const_("Arrow"), [nat.clone(), nat.clone()]),
        )
        .unwrap();
        // `id (nat -> nat) S O` is over-applied through its own codomain.
        env.define(
            "id",
            Term::pi("A", ty0.clone(), Term::arrow(Term::rel(0), Term::rel(0))),
            Term::lambda("A", ty0, Term::lambda("x", Term::rel(0), Term::rel(0))),
        )
        .unwrap();
        let (o, s) = (Term::construct("nat", 0), Term::construct("nat", 1));
        let cases = [
            (Term::const_("h"), vec![nat_to_nat.clone(), o.clone()], true),
            (Term::const_("g"), vec![o.clone()], true),
            (
                Term::const_("id"),
                vec![nat_to_nat.clone(), s.clone(), o.clone()],
                true,
            ),
            (
                Term::const_("h"),
                vec![nat_to_nat, o.clone(), o.clone()],
                false,
            ),
            (Term::const_("g"), vec![o.clone(), o.clone()], false),
            (Term::const_("id"), vec![nat.clone(), o.clone(), s], false),
        ];
        for (h, args, well_typed) in cases {
            let fast = infer_closed(&env, &Term::app(h.clone(), args.clone()));
            let reference = sequential_app_type(&env, &h, &args);
            match (&fast, &reference) {
                (Ok(a), Ok(b)) => {
                    assert!(well_typed);
                    assert_eq!(a, &nat, "{h} {args:?}");
                    assert!(a.same_allocation(b), "{h} {args:?}: {a} vs {b}");
                }
                (
                    Err(KernelError::NotAFunction { term: t1, ty: a }),
                    Err(KernelError::NotAFunction { term: t2, ty: b }),
                ) => {
                    assert!(!well_typed);
                    assert_eq!(t1, t2);
                    assert_eq!(a, &nat, "{h} {args:?}");
                    assert!(a.same_allocation(b), "{h} {args:?}: {a} vs {b}");
                }
                _ => panic!("{h} {args:?}: {fast:?} vs {reference:?}"),
            }
        }
    }

    #[test]
    fn let_type_substitutes() {
        let env = env_nat();
        let t = Term::let_(
            "x",
            Term::ind("nat"),
            Term::construct("nat", 0),
            Term::app(Term::construct("nat", 1), [Term::rel(0)]),
        );
        assert_eq!(infer_closed(&env, &t).unwrap(), Term::ind("nat"));
    }
}
