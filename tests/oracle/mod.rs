//! The kernel's differential oracle: the whnf-rewriting normaliser and
//! conversion checker that normalization by evaluation replaced
//! (DESIGN.md §15), kept as an executable specification outside the
//! kernel.
//!
//! It is written against the kernel's public API only and keeps no memo:
//! it reduces with its own rewriting [`whnf`] and syntactic ι
//! ([`iota_reduce`]), never reads or writes the `Env` memo tables, and
//! tallies no statistics. So every verdict it gives was computed here, and
//! cannot be one the checker under test just cached in the same
//! environment.

use pumpkin_pi::pumpkin_kernel::env::Env;
use pumpkin_pi::pumpkin_kernel::inductive::InductiveDecl;
use pumpkin_pi::pumpkin_kernel::subst::{beta_apply, lift, subst1};
use pumpkin_pi::pumpkin_kernel::term::{Binder, ElimData, Term, TermData};

/// Weak head normal form by rewriting: β, δ (transparent constants), ι
/// and ζ at the head until none applies. Ill-formed redexes stay stuck.
pub fn whnf(env: &Env, t: &Term) -> Term {
    let mut t = t.clone();
    loop {
        let (head, args) = t.unfold_app();
        let next = match head.data() {
            TermData::Const(n) => match env.unfold(n) {
                Some(body) => Term::app(body.clone(), args.iter().cloned()),
                None => return t,
            },
            TermData::Let(_, v, body) => Term::app(subst1(body, v), args.iter().cloned()),
            TermData::Lambda(_, _) if !args.is_empty() => beta_apply(head, args),
            TermData::Elim(e) => {
                let scrutinee = whnf(env, &e.scrutinee);
                match iota(env, e, &scrutinee) {
                    Some(r) => Term::app(r, args.iter().cloned()),
                    // Stuck: expose the weak-head-normal scrutinee.
                    None => {
                        let stuck = Term::elim(ElimData {
                            scrutinee,
                            ..e.clone()
                        });
                        return Term::app(stuck, args.iter().cloned());
                    }
                }
            }
            _ => return t,
        };
        t = next;
    }
}

/// `e` ι-reduced, when its weak-head-normal `scrutinee` is a fully
/// applied constructor of `e`'s family.
fn iota(env: &Env, e: &ElimData, scrutinee: &Term) -> Option<Term> {
    let (ind, j, cargs) = scrutinee.as_construct_app()?;
    let decl = env.inductive(ind).ok()?;
    let p = decl.nparams();
    if ind != &e.ind || cargs.len() != p + decl.ctors.get(j)?.args.len() {
        return None;
    }
    Some(iota_reduce(decl, e, j, &cargs[p..]))
}

/// ι-reduction: `elim`'s case for constructor `j` of `decl` applied to the
/// constructor's arguments (parameters already stripped), each recursive
/// argument followed by its recursive elimination.
pub fn iota_reduce(decl: &InductiveDecl, elim: &ElimData, j: usize, ctor_args: &[Term]) -> Term {
    let flags = decl.recursive_flags(j);
    let mut actual: Vec<Term> = Vec::with_capacity(ctor_args.len() * 2);
    for (k, v) in ctor_args.iter().enumerate() {
        actual.push(v.clone());
        if flags[k] {
            actual.push(Term::elim(ElimData {
                scrutinee: v.clone(),
                ..elim.clone()
            }));
        }
    }
    beta_apply(&elim.cases[j], &actual)
}

/// Full βδιζ-normal form by rewriting: the weak head normal form, then
/// every subterm normalised in turn.
pub fn normalize(env: &Env, t: &Term) -> Term {
    let t = whnf(env, t);
    let binder = |b: &Binder| Binder {
        name: b.name.clone(),
        ty: normalize(env, &b.ty),
    };
    match t.data() {
        TermData::Rel(_)
        | TermData::Sort(_)
        | TermData::Const(_)
        | TermData::Ind(_)
        | TermData::Construct(_, _) => t.clone(),
        TermData::App(h, args) => {
            Term::app(normalize(env, h), args.iter().map(|a| normalize(env, a)))
        }
        TermData::Lambda(b, body) => Term::new(TermData::Lambda(binder(b), normalize(env, body))),
        TermData::Pi(b, body) => Term::new(TermData::Pi(binder(b), normalize(env, body))),
        TermData::Let(_, _, _) => unreachable!("whnf eliminates let"),
        TermData::Elim(e) => Term::elim(ElimData {
            ind: e.ind.clone(),
            params: e.params.iter().map(|p| normalize(env, p)).collect(),
            motive: normalize(env, &e.motive),
            cases: e.cases.iter().map(|c| normalize(env, c)).collect(),
            scrutinee: normalize(env, &e.scrutinee),
        }),
    }
}

/// Are `t` and `u` definitionally equal? Both sides are rewritten to weak
/// head normal form and compared structurally, with η for functions and
/// record-η as a fallback.
pub fn conv(env: &Env, t: &Term, u: &Term) -> bool {
    t == u || conv_whnf(env, &whnf(env, t), &whnf(env, u))
}

/// Cumulativity: conversion, except that sorts compare by `≤` through Pi
/// codomains (domains stay invariant).
pub fn conv_leq(env: &Env, t: &Term, u: &Term) -> bool {
    if t == u {
        return true;
    }
    let t = whnf(env, t);
    let u = whnf(env, u);
    match (t.data(), u.data()) {
        (TermData::Sort(s1), TermData::Sort(s2)) => s1.leq(*s2),
        (TermData::Pi(b1, c1), TermData::Pi(b2, c2)) => {
            conv(env, &b1.ty, &b2.ty) && conv_leq(env, c1, c2)
        }
        _ => conv_whnf(env, &t, &u),
    }
}

/// Conversion on terms already in weak head normal form.
fn conv_whnf(env: &Env, t: &Term, u: &Term) -> bool {
    // Surjective pairing (definitional η for single-constructor,
    // non-recursive inductives): `C (proj₀ z) … (projₙ z) ≡ z`.
    conv_whnf_structural(env, t, u) || record_eta(env, t, u) || record_eta(env, u, t)
}

/// Does `t = Construct(I, 0) params (proj₀ z) … (projₙ z)` for a record-like
/// inductive `I`, with `z ≡ u`?
fn record_eta(env: &Env, t: &Term, u: &Term) -> bool {
    let Some((ind, 0, args)) = t.as_construct_app() else {
        return false;
    };
    let Ok(decl) = env.inductive(ind) else {
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
    let mut scrutinee: Option<Term> = None;
    for i in 0..nfields {
        let w = whnf(env, &args[p + i]);
        let TermData::Elim(e) = w.data() else {
            return false;
        };
        if &e.ind != ind || e.cases.len() != 1 {
            return false;
        }
        // The case must select field i.
        let (binders, body) = e.cases[0].strip_lambdas();
        if binders.len() != nfields || body != Term::rel(nfields - 1 - i) {
            return false;
        }
        // Parameters must agree with the constructor's.
        if e.params.len() != p || !e.params.iter().zip(args).all(|(x, y)| conv(env, x, y)) {
            return false;
        }
        match &scrutinee {
            None => scrutinee = Some(e.scrutinee.clone()),
            Some(s) if conv(env, s, &e.scrutinee) => {}
            Some(_) => return false,
        }
    }
    scrutinee.is_some_and(|s| conv(env, &s, u))
}

fn conv_whnf_structural(env: &Env, t: &Term, u: &Term) -> bool {
    let all = |xs: &[Term], ys: &[Term]| {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| conv(env, x, y))
    };
    if t == u {
        return true;
    }
    match (t.data(), u.data()) {
        (TermData::Rel(i), TermData::Rel(j)) => i == j,
        (TermData::Sort(s1), TermData::Sort(s2)) => s1 == s2,
        // Opaque or bodyless constants are compared by name; transparent
        // ones were unfolded by whnf already.
        (TermData::Const(n1), TermData::Const(n2)) => n1 == n2,
        (TermData::Ind(n1), TermData::Ind(n2)) => n1 == n2,
        (TermData::Construct(n1, j1), TermData::Construct(n2, j2)) => n1 == n2 && j1 == j2,
        (TermData::Pi(b1, c1), TermData::Pi(b2, c2))
        | (TermData::Lambda(b1, c1), TermData::Lambda(b2, c2)) => {
            conv(env, &b1.ty, &b2.ty) && conv(env, c1, c2)
        }
        // η: fun x => b  ≡  u  when  b ≡ u x.
        (TermData::Lambda(_, body), _) => conv(env, body, &Term::app(lift(u, 1), [Term::rel(0)])),
        (_, TermData::Lambda(_, body)) => conv(env, &Term::app(lift(t, 1), [Term::rel(0)]), body),
        (TermData::App(h1, a1), TermData::App(h2, a2)) => {
            a1.len() == a2.len() && conv_whnf(env, h1, h2) && all(a1, a2)
        }
        (TermData::Elim(e1), TermData::Elim(e2)) => {
            e1.ind == e2.ind
                && all(&e1.params, &e2.params)
                && conv(env, &e1.motive, &e2.motive)
                && all(&e1.cases, &e2.cases)
                && conv(env, &e1.scrutinee, &e2.scrutinee)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iota_reduce_successor() {
        let env = pumpkin_pi::pumpkin_stdlib::std_env();
        let nat = env.inductive(&"nat".into()).unwrap();
        // Elim(S x, P){pO, fun n IH => f n IH}
        let case_s = Term::lambda(
            "n",
            Term::ind("nat"),
            Term::lambda(
                "IH",
                Term::app(Term::const_("P"), [Term::rel(0)]),
                Term::app(Term::const_("f"), [Term::rel(1), Term::rel(0)]),
            ),
        );
        let elim = ElimData {
            ind: "nat".into(),
            params: vec![],
            motive: Term::const_("P"),
            cases: vec![Term::const_("pO"), case_s],
            scrutinee: Term::app(Term::construct("nat", 1), [Term::const_("x")]),
        };
        let reduced = iota_reduce(nat, &elim, 1, &[Term::const_("x")]);
        // f x (Elim(x, P){…})
        let inner = Term::elim(ElimData {
            scrutinee: Term::const_("x"),
            ..elim.clone()
        });
        assert_eq!(
            reduced,
            Term::app(Term::const_("f"), [Term::const_("x"), inner])
        );
    }
}
