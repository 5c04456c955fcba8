//! Definitional equality (conversion) and cumulativity.
//!
//! The deciding engine is normalization by evaluation ([`crate::nbe`]):
//! both sides are evaluated once into a value domain and compared there,
//! instead of being repeatedly rewritten to weak head normal form, and
//! transparent constants are unfolded only when their spines disagree. This
//! module owns the public entry points — the syntactic fast path, the
//! per-[`Env`] `(TermId, TermId)` memo table, statistics, and tracing —
//! and retains the original whnf-rewriting checker
//! ([`conv_via_whnf`] / [`conv_leq_via_whnf`]) as a differential-testing
//! oracle.

use crate::env::Env;
use crate::reduce::whnf;
use crate::subst::lift;
use crate::term::{Term, TermData};

/// Are `t` and `u` definitionally equal (βδιζη-convertible)?
///
/// The `t == u` check is O(1): pointer identity, then hash-consed
/// [`Term::id`] equality. Everything past it is memoized on the [`Env`]
/// under the ordered `(TermId, TermId)` pair until the next environment
/// mutation (see [`Env::kernel_stats`] / [`Env::set_kernel_cache`]).
pub fn conv(env: &Env, t: &Term, u: &Term) -> bool {
    if t == u {
        return true;
    }
    env.tally(|s| s.conv_calls += 1);
    env.tracer().emit(pumpkin_trace::EventKind::Conv);
    if let Some(verdict) = env.conv_cached(t, u) {
        return verdict;
    }
    let verdict = crate::nbe::conv_terms(env, t, u, false);
    env.conv_insert(t, u, verdict);
    verdict
}

/// Cumulativity: is `t ≤ u` as types? Identical to conversion except sorts
/// compare with `≤`, propagated through Pi codomains only (domains stay
/// invariant). Not memoized, although the type checker does repeat its
/// queries (a `paper_corpus` pass issues about 1 670 non-trivial ones, over
/// fewer than 920 distinct pairs): once δ is lazy (see [`crate::nbe`]), a
/// `(TermId, TermId)` memo for `≤` measured no gain (25.45 vs 25.48
/// passes/s).
pub fn conv_leq(env: &Env, t: &Term, u: &Term) -> bool {
    if t == u {
        return true;
    }
    crate::nbe::conv_terms(env, t, u, true)
}

/// The pre-NbE conversion checker: repeated whnf rewriting plus structural
/// comparison. Kept as an executable specification — the property suite
/// checks [`conv`] agrees with it across the stdlib and case-study corpora.
pub fn conv_via_whnf(env: &Env, t: &Term, u: &Term) -> bool {
    if t == u {
        return true;
    }
    env.tally(|s| s.conv_calls += 1);
    if let Some(verdict) = env.conv_cached(t, u) {
        return verdict;
    }
    let tw = whnf(env, t);
    let uw = whnf(env, u);
    let verdict = conv_whnf(env, &tw, &uw);
    env.conv_insert(t, u, verdict);
    // Distinct queries that reduce to the same weak head normal forms
    // share a verdict, so memoize under the reduced pair as well.
    if &tw != t || &uw != u {
        env.conv_insert(&tw, &uw, verdict);
    }
    verdict
}

/// Whnf-rewriting cumulativity, the oracle counterpart of [`conv_leq`].
pub fn conv_leq_via_whnf(env: &Env, t: &Term, u: &Term) -> bool {
    if t == u {
        return true;
    }
    let t = whnf(env, t);
    let u = whnf(env, u);
    match (t.data(), u.data()) {
        (TermData::Sort(s1), TermData::Sort(s2)) => s1.leq(*s2),
        (TermData::Pi(b1, c1), TermData::Pi(b2, c2)) => {
            conv_via_whnf(env, &b1.ty, &b2.ty) && conv_leq_via_whnf(env, c1, c2)
        }
        _ => conv_whnf(env, &t, &u),
    }
}

/// Conversion on terms already in weak head normal form.
fn conv_whnf(env: &Env, t: &Term, u: &Term) -> bool {
    if conv_whnf_structural(env, t, u) {
        return true;
    }
    // Surjective pairing (definitional η for single-constructor,
    // non-recursive inductives — Coq's "primitive records"):
    // `C (proj₀ z) … (projₙ z) ≡ z`.
    record_eta(env, t, u) || record_eta(env, u, t)
}

/// Does `t = Construct(I, 0) params (proj₀ z) … (projₙ z)` for a record-like
/// inductive `I`, with `z ≡ u`?
fn record_eta(env: &Env, t: &Term, u: &Term) -> bool {
    let Some((ind, 0, args)) = t.as_construct_app() else {
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
        if e.params.len() != p
            || !e
                .params
                .iter()
                .zip(args.iter())
                .all(|(x, y)| conv_via_whnf(env, x, y))
        {
            return false;
        }
        match &scrutinee {
            None => scrutinee = Some(e.scrutinee.clone()),
            Some(s) => {
                if !conv_via_whnf(env, s, &e.scrutinee) {
                    return false;
                }
            }
        }
    }
    match scrutinee {
        Some(s) => conv_via_whnf(env, &s, u),
        None => false,
    }
}

fn conv_whnf_structural(env: &Env, t: &Term, u: &Term) -> bool {
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
        (TermData::Pi(b1, c1), TermData::Pi(b2, c2)) => {
            conv_via_whnf(env, &b1.ty, &b2.ty) && conv_via_whnf(env, c1, c2)
        }
        (TermData::Lambda(b1, c1), TermData::Lambda(b2, c2)) => {
            conv_via_whnf(env, &b1.ty, &b2.ty) && conv_via_whnf(env, c1, c2)
        }
        // η: fun x => b  ≡  u  when  b ≡ u x.
        (TermData::Lambda(_, body), _) => {
            let expanded = Term::app(lift(u, 1), [Term::rel(0)]);
            conv_via_whnf(env, body, &expanded)
        }
        (_, TermData::Lambda(_, body)) => {
            let expanded = Term::app(lift(t, 1), [Term::rel(0)]);
            conv_via_whnf(env, &expanded, body)
        }
        (TermData::App(h1, a1), TermData::App(h2, a2)) => {
            a1.len() == a2.len()
                && conv_whnf(env, h1, h2)
                && a1
                    .iter()
                    .zip(a2.iter())
                    .all(|(x, y)| conv_via_whnf(env, x, y))
        }
        (TermData::Elim(e1), TermData::Elim(e2)) => {
            e1.ind == e2.ind
                && e1.params.len() == e2.params.len()
                && e1.cases.len() == e2.cases.len()
                && e1
                    .params
                    .iter()
                    .zip(e2.params.iter())
                    .all(|(x, y)| conv_via_whnf(env, x, y))
                && conv_via_whnf(env, &e1.motive, &e2.motive)
                && e1
                    .cases
                    .iter()
                    .zip(e2.cases.iter())
                    .all(|(x, y)| conv_via_whnf(env, x, y))
                && conv_via_whnf(env, &e1.scrutinee, &e2.scrutinee)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Sort;

    #[test]
    fn eta_conversion() {
        let env = Env::new();
        // fun (x : Set) => f x  ≡  f
        let f = Term::const_("f");
        let mut env2 = env.clone();
        env2.assume("f", Term::arrow(Term::set(), Term::set()))
            .unwrap();
        let etad = Term::lambda("x", Term::set(), Term::app(f.clone(), [Term::rel(0)]));
        assert!(conv(&env2, &etad, &f));
        assert!(conv(&env2, &f, &etad));
    }

    #[test]
    fn cumulativity_on_sorts_and_products() {
        let env = Env::new();
        assert!(conv_leq(&env, &Term::prop(), &Term::type_(3)));
        assert!(!conv_leq(&env, &Term::type_(3), &Term::prop()));
        // (Set → Prop) ≤ (Set → Type 0), domains invariant.
        let a = Term::arrow(Term::set(), Term::prop());
        let b = Term::arrow(Term::set(), Term::type_(0));
        assert!(conv_leq(&env, &a, &b));
        assert!(!conv_leq(&env, &b, &a));
        let c = Term::arrow(Term::prop(), Term::prop());
        assert!(!conv_leq(&env, &a, &c));
    }

    #[test]
    fn delta_in_conversion() {
        let mut env = Env::new();
        env.define("T", Term::type_(1), Term::set()).unwrap();
        assert!(conv(&env, &Term::const_("T"), &Term::set()));
        env.set_opaque(&"T".into(), true).unwrap();
        assert!(!conv(&env, &Term::const_("T"), &Term::set()));
        assert!(conv(&env, &Term::const_("T"), &Term::const_("T")));
        assert!(conv_leq(&env, &Term::const_("T"), &Term::const_("T")));
        let _ = Sort::Set;
    }

    #[test]
    fn conv_cache_hits_are_counted_and_symmetric() {
        let mut env = Env::new();
        env.define("T", Term::type_(1), Term::set()).unwrap();
        let t = Term::const_("T");
        env.reset_kernel_stats();
        assert!(conv(&env, &t, &Term::set()));
        let after_first = env.kernel_stats();
        assert_eq!(after_first.conv_cache_hits, 0);
        assert!(after_first.conv_cache_misses >= 1);
        // Same query again: answered from the table.
        assert!(conv(&env, &t, &Term::set()));
        // Swapped operands: conversion is symmetric, still a hit.
        assert!(conv(&env, &Term::set(), &t));
        let after = env.kernel_stats();
        assert!(after.conv_cache_hits >= 2, "stats: {after}");
        assert_eq!(after.conv_cache_misses, after_first.conv_cache_misses);
    }

    #[test]
    fn transparency_flip_invalidates_cached_conversions() {
        // The δ-staleness scenario the generation counter exists for: a
        // cached `conv(T, Set) = true` must not survive `set_opaque`.
        let mut env = Env::new();
        env.define("T", Term::type_(1), Term::set()).unwrap();
        let t = Term::const_("T");
        assert!(conv(&env, &t, &Term::set()));
        assert!(conv(&env, &t, &Term::set())); // definitely cached now
        env.set_opaque(&"T".into(), true).unwrap();
        assert!(!conv(&env, &t, &Term::set()));
        env.set_opaque(&"T".into(), false).unwrap();
        assert!(conv(&env, &t, &Term::set()));
        // A no-op flip does not retire the generation.
        let gen = env.generation();
        env.set_opaque(&"T".into(), false).unwrap();
        assert_eq!(env.generation(), gen);
    }

    #[test]
    fn cache_disabled_gives_identical_verdicts() {
        let mut env = Env::new();
        env.define("T", Term::type_(1), Term::set()).unwrap();
        env.define("U", Term::type_(1), Term::const_("T")).unwrap();
        let queries = [
            (Term::const_("U"), Term::set()),
            (Term::const_("U"), Term::const_("T")),
            (Term::const_("T"), Term::prop()),
        ];
        let cached: Vec<bool> = queries.iter().map(|(a, b)| conv(&env, a, b)).collect();
        env.set_kernel_cache(false);
        let uncached: Vec<bool> = queries.iter().map(|(a, b)| conv(&env, a, b)).collect();
        assert_eq!(cached, uncached);
        assert!(!env.kernel_cache_enabled());
        env.set_kernel_cache(true);
    }

    #[test]
    fn nbe_and_whnf_checkers_agree_on_basic_queries() {
        let mut env = Env::new();
        env.define("T", Term::type_(1), Term::set()).unwrap();
        env.define("U", Term::type_(1), Term::const_("T")).unwrap();
        env.assume("f", Term::arrow(Term::set(), Term::set()))
            .unwrap();
        let etad = Term::lambda(
            "x",
            Term::set(),
            Term::app(Term::const_("f"), [Term::rel(0)]),
        );
        let queries = [
            (Term::const_("U"), Term::set()),
            (Term::const_("U"), Term::const_("T")),
            (Term::const_("T"), Term::prop()),
            (etad, Term::const_("f")),
        ];
        for (a, b) in &queries {
            let fresh1 = env.clone();
            let fresh2 = env.clone();
            assert_eq!(
                conv(&fresh1, a, b),
                conv_via_whnf(&fresh2, a, b),
                "disagreement on {a} ≡ {b}"
            );
            assert_eq!(
                conv_leq(&fresh1, a, b),
                conv_leq_via_whnf(&fresh2, a, b),
                "leq disagreement on {a} ≤ {b}"
            );
        }
    }
}
