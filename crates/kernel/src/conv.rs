//! Definitional equality (conversion) and cumulativity.
//!
//! The deciding engine is normalization by evaluation ([`crate::nbe`]):
//! both sides are evaluated once into a value domain and compared there,
//! instead of being repeatedly rewritten to weak head normal form, and
//! transparent constants are unfolded only when their spines disagree. This
//! module owns the public entry points — the syntactic fast path,
//! statistics, and tracing. Verdicts are not memoised: the repairs of a
//! `paper_corpus` pass make no non-trivial `conv` call (the type checker
//! mostly asks [`conv_leq`]), and each side's closed subterms already come
//! from the environment's value memo. The whnf-rewriting checker NbE
//! replaced is a differential oracle in the workspace's `tests/oracle`,
//! outside the kernel.

use crate::env::Env;
use crate::term::Term;

/// Are `t` and `u` definitionally equal (βδιζη-convertible)?
///
/// The `t == u` check is O(1): pointer identity, then hash-consed
/// [`Term::id`] equality. Past it, every call is counted and traced (see
/// [`Env::kernel_stats`]) and decided by NbE.
pub fn conv(env: &Env, t: &Term, u: &Term) -> bool {
    if t == u {
        return true;
    }
    env.tally(|s| s.conv_calls += 1);
    env.tracer().emit(pumpkin_trace::EventKind::Conv);
    crate::nbe::conv_terms(env, t, u, false)
}

/// Cumulativity: is `t ≤ u` as types? Identical to conversion except sorts
/// compare with `≤`, propagated through Pi codomains only (domains stay
/// invariant). Neither counted nor traced.
pub fn conv_leq(env: &Env, t: &Term, u: &Term) -> bool {
    if t == u {
        return true;
    }
    crate::nbe::conv_terms(env, t, u, true)
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
    fn conv_is_symmetric_and_every_call_is_counted() {
        let mut env = Env::new();
        env.define("T", Term::type_(1), Term::set()).unwrap();
        let t = Term::const_("T");
        env.reset_kernel_stats();
        for _ in 0..2 {
            assert!(conv(&env, &t, &Term::set()));
            assert!(conv(&env, &Term::set(), &t));
            assert!(!conv(&env, &t, &Term::prop()));
            assert!(!conv(&env, &Term::prop(), &t));
        }
        // The syntactic fast path is not a call.
        assert!(conv(&env, &t, &t));
        assert_eq!(env.kernel_stats().conv_calls, 8);
    }

    #[test]
    fn transparency_flip_invalidates_cached_conversions() {
        // The δ-staleness scenario the generation counter exists for: a
        // verdict computed from a memoised value of `T` must not survive
        // `set_opaque`.
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
}
