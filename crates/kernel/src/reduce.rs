//! Reduction: weak head normalization and full normalization.
//!
//! Rules: β (application of a lambda), δ (unfolding of transparent
//! constants), ι (eliminator applied to a constructor, paper §4.1.2), and ζ
//! (let). Opaque constants (see [`crate::env::ConstDecl::opaque`]) block δ,
//! reproducing the paper's δ-blocklist (§4.4).
//!
//! Both entry points run on the evaluator that also decides conversion
//! ([`crate::nbe`]), so the kernel has one reduction engine. [`whnf`]
//! reduces only the head: the type checker, the tactic interpreter and the
//! tuple/record search build terms from what it leaves, so every other
//! constant comes back folded. [`normalize`] unfolds everything. The
//! rewriting engine they replaced lives on as a test oracle in the
//! workspace's `tests/oracle`.

use crate::env::Env;
use crate::term::{Term, TermData};

/// Weak head normal form.
///
/// A term whose head cannot reduce — a sort, product, unapplied λ, a
/// variable, inductive family or constructor, or a δ-blocked constant, each
/// possibly applied — is returned as written. Any other term is evaluated
/// with constants glued, its head is forced, and the value is read back with
/// every other constant folded, so a type's field types keep their names.
/// ι leaves each induction hypothesis unevaluated until the head needs it
/// and reads it back as its eliminator, so the work, and the native stack,
/// follow the head's reduction rather than the size of the value.
/// The answer never depends on the environment's memo tables: this path
/// neither reads nor writes them, and repeating a query repeats the work.
///
/// Infallible: ill-formed redexes (unknown globals, arity mismatches) are
/// simply left stuck; the type checker reports them properly.
pub fn whnf(env: &Env, t: &Term) -> Term {
    let (head, args) = t.unfold_app();
    let rigid = match head.data() {
        TermData::Rel(_)
        | TermData::Sort(_)
        | TermData::Ind(_)
        | TermData::Construct(_, _)
        | TermData::Pi(_, _) => true,
        TermData::Lambda(_, _) => args.is_empty(),
        TermData::Const(n) => {
            let blocked = env.unfold(n).is_none();
            if blocked {
                env.note_stuck_const(n);
            }
            blocked
        }
        TermData::App(_, _) | TermData::Let(_, _, _) | TermData::Elim(_) => false,
    };
    // Bare rigid heads are not counted: answering them is the fast path.
    if rigid && args.is_empty() {
        return t.clone();
    }
    env.tally(|s| s.whnf_calls += 1);
    env.tracer().emit(pumpkin_trace::EventKind::Whnf);
    if rigid {
        return t.clone();
    }
    crate::nbe::whnf(env, t)
}

/// Full βδιζ-normal form: evaluates `t` with every transparent constant
/// unfolded, then reads the value back ([`crate::nbe`]). Closed subterms
/// go through the environment's value memo, so repeating a query does no
/// reduction work until the environment changes.
pub fn normalize(env: &Env, t: &Term) -> Term {
    crate::nbe::normalize(env, t, usize::MAX).expect("an unbounded readback always answers")
}

/// [`normalize`], or `None` when the normal form would nest deeper than
/// `max_depth` (the root is depth 0, each node one deeper than its parent).
/// Readback stops at the bound, so an over-deep normal form is never built,
/// and the native stack it would need is never used.
pub fn normalize_within(env: &Env, t: &Term, max_depth: usize) -> Option<Term> {
    crate::nbe::normalize(env, t, max_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inductive::{CtorDecl, InductiveDecl};
    use crate::term::{Binder, ElimData};
    use crate::universe::Sort;

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

    /// add := fun n m => Elim(n, fun _ => nat){ m, fun _ ih => S ih }
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
    fn beta_delta_iota_compute_addition() {
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
    }

    #[test]
    fn opaque_blocks_delta() {
        let mut env = env_with_nat();
        env.define("two", Term::ind("nat"), nat_lit(2)).unwrap();
        assert_eq!(whnf(&env, &Term::const_("two")), nat_lit(2));
        env.set_opaque(&"two".into(), true).unwrap();
        assert_eq!(whnf(&env, &Term::const_("two")), Term::const_("two"));
        env.set_opaque(&"two".into(), false).unwrap();
        assert_eq!(normalize(&env, &Term::const_("two")), nat_lit(2));
    }

    #[test]
    fn whnf_respects_transparency_flips() {
        let mut env = env_with_nat();
        env.define("two", Term::ind("nat"), nat_lit(2)).unwrap();
        let two = Term::const_("two");
        assert_eq!(whnf(&env, &two), nat_lit(2));
        env.set_opaque(&"two".into(), true).unwrap();
        // Nothing computed before the flip may resurface the unfolded body.
        assert_eq!(whnf(&env, &two), two);
        env.set_opaque(&"two".into(), false).unwrap();
        assert_eq!(whnf(&env, &two), nat_lit(2));
    }

    #[test]
    fn whnf_cache_disabled_agrees_with_enabled() {
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
        // Warm the value memo first: whnf must not read what it holds.
        assert_eq!(normalize(&env, &call), nat_lit(5));
        let cached = whnf(&env, &call);
        env.set_kernel_cache(false);
        let uncached = whnf(&env, &call);
        assert_eq!(cached, uncached);
        env.set_kernel_cache(true);
    }

    #[test]
    fn whnf_reduces_the_head_and_keeps_other_constants_folded() {
        let mut env = env_with_nat();
        let nat_to_nat = Term::arrow(Term::ind("nat"), Term::ind("nat"));
        env.define("N", Term::set(), Term::ind("nat")).unwrap();
        env.define(
            "add",
            Term::arrow(Term::ind("nat"), nat_to_nat.clone()),
            add(),
        )
        .unwrap();
        // `F := fun (A : Set) => A → N`: the head unfolds, `N` stays.
        let arrow_n = Term::arrow(Term::rel(0), Term::const_("N"));
        env.define(
            "F",
            Term::arrow(Term::set(), Term::set()),
            Term::lambda("A", Term::set(), arrow_n),
        )
        .unwrap();
        let f_nat = Term::app(Term::const_("F"), [Term::ind("nat")]);
        env.reset_kernel_stats();
        assert_eq!(
            whnf(&env, &f_nat),
            Term::arrow(Term::ind("nat"), Term::const_("N"))
        );
        let stats = env.kernel_stats();
        assert_eq!(stats.whnf_calls, 1);
        assert_eq!((stats.delta_steps, stats.beta_steps), (1, 1), "{stats}");
        // δ, β and ι fire until a constructor heads the result; the
        // constructor's argument keeps `add` folded.
        let call = Term::app(
            Term::const_("add"),
            [
                nat_lit(1),
                Term::app(Term::const_("add"), [nat_lit(0), nat_lit(0)]),
            ],
        );
        let r = whnf(&env, &call);
        assert!(env.kernel_stats().iota_steps >= 1, "ι fired");
        assert_eq!(r.as_construct_app().map(|(_, j, _)| j), Some(1), "{r}");
        assert_eq!(normalize(&env, &r), nat_lit(1));
        assert!(r.mentions_global(&"add".into()), "{r}");
        // A rigid head is answered as written, applied or not.
        let stuck = Term::app(Term::construct("nat", 1), [call.clone()]);
        assert!(whnf(&env, &stuck).same_allocation(&stuck));
    }

    #[test]
    fn whnf_is_lazy_in_arguments() {
        let env = env_with_nat();
        // (fun x => O) ((fun y => y) O)  —  whnf should not normalize the arg.
        let id = Term::lambda("y", Term::ind("nat"), Term::rel(0));
        let konst = Term::lambda("x", Term::ind("nat"), nat_lit(0));
        let t = Term::app(konst, [Term::app(id, [nat_lit(0)])]);
        assert_eq!(whnf(&env, &t), nat_lit(0));
    }

    #[test]
    fn zeta_reduces_let() {
        let env = env_with_nat();
        let t = Term::let_("x", Term::ind("nat"), nat_lit(1), Term::rel(0));
        assert_eq!(whnf(&env, &t), nat_lit(1));
    }

    #[test]
    fn stuck_elim_exposes_whnf_scrutinee() {
        let mut env = env_with_nat();
        env.assume("k", Term::ind("nat")).unwrap();
        let e = Term::elim(ElimData {
            ind: "nat".into(),
            params: vec![],
            motive: Term::lambda("_", Term::ind("nat"), Term::ind("nat")),
            cases: vec![
                nat_lit(0),
                Term::lambda(
                    "n",
                    Term::ind("nat"),
                    Term::lambda("ih", Term::ind("nat"), Term::rel(0)),
                ),
            ],
            scrutinee: Term::app(
                Term::lambda("z", Term::ind("nat"), Term::rel(0)),
                [Term::const_("k")],
            ),
        });
        let r = whnf(&env, &e);
        match r.data() {
            TermData::Elim(e2) => assert_eq!(e2.scrutinee, Term::const_("k")),
            _ => panic!("expected stuck elim, got {r}"),
        }
    }
}
