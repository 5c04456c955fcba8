//! Reduction: weak head normalization and full normalization.
//!
//! Rules: β (application of a lambda), δ (unfolding of transparent
//! constants), ι (eliminator applied to a constructor, paper §4.1.2), and ζ
//! (let). Opaque constants (see [`crate::env::ConstDecl::opaque`]) block δ,
//! reproducing the paper's δ-blocklist (§4.4).
//!
//! [`whnf`] rewrites only the head and leaves every argument as written:
//! the type checker, the tactic interpreter and the tuple/record search
//! build terms from those unreduced arguments. [`normalize`] runs on the
//! evaluator that also decides conversion ([`crate::nbe`]), so the kernel
//! has one normaliser. The rewriting normaliser it replaced lives on as a
//! test oracle in the workspace's `tests/oracle`.

use crate::env::Env;
use crate::subst::{beta_apply, subst1};
use crate::term::{ElimData, Term, TermData};

/// Weak head normal form.
///
/// Infallible: ill-formed redexes (unknown globals, arity mismatches) are
/// simply left stuck; the type checker reports them properly.
///
/// Results are memoized on the [`Env`] (keyed by the term's precomputed
/// structural hash) until the next environment mutation; see
/// [`Env::kernel_stats`] for the hit/miss instrumentation and
/// [`Env::set_kernel_cache`] for the ablation switch.
pub fn whnf(env: &Env, t: &Term) -> Term {
    // Terms that are already weak-head-normal never enter the memo table;
    // answering them is cheaper than hashing them.
    match t.data() {
        TermData::Rel(_)
        | TermData::Sort(_)
        | TermData::Ind(_)
        | TermData::Construct(_, _)
        | TermData::Lambda(_, _)
        | TermData::Pi(_, _) => return t.clone(),
        TermData::Const(n) if env.unfold(n).is_none() => {
            env.note_stuck_const(n);
            return t.clone();
        }
        _ => {}
    }
    env.tally(|s| s.whnf_calls += 1);
    env.tracer().emit(pumpkin_trace::EventKind::Whnf);
    if let Some(r) = env.whnf_cached(t) {
        return r;
    }
    let r = whnf_uncached(env, t);
    env.whnf_insert(t.clone(), r.clone());
    r
}

fn whnf_uncached(env: &Env, t: &Term) -> Term {
    let mut t = t.clone();
    loop {
        let (head, args) = t.unfold_app();
        match head.data() {
            TermData::Const(n) => match env.unfold(n) {
                Some(body) => {
                    env.tally(|s| s.delta_steps += 1);
                    t = Term::app(body.clone(), args.iter().cloned());
                }
                None => {
                    env.note_stuck_const(n);
                    return t.clone();
                }
            },
            TermData::Let(_, v, body) => {
                env.tally(|s| s.zeta_steps += 1);
                t = Term::app(subst1(body, v), args.iter().cloned());
            }
            TermData::Lambda(_, _) if !args.is_empty() => {
                env.tally(|s| s.beta_steps += 1);
                t = beta_apply(head, args);
            }
            TermData::Elim(e) => {
                let scrut = whnf(env, &e.scrutinee);
                let reduced = (|| {
                    let (cind, j, cargs) = scrut.as_construct_app()?;
                    let decl = match env.inductive(cind) {
                        Ok(d) => d,
                        Err(_) => {
                            env.note_stuck_ind(cind);
                            return None;
                        }
                    };
                    if cind != &e.ind {
                        return None;
                    }
                    let p = decl.nparams();
                    let ctor = decl.ctors.get(j)?;
                    if cargs.len() != p + ctor.args.len() {
                        return None;
                    }
                    decl.iota_reduce(e, j, &cargs[p..]).ok()
                })();
                match reduced {
                    Some(r) => {
                        env.tally(|s| s.iota_steps += 1);
                        t = Term::app(r, args.iter().cloned());
                    }
                    None => {
                        // Stuck: expose the weak-head-normal scrutinee.
                        let stuck = Term::elim(ElimData {
                            scrutinee: scrut,
                            ..e.clone()
                        });
                        return Term::app(stuck, args.iter().cloned());
                    }
                }
            }
            _ => return t,
        }
    }
}

/// Full βδιζ-normal form: evaluates `t` with every transparent constant
/// unfolded, then reads the value back ([`crate::nbe`]). Closed subterms
/// go through the environment's value memo, so repeating a query does no
/// reduction work until the environment changes.
pub fn normalize(env: &Env, t: &Term) -> Term {
    crate::nbe::normalize(env, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inductive::{CtorDecl, InductiveDecl};
    use crate::term::Binder;
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
    fn whnf_memo_hits_and_step_counters() {
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
        env.reset_kernel_stats();
        let r1 = whnf(&env, &call);
        let first = env.kernel_stats();
        assert!(first.delta_steps >= 1, "δ fired: {first}");
        assert!(first.beta_steps >= 1, "β fired: {first}");
        assert!(first.iota_steps >= 1, "ι fired: {first}");
        assert_eq!(first.whnf_cache_hits, 0);
        // A structurally equal (but freshly allocated) term hits the memo.
        let call2 = Term::app(Term::const_("add"), [nat_lit(2), nat_lit(3)]);
        let r2 = whnf(&env, &call2);
        assert_eq!(r1, r2);
        let second = env.kernel_stats();
        assert_eq!(second.whnf_cache_hits, 1);
        // No further reduction work was done for the hit.
        assert_eq!(second.reduction_steps(), first.reduction_steps());
    }

    #[test]
    fn whnf_memo_respects_transparency_flips() {
        let mut env = env_with_nat();
        env.define("two", Term::ind("nat"), nat_lit(2)).unwrap();
        let two = Term::const_("two");
        assert_eq!(whnf(&env, &two), nat_lit(2));
        env.set_opaque(&"two".into(), true).unwrap();
        // Stale memo entry must not resurface the unfolded body.
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
        let cached = whnf(&env, &call);
        env.set_kernel_cache(false);
        let uncached = whnf(&env, &call);
        assert_eq!(cached, uncached);
        let stats = env.kernel_stats();
        env.set_kernel_cache(true);
        // With the cache off, probes are not counted as hits.
        let _ = whnf(&env, &call);
        assert!(env.kernel_stats().whnf_cache_misses >= stats.whnf_cache_misses);
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
