//! Property-based tests of the kernel substrate: substitution laws,
//! normalization idempotence, conversion congruence, parser ↔
//! pretty-printer round trips, and coherence of the kernel's conv/whnf
//! memo layer — all on randomly generated terms from the deterministic
//! [`pumpkin_testkit`] generator.

use pumpkin_pi::pumpkin_kernel::conv::conv;
use pumpkin_pi::pumpkin_kernel::reduce::{normalize, whnf};
use pumpkin_pi::pumpkin_kernel::subst::{lift, lift_from, subst1, subst_at, subst_many};
use pumpkin_pi::pumpkin_kernel::term::Term;
use pumpkin_pi::pumpkin_kernel::typecheck::infer_closed;
use pumpkin_pi::pumpkin_lang;
use pumpkin_pi::pumpkin_stdlib as stdlib;
use pumpkin_testkit::{check, Rng};
use stdlib::nat::{nat_lit, nat_value};

/// Random *well-scoped* (possibly open) lambda terms over `nat`, with free
/// variables drawn from `0..4`.
fn arb_scoped(rng: &mut Rng, depth: u32) -> Term {
    if depth == 0 || rng.chance(2, 5) {
        match rng.index(4) {
            0 => Term::rel(rng.index(4)),
            1 => Term::ind("nat"),
            2 => Term::construct("nat", 0),
            _ => Term::const_("add"),
        }
    } else {
        match rng.index(3) {
            0 => Term::app1(arb_scoped(rng, depth - 1), arb_scoped(rng, depth - 1)),
            1 => Term::lambda("x", Term::ind("nat"), arb_scoped(rng, depth - 1)),
            _ => Term::pi("x", Term::ind("nat"), arb_scoped(rng, depth - 1)),
        }
    }
}

/// A model of nat arithmetic expressions, evaluable in Rust and buildable
/// as well-typed kernel terms.
#[derive(Clone, Debug)]
enum Arith {
    Lit(u64),
    Add(Box<Arith>, Box<Arith>),
    Mul(Box<Arith>, Box<Arith>),
    Sub(Box<Arith>, Box<Arith>),
}

fn arb_arith(rng: &mut Rng, depth: u32) -> Arith {
    if depth == 0 || rng.chance(1, 3) {
        Arith::Lit(rng.below(8))
    } else {
        let a = Box::new(arb_arith(rng, depth - 1));
        let b = Box::new(arb_arith(rng, depth - 1));
        match rng.index(3) {
            0 => Arith::Add(a, b),
            1 => Arith::Mul(a, b),
            _ => Arith::Sub(a, b),
        }
    }
}

impl Arith {
    fn eval(&self) -> u64 {
        match self {
            Arith::Lit(n) => *n,
            Arith::Add(a, b) => a.eval() + b.eval(),
            Arith::Mul(a, b) => a.eval() * b.eval(),
            Arith::Sub(a, b) => a.eval().saturating_sub(b.eval()),
        }
    }

    fn term(&self) -> Term {
        match self {
            Arith::Lit(n) => nat_lit(*n),
            Arith::Add(a, b) => Term::app(Term::const_("add"), [a.term(), b.term()]),
            Arith::Mul(a, b) => Term::app(Term::const_("mul"), [a.term(), b.term()]),
            Arith::Sub(a, b) => Term::app(Term::const_("sub"), [a.term(), b.term()]),
        }
    }
}

#[test]
fn lift_composition_and_identity() {
    check(256, |rng| {
        let t = arb_scoped(rng, 3);
        let a = rng.index(3);
        let b = rng.index(3);
        assert_eq!(lift(&t, 0), t.clone());
        assert_eq!(lift(&lift(&t, a), b), lift(&t, a + b));
    });
}

#[test]
fn subst_after_lift_is_identity() {
    check(256, |rng| {
        let t = arb_scoped(rng, 3);
        let v = arb_scoped(rng, 2);
        // Substituting into a lifted term hits nothing.
        assert_eq!(subst1(&lift_from(&t, 0, 1), &v), t);
    });
}

#[test]
fn lift_commutes_with_subst_at_depth() {
    check(256, |rng| {
        let t = arb_scoped(rng, 3);
        let v = arb_scoped(rng, 2);
        let k = 1 + rng.index(2);
        // lift_from above the substitution point commutes.
        let lhs = lift_from(&subst1(&t, &v), 0, k);
        let rhs = subst1(&lift_from(&t, 1, k), &lift_from(&v, 0, k));
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn subst_many_open_values() {
    // Regression for the simultaneous-substitution bug: open values must
    // keep their "context outside the whole binder group" interpretation.
    // The executable spec is substitution at descending indices, which
    // never re-traverses an already-substituted value.
    check(512, |rng| {
        let t = arb_scoped(rng, 3);
        let n = 1 + rng.index(3);
        let values: Vec<Term> = (0..n).map(|_| arb_scoped(rng, 2)).collect();
        let simultaneous = subst_many(&t, &values);
        let mut descending = t.clone();
        for (k, v) in values.iter().enumerate().rev() {
            descending = subst_at(&descending, k, v);
        }
        assert_eq!(simultaneous, descending);
    });
}

#[test]
fn subst_many_on_group_members_is_projection() {
    // Rel(i) for i < n maps to exactly values[i], unchanged.
    check(256, |rng| {
        let n = 1 + rng.index(3);
        let values: Vec<Term> = (0..n).map(|_| arb_scoped(rng, 2)).collect();
        let i = rng.index(n);
        assert_eq!(subst_many(&Term::rel(i), &values), values[i]);
        // And an ambient variable just shifts down by the group size.
        let j = n + rng.index(3);
        assert_eq!(subst_many(&Term::rel(j), &values), Term::rel(j - n));
    });
}

#[test]
fn arithmetic_agrees_with_model_and_normalize_is_idempotent() {
    let env = stdlib::std_env();
    check(64, |rng| {
        let e = arb_arith(rng, 3);
        let t = e.term();
        let n1 = normalize(&env, &t);
        assert_eq!(nat_value(&n1), Some(e.eval()));
        let n2 = normalize(&env, &n1);
        assert_eq!(&n1, &n2);
        // Conversion: a term is convertible with its normal form.
        assert!(conv(&env, &t, &n1));
        // And typing is preserved by normalization.
        let ty1 = infer_closed(&env, &t).unwrap();
        let ty2 = infer_closed(&env, &n1).unwrap();
        assert!(conv(&env, &ty1, &ty2));
    });
}

#[test]
fn conversion_is_congruent_for_arithmetic() {
    let env = stdlib::std_env();
    check(64, |rng| {
        let a = arb_arith(rng, 3);
        let b = arb_arith(rng, 3);
        let (ta, tb) = (a.term(), b.term());
        let equal = a.eval() == b.eval();
        assert_eq!(conv(&env, &ta, &tb), equal);
    });
}

#[test]
fn cached_conv_and_whnf_agree_with_uncached() {
    // The kernel memo layer must be semantically invisible: every verdict
    // and every weak head normal form computed with the cache on equals
    // the one computed with the cache off, on the same queries in the
    // same order (so the cached run actually exercises hits).
    let cached_env = stdlib::std_env();
    let mut uncached_env = stdlib::std_env();
    uncached_env.set_kernel_cache(false);
    check(48, |rng| {
        let a = arb_arith(rng, 3);
        let b = arb_arith(rng, 3);
        let (ta, tb) = (a.term(), b.term());
        assert_eq!(
            conv(&cached_env, &ta, &tb),
            conv(&uncached_env, &ta, &tb),
            "conv verdict diverged on {ta} vs {tb}"
        );
        // Repeat the same query so the cached run takes the memo path.
        assert_eq!(conv(&cached_env, &ta, &tb), conv(&uncached_env, &ta, &tb));
        assert_eq!(
            whnf(&cached_env, &ta),
            whnf(&uncached_env, &ta),
            "whnf diverged on {ta}"
        );
        assert_eq!(whnf(&cached_env, &ta), whnf(&uncached_env, &ta));
    });
    // The cached run must actually have used the cache.
    let stats = cached_env.kernel_stats();
    assert!(
        stats.conv_cache_hits > 0 || stats.whnf_cache_hits > 0,
        "differential test never hit the cache: {stats}"
    );
}

#[test]
fn transparency_flips_invalidate_cached_delta_results() {
    // For random arithmetic, flipping `add`/`mul`/`sub` opaque must
    // change reduction behaviour immediately (no stale cache), and
    // flipping back must restore it.
    let mut env = stdlib::std_env();
    let names = ["add", "mul", "sub"];
    check(24, |rng| {
        let e = arb_arith(rng, 2);
        let t = e.term();
        let transparent_nf = normalize(&env, &t);
        assert_eq!(nat_value(&transparent_nf), Some(e.eval()));

        let name = *rng.pick(&names);
        env.set_opaque(&name.into(), true).unwrap();
        let opaque_nf = normalize(&env, &t);
        if t.mentions_global(&name.into()) {
            // The blocked constant is stuck, so the normal form differs
            // whenever the expression actually uses it.
            assert!(
                opaque_nf.mentions_global(&name.into()),
                "δ-blocked `{name}` vanished from normal form of {t}"
            );
        } else {
            assert_eq!(opaque_nf, transparent_nf);
        }
        env.set_opaque(&name.into(), false).unwrap();
        // Back to transparent: cached opaque results must not leak.
        assert_eq!(normalize(&env, &t), transparent_nf);
    });
}

#[test]
fn pretty_parse_round_trip_on_random_closed_terms() {
    let env = stdlib::std_env();
    // Closed terms: wrap open terms in enough lambdas.
    check(128, |rng| {
        let mut t = arb_scoped(rng, 3);
        for _ in 0..4 {
            t = Term::lambda("v", Term::ind("nat"), t);
        }
        assert!(t.is_closed());
        let printed = pumpkin_lang::pretty(&env, &t);
        let reparsed = pumpkin_lang::term(&env, &printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        assert_eq!(reparsed, t);
    });
}

#[test]
fn structural_hash_is_stable_under_reallocation() {
    // Equal terms built independently share a structural hash; hashing is
    // alpha-invariant like equality.
    check(128, |rng| {
        let seed = rng.u64();
        let t1 = arb_scoped(&mut Rng::new(seed), 3);
        let t2 = arb_scoped(&mut Rng::new(seed), 3);
        assert_eq!(t1, t2);
        assert_eq!(t1.structural_hash(), t2.structural_hash());
    });
    let a = Term::lambda("x", Term::set(), Term::rel(0));
    let b = Term::lambda("completely_different_name", Term::set(), Term::rel(0));
    assert_eq!(a.structural_hash(), b.structural_hash());
}

#[test]
fn parallel_repair_error_keeps_only_completed_waves() {
    // Error barrier regression: when a mid-module repair fails, the failing
    // wave is rolled back wholesale, so the environment contains exactly
    // the completed earlier waves — every installed constant type-correct.
    use pumpkin_pi::pumpkin_core::{LiftState, ModuleDag, Repairer};
    use pumpkin_pi::pumpkin_kernel::name::GlobalName;
    use pumpkin_pi::pumpkin_kernel::typecheck::{check_closed, check_is_type};

    let all = stdlib::swap::OLD_MODULE_CONSTANTS;
    let mut env = stdlib::std_env();
    // Poison: the repair target of a mid-module lemma already exists with
    // an unrelated definition, so its wave fails (redeclaration).
    env.define("New.rev_app_distr", Term::ind("nat"), nat_lit(0))
        .unwrap();
    let lifting = pumpkin_pi::pumpkin_core::search::swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        pumpkin_pi::pumpkin_core::NameMap::prefix("Old.", "New."),
    )
    .unwrap();

    let nodes: Vec<GlobalName> = all.iter().map(GlobalName::new).collect();
    let waves = ModuleDag::build(&env, &nodes).waves();
    let failing_wave = waves
        .iter()
        .position(|w| w.iter().any(|&i| nodes[i].as_str() == "Old.rev_app_distr"))
        .unwrap();
    assert!(failing_wave > 0, "the poisoned lemma must not be a root");

    let mut st = LiftState::new();
    let res = Repairer::new(&lifting).state(&mut st).run(&mut env, all);
    assert!(res.is_err(), "poisoned repair must fail");

    for (w, members) in waves.iter().enumerate() {
        for &i in members {
            let new_name = nodes[i].as_str().replace("Old.", "New.");
            if w < failing_wave {
                assert!(
                    env.contains(&new_name),
                    "completed-wave constant {new_name} missing"
                );
            } else if new_name != "New.rev_app_distr" {
                assert!(
                    !env.contains(&new_name),
                    "{new_name} leaked from dropped wave {w}"
                );
            }
        }
    }
    // The poison is untouched, and everything installed re-typechecks.
    let poison = env.const_decl(&"New.rev_app_distr".into()).unwrap();
    assert_eq!(poison.ty, Term::ind("nat"));
    let merged: Vec<_> = env
        .constants()
        .filter(|d| d.name.as_str().starts_with("New."))
        .cloned()
        .collect();
    for d in merged {
        check_is_type(&env, &d.ty).unwrap_or_else(|e| panic!("{}: {e}", d.name));
        if let Some(b) = &d.body {
            check_closed(&env, b, &d.ty).unwrap_or_else(|e| panic!("{}: {e}", d.name));
        }
    }
}

#[test]
fn record_eta_conversion_holds_for_pairs_and_sigma() {
    let env = stdlib::std_env();
    // ∀ p : prod nat bool, (fst p, snd p) ≡ p — definitional surjective
    // pairing (our documented deviation; see DESIGN.md).
    let lhs = pumpkin_lang::term(
        &env,
        "fun (p : prod nat bool) =>
           pair nat bool (fst nat bool p) (snd nat bool p)",
    )
    .unwrap();
    let rhs = pumpkin_lang::term(&env, "fun (p : prod nat bool) => p").unwrap();
    assert!(conv(&env, &lhs, &rhs));
    // But distinct pairs are still distinguished.
    let a = pumpkin_lang::term(&env, "pair nat bool O true").unwrap();
    let b = pumpkin_lang::term(&env, "pair nat bool O false").unwrap();
    assert!(!conv(&env, &a, &b));
}

#[test]
fn record_eta_holds_through_glued_projections() {
    // The ornament case study's `list_sig.eta` shape: an `existT` of the
    // two projections against the packed value itself. Lazy δ leaves each
    // field as a glued `projT1 …`/`projT2 …` application, which record-η
    // must unfold to see the projection eliminator.
    use pumpkin_pi::pumpkin_kernel::conv::{conv_leq, conv_leq_via_whnf, conv_via_whnf};

    let mut env = stdlib::std_env();
    pumpkin_lang::load_source(
        &mut env,
        "Definition sigv_eta : forall (T : Type 1),
             sigT nat (fun (n : nat) => vector T n) ->
             sigT nat (fun (n : nat) => vector T n) :=
           fun (T : Type 1) (s : sigT nat (fun (n : nat) => vector T n)) =>
             existT nat (fun (n : nat) => vector T n)
               (projT1 nat (fun (n : nat) => vector T n) s)
               (projT2 nat (fun (n : nat) => vector T n) s).",
    )
    .unwrap();
    let binders = "fun (T : Type 1) (s : sigT nat (fun (n : nat) => vector T n)) =>";
    let term = |body: &str| pumpkin_lang::term(&env, &format!("{binders} {body}")).unwrap();
    let packed = term(
        "existT nat (fun (n : nat) => vector T n)
           (projT1 nat (fun (n : nat) => vector T n) s)
           (projT2 nat (fun (n : nat) => vector T n) s)",
    );
    let via_constant = term("sigv_eta T s");
    let identity = term("s");
    for (t, u) in [
        (&packed, &identity),
        (&identity, &packed),
        (&via_constant, &identity),
        (&via_constant, &packed),
    ] {
        let fresh = || env.clone();
        assert!(conv(&fresh(), t, u), "{t} ≢ {u}");
        assert!(conv_leq(&fresh(), t, u), "{t} ≰ {u}");
        assert!(conv_via_whnf(&fresh(), t, u), "oracle: {t} ≢ {u}");
        assert!(conv_leq_via_whnf(&fresh(), t, u), "oracle: {t} ≰ {u}");
    }
    // A constant pair is not η-equal to the packed value.
    let empty = term("existT nat (fun (n : nat) => vector T n) O (vnil T)");
    for u in [&identity, &packed, &via_constant] {
        assert!(!conv(&env.clone(), &empty, u), "{empty} ≡ {u}");
        assert!(!conv_leq(&env.clone(), u, &empty), "{u} ≤ {empty}");
        assert!(
            !conv_via_whnf(&env.clone(), &empty, u),
            "oracle: {empty} ≡ {u}"
        );
    }
}

#[test]
fn shared_head_pairs_agree_with_the_oracle_and_the_model() {
    // Lazy δ compares `c a…` with `c b…` by their spines before unfolding
    // `c`. For add/mul/sub over random operands (some shared between the
    // sides) and for constants that ignore some arguments, a spine
    // mismatch must fall back to the unfoldings: every verdict equals the
    // whnf oracle's and the arithmetic model's.
    use pumpkin_pi::pumpkin_kernel::conv::{conv_leq, conv_leq_via_whnf, conv_via_whnf};

    let mut env = stdlib::std_env();
    pumpkin_lang::load_source(
        &mut env,
        "Definition kzero : nat -> nat := fun (_ : nat) => O.
         Definition kfirst : nat -> nat -> nat := fun (x : nat) (_ : nat) => x.",
    )
    .unwrap();
    let call =
        |head: &str, args: &[&Arith]| Term::app(Term::const_(head), args.iter().map(|a| a.term()));
    let agree = |t: &Term, u: &Term, truth: bool| {
        let fresh = || env.clone();
        assert_eq!(conv(&fresh(), t, u), truth, "conv {t} ≡ {u}");
        assert_eq!(conv_leq(&fresh(), t, u), truth, "conv_leq {t} ≤ {u}");
        assert_eq!(conv_via_whnf(&fresh(), t, u), truth, "oracle {t} ≡ {u}");
        assert_eq!(conv_leq_via_whnf(&fresh(), t, u), truth, "oracle {t} ≤ {u}");
    };
    // `(fun x y => x) v` evaluates to a closure over `v`: two of them share
    // a body, so conversion may skip applying them only when the captured
    // values are identical. Convertible-but-different captures must reach
    // the fallback; captures that differ must not be skipped over.
    let nat = || Term::ind("nat");
    let first = Term::lambda("x", nat(), Term::lambda("y", nat(), Term::rel(1)));
    let konst = |v: Term| Term::app(first.clone(), [v]);
    // The same closure body, reached through one more β-step.
    let konst_via = |v: Term| {
        Term::app(
            Term::lambda("z", nat(), Term::app(first.clone(), [Term::rel(0)])),
            [v],
        )
    };
    let add_1_1 = Term::app(Term::const_("add"), [nat_lit(1), nat_lit(1)]);
    agree(&konst(add_1_1.clone()), &konst(nat_lit(2)), true);
    agree(&konst(nat_lit(1)), &konst(nat_lit(2)), false);
    agree(&konst(nat_lit(0)), &konst_via(nat_lit(0)), true);
    agree(&konst(add_1_1), &konst_via(nat_lit(1)), false);
    check(64, |rng| {
        let a = arb_arith(rng, 2);
        let b = arb_arith(rng, 2);
        let c = if rng.chance(1, 2) {
            a.clone()
        } else {
            arb_arith(rng, 2)
        };
        let d = if rng.chance(1, 2) {
            b.clone()
        } else {
            arb_arith(rng, 2)
        };
        let (head, model): (&str, fn(u64, u64) -> u64) = *rng.pick(&[
            ("add", (|x, y| x + y) as fn(u64, u64) -> u64),
            ("mul", |x, y| x * y),
            ("sub", |x, y| x.saturating_sub(y)),
        ]);
        let pairs = [
            (
                call(head, &[&a, &b]),
                call(head, &[&c, &d]),
                model(a.eval(), b.eval()) == model(c.eval(), d.eval()),
            ),
            (call("kzero", &[&a]), call("kzero", &[&c]), true),
            (
                call("kfirst", &[&a, &b]),
                call("kfirst", &[&c, &d]),
                a.eval() == c.eval(),
            ),
            (konst(a.term()), konst(c.term()), a.eval() == c.eval()),
            (konst(a.term()), konst_via(c.term()), a.eval() == c.eval()),
        ];
        for (t, u, truth) in &pairs {
            agree(t, u, *truth);
        }
    });
}

// ---------------------------------------------------------------------
// Hash-consing and NbE-conversion properties
// ---------------------------------------------------------------------

#[test]
fn structural_equality_coincides_with_term_id_equality() {
    // The hash-consing invariant the kernel's memo tables rely on:
    // `t == u` exactly when `t.id() == u.id()`, across random terms built
    // independently.
    check(256, |rng| {
        let seed = rng.u64();
        let t1 = arb_scoped(&mut Rng::new(seed), 3);
        let t2 = arb_scoped(&mut Rng::new(seed), 3);
        let t3 = arb_scoped(rng, 3);
        assert_eq!(t1, t2);
        assert_eq!(t1.id(), t2.id());
        assert_eq!(
            t1 == t3,
            t1.id() == t3.id(),
            "eq/id disagree on {t1} vs {t3}"
        );
    });
    // Alpha-variants share an id (equality ignores binder names) without
    // sharing an allocation (printing does not).
    let a = Term::lambda("x", Term::set(), Term::rel(0));
    let b = Term::lambda("y", Term::set(), Term::rel(0));
    assert_eq!(a.id(), b.id());
    assert_eq!(a, b);
    assert!(!a.same_allocation(&b));
}

#[test]
fn wire_round_trip_preserves_interned_identity() {
    // intern → encode → decode → intern is the identity on `TermId`s —
    // and, because binder names travel on the wire and the arena interns
    // name-sensitively, on allocations too.
    use pumpkin_pi::pumpkin_wire::{
        decode_term, encode_term, term_from_envelope, term_to_envelope, Value,
    };
    check(128, |rng| {
        let t = arb_scoped(rng, 4);
        let bin = decode_term(&encode_term(&t)).unwrap();
        assert_eq!(bin.id(), t.id());
        assert!(
            bin.same_allocation(&t),
            "binary round trip re-allocated {t}"
        );
        let reparsed = Value::parse(&term_to_envelope(&t).to_string()).unwrap();
        let json = term_from_envelope(&reparsed).unwrap();
        assert_eq!(json.id(), t.id());
        assert!(json.same_allocation(&t), "JSON round trip re-allocated {t}");
    });
}

#[test]
fn nbe_conversion_agrees_with_whnf_conversion_on_the_corpus() {
    // The NbE checker and the retained whnf-rewriting oracle must agree on
    // every verdict over the real corpus: all stdlib constants plus the
    // case-study module after a swap repair. Each checker runs against its
    // own Env clone so neither can serve the other's memoized verdicts.
    use pumpkin_pi::pumpkin_kernel::conv::{conv_leq, conv_leq_via_whnf, conv_via_whnf};

    let mut env = stdlib::std_env();
    pumpkin_pi::case_studies::swap_list_module(&mut env).expect("case-study repair");
    let corpus: Vec<Term> = env
        .constants()
        .flat_map(|d| std::iter::once(d.ty.clone()).chain(d.body.clone()))
        .collect();
    assert!(
        corpus.len() > 50,
        "corpus unexpectedly small: {}",
        corpus.len()
    );

    let agree = |t: &Term, u: &Term| {
        let (nbe_env, whnf_env) = (env.clone(), env.clone());
        assert_eq!(
            conv(&nbe_env, t, u),
            conv_via_whnf(&whnf_env, t, u),
            "conv checkers disagree on {t} ≡ {u}"
        );
        let (nbe_env, whnf_env) = (env.clone(), env.clone());
        assert_eq!(
            conv_leq(&nbe_env, t, u),
            conv_leq_via_whnf(&whnf_env, t, u),
            "leq checkers disagree on {t} ≤ {u}"
        );
    };
    for (i, t) in corpus.iter().enumerate() {
        // A guaranteed-positive query: every term converts with its own
        // normal form…
        agree(t, &normalize(&env, t));
        // …and mixed queries against nearby corpus terms (mostly negative).
        for u in corpus.iter().skip(i + 1).take(2) {
            agree(t, u);
        }
    }
}
