//! Error-path and edge-case tests for the repair engine: misconfiguration,
//! redeclaration, idempotence, axioms, and boundary mappings.

use pumpkin_core::search::{factor, ornament, swap, tuple_record};
use pumpkin_core::{LiftState, NameMap, RepairError, Repairer};
use pumpkin_kernel::term::Term;
use pumpkin_stdlib as stdlib;

#[test]
fn configure_unknown_types_fails_cleanly() {
    let mut env = stdlib::std_env();
    let r = swap::configure(
        &mut env,
        &"NoSuch.list".into(),
        &"New.list".into(),
        NameMap::default(),
    );
    assert!(matches!(r, Err(RepairError::Kernel(_))));
}

#[test]
fn swap_between_different_arity_types_fails() {
    let mut env = stdlib::std_env();
    // nat (2 ctors) vs positive (3 ctors): no mapping exists.
    let r = swap::configure(
        &mut env,
        &"nat".into(),
        &"positive".into(),
        NameMap::default(),
    );
    assert!(matches!(r, Err(RepairError::SearchFailed { .. })));
}

#[test]
fn factor_requires_bool_shaped_target() {
    let mut env = stdlib::std_env();
    // Target is nat (S takes a nat, not a bool) — rejected.
    let r = factor::configure_with(
        &mut env,
        &"I".into(),
        &"nat".into(),
        [0, 1],
        NameMap::default(),
    );
    assert!(matches!(r, Err(RepairError::SearchFailed { .. })));
    // Bad mapping.
    let r = factor::configure_with(
        &mut env,
        &"I".into(),
        &"J".into(),
        [0, 0],
        NameMap::default(),
    );
    assert!(matches!(r, Err(RepairError::BadMapping(_))));
}

#[test]
fn tuple_analysis_rejects_non_tuples() {
    let env = stdlib::std_env();
    let r = tuple_record::analyze_tuple(&env, &"word".into());
    assert!(r.is_err());
}

#[test]
fn ornament_requires_the_list_vector_shapes() {
    let mut env = pumpkin_kernel::env::Env::new();
    stdlib::logic::load(&mut env).unwrap();
    stdlib::nat::load(&mut env).unwrap();
    // `list` is missing entirely.
    let r = ornament::configure(&mut env, NameMap::default());
    assert!(r.is_err());
}

#[test]
fn axioms_repair_to_axioms() {
    let mut env = stdlib::std_env();
    // An assumed statement over Old.list.
    env.assume(
        "Old.mystery",
        pumpkin_lang::term(
            &env,
            "forall (T : Type 1) (l : Old.list T), eq (Old.list T) (Old.rev T (Old.rev T l)) l",
        )
        .unwrap(),
    )
    .unwrap();
    let lifting = swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    let mut st = LiftState::new();
    let to = Repairer::new(&lifting)
        .state(&mut st)
        .run_one(&mut env, &"Old.mystery".into())
        .unwrap();
    assert_eq!(to.as_str(), "New.mystery");
    let decl = env.const_decl(&to).unwrap();
    assert!(decl.body.is_none(), "axioms stay axioms");
    assert!(decl.ty.mentions_global(&"New.list".into()));
}

#[test]
fn repair_is_idempotent_per_state() {
    let mut env = stdlib::std_env();
    let lifting = swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    let mut st = LiftState::new();
    let a = Repairer::new(&lifting)
        .state(&mut st)
        .run_one(&mut env, &"Old.rev".into())
        .unwrap();
    let b = Repairer::new(&lifting)
        .state(&mut st)
        .run_one(&mut env, &"Old.rev".into())
        .unwrap();
    assert_eq!(a, b);
    // A *fresh* state still succeeds by accepting the identical existing
    // definition.
    let mut st2 = LiftState::new();
    let c = Repairer::new(&lifting)
        .state(&mut st2)
        .run_one(&mut env, &"Old.rev".into())
        .unwrap();
    assert_eq!(a, c);
}

#[test]
fn name_collision_with_different_definition_is_reported() {
    let mut env = stdlib::std_env();
    // Occupy the target name with something else.
    env.define("New.rev", Term::ind("nat"), pumpkin_stdlib::nat::nat_lit(0))
        .unwrap();
    let lifting = swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    let mut st = LiftState::new();
    let r = Repairer::new(&lifting)
        .state(&mut st)
        .run_one(&mut env, &"Old.rev".into());
    assert!(matches!(
        r,
        Err(RepairError::Kernel(
            pumpkin_kernel::error::KernelError::Redeclaration(_)
        ))
    ));
}

#[test]
fn repair_module_reports_unknown_constants() {
    let mut env = stdlib::std_env();
    let lifting = swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    let mut st = LiftState::new();
    let r = Repairer::new(&lifting)
        .state(&mut st)
        .run(&mut env, &["Old.rev", "Old.nonexistent"]);
    assert!(r.is_err());
}

#[test]
fn map_constant_stops_repair_at_a_boundary() {
    let mut env = stdlib::std_env();
    let lifting = swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    // Pretend Old.app already has a hand-written replacement.
    pumpkin_lang::load_source(
        &mut env,
        "Definition my_app : forall (T : Type 1), New.list T -> New.list T -> New.list T :=
           fun (T : Type 1) (l m : New.list T) =>
             elim l : New.list T return (fun (x : New.list T) => New.list T) with
             | fun (t : T) (l' : New.list T) (ih : New.list T) => New.cons T t ih
             | m
             end.",
    )
    .unwrap();
    let mut st = LiftState::new();
    st.map_constant("Old.app", "my_app");
    let to = Repairer::new(&lifting)
        .state(&mut st)
        .run_one(&mut env, &"Old.app_nil_r".into())
        .unwrap();
    let body = env.const_decl(&to).unwrap().body.clone().unwrap();
    assert!(body.mentions_global(&"my_app".into()));
    assert!(
        !env.contains("New.app"),
        "the boundary prevented a fresh New.app"
    );
}

#[test]
fn lift_stats_are_populated() {
    let mut env = stdlib::std_env();
    let lifting = swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    let mut st = LiftState::new();
    Repairer::new(&lifting)
        .state(&mut st)
        .run_one(&mut env, &"Old.rev_app_distr".into())
        .unwrap();
    assert!(st.stats.visits > 0);
    assert!(st.stats.constants_lifted >= 5);
    assert!(st.stats.cache_misses > 0);
}

#[test]
fn std_env_roots_share_admission_verdicts() {
    // Two roots from `std_env()`, which share the process's admission
    // memo: the second run of the same repair admits the declarations the
    // first had checked. The `Shared.` prefix is this test's own, so the
    // first run checks every repaired declaration whatever else this
    // process has repaired.
    let repair = || {
        let mut env = stdlib::std_env();
        let lifting = swap::configure(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "Shared."),
        )
        .unwrap();
        let report = Repairer::new(&lifting)
            .run(&mut env, &["Old.rev", "Old.app"])
            .unwrap();
        let decls: Vec<_> = report
            .repaired
            .iter()
            .map(|(_, to)| env.const_decl(to).unwrap().clone())
            .collect();
        (decls, report.kernel)
    };
    let (first, cold) = repair();
    let (second, warm) = repair();
    assert_eq!(first, second);
    assert!(warm.admission_hits > cold.admission_hits, "{warm:?}");
    assert!(warm.infer_calls < cold.infer_calls, "{warm:?} vs {cold:?}");
}
