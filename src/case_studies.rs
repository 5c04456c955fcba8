//! Reusable drivers for the paper's four case studies (§6), shared by the
//! integration tests and the benchmark harness so both measure exactly the
//! same work.
//!
//! Each driver takes a freshly built standard environment, runs
//! Configure + Transform (and where relevant Decompile), and returns the
//! names it produced. All outputs are kernel-checked as they are defined.

use pumpkin_core::{LiftState, NameMap, RepairReport, Repairer, Result};
use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;

/// §2 / §6.1: swap the list constructors and repair the whole list module.
pub fn swap_list_module(env: &mut Env) -> Result<RepairReport> {
    let lifting = pumpkin_core::search::swap::configure(
        env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )?;
    let mut st = LiftState::new();
    Repairer::new(&lifting)
        .state(&mut st)
        .run(env, pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS)
}

/// [`swap_list_module`] through the [`Repairer`] front door with trace
/// capture on — the `trace_overhead/on` ablation workload and the
/// reference producer for the `--trace` JSON-lines schema. The report
/// carries the full event stream and the derived metrics registry.
pub fn swap_list_module_traced(env: &mut Env) -> Result<RepairReport> {
    let lifting = pumpkin_core::search::swap::configure(
        env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )?;
    Repairer::new(&lifting)
        .trace(true)
        .run(env, pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS)
}

/// [`swap_list_module`] with the provenance recorder on but the trace
/// sink off — the `trace_overhead/prov` ablation workload. The report
/// carries per-constant provenance trees and no event stream.
pub fn swap_list_module_provenance(env: &mut Env) -> Result<RepairReport> {
    let lifting = pumpkin_core::search::swap::configure(
        env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )?;
    Repairer::new(&lifting)
        .provenance(true)
        .run(env, pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS)
}

/// The `Old.Term` development repaired in one REPLICA variant.
pub const REPLICA_CONSTANTS: &[&str] = &[
    "Old.size",
    "Old.eval",
    "Old.swap_eq_args",
    "Old.swap_eq_args_involutive",
    "Old.eval_eq_true_or_false",
];

/// §6.1: one REPLICA benchmark variant — repair the `Term` development
/// across a constructor permutation/renaming given by a declared variant
/// type.
pub fn replica_variant(env: &mut Env, to: &str, prefix_to: &str) -> Result<RepairReport> {
    let lifting = pumpkin_core::search::swap::configure(
        env,
        &"Old.Term".into(),
        &to.into(),
        NameMap::prefix("Old.", prefix_to),
    )?;
    let mut st = LiftState::new();
    Repairer::new(&lifting)
        .state(&mut st)
        .run(env, REPLICA_CONSTANTS)
}

/// Declares the paper's harder REPLICA variants (§6.1.2) and returns their
/// `(type name, rename prefix)` pairs: rename-all, permute >2, and
/// permute + rename.
pub fn declare_replica_variants(env: &mut Env) -> Result<Vec<(String, String)>> {
    use pumpkin_stdlib::replica::{canonical_ctors, term_variant, CtorKind};
    let mut out = Vec::new();

    // Rename every constructor, same order.
    let renamed: Vec<_> = CtorKind::ALL
        .iter()
        .map(|k| (*k, format!("Rn.{}", k.base_name().to_lowercase())))
        .collect();
    env.declare_inductive(term_variant("Rn.Term", &renamed))
        .map_err(pumpkin_core::RepairError::Kernel)?;
    out.push(("Rn.Term".to_string(), "Rn.".to_string()));

    // Permute more than two constructors (a 2+2 cycle on the same-type
    // group).
    let mut permuted = canonical_ctors("Pm.");
    permuted.swap(2, 5);
    permuted.swap(3, 4);
    env.declare_inductive(term_variant("Pm.Term", &permuted))
        .map_err(pumpkin_core::RepairError::Kernel)?;
    out.push(("Pm.Term".to_string(), "Pm.".to_string()));

    // Permute and rename at once.
    let mut pr: Vec<_> = CtorKind::ALL
        .iter()
        .map(|k| (*k, format!("PR.{}_", k.base_name())))
        .collect();
    pr.swap(1, 2);
    env.declare_inductive(term_variant("PR.Term", &pr))
        .map_err(pumpkin_core::RepairError::Kernel)?;
    out.push(("PR.Term".to_string(), "PR.".to_string()));
    Ok(out)
}

/// §3.1.1: factor `I`'s constructors out to `bool` and repair the De Morgan
/// development.
pub fn factor_demorgan(env: &mut Env) -> Result<RepairReport> {
    let lifting = pumpkin_core::search::factor::configure_with(
        env,
        &"I".into(),
        &"J".into(),
        [0, 1],
        NameMap::prefix("I.", "J."),
    )?;
    let mut st = LiftState::new();
    Repairer::new(&lifting).state(&mut st).run(
        env,
        &["I.neg", "I.and", "I.or", "I.demorgan_1", "I.demorgan_2"],
    )
}

/// The constants the ornament stage of §6.2 repairs.
pub const ZIP_CONSTANTS: &[&str] = &[
    "zip",
    "zip_with",
    "zip_with_is_zip",
    "length",
    "zip_length",
    "zip_with_length",
    // The rest of the list module, Devoid-style (paper §6.2: ornaments as
    // proof reuse): functions and proofs alike.
    "app",
    "rev",
    "map",
    "fold",
    "app_nil_r",
    "app_assoc",
    "rev_app_distr",
    "rev_involutive",
    "length_app",
    "rev_length",
    "map_app",
    "fold_app",
];

/// §6.2 stage 1: repair the zip development across `list ≃ Σ(n). vector n`.
pub fn ornament_zip(env: &mut Env) -> Result<RepairReport> {
    let lifting = pumpkin_core::search::ornament::configure(env, NameMap::prefix("", "Sig."))?;
    let mut st = LiftState::new();
    Repairer::new(&lifting)
        .state(&mut st)
        .run(env, ZIP_CONSTANTS)
}

/// §6.2 stage 2 glue: packing combinators, index invariants, the at-index
/// zips, and the final lemma over vectors at a particular length.
pub const AT_INDEX_SRC: &str = include_str!("at_index.v");

/// §6.2 stage 2: the unpack equivalence plus the at-index development
/// (requires [`ornament_zip`] to have run).
pub fn vectors_at_index(env: &mut Env) -> Result<()> {
    pumpkin_core::search::unpack::configure(env)?;
    if !env.contains("vzip_with_is_zip") {
        pumpkin_lang::load_source(env, AT_INDEX_SRC)?;
    }
    Ok(())
}

/// §6.3: the manual nat → N configuration; repairs `add` to `slow_add` and
/// the ι-expanded `add_n_Sm` to `slow_add_n_Sm`. Returns their names.
pub fn binary_nat(env: &mut Env) -> Result<(GlobalName, GlobalName)> {
    let names = NameMap::prefix("add_n_Sm_expanded", "slow_add_n_Sm")
        .with_rule("add_1_r", "Bin.add_1_r")
        .with_rule("add", "slow_add")
        .with_rule("mul", "slow_mul")
        .with_rule("", "Bin.");
    let lifting = pumpkin_core::manual::configure_nat_to_bin(env, names)?;
    pumpkin_core::manual::load_expanded_add_n_sm(env)?;
    let mut st = LiftState::new();
    let slow_add = Repairer::new(&lifting)
        .state(&mut st)
        .run_one(env, &"add".into())?;
    // mul's body references add: dependency repair kicks in even under a
    // manual configuration, reusing the cached slow_add mapping.
    Repairer::new(&lifting)
        .state(&mut st)
        .run_one(env, &"mul".into())?;
    let lemma = Repairer::new(&lifting)
        .state(&mut st)
        .run_one(env, &"add_n_Sm_expanded".into())?;
    Ok((slow_add, lemma))
}

/// §6.4: the Galois round trip — port `cork` and `corkLemma` to records,
/// then the lemma back to tuples. Returns (record lemma, round-tripped
/// lemma).
pub fn galois_round_trip(env: &mut Env) -> Result<(GlobalName, GlobalName)> {
    let projs = pumpkin_core::search::tuple_record::connection_projs();
    let fwd = pumpkin_core::search::tuple_record::configure_to_record(
        env,
        &"Connection".into(),
        &"Record.Connection".into(),
        &projs,
        NameMap::prefix("", "Record."),
    )?;
    let mut st = LiftState::new();
    Repairer::new(&fwd)
        .state(&mut st)
        .run_one(env, &"cork".into())?;
    let lemma = Repairer::new(&fwd)
        .state(&mut st)
        .run_one(env, &"corkLemma".into())?;

    let back = pumpkin_core::search::tuple_record::configure_to_tuple(
        env,
        &"Record.Connection".into(),
        &"Connection".into(),
        &projs,
        NameMap::prefix("Record.", "Tup."),
    )?;
    let mut st2 = LiftState::new();
    st2.map_constant("Record.cork", "cork");
    let round = Repairer::new(&back).state(&mut st2).run_one(env, &lemma)?;
    Ok((lemma, round))
}
