//! The paper's evaluation timings (§6), one bench group per experiment.
//! The paper reports wall-clock budgets rather than tables of numbers;
//! EXPERIMENTS.md records paper-vs-measured for each entry:
//!
//! * `swap_list_module`   — §2/§6.1 `Swap.v`: whole list module (< 90 s).
//! * `replica_variant/*`  — §6.1: each REPLICA variant (< 5 s each).
//! * `enum_30_configure`  — §6.1.3: 30-constructor Enum permutation.
//! * `ornament_zip`       — §6.2: zip development to Σ-packed vectors.
//! * `binary_nat`         — §6.3 `nonorn.v` (< 1 s).
//! * `galois_round_trip`  — §6.4 (≤ 10 s interactive budget).
//! * `decompile_rev_app_distr` — §5: decompile + validate.

use pumpkin_bench::kernel_cold_std_env;
use pumpkin_pi::case_studies;
use pumpkin_pi::pumpkin_core::{self, NameMap};
use pumpkin_pi::pumpkin_stdlib as stdlib;
use pumpkin_pi::pumpkin_tactics;
use pumpkin_testkit::Bench;

fn bench_swap_module(b: &mut Bench) {
    let base = kernel_cold_std_env();
    b.bench(
        "swap_list_module",
        || base.clone(),
        |mut env| {
            case_studies::swap_list_module(&mut env).unwrap();
            env
        },
    );
}

fn bench_replica_variants(b: &mut Bench) {
    let mut base = kernel_cold_std_env();
    let variants = case_studies::declare_replica_variants(&mut base).unwrap();
    b.bench(
        "replica_variant/swap_int_eq",
        || base.clone(),
        |mut env| {
            case_studies::replica_variant(&mut env, "New.Term", "New.").unwrap();
            env
        },
    );
    for (ty, prefix) in variants {
        let label = ty.trim_end_matches(".Term").to_lowercase();
        b.bench(
            &format!("replica_variant/{label}"),
            || base.clone(),
            |mut env| {
                case_studies::replica_variant(&mut env, &ty, &prefix).unwrap();
                env
            },
        );
    }
}

fn bench_enum_30(b: &mut Bench) {
    let mut base = kernel_cold_std_env();
    base.declare_inductive(stdlib::replica::enum_decl("Enum", 30))
        .unwrap();
    base.declare_inductive(stdlib::replica::enum_decl("Enum2", 30))
        .unwrap();
    let perm: Vec<usize> = (0..30).map(|i| (i + 7) % 30).collect();
    b.bench(
        "enum_30_configure",
        || base.clone(),
        |mut env| {
            pumpkin_core::search::swap::configure_with(
                &mut env,
                &"Enum".into(),
                &"Enum2".into(),
                &perm,
                NameMap::prefix("Enum.", "Enum2."),
            )
            .unwrap()
        },
    );
}

fn bench_ornament(b: &mut Bench) {
    let base = kernel_cold_std_env();
    b.bench(
        "ornament_zip",
        || base.clone(),
        |mut env| {
            case_studies::ornament_zip(&mut env).unwrap();
            env
        },
    );
}

fn bench_binary(b: &mut Bench) {
    let base = kernel_cold_std_env();
    b.bench(
        "binary_nat",
        || base.clone(),
        |mut env| {
            case_studies::binary_nat(&mut env).unwrap();
            env
        },
    );
}

fn bench_galois(b: &mut Bench) {
    let base = kernel_cold_std_env();
    b.bench(
        "galois_round_trip",
        || base.clone(),
        |mut env| {
            case_studies::galois_round_trip(&mut env).unwrap();
            env
        },
    );
}

fn bench_decompile(b: &mut Bench) {
    let mut env = stdlib::std_env();
    case_studies::swap_list_module(&mut env).unwrap();
    b.bench_fn("decompile_rev_app_distr", || {
        let (goal, raw) = pumpkin_tactics::decompile_constant(&env, "New.rev_app_distr").unwrap();
        let script = pumpkin_tactics::second_pass(&raw);
        pumpkin_tactics::prove(&env, &goal, &script).unwrap()
    });
}

fn main() {
    let mut b = Bench::from_args();
    bench_swap_module(&mut b);
    bench_replica_variants(&mut b);
    bench_enum_30(&mut b);
    bench_ornament(&mut b);
    bench_binary(&mut b);
    bench_galois(&mut b);
    bench_decompile(&mut b);
    b.finish();
}
