//! Seed-replayable properties of incremental differential repair
//! (DESIGN.md §16). The central claim: repairing after touching a random
//! subset of a dependency chain, replaying the rest from the persist
//! cache, is **byte-identical** to repairing the edited module from
//! scratch — and the `{changed, replayed, skipped}` accounting re-lifts
//! exactly the touched links and everything downstream of them. Replay a
//! failure with `PUMPKIN_TEST_SEED`.

use std::path::PathBuf;

use pumpkin_pi::pumpkin_core::repair::check_source_free;
use pumpkin_pi::pumpkin_core::{DigestMap, LiftState, Lifting, NameMap, RepairReport, Repairer};
use pumpkin_pi::pumpkin_kernel::env::Env;
use pumpkin_pi::pumpkin_kernel::term::Term;
use pumpkin_pi::pumpkin_lang;
use pumpkin_pi::pumpkin_stdlib as stdlib;
use pumpkin_testkit::check;

/// Length of the generated `Old.mine*` dependency chain.
const CHAIN: usize = 6;

/// Sources a chain `Old.mine0 … Old.mineN`: each body is `S^{k_i}` of the
/// previous link (`O` for the first). Editing `k_i` changes link `i`'s
/// digest only — every later link keeps its digest but depends on the
/// edit, so its dependency fingerprint changes and its persisted repair,
/// lifted against the old link, must not replay.
fn chain_source(ks: &[u64]) -> String {
    let mut src = String::new();
    for (i, k) in ks.iter().enumerate() {
        let mut body = if i == 0 {
            "O".to_string()
        } else {
            format!("Old.mine{}", i - 1)
        };
        for _ in 0..*k {
            body = format!("(S {body})");
        }
        src.push_str(&format!("Definition Old.mine{i} : nat := {body}.\n"));
    }
    src
}

/// The standard world plus the chain, and the full work list (swap module
/// constants followed by the chain links).
fn world(ks: &[u64]) -> (Env, Vec<String>) {
    let mut env = stdlib::std_env();
    pumpkin_lang::load_source(&mut env, &chain_source(ks)).expect("load chain source");
    let mut names: Vec<String> = stdlib::swap::OLD_MODULE_CONSTANTS
        .iter()
        .map(|s| s.to_string())
        .collect();
    names.extend((0..ks.len()).map(|i| format!("Old.mine{i}")));
    (env, names)
}

fn configure(env: &mut Env) -> Lifting {
    pumpkin_pi::pumpkin_core::search::swap::configure(
        env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .expect("configure swap")
}

fn repair(
    env: &mut Env,
    names: &[String],
    cache: Option<&PathBuf>,
    prev: Option<&DigestMap>,
) -> RepairReport {
    let lifting = configure(env);
    let mut st = LiftState::new();
    let mut r = Repairer::new(&lifting).state(&mut st);
    if let Some(dir) = cache {
        r = r.persist_cache(dir);
    }
    if let Some(p) = prev {
        r = r.incremental(p);
    }
    let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
    r.run(env, &borrowed).expect("repair")
}

#[test]
fn incremental_replay_of_random_touches_matches_from_scratch() {
    let root = std::env::temp_dir().join(format!("pumpkin-incr-prop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    check(4, |rng| {
        let cache = root.join(format!("case-{:x}", rng.u64()));
        // v1: random S-counts per link; v2: bump a random subset of them.
        let ks1: Vec<u64> = (0..CHAIN).map(|_| rng.below(3)).collect();
        let touched: Vec<usize> = (0..CHAIN).filter(|_| rng.chance(1, 3)).collect();
        let mut ks2 = ks1.clone();
        for &i in &touched {
            ks2[i] += 1;
        }

        // Cold run on v1 populates the persist cache; snapshot its world.
        let (mut env1, names) = world(&ks1);
        let _ = repair(&mut env1, &names, Some(&cache), None);
        let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
        let snap = DigestMap::capture(&env1, &borrowed);

        // Reference: the edited module repaired from scratch, no cache.
        let (mut env_ref, _) = world(&ks2);
        let report_ref = repair(&mut env_ref, &names, None, None);
        assert!(
            report_ref.incr.is_none(),
            "cold runs must not report incr stats"
        );

        // Candidate: the same edit repaired incrementally against the
        // snapshot, replaying unchanged constants from the cache.
        let (mut env_inc, _) = world(&ks2);
        let report_inc = repair(&mut env_inc, &names, Some(&cache), Some(&snap));

        // Byte-identity: same name map, same repaired declarations.
        assert_eq!(
            report_ref.repaired, report_inc.repaired,
            "repaired name maps differ (touched {touched:?})"
        );
        for (_, to) in &report_inc.repaired {
            let r = env_ref.const_decl(to).unwrap();
            let i = env_inc.const_decl(to).unwrap();
            assert_eq!(
                pumpkin_lang::pretty(&env_ref, &r.ty),
                pumpkin_lang::pretty(&env_inc, &i.ty),
                "type of {to} diverged under replay"
            );
            match (&r.body, &i.body) {
                (Some(a), Some(b)) => assert_eq!(
                    pumpkin_lang::pretty(&env_ref, a),
                    pumpkin_lang::pretty(&env_inc, b),
                    "body of {to} diverged under replay"
                ),
                (None, None) => {}
                _ => panic!("definedness of {to} differs under replay"),
            }
        }

        // Accounting: `changed` is exactly the touched links, and the
        // fresh-lift set is the chain suffix from the first touch (its
        // downstream closure); everything else is a cache replay.
        let incr = report_inc.incr.expect("incremental run reports stats");
        assert_eq!(incr.changed, touched.len() as u64, "changed != touched set");
        let expect_fresh = touched.first().map_or(0, |&lo| CHAIN - lo);
        assert_eq!(
            incr.replayed, expect_fresh as u64,
            "fresh lifts != downstream closure of the touch {touched:?}"
        );
        assert_eq!(
            incr.replayed + incr.skipped,
            names.len() as u64,
            "incr accounting does not cover the work list"
        );

        let _ = std::fs::remove_dir_all(&cache);
    });
    let _ = std::fs::remove_dir_all(&root);
}

/// An edit to a dependency off the work list: `Old.f` stays `Old.h`, while
/// `Old.h` starts to use `Old.list`.
const OFF_LIST_V1: &str = "Definition Old.h : nat := O.\n\
                           Definition Old.f : nat := Old.h.";
const OFF_LIST_V2: &str =
    "Definition Old.h : nat := (fun (x : Old.list nat) => O) (Old.nil nat).\n\
                           Definition Old.f : nat := Old.h.";

/// `src` loaded into the standard world, and its swap configuration.
fn loaded(src: &str) -> (Env, Lifting) {
    let mut env = stdlib::std_env();
    pumpkin_lang::load_source(&mut env, src).expect("load source");
    let lifting = configure(&mut env);
    (env, lifting)
}

#[test]
fn an_off_list_dependency_edit_never_replays_a_stale_repair() {
    let root = std::env::temp_dir().join(format!("pumpkin-incr-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let names = ["Old.f"];
    let new_f = "New.f".into();
    // A cold v2 run repairs `Old.h` on demand: `New.f := New.h`.
    let (mut cold, lifting) = loaded(OFF_LIST_V2);
    Repairer::new(&lifting).run(&mut cold, &names).unwrap();
    let want = cold.const_decl(&new_f).unwrap().clone();
    assert_eq!(want.body, Some(Term::const_("New.h")));
    for incremental in [false, true] {
        // v1 fills the cache: there `Old.h` never mentions `Old.list`, so
        // `New.f := Old.h` is the right repair, and it is persisted.
        let cache = root.join(format!("incremental-{incremental}"));
        let (mut v1, lifting) = loaded(OFF_LIST_V1);
        Repairer::new(&lifting)
            .persist_cache(&cache)
            .run(&mut v1, &names)
            .unwrap();
        assert_eq!(
            v1.const_decl(&new_f).unwrap().body,
            Some(Term::const_("Old.h"))
        );
        let snap = DigestMap::capture(&v1, &names);
        // v2 through the same cache: `Old.f`'s digest is unchanged, but its
        // fingerprint is not, so its record reads as a miss.
        let (mut v2, lifting) = loaded(OFF_LIST_V2);
        let mut repairer = Repairer::new(&lifting).persist_cache(&cache);
        if incremental {
            repairer = repairer.incremental(&snap);
        }
        let report = repairer.run(&mut v2, &names).unwrap();
        assert_eq!(
            v2.const_decl(&new_f).unwrap(),
            &want,
            "incremental={incremental}: a cold run installs another repair"
        );
        check_source_free(&v2, &lifting, &new_f).unwrap();
        assert_eq!(report.lift.persist_hits, 0, "incremental={incremental}");
        if incremental {
            let incr = report.incr.expect("incremental run reports stats");
            assert_eq!((incr.changed, incr.replayed, incr.skipped), (0, 1, 0));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
