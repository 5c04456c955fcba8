//! # pumpkin-stdlib
//!
//! The object-language standard library for the Pumpkin Pi reproduction:
//! every type, function, and lemma the paper's case studies depend on,
//! reconstructed in CIC_ω and checked by the kernel at load time.
//!
//! Modules mirror the paper's substrates:
//!
//! * [`logic`] — `eq`, `bool`, `prod`, `sigT`, `or`, and the equality lemma
//!   library (`f_equal`, `eq_rect`, …).
//! * [`nat`] — unary naturals and `add_n_Sm` (§6.3's transported proof).
//! * [`list`] — the list module (app/rev/length/map and the §2 proofs),
//!   parameterized by a name prefix, plus zip/zip_with (§6.2).
//! * [`swap`] — `Old.list` / `New.list` with swapped constructors (Fig. 1).
//! * [`vector`] — length-indexed vectors (Fig. 5).
//! * [`bin`] — `positive` / `N` with Peano recursion and
//!   `peano_rect_succ` (Fig. 9, §6.3).
//! * [`replica`] — the user-study `Term` language and variants (Fig. 16).
//! * [`factor`] — constructor factoring `I` / `J` (Fig. 4).
//! * [`galois`] — nested tuples vs. records, `cork`, `corkLemma` (Fig. 17).

pub mod bin;
pub mod factor;
pub mod galois;
pub mod list;
pub mod logic;
pub mod nat;
pub mod replica;
pub mod swap;
pub mod vector;

use std::sync::{Mutex, OnceLock, PoisonError};

use pumpkin_kernel::admission::AdmissionMemo;
use pumpkin_kernel::env::Env;

/// The kernel-checked library, built on first use. The source is fixed at
/// compile time, so one check per process suffices. `Env` is `Send` but
/// not `Sync` (its memo tables are `Cell`/`RefCell`), hence the `Mutex`:
/// it is held only while a caller clones.
static CHECKED: OnceLock<Mutex<Env>> = OnceLock::new();

/// An environment with the full standard library loaded.
///
/// The library is declared and kernel-checked once per process; every call
/// returns a clone of that environment. A clone shares its terms with the
/// original (they live in the global interner) and copies the declaration
/// maps, the warm memo tables and the kernel counters, so it is
/// indistinguishable from a fresh build. Mutating the returned
/// environment never affects later calls.
///
/// Every clone also shares the process's one admission memo
/// ([`pumpkin_kernel::admission`]), so a declaration the kernel accepted in
/// one clone is admitted unchecked in every other; a caller that must see
/// every check installs its own memo, or none, with
/// `Env::set_admission_memo`.
///
/// # Panics
///
/// Panics if any stdlib module fails to load — that would be a bug, since
/// every module is covered by tests.
pub fn std_env() -> Env {
    // Holders of the lock only clone, which reads the library and never
    // writes it, so a guard poisoned by a panicking clone is still valid.
    CHECKED
        .get_or_init(|| {
            let mut env = build();
            env.set_admission_memo(Some(AdmissionMemo::new()));
            Mutex::new(env)
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Declares and checks every stdlib module into a fresh environment.
fn build() -> Env {
    let mut env = Env::new();
    logic::load(&mut env).expect("logic loads");
    nat::load(&mut env).expect("nat loads");
    list::load(&mut env).expect("list loads");
    swap::load(&mut env).expect("swap lists load");
    vector::load(&mut env).expect("vector loads");
    bin::load(&mut env).expect("bin loads");
    replica::load(&mut env).expect("replica loads");
    factor::load(&mut env).expect("factor loads");
    galois::load(&mut env).expect("galois loads");
    env
}

#[cfg(test)]
mod tests {
    use pumpkin_kernel::env::{Env, GlobalRef};
    use pumpkin_kernel::name::GlobalName;
    use pumpkin_kernel::term::Term;

    use super::{build, std_env};

    /// `a` and `b` hold the same declarations in the same order, at the
    /// same generation, with the same counters and cache switch.
    fn assert_same(a: &Env, b: &Env) {
        assert_eq!(a.order(), b.order());
        for r in a.order() {
            match r {
                GlobalRef::Const(n) => assert_eq!(a.const_decl(n), b.const_decl(n)),
                GlobalRef::Ind(n) => assert_eq!(a.inductive(n), b.inductive(n)),
            }
        }
        assert_eq!(a.generation(), b.generation());
        assert_eq!(a.kernel_stats(), b.kernel_stats());
        assert_eq!(a.kernel_cache_enabled(), b.kernel_cache_enabled());
    }

    #[test]
    fn std_env_builds() {
        let env = std_env();
        assert!(env.contains("rev_app_distr"));
        assert!(env.contains("N.peano_rect_succ"));
        assert!(env.contains("Old.Term"));
        assert!(env.contains("corkLemma"));
    }

    #[test]
    fn every_clone_shares_the_process_admission_memo() {
        let define_probe = |mut env: Env| {
            let before = env.kernel_stats();
            let zero = Term::construct("nat", 0);
            env.define("shared_memo_probe", Term::ind("nat"), zero)
                .unwrap();
            env.kernel_stats().since(&before).admission_hits
        };
        assert!(std_env().admission_memo().is_some());
        // The first clone's kernel checks the probe; the second admits it.
        assert_eq!(define_probe(std_env()), 0);
        assert_eq!(define_probe(std_env()), 1);
    }

    #[test]
    fn std_env_equals_a_fresh_build() {
        assert_same(&std_env(), &build());
    }

    #[test]
    fn mutating_a_returned_env_leaves_later_calls_untouched() {
        let pristine = std_env();
        let mut env = std_env();
        let mark = env.order().len();
        let last = match &env.order()[mark - 1] {
            GlobalRef::Const(n) | GlobalRef::Ind(n) => n.clone(),
        };
        let nat = Term::ind("nat");
        let zero = Term::construct("nat", 0);
        env.define(
            "isolation_probe",
            nat,
            Term::app(Term::const_("add"), [zero.clone(), zero]),
        )
        .unwrap();
        env.set_opaque(&GlobalName::new("add"), true).unwrap();
        env.remove(&last).unwrap();
        env.rollback_to(mark - 5);
        env.set_kernel_cache(false);
        assert!(!env.contains(last.as_str()));

        let next = std_env();
        assert_same(&next, &pristine);
        assert!(next.contains(last.as_str()));
        assert!(!next.contains("isolation_probe"));
        assert!(!next.const_decl(&GlobalName::new("add")).unwrap().opaque);
        assert!(next.kernel_cache_enabled());
    }
}
