//! `std_env()` checks the library once per process.
//!
//! This file holds a single test on purpose: the term interner is
//! process-global, so any other test running beside it would move the
//! interner counters this one relies on.

use std::sync::{Arc, Barrier};
use std::thread;

use pumpkin_kernel::env::{Env, GlobalRef};
use pumpkin_kernel::intern::interner_stats;
use pumpkin_stdlib::std_env;

/// `a` and `b` hold the same declarations in the same order, at the same
/// generation, with the same counters and cache switch.
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
fn racing_first_calls_share_one_checked_library() {
    const THREADS: usize = 4;
    let start = Arc::new(Barrier::new(THREADS));
    let envs: Vec<Env> = (0..THREADS)
        .map(|_| {
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                std_env()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("std_env panicked"))
        .collect();
    assert!(envs[0].contains("rev_app_distr"));
    for env in &envs[1..] {
        assert_same(&envs[0], env);
    }

    // A rebuild would intern thousands of terms; a clone interns none.
    let before = interner_stats().lookups;
    let again = std_env();
    assert_eq!(interner_stats().lookups, before);
    assert_same(&envs[0], &again);
}
